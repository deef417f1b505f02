//! `knor-dist` — knord, the distributed k-means engine (paper §3.3).
//!
//! knord runs one ||Lloyd's engine instance per *rank* (machine), each over
//! its contiguous slice of the rows, and reduces the per-iteration centroid
//! state — `k·d` accumulator sums plus `k` counts — with an all-reduce.
//! There is no driver/master: after the all-reduce every rank holds the
//! same merged state, finalizes the same centroids, and makes the same
//! convergence decision. That decentralization is the structural reason
//! knord outscales master-centric frameworks (Figs. 11–12).
//!
//! The iteration protocol is the shared [`knor_core::driver`]; this crate
//! plugs in a [`Reducer`] whose `reduce` hook performs the global
//! reduction over [`knor_mpi::LocalCluster`]'s in-process ranks.
//! Both all-reduce algorithms ([`ReduceAlgo::Ring`] and
//! [`ReduceAlgo::Star`]) accumulate in canonical rank order, so the two
//! produce bitwise-identical centroids — the run's trajectory depends only
//! on the data, never on the transport topology.
//!
//! **Data planes.** The paper's knord runs *either* knori or knors on
//! every node (§3.3, Figs. 11–13) — in-memory when each machine can hold
//! its slice, semi-external when it cannot. The [`RankPlane`] knob selects
//! the per-rank plane: [`RankPlane::InMemory`] mounts each rank's slice as
//! a `knor_core::plane::SlicePlane`, [`RankPlane::Sem`] has each rank open
//! its own byte range of the shared on-disk matrix through a private
//! [`knor_sem::SemPlane`] (own row cache, page cache, prefetch pool and
//! I/O counters — surfaced per rank in [`DistResult::rank_io`]). SEM ranks
//! need a file, so they run through [`DistKmeans::fit_file`]; and because
//! both planes stage and commit rows in task row order and the allreduce
//! sums in canonical rank order, the trajectory is independent of where
//! the rows physically live.
//!
//! Under MTI pruning the reduced quantities are *deltas* against persistent
//! sums each rank maintains identically, so Clause-1-skipped rows cost
//! neither data access nor wire bytes.
//!
//! ```
//! use knor_dist::{DistConfig, DistKmeans};
//! use knor_workloads::MixtureSpec;
//!
//! let data = MixtureSpec::friendster_like(600, 4, 7).generate().data;
//! let r = DistKmeans::new(DistConfig::new(4, 2, 2).with_seed(1)).fit(&data);
//! assert!(r.converged);
//! assert_eq!(r.assignments.len(), 600);
//! ```

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

use knor_core::centroids::Centroids;
use knor_core::driver::{run_mm, ReduceReport, Reducer, WorkerReport};
use knor_core::plane::{DataPlane, SlicePlane};
use knor_core::pruning::PruneCounters;
pub use knor_core::spec::RankPlane;
use knor_core::spec::{settle, DistExt, RunSpec};
use knor_core::sync::ExclusiveCell;
use knor_core::trace::{Phase, PhaseBreakdown, TraceGroup};
use knor_core::InitStats;
use knor_matrix::DMatrix;
use knor_mpi::collectives::{allreduce_f64, allreduce_max_u64};
use knor_mpi::{Comm, LocalCluster, NetModel, ReduceAlgo};
use knor_numa::Topology;
use knor_sem::plane::{forgy_from_file, open_reader, streamed_init, streamed_settle};
use knor_sem::{IoIterStats, SemPlane};

pub mod launch;
pub use launch::{launch, Fitted};

/// Configuration for a [`DistKmeans`] run: the run's description plus
/// knord's ranks, all-reduce, network model and per-rank plane (see
/// `knor_core::spec`). `threads` counts the workers inside each rank's
/// engine; initialization is computed once over the full data, then shared
/// by all ranks — knor seeds every machine identically.
pub type DistConfig = RunSpec<DistExt<ReduceAlgo, NetModel>>;

/// Statistics for one knord iteration: the engine counters (globalized
/// across ranks by the all-reduce) plus the reduction's wire accounting.
#[derive(Debug, Clone)]
pub struct DistIterStats {
    /// Iteration number, 0-based.
    pub iter: usize,
    /// Points reassigned this iteration, across all ranks.
    pub reassigned: u64,
    /// Rows touched this iteration, across all ranks.
    pub rows_accessed: u64,
    /// Pruning counters, across all ranks.
    pub prune: PruneCounters,
    /// Measured wall time of the iteration at rank 0.
    pub wall_ns: u64,
    /// Maximum centroid drift after the update.
    pub max_drift: f64,
    /// Wire bytes rank 0 sent in this iteration's reduction.
    pub comm_bytes: u64,
    /// Maximum wire bytes any rank sent in this iteration's reduction.
    pub max_rank_comm_bytes: u64,
    /// Modeled wire time of the reduction on the configured network.
    pub modeled_comm_ns: f64,
}

/// Per-rank communication totals for a whole run.
#[derive(Debug, Clone, Copy)]
pub struct RankComm {
    /// The rank id.
    pub rank: usize,
    /// Rows this rank owned.
    pub rows: usize,
    /// Total bytes this rank put on the wire.
    pub bytes_sent: u64,
    /// Total bytes this rank received.
    pub bytes_received: u64,
    /// Messages this rank sent.
    pub messages_sent: u64,
}

/// One rank's I/O record for a SEM-plane run: its private plane's
/// per-iteration statistics plus the prefetch-pool health at shutdown.
#[derive(Debug, Clone, Default)]
pub struct RankIo {
    /// The rank id.
    pub rank: usize,
    /// Per-iteration I/O statistics of this rank's plane (empty for
    /// in-memory ranks).
    pub io: Vec<IoIterStats>,
    /// Prefetch-pool threads of this rank found dead at shutdown
    /// (0 = healthy; non-zero means lost I/O overlap, never lost rows).
    pub panicked_io_threads: u64,
}

/// The outcome of a knord run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Final `k x d` centroids (identical on every rank).
    pub centroids: DMatrix,
    /// Final assignment of each row, in global row order.
    pub assignments: Vec<u32>,
    /// Number of iterations executed.
    pub niters: usize,
    /// True if assignments stabilized before the iteration cap.
    pub converged: bool,
    /// Per-iteration statistics.
    pub iters: Vec<DistIterStats>,
    /// Per-rank communication totals.
    pub rank_comm: Vec<RankComm>,
    /// Per-rank I/O records ([`DistKmeans::fit_file`] runs; empty for
    /// the in-memory [`DistKmeans::fit`] entry point).
    pub rank_io: Vec<RankIo>,
    /// Final within-cluster sum of squared distances, when requested.
    pub sse: Option<f64>,
    /// What the seeding cost (once, before the ranks start).
    pub init: InitStats,
    /// Per-phase trace fold over every rank's tracks, including each
    /// rank's allreduce comm track (`Some` iff `DistConfig`'s `trace` was
    /// attached).
    pub phases: Option<PhaseBreakdown>,
}

impl DistResult {
    /// Mean measured wall time per iteration at rank 0, nanoseconds.
    pub fn mean_iter_ns(&self) -> f64 {
        if self.iters.is_empty() {
            return 0.0;
        }
        self.iters.iter().map(|i| i.wall_ns as f64).sum::<f64>() / self.iters.len() as f64
    }

    /// Sum of pruning counters across iterations.
    pub fn total_prune(&self) -> PruneCounters {
        let mut total = PruneCounters::default();
        for it in &self.iters {
            total.merge(&it.prune);
        }
        total
    }
}

/// The knord solver.
pub struct DistKmeans {
    config: DistConfig,
}

impl DistKmeans {
    /// Create a solver from a configuration.
    pub fn new(config: DistConfig) -> Self {
        assert!(config.k >= 1, "k must be positive");
        assert!(config.max_iters >= 1, "need at least one iteration");
        Self { config }
    }

    /// Worker threads inside each rank's engine.
    fn threads_per_rank(&self) -> usize {
        self.config.threads.unwrap_or(1)
    }

    /// Cluster `data` across `ranks` in-process ranks, every rank holding
    /// its slice in memory. For SEM ranks (data larger than any rank's
    /// memory), see [`DistKmeans::fit_file`].
    pub fn fit(&self, data: &DMatrix) -> DistResult {
        let cfg = &self.config;
        assert!(
            matches!(cfg.ext.plane, RankPlane::InMemory),
            "RankPlane::Sem streams from a file; use DistKmeans::fit_file"
        );
        let n = data.nrow();
        assert!(cfg.k <= n, "k = {} exceeds n = {n}", cfg.k);

        // Initialization happens once over the full matrix; every rank
        // starts from identical centroids, as knor does by seeding each
        // machine's generator identically.
        let (init, init_stats) =
            cfg.init.initialize_with_stats(data, cfg.k, cfg.seed, self.threads_per_rank());
        let ranges = knor_matrix::partition_rows(n, cfg.ext.ranks);
        let slices = ranges.iter().map(|r| RankData::Mem(data.view(r.start, r.end))).collect();
        let mut out = self
            .run_ranks(data.ncol(), &init, &ranges, slices)
            .expect("in-memory rows cannot fail");
        let algo = cfg.algo.resolve(cfg.k, n, cfg.seed);
        out.sse = settle(&*algo, data, &out.centroids, &mut out.assignments, cfg.compute_sse);
        out.rank_io = Vec::new(); // in-memory entry point: no I/O record
        out.init = init_stats;
        out
    }

    /// Cluster the on-disk matrix at `path` across `ranks` in-process
    /// ranks **without ever materializing the full matrix in one
    /// process**: each rank reads only its own contiguous row range —
    /// into memory under [`RankPlane::InMemory`], or streamed on demand
    /// through a private per-rank SEM stack under [`RankPlane::Sem`]
    /// (the paper's memory-constrained-cluster deployment, Fig. 13).
    ///
    /// Initialization must avoid a full in-memory pass, so only
    /// [`knor_core::InitMethod::Forgy`] (device reads, identical picks to a knors
    /// run with the same seed) and [`knor_core::InitMethod::Given`] are accepted.
    pub fn fit_file(&self, path: &Path) -> std::io::Result<DistResult> {
        let cfg = &self.config;
        let h = knor_matrix::io::read_header(path)?;
        let (n, d) = (h.nrow as usize, h.ncol as usize);
        assert!(cfg.k <= n, "k = {} exceeds n = {n}", cfg.k);

        let (init, init_stats) = streamed_init(&cfg.init, (cfg.k, d), || {
            Ok(Centroids::from_matrix(&forgy_from_file(path, cfg.k, cfg.seed)?))
        })?;
        let ranges = knor_matrix::partition_rows(n, cfg.ext.ranks);
        let data = self.open_ranks(path, &ranges)?;
        let mut out = self.run_ranks(d, &init, &ranges, data)?;
        out.init = init_stats;
        // The final streamed pass over the file (the subsampling refresh
        // and/or the SSE) — never the whole matrix in memory.
        let algo = cfg.algo.resolve(cfg.k, n, cfg.seed);
        if algo.subsamples() || cfg.compute_sse {
            let (reader, sse) = (open_reader(path)?, cfg.compute_sse);
            out.sse = streamed_settle(&reader, &*algo, &out.centroids, &mut out.assignments, sse)?;
        }
        Ok(out)
    }

    /// Open every rank's data before any rank enters a collective, so an
    /// open/read failure is a clean error instead of a cluster deadlock.
    fn open_ranks(
        &self,
        path: &Path,
        ranges: &[Range<usize>],
    ) -> std::io::Result<Vec<RankData<'static>>> {
        let cfg = &self.config;
        let mut data = Vec::with_capacity(ranges.len());
        for (rank, range) in ranges.iter().enumerate() {
            data.push(match &cfg.ext.plane {
                RankPlane::InMemory => {
                    RankData::Read(knor_matrix::io::read_rows(path, range.start, range.end)?)
                }
                RankPlane::Sem(pcfg) => {
                    let plane =
                        SemPlane::open_range(path, pcfg, range.clone(), self.threads_per_rank())?;
                    if cfg.ext.inject_prefetch_panic_rank == Some(rank) {
                        plane.inject_prefetch_panic_for_test();
                    }
                    RankData::Sem(Box::new(plane))
                }
            });
        }
        Ok(data)
    }

    /// Run one engine per rank over its `data` and assemble the result
    /// (SSE and the subsampling refresh are the entry points'). A failed
    /// read after the open (the file shrank, the device erred) stops every
    /// rank at the same iteration and comes back as the error.
    fn run_ranks(
        &self,
        d: usize,
        init: &Centroids,
        ranges: &[Range<usize>],
        data: Vec<RankData<'_>>,
    ) -> std::io::Result<DistResult> {
        let cfg = &self.config;
        let n = ranges.last().map_or(0, |r| r.end);
        let threads = self.threads_per_rank();
        let pre: Vec<Mutex<Option<RankData<'_>>>> =
            data.into_iter().map(|d| Mutex::new(Some(d))).collect();
        let pre_ref = &pre;
        let results = LocalCluster::run(cfg.ext.ranks, |comm| {
            let rank = comm.rank();
            let mut data =
                pre_ref[rank].lock().expect("rank data lock").take().expect("rank data taken once");
            // Each rank resolves its own algorithm instance from identical
            // inputs; any per-run state (mini-batch cumulative counts)
            // advances identically because its inputs are allreduced.
            let topo = Topology::for_local_workers(threads);
            let run = cfg.resolve(ranges[rank].clone(), n, d, Some(topo), rank as u32);
            let reducer = RankReducer::new(cfg, &comm, run.algo.uses_weights(), threads, d);
            let outcome = {
                let slice;
                let plane: &dyn DataPlane = match &data {
                    RankData::Mem(v) => {
                        slice = SlicePlane(*v);
                        &slice
                    }
                    RankData::Read(m) => {
                        slice = SlicePlane(m.as_view());
                        &slice
                    }
                    RankData::Sem(p) => p.as_ref(),
                };
                let (place, queue) = (&run.placement, &run.queue);
                run_mm(&run.driver, init.clone(), place, queue, plane, &reducer, &*run.algo)
            };
            let io = match &mut data {
                RankData::Sem(p) => {
                    let report = p.finish();
                    RankIo { rank, io: report.io, panicked_io_threads: report.panicked_io_threads }
                }
                _ => RankIo { rank, ..RankIo::default() },
            };
            (outcome, comm.stats().snapshot(), io)
        });

        // A failed read stopped every rank at the same iteration (the failure
        // count rides the allreduce). Report the error of a rank that met
        // it over a peer's `Other`-kind "stopped" notice.
        let mut outcomes = Vec::with_capacity(results.len());
        let mut failure: Option<std::io::Error> = None;
        for (outcome, comm, io) in results {
            match outcome {
                Ok(o) => outcomes.push((o, comm, io)),
                Err(e) => {
                    if failure.as_ref().is_none_or(|f| f.kind() == std::io::ErrorKind::Other) {
                        failure = Some(e);
                    }
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }

        let mut out = assemble(outcomes, ranges, n);
        // All rank threads have joined: folding the shared buffer is safe.
        out.phases = cfg.trace.as_ref().map(|b| b.breakdown());
        Ok(out)
    }
}

/// One rank's rows: a slice of the caller's matrix ([`DistKmeans::fit`]),
/// or what [`DistKmeans::fit_file`] opened for it.
enum RankData<'a> {
    Mem(knor_matrix::RowView<'a>),
    Read(DMatrix),
    Sem(Box<SemPlane>),
}

/// Assemble rank outcomes into a [`DistResult`] (assignments concatenate
/// in rank order because the row partition is contiguous; SSE and the
/// subsampling refresh are the entry points' responsibility).
fn assemble(
    mut results: Vec<(knor_core::DriverOutcome, (u64, u64, u64), RankIo)>,
    ranges: &[Range<usize>],
    n: usize,
) -> DistResult {
    let mut assignments = Vec::with_capacity(n);
    for (outcome, _, _) in &results {
        assignments.extend_from_slice(&outcome.assignments);
    }
    let rank_comm = results
        .iter()
        .enumerate()
        .map(|(rank, (_, (sent, received, msgs), _))| RankComm {
            rank,
            rows: ranges[rank].len(),
            bytes_sent: *sent,
            bytes_received: *received,
            messages_sent: *msgs,
        })
        .collect();
    let rank_io = results.iter().map(|(_, _, io)| io.clone()).collect();

    let (outcome0, _, _) = results.swap_remove(0);
    let iters: Vec<DistIterStats> = outcome0
        .iters
        .into_iter()
        .zip(outcome0.reduces)
        .map(|(s, r)| DistIterStats {
            iter: s.iter,
            reassigned: s.reassigned,
            rows_accessed: s.rows_accessed,
            prune: s.prune,
            wall_ns: s.wall_ns,
            max_drift: s.max_drift,
            comm_bytes: r.comm_bytes,
            max_rank_comm_bytes: r.max_rank_comm_bytes,
            modeled_comm_ns: r.modeled_comm_ns,
        })
        .collect();

    let centroids = outcome0.centroids.to_matrix();
    DistResult {
        centroids,
        assignments,
        niters: iters.len(),
        converged: outcome0.converged,
        iters,
        rank_comm,
        rank_io,
        sse: None,
        init: InitStats::default(),
        phases: None,
    }
}

/// One rank's all-reduce window (its data plane — in-memory slice or
/// private SEM stack — goes to the driver directly).
struct RankReducer<'a> {
    comm: &'a Comm,
    algo: ReduceAlgo,
    net: NetModel,
    /// Modeled payload of one reduction: centroid sums + counts [+ the
    /// per-cluster contribution weights, for weighted algorithms] + the
    /// convergence scalars — what the engine actually puts on the wire
    /// each iteration.
    reduce_payload: u64,
    /// Whether the reduction carries the weights lane — true only for
    /// algorithms whose update reads `UpdateCtx::weights` (fuzzy).
    /// Everything else keeps the paper's `(k·d + k + SCALARS)` shape.
    carry_weights: bool,
    /// Bytes-sent watermark for per-iteration deltas (coordinator-only).
    prev_sent: ExclusiveCell<u64>,
    /// Coordinator-only allreduce staging, reused across iterations.
    reduce_buf: ExclusiveCell<Vec<f64>>,
    /// Dedicated single-slot trace track for this rank's allreduce
    /// windows, registered past the worker tids (`tid_base = threads`).
    /// Only the coordinator records onto it, inside its exclusive window.
    comm_track: Option<Arc<TraceGroup>>,
}

impl<'a> RankReducer<'a> {
    fn new(
        cfg: &DistConfig,
        comm: &'a Comm,
        carry_weights: bool,
        threads: usize,
        d: usize,
    ) -> Self {
        let k = cfg.k;
        let lanes = k * d + k + if carry_weights { k } else { 0 } + SCALARS;
        let comm_track =
            cfg.trace.as_ref().map(|b| b.register(comm.rank() as u32, 1, threads as u32));
        Self {
            comm,
            algo: cfg.ext.reduce,
            net: cfg.ext.net,
            reduce_payload: (lanes * 8) as u64,
            carry_weights,
            prev_sent: ExclusiveCell::new(0),
            reduce_buf: ExclusiveCell::new(Vec::with_capacity(lanes)),
            comm_track,
        }
    }
}

/// Scalar totals folded into the all-reduce payload so every rank shares
/// the convergence decision and the global counters. All are integer-valued
/// and well under 2^53, so the f64 transport is exact.
const SCALARS: usize = 8;

impl RankReducer<'_> {
    fn pack_scalars(totals: &WorkerReport) -> [f64; SCALARS] {
        [
            totals.reassigned as f64,
            totals.rows_accessed as f64,
            totals.counters.clause1_rows as f64,
            totals.counters.clause2_prunes as f64,
            totals.counters.clause3_prunes as f64,
            totals.counters.dist_computations as f64,
            totals.counters.io_skip_rows as f64,
            // A failed row source on any rank stops every rank at this
            // iteration, so no collective is left half-entered.
            totals.failed as f64,
        ]
    }

    fn unpack_scalars(totals: &mut WorkerReport, s: &[f64]) {
        totals.reassigned = s[0] as u64;
        totals.rows_accessed = s[1] as u64;
        totals.counters.clause1_rows = s[2] as u64;
        totals.counters.clause2_prunes = s[3] as u64;
        totals.counters.clause3_prunes = s[4] as u64;
        totals.counters.dist_computations = s[5] as u64;
        totals.counters.io_skip_rows = s[6] as u64;
        totals.failed = s[7] as u64;
    }
}

impl Reducer for RankReducer<'_> {
    fn reduce(
        &self,
        iter: usize,
        sums: &mut [f64],
        counts: &mut [i64],
        weights: &mut [f64],
        totals: &mut WorkerReport,
    ) -> ReduceReport {
        let r = self.comm.size();
        let modeled_comm_ns = match self.algo {
            ReduceAlgo::Ring => self.net.ring_allreduce_ns(self.reduce_payload, r),
            ReduceAlgo::Star => self.net.star_allreduce_ns(self.reduce_payload, r),
        };
        // Safety: reduce runs in the coordinator's exclusive window, the
        // only writer of the single-slot comm track.
        let tr = self.comm_track.as_deref().map(|g| unsafe { g.tracer(0, 0, iter as u32) });
        let t0 = tr.as_ref().map(|t| t.now());
        if r == 1 {
            if let (Some(t), Some(t0)) = (tr.as_ref(), t0) {
                t.record(Phase::Allreduce, t0, 0);
            }
            return ReduceReport { comm_bytes: 0, max_rank_comm_bytes: 0, modeled_comm_ns };
        }

        // One all-reduce carries sums, counts, [the contribution weights —
        // the generalized beyond-centroid+count payload weighted
        // algorithms need] and the convergence scalars. Counts and scalars
        // are integers, exact in f64 transport.
        // Safety: reduce runs in the coordinator's exclusive window.
        let k = counts.len();
        let buf = unsafe { self.reduce_buf.get_mut() };
        buf.clear();
        buf.extend_from_slice(sums);
        buf.extend(counts.iter().map(|&c| c as f64));
        if self.carry_weights {
            buf.extend_from_slice(weights);
        }
        buf.extend_from_slice(&Self::pack_scalars(totals));
        allreduce_f64(self.comm, buf, self.algo);
        sums.copy_from_slice(&buf[..sums.len()]);
        for (c, v) in counts.iter_mut().zip(&buf[sums.len()..sums.len() + k]) {
            *c = v.round() as i64;
        }
        let mut off = sums.len() + k;
        if self.carry_weights {
            weights.copy_from_slice(&buf[off..off + k]);
            off += k;
        }
        Self::unpack_scalars(totals, &buf[off..]);

        // Per-iteration wire accounting: delta since the previous
        // reduction, then the cluster-wide max (the slowest rank bounds the
        // iteration). The max exchange itself is excluded from the delta by
        // re-snapshotting afterwards.
        // Safety: reduce runs in the coordinator's exclusive window.
        let prev_sent = unsafe { self.prev_sent.get_mut() };
        let sent_now = self.comm.stats().snapshot().0;
        let comm_bytes = sent_now - *prev_sent;
        let max_rank_comm_bytes = allreduce_max_u64(self.comm, comm_bytes);
        *prev_sent = self.comm.stats().snapshot().0;

        if let (Some(t), Some(t0)) = (tr.as_ref(), t0) {
            t.record(Phase::Allreduce, t0, comm_bytes);
        }
        ReduceReport { comm_bytes, max_rank_comm_bytes, modeled_comm_ns }
    }

    fn sync_group_drift(&self, _iter: usize, group_drift: &mut [f64]) -> u64 {
        let r = self.comm.size();
        if r == 1 {
            return 0;
        }
        // O(t) extension of the per-iteration reduction: agree on the
        // per-group drift maxima so every rank loosens Yinyang bounds
        // identically. Drifts are non-negative, and the IEEE-754 bit
        // pattern of non-negative f64s is order-isomorphic to u64, so a
        // max-reduce over the raw bits is a max-reduce over the values —
        // and, unlike a floating sum, associativity is exact, keeping
        // ranks bitwise identical to the serial trajectory.
        for g in group_drift.iter_mut() {
            *g = f64::from_bits(allreduce_max_u64(self.comm, g.to_bits()));
        }
        // Fold the exchange into the same wire accounting as `reduce`:
        // delta since the watermark, then re-snapshot so the next
        // reduction's delta starts clean.
        // Safety: runs in the coordinator's exclusive window, right after
        // `reduce` on the same thread.
        let prev_sent = unsafe { self.prev_sent.get_mut() };
        let sent_now = self.comm.stats().snapshot().0;
        let bytes = sent_now - *prev_sent;
        *prev_sent = sent_now;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::quality::agreement;
    use knor_core::serial::lloyd_serial;
    use knor_core::{InitMethod, KernelKind, Pruning};
    use knor_sched::SchedulerKind;
    use knor_sem::SemPlaneConfig;
    use knor_workloads::MixtureSpec;

    fn mixture(n: usize, d: usize, seed: u64) -> DMatrix {
        MixtureSpec::friendster_like(n, d, seed).generate().data
    }

    #[test]
    fn single_rank_matches_serial() {
        let data = mixture(500, 6, 11);
        let k = 6;
        let init = InitMethod::Forgy.initialize(&data, k, 3).to_matrix();
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let dist = DistKmeans::new(
            DistConfig::new(k, 1, 2)
                .with_init(InitMethod::Given(init))
                .with_max_iters(60)
                .with_sse(true),
        )
        .fit(&data);
        assert_eq!(dist.niters, serial.niters);
        assert!(agreement(&dist.assignments, &serial.assignments, k) > 0.999);
        let rel = (dist.sse.unwrap() - serial.sse.unwrap()).abs() / serial.sse.unwrap();
        assert!(rel < 1e-9);
    }

    #[test]
    fn tiled_kernel_bitwise_matches_serial_single_rank() {
        let data = mixture(500, 6, 31);
        let k = 8;
        let init = InitMethod::Forgy.initialize(&data, k, 4).to_matrix();
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let dist = DistKmeans::new(
            DistConfig::new(k, 1, 1)
                .with_init(InitMethod::Given(init))
                .with_pruning(Pruning::None)
                .with_kernel(KernelKind::Tiled)
                .with_max_iters(60),
        )
        .fit(&data);
        assert_eq!(dist.assignments, serial.assignments);
        assert_eq!(dist.centroids, serial.centroids, "tiled knord must be bitwise serial");
        assert_eq!(dist.niters, serial.niters);
    }

    #[test]
    fn ranks_partition_all_rows() {
        let data = mixture(997, 4, 5);
        let r =
            DistKmeans::new(DistConfig::new(5, 3, 1).with_seed(2).with_max_iters(40)).fit(&data);
        assert_eq!(r.assignments.len(), 997);
        assert_eq!(r.rank_comm.iter().map(|c| c.rows).sum::<usize>(), 997);
        assert!(r.rank_comm.iter().all(|c| c.bytes_sent > 0));
    }

    #[test]
    fn mti_and_unpruned_walk_identical_trajectories() {
        let data = mixture(1200, 6, 9);
        let k = 8;
        let init = InitMethod::PlusPlus.initialize(&data, k, 1).to_matrix();
        let base = DistConfig::new(k, 3, 2)
            .with_init(InitMethod::Given(init))
            .with_max_iters(60)
            .with_sse(true);
        let mti = DistKmeans::new(base.clone()).fit(&data);
        let full = DistKmeans::new(base.with_pruning(Pruning::None)).fit(&data);
        assert_eq!(mti.niters, full.niters);
        // FP merge order differs between delta and full accumulation:
        // compare clusterings, not bits.
        assert!(agreement(&mti.assignments, &full.assignments, k) > 0.999);
        let rel = (mti.sse.unwrap() - full.sse.unwrap()).abs() / full.sse.unwrap();
        assert!(rel < 1e-9);
        assert!(mti.total_prune().clause1_rows > 0, "MTI never pruned");
    }

    #[test]
    fn star_concentrates_wire_traffic_at_root() {
        let data = mixture(800, 4, 3);
        let run = |algo: ReduceAlgo| {
            DistKmeans::new(
                DistConfig::new(4, 4, 1).with_seed(1).with_reduce(algo).with_max_iters(20),
            )
            .fit(&data)
        };
        let ring = run(ReduceAlgo::Ring);
        let star = run(ReduceAlgo::Star);
        // Same clustering, different transport shape.
        assert_eq!(ring.assignments, star.assignments);
        let ring_max = ring.rank_comm.iter().map(|c| c.bytes_sent).max().unwrap();
        let ring_min = ring.rank_comm.iter().map(|c| c.bytes_sent).min().unwrap();
        // Ring traffic is balanced across ranks…
        assert!(ring_max < ring_min * 2, "ring skewed: {ring_max} vs {ring_min}");
        // …while the star funnels (R-1)x payloads through rank 0.
        let star_root = star.rank_comm[0].bytes_sent;
        let star_leaf = star.rank_comm[1].bytes_sent;
        assert!(star_root > 2 * star_leaf, "star root {star_root} vs leaf {star_leaf}");
    }

    #[test]
    fn fit_file_in_memory_matches_fit_bitwise() {
        // Rank-local slice loading must reproduce the in-memory run bit
        // for bit: same partition, same rows, same trajectory.
        let data = mixture(900, 5, 17);
        let k = 7;
        let init = InitMethod::Forgy.initialize(&data, k, 6).to_matrix();
        let path =
            std::env::temp_dir().join(format!("knor-dist-fitfile-{}.knor", std::process::id()));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let cfg = DistConfig::new(k, 3, 1)
            .with_init(InitMethod::Given(init))
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(40)
            .with_sse(true);
        let mem = DistKmeans::new(cfg.clone()).fit(&data);
        let file = DistKmeans::new(cfg).fit_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(file.assignments, mem.assignments);
        assert_eq!(file.centroids, mem.centroids, "fit_file must be bitwise fit");
        assert_eq!(file.niters, mem.niters);
        assert_eq!(file.sse.map(f64::to_bits), mem.sse.map(f64::to_bits));
    }

    #[test]
    fn sem_ranks_populate_rank_io_and_split_reads() {
        let data = mixture(1200, 8, 21);
        let k = 6;
        let init = InitMethod::Forgy.initialize(&data, k, 2).to_matrix();
        let path =
            std::env::temp_dir().join(format!("knor-dist-rankio-{}.knor", std::process::id()));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let r = DistKmeans::new(
            DistConfig::new(k, 3, 2)
                .with_init(InitMethod::Given(init))
                .with_plane(RankPlane::Sem(
                    SemPlaneConfig::default().with_page_size(256).with_row_cache_bytes(1 << 20),
                ))
                .with_max_iters(20),
        )
        .fit_file(&path)
        .unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(r.assignments.len(), 1200);
        assert_eq!(r.rank_io.len(), 3);
        for (rank, io) in r.rank_io.iter().enumerate() {
            assert_eq!(io.rank, rank);
            assert_eq!(io.io.len(), r.niters, "rank {rank} must record every iteration");
            assert_eq!(io.panicked_io_threads, 0);
            // Every rank touched exactly its slice on the first pass.
            assert_eq!(io.io[0].active_rows as usize, r.rank_comm[rank].rows, "rank {rank}");
        }
    }

    #[test]
    fn sem_read_failure_stops_every_rank_with_the_error() {
        // The file shrinks after both ranks opened their planes: rank 1's
        // whole slice is gone, rank 0's is intact. Rank 1's first fetch
        // fails, the failure count rides the allreduce, both ranks leave at
        // iteration 0 and `fit_file`'s run half reports rank 1's error. A
        // watchdog turns the hang this used to be into a test failure.
        let data = mixture(1200, 8, 33);
        let k = 6;
        let init = InitMethod::Forgy.initialize(&data, k, 2);
        let path =
            std::env::temp_dir().join(format!("knor-dist-shrink-{}.knor", std::process::id()));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let solver = DistKmeans::new(DistConfig::new(k, 2, 2).with_plane(RankPlane::Sem(
            SemPlaneConfig::default().with_page_size(256).with_row_cache_bytes(1 << 20),
        )));
        let ranges = knor_matrix::partition_rows(1200, 2);
        let opened = solver.open_ranks(&path, &ranges).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(full / 2).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(solver.run_ranks(8, &init, &ranges, opened));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a failed SEM read must end the run, not hang it");
        std::fs::remove_file(&path).unwrap();
        let err = result.expect_err("half the file is gone");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn fit_file_rejects_full_pass_inits() {
        let data = mixture(100, 3, 4);
        let path =
            std::env::temp_dir().join(format!("knor-dist-badinit-{}.knor", std::process::id()));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let err = DistKmeans::new(DistConfig::new(3, 2, 1).with_init(InitMethod::PlusPlus))
            .fit_file(&path)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "fit_file")]
    fn fit_with_sem_plane_panics_with_direction() {
        let data = mixture(50, 2, 1);
        let _ = DistKmeans::new(DistConfig::new(2, 2, 1).with_plane(RankPlane::sem_default()))
            .fit(&data);
    }

    /// Well-separated grid clusters with one init centroid per cluster
    /// (row i belongs to cluster i % k): the workload where Yinyang's
    /// group bounds stay tight, so prune counters are meaningful.
    fn grid(n: usize, d: usize, k: usize) -> (DMatrix, DMatrix) {
        knor_workloads::grid_clusters(n, d, k)
    }

    #[test]
    fn yinyang_and_unpruned_walk_identical_trajectories() {
        let (data, init) = grid(1200, 6, 20);
        let base = DistConfig::new(20, 3, 2)
            .with_init(InitMethod::Given(init))
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(60)
            .with_sse(true);
        let yy = DistKmeans::new(base.clone().with_pruning(Pruning::Yinyang)).fit(&data);
        let full = DistKmeans::new(base.with_pruning(Pruning::None)).fit(&data);
        assert_eq!(yy.niters, full.niters, "pruning must not change the trajectory");
        assert_eq!(yy.assignments, full.assignments);
        let rel = (yy.sse.unwrap() - full.sse.unwrap()).abs() / full.sse.unwrap();
        assert!(rel < 1e-9, "SSE diverged by {rel}");
        let p = yy.total_prune();
        assert!(p.clause1_rows > 0, "group filter never fired on separated clusters");
        let steady =
            |r: &DistResult| r.iters.iter().skip(1).map(|i| i.prune.dist_computations).sum::<u64>();
        assert!(
            steady(&yy) < steady(&full) / 2,
            "Yinyang saved too little in steady state: {} vs {}",
            steady(&yy),
            steady(&full)
        );
    }

    #[test]
    fn yinyang_multi_rank_matches_single_rank() {
        // The O(t) group-drift max-exchange is exact (a bit-level max, not
        // a floating sum), so splitting the rows across ranks must land on
        // the same clustering as one rank — and, at the same rank count,
        // must be bitwise identical to MTI, which walks the same
        // delta-accumulated trajectory without the drift lanes.
        let (data, init) = grid(900, 5, 20);
        let cfg = |ranks, pruning| {
            DistConfig::new(20, ranks, 2)
                .with_init(InitMethod::Given(init.clone()))
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(pruning)
                .with_max_iters(40)
        };
        let one = DistKmeans::new(cfg(1, Pruning::Yinyang)).fit(&data);
        let three = DistKmeans::new(cfg(3, Pruning::Yinyang)).fit(&data);
        // Across rank counts the allreduce reorders the floating centroid
        // sums, so compare the clustering, not bits.
        assert_eq!(three.assignments, one.assignments);
        assert_eq!(three.niters, one.niters);
        let mti = DistKmeans::new(cfg(3, Pruning::Mti)).fit(&data);
        assert_eq!(three.assignments, mti.assignments);
        assert_eq!(three.centroids, mti.centroids, "drift exchange perturbed the trajectory");
        // The drift exchange rides the wire: Yinyang iterations must
        // account strictly more bytes than the same payload under MTI,
        // which ships no group-drift lanes.
        let per_iter = |r: &DistResult| r.iters.iter().map(|i| i.comm_bytes).max().unwrap();
        assert!(
            per_iter(&three) > per_iter(&mti),
            "group drift never hit the wire: {} vs {}",
            per_iter(&three),
            per_iter(&mti)
        );
    }

    #[test]
    fn modeled_comm_times_are_populated() {
        let data = mixture(400, 4, 8);
        let r =
            DistKmeans::new(DistConfig::new(4, 2, 1).with_seed(4).with_max_iters(10)).fit(&data);
        assert!(!r.iters.is_empty());
        for it in &r.iters {
            assert!(it.modeled_comm_ns > 0.0);
            assert!(it.max_rank_comm_bytes >= it.comm_bytes);
        }
        assert!(r.mean_iter_ns() > 0.0);
    }
}

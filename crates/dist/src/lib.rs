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
//! [`knor_sem::SemPlane`] (own row cache, page cache and I/O counters —
//! surfaced per rank in [`DistResult::rank_io`]). SEM ranks
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
//! assert!(r.kmeans.converged);
//! assert_eq!(r.kmeans.assignments.len(), 600);
//! ```

use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use knor_core::centroids::Centroids;
use knor_core::driver::{run_mm, ReduceReport, Reducer, WorkerReport};
use knor_core::plane::{DataPlane, SlicePlane};
pub use knor_core::spec::RankPlane;
use knor_core::spec::{settle, DistExt, RunSpec};
use knor_core::trace::{Phase, TraceGroup};
use knor_core::{InitStats, KmeansResult, SettleStats};
use knor_matrix::DMatrix;
use knor_mpi::collectives::{allreduce_f64, allreduce_max_u64};
use knor_mpi::{Comm, LocalCluster, NetModel, ReduceAlgo};
use knor_numa::Topology;
use knor_sem::plane::{forgy_from_file, open_reader, streamed_init, streamed_settle};
use knor_sem::{IoIterStats, SemPlane};

pub mod launch;
pub use launch::{launch, Fitted};

/// Configuration for a [`DistKmeans`] run: the run's description plus
/// knord's ranks, all-reduce and per-rank plane (see `knor_core::spec`).
/// `threads` counts the workers inside each rank's engine; initialization
/// is computed once over the full data, then shared by all ranks — knor
/// seeds every machine identically.
pub type DistConfig = RunSpec<DistExt<ReduceAlgo>>;

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
/// per-iteration statistics.
#[derive(Debug, Clone, Default)]
pub struct RankIo {
    /// The rank id.
    pub rank: usize,
    /// Per-iteration I/O statistics of this rank's plane (empty for
    /// in-memory ranks).
    pub io: Vec<IoIterStats>,
}

/// The outcome of a knord run: the record every engine reports, plus what
/// knord adds — per-rank wire and I/O totals.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// The run's record, built by `Resolved::finish` as knori's and knors'
    /// are. Every per-iteration counter is the run's total over the ranks:
    /// the pruning counters, `reassigned` and `rows_accessed` ride the
    /// allreduce, `commit` and `queue` are summed over the ranks' records.
    /// `wall_ns` and the wire counters are rank 0's (`max_rank_comm_bytes`
    /// is the cluster's maximum), `memory` sums the ranks' accounts, `numa`
    /// is rank 0's topology and `phases` folds every rank's tracks,
    /// including each rank's allreduce comm track.
    pub kmeans: KmeansResult,
    /// Per-rank communication totals.
    pub rank_comm: Vec<RankComm>,
    /// Per-rank I/O records ([`DistKmeans::fit_file`] runs; empty for
    /// the in-memory [`DistKmeans::fit`] entry point).
    pub rank_io: Vec<RankIo>,
}

/// Reads `kmeans` through the result, for callers written against the
/// fields `DistResult` used to copy (the benchmark harness).
#[doc(hidden)]
impl Deref for DistResult {
    type Target = KmeansResult;

    fn deref(&self) -> &KmeansResult {
        &self.kmeans
    }
}

/// The knord solver. knord ignores [`RunSpec::topology`]: each rank models
/// its own workers (`Topology::for_local_workers`, which honors
/// `KNOR_SYNTH_NODES`), and the result's `numa` reports rank 0's.
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
        let (threads, km) = (self.threads_per_rank(), &mut out.kmeans);
        (km.sse, km.settle) =
            settle(&*algo, data, &km.centroids, &mut km.assignments, cfg.compute_sse, threads);
        km.init = init_stats;
        out.rank_io = Vec::new(); // in-memory entry point: no I/O record
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
        let km = &mut out.kmeans;
        km.init = init_stats;
        // The final streamed pass over the file (the subsampling refresh
        // and/or the SSE) — never the whole matrix in memory.
        let algo = cfg.algo.resolve(cfg.k, n, cfg.seed);
        let (reader, sse, threads) = (open_reader(path)?, cfg.compute_sse, self.threads_per_rank());
        (km.sse, km.settle) =
            streamed_settle(&reader, &*algo, &km.centroids, &mut km.assignments, sse, threads)?;
        Ok(out)
    }

    /// Open every rank's data before any rank enters a collective, so an
    /// open/read failure is a clean error instead of a cluster deadlock.
    fn open_ranks(
        &self,
        path: &Path,
        ranges: &[Range<usize>],
    ) -> std::io::Result<Vec<RankData<'static>>> {
        let threads = self.threads_per_rank();
        ranges
            .iter()
            .map(|r| {
                Ok(match &self.config.ext.plane {
                    RankPlane::InMemory => {
                        RankData::Read(knor_matrix::io::read_rows(path, r.start, r.end)?)
                    }
                    RankPlane::Sem(pcfg) => RankData::Sem(Box::new(SemPlane::open_range(
                        path,
                        pcfg,
                        r.clone(),
                        threads,
                    )?)),
                })
            })
            .collect()
    }

    /// Run one engine per rank over its `data` and assemble the result
    /// (the seeding's cost, the SSE and the subsampling refresh are the
    /// entry points'). A failed read after the open (the file shrank, the
    /// device erred) stops every rank at the same iteration and comes back
    /// as the error.
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
            // What the rank holds of the data, and its cache budgets.
            let held = match &cfg.ext.plane {
                RankPlane::InMemory => ((ranges[rank].len() * d * 8) as u64, 0),
                RankPlane::Sem(p) => (0, p.row_cache_bytes + p.page_cache_bytes),
            };
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
            let record = outcome.map(|o| {
                let centroids = o.centroids.to_matrix();
                let unsettled = (None, SettleStats::default());
                run.finish(o, InitStats::default(), centroids, held.0, held.1, unsettled)
            });
            let io = match &mut data {
                RankData::Sem(p) => RankIo { rank, io: p.finish() },
                _ => RankIo { rank, ..RankIo::default() },
            };
            (record, comm.stats().snapshot(), io)
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

        let mut out = assemble(outcomes, ranges);
        // All rank threads have joined: folding the shared buffer is safe.
        out.kmeans.phases = cfg.trace.as_ref().map(|b| b.breakdown());
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

/// Fold the ranks' records into rank 0's: assignments concatenate in rank
/// order (the row partition is contiguous), the rank-local counters and the
/// memory accounts sum. Every rank ran the same iterations, because every
/// convergence decision is made from allreduced totals.
fn assemble(
    results: Vec<(KmeansResult, (u64, u64, u64), RankIo)>,
    ranges: &[Range<usize>],
) -> DistResult {
    let mut kmeans: Option<KmeansResult> = None;
    let (mut rank_comm, mut rank_io) = (Vec::new(), Vec::new());
    for (rank, (r, (bytes_sent, bytes_received, messages_sent), io)) in
        results.into_iter().enumerate()
    {
        let rows = ranges[rank].len();
        rank_comm.push(RankComm { rank, rows, bytes_sent, bytes_received, messages_sent });
        rank_io.push(io);
        let Some(total) = kmeans.as_mut() else {
            kmeans = Some(r);
            continue;
        };
        total.assignments.extend_from_slice(&r.assignments);
        total.memory.merge(&r.memory);
        for (t, it) in total.iters.iter_mut().zip(&r.iters) {
            t.commit.merge(&it.commit);
            t.queue.merge(&it.queue);
        }
    }
    DistResult { kmeans: kmeans.expect("at least one rank"), rank_comm, rank_io }
}

/// One rank's all-reduce window (its data plane — in-memory slice or
/// private SEM stack — goes to the driver directly).
struct RankReducer<'a> {
    comm: &'a Comm,
    algo: ReduceAlgo,
    /// Prices each reduction's wire time (EC2 10 GbE).
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
    /// Bytes-sent watermark for per-iteration deltas (coordinator-only,
    /// so never contended).
    prev_sent: Mutex<u64>,
    /// Coordinator-only allreduce staging, reused across iterations.
    reduce_buf: Mutex<Vec<f64>>,
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
            net: NetModel::default(),
            reduce_payload: (lanes * 8) as u64,
            carry_weights,
            prev_sent: Mutex::new(0),
            reduce_buf: Mutex::new(Vec::with_capacity(lanes)),
            comm_track,
        }
    }
}

/// Scalar totals folded into the all-reduce payload so every rank shares
/// the convergence decision and the global counters. All are integer-valued
/// and well under 2^53, so the f64 transport is exact.
const SCALARS: usize = 10;

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
            totals.counters.one_cand_rows as f64,
            totals.counters.gemm_rows as f64,
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
        totals.counters.one_cand_rows = s[7] as u64;
        totals.counters.gemm_rows = s[8] as u64;
        totals.failed = s[9] as u64;
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
        // Only the coordinator records onto the single-slot comm track.
        let tr = self.comm_track.as_deref().map(|g| g.tracer(0, 0, iter as u32));
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
        let k = counts.len();
        let mut buf = self.reduce_buf.lock().unwrap_or_else(PoisonError::into_inner);
        buf.clear();
        buf.extend_from_slice(sums);
        buf.extend(counts.iter().map(|&c| c as f64));
        if self.carry_weights {
            buf.extend_from_slice(weights);
        }
        buf.extend_from_slice(&Self::pack_scalars(totals));
        allreduce_f64(self.comm, &mut buf, self.algo);
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
        let mut prev_sent = self.prev_sent.lock().unwrap_or_else(PoisonError::into_inner);
        let sent_now = self.comm.stats().snapshot().0;
        let comm_bytes = sent_now - *prev_sent;
        let max_rank_comm_bytes = allreduce_max_u64(self.comm, comm_bytes);
        *prev_sent = self.comm.stats().snapshot().0;

        if let (Some(t), Some(t0)) = (tr.as_ref(), t0) {
            t.record(Phase::Allreduce, t0, comm_bytes);
        }
        ReduceReport { comm_bytes, max_rank_comm_bytes, modeled_comm_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::quality::agreement;
    use knor_core::serial::lloyd_serial;
    use knor_core::{InitMethod, Pruning, ResolvedKernel, ResolvedKind};
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
        .fit(&data)
        .kmeans;
        assert_eq!(dist.niters, serial.niters);
        assert!(agreement(&dist.assignments, &serial.assignments, k) > 0.999);
        let rel = (dist.sse.unwrap() - serial.sse.unwrap()).abs() / serial.sse.unwrap();
        assert!(rel < 1e-9);
    }

    #[test]
    fn gemm_kernel_bitwise_matches_serial_single_rank() {
        let data = mixture(500, 6, 31);
        // k·d = 66: the shape picks gemm.
        let k = 11;
        assert_eq!(ResolvedKernel::for_shape(k, 6).kind, ResolvedKind::Gemm);
        let init = InitMethod::Forgy.initialize(&data, k, 4).to_matrix();
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let dist = DistKmeans::new(
            DistConfig::new(k, 1, 1)
                .with_init(InitMethod::Given(init))
                .with_pruning(Pruning::None)
                .with_max_iters(60),
        )
        .fit(&data)
        .kmeans;
        assert_eq!(dist.assignments, serial.assignments);
        assert_eq!(dist.centroids, serial.centroids, "gemm knord must be bitwise serial");
        assert_eq!(dist.niters, serial.niters);
    }

    #[test]
    fn ranks_partition_all_rows() {
        let data = mixture(997, 4, 5);
        let r =
            DistKmeans::new(DistConfig::new(5, 3, 1).with_seed(2).with_max_iters(40)).fit(&data);
        assert_eq!(r.kmeans.assignments.len(), 997);
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
        let mti = DistKmeans::new(base.clone()).fit(&data).kmeans;
        let full = DistKmeans::new(base.with_pruning(Pruning::None)).fit(&data).kmeans;
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
        assert_eq!(ring.kmeans.assignments, star.kmeans.assignments);
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
        let path = knor_matrix::io::TempFile::new(format!(
            "knor-dist-fitfile-{}.knor",
            std::process::id()
        ));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let cfg = DistConfig::new(k, 3, 1)
            .with_init(InitMethod::Given(init))
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(40)
            .with_sse(true);
        let mem = DistKmeans::new(cfg.clone()).fit(&data).kmeans;
        let file = DistKmeans::new(cfg).fit_file(&path).unwrap().kmeans;
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
            knor_matrix::io::TempFile::new(format!("knor-dist-rankio-{}.knor", std::process::id()));
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
        assert_eq!(r.kmeans.assignments.len(), 1200);
        assert_eq!(r.rank_io.len(), 3);
        for (rank, io) in r.rank_io.iter().enumerate() {
            assert_eq!(io.rank, rank);
            assert_eq!(io.io.len(), r.kmeans.niters, "rank {rank} must record every iteration");
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
            knor_matrix::io::TempFile::new(format!("knor-dist-shrink-{}.knor", std::process::id()));
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
        let err = result.expect_err("half the file is gone");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn fit_file_rejects_full_pass_inits() {
        let data = mixture(100, 3, 4);
        let path = knor_matrix::io::TempFile::new(format!(
            "knor-dist-badinit-{}.knor",
            std::process::id()
        ));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let err = DistKmeans::new(DistConfig::new(3, 2, 1).with_init(InitMethod::PlusPlus))
            .fit_file(&path)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    #[should_panic(expected = "fit_file")]
    fn fit_with_sem_plane_panics_with_direction() {
        let data = mixture(50, 2, 1);
        let _ = DistKmeans::new(DistConfig::new(2, 2, 1).with_plane(RankPlane::sem_default()))
            .fit(&data);
    }

    #[test]
    fn modeled_comm_times_are_populated() {
        let data = mixture(400, 4, 8);
        let r = DistKmeans::new(DistConfig::new(4, 2, 1).with_seed(4).with_max_iters(10))
            .fit(&data)
            .kmeans;
        assert!(!r.iters.is_empty());
        for it in &r.iters {
            assert!(it.modeled_comm_ns > 0.0);
            assert!(it.max_rank_comm_bytes >= it.comm_bytes);
        }
        assert!(r.iters.iter().all(|it| it.wall_ns > 0));
    }
}

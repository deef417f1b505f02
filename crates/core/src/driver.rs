//! The shared ||Lloyd's iteration driver.
//!
//! All three knor engines — knori (in-memory), knors (semi-external-memory)
//! and knord (distributed) — run the *same* iteration protocol; only where a
//! row's bytes live differs (NUMA arenas, the SAFS row-cache stack, or a
//! per-rank slice of the matrix). clusterNOR's observation is that the
//! protocol itself is the reusable asset, so it lives here once. An engine
//! hands [`run_mm`] two small objects: a [`DataPlane`] (row access plus the
//! coordinator hooks that belong to it) and a [`Reducer`] (identity unless
//! the run spans ranks):
//!
//! ```text
//! pre_iteration (plane, coordinator)
//!   A ─ compute super-phase (plane) ─ B ─ parallel merge ─ C ─
//!       [reduce (reducer: knord's allreduce window)]
//!       coordinator window: finalize means, drift, bound-state update,
//!       convergence, stats, end_iteration (plane), queue refill ─ A
//! ```
//!
//! * **compute** — each worker runs the one worker loop,
//!   [`crate::plane::drain`], over the plane's row source and fills its
//!   private [`LocalAccum`]. What varies per iteration is a policy of three
//!   parts, chosen once per call: the row source (direct or staged), the
//!   pre-fetch filter and the commit (see the table in `crate::plane`).
//!   Pruning is a [`RowFilter`]; its two implementors at the bottom of
//!   this module are the whole per-row state machine.
//! * **merge** — the `k·d` accumulator dimensions are sliced across
//!   workers; each worker sums one slice across all `T` accumulators.
//! * **reduce** — a hook between the local merge and the centroid update.
//!   Single-machine engines leave it as the identity; knord allreduces the
//!   merged sums/counts (and the convergence scalars) across ranks here, so
//!   every rank finalizes identical centroids — the paper's decentralized
//!   §3.3 design.
//! * **coordinator window** — worker 0 finalizes means, drifts and the MTI
//!   distance matrix, records statistics, decides convergence and refills
//!   the queue.
//!
//! Under pruning the accumulators hold *deltas* against persistent global
//! sums (maintained by the driver), so a Clause-1 skip touches no row data.
//!
//! **Failure.** A row source can fail (a SEM device read). The failing
//! worker stops draining but still walks barriers B and C; its report
//! carries [`WorkerReport::failed`], which rides the reduce like every other
//! scalar, so the coordinator — every rank's coordinator, under knord —
//! stops the run at the same iteration and [`run_mm`] returns the error.

use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

use knor_matrix::shared::SharedRows;
use knor_numa::{AccessTally, Placement};
use knor_sched::TaskQueue;

use crate::algo::{MmAlgorithm, UpdateCtx};
use crate::centroids::{finalize_means, Centroids, LocalAccum};
use crate::distance::{dist, nearest};
use crate::kernel::{KernelKind, ResolvedKernel};
use crate::plane::{DataPlane, DrainScratch};
use crate::pruning::{mti_assign, MtiIterState, PruneCounters, Pruning, RowScan};
use crate::stats::{CommitCounters, IterStats};
use crate::sync::ExclusiveCell;
use crate::trace::{Phase, PhaseBreakdown, TraceHandle, WorkerTracer};

/// Engine-independent parameters of a driver run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of clusters.
    pub k: usize,
    /// Dimensionality.
    pub d: usize,
    /// Rows this engine instance owns (a rank's slice for knord).
    pub n: usize,
    /// Worker threads.
    pub nthreads: usize,
    /// Iteration cap (counting the initial assignment pass).
    pub max_iters: usize,
    /// Drift tolerance (0.0 = reassignment-only convergence).
    pub tol: f64,
    /// Pruning scheme (`None | Mti`).
    pub pruning: Pruning,
    /// Rows per scheduler task.
    pub task_size: usize,
    /// Assignment kernel for full scans (see [`crate::kernel`]).
    pub kernel: KernelKind,
    /// Global row id of local row 0 (knord passes its rank's slice start;
    /// single-machine engines pass 0). Algorithms that key on global row
    /// identity — mini-batch subsampling — see `row_offset + r`.
    pub row_offset: usize,
    /// Span recorder for this run (see [`crate::trace`]); `None` keeps
    /// the hot path to a single branch and zero recording cost.
    pub trace: Option<TraceHandle>,
}

/// What one worker reports after its compute super-phase.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Pruning outcome counters.
    pub counters: PruneCounters,
    /// How the rows were reached and how often the panel was packed.
    pub commit: CommitCounters,
    /// Assignments changed by this worker.
    pub reassigned: u64,
    /// Rows whose data was actually touched.
    pub rows_accessed: u64,
    /// Exact access tally, when the plane tracks them (knori cost model).
    pub tally: Option<AccessTally>,
    /// Plane-defined auxiliary counter (knors: row-cache hits).
    pub aux: u64,
    /// Workers whose row source failed this iteration. Summed across
    /// workers (and, by the reducer, across ranks); non-zero stops the run.
    pub failed: u64,
}

impl WorkerReport {
    /// Fold another worker's report into this aggregate (tallies collect
    /// into a vector at the call site, not here).
    fn absorb(&mut self, o: &WorkerReport) {
        self.counters.merge(&o.counters);
        self.commit.merge(&o.commit);
        self.reassigned += o.reassigned;
        self.rows_accessed += o.rows_accessed;
        self.aux += o.aux;
        self.failed += o.failed;
    }
}

/// Read-only view of the iteration state handed to [`DataPlane::compute`].
pub struct IterView<'a> {
    /// Current iteration, 0-based.
    pub iter: usize,
    /// Current centroids (`C^t`).
    pub cents: &'a Centroids,
    /// The run's pruning filter with this iteration's drift state.
    pub filter: Filter<'a>,
    /// Per-row assignments and bounds (disjoint task ownership).
    pub rows: &'a RowBounds,
    /// The iteration's task queue.
    pub queue: &'a TaskQueue,
    /// The resolved assignment kernel for this run.
    pub kernel: ResolvedKernel,
    /// The clustering algorithm this run executes (see [`crate::algo`]).
    pub algo: &'a dyn MmAlgorithm,
    /// Global row id of local row 0 (see [`DriverConfig::row_offset`]).
    pub row_offset: usize,
    /// Cached `algo.subsamples()` — false skips the per-row scope call.
    pub scoped: bool,
    /// This worker's span recorder for the iteration, when tracing is on.
    /// Staged row sources (knors) record their fetch/hit/miss
    /// intervals through it; measurement-only by construction.
    pub tracer: Option<WorkerTracer<'a>>,
}

impl IterView<'_> {
    /// Whether local row `r` participates in this iteration's map phase
    /// (mini-batch subsampling; checked before any data access or I/O).
    #[inline]
    pub fn in_scope(&self, r: usize) -> bool {
        !self.scoped || self.algo.row_in_scope(self.row_offset + r, self.iter)
    }
}

/// What a [`Reducer::reduce`] implementation reports about the global
/// reduction it performed (all zeros for single-machine engines).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReduceReport {
    /// Wire bytes this process sent during the reduction.
    pub comm_bytes: u64,
    /// Maximum wire bytes any rank sent during the reduction.
    pub max_rank_comm_bytes: u64,
    /// Modeled wire time of the reduction on the reference cluster.
    pub modeled_comm_ns: f64,
}

/// The cross-process half of an engine: what happens to the merged state
/// between barrier C and the centroid update. The hook runs on the
/// coordinator inside its exclusive window; the default keeps everything
/// local, which is the whole reducer of a single-machine engine
/// ([`NoReduce`]).
pub trait Reducer: Sync {
    /// knord allreduces `sums`, `counts`, the per-cluster contribution
    /// `weights` and the scalar totals in `totals` across ranks here.
    /// (`weights` carry data only for weighted algorithms — they are zeros
    /// on the Lloyd fast path.)
    fn reduce(
        &self,
        _iter: usize,
        _sums: &mut [f64],
        _counts: &mut [i64],
        _weights: &mut [f64],
        _totals: &mut WorkerReport,
    ) -> ReduceReport {
        ReduceReport::default()
    }
}

/// The identity [`Reducer`] of the single-machine engines.
pub struct NoReduce;

impl Reducer for NoReduce {}

/// Above this `k` (and with more than one worker) the `O(k²·d)` rebuild of
/// MTI's half-distance table is spread over the workers, between two extra
/// barriers; at or below it the coordinator's serial rebuild is cheaper
/// than those barriers.
const PARALLEL_CC_ABOVE_K: usize = 64;

/// A `Send + Sync` raw pointer to a shared `f64` buffer, used for the
/// barrier-ordered, pair-disjoint parallel half-distance writes (the same
/// manual discipline as [`ExclusiveCell`], expressed at element
/// granularity).
struct RawSlicePtr(*mut f64);
// Safety: all access is disjoint-by-construction and barrier-ordered.
unsafe impl Send for RawSlicePtr {}
unsafe impl Sync for RawSlicePtr {}

/// Everything a finished driver run hands back to the engine.
#[derive(Debug)]
pub struct DriverOutcome {
    /// Final centroids.
    pub centroids: Centroids,
    /// Final per-row assignments.
    pub assignments: Vec<u32>,
    /// Per-iteration statistics.
    pub iters: Vec<IterStats>,
    /// Per-iteration reduction reports (meaningful for knord).
    pub reduces: Vec<ReduceReport>,
    /// Whether the run converged before the iteration cap.
    pub converged: bool,
    /// Per-phase fold of this run's spans (`Some` iff tracing was on).
    pub phases: Option<PhaseBreakdown>,
}

/// Run the shared map/merge/reduce/update protocol for an arbitrary
/// [`MmAlgorithm`] over `plane`'s rows: spawn `cfg.nthreads` workers,
/// iterate until the algorithm declares convergence or the cap, and return
/// the outcome — or the first error a row source reported (see the module
/// docs; a run stopped by a peer rank's failure reports
/// [`io::ErrorKind::Other`]).
///
/// `queue` must be empty; the driver fills it from `placement` each
/// iteration. `init` supplies the starting centroids. For the canonical
/// Lloyd instance every accumulation order and comparison is the historical
/// `run_lloyd` one. Non-Lloyd algorithms run the generic map/update path
/// with pruning forced off (MTI's clauses are only sound for
/// exact-Euclidean hard-assignment mean updates).
pub fn run_mm<P: DataPlane + ?Sized, R: Reducer>(
    cfg: &DriverConfig,
    mut init: Centroids,
    placement: &Placement,
    queue: &TaskQueue,
    plane: &P,
    reducer: &R,
    algo: &dyn MmAlgorithm,
) -> io::Result<DriverOutcome> {
    let (k, d, n, nthreads) = (cfg.k, cfg.d, cfg.n, cfg.nthreads);
    assert_eq!(init.k(), k, "init centroid count mismatch");
    assert_eq!(init.d, d, "init dimensionality mismatch");
    assert_eq!(placement.nthreads(), nthreads);
    assert_eq!(placement.nrow(), n);

    // Pruning requires the algorithm's blessing (engines also gate this;
    // the recompute here makes the invariant local).
    let scheme = if algo.prune_eligible() { cfg.pruning } else { Pruning::None };
    let cfg_pruning = scheme.enabled();
    let is_lloyd = algo.is_lloyd();
    let scoped = algo.subsamples();
    let uses_weights = algo.uses_weights();
    algo.prepare_init(&mut init);

    let rk = cfg.kernel.resolve(k, d, cfg_pruning);
    // For large k the O(k²·d) half-distance recompute dominates the
    // coordinator window; the workers are idling at the next barrier, so
    // they fill disjoint pairs of the table instead.
    let parallel_cc = cfg_pruning && nthreads > 1 && k > PARALLEL_CC_ABOVE_K;

    // Shared engine state (see module docs for the barrier protocol).
    let centroids = ExclusiveCell::new(init);
    let next_cents = ExclusiveCell::new(Centroids::zeros(k, d));
    let mti = ExclusiveCell::new(MtiIterState::new(if cfg_pruning { k } else { 0 }));
    // Base of the half-distance table for the parallel recompute phase. The
    // coordinator re-derives this every iteration from its live exclusive
    // borrow (keeping the pointer's provenance valid — no `&mut` to the MTI
    // state is created between the capture and the workers' writes), and
    // barriers D/E order the disjoint row writes against all readers.
    let cc_base = ExclusiveCell::new(RawSlicePtr(std::ptr::null_mut()));
    let rows = if cfg_pruning { RowBounds::new(n) } else { RowBounds::unbounded(n) };
    let merged_sums: SharedRows<f64> = SharedRows::new(k * d, 0.0);
    let merged_counts = ExclusiveCell::new(vec![0i64; k]);
    let merged_weights = ExclusiveCell::new(vec![0.0f64; k]);
    // Coordinator staging for the merged sums handed to `reduce` —
    // persistent so steady-state iterations never allocate.
    let sums_staging = ExclusiveCell::new(vec![0.0f64; k * d]);
    // Persistent global sums/counts for MTI delta accumulation.
    let persistent = ExclusiveCell::new((vec![0.0f64; k * d], vec![0i64; k]));
    let accums: Vec<ExclusiveCell<LocalAccum>> =
        (0..nthreads).map(|_| ExclusiveCell::new(LocalAccum::new(k, d))).collect();
    let reports: Vec<ExclusiveCell<WorkerReport>> =
        (0..nthreads).map(|_| ExclusiveCell::new(WorkerReport::default())).collect();
    let stop = AtomicBool::new(false);
    let converged = AtomicBool::new(false);
    // A row source's failure: the first error any worker met, and whether
    // the (globally reduced) failure count stopped the run.
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let barrier = Barrier::new(nthreads);
    let dim_slices = knor_matrix::partition_rows(k * d, nthreads);

    queue.refill(placement, cfg.task_size);

    // All trace allocation happens here, before any worker spawns; the
    // traced-off path below is a single `Option` branch per record site.
    let tgroup = cfg.trace.as_ref().map(|h| h.buf.register(h.pid, nthreads, 0));

    let mut iter_stats: Vec<IterStats> = Vec::new();
    let mut reduce_reports: Vec<ReduceReport> = Vec::new();
    // One worker's whole run. Everything it shares is borrowed; the barrier
    // protocol in the module docs orders every access.
    let worker = |w: usize| {
        let dim_slice = dim_slices[w].clone();
        // Thread-private drain buffers, reused across iterations so the hot
        // path never reallocates.
        let mut scratch = DrainScratch::default();
        plane.worker_start(w);
        let my_node = placement.node_of_thread(w).0;
        // Only the coordinator records; reserving the cap up front
        // keeps the iteration loop allocation-free. The reserve is
        // clamped so an effectively-unbounded cap (run-until-
        // convergence callers) neither overflows nor pre-allocates
        // gigabytes; runs longer than the clamp merely fall back to
        // amortized growth.
        let reserve = cfg.max_iters.min(1024);
        let (mut stats, mut reduces) = if w == 0 {
            (Vec::with_capacity(reserve), Vec::with_capacity(reserve))
        } else {
            (Vec::new(), Vec::new())
        };
        let mut iter = 0usize;

        loop {
            // Safety: each worker claims only its own slot, and all
            // trace reads happen after the scope joins.
            let tr = tgroup.as_deref().map(|g| unsafe { g.tracer(w, my_node as u32, iter as u32) });
            if w == 0 {
                plane.pre_iteration(iter);
            }
            let ta = tr.as_ref().map(|t| t.now());
            barrier.wait(); // A — state published by coordinator
            if let (Some(t), Some(ta)) = (tr.as_ref(), ta) {
                t.record(Phase::BarrierA, ta, 0);
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            let t0 = std::time::Instant::now();
            let tc = tr.as_ref().map(|t| t.now());

            // ---- compute super-phase (the plane's worker loop) ---
            // Safety: barrier A separates us from the coordinator's
            // writes; nobody writes these cells during compute.
            let cents = unsafe { centroids.get() };
            let view = IterView {
                iter,
                cents,
                filter: match scheme {
                    Pruning::None => Filter::None(NoFilter::new(cents)),
                    Pruning::Mti => Filter::Mti(MtiFilter::new(cents, unsafe { mti.get() })),
                },
                rows: &rows,
                queue,
                kernel: rk,
                algo,
                row_offset: cfg.row_offset,
                scoped,
                tracer: tr,
            };
            let accum = unsafe { accums[w].get_mut() };
            let report = plane.compute(w, &view, accum, &mut scratch).unwrap_or_else(|e| {
                // Keep the first error; this worker still walks the
                // barriers so nobody waits on it forever.
                let mut slot = failure.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(e);
                WorkerReport { failed: 1, ..WorkerReport::default() }
            });
            if let (Some(t), Some(tc)) = (tr.as_ref(), tc) {
                // Compute covers the whole drain; staged-I/O spans
                // recorded by the row source nest inside it.
                t.record(Phase::Compute, tc, report.rows_accessed * (d as u64) * 8);
            }
            // Safety: own slot; read by worker 0 only after B.
            unsafe { *reports[w].get_mut() = report };

            let tb = tr.as_ref().map(|t| t.now());
            barrier.wait(); // B — all accumulators and reports final
            if let (Some(t), Some(tb)) = (tr.as_ref(), tb) {
                t.record(Phase::BarrierB, tb, 0);
            }

            // ---- parallel merge (dimension-sliced) ---------------
            let tm = tr.as_ref().map(|t| t.now());
            for j in dim_slice.clone() {
                let mut sum = 0.0;
                for a in accums.iter() {
                    // Safety: accumulators are read-only between B and C.
                    sum += unsafe { a.get() }.sums[j];
                }
                // Safety: dim slices are disjoint across workers.
                unsafe { *merged_sums.get_mut(j) = sum };
            }
            if w == 0 {
                // Safety: coordinator-only write between B and C.
                let mc = unsafe { merged_counts.get_mut() };
                for (c, m) in mc.iter_mut().enumerate() {
                    *m = accums.iter().map(|a| unsafe { a.get() }.counts[c]).sum();
                }
                if uses_weights {
                    // Only weighted updates read the lane; for
                    // everyone else (Lloyd included) the merged
                    // weights stay zero and cost nothing here.
                    let mw = unsafe { merged_weights.get_mut() };
                    for (c, m) in mw.iter_mut().enumerate() {
                        *m = accums.iter().map(|a| unsafe { a.get() }.weights[c]).sum();
                    }
                }
            }

            if let (Some(t), Some(tm)) = (tr.as_ref(), tm) {
                t.record(Phase::Merge, tm, dim_slice.len() as u64 * 8);
            }

            let tcw = tr.as_ref().map(|t| t.now());
            barrier.wait(); // C — merged sums/counts complete
            if let (Some(t), Some(tcw)) = (tr.as_ref(), tcw) {
                t.record(Phase::BarrierC, tcw, 0);
            }

            let tu = tr.as_ref().map(|t| t.now());
            if w == 0 {
                // ---- coordinator window --------------------------
                // Safety: exclusive window between C and next A.
                let cents = unsafe { centroids.get_mut() };
                let next = unsafe { next_cents.get_mut() };
                let mc = unsafe { merged_counts.get_mut() };
                let (psums, pcounts) = unsafe { persistent.get_mut() };

                // Aggregate worker reports before the reduce so the
                // reducer can globalize the convergence scalars.
                let mut totals = WorkerReport::default();
                let mut tallies: Option<Vec<AccessTally>> = None;
                for rep in reports.iter() {
                    // Safety: workers finished their reports before B.
                    let rep = unsafe { rep.get() };
                    totals.absorb(rep);
                    if let Some(t) = rep.tally.as_ref() {
                        tallies.get_or_insert_with(Vec::new).push(t.clone());
                    }
                }

                // Engine-specific global reduction (knord's
                // allreduce); identity for single-machine engines.
                let sums_view = unsafe { sums_staging.get_mut() };
                for (j, s) in sums_view.iter_mut().enumerate() {
                    *s = unsafe { *merged_sums.get(j) };
                }
                let mw = unsafe { merged_weights.get_mut() };
                let reduce_report = reducer.reduce(iter, sums_view, mc, mw, &mut totals);

                if cfg_pruning {
                    // MTI's delta path — Lloyd only (the
                    // eligibility hook guarantees it), so the update
                    // is the mean over the persistent global sums.
                    for (p, s) in psums.iter_mut().zip(sums_view.iter()) {
                        *p += s;
                    }
                    for (p, c) in pcounts.iter_mut().zip(mc.iter()) {
                        *p += c;
                    }
                    finalize_means(psums, pcounts, cents, next);
                } else if is_lloyd {
                    // Canonical instance: the historical call,
                    // bitwise identical to the pre-trait engine.
                    finalize_means(sums_view, mc, cents, next);
                } else {
                    // Generic update phase (spherical renormalize,
                    // fuzzy weighted mean, mini-batch learning
                    // rate, ...), on globally-reduced state.
                    algo.update(&mut UpdateCtx {
                        iter,
                        sums: sums_view,
                        counts: mc,
                        weights: mw,
                        prev: cents,
                        next,
                    });
                }

                // One drift pass feeds convergence and the bound state.
                let mut max_drift = 0.0f64;
                {
                    // Safety: coordinator window.
                    let mut mti_mut = cfg_pruning.then(|| unsafe { mti.get_mut() });
                    for c in 0..k {
                        let dr = dist(cents.mean(c), next.mean(c));
                        max_drift = max_drift.max(dr);
                        if let Some(m) = mti_mut.as_mut() {
                            m.drift[c] = dr;
                        }
                    }
                    if parallel_cc {
                        if let Some(m) = mti_mut.as_mut() {
                            // Publish the buffer base from the
                            // still-live exclusive borrow; the MTI
                            // state is not touched again (by
                            // reference) until finalize after E.
                            // Safety: coordinator window.
                            unsafe { cc_base.get_mut() }.0 = m.half_cc.as_mut_ptr();
                        }
                    }
                }
                if cfg_pruning && !parallel_cc {
                    // Safety: coordinator window.
                    unsafe { mti.get_mut() }.rebuild(next);
                }
                std::mem::swap(cents, next);

                stats.push(IterStats {
                    iter,
                    reassigned: totals.reassigned,
                    rows_accessed: totals.rows_accessed,
                    prune: totals.counters,
                    commit: totals.commit,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    queue: queue.stats(),
                    tallies,
                    max_drift,
                });
                reduces.push(reduce_report);
                plane.end_iteration(iter, stats.last().expect("just pushed"), totals.aux);
                queue.reset_stats();

                // A failed row source (here or, after the reduce, on
                // any rank) left this iteration's state partial: it
                // decides nothing except that the run is over.
                let run_failed = totals.failed > 0;
                let done_iters = iter + 1;
                let is_converged =
                    !run_failed && algo.converged(totals.reassigned, max_drift, cfg.tol);
                if is_converged {
                    converged.store(true, Ordering::Release);
                }
                if run_failed {
                    failed.store(true, Ordering::Release);
                }
                if is_converged || run_failed || done_iters >= cfg.max_iters {
                    stop.store(true, Ordering::Release);
                } else {
                    queue.refill(placement, cfg.task_size);
                }
                if let (Some(t), Some(tu)) = (tr.as_ref(), tu) {
                    t.record(Phase::Update, tu, 0);
                }
            }

            if parallel_cc {
                let td = tr.as_ref().map(|t| t.now());
                barrier.wait(); // D — updated centroids published
                if let (Some(t), Some(td)) = (tr.as_ref(), td) {
                    t.record(Phase::BarrierD, td, 0);
                }
                if !stop.load(Ordering::Acquire) {
                    let tcc = tr.as_ref().map(|t| t.now());
                    // Each worker owns the pairs (i, j > i) with
                    // i ≡ w (mod T); interleaving balances the
                    // shrinking triangle rows. It writes both
                    // mirror entries of a pair (the diagonal keeps
                    // the +∞ it was built with) — pair-disjoint
                    // writes through the captured base pointer.
                    let cents_now = unsafe { centroids.get() };
                    // Safety: published by the coordinator before D.
                    let cc = unsafe { cc_base.get() }.0;
                    let mut i = w;
                    while i < k {
                        let ci = cents_now.mean(i);
                        for j in (i + 1)..k {
                            let half = 0.5 * dist(ci, cents_now.mean(j));
                            // Safety: a pair belongs to the owner of
                            // its lower index, so (i, j) and (j, i)
                            // are written by this worker alone; D/E
                            // barriers order these writes against
                            // all readers.
                            unsafe {
                                *cc.add(i * k + j) = half;
                                *cc.add(j * k + i) = half;
                            }
                        }
                        i += nthreads;
                    }
                    if let (Some(t), Some(tcc)) = (tr.as_ref(), tcc) {
                        t.record(Phase::CcDist, tcc, 0);
                    }
                }
                let te = tr.as_ref().map(|t| t.now());
                barrier.wait(); // E — distance matrix complete
                if let (Some(t), Some(te)) = (tr.as_ref(), te) {
                    t.record(Phase::BarrierE, te, 0);
                }
                if w == 0 && !stop.load(Ordering::Acquire) {
                    // Safety: coordinator-exclusive until the next
                    // barrier A.
                    unsafe { mti.get_mut() }.finalize_half_min();
                }
            }

            // Reset own accumulator for the next iteration.
            accum.reset();
            iter += 1;
        }

        (stats, reduces)
    };
    std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (0..nthreads).map(|w| s.spawn(move || worker(w))).collect();
        for (w, h) in handles.into_iter().enumerate() {
            let (stats, reduces) = h.join().expect("engine worker panicked");
            if w == 0 {
                iter_stats = stats;
                reduce_reports = reduces;
            }
        }
    });

    if failed.load(Ordering::Acquire) {
        let local = failure.into_inner().unwrap_or_else(PoisonError::into_inner);
        return Err(
            local.unwrap_or_else(|| io::Error::other("stopped: a peer rank's row source failed"))
        );
    }
    Ok(DriverOutcome {
        centroids: centroids.into_inner(),
        assignments: rows.into_assignments(),
        iters: iter_stats,
        reduces: reduce_reports,
        converged: converged.load(Ordering::Acquire),
        // All workers joined above, so the group's rings are quiescent.
        // The fold covers only this run's group; engines that share one
        // buffer across ranks (knord) fold the buffer instead.
        phases: tgroup.as_deref().map(|g| g.breakdown()),
    })
}

// ---------------------------------------------------------------------------
// Per-row state and the pruning filters
// ---------------------------------------------------------------------------

/// The driver-owned per-row state of a run: every row's assignment and
/// its MTI upper bound (empty when nothing prunes).
/// Workers reach it only through the [`RowState`] of a task they own.
pub struct RowBounds {
    assign: SharedRows<u32>,
    upper: SharedRows<f64>,
}

impl RowBounds {
    /// State for `n` unassigned rows with an upper bound each.
    pub fn new(n: usize) -> Self {
        Self { upper: SharedRows::new(n, f64::INFINITY), ..Self::unbounded(n) }
    }

    /// State for `n` unassigned rows of an unpruned run: assignments only,
    /// 4 bytes a row. [`NoFilter`] never reads a bound.
    pub fn unbounded(n: usize) -> Self {
        Self { assign: SharedRows::new(n, u32::MAX), upper: SharedRows::new(0, 0.0) }
    }

    /// The handle through which the owner of a task reads and writes the
    /// state of that task's rows — the one place the engines' row-ownership
    /// contract is asserted.
    ///
    /// # Safety
    /// Until the next barrier, no other thread may touch the state of any
    /// row in `rows`. The scheduler guarantees exactly that to the worker
    /// that took a task covering `rows` from the iteration's queue: every
    /// row belongs to one task, every task is handed out once, and barriers
    /// A and B separate the compute super-phase from every other access.
    pub unsafe fn claim(&self, rows: Range<usize>) -> RowState<'_> {
        RowState { all: self, rows }
    }

    /// Final assignments. All workers have joined, so nothing is claimed.
    fn into_assignments(self) -> Vec<u32> {
        self.assign.snapshot()
    }
}

/// The per-row state of the rows one task owns (see [`RowBounds::claim`]).
/// Every accessor relies on that constructor's contract and checks, in
/// debug builds, that the row is one of the task's.
pub struct RowState<'a> {
    all: &'a RowBounds,
    rows: Range<usize>,
}

impl RowState<'_> {
    /// Row `r`'s assignment (`u32::MAX` before its first scan).
    #[inline]
    pub fn assign(&self, r: usize) -> u32 {
        debug_assert!(self.rows.contains(&r));
        // SAFETY: `claim`'s contract — this task owns row `r`.
        unsafe { *self.all.assign.get(r) }
    }

    /// Store row `r`'s assignment; true when it changed.
    #[inline]
    pub fn set_assign(&self, r: usize, a: u32) -> bool {
        debug_assert!(self.rows.contains(&r));
        // SAFETY: as `assign`.
        let slot = unsafe { self.all.assign.get_mut(r) };
        std::mem::replace(slot, a) != a
    }

    /// Row `r`'s upper bound on the distance to its assigned centroid.
    #[inline]
    pub fn upper(&self, r: usize) -> f64 {
        debug_assert!(self.rows.contains(&r));
        // SAFETY: as `assign`.
        unsafe { *self.all.upper.get(r) }
    }

    /// Store row `r`'s upper bound.
    #[inline]
    pub fn set_upper(&self, r: usize, u: f64) {
        debug_assert!(self.rows.contains(&r));
        // SAFETY: as `assign`.
        unsafe { *self.all.upper.get_mut(r) = u };
    }
}

/// A pruning scheme as the worker loop sees it: three per-row steps over
/// the [`RowState`] of the task that owns the row.
///
/// Counter ledger (steady state): every row satisfies
/// `clause2 + clause3 + dists = k` — with the Clause-1 rows contributing
/// `k` each — so `clause1·k + clause2 + clause3 + dists = n·k`, except
/// that an MTI walk which moves a row off its assignment `a` re-tests `a`
/// as a candidate when `a` lies ahead of the move: a reassigned row may
/// count `k + 1`.
pub trait RowFilter {
    /// Whether [`Self::establish`] consumes the kernel's distances (false
    /// lets the kernel skip its distance finalization pass).
    const BOUNDED: bool;

    /// Pre-fetch filter (`iter > 0`): loosen row `r`'s bounds by this
    /// iteration's drift, write them back, and say whether the row's data
    /// must be fetched. A `false` costs neither data access nor I/O.
    fn keep(&self, rows: &RowState<'_>, r: usize, counters: &mut PruneCounters) -> bool;

    /// Commit a full scan's decision `best = (a, d(v, a))` for row `r`:
    /// accumulate, store the assignment and establish the scheme's bounds.
    /// Returns true on reassignment.
    fn establish(
        &self,
        rows: &RowState<'_>,
        r: usize,
        v: &[f64],
        best: (usize, f64),
        accum: &mut LocalAccum,
        counters: &mut PruneCounters,
    ) -> bool;

    /// Commit a fetched row whose bounds [`Self::keep`] already loosened
    /// (`iter > 0`): scan what the bounds cannot rule out — through `scan`
    /// when the bounds leave many candidates open — refresh them and
    /// accumulate the *delta* of a reassignment. Returns true on one.
    fn commit(
        &self,
        rows: &RowState<'_>,
        r: usize,
        v: &[f64],
        scan: Option<&mut RowScan<'_>>,
        accum: &mut LocalAccum,
        counters: &mut PruneCounters,
    ) -> bool;
}

/// No pruning: every row is kept and scanned in full, and the accumulator
/// collects plain sums that are rebuilt every iteration.
pub struct NoFilter<'a> {
    cents: &'a Centroids,
}

impl<'a> NoFilter<'a> {
    /// The (empty) filter over `cents`.
    pub fn new(cents: &'a Centroids) -> Self {
        Self { cents }
    }
}

impl RowFilter for NoFilter<'_> {
    const BOUNDED: bool = false;

    #[inline]
    fn keep(&self, _rows: &RowState<'_>, _r: usize, _counters: &mut PruneCounters) -> bool {
        true
    }

    #[inline]
    fn establish(
        &self,
        rows: &RowState<'_>,
        r: usize,
        v: &[f64],
        (a, _): (usize, f64),
        accum: &mut LocalAccum,
        _counters: &mut PruneCounters,
    ) -> bool {
        accum.add(a, v);
        rows.set_assign(r, a as u32)
    }

    /// With no bounds to consult, committing a row is a full scan. (The
    /// worker loop never asks: unpruned iterations commit whole blocks
    /// through the assignment kernel.)
    fn commit(
        &self,
        rows: &RowState<'_>,
        r: usize,
        v: &[f64],
        _scan: Option<&mut RowScan<'_>>,
        accum: &mut LocalAccum,
        counters: &mut PruneCounters,
    ) -> bool {
        let k = self.cents.k();
        counters.dist_computations += k as u64;
        let best = nearest(v, &self.cents.means, k);
        self.establish(rows, r, v, best, accum, counters)
    }
}

/// MTI (the paper's scheme): one upper bound per row against the
/// `½·min` centroid-separation thresholds.
pub struct MtiFilter<'a> {
    cents: &'a Centroids,
    mti: &'a MtiIterState,
}

impl<'a> MtiFilter<'a> {
    /// The filter over `cents` with this iteration's drift/threshold state.
    pub fn new(cents: &'a Centroids, mti: &'a MtiIterState) -> Self {
        Self { cents, mti }
    }
}

impl RowFilter for MtiFilter<'_> {
    const BOUNDED: bool = true;

    /// Clause 1: the drift-loosened upper bound against `½·min d(a, ·)`.
    #[inline]
    fn keep(&self, rows: &RowState<'_>, r: usize, counters: &mut PruneCounters) -> bool {
        let a = rows.assign(r) as usize;
        let ub = rows.upper(r) + self.mti.drift[a];
        rows.set_upper(r, ub);
        if ub <= self.mti.half_min[a] {
            counters.clause1_rows += 1;
            false
        } else {
            true
        }
    }

    /// Delta accumulation against the persistent sums, the assignment,
    /// and the exact upper bound `da`.
    #[inline]
    fn establish(
        &self,
        rows: &RowState<'_>,
        r: usize,
        v: &[f64],
        (a, da): (usize, f64),
        accum: &mut LocalAccum,
        _counters: &mut PruneCounters,
    ) -> bool {
        let cur_a = rows.assign(r);
        if cur_a == u32::MAX {
            accum.add(a, v);
        } else if cur_a as usize != a {
            accum.sub(cur_a as usize, v);
            accum.add(a, v);
        }
        rows.set_upper(r, da);
        rows.set_assign(r, a as u32)
    }

    #[inline]
    fn commit(
        &self,
        rows: &RowState<'_>,
        r: usize,
        v: &[f64],
        scan: Option<&mut RowScan<'_>>,
        accum: &mut LocalAccum,
        counters: &mut PruneCounters,
    ) -> bool {
        let a = rows.assign(r) as usize;
        let ub = rows.upper(r);
        let (new_a, new_ub) = mti_assign(v, self.cents, self.mti, a, ub, scan, counters);
        let reassigned = new_a != a;
        if reassigned {
            accum.sub(a, v);
            accum.add(new_a, v);
            rows.set_assign(r, new_a as u32);
        }
        rows.set_upper(r, new_ub);
        reassigned
    }
}

/// The run's filter as [`IterView`] carries it. The worker loop matches on
/// it once per compute call and runs monomorphized over the implementor.
pub enum Filter<'a> {
    /// Pruning off (and every non-Lloyd algorithm).
    None(NoFilter<'a>),
    /// [`Pruning::Mti`].
    Mti(MtiFilter<'a>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::LloydAlgo;
    use crate::plane::SlicePlane;
    use knor_matrix::RowView;
    use knor_numa::Topology;
    use knor_sched::SchedulerKind;

    fn run(
        data: &[f64],
        n: usize,
        d: usize,
        k: usize,
        pruning: Pruning,
        threads: usize,
    ) -> DriverOutcome {
        run_kernel(data, n, d, k, pruning, threads, KernelKind::Auto)
    }

    fn run_kernel(
        data: &[f64],
        n: usize,
        d: usize,
        k: usize,
        pruning: Pruning,
        threads: usize,
        kernel: KernelKind,
    ) -> DriverOutcome {
        let placement = Placement::new(&Topology::flat(threads), n, threads);
        let queue = TaskQueue::new(SchedulerKind::Static, &placement);
        let cfg = DriverConfig {
            k,
            d,
            n,
            nthreads: threads,
            max_iters: 50,
            tol: 0.0,
            pruning,
            task_size: 16,
            kernel,
            row_offset: 0,
            trace: None,
        };
        let init =
            Centroids::from_matrix(&knor_matrix::DMatrix::from_vec(data[..k * d].to_vec(), k, d));
        // A plain slice exercises the driver protocol without any engine
        // machinery.
        let plane = SlicePlane(RowView::new(data, d));
        run_mm(&cfg, init, &placement, &queue, &plane, &NoReduce, &LloydAlgo)
            .expect("in-memory rows cannot fail")
    }

    #[test]
    fn driver_clusters_separated_points() {
        // Three tight groups in 1-D.
        let mut data = Vec::new();
        for c in [0.0f64, 10.0, -10.0] {
            for i in 0..20 {
                data.push(c + (i % 5) as f64 * 0.01);
            }
        }
        let n = data.len();
        let out = run(&data, n, 1, 3, Pruning::None, 3);
        assert!(out.converged);
        assert_eq!(out.assignments.len(), n);
        // All members of a block share an assignment.
        for block in 0..3 {
            let first = out.assignments[block * 20];
            assert!(out.assignments[block * 20..(block + 1) * 20].iter().all(|&a| a == first));
        }
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let mut data = Vec::new();
        for i in 0..240 {
            let c = (i % 4) as f64 * 7.0;
            data.push(c + (i as f64 * 0.37).sin() * 0.4);
            data.push(-c + (i as f64 * 0.11).cos() * 0.4);
        }
        let n = 240;
        let b = run(&data, n, 2, 4, Pruning::None, 2);
        let a = run(&data, n, 2, 4, Pruning::Mti, 2);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.iters.len(), b.iters.len());
        assert!(a.iters.iter().map(|i| i.prune.clause1_rows).sum::<u64>() > 0);
    }

    #[test]
    fn mti_counter_ledger_holds() {
        // Every candidate distance is pruned by one clause or computed:
        // clause1·k + clause2 + clause3 + dists is n·k, plus at most one
        // re-tested candidate per reassigned row, in every iteration, the
        // one-candidate shortcut's rows and the row scan's included. The
        // rows come cluster by cluster, so the init (the first k rows)
        // seeds two of the 25 clusters and the run has a reassignment
        // cascade to prune through. `k·d = 50` would resolve to the scalar
        // kernel, which packs no panel; gemm is asked for.
        let mut data = Vec::new();
        for i in 0..500 {
            let c = (i / 20) as f64;
            data.push((c % 5.0) * 9.0 + (i as f64 * 0.29).sin() * 0.9);
            data.push((c / 5.0).floor() * 9.0 + (i as f64 * 0.17).cos() * 0.9);
        }
        let (n, k) = (500, 25);
        for threads in [1usize, 3] {
            let out = run_kernel(&data, n, 2, k, Pruning::Mti, threads, KernelKind::Gemm);
            assert!(out.iters.len() > 1, "need steady-state iterations");
            for it in &out.iters {
                let p = &it.prune;
                let total = p.clause1_rows * k as u64
                    + p.clause2_prunes
                    + p.clause3_prunes
                    + p.dist_computations;
                let what = format!("iter {} threads {threads}: {p:?}", it.iter);
                assert!(total >= (n * k) as u64, "{what}");
                assert!(total <= (n * k) as u64 + it.reassigned, "{what}");
            }
            let p = out.iters.iter().fold(PruneCounters::default(), |mut t, i| {
                t.merge(&i.prune);
                t
            });
            assert!(p.clause1_rows > 0 && p.clause3_prunes > 0 && p.one_cand_rows > 0, "{p:?}");
            assert!(p.gemm_rows > 0, "the row scan never fired: {p:?}");
            // The same run, bit for bit, without the panel.
            let scalar = run_kernel(&data, n, 2, k, Pruning::Mti, threads, KernelKind::Scalar);
            assert_eq!(out.assignments, scalar.assignments);
            assert_eq!(out.centroids, scalar.centroids);
        }
    }

    #[test]
    fn gemm_kernel_bitwise_matches_scalar_driver_run() {
        let mut data = Vec::new();
        for i in 0..300 {
            let c = (i % 5) as f64 * 6.0;
            data.push(c + (i as f64 * 0.13).sin());
            data.push(-c + (i as f64 * 0.29).cos());
            data.push((i as f64 * 0.07).sin() * 2.0);
        }
        let n = 300;
        for pruning in [Pruning::None, Pruning::Mti] {
            let scalar = run_kernel(&data, n, 3, 12, pruning, 2, KernelKind::Scalar);
            let gemm = run_kernel(&data, n, 3, 12, pruning, 2, KernelKind::Gemm);
            assert_eq!(scalar.assignments, gemm.assignments, "pruning={pruning:?}");
            assert_eq!(scalar.centroids, gemm.centroids, "pruning={pruning:?}");
            assert_eq!(scalar.iters.len(), gemm.iters.len());
            for (a, b) in scalar.iters.iter().zip(&gemm.iters) {
                assert_eq!(a.reassigned, b.reassigned);
                assert_eq!(a.rows_accessed, b.rows_accessed);
                assert_eq!(a.prune.clause1_rows, b.prune.clause1_rows);
                // Only the gemm run has a panel for the row scan, whose
                // rows count every open candidate as a distance; an
                // iteration without one counts exactly as the walk does.
                assert_eq!(a.prune.gemm_rows, 0);
                if b.prune.gemm_rows == 0 {
                    assert_eq!(a.prune, b.prune, "iter {}", a.iter);
                } else {
                    let total = |p: &PruneCounters| {
                        p.clause1_rows * 12
                            + p.clause2_prunes
                            + p.clause3_prunes
                            + p.dist_computations
                    };
                    let ledger = (n * 12) as u64..=(n * 12) as u64 + a.reassigned;
                    assert!(ledger.contains(&total(&b.prune)), "iter {}: {:?}", a.iter, b.prune);
                }
            }
        }
    }

    #[test]
    fn gemm_kernel_matches_clustering() {
        let mut data = Vec::new();
        for i in 0..400 {
            let c = (i % 4) as f64 * 9.0;
            data.push(c + (i as f64 * 0.41).sin() * 0.3);
            data.push(c - (i as f64 * 0.17).cos() * 0.3);
        }
        let n = 400;
        let exact = run_kernel(&data, n, 2, 16, Pruning::None, 2, KernelKind::Scalar);
        let gemm = run_kernel(&data, n, 2, 16, Pruning::None, 2, KernelKind::Gemm);
        assert_eq!(exact.assignments, gemm.assignments);
        assert_eq!(exact.iters.len(), gemm.iters.len());
        assert_eq!(exact.centroids, gemm.centroids, "certified gemm is bitwise scalar");
    }

    #[test]
    fn parallel_ccdist_recompute_matches_serial_path() {
        // k > PARALLEL_CC_ABOVE_K with several threads exercises the barrier D/E
        // parallel distance-matrix phase; one thread takes the serial path.
        // 72 tight, well-separated blobs in round-robin row order: rows
        // 0..k seed one centroid per blob, so every engine roots instantly
        // and every clause decision has a huge margin — the trajectories
        // are identical across thread counts.
        let k = PARALLEL_CC_ABOVE_K + 8;
        let per_blob = 10;
        let n = k * per_blob;
        let d = 2;
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let blob = i % k;
            let jitter = (i / k) as f64 * 0.004;
            data.push((blob % 9) as f64 * 50.0 + jitter);
            data.push((blob / 9) as f64 * 50.0 - jitter);
        }
        let par = run_kernel(&data, n, d, k, Pruning::Mti, 3, KernelKind::Auto);
        let ser = run_kernel(&data, n, d, k, Pruning::Mti, 1, KernelKind::Auto);
        assert!(par.converged && ser.converged);
        assert_eq!(par.assignments, ser.assignments);
        assert_eq!(par.iters.len(), ser.iters.len());
        for (a, b) in par.iters.iter().zip(&ser.iters) {
            assert_eq!(a.prune.clause1_rows, b.prune.clause1_rows, "iter {}", a.iter);
            assert_eq!(a.reassigned, b.reassigned, "iter {}", a.iter);
        }
        // A missed slice of the parallel triangle fill would zero half_min
        // and kill Clause 1 entirely; rooted blobs must prune every row.
        let last = par.iters.last().unwrap();
        assert_eq!(last.prune.clause1_rows, n as u64, "clause 1 must cover all rooted rows");
    }

    #[test]
    fn reduce_hook_sees_every_iteration() {
        use std::sync::atomic::AtomicUsize;

        struct Counting {
            calls: AtomicUsize,
        }
        impl Reducer for Counting {
            fn reduce(
                &self,
                _iter: usize,
                _sums: &mut [f64],
                _counts: &mut [i64],
                _weights: &mut [f64],
                _totals: &mut WorkerReport,
            ) -> ReduceReport {
                self.calls.fetch_add(1, Ordering::Relaxed);
                ReduceReport { comm_bytes: 7, ..Default::default() }
            }
        }

        let data: Vec<f64> = (0..60).map(|i| (i % 3) as f64 * 5.0).collect();
        let topo = Topology::flat(2);
        let placement = Placement::new(&topo, 60, 2);
        let queue = TaskQueue::new(SchedulerKind::Static, &placement);
        let cfg = DriverConfig {
            k: 3,
            d: 1,
            n: 60,
            nthreads: 2,
            max_iters: 20,
            tol: 0.0,
            pruning: Pruning::Mti,
            task_size: 8,
            kernel: KernelKind::Auto,
            row_offset: 0,
            trace: None,
        };
        let init =
            Centroids::from_matrix(&knor_matrix::DMatrix::from_vec(vec![0.0, 5.0, 10.0], 3, 1));
        let reducer = Counting { calls: AtomicUsize::new(0) };
        let plane = SlicePlane(RowView::new(&data, 1));
        let out = run_mm(&cfg, init, &placement, &queue, &plane, &reducer, &LloydAlgo).unwrap();
        assert_eq!(reducer.calls.load(Ordering::Relaxed), out.iters.len());
        assert_eq!(out.reduces.len(), out.iters.len());
        assert!(out.reduces.iter().all(|r| r.comm_bytes == 7));
    }
}

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
//!   distance matrix, records statistics, decides convergence, the next
//!   full scan's precision ([`F32_MISS_SHARE`]) and the next bounded
//!   commit's mode ([`WIDE_SHARE`]), and refills the queue.
//!
//! Under pruning the accumulators hold *deltas* against persistent global
//! sums (maintained by the driver), so a Clause-1 skip touches no row data.
//!
//! **Shared state.** What only the coordinator touches — the next
//! centroids, the merged counts and weights, the reduce staging, MTI's
//! persistent sums and the statistics — is worker 0's own `Coordinator`.
//! What crosses a barrier sits behind a `std` lock that a phase takes once
//! and drops before the phase's closing barrier: the centroids and MTI's
//! thresholds (read in compute, written in the window), each worker's
//! accumulator (written in compute, read in the merge), its report and its
//! slice of the merged sums — and each task's per-row state ([`RowBounds`]:
//! one [`TaskRows`] chunk per task of the fixed task grid, locked by the
//! worker that took the task). The barriers and the queue already order
//! every access, so no lock is ever contended: each is taken with `try_*`,
//! and a busy one is a protocol bug that panics naming the cell.
//!
//! **Failure.** A row source can fail (a SEM device read), and a plane or
//! algorithm hook can panic. Either way the worker keeps walking the
//! barriers: a failed or panicked compute reports [`WorkerReport::failed`],
//! which rides the reduce like every other scalar, so the coordinator —
//! every rank's coordinator, under knord — stops the run at the same
//! iteration; a panic in the coordinator's own hooks stops it at the next
//! barrier A. [`run_mm`] then returns the first error, or resumes the
//! first panic with its original payload.

use std::any::Any;
use std::cell::Cell;
use std::io;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError, RwLock, TryLockError, TryLockResult};

use knor_numa::Placement;
use knor_sched::{task_grid, Task, TaskQueue};

use crate::algo::{MmAlgorithm, UpdateCtx};
use crate::centroids::{finalize_means, Centroids, LocalAccum};
use crate::distance::{dist, nearest};
use crate::kernel::{avx512_scorer, f32_scan_possible, Precision, ResolvedKernel, ResolvedKind};
use crate::plane::{DataPlane, DrainScratch};
use crate::pruning::{mti_assign, MtiIterState, PruneCounters, Pruning, RowScan};
use crate::stats::{CommitCounters, IterStats};
use crate::trace::{Phase, PhaseBreakdown, TraceHandle, WorkerTracer};

/// The precision rule's limit: a full scan scores in f32 only when, in the
/// previous full scan, at most this share of the rows scanned failed the
/// f32 certificate (an f32 scan) or would have failed it (iteration 0's
/// probe). Where an f32 scan may run at all ([`f32_scan_possible`]),
/// DESIGN.md §7 measured its break-even at 2.1–4.1 % misses on uniform
/// and planted shapes, `d` 8 and 32, `k` 64 and 128; at half the lowest,
/// an f32 scan that misses this share still wins by about 8 %.
pub const F32_MISS_SHARE: f64 = 0.01;

/// The precision of a run's iteration 0: a probe when the run may score in
/// f32 later (`eligible`: an unpruned Lloyd gemm run) and the host and the
/// initial centroids allow it, plain f64 otherwise.
fn first_precision(eligible: bool, cents: &Centroids) -> Precision {
    if eligible && f32_scan_possible(cents) {
        Precision::F64Probe
    } else {
        Precision::F64
    }
}

/// The precision rule: the full scan after one at precision `prev` with
/// commit counters `c`, against the new centroids `cents`, scores in f32
/// when `prev` counted f32 misses (a probe or an f32 scan), they are at
/// most [`F32_MISS_SHARE`] of its rows, and the centroids still allow an
/// f32 scan. Otherwise it scores in plain f64, and so does every later
/// scan of the run.
fn next_precision(prev: Precision, c: &CommitCounters, cents: &Centroids) -> Precision {
    let scanned = c.borrowed_rows + c.gathered_rows;
    let fits = c.f32_misses as f64 <= F32_MISS_SHARE * scanned as f64;
    if prev != Precision::F64 && fits && f32_scan_possible(cents) {
        Precision::F32
    } else {
        Precision::F64
    }
}

/// The block rule's limit: an MTI iteration scores its Clause-1 survivors
/// in blocks (DESIGN.md §2) when, in the previous iteration, more than
/// this share of the committed rows ended with a bound that leaves at
/// least `scan_min_open(k)` candidates open (`wide_rows`). Such a row costs
/// the walk a tighten plus a one-row gemm scan; the block scores every
/// survivor at about one flat rate. DESIGN.md §2 measured the break-even
/// near 0.40 of committed rows; a steady iteration sits far from it on
/// both sides (0.03 on a k-means++ mixture, 0.86 under Forgy seeds), and
/// half keeps the rule on the walk's side of the estimate.
pub const WIDE_SHARE: f64 = 0.5;

/// The smallest `k` at which the block rule may pick block mode: the
/// rates behind [`WIDE_SHARE`] were measured from `k = 32` up. Below it a
/// row counts as wide with as few as two candidates open
/// (`scan_min_open`), and the block's flat cost was never timed.
pub const BLOCK_MIN_K: usize = 32;

/// Whether the block rule may pick block mode for a run of `k` centroids
/// on kernel `rk`: the shapes [`WIDE_SHARE`] was derived on, a gemm run
/// on the AVX-512 scorer with `k >= BLOCK_MIN_K`. Elsewhere every bounded
/// iteration walks.
pub fn block_rule_applies(rk: ResolvedKernel, k: usize) -> bool {
    rk.kind == ResolvedKind::Gemm && avx512_scorer() && k >= BLOCK_MIN_K
}

/// The block rule: whether the bounded iteration after one with commit
/// counters `c` scores its survivors in blocks. Rank-local counters, like
/// the precision rule's; either mode gives the same result.
fn next_block(c: &CommitCounters) -> bool {
    let committed = c.borrowed_rows + c.gathered_rows;
    c.wide_rows as f64 > WIDE_SHARE * committed as f64
}

thread_local! {
    /// A bounded-commit mode forced on the runs this thread starts
    /// ([`with_block_commit`]).
    static FORCED_BLOCK: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Run `f` with every driver run it starts on this thread committing its
/// MTI iterations in block mode (`true`) or by the walk (`false`), whatever
/// the block rule says. Test-only: the two modes give bitwise the same
/// result, and the tests that show it force each one.
#[doc(hidden)]
pub fn with_block_commit<T>(block: bool, f: impl FnOnce() -> T) -> T {
    let before = FORCED_BLOCK.replace(Some(block));
    let out = f();
    FORCED_BLOCK.set(before);
    out
}

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
    /// Assignment kernel for full scans: the run's shape picks it
    /// ([`ResolvedKernel::for_shape`], set by `RunSpec::resolve`).
    pub kernel: ResolvedKernel,
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
    /// Plane-defined auxiliary counter (knors: row-cache hits).
    pub aux: u64,
    /// Workers whose compute failed this iteration (a row source's error
    /// or a panic). Summed across workers (and, by the reducer, across
    /// ranks); non-zero stops the run.
    pub failed: u64,
}

impl WorkerReport {
    /// Fold another worker's report into this aggregate.
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
    /// The precision of this iteration's gemm full scan: the precision
    /// rule's verdict ([`F32_MISS_SHARE`]); never f32 at iteration 0 or
    /// under pruning.
    pub precision: Precision,
    /// Whether a bounded (MTI, `iter > 0`) iteration commits its Clause-1
    /// survivors through the block scan: the block rule's verdict
    /// ([`WIDE_SHARE`], [`block_rule_applies`]). Only a gemm run with
    /// `k > 1` ever does.
    pub block: bool,
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
/// reduction it performed (all zeros for single-machine engines); the
/// driver copies it into the iteration's [`IterStats`].
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

/// Everything a finished driver run hands back to the engine.
#[derive(Debug)]
pub struct DriverOutcome {
    /// Final centroids.
    pub centroids: Centroids,
    /// Final per-row assignments.
    pub assignments: Vec<u32>,
    /// Per-iteration statistics, the reduction's wire counters included.
    pub iters: Vec<IterStats>,
    /// Whether the run converged before the iteration cap.
    pub converged: bool,
    /// Per-phase fold of this run's spans (`Some` iff tracing was on).
    pub phases: Option<PhaseBreakdown>,
    /// Every row's final MTI upper bound, in row order (empty when nothing
    /// prunes): what the block-mode tests compare.
    #[cfg(test)]
    pub upper: Vec<f64>,
}

/// Worker 0's own state. No other thread ever reads it, so it needs no
/// lock: the worker closure creates it and hands it back at the join.
struct Coordinator {
    /// `C^{t+1}`, swapped into the shared centroids at the window's end.
    next: Centroids,
    /// Merged counts (always) and contribution weights (weighted
    /// algorithms only; zeros otherwise), summed between B and C.
    counts: Vec<i64>,
    weights: Vec<f64>,
    /// The merged sums gathered from the workers' slices and handed to the
    /// reduce; persistent so steady-state iterations never allocate.
    sums: Vec<f64>,
    /// Persistent global sums and counts for MTI's delta accumulation.
    psums: Vec<f64>,
    pcounts: Vec<i64>,
    stats: Vec<IterStats>,
}

/// Run a hook that may panic: its value, or `None` once the payload is
/// kept in `first` (unless an earlier one is already there).
fn caught<T>(first: &Mutex<Option<Box<dyn Any + Send>>>, hook: impl FnOnce() -> T) -> Option<T> {
    let out = panic::catch_unwind(AssertUnwindSafe(hook));
    out.map_err(|p| {
        first.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(p);
    })
    .ok()
}

/// The guard of a lock a phase just tried (`try_read`, `try_write` or
/// `try_lock`). The barriers order every access, so a lock still held by
/// another phase is a protocol bug: panic naming `cell` rather than wait.
/// A poisoned lock is not one — the panic that poisoned it was caught and
/// is stopping the run — so its guard is handed back.
fn held<G>(tried: TryLockResult<G>, cell: &str) -> G {
    match tried {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            panic!("barrier protocol violated: `{cell}` is held by another phase")
        }
    }
}

/// Run the shared map/merge/reduce/update protocol for an arbitrary
/// [`MmAlgorithm`] over `plane`'s rows: spawn `cfg.nthreads` workers,
/// iterate until the algorithm declares convergence or the cap, and return
/// the outcome — or the first error a row source reported (see the module
/// docs; a run stopped by a peer rank's failure reports
/// [`io::ErrorKind::Other`]). A panic in a plane, reducer or algorithm
/// hook stops the run and is resumed here, on the caller's thread.
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

    let rk = cfg.kernel;
    // Only an unpruned Lloyd run has full scans after iteration 0, and
    // only the gemm kernel has an f32 scorer.
    let f32_eligible = is_lloyd && !cfg_pruning && rk.kind == ResolvedKind::Gemm;
    // The next full scan's precision (as `u8`, an index into `precisions`),
    // decided in the coordinator window.
    let precisions = [Precision::F64, Precision::F64Probe, Precision::F32];
    let precision = AtomicU8::new(first_precision(f32_eligible, &init) as u8);
    // The next bounded iteration's commit mode, decided in the coordinator
    // window; iteration 1 walks unless a test forces block mode. The block
    // scan needs the gemm scorer's certificate and a candidate to compare;
    // the rule picks it only on the shapes it was measured on.
    let forced_block = FORCED_BLOCK.get();
    let block_able = cfg_pruning && rk.kind == ResolvedKind::Gemm && k > 1;
    let block_ruled = block_able && block_rule_applies(rk, k);
    let block = AtomicBool::new(block_able && forced_block == Some(true));

    // Shared engine state (see "Shared state" in the module docs).
    let centroids = RwLock::new(init);
    let mti = RwLock::new(MtiIterState::new(if cfg_pruning { k } else { 0 }));
    let rows = RowBounds::new(placement, cfg.task_size, cfg_pruning);
    let dim_slices = knor_matrix::partition_rows(k * d, nthreads);
    let merged: Vec<Mutex<Vec<f64>>> =
        dim_slices.iter().map(|s| Mutex::new(vec![0.0; s.len()])).collect();
    let accums: Vec<RwLock<LocalAccum>> =
        (0..nthreads).map(|_| RwLock::new(LocalAccum::new(k, d))).collect();
    let reports: Vec<Mutex<WorkerReport>> =
        (0..nthreads).map(|_| Mutex::new(WorkerReport::default())).collect();
    let stop = AtomicBool::new(false);
    let converged = AtomicBool::new(false);
    // A failed compute: the first error a row source met, the first panic
    // payload any hook raised, and whether the (globally reduced) failure
    // count stopped the run.
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let barrier = Barrier::new(nthreads);
    // Wait at the barrier, tracing the wait as `phase`.
    let wait = |tr: Option<&WorkerTracer<'_>>, phase| {
        let t0 = tr.map(|t| t.now());
        barrier.wait();
        if let (Some(t), Some(t0)) = (tr, t0) {
            t.record(phase, t0, 0);
        }
    };

    queue.refill(placement, cfg.task_size);

    // All trace allocation happens here, before any worker spawns; the
    // traced-off path below is a single `Option` branch per record site.
    let tgroup = cfg.trace.as_ref().map(|h| h.buf.register(h.pid, nthreads, 0));

    // One worker's whole run. Everything it shares is borrowed; the barrier
    // protocol in the module docs orders every access.
    let worker = |w: usize| {
        let dim_slice = dim_slices[w].clone();
        // Thread-private drain buffers, reused across iterations so the hot
        // path never reallocates.
        let mut scratch = DrainScratch::default();
        plane.worker_start(w);
        let my_node = placement.node_of_thread(w).0;
        // Reserving the cap up front keeps the iteration loop
        // allocation-free. The reserve is clamped so an effectively-
        // unbounded cap (run-until-convergence callers) neither overflows
        // nor pre-allocates gigabytes; longer runs merely fall back to
        // amortized growth.
        let reserve = cfg.max_iters.min(1024);
        let mut coord = (w == 0).then(|| Coordinator {
            next: Centroids::zeros(k, d),
            counts: vec![0; k],
            weights: vec![0.0; k],
            sums: vec![0.0; k * d],
            psums: vec![0.0; k * d],
            pcounts: vec![0; k],
            stats: Vec::with_capacity(reserve),
        });
        let mut iter = 0usize;

        loop {
            let tr = tgroup.as_deref().map(|g| g.tracer(w, my_node as u32, iter as u32));
            if coord.is_some() && caught(&panicked, || plane.pre_iteration(iter)).is_none() {
                stop.store(true, Ordering::Release);
            }
            wait(tr.as_ref(), Phase::BarrierA); // A — state published by coordinator
            if stop.load(Ordering::Acquire) {
                break;
            }
            let t0 = std::time::Instant::now();
            let tc = tr.as_ref().map(|t| t.now());

            // ---- compute super-phase (the plane's worker loop) ---
            let report = {
                let cents = held(centroids.try_read(), "centroids");
                let mti = held(mti.try_read(), "mti");
                let mut accum = held(accums[w].try_write(), "accumulator");
                accum.reset();
                let view = IterView {
                    iter,
                    cents: &cents,
                    filter: match scheme {
                        Pruning::None => Filter::None(NoFilter::new(&cents)),
                        Pruning::Mti => Filter::Mti(MtiFilter::new(&cents, &mti)),
                    },
                    rows: &rows,
                    queue,
                    kernel: rk,
                    precision: precisions[usize::from(precision.load(Ordering::Acquire))],
                    block: block.load(Ordering::Acquire),
                    algo,
                    row_offset: cfg.row_offset,
                    scoped,
                    tracer: tr,
                };
                match caught(&panicked, || plane.compute(w, &view, &mut accum, &mut scratch)) {
                    Some(Ok(report)) => report,
                    outcome => {
                        // Keep the first error; this worker still walks
                        // the barriers so nobody waits on it forever.
                        if let Some(Err(e)) = outcome {
                            failure.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
                        }
                        WorkerReport { failed: 1, ..WorkerReport::default() }
                    }
                }
            };
            if let (Some(t), Some(tc)) = (tr.as_ref(), tc) {
                // Compute covers the whole drain; staged-I/O spans
                // recorded by the row source nest inside it.
                t.record(Phase::Compute, tc, report.rows_accessed * (d as u64) * 8);
            }
            *held(reports[w].try_lock(), "report") = report;

            wait(tr.as_ref(), Phase::BarrierB); // B — all accumulators and reports final

            // ---- parallel merge (dimension-sliced) ---------------
            // One accumulator at a time, in worker order: every sum keeps
            // the association ((0 + a₀) + a₁) + …, and nothing allocates.
            let tm = tr.as_ref().map(|t| t.now());
            {
                let mut slice = held(merged[w].try_lock(), "merged sums");
                slice.fill(0.0);
                if let Some(co) = coord.as_mut() {
                    co.counts.fill(0);
                    // `Sum`'s neutral element, so the weights keep the
                    // bits of an iterator sum over the accumulators.
                    if uses_weights {
                        co.weights.fill(-0.0);
                    }
                }
                for a in &accums {
                    let a = held(a.try_read(), "accumulator");
                    for (m, s) in slice.iter_mut().zip(&a.sums[dim_slice.clone()]) {
                        *m += s;
                    }
                    if let Some(co) = coord.as_mut() {
                        for (m, c) in co.counts.iter_mut().zip(&a.counts) {
                            *m += c;
                        }
                        // Only weighted updates read the lane; for
                        // everyone else (Lloyd included) the merged
                        // weights stay zero and cost nothing here.
                        if uses_weights {
                            for (m, x) in co.weights.iter_mut().zip(&a.weights) {
                                *m += x;
                            }
                        }
                    }
                }
            }
            if let (Some(t), Some(tm)) = (tr.as_ref(), tm) {
                t.record(Phase::Merge, tm, dim_slice.len() as u64 * 8);
            }

            wait(tr.as_ref(), Phase::BarrierC); // C — merged sums/counts complete

            if let Some(co) = coord.as_mut() {
                // ---- coordinator window (C to the next A) --------
                let tu = tr.as_ref().map(|t| t.now());
                let window = caught(&panicked, || {
                    let mut cents = held(centroids.try_write(), "centroids");

                    // Aggregate worker reports before the reduce so the
                    // reducer can globalize the convergence scalars.
                    let mut totals = WorkerReport::default();
                    for rep in &reports {
                        let rep = held(rep.try_lock(), "report");
                        totals.absorb(&rep);
                    }
                    for (m, dims) in merged.iter().zip(&dim_slices) {
                        co.sums[dims.clone()].copy_from_slice(&held(m.try_lock(), "merged sums"));
                    }

                    // Engine-specific global reduction (knord's
                    // allreduce); identity for single-machine engines.
                    let Coordinator { next, counts, weights, sums, psums, pcounts, .. } = co;
                    let wire = reducer.reduce(iter, sums, counts, weights, &mut totals);

                    if cfg_pruning {
                        // MTI's delta path — Lloyd only (the eligibility
                        // hook guarantees it), so the update is the mean
                        // over the persistent global sums.
                        for (p, s) in psums.iter_mut().zip(sums.iter()) {
                            *p += s;
                        }
                        for (p, c) in pcounts.iter_mut().zip(counts.iter()) {
                            *p += c;
                        }
                        finalize_means(psums, pcounts, &cents, next);
                    } else if is_lloyd {
                        // Canonical instance: the historical call,
                        // bitwise identical to the pre-trait engine.
                        finalize_means(sums, counts, &cents, next);
                    } else {
                        // Generic update phase (spherical renormalize,
                        // fuzzy weighted mean, mini-batch learning rate,
                        // ...), on globally-reduced state.
                        algo.update(&mut UpdateCtx {
                            iter,
                            sums,
                            counts,
                            weights,
                            prev: &cents,
                            next,
                        });
                    }

                    // One drift pass feeds convergence and the bound state.
                    let mut max_drift = 0.0f64;
                    let mut mti = cfg_pruning.then(|| held(mti.try_write(), "mti"));
                    for c in 0..k {
                        let dr = dist(cents.mean(c), next.mean(c));
                        max_drift = max_drift.max(dr);
                        if let Some(m) = mti.as_mut() {
                            m.drift[c] = dr;
                        }
                    }
                    if let Some(m) = mti.as_mut() {
                        m.rebuild(next);
                    }
                    std::mem::swap(&mut *cents, next);
                    let prev = precisions[usize::from(precision.load(Ordering::Acquire))];
                    let next = next_precision(prev, &totals.commit, &cents);
                    precision.store(next as u8, Ordering::Release);
                    let next_block = match forced_block {
                        Some(forced) => block_able && forced,
                        None => block_ruled && next_block(&totals.commit),
                    };
                    block.store(next_block, Ordering::Release);

                    co.stats.push(IterStats {
                        iter,
                        reassigned: totals.reassigned,
                        rows_accessed: totals.rows_accessed,
                        prune: totals.counters,
                        commit: totals.commit,
                        wall_ns: t0.elapsed().as_nanos() as u64,
                        queue: queue.stats(),
                        max_drift,
                        comm_bytes: wire.comm_bytes,
                        max_rank_comm_bytes: wire.max_rank_comm_bytes,
                        modeled_comm_ns: wire.modeled_comm_ns,
                    });
                    plane.end_iteration(iter, co.stats.last().expect("just pushed"), totals.aux);
                    queue.reset_stats();

                    // A failed compute (here or, after the reduce, on any
                    // rank) left this iteration's state partial: it
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
                });
                if window.is_none() {
                    stop.store(true, Ordering::Release);
                }
                if let (Some(t), Some(tu)) = (tr.as_ref(), tu) {
                    t.record(Phase::Update, tu, 0);
                }
            }
            iter += 1;
        }

        coord
    };
    let coord = std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (0..nthreads).map(|w| s.spawn(move || worker(w))).collect();
        handles.into_iter().filter_map(|h| h.join().expect("engine worker panicked")).next()
    })
    .expect("worker 0 coordinates");

    if let Some(p) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(p);
    }
    if failed.load(Ordering::Acquire) {
        let local = failure.into_inner().unwrap_or_else(PoisonError::into_inner);
        return Err(
            local.unwrap_or_else(|| io::Error::other("stopped: a peer rank's row source failed"))
        );
    }
    #[cfg(test)]
    let upper = rows.uppers();
    Ok(DriverOutcome {
        #[cfg(test)]
        upper,
        centroids: centroids.into_inner().unwrap_or_else(PoisonError::into_inner),
        assignments: rows.into_assignments(n),
        iters: coord.stats,
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
/// its MTI upper bound (no bounds when nothing prunes), as one
/// [`TaskRows`] chunk per task of the run's [`task_grid`]. Every row
/// belongs to exactly one task, so a worker holds the state of the rows it
/// works on by locking that task's chunk ([`RowBounds::claim`]).
pub struct RowBounds {
    tasks: Box<[Mutex<TaskRows>]>,
}

impl RowBounds {
    /// State for the unassigned rows of `placement`'s grid of `task_size`
    /// tasks, with an upper bound per row when `bounded`. An unpruned run
    /// keeps assignments only, 4 bytes a row: [`NoFilter`] never reads a
    /// bound.
    pub fn new(placement: &Placement, task_size: usize, bounded: bool) -> Self {
        let tasks = task_grid(placement, task_size);
        Self { tasks: tasks.map(|(_, t)| Mutex::new(TaskRows::new(t.rows, bounded))).collect() }
    }

    /// The state of `task`'s rows, for the worker that took `task` from
    /// iteration `iter`'s queue. The queue hands every grid task out once
    /// an iteration and barriers A and B fence the compute super-phase, so
    /// the chunk is never contended: a busy one is a protocol bug (see
    /// `held`), and so is a task claimed twice in one iteration.
    pub fn claim(&self, task: &Task, iter: usize) -> MutexGuard<'_, TaskRows> {
        let mut rows = held(self.tasks[task.id].try_lock(), "task rows");
        assert!(rows.claimed != iter + 1, "task {} claimed twice in iteration {iter}", task.id);
        rows.claimed = iter + 1;
        rows
    }

    /// Every row's upper bound, in row order.
    #[cfg(test)]
    fn uppers(&self) -> Vec<f64> {
        let chunks = self.tasks.iter().map(|t| held(t.try_lock(), "task rows"));
        chunks.flat_map(|t| t.upper.clone()).collect()
    }

    /// The `n` final assignments, in row order. All workers have joined,
    /// so no chunk is held; each is freed as soon as it is copied out.
    fn into_assignments(self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        for t in self.tasks.into_vec() {
            out.extend(t.into_inner().unwrap_or_else(PoisonError::into_inner).assign);
        }
        out
    }
}

/// The per-row state of the rows one task owns: rows `start..start +
/// assign.len()`, addressed by their run-local row ids.
#[derive(Debug)]
pub struct TaskRows {
    start: usize,
    assign: Vec<u32>,
    upper: Vec<f64>,
    /// One more than the iteration that last claimed the task (0 = never).
    claimed: usize,
}

impl TaskRows {
    /// State for the unassigned `rows`, with an upper bound each (at
    /// infinity) when `bounded`.
    pub fn new(rows: Range<usize>, bounded: bool) -> Self {
        let upper = if bounded { vec![f64::INFINITY; rows.len()] } else { Vec::new() };
        Self { start: rows.start, assign: vec![u32::MAX; rows.len()], upper, claimed: 0 }
    }

    /// Row `r`'s assignment (`u32::MAX` before its first scan).
    #[inline]
    pub fn assign(&self, r: usize) -> u32 {
        self.assign[r - self.start]
    }

    /// Store row `r`'s assignment; true when it changed.
    #[inline]
    pub fn set_assign(&mut self, r: usize, a: u32) -> bool {
        std::mem::replace(&mut self.assign[r - self.start], a) != a
    }

    /// Row `r`'s upper bound on the distance to its assigned centroid.
    #[inline]
    pub fn upper(&self, r: usize) -> f64 {
        self.upper[r - self.start]
    }

    /// Store row `r`'s upper bound.
    #[inline]
    pub fn set_upper(&mut self, r: usize, u: f64) {
        self.upper[r - self.start] = u;
    }
}

/// A pruning scheme as the worker loop sees it: three per-row steps over
/// the [`TaskRows`] of the task that owns the row.
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
    fn keep(&self, rows: &mut TaskRows, r: usize, counters: &mut PruneCounters) -> bool;

    /// Commit a full scan's decision `best = (a, d(v, a))` for row `r`:
    /// accumulate, store the assignment and establish the scheme's bounds.
    /// Returns true on reassignment.
    fn establish(
        &self,
        rows: &mut TaskRows,
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
        rows: &mut TaskRows,
        r: usize,
        v: &[f64],
        scan: Option<&mut RowScan<'_>>,
        accum: &mut LocalAccum,
        counters: &mut PruneCounters,
    ) -> bool;

    /// Whether committed row `r`'s bound leaves at least `scan_min_open(k)`
    /// candidates of its assignment open (`wide_rows`).
    fn wide(&self, rows: &TaskRows, r: usize) -> bool;
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
    fn keep(&self, _rows: &mut TaskRows, _r: usize, _counters: &mut PruneCounters) -> bool {
        true
    }

    #[inline]
    fn establish(
        &self,
        rows: &mut TaskRows,
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
        rows: &mut TaskRows,
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

    fn wide(&self, _rows: &TaskRows, _r: usize) -> bool {
        false
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
    fn keep(&self, rows: &mut TaskRows, r: usize, counters: &mut PruneCounters) -> bool {
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
        rows: &mut TaskRows,
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
        rows: &mut TaskRows,
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

    /// `u > half_scan[a]`: the row scan's own test ([`RowScan`]).
    #[inline]
    fn wide(&self, rows: &TaskRows, r: usize) -> bool {
        rows.upper(r) > self.mti.half_scan[rows.assign(r) as usize]
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
    use crate::kernel::KernelKind;
    use crate::plane::SlicePlane;
    use knor_matrix::RowView;
    use knor_numa::Topology;
    use knor_sched::SchedulerKind;

    fn run_kernel(
        data: &[f64],
        n: usize,
        d: usize,
        k: usize,
        pruning: Pruning,
        threads: usize,
        kernel: KernelKind,
    ) -> DriverOutcome {
        // A plain slice exercises the driver protocol without any engine
        // machinery.
        let cfg = config(n, d, k, pruning, threads, kernel);
        drive(&SlicePlane(RowView::new(data, d)), &NoReduce, data, cfg)
    }

    fn config(
        n: usize,
        d: usize,
        k: usize,
        pruning: Pruning,
        nthreads: usize,
        kernel: KernelKind,
    ) -> DriverConfig {
        DriverConfig {
            k,
            d,
            n,
            nthreads,
            max_iters: 50,
            tol: 0.0,
            pruning,
            task_size: 16,
            kernel: kernel.resolve(k, d, false),
            row_offset: 0,
            trace: None,
        }
    }

    /// One run of `cfg` over `plane`, whose rows are `data`'s; the first
    /// `k` rows seed the centroids.
    fn drive<P: DataPlane + ?Sized>(
        plane: &P,
        reducer: &impl Reducer,
        data: &[f64],
        cfg: DriverConfig,
    ) -> DriverOutcome {
        let (n, d, k, threads) = (cfg.n, cfg.d, cfg.k, cfg.nthreads);
        assert_eq!(data.len(), n * d);
        let placement = Placement::new(&Topology::flat(threads), n, threads);
        let queue = TaskQueue::new(SchedulerKind::Static, &placement);
        let init =
            Centroids::from_matrix(&knor_matrix::DMatrix::from_vec(data[..k * d].to_vec(), k, d));
        run_mm(&cfg, init, &placement, &queue, plane, reducer, &LloydAlgo)
            .expect("in-memory rows cannot fail")
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let p = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    /// The rows of `mti_counter_ledger_holds`: 25 clusters whose run keeps
    /// reassigning for several iterations.
    fn cascade_rows() -> Vec<f64> {
        let mut data = Vec::new();
        for i in 0..500 {
            let c = (i / 20) as f64;
            data.push((c % 5.0) * 9.0 + (i as f64 * 0.29).sin() * 0.9);
            data.push((c / 5.0).floor() * 9.0 + (i as f64 * 0.17).cos() * 0.9);
        }
        data
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
        let out = run_kernel(&data, n, 1, 3, Pruning::None, 3, KernelKind::Auto);
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
        let b = run_kernel(&data, n, 2, 4, Pruning::None, 2, KernelKind::Auto);
        let a = run_kernel(&data, n, 2, 4, Pruning::Mti, 2, KernelKind::Auto);
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
        let data = cascade_rows();
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
    fn large_k_run_is_thread_count_invariant() {
        // 72 tight, well-separated blobs in round-robin row order: rows
        // 0..k seed one centroid per blob, so every engine roots instantly
        // and every clause decision has a huge margin — the trajectories
        // are identical across thread counts.
        let k = 72;
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
        // A wrong half-distance table would zero half_min and kill Clause
        // 1 entirely; rooted blobs must prune every row.
        let last = par.iters.last().unwrap();
        assert_eq!(last.prune.clause1_rows, n as u64, "clause 1 must cover all rooted rows");
    }

    /// A fault planted at iteration 2.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        /// Worker 1's compute panics.
        ComputePanic,
        /// The coordinator's `end_iteration` hook panics.
        EndIterationPanic,
        /// Worker 1 takes its first grid task a second time: a scheduler
        /// bug, which the task's claim catches.
        DoubleTask,
    }

    /// A slice plane with a planted fault.
    struct Faulty {
        data: Vec<f64>,
        fault: Fault,
    }

    impl DataPlane for Faulty {
        fn compute(
            &self,
            w: usize,
            view: &IterView<'_>,
            accum: &mut LocalAccum,
            scratch: &mut DrainScratch,
        ) -> io::Result<WorkerReport> {
            if w == 1 && view.iter == 2 {
                match self.fault {
                    Fault::ComputePanic => panic!("planted panic in compute"),
                    Fault::DoubleTask => {
                        let placement = Placement::new(&Topology::flat(2), 500, 2);
                        let (_, first) = task_grid(&placement, 16).find(|&(w, _)| w == 1).unwrap();
                        view.queue.push(1, first);
                    }
                    Fault::EndIterationPanic => {}
                }
            }
            SlicePlane(RowView::new(&self.data, 2)).compute(w, view, accum, scratch)
        }

        fn end_iteration(&self, iter: usize, _stats: &IterStats, _aux_total: u64) {
            if self.fault == Fault::EndIterationPanic && iter == 2 {
                panic!("planted panic in end_iteration");
            }
        }
    }

    /// Run a two-worker fit over a [`Faulty`] plane on its own thread and
    /// return the panic message the run ends with — failing, instead of
    /// hanging, if it has not ended within a generous bound.
    fn faulty_run(fault: Fault) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let plane = Faulty { data: cascade_rows(), fault };
            let cfg = config(500, 2, 25, Pruning::Mti, 2, KernelKind::Auto);
            tx.send(panic_message(|| drop(drive(&plane, &NoReduce, &plane.data, cfg)))).unwrap();
        });
        let msg = rx.recv_timeout(std::time::Duration::from_secs(30)).expect("the run hung");
        run.join().expect("the run's thread returns once it sent");
        msg
    }

    #[test]
    fn a_worker_panic_in_compute_ends_the_run_with_its_payload() {
        assert_eq!(faulty_run(Fault::ComputePanic), "planted panic in compute");
    }

    #[test]
    fn a_panic_in_end_iteration_ends_the_run_with_its_payload() {
        assert_eq!(faulty_run(Fault::EndIterationPanic), "planted panic in end_iteration");
    }

    #[test]
    fn a_row_claimed_twice_in_one_iteration_panics() {
        // Iterations 0 and 1 claim every task again; in iteration 2 worker
        // 1 claims its first task (rows 250..266, task 16 of the grid) twice.
        assert_eq!(faulty_run(Fault::DoubleTask), "task 16 claimed twice in iteration 2");
    }

    #[test]
    fn a_held_lock_is_a_protocol_violation_and_a_poisoned_one_is_not() {
        let cell = RwLock::new(7u32);
        let violation = "barrier protocol violated: `centroids` is held by another phase";
        {
            let _r = held(cell.try_read(), "centroids");
            drop(held(cell.try_read(), "centroids"));
            assert_eq!(panic_message(|| drop(held(cell.try_write(), "centroids"))), violation);
        }
        let slot = Mutex::new(8u32);
        {
            let _g = held(slot.try_lock(), "report");
            let msg = panic_message(|| drop(held(slot.try_lock(), "report")));
            assert_eq!(msg, "barrier protocol violated: `report` is held by another phase");
        }
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let (_w, _g) = (cell.write().unwrap(), slot.lock().unwrap());
                panic!("a hook panicked");
            })
            .join()
        });
        assert!(cell.is_poisoned() && slot.is_poisoned());
        assert_eq!(*held(cell.try_write(), "centroids"), 7);
        assert_eq!(*held(slot.try_lock(), "report"), 8);
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

        // Rows 0, 5, 10, ... seed the centroids at 0, 5 and 10.
        let data: Vec<f64> = (0..60).map(|i| (i % 3) as f64 * 5.0).collect();
        let reducer = Counting { calls: AtomicUsize::new(0) };
        let cfg = config(60, 1, 3, Pruning::Mti, 2, KernelKind::Auto);
        let out = drive(&SlicePlane(RowView::new(&data, 1)), &reducer, &data, cfg);
        assert_eq!(reducer.calls.load(Ordering::Relaxed), out.iters.len());
        assert!(out.iters.iter().all(|it| it.comm_bytes == 7));
    }
}

//! The data plane and the one worker loop.
//!
//! All three knor engines run the *same* iteration protocol
//! ([`crate::driver`]); what differs between knori, knors and knord is only
//! where a row's bytes live and how they reach the worker. A [`DataPlane`]
//! is that difference as the driver sees it: the compute super-phase plus
//! the coordinator hooks that belong to row access (row-cache refresh
//! decisions, per-iteration I/O accounting). Every plane's `compute` is the
//! same function, [`drain`], over the plane's [`RowSource`]; one call of it
//! is one cell of this table, chosen once, before the first task:
//!
//! | part            | choices                                               | chosen from                         |
//! |-----------------|-------------------------------------------------------|-------------------------------------|
//! | row source      | *direct* ([`Direct`]: NUMA arenas, a rank's slice) or *staged* (the SEM row-cache / page-cache / device stack) | the plane |
//! | pre-fetch filter| `in_scope` · MTI clause 1 · Yinyang global filter      | algorithm, scheme, `iter > 0`       |
//! | commit          | block via `algo.map_block` · block via `assign_rows` + [`RowFilter::establish`] · per-row [`RowFilter::commit`] | algorithm, scheme, `iter > 0` |
//!
//! A direct source borrows rows in place and gathers a contiguous block
//! only when a block commit asks for one; a staged source fetches a whole
//! filtered task into the worker's scratch, declares that fetching costs
//! I/O ([`RowSource::STAGED`]) and thereby gets the depth-2 pipeline: the
//! filter for the *next* task runs, and its prefetch is submitted, before
//! the *current* task commits.
//!
//! Whatever the cell, rows are staged and committed in **task row order**,
//! so for a deterministic task→worker mapping the iteration trajectory is
//! bitwise independent of which plane the rows came through — the property
//! knord's `RankPlane` knob relies on.

use std::io;
use std::marker::PhantomData;

use knor_matrix::RowView;

use crate::centroids::LocalAccum;
use crate::driver::{Filter, IterView, RowFilter, WorkerReport};
use crate::kernel::assign_rows;
use crate::stats::IterStats;
use crate::trace::{Phase, WorkerTracer};

/// How an engine's workers obtain row data. One instance is shared by all
/// workers of one driver run; per-worker mutable state lives in the
/// driver-owned [`DrainScratch`].
pub trait DataPlane: Sync {
    /// Called once per worker thread before the first iteration
    /// (the in-memory plane binds the thread to its NUMA node here).
    fn worker_start(&self, _w: usize) {}

    /// Coordinator-only hook before barrier A of each iteration
    /// (the SEM plane decides row-cache refreshes here).
    fn pre_iteration(&self, _iter: usize) {}

    /// The compute super-phase for worker `w`: [`drain`] over this plane's
    /// row source. An `Err` is a failed fetch; the driver stops the run.
    fn compute(
        &self,
        w: usize,
        view: &IterView<'_>,
        accum: &mut LocalAccum,
        scratch: &mut DrainScratch,
    ) -> io::Result<WorkerReport>;

    /// Coordinator-only hook after the iteration's statistics are final
    /// (the SEM plane records its per-iteration I/O here). `aux_total` is
    /// the sum of the workers' [`WorkerReport::aux`] counters.
    fn end_iteration(&self, _iter: usize, _stats: &IterStats, _aux_total: u64) {}
}

/// How the rows of one filtered task become readable. One value serves one
/// worker for one compute super-phase. Local row ids are the driver's; the
/// source owns any translation to global/on-disk ids.
pub trait RowSource {
    /// Fetching a row costs I/O. The worker loop then filters and
    /// prefetches one task ahead of the one it commits (overlapping I/O
    /// with computation as FlashGraph does), and counts each row the filter
    /// drops as an avoided fetch (`io_skip_rows`). Direct sources keep
    /// take-one-task scheduling and report no skips.
    const STAGED: bool = false;

    /// Dimensionality of a row.
    fn d(&self) -> usize;

    /// Hint that `rows` will be staged soon — the pipeline's prefetch
    /// hand-off. Best-effort; may do nothing.
    fn prefetch(&mut self, _rows: &[usize]) {}

    /// Make every row of `rows` (a filtered task, ascending) readable
    /// through [`Self::row`] / [`Self::block`] until the next call. Returns
    /// the fast-tier hits (→ [`WorkerReport::aux`]). When `tracer` is
    /// present a staged source records its hit/miss/scatter intervals
    /// through it (measurement-only — see [`crate::trace`]).
    fn stage(
        &mut self,
        _rows: &[usize],
        _scratch: &mut DrainScratch,
        _tracer: Option<&WorkerTracer<'_>>,
    ) -> io::Result<u64> {
        Ok(0)
    }

    /// Row `r`, the `i`-th of the staged task; `staged` is the scratch's
    /// staging area. The default serves a staged source, whose `stage` left
    /// the task there in row order; [`Direct`] borrows the row in place.
    fn row<'a>(&'a mut self, staged: &'a [f64], i: usize, _r: usize) -> &'a [f64] {
        &staged[i * self.d()..(i + 1) * self.d()]
    }

    /// Rows `ids` — the staged task's `at`-th onwards — as one contiguous
    /// block. The default serves a staged source, which already holds them
    /// contiguously in `data`; [`Direct`] gathers them there.
    fn block<'a>(&mut self, data: &'a mut Vec<f64>, at: usize, ids: &[usize]) -> &'a [f64] {
        &data[at * self.d()..(at + ids.len()) * self.d()]
    }
}

/// The direct row source: rows are addressable memory and `fetch(r)`
/// borrows row `r` (recording whatever the plane wants to know about the
/// access — knori's cost-model tallies).
pub struct Direct<'data, F> {
    fetch: F,
    d: usize,
    rows: PhantomData<&'data [f64]>,
}

impl<'data, F: FnMut(usize) -> &'data [f64]> Direct<'data, F> {
    /// A direct source of `d`-dimensional rows.
    pub fn new(d: usize, fetch: F) -> Self {
        Self { fetch, d, rows: PhantomData }
    }
}

impl<'data, F: FnMut(usize) -> &'data [f64]> RowSource for Direct<'data, F> {
    fn d(&self) -> usize {
        self.d
    }

    #[inline]
    fn row<'a>(&'a mut self, _staged: &'a [f64], _i: usize, r: usize) -> &'a [f64] {
        (self.fetch)(r)
    }

    fn block<'a>(&mut self, data: &'a mut Vec<f64>, _at: usize, ids: &[usize]) -> &'a [f64] {
        let d = self.d;
        if data.len() < ids.len() * d {
            data.resize(ids.len() * d, 0.0);
        }
        for (i, &r) in ids.iter().enumerate() {
            data[i * d..(i + 1) * d].copy_from_slice((self.fetch)(r));
        }
        &data[..ids.len() * d]
    }
}

/// The direct in-memory plane over a contiguous row slice — knord's
/// per-rank view of the matrix (knori's NUMA-arena plane lives in
/// [`crate::engine`], where the arenas and access tallies are).
pub struct SlicePlane<'a>(pub RowView<'a>);

impl DataPlane for SlicePlane<'_> {
    fn compute(
        &self,
        w: usize,
        view: &IterView<'_>,
        accum: &mut LocalAccum,
        scratch: &mut DrainScratch,
    ) -> io::Result<WorkerReport> {
        drain(&mut Direct::new(self.0.ncol(), |r| self.0.row(r)), w, view, accum, scratch)
    }
}

/// One worker's reusable buffers for [`drain`]. All start empty and are
/// grow-only — steady-state iterations never allocate here.
#[derive(Debug, Default)]
pub struct DrainScratch {
    /// Row staging: a direct source's gathered block (`row_tile × d`), or
    /// every needed row of a staged source's current task in task row
    /// order (fast-tier hits copied in place, backing-tier rows scattered
    /// into their slots after the merged fetch).
    pub data: Vec<f64>,
    /// Block-commit best-index scratch.
    pub best: Vec<u32>,
    /// Block-commit best-distance / kernel score scratch.
    pub best_dist: Vec<f64>,
    /// Per-row contribution weights (generic algorithm path).
    pub weights: Vec<f64>,
    /// Staged sources: indices into the task's needed rows that missed the
    /// fast tier (the rows eligible for retention on a refresh iteration).
    pub miss_idx: Vec<usize>,
    /// Staged sources: row ids handed to the backing tier, in fetch order.
    pub miss_rows: Vec<usize>,
    /// Staged sources: backing-tier fetch staging (miss rows, fetch order).
    pub fetch: Vec<f64>,
    /// Recycled needed-row buffers (two alive at pipeline depth 2).
    free_needed: Vec<Vec<usize>>,
}

/// How [`drain`] commits the rows a task's filter kept.
#[derive(Clone, Copy, PartialEq)]
enum Commit {
    /// Non-Lloyd algorithms: blocks through [`MmAlgorithm::map_block`]
    /// (pruning is always off for them, so every iteration is a full pass
    /// over the in-scope rows).
    ///
    /// [`MmAlgorithm::map_block`]: crate::algo::MmAlgorithm::map_block
    Map,
    /// Lloyd full scan (iteration 0, or pruning off): blocks through the
    /// assignment kernel, then [`RowFilter::establish`] per row.
    Kernel,
    /// Lloyd under bounds (`iter > 0`): [`RowFilter::commit`] per row.
    Bounds,
}

/// The worker loop: drain worker `w`'s share of the iteration's task queue
/// through `src`, filtering, fetching and committing each task under the
/// policy the module docs tabulate.
pub fn drain<S: RowSource>(
    src: &mut S,
    w: usize,
    view: &IterView<'_>,
    accum: &mut LocalAccum,
    scratch: &mut DrainScratch,
) -> io::Result<WorkerReport> {
    match &view.filter {
        Filter::None(f) => drain_with(src, f, w, view, accum, scratch),
        Filter::Mti(f) => drain_with(src, f, w, view, accum, scratch),
        Filter::Yinyang(f) => drain_with(src, f, w, view, accum, scratch),
    }
}

/// [`drain`], monomorphized over the filter.
fn drain_with<S: RowSource, F: RowFilter>(
    src: &mut S,
    filter: &F,
    w: usize,
    view: &IterView<'_>,
    accum: &mut LocalAccum,
    scratch: &mut DrainScratch,
) -> io::Result<WorkerReport> {
    let commit = if !view.algo.is_lloyd() {
        Commit::Map
    } else if view.iter == 0 || !F::BOUNDED {
        Commit::Kernel
    } else {
        Commit::Bounds
    };
    let (d, k) = (view.cents.d, view.cents.k());
    let tracer = view.tracer.as_ref();
    let mut rep = WorkerReport::default();
    // The task filtered (and prefetched) ahead of the one being committed.
    let mut ahead = None;
    loop {
        let next = view.queue.next(w).map(|task| {
            // SAFETY: this worker just took `task` from the iteration's
            // queue, which hands every row to exactly one task once.
            let rows = unsafe { view.rows.claim(task.rows.clone()) };
            let mut needed = scratch.free_needed.pop().unwrap_or_default();
            needed.clear();
            // Rows dropped here are never requested from the source: a
            // bound-pruned or out-of-scope row costs no data access, and
            // on a staged source no I/O.
            match commit {
                Commit::Bounds => {
                    for r in task.rows {
                        if filter.keep(&rows, r, &mut rep.counters) {
                            needed.push(r);
                        } else if S::STAGED {
                            rep.counters.io_skip_rows += 1;
                        }
                    }
                }
                _ if view.scoped => needed.extend(task.rows.filter(|&r| view.in_scope(r))),
                _ => needed.extend(task.rows),
            }
            if S::STAGED && !needed.is_empty() {
                let t0 = tracer.map(|t| t.now());
                src.prefetch(&needed);
                if let (Some(t), Some(t0)) = (tracer, t0) {
                    t.record(Phase::IoFetch, t0, (needed.len() * d * 8) as u64);
                }
            }
            (rows, needed)
        });
        let current = if S::STAGED { std::mem::replace(&mut ahead, next) } else { next };
        let Some((rows, needed)) = current else {
            if ahead.is_none() {
                break;
            }
            continue; // pipeline fill: the first task has nothing before it
        };
        if !needed.is_empty() {
            rep.aux += src.stage(&needed, scratch, tracer)?;
            rep.rows_accessed += needed.len() as u64;
        }
        if commit == Commit::Bounds {
            for (i, &r) in needed.iter().enumerate() {
                let v = src.row(&scratch.data, i, r);
                rep.reassigned += u64::from(filter.commit(&rows, r, v, accum, &mut rep.counters));
            }
        } else {
            // One full candidate scan per row, whatever its metric.
            rep.counters.dist_computations += (needed.len() * k) as u64;
            // A staged task is contiguous already; a direct source gathers
            // one kernel row tile at a time.
            let step = if S::STAGED { needed.len() } else { view.kernel.row_tile }.max(1);
            for (c, ids) in needed.chunks(step).enumerate() {
                let block = src.block(&mut scratch.data, c * step, ids);
                let best = &mut scratch.best;
                if commit == Commit::Map {
                    let weights = &mut scratch.weights;
                    view.algo.map_block(
                        block,
                        d,
                        view.cents,
                        best,
                        weights,
                        &mut scratch.best_dist,
                    );
                    for (i, &r) in ids.iter().enumerate() {
                        accum.add_weighted(
                            best[i] as usize,
                            &block[i * d..(i + 1) * d],
                            weights[i],
                        );
                        rep.reassigned += u64::from(rows.set_assign(r, best[i]));
                    }
                } else {
                    let dists = &mut scratch.best_dist;
                    // Distances are only materialized when the filter's
                    // bounds consume them.
                    assign_rows(
                        block,
                        d,
                        view.cents,
                        &view.kernel,
                        view.cnorms,
                        best,
                        dists,
                        F::BOUNDED,
                    );
                    for (i, &r) in ids.iter().enumerate() {
                        let (v, scan) = (&block[i * d..(i + 1) * d], (best[i] as usize, dists[i]));
                        let moved = filter.establish(&rows, r, v, scan, accum, &mut rep.counters);
                        rep.reassigned += u64::from(moved);
                    }
                }
            }
        }
        scratch.free_needed.push(needed);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algorithm;
    use crate::centroids::Centroids;
    use crate::driver::{run_mm, DriverConfig, DriverOutcome, NoReduce};
    use crate::kernel::KernelKind;
    use crate::pruning::Pruning;
    use knor_numa::{Placement, Topology};
    use knor_sched::{SchedulerKind, TaskQueue};

    /// A staged source over an in-memory matrix: every task is copied into
    /// the staging area in row order, as a fast tier that never hits would.
    struct MemSource<'a> {
        data: &'a [f64],
        d: usize,
    }

    impl RowSource for MemSource<'_> {
        const STAGED: bool = true;

        fn d(&self) -> usize {
            self.d
        }

        fn stage(
            &mut self,
            needed: &[usize],
            scratch: &mut DrainScratch,
            _tracer: Option<&WorkerTracer<'_>>,
        ) -> io::Result<u64> {
            let d = self.d;
            if scratch.data.len() < needed.len() * d {
                scratch.data.resize(needed.len() * d, 0.0);
            }
            for (i, &r) in needed.iter().enumerate() {
                scratch.data[i * d..(i + 1) * d].copy_from_slice(&self.data[r * d..(r + 1) * d]);
            }
            Ok(0)
        }
    }

    struct StagedTestPlane {
        data: Vec<f64>,
        d: usize,
    }

    impl DataPlane for StagedTestPlane {
        fn compute(
            &self,
            w: usize,
            view: &IterView<'_>,
            accum: &mut LocalAccum,
            scratch: &mut DrainScratch,
        ) -> io::Result<WorkerReport> {
            drain(&mut MemSource { data: &self.data, d: self.d }, w, view, accum, scratch)
        }
    }

    /// The rows every plane test clusters: five separated groups in 3-D.
    fn five_groups() -> Vec<f64> {
        let mut data = Vec::new();
        for i in 0..300 {
            let c = (i % 5) as f64 * 6.0;
            data.push(c + (i as f64 * 0.13).sin());
            data.push(-c + (i as f64 * 0.29).cos());
            data.push((i as f64 * 0.07).sin() * 2.0);
        }
        data
    }

    fn config(n: usize, pruning: Pruning, kernel: KernelKind, threads: usize) -> DriverConfig {
        DriverConfig {
            k: 12,
            d: 3,
            n,
            nthreads: threads,
            max_iters: 40,
            tol: 0.0,
            pruning,
            task_size: 16,
            kernel,
            tiles: None,
            row_offset: 0,
            replication: false,
            trace: None,
        }
    }

    fn run_plane<P: DataPlane>(
        cfg: &DriverConfig,
        data: &[f64],
        algo: &Algorithm,
        topo: &Topology,
        plane: &P,
    ) -> DriverOutcome {
        let init = Centroids::from_matrix(&knor_matrix::DMatrix::from_vec(
            data[..cfg.k * cfg.d].to_vec(),
            cfg.k,
            cfg.d,
        ));
        let placement = Placement::new(topo, cfg.n, cfg.nthreads);
        let queue = TaskQueue::new(SchedulerKind::Static, &placement);
        let algo = algo.resolve(cfg.k, cfg.n, 7);
        run_mm(cfg, init, &placement, &queue, plane, &NoReduce, &*algo)
            .expect("in-memory sources cannot fail")
    }

    fn run_planes(
        cfg: &DriverConfig,
        data: &[f64],
        algo: &Algorithm,
    ) -> (DriverOutcome, DriverOutcome) {
        let topo = Topology::flat(cfg.nthreads);
        let direct = SlicePlane(RowView::new(data, cfg.d));
        let staged = StagedTestPlane { data: data.to_vec(), d: cfg.d };
        (run_plane(cfg, data, algo, &topo, &direct), run_plane(cfg, data, algo, &topo, &staged))
    }

    /// The module's core promise: a staged plane and a direct plane over
    /// the same rows walk bitwise-identical trajectories under a
    /// deterministic scheduler — for every filter × commit the one worker
    /// loop carries: full scans through each kernel family, MTI, Yinyang,
    /// and the generic map path (batched spherical, subsampled mini-batch).
    #[test]
    fn staged_and_direct_planes_are_bitwise_identical() {
        let data = five_groups();
        let mut cases = Vec::new();
        for pruning in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            for kernel in [KernelKind::Scalar, KernelKind::Tiled, KernelKind::Gemm] {
                cases.push((Algorithm::Lloyd, pruning, kernel));
            }
        }
        for algo in [Algorithm::Spherical, Algorithm::MiniBatch { batch: 60 }] {
            cases.push((algo, Pruning::None, KernelKind::Auto));
        }
        for (algo, pruning, kernel) in cases {
            for threads in [1usize, 2] {
                let what = format!("{algo:?} pruning={pruning:?} kernel={kernel:?} T={threads}");
                let (direct, staged) =
                    run_planes(&config(300, pruning, kernel, threads), &data, &algo);
                assert_eq!(direct.assignments, staged.assignments, "{what}");
                assert_eq!(direct.centroids, staged.centroids, "{what}");
                assert_eq!(direct.iters.len(), staged.iters.len(), "{what}");
                for (a, b) in direct.iters.iter().zip(&staged.iters) {
                    assert_eq!(a.reassigned, b.reassigned, "{what} iter {}", a.iter);
                    assert_eq!(a.rows_accessed, b.rows_accessed, "{what} iter {}", a.iter);
                    // Only the staged plane skips fetches; every skip is a
                    // bound-pruned row, so under a filter the two tallies
                    // coincide. Everything else matches field for field.
                    assert_eq!(a.prune.io_skip_rows, 0, "{what} iter {}", a.iter);
                    assert_eq!(
                        b.prune.io_skip_rows, b.prune.clause1_rows,
                        "{what} iter {}",
                        a.iter
                    );
                    let staged_prune = crate::pruning::PruneCounters { io_skip_rows: 0, ..b.prune };
                    assert_eq!(a.prune, staged_prune, "{what} iter {}", a.iter);
                }
            }
        }
    }

    /// NUMA replication composes with the staged plane (knors's access
    /// shape): node-local reads through the staged pipeline must not move
    /// the trajectory by a bit.
    #[test]
    fn staged_plane_replication_is_bitwise_identical() {
        let data = five_groups();
        for pruning in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            let run = |replication: bool| {
                let cfg =
                    DriverConfig { replication, ..config(300, pruning, KernelKind::Tiled, 2) };
                let staged = StagedTestPlane { data: data.clone(), d: cfg.d };
                run_plane(&cfg, &data, &Algorithm::Lloyd, &Topology::synthetic(2, 1), &staged)
            };
            let off = run(false);
            let on = run(true);
            assert_eq!(off.assignments, on.assignments, "pruning={pruning:?}");
            assert_eq!(off.centroids, on.centroids, "pruning={pruning:?}");
            assert_eq!(off.iters.len(), on.iters.len());
        }
    }
}

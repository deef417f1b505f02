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
//! | pre-fetch filter| `in_scope` · MTI clause 1                             | algorithm, scheme, `iter > 0`       |
//! | commit          | block via `algo.map_block` · block via `assign_rows` + [`RowFilter::establish`] · per-row [`RowFilter::commit`] | algorithm, scheme, `iter > 0` |
//!
//! A direct source resolves a task's storage once ([`Rows::run`]) and
//! borrows from that run: single rows by offset, and a block as a
//! sub-slice whenever its row ids are consecutive — every block of an
//! unscoped run. Only a scoped algorithm's id lists (mini-batch) have
//! holes, and only those are gathered into scratch. A staged source
//! stages a whole filtered task — the SEM plane reads its row-cache hits
//! where they lie and fetches the rest into the worker's scratch — and
//! declares that fetching costs I/O ([`RowSource::STAGED`]); either way a
//! worker filters, stages and commits one task at a time.
//!
//! What is a function of the iteration alone is prepared once per call,
//! before the first task: the GEMM kernel's [`CentroidPanel`] is packed
//! into the worker's scratch, and every block of a full scan, and every
//! row the bounded commit hands to [`RowScan`], scans against that one
//! panel.
//!
//! Whatever the cell, rows are staged and committed in **task row order**,
//! so for a deterministic task→worker mapping the iteration trajectory is
//! bitwise independent of which plane the rows came through — the property
//! knord's `RankPlane` knob relies on.

use std::io;

use knor_matrix::{RowView, Rows};

use crate::centroids::LocalAccum;
use crate::driver::{Filter, IterView, RowFilter, WorkerReport};
use crate::kernel::{assign_rows_packed, prefetch_row, CentroidPanel, ResolvedKind, PF};
use crate::pruning::RowScan;
use crate::stats::IterStats;
use crate::trace::WorkerTracer;

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
    /// Fetching a row costs I/O. The worker loop then stages a filtered
    /// task whole and counts each row the filter drops as an avoided fetch
    /// (`io_skip_rows`). Direct sources hand the kernel cache-sized blocks
    /// and report no skips.
    const STAGED: bool = false;

    /// Dimensionality of a row.
    fn d(&self) -> usize;

    /// Make every row of `rows` (a filtered task, ascending) readable
    /// through [`Self::row`] / [`Self::block`] until the next call. Returns
    /// the fast-tier hits (→ [`WorkerReport::aux`]). When `tracer` is
    /// present a staged source records its hit/miss intervals
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
    /// contiguously in `data`; [`Direct`] borrows them in place when they
    /// are consecutive and gathers them into `data` otherwise.
    fn block<'a>(&'a mut self, data: &'a mut Vec<f64>, at: usize, ids: &[usize]) -> &'a [f64] {
        &data[at * self.d()..(at + ids.len()) * self.d()]
    }

    /// Rows [`Self::block`] had to copy since this source was made.
    fn gathered_rows(&self) -> u64 {
        0
    }
}

/// The direct row source: rows are addressable memory, read where they
/// lie. A task is a row range inside one block of the storage
/// ([`knor_sched::TaskQueue::refill`] never lets one span two), so the
/// task's first row read resolves it with one [`Rows::run`] and everything
/// after that is offset arithmetic; a task that did span blocks would
/// re-resolve at each boundary and gather the blocks that straddle one.
/// The current run stays valid from task to task — it is re-resolved only
/// when a row outside it is asked for.
pub struct Direct<'data, R: ?Sized> {
    rows: &'data R,
    d: usize,
    /// The run being read: rows `start..end` of the storage.
    run: &'data [f64],
    start: usize,
    end: usize,
    /// One past the last needed row of the staged task.
    task_end: usize,
    gathered: u64,
}

impl<'data, R: Rows + ?Sized> Direct<'data, R> {
    /// A direct source over `rows`.
    pub fn new(rows: &'data R) -> Self {
        let d = rows.ncol();
        Self { rows, d, run: &[], start: 0, end: 0, task_end: 0, gathered: 0 }
    }

    /// Make the run that holds row `r` the current one.
    #[inline]
    fn seek(&mut self, r: usize) {
        if r < self.start || r >= self.end {
            self.run = self.rows.run(r..self.task_end);
            self.start = r;
            self.end = r + self.run.len() / self.d;
        }
    }

    /// Row `r` (`'data`, not the borrow of `self`: gathers copy from it
    /// while writing into scratch).
    #[inline]
    fn fetch(&mut self, r: usize) -> &'data [f64] {
        self.seek(r);
        let at = (r - self.start) * self.d;
        &self.run[at..at + self.d]
    }
}

impl<R: Rows + ?Sized> RowSource for Direct<'_, R> {
    fn d(&self) -> usize {
        self.d
    }

    /// Note where the task ends; its storage is resolved as rows are read.
    fn stage(
        &mut self,
        needed: &[usize],
        _scratch: &mut DrainScratch,
        _tracer: Option<&WorkerTracer<'_>>,
    ) -> io::Result<u64> {
        self.task_end = needed.last().map_or(0, |&r| r + 1);
        Ok(0)
    }

    #[inline]
    fn row<'a>(&'a mut self, _staged: &'a [f64], _i: usize, r: usize) -> &'a [f64] {
        self.fetch(r)
    }

    fn block<'a>(&'a mut self, data: &'a mut Vec<f64>, _at: usize, ids: &[usize]) -> &'a [f64] {
        let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else { return &[] };
        let d = self.d;
        self.seek(first);
        // Ids ascend, so they are consecutive exactly when they span their
        // own count.
        if last - first + 1 == ids.len() && last < self.end {
            return &self.run[(first - self.start) * d..(last + 1 - self.start) * d];
        }
        if data.len() < ids.len() * d {
            data.resize(ids.len() * d, 0.0);
        }
        for (i, &r) in ids.iter().enumerate() {
            data[i * d..(i + 1) * d].copy_from_slice(self.fetch(r));
        }
        self.gathered += ids.len() as u64;
        &data[..ids.len() * d]
    }

    fn gathered_rows(&self) -> u64 {
        self.gathered
    }
}

/// The direct in-memory plane over a contiguous row slice — knord's
/// per-rank view of the matrix (knori's NUMA-arena plane lives in
/// [`crate::engine`], where the arenas are).
pub struct SlicePlane<'a>(pub RowView<'a>);

impl DataPlane for SlicePlane<'_> {
    fn compute(
        &self,
        w: usize,
        view: &IterView<'_>,
        accum: &mut LocalAccum,
        scratch: &mut DrainScratch,
    ) -> io::Result<WorkerReport> {
        drain(&mut Direct::new(&self.0), w, view, accum, scratch)
    }
}

/// One worker's reusable buffers for [`drain`]. All start empty and are
/// grow-only — steady-state iterations never allocate here.
#[derive(Debug, Default)]
pub struct DrainScratch {
    /// Row staging: a direct source's gathered block (scoped algorithms
    /// only), or a staged source's current task in task row order:
    /// backing-tier rows decoded into their slots by the merged fetch,
    /// fast-tier hits copied beside them only when a block commit needs
    /// the task contiguous.
    pub data: Vec<f64>,
    /// The GEMM kernel's packed centroids, packed once per [`drain`] call.
    pub panel: CentroidPanel,
    /// Block-commit best-index scratch.
    pub best: Vec<u32>,
    /// Block-commit best-distance / kernel score scratch.
    pub best_dist: Vec<f64>,
    /// Per-row contribution weights (generic algorithm path).
    pub weights: Vec<f64>,
    /// Staged sources: indices into the task's needed rows that missed the
    /// fast tier (the rows it retains while it has room).
    pub miss_idx: Vec<usize>,
    /// Staged sources: row ids handed to the backing tier, in fetch order.
    pub miss_rows: Vec<usize>,
    /// The current task's rows that survived the filter.
    needed: Vec<usize>,
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
    // The bounded commit scans its many-candidate rows against the panel
    // too (`RowScan`); only the generic map path never reads it.
    let gemm = commit != Commit::Map && view.kernel.kind == ResolvedKind::Gemm;
    if gemm {
        scratch.panel.pack(view.cents);
        rep.commit.panel_packs += 1;
    }
    // A staged task is contiguous already and goes to the kernel whole; a
    // direct source hands over cache-sized blocks of the task's run.
    let step = if S::STAGED { usize::MAX } else { view.kernel.block_rows(d) };
    let mut needed = std::mem::take(&mut scratch.needed);
    while let Some(task) = view.queue.next(w) {
        // SAFETY: this worker just took `task` from the iteration's
        // queue, which hands every row to exactly one task once.
        let rows = unsafe { view.rows.claim(task.rows.clone(), view.iter) };
        needed.clear();
        // Rows dropped here are never requested from the source: a
        // bound-pruned or out-of-scope row costs no data access, and on a
        // staged source no I/O.
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
        if !needed.is_empty() {
            rep.aux += src.stage(&needed, scratch, tracer)?;
            rep.rows_accessed += needed.len() as u64;
        }
        if commit == Commit::Bounds {
            let mut scan = gemm.then(|| RowScan::new(&scratch.panel));
            for (i, &r) in needed.iter().enumerate() {
                if let Some(&ahead) = needed.get(i + PF) {
                    prefetch_row(src.row(&scratch.data, i + PF, ahead));
                }
                let v = src.row(&scratch.data, i, r);
                let moved = filter.commit(&rows, r, v, scan.as_mut(), accum, &mut rep.counters);
                rep.reassigned += u64::from(moved);
            }
            rep.commit.rescored_rows += scan.map_or(0, |s| s.rescored);
        } else {
            // One full candidate scan per row, whatever its metric.
            rep.counters.dist_computations += (needed.len() * k) as u64;
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
                    rep.commit.rescored_rows += assign_rows_packed(
                        block,
                        d,
                        view.cents,
                        &view.kernel,
                        &scratch.panel,
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
    }
    scratch.needed = needed;
    rep.commit.gathered_rows = src.gathered_rows();
    rep.commit.borrowed_rows = rep.rows_accessed - rep.commit.gathered_rows;
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
    fn five_groups_of(n: usize) -> Vec<f64> {
        let mut data = Vec::new();
        for i in 0..n {
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
            row_offset: 0,
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
    /// loop carries: full scans through each kernel family, MTI, and the
    /// generic map path (batched spherical, subsampled mini-batch)
    /// — whether the whole matrix is less than one direct block or a task
    /// is one block and a ragged second. The direct plane gets there
    /// without copying a row, except the subsample's.
    #[test]
    fn staged_and_direct_planes_are_bitwise_identical() {
        let step = KernelKind::Gemm.resolve(12, 3, false).block_rows(3);
        assert!(300 < step);
        planes_agree(300, 16, 40);
        let ragged = step + step / 3;
        planes_agree(2 * ragged + 100, ragged, 10);
    }

    fn planes_agree(n: usize, task_size: usize, max_iters: usize) {
        let data = five_groups_of(n);
        let mut cases = Vec::new();
        for pruning in [Pruning::None, Pruning::Mti] {
            for kernel in [KernelKind::Scalar, KernelKind::Gemm] {
                cases.push((Algorithm::Lloyd, pruning, kernel));
            }
        }
        for algo in [Algorithm::Spherical, Algorithm::MiniBatch { batch: 60 }] {
            cases.push((algo, Pruning::None, KernelKind::Auto));
        }
        for (algo, pruning, kernel) in cases {
            for threads in [1usize, 2] {
                let what =
                    format!("{algo:?} pruning={pruning:?} kernel={kernel:?} T={threads} n={n}");
                let cfg =
                    DriverConfig { task_size, max_iters, ..config(n, pruning, kernel, threads) };
                let (direct, staged) = run_planes(&cfg, &data, &algo);
                let gathered: u64 = direct.iters.iter().map(|i| i.commit.gathered_rows).sum();
                if matches!(algo, Algorithm::MiniBatch { .. }) {
                    assert!(gathered > 0, "{what}: a subsample has holes");
                } else {
                    assert_eq!(gathered, 0, "{what}");
                }
                assert!(staged.iters.iter().all(|i| i.commit.gathered_rows == 0), "{what}");
                assert_eq!(direct.assignments, staged.assignments, "{what}");
                assert_eq!(direct.centroids, staged.centroids, "{what}");
                assert_eq!(direct.iters.len(), staged.iters.len(), "{what}");
                for (a, b) in direct.iters.iter().zip(&staged.iters) {
                    assert_eq!(a.reassigned, b.reassigned, "{what} iter {}", a.iter);
                    assert_eq!(a.rows_accessed, b.rows_accessed, "{what} iter {}", a.iter);
                    let c = &a.commit;
                    assert_eq!(c.borrowed_rows + c.gathered_rows, a.rows_accessed, "{what}");
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

    /// The scheduler never hands out a task that spans two storage blocks,
    /// but `Direct` does not lean on that for correctness: it re-resolves
    /// at each block boundary, reports each block's share of the task, and
    /// gathers only the kernel block that straddles a boundary.
    #[test]
    fn direct_source_reads_a_task_across_storage_blocks() {
        let (n, d) = (103, 3);
        let m = knor_matrix::DMatrix::from_vec((0..n * d).map(|x| x as f64).collect(), n, d);
        let topo = Topology::synthetic(2, 2);
        let placement = Placement::new(&topo, n, 4); // blocks end at 26, 52, 78, 103
        let placed = knor_numa::NumaMatrix::from_dmatrix(&topo, &placement, &m);
        let mut src = Direct::new(&placed);
        let mut scratch = DrainScratch::default();
        let task: Vec<usize> = (20..80).filter(|r| r % 10 != 5).collect();
        src.stage(&task, &mut scratch, None).unwrap();
        for (i, &r) in task.iter().enumerate() {
            assert_eq!(src.row(&[], i, r), m.row(r), "row {r}");
        }
        let inside: Vec<usize> = (30..50).collect();
        assert_eq!(src.block(&mut scratch.data, 0, &inside), &m.as_slice()[30 * d..50 * d]);
        assert_eq!(src.gathered_rows(), 0, "consecutive rows of one block are borrowed");
        let straddling: Vec<usize> = (48..56).collect();
        assert_eq!(src.block(&mut scratch.data, 0, &straddling), &m.as_slice()[48 * d..56 * d]);
        assert_eq!(src.gathered_rows(), 8);
        let holes = [31usize, 33, 34];
        let got = src.block(&mut scratch.data, 0, &holes).to_vec();
        assert_eq!(got, [m.row(31), m.row(33), m.row(34)].concat());
        assert_eq!(src.gathered_rows(), 11);
    }
}

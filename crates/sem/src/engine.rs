//! The knors SEM engine.
//!
//! Runs the shared ||Lloyd's protocol (`knor_core::driver`) with row data
//! pulled through the SAFS-lite stack instead of NUMA arenas:
//!
//! ```text
//! row needed? ── Clause 1 ──> skipped: no I/O at all
//!      │ yes
//!      ├── row cache hit ───> compute, read in place (in-memory speed)
//!      ├── page cache hit ──> assemble row, compute (no row cache only)
//!      └── device read (merged) ─> assemble, cache while room, compute
//! ```
//!
//! Since PR 5 the whole row-access stack lives in [`crate::plane`]
//! ([`SemPlane`], mounted through `knor_core`'s `DataPlane` layer): the
//! filter, the staging and the commit are the shared `knor_core::plane`
//! worker loop, and this module only resolves the
//! configuration, runs the driver, and assembles the result — which is
//! also what lets knord mount one [`SemPlane`] per rank.

use std::path::Path;

use knor_core::driver::{run_mm, NoReduce};
use knor_core::spec::RunSpec;
use knor_core::stats::KmeansResult;
use knor_core::InitMethod;

use crate::plane::{streamed_init, streamed_settle, SemPlane, SemPlaneConfig};
use crate::IoIterStats;

/// Initialization for SEM runs: [`InitMethod`], of which only the methods
/// that avoid a full-data pass (`Forgy`, read from the device, and `Given`)
/// are accepted.
pub type SemInit = InitMethod;

/// Configuration for a [`SemKmeans`] run: the run's description plus the
/// SEM plane's I/O knobs (see `knor_core::spec`).
pub type SemConfig = RunSpec<SemPlaneConfig>;

/// Result of a knors run: the clustering plus per-iteration I/O stats.
#[derive(Debug, Clone)]
pub struct SemResult {
    /// Standard clustering result (wall times, pruning, convergence).
    pub kmeans: KmeansResult,
    /// Per-iteration I/O statistics (Figs. 6a, 7).
    pub io: Vec<IoIterStats>,
}

/// The knors solver.
pub struct SemKmeans {
    config: SemConfig,
}

impl SemKmeans {
    /// Create a solver.
    pub fn new(config: SemConfig) -> Self {
        assert!(config.k >= 1);
        assert!(config.max_iters >= 1);
        Self { config }
    }

    /// Cluster the on-disk matrix at `path`.
    pub fn fit(&self, path: &Path) -> std::io::Result<SemResult> {
        let cfg = &self.config;
        let mut plane = SemPlane::open_all(path, &cfg.ext, cfg.nthreads())?;
        let (n, d) = (plane.nrow(), plane.ncol());
        let run = cfg.resolve(0..n, n, d, None, 0);

        let (init, init_stats) =
            streamed_init(&cfg.init, (cfg.k, d), || plane.forgy_init(cfg.k, cfg.seed))?;
        plane.reset_io(); // init I/O is not iteration accounting
        let mut outcome =
            run_mm(&run.driver, init, &run.placement, &run.queue, &plane, &NoReduce, &*run.algo)?;

        let centroids = outcome.centroids.to_matrix();
        let settled = streamed_settle(
            plane.reader(),
            &*run.algo,
            &centroids,
            &mut outcome.assignments,
            cfg.compute_sse,
            cfg.nthreads(),
        )?;
        // O(nd) stays on the device — the point of SEM.
        let caches = cfg.ext.row_cache_bytes + cfg.ext.page_cache_bytes;
        Ok(SemResult {
            kmeans: run.finish(outcome, init_stats, centroids, 0, caches, settled),
            io: plane.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::quality::agreement;
    use knor_core::serial::lloyd_serial;
    use knor_core::Pruning;
    use knor_matrix::io::write_matrix;
    use knor_matrix::io::TempFile;
    use knor_matrix::DMatrix;
    use knor_sched::SchedulerKind;
    use knor_workloads::MixtureSpec;

    fn write_mixture(n: usize, d: usize, seed: u64, tag: &str) -> (DMatrix, TempFile) {
        let data = MixtureSpec::friendster_like(n, d, seed).generate().data;
        let p = TempFile::new(format!("knor-sem-{tag}-{}-{n}x{d}.knor", std::process::id()));
        write_matrix(&p, &data).unwrap();
        (data, p)
    }

    fn forgy(data: &DMatrix, k: usize, seed: u64) -> DMatrix {
        InitMethod::Forgy.initialize(data, k, seed).to_matrix()
    }

    #[test]
    fn sem_matches_serial_clustering() {
        let (data, path) = write_mixture(1200, 8, 21, "match");
        let k = 8;
        let init = forgy(&data, k, 5);
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init))
                .with_threads(2)
                .with_task_size(64)
                .with_page_size(256)
                .with_row_cache_bytes(1 << 20)
                .with_max_iters(60)
                .with_sse(true),
        )
        .fit(&path)
        .unwrap();
        assert!(sem.kmeans.converged);
        assert_eq!(sem.kmeans.niters, serial.niters);
        assert!(agreement(&sem.kmeans.assignments, &serial.assignments, k) > 0.999);
        let rel = (sem.kmeans.sse.unwrap() - serial.sse.unwrap()).abs() / serial.sse.unwrap();
        assert!(rel < 1e-9, "SSE diverged: {rel}");
    }

    #[test]
    fn gemm_kernel_bitwise_matches_serial() {
        // One thread, no row cache: rows process in serial order, so the
        // gemm kernel must reproduce the serial reference bit for bit.
        let (data, path) = write_mixture(900, 6, 27, "gemm");
        // k·d = 66: the shape picks gemm.
        let k = 11;
        let init = forgy(&data, k, 8);
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_task_size(64)
                .with_page_size(256)
                .with_pruning(Pruning::None)
                .with_row_cache_bytes(0)
                .with_max_iters(60),
        )
        .fit(&path)
        .unwrap();
        assert!(sem.kmeans.total_commit().panel_packs > 0, "gemm never ran");
        assert_eq!(sem.kmeans.assignments, serial.assignments);
        assert_eq!(sem.kmeans.centroids, serial.centroids, "gemm knors must be bitwise serial");
        assert_eq!(sem.kmeans.niters, serial.niters);
    }

    #[test]
    fn row_cache_hits_scan_like_the_serial_reference() {
        // Row-cache hits flow through the contiguous hit staging + blocked
        // gemm kernel (k·d = 72); the clustering must match the serial
        // `nearest` scan's.
        let (data, path) = write_mixture(1500, 8, 28, "rck");
        let k = 9;
        let init = forgy(&data, k, 3);
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 40, 0.0);
        let gemm = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init))
                .with_threads(2)
                .with_task_size(96)
                .with_page_size(512)
                .with_pruning(Pruning::None)
                .with_row_cache_bytes(2 << 20)
                .with_cache_interval(2)
                .with_max_iters(40),
        )
        .fit(&path)
        .unwrap();
        assert!(gemm.kmeans.total_commit().panel_packs > 0, "gemm never ran");
        assert_eq!(gemm.kmeans.assignments, serial.assignments);
        assert_eq!(gemm.kmeans.niters, serial.niters);
        assert!(gemm.io.iter().map(|i| i.rc_hits).sum::<u64>() > 0, "cache never hit");
    }

    #[test]
    fn clause1_actually_saves_io() {
        // Two regimes. k matches the 16 planted clusters and k-means++
        // spreads the seeds across the blobs, so points root firmly and
        // Clause 1 dominates — the regime the paper's Friendster data is
        // in. And Forgy on grid data, which seeds duplicate and vacant
        // clusters: a long reassignment cascade to prune through.
        let (mix, mix_path) = write_mixture(2000, 8, 22, "clause1");
        let (grid, _) = knor_workloads::grid_clusters(2000, 8, 20);
        let grid_path =
            TempFile::new(format!("knor-sem-clause1-grid-{}-2000x8.knor", std::process::id()));
        write_matrix(&grid_path, &grid).unwrap();
        let cases = [
            (&mix_path, 16, InitMethod::PlusPlus.initialize(&mix, 16, 1).to_matrix()),
            (&grid_path, 20, forgy(&grid, 20, 7)),
        ];
        for (path, k, init) in cases {
            let run = |pruning: Pruning| {
                SemKmeans::new(
                    SemConfig::new(k)
                        .with_init(SemInit::Given(init.clone()))
                        .with_threads(2)
                        .with_task_size(128)
                        .with_page_size(256)
                        .with_pruning(pruning)
                        .with_row_cache_bytes(0) // isolate the Clause-1 effect
                        .with_max_iters(40),
                )
                .fit(path)
                .unwrap()
            };
            let knors = run(Pruning::Mti);
            let knors_minus = run(Pruning::None);
            let req: u64 = knors.io.iter().map(|i| i.bytes_requested).sum();
            let req_minus: u64 = knors_minus.io.iter().map(|i| i.bytes_requested).sum();
            assert!(
                req * 2 < req_minus,
                "k={k}: MTI should cut requested bytes substantially: {req} vs {req_minus}"
            );
            // Without pruning every iteration requests the full matrix.
            let per_iter = 2000u64 * 8 * 8;
            for it in &knors_minus.io {
                assert_eq!(it.bytes_requested, per_iter);
                assert_eq!(it.active_rows, 2000);
            }
            // On a staged plane every Clause-1 skip is a fetch skip, and the
            // counter stays distinct from distance pruning.
            let skipped: u64 = knors.kmeans.iters.iter().map(|i| i.prune.io_skip_rows).sum();
            let c1: u64 = knors.kmeans.iters.iter().map(|i| i.prune.clause1_rows).sum();
            assert!(skipped > 0, "k={k}: no fetches skipped");
            assert_eq!(skipped, c1, "k={k}: SEM must skip the fetch of every filtered row");
            let minus: u64 = knors_minus.kmeans.iters.iter().map(|i| i.prune.io_skip_rows).sum();
            assert_eq!(minus, 0);
        }
    }

    #[test]
    fn row_cache_reduces_device_reads() {
        let (data, path) = write_mixture(2000, 16, 23, "rc");
        let k = 6;
        let init = forgy(&data, k, 2);
        let run = |rc_bytes: u64| {
            SemKmeans::new(
                SemConfig::new(k)
                    .with_init(SemInit::Given(init.clone()))
                    .with_threads(2)
                    .with_task_size(128)
                    .with_page_size(4096)
                    .with_page_cache_bytes(16 * 4096) // small: rows >> page cache
                    .with_row_cache_bytes(rc_bytes)
                    .with_cache_interval(2)
                    .with_max_iters(40),
            )
            .fit(&path)
            .unwrap()
        };
        let with_rc = run(4 << 20);
        let without_rc = run(0);
        let read_with: u64 = with_rc.io.iter().map(|i| i.bytes_read).sum();
        let read_without: u64 = without_rc.io.iter().map(|i| i.bytes_read).sum();
        assert!(
            read_with < read_without,
            "row cache should cut device bytes: {read_with} vs {read_without}"
        );
        // RC hits happen after the first refresh.
        let hits: u64 = with_rc.io.iter().map(|i| i.rc_hits).sum();
        assert!(hits > 0);
        assert_eq!(without_rc.io.iter().map(|i| i.rc_hits).sum::<u64>(), 0);
    }

    /// One cache budget: with a row cache the reader has no page cache, and
    /// the row cache holds both budgets from iteration 0 on — fewer device
    /// bytes, not one bit of the result moved. Without a row cache the page
    /// cache keeps its budget.
    #[test]
    fn one_cache_budget_goes_to_the_row_cache() {
        let (data, path) = write_mixture(3000, 8, 29, "budget");
        let (k, d) = (8, 8u64);
        let init = forgy(&data, k, 4);
        let (row, page) = (16u64 << 10, 16u64 << 10);
        let read = |r: &SemResult| r.io.iter().map(|i| i.bytes_read).sum::<u64>();
        let pg_hits = |r: &SemResult| r.io.iter().map(|i| i.page_hits).sum::<u64>();
        let max_rows = |r: &SemResult| r.io.iter().map(|i| i.rc_resident_rows).max().unwrap();
        for t in [1, 2] {
            let run = |row: u64, page: u64| {
                SemKmeans::new(
                    SemConfig::new(k)
                        .with_init(SemInit::Given(init.clone()))
                        .with_threads(t)
                        // Each worker sums its own tasks in order: bitwise
                        // reproducible at any `t`.
                        .with_scheduler(SchedulerKind::Static)
                        .with_task_size(100) // tasks share their boundary pages
                        .with_page_size(512)
                        .with_row_cache_bytes(row)
                        .with_page_cache_bytes(page)
                        .with_max_iters(30)
                        .with_sse(true),
                )
                .fit(&path)
                .unwrap()
            };
            let (one, off, no_rc) = (run(row, page), run(0, 0), run(0, page));
            for (what, r) in [("one budget", &one), ("row 0", &no_rc)] {
                let tag = format!("t={t} {what}");
                assert_eq!(r.kmeans.assignments, off.kmeans.assignments, "{tag}");
                assert_eq!(r.kmeans.centroids, off.kmeans.centroids, "{tag}");
                assert_eq!(r.kmeans.niters, off.kmeans.niters, "{tag}");
                assert_eq!(r.kmeans.sse.map(f64::to_bits), off.kmeans.sse.map(f64::to_bits));
            }
            assert!(one.io.iter().all(|i| i.page_hits == 0), "t={t}");
            let cap = (row + page) / (8 * d);
            assert!(one.io.iter().all(|i| i.rc_resident_rows > 0 && i.rc_resident_rows <= cap));
            assert!(max_rows(&one) > row / (8 * d), "t={t}: the page budget went unused");
            assert!(read(&one) < read(&no_rc), "t={t}: {} vs {}", read(&one), read(&no_rc));
            // No row cache: a page cache that hits, and no row resident.
            assert!(pg_hits(&no_rc) > 0, "t={t}");
            assert_eq!(max_rows(&no_rc), 0, "t={t}");
        }
    }

    #[test]
    fn active_set_collapses_on_rooted_clusters() {
        // The Fig. 6a/7 premise: once clusters root, the Clause-1 active set
        // shrinks to a small, stable subset.
        let (data, path) = write_mixture(2000, 8, 22, "dyn");
        let k = 16;
        let init = InitMethod::PlusPlus.initialize(&data, k, 1).to_matrix();
        let r = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init))
                .with_threads(2)
                .with_task_size(128)
                .with_page_size(256)
                .with_pruning(Pruning::Mti)
                .with_row_cache_bytes(0)
                .with_max_iters(40),
        )
        .fit(&path)
        .unwrap();
        assert_eq!(r.io[0].active_rows, 2000, "first pass touches everything");
        for io in &r.io[1..] {
            // Steady active set = diffuse noise + boundary points + any
            // split-seeded cluster; well under half the data either way.
            assert!(
                io.active_rows < 2000 * 35 / 100,
                "iter {}: active set did not collapse ({} rows)",
                io.iter,
                io.active_rows
            );
        }
    }

    #[test]
    fn forgy_init_from_device_works() {
        let (_, path) = write_mixture(800, 4, 24, "forgy");
        let r = SemKmeans::new(
            SemConfig::new(5)
                .with_threads(2)
                .with_page_size(256)
                .with_task_size(64)
                .with_seed(9)
                .with_max_iters(50),
        )
        .fit(&path)
        .unwrap();
        assert!(r.kmeans.converged);
        assert_eq!(r.kmeans.assignments.len(), 800);
    }

    #[test]
    fn sem_memory_is_o_of_n_not_nd() {
        let (_, path) = write_mixture(1000, 32, 26, "mem");
        let r = SemKmeans::new(
            SemConfig::new(4)
                .with_threads(2)
                .with_page_size(4096)
                .with_row_cache_bytes(1 << 16)
                .with_page_cache_bytes(1 << 16)
                .with_max_iters(5),
        )
        .fit(&path)
        .unwrap();
        assert_eq!(r.kmeans.memory.data_bytes, 0);
        // per-row state is 12 bytes/row regardless of d.
        assert_eq!(r.kmeans.memory.per_row_bytes, 1000 * 12);
    }
}

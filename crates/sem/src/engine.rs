//! The knors SEM engine.
//!
//! Runs the shared ||Lloyd's protocol (`knor_core::driver`) with row data
//! pulled through the SAFS-lite stack instead of NUMA arenas:
//!
//! ```text
//! row needed? ── Clause 1 ──> skipped: no I/O at all
//!      │ yes
//!      ├── row cache hit ───> compute (in-memory speed)
//!      ├── page cache hit ──> assemble row, compute
//!      └── device read (merged) ─> assemble, maybe cache, compute
//! ```
//!
//! Since PR 5 the whole row-access stack lives in [`crate::plane`]
//! ([`SemPlane`], mounted through `knor_core`'s `DataPlane` layer): the
//! depth-2 filter/prefetch pipeline and the commit are the shared
//! `knor_core::plane` worker loop, and this module only resolves the
//! configuration, runs the driver, and assembles the result — which is
//! also what lets knord mount one [`SemPlane`] per rank.

use std::path::Path;
use std::sync::Arc;

use knor_core::algo::Algorithm;
use knor_core::centroids::Centroids;
use knor_core::driver::{run_mm, DriverConfig, NoReduce};
use knor_core::kernel::KernelKind;
use knor_core::pruning::{yinyang_groups, Pruning};
use knor_core::replica::Replication;
use knor_core::stats::{KmeansResult, MemoryFootprint, NumaReport};
use knor_core::trace::{TraceBuf, TraceHandle};
use knor_core::tune::Tuning;
use knor_matrix::DMatrix;
use knor_numa::{Placement, Topology};
use knor_safs::DEFAULT_PAGE_SIZE;
use knor_sched::{SchedulerKind, TaskQueue, DEFAULT_TASK_SIZE};

use crate::plane::{streamed_refresh, streamed_sse, SemPlane, SemPlaneConfig};
use crate::IoIterStats;

/// Initialization for SEM runs (only methods that avoid full-data passes).
#[derive(Debug, Clone)]
pub enum SemInit {
    /// `k` distinct random rows read from the device.
    Forgy,
    /// Explicit `k x d` means.
    Given(DMatrix),
}

/// Configuration for a [`SemKmeans`] run.
#[derive(Debug, Clone)]
pub struct SemConfig {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Drift tolerance (0.0 = reassignment-only convergence).
    pub tol: f64,
    /// Initialization.
    pub init: SemInit,
    /// RNG seed.
    pub seed: u64,
    /// Pruning scheme: MTI (knors), Yinyang group bounds, or none (knors-).
    pub pruning: Pruning,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Rows per scheduler task.
    pub task_size: usize,
    /// Task queue policy.
    pub scheduler: SchedulerKind,
    /// SAFS page size (paper: 4KB).
    pub page_size: usize,
    /// Page cache budget in bytes.
    pub page_cache_bytes: u64,
    /// Row cache budget in bytes (0 = knors--).
    pub row_cache_bytes: u64,
    /// Row-cache update interval `I_cache` (paper: 5).
    pub cache_interval: usize,
    /// Lazy exponential refresh (paper) vs fixed-period (ablation).
    pub lazy_refresh: bool,
    /// Overlap I/O with compute via the prefetch pool. Off by default so
    /// per-iteration I/O accounting is exactly attributable (Fig. 6);
    /// enable for throughput runs.
    pub prefetch: bool,
    /// Prefetch pool threads (when `prefetch`).
    pub prefetch_threads: usize,
    /// Stream the file once at the end to compute SSE.
    pub compute_sse: bool,
    /// Assignment kernel for full scans (see `knor_core::kernel`).
    pub kernel: KernelKind,
    /// Clustering algorithm to run on the driver (see `knor_core::algo`).
    /// Non-Lloyd algorithms force MTI pruning off.
    pub algo: Algorithm,
    /// Kernel autotuning policy (see `knor_core::tune`).
    pub tuning: Tuning,
    /// Machine topology; `None` = detect the host (which honors the
    /// `KNOR_SYNTH_NODES` override).
    pub topology: Option<Topology>,
    /// Per-NUMA-node read replicas of the iteration state (see
    /// `knor_core::replica`); `Auto` replicates on multi-node topologies.
    pub replication: Replication,
    /// Span recorder to attach to the run (see `knor_core::trace`);
    /// `None` (the default) records nothing and costs nothing.
    pub trace: Option<Arc<TraceBuf>>,
}

impl SemConfig {
    /// Paper-default knors configuration.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 100,
            tol: 0.0,
            init: SemInit::Forgy,
            seed: 0,
            pruning: Pruning::Mti,
            threads: None,
            task_size: DEFAULT_TASK_SIZE,
            scheduler: SchedulerKind::NumaAware,
            page_size: DEFAULT_PAGE_SIZE,
            page_cache_bytes: 1 << 30,
            row_cache_bytes: 512 << 20,
            cache_interval: 5,
            lazy_refresh: true,
            prefetch: false,
            prefetch_threads: 2,
            compute_sse: false,
            kernel: KernelKind::Auto,
            algo: Algorithm::Lloyd,
            tuning: Tuning::off(),
            topology: None,
            replication: Replication::Auto,
            trace: None,
        }
    }

    /// Set the iteration cap.
    pub fn with_max_iters(mut self, v: usize) -> Self {
        self.max_iters = v;
        self
    }

    /// Set the initialization.
    pub fn with_init(mut self, v: SemInit) -> Self {
        self.init = v;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, v: u64) -> Self {
        self.seed = v;
        self
    }

    /// Choose the pruning scheme (off = knors-).
    pub fn with_pruning(mut self, v: Pruning) -> Self {
        self.pruning = v;
        self
    }

    /// Set worker threads.
    pub fn with_threads(mut self, v: usize) -> Self {
        self.threads = Some(v.max(1));
        self
    }

    /// Set rows per task.
    pub fn with_task_size(mut self, v: usize) -> Self {
        self.task_size = v.max(1);
        self
    }

    /// Choose the task queue policy.
    pub fn with_scheduler(mut self, v: SchedulerKind) -> Self {
        self.scheduler = v;
        self
    }

    /// Set the page size.
    pub fn with_page_size(mut self, v: usize) -> Self {
        self.page_size = v;
        self
    }

    /// Set the page-cache budget.
    pub fn with_page_cache_bytes(mut self, v: u64) -> Self {
        self.page_cache_bytes = v;
        self
    }

    /// Set the row-cache budget (0 = knors--).
    pub fn with_row_cache_bytes(mut self, v: u64) -> Self {
        self.row_cache_bytes = v;
        self
    }

    /// Set `I_cache`.
    pub fn with_cache_interval(mut self, v: usize) -> Self {
        self.cache_interval = v.max(1);
        self
    }

    /// Lazy (true) vs fixed-period (false) refresh.
    pub fn with_lazy_refresh(mut self, v: bool) -> Self {
        self.lazy_refresh = v;
        self
    }

    /// Enable the prefetch pipeline.
    pub fn with_prefetch(mut self, v: bool) -> Self {
        self.prefetch = v;
        self
    }

    /// Compute SSE at the end.
    pub fn with_sse(mut self, v: bool) -> Self {
        self.compute_sse = v;
        self
    }

    /// Set the kernel autotuning policy.
    pub fn with_tuning(mut self, v: Tuning) -> Self {
        self.tuning = v;
        self
    }

    /// Choose the full-scan assignment kernel.
    pub fn with_kernel(mut self, v: KernelKind) -> Self {
        self.kernel = v;
        self
    }

    /// Choose the clustering algorithm.
    pub fn with_algo(mut self, v: Algorithm) -> Self {
        self.algo = v;
        self
    }

    /// Supply a topology (tests and modeled runs; default detects the host).
    pub fn with_topology(mut self, v: Topology) -> Self {
        self.topology = Some(v);
        self
    }

    /// Set the NUMA replication knob.
    pub fn with_replication(mut self, v: Replication) -> Self {
        self.replication = v;
        self
    }

    /// Attach a span recorder to the run.
    pub fn with_trace(mut self, v: Arc<TraceBuf>) -> Self {
        self.trace = Some(v);
        self
    }

    /// The I/O-side subset of this configuration — what a [`SemPlane`]
    /// needs (knord builds one of these per SEM rank).
    pub fn plane_config(&self) -> SemPlaneConfig {
        SemPlaneConfig {
            page_size: self.page_size,
            page_cache_bytes: self.page_cache_bytes,
            row_cache_bytes: self.row_cache_bytes,
            cache_interval: self.cache_interval,
            lazy_refresh: self.lazy_refresh,
            prefetch: self.prefetch,
            prefetch_threads: self.prefetch_threads,
        }
    }
}

/// Result of a knors run: the clustering plus per-iteration I/O stats.
#[derive(Debug, Clone)]
pub struct SemResult {
    /// Standard clustering result (wall times, pruning, convergence).
    pub kmeans: KmeansResult,
    /// Per-iteration I/O statistics (Figs. 6a, 7).
    pub io: Vec<IoIterStats>,
    /// Prefetch-pool threads found dead at shutdown (0 = healthy run).
    pub panicked_io_threads: u64,
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
        let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let nthreads = cfg.threads.unwrap_or(hw).max(1);
        let mut plane = SemPlane::open_all(path, &cfg.plane_config(), nthreads)?;
        let n = plane.nrow();
        let d = plane.ncol();
        let k = cfg.k;
        assert!(k <= n, "k = {k} exceeds n = {n}");

        // Initial centroids.
        let init_cents = match &cfg.init {
            SemInit::Given(m) => {
                assert_eq!((m.nrow(), m.ncol()), (k, d), "Given init has wrong shape");
                Centroids::from_matrix(m)
            }
            SemInit::Forgy => {
                let c = plane.forgy_init(k, cfg.seed)?;
                plane.reset_io(); // init I/O is not iteration accounting
                c
            }
        };

        let topo = cfg.topology.clone().unwrap_or_else(Topology::detect);
        let placement = Placement::new(&topo, n, nthreads);
        let queue = TaskQueue::new(cfg.scheduler, &placement);
        let algo = cfg.algo.resolve(k, n, cfg.seed);
        let scheme = if algo.prune_eligible() { cfg.pruning } else { Pruning::None };
        let pruning = scheme.enabled();
        let replicate = cfg.replication.resolve(topo.nodes());

        let mut driver_cfg = DriverConfig {
            k,
            d,
            n,
            nthreads,
            max_iters: cfg.max_iters,
            tol: cfg.tol,
            pruning: scheme,
            task_size: cfg.task_size,
            kernel: cfg.kernel,
            row_offset: 0,
            tiles: None,
            replication: replicate,
            trace: cfg.trace.clone().map(TraceHandle::new),
        };
        let probe_kind = driver_cfg.resolve_kernel().kind;
        driver_cfg.tiles = cfg.tuning.tiles_for(probe_kind, n, k, d);
        let outcome =
            run_mm(&driver_cfg, init_cents, &placement, &queue, &plane, &NoReduce, &*algo)?;

        let mut assignments = outcome.assignments;
        if algo.subsamples() {
            // Subsampled algorithms (mini-batch) leave rows assigned as of
            // their last sampled batch; one streamed map pass aligns the
            // assignments (and SSE) with the final model.
            streamed_refresh(plane.reader(), &outcome.centroids, &*algo, &mut assignments)?;
        }
        let final_cents = outcome.centroids.to_matrix();
        let sse = if cfg.compute_sse {
            Some(streamed_sse(plane.reader(), &final_cents, &assignments)?)
        } else {
            None
        };
        let report = plane.finish();

        let ngroups = yinyang_groups(k);
        let memory = MemoryFootprint {
            data_bytes: 0, // O(nd) stays on the device — the point of SEM
            centroid_bytes: (2 * k * d * 8) as u64
                + if pruning { (k * d * 8 + k * 8) as u64 } else { 0 },
            accum_bytes: (nthreads * (k * d * 8 + k * 8)) as u64,
            per_row_bytes: (n * 4) as u64
                + if pruning { (n * 8) as u64 } else { 0 }
                + if scheme == Pruning::Yinyang { (n * ngroups * 8) as u64 } else { 0 },
            pruning_bytes: match scheme {
                Pruning::None => 0,
                Pruning::Mti => ((k * k + 2 * k) * 8) as u64,
                // Grouping tables (u32) plus drift and group-drift vectors.
                Pruning::Yinyang => ((2 * k + ngroups + 1) * 4 + (k + ngroups) * 8) as u64,
            },
            cache_bytes: cfg.row_cache_bytes + cfg.page_cache_bytes,
        };

        let mut workers_per_node = vec![0usize; topo.nodes()];
        for t in 0..nthreads {
            workers_per_node[placement.node_of_thread(t).0] += 1;
        }
        let numa = NumaReport {
            nodes: topo.nodes(),
            workers_per_node,
            requested: cfg.replication,
            replicated: replicate,
        };

        let niters = outcome.iters.len();
        Ok(SemResult {
            kmeans: KmeansResult {
                centroids: final_cents,
                assignments,
                niters,
                converged: outcome.converged,
                iters: outcome.iters,
                memory,
                sse,
                numa,
                load: None,
                phases: outcome.phases,
            },
            io: report.io,
            panicked_io_threads: report.panicked_io_threads,
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::quality::agreement;
    use knor_core::serial::lloyd_serial;
    use knor_core::InitMethod;
    use knor_matrix::io::write_matrix;
    use knor_workloads::MixtureSpec;
    use std::path::PathBuf;

    fn write_mixture(n: usize, d: usize, seed: u64, tag: &str) -> (DMatrix, PathBuf) {
        let data = MixtureSpec::friendster_like(n, d, seed).generate().data;
        let mut p = std::env::temp_dir();
        p.push(format!("knor-sem-{tag}-{}-{n}x{d}.knor", std::process::id()));
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
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn tiled_kernel_bitwise_matches_serial() {
        // One thread, no row cache: rows process in serial order, so the
        // tiled kernel must reproduce the serial reference bit for bit.
        let (data, path) = write_mixture(900, 6, 27, "tiled");
        let k = 10;
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
                .with_kernel(knor_core::KernelKind::Tiled)
                .with_max_iters(60),
        )
        .fit(&path)
        .unwrap();
        assert_eq!(sem.kmeans.assignments, serial.assignments);
        assert_eq!(sem.kmeans.centroids, serial.centroids, "tiled knors must be bitwise serial");
        assert_eq!(sem.kmeans.niters, serial.niters);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn row_cache_path_agrees_with_kernel() {
        // Row-cache hits flow through the contiguous hit staging + blocked
        // kernel; the clustering must match the scalar kernel run.
        let (data, path) = write_mixture(1500, 8, 28, "rck");
        let k = 8;
        let init = forgy(&data, k, 3);
        let run = |kernel: knor_core::KernelKind| {
            SemKmeans::new(
                SemConfig::new(k)
                    .with_init(SemInit::Given(init.clone()))
                    .with_threads(2)
                    .with_task_size(96)
                    .with_page_size(512)
                    .with_pruning(Pruning::None)
                    .with_row_cache_bytes(2 << 20)
                    .with_cache_interval(2)
                    .with_kernel(kernel)
                    .with_max_iters(40),
            )
            .fit(&path)
            .unwrap()
        };
        let tiled = run(knor_core::KernelKind::Tiled);
        let scalar = run(knor_core::KernelKind::Scalar);
        assert_eq!(tiled.kmeans.assignments, scalar.kmeans.assignments);
        assert_eq!(tiled.kmeans.niters, scalar.kmeans.niters);
        assert!(tiled.io.iter().map(|i| i.rc_hits).sum::<u64>() > 0, "cache never hit");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn replication_bitwise_identical_on_sem() {
        // Replicated knors must walk the shared-copy trajectory bit for
        // bit, MTI on and off, on a multi-node synthetic topology.
        let (data, path) = write_mixture(1200, 6, 31, "replica");
        let k = 8;
        let init = forgy(&data, k, 7);
        for pruning in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            let run = |replication: Replication| {
                SemKmeans::new(
                    SemConfig::new(k)
                        .with_init(SemInit::Given(init.clone()))
                        .with_threads(4)
                        .with_scheduler(SchedulerKind::Static)
                        .with_task_size(64)
                        .with_page_size(512)
                        .with_pruning(pruning)
                        .with_row_cache_bytes(1 << 20)
                        .with_topology(Topology::synthetic(4, 1))
                        .with_replication(replication)
                        .with_max_iters(40),
                )
                .fit(&path)
                .unwrap()
            };
            let off = run(Replication::Off);
            let on = run(Replication::On);
            assert_eq!(off.kmeans.assignments, on.kmeans.assignments, "{pruning:?}");
            assert_eq!(off.kmeans.centroids, on.kmeans.centroids, "{pruning:?}");
            assert_eq!(off.kmeans.niters, on.kmeans.niters);
            assert!(on.kmeans.numa.replicated);
            assert!(!off.kmeans.numa.replicated);
            assert_eq!(on.kmeans.numa.workers_per_node, vec![1, 1, 1, 1]);
            assert!(on.kmeans.total_publish_bytes() > 0);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn clause1_actually_saves_io() {
        // k matches the 16 planted clusters, so points root firmly and
        // Clause 1 dominates — the regime the paper's Friendster data is in.
        let (data, path) = write_mixture(2000, 8, 22, "clause1");
        let k = 16;
        // k-means++ spreads the seeds across the planted blobs, the regime
        // where points root firmly and Clause 1 dominates.
        let init = InitMethod::PlusPlus.initialize(&data, k, 1).to_matrix();
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
            .fit(&path)
            .unwrap()
        };
        let knors = run(Pruning::Mti);
        let knors_minus = run(Pruning::None);
        let req: u64 = knors.io.iter().map(|i| i.bytes_requested).sum();
        let req_minus: u64 = knors_minus.io.iter().map(|i| i.bytes_requested).sum();
        assert!(
            req * 2 < req_minus,
            "MTI should cut requested bytes substantially: {req} vs {req_minus}"
        );
        // Without pruning every iteration requests the full matrix.
        let per_iter = 2000u64 * 8 * 8;
        for it in &knors_minus.io {
            assert_eq!(it.bytes_requested, per_iter);
            assert_eq!(it.active_rows, 2000);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn yinyang_group_filter_saves_io() {
        // The tentpole's SEM payoff: a row whose group filter eliminates
        // every non-assigned group is never fetched — Clause-1-style I/O
        // avoidance, tallied separately as `io_skip_rows`. k = 20 gives
        // t = 2 groups: the real multi-group filter, not the t = 1 case
        // where one churning centroid's drift crushes every row's single
        // bound. Forgy on grid data seeds duplicate/vacant clusters, so
        // the run has a long reassignment cascade to prune through.
        let (data, _) = knor_workloads::grid_clusters(2000, 8, 20);
        let mut path = std::env::temp_dir();
        path.push(format!("knor-sem-yyio-{}-2000x8.knor", std::process::id()));
        write_matrix(&path, &data).unwrap();
        let k = 20;
        let init = forgy(&data, k, 7);
        let run = |pruning: Pruning| {
            SemKmeans::new(
                SemConfig::new(k)
                    .with_init(SemInit::Given(init.clone()))
                    .with_threads(2)
                    .with_task_size(128)
                    .with_page_size(256)
                    .with_pruning(pruning)
                    .with_row_cache_bytes(0) // isolate the filter effect
                    .with_max_iters(40),
            )
            .fit(&path)
            .unwrap()
        };
        let yy = run(Pruning::Yinyang);
        let none = run(Pruning::None);
        let req: u64 = yy.io.iter().map(|i| i.bytes_requested).sum();
        let req_none: u64 = none.io.iter().map(|i| i.bytes_requested).sum();
        assert!(req * 2 < req_none, "group filter should cut requested bytes: {req} vs {req_none}");
        // On a staged plane every filter skip is a fetch skip, and the
        // direct-plane-only counter stays distinct from distance pruning.
        let skipped: u64 = yy.kmeans.iters.iter().map(|i| i.prune.io_skip_rows).sum();
        let c1: u64 = yy.kmeans.iters.iter().map(|i| i.prune.clause1_rows).sum();
        assert!(skipped > 0, "no fetches skipped");
        assert_eq!(skipped, c1, "SEM must skip the fetch of every filtered row");
        assert_eq!(none.kmeans.iters.iter().map(|i| i.prune.io_skip_rows).sum::<u64>(), 0);
        std::fs::remove_file(path).unwrap();
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
        std::fs::remove_file(path).unwrap();
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
        std::fs::remove_file(path).unwrap();
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
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn prefetch_pipeline_matches_unprefetched() {
        let (data, path) = write_mixture(1000, 8, 25, "prefetch");
        let k = 6;
        let init = forgy(&data, k, 3);
        let base = SemConfig::new(k)
            .with_init(SemInit::Given(init))
            .with_threads(2)
            .with_task_size(64)
            .with_page_size(512)
            .with_max_iters(40);
        let plain = SemKmeans::new(base.clone()).fit(&path).unwrap();
        let pre = SemKmeans::new(base.with_prefetch(true)).fit(&path).unwrap();
        assert_eq!(plain.kmeans.niters, pre.kmeans.niters);
        assert!(agreement(&plain.kmeans.assignments, &pre.kmeans.assignments, k) > 0.999);
        std::fs::remove_file(path).unwrap();
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
        std::fs::remove_file(path).unwrap();
    }
}

//! The parallel ||Lloyd's engine (knori).
//!
//! The iteration protocol itself — worker lifecycle, the A/B/C barrier
//! super-phases, the dimension-sliced merge and the coordinator window —
//! lives in [`crate::driver`] and is shared with knors and knord. This
//! module supplies the in-memory data plane: NUMA-aware row access over
//! per-node arenas plus exact access tallies for the cost model.
//!
//! # NUMA modes
//!
//! `numa_aware = true` (default) distributes the matrix into per-node
//! arenas (Fig. 1), binds workers to nodes, and uses the configured task
//! queue. `numa_aware = false` reproduces the paper's *NUMA-oblivious*
//! baseline: the same placed layout with one block, so one contiguous
//! allocation homed on node 0, threads spread round-robin by the "OS",
//! FIFO scheduling. Exact access tallies are kept either way so the cost
//! model can compare the two (Fig. 4).

use knor_matrix::io::MatrixFile;
use knor_matrix::DMatrix;
use knor_numa::bind::bind_current_thread;
use knor_numa::{AccessTally, NodeId, NumaMatrix, Placement, Topology};

use crate::centroids::LocalAccum;
use crate::driver::{run_mm, IterView, NoReduce, WorkerReport};
use crate::plane::{drain, DataPlane, Direct, DrainScratch};
use crate::spec::{settle, Resolved, RunSpec};
use crate::stats::{KmeansResult, LoadStats};

use std::io;
use std::path::Path;
use std::time::Instant;

/// Configuration for a [`Kmeans`] run: the run's description and nothing
/// more (see [`crate::spec`]).
pub type KmeansConfig = RunSpec;

/// The knori solver.
pub struct Kmeans {
    config: KmeansConfig,
}

impl Kmeans {
    /// Create a solver from a configuration.
    pub fn new(config: KmeansConfig) -> Self {
        assert!(config.k >= 1, "k must be positive");
        assert!(config.max_iters >= 1, "need at least one iteration");
        Self { config }
    }

    /// What a run fixes from its configuration and the data's shape alone,
    /// before it touches the data: the resolved run, and the data's plan —
    /// the workers' own when aware, each block loaded by and next to the
    /// worker that scans it, and otherwise one block on node 0, what
    /// `malloc` first-touch gives a single-threaded loader.
    fn plan(&self, n: usize, d: usize) -> (Resolved, Placement) {
        let run = self.config.resolve(0..n, n, d, None, 0);
        let home = if self.config.numa_aware {
            run.placement.clone()
        } else {
            Placement::new(&run.topo, n, 1)
        };
        (run, home)
    }

    /// Cluster `data`, consuming one full engine run. The run works on its
    /// own placed copy of `data`; [`Kmeans::fit_file`] holds the data once.
    pub fn fit(&self, data: &DMatrix) -> KmeansResult {
        let (run, home) = self.plan(data.nrow(), data.ncol());
        self.run(&run, &NumaMatrix::from_dmatrix(&run.topo, &home, data))
    }

    /// Cluster the matrix stored at `path`: [`Kmeans::fit_open`] on the
    /// opened file.
    pub fn fit_file(&self, path: &Path) -> io::Result<KmeansResult> {
        self.fit_open(&MatrixFile::open(path)?)
    }

    /// Cluster the matrix in `file`, loaded straight into the placed
    /// layout — every worker's block read by a thread on the worker's
    /// node — so the process holds the data once. The result is bit for
    /// bit that of [`Kmeans::fit`] on the same bytes, plus
    /// [`KmeansResult::load`].
    pub fn fit_open(&self, file: &MatrixFile) -> io::Result<KmeansResult> {
        let h = file.header();
        let (run, home) = self.plan(h.nrow as usize, h.ncol as usize);
        let t0 = Instant::now();
        let placed = NumaMatrix::load(&run.topo, &home, file)?;
        let load = LoadStats {
            bytes: placed.heap_bytes(),
            secs: t0.elapsed().as_secs_f64(),
            threads: home.nthreads(),
        };
        Ok(KmeansResult { load: Some(load), ..self.run(&run, &placed) })
    }

    /// One engine run over placed data. Everything outside the driver that
    /// walks rows (init, the mini-batch refresh, the SSE pass) goes through
    /// [`knor_matrix::Rows`] in global row order, so the result does not
    /// depend on how `data` got placed.
    fn run(&self, run: &Resolved, data: &NumaMatrix) -> KmeansResult {
        let cfg = &self.config;
        let (init, init_stats) =
            cfg.init.initialize_with_stats(data, cfg.k, cfg.seed, run.driver.nthreads);
        let plane = ImPlane {
            cfg,
            topo: &run.topo,
            data,
            thread_node: &run.thread_node,
            nnodes: run.topo.nodes(),
            row_bytes: (data.ncol() * 8) as u64,
        };
        let mut outcome =
            run_mm(&run.driver, init, &run.placement, &run.queue, &plane, &NoReduce, &*run.algo)
                .expect("in-memory rows cannot fail");
        let centroids = outcome.centroids.to_matrix();
        let sse = settle(&*run.algo, data, &centroids, &mut outcome.assignments, cfg.compute_sse);
        run.finish(outcome, init_stats, centroids, data.heap_bytes(), 0, sse)
    }
}

/// The in-memory NUMA data plane: NUMA-aware (or oblivious) row access
/// with exact access tallies — a direct row source over the arenas, which
/// the shared worker loop reads in place, one block of a task at a time.
struct ImPlane<'a> {
    cfg: &'a KmeansConfig,
    topo: &'a Topology,
    data: &'a NumaMatrix,
    thread_node: &'a [NodeId],
    nnodes: usize,
    row_bytes: u64,
}

impl DataPlane for ImPlane<'_> {
    fn worker_start(&self, w: usize) {
        if self.cfg.numa_aware {
            let _ = bind_current_thread(self.topo, self.thread_node[w]);
        }
    }

    fn compute(
        &self,
        w: usize,
        view: &IterView<'_>,
        accum: &mut LocalAccum,
        scratch: &mut DrainScratch,
    ) -> io::Result<WorkerReport> {
        let d = view.cents.d;
        let mut tally =
            self.cfg.track_tallies.then(|| AccessTally::new(self.thread_node[w], self.nnodes));
        let mut rows = Direct::new(self.data, |first, rows| {
            if let Some(t) = tally.as_mut() {
                let rows = rows as u64;
                t.record_block(self.data.node_of_row(first), rows, rows * self.row_bytes);
            }
        });
        let mut rep = drain(&mut rows, w, view, accum, scratch)?;
        if let Some(t) = tally.as_mut() {
            // Distance kernels + accumulator adds, d fused ops each.
            t.record_flops((rep.counters.dist_computations + rep.rows_accessed) * d as u64);
        }
        rep.tally = tally;
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitMethod;
    use crate::kernel::KernelKind;
    use crate::pruning::Pruning;
    use crate::quality::{agreement, sse};
    use crate::serial::lloyd_serial;
    use knor_sched::SchedulerKind;
    use knor_workloads::MixtureSpec;

    fn mixture(n: usize, d: usize, seed: u64) -> DMatrix {
        MixtureSpec::friendster_like(n, d, seed).generate().data
    }

    fn forgy_centroids(data: &DMatrix, k: usize, seed: u64) -> DMatrix {
        InitMethod::Forgy.initialize(data, k, seed).to_matrix()
    }

    #[test]
    fn single_thread_static_matches_serial_exactly() {
        let data = mixture(600, 6, 1);
        let k = 8;
        let init = forgy_centroids(&data, k, 7);
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 50, 0.0);
        let par = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(Pruning::None)
                .with_max_iters(50),
        )
        .fit(&data);
        assert_eq!(par.assignments, serial.assignments);
        assert_eq!(par.niters, serial.niters);
        assert_eq!(par.centroids, serial.centroids);
        assert!(par.converged);
    }

    #[test]
    fn every_kernel_single_thread_vs_serial() {
        // Tiled (and Auto, which resolves to it here) must be bitwise equal
        // to the serial reference; gemm must agree on the clustering.
        let data = mixture(700, 7, 21); // d % 4 != 0 exercises remainders
        let k = 9;
        let init = forgy_centroids(&data, k, 13);
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let run = |kernel: KernelKind| {
            Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_threads(1)
                    .with_scheduler(SchedulerKind::Static)
                    .with_pruning(Pruning::None)
                    .with_kernel(kernel)
                    .with_max_iters(60),
            )
            .fit(&data)
        };
        for kernel in [KernelKind::Auto, KernelKind::Scalar, KernelKind::Tiled] {
            let r = run(kernel);
            assert_eq!(r.assignments, serial.assignments, "{kernel:?}");
            assert_eq!(r.centroids, serial.centroids, "{kernel:?} centroids must be bitwise");
            assert_eq!(r.niters, serial.niters, "{kernel:?}");
        }
        let gemm = run(KernelKind::Gemm);
        assert_eq!(gemm.assignments, serial.assignments);
        assert_eq!(gemm.niters, serial.niters);
        for (a, b) in gemm.centroids.as_slice().iter().zip(serial.centroids.as_slice()) {
            assert!((a - b).abs() <= 1e-9_f64.max(b.abs() * 1e-9), "gemm drifted");
        }
    }

    #[test]
    fn multithreaded_matches_serial_clustering() {
        let data = mixture(2000, 8, 2);
        let k = 8;
        let init = forgy_centroids(&data, k, 3);
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 80, 0.0);
        let par = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_threads(4)
                .with_pruning(Pruning::None)
                .with_max_iters(80),
        )
        .fit(&data);
        assert!(par.converged && serial.converged);
        // FP merge order may differ: compare clusterings, not bits.
        assert!(agreement(&par.assignments, &serial.assignments, k) > 0.999);
        let s_par = sse(&data, &par.centroids, &par.assignments);
        assert!((s_par - serial.sse.unwrap()).abs() / serial.sse.unwrap() < 1e-6);
    }

    #[test]
    fn mti_matches_unpruned_run() {
        let data = mixture(1500, 8, 4);
        let k = 10;
        let init = forgy_centroids(&data, k, 11);
        let base = KmeansConfig::new(k)
            .with_init(InitMethod::Given(init))
            .with_threads(2)
            .with_max_iters(60);
        let pruned = Kmeans::new(base.clone().with_pruning(Pruning::Mti)).fit(&data);
        let full = Kmeans::new(base.with_pruning(Pruning::None)).fit(&data);
        assert_eq!(pruned.niters, full.niters, "pruning must not change the trajectory");
        assert!(agreement(&pruned.assignments, &full.assignments, k) > 0.999);
        let rel = (pruned.sse.unwrap() - full.sse.unwrap()).abs() / full.sse.unwrap();
        assert!(rel < 1e-9, "SSE diverged by {rel}");
        // And pruning must actually prune on clustered data.
        let p = pruned.total_prune();
        assert!(p.clause1_rows > 0, "no clause-1 skips on separated mixtures?");
        assert!(
            p.dist_computations < full.total_prune().dist_computations / 2,
            "MTI saved too little: {} vs {}",
            p.dist_computations,
            full.total_prune().dist_computations
        );
    }

    #[test]
    fn yinyang_matches_unpruned_run() {
        // 64 well-separated grid clusters seeded by Forgy: group bounds
        // stay tight once the churn settles. k = 64 gives t = 6 groups.
        // Static scheduling keeps every run's merge order, so the three
        // trajectories can be compared exactly.
        let k = 64;
        let (data, _) = knor_workloads::grid_clusters(20_000, 32, k);
        let base = KmeansConfig::new(k)
            .with_init(InitMethod::Given(forgy_centroids(&data, k, 7)))
            .with_threads(4)
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(60);
        let yy = Kmeans::new(base.clone().with_pruning(Pruning::Yinyang)).fit(&data);
        let mti = Kmeans::new(base.clone().with_pruning(Pruning::Mti)).fit(&data);
        let full = Kmeans::new(base.with_pruning(Pruning::None)).fit(&data);
        // Exact bounds never change the trajectory: on separated data the
        // delta-accumulation rounding of the pruned centroid update cannot
        // flip an assignment.
        assert_eq!(yy.niters, full.niters, "pruning must not change the trajectory");
        assert_eq!(yy.assignments, full.assignments);
        assert_eq!(yy.niters, mti.niters, "yinyang/mti trajectories diverged");
        assert_eq!(yy.assignments, mti.assignments, "yinyang/mti assignments diverged");
        let rel = (yy.sse.unwrap() - full.sse.unwrap()).abs() / full.sse.unwrap();
        assert!(rel < 1e-9, "SSE diverged by {rel}");
        let p = yy.total_prune();
        assert!(p.clause1_rows > 0, "group filter never fired on separated clusters");
        // Steady-state work comparison: iteration 0 is the structurally
        // different init pass (Yinyang pays 2k−1 distances per row there to
        // seed its group bounds), so the savings claim is over iters 1…
        let steady = |r: &KmeansResult| {
            r.iters.iter().skip(1).map(|i| i.prune.dist_computations).sum::<u64>()
        };
        assert!(
            steady(&yy) < steady(&full) / 2,
            "Yinyang saved too little in steady state: {} vs {}",
            steady(&yy),
            steady(&full)
        );
        // The group filter must also beat MTI's one bound per row: at most
        // half of MTI's distance evaluations once the reassignment cascade
        // of iterations 1–3 (where Yinyang re-scans whole groups and does
        // up to 3.5× MTI's work) has passed, i.e. over the second half.
        let settled = |r: &KmeansResult| {
            r.iters[r.iters.len() / 2..].iter().map(|i| i.prune.dist_computations).sum::<u64>()
        };
        assert!(
            2 * settled(&yy) <= settled(&mti),
            "Yinyang is a spelling of MTI here: {} vs {} distances",
            settled(&yy),
            settled(&mti)
        );
    }

    #[test]
    fn numa_oblivious_mode_same_result() {
        let data = mixture(1200, 4, 9);
        let k = 6;
        let init = forgy_centroids(&data, k, 2);
        let aware = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_threads(4)
                .with_max_iters(60),
        )
        .fit(&data);
        let oblivious = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_threads(4)
                .with_numa_aware(false)
                .with_max_iters(60),
        )
        .fit(&data);
        assert!(aware.converged && oblivious.converged);
        assert!(agreement(&aware.assignments, &oblivious.assignments, k) > 0.999);
    }

    #[test]
    fn tallies_track_every_access() {
        let topo = Topology::synthetic(4, 2);
        let data = mixture(800, 8, 5);
        let k = 5;
        let r = Kmeans::new(
            KmeansConfig::new(k)
                .with_threads(8)
                .with_topology(topo)
                .with_tallies(true)
                .with_seed(1)
                .with_max_iters(30),
        )
        .fit(&data);
        assert_eq!((r.numa.nodes, r.numa.workers_per_node.as_slice()), (4, &[2, 2, 2, 2][..]));
        for it in &r.iters {
            let tallies = it.tallies.as_ref().expect("tallies requested");
            assert_eq!(tallies.len(), 8);
            let accesses: u64 = tallies.iter().map(|t| t.local_accesses + t.remote_accesses).sum();
            assert_eq!(accesses, it.rows_accessed, "iter {}", it.iter);
            let bytes: u64 = tallies.iter().map(|t| t.total_bytes()).sum();
            assert_eq!(bytes, it.rows_accessed * 8 * 8);
        }
        // Static scheduling pins every worker to its own block: with aware
        // placement all accesses must be local. (Stealing schedulers may
        // legitimately go remote on a host with fewer CPUs than workers.)
        let r_static = Kmeans::new(
            KmeansConfig::new(k)
                .with_threads(8)
                .with_topology(Topology::synthetic(4, 2))
                .with_scheduler(SchedulerKind::Static)
                .with_tallies(true)
                .with_seed(1)
                .with_max_iters(10),
        )
        .fit(&data);
        for it in &r_static.iters {
            for t in it.tallies.as_ref().unwrap() {
                assert_eq!(t.remote_accesses, 0, "static+aware must be fully local");
            }
        }
    }

    #[test]
    fn oblivious_tallies_hit_node_zero() {
        let topo = Topology::synthetic(4, 2);
        let data = mixture(400, 4, 6);
        let r = Kmeans::new(
            KmeansConfig::new(4)
                .with_threads(8)
                .with_topology(topo)
                .with_numa_aware(false)
                .with_tallies(true)
                .with_seed(2)
                .with_max_iters(10),
        )
        .fit(&data);
        for it in &r.iters {
            for t in it.tallies.as_ref().unwrap() {
                let non_zero_banks = t.bytes_from_node.iter().skip(1).filter(|&&b| b > 0).count();
                assert_eq!(non_zero_banks, 0, "oblivious data must live on node 0");
            }
        }
    }

    #[test]
    fn respects_max_iters_and_reports_unconverged() {
        let data = mixture(500, 4, 8);
        let r = Kmeans::new(KmeansConfig::new(12).with_max_iters(2).with_seed(3)).fit(&data);
        assert_eq!(r.niters, 2);
        assert_eq!(r.iters.len(), 2);
    }

    #[test]
    fn k_exceeding_natural_clusters_keeps_all_centroids_finite() {
        let data = mixture(300, 4, 10);
        let r = Kmeans::new(KmeansConfig::new(40).with_seed(4).with_max_iters(40)).fit(&data);
        assert!(r.centroids.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(r.centroids.nrow(), 40);
    }

    #[test]
    fn more_threads_than_rows() {
        let data = mixture(10, 3, 12);
        let r = Kmeans::new(KmeansConfig::new(2).with_threads(16).with_seed(5).with_max_iters(20))
            .fit(&data);
        assert!(r.converged);
        assert_eq!(r.assignments.len(), 10);
    }

    #[test]
    fn tol_stops_early() {
        let data = mixture(2000, 8, 13);
        let strict = Kmeans::new(KmeansConfig::new(8).with_seed(6).with_max_iters(100)).fit(&data);
        let loose =
            Kmeans::new(KmeansConfig::new(8).with_seed(6).with_tol(0.5).with_max_iters(100))
                .fit(&data);
        assert!(loose.niters <= strict.niters);
        assert!(loose.converged);
    }

    #[test]
    fn memory_footprint_accounts_pruning() {
        let data = mixture(1000, 8, 14);
        let with = Kmeans::new(KmeansConfig::new(4).with_threads(2).with_max_iters(5)).fit(&data);
        let without = Kmeans::new(
            KmeansConfig::new(4).with_threads(2).with_pruning(Pruning::None).with_max_iters(5),
        )
        .fit(&data);
        assert!(with.memory.per_row_bytes > without.memory.per_row_bytes);
        assert!(with.memory.pruning_bytes > 0);
        assert_eq!(without.memory.pruning_bytes, 0);
        assert_eq!(with.memory.data_bytes, 1000 * 8 * 8);
        // Yinyang trades O(k²) ccdist for O(n·t) lower bounds: per-row
        // grows by one f64 per group, scheme tables stay O(k + t).
        let yy = Kmeans::new(
            KmeansConfig::new(4).with_threads(2).with_pruning(Pruning::Yinyang).with_max_iters(5),
        )
        .fit(&data);
        assert_eq!(yy.memory.per_row_bytes, with.memory.per_row_bytes + 1000 * 8);
        assert!(yy.memory.pruning_bytes > 0);
        assert!(yy.memory.pruning_bytes < with.memory.pruning_bytes);
    }

    #[test]
    fn all_scheduler_kinds_agree() {
        let data = mixture(1500, 6, 15);
        let k = 8;
        let init = forgy_centroids(&data, k, 9);
        let mut results = Vec::new();
        for sched in [SchedulerKind::NumaAware, SchedulerKind::Fifo, SchedulerKind::Static] {
            let r = Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_threads(4)
                    .with_scheduler(sched)
                    .with_max_iters(60),
            )
            .fit(&data);
            assert!(r.converged, "{} did not converge", sched.name());
            results.push(r);
        }
        for r in &results[1..] {
            assert!(agreement(&r.assignments, &results[0].assignments, k) > 0.999);
        }
    }
}

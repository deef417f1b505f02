//! Cross-module equivalence: every knor module and baseline must produce
//! the *same clustering* from the same initialization — the paper's claim
//! that knori/knors/knord and the frameworks run identical algorithms.

use knor::prelude::*;
use knor_baselines::gemm::gemm_lloyd;
use knor_baselines::mapreduce::{FrameworkProfile, MapReduceKmeans};
use knor_core::quality::{agreement, max_center_error, sse};
use knor_core::serial::lloyd_serial;

fn workload(n: usize, d: usize, seed: u64) -> (DMatrix, DMatrix) {
    let planted = MixtureSpec::friendster_like(n, d, seed).generate();
    (planted.data, planted.centers)
}

#[test]
fn all_modules_agree_on_one_init() {
    let (data, _) = workload(3000, 8, 101);
    let k = 12;
    let init = InitMethod::PlusPlus.initialize(&data, k, 17).to_matrix();
    let max_iters = 80;

    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, max_iters, 0.0);
    assert!(serial.converged, "reference run must converge");
    let reference_sse = serial.sse.unwrap();

    // knori, pruned and unpruned.
    for pruning in [Pruning::Mti, Pruning::None] {
        let r = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_pruning(pruning)
                .with_threads(3)
                .with_max_iters(max_iters),
        )
        .fit(&data);
        assert_eq!(r.niters, serial.niters, "knori({pruning:?}) trajectory diverged");
        assert!(agreement(&r.assignments, &serial.assignments, k) > 0.999);
        let rel = (r.sse.unwrap() - reference_sse).abs() / reference_sse;
        assert!(rel < 1e-9, "knori({pruning:?}) SSE off by {rel}");
    }

    // knors from a file.
    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let sem = SemKmeans::new(
        SemConfig::new(k)
            .with_init(SemInit::Given(init.clone()))
            .with_threads(2)
            .with_page_size(512)
            .with_task_size(256)
            .with_max_iters(max_iters)
            .with_sse(true),
    )
    .fit(&path)
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(sem.kmeans.niters, serial.niters, "knors trajectory diverged");
    assert!(agreement(&sem.kmeans.assignments, &serial.assignments, k) > 0.999);

    // knord across 3 ranks.
    let dist = DistKmeans::new(
        DistConfig::new(k, 3, 2)
            .with_init(InitMethod::Given(init.clone()))
            .with_max_iters(max_iters)
            .with_sse(true),
    )
    .fit(&data);
    assert_eq!(dist.niters, serial.niters, "knord trajectory diverged");
    assert!(agreement(&dist.assignments, &serial.assignments, k) > 0.999);

    // GEMM and framework personas.
    let g = gemm_lloyd(&data, &init, max_iters);
    assert!(agreement(&g.assignments, &serial.assignments, k) > 0.999);
    let mr = MapReduceKmeans::new(FrameworkProfile::mllib_like(), 4).fit(&data, &init, max_iters);
    assert!(agreement(&mr.assignments, &serial.assignments, k) > 0.999);
    let mr_sse = sse(&data, &mr.centroids, &mr.assignments);
    assert!((mr_sse - reference_sse).abs() / reference_sse < 1e-9);
}

/// The tiled kernel's contract across engines: in single-worker
/// deterministic configurations, knori, knors and knord each reproduce the
/// serial reference *bitwise* — assignments, centroids and iteration count.
#[test]
fn tiled_kernel_bitwise_across_all_three_engines() {
    let (data, _) = workload(1200, 6, 202);
    let k = 9;
    let init = InitMethod::Forgy.initialize(&data, k, 23).to_matrix();
    let max_iters = 70;
    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, max_iters, 0.0);
    assert!(serial.converged);

    // knori.
    let im = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init.clone()))
            .with_threads(1)
            .with_scheduler(SchedulerKind::Static)
            .with_pruning(Pruning::None)
            .with_kernel(KernelKind::Tiled)
            .with_max_iters(max_iters),
    )
    .fit(&data);
    assert_eq!(im.assignments, serial.assignments, "knori assignments");
    assert_eq!(im.centroids, serial.centroids, "knori centroids must match bitwise");
    assert_eq!(im.niters, serial.niters);

    // knors (no row cache, one thread: rows process in serial order).
    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-tiled-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let sem = SemKmeans::new(
        SemConfig::new(k)
            .with_init(SemInit::Given(init.clone()))
            .with_threads(1)
            .with_scheduler(SchedulerKind::Static)
            .with_page_size(512)
            .with_task_size(128)
            .with_pruning(Pruning::None)
            .with_row_cache_bytes(0)
            .with_kernel(KernelKind::Tiled)
            .with_max_iters(max_iters),
    )
    .fit(&path)
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(sem.kmeans.assignments, serial.assignments, "knors assignments");
    assert_eq!(sem.kmeans.centroids, serial.centroids, "knors centroids must match bitwise");
    assert_eq!(sem.kmeans.niters, serial.niters);

    // knord (one rank, one thread).
    let dist = DistKmeans::new(
        DistConfig::new(k, 1, 1)
            .with_init(InitMethod::Given(init))
            .with_pruning(Pruning::None)
            .with_kernel(KernelKind::Tiled)
            .with_max_iters(max_iters),
    )
    .fit(&data);
    assert_eq!(dist.assignments, serial.assignments, "knord assignments");
    assert_eq!(dist.centroids, serial.centroids, "knord centroids must match bitwise");
    assert_eq!(dist.niters, serial.niters);
}

/// The approximate kernels' contract across engines: FMA and blocked-GEMM
/// trajectories stay within the 1e-9 band of the serial reference, and in
/// single-worker deterministic configurations the three engines agree with
/// each other **bitwise** for a given kernel (same staging order, same
/// arithmetic).
#[test]
fn fused_kernels_agree_across_all_three_engines() {
    let (data, _) = workload(1200, 6, 303);
    let k = 9;
    let init = InitMethod::Forgy.initialize(&data, k, 31).to_matrix();
    let max_iters = 70;
    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, max_iters, 0.0);
    assert!(serial.converged);

    for kernel in [KernelKind::Fma, KernelKind::Gemm] {
        let im = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(Pruning::None)
                .with_kernel(kernel)
                .with_max_iters(max_iters),
        )
        .fit(&data);
        // Within the 1e-9 band of the exact trajectory: fused rounding can
        // only shift distances, not reorder well-separated winners.
        assert_eq!(im.niters, serial.niters, "{kernel:?} trajectory length diverged");
        assert_eq!(im.assignments, serial.assignments, "{kernel:?} assignments");
        for (a, b) in im.centroids.as_slice().iter().zip(serial.centroids.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-9_f64.max(b.abs() * 1e-9),
                "{kernel:?} centroid {a} vs exact {b}"
            );
        }

        // knors, same kernel.
        let mut path = std::env::temp_dir();
        path.push(format!("knor-cross-fused-{}-{kernel:?}.knor", std::process::id()));
        matrix_io::write_matrix(&path, &data).unwrap();
        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init.clone()))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_page_size(512)
                .with_task_size(128)
                .with_pruning(Pruning::None)
                .with_row_cache_bytes(0)
                .with_kernel(kernel)
                .with_max_iters(max_iters),
        )
        .fit(&path)
        .unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(sem.kmeans.assignments, im.assignments, "{kernel:?} knors assignments");
        assert_eq!(
            sem.kmeans.centroids, im.centroids,
            "{kernel:?} knors centroids must match knori bitwise"
        );
        assert_eq!(sem.kmeans.niters, im.niters);

        // knord (one rank, one thread), same kernel.
        let dist = DistKmeans::new(
            DistConfig::new(k, 1, 1)
                .with_init(InitMethod::Given(init.clone()))
                .with_pruning(Pruning::None)
                .with_kernel(kernel)
                .with_max_iters(max_iters),
        )
        .fit(&data);
        assert_eq!(dist.assignments, im.assignments, "{kernel:?} knord assignments");
        assert_eq!(
            dist.centroids, im.centroids,
            "{kernel:?} knord centroids must match knori bitwise"
        );
        assert_eq!(dist.niters, im.niters);
    }
}

/// The algorithm layer's core promise: write an algorithm once, get
/// knori + knors + knord for free. In single-worker deterministic
/// configurations all three engines stage rows in the same order and run
/// the same map/update arithmetic, so each non-Lloyd algorithm must
/// reproduce the same centroids and assignments **bitwise** across
/// engines; multi-rank knord must still agree on the clustering.
#[test]
fn every_algorithm_agrees_across_all_three_engines() {
    use knor_core::algo::Algorithm;

    let (data, _) = workload(1500, 6, 505);
    let k = 8;
    let init = InitMethod::Forgy.initialize(&data, k, 31).to_matrix();
    let max_iters = 25;
    let seed = 13u64; // feeds mini-batch sampling identically everywhere

    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-algos-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for algo in
        [Algorithm::Spherical, Algorithm::Fuzzy { m: 2.0 }, Algorithm::MiniBatch { batch: 256 }]
    {
        let name = algo.name();

        let im = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(algo.clone())
                .with_seed(seed)
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_sse(false)
                .with_max_iters(max_iters),
        )
        .fit(&data);

        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init.clone()))
                .with_algo(algo.clone())
                .with_seed(seed)
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_page_size(512)
                .with_task_size(128)
                .with_row_cache_bytes(0)
                .with_max_iters(max_iters),
        )
        .fit(&path)
        .unwrap();

        let dist = DistKmeans::new(
            DistConfig::new(k, 1, 1)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(algo.clone())
                .with_seed(seed)
                .with_scheduler(SchedulerKind::Static)
                .with_max_iters(max_iters),
        )
        .fit(&data);

        assert_eq!(im.niters, sem.kmeans.niters, "{name}: knors trajectory diverged");
        assert_eq!(im.niters, dist.niters, "{name}: knord trajectory diverged");
        assert_eq!(im.assignments, sem.kmeans.assignments, "{name}: knors assignments");
        assert_eq!(im.assignments, dist.assignments, "{name}: knord assignments");
        assert_eq!(im.centroids, sem.kmeans.centroids, "{name}: knors centroids must be bitwise");
        assert_eq!(im.centroids, dist.centroids, "{name}: knord centroids must be bitwise");

        // Multi-rank knord: the allreduced sums/counts/weights walk the
        // same trajectory up to FP merge order.
        let dist3 = DistKmeans::new(
            DistConfig::new(k, 3, 2)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(algo.clone())
                .with_seed(seed)
                .with_max_iters(max_iters),
        )
        .fit(&data);
        assert!(
            agreement(&dist3.assignments, &im.assignments, k) > 0.99,
            "{name}: multi-rank knord diverged"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// The PR-5 plane matrix, part 1: knord with a single SEM rank *is*
/// knors — same plane code, same file, same budgets ⇒ bitwise-identical
/// assignments, centroids, trajectory and per-iteration I/O record, for
/// every kernel with MTI on and off.
#[test]
fn dist_sem_single_rank_bitwise_matches_knors() {
    let (data, _) = workload(1600, 6, 606);
    let k = 8;
    let init = InitMethod::Forgy.initialize(&data, k, 41).to_matrix();
    let max_iters = 40;
    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-plane1-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for pruning in [Pruning::Mti, Pruning::None] {
        for kernel in [KernelKind::Scalar, KernelKind::Tiled, KernelKind::NormTrick] {
            let tag = format!("pruning={pruning:?} kernel={kernel:?}");
            let sem = SemKmeans::new(
                SemConfig::new(k)
                    .with_init(SemInit::Given(init.clone()))
                    .with_threads(2)
                    .with_scheduler(SchedulerKind::Static)
                    .with_page_size(512)
                    .with_task_size(128)
                    .with_pruning(pruning)
                    .with_row_cache_bytes(1 << 20)
                    .with_cache_interval(2)
                    .with_kernel(kernel)
                    .with_max_iters(max_iters),
            )
            .fit(&path)
            .unwrap();

            // Match knors' budgets and cache interval exactly, so the
            // refresh schedules align.
            let mut pcfg =
                SemPlaneConfig::default().with_page_size(512).with_row_cache_bytes(1 << 20);
            pcfg.cache_interval = 2;
            let dist = DistKmeans::new(
                DistConfig::new(k, 1, 2)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_scheduler(SchedulerKind::Static)
                    .with_task_size(128)
                    .with_pruning(pruning)
                    .with_kernel(kernel)
                    .with_plane(RankPlane::Sem(pcfg))
                    .with_max_iters(max_iters),
            )
            .fit_file(&path)
            .unwrap();

            assert_eq!(dist.assignments, sem.kmeans.assignments, "{tag}: assignments");
            assert_eq!(dist.centroids, sem.kmeans.centroids, "{tag}: centroids must be bitwise");
            assert_eq!(dist.niters, sem.kmeans.niters, "{tag}: trajectory");
            // The single rank's private I/O record is knors' record.
            assert_eq!(dist.rank_io.len(), 1, "{tag}");
            assert_eq!(dist.rank_io[0].io.len(), sem.io.len(), "{tag}");
            for (a, b) in dist.rank_io[0].io.iter().zip(&sem.io) {
                assert_eq!(a.active_rows, b.active_rows, "{tag} iter {}", a.iter);
                assert_eq!(a.rc_hits, b.rc_hits, "{tag} iter {}", a.iter);
                assert_eq!(a.bytes_requested, b.bytes_requested, "{tag} iter {}", a.iter);
                assert_eq!(a.bytes_read, b.bytes_read, "{tag} iter {}", a.iter);
            }
            // The row cache must actually have engaged, or this proved
            // nothing about the hit/miss staging path.
            let hits: u64 = sem.io.iter().map(|i| i.rc_hits).sum();
            assert!(hits > 0, "{tag}: row cache never hit");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The PR-5 plane matrix, part 2: at R ∈ {2, 4}, knord over SEM ranks is
/// bitwise-identical to knord over in-memory ranks — the canonical
/// rank-order allreduce plus in-order staged commits make the trajectory
/// independent of where the rows physically live. Every kernel, MTI on
/// and off.
#[test]
fn dist_sem_bitwise_matches_dist_in_memory_across_ranks() {
    let (data, _) = workload(1800, 6, 707);
    let k = 9;
    let init = InitMethod::Forgy.initialize(&data, k, 5).to_matrix();
    let max_iters = 30;
    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-plane2-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for ranks in [2usize, 4] {
        for pruning in [Pruning::Mti, Pruning::None] {
            for kernel in [KernelKind::Scalar, KernelKind::Tiled, KernelKind::NormTrick] {
                let tag = format!("R={ranks} pruning={pruning:?} kernel={kernel:?}");
                let base = DistConfig::new(k, ranks, 2)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_scheduler(SchedulerKind::Static)
                    .with_task_size(128)
                    .with_pruning(pruning)
                    .with_kernel(kernel)
                    .with_max_iters(max_iters)
                    .with_sse(true);
                let mem = DistKmeans::new(base.clone()).fit(&data);
                let sem = DistKmeans::new(base.with_plane(RankPlane::Sem(
                    SemPlaneConfig::default().with_page_size(512).with_row_cache_bytes(1 << 20),
                )))
                .fit_file(&path)
                .unwrap();
                assert_eq!(sem.assignments, mem.assignments, "{tag}: assignments");
                assert_eq!(sem.centroids, mem.centroids, "{tag}: centroids must be bitwise");
                assert_eq!(sem.niters, mem.niters, "{tag}: trajectory");
                assert_eq!(
                    sem.sse.map(f64::to_bits),
                    mem.sse.map(f64::to_bits),
                    "{tag}: SSE must be bitwise"
                );
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The PR-5 plane matrix, part 3: every non-Lloyd algorithm walks the
/// same bitwise trajectory on SEM ranks as on in-memory ranks.
#[test]
fn every_algorithm_bitwise_across_rank_planes() {
    use knor_core::algo::Algorithm;

    let (data, _) = workload(1500, 6, 808);
    let k = 8;
    let init = InitMethod::Forgy.initialize(&data, k, 9).to_matrix();
    let max_iters = 20;
    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-plane3-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for algo in
        [Algorithm::Spherical, Algorithm::Fuzzy { m: 2.0 }, Algorithm::MiniBatch { batch: 256 }]
    {
        let name = algo.name();
        let base = DistConfig::new(k, 2, 2)
            .with_init(InitMethod::Given(init.clone()))
            .with_algo(algo.clone())
            .with_seed(13)
            .with_scheduler(SchedulerKind::Static)
            .with_task_size(128)
            .with_max_iters(max_iters);
        let mem = DistKmeans::new(base.clone()).fit(&data);
        let sem = DistKmeans::new(base.with_plane(RankPlane::Sem(
            SemPlaneConfig::default().with_page_size(512).with_row_cache_bytes(1 << 20),
        )))
        .fit_file(&path)
        .unwrap();
        assert_eq!(sem.assignments, mem.assignments, "{name}: assignments");
        assert_eq!(sem.centroids, mem.centroids, "{name}: centroids must be bitwise");
        assert_eq!(sem.niters, mem.niters, "{name}: trajectory");
        if matches!(algo, Algorithm::MiniBatch { .. }) {
            // The subsampling filter runs before any I/O: SEM ranks must
            // have fetched only the in-batch rows.
            let active: u64 =
                sem.rank_io.iter().flat_map(|r| r.io.iter()).map(|i| i.active_rows).sum();
            assert!(
                active < (sem.niters as u64) * 1500,
                "mini-batch SEM ranks fetched more than the sampled batches"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// A dataset larger than any single rank's row-cache budget must still
/// complete under SEM ranks — correctness never depends on cache hits —
/// and still match the in-memory plane bitwise.
#[test]
fn dist_sem_handles_data_larger_than_rank_caches() {
    let (data, _) = workload(4000, 16, 909); // 512 KB of rows
    let k = 8;
    let init = InitMethod::Forgy.initialize(&data, k, 3).to_matrix();
    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-plane4-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    let base = DistConfig::new(k, 2, 2)
        .with_init(InitMethod::Given(init))
        .with_scheduler(SchedulerKind::Static)
        .with_max_iters(30)
        .with_sse(true);
    let mem = DistKmeans::new(base.clone()).fit(&data);
    // 8 KB row cache + 8 KB page cache per rank: ~3% of a rank's slice.
    let sem = DistKmeans::new(
        base.with_plane(RankPlane::Sem(
            SemPlaneConfig::default()
                .with_page_size(4096)
                .with_row_cache_bytes(8 << 10)
                .with_page_cache_bytes(8 << 10),
        )),
    )
    .fit_file(&path)
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(sem.assignments, mem.assignments);
    assert_eq!(sem.centroids, mem.centroids, "tight-budget SEM ranks must stay bitwise");
    assert_eq!(sem.niters, mem.niters);
    // The budget really was too small to hold a slice: device reads far
    // exceed one pass's worth of a fully-cached run.
    let read: u64 = sem.rank_io.iter().flat_map(|r| r.io.iter()).map(|i| i.bytes_read).sum();
    assert!(read as usize > 4000 * 16 * 8, "caches absorbed everything; budget not tight");
}

/// PR 7: per-node centroid replication must be invisible in the results.
/// For every engine × kernel × pruning mode (and every non-Lloyd
/// algorithm), a replicated run reproduces the shared-copy run **bitwise**
/// — assignments, centroids and trajectory — because the replicas are
/// op-log copies of the canonical merge, applied at a barrier.
#[test]
fn replication_bitwise_across_engines_kernels_and_algorithms() {
    use knor::numa::Topology;

    let (data, _) = workload(1400, 6, 910);
    let k = 9;
    let init = InitMethod::Forgy.initialize(&data, k, 12).to_matrix();
    let max_iters = 30;

    let mut path = std::env::temp_dir();
    path.push(format!("knor-cross-replica-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for pruning in [Pruning::Mti, Pruning::None] {
        for kernel in [KernelKind::Scalar, KernelKind::Tiled, KernelKind::NormTrick] {
            let tag = format!("pruning={pruning:?} kernel={kernel:?}");

            // knori on a synthetic 2-node split of 4 workers.
            let im = |rep: Replication| {
                Kmeans::new(
                    KmeansConfig::new(k)
                        .with_init(InitMethod::Given(init.clone()))
                        .with_threads(4)
                        .with_topology(Topology::synthetic(2, 2))
                        .with_scheduler(SchedulerKind::Static)
                        .with_kernel(kernel)
                        .with_pruning(pruning)
                        .with_replication(rep)
                        .with_max_iters(max_iters),
                )
                .fit(&data)
            };
            let off = im(Replication::Off);
            let on = im(Replication::On);
            assert_eq!(on.assignments, off.assignments, "{tag}: knori assignments");
            assert_eq!(on.centroids, off.centroids, "{tag}: knori centroids must be bitwise");
            assert_eq!(on.niters, off.niters, "{tag}: knori trajectory");
            assert!(on.numa.replicated && !off.numa.replicated, "{tag}");
            assert!(on.total_publish_bytes() > 0, "{tag}: replicas never published");

            // knors over the same synthetic topology.
            let sem = |rep: Replication| {
                SemKmeans::new(
                    SemConfig::new(k)
                        .with_init(SemInit::Given(init.clone()))
                        .with_threads(4)
                        .with_topology(Topology::synthetic(2, 2))
                        .with_scheduler(SchedulerKind::Static)
                        .with_page_size(512)
                        .with_task_size(128)
                        .with_pruning(pruning)
                        .with_row_cache_bytes(1 << 20)
                        .with_kernel(kernel)
                        .with_replication(rep)
                        .with_max_iters(max_iters),
                )
                .fit(&path)
                .unwrap()
            };
            let soff = sem(Replication::Off);
            let son = sem(Replication::On);
            assert_eq!(son.kmeans.assignments, soff.kmeans.assignments, "{tag}: knors");
            assert_eq!(son.kmeans.centroids, soff.kmeans.centroids, "{tag}: knors bitwise");
            assert_eq!(son.kmeans.niters, soff.kmeans.niters, "{tag}: knors trajectory");
            // Replication must not change what knors reads off the device.
            // Exact equality is too strong: two workers missing the same
            // row-cache page concurrently may both fetch it, so either run
            // can read a few duplicate pages — allow that race slack while
            // still catching any real change to the read set.
            let race_slack = 8 * 512u64; // a handful of duplicated pages
            for (a, b) in son.io.iter().zip(&soff.io) {
                assert!(
                    a.bytes_read.abs_diff(b.bytes_read) <= race_slack,
                    "{tag}: knors iter {} I/O diverged: on={} off={}",
                    a.iter,
                    a.bytes_read,
                    b.bytes_read
                );
            }

            // knord: 2 ranks × 2 threads, replicas forced on inside every
            // rank's engine (per-rank topology is flat in-process).
            let dist = |rep: Replication| {
                DistKmeans::new(
                    DistConfig::new(k, 2, 2)
                        .with_init(InitMethod::Given(init.clone()))
                        .with_scheduler(SchedulerKind::Static)
                        .with_task_size(128)
                        .with_pruning(pruning)
                        .with_kernel(kernel)
                        .with_replication(rep)
                        .with_max_iters(max_iters),
                )
                .fit(&data)
            };
            let doff = dist(Replication::Off);
            let don = dist(Replication::On);
            assert_eq!(don.assignments, doff.assignments, "{tag}: knord assignments");
            assert_eq!(don.centroids, doff.centroids, "{tag}: knord centroids must be bitwise");
            assert_eq!(don.niters, doff.niters, "{tag}: knord trajectory");
        }
    }

    // Every non-Lloyd algorithm, replicated vs shared on knori.
    for algo in
        [Algorithm::Spherical, Algorithm::Fuzzy { m: 2.0 }, Algorithm::MiniBatch { batch: 256 }]
    {
        let name = algo.name();
        let run = |rep: Replication| {
            Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_algo(algo.clone())
                    .with_seed(13)
                    .with_threads(4)
                    .with_topology(Topology::synthetic(2, 2))
                    .with_scheduler(SchedulerKind::Static)
                    .with_replication(rep)
                    .with_max_iters(20),
            )
            .fit(&data)
        };
        let off = run(Replication::Off);
        let on = run(Replication::On);
        assert_eq!(on.assignments, off.assignments, "{name}: assignments");
        assert_eq!(on.centroids, off.centroids, "{name}: centroids must be bitwise");
        assert_eq!(on.niters, off.niters, "{name}: trajectory");
    }
    std::fs::remove_file(&path).unwrap();
}

/// PR 7, serving half: a pool serving from node-local model clones answers
/// batched predict calls bitwise identically to the shared-model pool.
#[test]
fn replicated_serve_pool_batched_predict_is_bitwise() {
    use knor::numa::Topology;

    let (data, _) = workload(800, 6, 911);
    let k = 8;
    let trained = Kmeans::new(KmeansConfig::new(k).with_seed(5).with_max_iters(40)).fit(&data);

    let serve = |rep: Replication| {
        let h = ServeHandle::start(
            ServeConfig::default()
                .with_threads(4)
                .with_topology(Topology::synthetic(2, 2))
                .with_replication(rep),
        );
        h.register_model("m", Algorithm::Lloyd, trained.centroids.clone());
        h
    };
    let shared = serve(Replication::Off);
    let replicated = serve(Replication::On);
    assert!(!shared.pool_replicated());
    assert!(replicated.pool_replicated());

    let queries = knor_workloads::uniform_matrix(600, 6, 77);
    for _ in 0..3 {
        let a = shared.predict("m", &queries).unwrap();
        let b = replicated.predict("m", &queries).unwrap();
        assert_eq!(b.assignments, a.assignments);
        assert_eq!(
            b.distances.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            a.distances.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "served distances must be bitwise identical"
        );
    }
}

#[test]
fn planted_centers_recovered_by_every_module() {
    // Noise-free mixture: center recovery is only well-posed when every
    // point belongs to a component (the default spec carries 2% diffuse
    // background mass, under which a centroid may legitimately park on a
    // noise pocket).
    let planted = knor_workloads::MixtureSpec {
        noise: 0.0,
        ..knor_workloads::MixtureSpec::friendster_like(4000, 8, 202)
    }
    .generate();
    let (data, centers) = (planted.data, planted.centers);
    let k = 16;
    let init = InitMethod::PlusPlus.initialize(&data, k, 4).to_matrix();

    let knori = Kmeans::new(
        KmeansConfig::new(k).with_init(InitMethod::Given(init.clone())).with_max_iters(100),
    )
    .fit(&data);
    // Recovered centers should sit within a small multiple of sigma (0.5)
    // of the planted ones.
    let err = max_center_error(&knori.centroids, &centers);
    assert!(err < 1.5, "knori center error {err}");

    let dist = DistKmeans::new(
        DistConfig::new(k, 2, 2).with_init(InitMethod::Given(init)).with_max_iters(100),
    )
    .fit(&data);
    let err = max_center_error(&dist.centroids, &centers);
    assert!(err < 1.5, "knord center error {err}");
}

#[test]
fn sem_under_tight_memory_budget_still_correct() {
    // knors with pathologically small caches must stay correct (only
    // slower) — correctness never depends on cache hits.
    let (data, _) = workload(1500, 16, 303);
    let k = 8;
    let init = InitMethod::PlusPlus.initialize(&data, k, 2).to_matrix();
    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);

    let mut path = std::env::temp_dir();
    path.push(format!("knor-tight-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let sem = SemKmeans::new(
        SemConfig::new(k)
            .with_init(SemInit::Given(init))
            .with_threads(2)
            .with_page_size(256)
            .with_page_cache_bytes(1024) // 4 pages
            .with_row_cache_bytes(512) // 4 rows
            .with_task_size(64)
            .with_max_iters(60),
    )
    .fit(&path)
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(sem.kmeans.niters, serial.niters);
    assert!(agreement(&sem.kmeans.assignments, &serial.assignments, k) > 0.999);
}

#[test]
fn uniform_worst_case_converges_everywhere() {
    // RM-style uniform data: the paper's worst case for convergence. Cap
    // iterations and verify every module walks the same trajectory.
    let data = knor_workloads::uniform_matrix(2000, 8, 404);
    let k = 10;
    let init = InitMethod::Forgy.initialize(&data, k, 9).to_matrix();
    let iters = 15;

    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, iters, 0.0);
    let knori = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init.clone()))
            .with_threads(2)
            .with_max_iters(iters),
    )
    .fit(&data);
    let dist = DistKmeans::new(
        DistConfig::new(k, 2, 1).with_init(InitMethod::Given(init)).with_max_iters(iters),
    )
    .fit(&data);
    assert_eq!(knori.niters, serial.niters);
    assert_eq!(dist.niters, serial.niters);
    assert!(agreement(&knori.assignments, &serial.assignments, k) > 0.995);
    assert!(agreement(&dist.assignments, &serial.assignments, k) > 0.995);
}

/// One description, one run: with nothing but `k`, a seed and Forgy given,
/// every engine picks the same rows (`knor_core::init::forgy_rows`) — from
/// memory or from the device — and so walks the same trajectory. Before the
/// samplers were unified knori's Forgy and knors' were two different draws.
#[test]
fn same_spec_same_run_on_every_engine() {
    let (data, _) = workload(2400, 6, 77);
    let path = std::env::temp_dir().join(format!("knor-cross-spec-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let k = 9;
    for seed in [0u64, 1, 5] {
        let im = Kmeans::new(
            KmeansConfig::new(k)
                .with_seed(seed)
                .with_threads(2)
                .with_scheduler(SchedulerKind::Static)
                .with_max_iters(60),
        )
        .fit(&data);
        let picked = InitMethod::Forgy.initialize(&data, k, seed).to_matrix();
        assert_eq!(knor::sem::plane::forgy_from_file(&path, k, seed).unwrap(), picked);

        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_seed(seed)
                .with_threads(2)
                .with_scheduler(SchedulerKind::Static)
                .with_row_cache_bytes(1 << 16)
                .with_max_iters(60)
                .with_sse(true),
        )
        .fit(&path)
        .unwrap()
        .kmeans;
        let dist = |plane: RankPlane| {
            DistConfig::new(k, 2, 1)
                .with_seed(seed)
                .with_scheduler(SchedulerKind::Static)
                .with_plane(plane)
                .with_max_iters(60)
                .with_sse(true)
        };
        let knord = DistKmeans::new(dist(RankPlane::InMemory)).fit(&data);
        let knord_sem = DistKmeans::new(dist(RankPlane::Sem(
            SemPlaneConfig::default().with_row_cache_bytes(1 << 16),
        )))
        .fit_file(&path)
        .unwrap();

        let text = |sse: Option<f64>| format!("{:.4}", sse.expect("SSE was asked for"));
        for (who, niters, assignments, sse) in [
            ("knors", sem.niters, &sem.assignments, text(sem.sse)),
            ("knord", knord.niters, &knord.assignments, text(knord.sse)),
            ("knord over SEM ranks", knord_sem.niters, &knord_sem.assignments, text(knord_sem.sse)),
        ] {
            assert_eq!(niters, im.niters, "seed {seed}: {who} iterations");
            assert_eq!(assignments, &im.assignments, "seed {seed}: {who} assignments");
            assert_eq!(sse, text(im.sse), "seed {seed}: {who} SSE");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

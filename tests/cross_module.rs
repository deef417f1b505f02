//! Cross-module equivalence: every knor module and baseline must produce
//! the *same clustering* from the same initialization — the paper's claim
//! that knori/knors/knord run the same algorithm as the serial and GEMM
//! formulations.

use knor::prelude::*;
use knor_baselines::gemm::gemm_lloyd;
use knor_core::quality::{agreement, max_center_error};
use knor_core::serial::lloyd_serial;
use knor_matrix::io::TempFile;

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
    let path = TempFile::new(format!("knor-cross-{}.knor", std::process::id()));
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
    drop(path);
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

    // GEMM.
    let g = gemm_lloyd(&data, &init, max_iters);
    assert!(agreement(&g.assignments, &serial.assignments, k) > 0.999);
}

/// The `Tiled` spelling — kept for the benchmark harness, resolved as gemm —
/// keeps the exact contract across engines: in single-worker deterministic
/// configurations, knori, knors and knord each reproduce the serial
/// reference *bitwise* — assignments, centroids and iteration count.
///
/// `k` covers the AVX-512 scorer's pass shapes: 9 pads to 16 columns (the
/// 16-column pass alone), 40 to 48 (a 32-column block and a 16-column
/// tail), 64 is two 32-column blocks.
#[test]
fn gemm_bitwise_matches_serial_across_all_three_engines() {
    let (data, _) = workload(1200, 6, 202);
    for k in [9, 40, 64] {
        bitwise_serial_on_every_engine(&data, k);
    }
}

fn bitwise_serial_on_every_engine(data: &DMatrix, k: usize) {
    let init = InitMethod::Forgy.initialize(data, k, 23).to_matrix();
    let max_iters = 70;
    let serial = lloyd_serial(data, k, &InitMethod::Given(init.clone()), 0, max_iters, 0.0);
    assert!(serial.converged, "k={k}: serial did not converge");

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
    .fit(data);
    assert_eq!(im.assignments, serial.assignments, "knori assignments, k={k}");
    assert_eq!(im.centroids, serial.centroids, "knori centroids must match bitwise, k={k}");
    assert_eq!(im.niters, serial.niters, "knori, k={k}");

    // knors (no row cache, one thread: rows process in serial order).
    let path = TempFile::new(format!("knor-cross-tiled-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, data).unwrap();
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
    drop(path);
    assert_eq!(sem.kmeans.assignments, serial.assignments, "knors assignments, k={k}");
    assert_eq!(sem.kmeans.centroids, serial.centroids, "knors centroids must match bitwise, k={k}");
    assert_eq!(sem.kmeans.niters, serial.niters, "knors, k={k}");

    // knord (one rank, one thread).
    let dist = DistKmeans::new(
        DistConfig::new(k, 1, 1)
            .with_init(InitMethod::Given(init))
            .with_pruning(Pruning::None)
            .with_kernel(KernelKind::Tiled)
            .with_max_iters(max_iters),
    )
    .fit(data);
    assert_eq!(dist.assignments, serial.assignments, "knord assignments, k={k}");
    assert_eq!(dist.centroids, serial.centroids, "knord centroids must match bitwise, k={k}");
    assert_eq!(dist.niters, serial.niters, "knord, k={k}");
}

/// The certified gemm contract across engines: the FMA spelling and the
/// blocked GEMM, certified, walk the serial reference's trajectory
/// **bitwise**, and in single-worker deterministic configurations the three
/// engines agree with each other bitwise for a given kernel (same staging
/// order, same arithmetic).
#[test]
fn gemm_kernels_agree_bitwise_across_all_three_engines() {
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
        // Certified: every winner is the exact scan's, so the trajectory is
        // the serial one bit for bit.
        assert_eq!(im.niters, serial.niters, "{kernel:?} trajectory length diverged");
        assert_eq!(im.assignments, serial.assignments, "{kernel:?} assignments");
        assert_eq!(im.centroids, serial.centroids, "{kernel:?} centroids must be bitwise");

        // knors, same kernel.
        let path =
            TempFile::new(format!("knor-cross-fused-{}-{kernel:?}.knor", std::process::id()));
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
        drop(path);
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

    let path = TempFile::new(format!("knor-cross-algos-{}.knor", std::process::id()));
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
    let path = TempFile::new(format!("knor-cross-plane1-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for pruning in [Pruning::Mti, Pruning::None] {
        for kernel in [KernelKind::Scalar, KernelKind::Gemm] {
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
    let path = TempFile::new(format!("knor-cross-plane2-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for ranks in [2usize, 4] {
        for pruning in [Pruning::Mti, Pruning::None] {
            for kernel in [KernelKind::Scalar, KernelKind::Gemm] {
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
    let path = TempFile::new(format!("knor-cross-plane3-{}.knor", std::process::id()));
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
}

/// A dataset larger than any single rank's row-cache budget must still
/// complete under SEM ranks — correctness never depends on cache hits —
/// and still match the in-memory plane bitwise.
#[test]
fn dist_sem_handles_data_larger_than_rank_caches() {
    let (data, _) = workload(4000, 16, 909); // 512 KB of rows
    let k = 8;
    let init = InitMethod::Forgy.initialize(&data, k, 3).to_matrix();
    let path = TempFile::new(format!("knor-cross-plane4-{}.knor", std::process::id()));
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
    drop(path);
    assert_eq!(sem.assignments, mem.assignments);
    assert_eq!(sem.centroids, mem.centroids, "tight-budget SEM ranks must stay bitwise");
    assert_eq!(sem.niters, mem.niters);
    // The budget really was too small to hold a slice: device reads far
    // exceed one pass's worth of a fully-cached run.
    let read: u64 = sem.rank_io.iter().flat_map(|r| r.io.iter()).map(|i| i.bytes_read).sum();
    assert!(read as usize > 4000 * 16 * 8, "caches absorbed everything; budget not tight");
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

    let path = TempFile::new(format!("knor-tight-{}.knor", std::process::id()));
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
    drop(path);
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
/// The second input has fewer distinct points than `k`: the seeds repeat,
/// duplicated centroids tie exactly, and every engine's MTI must settle
/// those ties the same way.
#[test]
fn same_spec_same_run_on_every_engine() {
    let (mixture, _) = workload(2400, 6, 77);
    // 7 distinct rows, each 30 times over.
    let repeated =
        DMatrix::from_vec((0..210).flat_map(|i| mixture.row(i % 7).to_vec()).collect(), 210, 6);
    // k·d = 192 takes the gemm kernel, so MTI's commit has a panel and
    // scans its many-candidate rows (Forgy seeds leave plenty of them).
    let (wide, _) = workload(3000, 8, 78);
    // One column, and fewer rows than each engine has workers (2 threads,
    // 2 ranks): one rank owns no row at all.
    let (narrow, _) = workload(600, 1, 79);
    let lone = DMatrix::from_vec(mixture.row(0).to_vec(), 1, 6);
    let path = TempFile::new(format!("knor-cross-spec-{}.knor", std::process::id()));
    for (what, data, k) in [
        ("mixture", &mixture, 9),
        ("k > distinct points", &repeated, 9),
        ("row scan", &wide, 24),
        ("d = 1", &narrow, 5),
        ("n < threads", &lone, 1),
    ] {
        matrix_io::write_matrix(&path, data).unwrap();
        for seed in [0u64, 1, 5] {
            let im = Kmeans::new(
                KmeansConfig::new(k)
                    .with_seed(seed)
                    .with_threads(2)
                    .with_scheduler(SchedulerKind::Static)
                    .with_max_iters(60),
            )
            .fit(data);
            let picked = InitMethod::Forgy.initialize(data, k, seed).to_matrix();
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
            let knord = DistKmeans::new(dist(RankPlane::InMemory)).fit(data);
            let knord_sem = DistKmeans::new(dist(RankPlane::Sem(
                SemPlaneConfig::default().with_row_cache_bytes(1 << 16),
            )))
            .fit_file(&path)
            .unwrap();

            let text = |sse: Option<f64>| format!("{:.4}", sse.expect("SSE was asked for"));
            for (who, niters, assignments, sse) in [
                ("knors", sem.niters, &sem.assignments, text(sem.sse)),
                ("knord", knord.niters, &knord.assignments, text(knord.sse)),
                (
                    "knord over SEM ranks",
                    knord_sem.niters,
                    &knord_sem.assignments,
                    text(knord_sem.sse),
                ),
            ] {
                assert_eq!(niters, im.niters, "{what} seed {seed}: {who} iterations");
                assert_eq!(assignments, &im.assignments, "{what} seed {seed}: {who} assignments");
                assert_eq!(sse, text(im.sse), "{what} seed {seed}: {who} SSE");
            }
            // The row scan's count is exact too, and knord sums it.
            let gemm_rows = im.total_prune().gemm_rows;
            assert_eq!(sem.total_prune().gemm_rows, gemm_rows, "{what} seed {seed}: knors");
            assert_eq!(knord.total_prune().gemm_rows, gemm_rows, "{what} seed {seed}: knord");
            assert_eq!(knord_sem.total_prune().gemm_rows, gemm_rows, "{what} seed {seed}");
            if what == "row scan" {
                assert!(gemm_rows > 0, "seed {seed}: the row scan never fired");
            }
        }
    }
}

/// A row cache that holds every row: after iteration 0 an active row is a
/// hit — read in place by the bounded commit, copied by a full scan —
/// unless a refresh (iterations 3, 9, …) emptied the cache and refilled it
/// with an active set that left the row out. The run is knori's bit for
/// bit: the same iterations, assignments, centroids and SSE.
#[test]
fn whole_file_row_cache_is_knori_bit_for_bit() {
    let (data, _) = workload(3000, 8, 81);
    let path = TempFile::new(format!("knor-cross-rc-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let k = 12;
    for pruning in [Pruning::Mti, Pruning::None] {
        let im = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Forgy)
                .with_seed(3)
                .with_threads(2)
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(pruning)
                .with_max_iters(20)
                .with_sse(true),
        )
        .fit(&data);
        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_seed(3)
                .with_threads(2)
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(pruning)
                .with_task_size(100)
                .with_page_size(512)
                .with_row_cache_bytes(3000 * 8 * 8)
                .with_cache_interval(3)
                .with_max_iters(20)
                .with_sse(true),
        )
        .fit(&path)
        .unwrap();
        let what = format!("{pruning:?}");
        assert_eq!(sem.kmeans.niters, im.niters, "{what}");
        assert_eq!(sem.kmeans.assignments, im.assignments, "{what}");
        assert_eq!(sem.kmeans.centroids, im.centroids, "{what}");
        assert_eq!(sem.kmeans.sse.map(f64::to_bits), im.sse.map(f64::to_bits), "{what}");
        assert!(sem.io.len() > 4, "{what}: the run must reach a refresh");
        // Every miss is kept. Only rows a refresh's active set left out
        // can miss after it: none before the first, none without pruning.
        let mut resident = 0;
        for io in &sem.io {
            let tag = format!("{what} iter {}", io.iter);
            if io.iter == 0 || io.rc_refreshed {
                assert_eq!(io.rc_hits, 0, "{tag}");
                resident = 0;
            } else if io.iter < 3 || pruning == Pruning::None {
                assert_eq!(io.rc_misses, 0, "{tag}: the cache holds every row");
            }
            resident += io.rc_misses;
            assert_eq!(io.rc_resident_rows, resident, "{tag}");
            assert_eq!(io.rc_hits + io.rc_misses, io.active_rows, "{tag}");
        }
        assert_eq!(sem.io[0].rc_resident_rows, 3000, "{what}");
    }
}

//! Cross-module equivalence: every knor module and baseline must produce
//! the *same clustering* from the same initialization — the paper's claim
//! that knori/knors/knord run the same algorithm as the serial and GEMM
//! formulations.

use knor::prelude::*;
use knor_baselines::gemm::gemm_lloyd;
use knor_core::centroids::Centroids;
use knor_core::driver::{
    block_rule_applies, with_block_commit, BLOCK_MIN_K, F32_MISS_SHARE, WIDE_SHARE,
};
use knor_core::kernel::f32_scan_possible;
use knor_core::quality::{agreement, max_center_error};
use knor_core::serial::lloyd_serial;
use knor_core::ResolvedKind;
use knor_matrix::io::TempFile;

fn workload(n: usize, d: usize, seed: u64) -> (DMatrix, DMatrix) {
    let planted = MixtureSpec::friendster_like(n, d, seed).generate();
    (planted.data, planted.centers)
}

/// Two runs of one description on two engines: the same assignments,
/// centroid bits and iteration count.
fn assert_same_run(a: &KmeansResult, b: &KmeansResult, what: &str) {
    assert_eq!(a.assignments, b.assignments, "{what}: assignments");
    assert_eq!(a.centroids, b.centroids, "{what}: centroids must be bitwise");
    assert_eq!(a.niters, b.niters, "{what}: iterations");
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
    .fit(&data)
    .kmeans;
    assert_eq!(dist.niters, serial.niters, "knord trajectory diverged");
    assert!(agreement(&dist.assignments, &serial.assignments, k) > 0.999);

    // GEMM.
    let g = gemm_lloyd(&data, &init, max_iters);
    assert!(agreement(&g.assignments, &serial.assignments, k) > 0.999);
}

/// The certified gemm contract across engines: in single-worker
/// deterministic configurations, knori, knors and knord each walk the
/// serial reference's trajectory *bitwise* — assignments, centroids and
/// iteration count — and so agree with each other bit for bit.
///
/// At `d = 6` every `k` here has `k·d > 64`, so the shape picks gemm. `k`
/// covers the AVX-512 scorer's pass shapes: 12 pads to 16 columns (the
/// 16-column pass alone), 40 to 48 (a 32-column block and a 16-column
/// tail), 64 is two 32-column blocks.
#[test]
fn gemm_bitwise_matches_serial_across_all_three_engines() {
    let (data, _) = workload(1200, 6, 202);
    for k in [12, 40, 64] {
        assert_eq!(ResolvedKernel::for_shape(k, 6).kind, ResolvedKind::Gemm);
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
            .with_max_iters(max_iters),
    )
    .fit(data);
    assert!(im.total_commit().panel_packs > 0, "k={k}: knori never ran gemm");
    assert_same_run(&im, &serial, &format!("knori, k={k}"));

    // knors (no row cache, one thread: rows process in serial order).
    let path = TempFile::new(format!("knor-cross-gemm-{}.knor", std::process::id()));
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
            .with_max_iters(max_iters),
    )
    .fit(&path)
    .unwrap();
    drop(path);
    assert!(sem.kmeans.total_commit().panel_packs > 0, "k={k}: knors never ran gemm");
    assert_same_run(&sem.kmeans, &serial, &format!("knors, k={k}"));

    // knord (one rank, one thread).
    let dist = DistKmeans::new(
        DistConfig::new(k, 1, 1)
            .with_init(InitMethod::Given(init))
            .with_pruning(Pruning::None)
            .with_max_iters(max_iters),
    )
    .fit(data)
    .kmeans;
    assert_same_run(&dist, &serial, &format!("knord, k={k}"));
}

/// The certified gemm contract across engines, engine against engine: the
/// blocked GEMM, certified, walks the serial reference's trajectory
/// **bitwise**, and in single-worker deterministic configurations knors
/// and knord agree with knori bitwise (same staging order, same
/// arithmetic). `k·d` = 72 > 64, so the shape picks gemm.
#[test]
fn gemm_kernels_agree_bitwise_across_all_three_engines() {
    let (data, _) = workload(1200, 6, 303);
    let k = 12;
    assert_eq!(ResolvedKernel::for_shape(k, 6).kind, ResolvedKind::Gemm);
    let init = InitMethod::Forgy.initialize(&data, k, 31).to_matrix();
    let max_iters = 70;
    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, max_iters, 0.0);
    assert!(serial.converged);

    let im = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init.clone()))
            .with_threads(1)
            .with_scheduler(SchedulerKind::Static)
            .with_pruning(Pruning::None)
            .with_max_iters(max_iters),
    )
    .fit(&data);
    assert!(im.total_commit().panel_packs > 0, "knori never ran gemm");
    // Certified: every winner is the exact scan's, so the trajectory is
    // the serial one bit for bit.
    assert_same_run(&im, &serial, "gemm");

    // knors.
    let path = TempFile::new(format!("knor-cross-fused-{}.knor", std::process::id()));
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
            .with_max_iters(max_iters),
    )
    .fit(&path)
    .unwrap();
    drop(path);
    assert!(sem.kmeans.total_commit().panel_packs > 0, "knors never ran gemm");
    assert_same_run(&sem.kmeans, &im, "knors");

    // knord (one rank, one thread).
    let dist = DistKmeans::new(
        DistConfig::new(k, 1, 1)
            .with_init(InitMethod::Given(init))
            .with_pruning(Pruning::None)
            .with_max_iters(max_iters),
    )
    .fit(&data)
    .kmeans;
    assert_same_run(&dist, &im, "knord");
}

/// Whether this host has the f32 scorer (AVX-512): without it every scan
/// stays f64, and the tests below check only that.
fn f32_host() -> bool {
    f32_scan_possible(&Centroids::zeros(64, 1))
}

/// The precision rule (DESIGN.md §7). Iteration 0 scores in f64 and
/// counts the rows whose gap would fail the f32 certificate (a probe); a
/// later full scan scores in f32 while the previous one missed at most
/// `F32_MISS_SHARE` of its rows. Uniform data misses a fraction of a
/// percent, so from iteration 1 on every row is scored in f32. On a
/// planted mixture a row's two nearest centroids sit close together far
/// from the origin: at k = 64 over a tenth of the rows miss in the probe,
/// and the run stays in f64 without counting again; at k = 16 the panel is
/// narrower than one 4 × 64 f32 pass, so nothing is probed or scored in
/// f32. Every run is `lloyd_serial`'s, bit for bit.
#[test]
fn the_precision_rule_reads_the_previous_scan() {
    let n = 4000;
    let uniform = knor_workloads::uniform_matrix(n, 32, 11);
    let (planted, _) = workload(n, 32, 12);
    for (data, k, is_planted) in [(&uniform, 64, false), (&planted, 16, true), (&planted, 64, true)]
    {
        let what = format!("k={k}, planted: {is_planted}");
        let init = InitMethod::Forgy.initialize(data, k, 5).to_matrix();
        let serial = lloyd_serial(data, k, &InitMethod::Given(init.clone()), 0, 8, 0.0);
        let im = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(Pruning::None)
                .with_max_iters(8),
        )
        .fit(data);
        assert_same_run(&im, &serial, &what);
        assert!(im.iters.len() > 2, "{what}: the run must reach iteration 2");
        for it in &im.iters {
            let c = &it.commit;
            let f32_scan = f32_host() && k > 48 && !is_planted && it.iter > 0;
            assert_eq!(c.f32_rows, if f32_scan { n as u64 } else { 0 }, "{what}: {c:?}");
            if f32_host() && k > 48 && (it.iter == 0 || f32_scan) {
                let over = c.f32_misses as f64 > F32_MISS_SHARE * n as f64;
                assert_eq!(over, is_planted, "{what}: {c:?}");
            } else {
                assert_eq!(c.f32_misses, 0, "{what}: {c:?}");
            }
        }
    }
}

/// f32 full scans across engines: on uniform data the unpruned runs of
/// knori and knors score every iteration after the first in f32, and
/// knori, knors and knord still walk the serial trajectory bit for bit —
/// so the knori ≡ knors ≡ knord invariants cover the f32 scorer.
#[test]
fn f32_scans_agree_bitwise_across_all_three_engines() {
    let data = knor_workloads::uniform_matrix(3000, 32, 21);
    let (k, max_iters) = (64, 6);
    let init = InitMethod::Forgy.initialize(&data, k, 3).to_matrix();
    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, max_iters, 0.0);

    let im = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init.clone()))
            .with_threads(1)
            .with_scheduler(SchedulerKind::Static)
            .with_pruning(Pruning::None)
            .with_max_iters(max_iters),
    )
    .fit(&data);
    assert_eq!(im.total_commit().f32_rows > 0, f32_host(), "knori");
    assert_same_run(&im, &serial, "knori");

    let path = TempFile::new(format!("knor-cross-f32-{}.knor", std::process::id()));
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
            .with_max_iters(max_iters),
    )
    .fit(&path)
    .unwrap();
    drop(path);
    assert_eq!(sem.kmeans.total_commit().f32_rows > 0, f32_host(), "knors");
    assert_same_run(&sem.kmeans, &im, "knors");

    let dist = DistKmeans::new(
        DistConfig::new(k, 1, 1)
            .with_init(InitMethod::Given(init))
            .with_pruning(Pruning::None)
            .with_max_iters(max_iters),
    )
    .fit(&data)
    .kmeans;
    assert_same_run(&dist, &im, "knord");
}

/// Seven distinct rows of a planted mixture, thirty times over: with
/// Forgy seeds some centroids are bit-equal duplicates, so rows tie exactly.
fn repeated_rows() -> DMatrix {
    let (base, _) = workload(2400, 6, 77);
    DMatrix::from_vec((0..210).flat_map(|i| base.row(i % 7).to_vec()).collect(), 210, 6)
}

/// The per-iteration I/O rows of a knors run, without their timings.
fn io_rows(io: &[knor::sem::IoIterStats]) -> Vec<[u64; 9]> {
    io.iter()
        .map(|r| {
            [
                r.active_rows,
                r.rc_hits,
                r.rc_misses,
                r.bytes_requested,
                r.bytes_read,
                r.page_hits,
                r.page_misses,
                r.rc_resident_rows,
                u64::from(r.rc_refreshed),
            ]
        })
        .collect()
}

/// MTI's two bounded commits (DESIGN.md §2), each forced on knori and
/// knors: the block scan that commits its certified non-movers, and the
/// walk. The run is the same in both — assignments, centroid bits,
/// iterations and every iteration's `wide_rows` — and so is knors' I/O:
/// Clause 1 runs before the fetch in both, so the device bytes and every
/// row of the I/O table match. On the planted mixture (Forgy) block mode
/// commits most rows from the block; on the duplicated rows, where
/// `nearest` and the walk part ways on exact ties, it hands every tied
/// row to the walk. (At `k = 9`, `k·d = 54` takes the scalar kernel, and
/// the block needs gemm, so there both "modes" walk.)
#[test]
fn block_and_walk_modes_are_bitwise_equal_on_knori_and_knors() {
    let (planted, _) = workload(3000, 8, 91);
    let repeated = repeated_rows();
    let mut cases = vec![("planted", &planted, 24, 3u64)];
    for k in [9, 12] {
        for seed in [0, 1, 5, 23] {
            cases.push(("repeated", &repeated, k, seed));
        }
    }
    let path = TempFile::new(format!("knor-cross-block-{}.knor", std::process::id()));
    // Per input: rows committed from the block, rows it could not certify.
    let mut tallies = std::collections::BTreeMap::<&str, (u64, u64)>::new();
    for (what, data, k, seed) in cases {
        let at = format!("{what} k={k} seed={seed}");
        let init = InitMethod::Forgy.initialize(data, k, seed).to_matrix();
        let im = |block| {
            let config = KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_threads(2)
                .with_scheduler(SchedulerKind::Static)
                .with_max_iters(60);
            with_block_commit(block, || Kmeans::new(config).fit(data))
        };
        matrix_io::write_matrix(&path, data).unwrap();
        let sem = |block| {
            let config = SemConfig::new(k)
                .with_init(SemInit::Given(init.clone()))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_page_size(512)
                .with_task_size(64)
                .with_row_cache_bytes(1 << 14)
                .with_max_iters(60);
            with_block_commit(block, || SemKmeans::new(config).fit(&path).unwrap())
        };
        let gemm = ResolvedKernel::for_shape(k, data.ncol()).kind == ResolvedKind::Gemm;
        let wide =
            |r: &KmeansResult| r.iters.iter().map(|i| i.commit.wide_rows).collect::<Vec<_>>();
        let (walk, block) = (im(false), im(true));
        assert_same_run(&block, &walk, &format!("knori {at}"));
        assert_eq!(wide(&block), wide(&walk), "knori {at}: wide_rows");
        assert_eq!(walk.total_commit().block_rows, 0, "knori {at}");
        let c = block.total_commit();
        if !gemm {
            assert_eq!(c.block_rows, 0, "knori {at}");
        }
        let tally = tallies.entry(what).or_default();
        (tally.0, tally.1) = (tally.0 + c.block_rows, tally.1 + c.rescored_rows);
        let (walk, block) = (sem(false), sem(true));
        assert_same_run(&block.kmeans, &walk.kmeans, &format!("knors {at}"));
        assert_eq!(wide(&block.kmeans), wide(&walk.kmeans), "knors {at}: wide_rows");
        assert_eq!(block.kmeans.total_commit().block_rows, c.block_rows, "knors {at}");
        assert_eq!(io_rows(&block.io), io_rows(&walk.io), "knors {at}: I/O rows");
        let bytes = |r: &knor::sem::SemResult| r.io.iter().map(|i| i.bytes_read).sum::<u64>();
        assert!(bytes(&walk) > 0, "knors {at}: nothing read");
        assert_eq!(bytes(&block), bytes(&walk), "knors {at}: device bytes");
    }
    // Block mode committed rows from the block on both inputs, and handed
    // the duplicated rows' exact ties to the walk.
    assert!(tallies.values().all(|t| t.0 > 0), "(block rows, uncertified): {tallies:?}");
    assert!(tallies["repeated"].1 > 0, "no tie went to the walk: {tallies:?}");
}

/// The block rule ([`WIDE_SHARE`]): a bounded iteration scores its
/// survivors in blocks when more than that share of the previous
/// iteration's committed rows ended wide (their bound leaves many
/// candidates open). Iteration 1 reads iteration 0's full scan, which
/// commits nothing under bounds, so it walks. k-means++ seeds on a planted
/// mixture leave a few wide rows (the noise), and every iteration walks;
/// Forgy seeds leave most rows wide, and from iteration 2 on every
/// iteration runs in block mode — where the rule applies at all
/// ([`block_rule_applies`]: the AVX-512 scorer, `k >= BLOCK_MIN_K`). At
/// `k = 16` the Forgy run has as many wide rows and still walks. Every run
/// takes `lloyd_serial`'s assignments and iteration count exactly (MTI's
/// centroids sum deltas, so their last bits follow another order).
#[test]
fn the_block_rule_reads_the_previous_iteration() {
    // Ten planted clusters, as in the benchmark's mixture.
    let spec = MixtureSpec { k: 10, noise: 0.02, ..MixtureSpec::friendster_like(6000, 16, 95) };
    let data = spec.generate().data;
    const { assert!(16 < BLOCK_MIN_K && BLOCK_MIN_K <= 48) };
    let cases = [
        (InitMethod::PlusPlus, false, 48),
        (InitMethod::Forgy, true, 48),
        (InitMethod::Forgy, true, 16),
    ];
    for (init, forgy, k) in cases {
        let what = format!("{init:?} k={k}");
        // The host decides the scorer; the `k` limit is checked on its own,
        // not read back from the rule.
        let scorer = block_rule_applies(ResolvedKernel::for_shape(48, data.ncol()), 48);
        let applies = scorer && k >= BLOCK_MIN_K;
        let given = init.initialize(&data, k, 4).to_matrix();
        let serial = lloyd_serial(&data, k, &InitMethod::Given(given.clone()), 0, 12, 0.0);
        let im = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(given))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_max_iters(12),
        )
        .fit(&data);
        assert_eq!(im.assignments, serial.assignments, "{what}: assignments");
        assert_eq!(im.niters, serial.niters, "{what}: iterations");
        assert!(im.iters.len() > 3, "{what}: the run must reach iteration 3");
        for (prev, it) in im.iters.iter().zip(&im.iters[1..]) {
            let (p, c) = (&prev.commit, &it.commit);
            let share = p.wide_rows as f64 / (p.borrowed_rows + p.gathered_rows) as f64;
            let at = format!("{what} iter {}: previous wide share {share:.3}, {c:?}", it.iter);
            assert_eq!(c.block_rows > 0, applies && share > WIDE_SHARE, "{at}");
            assert_eq!(c.block_rows > 0, applies && forgy && it.iter >= 2, "{at}");
            // Below BLOCK_MIN_K the Forgy run is as wide, and walks anyway.
            assert!(!forgy || it.iter < 2 || share > WIDE_SHARE, "{at}");
        }
    }
}

/// A run whose MTI iterations commit from the block (Forgy seeds, where
/// the block rule applies) is the
/// same on knori, knors and knord at one and two ranks: the same
/// iterations, assignments, centroid bits and SSE. Each rank picks its
/// mode from its own counters; either mode gives the same result.
#[test]
fn block_commits_agree_across_all_three_engines() {
    let (data, _) = workload(4000, 16, 94);
    let (k, seed) = (32, 2);
    let path = TempFile::new(format!("knor-cross-block3-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let im = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Forgy)
            .with_seed(seed)
            .with_threads(2)
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(20)
            .with_sse(true),
    )
    .fit(&data);
    // Off the AVX-512 scorer the rule walks; the engines still agree.
    let applies = block_rule_applies(ResolvedKernel::for_shape(k, data.ncol()), k);
    assert_eq!(im.total_commit().block_rows > 0, applies, "knori's block rows");
    let sem = SemKmeans::new(
        SemConfig::new(k)
            .with_seed(seed)
            .with_threads(2)
            .with_scheduler(SchedulerKind::Static)
            .with_row_cache_bytes(1 << 18)
            .with_max_iters(20)
            .with_sse(true),
    )
    .fit(&path)
    .unwrap()
    .kmeans;
    let text = |r: &KmeansResult| format!("{:.4}", r.sse.expect("SSE was asked for"));
    let mut runs = vec![("knors".to_string(), sem)];
    for ranks in [1, 2] {
        let config = DistConfig::new(k, ranks, 1)
            .with_init(InitMethod::Forgy)
            .with_seed(seed)
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(20)
            .with_sse(true);
        runs.push((format!("knord R={ranks}"), DistKmeans::new(config).fit(&data).kmeans));
    }
    for (who, r) in &runs {
        assert_eq!(r.total_commit().block_rows > 0, applies, "{who}'s block rows");
        assert_eq!(r.niters, im.niters, "{who}: iterations");
        assert_eq!(r.assignments, im.assignments, "{who}: assignments");
        assert_eq!(text(r), text(&im), "{who}: SSE");
    }
    // knors stages the same rows in the same order as knori: bit for bit.
    assert_same_run(&runs[0].1, &im, "knors");
}

/// One stop rule for knori and the serial reference: nothing moved, or
/// the centroids did not drift. On duplicated rows with more clusters than
/// distinct points, rows move between bit-equal duplicate centroids with
/// zero drift; knori used to run one more pass there than `lloyd_serial`.
/// (MTI keeps the current centroid on an exact tie where the scan takes the
/// lowest index, so this pins the unpruned path.)
#[test]
fn knori_stops_where_serial_stops_on_duplicated_rows() {
    let (base, _) = workload(2400, 6, 77);
    let distinct: Vec<&[f64]> = base.rows().take(7).collect();
    let rows: Vec<f64> = (0..7 * 30).flat_map(|i| distinct[i % 7].iter().copied()).collect();
    let data = DMatrix::from_vec(rows, 7 * 30, 6);
    for k in [9, 12] {
        for seed in [0, 1, 5, 23] {
            let init = InitMethod::Forgy.initialize(&data, k, seed).to_matrix();
            let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 50, 0.0);
            let im = Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init))
                    .with_threads(1)
                    .with_pruning(Pruning::None)
                    .with_max_iters(50),
            )
            .fit(&data);
            let what = format!("k={k} seed={seed}");
            assert_same_run(&im, &serial, &what);
        }
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
        .fit(&data)
        .kmeans;

        assert_same_run(&sem.kmeans, &im, &format!("{name}: knors"));
        assert_same_run(&dist, &im, &format!("{name}: knord"));

        // Multi-rank knord: the allreduced sums/counts/weights walk the
        // same trajectory up to FP merge order.
        let dist3 = DistKmeans::new(
            DistConfig::new(k, 3, 2)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(algo.clone())
                .with_seed(seed)
                .with_max_iters(max_iters),
        )
        .fit(&data)
        .kmeans;
        assert!(
            agreement(&dist3.assignments, &im.assignments, k) > 0.99,
            "{name}: multi-rank knord diverged"
        );
    }
}

/// The PR-5 plane matrix, part 1: knord with a single SEM rank *is*
/// knors — same plane code, same file, same budgets ⇒ bitwise-identical
/// assignments, centroids, trajectory and per-iteration I/O record, for
/// both kernels (`k·d` = 48 picks scalar, 72 gemm) with MTI on and off.
#[test]
fn dist_sem_single_rank_bitwise_matches_knors() {
    let (data, _) = workload(1600, 6, 606);
    let max_iters = 40;
    let path = TempFile::new(format!("knor-cross-plane1-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for pruning in [Pruning::Mti, Pruning::None] {
        for k in [8, 12] {
            let init = InitMethod::Forgy.initialize(&data, k, 41).to_matrix();
            let kind = ResolvedKernel::for_shape(k, 6).kind;
            let tag = format!("pruning={pruning:?} k={k} kernel={kind:?}");
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
                    .with_max_iters(max_iters),
            )
            .fit(&path)
            .unwrap();
            let packs = sem.kmeans.total_commit().panel_packs;
            assert_eq!(packs > 0, kind == ResolvedKind::Gemm, "{tag}: {packs} panel packs");

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
                    .with_plane(RankPlane::Sem(pcfg))
                    .with_max_iters(max_iters),
            )
            .fit_file(&path)
            .unwrap();

            assert_same_run(&dist.kmeans, &sem.kmeans, &tag);
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
/// independent of where the rows physically live. Both kernels (`k·d` =
/// 54 picks scalar, 72 gemm), MTI on and off.
#[test]
fn dist_sem_bitwise_matches_dist_in_memory_across_ranks() {
    let (data, _) = workload(1800, 6, 707);
    let max_iters = 30;
    let path = TempFile::new(format!("knor-cross-plane2-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();

    for ranks in [2usize, 4] {
        for pruning in [Pruning::Mti, Pruning::None] {
            for k in [9, 12] {
                let init = InitMethod::Forgy.initialize(&data, k, 5).to_matrix();
                let kind = ResolvedKernel::for_shape(k, 6).kind;
                let tag = format!("R={ranks} pruning={pruning:?} k={k} kernel={kind:?}");
                let base = DistConfig::new(k, ranks, 2)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_scheduler(SchedulerKind::Static)
                    .with_task_size(128)
                    .with_pruning(pruning)
                    .with_max_iters(max_iters)
                    .with_sse(true);
                let mem = DistKmeans::new(base.clone()).fit(&data).kmeans;
                let sem = DistKmeans::new(base.with_plane(RankPlane::Sem(
                    SemPlaneConfig::default().with_page_size(512).with_row_cache_bytes(1 << 20),
                )))
                .fit_file(&path)
                .unwrap()
                .kmeans;
                assert_same_run(&sem, &mem, &tag);
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
        let mem = DistKmeans::new(base.clone()).fit(&data).kmeans;
        let sem = DistKmeans::new(base.with_plane(RankPlane::Sem(
            SemPlaneConfig::default().with_page_size(512).with_row_cache_bytes(1 << 20),
        )))
        .fit_file(&path)
        .unwrap();
        assert_same_run(&sem.kmeans, &mem, name);
        if matches!(algo, Algorithm::MiniBatch { .. }) {
            // The subsampling filter runs before any I/O: SEM ranks must
            // have fetched only the in-batch rows.
            let active: u64 =
                sem.rank_io.iter().flat_map(|r| r.io.iter()).map(|i| i.active_rows).sum();
            assert!(
                active < (sem.kmeans.niters as u64) * 1500,
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
    let mem = DistKmeans::new(base.clone()).fit(&data).kmeans;
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
    assert_same_run(&sem.kmeans, &mem, "tight-budget SEM ranks");
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
    .fit(&data)
    .kmeans;
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
    .fit(&data)
    .kmeans;
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
            let knord = DistKmeans::new(dist(RankPlane::InMemory)).fit(data).kmeans;
            let knord_sem = DistKmeans::new(dist(RankPlane::Sem(
                SemPlaneConfig::default().with_row_cache_bytes(1 << 16),
            )))
            .fit_file(&path)
            .unwrap()
            .kmeans;

            // One record on every engine, checked one way.
            let text = |r: &KmeansResult| format!("{:.4}", r.sse.expect("SSE was asked for"));
            let gemm_rows = im.total_prune().gemm_rows;
            for (who, r) in
                [("knors", &sem), ("knord", &knord), ("knord over SEM ranks", &knord_sem)]
            {
                let at = format!("{what} seed {seed}: {who}");
                assert_eq!(r.niters, im.niters, "{at} iterations");
                assert_eq!(r.assignments, im.assignments, "{at} assignments");
                assert_eq!(text(r), text(&im), "{at} SSE");
                // The row scan's count is exact too, and knord sums it.
                assert_eq!(r.total_prune().gemm_rows, gemm_rows, "{at}");
            }
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
        assert_same_run(&sem.kmeans, &im, &what);
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

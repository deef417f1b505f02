//! The pluggable algorithm layer: every non-Lloyd `MmAlgorithm` must match
//! its serial reference, produce sane weights, and run on all three
//! engines — write the algorithm once, get knori + knors + knord for free.

use knor::matrix::io::TempFile;
use knor::prelude::*;
use knor_baselines::minibatch::minibatch_kmeans;
use knor_baselines::spherical::spherical_kmeans;
use knor_core::algo::Algorithm;
use knor_core::quality::agreement;
use proptest::prelude::*;

fn arb_matrix(max_n: usize, max_d: usize) -> impl Strategy<Value = DMatrix> {
    (8usize..max_n, 1usize..max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f64..100.0, n * d)
            .prop_map(move |v| DMatrix::from_vec(v, n, d))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Driver-backed spherical k-means matches the serial spherical
    /// baseline within 1e-9 across random shapes (single-worker
    /// deterministic configuration: same map order, same update
    /// arithmetic).
    #[test]
    fn spherical_engine_matches_serial_baseline(data in arb_matrix(120, 6), k in 2usize..8) {
        prop_assume!(k <= data.nrow());
        let init = InitMethod::Forgy.initialize(&data, k, 1).to_matrix();
        let serial = spherical_kmeans(&data, &init, 30);
        let par = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_algo(Algorithm::Spherical)
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_sse(false)
                .with_max_iters(30),
        )
        .fit(&data);
        prop_assert_eq!(par.niters, serial.niters);
        prop_assert_eq!(&par.assignments, &serial.assignments);
        for (a, b) in par.centroids.as_slice().iter().zip(serial.centroids.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-9_f64.max(b.abs() * 1e-9), "{a} vs {b}");
        }
    }

    /// The fuzzy map phase produces per-row weights that are finite and
    /// normalized — in (0, 1], with the c=best membership term contributing
    /// exactly 1 to the normalizer — for arbitrary data and fuzzifiers.
    #[test]
    fn fuzzy_weights_finite_and_normalized(
        data in arb_matrix(80, 5),
        k in 2usize..7,
        m in 1.2f64..4.0,
    ) {
        prop_assume!(k <= data.nrow());
        let algo = Algorithm::Fuzzy { m }.resolve(k, data.nrow(), 0);
        let cents = knor_core::Centroids::from_matrix(
            &InitMethod::Forgy.initialize(&data, k, 2).to_matrix(),
        );
        for row in data.rows() {
            let o = algo.map(row, &cents);
            prop_assert!(o.weight.is_finite(), "weight not finite");
            prop_assert!(o.weight > 0.0 && o.weight <= 1.0, "weight {} not in (0,1]", o.weight);
            prop_assert!((o.cluster as usize) < k);
        }
    }

    /// Driver-backed fuzzy runs end-to-end on arbitrary shapes: centroids
    /// stay finite and the weighted merge never divides by zero.
    #[test]
    fn fuzzy_engine_is_robust(data in arb_matrix(100, 5), k in 2usize..6) {
        prop_assume!(k <= data.nrow());
        let r = Kmeans::new(
            KmeansConfig::new(k)
                .with_algo(Algorithm::Fuzzy { m: 2.0 })
                .with_seed(3)
                .with_threads(2)
                .with_sse(false)
                .with_max_iters(15),
        )
        .fit(&data);
        prop_assert!(r.centroids.as_slice().iter().all(|x| x.is_finite()));
        prop_assert_eq!(r.assignments.len(), data.nrow());
    }
}

fn mixture(n: usize, d: usize, seed: u64) -> DMatrix {
    MixtureSpec::friendster_like(n, d, seed).generate().data
}

/// The retired standalone mini-batch loop and the driver-backed engine
/// agree exactly on a tiny fixed-seed instance (satellite parity guard).
#[test]
fn minibatch_engine_matches_serial_baseline() {
    let data = mixture(600, 5, 41);
    let k = 5;
    let init = InitMethod::Forgy.initialize(&data, k, 6).to_matrix();
    let base = minibatch_kmeans(&data, &init, 64, 12, 3);
    let par = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init))
            .with_algo(Algorithm::MiniBatch { batch: 64 })
            .with_seed(3) // feeds the sampling hash, like the baseline's seed
            .with_threads(1)
            .with_scheduler(SchedulerKind::Static)
            .with_sse(false)
            .with_max_iters(12),
    )
    .fit(&data);
    assert_eq!(par.niters, 12, "mini-batch runs its full batch budget");
    assert_eq!(par.centroids, base.centroids, "centroids must match the serial mirror bitwise");
    assert_eq!(par.assignments, base.assignments);
}

/// Mini-batch improves cluster quality over the initialization through the
/// real engine, and multithreaded runs agree with the single-threaded one.
#[test]
fn minibatch_engine_improves_and_parallelizes() {
    let data = mixture(3000, 8, 47);
    let k = 10;
    let init = InitMethod::Forgy.initialize(&data, k, 2).to_matrix();
    let run = |threads: usize| {
        Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(Algorithm::MiniBatch { batch: 512 })
                .with_seed(11)
                .with_threads(threads)
                .with_max_iters(25),
        )
        .fit(&data)
    };
    let one = run(1);
    let four = run(4);
    // Same batches, same learning-rate merges — only FP merge order
    // differs between thread counts.
    assert!(agreement(&one.assignments, &four.assignments, k) > 0.99);
    let init_sse = knor_core::quality::sse(
        &data,
        &init,
        &data
            .rows()
            .map(|v| knor_core::distance::nearest(v, init.as_slice(), k).0 as u32)
            .collect::<Vec<_>>(),
        1,
    );
    assert!(one.sse.unwrap() < init_sse, "mini-batch should improve on the init");
}

/// knors runs mini-batch with the subsample filter ahead of the I/O layer:
/// out-of-batch rows cost no requested bytes, so per-iteration active rows
/// collapse from `n` (iteration 0) to ≈`batch`.
#[test]
fn minibatch_on_sem_skips_io_for_out_of_batch_rows() {
    let data = mixture(2000, 8, 53);
    let k = 8;
    let init = InitMethod::Forgy.initialize(&data, k, 9).to_matrix();
    let path = TempFile::new(format!("knor-algos-mb-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let batch = 200usize;
    let r = SemKmeans::new(
        SemConfig::new(k)
            .with_init(SemInit::Given(init))
            .with_algo(Algorithm::MiniBatch { batch })
            .with_seed(5)
            .with_threads(2)
            .with_page_size(256)
            .with_task_size(128)
            .with_row_cache_bytes(0)
            .with_max_iters(20),
    )
    .fit(&path)
    .unwrap();
    assert_eq!(r.io[0].active_rows, 2000, "iteration 0 is a full pass");
    let full_bytes = 2000u64 * 8 * 8;
    for io in &r.io[1..] {
        // Bernoulli(batch/n) stays well under 2× the target batch.
        assert!(
            io.active_rows < (2 * batch) as u64,
            "iter {}: {} rows touched, batch is {batch}",
            io.iter,
            io.active_rows
        );
        assert!(io.bytes_requested < full_bytes / 2, "iter {}: I/O not skipped", io.iter);
    }
}

/// Spherical through knori at several thread counts agrees with the serial
/// baseline on well-separated data (FP merge order is the only freedom).
#[test]
fn spherical_multithreaded_agrees_with_baseline() {
    let data = mixture(2500, 8, 59);
    let k = 12;
    let init = InitMethod::PlusPlus.initialize(&data, k, 4).to_matrix();
    let serial = spherical_kmeans(&data, &init, 60);
    for threads in [2usize, 4] {
        let r = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(Algorithm::Spherical)
                .with_threads(threads)
                .with_sse(false)
                .with_max_iters(60),
        )
        .fit(&data);
        assert!(
            agreement(&r.assignments, &serial.assignments, k) > 0.999,
            "threads={threads} diverged from the serial baseline"
        );
        // Centroids stay unit-norm through the parallel merge.
        for c in 0..k {
            let norm: f64 = r.centroids.row(c).iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-9, "centroid {c} not unit at {threads} threads");
        }
    }
}

/// The weighted (fuzzy) merge is genuinely different from Lloyd's: on data
/// with soft boundaries the two algorithms settle on different centroids,
/// while both remain valid clusterings of the planted structure.
#[test]
fn fuzzy_merge_differs_from_lloyd_but_clusters_sanely() {
    let data = mixture(2000, 6, 67);
    let k = 8;
    let init = InitMethod::PlusPlus.initialize(&data, k, 7).to_matrix();
    let lloyd = Kmeans::new(
        KmeansConfig::new(k).with_init(InitMethod::Given(init.clone())).with_max_iters(60),
    )
    .fit(&data);
    let fuzzy = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init))
            .with_algo(Algorithm::Fuzzy { m: 2.0 })
            .with_threads(3)
            .with_max_iters(60),
    )
    .fit(&data);
    // Same planted structure recovered...
    assert!(agreement(&fuzzy.assignments, &lloyd.assignments, k) > 0.95);
    // ...but the weighted merge moves the centroids measurably.
    let max_delta = fuzzy
        .centroids
        .as_slice()
        .iter()
        .zip(lloyd.centroids.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_delta > 1e-6, "fuzzy update collapsed onto the plain mean");
}

/// The knord allreduce ships the weights lane only for algorithms whose
/// update reads it: Lloyd's per-iteration payload keeps the paper's
/// `(k·d + k + scalars)` shape, weighted algorithms pay exactly `k` more
/// f64 lanes.
#[test]
fn weights_lane_on_wire_only_for_weighted_algorithms() {
    let data = mixture(600, 4, 73);
    let k = 6;
    let init = InitMethod::Forgy.initialize(&data, k, 3).to_matrix();
    let run = |algo: Algorithm| {
        DistKmeans::new(
            DistConfig::new(k, 2, 1)
                .with_init(InitMethod::Given(init.clone()))
                .with_algo(algo)
                .with_pruning(Pruning::None)
                .with_max_iters(4),
        )
        .fit(&data)
    };
    let lloyd = run(Algorithm::Lloyd);
    let fuzzy = run(Algorithm::Fuzzy { m: 2.0 });
    let spherical = run(Algorithm::Spherical);
    let lb = lloyd.kmeans.iters[1].comm_bytes;
    let fb = fuzzy.kmeans.iters[1].comm_bytes;
    assert!(fb > lb, "weighted payload must exceed Lloyd's ({fb} vs {lb})");
    // Ring reduce-scatter + all-gather sends 2·(R−1)·payload/R per rank;
    // with R = 2 that is exactly one payload, so the delta is k lanes.
    assert_eq!(fb - lb, (k * 8) as u64, "weights lane should cost exactly k f64s at R=2");
    // Algorithms whose update ignores weights keep Lloyd's payload shape.
    assert_eq!(
        spherical.kmeans.iters[1].comm_bytes, lb,
        "spherical must not ship the weights lane"
    );
}

/// MTI pruning is force-disabled for non-Euclidean / non-mean algorithms
/// via the eligibility hook: requesting it is harmless and the run reports
/// no pruning activity.
#[test]
fn pruning_request_is_ignored_for_ineligible_algorithms() {
    let data = mixture(800, 6, 71);
    for algo in
        [Algorithm::Spherical, Algorithm::Fuzzy { m: 2.0 }, Algorithm::MiniBatch { batch: 200 }]
    {
        let r = Kmeans::new(
            KmeansConfig::new(6)
                .with_algo(algo.clone())
                .with_pruning(Pruning::Mti) // explicitly requested…
                .with_seed(1)
                .with_threads(2)
                .with_sse(false)
                .with_max_iters(10),
        )
        .fit(&data);
        let p = r.total_prune();
        assert_eq!(p.clause1_rows, 0, "{}: clause 1 fired without eligibility", algo.name());
        assert_eq!(p.clause2_prunes + p.clause3_prunes, 0, "{}: clauses pruned", algo.name());
    }
}

//! Property-based tests over the public API.

use knor::matrix::io::TempFile;
use knor::prelude::*;
use knor_core::quality::agreement;
use knor_core::serial::lloyd_serial;
use proptest::prelude::*;

fn arb_matrix(max_n: usize, max_d: usize) -> impl Strategy<Value = DMatrix> {
    (2usize..max_n, 1usize..max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f64..100.0, n * d)
            .prop_map(move |v| DMatrix::from_vec(v, n, d))
    })
}

/// Runs `kind` over `data` against `k` Forgy centroids and asserts every
/// row's winner and distance bitwise against the serial per-row scan.
fn assert_kernel_is_the_serial_scan(
    data: &DMatrix,
    k: usize,
    seed: u64,
    kind: KernelKind,
) -> Result<(), TestCaseError> {
    let (n, d) = (data.nrow(), data.ncol());
    let cents =
        knor_core::Centroids::from_matrix(&InitMethod::Forgy.initialize(data, k, seed).to_matrix());
    let rk = kind.resolve(k, d, false);
    let (mut best, mut best_dist) = (Vec::new(), Vec::new());
    knor_core::kernel::assign_rows(
        data.as_slice(),
        d,
        &cents,
        &rk,
        &[],
        &mut best,
        &mut best_dist,
        true,
    );
    for r in 0..n {
        let (a, da) = knor_core::distance::nearest(data.row(r), &cents.means, k);
        prop_assert!(best[r] == a as u32, "{kind:?} row {r}: idx {} vs {}", best[r], a);
        prop_assert!(
            best_dist[r].to_bits() == da.to_bits(),
            "{kind:?} row {r}: distance {} vs {}",
            best_dist[r],
            da
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MTI pruning is exact: pruned and unpruned runs walk identical
    /// trajectories on arbitrary data (ties are measure-zero for random
    /// floats).
    #[test]
    fn mti_never_changes_the_result(data in arb_matrix(120, 6), k in 2usize..8) {
        prop_assume!(k <= data.nrow());
        let init = InitMethod::Forgy.initialize(&data, k, 1).to_matrix();
        let base = KmeansConfig::new(k)
            .with_init(InitMethod::Given(init))
            .with_threads(1)
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(30);
        let pruned = Kmeans::new(base.clone().with_pruning(Pruning::Mti)).fit(&data);
        let full = Kmeans::new(base.with_pruning(Pruning::None)).fit(&data);
        prop_assert_eq!(pruned.niters, full.niters);
        prop_assert_eq!(&pruned.assignments, &full.assignments);
        for (a, b) in pruned.centroids.as_slice().iter().zip(full.centroids.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-9_f64.max(b.abs() * 1e-9));
        }
    }

    /// The parallel engine at one thread reproduces serial Lloyd's
    /// bit-for-bit.
    #[test]
    fn one_thread_engine_is_serial(data in arb_matrix(100, 5), k in 1usize..6) {
        prop_assume!(k <= data.nrow());
        let init = InitMethod::Forgy.initialize(&data, k, 2).to_matrix();
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 25, 0.0);
        let par = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_threads(1)
                .with_scheduler(SchedulerKind::Static)
                .with_pruning(Pruning::None)
                .with_max_iters(25),
        )
        .fit(&data);
        prop_assert_eq!(par.assignments, serial.assignments);
        prop_assert_eq!(par.centroids, serial.centroids);
    }

    /// `Auto` and `Scalar`, and the `Tiled` spelling of the certified gemm
    /// scan, are bitwise identical to the serial per-row scan on arbitrary
    /// shapes: remainder dimensions (`d % 4 != 0`), `k == 1`, blocks
    /// smaller than one 4-row group, and `k·d` on both sides of the scalar
    /// cutoff are all covered by the ranges.
    #[test]
    fn auto_and_scalar_kernels_bitwise_match_serial_scan(
        data in arb_matrix(150, 9),
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= data.nrow());
        for kind in [KernelKind::Tiled, KernelKind::Auto, KernelKind::Scalar] {
            assert_kernel_is_the_serial_scan(&data, k, seed, kind)?;
        }
    }

    /// The norm-trick spelling (`KernelKind::NormTrick`) resolves exactly as
    /// `Gemm` does, so its band against the serial scan is zero: winners and
    /// distances match bitwise across the same shape edge cases.
    #[test]
    fn normtrick_kernel_within_tolerance_of_serial_scan(
        data in arb_matrix(150, 9),
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= data.nrow());
        let d = data.ncol();
        let rk = KernelKind::NormTrick.resolve(k, d, false);
        prop_assert_eq!(rk, KernelKind::Gemm.resolve(k, d, false));
        prop_assert_eq!(rk.kind, knor_core::ResolvedKind::Gemm);
        assert_kernel_is_the_serial_scan(&data, k, seed, KernelKind::NormTrick)?;
    }

    /// The certified gemm scan (`Gemm`, and its `Fma` spelling) proves
    /// every winner, so it reproduces the serial scan bitwise — no near-tie
    /// flips, no distance band — across the same shape edge cases.
    #[test]
    fn fused_kernels_within_tolerance_of_serial_scan(
        data in arb_matrix(150, 9),
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= data.nrow());
        for kind in [KernelKind::Gemm, KernelKind::Fma] {
            assert_kernel_is_the_serial_scan(&data, k, seed, kind)?;
        }
    }

    /// SSE never increases across Lloyd's iterations (the monotone
    /// convergence invariant), checked through the serial reference.
    #[test]
    fn lloyds_descends(data in arb_matrix(80, 4), k in 1usize..5) {
        prop_assume!(k <= data.nrow());
        let r = lloyd_serial(&data, k, &InitMethod::Forgy, 3, 20, 0.0);
        // Recompute SSE against the final centroids with optimal
        // assignment: must not beat the reported one by more than epsilon.
        let opt = knor_core::quality::sse_optimal_assignment(&data, &r.centroids);
        prop_assert!(opt <= r.sse.unwrap() * (1.0 + 1e-12) + 1e-9);
    }

    /// Matrix binary format round-trips arbitrary finite data.
    #[test]
    fn matrix_io_round_trips(data in arb_matrix(60, 6)) {
        let path = TempFile::new(format!(
            "knor-prop-io-{}-{}.knor",
            std::process::id(),
            data.nrow() * 31 + data.ncol()
        ));
        matrix_io::write_matrix(&path, &data).unwrap();
        let back = matrix_io::read_matrix(&path).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Thread count never changes the clustering (only the schedule).
    #[test]
    fn thread_count_invariance(seed in 0u64..500, threads in 2usize..6) {
        let data = MixtureSpec::friendster_like(400, 4, seed).generate().data;
        let k = 5;
        let init = InitMethod::Forgy.initialize(&data, k, seed).to_matrix();
        let a = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_threads(1)
                .with_max_iters(40),
        )
        .fit(&data);
        let b = Kmeans::new(
            KmeansConfig::new(k)
                .with_init(InitMethod::Given(init))
                .with_threads(threads)
                .with_max_iters(40),
        )
        .fit(&data);
        prop_assert_eq!(a.niters, b.niters);
        prop_assert!(agreement(&a.assignments, &b.assignments, k) > 0.999);
    }

    /// MTI's exactness invariant: after drift loosening, every row's upper
    /// bound still over-estimates the distance to its assigned centroid —
    /// so a row Clause 1 settles really does keep its nearest centroid.
    #[test]
    fn mti_loosened_bounds_stay_valid(
        data in arb_matrix(60, 4),
        k in 2usize..24,
        seed in 0u64..50,
    ) {
        use knor::core::centroids::{Centroids, LocalAccum};
        use knor::core::distance::{dist, nearest};
        use knor::core::driver::{MtiFilter, RowBounds, RowFilter};
        use knor::core::pruning::{MtiIterState, PruneCounters};

        prop_assume!(k <= data.nrow());
        let (n, d) = (data.nrow(), data.ncol());
        let init = InitMethod::Forgy.initialize(&data, k, seed).to_matrix();
        let cents = Centroids::from_matrix(&init);
        let mut mti = MtiIterState::new(k);
        mti.rebuild(&cents);
        let bounds = RowBounds::new(n);
        // Safety: single-threaded test — this "task" owns every row.
        let rows = unsafe { bounds.claim(0..n, 0) };
        let mut counters = PruneCounters::default();
        let mut accum = LocalAccum::new(k, d);
        // Exact init pass: nearest assignment and its distance as the bound.
        for r in 0..n {
            let v = data.row(r);
            let best = nearest(v, &cents.means, k);
            MtiFilter::new(&cents, &mti).establish(&rows, r, v, best, &mut accum, &mut counters);
        }
        // Move every centroid by a deterministic perturbation; the drifts
        // and thresholds follow, exactly as the coordinator window does.
        let mut moved = init.as_slice().to_vec();
        for (i, x) in moved.iter_mut().enumerate() {
            *x += ((i as f64 * 0.7 + seed as f64) * 1.3).sin() * 1.5;
        }
        let moved = Centroids::from_matrix(&DMatrix::from_vec(moved, k, d));
        mti.update(&cents, &moved);
        for r in 0..n {
            let keep = MtiFilter::new(&moved, &mti).keep(&rows, r, &mut counters);
            let v = data.row(r);
            let a = rows.assign(r) as usize;
            let u = rows.upper(r);
            let ua = dist(v, moved.mean(a));
            prop_assert!(u + 1e-9 >= ua, "row {}: upper {} lost its assignment at {}", r, u, ua);
            if !keep {
                let (best, _) = nearest(v, &moved.means, k);
                prop_assert!(best == a, "clause-1 settled row {} moved to {}", r, best);
            }
        }
    }

    /// Distributed rank count never changes the clustering.
    #[test]
    fn rank_count_invariance(seed in 0u64..200, ranks in 1usize..5) {
        let data = MixtureSpec::friendster_like(300, 4, seed).generate().data;
        let k = 4;
        let init = InitMethod::Forgy.initialize(&data, k, seed ^ 7).to_matrix();
        let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 30, 0.0);
        let dist = DistKmeans::new(
            DistConfig::new(k, ranks, 1)
                .with_init(InitMethod::Given(init))
                .with_max_iters(30),
        )
        .fit(&data);
        prop_assert_eq!(dist.niters, serial.niters);
        prop_assert!(agreement(&dist.assignments, &serial.assignments, k) > 0.999);
    }
}

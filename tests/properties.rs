//! Property-based tests over the public API.

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

    /// The tiled kernel is bitwise identical to the serial per-row scan on
    /// arbitrary shapes: remainder dimensions (`d % 4 != 0`), `k == 1`,
    /// and blocks smaller than one row tile are all covered by the ranges.
    #[test]
    fn tiled_kernel_bitwise_matches_serial_scan(
        data in arb_matrix(150, 9),
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= data.nrow());
        let (n, d) = (data.nrow(), data.ncol());
        let cents = knor_core::Centroids::from_matrix(
            &InitMethod::Forgy.initialize(&data, k, seed).to_matrix(),
        );
        let rk = KernelKind::Tiled.resolve(k, d, false);
        let (mut best, mut best_dist) = (Vec::new(), Vec::new());
        knor_core::kernel::assign_rows(
            data.as_slice(), d, &cents, &rk, &[], &mut best, &mut best_dist, true,
        );
        for r in 0..n {
            let (a, da) = knor_core::distance::nearest(data.row(r), &cents.means, k);
            prop_assert!(best[r] == a as u32, "row {r}: idx {} vs {}", best[r], a);
            prop_assert!(best_dist[r].to_bits() == da.to_bits(), "row {r} distance bits differ");
        }
    }

    /// The norm-trick kernel reproduces serial-scan distances to ≤ 1e-9
    /// relative, across the same shape edge cases.
    #[test]
    fn normtrick_kernel_within_tolerance_of_serial_scan(
        data in arb_matrix(150, 9),
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= data.nrow());
        let (n, d) = (data.nrow(), data.ncol());
        let cents = knor_core::Centroids::from_matrix(
            &InitMethod::Forgy.initialize(&data, k, seed).to_matrix(),
        );
        let mut cnorms = vec![0.0; k];
        knor_core::kernel::centroid_sqnorms(&cents, &mut cnorms);
        let rk = KernelKind::NormTrick.resolve(k, d, false);
        prop_assert_eq!(rk.kind, knor_core::ResolvedKind::NormTrick);
        let (mut best, mut best_dist) = (Vec::new(), Vec::new());
        knor_core::kernel::assign_rows(
            data.as_slice(), d, &cents, &rk, &cnorms, &mut best, &mut best_dist, true,
        );
        for (r, &bd) in best_dist.iter().enumerate().take(n) {
            let (_, da) = knor_core::distance::nearest(data.row(r), &cents.means, k);
            // The cancellation in ‖x‖² − 2x·c + ‖c‖² carries absolute error
            // proportional to the norms, so compare squared distances with
            // a norm-scaled bound (≫ 1e-9 relative whenever the distance is
            // not vanishingly small against the operand magnitudes).
            let xn = knor_core::kernel::sqnorm(data.row(r));
            let cn = cnorms.iter().cloned().fold(0.0f64, f64::max);
            let tol_sq = 1e-12 * (xn + cn + 1.0);
            prop_assert!(
                (bd * bd - da * da).abs() <= tol_sq,
                "row {}: norm-trick {} vs exact {}", r, bd, da
            );
        }
    }

    /// The FMA and blocked-GEMM kernels reproduce serial-scan distances
    /// within the 1e-9 band across the same shape edge cases: remainder
    /// dimensions (`d % 4 != 0`), `k == 1`, and blocks smaller than one
    /// row tile.
    #[test]
    fn fused_kernels_within_tolerance_of_serial_scan(
        data in arb_matrix(150, 9),
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= data.nrow());
        let (n, d) = (data.nrow(), data.ncol());
        let cents = knor_core::Centroids::from_matrix(
            &InitMethod::Forgy.initialize(&data, k, seed).to_matrix(),
        );
        let mut cnorms = vec![0.0; k];
        knor_core::kernel::centroid_sqnorms(&cents, &mut cnorms);
        for kernel in [KernelKind::Fma, KernelKind::Gemm] {
            let rk = kernel.resolve(k, d, false);
            let (mut best, mut best_dist) = (Vec::new(), Vec::new());
            knor_core::kernel::assign_rows(
                data.as_slice(), d, &cents, &rk, &cnorms, &mut best, &mut best_dist, true,
            );
            for r in 0..n {
                let (_, da) = knor_core::distance::nearest(data.row(r), &cents.means, k);
                let bd = best_dist[r];
                // Squared-distance bound: the norm-trick cancellation term
                // plus the fused-rounding 1e-9 relative band.
                let xn = knor_core::kernel::sqnorm(data.row(r));
                let cn = cnorms.iter().cloned().fold(0.0f64, f64::max);
                let tol_sq = 1e-12 * (xn + cn + 1.0) + 1e-9 * da * da;
                prop_assert!(
                    (bd * bd - da * da).abs() <= tol_sq,
                    "{:?} row {}: {} vs exact {}", kernel, r, bd, da
                );
                // Winners may legitimately flip on near-ties, but the
                // chosen centroid must itself sit within the band of the
                // true optimum.
                let c = best[r] as usize;
                let chosen_sq: f64 = data.row(r).iter()
                    .zip(&cents.means[c * d..(c + 1) * d])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                prop_assert!(
                    chosen_sq <= da * da + tol_sq,
                    "{:?} row {}: chosen centroid {} not within band of optimum {}",
                    kernel, r, chosen_sq.sqrt(), da
                );
            }
        }
    }

    /// Autotuner picks depend only on shape and seed, never on thread
    /// count: with an identical (injected, deterministic) prober, a
    /// 1-thread and an N-thread run produce the same tune table and the
    /// same clustering.
    #[test]
    fn autotuner_thread_count_invariance(seed in 0u64..200, threads in 2usize..6) {
        fn det_prober(case: &knor_core::tune::ProbeCase) -> f64 {
            (case.row_tile as f64).log2() * 3.0 + (case.cent_tile as f64 - 16.0).abs()
        }
        // k·d = 72 > the scalar cutoff, so the probed kind takes tiles
        // and the table is guaranteed to gain an entry.
        let data = MixtureSpec::friendster_like(400, 6, seed).generate().data;
        let k = 12;
        let init = InitMethod::Forgy.initialize(&data, k, seed).to_matrix();
        let run = |nthreads: usize| {
            let tuning = knor_core::Tuning::on()
                .with_table(std::sync::Arc::new(knor_core::TuneTable::with_prober(det_prober)))
                .with_seed(7);
            let r = Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_threads(nthreads)
                    .with_max_iters(20)
                    .with_tuning(tuning.clone()),
            )
            .fit(&data);
            (r, tuning.table.to_text())
        };
        let (a, ta) = run(1);
        let (b, tb) = run(threads);
        prop_assert!(ta.lines().count() > 1, "tuner never probed:\n{}", ta);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(a.niters, b.niters);
        prop_assert!(agreement(&a.assignments, &b.assignments, k) > 0.999);
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
        let mut path = std::env::temp_dir();
        path.push(format!(
            "knor-prop-io-{}-{}.knor",
            std::process::id(),
            data.nrow() * 31 + data.ncol()
        ));
        matrix_io::write_matrix(&path, &data).unwrap();
        let back = matrix_io::read_matrix(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
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

    /// Per-node centroid replication never changes the result: on
    /// arbitrary data and arbitrary synthetic node splits, the replicated
    /// run is **bitwise** the shared-copy run (assignments, centroids and
    /// trajectory) — the op-log publish is a copy of the canonical merge,
    /// never a recomputation.
    #[test]
    fn replication_invariance(
        data in arb_matrix(120, 6),
        k in 2usize..8,
        nodes in 1usize..5,
    ) {
        prop_assume!(k <= data.nrow());
        let init = InitMethod::Forgy.initialize(&data, k, 4).to_matrix();
        let run = |rep: Replication| {
            Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_threads(4)
                    .with_topology(knor::numa::Topology::synthetic(nodes, 4usize.div_ceil(nodes)))
                    .with_scheduler(SchedulerKind::Static)
                    .with_replication(rep)
                    .with_max_iters(25),
            )
            .fit(&data)
        };
        let off = run(Replication::Off);
        let on = run(Replication::On);
        prop_assert_eq!(on.niters, off.niters);
        prop_assert_eq!(&on.assignments, &off.assignments);
        prop_assert_eq!(&on.centroids, &off.centroids);
        prop_assert!(on.numa.replicated && !off.numa.replicated);
    }

    /// Distributed rank count never changes the clustering.
    /// Yinyang's exactness invariant: after drift loosening, every group
    /// lower bound still under-estimates the true distance to every
    /// non-assigned centroid of its group (and the loosened upper bound
    /// still over-estimates the assigned distance) — so a row the global
    /// filter settles really does keep its nearest centroid.
    #[test]
    fn yinyang_loosened_bounds_stay_valid(
        data in arb_matrix(60, 4),
        k in 2usize..24,
        seed in 0u64..50,
    ) {
        use knor::core::centroids::{Centroids, LocalAccum};
        use knor::core::distance::{dist, nearest};
        use knor::core::driver::{RowBounds, RowFilter, YinyangFilter};
        use knor::core::pruning::{PruneCounters, YinyangState};

        prop_assume!(k <= data.nrow());
        let (n, d) = (data.nrow(), data.ncol());
        let init = InitMethod::Forgy.initialize(&data, k, seed).to_matrix();
        let cents = Centroids::from_matrix(&init);
        let mut yy = YinyangState::group(&cents);
        let bounds = RowBounds::new(n, yy.t());
        // Safety: single-threaded test — this "task" owns every row.
        let rows = unsafe { bounds.claim(0..n) };
        let mut counters = PruneCounters::default();
        let mut accum = LocalAccum::new(k, d);
        // Exact init pass: nearest assignment + per-group bounds.
        for r in 0..n {
            let v = data.row(r);
            let best = nearest(v, &cents.means, k);
            YinyangFilter::new(&cents, &yy).establish(&rows, r, v, best, &mut accum, &mut counters);
        }
        // Move every centroid by a deterministic perturbation and record
        // the true drifts, exactly as the coordinator window does.
        let mut moved = init.as_slice().to_vec();
        for (i, x) in moved.iter_mut().enumerate() {
            *x += ((i as f64 * 0.7 + seed as f64) * 1.3).sin() * 1.5;
        }
        let moved = Centroids::from_matrix(&DMatrix::from_vec(moved, k, d));
        for c in 0..k {
            yy.drift[c] = dist(cents.mean(c), moved.mean(c));
        }
        yy.update_group_drift();
        for r in 0..n {
            let keep = YinyangFilter::new(&cents, &yy).keep(&rows, r, &mut counters);
            let v = data.row(r);
            let a = rows.assign(r) as usize;
            for c in 0..k {
                if c == a {
                    continue;
                }
                let lb = rows.lower(r, yy.group_of[c] as usize);
                let true_d = dist(v, moved.mean(c));
                prop_assert!(
                    lb <= true_d + 1e-9,
                    "row {}: loosened bound {} overshot d(v, c{}) = {}", r, lb, c, true_d
                );
            }
            let u = rows.upper(r);
            let ua = dist(v, moved.mean(a));
            prop_assert!(u + 1e-9 >= ua, "row {}: upper {} lost its assignment at {}", r, u, ua);
            if !keep {
                let (best, _) = nearest(v, &moved.means, k);
                prop_assert!(best == a, "clause-1 settled row {} moved to {}", r, best);
            }
        }
    }

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

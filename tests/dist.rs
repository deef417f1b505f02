//! knord integration tests: the distributed engine must compute the same
//! clustering as serial Lloyd's at any rank count, and the choice of
//! all-reduce transport (ring vs star) must not change a single bit of the
//! result.

use knor::prelude::*;
use knor_core::quality::agreement;
use knor_core::serial::lloyd_serial;
use knor_core::IterStats;

fn workload(n: usize, d: usize, seed: u64) -> DMatrix {
    MixtureSpec::friendster_like(n, d, seed).generate().data
}

#[test]
fn rank_counts_1_2_4_match_serial() {
    let data = workload(2400, 8, 51);
    let k = 10;
    let init = InitMethod::PlusPlus.initialize(&data, k, 5).to_matrix();
    let serial = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 80, 0.0);
    assert!(serial.converged, "reference run must converge");

    for ranks in [1usize, 2, 4] {
        let dist = DistKmeans::new(
            DistConfig::new(k, ranks, 2)
                .with_init(InitMethod::Given(init.clone()))
                .with_max_iters(80)
                .with_sse(true),
        )
        .fit(&data)
        .kmeans;
        assert!(dist.converged, "R={ranks} did not converge");
        assert_eq!(dist.niters, serial.niters, "R={ranks} trajectory diverged");
        assert!(
            agreement(&dist.assignments, &serial.assignments, k) > 0.999,
            "R={ranks} clustering disagrees with serial"
        );
        let rel = (dist.sse.unwrap() - serial.sse.unwrap()).abs() / serial.sse.unwrap();
        assert!(rel < 1e-9, "R={ranks} SSE off by {rel}");
    }
}

#[test]
fn ring_and_star_give_bitwise_identical_centroids() {
    let data = workload(1600, 6, 52);
    let k = 8;
    let init = InitMethod::PlusPlus.initialize(&data, k, 9).to_matrix();
    for ranks in [2usize, 3, 4] {
        let run = |algo: ReduceAlgo| {
            DistKmeans::new(
                DistConfig::new(k, ranks, 2)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_reduce(algo)
                    // Static scheduling pins rows to workers, so the only
                    // varying component between the two runs is the
                    // all-reduce transport — exactly what is under test.
                    // (Stealing schedulers reshuffle which worker sums
                    // which row, which perturbs FP merge order within a
                    // rank regardless of the collective.)
                    .with_scheduler(SchedulerKind::Static)
                    .with_max_iters(60),
            )
            .fit(&data)
            .kmeans
        };
        let ring = run(ReduceAlgo::Ring);
        let star = run(ReduceAlgo::Star);
        assert_eq!(ring.niters, star.niters, "R={ranks}: iteration counts differ");
        assert_eq!(ring.assignments, star.assignments, "R={ranks}: assignments differ");
        for (i, (a, b)) in
            ring.centroids.as_slice().iter().zip(star.centroids.as_slice()).enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "R={ranks}: centroid element {i} differs bitwise: {a} vs {b}"
            );
        }
    }
}

#[test]
fn pruning_never_changes_the_distributed_result() {
    let data = workload(2000, 8, 53);
    let k = 12;
    let init = InitMethod::PlusPlus.initialize(&data, k, 2).to_matrix();
    let base = DistConfig::new(k, 3, 2).with_init(InitMethod::Given(init)).with_max_iters(60);
    let knord = DistKmeans::new(base.clone()).fit(&data).kmeans;
    let knord_minus = DistKmeans::new(base.with_pruning(Pruning::None)).fit(&data).kmeans;
    assert_eq!(knord.niters, knord_minus.niters);
    // FP merge order differs between delta and full accumulation: compare
    // clusterings, not bits.
    assert!(agreement(&knord.assignments, &knord_minus.assignments, k) > 0.999);
    // knord must actually prune (Clause 1 saves both data access and the
    // per-row compute on every rank).
    let p = knord.total_prune();
    assert!(p.clause1_rows > 0);
    assert!(p.dist_computations < knord_minus.total_prune().dist_computations / 2);
}

#[test]
fn per_iteration_comm_is_flat_in_n() {
    // knord's wire traffic per iteration is O(k·d·R), independent of n —
    // the property that makes the decentralized design scale (Fig. 11).
    let k = 6;
    let small = workload(600, 8, 54);
    let large = workload(4800, 8, 54);
    let run = |data: &DMatrix| {
        DistKmeans::new(DistConfig::new(k, 3, 1).with_seed(7).with_max_iters(12)).fit(data).kmeans
    };
    let a = run(&small);
    let b = run(&large);
    let per_iter = |r: &KmeansResult| r.iters.iter().map(|i| i.max_rank_comm_bytes).max().unwrap();
    let small_comm = per_iter(&a);
    let large_comm = per_iter(&b);
    assert_eq!(
        small_comm, large_comm,
        "per-iteration reduce traffic must not depend on n: {small_comm} vs {large_comm}"
    );
}

/// knord is knori's routine on every rank, and reports through the same
/// record: at R = 1 its `KmeansResult` is knori's, field for field — the
/// clustering, the SSE and every per-iteration counter but the wall time
/// and the queue's steal counts (knord places its workers by its own
/// topology). knori's wire counters all read 0, and so do one rank's. At
/// R = 2 the rank-local commit counters are summed over the ranks, so the
/// rows each iteration committed still add up to knori's.
#[test]
fn one_rank_knord_reports_knori_s_record() {
    let data = workload(1800, 8, 61);
    let k = 12; // k·d = 96: the gemm kernel, so `panel_packs` counts
    let init = InitMethod::Forgy.initialize(&data, k, 3).to_matrix();
    for pruning in [Pruning::Mti, Pruning::None] {
        let spec = |ranks: usize| {
            DistConfig::new(k, ranks, 2)
                .with_init(InitMethod::Given(init.clone()))
                .with_pruning(pruning)
                .with_scheduler(SchedulerKind::Static)
                .with_max_iters(60)
                .with_sse(true)
        };
        let knori = Kmeans::new(spec(1).with_ext(())).fit(&data);
        let knord = DistKmeans::new(spec(1)).fit(&data).kmeans;
        let what = format!("{pruning:?}");
        assert_eq!(knord.assignments, knori.assignments, "{what}");
        assert_eq!(knord.centroids, knori.centroids, "{what}: centroid bits");
        assert_eq!((knord.niters, knord.converged), (knori.niters, knori.converged), "{what}");
        assert_eq!(knord.sse.map(f64::to_bits), knori.sse.map(f64::to_bits), "{what}");
        let counters = |r: &KmeansResult| -> Vec<IterStats> {
            let unclocked =
                |it: &IterStats| IterStats { wall_ns: 0, queue: Default::default(), ..*it };
            r.iters.iter().map(unclocked).collect()
        };
        assert_eq!(counters(&knord), counters(&knori), "{what}");
        let wire = |it: &IterStats| (it.comm_bytes, it.max_rank_comm_bytes, it.modeled_comm_ns);
        assert!(knori.iters.iter().all(|it| wire(it) == (0, 0, 0.0)), "{what}: knori's wire");
        assert!(knori.total_commit().panel_packs > 0, "{what}: gemm never ran");

        let two = DistKmeans::new(spec(2)).fit(&data).kmeans;
        assert_eq!(two.niters, knori.niters, "{what}: R = 2 trajectory");
        let rows = |it: &IterStats| it.commit.borrowed_rows + it.commit.gathered_rows;
        let im_rows: Vec<u64> = knori.iters.iter().map(rows).collect();
        assert_eq!(two.iters.iter().map(rows).collect::<Vec<_>>(), im_rows, "{what}: R = 2");
        assert!(two.iters.iter().all(|it| it.comm_bytes > 0), "{what}: R = 2 sends");
    }
}

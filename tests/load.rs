//! Load into place: a run that reads its own input into the placed layout
//! (`Kmeans::fit_file`) is, bit for bit, the run over a matrix somebody
//! else read (`Kmeans::fit`), and the placed layout a file loads into is
//! the one a matrix copies into.

use knor::matrix::io::{MatrixFile, TempFile};
use knor::matrix::Rows;
use knor::numa::{NumaMatrix, Placement, Topology};
use knor::prelude::*;
use proptest::prelude::*;

fn tmp(name: &str) -> TempFile {
    TempFile::new(format!("knor-load-{}-{name}", std::process::id()))
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Everything a run reports except wall times (and `load`, which only the
/// file run has).
fn assert_same_run(a: &KmeansResult, b: &KmeansResult, what: &str) {
    assert_eq!(bits(a.centroids.as_slice()), bits(b.centroids.as_slice()), "{what}: centroids");
    assert_eq!(a.assignments, b.assignments, "{what}: assignments");
    assert_eq!((a.niters, a.converged), (b.niters, b.converged), "{what}: niters");
    assert_eq!(a.sse.map(f64::to_bits), b.sse.map(f64::to_bits), "{what}: sse");
    assert_eq!(a.memory, b.memory, "{what}: memory");
    assert_eq!(a.numa, b.numa, "{what}: numa");
    assert_eq!(a.iters.len(), b.iters.len(), "{what}: iters");
    for (x, y) in a.iters.iter().zip(&b.iters) {
        let counters = |i: &knor::IterStats| {
            (i.iter, i.reassigned, i.rows_accessed, i.prune, i.queue, i.max_drift.to_bits())
        };
        assert_eq!(counters(x), counters(y), "{what}: iteration {}", x.iter);
    }
}

fn topologies() -> [(&'static str, Option<Topology>); 3] {
    [
        ("detected", None),
        ("synthetic(2,2)", Some(Topology::synthetic(2, 2))),
        ("synthetic(4,1)", Some(Topology::synthetic(4, 1))),
    ]
}

#[test]
fn fit_file_is_bitwise_fit_of_the_read_matrix() {
    // n not divisible by T; n < 2T (some blocks hold one row, k-means++
    // sees one chunk); d = 1.
    let shapes = [(103usize, 5usize, 4usize), (5, 3, 2), (50, 1, 3)];
    let mut runs = 0;
    for (si, &(n, d, k)) in shapes.iter().enumerate() {
        let path = tmp(&format!("shape{si}.knor"));
        let data = MixtureSpec::friendster_like(n, d, 40 + si as u64).generate().data;
        matrix_io::write_matrix(&path, &data).unwrap();
        let read = matrix_io::read_matrix(&path).unwrap();
        for pruning in [Pruning::None, Pruning::Mti] {
            for init in [InitMethod::Forgy, InitMethod::PlusPlus, InitMethod::RandomPartition] {
                for algo in [Algorithm::Lloyd, Algorithm::MiniBatch { batch: (n / 3).max(1) }] {
                    for threads in 1..=3 {
                        for (tname, topo) in topologies() {
                            let mut cfg = KmeansConfig::new(k)
                                .with_seed(9)
                                .with_pruning(pruning)
                                .with_init(init.clone())
                                .with_algo(algo.clone())
                                .with_threads(threads)
                                .with_scheduler(SchedulerKind::Static)
                                .with_max_iters(8);
                            if let Some(t) = topo {
                                cfg = cfg.with_topology(t);
                            }
                            let km = Kmeans::new(cfg);
                            let from_file = km.fit_file(&path).unwrap();
                            let what = format!(
                                "{n}x{d} {} {init:?} {} T={threads} {tname}",
                                pruning.name(),
                                algo.name()
                            );
                            assert_same_run(&from_file, &km.fit(&read), &what);
                            let load = from_file.load.expect("a file run reports its load");
                            assert_eq!((load.bytes, load.threads), ((n * d * 8) as u64, threads));
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 3 * 2 * 3 * 2 * 3 * 3);
}

#[test]
fn pooled_kmeanspp_over_blocks_picks_what_it_picks_over_a_matrix() {
    // Several k-means++ chunks per block and chunks that straddle blocks:
    // the pooled D² scan walks the placed layout run by run.
    let (n, d, k) = (3 * 4096 + 77, 3, 6);
    let path = tmp("pp.knor");
    let data = MixtureSpec::friendster_like(n, d, 3).generate().data;
    matrix_io::write_matrix(&path, &data).unwrap();
    for (tname, topo) in topologies() {
        let mut cfg = KmeansConfig::new(k)
            .with_seed(5)
            .with_init(InitMethod::PlusPlus)
            .with_threads(3)
            .with_scheduler(SchedulerKind::Static)
            .with_max_iters(4);
        if let Some(t) = topo {
            cfg = cfg.with_topology(t);
        }
        let km = Kmeans::new(cfg);
        assert_same_run(&km.fit_file(&path).unwrap(), &km.fit(&data), tname);
    }
}

#[test]
fn kmeanspp_over_a_placed_layout_is_the_flat_matrix_seeding() {
    // Block boundaries inside a 64-row skip-mask block and inside a
    // 4096-row D² chunk: the mask, the survivors and the sum walk the
    // layout run by run, and every pick and count is the flat scan's.
    let (n, d, threads) = (3 * 4096 + 77, 3, 3);
    let data = MixtureSpec::friendster_like(n, d, 11).generate().data;
    for (tname, topo) in [
        ("synthetic(4,1)", Topology::synthetic(4, 1)),
        ("synthetic(2,2)", Topology::synthetic(2, 2)),
    ] {
        let placement = Placement::new(&topo, n, threads);
        let inside = placement.thread_ranges()[1..]
            .iter()
            .filter(|r| r.start % 64 != 0 && r.start % 4096 != 0)
            .count();
        assert!(inside > 0, "{tname}: no block boundary inside a mask block and a chunk");
        let placed = NumaMatrix::from_dmatrix(&topo, &placement, &data);
        for (k, seed) in [(6, 5), (24, 17)] {
            let pp = InitMethod::PlusPlus;
            let (flat, flat_stats) = pp.initialize_with_stats(&data, k, seed, threads);
            let over = pp.initialize_parallel(&placed, k, seed, threads);
            let over_stats = pp.initialize_with_stats(&placed, k, seed, threads).1;
            let what = format!("{tname} k={k} seed={seed}");
            assert_eq!(bits(&over.means), bits(&flat.means), "{what}: centroids");
            assert_eq!(over_stats.dists, flat_stats.dists, "{what}: dists");
            assert!(flat_stats.dists < ((n - 1) * (k - 1)) as u64, "{what}: nothing skipped");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A file loads into the layout its matrix copies into.
    #[test]
    fn loaded_layout_is_the_copied_layout(
        (n, d) in (1usize..400, 1usize..7),
        (threads, nodes) in (1usize..9, 1usize..5),
    ) {
        let path = tmp(&format!("prop-{n}x{d}-{threads}on{nodes}.knor"));
        let m = DMatrix::from_vec((0..n * d).map(|x| x as f64 * 0.25 - 3.0).collect(), n, d);
        matrix_io::write_matrix(&path, &m).unwrap();
        let topo = Topology::synthetic(nodes, 2);
        let placement = Placement::new(&topo, n, threads);
        let file = MatrixFile::open(&path).unwrap();
        let loaded = NumaMatrix::load(&topo, &placement, &file).unwrap();
        let copied = NumaMatrix::from_dmatrix(&topo, &placement, &m);
        prop_assert_eq!(&loaded.to_dmatrix(), &m);
        prop_assert_eq!(loaded.heap_bytes(), copied.heap_bytes());
        for r in 0..n {
            prop_assert_eq!(loaded.row(r), copied.row(r));
            prop_assert_eq!(loaded.node_of_row(r), copied.node_of_row(r));
        }
        // Runs tile any range in order, whatever blocks it crosses.
        let (lo, hi) = (n / 3, n - n / 4);
        let walked: Vec<f64> = loaded.rows_in(lo..hi).flatten().copied().collect();
        prop_assert_eq!(&walked[..], &m.as_slice()[lo * d..hi * d]);
    }
}

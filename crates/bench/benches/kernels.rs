//! Micro-benchmarks of the hot kernels: distance, nearest-centroid scan,
//! MTI clause evaluation, and the per-thread merge reduction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use knor_core::centroids::{Centroids, LocalAccum};
use knor_core::distance::{dist, nearest, sqdist};
use knor_core::pruning::{mti_assign, MtiIterState, PruneCounters};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn vecs(d: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ((0..d).map(|_| rng.gen()).collect(), (0..d).map(|_| rng.gen()).collect())
}

fn bench_distance(c: &mut Criterion) {
    let mut g = c.benchmark_group("distance");
    for d in [8usize, 32, 64] {
        let (a, b) = vecs(d, 1);
        g.bench_with_input(BenchmarkId::new("sqdist", d), &d, |bench, _| {
            bench.iter(|| sqdist(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("dist", d), &d, |bench, _| {
            bench.iter(|| dist(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_nearest_and_mti(c: &mut Criterion) {
    let mut g = c.benchmark_group("assign");
    let d = 16usize;
    for k in [10usize, 50, 100] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut cents = Centroids::zeros(k, d);
        for x in cents.means.iter_mut() {
            *x = rng.gen_range(-8.0..8.0);
        }
        let mut state = MtiIterState::new(k);
        state.update(&cents.clone(), &cents);
        let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let (a, da) = nearest(&v, &cents.means, k);

        g.bench_with_input(BenchmarkId::new("full_scan", k), &k, |bench, &k| {
            bench.iter(|| nearest(black_box(&v), black_box(&cents.means), k))
        });
        g.bench_with_input(BenchmarkId::new("mti", k), &k, |bench, _| {
            bench.iter(|| {
                let mut counters = PruneCounters::default();
                mti_assign(black_box(&v), &cents, &state, a, da, &mut counters)
            })
        });
    }
    g.finish();
}

fn bench_blocked_assign(c: &mut Criterion) {
    use knor_core::kernel::{assign_rows, centroid_sqnorms, KernelKind};
    let mut g = c.benchmark_group("blocked_assign");
    let (m, d) = (512usize, 32usize);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let block: Vec<f64> = (0..m * d).map(|_| rng.gen_range(-8.0..8.0)).collect();
    for k in [16usize, 64] {
        let mut cents = Centroids::zeros(k, d);
        for x in cents.means.iter_mut() {
            *x = rng.gen_range(-8.0..8.0);
        }
        let mut cnorms = vec![0.0; k];
        centroid_sqnorms(&cents, &mut cnorms);
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        for kind in [KernelKind::Scalar, KernelKind::Tiled, KernelKind::Gemm] {
            let rk = kind.resolve(k, d, false);
            g.bench_with_input(
                BenchmarkId::new(format!("{kind:?}").to_lowercase(), k),
                &k,
                |bench, _| {
                    bench.iter(|| {
                        assign_rows(
                            black_box(&block),
                            d,
                            black_box(&cents),
                            &rk,
                            &cnorms,
                            &mut best,
                            &mut dist,
                            true,
                        );
                        dist[0]
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    // The end-of-iteration reduction: T accumulators of k x d.
    let mut g = c.benchmark_group("merge");
    let (k, d) = (50usize, 32usize);
    for t in [4usize, 16, 48] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let accums: Vec<LocalAccum> = (0..t)
            .map(|_| {
                let mut a = LocalAccum::new(k, d);
                for x in a.sums.iter_mut() {
                    *x = rng.gen();
                }
                a
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("serial_fold", t), &t, |bench, _| {
            bench.iter(|| {
                let mut out = LocalAccum::new(k, d);
                for a in &accums {
                    out.merge(black_box(a));
                }
                out
            })
        });
        g.bench_with_input(BenchmarkId::new("dim_sliced_quarter", t), &t, |bench, _| {
            bench.iter(|| {
                // One worker's slice of the dimension-sliced merge.
                let slice = 0..(k * d / 4);
                let mut out = vec![0.0f64; slice.len()];
                for (o, j) in out.iter_mut().zip(slice.clone()) {
                    let mut s = 0.0;
                    for a in &accums {
                        s += a.sums[j];
                    }
                    *o = s;
                }
                out
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_distance, bench_nearest_and_mti, bench_blocked_assign, bench_merge
);
criterion_main!(benches);

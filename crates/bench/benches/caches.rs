//! Cache benchmarks: page-cache hit/miss paths and row-cache lookup, plus
//! the lazy vs fixed refresh ablation at the policy level.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use knor_safs::PageCache;
use knor_sem::{RefreshSchedule, RowCache};

fn bench_page_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_cache");
    let page = vec![7u8; 4096];
    for shards in [1usize, 4, 16] {
        let cache = PageCache::new(64 << 20, 4096, shards);
        for p in 0..1000u64 {
            cache.insert(p, &page);
        }
        let mut out = vec![0u8; 4096];
        g.bench_with_input(BenchmarkId::new("hit", shards), &shards, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 1000;
                black_box(cache.get(i, &mut out))
            })
        });
        g.bench_with_input(BenchmarkId::new("miss", shards), &shards, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                black_box(cache.get(1_000_000 + i, &mut out))
            })
        });
    }
    g.finish();
}

fn bench_row_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_cache");
    let d = 32usize;
    let cache = RowCache::new(64 << 20, 100_000, d, 4);
    // The cache is driven a task at a time, as the SEM plane drives it.
    let task = 256usize;
    let data = vec![1.5f64; task * d];
    let idx: Vec<usize> = (0..task).collect();
    let rows_from = |first: usize| -> Vec<usize> { (first..first + task).collect() };
    for first in (0..10_000).step_by(task) {
        cache.insert_batch(&rows_from(first), &idx, &data);
    }
    let (mut out, mut misses) = (vec![0.0f64; task * d], Vec::with_capacity(task));
    for (name, base) in [("hit_256", 0usize), ("miss_256", 50_000)] {
        g.bench_function(name, |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + task) % 9_000;
                misses.clear();
                black_box(cache.get_batch(&rows_from(base + i), &mut out, &mut misses))
            })
        });
    }
    g.bench_function("insert_256", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + task) % 90_000;
            cache.insert_batch(&rows_from(i), &idx, black_box(&data))
        })
    });
    g.finish();
}

fn bench_refresh_schedules(c: &mut Criterion) {
    // How many refreshes (full flush+repopulate costs) each policy pays
    // over a 200-iteration run.
    let mut g = c.benchmark_group("refresh_schedule");
    g.bench_function("lazy_200_iters", |b| {
        b.iter(|| {
            let mut s = RefreshSchedule::lazy(5);
            (0..200).filter(|&i| s.should_refresh(i)).count()
        })
    });
    g.bench_function("fixed_200_iters", |b| {
        b.iter(|| {
            let mut s = RefreshSchedule::fixed(5);
            (0..200).filter(|&i| s.should_refresh(i)).count()
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_page_cache, bench_row_cache, bench_refresh_schedules
);
criterion_main!(benches);

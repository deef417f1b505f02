//! Steady-state allocation discipline: once an engine's buffers are warm,
//! extra iterations must not touch the heap.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary. Two knori runs differ only in their iteration cap; since every
//! per-iteration buffer (kernel scratch, merge staging, queue partitions,
//! stats vectors) is allocated up front or grow-only, the longer run must
//! perform exactly as many allocations as the shorter one. knors gets the
//! same treatment: its request path (page probe, merged reads, row decode,
//! row-cache lookups) works out of reused buffers, so extra iterations
//! cost a small constant, not allocations per fetched page.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use knor_core::{InitMethod, KernelKind, Kmeans, KmeansConfig, Pruning};
use knor_sched::SchedulerKind;
use knor_sem::{SemConfig, SemInit, SemKmeans};
use knor_workloads::uniform_matrix;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counter is the process's: the tests that read it take turns.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn fit_alloc_count(data: &knor_matrix::DMatrix, init: &knor_matrix::DMatrix, iters: usize) -> u64 {
    let solver = Kmeans::new(
        KmeansConfig::new(init.nrow())
            .with_init(InitMethod::Given(init.clone()))
            .with_threads(2)
            .with_scheduler(SchedulerKind::Static)
            .with_pruning(Pruning::None)
            .with_kernel(KernelKind::Tiled)
            .with_task_size(256)
            .with_sse(false)
            .with_max_iters(iters),
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = solver.fit(data);
    let after = ALLOCS.load(Ordering::Relaxed);
    // The run must actually execute all requested iterations, or the
    // comparison below proves nothing.
    assert_eq!(r.niters, iters, "workload converged early; pick harder data");
    after - before
}

#[test]
fn steady_state_iterations_allocate_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Uniform noise with k = 24 keeps reassignments churning well past the
    // iteration caps used here.
    let data = uniform_matrix(4096, 16, 7);
    let init = InitMethod::Forgy.initialize(&data, 24, 3).to_matrix();

    // Warm up once (lazy runtime state: thread-local init, feature
    // detection, stdio) so both measured runs see identical conditions.
    let _ = fit_alloc_count(&data, &init, 4);

    let short = fit_alloc_count(&data, &init, 4);
    let long = fit_alloc_count(&data, &init, 16);
    assert_eq!(
        long,
        short,
        "12 extra iterations allocated {} times — the steady-state hot path must stay \
         allocation-free",
        long - short
    );
}

fn sem_alloc_count(file: &std::path::Path, init: &knor_matrix::DMatrix, iters: usize) -> u64 {
    // Caches at a fifth of the 512 KiB file each, so every iteration goes
    // to the device for most of its pages and evicts as it goes.
    let solver = SemKmeans::new(
        SemConfig::new(init.nrow())
            .with_init(SemInit::Given(init.clone()))
            .with_threads(2)
            .with_scheduler(SchedulerKind::Static)
            .with_task_size(256)
            .with_page_size(512)
            .with_page_cache_bytes(100 << 10)
            .with_row_cache_bytes(100 << 10)
            .with_max_iters(iters),
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = solver.fit(file).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(r.kmeans.niters, iters, "workload converged early; pick harder data");
    let fetched: u64 = r.io[9.min(iters)..].iter().map(|i| i.page_misses).sum();
    assert!(iters <= 9 || fetched > 1000, "the extra iterations must fetch pages: {fetched}");
    after - before
}

#[test]
fn steady_state_sem_iterations_allocate_a_small_constant() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let data = uniform_matrix(4096, 16, 7);
    let init = InitMethod::Forgy.initialize(&data, 24, 3).to_matrix();
    let mut file = std::env::temp_dir();
    file.push(format!("knor-alloc-sem-{}.knor", std::process::id()));
    knor_matrix::io::write_matrix(&file, &data).unwrap();

    let _ = sem_alloc_count(&file, &init, 9);
    // The row cache refreshes at iteration 5 and next at 15: iterations
    // 9..12 are steady state.
    let short = sem_alloc_count(&file, &init, 9);
    let long = sem_alloc_count(&file, &init, 12);
    std::fs::remove_file(&file).unwrap();
    assert!(
        long <= short + 64,
        "3 extra knors iterations allocated {} times — the request path must reuse its buffers",
        long - short
    );
}

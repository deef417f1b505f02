//! The persistent, NUMA-bound predict worker pool.
//!
//! Queries arrive as contiguous row blocks; the pool splits them into
//! chunks and routes every chunk through the kernel layer
//! ([`knor_core::kernel::assign_rows_packed`], against the panel the model
//! packed at registration) — the same certified gemm scan the training
//! engines use, so predict throughput inherits every training-kernel
//! optimization and stays **bitwise identical** to the serial per-row
//! [`knor_core::distance::nearest`] scan (every kernel is exact, and chunk
//! boundaries cannot change per-row results).
//!
//! Threads are spawned once, bound round-robin across NUMA nodes (the
//! paper's node-granularity binding, not core pinning), and live for the
//! pool's lifetime; per-worker scratch is grow-only, so steady-state
//! predict calls do no per-row allocation. A worker that panics mid-chunk
//! is caught (`catch_unwind`), the call reports an error instead of
//! deadlocking, and the worker keeps serving later calls.
//!
//! **One-chunk calls run on the calling thread.** A call the chunk rule
//! would not split (`m` ≤ 64 rows at the default cap) has no parallelism to
//! gain from the pool, and the hand-off — an `Arc`'d call context, a channel
//! send, two cross-thread wake-ups and a condvar latch, 4–47 µs measured —
//! costs more than the scan itself (64 rows × k = 64 × d = 32 ≈ 15 µs; one
//! row ≈ 0.25 µs). Such a call scans on the caller's thread with a
//! thread-local [`Scratch`], through the same [`scan_chunk`] and under the
//! same `catch_unwind` + panic counter as a pool chunk, so answers are
//! bitwise identical. (DESIGN.md §9.)
//!
//! Every worker scans the registry's one copy of the model: the centroid
//! table is small, read-only and cache-resident after its first chunk
//! (DESIGN.md §12).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crossbeam_channel::{unbounded, Receiver, Sender};
use knor_core::kernel::assign_rows_packed;
use knor_core::{Normalization, ResolvedKernel};
use knor_matrix::shared::SharedRows;
use knor_numa::bind::bind_current_thread;
use knor_numa::{NodeId, Topology};

use crate::registry::{Model, ModelEntry};
use crate::stats::Clock;

/// Wall-time decomposition of one predict call on the injected clock
/// (all zero when no clock was passed): chunk fan-out onto the task
/// channel, worker scan time including queue wait, and output
/// collection. A one-chunk call, which runs on the calling thread, has no
/// fan-out: `dispatch_ns` ≈ 0, `kernel_ns` is the scan, `reply_ns` the
/// copy out of the scratch. The request's `enqueue` phase (lookup + kernel
/// resolution) happens before the pool and is timed by the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictTiming {
    /// Sending every chunk onto the task channel, ns.
    pub dispatch_ns: u64,
    /// Last chunk send → latch close (queue wait + kernel scans), ns.
    pub kernel_ns: u64,
    /// Latch close → outputs snapshotted, ns.
    pub reply_ns: u64,
}

/// Grow-only per-thread buffers (staged/normalized rows + kernel outputs).
#[derive(Default)]
struct Scratch {
    data: Vec<f64>,
    best: Vec<u32>,
    dist: Vec<f64>,
}

thread_local! {
    /// The calling thread's scratch for one-chunk calls.
    static INLINE_SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Assign the rows of one chunk (`rows.len() / d` of them) to their nearest
/// centroid of `model`, into `scratch.best` / `scratch.dist` — the one scan
/// both the pool workers and the inline path run.
fn scan_chunk(rows: &[f64], d: usize, rk: &ResolvedKernel, model: &Model, scratch: &mut Scratch) {
    let block: &[f64] = match model.normalization {
        Normalization::None => rows,
        norm => {
            // Stage the normalized rows; same arithmetic as training.
            scratch.data.clear();
            scratch.data.resize(rows.len(), 0.0);
            for (src, dst) in rows.chunks_exact(d).zip(scratch.data.chunks_exact_mut(d)) {
                norm.apply(src, dst);
            }
            &scratch.data
        }
    };
    let (best, dist) = (&mut scratch.best, &mut scratch.dist);
    assign_rows_packed(block, d, &model.centroids, rk, &model.panel, best, dist, true);
}

enum Task {
    Chunk { ctx: Arc<CallCtx>, lo: usize, hi: usize },
    Shutdown,
}

/// The caller's query block, shared with workers by raw pointer. Valid for
/// the duration of one predict call: the submitting thread blocks on the
/// call's latch before the borrow it was built from expires.
struct RawRows {
    ptr: *const f64,
    len: usize,
}

// Safety: see `RawRows` — the pointee outlives every worker access because
// `predict` joins the latch before returning, and workers only read.
unsafe impl Send for RawRows {}
unsafe impl Sync for RawRows {}

/// Shared state of one in-flight predict call.
struct CallCtx {
    entry: Arc<ModelEntry>,
    rk: ResolvedKernel,
    queries: RawRows,
    d: usize,
    out_assign: SharedRows<u32>,
    out_dist: SharedRows<f64>,
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl CallCtx {
    /// Process rows `[lo, hi)` of the call's query block.
    fn run_chunk(&self, lo: usize, hi: usize, scratch: &mut Scratch) {
        let d = self.d;
        let m = hi - lo;
        // Safety (RawRows): the caller's block outlives the latch.
        let rows = unsafe { std::slice::from_raw_parts(self.queries.ptr.add(lo * d), m * d) };
        scan_chunk(rows, d, &self.rk, &self.entry.model, scratch);
        for i in 0..m {
            // Safety (SharedRows): chunk ranges are disjoint, and the
            // caller reads only after the latch (lock + condvar) closes.
            unsafe {
                *self.out_assign.get_mut(lo + i) = scratch.best[i];
                *self.out_dist.get_mut(lo + i) = scratch.dist[i];
            }
        }
    }

    /// Count a chunk done (runs even when the chunk panicked, so the
    /// waiting caller never deadlocks).
    fn complete_chunk(&self) {
        let mut left = self.remaining.lock().expect("predict latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }
}

/// Why a predict call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// Query dimensionality does not match the model.
    DimMismatch {
        /// The model's `d`.
        expected: usize,
        /// The queries' `d`.
        got: usize,
    },
    /// A worker panicked while computing part of this call.
    WorkerPanic,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::DimMismatch { expected, got } => {
                write!(f, "query dimensionality {got} does not match model d={expected}")
            }
            PredictError::WorkerPanic => write!(f, "a serving worker panicked mid-batch"),
        }
    }
}

impl std::error::Error for PredictError {}

/// The persistent worker pool.
pub struct WorkerPool {
    tx: Sender<Task>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    chunk_cap: usize,
    panics: Arc<AtomicU64>,
    inline_calls: AtomicU64,
}

impl WorkerPool {
    /// Spawn `threads` workers bound round-robin across `topo`'s nodes
    /// (binding is a no-op on synthetic topologies). `chunk_cap` bounds
    /// rows per chunk for load balance on large batches.
    pub fn spawn(threads: usize, topo: &Topology, chunk_cap: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx): (Sender<Task>, Receiver<Task>) = unbounded();
        let panics = Arc::new(AtomicU64::new(0));
        let nnodes = topo.nodes().max(1);
        let handles = (0..threads)
            .map(|w| {
                let rx = rx.clone();
                let topo = topo.clone();
                let panics = Arc::clone(&panics);
                std::thread::spawn(move || {
                    let _ = bind_current_thread(&topo, NodeId(w % nnodes));
                    let mut scratch = Scratch::default();
                    while let Ok(task) = rx.recv() {
                        match task {
                            Task::Chunk { ctx, lo, hi } => {
                                let r = catch_unwind(AssertUnwindSafe(|| {
                                    ctx.run_chunk(lo, hi, &mut scratch)
                                }));
                                if r.is_err() {
                                    ctx.panicked.store(true, Ordering::SeqCst);
                                    panics.fetch_add(1, Ordering::Relaxed);
                                }
                                ctx.complete_chunk();
                            }
                            Task::Shutdown => break,
                        }
                    }
                })
            })
            .collect();
        Self {
            tx,
            handles,
            threads,
            chunk_cap: chunk_cap.max(1),
            panics,
            inline_calls: AtomicU64::new(0),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunks a batch would be split into (bench/diagnostics).
    pub fn chunks_for(&self, m: usize) -> usize {
        m.div_ceil(self.chunk_rows(m)).max(1)
    }

    fn chunk_rows(&self, m: usize) -> usize {
        // One chunk per worker, but never smaller than 64 rows (tiny tasks
        // are all dispatch overhead) nor larger than the cap (load
        // balance when workers finish unevenly).
        let min_rows = 64.min(self.chunk_cap);
        m.div_ceil(self.threads).clamp(min_rows, self.chunk_cap)
    }

    /// Scan panics caught so far, on pool workers and on calling threads
    /// (diagnostics).
    pub fn caught_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// One-chunk calls answered on the calling thread, without a pool
    /// hand-off (diagnostics).
    pub fn inline_calls(&self) -> u64 {
        self.inline_calls.load(Ordering::Relaxed)
    }

    /// Assign every row of the `m × d` query block to its nearest centroid
    /// of `entry`'s model under resolved kernel `rk`. Blocks until every
    /// chunk completes (a one-chunk call scans on the calling thread
    /// instead); bitwise identical to the serial per-row scan.
    pub fn predict(
        &self,
        entry: &Arc<ModelEntry>,
        rk: ResolvedKernel,
        queries: &[f64],
        d: usize,
    ) -> Result<(Vec<u32>, Vec<f64>), PredictError> {
        self.predict_timed(entry, rk, queries, d, None).map(|(a, dist, _)| (a, dist))
    }

    /// [`WorkerPool::predict`] that also decomposes the call's wall time
    /// on `clock` (dispatch / kernel / reply — see [`PredictTiming`]).
    /// Timing is measurement-only: answers are identical with or without
    /// a clock.
    pub fn predict_timed(
        &self,
        entry: &Arc<ModelEntry>,
        rk: ResolvedKernel,
        queries: &[f64],
        d: usize,
        clock: Option<&dyn Clock>,
    ) -> Result<(Vec<u32>, Vec<f64>, PredictTiming), PredictError> {
        let model_d = entry.model.d();
        if d != model_d || !queries.len().is_multiple_of(d.max(1)) {
            return Err(PredictError::DimMismatch { expected: model_d, got: d });
        }
        let m = queries.len() / d.max(1);
        if m == 0 {
            return Ok((Vec::new(), Vec::new(), PredictTiming::default()));
        }
        let now = || clock.map_or(0, |c| c.now_ns());
        let t0 = now();
        let chunk = self.chunk_rows(m);
        let nchunks = m.div_ceil(chunk);
        if nchunks == 1 {
            // Nothing to fan out: scan here (see the module docs).
            self.inline_calls.fetch_add(1, Ordering::Relaxed);
            let scanned = catch_unwind(AssertUnwindSafe(|| {
                INLINE_SCRATCH.with_borrow_mut(|scratch| {
                    scan_chunk(queries, d, &rk, &entry.model, scratch);
                    let t1 = now();
                    (scratch.best.clone(), scratch.dist.clone(), t1)
                })
            }));
            let Ok((assign, dist, t1)) = scanned else {
                self.panics.fetch_add(1, Ordering::Relaxed);
                return Err(PredictError::WorkerPanic);
            };
            let timing = PredictTiming {
                dispatch_ns: 0,
                kernel_ns: t1.saturating_sub(t0),
                reply_ns: now().saturating_sub(t1),
            };
            return Ok((assign, dist, timing));
        }
        let ctx = Arc::new(CallCtx {
            entry: Arc::clone(entry),
            rk,
            queries: RawRows { ptr: queries.as_ptr(), len: queries.len() },
            d,
            out_assign: SharedRows::new(m, 0u32),
            out_dist: SharedRows::new(m, 0.0f64),
            remaining: Mutex::new(nchunks),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        debug_assert_eq!(ctx.queries.len, m * d);
        let mut lo = 0usize;
        while lo < m {
            let hi = (lo + chunk).min(m);
            self.tx
                .send(Task::Chunk { ctx: Arc::clone(&ctx), lo, hi })
                .expect("worker pool channel closed");
            lo = hi;
        }
        let t1 = now();
        // The latch: predict must not return (releasing the caller's query
        // borrow) while any worker still holds a RawRows view.
        {
            let mut left = ctx.remaining.lock().expect("predict latch poisoned");
            while *left > 0 {
                left = ctx.done.wait(left).expect("predict latch poisoned");
            }
        }
        let t2 = now();
        if ctx.panicked.load(Ordering::SeqCst) {
            return Err(PredictError::WorkerPanic);
        }
        let out = (ctx.out_assign.snapshot(), ctx.out_dist.snapshot());
        let t3 = now();
        let timing = PredictTiming {
            dispatch_ns: t1.saturating_sub(t0),
            kernel_ns: t2.saturating_sub(t1),
            reply_ns: t3.saturating_sub(t2),
        };
        Ok((out.0, out.1, timing))
    }

    /// Stop and join every worker.
    pub fn shutdown(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        for _ in 0..self.handles.len() {
            let _ = self.tx.send(Task::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use knor_core::distance::nearest;
    use knor_core::{Algorithm, KernelKind};
    use knor_matrix::DMatrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn setup(k: usize, d: usize, seed: u64) -> (ModelRegistry, Arc<ModelEntry>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cents: Vec<f64> = (0..k * d).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let reg = ModelRegistry::new();
        reg.register("m", Algorithm::Lloyd, DMatrix::from_vec(cents, k, d));
        let e = reg.get("m").unwrap();
        (reg, e)
    }

    #[test]
    fn pool_predict_matches_serial_nearest_bitwise() {
        let (_reg, entry) = setup(9, 7, 3);
        let pool = WorkerPool::spawn(4, &Topology::synthetic(2, 2), 128);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m = 501; // several chunks + a remainder
        let q: Vec<f64> = (0..m * 7).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let rk = KernelKind::Auto.resolve(9, 7, false);
        let (a, dist) = pool.predict(&entry, rk, &q, 7).unwrap();
        for (i, row) in q.chunks_exact(7).enumerate() {
            let (ra, rd) = nearest(row, &entry.model.centroids.means, 9);
            assert_eq!(a[i], ra as u32, "row {i}");
            assert_eq!(dist[i].to_bits(), rd.to_bits(), "row {i} distance");
        }
        pool.shutdown();
    }

    #[test]
    fn gemm_resolved_kernel_is_served_exactly() {
        // The model's registration-time panel serves a Gemm-resolved
        // kernel, certified: `nearest`'s bits on every row.
        let (_reg, entry) = setup(9, 8, 12);
        let pool = WorkerPool::spawn(2, &Topology::synthetic(1, 2), 128);
        let rk = KernelKind::Gemm.resolve(9, 8, false);
        assert_eq!(rk.kind, knor_core::ResolvedKind::Gemm);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let q: Vec<f64> = (0..200 * 8).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let (a, dist) = pool.predict(&entry, rk, &q, 8).unwrap();
        assert_eq!(pool.caught_panics(), 0);
        for (i, row) in q.chunks_exact(8).enumerate() {
            let (ra, rd) = nearest(row, &entry.model.centroids.means, 9);
            assert_eq!(a[i], ra as u32, "row {i}");
            assert_eq!(dist[i].to_bits(), rd.to_bits(), "row {i}");
        }
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let (_reg, entry) = setup(3, 4, 5);
        let pool = WorkerPool::spawn(2, &Topology::synthetic(1, 2), 64);
        let rk = KernelKind::Auto.resolve(3, 4, false);
        let err = pool.predict(&entry, rk, &[0.0; 6], 3).unwrap_err();
        assert_eq!(err, PredictError::DimMismatch { expected: 4, got: 3 });
        // Ragged block under the right d is rejected too.
        assert!(pool.predict(&entry, rk, &[0.0; 6], 4).is_err());
        // Empty block is fine.
        let (a, dd) = pool.predict(&entry, rk, &[], 4).unwrap();
        assert!(a.is_empty() && dd.is_empty());
    }

    #[test]
    fn inline_pool_and_serial_agree_bitwise_around_the_one_chunk_boundary() {
        use crate::predict_serial;
        let topo = Topology::synthetic(2, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let q: Vec<f64> = (0..129 * 6).map(|_| rng.gen_range(-5.0..5.0)).collect();
        for algo in [Algorithm::Lloyd, Algorithm::Spherical] {
            let reg = ModelRegistry::new();
            let cents: Vec<f64> = (0..11 * 6).map(|_| rng.gen_range(-3.0..3.0)).collect();
            reg.register("m", algo.clone(), DMatrix::from_vec(cents, 11, 6));
            let entry = reg.get("m").unwrap();
            let rk = KernelKind::Auto.resolve(11, 6, false);
            // `split` cuts every batch into 1-row chunks, so the same rows
            // also go through the pool; `whole` keeps m <= 64 inline.
            let whole = WorkerPool::spawn(4, &topo, 128);
            let split = WorkerPool::spawn(4, &topo, 1);
            for m in [1usize, 63, 64, 65, 129] {
                let rows = &q[..m * 6];
                let serial = predict_serial(&entry.model, rows, 6);
                let inline_before = (whole.inline_calls(), split.inline_calls());
                for pool in [&whole, &split] {
                    let (a, dist) = pool.predict(&entry, rk, rows, 6).unwrap();
                    assert_eq!(a, serial.assignments, "{algo:?} m={m}");
                    assert_eq!(
                        dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        serial.distances.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{algo:?} m={m}"
                    );
                }
                assert_eq!(whole.chunks_for(m) == 1, m <= 64);
                assert_eq!(whole.inline_calls() - inline_before.0, u64::from(m <= 64));
                assert_eq!(split.inline_calls() - inline_before.1, u64::from(m == 1));
            }
        }
    }

    /// A model whose centroid table is shorter than `k × d`: the scan
    /// refuses it with a panic.
    fn corrupt_entry(good: &ModelEntry) -> Arc<ModelEntry> {
        let mut model = good.model.clone();
        model.centroids.means.truncate(model.d());
        Arc::new(ModelEntry {
            model,
            stats: crate::stats::ServeStats::new(),
            train: crate::registry::TrainDiag::default(),
        })
    }

    #[test]
    fn worker_panic_fails_the_call_not_the_pool() {
        let (_reg, entry) = setup(2, 3, 6);
        let bad = corrupt_entry(&entry);
        let pool = WorkerPool::spawn(2, &Topology::synthetic(1, 2), 64);
        let rk = KernelKind::Gemm.resolve(2, 3, false);
        let q = [0.5; 200 * 3];
        // Several chunks: the panics happen on pool workers.
        assert_eq!(pool.predict(&bad, rk, &q, 3), Err(PredictError::WorkerPanic));
        let on_workers = pool.caught_panics();
        assert!(on_workers >= 1, "worker panic was not caught");
        // One row: the panic happens on this thread, and is caught and
        // counted the same way.
        assert_eq!(pool.predict(&bad, rk, &q[..3], 3), Err(PredictError::WorkerPanic));
        assert_eq!(pool.caught_panics(), on_workers + 1);
        // This thread and the pool both still answer real calls.
        let (a, _) = pool.predict(&entry, rk, &q[..3], 3).unwrap();
        assert_eq!(a.len(), 1);
        let (a, _) = pool.predict(&entry, rk, &q, 3).unwrap();
        assert_eq!(a.len(), 200);
        assert_eq!(pool.caught_panics(), on_workers + 1);
        pool.shutdown();
    }

    #[test]
    fn one_row_call_returns_while_every_worker_is_parked() {
        let (_reg, entry) = setup(4, 3, 8);
        let threads = 2;
        let pool = WorkerPool::spawn(threads, &Topology::synthetic(1, 2), 64);
        let rk = KernelKind::Auto.resolve(4, 3, false);
        let q = [0.25; 200 * 3];
        // Park the workers: one chunk each of a call whose latch this test
        // holds, so every worker blocks in `complete_chunk`. The channel is
        // FIFO and a worker that takes one of these never comes back for
        // more, so nothing sent after them can be served until the latch
        // is released.
        let parked = Arc::new(CallCtx {
            entry: Arc::clone(&entry),
            rk,
            queries: RawRows { ptr: q.as_ptr(), len: 3 },
            d: 3,
            out_assign: SharedRows::new(1, 0),
            out_dist: SharedRows::new(1, 0.0),
            remaining: Mutex::new(threads),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let latch = parked.remaining.lock().unwrap();
        for _ in 0..threads {
            pool.tx.send(Task::Chunk { ctx: Arc::clone(&parked), lo: 0, hi: 1 }).unwrap();
        }
        let bulk_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // A long batch from another thread queues behind the parked chunks.
            let bulk = s.spawn(|| {
                let out = pool.predict(&entry, rk, &q, 3);
                bulk_done.store(true, Ordering::SeqCst);
                out
            });
            let before = pool.inline_calls();
            let (a, dist) = pool.predict(&entry, rk, &q[..3], 3).unwrap();
            assert_eq!(pool.inline_calls(), before + 1, "answered without a task");
            assert!(!bulk_done.load(Ordering::SeqCst), "the pool cannot have served anything yet");
            let (ra, rd) = nearest(&q[..3], &entry.model.centroids.means, 4);
            assert_eq!((a[0], dist[0].to_bits()), (ra as u32, rd.to_bits()));
            drop(latch);
            assert_eq!(bulk.join().unwrap().unwrap().0.len(), 200);
        });
        pool.shutdown();
    }
}

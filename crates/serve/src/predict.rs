//! The predict scan, on the calling thread and, for a large block, on
//! scoped helpers for the length of the call.
//!
//! A query block goes through the kernel layer
//! ([`knor_core::kernel::assign_rows_packed`], against the panel the model
//! packed at registration) — the same certified gemm scan the training
//! engines use, so predict throughput inherits every training-kernel
//! optimization and stays **bitwise identical** to the serial per-row
//! [`knor_core::distance::nearest`] scan (every kernel is exact, and where
//! a block is cut cannot change a row's answer).
//!
//! **There is no worker pool.** A block of fewer than `2 × PART_ROWS` rows
//! scans whole on the caller's thread, with a thread-local, grow-only
//! scratch; steady-state calls do no per-row allocation. A larger block is
//! cut into one part per `PART_ROWS` rows, at most one per CPU: the caller
//! scans the first and a scoped thread (`std::thread::scope`) each of the
//! others, joined before the call returns. Without that cut, a connection
//! whose client and thread settle on one CPU answers at that CPU's speed
//! alone, and on a shared VM whose vCPUs run fast and slow in spells the
//! median bulk latency jumped between the two speeds from run to run
//! (DESIGN.md §9). A scan that panics, on the caller or on a helper, is
//! caught (`catch_unwind`): the call reports [`PredictError::WorkerPanic`],
//! [`Predictor::caught_panics`] counts it, and the thread's next call
//! answers as before.
//!
//! Every thread scans the registry's one copy of the model: the centroid
//! table is small, read-only and cache-resident after its first block
//! (DESIGN.md §12).

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use knor_core::kernel::{assign_rows_packed, Finish, Precision};
use knor_core::Normalization;

use crate::registry::Model;
use crate::stats::Clock;

/// Wall-time decomposition of one predict call on the injected clock (all
/// zero when no clock was passed): the scan, and the copy of its answers
/// out of the scratch. The request's `enqueue` phase (the model lookup)
/// happens before the call and is timed by the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictTiming {
    /// The scan, ns.
    pub kernel_ns: u64,
    /// Scan end → answers copied out, ns.
    pub reply_ns: u64,
}

/// Grow-only per-thread buffers (normalized rows + kernel outputs).
#[derive(Default)]
struct Scratch {
    data: Vec<f64>,
    best: Vec<u32>,
    dist: Vec<f64>,
}

thread_local! {
    /// The calling thread's scratch.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Assign the rows of `rows` (`rows.len() / d` of them) to their nearest
/// centroid of `model`, into `scratch.best` / `scratch.dist`.
fn scan(rows: &[f64], d: usize, model: &Model, scratch: &mut Scratch) {
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
    // In f64: a served model has no previous scan whose counters could
    // pick f32 for it.
    let (cents, panel) = (&model.centroids, &model.panel);
    let (f64, none) = (Precision::F64, &mut Vec::new());
    let dists = Finish::Distances;
    assign_rows_packed(block, d, cents, &model.kernel, panel, best, dist, dists, f64, none);
}

/// The fewest rows a part of a split block gets: a scoped thread's spawn
/// and join cost about what scanning 200 rows of a k = 64, d = 32 model
/// does, so a block under two parts' worth scans whole.
const PART_ROWS: usize = 512;

/// Scan `queries` in `parts` parts, the first on the calling thread and
/// each other on a scoped thread; returns the answers in row order and the
/// clock reading when the last part finished. A part that panics panics
/// here, on the caller.
fn scan_split(
    queries: &[f64],
    d: usize,
    model: &Model,
    parts: usize,
    now: &dyn Fn() -> u64,
) -> (Vec<u32>, Vec<f64>, u64) {
    let m = queries.len() / d;
    let part = m.div_ceil(parts) * d;
    let (head, tail) = queries.split_at(part);
    std::thread::scope(|s| {
        let helpers: Vec<_> = tail
            .chunks(part)
            .map(|rows| {
                s.spawn(move || {
                    let mut scratch = Scratch::default();
                    scan(rows, d, model, &mut scratch);
                    (scratch.best, scratch.dist)
                })
            })
            .collect();
        SCRATCH.with_borrow_mut(|scratch| {
            scan(head, d, model, scratch);
            let rest: Vec<_> = helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect();
            let t1 = now();
            let (mut best, mut dist) = (Vec::with_capacity(m), Vec::with_capacity(m));
            best.extend_from_slice(&scratch.best);
            dist.extend_from_slice(&scratch.dist);
            for (b, x) in rest {
                best.extend_from_slice(&b);
                dist.extend_from_slice(&x);
            }
            (best, dist, t1)
        })
    })
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
    /// The scan panicked while computing this call.
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

/// The predict entry point of a serving instance: the scan above, plus a
/// count of the scans that panicked.
pub struct Predictor {
    panics: AtomicU64,
    /// The most parts a block is split into: the CPUs this process may use.
    cpus: usize,
}

impl Default for Predictor {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self { panics: AtomicU64::new(0), cpus }
    }
}

impl Predictor {
    /// Scan panics caught so far (diagnostics).
    pub fn caught_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Assign every row of the `m × d` query block to its nearest centroid
    /// of `model`, with the kernel its shape picked, on the calling thread
    /// (and, from `2 × PART_ROWS` rows, on scoped helpers too); bitwise
    /// identical to the serial per-row scan. With a `clock`, also
    /// decompose the call's wall time (see [`PredictTiming`]); answers are
    /// identical with or without one.
    pub fn predict(
        &self,
        model: &Model,
        queries: &[f64],
        d: usize,
        clock: Option<&dyn Clock>,
    ) -> Result<(Vec<u32>, Vec<f64>, PredictTiming), PredictError> {
        let model_d = model.d();
        if d != model_d || !queries.len().is_multiple_of(d.max(1)) {
            return Err(PredictError::DimMismatch { expected: model_d, got: d });
        }
        if queries.is_empty() {
            return Ok((Vec::new(), Vec::new(), PredictTiming::default()));
        }
        let now = || clock.map_or(0, |c| c.now_ns());
        let t0 = now();
        let parts = (queries.len() / d / PART_ROWS).clamp(1, self.cpus);
        let scanned = catch_unwind(AssertUnwindSafe(|| match parts {
            1 => SCRATCH.with_borrow_mut(|scratch| {
                scan(queries, d, model, scratch);
                let t1 = now();
                (scratch.best.clone(), scratch.dist.clone(), t1)
            }),
            _ => scan_split(queries, d, model, parts, &now),
        }));
        let Ok((assign, dist, t1)) = scanned else {
            self.panics.fetch_add(1, Ordering::Relaxed);
            return Err(PredictError::WorkerPanic);
        };
        let timing =
            PredictTiming { kernel_ns: t1.saturating_sub(t0), reply_ns: now().saturating_sub(t1) };
        Ok((assign, dist, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict_serial;
    use crate::registry::ModelRegistry;
    use knor_core::{Algorithm, ResolvedKind};
    use knor_matrix::DMatrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn model(algo: Algorithm, k: usize, d: usize, seed: u64) -> Model {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cents: Vec<f64> = (0..k * d).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let reg = ModelRegistry::new();
        reg.register("m", algo, DMatrix::from_vec(cents, k, d));
        reg.get("m").unwrap().model.clone()
    }

    #[test]
    fn predict_is_bitwise_the_serial_scan_at_every_block_size() {
        let d = 6;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let q: Vec<f64> = (0..8193 * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        // One CPU scans every block whole; three cut 1024 rows in two
        // parts, 1537 in three uneven ones and 8193 in three.
        for cpus in [1, 3] {
            let p = Predictor { cpus, ..Predictor::default() };
            for algo in [Algorithm::Lloyd, Algorithm::Spherical] {
                // k·d = 66 scans with gemm, 60 with the scalar kernel.
                for (k, kind) in [(11, ResolvedKind::Gemm), (10, ResolvedKind::Scalar)] {
                    let model = model(algo.clone(), k, d, 3);
                    assert_eq!(model.kernel().kind, kind);
                    for m in [1usize, 64, 65, 501, 1024, 1537, 8193] {
                        let rows = &q[..m * d];
                        let serial = predict_serial(&model, rows, d);
                        let (a, dist, _) = p.predict(&model, rows, d, None).unwrap();
                        let what = format!("{algo:?} {kind:?} m={m} cpus={cpus}");
                        assert_eq!(a, serial.assignments, "{what}");
                        assert_eq!(
                            dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            serial.distances.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            "{what}"
                        );
                    }
                }
            }
            assert_eq!(p.caught_panics(), 0);
        }
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let model = model(Algorithm::Lloyd, 3, 4, 5);
        let p = Predictor::default();
        let err = p.predict(&model, &[0.0; 6], 3, None).unwrap_err();
        assert_eq!(err, PredictError::DimMismatch { expected: 4, got: 3 });
        // Ragged block under the right d is rejected too.
        assert!(p.predict(&model, &[0.0; 6], 4, None).is_err());
        // Empty block is fine.
        let (a, dd, _) = p.predict(&model, &[], 4, None).unwrap();
        assert!(a.is_empty() && dd.is_empty());
    }

    #[test]
    fn a_scan_that_panics_fails_the_call_not_the_thread() {
        // k·d = 66: the gemm scan, which checks its panel against the
        // centroids.
        let d = 33;
        let good = model(Algorithm::Lloyd, 2, d, 6);
        assert_eq!(good.kernel().kind, ResolvedKind::Gemm);
        // A centroid table shorter than `k × d`: the scan refuses it with
        // a panic.
        let mut bad = good.clone();
        bad.centroids.means.truncate(bad.d());
        // Two CPUs: the 2048-row block scans in two parts, one of them on
        // a scoped helper.
        let p = Predictor { cpus: 2, ..Predictor::default() };
        let q = vec![0.5; 2048 * d];
        for rows in [&q[..d], &q[..200 * d], &q[..]] {
            let before = p.caught_panics();
            assert_eq!(p.predict(&bad, rows, d, None), Err(PredictError::WorkerPanic));
            assert_eq!(p.caught_panics(), before + 1);
            // The same thread, and its scratch, still answer real calls.
            let (a, _, _) = p.predict(&good, rows, d, None).unwrap();
            assert_eq!(a, predict_serial(&good, rows, d).assignments);
        }
        assert_eq!(p.caught_panics(), 3);
    }
}

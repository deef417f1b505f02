//! The pluggable clustering-algorithm layer (clusterNOR's MM interface).
//!
//! knor's durable asset is not Lloyd's loop but the machinery around it:
//! the NUMA-aware parallel driver, MTI pruning, the blocked assignment
//! kernels, the SEM row cache and knord's allreduce. The clusterNOR
//! follow-on observes that this infrastructure generalizes to a family of
//! clustering algorithms through a two-phase **map/update** interface:
//!
//! * **map** — a per-row phase that picks a cluster and a contribution
//!   weight from the current model (`C^t`);
//! * **update** — a per-cluster phase that folds the merged accumulators
//!   (weighted sums, counts, weights) into the next model (`C^{t+1}`).
//!
//! [`MmAlgorithm`] captures those two phases plus the hooks the engines
//! need to stay fast and correct for every member of the family:
//! pruning eligibility (MTI is only sound for exact-Euclidean, hard
//! assignment, mean updates — i.e. Lloyd's), per-iteration row
//! subsampling (mini-batch rides the same no-touch path as a Clause-1
//! skip, so knors skips the I/O too), a blocked `map` so algorithms can
//! reuse the kernel layer's micro-kernels, and the convergence decision.
//!
//! Plain Lloyd's k-means is the canonical instance: the driver routes it
//! through the exact pre-existing code paths, so its output is **bitwise
//! identical** to the pre-trait engine. Three further instances exercise
//! different corners of the interface:
//!
//! | Algorithm | map | update | pruning | extra |
//! |-----------|-----|--------|---------|-------|
//! | [`Algorithm::Lloyd`] | nearest (Euclid) | mean | MTI | — |
//! | [`Algorithm::Spherical`] | max cosine (dot kernel) | renormalized direction | off | unit-norm init |
//! | [`Algorithm::Fuzzy`] | nearest + fuzzy membership weight | weighted mean (`Σwx/Σw`) | off | weights lane in the allreduce |
//! | [`Algorithm::MiniBatch`] | nearest on a sampled subset | learning-rate merge | off | subsample filter before fetch/I-O |

use std::sync::Mutex;

use crate::centroids::{finalize_means, Centroids};
use crate::distance::{nearest, sqdist};
use crate::kernel::{dot, max_dot_rows, sqnorm};

/// The algorithm knob carried by `KmeansConfig`/`SemConfig`/`DistConfig`.
///
/// Resolve to a runnable [`MmAlgorithm`] with [`Algorithm::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// Plain Lloyd's k-means (the paper's knori/knors/knord). The only
    /// member for which MTI pruning is sound.
    Lloyd,
    /// Spherical k-means: assignment by maximum cosine similarity,
    /// centroid update renormalizes the summed direction. Rows contribute
    /// their unit-normalized direction (`x/‖x‖`), so raw data need not be
    /// pre-normalized.
    Spherical,
    /// Weighted k-means with fuzzy-c-means-style membership weights: a row
    /// is hard-assigned to its nearest centroid but contributes with weight
    /// `u = 1 / Σ_c (s_best/s_c)^{1/(m−1)} ∈ (0, 1]` (its FCM membership of
    /// the winning cluster, `s` = squared distances); the update divides by
    /// accumulated *weights*, not counts.
    Fuzzy {
        /// The fuzzifier `m > 1` (2.0 is the usual choice; larger is
        /// fuzzier, i.e. boundary points count for less).
        m: f64,
    },
    /// Sculley-style mini-batch k-means on the driver: iteration 0 is a
    /// full assignment pass, every later iteration Bernoulli-samples
    /// ≈`batch` of the `n` rows (by a seeded hash of the *global* row id,
    /// so every engine — and every knord rank — samples identically) and
    /// applies a per-center learning-rate merge with cumulative counts.
    /// Runs for the full iteration cap unless a drift tolerance is set.
    MiniBatch {
        /// Expected rows sampled per iteration (`>= n` degenerates to full
        /// passes).
        batch: usize,
    },
}

/// How a trained model expects incoming rows to be normalized before a
/// nearest-centroid scan. Recorded as model metadata by the serving layer:
/// a query must be transformed exactly like a training row was, or the
/// model answers a different question than it was fitted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Rows are used as-is (Lloyd, fuzzy, mini-batch).
    #[default]
    None,
    /// Rows are scaled by `1/‖x‖` (spherical: training contributes unit
    /// directions to unit-norm centroids, so against those centroids the
    /// Euclidean argmin over a *unit* query equals the cosine argmax).
    /// Zero rows are left untouched, exactly like training weighted them 0.
    UnitRow,
}

impl Normalization {
    /// Stable name for metadata files and the wire protocol.
    pub fn name(&self) -> &'static str {
        match self {
            Normalization::None => "none",
            Normalization::UnitRow => "unitrow",
        }
    }

    /// Inverse of [`Normalization::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Normalization::None),
            "unitrow" => Some(Normalization::UnitRow),
            _ => None,
        }
    }

    /// Apply to one row, writing the (possibly rescaled) row into `out`.
    /// The arithmetic is the scaling spherical training applies: multiply
    /// by the reciprocal norm `1/‖x‖` computed via [`sqnorm`] — the same
    /// chunked summation, so serving and training agree bit for bit.
    pub fn apply(&self, row: &[f64], out: &mut [f64]) {
        debug_assert_eq!(row.len(), out.len());
        match self {
            Normalization::None => out.copy_from_slice(row),
            Normalization::UnitRow => {
                let n = sqnorm(row).sqrt();
                if n > 0.0 {
                    let inv = 1.0 / n;
                    for (o, x) in out.iter_mut().zip(row) {
                        *o = inv * x;
                    }
                } else {
                    out.copy_from_slice(row);
                }
            }
        }
    }
}

impl Algorithm {
    /// Short stable name (CLI, benchmarks, logs).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Lloyd => "lloyd",
            Algorithm::Spherical => "spherical",
            Algorithm::Fuzzy { .. } => "fuzzy",
            Algorithm::MiniBatch { .. } => "minibatch",
        }
    }

    /// Whether MTI pruning is sound for this algorithm (engines AND the
    /// driver both consult this; either is sufficient to disable).
    pub fn prune_eligible(&self) -> bool {
        matches!(self, Algorithm::Lloyd)
    }

    /// The row normalization a model trained by this algorithm expects of
    /// its queries (serving metadata).
    pub fn normalization(&self) -> Normalization {
        match self {
            Algorithm::Spherical => Normalization::UnitRow,
            _ => Normalization::None,
        }
    }

    /// Self-describing spec string: `lloyd`, `spherical`, `fuzzy:2.0`,
    /// `minibatch:512`. Round-trips through [`Algorithm::parse_spec`]
    /// (metadata files, the serve wire protocol).
    pub fn spec_string(&self) -> String {
        match self {
            Algorithm::Lloyd => "lloyd".into(),
            Algorithm::Spherical => "spherical".into(),
            Algorithm::Fuzzy { m } => format!("fuzzy:{m:?}"),
            Algorithm::MiniBatch { batch } => format!("minibatch:{batch}"),
        }
    }

    /// Inverse of [`Algorithm::spec_string`]. Parameterless `fuzzy` /
    /// `minibatch` get the conventional defaults (`m = 2.0`, `batch = 0`
    /// is rejected — a batch size is required without an `n` to derive it
    /// from). Returns `None` on malformed or out-of-domain specs.
    pub fn parse_spec(s: &str) -> Option<Algorithm> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match (head, arg) {
            ("lloyd", None) => Some(Algorithm::Lloyd),
            ("spherical", None) => Some(Algorithm::Spherical),
            ("fuzzy", None) => Some(Algorithm::Fuzzy { m: 2.0 }),
            ("fuzzy", Some(a)) => {
                let m: f64 = a.parse().ok()?;
                (m > 1.0).then_some(Algorithm::Fuzzy { m })
            }
            ("minibatch", Some(a)) => {
                let batch: usize = a.parse().ok()?;
                (batch >= 1).then_some(Algorithm::MiniBatch { batch })
            }
            _ => None,
        }
    }

    /// Build the runnable instance. `k` sizes per-cluster state, `n_total`
    /// is the *global* row count (knord passes the whole matrix's `n`, not
    /// the rank slice), `seed` feeds the mini-batch sampler.
    pub fn resolve(&self, k: usize, n_total: usize, seed: u64) -> Box<dyn MmAlgorithm> {
        match self {
            Algorithm::Lloyd => Box::new(LloydAlgo),
            Algorithm::Spherical => Box::new(SphericalAlgo),
            Algorithm::Fuzzy { m } => {
                assert!(*m > 1.0, "fuzzifier must exceed 1 (got {m})");
                Box::new(FuzzyAlgo { exponent: 1.0 / (m - 1.0) })
            }
            Algorithm::MiniBatch { batch } => {
                assert!(*batch >= 1, "mini-batch size must be positive");
                Box::new(MiniBatchAlgo {
                    batch: *batch,
                    n_total: n_total.max(1),
                    seed,
                    cum_counts: Mutex::new(vec![0u64; k]),
                })
            }
        }
    }
}

/// One row's map-phase decision: the chosen cluster and the weight with
/// which the row contributes to it (`sums += weight·x`, `weights += weight`,
/// `counts += 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapOut {
    /// Chosen cluster.
    pub cluster: u32,
    /// Contribution weight (1.0 for hard, unweighted algorithms).
    pub weight: f64,
}

/// Everything the update phase sees: the globally merged (and, on knord,
/// allreduced) accumulator state plus the previous model.
pub struct UpdateCtx<'a> {
    /// Iteration number, 0-based.
    pub iter: usize,
    /// Merged `k·d` weighted coordinate sums.
    pub sums: &'a [f64],
    /// Merged per-cluster member counts.
    pub counts: &'a [i64],
    /// Merged per-cluster weight totals (equals `counts` for weight-1.0
    /// algorithms, zeros on the legacy Lloyd fast path which never reads
    /// them).
    pub weights: &'a [f64],
    /// The previous model `C^t`.
    pub prev: &'a Centroids,
    /// The next model `C^{t+1}` to fill (same shape as `prev`; clusters the
    /// algorithm leaves untouched must be copied from `prev` explicitly).
    pub next: &'a mut Centroids,
}

/// A clustering algorithm expressed as the two-phase map/update interface,
/// runnable on all three engines (knori / knors / knord) through the
/// shared driver.
///
/// Implementations must be deterministic functions of their inputs: every
/// knord rank runs `update` independently on identical (allreduced) state
/// and must produce identical models.
pub trait MmAlgorithm: Sync {
    /// Short stable name.
    fn name(&self) -> &'static str;

    /// True only for the canonical Lloyd instance: the driver then takes
    /// the legacy Euclid/MTI code paths (bitwise identical to the
    /// pre-trait engine) instead of the generic map/update path.
    fn is_lloyd(&self) -> bool {
        false
    }

    /// Whether the MTI triangle-inequality clauses are sound. Only exact
    /// Euclidean distance + hard assignment + mean update qualifies;
    /// engines force pruning off when this is false.
    fn prune_eligible(&self) -> bool {
        false
    }

    /// True when [`MmAlgorithm::row_in_scope`] can return false — lets the
    /// engines skip the virtual call per row in the common case.
    fn subsamples(&self) -> bool {
        false
    }

    /// True when [`MmAlgorithm::update`] reads `UpdateCtx::weights`.
    /// knord ships the k-lane weights segment in its allreduce only for
    /// these algorithms; everyone else keeps the paper's
    /// `(k·d + k + scalars)` payload shape.
    fn uses_weights(&self) -> bool {
        false
    }

    /// Per-iteration row filter, consulted *before* the row's data is
    /// fetched (in knors: before the I/O request is issued — the same
    /// no-touch path as a Clause-1 skip). `global_row` is the row's id in
    /// the whole matrix, identical across engines and knord ranks.
    fn row_in_scope(&self, _global_row: usize, _iter: usize) -> bool {
        true
    }

    /// One-time hook on the initial centroids before iteration 0
    /// (spherical normalizes them to unit length here).
    fn prepare_init(&self, _init: &mut Centroids) {}

    /// The map phase for one row: pick a cluster and a weight.
    fn map(&self, v: &[f64], cents: &Centroids) -> MapOut;

    /// The map phase over a staged contiguous `m × d` block, filling
    /// `best[i]`/`weights[i]` per row (both cleared and resized by the
    /// implementation). The default loops [`MmAlgorithm::map`];
    /// implementations with a batched kernel (spherical's dot-product
    /// micro-kernel) override it. `score` is reusable grow-only scratch.
    fn map_block(
        &self,
        block: &[f64],
        d: usize,
        cents: &Centroids,
        best: &mut Vec<u32>,
        weights: &mut Vec<f64>,
        _score: &mut Vec<f64>,
    ) {
        best.clear();
        weights.clear();
        for row in block.chunks_exact(d.max(1)) {
            let o = self.map(row, cents);
            best.push(o.cluster);
            weights.push(o.weight);
        }
    }

    /// The update phase: fold the merged accumulators into `ctx.next`.
    /// Runs once per iteration in the coordinator's exclusive window,
    /// after the engine's global reduction.
    fn update(&self, ctx: &mut UpdateCtx<'_>);

    /// The convergence decision, made from globally-reduced quantities.
    /// Lloyd's (and spherical's): nothing moved, or the centroids drifted
    /// no more than `tol`. At `tol = 0` that is zero drift: the next map
    /// sees the same centroids and so reassigns nothing, which makes
    /// stopping there exact. `lloyd_serial` stops by this rule too.
    fn converged(&self, reassigned: u64, max_drift: f64, tol: f64) -> bool {
        reassigned == 0 || max_drift <= tol
    }
}

// ---------------------------------------------------------------------------
// Lloyd's k-means — the canonical instance
// ---------------------------------------------------------------------------

/// Plain Lloyd's k-means. The driver special-cases [`MmAlgorithm::is_lloyd`]
/// onto the assignment kernel and the MTI machinery, so `map`/`update`
/// here only serve the generic path's contract (and tests); they implement
/// the identical mathematics.
pub struct LloydAlgo;

impl MmAlgorithm for LloydAlgo {
    fn name(&self) -> &'static str {
        "lloyd"
    }

    fn is_lloyd(&self) -> bool {
        true
    }

    fn prune_eligible(&self) -> bool {
        true
    }

    fn map(&self, v: &[f64], cents: &Centroids) -> MapOut {
        let (a, _) = nearest(v, &cents.means, cents.k());
        MapOut { cluster: a as u32, weight: 1.0 }
    }

    fn update(&self, ctx: &mut UpdateCtx<'_>) {
        finalize_means(ctx.sums, ctx.counts, ctx.prev, ctx.next);
    }
}

// ---------------------------------------------------------------------------
// Spherical k-means
// ---------------------------------------------------------------------------

/// Spherical k-means: maximize cosine similarity. With unit-norm centroids
/// (maintained by `prepare_init` + `update`), `argmax_c cos(x, c) =
/// argmax_c x·c`, so the map phase is a pure dot-product scan — the blocked
/// path reuses the kernel layer's dot micro-kernel by running the GEMM
/// scan with zeroed centroid norms (score `0 − 2·x·c`, whose argmin is
/// exactly the dot argmax, ties and all). Rows contribute their unit
/// direction: weight `= 1/‖x‖` (0 for zero rows).
struct SphericalAlgo;

impl SphericalAlgo {
    #[inline]
    fn row_weight(v: &[f64]) -> f64 {
        let n = sqnorm(v).sqrt();
        if n > 0.0 {
            1.0 / n
        } else {
            0.0
        }
    }
}

impl MmAlgorithm for SphericalAlgo {
    fn name(&self) -> &'static str {
        "spherical"
    }

    fn prepare_init(&self, init: &mut Centroids) {
        let (k, d) = (init.k(), init.d);
        for c in 0..k {
            let row = &mut init.means[c * d..(c + 1) * d];
            let n = sqnorm(row).sqrt();
            if n > 0.0 {
                for x in row.iter_mut() {
                    *x /= n;
                }
            }
        }
    }

    fn map(&self, v: &[f64], cents: &Centroids) -> MapOut {
        // Scored like the blocked path: minimize `−2·x·c` with a strict `<`
        // in ascending index order (ties break low, like every other knor
        // scan).
        let mut best = 0u32;
        let mut best_score = f64::INFINITY;
        for c in 0..cents.k() {
            let score = -2.0 * dot(v, cents.mean(c));
            if score < best_score {
                best_score = score;
                best = c as u32;
            }
        }
        MapOut { cluster: best, weight: Self::row_weight(v) }
    }

    fn map_block(
        &self,
        block: &[f64],
        d: usize,
        cents: &Centroids,
        best: &mut Vec<u32>,
        weights: &mut Vec<f64>,
        score: &mut Vec<f64>,
    ) {
        // The gemm scan with `‖c‖² = 0` scores candidates by `−2·x·c`:
        // the packed dot-product micro-kernel (FMA where available) does
        // all the work, uncertified — the dot product is the objective.
        max_dot_rows(block, d, cents, best, score);
        weights.clear();
        for row in block.chunks_exact(d.max(1)) {
            weights.push(Self::row_weight(row));
        }
    }

    fn update(&self, ctx: &mut UpdateCtx<'_>) {
        let (k, d) = (ctx.prev.k(), ctx.prev.d);
        for c in 0..k {
            let dst = &mut ctx.next.means[c * d..(c + 1) * d];
            let sum = &ctx.sums[c * d..(c + 1) * d];
            let norm = sqnorm(sum).sqrt();
            if ctx.counts[c] > 0 && norm > 0.0 {
                for (m, s) in dst.iter_mut().zip(sum) {
                    *m = s / norm;
                }
            } else {
                // Empty (or fully cancelling) cluster keeps its direction.
                dst.copy_from_slice(ctx.prev.mean(c));
            }
            ctx.next.counts[c] = ctx.counts[c].max(0) as u64;
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzzy-weighted k-means
// ---------------------------------------------------------------------------

/// Hard assignment to the nearest centroid, soft contribution: the weight
/// is the row's fuzzy-c-means membership of the winning cluster, and the
/// update divides the weighted sums by the accumulated weights — the
/// non-trivial merge phase that forces the engines to carry a weights lane
/// through the merge and the knord allreduce.
struct FuzzyAlgo {
    /// `1/(m−1)` for fuzzifier `m`.
    exponent: f64,
}

impl MmAlgorithm for FuzzyAlgo {
    fn name(&self) -> &'static str {
        "fuzzy"
    }

    fn uses_weights(&self) -> bool {
        true
    }

    fn converged(&self, _reassigned: u64, max_drift: f64, tol: f64) -> bool {
        // Stable hard assignments are not a fixed point here: the
        // membership weights are recomputed from the new centroids every
        // pass and keep moving the weighted means. Only zero drift (or
        // the user's tolerance) ends the run early.
        max_drift == 0.0 || (tol > 0.0 && max_drift <= tol)
    }

    fn map(&self, v: &[f64], cents: &Centroids) -> MapOut {
        // Reference path (tests, serial mirrors): recomputes the k
        // distances for the membership sum. The engines go through
        // `map_block`, which caches them in scratch instead.
        let k = cents.k();
        let mut best = 0usize;
        let mut best_s = f64::INFINITY;
        for c in 0..k {
            let s = sqdist(v, cents.mean(c));
            if s < best_s {
                best_s = s;
                best = c;
            }
        }
        if best_s <= 0.0 {
            // On top of a centroid: full membership.
            return MapOut { cluster: best as u32, weight: 1.0 };
        }
        // u_best = 1 / Σ_c (s_best/s_c)^{1/(m−1)}. Every ratio is in
        // (0, 1] (s_best is the minimum and all s_c > 0 here), the c=best
        // term is exactly 1, so the weight lands in (0, 1].
        let mut inv = 0.0;
        for c in 0..k {
            let s = sqdist(v, cents.mean(c));
            inv += (best_s / s).powf(self.exponent);
        }
        MapOut { cluster: best as u32, weight: 1.0 / inv }
    }

    fn map_block(
        &self,
        block: &[f64],
        d: usize,
        cents: &Centroids,
        best: &mut Vec<u32>,
        weights: &mut Vec<f64>,
        score: &mut Vec<f64>,
    ) {
        // One distance scan per row: the k squared distances land in the
        // reusable `score` scratch and feed both the argmin and the
        // membership normalizer (`map` would compute each twice). Same
        // arithmetic, bit for bit — sqdist is deterministic.
        let k = cents.k();
        best.clear();
        weights.clear();
        score.clear();
        score.resize(k, 0.0);
        for row in block.chunks_exact(d.max(1)) {
            let mut b = 0usize;
            let mut bs = f64::INFINITY;
            for (c, sc) in score.iter_mut().enumerate() {
                let s = sqdist(row, cents.mean(c));
                *sc = s;
                if s < bs {
                    bs = s;
                    b = c;
                }
            }
            let w = if bs <= 0.0 {
                1.0
            } else {
                let mut inv = 0.0;
                for &s in score.iter() {
                    inv += (bs / s).powf(self.exponent);
                }
                1.0 / inv
            };
            best.push(b as u32);
            weights.push(w);
        }
    }

    fn update(&self, ctx: &mut UpdateCtx<'_>) {
        let (k, d) = (ctx.prev.k(), ctx.prev.d);
        for c in 0..k {
            let dst = &mut ctx.next.means[c * d..(c + 1) * d];
            let w = ctx.weights[c];
            if w > 0.0 {
                let inv = 1.0 / w;
                for (m, s) in dst.iter_mut().zip(&ctx.sums[c * d..(c + 1) * d]) {
                    *m = s * inv;
                }
            } else {
                dst.copy_from_slice(ctx.prev.mean(c));
            }
            ctx.next.counts[c] = ctx.counts[c].max(0) as u64;
        }
    }
}

// ---------------------------------------------------------------------------
// Mini-batch k-means
// ---------------------------------------------------------------------------

/// Driver-backed mini-batch k-means. Iteration 0 assigns every row (so no
/// row is left unassigned); later iterations sample each row independently
/// with probability `batch/n` via a seeded hash of `(seed, iter,
/// global_row)` — stateless, so every engine and every knord rank agrees
/// without communication, and out-of-batch rows are skipped *before* their
/// data is fetched. The update is the batch form of Sculley's per-center
/// learning rate: with cumulative count `N_c` and a batch of `m_c` rows
/// summing to `S_c`, `N_c += m_c`, `η = m_c/N_c`, `c ← (1−η)·c +
/// η·(S_c/m_c)` (iteration 0 reduces to the plain mean).
struct MiniBatchAlgo {
    batch: usize,
    n_total: usize,
    seed: u64,
    /// Cumulative per-center sample counts `N_c` across iterations.
    /// Mutated only inside the coordinator's exclusive update window
    /// (uncontended); identical on every knord rank because the inputs are
    /// allreduced.
    cum_counts: Mutex<Vec<u64>>,
}

/// SplitMix64 — the standard 64-bit finalizing mixer.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl MmAlgorithm for MiniBatchAlgo {
    fn name(&self) -> &'static str {
        "minibatch"
    }

    fn subsamples(&self) -> bool {
        true
    }

    fn row_in_scope(&self, global_row: usize, iter: usize) -> bool {
        if iter == 0 || self.batch >= self.n_total {
            return true;
        }
        let h = splitmix64(self.seed ^ (iter as u64).rotate_left(32) ^ global_row as u64);
        // Include iff h/2^64 < batch/n, in exact integer arithmetic.
        (h as u128) * (self.n_total as u128) < (self.batch as u128) << 64
    }

    fn map(&self, v: &[f64], cents: &Centroids) -> MapOut {
        let (a, _) = nearest(v, &cents.means, cents.k());
        MapOut { cluster: a as u32, weight: 1.0 }
    }

    fn update(&self, ctx: &mut UpdateCtx<'_>) {
        let (k, d) = (ctx.prev.k(), ctx.prev.d);
        let mut cum = self.cum_counts.lock().expect("mini-batch state poisoned");
        for c in 0..k {
            let m_c = ctx.counts[c].max(0) as u64;
            let dst = &mut ctx.next.means[c * d..(c + 1) * d];
            if m_c == 0 {
                dst.copy_from_slice(ctx.prev.mean(c));
                ctx.next.counts[c] = cum[c];
                continue;
            }
            cum[c] += m_c;
            let eta = m_c as f64 / cum[c] as f64;
            let inv_m = 1.0 / m_c as f64;
            let sum = &ctx.sums[c * d..(c + 1) * d];
            let prev = ctx.prev.mean(c);
            for j in 0..d {
                dst[j] = (1.0 - eta) * prev[j] + eta * (sum[j] * inv_m);
            }
            ctx.next.counts[c] = cum[c];
        }
    }

    fn converged(&self, _reassigned: u64, max_drift: f64, tol: f64) -> bool {
        // An empty or tiny batch trivially reassigns nothing; only centroid
        // drift (when a tolerance is set) or the iteration cap stops us.
        tol > 0.0 && max_drift <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_matrix::DMatrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_cents(k: usize, d: usize, seed: u64) -> Centroids {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Centroids::zeros(k, d);
        for x in c.means.iter_mut() {
            *x = rng.gen_range(-3.0..3.0);
        }
        c
    }

    #[test]
    fn lloyd_map_is_nearest_and_update_is_finalize_means() {
        let cents = random_cents(5, 4, 1);
        let v = [0.3, -1.2, 0.8, 2.0];
        let o = LloydAlgo.map(&v, &cents);
        let (a, _) = nearest(&v, &cents.means, 5);
        assert_eq!(o.cluster as usize, a);
        assert_eq!(o.weight, 1.0);
        assert!(LloydAlgo.is_lloyd() && LloydAlgo.prune_eligible());
    }

    #[test]
    fn spherical_map_block_matches_scalar_map() {
        let algo = Algorithm::Spherical.resolve(7, 100, 0);
        let mut cents = random_cents(7, 6, 2);
        algo.prepare_init(&mut cents);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let block: Vec<f64> = (0..23 * 6).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let (mut best, mut weights, mut score) = (Vec::new(), Vec::new(), Vec::new());
        algo.map_block(&block, 6, &cents, &mut best, &mut weights, &mut score);
        for (i, row) in block.chunks_exact(6).enumerate() {
            let o = algo.map(row, &cents);
            assert_eq!(best[i], o.cluster, "row {i}");
            assert_eq!(weights[i].to_bits(), o.weight.to_bits(), "row {i} weight");
        }
    }

    #[test]
    fn fuzzy_map_block_matches_scalar_map() {
        // The cached-distance block path must be bit-identical to the
        // recomputing reference `map`.
        let algo = Algorithm::Fuzzy { m: 1.7 }.resolve(9, 100, 0);
        let cents = random_cents(9, 5, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let block: Vec<f64> = (0..31 * 5).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let (mut best, mut weights, mut score) = (Vec::new(), Vec::new(), Vec::new());
        algo.map_block(&block, 5, &cents, &mut best, &mut weights, &mut score);
        for (i, row) in block.chunks_exact(5).enumerate() {
            let o = algo.map(row, &cents);
            assert_eq!(best[i], o.cluster, "row {i}");
            assert_eq!(weights[i].to_bits(), o.weight.to_bits(), "row {i} weight");
        }
    }

    #[test]
    fn spherical_prepare_init_unit_norms() {
        let algo = Algorithm::Spherical.resolve(3, 10, 0);
        let mut c =
            Centroids::from_matrix(&DMatrix::from_vec(vec![3.0, 4.0, 0.0, 0.0, 1.0, 1.0], 3, 2));
        algo.prepare_init(&mut c);
        assert!((sqnorm(c.mean(0)) - 1.0).abs() < 1e-12);
        assert_eq!(c.mean(1), &[0.0, 0.0], "zero rows untouched");
        assert!((sqnorm(c.mean(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fuzzy_weights_are_normalized_memberships() {
        let algo = Algorithm::Fuzzy { m: 2.0 }.resolve(6, 100, 0);
        let cents = random_cents(6, 5, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..300 {
            let v: Vec<f64> = (0..5).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let o = algo.map(&v, &cents);
            assert!(o.weight.is_finite());
            assert!(o.weight > 0.0 && o.weight <= 1.0, "weight {} out of (0,1]", o.weight);
            // The hard choice is still the nearest centroid.
            let (a, _) = nearest(&v, &cents.means, 6);
            assert_eq!(o.cluster as usize, a);
        }
        // Sitting exactly on a centroid gives full membership.
        let on = cents.mean(2).to_vec();
        assert_eq!(algo.map(&on, &cents).weight, 1.0);
    }

    #[test]
    fn minibatch_sampling_is_deterministic_and_near_target_rate() {
        let n = 20_000usize;
        let batch = 2_000usize;
        let algo = Algorithm::MiniBatch { batch }.resolve(4, n, 7);
        assert!(algo.subsamples());
        for iter in [1usize, 2, 9] {
            let hits = (0..n).filter(|&r| algo.row_in_scope(r, iter)).count();
            let hits2 = (0..n).filter(|&r| algo.row_in_scope(r, iter)).count();
            assert_eq!(hits, hits2, "sampling must be stateless");
            // Bernoulli(batch/n): within ±25% of the target at this n.
            assert!(
                (hits as f64 - batch as f64).abs() < 0.25 * batch as f64,
                "iter {iter}: sampled {hits}, wanted ≈{batch}"
            );
        }
        // Iteration 0 covers everything.
        assert!((0..n).all(|r| algo.row_in_scope(r, 0)));
    }

    #[test]
    fn minibatch_update_is_batch_learning_rate() {
        let algo = Algorithm::MiniBatch { batch: 4 }.resolve(2, 8, 0);
        let prev = Centroids::from_matrix(&DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2));
        let mut next = Centroids::zeros(2, 2);
        // Iteration 0: N starts at 0, so the update is the plain batch mean.
        let sums = vec![4.0, 8.0, 0.0, 0.0];
        let counts = vec![2i64, 0];
        let weights = vec![2.0, 0.0];
        let mut ctx = UpdateCtx {
            iter: 0,
            sums: &sums,
            counts: &counts,
            weights: &weights,
            prev: &prev,
            next: &mut next,
        };
        algo.update(&mut ctx);
        assert_eq!(next.mean(0), &[2.0, 4.0]);
        assert_eq!(next.mean(1), &[10.0, 10.0], "empty cluster keeps position");
        // Second batch: N=2, m=2 → η = 0.5, halfway toward the batch mean.
        let prev2 = next.clone();
        let mut next2 = Centroids::zeros(2, 2);
        let sums2 = vec![12.0, 16.0, 0.0, 0.0];
        let mut ctx2 = UpdateCtx {
            iter: 1,
            sums: &sums2,
            counts: &counts,
            weights: &weights,
            prev: &prev2,
            next: &mut next2,
        };
        algo.update(&mut ctx2);
        assert_eq!(next2.mean(0), &[4.0, 6.0]); // (2,4)·½ + (6,8)·½
    }

    #[test]
    fn converged_hooks() {
        let lloyd = LloydAlgo;
        assert!(lloyd.converged(0, 1.0, 0.0));
        assert!(!lloyd.converged(5, 1.0, 0.0));
        assert!(lloyd.converged(5, 0.0, 0.0), "zero drift is a fixed point");
        assert!(lloyd.converged(5, 0.01, 0.05));
        let mb = Algorithm::MiniBatch { batch: 8 }.resolve(2, 100, 0);
        assert!(!mb.converged(0, 1.0, 0.0), "mini-batch ignores reassignments");
        assert!(mb.converged(9, 0.01, 0.05));
    }

    #[test]
    fn spec_strings_round_trip() {
        for algo in [
            Algorithm::Lloyd,
            Algorithm::Spherical,
            Algorithm::Fuzzy { m: 1.7 },
            Algorithm::Fuzzy { m: 2.0 },
            Algorithm::MiniBatch { batch: 512 },
        ] {
            let spec = algo.spec_string();
            assert_eq!(Algorithm::parse_spec(&spec), Some(algo.clone()), "spec {spec}");
        }
        assert_eq!(Algorithm::parse_spec("fuzzy"), Some(Algorithm::Fuzzy { m: 2.0 }));
        for bad in ["", "kmedoids", "fuzzy:1.0", "fuzzy:x", "minibatch", "minibatch:0", "lloyd:3"] {
            assert_eq!(Algorithm::parse_spec(bad), None, "spec {bad:?} must be rejected");
        }
    }

    #[test]
    fn normalization_metadata_and_apply() {
        assert_eq!(Algorithm::Lloyd.normalization(), Normalization::None);
        assert_eq!(Algorithm::Spherical.normalization(), Normalization::UnitRow);
        assert_eq!(Normalization::parse("unitrow"), Some(Normalization::UnitRow));
        assert_eq!(Normalization::parse("bogus"), None);

        let row = [3.0, 4.0];
        let mut out = [0.0; 2];
        Normalization::UnitRow.apply(&row, &mut out);
        // Must match the training-side arithmetic exactly: x * (1/‖x‖).
        let inv = 1.0 / sqnorm(&row).sqrt();
        assert_eq!(out, [3.0 * inv, 4.0 * inv]);
        Normalization::None.apply(&row, &mut out);
        assert_eq!(out, row);
        let zero = [0.0, 0.0];
        Normalization::UnitRow.apply(&zero, &mut out);
        assert_eq!(out, zero, "zero rows pass through");
    }

    #[test]
    fn resolve_names_and_eligibility() {
        for (algo, name, prune) in [
            (Algorithm::Lloyd, "lloyd", true),
            (Algorithm::Spherical, "spherical", false),
            (Algorithm::Fuzzy { m: 2.0 }, "fuzzy", false),
            (Algorithm::MiniBatch { batch: 32 }, "minibatch", false),
        ] {
            assert_eq!(algo.name(), name);
            assert_eq!(algo.prune_eligible(), prune);
            let r = algo.resolve(4, 100, 1);
            assert_eq!(r.name(), name);
            assert_eq!(r.prune_eligible(), prune);
            assert_eq!(r.is_lloyd(), prune);
        }
    }
}

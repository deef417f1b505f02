//! Distance-pruning state: MTI (the paper's scheme) and Yinyang group
//! bounds.
//!
//! MTI keeps per point only an upper bound `u(x) >= d(x, assigned(x))`
//! (`O(n)` memory) and per iteration an `O(k²)` table of centroid–centroid
//! *half* distances `½·d(c, c')` — the thresholds its clauses compare a
//! bound against — with per-centroid `s(c) = ½·min_{c'≠c} d(c, c')`. After
//! each centroid update the bounds are *loosened* by the assigned
//! centroid's drift `f(c) = d(c^t, c^{t-1})` — the triangle inequality
//! guarantees the loosened bound still dominates the true distance. The
//! three clauses are applied by the engines (in-memory and SEM) through
//! [`MtiIterState`]; [`mti_assign`] walks a row's candidates 64 at a time
//! as a bitmask over the assigned centroid's table row.
//!
//! Yinyang (Ding et al., ICML'15) trades `O(n·t)` memory for stronger
//! bounds: centroids are clustered once into `t = max(1, k/10)` groups
//! ([`YinyangState::group`]), every point keeps a per-*group* lower bound
//! next to the global upper bound, and each iteration loosens the group
//! bounds by the group's maximum drift. The global filter skips the whole
//! row (and, on the SEM plane, the row's I/O); the group filter skips
//! whole groups of candidates. Both schemes are exact — trajectories match
//! the unpruned path bit for bit.

use crate::centroids::Centroids;
use crate::distance::{dist, half_centroid_distances, half_row_minima};

/// Which pruning scheme an engine applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// No pruning: every point computes all `k` distances each iteration
    /// (the `-` suffix modules: knori-, knors-, knord-).
    None,
    /// Minimal triangle inequality (the paper's contribution).
    #[default]
    Mti,
    /// Yinyang group bounds: `t = max(1, k/10)` per-row lower bounds plus
    /// the global upper bound (`O(n·t)` memory, `O(k + t)` shared state).
    Yinyang,
}

impl Pruning {
    /// True when any pruning scheme is enabled.
    pub fn enabled(&self) -> bool {
        !matches!(self, Pruning::None)
    }

    /// Parse a CLI spelling (`none | mti | yinyang`).
    pub fn parse(s: &str) -> Option<Pruning> {
        match s {
            "none" => Some(Pruning::None),
            "mti" => Some(Pruning::Mti),
            "yinyang" => Some(Pruning::Yinyang),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Pruning::None => "none",
            Pruning::Mti => "mti",
            Pruning::Yinyang => "yinyang",
        }
    }
}

/// Number of Yinyang centroid groups for `k` clusters (`max(1, k/10)`,
/// the ratio from the Yinyang paper).
pub fn yinyang_groups(k: usize) -> usize {
    (k / 10).max(1)
}

/// Shared Yinyang state: the one-time centroid grouping plus the
/// per-iteration drift vectors, rebuilt by the coordinator after every
/// centroid update and read-only during the compute super-phase.
#[derive(Debug, Clone)]
pub struct YinyangState {
    /// Group id of each centroid (`len k`).
    pub group_of: Vec<u32>,
    /// CSR offsets into [`Self::group_members`] (`len t + 1`).
    group_start: Vec<u32>,
    /// Centroid ids sorted by group, ascending within each group.
    group_members: Vec<u32>,
    /// Drift `f(c) = d(c^t, c^{t-1})` per centroid (`len k`).
    pub drift: Vec<f64>,
    /// Max drift over each group's members (`len t`) — the per-group
    /// loosening amount, and the only Yinyang quantity knord puts on the
    /// wire beyond the shared accumulator payload.
    pub group_drift: Vec<f64>,
}

impl YinyangState {
    /// Zero-size placeholder for runs where Yinyang is off.
    pub fn empty() -> Self {
        Self {
            group_of: Vec::new(),
            group_start: vec![0],
            group_members: Vec::new(),
            drift: Vec::new(),
            group_drift: Vec::new(),
        }
    }

    /// Cluster the initial centroids into `t = max(1, k/10)` groups (five
    /// serial Lloyd iterations on the centers themselves, as the Yinyang
    /// paper prescribes). Deterministic in `init`, so every knord rank
    /// derives the identical grouping with zero wire traffic.
    pub fn group(init: &Centroids) -> Self {
        let k = init.k();
        let t = yinyang_groups(k);
        let group_of: Vec<u32> = if t == 1 {
            vec![0; k]
        } else {
            let r = crate::serial::lloyd_serial(
                &init.to_matrix(),
                t,
                &crate::init::InitMethod::Forgy,
                1,
                5,
                0.0,
            );
            r.assignments
        };
        let mut group_start = vec![0u32; t + 1];
        for &g in &group_of {
            group_start[g as usize + 1] += 1;
        }
        for g in 0..t {
            group_start[g + 1] += group_start[g];
        }
        let mut cursor = group_start.clone();
        let mut group_members = vec![0u32; k];
        for (c, &g) in group_of.iter().enumerate() {
            group_members[cursor[g as usize] as usize] = c as u32;
            cursor[g as usize] += 1;
        }
        Self {
            group_of,
            group_start,
            group_members,
            drift: vec![0.0; k],
            group_drift: vec![0.0; t],
        }
    }

    /// Number of groups `t` (0 for [`Self::empty`]).
    pub fn t(&self) -> usize {
        self.group_drift.len()
    }

    /// Centroid ids of group `g`, ascending.
    #[inline]
    pub fn members(&self, g: usize) -> &[u32] {
        &self.group_members[self.group_start[g] as usize..self.group_start[g + 1] as usize]
    }

    /// Fold the per-centroid drifts into per-group maxima. The coordinator
    /// calls this after the drift pass; knord then max-allreduces the
    /// result (bitwise a no-op — every rank computed identical values).
    pub fn update_group_drift(&mut self) {
        self.group_drift.fill(0.0);
        for (c, &g) in self.group_of.iter().enumerate() {
            let g = g as usize;
            if self.drift[c] > self.group_drift[g] {
                self.group_drift[g] = self.drift[c];
            }
        }
    }

    /// Heap bytes of the shared state (`O(k + t)` — the per-row bounds are
    /// accounted separately as `n·(t+1)·8`).
    pub fn heap_bytes(&self) -> u64 {
        ((self.group_of.len() + self.group_start.len() + self.group_members.len()) * 4
            + (self.drift.len() + self.group_drift.len()) * 8) as u64
    }
}

/// Per-iteration global MTI state, rebuilt by the coordinator after every
/// centroid update and read-only during the compute super-phase.
#[derive(Debug, Clone)]
pub struct MtiIterState {
    /// `k x k`, `half_cc[a*k + c] = ½·d(a, c)`: symmetric, `+∞` on the
    /// diagonal. Row `a` is the Clause 2/3 threshold of every candidate
    /// for a point assigned to `a`.
    pub half_cc: Vec<f64>,
    /// `s(c) = ½·min_{c'≠c} d(c, c')` per centroid (Clause 1 threshold).
    pub half_min: Vec<f64>,
    /// Drift `f(c) = d(c^t, c^{t-1})` per centroid.
    pub drift: Vec<f64>,
    k: usize,
}

impl MtiIterState {
    /// State for `k` centroids: zero drift and thresholds, the table's
    /// diagonal already `+∞` (no rebuild writes it again).
    pub fn new(k: usize) -> Self {
        let mut half_cc = vec![0.0; k * k];
        for c in 0..k {
            half_cc[c * k + c] = f64::INFINITY;
        }
        Self { half_cc, half_min: vec![0.0; k], drift: vec![0.0; k], k }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Recompute the half-distance table and thresholds for `next`, and
    /// the drifts from `prev` to `next`. (The driver writes drifts inline
    /// from its fused drift/convergence loop and calls [`Self::rebuild`] —
    /// or fills the table in parallel and calls
    /// [`Self::finalize_half_min`] — instead; this convenience wrapper
    /// serves tests and baselines.)
    pub fn update(&mut self, prev: &Centroids, next: &Centroids) {
        debug_assert_eq!(prev.k(), self.k);
        for c in 0..self.k {
            self.drift[c] = dist(prev.mean(c), next.mean(c));
        }
        self.rebuild(next);
    }

    /// Recompute the half-distance table and thresholds for `cents`,
    /// serially.
    pub fn rebuild(&mut self, cents: &Centroids) {
        half_centroid_distances(
            &cents.means,
            self.k,
            cents.d,
            &mut self.half_cc,
            &mut self.half_min,
        );
    }

    /// Derive `half_min` from an already-filled table. The driver calls
    /// this after its workers filled disjoint pairs of it in parallel
    /// (large-`k` runs).
    pub fn finalize_half_min(&mut self) {
        half_row_minima(&self.half_cc, self.k, &mut self.half_min);
    }

    /// Row `a` of the table: `½·d(a, c)` for every candidate `c`, `+∞` at
    /// `c = a`.
    #[inline]
    pub fn half_row(&self, a: usize) -> &[f64] {
        &self.half_cc[a * self.k..(a + 1) * self.k]
    }

    /// Heap bytes held (`O(k²)` of Table 1's knori/knord rows).
    pub fn heap_bytes(&self) -> u64 {
        ((self.half_cc.len() + self.half_min.len() + self.drift.len()) * 8) as u64
    }
}

/// Outcome counters for pruning effectiveness (reported per iteration).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneCounters {
    /// Rows skipped entirely by Clause 1 (no data access / no I/O).
    pub clause1_rows: u64,
    /// Candidate distance computations pruned by Clause 2.
    pub clause2_prunes: u64,
    /// Candidate distance computations pruned by Clause 3 (post-tighten).
    pub clause3_prunes: u64,
    /// Exact distance computations performed.
    pub dist_computations: u64,
    /// Rows whose *fetch* a staged (SEM) plane skipped because the row was
    /// bound-pruned before its data was needed. A subset of
    /// [`Self::clause1_rows`] — distance-pruning and I/O-avoidance are
    /// reported separately.
    pub io_skip_rows: u64,
}

impl PruneCounters {
    /// Merge counters from another worker.
    pub fn merge(&mut self, o: &PruneCounters) {
        self.clause1_rows += o.clause1_rows;
        self.clause2_prunes += o.clause2_prunes;
        self.clause3_prunes += o.clause3_prunes;
        self.dist_computations += o.dist_computations;
        self.io_skip_rows += o.io_skip_rows;
    }

    /// Total pruned candidate computations (clauses 2+3).
    pub fn pruned_candidates(&self) -> u64 {
        self.clause2_prunes + self.clause3_prunes
    }
}

/// Bit `i` set iff `thresholds[i]` prunes a candidate under `bound` — the
/// clauses' `bound <= threshold`, which a NaN bound never satisfies. At
/// most 64 thresholds; the bits above them are clear.
#[inline]
fn pruned_mask(thresholds: &[f64], bound: f64) -> u64 {
    debug_assert!(thresholds.len() <= 64);
    let mut mask = 0u64;
    for (i, &t) in thresholds.iter().enumerate() {
        mask |= u64::from(bound <= t) << i;
    }
    mask
}

/// Evaluate one point under MTI against the current centroids.
///
/// `a` is the current assignment, `ub` the (already drift-loosened) upper
/// bound. Returns the new `(assignment, upper_bound)`; `counters` records
/// pruning outcomes. The caller has already decided Clause 1 did not fire
/// (Clause 1 is checked *before* the row data is fetched — that is where
/// knors saves its I/O).
///
/// The candidates are visited in ascending order, each against the
/// threshold `½·d(cur, c)` of the *current* assignment and bound: pruned by
/// Clause 2, or — once, at the first that is not — the bound is tightened
/// to the exact distance and re-tested (Clause 3), or its distance is
/// computed and it may become the assignment. Between two events that
/// change `cur` or `bound` that is one comparison per candidate against
/// one contiguous table row, so it is done 64 candidates at a time:
/// [`pruned_mask`] over the row, the first clear bit is the next candidate
/// to act on, and the set bits skipped are Clause-2 prunes. Same decisions, same
/// counters, same bits as the one-candidate-at-a-time walk.
#[inline]
pub fn mti_assign(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    a: usize,
    ub: f64,
    counters: &mut PruneCounters,
) -> (usize, f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 support verified at runtime.
        return unsafe { x86::mti_assign_avx2(v, cents, state, a, ub, counters) };
    }
    mti_scan(v, cents, state, a, ub, counters, pruned_mask)
}

/// AVX2 build of the scan: the mask is four comparisons per instruction,
/// and the distances inline as 4-wide lanes that map one-to-one onto
/// [`dist`]'s four accumulators — un-fused (an FMA would round a
/// multiply-add once instead of twice), so every bit matches the portable
/// build.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{mti_scan, Centroids, MtiIterState, PruneCounters};

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mti_assign_avx2(
        v: &[f64],
        cents: &Centroids,
        state: &MtiIterState,
        a: usize,
        ub: f64,
        counters: &mut PruneCounters,
    ) -> (usize, f64) {
        // Safety: closures inherit the enclosing function's target features.
        mti_scan(v, cents, state, a, ub, counters, |t, b| unsafe { pruned_mask_avx2(t, b) })
    }

    /// [`super::pruned_mask`], four thresholds per comparison.
    ///
    /// # Safety
    /// Must only execute under AVX2 — guaranteed by being called only from
    /// the feature-gated scan above.
    #[inline(always)]
    unsafe fn pruned_mask_avx2(thresholds: &[f64], bound: f64) -> u64 {
        use std::arch::x86_64::*;
        debug_assert!(thresholds.len() <= 64);
        let b = _mm256_set1_pd(bound);
        let mut mask = 0u64;
        let mut chunks = thresholds.chunks_exact(4);
        let mut at = 0;
        for ch in chunks.by_ref() {
            // Less-or-equal, false on NaN: `bound <= t` per lane.
            let pruned = _mm256_cmp_pd::<_CMP_LE_OQ>(b, _mm256_loadu_pd(ch.as_ptr()));
            mask |= (_mm256_movemask_pd(pruned) as u64) << at;
            at += 4;
        }
        for (i, &t) in chunks.remainder().iter().enumerate() {
            mask |= u64::from(bound <= t) << (at + i);
        }
        mask
    }
}

/// [`mti_assign`]'s walk, monomorphized over the mask builder.
#[inline(always)]
fn mti_scan(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    a: usize,
    ub: f64,
    counters: &mut PruneCounters,
    pruned_mask: impl Fn(&[f64], f64) -> u64,
) -> (usize, f64) {
    let k = cents.k();
    let mut cur = a;
    let mut bound = ub;
    let mut tight = false;
    for base in (0..k).step_by(64) {
        let len = (k - base).min(64);
        // Candidates of this word not yet passed; `cur` is never one.
        let mut ahead = u64::MAX >> (64 - len);
        let mut pruned = pruned_mask(&state.half_row(cur)[base..base + len], bound);
        loop {
            let own = if (base..base + len).contains(&cur) { 1u64 << (cur - base) } else { 0 };
            let candidates = ahead & !own;
            let next = !pruned & candidates;
            if next == 0 {
                counters.clause2_prunes += u64::from(candidates.count_ones());
                break;
            }
            let bit = next.trailing_zeros();
            let below = (1u64 << bit) - 1;
            counters.clause2_prunes += u64::from((candidates & below).count_ones());
            ahead &= !(below | 1 << bit);
            let c = base + bit as usize;
            // Whether `cur` or `bound` changes here, which stales `pruned`.
            let mut moved = !tight;
            if !tight {
                // U(u_t): fully tighten the upper bound with one exact distance.
                bound = dist(v, cents.mean(cur));
                counters.dist_computations += 1;
                tight = true;
            }
            if moved && bound <= state.half_row(cur)[c] {
                counters.clause3_prunes += 1;
            } else {
                let dc = dist(v, cents.mean(c));
                counters.dist_computations += 1;
                if dc < bound {
                    cur = c;
                    bound = dc; // exact: reassignment keeps the bound tight
                    moved = true;
                }
            }
            if moved {
                pruned = pruned_mask(&state.half_row(cur)[base..base + len], bound);
            }
        }
    }
    (cur, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::nearest;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The clause machine one candidate at a time — what [`mti_assign`]
    /// must reproduce decision for decision.
    fn mti_assign_scalar(
        v: &[f64],
        cents: &Centroids,
        state: &MtiIterState,
        a: usize,
        ub: f64,
        counters: &mut PruneCounters,
    ) -> (usize, f64) {
        let mut cur = a;
        let mut bound = ub;
        let mut tight = false;
        for c in 0..cents.k() {
            if c == cur {
                continue;
            }
            let threshold = state.half_row(cur)[c];
            if bound <= threshold {
                counters.clause2_prunes += 1;
                continue;
            }
            if !tight {
                bound = dist(v, cents.mean(cur));
                counters.dist_computations += 1;
                tight = true;
                if bound <= threshold {
                    counters.clause3_prunes += 1;
                    continue;
                }
            }
            let dc = dist(v, cents.mean(c));
            counters.dist_computations += 1;
            if dc < bound {
                cur = c;
                bound = dc;
            }
        }
        (cur, bound)
    }

    #[test]
    fn bitmask_scan_reproduces_the_sequential_clause_machine() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut clause3 = 0;
        for k in [1usize, 2, 7, 32, 63, 64, 65, 130] {
            for d in [1usize, 5] {
                for (duplicates, drifting) in [(false, true), (true, true), (false, false)] {
                    let mut prev = random_centroids(k, d, &mut rng);
                    if duplicates {
                        // Ties: every odd centroid repeats its left neighbour.
                        for c in (1..k).step_by(2) {
                            let (left, right) = prev.means.split_at_mut(c * d);
                            right[..d].copy_from_slice(&left[(c - 1) * d..]);
                        }
                    }
                    let mut cents = prev.clone();
                    if drifting {
                        for x in cents.means.iter_mut() {
                            *x += rng.gen_range(-0.3..0.3);
                        }
                    }
                    let mut state = MtiIterState::new(k);
                    state.update(&prev, &cents);
                    for i in 0..300 {
                        let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
                        let (a, da) = nearest(&v, &prev.means, k);
                        // A valid loosened bound, now and then padded so the
                        // tighten pass is what prunes (Clause 3), or left
                        // infinite as before a row's first scan.
                        let ub = match i % 7 {
                            0 => da + state.drift[a] + rng.gen_range(0.0..4.0),
                            1 => f64::INFINITY,
                            _ => da + state.drift[a],
                        };
                        let what = format!("k={k} d={d} dup={duplicates} drift={drifting} i={i}");
                        let (mut fast, mut slow) =
                            (PruneCounters::default(), PruneCounters::default());
                        let got = mti_assign(&v, &cents, &state, a, ub, &mut fast);
                        let want = mti_assign_scalar(&v, &cents, &state, a, ub, &mut slow);
                        assert_eq!(got.0, want.0, "{what}");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}");
                        assert_eq!(fast, slow, "{what}");
                        clause3 += fast.clause3_prunes;
                        // The portable mask too, where the dispatch above
                        // took the AVX2 one.
                        let mut portable = PruneCounters::default();
                        let got = mti_scan(&v, &cents, &state, a, ub, &mut portable, pruned_mask);
                        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()), "{what}");
                        assert_eq!(portable, slow, "{what}");
                    }
                }
            }
        }
        assert!(clause3 > 0, "no case exercised the tighten-then-prune path");
    }

    #[test]
    fn nan_rows_walk_the_same_path_as_the_sequential_machine() {
        // A NaN bound fails every `bound <= threshold`, so nothing prunes
        // and every candidate is evaluated — in both walks.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let cents = random_centroids(70, 3, &mut rng);
        let mut state = MtiIterState::new(70);
        state.update(&cents.clone(), &cents);
        let v = [f64::NAN, 0.5, 1.0];
        let (mut fast, mut slow) = (PruneCounters::default(), PruneCounters::default());
        let got = mti_assign(&v, &cents, &state, 3, f64::NAN, &mut fast);
        let want = mti_assign_scalar(&v, &cents, &state, 3, f64::NAN, &mut slow);
        assert_eq!(got.0, want.0);
        assert_eq!(got.1.to_bits(), want.1.to_bits());
        assert_eq!(fast, slow);
        assert_eq!(fast.dist_computations, 70);
    }

    fn random_centroids(k: usize, d: usize, rng: &mut impl Rng) -> Centroids {
        let mut c = Centroids::zeros(k, d);
        for x in c.means.iter_mut() {
            *x = rng.gen_range(-5.0..5.0);
        }
        c
    }

    #[test]
    fn mti_matches_exact_nearest() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let k = 8;
        let d = 6;
        let prev = random_centroids(k, d, &mut rng);
        let mut cents = prev.clone();
        // Perturb slightly to create non-zero drift.
        for x in cents.means.iter_mut() {
            *x += rng.gen_range(-0.1..0.1);
        }
        let mut state = MtiIterState::new(k);
        state.update(&prev, &cents);

        for _ in 0..500 {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
            // Simulate a prior assignment against prev with valid bound.
            let (a_prev, d_prev) = nearest(&v, &prev.means, k);
            let ub = d_prev + state.drift[a_prev]; // loosened bound
            let mut counters = PruneCounters::default();
            let (a_new, ub_new) = mti_assign(&v, &cents, &state, a_prev, ub, &mut counters);
            let (a_exact, d_exact) = nearest(&v, &cents.means, k);
            let d_new = dist(&v, cents.mean(a_new));
            assert!(
                (d_new - d_exact).abs() < 1e-10,
                "MTI picked a non-nearest centroid: {d_new} vs {d_exact}"
            );
            assert_eq!(a_new, a_exact);
            // Upper bound invariant.
            assert!(ub_new + 1e-10 >= d_new, "bound {ub_new} below true {d_new}");
        }
    }

    #[test]
    fn clause1_threshold_is_safe() {
        // If ub <= half_min[a], a must be the exact nearest.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let k = 6;
        let d = 4;
        let cents = random_centroids(k, d, &mut rng);
        let mut state = MtiIterState::new(k);
        state.update(&cents.clone(), &cents);
        let mut checked = 0;
        for _ in 0..2000 {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let (a, da) = nearest(&v, &cents.means, k);
            if da <= state.half_min[a] {
                checked += 1;
                // Verify no other centroid is nearer.
                for c in 0..k {
                    assert!(dist(&v, cents.mean(c)) + 1e-12 >= da);
                }
            }
        }
        assert!(checked > 0, "test never exercised clause 1");
    }

    #[test]
    fn counters_account_for_all_candidates() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let k = 10;
        let d = 4;
        let cents = random_centroids(k, d, &mut rng);
        let mut state = MtiIterState::new(k);
        state.update(&cents.clone(), &cents);
        let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let (a, da) = nearest(&v, &cents.means, k);
        let mut counters = PruneCounters::default();
        let _ = mti_assign(&v, &cents, &state, a, da, &mut counters);
        // Each of the k-1 candidates is pruned (2 or 3) or computed; plus at
        // most one tighten computation.
        let candidates = counters.clause2_prunes
            + counters.clause3_prunes
            + counters.dist_computations.saturating_sub(u64::from(
                counters.dist_computations > 0 && counters.clause3_prunes > 0,
            ));
        assert!(candidates >= (k - 1) as u64 - 1, "counters {counters:?}");
    }

    #[test]
    fn mti_exact_across_several_mask_words() {
        // k > 64 spreads a row's candidates over more than one mask word.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let k = 72;
        let d = 4;
        let prev = random_centroids(k, d, &mut rng);
        let mut cents = prev.clone();
        for x in cents.means.iter_mut() {
            *x += rng.gen_range(-0.05..0.05);
        }
        let mut state = MtiIterState::new(k);
        state.update(&prev, &cents);
        for _ in 0..200 {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
            let (a_prev, d_prev) = nearest(&v, &prev.means, k);
            let ub = d_prev + state.drift[a_prev];
            let mut counters = PruneCounters::default();
            let (a_new, _) = mti_assign(&v, &cents, &state, a_prev, ub, &mut counters);
            let (a_exact, _) = nearest(&v, &cents.means, k);
            assert_eq!(a_new, a_exact);
        }
    }

    #[test]
    fn finalize_half_min_matches_serial_rebuild() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for k in [1usize, 2, 9, 67] {
            let cents = random_centroids(k, 5, &mut rng);
            let mut serial = MtiIterState::new(k);
            serial.rebuild(&cents);
            // Simulate the parallel path: fill every pair, both ways, then
            // finalize.
            let mut par = MtiIterState::new(k);
            for i in 0..k {
                for j in (i + 1)..k {
                    let h = 0.5 * dist(cents.mean(i), cents.mean(j));
                    par.half_cc[i * k + j] = h;
                    par.half_cc[j * k + i] = h;
                }
            }
            par.finalize_half_min();
            assert_eq!(par.half_cc, serial.half_cc, "k = {k}");
            assert_eq!(par.half_min, serial.half_min, "k = {k}");
        }
    }

    #[test]
    fn pruning_parse_name_roundtrip() {
        for p in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            assert_eq!(Pruning::parse(p.name()), Some(p));
        }
        assert_eq!(Pruning::parse("banana"), None);
        assert!(!Pruning::None.enabled());
        assert!(Pruning::Mti.enabled());
        assert!(Pruning::Yinyang.enabled());
    }

    #[test]
    fn yinyang_grouping_is_a_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in [1usize, 7, 10, 25, 64] {
            let cents = random_centroids(k, 4, &mut rng);
            let yy = YinyangState::group(&cents);
            assert_eq!(yy.t(), (k / 10).max(1));
            assert_eq!(yy.group_of.len(), k);
            // CSR members cover every centroid exactly once, ascending
            // within each group, and agree with group_of.
            let mut seen = vec![false; k];
            for g in 0..yy.t() {
                let m = yy.members(g);
                assert!(m.windows(2).all(|w| w[0] < w[1]), "k={k} g={g}");
                for &c in m {
                    assert_eq!(yy.group_of[c as usize] as usize, g);
                    assert!(!seen[c as usize]);
                    seen[c as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "k={k}: member lists must cover all centroids");
        }
    }

    #[test]
    fn group_drift_is_member_max() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cents = random_centroids(23, 3, &mut rng);
        let mut yy = YinyangState::group(&cents);
        for (c, d) in yy.drift.iter_mut().enumerate() {
            *d = c as f64 * 0.5;
        }
        yy.update_group_drift();
        for g in 0..yy.t() {
            let want = yy.members(g).iter().map(|&c| yy.drift[c as usize]).fold(0.0, f64::max);
            assert_eq!(yy.group_drift[g], want);
        }
    }

    #[test]
    fn update_computes_drift() {
        let prev = Centroids { means: vec![0.0, 0.0, 3.0, 0.0], counts: vec![1, 1], d: 2 };
        let next = Centroids { means: vec![0.0, 4.0, 3.0, 0.0], counts: vec![1, 1], d: 2 };
        let mut s = MtiIterState::new(2);
        s.update(&prev, &next);
        assert!((s.drift[0] - 4.0).abs() < 1e-12);
        assert_eq!(s.drift[1], 0.0);
        // (0,4) and (3,0) are 5 apart.
        assert!((s.half_row(0)[1] - 2.5).abs() < 1e-12);
        assert_eq!(s.half_min, vec![2.5, 2.5]);
    }
}

//! Distance-pruning state: MTI, the paper's scheme.
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
//! as a bitmask over the assigned centroid's table row, and hands a row
//! whose tightened bound leaves many candidates open to one certified gemm
//! scan ([`RowScan`]). The scheme is exact — trajectories match the
//! unpruned path bit for bit.

use crate::centroids::Centroids;
use crate::distance::{dist, half_centroid_distances, half_row_minima};
use crate::kernel::{certified_row, panel_columns, CentroidPanel};

/// Which pruning scheme an engine applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// No pruning: every point computes all `k` distances each iteration
    /// (the `-` suffix modules: knori-, knors-, knord-).
    None,
    /// Minimal triangle inequality (the paper's contribution).
    #[default]
    Mti,
}

impl Pruning {
    /// A spelling of [`Pruning::Mti`]. The Yinyang group bounds it once
    /// named were exact too, so every result it gave is MTI's.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Yinyang: Pruning = Pruning::Mti;

    /// True when any pruning scheme is enabled.
    pub fn enabled(&self) -> bool {
        !matches!(self, Pruning::None)
    }

    /// Parse a CLI spelling (`none | mti`).
    pub fn parse(s: &str) -> Option<Pruning> {
        match s {
            "none" => Some(Pruning::None),
            "mti" => Some(Pruning::Mti),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Pruning::None => "none",
            Pruning::Mti => "mti",
        }
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
    /// Per centroid `a`, the candidate holding row `a`'s smallest
    /// threshold, lowest index on ties ([`half_row_minima`]).
    pub nn: Vec<u32>,
    /// Per centroid `a`, the smallest threshold of row `a` over every
    /// candidate but `nn[a]`; NaN if any of them is NaN. A bound at or
    /// below it prunes all of them.
    pub half_2nd: Vec<f64>,
    /// Drift `f(c) = d(c^t, c^{t-1})` per centroid.
    pub drift: Vec<f64>,
    /// Per centroid `a`, the [`scan_min_open`]-th smallest threshold of
    /// row `a`, NaN ranking lowest; `+∞` when the row has fewer
    /// candidates. A tight bound at or below it leaves fewer open
    /// candidates than the row scan needs ([`RowScan`]).
    pub half_scan: Vec<f64>,
    /// Scratch row for selecting `half_scan`, held so that a rebuild
    /// never allocates.
    order: Vec<f64>,
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
        Self {
            half_cc,
            half_min: vec![0.0; k],
            nn: vec![0; k],
            half_2nd: vec![0.0; k],
            drift: vec![0.0; k],
            half_scan: vec![0.0; k],
            order: Vec::with_capacity(k),
            k,
        }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Recompute the half-distance table and thresholds for `next`, and
    /// the drifts from `prev` to `next`. (The driver writes drifts inline
    /// from its fused drift/convergence loop and calls [`Self::rebuild`]
    /// instead; this convenience wrapper serves tests and baselines.)
    pub fn update(&mut self, prev: &Centroids, next: &Centroids) {
        debug_assert_eq!(prev.k(), self.k);
        for c in 0..self.k {
            self.drift[c] = dist(prev.mean(c), next.mean(c));
        }
        self.rebuild(next);
    }

    /// Recompute the half-distance table for `cents`, and from it
    /// `half_min`, `nn`, `half_2nd` and `half_scan`. The coordinator runs
    /// it serially: `O(k²·d)` for the table and `O(k²)` for the row
    /// selections.
    pub fn rebuild(&mut self, cents: &Centroids) {
        let k = self.k;
        half_centroid_distances(&cents.means, k, cents.d, &mut self.half_cc);
        half_row_minima(&self.half_cc, k, &mut self.half_min, &mut self.nn, &mut self.half_2nd);
        let nth = scan_min_open(k);
        for (a, row) in self.half_cc.chunks_exact(k.max(1)).enumerate() {
            // The diagonal's `+∞` ranks last, so below `k` the `nth`
            // smallest entry is a candidate's.
            self.half_scan[a] = if nth < k {
                self.order.clear();
                self.order
                    .extend(row.iter().map(|&t| if t.is_nan() { f64::NEG_INFINITY } else { t }));
                *self.order.select_nth_unstable_by(nth - 1, f64::total_cmp).1
            } else {
                f64::INFINITY
            };
        }
    }

    /// Row `a` of the table: `½·d(a, c)` for every candidate `c`, `+∞` at
    /// `c = a`.
    #[inline]
    pub fn half_row(&self, a: usize) -> &[f64] {
        &self.half_cc[a * self.k..(a + 1) * self.k]
    }

    /// Heap bytes the state for `k` centroids holds (`O(k²)` of Table 1's
    /// knori/knord rows): the table, `half_min`, `half_2nd`, `drift`,
    /// `half_scan` and its scratch row, and `nn`.
    pub fn bytes(k: usize) -> u64 {
        ((k * k + 5 * k) * 8 + k * 4) as u64
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
    /// Committed rows the one-candidate shortcut settled without the
    /// clause walk (see [`mti_assign`]).
    pub one_cand_rows: u64,
    /// Committed rows the one-row gemm scan settled after the tighten (see
    /// [`RowScan`]).
    pub gemm_rows: u64,
}

impl PruneCounters {
    /// Merge counters from another worker.
    pub fn merge(&mut self, o: &PruneCounters) {
        self.clause1_rows += o.clause1_rows;
        self.clause2_prunes += o.clause2_prunes;
        self.clause3_prunes += o.clause3_prunes;
        self.dist_computations += o.dist_computations;
        self.io_skip_rows += o.io_skip_rows;
        self.one_cand_rows += o.one_cand_rows;
        self.gemm_rows += o.gemm_rows;
    }
}

/// Whether `threshold` prunes a candidate under `bound`: the clauses'
/// `bound <= threshold`, which a NaN on either side never satisfies.
#[inline(always)]
fn prunes(bound: f64, threshold: f64) -> bool {
    bound <= threshold
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

/// k-means++'s skip test: whether a row at D² `cur` from its nearest
/// chosen center, which lies `cc` from the new center, keeps `cur` without
/// evaluating the new distance: `cc ≥ margin·cur`. A NaN `cc` and a
/// non-finite `cur` never pass, and neither does a subnormal `cur`, whose
/// terms may have lost more than the margin to underflow. (`cur = 0`
/// passes whenever `cc` is finite: no distance is below it.)
#[inline]
pub(crate) fn ruled_out(cc: f64, cur: f64, margin: f64) -> bool {
    cc >= margin * cur && (cur >= f64::MIN_POSITIVE || cur == 0.0)
}

/// [`ruled_out`]`(cc2[near], cur, margin)`, a `near` past `cc2` reading
/// NaN (so its row is evaluated).
#[inline(always)]
fn skipped(cc2: &[f64], near: u32, cur: f64, margin: f64) -> bool {
    ruled_out(cc2.get(near as usize).copied().unwrap_or(f64::NAN), cur, margin)
}

/// Bit `i` set iff [`skipped`]`(cc2, near[i], cur[i], margin)`. At most 64
/// rows; the bits above them are clear.
#[inline]
fn skip_mask(cc2: &[f64], near: &[u32], cur: &[f64], margin: f64) -> u64 {
    debug_assert!(near.len() == cur.len() && cur.len() <= 64);
    let mut mask = 0u64;
    for (i, (&nr, &cur)) in near.iter().zip(cur).enumerate() {
        mask |= u64::from(skipped(cc2, nr, cur, margin)) << i;
    }
    mask
}

/// k-means++'s skip test over a chunk of rows, 64 to a word: bit `i` of
/// `out[w]` set iff row `64·w + i` is ruled out (`skip_mask` per block),
/// with the host's fastest build. The mask only decides which rows a pass
/// reads; every D² it keeps or writes is the full scan's.
pub(crate) fn pp_skip_masks(cc2: &[f64], near: &[u32], cur: &[f64], margin: f64, out: &mut [u64]) {
    assert!(near.len() == cur.len() && out.len() == cur.len().div_ceil(64));
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 support verified at runtime.
        return unsafe { x86::pp_skip_masks_avx2(cc2, near, cur, margin, out) };
    }
    for ((nr, c), o) in near.chunks(64).zip(cur.chunks(64)).zip(out) {
        *o = skip_mask(cc2, nr, c, margin);
    }
}

/// A panel of `kp` columns scores one row in about the time of
/// `kp / COLUMNS_PER_DIST` exact distances (DESIGN.md §2 has the sweep).
const COLUMNS_PER_DIST: usize = 8;

/// The open-candidate count at which [`RowScan`] replaces the walk for `k`
/// centroids: one row scan's cost in exact distances, at least 2.
pub fn scan_min_open(k: usize) -> usize {
    (panel_columns(k) / COLUMNS_PER_DIST).max(2)
}

/// A worker's offer of the one-row gemm scan to [`mti_assign`]: the panel
/// it packed from this iteration's centroids, and a tally of the rows the
/// scan could not certify, which the walk then decided.
///
/// When the tightened bound `d(v, a)` leaves at least [`scan_min_open`]
/// candidates open, the row is scored once against the panel
/// ([`certified_row`]). A certified winner `w` is the walk's
/// answer, and `(w, d(v, w))` its bits: the certificate's margin rules out
/// both a tie in `√sqdist` and a pruned `w` (DESIGN.md §2). A winner that
/// is not certified, or that the walk could not reach (passed under a
/// loose bound), leaves the row to the walk.
#[derive(Debug)]
pub struct RowScan<'a> {
    panel: &'a CentroidPanel,
    /// Rows whose scan winner was not certified and went to the walk.
    pub rescored: u64,
}

impl<'a> RowScan<'a> {
    /// The scan against `panel`, packed from the centroids the rows are
    /// committed against.
    pub fn new(panel: &'a CentroidPanel) -> Self {
        Self { panel, rescored: 0 }
    }

    /// The walk's first stop `c0`, reached with `cur = a` and just
    /// tightened to `bound`; `ahead` holds the candidates of `c0`'s mask
    /// word past it. Scans the row when enough candidates from `c0` on are
    /// open, and counts what the walk would have: everything before `c0`
    /// is counted already, `c0` is a Clause-3 prune or a distance, and each
    /// candidate after it a Clause-2 prune or a distance. A bound at or
    /// below `half_scan[a]` cannot leave enough open, and is not counted.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn settle(
        &mut self,
        v: &[f64],
        cents: &Centroids,
        state: &MtiIterState,
        (a, bound): (usize, f64),
        c0: usize,
        ahead: u64,
        counters: &mut PruneCounters,
        pruned_mask: impl Fn(&[f64], f64) -> u64,
    ) -> Option<(usize, f64)> {
        if prunes(bound, state.half_scan[a]) {
            return None;
        }
        let (k, row) = (cents.k(), state.half_row(a));
        let own = |base: usize| if (base..base + 64).contains(&a) { 1u64 << (a - base) } else { 0 };
        let base = c0 - c0 % 64;
        let word = |base: usize, live: u64| {
            let len = (k - base).min(64);
            (!pruned_mask(&row[base..base + len], bound) & live & !own(base)).count_ones()
        };
        let mut open = word(base, ahead | 1 << (c0 - base));
        for base in (base + 64..k).step_by(64) {
            open += word(base, u64::MAX >> (64 - (k - base).min(64)));
        }
        if (open as usize) < scan_min_open(k) {
            return None;
        }
        let reachable = |w: usize| w == a || (w >= c0 && !prunes(bound, row[w]));
        let Some(w) = certified_row(v, cents, self.panel).filter(|&w| reachable(w)) else {
            self.rescored += 1;
            return None;
        };
        let clause3 = prunes(bound, row[c0]);
        let after = (k - 1 - c0 - usize::from(a > c0)) as u64;
        counters.clause3_prunes += u64::from(clause3);
        counters.clause2_prunes += after - (u64::from(open) - u64::from(!clause3));
        counters.dist_computations += u64::from(open);
        counters.gemm_rows += 1;
        Some((w, if w == a { bound } else { dist(v, cents.mean(w)) }))
    }
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
///
/// Most committed rows have one open candidate: at the loosened bound every
/// threshold of row `a` prunes but the nearest centroid's, `nn[a]`. Those
/// rows skip the walk ([`one_candidate`]). Given a `scan`, a row whose
/// tightened bound leaves many candidates open is scored once against the
/// worker's panel instead of walked ([`RowScan`]); the answer and its bits
/// are the walk's, the counters those of a walk that evaluates every open
/// candidate.
#[inline]
pub fn mti_assign(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    a: usize,
    ub: f64,
    scan: Option<&mut RowScan<'_>>,
    counters: &mut PruneCounters,
) -> (usize, f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 support verified at runtime.
        return unsafe { x86::mti_assign_avx2(v, cents, state, (a, ub), scan, counters) };
    }
    mti_commit(v, cents, state, (a, ub), scan, counters, pruned_mask)
}

/// [`mti_assign`] for one mask builder: the shortcut, else the walk.
#[inline(always)]
fn mti_commit(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    (a, ub): (usize, f64),
    scan: Option<&mut RowScan<'_>>,
    counters: &mut PruneCounters,
    pruned_mask: impl Fn(&[f64], f64) -> u64,
) -> (usize, f64) {
    match one_candidate(v, cents, state, a, ub, counters) {
        Some(settled) => settled,
        None => mti_scan(v, cents, state, (a, ub), scan, counters, pruned_mask),
    }
}

/// The walk for a row whose only open candidate is `nn = nn[a]`, settled
/// without it; `None`, counters untouched, when the walk must run.
///
/// When `ub <= half_cc[a][nn]` fails but `ub <= half_2nd[a]` holds, every
/// other candidate is a Clause-2 prune at `ub` (none of their thresholds is
/// NaN, and none is below `half_2nd[a]`), so the walk's first stop is `nn`.
/// There it tightens to `d(v, a)`, then prunes `nn` by Clause 3 or
/// computes `d(v, nn)`. If `nn` does not win and the tight bound is still
/// at or below `half_2nd[a]`, every candidate after `nn` prunes too, and
/// the walk ends at `(a, d(v, a))` having counted `k − 2` Clause-2 prunes.
/// A move to `nn`, or a tight bound above `half_2nd[a]`, is left to the
/// walk, which replays the row from `(a, ub)`.
#[inline(always)]
fn one_candidate(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    a: usize,
    ub: f64,
    counters: &mut PruneCounters,
) -> Option<(usize, f64)> {
    let nn = state.nn[a] as usize;
    let (t_nn, t_2nd) = (state.half_row(a)[nn], state.half_2nd[a]);
    // At k = 1, `nn == a` and its `+∞` threshold fails the first test.
    if prunes(ub, t_nn) || !prunes(ub, t_2nd) {
        return None;
    }
    let bound = dist(v, cents.mean(a));
    if !prunes(bound, t_2nd) {
        return None;
    }
    let clause3 = prunes(bound, t_nn);
    if !clause3 && dist(v, cents.mean(nn)) < bound {
        return None;
    }
    counters.clause2_prunes += (cents.k() - 2) as u64;
    counters.clause3_prunes += u64::from(clause3);
    counters.dist_computations += 2 - u64::from(clause3);
    counters.one_cand_rows += 1;
    Some((a, bound))
}

/// AVX2 build of the commit: the mask is four comparisons per instruction,
/// and the distances inline as 4-wide lanes that map one-to-one onto
/// [`dist`]'s four accumulators — un-fused (an FMA would round a
/// multiply-add once instead of twice), so every bit matches the portable
/// build. Also k-means++'s skip mask, four rows per comparison.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{mti_commit, Centroids, MtiIterState, PruneCounters, RowScan};

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mti_assign_avx2(
        v: &[f64],
        cents: &Centroids,
        state: &MtiIterState,
        bounded: (usize, f64),
        scan: Option<&mut RowScan<'_>>,
        counters: &mut PruneCounters,
    ) -> (usize, f64) {
        // Safety: closures inherit the enclosing function's target features.
        let mask = |t: &[f64], b| unsafe { pruned_mask_avx2(t, b) };
        mti_commit(v, cents, state, bounded, scan, counters, mask)
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

    /// [`super::pp_skip_masks`] under AVX2: [`super::skip_mask`] four rows
    /// per instruction. The `cc2[near]` gather is masked to `near <
    /// cc2.len()`, so a lane past it is never read and keeps NaN, which no
    /// comparison passes.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pp_skip_masks_avx2(
        cc2: &[f64],
        near: &[u32],
        cur: &[f64],
        margin: f64,
        out: &mut [u64],
    ) {
        use std::arch::x86_64::*;
        let len = _mm256_set1_epi64x(cc2.len() as i64);
        let (m, nan) = (_mm256_set1_pd(margin), _mm256_set1_pd(f64::NAN));
        let (tiny, zero) = (_mm256_set1_pd(f64::MIN_POSITIVE), _mm256_setzero_pd());
        for ((near, cur), o) in near.chunks(64).zip(cur.chunks(64)).zip(out) {
            let mut mask = 0u64;
            let (mut nrs, mut curs) = (near.chunks_exact(4), cur.chunks_exact(4));
            let mut at = 0;
            for (nr, c) in nrs.by_ref().zip(curs.by_ref()) {
                let idx = _mm256_cvtepu32_epi64(_mm_loadu_si128(nr.as_ptr().cast()));
                let inside = _mm256_castsi256_pd(_mm256_cmpgt_epi64(len, idx));
                let cc = _mm256_mask_i64gather_pd::<8>(nan, cc2.as_ptr(), idx, inside);
                let c = _mm256_loadu_pd(c.as_ptr());
                // `ruled_out` per lane; ordered comparisons, false on NaN.
                let far = _mm256_cmp_pd::<_CMP_GE_OQ>(cc, _mm256_mul_pd(m, c));
                let normal = _mm256_or_pd(
                    _mm256_cmp_pd::<_CMP_GE_OQ>(c, tiny),
                    _mm256_cmp_pd::<_CMP_EQ_OQ>(c, zero),
                );
                mask |= (_mm256_movemask_pd(_mm256_and_pd(far, normal)) as u64) << at;
                at += 4;
            }
            for (i, (&nr, &c)) in nrs.remainder().iter().zip(curs.remainder()).enumerate() {
                mask |= u64::from(super::skipped(cc2, nr, c, margin)) << (at + i);
            }
            *o = mask;
        }
    }
}

/// [`mti_assign`]'s walk, monomorphized over the mask builder.
#[inline(always)]
fn mti_scan(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    (a, ub): (usize, f64),
    mut scan: Option<&mut RowScan<'_>>,
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
                if let Some(scan) = scan.as_deref_mut() {
                    let tight = (a, bound);
                    if let Some(settled) =
                        scan.settle(v, cents, state, tight, c, ahead, counters, &pruned_mask)
                    {
                        return settled;
                    }
                }
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
        let (mut clause3, mut one_cand) = (0, 0);
        // Per mode: rows the row scan settled, rows it handed to the walk.
        let mut scanned = std::collections::BTreeMap::<&str, (u64, u64)>::new();
        for k in [1usize, 2, 7, 32, 63, 64, 65, 130] {
            for d in [1usize, 5] {
                for mode in ["drift", "duplicates", "still", "tied", "nan", "inf"] {
                    let mut prev = random_centroids(k, d, &mut rng);
                    if mode == "duplicates" {
                        // Ties: every odd centroid repeats its left neighbour.
                        for c in (1..k).step_by(2) {
                            let (left, right) = prev.means.split_at_mut(c * d);
                            right[..d].copy_from_slice(&left[(c - 1) * d..]);
                        }
                    }
                    let mut cents = prev.clone();
                    if mode != "still" {
                        for x in cents.means.iter_mut() {
                            *x += rng.gen_range(-0.3..0.3);
                        }
                    }
                    match mode {
                        // Tied nearest thresholds: centroids c + 1 and
                        // c + 2 are one point next to c, so row c's two
                        // smallest thresholds are equal bits.
                        "tied" => {
                            for c in (0..k.saturating_sub(2)).step_by(3) {
                                let near: Vec<f64> = cents.means[c * d..(c + 1) * d]
                                    .iter()
                                    .map(|x| x + rng.gen_range(-0.05..0.05))
                                    .collect();
                                set(&mut cents, c + 1, |j| near[j]);
                                set(&mut cents, c + 2, |j| near[j]);
                            }
                        }
                        // A NaN centroid puts a NaN threshold in every row,
                        // and a NaN threshold never prunes.
                        "nan" => {
                            set(&mut cents, 1, |_| f64::NAN);
                            set(&mut cents, 4, |j| if j == 0 { f64::INFINITY } else { 0.0 });
                        }
                        // ±∞ thresholds, and NaN only between the two +∞
                        // centroids (∞ − ∞).
                        "inf" => {
                            set(&mut cents, 1, |j| if j == 0 { f64::INFINITY } else { 0.0 });
                            set(&mut cents, 3, |j| if j == 0 { f64::NEG_INFINITY } else { 1.0 });
                            set(&mut cents, 5, |_| f64::INFINITY);
                        }
                        _ => {}
                    }
                    let mut state = MtiIterState::new(k);
                    state.update(&prev, &cents);
                    let mut panel = CentroidPanel::default();
                    panel.pack(&cents);
                    if mode == "tied" && k >= 3 {
                        let tied = (0..k - 2)
                            .step_by(3)
                            .filter(|&c| {
                                state.half_row(c)[state.nn[c] as usize] == state.half_2nd[c]
                            })
                            .count();
                        assert!(tied > 0, "k={k} d={d}: no row's two nearest thresholds tie");
                    }
                    for i in 0..300 {
                        let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
                        let (a, da) = nearest(&v, &prev.means, k);
                        let (t_nn, t_2nd) =
                            (state.half_row(a)[state.nn[a] as usize], state.half_2nd[a]);
                        // A valid loosened bound, now and then padded so the
                        // tighten pass is what prunes (Clause 3), or left
                        // infinite as before a row's first scan; or a bound
                        // at, or one ulp either side of, the shortcut's two
                        // thresholds.
                        let ub = match i % 13 {
                            0 => da + state.drift[a] + rng.gen_range(0.0..4.0),
                            1 => f64::INFINITY,
                            2 => t_nn,
                            3 => t_nn.next_down(),
                            4 => t_nn.next_up(),
                            5 => t_2nd,
                            6 => t_2nd.next_down(),
                            7 => t_2nd.next_up(),
                            _ => da + state.drift[a],
                        };
                        let what = format!("k={k} d={d} mode={mode} i={i} ub={ub}");
                        let (mut fast, mut slow) =
                            (PruneCounters::default(), PruneCounters::default());
                        let got = mti_assign(&v, &cents, &state, a, ub, None, &mut fast);
                        let want = mti_assign_scalar(&v, &cents, &state, a, ub, &mut slow);
                        assert_eq!(got.0, want.0, "{what}");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}");
                        // The shortcut's own count is the only difference.
                        assert_eq!(PruneCounters { one_cand_rows: 0, ..fast }, slow, "{what}");
                        clause3 += fast.clause3_prunes;
                        one_cand += fast.one_cand_rows;
                        // The portable mask's walk too, where the dispatch
                        // above took the AVX2 one and the shortcut.
                        let mut portable = PruneCounters::default();
                        let got =
                            mti_scan(&v, &cents, &state, (a, ub), None, &mut portable, pruned_mask);
                        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()), "{what}");
                        assert_eq!(portable, slow, "{what}");
                        // With the worker's panel: the walk's answer and
                        // bits, and a scanned row counts every candidate
                        // once (the tighten is the k-th).
                        let (mut scan, mut with) = (RowScan::new(&panel), PruneCounters::default());
                        let got = mti_assign(&v, &cents, &state, a, ub, Some(&mut scan), &mut with);
                        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()), "{what}");
                        if with.gemm_rows > 0 {
                            let total = with.clause2_prunes + with.clause3_prunes;
                            assert_eq!(total + with.dist_computations, k as u64, "{what} {with:?}");
                        } else {
                            assert_eq!(PruneCounters { one_cand_rows: 0, ..with }, slow, "{what}");
                        }
                        let tally = scanned.entry(mode).or_default();
                        (tally.0, tally.1) = (tally.0 + with.gemm_rows, tally.1 + scan.rescored);
                    }
                }
            }
        }
        assert!(clause3 > 0, "no case exercised the tighten-then-prune path");
        assert!(one_cand > 0, "no case took the one-candidate shortcut");
        assert!(scanned.values().any(|t| t.0 > 0), "the row scan never fired: {scanned:?}");
        // Ties and NaN centroids are never certified: the walk decides.
        for mode in ["tied", "nan"] {
            assert!(scanned[mode].1 > 0, "{mode}: no row fell back to the walk: {scanned:?}");
        }
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
        let got = mti_assign(&v, &cents, &state, 3, f64::NAN, None, &mut fast);
        let want = mti_assign_scalar(&v, &cents, &state, 3, f64::NAN, &mut slow);
        assert_eq!(got.0, want.0);
        assert_eq!(got.1.to_bits(), want.1.to_bits());
        assert_eq!(fast, slow);
        assert_eq!(fast.dist_computations, 70);
    }

    /// Centroid `c`'s coordinates from `x` (nothing when there is no `c`).
    fn set(cents: &mut Centroids, c: usize, x: impl Fn(usize) -> f64) {
        let d = cents.d;
        if let Some(mean) = cents.means.get_mut(c * d..(c + 1) * d) {
            for (j, m) in mean.iter_mut().enumerate() {
                *m = x(j);
            }
        }
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
            let (a_new, ub_new) = mti_assign(&v, &cents, &state, a_prev, ub, None, &mut counters);
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
        let _ = mti_assign(&v, &cents, &state, a, da, None, &mut counters);
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
            let (a_new, _) = mti_assign(&v, &cents, &state, a_prev, ub, None, &mut counters);
            let (a_exact, _) = nearest(&v, &cents.means, k);
            assert_eq!(a_new, a_exact);
        }
    }

    #[test]
    fn pruning_parse_name_roundtrip() {
        for p in [Pruning::None, Pruning::Mti] {
            assert_eq!(Pruning::parse(p.name()), Some(p));
        }
        assert_eq!(Pruning::parse("banana"), None);
        assert_eq!(Pruning::parse("yinyang"), None);
        assert!(!Pruning::None.enabled());
        assert!(Pruning::Mti.enabled());
    }

    #[test]
    fn bytes_is_what_the_state_holds() {
        for k in [0usize, 1, 2, 7, 32, 65] {
            let s = MtiIterState::new(k);
            let held = size_of_val(&s.half_cc[..])
                + size_of_val(&s.half_min[..])
                + size_of_val(&s.nn[..])
                + size_of_val(&s.half_2nd[..])
                + size_of_val(&s.drift[..])
                + size_of_val(&s.half_scan[..])
                + s.order.capacity() * size_of::<f64>();
            assert_eq!(MtiIterState::bytes(k), held as u64, "k = {k}");
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

    /// A lane value from the skip test's edge classes: NaN, ±∞, subnormal,
    /// ±0, the smallest normal, `f64::MAX`, or an ordinary magnitude.
    fn edge_value(rng: &mut impl Rng) -> f64 {
        match rng.gen_range(0..10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 | 4 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            5 => 0.0,
            6 => -0.0,
            7 => f64::MIN_POSITIVE,
            8 => f64::MAX,
            _ => rng.gen_range(0.0..100.0),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn pp_skip_mask_builds_are_the_scalar_test_lane_for_lane(
            len in 0usize..65,
            nc in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let margin = [4.0 * (1.0 + 36.0 * f64::EPSILON), 1.0][rng.gen_range(0..2usize)];
            let cc2: Vec<f64> = (0..nc).map(|_| edge_value(&mut rng)).collect();
            // Every lane past `cc2`, including `u32::MAX`, must evaluate.
            let near: Vec<u32> = (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => u32::MAX,
                    _ => rng.gen_range(0..nc as u32 + 2),
                })
                .collect();
            let cur: Vec<f64> = near
                .iter()
                .map(|&nr| match (rng.gen_range(0..4), cc2.get(nr as usize)) {
                    // On the margin: `cc2 = margin·cur` up to one rounding.
                    (0, Some(&cc)) => cc / margin,
                    _ => edge_value(&mut rng),
                })
                .collect();
            let expect: u64 = (0..len)
                .filter(|&i| {
                    let cc = cc2.get(near[i] as usize).copied().unwrap_or(f64::NAN);
                    ruled_out(cc, cur[i], margin)
                })
                .map(|i| 1u64 << i)
                .sum();
            for i in (0..len).filter(|&i| near[i] as usize >= nc) {
                assert_eq!(expect >> i & 1, 0, "lane {i}: near past cc2 skipped");
            }
            let words = usize::from(len > 0);
            let mut builds: Vec<(&str, Vec<u64>)> =
                vec![("scalar", vec![skip_mask(&cc2, &near, &cur, margin)])];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut out = vec![u64::MAX; words];
                // Safety: AVX2 support verified at runtime.
                unsafe { x86::pp_skip_masks_avx2(&cc2, &near, &cur, margin, &mut out) };
                builds.push(("avx2", out));
            }
            let mut dispatched = vec![u64::MAX; words];
            pp_skip_masks(&cc2, &near, &cur, margin, &mut dispatched);
            builds.push(("dispatched", dispatched));
            for (name, out) in builds {
                let got = out.first().copied().unwrap_or(0);
                assert_eq!(got, expect, "{name}: len {len}, cc2 {cc2:?}, near {near:?}, cur {cur:?}");
            }
        }
    }
}

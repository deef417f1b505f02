//! Euclidean distance kernels.
//!
//! These are the innermost loops of every knor module. The squared-distance
//! kernel is written over `chunks_exact(4)` so LLVM vectorizes it without
//! `unsafe`; callers that need true distances take one `sqrt` at the end
//! (MTI bound arithmetic is performed on *distances*, not squares, exactly
//! as in Elkan's formulation).

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn sqdist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let mut acc = [0.0f64; 4];
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        for i in 0..4 {
            let d = ca[i] - cb[i];
            acc[i] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sqdist(a, b).sqrt()
}

/// Index and distance of the nearest row of `centroids` (`k x d`,
/// row-major) to `v`, scanning all `k` candidates.
///
/// Ties break toward the lower index, matching the serial reference so the
/// pruned and unpruned paths produce identical assignments.
#[inline]
pub fn nearest(v: &[f64], centroids: &[f64], k: usize) -> (usize, f64) {
    let d = v.len();
    let mut best = 0usize;
    let mut best_sq = f64::INFINITY;
    for (c, row) in centroids.chunks_exact(d).enumerate().take(k) {
        let s = sqdist(v, row);
        if s < best_sq {
            best_sq = s;
            best = c;
        }
    }
    (best, best_sq.sqrt())
}

/// Fill the `k x k` table `half[i*k + j] = ½·d(centroid_i, centroid_j)`
/// (symmetric, `+∞` on the diagonal) and its row minima
/// `half_min[i] = ½·min_{j≠i} d(c_i, c_j)` — the `O(k²)` structure MTI
/// maintains each iteration, stored as the values its clauses compare a
/// bound against: row `i` holds, contiguously, every candidate's threshold
/// for a point assigned to `i`, and a centroid is never its own candidate.
pub fn half_centroid_distances(
    centroids: &[f64],
    k: usize,
    d: usize,
    half: &mut [f64],
    half_min: &mut [f64],
) {
    debug_assert_eq!(centroids.len(), k * d);
    debug_assert_eq!(half.len(), k * k);
    for i in 0..k {
        half[i * k + i] = f64::INFINITY;
        for j in (i + 1)..k {
            let h = 0.5 * dist(&centroids[i * d..(i + 1) * d], &centroids[j * d..(j + 1) * d]);
            half[i * k + j] = h;
            half[j * k + i] = h;
        }
    }
    half_row_minima(half, k, half_min);
}

/// `half_min[i] = min_j half[i*k + j]` over a filled table (the `+∞`
/// diagonal excludes `j = i`), `0` when there is no other centroid.
pub fn half_row_minima(half: &[f64], k: usize, half_min: &mut [f64]) {
    debug_assert_eq!(half_min.len(), k);
    for (row, m) in half.chunks_exact(k.max(1)).zip(half_min.iter_mut()) {
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        // k == 1: no other centroid, Clause 1 can never fire.
        *m = if min.is_finite() { min } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqdist_matches_naive() {
        let a: Vec<f64> = (0..13).map(|x| x as f64 * 0.3).collect();
        let b: Vec<f64> = (0..13).map(|x| (x as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((sqdist(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dist_zero_on_self() {
        let a = [1.0, -2.0, 3.5];
        assert_eq!(dist(&a, &a), 0.0);
    }

    #[test]
    fn nearest_picks_minimum_with_low_index_ties() {
        let cents = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0]; // c0 == c2
        let (idx, d) = nearest(&[0.1, 0.0], &cents, 3);
        assert_eq!(idx, 0, "tie must break to lower index");
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn half_distance_table_is_symmetric_with_an_infinite_diagonal() {
        let cents = [0.0, 0.0, 3.0, 4.0, 0.0, 8.0]; // pairwise: 5, 8, 5
        let mut half = vec![0.0; 9];
        let mut half_min = vec![0.0; 3];
        half_centroid_distances(&cents, 3, 2, &mut half, &mut half_min);
        let inf = f64::INFINITY;
        assert_eq!(half, vec![inf, 2.5, 4.0, 2.5, inf, 2.5, 4.0, 2.5, inf]);
        assert_eq!(half_min, vec![2.5, 2.5, 2.5]);
    }

    #[test]
    fn half_table_entries_are_half_the_exact_distance_at_any_k() {
        let k = 70;
        let d = 3;
        let cents: Vec<f64> = (0..k * d).map(|x| ((x * 37) % 101) as f64 * 0.13).collect();
        let mut half = vec![f64::NAN; k * k];
        let mut half_min = vec![0.0; k];
        half_centroid_distances(&cents, k, d, &mut half, &mut half_min);
        for i in 0..k {
            assert_eq!(half[i * k + i], f64::INFINITY);
            for j in 0..k {
                if j != i {
                    let want = 0.5 * dist(&cents[i * d..(i + 1) * d], &cents[j * d..(j + 1) * d]);
                    assert_eq!(half[i * k + j].to_bits(), want.to_bits(), "({i},{j})");
                }
            }
            let min =
                (0..k).filter(|&j| j != i).map(|j| half[i * k + j]).fold(f64::INFINITY, f64::min);
            assert_eq!(half_min[i], min, "half_min[{i}]");
        }
    }

    #[test]
    fn single_centroid_half_min_is_zero() {
        let mut half = vec![0.0; 1];
        let mut half_min = vec![9.9; 1];
        half_centroid_distances(&[1.0, 2.0], 1, 2, &mut half, &mut half_min);
        assert_eq!(half, vec![f64::INFINITY]);
        assert_eq!(half_min[0], 0.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        // d(a,c) <= d(a,b) + d(b,c) on random-ish data.
        let a = [0.3, 1.0, -2.0, 4.4, 0.0];
        let b = [1.3, -1.0, 2.0, 0.4, 2.0];
        let c = [-0.3, 0.0, 1.0, 2.4, 1.0];
        assert!(dist(&a, &c) <= dist(&a, &b) + dist(&b, &c) + 1e-12);
    }
}

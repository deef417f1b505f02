//! Clustering quality metrics used by tests, examples and the harness.

use crate::distance::{nearest, sqdist};
use knor_matrix::{DMatrix, Rows};

/// Within-cluster sum of squared Euclidean distances under the given
/// assignment.
///
/// Summed in global row order whatever the storage of `data`, so a placed
/// layout yields its source matrix's SSE bit for bit.
pub fn sse<R: Rows>(data: &R, centroids: &DMatrix, assignments: &[u32]) -> f64 {
    assert_eq!(data.nrow(), assignments.len());
    assert_eq!(data.ncol(), centroids.ncol());
    data.rows_in(0..data.nrow())
        .zip(assignments)
        .map(|(row, &a)| sqdist(row, centroids.row(a as usize)))
        .sum()
}

/// SSE under the *optimal* assignment to the given centroids (recomputes
/// nearest centroids; useful to validate a solver's reported assignment).
pub fn sse_optimal_assignment(data: &DMatrix, centroids: &DMatrix) -> f64 {
    let k = centroids.nrow();
    data.rows()
        .map(|row| {
            let (_, d) = nearest(row, centroids.as_slice(), k);
            d * d
        })
        .sum()
}

/// Fraction of rows on which two assignments agree, maximized over a greedy
/// label matching (clusterings are invariant to label permutation).
pub fn agreement(a: &[u32], b: &[u32], k: usize) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 1.0;
    }
    // Confusion counts.
    let mut conf = vec![0u64; k * k];
    for (&x, &y) in a.iter().zip(b) {
        conf[x as usize * k + y as usize] += 1;
    }
    // Greedy matching: repeatedly take the largest cell.
    let mut used_row = vec![false; k];
    let mut used_col = vec![false; k];
    let mut matched = 0u64;
    for _ in 0..k {
        let mut best = 0u64;
        let mut best_rc = None;
        for r in 0..k {
            if used_row[r] {
                continue;
            }
            for c in 0..k {
                if used_col[c] {
                    continue;
                }
                if conf[r * k + c] > best {
                    best = conf[r * k + c];
                    best_rc = Some((r, c));
                }
            }
        }
        match best_rc {
            Some((r, c)) => {
                matched += best;
                used_row[r] = true;
                used_col[c] = true;
            }
            None => break,
        }
    }
    matched as f64 / a.len() as f64
}

/// Match computed centroids to reference centers greedily and return the
/// maximum matched distance (how far each recovered center is from its
/// planted counterpart).
pub fn max_center_error(computed: &DMatrix, reference: &DMatrix) -> f64 {
    assert_eq!(computed.ncol(), reference.ncol());
    let k = computed.nrow().min(reference.nrow());
    let mut used = vec![false; reference.nrow()];
    let mut worst: f64 = 0.0;
    for i in 0..k {
        let mut best = f64::INFINITY;
        let mut best_j = 0;
        for (j, &in_use) in used.iter().enumerate() {
            if in_use {
                continue;
            }
            let d = sqdist(computed.row(i), reference.row(j)).sqrt();
            if d < best {
                best = d;
                best_j = j;
            }
        }
        used[best_j] = true;
        worst = worst.max(best);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sse_basic() {
        let data = DMatrix::from_vec(vec![0.0, 2.0, 10.0, 12.0], 4, 1);
        let cents = DMatrix::from_vec(vec![1.0, 11.0], 2, 1);
        let assign = vec![0, 0, 1, 1];
        assert!((sse(&data, &cents, &assign) - 4.0).abs() < 1e-12);
        assert!((sse_optimal_assignment(&data, &cents) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sse_optimal_never_exceeds_given() {
        let data = DMatrix::from_vec(vec![0.0, 2.0, 10.0, 12.0], 4, 1);
        let cents = DMatrix::from_vec(vec![1.0, 11.0], 2, 1);
        let bad_assign = vec![1, 0, 0, 1];
        assert!(sse_optimal_assignment(&data, &cents) <= sse(&data, &cents, &bad_assign));
    }

    #[test]
    fn agreement_is_permutation_invariant() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![2, 2, 0, 0, 1, 1]; // same clustering, relabeled
        assert_eq!(agreement(&a, &b, 3), 1.0);
        let c = vec![0, 1, 0, 1, 0, 1]; // unrelated
        assert!(agreement(&a, &c, 3) < 1.0);
    }

    #[test]
    fn center_error_matches_greedily() {
        let computed = DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2);
        let reference = DMatrix::from_vec(vec![10.1, 10.0, 0.0, 0.1], 2, 2);
        let e = max_center_error(&computed, &reference);
        assert!(e < 0.2, "error {e}");
    }
}

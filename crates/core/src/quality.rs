//! Clustering quality metrics used by tests, examples and the harness.

use crate::distance::{nearest, sqdist};
use knor_matrix::{DMatrix, Rows};
use std::ops::Range;

/// Rows per block of [`sse`]'s threaded pass: one block's terms are a
/// 512 KiB buffer, reused block after block.
const SSE_BLOCK_ROWS: usize = 64 * 1024;

/// Fewest rows a thread of [`sse`] is given: 8 Ki terms take 0.1–0.3 ms,
/// several times what starting the thread costs.
const SSE_MIN_ROWS_PER_THREAD: usize = 8 * 1024;

/// The threads [`sse`] computes `n` rows' terms on when given `threads`.
pub(crate) fn sse_threads(n: usize, threads: usize) -> usize {
    threads.min(n.div_ceil(SSE_MIN_ROWS_PER_THREAD))
}

/// Within-cluster sum of squared Euclidean distances under the given
/// assignment, with the per-row terms computed on up to `threads` threads.
///
/// Summed in global row order whatever the storage of `data` or the
/// thread count: the threads fill one [`SSE_BLOCK_ROWS`]-row block of
/// terms at a time and one thread adds each block to the running total in
/// row order, the association of the serial `sum()`. So a placed layout
/// yields its source matrix's SSE, at any `threads`, bit for bit.
pub fn sse<R: Rows + Sync>(
    data: &R,
    centroids: &DMatrix,
    assignments: &[u32],
    threads: usize,
) -> f64 {
    assert_eq!(data.nrow(), assignments.len());
    assert_eq!(data.ncol(), centroids.ncol());
    let n = data.nrow();
    let terms_of = |rows: Range<usize>| {
        data.rows_in(rows.clone())
            .zip(&assignments[rows])
            .map(|(row, &a)| sqdist(row, centroids.row(a as usize)))
    };
    let threads = sse_threads(n, threads);
    if threads <= 1 {
        return terms_of(0..n).sum();
    }
    let mut terms = vec![0.0f64; SSE_BLOCK_ROWS.min(n)];
    let mut total = 0.0;
    for start in (0..n).step_by(SSE_BLOCK_ROWS) {
        let block = &mut terms[..SSE_BLOCK_ROWS.min(n - start)];
        let per_thread = block.len().div_ceil(threads);
        std::thread::scope(|s| {
            let mut parts = block.chunks_mut(per_thread).enumerate().map(|(i, part)| {
                let rows = start + i * per_thread..start + i * per_thread + part.len();
                move || {
                    for (t, term) in part.iter_mut().zip(terms_of(rows)) {
                        *t = term;
                    }
                }
            });
            // The calling thread fills the first part itself.
            let own = parts.next().expect("a block has rows");
            for part in parts {
                s.spawn(part);
            }
            own();
        });
        total = block.iter().fold(total, |sum, &t| sum + t);
    }
    total
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
        assert!((sse(&data, &cents, &assign, 1) - 4.0).abs() < 1e-12);
        assert!((sse_optimal_assignment(&data, &cents) - 4.0).abs() < 1e-12);
    }

    /// Any thread count sums the serial pass's operands in its order: the
    /// same bits at a block's edges (64 Ki rows) and past them, whether the
    /// sum is finite, infinite or NaN.
    #[test]
    fn threaded_sse_is_the_serial_sum_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let (d, k) = (3, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(35);
        let cents = DMatrix::from_vec((0..k * d).map(|_| rng.gen::<f64>()).collect(), k, d);
        for n in [1, 65_535, 65_536, 65_537, 200_003] {
            // Magnitudes over twelve decades, so the order of the adds
            // shows in the low bits.
            let values = (0..n * d).map(|_| rng.gen::<f64>() * 10f64.powi(rng.gen_range(-6..6)));
            let mut data = DMatrix::from_vec(values.collect(), n, d);
            let assign: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
            let terms = |data: &DMatrix| -> Vec<f64> {
                data.rows().zip(&assign).map(|(r, &a)| sqdist(r, cents.row(a as usize))).collect()
            };
            if n > 1 {
                // The check can fail: summed back to front, the bits differ.
                let t = terms(&data);
                assert_ne!(t.iter().sum::<f64>().to_bits(), t.iter().rev().sum::<f64>().to_bits());
            }
            for poison in [None, Some(f64::INFINITY), Some(f64::NAN)] {
                if let Some(x) = poison {
                    data.row_mut(n / 2)[1] = x;
                }
                let want = terms(&data).iter().sum::<f64>().to_bits();
                for threads in [1, 2, 3, 8] {
                    let got = sse(&data, &cents, &assign, threads).to_bits();
                    assert_eq!(got, want, "n {n}, {threads} threads, poison {poison:?}");
                }
            }
        }
    }

    #[test]
    fn sse_optimal_never_exceeds_given() {
        let data = DMatrix::from_vec(vec![0.0, 2.0, 10.0, 12.0], 4, 1);
        let cents = DMatrix::from_vec(vec![1.0, 11.0], 2, 1);
        let bad_assign = vec![1, 0, 0, 1];
        assert!(sse_optimal_assignment(&data, &cents) <= sse(&data, &cents, &bad_assign, 1));
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

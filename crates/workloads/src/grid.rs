//! Well-separated grid clusters — the workload where bound pruning shines.
//!
//! Triangle-inequality bounds (MTI, Elkan) pay off when centroids settle
//! quickly and rows stay far from every centroid but their own; on
//! churning data (overfit k on a mixture) the bounds collapse and every
//! scheme degrades to Lloyd's. The pruning parity tests therefore run on
//! this deterministic grid: row `i` belongs to natural cluster `i % k`, the
//! first two dimensions place the cluster on a 5-wide grid with spacing
//! 6.0, remaining dimensions carry bounded sin/cos noise (amplitude 0.8,
//! far below the grid spacing). Taking the first `k` rows as the init
//! seeds one centroid per natural cluster, so every pruning scheme walks
//! a short, stable trajectory from iteration 1.

use knor_matrix::DMatrix;

/// `n x d` grid-cluster matrix plus a `k x d` init (the first `k` rows —
/// one centroid per natural cluster). Deterministic; no RNG involved.
pub fn grid_clusters(n: usize, d: usize, k: usize) -> (DMatrix, DMatrix) {
    assert!(d >= 2, "grid placement needs at least 2 dimensions");
    assert!(k <= n, "need at least one row per cluster");
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = (i % k) as f64;
        data.push((c % 5.0) * 6.0 + (i as f64 * 0.37).sin() * 0.8);
        data.push((c / 5.0).floor() * 6.0 + (i as f64 * 0.11).cos() * 0.8);
        for j in 2..d {
            data.push(((i * (j + 3)) as f64 * 0.23).sin() * 0.8);
        }
    }
    let data = DMatrix::from_vec(data, n, d);
    let init = DMatrix::from_vec(data.as_slice()[..k * d].to_vec(), k, d);
    (data, init)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_separated() {
        let (data, init) = grid_clusters(600, 4, 12);
        let (again, _) = grid_clusters(600, 4, 12);
        assert_eq!(data, again);
        assert_eq!(init.nrow(), 12);
        assert_eq!(init.row(3), data.row(3));
        // Rows of the same natural cluster sit within the noise ball;
        // different clusters are at least one grid step apart in dim 0/1.
        let same = |a: &[f64], b: &[f64]| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
        assert!(same(data.row(0), data.row(12)) < 4.0, "cluster 0 too loose");
        assert!(same(data.row(0), data.row(1)) > 2.0, "clusters 0/1 overlap");
    }
}

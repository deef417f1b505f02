//! Spherical k-means — the first entry in the paper's §9 future-work list
//! ("The initial phase will target other variants of k-means like
//! spherical k-means, semi-supervised k-means++ etc.").
//!
//! Since the `MmAlgorithm` layer landed, the parallel engines run
//! spherical k-means natively (`Algorithm::Spherical` on knori/knors/
//! knord). This module is the **serial reference mirror**: it executes the
//! exact same map/update phases and stop rule — resolved from the same
//! [`knor_core::algo`] instance — in plain row order, so a single-threaded
//! static-scheduled engine run must reproduce it bit for bit, and any
//! multi-threaded run must agree to floating-point merge noise. The
//! original standalone loop (pre-normalized matrix, hand-rolled update)
//! was retired in its favor.

use knor_core::algo::{Algorithm, UpdateCtx};
use knor_core::centroids::{Centroids, LocalAccum};
use knor_core::distance::dist;
use knor_core::kernel::{dot, sqnorm};
use knor_matrix::DMatrix;

/// Result of a spherical k-means run.
#[derive(Debug, Clone)]
pub struct SphericalRun {
    /// Final unit-norm centroids.
    pub centroids: DMatrix,
    /// Final assignments.
    pub assignments: Vec<u32>,
    /// Iterations executed.
    pub niters: usize,
    /// Mean within-cluster cosine similarity (higher is better; in [-1,1]).
    pub mean_cosine: f64,
}

/// Normalize every row of `m` to unit L2 norm (zero rows are left as-is).
pub fn normalize_rows(m: &DMatrix) -> DMatrix {
    let mut out = m.clone();
    for i in 0..out.nrow() {
        let row = out.row_mut(i);
        let norm = sqnorm(row).sqrt();
        if norm > 0.0 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    out
}

/// Run serial spherical k-means: the engine algorithm's map phase (max
/// dot against unit centroids, unit-direction contribution) and update
/// phase (renormalized mean direction), one row at a time. `init` must be
/// `k x d`; it is normalized by the algorithm's `prepare_init`.
pub fn spherical_kmeans(data: &DMatrix, init: &DMatrix, max_iters: usize) -> SphericalRun {
    let n = data.nrow();
    let d = data.ncol();
    let k = init.nrow();
    let algo = Algorithm::Spherical.resolve(k, n, 0);
    let mut cents = Centroids::from_matrix(init);
    algo.prepare_init(&mut cents);
    let mut next = Centroids::zeros(k, d);
    let mut assignments = vec![u32::MAX; n];
    let mut accum = LocalAccum::new(k, d);
    let mut iters = 0usize;

    for iter in 0..max_iters {
        accum.reset();
        let mut changed = 0u64;
        for (i, row) in data.rows().enumerate() {
            let o = algo.map(row, &cents);
            if assignments[i] != o.cluster {
                assignments[i] = o.cluster;
                changed += 1;
            }
            accum.add_weighted(o.cluster as usize, row, o.weight);
        }
        algo.update(&mut UpdateCtx {
            iter,
            sums: &accum.sums,
            counts: &accum.counts,
            weights: &accum.weights,
            prev: &cents,
            next: &mut next,
        });
        let max_drift = (0..k).map(|c| dist(cents.mean(c), next.mean(c))).fold(0.0, f64::max);
        std::mem::swap(&mut cents, &mut next);
        iters += 1;
        if algo.converged(changed, max_drift, 0.0) {
            break;
        }
    }

    let mean_cosine = data
        .rows()
        .zip(&assignments)
        .map(|(row, &a)| {
            let norm = sqnorm(row).sqrt();
            if norm > 0.0 {
                dot(row, cents.mean(a as usize)) / norm
            } else {
                0.0
            }
        })
        .sum::<f64>()
        / n as f64;

    SphericalRun { centroids: cents.to_matrix(), assignments, niters: iters, mean_cosine }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::init::InitMethod;
    use knor_workloads::MixtureSpec;

    #[test]
    fn normalization_is_unit_norm() {
        let m = DMatrix::from_vec(vec![3.0, 4.0, 0.0, 0.0, 1.0, 1.0], 3, 2);
        let n = normalize_rows(&m);
        assert!((n.row(0)[0] - 0.6).abs() < 1e-12);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-12);
        assert_eq!(n.row(1), &[0.0, 0.0], "zero rows untouched");
        let norm2: f64 = n.row(2).iter().map(|x| x * x).sum();
        assert!((norm2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn converges_and_centroids_are_unit() {
        let data = MixtureSpec::friendster_like(800, 8, 91).generate().data;
        let init = InitMethod::PlusPlus.initialize(&data, 8, 3).to_matrix();
        let r = spherical_kmeans(&data, &init, 100);
        assert!(r.niters < 100, "should converge");
        for c in 0..8 {
            let norm: f64 = r.centroids.row(c).iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-9, "centroid {c} not unit");
        }
        assert!(r.mean_cosine > 0.8, "clusters should be directionally tight");
    }

    #[test]
    fn improves_cosine_over_init() {
        let data = MixtureSpec::friendster_like(500, 6, 92).generate().data;
        let init = InitMethod::Forgy.initialize(&data, 6, 1).to_matrix();
        let one = spherical_kmeans(&data, &init, 1);
        let full = spherical_kmeans(&data, &init, 50);
        assert!(full.mean_cosine >= one.mean_cosine - 1e-12);
    }

    #[test]
    fn assignment_invariant_under_row_scale() {
        // Cosine assignment must not care about row magnitudes.
        let data = MixtureSpec::friendster_like(400, 5, 93).generate().data;
        let mut scaled = data.clone();
        for i in 0..scaled.nrow() {
            let f = 1.0 + (i % 7) as f64;
            for x in scaled.row_mut(i).iter_mut() {
                *x *= f;
            }
        }
        let init = InitMethod::Forgy.initialize(&data, 5, 2).to_matrix();
        let a = spherical_kmeans(&data, &init, 60);
        let b = spherical_kmeans(&scaled, &init, 60);
        assert_eq!(a.assignments, b.assignments);
    }
}

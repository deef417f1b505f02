//! GEMM-formulated k-means (the MATLAB / BLAS rows of Table 3).
//!
//! `d(x, c)^2 = |x|^2 + |c|^2 - 2 x·c`, so the distance matrix is one
//! `n x d` by `d x k` matrix product plus rank-1 corrections. The
//! assignment pass is the engines' own blocked-GEMM kernel from
//! `knor_core::kernel` (packed centroid panel, FMA micro-kernel, evaluated
//! without materializing the `n x k` product, each winner certified against
//! the exact scan); [`matmul_nt`] remains as the
//! standalone register-blocked multiply the Table 3 comparison references.

use knor_core::centroids::{finalize_means, Centroids, LocalAccum};
use knor_core::kernel::{assign_rows, KernelKind};
use knor_matrix::DMatrix;

use crate::serial::SerialRun;

/// Tiled matrix multiply: `out[i][c] = sum_j a[i][j] * b[c][j]`
/// (`a` is `n x d`, `b` is `k x d`, both row-major; `out` is `n x k`).
pub fn matmul_nt(a: &[f64], n: usize, d: usize, b: &[f64], k: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), n * d);
    debug_assert_eq!(b.len(), k * d);
    debug_assert_eq!(out.len(), n * k);
    out.iter_mut().for_each(|x| *x = 0.0);
    const TILE: usize = 64;
    for i0 in (0..n).step_by(TILE) {
        let i1 = (i0 + TILE).min(n);
        for j0 in (0..d).step_by(TILE) {
            let j1 = (j0 + TILE).min(d);
            for i in i0..i1 {
                let arow = &a[i * d..(i + 1) * d];
                let orow = &mut out[i * k..(i + 1) * k];
                for (c, brow) in b.chunks_exact(d).enumerate() {
                    let mut acc = 0.0;
                    for j in j0..j1 {
                        acc += arow[j] * brow[j];
                    }
                    orow[c] += acc;
                }
            }
        }
    }
}

/// Lloyd's via the GEMM formulation: each iteration is one pass of the
/// engines' GEMM kernel over every row.
pub fn gemm_lloyd(data: &DMatrix, init: &DMatrix, max_iters: usize) -> SerialRun {
    let n = data.nrow();
    let d = data.ncol();
    let k = init.nrow();
    let mut cents = Centroids::from_matrix(init);
    let mut next = Centroids::zeros(k, d);
    let mut assignments = vec![u32::MAX; n];
    let mut accum = LocalAccum::new(k, d);
    let rk = KernelKind::Gemm.resolve(k, d, false);
    let (mut best, mut best_dist) = (Vec::new(), Vec::new());
    let mut iters = 0usize;
    let mut total_ns = 0u64;

    for _ in 0..max_iters {
        let t0 = std::time::Instant::now();
        accum.reset();
        assign_rows(data.as_slice(), d, &cents, &rk, &[], &mut best, &mut best_dist, false);
        let mut changed = 0u64;
        for (r, (&a, slot)) in best.iter().zip(assignments.iter_mut()).enumerate() {
            if *slot != a {
                *slot = a;
                changed += 1;
            }
            accum.add(a as usize, data.row(r));
        }
        finalize_means(&accum.sums, &accum.counts, &cents, &mut next);
        std::mem::swap(&mut cents, &mut next);
        total_ns += t0.elapsed().as_nanos() as u64;
        iters += 1;
        if changed == 0 {
            break;
        }
    }

    SerialRun {
        centroids: cents.to_matrix(),
        assignments,
        niters: iters,
        mean_iter_ns: total_ns as f64 / iters.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::init::InitMethod;
    use knor_core::serial::lloyd_serial;
    use knor_workloads::MixtureSpec;

    #[test]
    fn matmul_matches_naive() {
        let n = 7;
        let d = 5;
        let k = 3;
        let a: Vec<f64> = (0..n * d).map(|x| (x as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..k * d).map(|x| (x as f64 * 1.3).cos()).collect();
        let mut out = vec![0.0; n * k];
        matmul_nt(&a, n, d, &b, k, &mut out);
        for i in 0..n {
            for c in 0..k {
                let want: f64 = (0..d).map(|j| a[i * d + j] * b[c * d + j]).sum();
                assert!((out[i * k + c] - want).abs() < 1e-12, "({i},{c})");
            }
        }
    }

    #[test]
    fn matmul_handles_large_tiles() {
        // Exercise multiple tiles in both dimensions.
        let n = 150;
        let d = 70;
        let k = 5;
        let a: Vec<f64> = (0..n * d).map(|x| (x % 17) as f64).collect();
        let b: Vec<f64> = (0..k * d).map(|x| (x % 5) as f64).collect();
        let mut out = vec![0.0; n * k];
        matmul_nt(&a, n, d, &b, k, &mut out);
        let i = 149;
        let c = 4;
        let want: f64 = (0..d).map(|j| a[i * d + j] * b[c * d + j]).sum();
        assert!((out[i * k + c] - want).abs() < 1e-9);
    }

    #[test]
    fn gemm_lloyd_matches_iterative() {
        let data = MixtureSpec::friendster_like(700, 8, 43).generate().data;
        let k = 6;
        let init = InitMethod::Forgy.initialize(&data, k, 4).to_matrix();
        let reference = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 50, 0.0);
        let g = gemm_lloyd(&data, &init, 50);
        assert_eq!(g.niters, reference.niters);
        // The engines' gemm scan is certified: the same winners, row by row.
        assert_eq!(g.assignments, reference.assignments);
    }
}

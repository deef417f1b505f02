//! Elkan's full triangle-inequality algorithm (TI) with the `O(nk)`
//! lower-bound matrix.
//!
//! This is the algorithm MTI simplifies: identical upper-bound machinery,
//! plus a per-point, per-centroid lower bound that can prune candidates MTI
//! must recompute. The price is `n·k` doubles of state — 8 GB for
//! n=10^8, k=10 — which is exactly why the paper drops it (Table 1,
//! Section "Minimal Triangle Inequality Pruning").

use knor_core::centroids::{finalize_means, Centroids, LocalAccum};
use knor_core::distance::{dist, half_centroid_distances};
use knor_core::pruning::PruneCounters;
use knor_matrix::DMatrix;

/// Result of a full-TI run, with pruning counters and state size.
#[derive(Debug, Clone)]
pub struct ElkanRun {
    /// Final centroids.
    pub centroids: DMatrix,
    /// Final assignments.
    pub assignments: Vec<u32>,
    /// Iterations executed.
    pub niters: usize,
    /// Total pruning/computation counters.
    pub prune: PruneCounters,
    /// Bytes of bound state (`n·k` lower + `n` upper).
    pub bound_bytes: u64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_iter_ns: f64,
}

/// Run full Elkan TI to convergence.
pub fn elkan_full_ti(data: &DMatrix, init: &DMatrix, max_iters: usize) -> ElkanRun {
    let n = data.nrow();
    let d = data.ncol();
    let k = init.nrow();
    let mut cents = Centroids::from_matrix(init);
    let mut next = Centroids::zeros(k, d);
    let mut assignments = vec![0u32; n];
    let mut upper = vec![0.0f64; n];
    let mut lower = vec![0.0f64; n * k]; // the O(nk) matrix MTI drops
    let mut half_cc = vec![0.0f64; k * k];
    let mut half_min = vec![0.0f64; k];
    let mut drift = vec![0.0f64; k];
    let mut accum = LocalAccum::new(k, d);
    let mut counters = PruneCounters::default();
    let mut total_ns = 0u64;
    let mut iters = 0usize;

    // Initial assignment: full scan, bounds exact.
    {
        let t0 = std::time::Instant::now();
        for i in 0..n {
            let v = data.row(i);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dc = dist(v, cents.mean(c));
                counters.dist_computations += 1;
                lower[i * k + c] = dc;
                if dc < best_d {
                    best_d = dc;
                    best = c;
                }
            }
            assignments[i] = best as u32;
            upper[i] = best_d;
            accum.add(best, v);
        }
        finalize_means(&accum.sums, &accum.counts, &cents, &mut next);
        for (c, dr) in drift.iter_mut().enumerate() {
            *dr = dist(cents.mean(c), next.mean(c));
        }
        std::mem::swap(&mut cents, &mut next);
        total_ns += t0.elapsed().as_nanos() as u64;
        iters += 1;
    }

    for _ in 1..max_iters {
        let t0 = std::time::Instant::now();
        // Bound maintenance for the centroid movement.
        for i in 0..n {
            upper[i] += drift[assignments[i] as usize];
            for c in 0..k {
                lower[i * k + c] = (lower[i * k + c] - drift[c]).max(0.0);
            }
        }
        half_centroid_distances(&cents.means, k, d, &mut half_cc, &mut half_min);

        accum.reset();
        let mut changed = 0u64;
        for i in 0..n {
            let v = data.row(i);
            let mut a = assignments[i] as usize;
            let mut u = upper[i];
            if u <= half_min[a] {
                counters.clause1_rows += 1;
                accum.add(a, v);
                continue;
            }
            let mut tight = false;
            for c in 0..k {
                if c == a {
                    continue;
                }
                // Elkan condition: candidate viable only if u > l(x,c) and
                // u > ½ d(a,c).
                if u <= lower[i * k + c] || u <= half_cc[a * k + c] {
                    counters.clause2_prunes += 1;
                    continue;
                }
                if !tight {
                    u = dist(v, cents.mean(a));
                    counters.dist_computations += 1;
                    upper[i] = u;
                    lower[i * k + a] = u;
                    tight = true;
                    if u <= lower[i * k + c] || u <= half_cc[a * k + c] {
                        counters.clause3_prunes += 1;
                        continue;
                    }
                }
                let dc = dist(v, cents.mean(c));
                counters.dist_computations += 1;
                lower[i * k + c] = dc;
                if dc < u {
                    a = c;
                    u = dc;
                }
            }
            if assignments[i] != a as u32 {
                assignments[i] = a as u32;
                changed += 1;
            }
            upper[i] = u;
            accum.add(a, v);
        }
        finalize_means(&accum.sums, &accum.counts, &cents, &mut next);
        for (c, dr) in drift.iter_mut().enumerate() {
            *dr = dist(cents.mean(c), next.mean(c));
        }
        std::mem::swap(&mut cents, &mut next);
        total_ns += t0.elapsed().as_nanos() as u64;
        iters += 1;
        if changed == 0 {
            break;
        }
    }

    ElkanRun {
        centroids: cents.to_matrix(),
        assignments,
        niters: iters,
        prune: counters,
        bound_bytes: (n * k * 8 + n * 8) as u64,
        mean_iter_ns: total_ns as f64 / iters.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::init::InitMethod;
    use knor_core::quality::agreement;
    use knor_core::serial::lloyd_serial;
    use knor_workloads::MixtureSpec;

    #[test]
    fn full_ti_matches_lloyd() {
        let data = MixtureSpec::friendster_like(900, 8, 51).generate().data;
        let k = 8;
        let init = InitMethod::Forgy.initialize(&data, k, 5).to_matrix();
        let reference = lloyd_serial(&data, k, &InitMethod::Given(init.clone()), 0, 60, 0.0);
        let e = elkan_full_ti(&data, &init, 60);
        assert_eq!(e.niters, reference.niters);
        assert!(agreement(&e.assignments, &reference.assignments, k) > 0.999);
    }

    #[test]
    fn full_ti_prunes_at_least_as_hard_as_exhaustive() {
        let data = MixtureSpec::friendster_like(1500, 8, 52).generate().data;
        let k = 16;
        let init = InitMethod::PlusPlus.initialize(&data, k, 6).to_matrix();
        let e = elkan_full_ti(&data, &init, 40);
        let exhaustive = (1500 * k * e.niters) as u64;
        assert!(
            e.prune.dist_computations * 5 < exhaustive * 2,
            "full TI should prune at least 60% of the work: {} vs {exhaustive}",
            e.prune.dist_computations
        );
    }

    #[test]
    fn bound_state_is_onk() {
        let data = MixtureSpec::friendster_like(500, 4, 53).generate().data;
        let init = InitMethod::Forgy.initialize(&data, 10, 7).to_matrix();
        let e = elkan_full_ti(&data, &init, 5);
        assert_eq!(e.bound_bytes, 500 * 10 * 8 + 500 * 8);
    }
}

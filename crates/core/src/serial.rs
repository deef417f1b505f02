//! Serial reference implementations.
//!
//! [`lloyd_serial`] is the iterative baseline of Table 3 ("knori at one
//! thread performs on par with state-of-the-art serial routines") and the
//! ground truth every parallel module is tested against. It is a
//! straightforward, allocation-free-inner-loop Lloyd's with the same
//! tie-breaking as the parallel engine, so single-threaded static-scheduled
//! runs match it bit-for-bit.

use crate::algo::{LloydAlgo, MmAlgorithm};
use crate::centroids::{finalize_means, Centroids, LocalAccum};
use crate::distance::nearest;
use crate::init::InitMethod;
use crate::pruning::PruneCounters;
use crate::stats::{CommitCounters, IterStats, KmeansResult, MemoryFootprint, SettleStats};
use knor_matrix::DMatrix;

/// Run serial Lloyd's to convergence (no reassignments, or drift at or
/// below `tol` — the driver's Lloyd rule, [`MmAlgorithm::converged`] — or
/// `max_iters`).
pub fn lloyd_serial(
    data: &DMatrix,
    k: usize,
    init: &InitMethod,
    seed: u64,
    max_iters: usize,
    tol: f64,
) -> KmeansResult {
    let n = data.nrow();
    let d = data.ncol();
    let (mut cents, init_stats) = init.initialize_with_stats(data, k, seed, 1);
    let mut next = Centroids::zeros(k, d);
    let mut assignments = vec![u32::MAX; n];
    let mut accum = LocalAccum::new(k, d);
    let mut iters = Vec::new();
    let mut converged = false;

    for iter in 0..max_iters {
        let t0 = std::time::Instant::now();
        accum.reset();
        let mut reassigned = 0u64;
        let mut counters = PruneCounters::default();
        for (i, row) in data.rows().enumerate() {
            let (a, _) = nearest(row, &cents.means, k);
            counters.dist_computations += k as u64;
            if assignments[i] != a as u32 {
                assignments[i] = a as u32;
                reassigned += 1;
            }
            accum.add(a, row);
        }
        finalize_means(&accum.sums, &accum.counts, &cents, &mut next);
        let max_drift = (0..k)
            .map(|c| crate::distance::dist(cents.mean(c), next.mean(c)))
            .fold(0.0f64, f64::max);
        std::mem::swap(&mut cents, &mut next);

        iters.push(IterStats {
            iter,
            reassigned,
            rows_accessed: n as u64,
            prune: counters,
            commit: CommitCounters { borrowed_rows: n as u64, ..Default::default() },
            wall_ns: t0.elapsed().as_nanos() as u64,
            max_drift,
            ..IterStats::default()
        });
        if LloydAlgo.converged(reassigned, max_drift, tol) {
            converged = true;
            break;
        }
    }

    let t_settle = std::time::Instant::now();
    let sse = Some(crate::quality::sse(data, &cents.to_matrix(), &assignments, 1));
    let settle =
        SettleStats { secs: t_settle.elapsed().as_secs_f64(), threads: 1, read_bytes: None };
    let niters = iters.len();
    KmeansResult {
        centroids: cents.to_matrix(),
        assignments,
        niters,
        converged,
        iters,
        memory: MemoryFootprint {
            data_bytes: (n * d * 8) as u64,
            centroid_bytes: (2 * k * d * 8) as u64,
            accum_bytes: (k * d * 8 + k * 8) as u64,
            per_row_bytes: (n * 4) as u64,
            pruning_bytes: 0,
            cache_bytes: 0,
        },
        sse,
        numa: crate::stats::NumaReport::default(),
        load: None,
        init: init_stats,
        settle,
        phases: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{max_center_error, sse};

    fn two_blobs() -> DMatrix {
        let mut v = Vec::new();
        for i in 0..50 {
            v.push(0.0 + (i % 5) as f64 * 0.01);
            v.push(0.0 + (i % 7) as f64 * 0.01);
        }
        for i in 0..50 {
            v.push(10.0 + (i % 5) as f64 * 0.01);
            v.push(10.0 + (i % 7) as f64 * 0.01);
        }
        DMatrix::from_vec(v, 100, 2)
    }

    #[test]
    fn converges_on_separated_blobs() {
        let data = two_blobs();
        let r = lloyd_serial(&data, 2, &InitMethod::Forgy, 3, 100, 0.0);
        assert!(r.converged);
        let reference = DMatrix::from_vec(vec![0.02, 0.03, 10.02, 10.03], 2, 2);
        assert!(max_center_error(&r.centroids, &reference) < 0.1);
        // All blob-0 points share one label, blob-1 the other.
        let l0 = r.assignments[0];
        assert!(r.assignments[..50].iter().all(|&a| a == l0));
        assert!(r.assignments[50..].iter().all(|&a| a != l0));
    }

    #[test]
    fn sse_monotonically_nonincreasing_across_recomputation() {
        let data = two_blobs();
        let r = lloyd_serial(&data, 2, &InitMethod::RandomPartition, 1, 50, 0.0);
        let final_sse = sse(&data, &r.centroids, &r.assignments, 1);
        assert!(final_sse <= r.sse.unwrap() + 1e-9);
        assert!(r.sse.unwrap().is_finite());
    }

    #[test]
    fn respects_max_iters() {
        let data = two_blobs();
        let r = lloyd_serial(&data, 2, &InitMethod::Forgy, 3, 1, 0.0);
        assert_eq!(r.niters, 1);
    }

    #[test]
    fn k_equals_one() {
        let data = two_blobs();
        let r = lloyd_serial(&data, 1, &InitMethod::Forgy, 0, 10, 0.0);
        assert!(r.converged);
        // Centroid is the global mean.
        let mean_x: f64 = data.rows().map(|r| r[0]).sum::<f64>() / 100.0;
        assert!((r.centroids.row(0)[0] - mean_x).abs() < 1e-9);
    }
}

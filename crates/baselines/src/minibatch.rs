//! Sculley's mini-batch k-means (Related Work, [36]).
//!
//! The paper avoids approximations "owing to questions of cluster quality";
//! we include the approximation so the harness can show that gap on the
//! same workloads.
//!
//! Since the `MmAlgorithm` layer landed, mini-batch runs natively on the
//! parallel driver (`Algorithm::MiniBatch` on knori/knors/knord: iteration
//! 0 is a full pass, later iterations Bernoulli-sample rows by a seeded
//! hash *before* fetching their data, and the update is the batch form of
//! the per-center learning rate). The old standalone loop — sequential
//! per-sample updates that no parallel engine could reproduce — was
//! retired; this module is now the **serial reference mirror** executing
//! the same map/update phases in plain row order, so a single-threaded
//! engine run must reproduce it exactly.

use knor_core::algo::{Algorithm, UpdateCtx};
use knor_core::centroids::{Centroids, LocalAccum};
use knor_matrix::DMatrix;

/// Result of a mini-batch run.
#[derive(Debug, Clone)]
pub struct MiniBatchRun {
    /// Final centroids.
    pub centroids: DMatrix,
    /// Assignments from one final full map pass against the final
    /// centroids (batch assignments would be stale for rarely-sampled
    /// rows; the engines do the same refresh).
    pub assignments: Vec<u32>,
    /// Batches (iterations) processed.
    pub batches: usize,
}

/// Run mini-batch k-means: `batches` iterations over Bernoulli-sampled
/// ≈`batch_size`-row batches with batch learning-rate updates — the exact
/// algorithm `Algorithm::MiniBatch` runs on the parallel driver, executed
/// serially.
pub fn minibatch_kmeans(
    data: &DMatrix,
    init: &DMatrix,
    batch_size: usize,
    batches: usize,
    seed: u64,
) -> MiniBatchRun {
    let n = data.nrow();
    let d = data.ncol();
    let k = init.nrow();
    let algo = Algorithm::MiniBatch { batch: batch_size }.resolve(k, n, seed);
    let mut cents = Centroids::from_matrix(init);
    algo.prepare_init(&mut cents);
    let mut next = Centroids::zeros(k, d);
    let mut assignments = vec![u32::MAX; n];
    let mut accum = LocalAccum::new(k, d);

    for iter in 0..batches {
        accum.reset();
        for (i, row) in data.rows().enumerate() {
            if !algo.row_in_scope(i, iter) {
                continue;
            }
            let o = algo.map(row, &cents);
            assignments[i] = o.cluster;
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
        std::mem::swap(&mut cents, &mut next);
    }

    // Final refresh: align every row with the final model (mirrors the
    // engines' post-run pass for subsampling algorithms).
    for (i, row) in data.rows().enumerate() {
        assignments[i] = algo.map(row, &cents).cluster;
    }

    MiniBatchRun { centroids: cents.to_matrix(), assignments, batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::init::InitMethod;
    use knor_core::quality::sse;
    use knor_core::serial::lloyd_serial;
    use knor_workloads::MixtureSpec;

    #[test]
    fn minibatch_reduces_sse_but_exact_wins() {
        let data = MixtureSpec::friendster_like(2000, 8, 61).generate().data;
        let k = 8;
        let init = InitMethod::Forgy.initialize(&data, k, 8).to_matrix();
        let before = sse(
            &data,
            &init,
            &data
                .rows()
                .map(|v| knor_core::distance::nearest(v, init.as_slice(), k).0 as u32)
                .collect::<Vec<_>>(),
            1,
        );
        let mb = minibatch_kmeans(&data, &init, 64, 100, 9);
        let mb_sse = sse(&data, &mb.centroids, &mb.assignments, 1);
        assert!(mb_sse < before, "minibatch should improve on init");
        let exact = lloyd_serial(&data, k, &InitMethod::Given(init), 0, 100, 0.0);
        // Exact Lloyd's matches or beats the approximation.
        assert!(exact.sse.unwrap() <= mb_sse * 1.001);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = MixtureSpec::friendster_like(300, 4, 62).generate().data;
        let init = InitMethod::Forgy.initialize(&data, 4, 1).to_matrix();
        let a = minibatch_kmeans(&data, &init, 32, 20, 5);
        let b = minibatch_kmeans(&data, &init, 32, 20, 5);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn first_iteration_is_a_full_lloyd_step() {
        // Iteration 0 covers every row with cumulative counts starting at
        // zero, so one batch equals one exact Lloyd iteration. (The
        // refresh pass re-assigns against the *updated* centroids, so
        // compare those directly, not Lloyd's pre-update assignments.)
        let data = MixtureSpec::friendster_like(500, 6, 63).generate().data;
        let k = 6;
        let init = InitMethod::Forgy.initialize(&data, k, 2).to_matrix();
        let mb = minibatch_kmeans(&data, &init, 8, 1, 7);
        let lloyd = lloyd_serial(&data, k, &InitMethod::Given(init), 0, 1, 0.0);
        assert_eq!(mb.centroids, lloyd.centroids);
        let fresh: Vec<u32> = data
            .rows()
            .map(|v| knor_core::distance::nearest(v, mb.centroids.as_slice(), k).0 as u32)
            .collect();
        assert_eq!(mb.assignments, fresh, "refresh pass must match nearest under final model");
    }
}

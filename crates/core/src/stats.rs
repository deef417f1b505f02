//! Per-iteration statistics, memory accounting and the result type.

use crate::pruning::{yinyang_groups, PruneCounters, Pruning};
use crate::trace::PhaseBreakdown;
use knor_matrix::DMatrix;
use knor_numa::AccessTally;
use knor_sched::QueueStats;

/// How the worker loop reached the rows it committed and how often it
/// prepared the kernel's shared operand — the `--stats` `commit:` line.
/// Rank-local under knord (these do not ride the allreduce).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommitCounters {
    /// Rows committed from where the row source holds them: a direct
    /// source's arena or slice, a staged source's staging area.
    pub borrowed_rows: u64,
    /// Rows a direct source copied into scratch first, because the block's
    /// row ids were not consecutive (scoped algorithms).
    pub gathered_rows: u64,
    /// [`crate::kernel::CentroidPanel`] packs: one per worker per
    /// full-scan super-phase on the GEMM kernel, none otherwise.
    pub panel_packs: u64,
}

impl CommitCounters {
    /// Fold another worker's (or iteration's) counters into these.
    pub fn merge(&mut self, o: &CommitCounters) {
        self.borrowed_rows += o.borrowed_rows;
        self.gathered_rows += o.gathered_rows;
        self.panel_packs += o.panel_packs;
    }
}

/// Statistics for one ||Lloyd's iteration.
#[derive(Debug, Clone)]
pub struct IterStats {
    /// Iteration number, 0-based (iteration 0 is the initial assignment).
    pub iter: usize,
    /// Points whose assignment changed this iteration.
    pub reassigned: u64,
    /// Rows whose data was actually touched (n minus Clause 1 skips).
    pub rows_accessed: u64,
    /// Pruning outcome counters.
    pub prune: PruneCounters,
    /// Borrowed/gathered rows and panel packs, summed over the workers.
    pub commit: CommitCounters,
    /// Measured wall time of the iteration on the host.
    pub wall_ns: u64,
    /// Task-queue dispatch statistics for the iteration.
    pub queue: QueueStats,
    /// Exact per-worker access/compute tallies (input to the NUMA cost
    /// model); present when the engine was configured to track them.
    pub tallies: Option<Vec<AccessTally>>,
    /// Maximum centroid drift after the update.
    pub max_drift: f64,
}

/// NUMA topology report for one run (the `--stats` NUMA section).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NumaReport {
    /// NUMA nodes in the resolved topology.
    pub nodes: usize,
    /// Worker threads bound to each node, in node order.
    pub workers_per_node: Vec<usize>,
}

/// Heap-memory footprint of a run, following Table 1's decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// The dataset itself: `O(nd)` for in-memory modules, `0` for SEM
    /// (rows stream from disk), or the row-cache budget for knors.
    pub data_bytes: u64,
    /// Global centroid structures: `O(kd)` (current + next).
    pub centroid_bytes: u64,
    /// Per-thread accumulators: `O(Tkd)`.
    pub accum_bytes: u64,
    /// Per-row engine state: assignments `O(n)` (4 bytes/row), plus — when
    /// pruning is on — upper bounds (8 bytes/row), plus — under Yinyang —
    /// `t` group lower bounds per row (`8t` bytes/row).
    pub per_row_bytes: u64,
    /// Scheme-global pruning structures: MTI's `O(k²)` centroid-distance
    /// matrix, or Yinyang's `O(k + t)` grouping/drift tables.
    pub pruning_bytes: u64,
    /// Caches (row cache + page cache) for SEM runs.
    pub cache_bytes: u64,
}

impl MemoryFootprint {
    /// Table 1's terms for a run of `nthreads` workers over `n` rows under
    /// the resolved pruning `scheme` — the one place the formulas live.
    /// `data_bytes` is what the engine holds of the dataset (0 for SEM: the
    /// `O(nd)` stays on the device) and `cache_bytes` its cache budgets.
    pub fn account(
        scheme: Pruning,
        (n, k, d): (usize, usize, usize),
        nthreads: usize,
        data_bytes: u64,
        cache_bytes: u64,
    ) -> Self {
        let (pruning, ngroups) = (scheme.enabled(), yinyang_groups(k));
        Self {
            data_bytes,
            centroid_bytes: (2 * k * d * 8) as u64
                + if pruning { (k * d * 8 + k * 8) as u64 } else { 0 },
            accum_bytes: (nthreads * (k * d * 8 + k * 8)) as u64,
            per_row_bytes: (n * 4) as u64
                + if pruning { (n * 8) as u64 } else { 0 }
                + if scheme == Pruning::Yinyang { (n * ngroups * 8) as u64 } else { 0 },
            pruning_bytes: match scheme {
                Pruning::None => 0,
                Pruning::Mti => ((k * k + 2 * k) * 8) as u64,
                // Grouping tables (u32) plus drift and group-drift vectors.
                Pruning::Yinyang => ((2 * k + ngroups + 1) * 4 + (k + ngroups) * 8) as u64,
            },
            cache_bytes,
        }
    }

    /// Bytes the pruning bounds occupy: the per-row bounds (everything
    /// per-row but the 4-byte assignments) plus the scheme's tables.
    pub fn bound_bytes(&self, n: usize) -> u64 {
        self.per_row_bytes - (n * 4) as u64 + self.pruning_bytes
    }

    /// Total accounted bytes.
    pub fn total(&self) -> u64 {
        self.data_bytes
            + self.centroid_bytes
            + self.accum_bytes
            + self.per_row_bytes
            + self.pruning_bytes
            + self.cache_bytes
    }
}

/// What reading the input into place cost a file-sourced run (the
/// `--stats` `load:` line).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Payload bytes read — and held: the placed layout is the only copy.
    pub bytes: u64,
    /// Wall seconds from the arenas' allocation to the last block filled.
    pub secs: f64,
    /// Loader threads, one per block of the data's placement.
    pub threads: usize,
}

/// What seeding a run cost (the `--stats` `init:` line).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InitStats {
    /// Wall seconds from the first draw to the last initial centroid.
    pub secs: f64,
    /// Row-to-center distances k-means++ evaluated, of the `n·(k−1)` a full
    /// D² scan would; 0 for the other methods, which evaluate none.
    pub dists: u64,
}

/// The outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Final `k x d` centroids.
    pub centroids: DMatrix,
    /// Final assignment of each row.
    pub assignments: Vec<u32>,
    /// Number of iterations executed (including the initial assignment).
    pub niters: usize,
    /// True if assignments stabilized (or drift fell below tolerance)
    /// before the iteration cap.
    pub converged: bool,
    /// Per-iteration statistics.
    pub iters: Vec<IterStats>,
    /// Accounted memory footprint.
    pub memory: MemoryFootprint,
    /// Final within-cluster sum of squared distances, when requested.
    pub sse: Option<f64>,
    /// NUMA topology report.
    pub numa: NumaReport,
    /// The load of a run that read its own input ([`crate::Kmeans::fit_file`]);
    /// `None` when the caller handed the data over.
    pub load: Option<LoadStats>,
    /// What the seeding cost.
    pub init: InitStats,
    /// Per-phase trace fold for the run (`Some` iff a recorder was
    /// attached — see [`crate::trace`]).
    pub phases: Option<PhaseBreakdown>,
}

impl KmeansResult {
    /// Mean measured wall time per *steady-state* iteration, in
    /// nanoseconds.
    ///
    /// Iteration 0 is the initial full-assignment pass: it has no prior
    /// assignments, so MTI cannot prune and every row takes a full
    /// `k`-way scan — structurally different work from every later
    /// iteration. When the run has more than one iteration it is
    /// excluded from the mean; a single-iteration run returns that
    /// iteration's wall time (there is nothing steadier to report).
    pub fn mean_iter_ns(&self) -> f64 {
        match self.iters.len() {
            0 => 0.0,
            1 => self.iters[0].wall_ns as f64,
            len => self.iters[1..].iter().map(|i| i.wall_ns as f64).sum::<f64>() / (len - 1) as f64,
        }
    }

    /// Sum of pruning counters across iterations.
    pub fn total_prune(&self) -> PruneCounters {
        let mut total = PruneCounters::default();
        for it in &self.iters {
            total.merge(&it.prune);
        }
        total
    }

    /// Sum of the worker loop's commit counters across iterations.
    pub fn total_commit(&self) -> CommitCounters {
        let mut total = CommitCounters::default();
        for it in &self.iters {
            total.merge(&it.commit);
        }
        total
    }

    /// Fraction of candidate distance computations avoided across the
    /// *prunable* iterations, relative to the unpruned `n·k` per
    /// iteration.
    ///
    /// Iteration 0 establishes the initial assignments — there are no
    /// prior assignments to prune against, so MTI always does the full
    /// `n·k` there. Counting it would dilute the reported fraction by
    /// `1/niters` regardless of how well the clauses work, so the
    /// denominator covers iterations `1..` only. A run with no prunable
    /// iterations (0 or 1 total) reports `0.0`.
    pub fn prune_fraction(&self, n: u64, k: u64) -> f64 {
        if self.iters.len() < 2 {
            return 0.0;
        }
        let total_possible = n * k * (self.iters.len() as u64 - 1);
        if total_possible == 0 {
            return 0.0;
        }
        let done: u64 = self.iters[1..].iter().map(|i| i.prune.dist_computations).sum();
        1.0 - done as f64 / total_possible as f64
    }

    /// Always 0: there are no centroid replicas to publish into (kept for
    /// `knor_bench`'s `replica.publish_kb_per_iter` probe).
    #[doc(hidden)]
    pub fn total_publish_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_total_sums_fields() {
        let f = MemoryFootprint {
            data_bytes: 100,
            centroid_bytes: 10,
            accum_bytes: 20,
            per_row_bytes: 30,
            pruning_bytes: 5,
            cache_bytes: 7,
        };
        assert_eq!(f.total(), 172);
    }

    #[test]
    fn result_helpers() {
        let mk_iter = |wall: u64, comps: u64| IterStats {
            iter: 0,
            reassigned: 0,
            rows_accessed: 0,
            prune: PruneCounters { dist_computations: comps, ..Default::default() },
            commit: CommitCounters::default(),
            wall_ns: wall,
            queue: QueueStats::default(),
            tallies: None,
            max_drift: 0.0,
        };
        let r = KmeansResult {
            centroids: DMatrix::zeros(1, 1),
            assignments: vec![],
            niters: 2,
            converged: true,
            iters: vec![mk_iter(100, 50), mk_iter(300, 50)],
            memory: MemoryFootprint::default(),
            sse: None,
            numa: NumaReport::default(),
            load: None,
            init: InitStats::default(),
            phases: None,
        };
        // Iteration 0 (the initial assignment pass) is excluded from the
        // steady-state mean: only the 300 ns iteration counts.
        assert_eq!(r.mean_iter_ns(), 300.0);
        assert_eq!(r.total_prune().dist_computations, 100);
        // n=10, k=10: one prunable iteration -> 100 possible, 50 done.
        assert!((r.prune_fraction(10, 10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iteration_zero_edge_cases() {
        let mk_iter = |wall: u64, comps: u64| IterStats {
            iter: 0,
            reassigned: 0,
            rows_accessed: 0,
            prune: PruneCounters { dist_computations: comps, ..Default::default() },
            commit: CommitCounters::default(),
            wall_ns: wall,
            queue: QueueStats::default(),
            tallies: None,
            max_drift: 0.0,
        };
        let mk = |iters: Vec<IterStats>| KmeansResult {
            centroids: DMatrix::zeros(1, 1),
            assignments: vec![],
            niters: iters.len(),
            converged: true,
            iters,
            memory: MemoryFootprint::default(),
            sse: None,
            numa: NumaReport::default(),
            load: None,
            init: InitStats::default(),
            phases: None,
        };
        // No iterations at all.
        let empty = mk(vec![]);
        assert_eq!(empty.mean_iter_ns(), 0.0);
        assert_eq!(empty.prune_fraction(10, 10), 0.0);
        // A single iteration: only the unprunable initial pass ran, so the
        // mean falls back to it and the prune fraction is undefined -> 0.
        let one = mk(vec![mk_iter(700, 100)]);
        assert_eq!(one.mean_iter_ns(), 700.0);
        assert_eq!(one.prune_fraction(10, 10), 0.0);
    }
}

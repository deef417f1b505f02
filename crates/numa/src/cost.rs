//! The NUMA access cost model.
//!
//! The paper's scaling results (Figs. 4, 5, 11, 12) were measured on a
//! 4-socket/48-core Xeon E7 with DDR3-1600 banks and a shared interconnect.
//! This container does not have that machine, so — per the substitution rule
//! in DESIGN.md §3 — the engine *counts* every row access exactly (which node
//! served it, which thread issued it, how many distance fused-ops were
//! computed) and this model converts those exact tallies into modeled wall
//! time. The model captures the two effects the paper attributes the
//! NUMA-oblivious slowdown to:
//!
//! 1. **bank contention** — a memory bank's bandwidth is shared by every
//!    thread streaming from it (all threads hit one bank when `malloc`
//!    places the whole dataset on a single node);
//! 2. **interconnect transfer** — remote rows additionally cross a QPI-like
//!    link with its own (lower) bandwidth and higher access latency.
//!
//! Compute cost is linear in counted fused-ops; barrier cost grows with the
//! thread count. All parameters are public and calibratable.

use crate::topology::NodeId;

/// Exact per-thread access/compute tallies for one iteration.
#[derive(Debug, Clone)]
pub struct AccessTally {
    /// Node the issuing thread is bound to.
    pub thread_node: NodeId,
    /// Bytes the thread streamed from each NUMA node's bank.
    pub bytes_from_node: Vec<u64>,
    /// Row-granularity access counts (for latency accounting).
    pub local_accesses: u64,
    /// Accesses that crossed the interconnect.
    pub remote_accesses: u64,
    /// Fused multiply-add operations executed in distance kernels.
    pub flops: u64,
}

impl AccessTally {
    /// A zeroed tally for a thread bound to `node` on an `nnodes` machine.
    pub fn new(node: NodeId, nnodes: usize) -> Self {
        Self {
            thread_node: node,
            bytes_from_node: vec![0; nnodes],
            local_accesses: 0,
            remote_accesses: 0,
            flops: 0,
        }
    }

    /// Record `rows` row accesses, `bytes` in all, served by `home` node —
    /// what a worker borrows from one block of the placed matrix.
    #[inline]
    pub fn record_block(&mut self, home: NodeId, rows: u64, bytes: u64) {
        self.bytes_from_node[home.0] += bytes;
        if home == self.thread_node {
            self.local_accesses += rows;
        } else {
            self.remote_accesses += rows;
        }
    }

    /// Record `n` fused ops of distance computation.
    #[inline]
    pub fn record_flops(&mut self, n: u64) {
        self.flops += n;
    }

    /// Total bytes streamed by this thread.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_from_node.iter().sum()
    }

    /// Merge another tally into this one (same thread, multiple phases).
    pub fn merge(&mut self, other: &AccessTally) {
        assert_eq!(self.bytes_from_node.len(), other.bytes_from_node.len());
        for (a, b) in self.bytes_from_node.iter_mut().zip(&other.bytes_from_node) {
            *a += b;
        }
        self.local_accesses += other.local_accesses;
        self.remote_accesses += other.remote_accesses;
        self.flops += other.flops;
    }
}

/// Calibratable machine parameters. Bandwidths in GB/s (== bytes/ns).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Sustainable streaming bandwidth of one node's memory bank.
    pub bank_gbps: f64,
    /// Per-link interconnect bandwidth between node pairs.
    pub interconnect_gbps: f64,
    /// Amortized latency per local row access (prefetch-hidden, small).
    pub local_latency_ns: f64,
    /// Amortized latency per remote row access.
    pub remote_latency_ns: f64,
    /// Nanoseconds per distance-kernel fused op.
    pub flop_ns: f64,
    /// Cost of one global barrier, per participating thread (log model).
    pub barrier_base_ns: f64,
}

impl CostModel {
    /// Parameters approximating the paper's Xeon E7-4860 / DDR3-1600 box.
    pub fn paper_default() -> Self {
        Self {
            bank_gbps: 38.0,
            interconnect_gbps: 12.8,
            local_latency_ns: 4.0,
            remote_latency_ns: 45.0,
            flop_ns: 0.25,
            barrier_base_ns: 1_500.0,
        }
    }

    /// Modeled time for one iteration given per-thread tallies.
    ///
    /// `barriers` is the number of global barriers the algorithm uses per
    /// iteration (1 for ||Lloyd's, 2 for naive Lloyd's).
    pub fn iteration_time(&self, tallies: &[AccessTally], barriers: u32) -> IterationCost {
        let nthreads = tallies.len().max(1);
        let nnodes = tallies.iter().map(|t| t.bytes_from_node.len()).max().unwrap_or(1);

        // Bank contention: how many threads stream from each bank.
        let mut contenders = vec![0u32; nnodes];
        for t in tallies {
            for (node, &b) in t.bytes_from_node.iter().enumerate() {
                if b > 0 {
                    contenders[node] += 1;
                }
            }
        }
        // Interconnect contention: remote streams sharing each node's links.
        let mut remote_streams = vec![0u32; nnodes];
        for t in tallies {
            for (node, &b) in t.bytes_from_node.iter().enumerate() {
                if b > 0 && NodeId(node) != t.thread_node {
                    remote_streams[node] += 1;
                }
            }
        }

        let mut per_thread = Vec::with_capacity(nthreads);
        for t in tallies {
            let compute = t.flops as f64 * self.flop_ns;
            let mut mem = 0.0;
            for (node, &bytes) in t.bytes_from_node.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let share = self.bank_gbps / contenders[node].max(1) as f64;
                mem += bytes as f64 / share;
                if NodeId(node) != t.thread_node {
                    let link = self.interconnect_gbps / remote_streams[node].max(1) as f64;
                    mem += bytes as f64 / link;
                }
            }
            let lat = t.local_accesses as f64 * self.local_latency_ns
                + t.remote_accesses as f64 * self.remote_latency_ns;
            per_thread.push(compute + mem + lat);
        }

        let critical = per_thread.iter().cloned().fold(0.0f64, f64::max);
        let barrier =
            barriers as f64 * self.barrier_base_ns * ((nthreads as f64).log2().max(1.0) + 1.0);
        IterationCost { per_thread_ns: per_thread, critical_path_ns: critical, barrier_ns: barrier }
    }
}

/// Modeled cost breakdown of one iteration.
#[derive(Debug, Clone)]
pub struct IterationCost {
    /// Modeled busy time of each thread.
    pub per_thread_ns: Vec<f64>,
    /// Slowest thread (the iteration is barrier-synchronized).
    pub critical_path_ns: f64,
    /// Synchronization overhead.
    pub barrier_ns: f64,
}

impl IterationCost {
    /// Total modeled iteration time.
    pub fn total_ns(&self) -> f64 {
        self.critical_path_ns + self.barrier_ns
    }

    /// Load imbalance: max over mean busy time (1.0 = perfectly balanced).
    pub fn skew(&self) -> f64 {
        if self.per_thread_ns.is_empty() {
            return 1.0;
        }
        let mean: f64 = self.per_thread_ns.iter().sum::<f64>() / self.per_thread_ns.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.critical_path_ns / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(
        node: usize,
        nnodes: usize,
        local: u64,
        remote_node: usize,
        remote: u64,
        row: u64,
    ) -> AccessTally {
        let mut t = AccessTally::new(NodeId(node), nnodes);
        t.record_block(NodeId(node), local, local * row);
        t.record_block(NodeId(remote_node), remote, remote * row);
        t
    }

    #[test]
    fn local_cheaper_than_remote() {
        let m = CostModel::paper_default();
        let local = m.iteration_time(&[tally(0, 2, 1000, 1, 0, 64)], 1);
        let remote = m.iteration_time(&[tally(0, 2, 0, 1, 1000, 64)], 1);
        assert!(remote.critical_path_ns > local.critical_path_ns * 1.5);
    }

    #[test]
    fn single_bank_contention_hurts() {
        let m = CostModel::paper_default();
        let nnodes = 4;
        // 8 threads all streaming from node 0 (NUMA-oblivious allocation)...
        let oblivious: Vec<_> =
            (0..8).map(|t| tally(t % nnodes, nnodes, 0, 0, 100_000, 64)).collect();
        // ...vs 8 threads each streaming from their own node.
        let aware: Vec<_> = (0..8).map(|t| tally(t % nnodes, nnodes, 100_000, 0, 0, 64)).collect();
        let to = m.iteration_time(&oblivious, 1);
        let ta = m.iteration_time(&aware, 1);
        assert!(
            to.critical_path_ns > ta.critical_path_ns * 2.0,
            "oblivious {} vs aware {}",
            to.critical_path_ns,
            ta.critical_path_ns
        );
    }

    #[test]
    fn flops_add_compute_time() {
        let m = CostModel::paper_default();
        let mut t = AccessTally::new(NodeId(0), 1);
        t.record_flops(1_000_000);
        let c = m.iteration_time(&[t], 1);
        assert!((c.critical_path_ns - 1_000_000.0 * m.flop_ns).abs() < 1e-6);
    }

    #[test]
    fn skew_detects_imbalance() {
        let m = CostModel::paper_default();
        let balanced =
            m.iteration_time(&[tally(0, 1, 100, 0, 0, 64), tally(0, 1, 100, 0, 0, 64)], 1);
        let skewed = m.iteration_time(&[tally(0, 1, 1000, 0, 0, 64), tally(0, 1, 10, 0, 0, 64)], 1);
        assert!(balanced.skew() < 1.01);
        assert!(skewed.skew() > 1.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = tally(0, 2, 5, 1, 3, 64);
        let b = tally(0, 2, 2, 1, 1, 64);
        a.merge(&b);
        assert_eq!(a.local_accesses, 7);
        assert_eq!(a.remote_accesses, 4);
        assert_eq!(a.total_bytes(), 64 * 11);
    }

    #[test]
    fn more_barriers_cost_more() {
        let m = CostModel::paper_default();
        let ts: Vec<_> = (0..4).map(|_| tally(0, 1, 10, 0, 0, 64)).collect();
        let one = m.iteration_time(&ts, 1);
        let two = m.iteration_time(&ts, 2);
        assert!(two.total_ns() > one.total_ns());
    }
}

//! The Fig. 1 data/thread placement scheme.
//!
//! With `T` threads on `N` nodes, knor assigns `beta = T/N` consecutive
//! thread ids to each node and gives thread `t` the contiguous row block of
//! `alpha = n/T` rows starting at `t * alpha`. A row's *home node* is the
//! node of the thread that owns its block; the scheduler uses this to
//! prioritize local work.

use crate::topology::{NodeId, Topology};
use knor_matrix::partition_rows;
use std::ops::Range;

/// Immutable placement plan for one engine run.
#[derive(Debug, Clone)]
pub struct Placement {
    nrow: usize,
    nthreads: usize,
    nnodes: usize,
    /// Contiguous row range owned by each thread (Fig. 1 `alpha` blocks).
    thread_ranges: Vec<Range<usize>>,
    /// NUMA node each thread is bound to.
    thread_node: Vec<NodeId>,
    /// For fast `node_of_row`: per-thread base/extra arithmetic.
    base: usize,
    extra: usize,
}

impl Placement {
    /// Plan placement of `nrow` rows over `nthreads` threads on `topo`.
    ///
    /// Threads are distributed round-robin over *node groups*: the first
    /// `T/N` threads on node 0, the next on node 1, and so on (remainder
    /// threads spread across leading nodes), matching the paper's Fig. 1.
    pub fn new(topo: &Topology, nrow: usize, nthreads: usize) -> Self {
        assert!(nthreads > 0);
        let nnodes = topo.nodes();
        let thread_ranges = partition_rows(nrow, nthreads);
        // Group thread ids into node-contiguous blocks: thread t -> node
        // t / ceil(T/N) clamped; use the same near-equal split as rows.
        let groups = partition_rows(nthreads, nnodes);
        let mut thread_node = vec![NodeId(0); nthreads];
        for (node, g) in groups.iter().enumerate() {
            for t in g.clone() {
                thread_node[t] = NodeId(node);
            }
        }
        Self {
            nrow,
            nthreads,
            nnodes,
            thread_ranges,
            thread_node,
            base: nrow / nthreads,
            extra: nrow % nthreads,
        }
    }

    /// Number of rows planned.
    #[inline]
    pub fn nrow(&self) -> usize {
        self.nrow
    }

    /// Number of worker threads, `T`.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Number of NUMA nodes, `N`.
    #[inline]
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// The contiguous row block owned by `thread`.
    #[inline]
    pub fn range_of_thread(&self, thread: usize) -> Range<usize> {
        self.thread_ranges[thread].clone()
    }

    /// All per-thread row ranges in thread order.
    pub fn thread_ranges(&self) -> &[Range<usize>] {
        &self.thread_ranges
    }

    /// The node `thread` is bound to.
    #[inline]
    pub fn node_of_thread(&self, thread: usize) -> NodeId {
        self.thread_node[thread]
    }

    /// The thread whose block contains `row` (O(1) arithmetic).
    #[inline]
    pub fn thread_of_row(&self, row: usize) -> usize {
        debug_assert!(row < self.nrow);
        let cut = self.extra * (self.base + 1);
        if row < cut {
            row / (self.base + 1)
        } else {
            // base == 0 can only happen when extra == nrow, i.e. row < cut.
            self.extra + (row - cut) / self.base
        }
    }

    /// The home NUMA node of `row`.
    #[inline]
    pub fn node_of_row(&self, row: usize) -> NodeId {
        self.thread_node[self.thread_of_row(row)]
    }

    /// Threads bound to `node`, in id order.
    pub fn threads_on_node(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        (0..self.nthreads).filter(move |&t| self.thread_node[t] == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_grouping() {
        let topo = Topology::synthetic(4, 12);
        let p = Placement::new(&topo, 48_000, 48);
        assert_eq!(p.nnodes(), 4);
        // 12 threads per node, grouped contiguously.
        assert_eq!(p.node_of_thread(0), NodeId(0));
        assert_eq!(p.node_of_thread(11), NodeId(0));
        assert_eq!(p.node_of_thread(12), NodeId(1));
        assert_eq!(p.node_of_thread(47), NodeId(3));
        // Thread 5 owns rows [5000, 6000).
        assert_eq!(p.range_of_thread(5), 5000..6000);
        assert_eq!(p.thread_of_row(5999), 5);
        assert_eq!(p.node_of_row(5999), NodeId(0));
        assert_eq!(p.node_of_row(47_999), NodeId(3));
    }

    #[test]
    fn thread_of_row_matches_ranges_with_remainders() {
        let topo = Topology::synthetic(3, 2);
        for nrow in [1usize, 7, 100, 101, 103] {
            for nthreads in [1usize, 2, 5, 6, 7] {
                let p = Placement::new(&topo, nrow, nthreads);
                for row in 0..nrow {
                    let t = p.thread_of_row(row);
                    assert!(
                        p.range_of_thread(t).contains(&row),
                        "row {row} mapped to thread {t} range {:?} (n={nrow}, T={nthreads})",
                        p.range_of_thread(t)
                    );
                }
            }
        }
    }

    #[test]
    fn threads_on_node_partitions_threads() {
        let topo = Topology::synthetic(4, 4);
        let p = Placement::new(&topo, 1000, 10);
        let total: usize = topo.node_ids().map(|n| p.threads_on_node(n).count()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn more_threads_than_rows() {
        let topo = Topology::synthetic(2, 4);
        let p = Placement::new(&topo, 3, 8);
        for row in 0..3 {
            let t = p.thread_of_row(row);
            assert!(p.range_of_thread(t).contains(&row));
        }
    }
}

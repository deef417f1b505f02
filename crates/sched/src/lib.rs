//! Task scheduling for the ||Lloyd's engine.
//!
//! When MTI pruning is enabled, the per-row work becomes skewed: rows in
//! strongly rooted clusters are pruned in O(1) while border rows still pay
//! O(kd). The paper's answer (Fig. 2) is a *NUMA-aware partitioned priority
//! task queue*: the queue is split into `T` partitions (one per worker, each
//! with its own lock), tasks are blocks of contiguous rows with a *home*
//! NUMA node, and an idle worker
//!
//! 1. drains its own partition,
//! 2. steals from workers bound to the same node,
//! 3. cycles the whole queue once looking for *high-priority* tasks (home ==
//!    its node),
//! 4. finally settles for any task rather than starving.
//!
//! [`SchedulerKind::Fifo`] and [`SchedulerKind::Static`] implement the two
//! baselines of Fig. 5. Everything is exercised through [`TaskQueue`].
//!
//! The tasks themselves do not change between iterations: [`task_grid`]
//! cuts the rows the same way every time, and each task carries its index
//! in that grid, so per-row state can be owned per task (the driver's
//! `RowBounds` keeps one chunk per grid task).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use knor_numa::{NodeId, Placement};
use parking_lot::Mutex;

/// The paper's empirically chosen minimum task size (rows per task).
pub const DEFAULT_TASK_SIZE: usize = 8192;

/// A schedulable block of contiguous rows homed on one NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Index of the task in its run's [`task_grid`].
    pub id: usize,
    /// Global row range `[start, end)`.
    pub rows: Range<usize>,
    /// Node whose memory bank holds these rows (Fig. 1 placement).
    pub home: NodeId,
}

impl Task {
    /// Number of rows in the task.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the task covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The run's task grid: each worker's Fig. 1 block, in worker order, cut
/// into tasks of at most `task_size` rows, as `(owning worker, task)`.
/// Ids run `0..` in yield order, which is also row order. Tasks never span
/// thread-block boundaries, so every task has a single well-defined home
/// node. The grid is a function of `placement` and `task_size` alone, so
/// every iteration of a run sees the same tasks.
pub fn task_grid(
    placement: &Placement,
    task_size: usize,
) -> impl Iterator<Item = (usize, Task)> + '_ {
    assert!(task_size > 0);
    (0..placement.nthreads())
        .flat_map(move |w| {
            let (range, home) = (placement.range_of_thread(w), placement.node_of_thread(w));
            let end = range.end;
            range
                .step_by(task_size)
                .map(move |start| (w, start..(start + task_size).min(end), home))
        })
        .enumerate()
        .map(|(id, (w, rows, home))| (w, Task { id, rows, home }))
}

/// Which scheduling policy a [`TaskQueue`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Partitioned priority queue with two-level (node-first) stealing.
    NumaAware,
    /// Own partition first, then steal from anyone in partition order,
    /// ignoring NUMA homes.
    Fifo,
    /// Pre-assigned partitions only; no stealing.
    Static,
}

impl SchedulerKind {
    /// Human-readable name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::NumaAware => "numa-aware",
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Static => "static",
        }
    }
}

/// Counters describing where workers found their tasks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Tasks taken from the worker's own partition.
    pub own: u64,
    /// Tasks stolen from a partition of a same-node worker.
    pub node_steals: u64,
    /// High-priority tasks (local home) found in remote partitions.
    pub priority_hits: u64,
    /// Tasks settled for with a remote home (lowest priority).
    pub remote_steals: u64,
}

impl QueueStats {
    /// Fold another queue's (a knord rank's) counters into these.
    pub fn merge(&mut self, o: &QueueStats) {
        self.own += o.own;
        self.node_steals += o.node_steals;
        self.priority_hits += o.priority_hits;
        self.remote_steals += o.remote_steals;
    }

    /// Total tasks dispensed.
    pub fn total(&self) -> u64 {
        self.own + self.node_steals + self.priority_hits + self.remote_steals
    }
}

#[derive(Default)]
struct AtomicStats {
    own: AtomicU64,
    node_steals: AtomicU64,
    priority_hits: AtomicU64,
    remote_steals: AtomicU64,
}

/// The partitioned task queue of Fig. 2.
pub struct TaskQueue {
    kind: SchedulerKind,
    parts: Vec<Mutex<VecDeque<Task>>>,
    worker_node: Vec<NodeId>,
    /// Worker ids grouped per node, for same-node stealing order.
    node_workers: Vec<Vec<usize>>,
    stats: AtomicStats,
}

impl TaskQueue {
    /// Build an empty queue with one partition per worker in `placement`.
    pub fn new(kind: SchedulerKind, placement: &Placement) -> Self {
        let nthreads = placement.nthreads();
        let worker_node: Vec<NodeId> = (0..nthreads).map(|t| placement.node_of_thread(t)).collect();
        let mut node_workers = vec![Vec::new(); placement.nnodes()];
        for (w, n) in worker_node.iter().enumerate() {
            node_workers[n.0].push(w);
        }
        Self {
            kind,
            parts: (0..nthreads).map(|_| Mutex::new(VecDeque::new())).collect(),
            worker_node,
            node_workers,
            stats: AtomicStats::default(),
        }
    }

    /// The policy this queue applies.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Number of partitions (== workers).
    pub fn nworkers(&self) -> usize {
        self.parts.len()
    }

    /// Enqueue every task of the [`task_grid`] into its owning worker's
    /// partition.
    pub fn refill(&self, placement: &Placement, task_size: usize) {
        assert_eq!(placement.nthreads(), self.parts.len());
        debug_assert!(self.is_drained(), "refill on non-empty queue");
        for (w, task) in task_grid(placement, task_size) {
            self.parts[w].lock().push_back(task);
        }
    }

    /// Enqueue explicit tasks into a worker's partition (tests, custom
    /// decompositions).
    pub fn push(&self, worker: usize, task: Task) {
        self.parts[worker].lock().push_back(task);
    }

    /// Fetch the next task for `worker` under the queue's policy.
    /// Returns `None` when the iteration's work is exhausted (for this
    /// worker, under `Static`).
    pub fn next(&self, worker: usize) -> Option<Task> {
        // 1. Own partition — all policies.
        if let Some(t) = self.parts[worker].lock().pop_front() {
            self.stats.own.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        match self.kind {
            SchedulerKind::Static => None,
            SchedulerKind::Fifo => self.next_fifo(worker),
            SchedulerKind::NumaAware => self.next_numa(worker),
        }
    }

    fn next_fifo(&self, worker: usize) -> Option<Task> {
        for (p, part) in self.parts.iter().enumerate() {
            if p == worker {
                continue;
            }
            if let Some(t) = part.lock().pop_front() {
                if t.home == self.worker_node[worker] {
                    self.stats.node_steals.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.remote_steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(t);
            }
        }
        None
    }

    fn next_numa(&self, worker: usize) -> Option<Task> {
        let my_node = self.worker_node[worker];
        // 2. Same-node partitions: these hold local-home tasks.
        for &w in &self.node_workers[my_node.0] {
            if w == worker {
                continue;
            }
            if let Some(t) = self.parts[w].lock().pop_front() {
                self.stats.node_steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        // 3. One full cycle hunting for high-priority (local-home) tasks
        //    that migrated into remote partitions.
        for (p, part) in self.parts.iter().enumerate() {
            if p == worker {
                continue;
            }
            let mut guard = part.lock();
            if let Some(pos) = guard.iter().position(|t| t.home == my_node) {
                let t = guard.remove(pos).expect("position just found");
                self.stats.priority_hits.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        // 4. Settle for any task to avoid starvation.
        for (p, part) in self.parts.iter().enumerate() {
            if p == worker {
                continue;
            }
            if let Some(t) = part.lock().pop_front() {
                self.stats.remote_steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Snapshot dispatch statistics.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            own: self.stats.own.load(Ordering::Relaxed),
            node_steals: self.stats.node_steals.load(Ordering::Relaxed),
            priority_hits: self.stats.priority_hits.load(Ordering::Relaxed),
            remote_steals: self.stats.remote_steals.load(Ordering::Relaxed),
        }
    }

    /// Reset statistics (between iterations/benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.own.store(0, Ordering::Relaxed);
        self.stats.node_steals.store(0, Ordering::Relaxed);
        self.stats.priority_hits.store(0, Ordering::Relaxed);
        self.stats.remote_steals.store(0, Ordering::Relaxed);
    }

    /// True when every partition is empty.
    pub fn is_drained(&self) -> bool {
        self.parts.iter().all(|p| p.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_numa::Topology;

    fn placement(nrow: usize, threads: usize, nodes: usize) -> Placement {
        let topo = Topology::synthetic(nodes, (threads / nodes).max(1));
        Placement::new(&topo, nrow, threads)
    }

    fn drain_all(q: &TaskQueue, workers: usize) -> Vec<(usize, Task)> {
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            for w in 0..workers {
                if let Some(t) = q.next(w) {
                    out.push((w, t));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }

    fn assert_exact_cover(tasks: &[(usize, Task)], nrow: usize) {
        let mut seen = vec![false; nrow];
        for (_, t) in tasks {
            for r in t.rows.clone() {
                assert!(!seen[r], "row {r} dispensed twice");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some rows never dispensed");
    }

    #[test]
    fn refill_covers_rows_exactly_once_all_kinds() {
        for kind in [SchedulerKind::NumaAware, SchedulerKind::Fifo, SchedulerKind::Static] {
            let p = placement(10_007, 8, 4);
            let q = TaskQueue::new(kind, &p);
            q.refill(&p, 100);
            let tasks = drain_all(&q, 8);
            assert_exact_cover(&tasks, 10_007);
            assert!(q.is_drained());
        }
    }

    #[test]
    fn the_grid_is_dense_refilled_once_each_and_covers_its_rows() {
        // (rows, threads, nodes, task_size): n < threads, task_size > n,
        // n not a multiple of task_size, and an even split.
        let shapes = [(3, 8, 2, 4), (50, 2, 1, 64), (10_007, 8, 4, 100), (4096, 4, 2, 256)];
        for (nrow, threads, nodes, task_size) in shapes {
            let p = placement(nrow, threads, nodes);
            let grid: Vec<(usize, Task)> = task_grid(&p, task_size).collect();
            // Ids are dense, in yield order, and the tasks tile 0..nrow in
            // row order: chunk `i` of a per-task store is task `i`'s rows.
            let mut next_row = 0;
            for (i, (w, t)) in grid.iter().enumerate() {
                assert_eq!(t.id, i, "{nrow}x{threads}/{task_size}");
                assert_eq!(t.rows.start, next_row, "{nrow}x{threads}/{task_size}: task {i}");
                assert!(!t.is_empty() && t.len() <= task_size);
                assert!(p.range_of_thread(*w).start <= t.rows.start);
                assert!(t.rows.end <= p.range_of_thread(*w).end);
                assert_eq!(t.home, p.node_of_thread(*w));
                next_row = t.rows.end;
            }
            assert_eq!(next_row, nrow);
            for kind in [SchedulerKind::NumaAware, SchedulerKind::Fifo, SchedulerKind::Static] {
                let q = TaskQueue::new(kind, &p);
                for _ in 0..2 {
                    q.refill(&p, task_size);
                    let mut ids: Vec<usize> =
                        drain_all(&q, threads).iter().map(|(_, t)| t.id).collect();
                    ids.sort_unstable();
                    assert_eq!(ids, (0..grid.len()).collect::<Vec<_>>(), "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn tasks_never_span_thread_blocks() {
        let p = placement(1000, 4, 2);
        let q = TaskQueue::new(SchedulerKind::NumaAware, &p);
        q.refill(&p, 99);
        for (_, t) in drain_all(&q, 4) {
            let owner = p.thread_of_row(t.rows.start);
            assert!(p.range_of_thread(owner).end >= t.rows.end);
            assert_eq!(t.home, p.node_of_thread(owner));
        }
    }

    #[test]
    fn static_never_steals() {
        let p = placement(1000, 4, 2);
        let q = TaskQueue::new(SchedulerKind::Static, &p);
        q.refill(&p, 10);
        // Worker 3 drains everything it can; then other workers' tasks remain.
        while q.next(3).is_some() {}
        assert!(!q.is_drained());
        let s = q.stats();
        assert_eq!(s.node_steals + s.remote_steals + s.priority_hits, 0);
    }

    #[test]
    fn numa_aware_prefers_same_node_steals() {
        // 4 workers on 2 nodes; only worker 1 (node 0) has tasks.
        let p = placement(400, 4, 2);
        let q = TaskQueue::new(SchedulerKind::NumaAware, &p);
        for i in 0..4usize {
            q.push(1, Task { id: i, rows: i * 100..(i + 1) * 100, home: NodeId(0) });
        }
        // Worker 0 shares node 0 with worker 1: same-node steal.
        assert!(q.next(0).is_some());
        assert_eq!(q.stats().node_steals, 1);
        // Worker 2 is on node 1: the remaining tasks are home=node0, so
        // worker 2 settles (remote steal).
        assert!(q.next(2).is_some());
        assert_eq!(q.stats().remote_steals, 1);
    }

    #[test]
    fn numa_aware_priority_pass_finds_local_home_in_remote_partition() {
        let p = placement(400, 4, 2);
        let q = TaskQueue::new(SchedulerKind::NumaAware, &p);
        // A node-1-homed task parked in worker 0's partition (node 0), behind
        // a node-0-homed task.
        q.push(0, Task { id: 0, rows: 0..10, home: NodeId(0) });
        q.push(0, Task { id: 1, rows: 10..20, home: NodeId(1) });
        // Worker 2 (node 1) must skip the node-0 task and take its own.
        let t = q.next(2).unwrap();
        assert_eq!(t.home, NodeId(1));
        assert_eq!(q.stats().priority_hits, 1);
    }

    #[test]
    fn fifo_steals_in_partition_order() {
        let p = placement(300, 3, 3);
        let q = TaskQueue::new(SchedulerKind::Fifo, &p);
        q.push(1, Task { id: 0, rows: 0..1, home: NodeId(1) });
        q.push(2, Task { id: 1, rows: 1..2, home: NodeId(2) });
        let t = q.next(0).unwrap();
        assert_eq!(t.rows, 0..1, "fifo takes the first non-empty partition");
    }

    #[test]
    fn stats_sum_to_dispensed() {
        let p = placement(5000, 4, 2);
        let q = TaskQueue::new(SchedulerKind::NumaAware, &p);
        q.refill(&p, 64);
        let tasks = drain_all(&q, 4);
        assert_eq!(q.stats().total(), tasks.len() as u64);
        q.reset_stats();
        assert_eq!(q.stats().total(), 0);
    }

    #[test]
    fn parallel_drain_is_exact() {
        let p = placement(100_000, 8, 4);
        let q = TaskQueue::new(SchedulerKind::NumaAware, &p);
        q.refill(&p, 1024);
        let counted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..8 {
                let q = &q;
                let counted = &counted;
                s.spawn(move || {
                    while let Some(t) = q.next(w) {
                        counted.fetch_add(t.len() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counted.load(Ordering::Relaxed), 100_000);
        assert!(q.is_drained());
    }
}

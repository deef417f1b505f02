//! The lazily-updated partitioned row cache (Fig. 3, §6.2.2).
//!
//! The row cache pins *active* rows — rows that issued an I/O request —
//! at row granularity, which beats a page cache because MTI leaves active
//! rows scattered sparsely across pages. It is partitioned (one partition
//! per worker-owned row range) so population involves no global lock. A
//! partition takes every row that misses while it has room, from
//! iteration 0 on, and a full one turns inserts away without looking at
//! them. It is *lazy*: the cache is flushed — and so refills with that
//! iteration's active rows — at iteration `I_cache`, then the interval
//! doubles (`I_cache`, `3·I_cache`, `7·I_cache`, … boundaries), trading
//! freshness for near-zero maintenance — justified because row activation
//! patterns stabilize as clusters root (Fig. 7 reproduces this).
//!
//! **The index is sorted by row.** A partition is a slab of row values,
//! written in arrival order, and an index of `(row, slot)` pairs. An insert
//! appends to both; [`RowCache::seal`] sorts the index entries appended
//! since the last seal into place — the row values never move. The SEM
//! plane seals in the coordinator window before every iteration, so a
//! compute phase only ever looks up a sealed index, and a task — whose rows
//! ascend — finds its hits in one forward merge walk over the index,
//! hashing nothing ([`RowCache::lookup`]). A lookup does not see rows
//! appended since the last seal; none is asked for, since a row is staged
//! once an iteration.
//!
//! **Hits are read in place.** A lookup records each hit's slot;
//! [`RowCache::pin`] then read-locks the partitions holding them, and
//! [`TaskHits::row`] borrows a hit's values from the slab. A worker pins
//! after its task's inserts and releases before it stages the next task,
//! so it never holds a guard on a partition it writes, and no guard lives
//! past its compute phase, so none outlives a flush or a seal.

use parking_lot::{RwLock, RwLockReadGuard};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The exponential refresh schedule: refresh at `base`, then after
/// `2·base` more iterations, then `4·base`, …
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshSchedule {
    base: usize,
    next: usize,
    interval: usize,
    /// When true, refresh every `base` iterations instead (the ablation
    /// mode for the Fig. 7 design justification).
    every: bool,
}

impl RefreshSchedule {
    /// Standard lazy schedule with update interval `base` (paper uses 5).
    pub fn lazy(base: usize) -> Self {
        assert!(base >= 1);
        Self { base, next: base, interval: base, every: false }
    }

    /// Ablation: refresh at every multiple of `base`.
    pub fn fixed(base: usize) -> Self {
        assert!(base >= 1);
        Self { base, next: base, interval: base, every: true }
    }

    /// Should iteration `iter` (0-based) refresh the cache? Advances the
    /// schedule when it returns true.
    pub fn should_refresh(&mut self, iter: usize) -> bool {
        if iter == self.next {
            if self.every {
                self.next += self.base;
            } else {
                self.interval *= 2;
                self.next += self.interval;
            }
            true
        } else {
            false
        }
    }
}

/// One partition: a slab of row values and the index into it. The slab
/// reserves the partition's budget on the first insert — address space,
/// not memory, until rows are written — so filling it never copies, and
/// both keep their capacity across flushes.
#[derive(Debug, Default)]
struct Part {
    /// `(row, slot)` of every resident row; slot `s` holds its values at
    /// `slab[s * d..][..d]`. `index[..sealed]` ascends by row; rows
    /// inserted since the last seal follow in arrival order.
    index: Vec<(u32, u32)>,
    sealed: usize,
    slab: Vec<f64>,
}

impl Part {
    /// Append `row` if fewer than `cap` rows are resident; `room` is what
    /// the partition can ever hold (its budget, or its rows if fewer).
    fn push(&mut self, row: u32, data: &[f64], cap: usize, room: usize) -> bool {
        let slot = self.index.len();
        if slot >= cap {
            return false;
        }
        if self.index.capacity() == 0 {
            self.index.reserve_exact(room);
            self.slab.reserve_exact(room * data.len());
        }
        self.index.push((row, slot as u32));
        self.slab.extend_from_slice(data);
        true
    }

    /// Sort the rows inserted since the last seal into the index; row
    /// values stay where they were written. The stable sort finds the
    /// sorted prefix and the new entries' ascending runs and merges them:
    /// about 1 ms for 100 k entries where an unstable sort took 5.
    fn seal(&mut self) {
        if !self.index.is_sorted() {
            self.index.sort();
        }
        self.sealed = self.index.len();
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.sealed = 0;
    }
}

/// A looked-up row that missed.
const MISS: u32 = u32::MAX;

/// One task's row-cache hits, readable where they lie: the slot of each
/// looked-up row that hit, and — once [`RowCache::pin`]ned — read guards
/// on the partitions holding them. Reused task after task; the next
/// lookup, or the drop, releases the guards.
#[derive(Debug, Default)]
pub struct TaskHits<'c> {
    /// Per looked-up row: `(partition, slot)` of a hit, `(MISS, 0)` of a miss.
    at: Vec<(u32, u32)>,
    /// Partitions `parts.start..parts.end` hold the task's hits.
    parts: Range<usize>,
    /// Read guards on `parts`, indexed by partition.
    guards: Vec<Option<RwLockReadGuard<'c, Part>>>,
    d: usize,
}

impl<'c> TaskHits<'c> {
    /// Drop the guards (before the next task is staged).
    fn release(&mut self) {
        self.guards.iter_mut().for_each(|g| *g = None);
    }

    /// The values of the `i`-th looked-up row, borrowed from the slab, if
    /// it hit. Needs the partitions pinned.
    #[inline]
    pub fn row(&self, i: usize) -> Option<&[f64]> {
        let (p, s) = self.at[i];
        if p == MISS {
            return None;
        }
        let part = self.guards[p as usize].as_ref().expect("hits are pinned before they are read");
        Some(&part.slab[s as usize * self.d..][..self.d])
    }

    /// Copy the hits among looked-up rows `at..at + len` into their row
    /// slots of `dst` (slot `i - at` for row `i`). Needs the partitions
    /// pinned.
    pub fn copy_into(&self, dst: &mut [f64], at: usize, len: usize) {
        let d = self.d;
        for (j, out) in dst.chunks_exact_mut(d).take(len).enumerate() {
            if let Some(v) = self.row(at + j) {
                out.copy_from_slice(v);
            }
        }
    }
}

/// A partitioned, budgeted cache of row data.
#[derive(Debug)]
pub struct RowCache {
    parts: Vec<RwLock<Part>>,
    d: usize,
    nrow: usize,
    /// Maximum rows held per partition (budget / row bytes / partitions).
    rows_per_part: usize,
    /// Maps a global row to its partition.
    rows_per_partition_range: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl RowCache {
    /// Build a cache of at most `budget_bytes` over `nparts` partitions for
    /// an `nrow x d` dataset. A zero budget produces an always-miss cache
    /// (the knors-- configuration).
    pub fn new(budget_bytes: u64, nrow: usize, d: usize, nparts: usize) -> Self {
        assert!(nparts >= 1);
        let row_bytes = (d * 8) as u64;
        let total_rows = budget_bytes.checked_div(row_bytes).unwrap_or(0) as usize;
        let rows_per_part = total_rows / nparts;
        Self {
            parts: (0..nparts).map(|_| RwLock::new(Part::default())).collect(),
            d,
            nrow,
            rows_per_part,
            rows_per_partition_range: nrow.div_ceil(nparts).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Row capacity per partition.
    pub fn rows_per_part(&self) -> usize {
        self.rows_per_part
    }

    /// The partition holding `row`, and the row ids it covers.
    fn part_span(&self, row: usize) -> (usize, Range<usize>) {
        let (last, range) = (self.parts.len() - 1, self.rows_per_partition_range);
        let p = (row / range).min(last);
        (p, p * range..if p == last { usize::MAX } else { (p + 1) * range })
    }

    /// The rows partition `p` can ever hold: its budget, or its rows if
    /// fewer — what its first insert reserves.
    fn room(&self, p: usize) -> usize {
        let range = self.rows_per_partition_range;
        let rows =
            if p == self.parts.len() - 1 { self.nrow.saturating_sub(p * range) } else { range };
        self.rows_per_part.min(rows)
    }

    /// Look up a task's rows (ascending): record in `hits` where each
    /// resident `rows[i]` lies, push every other `i` on `misses`, and
    /// return the hits. One forward merge walk over each partition's
    /// sealed index, under its read lock; one counter update per call.
    /// [`RowCache::pin`] makes the hits readable.
    pub fn lookup<'c>(
        &'c self,
        rows: &[usize],
        hits: &mut TaskHits<'c>,
        misses: &mut Vec<usize>,
    ) -> u64 {
        let before = misses.len();
        hits.release();
        hits.at.clear();
        hits.at.resize(rows.len(), (MISS, 0));
        hits.parts = 0..0;
        hits.d = self.d;
        // Under no budget every row misses and no partition is asked.
        let mut at = if self.rows_per_part == 0 { rows.len() } else { 0 };
        misses.extend(0..at);
        while at < rows.len() {
            let (p, span) = self.part_span(rows[at]);
            let end = at + rows[at..].iter().take_while(|r| span.contains(r)).count();
            let part = self.parts[p].read();
            let index = &part.index[..part.sealed];
            let mut s = index.partition_point(|&(id, _)| (id as usize) < rows[at]);
            let mut hit = false;
            for (i, (&r, loc)) in (at..end).zip(rows[at..end].iter().zip(&mut hits.at[at..end])) {
                while s < index.len() && (index[s].0 as usize) < r {
                    s += 1;
                }
                if let Some(&(_, slot)) = index.get(s).filter(|&&(id, _)| id as usize == r) {
                    *loc = (p as u32, slot);
                    hit = true;
                } else {
                    misses.push(i);
                }
            }
            if hit {
                hits.parts = if hits.parts.is_empty() { p..p + 1 } else { hits.parts.start..p + 1 };
            }
            at = end;
        }
        let missed = (misses.len() - before) as u64;
        self.misses.fetch_add(missed, Ordering::Relaxed);
        self.hits.fetch_add(rows.len() as u64 - missed, Ordering::Relaxed);
        rows.len() as u64 - missed
    }

    /// Read-lock the partitions holding `hits`' rows, in ascending order,
    /// until the next lookup into `hits`. Call it after the task's
    /// [`RowCache::insert_batch`]: a worker must not write a partition it
    /// holds.
    pub fn pin<'c>(&'c self, hits: &mut TaskHits<'c>) {
        if hits.guards.len() != self.parts.len() {
            hits.guards.resize_with(self.parts.len(), || None);
        }
        for p in hits.parts.clone() {
            hits.guards[p] = Some(self.parts[p].read());
        }
    }

    /// Retain `rows[i]`, whose values are row slot `i` of `data`, for every
    /// `i` of `idx` (a task's misses); a row is ignored once its partition
    /// is at budget. One lock per run of rows that share a partition, one
    /// counter update per call. A full partition is seen under its read
    /// lock only: a row that missed is not resident (one worker stages a
    /// row per iteration), so none of the run could land.
    pub fn insert_batch(&self, rows: &[usize], idx: &[usize], data: &[f64]) {
        let (d, cap, mut at, mut inserted) = (self.d, self.rows_per_part, 0, 0);
        while cap > 0 && at < idx.len() {
            let (p, span) = self.part_span(rows[idx[at]]);
            let end = at + idx[at..].iter().take_while(|&&i| span.contains(&rows[i])).count();
            if self.parts[p].read().index.len() < cap {
                let (mut part, room) = (self.parts[p].write(), self.room(p));
                let fits = |&&i: &&usize| part.push(rows[i] as u32, &data[i * d..][..d], cap, room);
                inserted += idx[at..end].iter().take_while(fits).count() as u64;
            }
            at = end;
        }
        self.inserts.fetch_add(inserted, Ordering::Relaxed);
    }

    /// Sort every partition's rows inserted since the last seal into its
    /// index, so [`RowCache::lookup`] finds them. Between compute phases
    /// only (the SEM plane's `pre_iteration`).
    pub fn seal(&self) {
        for p in &self.parts {
            let mut part = p.write();
            if part.sealed < part.index.len() {
                part.seal();
            }
        }
    }

    /// Flush all partitions (start of a refresh iteration), so they refill
    /// with that iteration's misses.
    pub fn flush(&self) {
        for p in &self.parts {
            p.write().clear();
        }
    }

    /// Rows currently resident.
    pub fn resident_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.read().index.len() as u64).sum()
    }

    /// (hits, misses, inserts) counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
        )
    }

    /// Reset hit/miss/insert counters (between iterations).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    impl RowCache {
        /// Look up a task's rows, copying each hit into its row slot of
        /// `dst` — lookup, pin and copy, as a block commit reads them.
        fn get_batch(&self, rows: &[usize], dst: &mut [f64], misses: &mut Vec<usize>) -> u64 {
            let mut hits = TaskHits::default();
            let n = self.lookup(rows, &mut hits, misses);
            self.pin(&mut hits);
            hits.copy_into(dst, 0, rows.len());
            n
        }

        /// Is `row` resident — sealed or not — and if so, its values in
        /// `out`. The per-row call [`RowCache::lookup`] replaced, kept as
        /// an oracle; unlike a lookup it also sees unsealed rows.
        fn get(&self, row: u32, out: &mut [f64]) -> bool {
            let part = self.parts[self.part_span(row as usize).0].read();
            let slot = part.index.iter().find(|&&(id, _)| id == row).map(|&(_, s)| s as usize);
            if let Some(s) = slot {
                out.copy_from_slice(&part.slab[s * out.len()..][..out.len()]);
            }
            let counter = if slot.is_some() { &self.hits } else { &self.misses };
            counter.fetch_add(1, Ordering::Relaxed);
            slot.is_some()
        }

        /// Insert one row; ignored once the owning partition is at
        /// budget. [`RowCache::insert_batch`]'s oracle.
        fn insert(&self, row: u32, data: &[f64]) {
            let p = self.part_span(row as usize).0;
            if self.parts[p].write().push(row, data, self.rows_per_part, self.room(p)) {
                self.inserts.fetch_add(1, Ordering::Relaxed);
            }
        }

        fn held(&self) -> Vec<u64> {
            self.parts.iter().map(|p| p.read().index.len() as u64).collect()
        }
    }

    /// The partition the sorted index replaced: a row id → slot hash map
    /// beside a slab filled in arrival order. Kept as the index's oracle.
    #[derive(Default)]
    struct HashPart {
        slots: HashMap<u32, u32>,
        slab: Vec<f64>,
    }

    /// The row cache over [`HashPart`]s: its lookups see every resident
    /// row, sealed or not.
    struct HashCache {
        parts: Vec<HashPart>,
        d: usize,
        cap: usize,
        range: usize,
        counters: (u64, u64, u64),
    }

    impl HashCache {
        fn new(budget_rows: usize, nrow: usize, d: usize, nparts: usize) -> Self {
            let parts = (0..nparts).map(|_| HashPart::default()).collect();
            let (cap, range) = (budget_rows / nparts, nrow.div_ceil(nparts).max(1));
            Self { parts, d, cap, range, counters: (0, 0, 0) }
        }

        fn part(&self, row: usize) -> usize {
            (row / self.range).min(self.parts.len() - 1)
        }

        /// `get_batch`'s contract: hits copied into `dst`, misses listed.
        fn get_batch(&mut self, rows: &[usize], dst: &mut [f64], misses: &mut Vec<usize>) {
            let d = self.d;
            for (i, &r) in rows.iter().enumerate() {
                let part = &self.parts[self.part(r)];
                match part.slots.get(&(r as u32)).filter(|_| self.cap > 0) {
                    Some(&s) => {
                        dst[i * d..][..d].copy_from_slice(&part.slab[s as usize * d..][..d]);
                        self.counters.0 += 1;
                    }
                    None => {
                        misses.push(i);
                        self.counters.1 += 1;
                    }
                }
            }
        }

        /// `insert_batch`'s contract: misses retained in order while their
        /// partition has room.
        fn insert_batch(&mut self, rows: &[usize], idx: &[usize], data: &[f64]) {
            let d = self.d;
            for &i in idx {
                let (p, cap) = (self.part(rows[i]), self.cap);
                let part = &mut self.parts[p];
                if part.slots.len() < cap {
                    part.slots.insert(rows[i] as u32, part.slots.len() as u32);
                    part.slab.extend_from_slice(&data[i * d..][..d]);
                    self.counters.2 += 1;
                }
            }
        }

        fn flush(&mut self) {
            for p in &mut self.parts {
                p.slots.clear();
                p.slab.clear();
            }
        }

        fn held(&self) -> Vec<u64> {
            self.parts.iter().map(|p| p.slots.len() as u64).collect()
        }
    }

    #[test]
    fn lazy_schedule_doubles() {
        let mut s = RefreshSchedule::lazy(5);
        let refreshes: Vec<usize> = (0..200).filter(|&i| s.should_refresh(i)).collect();
        // 5, then +10 -> 15, +20 -> 35, +40 -> 75, +80 -> 155.
        assert_eq!(refreshes, vec![5, 15, 35, 75, 155]);
    }

    #[test]
    fn fixed_schedule_is_periodic() {
        let mut s = RefreshSchedule::fixed(5);
        let refreshes: Vec<usize> = (0..26).filter(|&i| s.should_refresh(i)).collect();
        assert_eq!(refreshes, vec![5, 10, 15, 20, 25]);
    }

    #[test]
    fn get_insert_round_trip() {
        let c = RowCache::new(1 << 16, 1000, 4, 4);
        let mut out = vec![0.0; 4];
        assert!(!c.get(10, &mut out));
        c.insert(10, &[1.0, 2.0, 3.0, 4.0]);
        assert!(c.get(10, &mut out));
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
        let (h, m, i) = c.counters();
        assert_eq!((h, m, i), (1, 1, 1));
    }

    /// `get_batch`/`insert_batch` against the per-row calls on a twin
    /// cache: the same hits and misses, the same values copied, the same
    /// rows retained under each partition's budget, the same counters —
    /// for tasks inside one partition, straddling two, and under no budget.
    /// Each task is sealed before the next, as if it were an iteration of
    /// its own: a lookup sees the rows resident at the last seal.
    #[test]
    fn batch_calls_are_the_per_row_calls() {
        let (n, d) = (100usize, 3usize);
        let values = |r: usize| [r as f64, -(r as f64), 0.5];
        let tasks: [Vec<usize>; 5] = [
            (40..60).collect(), // straddles 50 (two partitions) and 33, 66 (three)
            (0..n).step_by(7).collect(),
            vec![99],
            (45..55).collect(),
            (0..n).collect(),
        ];
        for (budget_rows, nparts) in [(0usize, 2usize), (6, 2), (7, 3), (1000, 4), (5, 1)] {
            let open = || RowCache::new((budget_rows * d * 8) as u64, n, d, nparts);
            let (batch, single) = (open(), open());
            // Two passes: the second finds what the first retained.
            for task in tasks.iter().chain(&tasks) {
                let tag = format!("budget={budget_rows} parts={nparts} task={:?}..", task.first());
                // A staging area longer than the task, as a grow-only one is.
                let mut dst = vec![f64::NAN; (task.len() + 2) * d];
                let mut misses = Vec::new();
                let hits = batch.get_batch(task, &mut dst, &mut misses);
                let mut want_misses = Vec::new();
                let mut out = [0.0; 3];
                for (i, &r) in task.iter().enumerate() {
                    if single.get(r as u32, &mut out) {
                        assert_eq!(dst[i * d..(i + 1) * d], out, "{tag}: row {r}");
                        assert_eq!(out, values(r), "{tag}: row {r}");
                    } else {
                        want_misses.push(i);
                    }
                }
                assert_eq!(misses, want_misses, "{tag}");
                assert_eq!(hits as usize, task.len() - misses.len(), "{tag}");
                assert_eq!(batch.counters(), single.counters(), "{tag}");

                for &i in &misses {
                    dst[i * d..(i + 1) * d].copy_from_slice(&values(task[i]));
                    single.insert(task[i] as u32, &values(task[i]));
                }
                batch.insert_batch(task, &misses, &dst);
                batch.seal();
                assert_eq!(batch.counters(), single.counters(), "{tag}");
                assert_eq!(batch.held(), single.held(), "{tag}");
                assert!(batch.held().iter().all(|&rows| rows <= (budget_rows / nparts) as u64));
            }
            let resident = |c: &RowCache| -> Vec<bool> {
                (0..n as u32).map(|r| c.get(r, &mut [0.0; 3])).collect()
            };
            assert_eq!(resident(&batch), resident(&single));
            batch.flush();
            assert_eq!(batch.get_batch(&tasks[4], &mut vec![0.0; n * d], &mut Vec::new()), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sorted index against the hash map it replaced, over whole
        /// runs: 1–4 partitions, budgets from none to more than the rows,
        /// each iteration's active rows cut into ascending tasks that two
        /// workers stage in an interleaved, out-of-row-order sequence —
        /// looking up, inserting their misses, reading their hits copied
        /// or borrowed — then a seal or a flush and a refill. Hits,
        /// misses, values, counters and resident rows agree at every step.
        #[test]
        fn sorted_index_is_the_hash_map(seed in 0u64..1 << 40) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (n, d, nparts) = (rng.gen_range(1..300usize), rng.gen_range(1..5usize), rng.gen_range(1..5usize));
            let budget_rows = match rng.gen_range(0..4) {
                0 => 0,
                1 => rng.gen_range(0..=n),
                2 => n,
                _ => n + rng.gen_range(1..n + 8),
            };
            let value = |r: usize, j: usize| (r * 7 + j) as f64 + 0.25;
            let cache = RowCache::new((budget_rows * d * 8) as u64, n, d, nparts);
            let mut oracle = HashCache::new(budget_rows, n, d, nparts);
            for iter in 0..rng.gen_range(1..8) {
                // Flush as a refresh iteration does; seal otherwise.
                if iter > 0 && rng.gen_bool(0.25) {
                    cache.flush();
                    oracle.flush();
                } else {
                    cache.seal();
                }
                // This iteration's active rows, cut into ascending tasks.
                let active: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
                let mut tasks: Vec<Vec<usize>> = Vec::new();
                let mut rest = &active[..];
                while !rest.is_empty() {
                    let len = rng.gen_range(1..=rest.len().min(40));
                    tasks.push(rest[..len].to_vec());
                    rest = &rest[len..];
                }
                // Two workers, each with its own share in its own order,
                // interleaved step by step.
                for i in (1..tasks.len()).rev() {
                    tasks.swap(i, rng.gen_range(0..=i));
                }
                let split = rng.gen_range(0..=tasks.len());
                let (mut a, mut b) = (tasks[..split].to_vec(), tasks[split..].to_vec());
                while !(a.is_empty() && b.is_empty()) {
                    let from = if b.is_empty() || (!a.is_empty() && rng.gen_bool(0.5)) { &mut a } else { &mut b };
                    let task = from.pop().unwrap();
                    let tag = format!("seed={seed} iter={iter} task={:?}", task.first());

                    let mut want = vec![f64::NAN; task.len() * d];
                    let mut want_misses = Vec::new();
                    oracle.get_batch(&task, &mut want, &mut want_misses);

                    let mut hits = TaskHits::default();
                    let mut misses = Vec::new();
                    let got = cache.lookup(&task, &mut hits, &mut misses);
                    assert_eq!(&misses, &want_misses, "{}", tag);
                    assert_eq!(got as usize, task.len() - misses.len(), "{}", tag);

                    // The misses, fetched into their slots and retained.
                    let mut data = vec![f64::NAN; task.len() * d];
                    for &i in &misses {
                        for j in 0..d {
                            data[i * d + j] = value(task[i], j);
                        }
                    }
                    oracle.insert_batch(&task, &misses, &data);
                    cache.insert_batch(&task, &misses, &data);
                    cache.pin(&mut hits);
                    if rng.gen_bool(0.5) {
                        hits.copy_into(&mut data, 0, task.len());
                    } else {
                        for i in 0..task.len() {
                            if let Some(v) = hits.row(i) {
                                data[i * d..][..d].copy_from_slice(v);
                            }
                        }
                    }
                    hits.release();
                    for (i, &r) in task.iter().enumerate() {
                        for j in 0..d {
                            assert_eq!(data[i * d + j], value(r, j), "{} row {}", tag, r);
                        }
                        if !misses.contains(&i) {
                            assert_eq!(&data[i * d..][..d], &want[i * d..][..d], "{}", tag);
                        }
                    }
                    assert_eq!(cache.counters(), oracle.counters, "{}", tag);
                    assert_eq!(cache.held(), oracle.held(), "{}", tag);
                    assert_eq!(cache.resident_rows(), oracle.held().iter().sum::<u64>(), "{}", tag);
                }
            }
        }
    }

    #[test]
    fn seal_sorts_the_index_and_leaves_the_slab() {
        let c = RowCache::new(1 << 16, 100, 2, 1);
        let rows = [7usize, 3, 9, 1, 8, 2];
        let data: Vec<f64> = rows.iter().flat_map(|&r| [r as f64, -(r as f64)]).collect();
        c.insert_batch(&rows, &[0, 1, 2, 3, 4, 5], &data);
        c.seal();
        let part = c.parts[0].read();
        assert_eq!(part.index, [(1, 3), (2, 5), (3, 1), (7, 0), (8, 4), (9, 2)]);
        assert_eq!(part.slab, data);
    }

    #[test]
    fn a_lookup_sees_the_rows_resident_at_the_last_seal() {
        let c = RowCache::new(1 << 16, 100, 1, 2);
        c.insert_batch(&[4, 60], &[0, 1], &[4.0, 60.0]);
        let mut hits = TaskHits::default();
        let mut misses = Vec::new();
        assert_eq!(c.lookup(&[4, 60], &mut hits, &mut misses), 0);
        c.seal();
        misses.clear();
        assert_eq!(c.lookup(&[3, 4, 5, 60], &mut hits, &mut misses), 2);
        assert_eq!(misses, [0, 2]);
        c.pin(&mut hits);
        assert_eq!(
            (hits.row(1), hits.row(3), hits.row(0)),
            (Some(&[4.0][..]), Some(&[60.0][..]), None)
        );
    }

    #[test]
    fn the_first_insert_reserves_the_partition() {
        // 10 rows of budget per partition; the last partition has 9 rows.
        let c = RowCache::new(20 * 16, 19, 2, 2);
        c.insert_batch(&[0, 15], &[0, 1], &[0.0; 4]);
        let room = |p: usize| {
            let part = c.parts[p].read();
            (part.index.capacity(), part.slab.capacity())
        };
        assert_eq!(room(0), (10, 20));
        assert_eq!(room(1), (9, 18));
    }

    #[test]
    fn budget_enforced_per_partition() {
        // 4 rows total budget over 2 partitions -> 2 rows per partition.
        let c = RowCache::new(4 * 32, 100, 4, 2);
        assert_eq!(c.rows_per_part(), 2);
        for r in 0..10u32 {
            c.insert(r, &[0.0; 4]); // rows 0..50 -> partition 0
        }
        assert_eq!(c.resident_rows(), 2);
        // Partition 1 still has room.
        c.insert(60, &[0.0; 4]);
        assert_eq!(c.resident_rows(), 3);
    }

    #[test]
    fn insert_batch_on_a_full_partition_retains_nothing() {
        // 2 rows per partition; rows 0..50 are partition 0, 50.. partition 1.
        let c = RowCache::new(4 * 16, 100, 2, 2);
        let rows: Vec<usize> = (0..6).chain(60..62).collect();
        let data: Vec<f64> = rows.iter().flat_map(|&r| [r as f64, 1.0]).collect();
        c.insert_batch(&rows, &[0, 1], &data);
        assert_eq!(c.counters(), (0, 0, 2));
        c.reset_counters();
        // Partition 0 is full: its rows are turned away and counted
        // nowhere; a batch that also reaches partition 1 lands only there.
        c.insert_batch(&rows, &[2, 3, 4, 5], &data);
        assert_eq!((c.resident_rows(), c.counters()), (2, (0, 0, 0)));
        c.insert_batch(&rows, &[4, 5, 6, 7], &data);
        assert_eq!((c.resident_rows(), c.counters()), (4, (0, 0, 2)));
        let mut out = [0.0; 2];
        assert!(c.get(0, &mut out) && c.get(1, &mut out) && c.get(61, &mut out));
        assert!(!c.get(2, &mut out) && !c.get(5, &mut out));
    }

    #[test]
    fn zero_budget_never_caches() {
        let c = RowCache::new(0, 100, 4, 2);
        c.insert(1, &[0.0; 4]);
        let mut out = vec![0.0; 4];
        assert!(!c.get(1, &mut out));
        assert_eq!(c.resident_rows(), 0);
    }

    #[test]
    fn flush_empties() {
        let c = RowCache::new(1 << 16, 100, 2, 2);
        c.insert(1, &[1.0, 2.0]);
        c.insert(90, &[3.0, 4.0]);
        assert_eq!(c.resident_rows(), 2);
        c.flush();
        assert_eq!(c.resident_rows(), 0);
    }

    #[test]
    fn concurrent_reads_and_inserts() {
        let c = std::sync::Arc::new(RowCache::new(1 << 20, 10_000, 8, 8));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = c.clone();
                s.spawn(move || {
                    let mut out = vec![0.0; 8];
                    for i in 0..1000u32 {
                        let row = (t * 1000 + i) % 10_000;
                        c.insert(row, &[row as f64; 8]);
                        if c.get(row, &mut out) {
                            assert_eq!(out[0], row as f64);
                        }
                    }
                });
            }
        });
    }
}

//! The lazily-updated partitioned row cache (Fig. 3, §6.2.2).
//!
//! The row cache pins *active* rows — rows that issued an I/O request —
//! at row granularity, which beats a page cache because MTI leaves active
//! rows scattered sparsely across pages. It is partitioned (one partition
//! per worker-owned row range) so population involves no global lock. A
//! partition takes every row that misses while it has room, from
//! iteration 0 on, and a full one turns inserts away without hashing. It
//! is *lazy*: the cache is flushed — and so refills with that iteration's
//! active rows — at iteration `I_cache`, then the interval doubles
//! (`I_cache`, `3·I_cache`, `7·I_cache`, … boundaries), trading freshness
//! for near-zero maintenance — justified because row activation patterns
//! stabilize as clusters root (Fig. 7 reproduces this).

use parking_lot::RwLock;
use std::collections::HashMap;
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

/// One partition: a slab of row values and the index into it. Both start
/// empty and keep their capacity across flushes, so a cache that never
/// fills costs nothing and a refresh frees and allocates nothing per row.
#[derive(Debug, Default)]
struct Part {
    /// Row id → slot; slot `s` holds its `d` values at `slab[s * d..]`.
    slots: HashMap<u32, u32>,
    slab: Vec<f64>,
}

impl Part {
    fn get(&self, row: u32, out: &mut [f64]) -> bool {
        let Some(&s) = self.slots.get(&row) else { return false };
        out.copy_from_slice(&self.slab[s as usize * out.len()..][..out.len()]);
        true
    }

    /// Store `row` if it is resident already or fewer than `cap` rows are.
    fn insert(&mut self, row: u32, data: &[f64], cap: usize) -> bool {
        if let Some(&s) = self.slots.get(&row) {
            self.slab[s as usize * data.len()..][..data.len()].copy_from_slice(data);
        } else if self.slots.len() < cap {
            self.slots.insert(row, self.slots.len() as u32);
            self.slab.extend_from_slice(data);
        } else {
            return false;
        }
        true
    }
}

/// A partitioned, budgeted cache of row data.
#[derive(Debug)]
pub struct RowCache {
    parts: Vec<RwLock<Part>>,
    d: usize,
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

    /// Look up a row; copies into `out` on hit. The per-row call
    /// [`RowCache::get_batch`] replaced, kept as its oracle.
    #[cfg(test)]
    pub fn get(&self, row: u32, out: &mut [f64]) -> bool {
        let hit = self.rows_per_part > 0
            && self.parts[self.part_span(row as usize).0].read().get(row, out);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Look up a task's rows: a resident `rows[i]` is copied into row slot
    /// `i` of `dst`, any other `i` is pushed on `misses`. Returns the hits.
    /// One lock per run of rows that share a partition, one counter update
    /// per call; an empty partition answers without hashing.
    pub fn get_batch(&self, rows: &[usize], dst: &mut [f64], misses: &mut Vec<usize>) -> u64 {
        let (d, before) = (self.d, misses.len());
        // Under no budget every row misses and no partition is asked.
        let mut at = if self.rows_per_part == 0 { rows.len() } else { 0 };
        misses.extend(0..at);
        while at < rows.len() {
            let (p, span) = self.part_span(rows[at]);
            let end = at + rows[at..].iter().take_while(|r| span.contains(r)).count();
            let part = self.parts[p].read();
            if part.slots.is_empty() {
                misses.extend(at..end);
            } else {
                let miss = |i: &usize| !part.get(rows[*i] as u32, &mut dst[i * d..(i + 1) * d]);
                misses.extend((at..end).filter(miss));
            }
            at = end;
        }
        let missed = (misses.len() - before) as u64;
        self.misses.fetch_add(missed, Ordering::Relaxed);
        self.hits.fetch_add(rows.len() as u64 - missed, Ordering::Relaxed);
        rows.len() as u64 - missed
    }

    /// Insert a row; ignored once the owning partition is at budget.
    /// [`RowCache::insert_batch`]'s oracle.
    #[cfg(test)]
    pub fn insert(&self, row: u32, data: &[f64]) {
        let mut part = self.parts[self.part_span(row as usize).0].write();
        if part.insert(row, data, self.rows_per_part) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retain `rows[i]`, whose values are row slot `i` of `data`, for every
    /// `i` of `idx` (a task's misses); a row is ignored once its partition
    /// is at budget. One lock per run of rows that share a partition, one
    /// counter update per call. A full partition is seen under its read
    /// lock and costs no hashing: a row that missed is not resident (one
    /// worker stages a row per iteration), so none of the run could land.
    pub fn insert_batch(&self, rows: &[usize], idx: &[usize], data: &[f64]) {
        let (d, cap, mut at, mut inserted) = (self.d, self.rows_per_part, 0, 0);
        while cap > 0 && at < idx.len() {
            let (p, span) = self.part_span(rows[idx[at]]);
            let end = at + idx[at..].iter().take_while(|&&i| span.contains(&rows[i])).count();
            if self.parts[p].read().slots.len() < cap {
                let mut part = self.parts[p].write();
                let fits = |&&i: &&usize| part.insert(rows[i] as u32, &data[i * d..][..d], cap);
                inserted += idx[at..end].iter().take_while(fits).count() as u64;
            }
            at = end;
        }
        self.inserts.fetch_add(inserted, Ordering::Relaxed);
    }

    /// Flush all partitions (start of a refresh iteration), so they refill
    /// with that iteration's misses.
    pub fn flush(&self) {
        for p in &self.parts {
            let mut part = p.write();
            part.slots.clear();
            part.slab.clear();
        }
    }

    /// Rows currently resident.
    pub fn resident_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.read().slots.len() as u64).sum()
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
                assert_eq!(batch.counters(), single.counters(), "{tag}");
                let held = |c: &RowCache| -> Vec<u64> {
                    c.parts.iter().map(|p| p.read().slots.len() as u64).collect()
                };
                assert_eq!(held(&batch), held(&single), "{tag}");
                assert!(held(&batch).iter().all(|&rows| rows <= (budget_rows / nparts) as u64));
            }
            let resident = |c: &RowCache| -> Vec<bool> {
                (0..n as u32).map(|r| c.get(r, &mut [0.0; 3])).collect()
            };
            assert_eq!(resident(&batch), resident(&single));
            batch.flush();
            assert_eq!(batch.get_batch(&tasks[4], &mut vec![0.0; n * d], &mut Vec::new()), 0);
        }
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

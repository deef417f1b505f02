//! Sharded clock page cache.
//!
//! SAFS pins frequently-touched pages in a page cache to cut device reads.
//! Ours is sharded by page id (shard = page % shards) so concurrent workers
//! rarely contend on one lock, and uses clock (second-chance) eviction —
//! cheap, scan-resistant enough for k-means' mostly-sequential access, and
//! entirely predictable for the I/O-accounting experiments.

use parking_lot::Mutex;

/// A fixed-capacity, sharded page cache.
#[derive(Debug)]
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    page_size: usize,
    capacity_pages: usize,
}

#[derive(Debug)]
struct Shard {
    /// Slot table: (page id, data, referenced bit). `u64::MAX` = empty.
    slots: Vec<(u64, Box<[u8]>, bool)>,
    /// page id -> slot index.
    map: std::collections::HashMap<u64, usize>,
    hand: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            map: std::collections::HashMap::with_capacity(capacity),
            hand: 0,
            capacity,
        }
    }

    fn get(&mut self, page: u64, out: &mut [u8]) -> bool {
        if let Some(&idx) = self.map.get(&page) {
            let (_, data, referenced) = &mut self.slots[idx];
            *referenced = true;
            out.copy_from_slice(data);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, page: u64, data: &[u8]) {
        if let Some(&idx) = self.map.get(&page) {
            self.slots[idx].1.copy_from_slice(data);
            self.slots[idx].2 = true;
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.map.insert(page, self.slots.len());
            self.slots.push((page, data.to_vec().into_boxed_slice(), false));
            return;
        }
        // Clock eviction: advance the hand, clearing reference bits, until a
        // cold slot is found.
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[idx].2 {
                self.slots[idx].2 = false;
            } else {
                let old = self.slots[idx].0;
                self.map.remove(&old);
                self.slots[idx].0 = page;
                self.slots[idx].1.copy_from_slice(data);
                self.slots[idx].2 = false;
                self.map.insert(page, idx);
                return;
            }
        }
    }

    fn contains(&self, page: u64) -> bool {
        self.map.contains_key(&page)
    }
}

impl PageCache {
    /// Build a cache of `capacity_bytes` total, split over `shards` shards.
    /// A budget under one page is no cache; any other holds at least one
    /// page per shard.
    pub fn new(capacity_bytes: u64, page_size: usize, shards: usize) -> Self {
        assert!(page_size > 0 && shards > 0);
        let capacity_pages = (capacity_bytes / page_size as u64) as usize;
        let per_shard = if capacity_pages == 0 { 0 } else { (capacity_pages / shards).max(1) };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            page_size,
            capacity_pages: per_shard * shards,
        }
    }

    /// Cache page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total page capacity after shard rounding.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    #[inline]
    fn shard_of(&self, page: u64) -> usize {
        (page % self.shards.len() as u64) as usize
    }

    /// Copy page `page` into `out` if cached. Returns hit/miss.
    pub fn get(&self, page: u64, out: &mut [u8]) -> bool {
        debug_assert_eq!(out.len(), self.page_size);
        self.shards[self.shard_of(page)].lock().get(page, out)
    }

    /// Insert (or refresh) a page.
    pub fn insert(&self, page: u64, data: &[u8]) {
        debug_assert_eq!(data.len(), self.page_size);
        self.shards[self.shard_of(page)].lock().insert(page, data);
    }

    /// Whether a page is currently resident (no reference-bit side effect
    /// beyond the shard lock).
    pub fn contains(&self, page: u64) -> bool {
        self.shards[self.shard_of(page)].lock().contains(page)
    }

    /// Resident page count across shards.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(v: u8, size: usize) -> Vec<u8> {
        vec![v; size]
    }

    #[test]
    fn read_your_writes() {
        let c = PageCache::new(16 * 64, 64, 2);
        c.insert(5, &page(7, 64));
        let mut out = vec![0u8; 64];
        assert!(c.get(5, &mut out));
        assert_eq!(out, page(7, 64));
        assert!(!c.get(6, &mut out));
    }

    #[test]
    fn capacity_enforced() {
        let c = PageCache::new(4 * 64, 64, 1);
        for p in 0..100u64 {
            c.insert(p, &page(p as u8, 64));
        }
        assert!(c.resident_pages() <= 4);
        // The most recent insert must still be resident.
        assert!(c.contains(99));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        for bytes in [0, 63] {
            let c = PageCache::new(bytes, 64, 4);
            assert_eq!(c.capacity_pages(), 0);
            for p in 0..16u64 {
                c.insert(p, &page(p as u8, 64));
            }
            assert_eq!(c.resident_pages(), 0);
            assert!(!c.get(3, &mut [0u8; 64]));
        }
    }

    #[test]
    fn clock_gives_second_chance() {
        let c = PageCache::new(2 * 64, 64, 1);
        c.insert(1, &page(1, 64));
        c.insert(2, &page(2, 64));
        let mut out = vec![0u8; 64];
        // Touch page 1 so it is referenced; inserting 3 should evict 2.
        assert!(c.get(1, &mut out));
        c.insert(3, &page(3, 64));
        assert!(c.contains(1), "referenced page survived");
        assert!(c.contains(3));
        assert!(!c.contains(2), "cold page evicted");
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = PageCache::new(4 * 64, 64, 1);
        c.insert(1, &page(1, 64));
        c.insert(1, &page(9, 64));
        let mut out = vec![0u8; 64];
        assert!(c.get(1, &mut out));
        assert_eq!(out[0], 9);
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = std::sync::Arc::new(PageCache::new(256 * 64, 64, 8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = c.clone();
                s.spawn(move || {
                    let mut out = vec![0u8; 64];
                    for i in 0..1000u64 {
                        let p = t * 1000 + i;
                        c.insert(p, &page((p % 251) as u8, 64));
                        if c.get(p, &mut out) {
                            assert_eq!(out[0], (p % 251) as u8);
                        }
                    }
                });
            }
        });
    }
}

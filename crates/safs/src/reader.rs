//! The SAFS-lite request path: rows → pages → cache probe → merged reads
//! → decode.
//!
//! A device byte is copied at most twice in user space, both times out of
//! the run buffer it was `pread` into: into the page cache, if the reader
//! has one, and — decoded — into the caller's row slot. A reader built
//! with no cache budget neither probes nor fills one, so a scan pays only
//! the decode. What a request needs in between lives in a
//! [`FetchScratch`] lent out of a small pool, so a steady-state request
//! never touches the heap.

use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::cache::PageCache;
use crate::stats::IoStats;
use crate::store::RowStore;

/// Maximum page gap bridged when merging requests into one `pread`
/// (SAFS merges "requests made for data located near one another").
pub const MERGE_GAP: u64 = 2;

/// One request's working set. Every buffer is grow-only and reset by the
/// request that takes it, so a scratch that met a failed read is as good
/// as a new one.
#[derive(Debug, Default)]
struct FetchScratch {
    /// Page bytes: the cache hits, a page each, then every merged run
    /// where it was read.
    arena: Vec<u8>,
    /// The request's pages, ascending, each once.
    pages: Vec<u64>,
    /// Those the cache served; the `i`-th lies at `arena[i * page_size..]`.
    hits: Vec<u64>,
    /// Those it missed.
    missing: Vec<u64>,
    /// The reads covering `missing` as `(first page, pages)`, ascending,
    /// and where each lies in `arena`.
    runs: Vec<(u64, usize)>,
    offs: Vec<usize>,
}

impl FetchScratch {
    /// Page `page`'s bytes and whatever follows them contiguously. The two
    /// sorted lists are the index; a run is asked first, since a hit page
    /// that a run bridged over was read again with it.
    fn bytes_from(&self, page: u64, ps: usize) -> &[u8] {
        if let Some(i) = self.runs.partition_point(|r| r.0 <= page).checked_sub(1) {
            let ((first, count), off) = (self.runs[i], self.offs[i]);
            if page < first + count as u64 {
                return &self.arena[off + (page - first) as usize * ps..off + count * ps];
            }
        }
        let i = self.hits.binary_search(&page).expect("page probed by this request");
        &self.arena[i * ps..(i + 1) * ps]
    }
}

/// `arena[at..at + len]`, growing the arena to hold it.
fn span(arena: &mut Vec<u8>, at: usize, len: usize) -> &mut [u8] {
    if arena.len() < at + len {
        arena.resize(at + len, 0);
    }
    &mut arena[at..at + len]
}

/// A shared, thread-safe reader combining a [`RowStore`], a [`PageCache`]
/// and [`IoStats`] accounting.
#[derive(Debug)]
pub struct SafsReader {
    store: RowStore,
    cache: PageCache,
    stats: Arc<IoStats>,
    /// Idle scratches; a request takes one (or starts an empty one) and
    /// hands it back, so the pool settles at the number of concurrent
    /// callers.
    pool: Mutex<Vec<FetchScratch>>,
}

impl SafsReader {
    /// Build a reader over `store` with a cache of `cache_bytes` (under a
    /// page: no cache).
    pub fn new(store: RowStore, cache_bytes: u64, shards: usize) -> Self {
        let page_size = store.page_size();
        Self {
            store,
            cache: PageCache::new(cache_bytes, page_size, shards),
            stats: Arc::new(IoStats::new()),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// The page cache (prefetchers insert into it directly).
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Bytes the idle request scratches hold — what the request path
    /// keeps resident besides the two caches.
    pub fn arena_bytes(&self) -> u64 {
        self.pool.lock().iter().map(|s| s.arena.len() as u64).sum()
    }

    /// Compute the deduplicated, sorted page list covering `rows`
    /// (rows must be sorted ascending for efficient merging; any order is
    /// accepted).
    pub fn pages_for_rows(&self, rows: &[usize]) -> Vec<u64> {
        self.pages_for_rows_offset(rows, 0)
    }

    /// [`SafsReader::pages_for_rows`] with a base added to every row id —
    /// for callers addressing a sub-range of the file by local ids (a
    /// knord rank's SEM plane).
    pub fn pages_for_rows_offset(&self, rows: &[usize], base: usize) -> Vec<u64> {
        let mut pages = Vec::with_capacity(rows.len() + 1);
        self.pages_into(rows, base, &mut pages);
        pages
    }

    fn pages_into(&self, rows: &[usize], base: usize, pages: &mut Vec<u64>) {
        pages.clear();
        for &r in rows {
            let (a, b) = self.store.pages_of_row(base + r);
            pages.extend(a..=b);
        }
        pages.sort_unstable();
        pages.dedup();
    }

    /// Merge a sorted page list into runs bridging gaps up to [`MERGE_GAP`].
    pub fn merge_runs(&self, pages: &[u64]) -> Vec<(u64, usize)> {
        let mut runs = Vec::new();
        self.merge_into(pages, &mut runs);
        runs
    }

    fn merge_into(&self, pages: &[u64], runs: &mut Vec<(u64, usize)>) {
        runs.clear();
        for &p in pages {
            match runs.last_mut() {
                Some((start, count)) if p <= *start + *count as u64 + MERGE_GAP => {
                    // Extend the run (including bridged gap pages).
                    *count = (p - *start + 1) as usize;
                }
                _ => runs.push((p, 1)),
            }
        }
    }

    /// Fetch `rows` (gathering each into `out`, `rows.len() * d` values),
    /// going through cache and merged device reads. Returns the number of
    /// device reads issued.
    pub fn fetch_rows(&self, rows: &[usize], out: &mut Vec<f64>) -> io::Result<usize> {
        out.resize(rows.len() * self.store.ncol(), 0.0);
        self.fetch(rows, |j| j, out)
    }

    /// Fetch `rows`, decoding `rows[j]` straight into row slot `slots[j]`
    /// of `dst` (`dst[slots[j] * d..][..d]`), going through cache and
    /// merged device reads. Returns the number of device reads issued. On
    /// an error nothing of the read that failed has entered the page
    /// cache, and `dst` holds nothing a caller may use.
    pub fn fetch_rows_into(
        &self,
        rows: &[usize],
        slots: &[usize],
        dst: &mut [f64],
    ) -> io::Result<usize> {
        assert_eq!(rows.len(), slots.len());
        self.fetch(rows, |j| slots[j], dst)
    }

    /// One timed request on a pooled scratch, which goes back to the pool
    /// whatever the outcome.
    fn fetch(
        &self,
        rows: &[usize],
        slot: impl Fn(usize) -> usize,
        dst: &mut [f64],
    ) -> io::Result<usize> {
        let t0 = Instant::now();
        let mut s = self.pool.lock().pop().unwrap_or_default();
        let reads = self.fetch_on(&mut s, rows, slot, dst);
        self.pool.lock().push(s);
        self.stats.fetch_calls.fetch_add(1, Relaxed);
        self.stats.fetch_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        reads
    }

    fn fetch_on(
        &self,
        s: &mut FetchScratch,
        rows: &[usize],
        slot: impl Fn(usize) -> usize,
        dst: &mut [f64],
    ) -> io::Result<usize> {
        let (d, ps) = (self.store.ncol(), self.store.page_size());
        self.stats.bytes_requested.fetch_add(rows.len() as u64 * self.store.row_bytes(), Relaxed);

        // 1. Which pages do we need, and which are missing from cache? A
        // hit is copied to the next free page of the arena. Without a
        // cache every page is missing and none is probed.
        self.pages_into(rows, 0, &mut s.pages);
        s.hits.clear();
        s.missing.clear();
        let cached = self.cache.capacity_pages() > 0;
        if cached {
            for &p in &s.pages {
                if self.cache.get(p, span(&mut s.arena, s.hits.len() * ps, ps)) {
                    s.hits.push(p);
                } else {
                    s.missing.push(p);
                }
            }
        } else {
            s.missing.extend_from_slice(&s.pages);
        }
        self.stats.page_hits.fetch_add(s.hits.len() as u64, Relaxed);
        self.stats.page_misses.fetch_add(s.missing.len() as u64, Relaxed);

        // 2. Merge missing pages into runs and read each where it stays.
        // Bridged gap pages may not be in `pages`; they are cached too.
        self.merge_into(&s.missing, &mut s.runs);
        self.stats.merged_runs.fetch_add(s.runs.len() as u64, Relaxed);
        s.offs.clear();
        let mut at = s.hits.len() * ps;
        for &(first, count) in &s.runs {
            let bytes = span(&mut s.arena, at, count * ps);
            self.store.read_page_run_into(first, bytes)?;
            self.stats.device_reads.fetch_add(1, Relaxed);
            self.stats.bytes_read_device.fetch_add(bytes.len() as u64, Relaxed);
            if cached {
                for (p, page) in (first..).zip(bytes.chunks_exact(ps)) {
                    self.cache.insert(p, page);
                }
            }
            s.offs.push(at);
            at += count * ps;
        }

        // 3. Decode rows from the arena into their slots.
        for (j, &r) in rows.iter().enumerate() {
            let row = &mut dst[slot(j) * d..][..d];
            self.store.decode_row(r, |p| s.bytes_from(p, ps), row);
        }
        Ok(s.runs.len())
    }

    /// Prefetch `pages` into the cache (used by [`crate::Prefetcher`]);
    /// already-resident pages are skipped.
    pub fn prefetch_pages(&self, pages: &[u64]) -> io::Result<()> {
        let ps = self.store.page_size();
        let missing: Vec<u64> =
            pages.iter().copied().filter(|&p| !self.cache.contains(p)).collect();
        for (first, count) in self.merge_runs(&missing) {
            let bytes = self.store.read_page_run(first, count)?;
            self.stats.device_reads.fetch_add(1, Relaxed);
            self.stats.bytes_read_device.fetch_add((count * ps) as u64, Relaxed);
            self.stats.prefetched_pages.fetch_add(count as u64, Relaxed);
            for i in 0..count {
                self.cache.insert(first + i as u64, &bytes[i * ps..(i + 1) * ps]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_matrix::io::write_matrix;
    use knor_matrix::DMatrix;
    use std::path::PathBuf;

    impl SafsReader {
        /// The request path this module replaced — an allocation per probed
        /// page and per run, a `HashMap` of page copies, rows assembled through
        /// a byte buffer — kept as the oracle [`SafsReader::fetch_rows_into`]
        /// is pinned to: same rows, same cache traffic, same counters.
        fn fetch_rows_oracle(&self, rows: &[usize], out: &mut Vec<f64>) -> io::Result<usize> {
            let d = self.store.ncol();
            let rb = self.store.row_bytes() as usize;
            out.clear();
            out.reserve(rows.len() * d);

            self.stats.bytes_requested.fetch_add(rows.len() as u64 * rb as u64, Relaxed);

            let pages = self.pages_for_rows(rows);
            let ps = self.store.page_size();
            let mut resident: std::collections::HashMap<u64, Vec<u8>> =
                std::collections::HashMap::with_capacity(pages.len());
            let mut missing: Vec<u64> = Vec::new();
            for &p in &pages {
                let mut buf = vec![0u8; ps];
                if self.cache.get(p, &mut buf) {
                    self.stats.page_hits.fetch_add(1, Relaxed);
                    resident.insert(p, buf);
                } else {
                    self.stats.page_misses.fetch_add(1, Relaxed);
                    missing.push(p);
                }
            }

            let runs = self.merge_runs(&missing);
            self.stats.merged_runs.fetch_add(runs.len() as u64, Relaxed);
            let mut device_reads = 0usize;
            for (first, count) in runs {
                let bytes = self.store.read_page_run(first, count)?;
                device_reads += 1;
                self.stats.device_reads.fetch_add(1, Relaxed);
                self.stats.bytes_read_device.fetch_add((count * ps) as u64, Relaxed);
                for i in 0..count {
                    let p = first + i as u64;
                    let page = &bytes[i * ps..(i + 1) * ps];
                    self.cache.insert(p, page);
                    resident.entry(p).or_insert_with(|| page.to_vec());
                }
            }

            let mut row_buf = vec![0u8; rb];
            for &r in rows {
                self.store.assemble_row(
                    r,
                    |p| resident.get(&p).map(|v| &v[..]).expect("page fetched above"),
                    &mut row_buf,
                );
                for c in row_buf.chunks_exact(8) {
                    out.push(f64::from_le_bytes(c.try_into().unwrap()));
                }
            }
            Ok(device_reads)
        }
    }

    fn reader(
        nrow: usize,
        ncol: usize,
        page: usize,
        cache_bytes: u64,
    ) -> (SafsReader, DMatrix, PathBuf) {
        let m = DMatrix::from_vec((0..nrow * ncol).map(|x| (x as f64).sin()).collect(), nrow, ncol);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "knor-safs-reader-{}-{nrow}x{ncol}-{page}-{cache_bytes}.knor",
            std::process::id()
        ));
        write_matrix(&p, &m).unwrap();
        let store = RowStore::open(&p, page).unwrap();
        (SafsReader::new(store, cache_bytes, 4), m, p)
    }

    #[test]
    fn fetch_returns_exact_rows() {
        let (r, m, p) = reader(300, 6, 256, 1 << 16);
        let rows = [0usize, 5, 17, 42, 299];
        let mut out = Vec::new();
        r.fetch_rows(&rows, &mut out).unwrap();
        assert_eq!(out.len(), rows.len() * 6);
        for (i, &row) in rows.iter().enumerate() {
            assert_eq!(&out[i * 6..(i + 1) * 6], m.row(row), "row {row}");
        }
        std::fs::remove_file(p).unwrap();
    }

    /// A matrix file of its own for one test.
    fn matrix_file(tag: &str, nrow: usize, ncol: usize) -> (DMatrix, PathBuf) {
        let m = DMatrix::from_vec((0..nrow * ncol).map(|x| (x as f64).cos()).collect(), nrow, ncol);
        let mut p = std::env::temp_dir();
        p.push(format!("knor-safs-reader-{tag}-{}-{nrow}x{ncol}.knor", std::process::id()));
        write_matrix(&p, &m).unwrap();
        (m, p)
    }

    /// The counters the oracle keeps too.
    fn counters(r: &SafsReader) -> crate::stats::IoSnapshot {
        crate::stats::IoSnapshot { fetch_calls: 0, fetch_ns: 0, ..r.stats().snapshot() }
    }

    /// `fetch_rows_into` against the request path it replaced, bit for bit:
    /// the rows, every counter, and which pages the cache ends up holding —
    /// request after request on one reader each, so a page inserted out of
    /// order or a hit probed differently shows in a later request's
    /// hit/miss split.
    #[test]
    fn fetch_rows_into_is_the_old_request_path() {
        let n = 97usize;
        let forgy: Vec<usize> = (0..24).map(|i| (i * 7919 + 13) % n).collect();
        let requests: [(&str, Vec<usize>); 6] = [
            ("sorted", (0..n).step_by(3).collect()),
            ("unsorted", forgy),
            ("duplicated", vec![5, 5, 9, 9, 5, 40, 41, 40]),
            ("short last page", (n - 3..n).collect()),
            ("one row", vec![n / 2]),
            ("sorted again", (1..n).step_by(2).collect()),
        ];
        for d in [1usize, 5, 32, 600] {
            let (m, path) = matrix_file("oracle", n, d);
            for page in [64usize, 256, 4096] {
                let npages = RowStore::open(&path, page).unwrap().npages();
                for cache_pages in [0, 2, npages] {
                    let open = || {
                        let store = RowStore::open(&path, page).unwrap();
                        SafsReader::new(
                            store,
                            cache_pages * page as u64,
                            if cache_pages > 2 { 4 } else { 1 },
                        )
                    };
                    let (new, old) = (open(), open());
                    let (mut dst, mut want) = (Vec::new(), Vec::new());
                    for (what, rows) in &requests {
                        let tag = format!("d={d} page={page} cache={cache_pages}p {what}");
                        // Slots in reverse, in a buffer with room to spare.
                        let slots: Vec<usize> = (0..rows.len()).rev().map(|s| s + 1).collect();
                        dst.clear();
                        dst.resize((rows.len() + 2) * d, f64::NAN);
                        let reads = new.fetch_rows_into(rows, &slots, &mut dst).unwrap();
                        assert_eq!(reads, old.fetch_rows_oracle(rows, &mut want).unwrap(), "{tag}");
                        for (j, (&r, &s)) in rows.iter().zip(&slots).enumerate() {
                            let got = &dst[s * d..(s + 1) * d];
                            assert_eq!(got, &want[j * d..(j + 1) * d], "{tag}: row {r}");
                            assert_eq!(got, m.row(r), "{tag}: row {r}");
                        }
                        assert!(dst[..d]
                            .iter()
                            .chain(&dst[(rows.len() + 1) * d..])
                            .all(|x| x.is_nan()));
                        assert_eq!(counters(&new), counters(&old), "{tag}");
                        for p in 0..npages {
                            assert_eq!(new.cache.contains(p), old.cache.contains(p), "{tag}: {p}");
                        }
                        // The kept wrapper is the same path, slots in order.
                        let mut again = Vec::new();
                        open().fetch_rows(rows, &mut again).unwrap();
                        assert_eq!(again, want, "{tag}");
                    }
                    assert_eq!(new.stats().snapshot().fetch_calls, requests.len() as u64);
                }
            }
            std::fs::remove_file(path).unwrap();
        }
    }

    /// A read that fails in the middle of a request leaves the page cache
    /// without any page of the failed run, and the scratch it used serves
    /// the next request.
    #[test]
    fn failed_run_caches_nothing_and_the_scratch_stays_usable() {
        let (m, path) = matrix_file("shrink", 400, 4);
        let r = SafsReader::new(RowStore::open(&path, 256).unwrap(), 1 << 20, 2);
        let full = std::fs::metadata(&path).unwrap().len();
        // Rows 0..8 are page 0; rows 300.. start on page 37, past the cut.
        let (head, tail): (Vec<usize>, Vec<usize>) = ((0..8).collect(), (300..340).collect());
        let both: Vec<usize> = head.iter().chain(&tail).copied().collect();
        let mut out = Vec::new();

        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(full / 2).unwrap();
        let err = r.fetch_rows(&both, &mut out).expect_err("the second run lies past the cut");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let s = r.stats().snapshot();
        assert_eq!((s.merged_runs, s.device_reads), (2, 1), "one run read, one failed");
        assert!(r.cache.contains(0), "the run that was read is cached");
        let (first, last) = (r.store.pages_of_row(300).0, r.store.pages_of_row(339).1);
        assert!((first..=last).all(|p| !r.cache.contains(p)), "nothing of the failed run is");

        // The same scratch, on the same reader: rows before the cut still
        // come back right, rows past it still fail, and once the file is
        // whole again so do those.
        r.fetch_rows(&head, &mut out).unwrap();
        assert_eq!(out, m.as_slice()[..8 * 4]);
        assert!(r.fetch_rows(&tail, &mut out).is_err());
        write_matrix(&path, &m).unwrap();
        r.fetch_rows(&both, &mut out).unwrap();
        assert_eq!(out[8 * 4..], m.as_slice()[300 * 4..340 * 4]);
        assert_eq!(r.pool.lock().len(), 1, "one caller, one scratch, through two failures");
        assert!(r.arena_bytes() > 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn second_fetch_is_all_cache_hits() {
        let (r, _, p) = reader(200, 4, 256, 1 << 20);
        let rows: Vec<usize> = (0..50).collect();
        let mut out = Vec::new();
        r.fetch_rows(&rows, &mut out).unwrap();
        let after_first = r.stats().snapshot();
        assert!(after_first.page_misses > 0);
        r.fetch_rows(&rows, &mut out).unwrap();
        let after_second = r.stats().snapshot();
        let delta = after_second.delta_since(&after_first);
        assert_eq!(delta.page_misses, 0, "everything should be cached");
        assert_eq!(delta.bytes_read_device, 0);
        std::fs::remove_file(p).unwrap();
    }

    /// A reader with no cache budget reads every page it needs, every time:
    /// no hit, one miss per page read, nothing left resident.
    #[test]
    fn no_cache_reader_misses_every_page_it_reads() {
        let (r, m, p) = reader(200, 4, 256, 0);
        let rows: Vec<usize> = (10..90).collect();
        let pages = r.pages_for_rows(&rows).len() as u64;
        let mut out = Vec::new();
        for pass in 1..=2u64 {
            r.fetch_rows(&rows, &mut out).unwrap();
            assert_eq!(out, m.as_slice()[10 * 4..90 * 4]);
            let s = r.stats().snapshot();
            assert_eq!(s.page_hits, 0, "pass {pass}");
            assert_eq!(s.page_misses, pass * pages, "pass {pass}");
            assert_eq!(s.bytes_read_device, s.page_misses * 256, "pass {pass}");
        }
        assert_eq!(r.cache.resident_pages(), 0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn merging_bridges_small_gaps() {
        let (r, _, p) = reader(4000, 4, 256, 0);
        // Pages 0,1,3 with merge gap 2 -> a single run of length 4.
        let runs = r.merge_runs(&[0, 1, 3]);
        assert_eq!(runs, vec![(0, 4)]);
        // A distant page starts a new run.
        let runs = r.merge_runs(&[0, 1, 100]);
        assert_eq!(runs, vec![(0, 2), (100, 1)]);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn read_amplification_visible_for_sparse_requests() {
        // 32-byte rows on 4KB pages: one row requested -> one page read.
        let (r, _, p) = reader(10_000, 4, 4096, 0);
        let mut out = Vec::new();
        r.fetch_rows(&[5000], &mut out).unwrap();
        let s = r.stats().snapshot();
        assert_eq!(s.bytes_requested, 32);
        assert!(s.bytes_read_device >= 4096);
        assert!(s.amplification() > 100.0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn prefetch_populates_cache() {
        let (r, _, p) = reader(1000, 8, 512, 1 << 20);
        let rows: Vec<usize> = (100..200).collect();
        let pages = r.pages_for_rows(&rows);
        r.prefetch_pages(&pages).unwrap();
        let before = r.stats().snapshot();
        let mut out = Vec::new();
        r.fetch_rows(&rows, &mut out).unwrap();
        let delta = r.stats().snapshot().delta_since(&before);
        assert_eq!(delta.page_misses, 0, "prefetched fetch must not touch device");
        std::fs::remove_file(p).unwrap();
    }
}

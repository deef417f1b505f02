//! The semi-external-memory data plane.
//!
//! [`SemPlane`] packages the whole SEM row-access stack — a private
//! [`SafsReader`] (merged device reads, and a page cache only when there
//! is no row cache — see `cache_split`) over one byte range of an on-disk
//! matrix, the lazily-refreshed [`RowCache`], and per-iteration
//! [`IoIterStats`] accounting — as a `knor_core` [`DataPlane`] whose
//! staged [`RowSource`] is the plane itself. A row comes from the row
//! cache or, with the task's other misses, from one merged request. The
//! worker loop (filter, stage, task-row-order commit) is
//! `knor_core::plane::drain`; this module only supplies the tiers.
//!
//! Two engines mount it:
//!
//! * **knors** opens one plane over the whole file (`open_all`);
//! * **knord** opens one plane *per rank* over that rank's row range
//!   (`open_range`) — each rank gets its own file handle, page-cache and
//!   row-cache budget and I/O counters, which is exactly the paper's "run
//!   knors on every node" deployment (§3.3).

use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

use knor_core::algo::MmAlgorithm;
use knor_core::centroids::{Centroids, LocalAccum};
use knor_core::driver::{IterView, WorkerReport};
use knor_core::init::{forgy_rows, InitMethod};
use knor_core::plane::{drain, DataPlane, DrainScratch, RowSource};
pub use knor_core::spec::SemPlaneConfig;
use knor_core::stats::{InitStats, IterStats, SettleStats};
use knor_core::trace::{Phase, WorkerTracer};
use knor_matrix::DMatrix;
use knor_safs::stats::{IoSnapshot, IoStats};
use knor_safs::{RowStore, SafsReader, DEFAULT_PAGE_SIZE};

use crate::row_cache::{RefreshSchedule, RowCache, TaskHits};
use crate::IoIterStats;

/// The SEM data plane over one byte range of an on-disk matrix.
pub struct SemPlane {
    reader: Arc<SafsReader>,
    io_stats: Arc<IoStats>,
    row_cache: RowCache,
    /// Global (on-disk) row id of local row 0.
    base: usize,
    n_local: usize,
    d: usize,
    /// Whether the row cache was flushed to refresh this iteration (set by
    /// the coordinator in `pre_iteration`, reported in `end_iteration`).
    refresh_now: AtomicBool,
    /// Refresh schedule state (coordinator hooks only, so never contended).
    schedule: Mutex<RefreshSchedule>,
    /// Snapshot for per-iteration I/O deltas (coordinator hooks only).
    prev_io: Mutex<IoSnapshot>,
    /// Per-iteration I/O statistics, filled in `end_iteration`.
    ios: Mutex<Vec<IoIterStats>>,
}

impl SemPlane {
    /// Open a plane over the whole file (the knors deployment).
    pub fn open_all(path: &Path, cfg: &SemPlaneConfig, nthreads: usize) -> io::Result<Self> {
        Self::build(path, cfg, None, nthreads)
    }

    /// Open a plane over the row range `rows` (one knord rank's slice).
    /// The plane only ever reads that range's byte span of the file.
    pub fn open_range(
        path: &Path,
        cfg: &SemPlaneConfig,
        rows: Range<usize>,
        nthreads: usize,
    ) -> io::Result<Self> {
        Self::build(path, cfg, Some(rows), nthreads)
    }

    fn build(
        path: &Path,
        cfg: &SemPlaneConfig,
        rows: Option<Range<usize>>,
        nthreads: usize,
    ) -> io::Result<Self> {
        let nthreads = nthreads.max(1);
        let store = open_store(path, cfg.page_size)?;
        let rows = rows.unwrap_or(0..store.nrow());
        assert!(
            rows.start <= rows.end && rows.end <= store.nrow(),
            "row range {rows:?} exceeds file rows {}",
            store.nrow()
        );
        let d = store.ncol();
        let (page_bytes, row_bytes) = cache_split(cfg);
        let reader = Arc::new(SafsReader::new(store, page_bytes, nthreads.max(4)));
        let io_stats = reader.stats();
        let row_cache = RowCache::new(row_bytes, rows.len().max(1), d, nthreads);
        let schedule = if cfg.lazy_refresh {
            RefreshSchedule::lazy(cfg.cache_interval.max(1))
        } else {
            RefreshSchedule::fixed(cfg.cache_interval.max(1))
        };
        let prev = io_stats.snapshot();
        Ok(Self {
            reader,
            io_stats,
            row_cache,
            base: rows.start,
            n_local: rows.len(),
            d,
            refresh_now: AtomicBool::new(false),
            schedule: Mutex::new(schedule),
            prev_io: Mutex::new(prev),
            ios: Mutex::new(Vec::new()),
        })
    }

    /// Rows this plane serves (its slice of the file).
    pub fn nrow(&self) -> usize {
        self.n_local
    }

    /// Row dimensionality.
    pub fn ncol(&self) -> usize {
        self.d
    }

    /// The underlying reader (final-pass streaming, Forgy init reads).
    pub fn reader(&self) -> &SafsReader {
        &self.reader
    }

    /// Forgy initialization from the device: `k` distinct random rows of
    /// this plane's range, read through the reader.
    pub fn forgy_init(&self, k: usize, seed: u64) -> io::Result<Centroids> {
        forgy_read(&self.reader, self.base..self.base + self.n_local, k, seed)
            .map(|m| Centroids::from_matrix(&m))
    }

    /// Zero the I/O counters and re-baseline the per-iteration deltas
    /// (called after init reads, which are not iteration I/O).
    pub fn reset_io(&mut self) {
        self.io_stats.reset();
        *self.prev_io.get_mut().unwrap_or_else(PoisonError::into_inner) = self.io_stats.snapshot();
    }

    /// A worker's row source over this plane (what `compute` drains).
    pub fn source(&self) -> SemSource<'_> {
        SemSource { plane: self, hits: TaskHits::default() }
    }

    /// Hand back the run's per-iteration I/O record (Figs. 6a, 7), local
    /// to this plane.
    pub fn finish(&mut self) -> Vec<IoIterStats> {
        std::mem::take(self.ios.get_mut().unwrap_or_else(PoisonError::into_inner))
    }
}

/// One worker's staged row source for one compute phase: a fast tier (the
/// row cache) over a backing tier (SAFS: the device, behind a page cache
/// if the plane has one). Every worker drains through its own source over
/// the shared plane; the tiers synchronize internally.
pub struct SemSource<'p> {
    plane: &'p SemPlane,
    /// The staged task's row-cache hits, pinned from the end of `stage`
    /// until the next one (or the end of the compute phase).
    hits: TaskHits<'p>,
}

impl RowSource for SemSource<'_> {
    const STAGED: bool = true;

    fn d(&self) -> usize {
        self.plane.d
    }

    /// Fast-tier hits are found by one merge walk and stay where they lie;
    /// misses are fetched from the backing tier in one merged request that
    /// decodes each into its task-row-order slot, and retained in the fast
    /// tier while it has room. Then the hits' partitions are pinned.
    fn stage(
        &mut self,
        needed: &[usize],
        scratch: &mut DrainScratch,
        tracer: Option<&WorkerTracer<'_>>,
    ) -> io::Result<u64> {
        let (plane, d) = (self.plane, self.plane.d);
        scratch.miss_idx.clear();
        scratch.miss_rows.clear();
        if scratch.data.len() < needed.len() * d {
            scratch.data.resize(needed.len() * d, 0.0);
        }
        let t_hit = tracer.map(|t| t.now());
        let hits = plane.row_cache.lookup(needed, &mut self.hits, &mut scratch.miss_idx);
        if let (Some(t), Some(t0)) = (tracer, t_hit) {
            if hits > 0 {
                t.record(Phase::IoHit, t0, hits * (d as u64) * 8);
            }
        }
        if !scratch.miss_idx.is_empty() {
            scratch.miss_rows.extend(scratch.miss_idx.iter().map(|&i| plane.base + needed[i]));
            let t_miss = tracer.map(|t| t.now());
            plane.reader.fetch_rows_into(
                &scratch.miss_rows,
                &scratch.miss_idx,
                &mut scratch.data,
            )?;
            if let (Some(t), Some(t0)) = (tracer, t_miss) {
                t.record(Phase::IoMiss, t0, (scratch.miss_rows.len() * d * 8) as u64);
            }
            plane.row_cache.insert_batch(needed, &scratch.miss_idx, &scratch.data);
        }
        plane.row_cache.pin(&mut self.hits);
        Ok(hits)
    }

    /// A hit borrowed from the row cache's slab; a miss from its slot.
    #[inline]
    fn row<'a>(&'a mut self, staged: &'a [f64], i: usize, _r: usize) -> &'a [f64] {
        let d = self.plane.d;
        self.hits.row(i).unwrap_or(&staged[i * d..(i + 1) * d])
    }

    /// The block commits want the task contiguous: the hits are copied
    /// into their slots beside the misses.
    fn block<'a>(&'a mut self, data: &'a mut Vec<f64>, at: usize, ids: &[usize]) -> &'a [f64] {
        let d = self.plane.d;
        let block = &mut data[at * d..(at + ids.len()) * d];
        self.hits.copy_into(block, at, ids.len());
        block
    }
}

impl DataPlane for SemPlane {
    fn pre_iteration(&self, iter: usize) {
        let refresh =
            self.schedule.lock().unwrap_or_else(PoisonError::into_inner).should_refresh(iter);
        // No compute phase runs now: the one window where the cache's
        // contents may move.
        if refresh {
            self.row_cache.flush();
        } else {
            self.row_cache.seal();
        }
        self.refresh_now.store(refresh, Ordering::Release);
    }

    fn compute(
        &self,
        w: usize,
        view: &IterView<'_>,
        accum: &mut LocalAccum,
        scratch: &mut DrainScratch,
    ) -> io::Result<WorkerReport> {
        drain(&mut self.source(), w, view, accum, scratch)
    }

    fn end_iteration(&self, iter: usize, _stats: &IterStats, _aux_total: u64) {
        // The row-cache counters are this plane's local activity — under
        // knord the driver's `stats.rows_accessed` is already globalized
        // across ranks by the allreduce, so it must not be used here.
        let refreshing = self.refresh_now.load(Ordering::Acquire);
        let (rc_hits, rc_misses, _) = self.row_cache.counters();
        let io_now = self.io_stats.snapshot();
        let mut prev_io = self.prev_io.lock().unwrap_or_else(PoisonError::into_inner);
        let delta = io_now.delta_since(&prev_io);
        *prev_io = io_now;
        self.ios.lock().unwrap_or_else(PoisonError::into_inner).push(IoIterStats {
            iter,
            active_rows: rc_hits + rc_misses,
            rc_hits,
            rc_misses,
            bytes_requested: delta.bytes_requested,
            bytes_read: delta.bytes_read_device,
            page_hits: delta.page_hits,
            page_misses: delta.page_misses,
            fetch_calls: delta.fetch_calls,
            device_reads: delta.device_reads,
            fetch_ns: delta.fetch_ns,
            arena_bytes: self.reader.arena_bytes(),
            rc_resident_rows: self.row_cache.resident_rows(),
            rc_refreshed: refreshing,
        });
        self.row_cache.reset_counters();
    }
}

/// The SEM cache budget as `(page cache, row cache)` bytes. A scan gets
/// nothing from a page cache — each iteration asks for a row once, in file
/// order — so when there is a row cache the page cache's bytes go to it.
/// Without a row cache (the knors-/knors-- ablations) the page cache keeps
/// its budget.
fn cache_split(cfg: &SemPlaneConfig) -> (u64, u64) {
    if cfg.row_cache_bytes > 0 {
        (0, cfg.row_cache_bytes + cfg.page_cache_bytes)
    } else {
        (cfg.page_cache_bytes, cfg.row_cache_bytes)
    }
}

/// Forgy from the device: the `k` rows [`forgy_rows`] picks among `rows`
/// (the picks every engine makes for this seed), read through `reader`.
fn forgy_read(reader: &SafsReader, rows: Range<usize>, k: usize, seed: u64) -> io::Result<DMatrix> {
    let picks: Vec<usize> =
        forgy_rows(rows.len(), k, seed).iter().map(|r| rows.start + r).collect();
    let mut buf = Vec::new();
    reader.fetch_rows(&picks, &mut buf)?;
    Ok(DMatrix::from_vec(buf, k, reader.store().ncol()))
}

/// The initial centroids of a run that streams its `k x d` problem from a
/// file — `Given` means, or what `forgy` reads from the device — and what
/// seeding cost. The other methods need a pass over the data, which is
/// what such a run avoids.
pub fn streamed_init(
    init: &InitMethod,
    (k, d): (usize, usize),
    forgy: impl FnOnce() -> io::Result<Centroids>,
) -> io::Result<(Centroids, InitStats)> {
    let t0 = Instant::now();
    let c = match init {
        InitMethod::Given(m) => {
            assert_eq!((m.nrow(), m.ncol()), (k, d), "Given init has wrong shape");
            Centroids::from_matrix(m)
        }
        InitMethod::Forgy => forgy()?,
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{other:?} initialization needs the full matrix in memory; \
                 use Forgy or Given with a file-streaming run (or load the data)"
            ),
        ))?,
    };
    Ok((c, InitStats { secs: t0.elapsed().as_secs_f64(), dists: 0 }))
}

/// Open the row store of an on-disk matrix an engine is about to cluster,
/// rejecting a file shorter than its header declares. (`RowStore::open`
/// itself stays a page-level open that reports the missing tail per read.)
fn open_store(path: &Path, page_size: usize) -> io::Result<RowStore> {
    knor_matrix::io::check_len(path, &knor_matrix::io::read_header(path)?)?;
    RowStore::open(path, page_size)
}

/// Open a throwaway full-file reader for one-shot passes (knord's post-run
/// refresh/SSE over the whole matrix, Forgy picks). A page is read once
/// per pass, so the reader has no page cache.
pub fn open_reader(path: &Path) -> io::Result<SafsReader> {
    Ok(SafsReader::new(open_store(path, DEFAULT_PAGE_SIZE)?, 0, 1))
}

/// Forgy initialization straight from an on-disk matrix: `k` distinct
/// random rows read through a throwaway reader. Identical picks to every
/// engine's Forgy with the same seed — knord's file-based entry point uses
/// this so every plane starts from the same centroids.
pub fn forgy_from_file(path: &Path, k: usize, seed: u64) -> io::Result<DMatrix> {
    let reader = open_reader(path)?;
    forgy_read(&reader, 0..reader.store().nrow(), k, seed)
}

/// Rows per block of the streamed closing pass: a block is fetched at a
/// time, its rows split among the threads, and its SSE terms summed before
/// the next. The threads' fetch buffers together hold one block.
const SETTLE_BLOCK_ROWS: usize = 8192;

/// `rows` cut into `parts` consecutive ranges of about equal bytes, each
/// cut moved to the first row that starts at or after a page boundary: the
/// ranges read disjoint pages, but for one a row straddles.
fn page_split(
    store: &RowStore,
    rows: Range<usize>,
    parts: usize,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let (base, rb, ps) = (store.row_offset(0), store.row_bytes(), store.page_size() as u64);
    let (lo, hi) = (store.row_offset(rows.start), store.row_offset(rows.end));
    let cut = move |t: usize| {
        if t == parts {
            return rows.end;
        }
        let page = (lo + (hi - lo) * t as u64 / parts as u64) / ps * ps;
        (page.saturating_sub(base).div_ceil(rb) as usize).clamp(rows.start, rows.end)
    };
    (0..parts).map(move |t| cut(t)..cut(t + 1))
}

/// What follows the last iteration of a run whose rows are on the device
/// (`knor_core::spec::settle`, streamed): one pass over the reader's file
/// that re-maps every row under a subsampling algorithm and sums the SSE
/// when `want_sse` — or no pass at all when neither is wanted.
///
/// The pass runs on up to `threads` threads, started once: each block of
/// [`SETTLE_BLOCK_ROWS`] rows is cut by [`page_split`], thread `t` fetches
/// and maps the `t`-th range and writes its rows' SSE terms into one
/// buffer it reuses, and the calling thread adds the terms range by range,
/// in row order. So the SSE is the one-thread pass's bit for bit, at any
/// `threads`.
pub fn streamed_settle(
    reader: &SafsReader,
    algo: &dyn MmAlgorithm,
    centroids: &DMatrix,
    assignments: &mut [u32],
    want_sse: bool,
    threads: usize,
) -> io::Result<(Option<f64>, SettleStats)> {
    let t0 = Instant::now();
    let (n, d, refresh) = (reader.store().nrow(), reader.store().ncol(), algo.subsamples());
    let threads = threads.clamp(1, n.max(1));
    let read_before = reader.stats().snapshot().bytes_read_device;
    let stats = || SettleStats {
        secs: t0.elapsed().as_secs_f64(),
        threads,
        read_bytes: Some(reader.stats().snapshot().bytes_read_device - read_before),
    };
    if !(refresh || want_sse) {
        return Ok((None, stats()));
    }
    // Every thread's ranges, block by block, with the assignments they own.
    let mut shares: Vec<Vec<(Range<usize>, &mut [u32])>> =
        (0..threads).map(|_| Vec::new()).collect();
    let mut rest = assignments;
    for start in (0..n).step_by(SETTLE_BLOCK_ROWS) {
        let block = start..(start + SETTLE_BLOCK_ROWS).min(n);
        for (share, rows) in shares.iter_mut().zip(page_split(reader.store(), block, threads)) {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(rows.len());
            share.push((rows, mine));
            rest = tail;
        }
    }
    let cents = Centroids::from_matrix(centroids);
    // One range: fetch its rows, re-map them, and leave their SSE terms.
    let settle = |rows: Range<usize>,
                  assign: &mut [u32],
                  ids: &mut Vec<usize>,
                  buf: &mut Vec<f64>,
                  terms: &mut Vec<f64>| {
        ids.clear();
        ids.extend(rows);
        reader.fetch_rows(ids, buf)?;
        terms.clear();
        for (a, v) in assign.iter_mut().zip(buf.chunks_exact(d)) {
            if refresh {
                *a = algo.map(v, &cents).cluster;
            }
            if want_sse {
                terms.push(knor_core::distance::sqdist(v, centroids.row(*a as usize)));
            }
        }
        io::Result::Ok(())
    };
    let mut shares = shares.into_iter();
    let own = shares.next().expect("one thread at least");
    let total = std::thread::scope(|s| {
        // Each helper sends its filled terms and gets the buffer back.
        let helpers: Vec<_> = shares
            .map(|share| {
                let (done, done_rx) = mpsc::channel::<io::Result<Vec<f64>>>();
                let (back, back_rx) = mpsc::channel::<Vec<f64>>();
                s.spawn(move || {
                    let (mut ids, mut buf, mut terms) = (Vec::new(), Vec::new(), Vec::new());
                    for (rows, assign) in share {
                        let sent = settle(rows, assign, &mut ids, &mut buf, &mut terms);
                        if done.send(sent.map(|()| std::mem::take(&mut terms))).is_err() {
                            return;
                        }
                        match back_rx.recv() {
                            Ok(t) => terms = t,
                            Err(_) => return,
                        }
                    }
                });
                (done_rx, back)
            })
            .collect();
        let (mut ids, mut buf, mut terms) = (Vec::new(), Vec::new(), Vec::new());
        let mut total = 0.0;
        for (rows, assign) in own {
            settle(rows, assign, &mut ids, &mut buf, &mut terms)?;
            total = terms.iter().fold(total, |sum, &t| sum + t);
            for (done, back) in &helpers {
                // A helper that panicked hung up; the scope re-raises it.
                let theirs =
                    done.recv().map_err(|_| io::Error::other("settle thread stopped"))??;
                total = theirs.iter().fold(total, |sum, &t| sum + t);
                let _ = back.send(theirs);
            }
        }
        io::Result::Ok(total)
    })?;
    Ok((want_sse.then_some(total), stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_matrix::io::{write_matrix, TempFile};
    use knor_workloads::MixtureSpec;

    #[test]
    fn range_plane_reads_only_its_slice_rows() {
        let data = MixtureSpec::friendster_like(600, 4, 9).generate().data;
        let p = TempFile::new(format!("knor-sem-plane-range-{}.knor", std::process::id()));
        write_matrix(&p, &data).unwrap();

        let cfg = SemPlaneConfig::default().with_page_size(256);
        let plane = SemPlane::open_range(&p, &cfg, 200..400, 2).unwrap();
        assert_eq!(plane.nrow(), 200);
        let mut scratch = DrainScratch::default();
        let needed: Vec<usize> = (0..50).collect(); // local ids
        let hits = plane.source().stage(&needed, &mut scratch, None).unwrap();
        assert_eq!(hits, 0, "cold cache");
        for (i, &r) in needed.iter().enumerate() {
            assert_eq!(&scratch.data[i * 4..(i + 1) * 4], data.row(200 + r), "local row {r}");
        }
    }

    /// The threaded closing pass is the one-thread pass bit for bit — the
    /// SSE's bits and the assignments — at any thread count: for files
    /// around the block size, rows of 24 bytes that straddle 256-byte
    /// pages, and under mini-batch, whose refresh re-maps every row on the
    /// same threads. The one-thread SSE is the row-order sum over memory.
    #[test]
    fn threaded_streamed_settle_is_the_one_thread_pass() {
        use knor_core::algo::Algorithm;
        use knor_core::distance::sqdist;
        let d = 3;
        let p = TempFile::new(format!("knor-sem-plane-settle-{}.knor", std::process::id()));
        for n in [1usize, 8191, 8192, 8193, 2 * 8192 + 77] {
            let values = (0..n * d).map(|i| ((i * 7919) % 1009) as f64 / 13.0 - 30.0).collect();
            let data = DMatrix::from_vec(values, n, d);
            write_matrix(&p, &data).unwrap();
            let k = n.min(5);
            let cents = DMatrix::from_vec(data.as_slice()[..k * d].to_vec(), k, d);
            let start: Vec<u32> = (0..n as u32).map(|r| r % k as u32).collect();
            for algo in [Algorithm::Lloyd, Algorithm::MiniBatch { batch: 64 }] {
                let algo = algo.resolve(k, n, 1);
                let pass = |threads: usize| {
                    let reader = SafsReader::new(open_store(&p, 256).unwrap(), 0, 1);
                    let mut assignments = start.clone();
                    let (sse, stats) =
                        streamed_settle(&reader, &*algo, &cents, &mut assignments, true, threads)
                            .unwrap();
                    assert_eq!(stats.threads, threads.min(n), "n={n}");
                    assert!(stats.read_bytes.unwrap() >= (n * d * 8) as u64, "n={n}");
                    (sse.unwrap().to_bits(), assignments)
                };
                let one = pass(1);
                let by_row: f64 =
                    (0..n).map(|r| sqdist(data.row(r), cents.row(one.1[r] as usize))).sum();
                assert_eq!(one.0, by_row.to_bits(), "n={n} {}", algo.name());
                if !algo.subsamples() {
                    assert_eq!(one.1, start, "n={n}: Lloyd's pass keeps the assignments");
                }
                for threads in [2, 3, 8] {
                    assert_eq!(pass(threads), one, "n={n} threads={threads} {}", algo.name());
                }
            }
        }
    }

    #[test]
    fn forgy_from_file_matches_in_memory_rows() {
        let data = MixtureSpec::friendster_like(300, 5, 3).generate().data;
        let p = TempFile::new(format!("knor-sem-plane-forgy-{}.knor", std::process::id()));
        write_matrix(&p, &data).unwrap();
        let init = forgy_from_file(&p, 7, 11).unwrap();
        assert_eq!((init.nrow(), init.ncol()), (7, 5));
        // Every picked centroid is bitwise one of the dataset's rows.
        for c in init.rows() {
            assert!(data.rows().any(|r| r == c), "centroid not a data row");
        }
    }
}

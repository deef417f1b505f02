//! The semi-external-memory data plane.
//!
//! [`SemPlane`] packages the whole SEM row-access stack — a private
//! [`SafsReader`] (merged device reads, and a page cache only where the
//! cache budget is split — see `cache_split`) over one byte range of an
//! on-disk matrix, the lazily-refreshed [`RowCache`], an optional
//! background [`Prefetcher`], and per-iteration [`IoIterStats`]
//! accounting — as a `knor_core` [`DataPlane`] whose staged [`RowSource`]
//! is the plane itself. The worker loop (depth-2 filter/prefetch pipeline,
//! task-row-order commit) is `knor_core::plane::drain`; this module only
//! supplies the tiers.
//!
//! Two engines mount it:
//!
//! * **knors** opens one plane over the whole file (`open_all`);
//! * **knord** opens one plane *per rank* over that rank's row range
//!   (`open_range`) — each rank gets its own file handle, page-cache and
//!   row-cache budget, prefetch pool and I/O counters, which is exactly
//!   the paper's "run knors on every node" deployment (§3.3).

use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use knor_core::algo::MmAlgorithm;
use knor_core::centroids::{Centroids, LocalAccum};
use knor_core::driver::{IterView, WorkerReport};
use knor_core::init::{forgy_rows, InitMethod};
use knor_core::plane::{drain, DataPlane, DrainScratch, RowSource};
pub use knor_core::spec::SemPlaneConfig;
use knor_core::stats::{InitStats, IterStats};
use knor_core::sync::ExclusiveCell;
use knor_core::trace::{Phase, WorkerTracer};
use knor_matrix::DMatrix;
use knor_safs::stats::{IoSnapshot, IoStats};
use knor_safs::{Prefetcher, RowStore, SafsReader, DEFAULT_PAGE_SIZE};

use crate::row_cache::{RefreshSchedule, RowCache};
use crate::IoIterStats;

/// What a finished plane hands back: the per-iteration I/O record plus
/// the count of prefetch-pool threads found dead at shutdown.
#[derive(Debug, Clone, Default)]
pub struct SemPlaneReport {
    /// Per-iteration I/O statistics (Figs. 6a, 7), local to this plane.
    pub io: Vec<IoIterStats>,
    /// Prefetch-pool threads that had panicked by shutdown. Non-zero
    /// means some background fetches were lost and the run fell back to
    /// synchronous reads — slower, never incorrect.
    pub panicked_io_threads: u64,
}

/// The SEM data plane over one byte range of an on-disk matrix.
pub struct SemPlane {
    reader: Arc<SafsReader>,
    io_stats: Arc<IoStats>,
    row_cache: RowCache,
    prefetcher: Option<Prefetcher>,
    /// Global (on-disk) row id of local row 0.
    base: usize,
    n_local: usize,
    d: usize,
    /// Whether the row cache was flushed to refresh this iteration (set by
    /// the coordinator in `pre_iteration`, reported in `end_iteration`).
    refresh_now: AtomicBool,
    /// Coordinator-only refresh schedule state.
    schedule: ExclusiveCell<RefreshSchedule>,
    /// Coordinator-only snapshot for per-iteration I/O deltas.
    prev_io: ExclusiveCell<IoSnapshot>,
    /// Per-iteration I/O statistics, filled in `end_iteration`.
    ios: ExclusiveCell<Vec<IoIterStats>>,
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
        let prefetcher =
            cfg.prefetch.then(|| Prefetcher::spawn(Arc::clone(&reader), cfg.prefetch_threads));
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
            prefetcher,
            base: rows.start,
            n_local: rows.len(),
            d,
            refresh_now: AtomicBool::new(false),
            schedule: ExclusiveCell::new(schedule),
            prev_io: ExclusiveCell::new(prev),
            ios: ExclusiveCell::new(Vec::new()),
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
        // Safety: exclusive access through `&mut self`.
        *unsafe { self.prev_io.get_mut() } = self.io_stats.snapshot();
    }

    /// Make one prefetch-pool thread panic (tests only — exercises the
    /// panicked-thread surfacing without a real fault).
    #[doc(hidden)]
    pub fn inject_prefetch_panic_for_test(&self) {
        if let Some(pf) = &self.prefetcher {
            pf.inject_panic_for_test();
        }
    }

    /// Shut the plane down after a run: joins the prefetch pool (tallying
    /// any panicked threads) and hands back the I/O record.
    pub fn finish(&mut self) -> SemPlaneReport {
        drop(self.prefetcher.take()); // joins I/O threads
                                      // Safety: exclusive access through `&mut self`.
        let io = std::mem::take(unsafe { self.ios.get_mut() });
        SemPlaneReport { io, panicked_io_threads: self.io_stats.snapshot().panicked_io_threads }
    }
}

/// The staged row source: a fast tier (the row cache) over a backing tier
/// (SAFS: the device, behind a page cache if the plane has one). Every
/// worker drains through its own `&SemPlane`; the tiers synchronize
/// internally.
impl RowSource for &SemPlane {
    const STAGED: bool = true;

    fn d(&self) -> usize {
        self.d
    }

    fn prefetch(&mut self, needed: &[usize]) {
        let Some(pf) = &self.prefetcher else { return };
        pf.request(self.reader.pages_for_rows_offset(needed, self.base));
    }

    /// Fast-tier hits copy straight into their task-row-order slot; misses
    /// are fetched from the backing tier in one merged request that decodes
    /// each into its slot, and retained in the fast tier while it has room.
    fn stage(
        &mut self,
        needed: &[usize],
        scratch: &mut DrainScratch,
        tracer: Option<&WorkerTracer<'_>>,
    ) -> io::Result<u64> {
        let d = self.d;
        scratch.miss_idx.clear();
        scratch.miss_rows.clear();
        if scratch.data.len() < needed.len() * d {
            scratch.data.resize(needed.len() * d, 0.0);
        }
        let t_hit = tracer.map(|t| t.now());
        let hits = self.row_cache.get_batch(needed, &mut scratch.data, &mut scratch.miss_idx);
        if let (Some(t), Some(t0)) = (tracer, t_hit) {
            if hits > 0 {
                t.record(Phase::IoHit, t0, hits * (d as u64) * 8);
            }
        }
        if !scratch.miss_idx.is_empty() {
            scratch.miss_rows.extend(scratch.miss_idx.iter().map(|&i| self.base + needed[i]));
            let t_miss = tracer.map(|t| t.now());
            self.reader.fetch_rows_into(
                &scratch.miss_rows,
                &scratch.miss_idx,
                &mut scratch.data,
            )?;
            if let (Some(t), Some(t0)) = (tracer, t_miss) {
                t.record(Phase::IoMiss, t0, (scratch.miss_rows.len() * d * 8) as u64);
            }
            self.row_cache.insert_batch(needed, &scratch.miss_idx, &scratch.data);
        }
        Ok(hits)
    }
}

impl DataPlane for SemPlane {
    fn pre_iteration(&self, iter: usize) {
        // Safety: coordinator-only hook; other workers are between their
        // accumulator reset and barrier A and do not touch this cell.
        let refresh = unsafe { self.schedule.get_mut() }.should_refresh(iter);
        if refresh {
            self.row_cache.flush();
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
        drain(&mut &*self, w, view, accum, scratch)
    }

    fn end_iteration(&self, iter: usize, _stats: &IterStats, _aux_total: u64) {
        // The row-cache counters are this plane's local activity — under
        // knord the driver's `stats.rows_accessed` is already globalized
        // across ranks by the allreduce, so it must not be used here.
        let refreshing = self.refresh_now.load(Ordering::Acquire);
        let (rc_hits, rc_misses, _) = self.row_cache.counters();
        let io_now = self.io_stats.snapshot();
        // Safety: coordinator-only cells inside the exclusive window.
        let prev_io = unsafe { self.prev_io.get_mut() };
        let delta = io_now.delta_since(prev_io);
        *prev_io = io_now;
        unsafe { self.ios.get_mut() }.push(IoIterStats {
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
/// Two cases keep the split as configured: no row cache (the knors-/knors--
/// ablations), and prefetch on (the pool lands its pages in the page cache).
fn cache_split(cfg: &SemPlaneConfig) -> (u64, u64) {
    if cfg.row_cache_bytes > 0 && !cfg.prefetch {
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

/// Stream the reader's file once, in row order: `visit(first, values)`
/// sees each chunk's first row id and its rows' values.
fn stream_rows(reader: &SafsReader, mut visit: impl FnMut(usize, &[f64])) -> io::Result<()> {
    let (n, chunk) = (reader.store().nrow(), 8192usize);
    let (mut buf, mut rows) = (Vec::new(), Vec::with_capacity(chunk));
    for start in (0..n).step_by(chunk) {
        rows.clear();
        rows.extend(start..(start + chunk).min(n));
        reader.fetch_rows(&rows, &mut buf)?;
        visit(start, &buf);
    }
    Ok(())
}

/// What follows the last iteration of a run whose rows are on the device
/// (`knor_core::spec::settle`, streamed): one pass over the reader's file
/// that re-maps every row under a subsampling algorithm and sums the SSE
/// when `want_sse` — or no pass at all when neither is wanted.
pub fn streamed_settle(
    reader: &SafsReader,
    algo: &dyn MmAlgorithm,
    centroids: &DMatrix,
    assignments: &mut [u32],
    want_sse: bool,
) -> io::Result<Option<f64>> {
    let refresh = algo.subsamples();
    if !(refresh || want_sse) {
        return Ok(None);
    }
    let (d, cents) = (reader.store().ncol(), Centroids::from_matrix(centroids));
    let mut total = 0.0;
    stream_rows(reader, |start, buf| {
        for (a, v) in assignments[start..].iter_mut().zip(buf.chunks_exact(d)) {
            if refresh {
                *a = algo.map(v, &cents).cluster;
            }
            if want_sse {
                total += knor_core::distance::sqdist(v, centroids.row(*a as usize));
            }
        }
    })?;
    Ok(want_sse.then_some(total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_matrix::io::write_matrix;
    use knor_workloads::MixtureSpec;

    #[test]
    fn range_plane_reads_only_its_slice_rows() {
        let data = MixtureSpec::friendster_like(600, 4, 9).generate().data;
        let mut p = std::env::temp_dir();
        p.push(format!("knor-sem-plane-range-{}.knor", std::process::id()));
        write_matrix(&p, &data).unwrap();

        let cfg = SemPlaneConfig::default().with_page_size(256);
        let plane = SemPlane::open_range(&p, &cfg, 200..400, 2).unwrap();
        assert_eq!(plane.nrow(), 200);
        let mut scratch = DrainScratch::default();
        let needed: Vec<usize> = (0..50).collect(); // local ids
        let hits = (&plane).stage(&needed, &mut scratch, None).unwrap();
        assert_eq!(hits, 0, "cold cache");
        for (i, &r) in needed.iter().enumerate() {
            assert_eq!(&scratch.data[i * 4..(i + 1) * 4], data.row(200 + r), "local row {r}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn forgy_from_file_matches_in_memory_rows() {
        let data = MixtureSpec::friendster_like(300, 5, 3).generate().data;
        let mut p = std::env::temp_dir();
        p.push(format!("knor-sem-plane-forgy-{}.knor", std::process::id()));
        write_matrix(&p, &data).unwrap();
        let init = forgy_from_file(&p, 7, 11).unwrap();
        assert_eq!((init.nrow(), init.ncol()), (7, 5));
        // Every picked centroid is bitwise one of the dataset's rows.
        for c in init.rows() {
            assert!(data.rows().any(|r| r == c), "centroid not a data row");
        }
        std::fs::remove_file(&p).unwrap();
    }
}

//! `knor-sem` — knors, semi-external-memory k-means.
//!
//! SEM k-means holds `O(n)` state in memory (assignments + MTI upper
//! bounds) while the `O(nd)` row data stays on the device and streams in on
//! demand (§6). Three mechanisms keep the I/O small:
//!
//! 1. **MTI Clause 1** fires *before* the I/O request: a point whose upper
//!    bound proves its assignment stable is never read at all.
//! 2. **The partitioned row cache** (Fig. 3) pins *active* rows — rows that
//!    did request I/O — at row granularity, refreshed lazily at
//!    exponentially growing intervals (`I_cache`, then `2·I_cache` later,
//!    …), exploiting that the active set stabilizes as clusters root.
//! 3. **SAFS-lite** below merges the remaining requests. The cache budget
//!    is one budget: with a row cache, the page cache's bytes go to the row
//!    cache and a scan reads past no page cache.
//!
//! A worker stages one filtered task at a time: its row-cache hits, then
//! every miss in one merged request. The device here is a file the OS
//! page cache serves, so there is no device latency for an overlap of I/O
//! and compute to hide (DESIGN.md §3.2).
//!
//! ```no_run
//! use knor_sem::{SemConfig, SemKmeans};
//! let cfg = SemConfig::new(10).with_row_cache_bytes(512 << 20);
//! let result = SemKmeans::new(cfg).fit(std::path::Path::new("data.knor")).unwrap();
//! println!("iters: {}", result.kmeans.niters);
//! ```

pub mod engine;
pub mod plane;
pub mod row_cache;

pub use engine::{SemConfig, SemInit, SemKmeans, SemResult};
pub use plane::{SemPlane, SemPlaneConfig};
pub use row_cache::{RefreshSchedule, RowCache};

/// Per-iteration I/O statistics of a knors run (Figs. 6a, 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct IoIterStats {
    /// Iteration number.
    pub iter: usize,
    /// Rows that needed data this iteration (survived Clause 1).
    pub active_rows: u64,
    /// Active rows served by the row cache.
    pub rc_hits: u64,
    /// Active rows that went to SAFS (page cache or device).
    pub rc_misses: u64,
    /// Bytes of row data requested from SAFS this iteration.
    pub bytes_requested: u64,
    /// Bytes read from the device this iteration (page granularity).
    pub bytes_read: u64,
    /// Page-cache hits this iteration.
    pub page_hits: u64,
    /// Page-cache misses this iteration.
    pub page_misses: u64,
    /// Row requests the workers made of SAFS this iteration.
    pub fetch_calls: u64,
    /// `pread`s issued this iteration, after request merging.
    pub device_reads: u64,
    /// Thread-nanoseconds spent inside those requests — with `bytes_read`,
    /// the bandwidth one thread drew from the device.
    pub fetch_ns: u64,
    /// Bytes the reader's reusable request buffers hold at iteration end.
    pub arena_bytes: u64,
    /// Rows resident in the row cache at iteration end.
    pub rc_resident_rows: u64,
    /// Whether the row cache refreshed this iteration.
    pub rc_refreshed: bool,
}

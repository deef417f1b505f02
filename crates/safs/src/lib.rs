//! SAFS-lite: the userspace I/O substrate under knors.
//!
//! The paper builds knors on FlashGraph/SAFS, which provide (i) page-granular
//! asynchronous I/O against an SSD array, (ii) merging of nearby requests to
//! amortize access cost, and (iii) a page cache that pins hot pages. This
//! crate reimplements those mechanisms over a regular file:
//!
//! * [`RowStore`] — maps matrix rows to byte ranges of a knor-format file
//!   and reads page-aligned extents (`pread`, no global file lock).
//! * [`PageCache`] — sharded clock cache with byte-accurate hit/miss
//!   accounting.
//! * [`SafsReader`] — the request path: rows → pages → dedupe → merge runs
//!   (gap-limited) → cache-filtered reads → row assembly.
//! * [`IoStats`] — the counters behind Figs. 6a/6b: *bytes requested* by the
//!   algorithm vs *bytes read* from the device at page granularity.
//!
//! The device itself is the one substitution (DESIGN.md §3.2): a local file
//! stands in for the 24-SSD array. Every quantity the paper reports about
//! I/O volume is preserved exactly; only device latency is modeled, not
//! measured.

pub mod cache;
pub mod reader;
pub mod stats;
pub mod store;

pub use cache::PageCache;
pub use reader::SafsReader;
pub use stats::IoStats;
pub use store::RowStore;

/// Default page size (bytes): the 4KB minimum-read the paper settles on
/// (§6.2.1).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

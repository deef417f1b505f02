//! Byte-accurate I/O accounting (the quantities plotted in Figs. 6a/6b).

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe I/O counters for one SEM run.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Bytes of row data the algorithm asked for (row granularity).
    pub bytes_requested: AtomicU64,
    /// Bytes actually transferred from the device (page granularity).
    pub bytes_read_device: AtomicU64,
    /// `pread` calls issued after request merging.
    pub device_reads: AtomicU64,
    /// Pages served from the page cache.
    pub page_hits: AtomicU64,
    /// Pages that missed the page cache.
    pub page_misses: AtomicU64,
    /// Page runs produced by merging (before cache filtering).
    pub merged_runs: AtomicU64,
    /// Row requests served (`fetch_rows` / `fetch_rows_into` calls).
    pub fetch_calls: AtomicU64,
    /// Nanoseconds callers spent inside those requests, summed over
    /// threads — with `bytes_read_device`, the per-thread bandwidth.
    pub fetch_ns: AtomicU64,
}

impl IoStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot into a plain struct.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_requested: self.bytes_requested.load(Ordering::Relaxed),
            bytes_read_device: self.bytes_read_device.load(Ordering::Relaxed),
            device_reads: self.device_reads.load(Ordering::Relaxed),
            page_hits: self.page_hits.load(Ordering::Relaxed),
            page_misses: self.page_misses.load(Ordering::Relaxed),
            merged_runs: self.merged_runs.load(Ordering::Relaxed),
            fetch_calls: self.fetch_calls.load(Ordering::Relaxed),
            fetch_ns: self.fetch_ns.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters (between iterations).
    pub fn reset(&self) {
        self.bytes_requested.store(0, Ordering::Relaxed);
        self.bytes_read_device.store(0, Ordering::Relaxed);
        self.device_reads.store(0, Ordering::Relaxed);
        self.page_hits.store(0, Ordering::Relaxed);
        self.page_misses.store(0, Ordering::Relaxed);
        self.merged_runs.store(0, Ordering::Relaxed);
        self.fetch_calls.store(0, Ordering::Relaxed);
        self.fetch_ns.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Bytes of row data the algorithm asked for.
    pub bytes_requested: u64,
    /// Bytes transferred from the device.
    pub bytes_read_device: u64,
    /// Merged `pread` calls issued.
    pub device_reads: u64,
    /// Page-cache hits.
    pub page_hits: u64,
    /// Page-cache misses.
    pub page_misses: u64,
    /// Merged page runs.
    pub merged_runs: u64,
    /// Row requests served.
    pub fetch_calls: u64,
    /// Thread-nanoseconds spent inside row requests.
    pub fetch_ns: u64,
}

impl IoSnapshot {
    /// Read amplification: device bytes per requested byte.
    pub fn amplification(&self) -> f64 {
        if self.bytes_requested == 0 {
            return 0.0;
        }
        self.bytes_read_device as f64 / self.bytes_requested as f64
    }

    /// Subtract an earlier snapshot (per-iteration deltas).
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_requested: self.bytes_requested - earlier.bytes_requested,
            bytes_read_device: self.bytes_read_device - earlier.bytes_read_device,
            device_reads: self.device_reads - earlier.device_reads,
            page_hits: self.page_hits - earlier.page_hits,
            page_misses: self.page_misses - earlier.page_misses,
            merged_runs: self.merged_runs - earlier.merged_runs,
            fetch_calls: self.fetch_calls - earlier.fetch_calls,
            fetch_ns: self.fetch_ns - earlier.fetch_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = IoStats::new();
        s.bytes_requested.fetch_add(100, Ordering::Relaxed);
        s.bytes_read_device.fetch_add(400, Ordering::Relaxed);
        let a = s.snapshot();
        assert_eq!(a.amplification(), 4.0);
        s.bytes_requested.fetch_add(50, Ordering::Relaxed);
        let b = s.snapshot();
        assert_eq!(b.delta_since(&a).bytes_requested, 50);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }
}

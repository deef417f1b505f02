//! Per-model serving statistics: queries/s, batch sizes and latency
//! quantiles from a fixed-bucket histogram.
//!
//! Time never comes from a global clock: every measurement goes through an
//! injected [`Clock`], so tests drive a [`ManualClock`] and assert exact
//! quantiles — no wall-clock flake, no `SystemTime`/`Date.now` anywhere in
//! the test path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A monotonic nanosecond source. Injected so the serving layer is
/// deterministic under test.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: `Instant` anchored at construction.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Clock anchored at "now".
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-cranked clock for tests: time moves only when told to.
#[derive(Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// Clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

/// Number of latency buckets: power-of-two widths covering 1 ns up to
/// ~9 minutes (`2^39` ns); everything above saturates into the last bucket.
pub const BUCKETS: usize = 40;

/// A fixed-bucket log₂ latency histogram. Bucket `i` holds samples in
/// `[2^i, 2^{i+1})` ns (bucket 0 also takes 0). Quantiles report the
/// *upper edge* of the bucket the quantile falls in — a deterministic,
/// conservative estimate that needs no per-sample storage.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_ns: u64,
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self { counts: [0; BUCKETS], total: 0, sum_ns: 0 }
    }

    #[inline]
    fn bucket(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of recorded samples (saturating), ns — the Prometheus
    /// `_sum` series.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket counts (bucket `i` covers `[2^i, 2^{i+1})` ns).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Upper edge of bucket `i`, in ns — the Prometheus `le` label.
    pub fn bucket_edge_ns(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper edge of its bucket, in
    /// ns; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // Rank of the sample the quantile falls on (1-based, ceil).
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_edge_ns(i);
            }
        }
        1u64 << 63
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Names of the request-handling phases tracked per model, in
/// [`ServeStats::phase_ns`] order: model lookup + kernel resolution
/// (`enqueue`), chunk fan-out to the pool (`dispatch`), worker scan time
/// including queue wait (`kernel`), output collection (`reply`), and — on
/// the text protocol only, recorded by both front ends — turning the
/// request line's float tokens into rows (`parse`) and the answers into the
/// reply line (`format`).
pub const REQUEST_PHASES: [&str; 6] = ["enqueue", "dispatch", "kernel", "reply", "parse", "format"];

/// Thread-safe serving statistics for one model (all mutation under one
/// short-lived lock; queries also mirrored in an atomic for lock-free
/// listing).
pub struct ServeStats {
    queries_atomic: AtomicU64,
    /// Cumulative ns per request phase, [`REQUEST_PHASES`] order.
    phase_ns: [AtomicU64; REQUEST_PHASES.len()],
    /// Rows admitted by the mux front end but not yet answered (the
    /// backpressure gauge the admission check reads).
    pending_rows: AtomicU64,
    /// Requests rejected with `BUSY` because the pending budget was full.
    busy_rejections: AtomicU64,
    inner: Mutex<StatsInner>,
}

struct StatsInner {
    batches: u64,
    rows: u64,
    hist: LatencyHistogram,
    /// Coalesced kernel-batch sizes, in rows (same log₂ buckets; the
    /// "is the server manufacturing big batches?" histogram).
    coalesced: LatencyHistogram,
    /// End-to-end request latency under the mux front end (enqueue →
    /// reply formatted), including coalescer queue wait.
    req_hist: LatencyHistogram,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl ServeStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        Self {
            queries_atomic: AtomicU64::new(0),
            phase_ns: Default::default(),
            pending_rows: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            inner: Mutex::new(StatsInner {
                batches: 0,
                rows: 0,
                hist: LatencyHistogram::new(),
                coalesced: LatencyHistogram::new(),
                req_hist: LatencyHistogram::new(),
                first_ns: None,
                last_ns: 0,
            }),
        }
    }

    /// Record one answered batch of `rows` queries spanning
    /// `[start_ns, end_ns]` on the injected clock.
    pub fn record_batch(&self, rows: u64, start_ns: u64, end_ns: u64) {
        self.queries_atomic.fetch_add(rows, Ordering::Relaxed);
        let mut s = self.inner.lock().expect("serve stats poisoned");
        s.batches += 1;
        s.rows += rows;
        s.hist.record(end_ns.saturating_sub(start_ns));
        // Earliest start, not first-to-complete: concurrent batches may
        // record out of order.
        s.first_ns = Some(s.first_ns.map_or(start_ns, |f| f.min(start_ns)));
        s.last_ns = s.last_ns.max(end_ns);
    }

    /// Lock-free query count (for listings).
    pub fn queries(&self) -> u64 {
        self.queries_atomic.load(Ordering::Relaxed)
    }

    /// Add one request's per-phase ns ([`REQUEST_PHASES`] order). A layer
    /// passes 0 for the phases it does not time.
    pub fn record_phases(&self, ns: [u64; REQUEST_PHASES.len()]) {
        for (slot, v) in self.phase_ns.iter().zip(ns) {
            if v != 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Add text-protocol time: `parse_ns` spent parsing request floats,
    /// `format_ns` spent formatting replies.
    pub fn record_text_phases(&self, parse_ns: u64, format_ns: u64) {
        self.record_phases([0, 0, 0, 0, parse_ns, format_ns]);
    }

    /// Cumulative per-phase ns ([`REQUEST_PHASES`] order).
    pub fn phase_ns(&self) -> [u64; REQUEST_PHASES.len()] {
        std::array::from_fn(|i| self.phase_ns[i].load(Ordering::Relaxed))
    }

    /// A point-in-time copy of the latency histogram (the Prometheus
    /// cumulative-bucket export reads this).
    pub fn histogram(&self) -> LatencyHistogram {
        self.inner.lock().expect("serve stats poisoned").hist.clone()
    }

    /// Reserve `rows` against the pending budget (mux admission).
    pub fn add_pending(&self, rows: u64) {
        self.pending_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Release `rows` of pending budget (replies formatted or rejected at
    /// parse time).
    pub fn sub_pending(&self, rows: u64) {
        self.pending_rows.fetch_sub(rows, Ordering::Relaxed);
    }

    /// Rows admitted but not yet answered.
    pub fn pending_rows(&self) -> u64 {
        self.pending_rows.load(Ordering::Relaxed)
    }

    /// Count one fast-`BUSY` rejection.
    pub fn record_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests rejected with `BUSY` so far.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }

    /// Record the size (rows) of one coalesced kernel batch.
    pub fn record_coalesced(&self, rows: u64) {
        self.inner.lock().expect("serve stats poisoned").coalesced.record(rows);
    }

    /// Point-in-time copy of the coalesced-batch-size histogram (rows).
    pub fn coalesced_histogram(&self) -> LatencyHistogram {
        self.inner.lock().expect("serve stats poisoned").coalesced.clone()
    }

    /// Record one request's end-to-end latency under the mux front end
    /// (admission to reply, including coalescer queue wait), ns.
    pub fn record_request(&self, ns: u64) {
        self.inner.lock().expect("serve stats poisoned").req_hist.record(ns);
    }

    /// Point-in-time copy of the end-to-end request-latency histogram.
    pub fn request_histogram(&self) -> LatencyHistogram {
        self.inner.lock().expect("serve stats poisoned").req_hist.clone()
    }

    /// Consistent point-in-time snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let s = self.inner.lock().expect("serve stats poisoned");
        let elapsed_ns = match s.first_ns {
            Some(f) => s.last_ns.saturating_sub(f),
            None => 0,
        };
        StatsSnapshot {
            queries: s.rows,
            batches: s.batches,
            mean_batch: if s.batches > 0 { s.rows as f64 / s.batches as f64 } else { 0.0 },
            p50_ns: s.hist.quantile_ns(0.50),
            p99_ns: s.hist.quantile_ns(0.99),
            qps: if elapsed_ns > 0 { s.rows as f64 * 1e9 / elapsed_ns as f64 } else { 0.0 },
            elapsed_ns,
            pending: self.pending_rows(),
            busy: self.busy_rejections(),
            coalesced_batches: s.coalesced.total(),
            coalesced_mean: if s.coalesced.total() > 0 {
                s.coalesced.sum_ns() as f64 / s.coalesced.total() as f64
            } else {
                0.0
            },
            req_p50_ns: s.req_hist.quantile_ns(0.50),
            req_p99_ns: s.req_hist.quantile_ns(0.99),
        }
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of one model's serving stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Query rows answered.
    pub queries: u64,
    /// Batches answered.
    pub batches: u64,
    /// Mean rows per batch.
    pub mean_batch: f64,
    /// Median batch latency (bucket upper edge), ns.
    pub p50_ns: u64,
    /// 99th-percentile batch latency (bucket upper edge), ns.
    pub p99_ns: u64,
    /// Query rows per second over the active window (first batch start to
    /// last batch end on the injected clock).
    pub qps: f64,
    /// Active window length, ns.
    pub elapsed_ns: u64,
    /// Rows admitted by the mux front end but not yet answered.
    pub pending: u64,
    /// Requests rejected with `BUSY` (pending budget full).
    pub busy: u64,
    /// Coalesced kernel batches dispatched by the mux front end.
    pub coalesced_batches: u64,
    /// Mean rows per coalesced kernel batch (0 under the blocking front
    /// end, which never coalesces).
    pub coalesced_mean: f64,
    /// Median end-to-end request latency under the mux front end
    /// (includes coalescer queue wait; bucket upper edge), ns.
    pub req_p50_ns: u64,
    /// 99th-percentile end-to-end request latency, ns.
    pub req_p99_ns: u64,
}

impl StatsSnapshot {
    /// One-line wire/rendering form (`STATS` response payload).
    pub fn render(&self) -> String {
        format!(
            "queries={} batches={} mean_batch={:.1} p50_us={:.1} p99_us={:.1} qps={:.0} \
             pending={} busy={} coalesced_batches={} coalesced_mean={:.1} \
             req_p50_us={:.1} req_p99_us={:.1}",
            self.queries,
            self.batches,
            self.mean_batch,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.qps,
            self.pending,
            self.busy,
            self.coalesced_batches,
            self.coalesced_mean,
            self.req_p50_ns as f64 / 1e3,
            self.req_p99_ns as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        // 99 samples in [1024, 2048) and one huge outlier.
        for _ in 0..99 {
            h.record(1500);
        }
        h.record(1 << 20);
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile_ns(0.50), 2048, "p50 upper edge of the 1024-bucket");
        assert_eq!(h.quantile_ns(0.99), 2048, "p99 rank 99 still in the bulk");
        assert_eq!(h.quantile_ns(1.0), 1 << 21, "max catches the outlier");
        // Saturation: absurd latencies land in the final bucket.
        h.record(u64::MAX);
        assert_eq!(h.quantile_ns(1.0), 1 << 40);
    }

    #[test]
    fn stats_with_manual_clock_are_exact() {
        let clock = ManualClock::new();
        let stats = ServeStats::new();
        // Three batches: 64 rows in 1 µs, 64 in 1 µs, 1 in 100 µs.
        let t0 = clock.now_ns();
        clock.advance(1_000);
        stats.record_batch(64, t0, clock.now_ns());
        let t1 = clock.now_ns();
        clock.advance(1_000);
        stats.record_batch(64, t1, clock.now_ns());
        let t2 = clock.now_ns();
        clock.advance(100_000);
        stats.record_batch(1, t2, clock.now_ns());
        let s = stats.snapshot();
        assert_eq!(s.queries, 129);
        assert_eq!(s.batches, 3);
        assert_eq!(s.elapsed_ns, 102_000);
        assert_eq!(s.p50_ns, 1024, "1 µs bucket edge");
        assert_eq!(s.p99_ns, 131_072, "100 µs sample dominates the tail");
        let expect_qps = 129.0 * 1e9 / 102_000.0;
        assert!((s.qps - expect_qps).abs() < 1e-6);
        assert!(s.render().contains("queries=129"));
        assert_eq!(stats.queries(), 129);
    }

    #[test]
    fn histogram_quantile_edges() {
        // Empty: every quantile is 0, and the export accessors agree.
        let h = LatencyHistogram::new();
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0);
        }
        assert_eq!(h.sum_ns(), 0);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));

        // A single occupied bucket: every quantile lands on its upper
        // edge, including 0 (bucket 0 also takes it) and the bucket's
        // inclusive lower edge.
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.quantile_ns(0.5), 2, "0 lands in bucket 0, edge 2^1");
        let mut h = LatencyHistogram::new();
        h.record(1024); // exactly 2^10: bucket 10, edge 2^11
        for q in [0.01, 0.5, 1.0] {
            assert_eq!(h.quantile_ns(q), 2048);
        }
        assert_eq!(h.bucket_counts()[10], 1);
        assert_eq!(h.sum_ns(), 1024);

        // Max-bucket overflow: everything >= 2^39 saturates into bucket
        // 39 whose reported edge is 2^40, and the sum saturates instead
        // of wrapping.
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 2);
        assert_eq!(h.quantile_ns(0.5), 1 << 40);
        assert_eq!(h.quantile_ns(1.0), 1 << 40);
        assert_eq!(h.sum_ns(), u64::MAX, "sum must saturate, not wrap");
        assert_eq!(LatencyHistogram::bucket_edge_ns(BUCKETS - 1), 1 << 40);
    }

    #[test]
    fn phase_counters_accumulate() {
        let stats = ServeStats::new();
        assert_eq!(stats.phase_ns(), [0; 6]);
        stats.record_phases([1, 10, 100, 1000, 0, 0]);
        stats.record_phases([2, 20, 200, 2000, 0, 0]);
        stats.record_text_phases(5, 7);
        assert_eq!(stats.phase_ns(), [3, 30, 300, 3000, 5, 7]);
        // The first four keep their names and order: dashboards and the
        // benchmark look them up by label.
        assert_eq!(REQUEST_PHASES[..4], ["enqueue", "dispatch", "kernel", "reply"]);
    }

    #[test]
    fn qps_window_spans_earliest_start_under_out_of_order_batches() {
        // Client B (started later) completes first; the window must still
        // open at A's start.
        let stats = ServeStats::new();
        stats.record_batch(10, 5_000, 6_000); // B: start 5µs, end 6µs
        stats.record_batch(10, 0, 100_000); // A: start 0, end 100µs
        let s = stats.snapshot();
        assert_eq!(s.elapsed_ns, 100_000, "window must open at the earliest start");
    }

    #[test]
    fn mux_counters_pending_busy_coalesced() {
        let stats = ServeStats::new();
        let s = stats.snapshot();
        assert_eq!((s.pending, s.busy, s.coalesced_batches), (0, 0, 0));
        assert_eq!(s.coalesced_mean, 0.0);

        stats.add_pending(100);
        stats.add_pending(28);
        assert_eq!(stats.pending_rows(), 128);
        stats.sub_pending(28);
        stats.record_busy();
        stats.record_busy();
        stats.record_coalesced(512);
        stats.record_coalesced(1024);
        stats.record_request(3_000_000); // 3 ms end-to-end
        let s = stats.snapshot();
        assert_eq!(s.pending, 100);
        assert_eq!(s.busy, 2);
        assert_eq!(s.coalesced_batches, 2);
        assert_eq!(s.coalesced_mean, 768.0);
        assert_eq!(s.req_p50_ns, 1 << 22, "3 ms lands in the 4.19 ms-edge bucket");
        assert_eq!(s.req_p99_ns, s.req_p50_ns);
        let line = s.render();
        assert!(line.contains("pending=100 busy=2 coalesced_batches=2 coalesced_mean=768.0"));
        assert!(line.contains("req_p50_us="));
        assert_eq!(stats.coalesced_histogram().total(), 2);
        assert_eq!(stats.request_histogram().total(), 1);
    }

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}

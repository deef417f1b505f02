//! The unified tracing layer: a low-overhead, always-compiled-but-off-by-
//! default span recorder shared by every engine.
//!
//! The paper's whole argument is about *where time goes* — interconnect
//! reads, barrier waits, I/O stalls — so the recorder instruments the one
//! seam every engine shares: the driver's barrier protocol. A run that
//! wants tracing hands the engine an `Arc<`[`TraceBuf`]`>`; the driver
//! registers one [`TraceGroup`] per run (per rank under knord) and each
//! worker records [`Span`]s into its own pre-allocated ring. With no
//! buffer attached the hot path is a single `Option` branch and zero
//! allocation — the discipline `tests/alloc.rs` enforces.
//!
//! Design properties (DESIGN.md §13):
//!
//! * **Per-worker rings, uncontended.** Each ring is a `Mutex` that only
//!   its worker's recorder takes while the run is live, so a record is
//!   one uncontended lock and a push; readers ([`TraceBuf::spans`] and
//!   the folds) take the same locks, so reading a live buffer is safe,
//!   merely a snapshot. Rings are pre-allocated at registration;
//!   recording never allocates.
//! * **Drop-on-full.** A full ring drops new spans and counts them
//!   ([`PhaseBreakdown::dropped`]); it never blocks, reallocates or
//!   overwrites — a long run degrades to a truncated timeline, not a
//!   slow or corrupted one.
//! * **Measurement-only.** The recorder reads clocks and writes private
//!   rings; it feeds nothing back into iteration state, so trajectories
//!   are bitwise identical with tracing on or off (asserted by the
//!   cross-engine tests in `tests/trace.rs`).
//!
//! Spans fold into two outputs: a [`PhaseBreakdown`] (per-phase ns per
//! worker, straggler spread) surfaced on every result type, and a
//! chrome-trace JSON export ([`TraceBuf::chrome_trace_json`]) that opens
//! directly in a trace viewer — one track per worker.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default ring capacity, in spans per worker. The driver records ~10
/// spans per worker per iteration, so this covers ~1,600 iterations
/// before the drop policy engages (~640 KB per worker at 40 B/span).
pub const DEFAULT_RING_SPANS: usize = 16 * 1024;

/// Everything one recorded interval carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Worker thread (track) id within the group, offset by the group's
    /// `tid_base`.
    pub worker: u32,
    /// NUMA node the worker was bound to.
    pub numa_node: u32,
    /// What the interval was spent on.
    pub phase: Phase,
    /// Iteration the interval belongs to (0 for non-iterative spans).
    pub iter: u32,
    /// Interval start, ns since the [`TraceBuf`] origin.
    pub t_start: u64,
    /// Interval end, ns since the [`TraceBuf`] origin.
    pub t_end: u64,
    /// Bytes moved during the interval (0 where it does not apply).
    pub bytes: u64,
}

impl Span {
    /// Interval length in ns (saturating — clock monotonicity is assumed
    /// but not enforced).
    pub fn dur_ns(&self) -> u64 {
        self.t_end.saturating_sub(self.t_start)
    }
}

/// What a span was spent on. The driver phases mirror the barrier
/// protocol's letters (see `crate::driver` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The compute super-phase (backend row drain).
    Compute,
    /// Waiting at barrier A (iteration start; state published).
    BarrierA,
    /// Waiting at barrier B (accumulators final).
    BarrierB,
    /// Waiting at barrier C (merged sums complete).
    BarrierC,
    /// The dimension-sliced accumulator merge between B and C.
    Merge,
    /// The coordinator window (reduce, finalize, drift, MTI, stats).
    Update,
    /// Staged-plane fast-tier (row cache) lookup: the merge walk that
    /// finds a task's hits (bytes = the hits' bytes, read in place).
    IoHit,
    /// Staged-plane merged backing-tier (device) fetch of the misses.
    IoMiss,
    /// knord's allreduce window (bytes = wire bytes this rank sent).
    Allreduce,
}

impl Phase {
    /// Every phase, for exhaustive folds and name lookups.
    pub const ALL: [Phase; 9] = [
        Phase::Compute,
        Phase::BarrierA,
        Phase::BarrierB,
        Phase::BarrierC,
        Phase::Merge,
        Phase::Update,
        Phase::IoHit,
        Phase::IoMiss,
        Phase::Allreduce,
    ];

    /// Stable name (chrome-trace event name, smoke-check key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::BarrierA => "barrier_a",
            Phase::BarrierB => "barrier_b",
            Phase::BarrierC => "barrier_c",
            Phase::Merge => "merge",
            Phase::Update => "update",
            Phase::IoHit => "io_hit",
            Phase::IoMiss => "io_miss",
            Phase::Allreduce => "allreduce",
        }
    }

    /// The breakdown bucket this phase folds into.
    pub fn group(self) -> PhaseGroup {
        match self {
            Phase::Compute | Phase::IoHit => PhaseGroup::Compute,
            Phase::BarrierA | Phase::BarrierB | Phase::BarrierC => PhaseGroup::BarrierWait,
            Phase::IoMiss | Phase::Allreduce => PhaseGroup::IoWait,
            Phase::Merge | Phase::Update => PhaseGroup::Merge,
        }
    }
}

/// The five summary buckets of a [`PhaseBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseGroup {
    /// Useful work: row drains, kernel dispatch, fast-tier copies.
    Compute,
    /// Time parked at a protocol barrier (straggler exposure).
    BarrierWait,
    /// Device reads and allreduce wire time.
    IoWait,
    /// Accumulator merge, coordinator update window, ccdist fill.
    Merge,
    /// Always empty: workers read one shared copy of the centroids, so no
    /// phase publishes anything. It keeps index 4 because `knor_bench`
    /// indexes five shares by position in [`PhaseGroup::ALL`].
    Publish,
}

impl PhaseGroup {
    /// Every group, in display order.
    pub const ALL: [PhaseGroup; 5] = [
        PhaseGroup::Compute,
        PhaseGroup::BarrierWait,
        PhaseGroup::IoWait,
        PhaseGroup::Merge,
        PhaseGroup::Publish,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PhaseGroup::Compute => "compute",
            PhaseGroup::BarrierWait => "barrier_wait",
            PhaseGroup::IoWait => "io_wait",
            PhaseGroup::Merge => "merge",
            PhaseGroup::Publish => "publish",
        }
    }

    fn index(self) -> usize {
        match self {
            PhaseGroup::Compute => 0,
            PhaseGroup::BarrierWait => 1,
            PhaseGroup::IoWait => 2,
            PhaseGroup::Merge => 3,
            PhaseGroup::Publish => 4,
        }
    }
}

/// One worker's pre-allocated span ring.
struct Ring {
    spans: Vec<Span>,
    dropped: u64,
}

/// One registered run (one driver invocation; one rank under knord): a
/// block of per-worker rings sharing a chrome-trace `pid` and a `tid`
/// base.
pub struct TraceGroup {
    origin: Instant,
    pid: u32,
    tid_base: u32,
    rings: Box<[Mutex<Ring>]>,
}

/// Ring `cell`, held. A recorder that panicked mid-push leaves a ring
/// that is still well-formed, so a poisoned lock is taken as is.
fn lock_ring(cell: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TraceGroup {
    /// Nanoseconds since the owning buffer's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Worker `w`'s recorder, tagging its spans with NUMA `node` and
    /// iteration `iter`. Only worker `w`'s thread records through it, so
    /// its ring's lock is never contended while the run is live.
    #[inline]
    pub fn tracer(&self, w: usize, node: u32, iter: u32) -> WorkerTracer<'_> {
        WorkerTracer { group: self, w, node, iter }
    }

    /// Fold this group's spans alone into a [`PhaseBreakdown`] (a single
    /// driver run's view; [`TraceBuf::breakdown`] folds every group).
    ///
    /// As with [`TraceBuf::spans`], a live group folds a snapshot.
    pub fn breakdown(&self) -> PhaseBreakdown {
        let mut spans = Vec::new();
        let dropped = self.collect_into(&mut spans);
        let tracks = (0..self.rings.len()).map(|w| (self.pid, self.tid_base + w as u32)).collect();
        PhaseBreakdown::fold(&spans, tracks, dropped)
    }

    fn collect_into(&self, out: &mut Vec<Span>) -> u64 {
        let mut dropped = 0;
        for cell in self.rings.iter() {
            let ring = lock_ring(cell);
            out.extend_from_slice(&ring.spans);
            dropped += ring.dropped;
        }
        dropped
    }
}

/// A worker's handle for recording spans: the group, the slot, and the
/// ambient `{worker, node, iter}` tags every span carries.
#[derive(Clone, Copy)]
pub struct WorkerTracer<'a> {
    group: &'a TraceGroup,
    w: usize,
    node: u32,
    iter: u32,
}

impl WorkerTracer<'_> {
    /// Nanoseconds since the buffer origin (span start stamps).
    #[inline]
    pub fn now(&self) -> u64 {
        self.group.now_ns()
    }

    /// Record a span from `t_start` to now. Never allocates; a full ring
    /// drops the span and counts it.
    #[inline]
    pub fn record(&self, phase: Phase, t_start: u64, bytes: u64) {
        self.record_span(phase, t_start, self.group.now_ns(), bytes);
    }

    /// Record a fully-stamped span.
    #[inline]
    pub fn record_span(&self, phase: Phase, t_start: u64, t_end: u64, bytes: u64) {
        let mut ring = lock_ring(&self.group.rings[self.w]);
        if ring.spans.len() < ring.spans.capacity() {
            ring.spans.push(Span {
                worker: self.group.tid_base + self.w as u32,
                numa_node: self.node,
                phase,
                iter: self.iter,
                t_start,
                t_end,
                bytes,
            });
        } else {
            ring.dropped += 1;
        }
    }
}

/// The shared recorder: a monotonic time origin plus every group
/// registered against it. One buffer spans a whole run — knord's ranks
/// all register here, so their spans share a timebase.
pub struct TraceBuf {
    origin: Instant,
    ring_spans: usize,
    groups: Mutex<Vec<Arc<TraceGroup>>>,
}

impl Default for TraceBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let groups = self.groups.lock().expect("trace registry poisoned").len();
        f.debug_struct("TraceBuf")
            .field("ring_spans", &self.ring_spans)
            .field("groups", &groups)
            .finish()
    }
}

impl TraceBuf {
    /// A recorder with the default per-worker ring capacity.
    pub fn new() -> Self {
        Self::with_ring_spans(DEFAULT_RING_SPANS)
    }

    /// A recorder whose rings hold `spans` spans per worker.
    pub fn with_ring_spans(spans: usize) -> Self {
        Self { origin: Instant::now(), ring_spans: spans.max(16), groups: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the recorder's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Register a run of `nworkers` workers under chrome-trace process id
    /// `pid`, with worker `w` shown as track `tid_base + w`. All ring
    /// allocation happens here, before any recording.
    pub fn register(&self, pid: u32, nworkers: usize, tid_base: u32) -> Arc<TraceGroup> {
        let rings = (0..nworkers.max(1))
            .map(|_| Mutex::new(Ring { spans: Vec::with_capacity(self.ring_spans), dropped: 0 }))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let group = Arc::new(TraceGroup { origin: self.origin, pid, tid_base, rings });
        self.groups.lock().expect("trace registry poisoned").push(Arc::clone(&group));
        group
    }

    /// Snapshot every recorded span, in (group, worker, record) order.
    /// Called while a run records, it returns what was recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for g in self.groups.lock().expect("trace registry poisoned").iter() {
            g.collect_into(&mut out);
        }
        out
    }

    /// Fold every group's spans into one [`PhaseBreakdown`].
    /// Each group folds on its own — knord's ranks reuse worker ids, so a
    /// track is a `(pid, tid)` pair — and the groups' columns sit side by
    /// side in registration order.
    pub fn breakdown(&self) -> PhaseBreakdown {
        let groups = self.groups.lock().expect("trace registry poisoned");
        let mut out =
            PhaseBreakdown { ns: vec![Vec::new(); PhaseGroup::ALL.len()], ..Default::default() };
        for part in groups.iter().map(|g| g.breakdown()) {
            out.tracks.extend(part.tracks);
            for (row, cols) in out.ns.iter_mut().zip(part.ns) {
                row.extend(cols);
            }
            out.spans += part.spans;
            out.dropped += part.dropped;
        }
        out.spread_ns = out.ns.iter().map(|row| spread(row)).collect();
        out
    }

    /// Render every recorded span as chrome trace-event JSON (the
    /// `--trace <file>.json` payload): one `"X"` (complete) event per
    /// span, `pid` = group (knord rank), `tid` = worker track, plus
    /// thread-name metadata so viewers label the tracks.
    pub fn chrome_trace_json(&self) -> String {
        let groups = self.groups.lock().expect("trace registry poisoned");
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for g in groups.iter() {
            for (w, cell) in g.rings.iter().enumerate() {
                let tid = g.tid_base + w as u32;
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"worker {}\"}}}}",
                    g.pid, tid, tid
                ));
                for s in lock_ring(cell).spans.iter() {
                    out.push_str(&format!(
                        ",{{\"name\":\"{}\",\"cat\":\"knor\",\"ph\":\"X\",\"ts\":{:.3},\
                         \"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"iter\":{},\
                         \"bytes\":{},\"node\":{}}}}}",
                        s.phase.name(),
                        s.t_start as f64 / 1e3,
                        s.dur_ns() as f64 / 1e3,
                        g.pid,
                        tid,
                        s.iter,
                        s.bytes,
                        s.numa_node,
                    ));
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// The per-phase fold of a run's spans: self time per worker track for
/// each [`PhaseGroup`], plus the straggler spread (max − median over
/// tracks) that makes load imbalance visible without opening the trace.
/// A span's self time is its duration less what the spans nested inside
/// it on the same track cover, so the staged plane's I/O spans inside the
/// driver's `compute` span count once, and a track's groups sum to at most
/// the time its spans cover.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// The `(pid, tid)` identity of each track, in column order.
    pub tracks: Vec<(u32, u32)>,
    /// `ns[group][track]` — total self-time ns, indexed by
    /// [`PhaseGroup::ALL`] order then by `tracks` order.
    pub ns: Vec<Vec<u64>>,
    /// Straggler spread per group: `max − median` of the per-track
    /// totals.
    pub spread_ns: Vec<u64>,
    /// Spans folded into this breakdown.
    pub spans: u64,
    /// Spans lost to the drop-on-full ring policy.
    pub dropped: u64,
}

impl PhaseBreakdown {
    /// Fold `spans` belonging to `tracks` into per-group self times.
    pub fn fold(spans: &[Span], tracks: Vec<(u32, u32)>, dropped: u64) -> Self {
        // Track order is the registration order; map (pid, tid) -> column
        // by scanning (track counts are small: workers, not rows).
        let col = |worker: u32| tracks.iter().position(|&(_, t)| t == worker);
        let mut ns = vec![vec![0u64; tracks.len()]; PhaseGroup::ALL.len()];
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            // Spans from an unknown track (possible only if the caller
            // mixed buffers) are counted toward no column.
            if let Some(c) = col(s.worker) {
                ns[s.phase.group().index()][c] += self_ns;
            }
        }
        let spread_ns = ns.iter().map(|row| spread(row)).collect();
        Self { tracks, ns, spread_ns, spans: spans.len() as u64, dropped }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans == 0
    }

    /// Total ns across all tracks for one group.
    pub fn group_total_ns(&self, g: PhaseGroup) -> u64 {
        self.ns[g.index()].iter().sum()
    }

    /// The per-track total for one group.
    pub fn group_ns(&self, g: PhaseGroup) -> &[u64] {
        &self.ns[g.index()]
    }

    /// Straggler spread (max − median over tracks) for one group.
    pub fn group_spread_ns(&self, g: PhaseGroup) -> u64 {
        self.spread_ns[g.index()]
    }

    /// The `--stats` table: one row per phase group with total, max and
    /// spread (all in ms), over `tracks.len()` worker tracks.
    pub fn render(&self) -> String {
        let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
        let mut out = format!(
            "phase breakdown over {} worker track(s) ({} spans{}):\n",
            self.tracks.len(),
            self.spans,
            if self.dropped > 0 { format!(", {} dropped", self.dropped) } else { String::new() }
        );
        out.push_str(&format!(
            "{:>13} {:>12} {:>10} {:>10}\n",
            "phase", "total_ms", "max_ms", "spread_ms"
        ));
        for g in PhaseGroup::ALL {
            let row = self.group_ns(g);
            let max = row.iter().copied().max().unwrap_or(0);
            out.push_str(&format!(
                "{:>13} {:>12} {:>10} {:>10}\n",
                g.name(),
                ms(self.group_total_ns(g)),
                ms(max),
                ms(self.group_spread_ns(g)),
            ));
        }
        out
    }
}

/// Each span's duration less the union of the spans nested inside it on
/// its track. A span nests in the innermost earlier span of the same
/// worker that contains it; spans that merely overlap are siblings.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].worker, spans[i].t_start, std::cmp::Reverse(spans[i].t_end)));
    let mut covered = vec![0u64; spans.len()];
    // How far the children seen so far reach into each span; children
    // arrive in start order, so this sweeps out their union.
    let mut reach: Vec<u64> = spans.iter().map(|s| s.t_start).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            if spans[top].worker == s.worker && spans[top].t_end >= s.t_end {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            covered[parent] += s.t_end.saturating_sub(s.t_start.max(reach[parent]));
            reach[parent] = reach[parent].max(s.t_end);
        }
        open.push(i);
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// `max − median` of a per-track total row (0 for empty rows). An even
/// count takes the lower median, so two tracks spread by `max − min`.
fn spread(row: &[u64]) -> u64 {
    if row.is_empty() {
        return 0;
    }
    let mut sorted = row.to_vec();
    sorted.sort_unstable();
    let max = sorted[sorted.len() - 1];
    let median = sorted[(sorted.len() - 1) / 2];
    max.saturating_sub(median)
}

/// What an engine hands the driver: the shared buffer plus the process
/// id (knord rank; 0 elsewhere) this run's groups register under.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    /// The shared recorder.
    pub buf: Arc<TraceBuf>,
    /// chrome-trace process id for this run's tracks.
    pub pid: u32,
}

impl TraceHandle {
    /// Wrap a buffer under pid 0 (single-machine engines).
    pub fn new(buf: Arc<TraceBuf>) -> Self {
        Self { buf, pid: 0 }
    }

    /// Wrap a buffer under an explicit pid (knord passes its rank).
    pub fn with_pid(buf: Arc<TraceBuf>, pid: u32) -> Self {
        Self { buf, pid }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fold_and_spread() {
        let buf = TraceBuf::new();
        let g = buf.register(0, 2, 0);
        let t0 = g.tracer(0, 0, 3);
        let t1 = g.tracer(1, 1, 3);
        t0.record_span(Phase::Compute, 100, 400, 64);
        t1.record_span(Phase::Compute, 100, 200, 64);
        t0.record_span(Phase::BarrierB, 400, 410, 0);
        t1.record_span(Phase::BarrierB, 200, 410, 0);
        let b = buf.breakdown();
        assert_eq!(b.tracks, vec![(0, 0), (0, 1)]);
        assert_eq!(b.spans, 4);
        assert_eq!(b.dropped, 0);
        assert_eq!(b.group_ns(PhaseGroup::Compute), &[300, 100]);
        assert_eq!(b.group_ns(PhaseGroup::BarrierWait), &[10, 210]);
        // Two tracks: the lower median is the min, so the spread is
        // max - min.
        assert_eq!(b.group_spread_ns(PhaseGroup::Compute), 200);
        assert_eq!(b.group_spread_ns(PhaseGroup::BarrierWait), 200);
        assert_eq!(b.group_total_ns(PhaseGroup::Compute), 400);
        assert!(!b.render().is_empty());
    }

    #[test]
    fn spread_is_max_minus_median() {
        assert_eq!(spread(&[]), 0);
        assert_eq!(spread(&[5]), 0);
        // sorted [1, 2, 9]: median 2, max 9.
        assert_eq!(spread(&[9, 1, 2]), 7);
        // even count takes the lower median: sorted [1, 2, 3, 10],
        // median index 1 -> 2, spread 8.
        assert_eq!(spread(&[3, 10, 1, 2]), 8);
    }

    #[test]
    fn spread_over_two_tracks_is_max_minus_min() {
        assert_eq!(spread(&[7, 19]), 12);
        assert_eq!(spread(&[19, 7]), 12);
        assert_eq!(spread(&[5, 5]), 0);
    }

    /// A staged plane's I/O spans nest inside the driver's compute span on
    /// the same track: each nanosecond counts once, in the innermost span's
    /// group. Another track's spans at the same instants nest in nothing.
    #[test]
    fn nested_spans_count_once_as_self_time() {
        let span = |worker, phase, t_start, t_end| Span {
            worker,
            numa_node: 0,
            phase,
            iter: 0,
            t_start,
            t_end,
            bytes: 0,
        };
        let spans = [
            span(0, Phase::IoMiss, 1_200, 1_300),
            span(0, Phase::Compute, 1_000, 2_000),
            span(0, Phase::BarrierB, 2_000, 2_050),
            span(1, Phase::IoMiss, 1_100, 1_150),
            span(1, Phase::IoHit, 1_150, 1_400),
            span(1, Phase::IoMiss, 1_400, 1_500),
            span(1, Phase::Compute, 1_100, 1_900),
        ];
        let b = PhaseBreakdown::fold(&spans, vec![(0, 0), (0, 1)], 0);
        assert_eq!(b.group_ns(PhaseGroup::Compute), &[900, 800 - 150]);
        assert_eq!(b.group_ns(PhaseGroup::IoWait), &[100, 150]);
        assert_eq!(b.group_ns(PhaseGroup::BarrierWait), &[50, 0]);
        // Compute's 650 ns on track 1 are 400 of its own and the hit's 250.
        assert_eq!(self_times(&spans), vec![100, 900, 50, 50, 250, 100, 400]);
    }

    #[test]
    fn ring_drops_when_full_without_reallocating() {
        let buf = TraceBuf::with_ring_spans(16);
        let g = buf.register(0, 1, 0);
        let t = g.tracer(0, 0, 0);
        for i in 0..40u64 {
            t.record_span(Phase::Compute, i, i + 1, 0);
        }
        assert_eq!(buf.spans().len(), 16);
        let b = buf.breakdown();
        assert_eq!(b.dropped, 24);
        assert_eq!(b.spans, 16);
    }

    #[test]
    fn chrome_trace_shape() {
        let buf = TraceBuf::new();
        let g = buf.register(2, 1, 4);
        let t = g.tracer(0, 1, 7);
        t.record_span(Phase::Allreduce, 1_000, 3_500, 4096);
        let json = buf.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"allreduce\""));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"tid\":4"), "tid_base offsets the track id");
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.contains("\"iter\":7"));
    }

    #[test]
    fn phase_names_and_groups_are_total() {
        for p in Phase::ALL {
            assert!(!p.name().is_empty());
            let _ = p.group();
        }
        let names: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::ALL.len(), "phase names must be unique");
    }
}

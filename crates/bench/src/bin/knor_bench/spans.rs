//! Spans around the calls into each layer's public functions, kept in
//! memory and written as a chrome trace when the traced run ends.
//!
//! The benchmark's own spans nest by construction (a stack on the calling
//! thread, track 0). Spans the engines record through the public
//! `with_trace` API carry no parent, so they are placed under the call
//! that produced them, one track per worker, and nested by containment.
//! A layer's self time is its span minus the part of it its children
//! cover.

use crate::json::{arr, count, num, obj, string, Json};
use knor_core::TraceBuf;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which repetition of the workload's command the span belongs to.
    pub rep: u32,
    /// 0 is the benchmark's thread; engine worker `w` is track `w + 1`.
    pub track: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// For every span, its duration minus the union of its children's
/// intervals (clipped to the span). Children on parallel tracks overlap
/// in time, so the union, not the sum, is what they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Give each span of one track the innermost earlier span that contains
/// it as parent (`root` when none does). `order` lists the track's span
/// indices; spans that merely overlap are treated as siblings.
fn nest_by_containment(spans: &mut [Span], order: &mut [usize], root: Option<usize>) {
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
    let mut stack: Vec<usize> = Vec::new();
    for &i in order.iter() {
        while stack.last().is_some_and(|&top| spans[top].end_ns < spans[i].end_ns) {
            stack.pop();
        }
        spans[i].parent = stack.last().copied().or(root);
        stack.push(i);
    }
}

/// Nest `spans[first..]` track by track (see [`nest_by_containment`]).
fn nest_tracks(spans: &mut [Span], first: usize, root: Option<usize>) {
    let mut tracks: Vec<u32> = spans[first..].iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        let mut order: Vec<usize> =
            (first..spans.len()).filter(|&i| spans[i].track == track).collect();
        nest_by_containment(spans, &mut order, root);
    }
}

/// Every span an engine recorded, with its self time: nested by
/// containment per worker, so an I/O wait inside a compute super-phase
/// is counted once, as I/O wait.
pub fn engine_self_times(buf: &TraceBuf) -> Vec<(knor_core::Span, u64)> {
    let engine = buf.spans();
    let mut spans: Vec<Span> = engine
        .iter()
        .map(|s| Span {
            name: String::new(),
            start_ns: s.t_start,
            end_ns: s.t_end,
            parent: None,
            rep: 0,
            track: s.worker,
        })
        .collect();
    nest_tracks(&mut spans, 0, None);
    engine.into_iter().zip(self_times(&spans)).collect()
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &str, rep: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep,
            track: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// length in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Run `f` inside a span; returns its result and length in seconds.
    pub fn time<R>(&mut self, name: &str, rep: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, rep);
        let out = f();
        (out, self.close(id))
    }

    /// A recorder for an engine run that is about to start under the
    /// innermost open span, with the offset of its clock from this one.
    pub fn engine_trace(&self) -> (std::sync::Arc<TraceBuf>, u64) {
        let buf = std::sync::Arc::new(TraceBuf::new());
        (buf.clone(), self.now_ns().saturating_sub(buf.now_ns()))
    }

    /// Place the spans an engine recorded under span `under`.
    pub fn adopt(&mut self, under: usize, buf: &TraceBuf, offset_ns: u64) {
        let first = self.spans.len();
        let rep = self.spans[under].rep;
        self.spans.extend(buf.spans().into_iter().map(|s| Span {
            name: s.phase.name().to_string(),
            start_ns: s.t_start + offset_ns,
            end_ns: s.t_end + offset_ns,
            parent: Some(under),
            rep,
            track: s.worker + 1,
        }));
        nest_tracks(&mut self.spans, first, Some(under));
    }

    /// The chrome-trace document (`chrome://tracing`, Perfetto): complete
    /// events with parent, rep and self time in `args`.
    pub fn chrome_trace(&self, host: Json) -> Json {
        let selfs = self_times(&self.spans);
        let events = self.spans.iter().zip(selfs).enumerate().map(|(id, (s, self_ns))| {
            obj([
                ("name", string(&*s.name)),
                ("ph", string("X")),
                ("ts", num(s.start_ns as f64 / 1e3)),
                ("dur", num(s.dur_ns() as f64 / 1e3)),
                ("pid", count(1)),
                ("tid", count(u64::from(s.track))),
                (
                    "args",
                    obj([
                        ("id", count(id as u64)),
                        ("parent", s.parent.map_or(Json::Null, |p| count(p as u64))),
                        ("rep", count(u64::from(s.rep))),
                        ("self_us", num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        });
        obj([("traceEvents", arr(events)), ("displayTimeUnit", string("ms")), ("host", host)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, track: u32) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, rep: 0, track }
    }

    #[test]
    fn self_time_is_span_minus_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, None, 0),
            span("read", 0, 10, Some(0), 0),
            span("fit", 20, 90, Some(0), 0),
            // Two workers in parallel under `fit`, overlapping in time.
            span("compute", 30, 80, Some(2), 1),
            span("compute", 40, 85, Some(2), 2),
            // Nested I/O wait inside worker 1's compute.
            span("io", 50, 60, Some(3), 1),
            // A child poking out of its parent is clipped to it.
            span("late", 95, 120, Some(0), 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 10 - 70 - 5, "rep: minus read, fit and the clipped child");
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 70 - 55, "fit: workers cover 30..85 once, not twice");
        assert_eq!(selfs[3], 50 - 10, "compute: minus its nested io");
        assert_eq!(selfs[4], 45);
        assert_eq!(selfs[5], 10);
    }

    #[test]
    fn engine_spans_nest_by_containment_per_track() {
        let mut spans = vec![
            span("fit", 0, 100, None, 0),
            span("compute", 10, 60, None, 1),
            span("io_fetch", 20, 30, None, 1),
            span("io_miss", 22, 28, None, 1),
            span("barrier", 60, 70, None, 1),
        ];
        let mut order = vec![4, 2, 1, 3];
        nest_by_containment(&mut spans, &mut order, Some(0));
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn recorder_nests_by_call_order_and_exports_chrome_events() {
        let mut rec = Recorder::new();
        let rep = rec.open("rep", 3);
        let ((), inner_s) =
            rec.time("matrix.read", 3, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let rep_s = rec.close(rep);
        assert!(inner_s >= 0.002 && rep_s >= inner_s);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(self_times(&rec.spans)[0] as f64 / 1e9 <= rep_s - inner_s + 1e-9);
        let doc = rec.chrome_trace(Json::Null);
        let text = crate::json::render(&doc);
        let parsed = Json::parse(&text).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("matrix.read"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("rep")).and_then(Json::as_f64),
            Some(3.0)
        );
    }
}

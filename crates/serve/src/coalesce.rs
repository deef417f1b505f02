//! The request coalescer: manufacture large kernel batches from many
//! small clients.
//!
//! PR 4's bench made the case — the pool answers batch=1024 about 16×
//! faster per row than batch=1 — so the mux front end does not execute
//! queries one connection at a time. The event loop ([`crate::mux`])
//! admits each QUERY (header parse + budget check only, a few hundred
//! nanoseconds) and hands the raw payload here; dispatcher threads drain
//! a model's pending queue into one flat row block, run **one** pool call
//! for the whole coalesced batch, then scatter per-request reply lines
//! back to the event loop. Float parsing happens on the dispatcher
//! threads too, in parallel with the event loop reading more sockets —
//! the loop stays I/O-bound.
//!
//! Flush policy (DESIGN.md §14): a queue flushes when it holds
//! `batch_rows` rows (**size**), when its oldest request has waited
//! `max_delay_us` (**deadline**), or when a `FLUSH` ctl verb forces it
//! (tests, drains). Requests are never split across kernel batches; a
//! drain takes whole requests until the row target is met.
//!
//! Version pinning falls out of the architecture: a request captures its
//! `Arc<ModelEntry>` at admission, queues are keyed by entry identity,
//! and the batch runs against that entry — so in-flight queries complete
//! against the version they were dispatched with even if a SWAP/ROLLBACK
//! or a finished training job flips the served version in between.
//!
//! Batching cannot perturb results: the pool's predict contract is
//! bitwise chunk-boundary-invariant and kernel resolution depends only on
//! `(k, d)`, never on the batch size, so a row answers identically
//! whether it rides alone or inside a 1024-row coalesced batch. Replies
//! are formatted by the same helper as the blocking front end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::registry::ModelEntry;
use crate::tcp::{parse_query_values, write_predict_reply};
use crate::ServeHandle;

/// Coalescer knobs (a subset of [`crate::mux::MuxConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// Row target per coalesced kernel batch (size trigger).
    pub batch_rows: usize,
    /// Oldest-request age that forces a flush (deadline trigger), µs.
    pub max_delay_us: u64,
    /// Dispatcher threads draining queues into pool calls.
    pub dispatchers: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self { batch_rows: 1024, max_delay_us: 2_000, dispatchers: 2 }
    }
}

/// One admitted QUERY waiting to be coalesced. The payload is the raw
/// float text after the `QUERY <model> <m> <d>` header; parsing is
/// deferred to the dispatcher threads.
pub struct Request {
    /// Event-loop connection id the reply routes back to.
    pub conn: u64,
    /// Per-connection request sequence number (reply ordering).
    pub seq: u64,
    /// The model version this request was admitted against.
    pub entry: Arc<ModelEntry>,
    /// Claimed row count (validated against the payload at parse time).
    pub m: usize,
    /// Row dimensionality (already checked against the model).
    pub d: usize,
    /// Raw float tokens.
    pub payload: String,
    /// Admission timestamp on the serve clock (deadline + latency).
    pub enq_ns: u64,
}

/// A finished reply line routed back to a connection.
pub struct Completion {
    /// Destination connection id.
    pub conn: u64,
    /// Request sequence within that connection.
    pub seq: u64,
    /// The full response line (`OK …` / `ERR …`).
    pub line: String,
}

struct Queue {
    entry: Arc<ModelEntry>,
    reqs: VecDeque<Request>,
    rows: usize,
    force: bool,
}

struct State {
    queues: Vec<Queue>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    handle: ServeHandle,
    cfg: CoalesceConfig,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Box<dyn Fn() + Send + Sync>,
    stop: AtomicBool,
}

/// The coalescer: per-model pending queues plus the dispatcher pool.
pub struct Coalescer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Coalescer {
    /// Start the dispatcher threads. Finished replies are pushed into
    /// `completions` and `waker` is called (the mux loop's wake byte).
    pub fn start(
        handle: ServeHandle,
        cfg: CoalesceConfig,
        completions: Arc<Mutex<Vec<Completion>>>,
        waker: Box<dyn Fn() + Send + Sync>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queues: Vec::new() }),
            cv: Condvar::new(),
            handle,
            cfg,
            completions,
            waker,
            stop: AtomicBool::new(false),
        });
        let workers = (0..cfg.dispatchers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("knor-coalesce-{i}"))
                    .spawn(move || dispatcher_loop(&shared))
                    .expect("spawn coalescer dispatcher")
            })
            .collect();
        Self { shared, workers: Mutex::new(workers) }
    }

    /// Enqueue an admitted request (called from the event loop; the
    /// caller has already reserved `m` rows of pending budget).
    pub fn enqueue(&self, req: Request) {
        let mut st = self.shared.state.lock().expect("coalescer poisoned");
        let rows = req.m;
        match st.queues.iter_mut().find(|q| Arc::ptr_eq(&q.entry, &req.entry)) {
            Some(q) => {
                q.rows += rows;
                q.reqs.push_back(req);
            }
            None => st.queues.push(Queue {
                entry: Arc::clone(&req.entry),
                rows,
                reqs: VecDeque::from([req]),
                force: false,
            }),
        }
        drop(st);
        self.shared.cv.notify_one();
    }

    /// Force-flush every queue serving `model` (any version). Returns
    /// whether any pending requests were affected.
    pub fn flush(&self, model: &str) -> bool {
        let mut st = self.shared.state.lock().expect("coalescer poisoned");
        let mut hit = false;
        for q in st.queues.iter_mut().filter(|q| q.entry.model.name == model) {
            if !q.reqs.is_empty() {
                q.force = true;
                hit = true;
            }
        }
        drop(st);
        self.shared.cv.notify_all();
        hit
    }

    /// Force-flush everything (shutdown drain).
    pub fn flush_all(&self) {
        let mut st = self.shared.state.lock().expect("coalescer poisoned");
        for q in st.queues.iter_mut() {
            q.force = !q.reqs.is_empty();
        }
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Rows pending across all queues (the event loop's drain check).
    pub fn pending_rows(&self) -> usize {
        self.shared.state.lock().expect("coalescer poisoned").queues.iter().map(|q| q.rows).sum()
    }

    /// Stop the dispatchers after draining every queued request.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        let mut workers = self.workers.lock().expect("coalescer poisoned");
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn dispatcher_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("coalescer poisoned");
            loop {
                let now = shared.handle.clock().now_ns();
                if let Some(i) = pick_ready(&st, now, &shared.cfg) {
                    break Some(drain_queue(&mut st.queues[i], shared.cfg.batch_rows));
                }
                if shared.stop.load(Ordering::SeqCst) {
                    // Drain everything left, then exit.
                    match st.queues.iter().position(|q| !q.reqs.is_empty()) {
                        Some(i) => break Some(drain_queue(&mut st.queues[i], usize::MAX)),
                        None => break None,
                    }
                }
                // Sleep until the earliest pending deadline (or a tick, so
                // a stalled clock can't wedge the stop path).
                let deadline_ns = shared.cfg.max_delay_us.saturating_mul(1_000);
                let wait_ns = st
                    .queues
                    .iter()
                    .filter_map(|q| q.reqs.front())
                    .map(|r| deadline_ns.saturating_sub(now.saturating_sub(r.enq_ns)))
                    .min()
                    .unwrap_or(50_000_000)
                    .clamp(100_000, 50_000_000);
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_nanos(wait_ns))
                    .expect("coalescer poisoned");
                st = guard;
            }
        };
        match batch {
            Some((entry, reqs)) => execute_batch(shared, &entry, reqs),
            None => return,
        }
    }
}

/// Index of a queue ready to flush: forced, at the size target, or with
/// its oldest request past the deadline.
fn pick_ready(st: &State, now: u64, cfg: &CoalesceConfig) -> Option<usize> {
    let deadline_ns = cfg.max_delay_us.saturating_mul(1_000);
    st.queues.iter().position(|q| {
        !q.reqs.is_empty()
            && (q.force
                || q.rows >= cfg.batch_rows
                || q.reqs.front().is_some_and(|r| now.saturating_sub(r.enq_ns) >= deadline_ns))
    })
}

/// Take whole requests off the queue head until `target_rows` is covered.
fn drain_queue(q: &mut Queue, target_rows: usize) -> (Arc<ModelEntry>, Vec<Request>) {
    let mut out = Vec::new();
    let mut rows = 0usize;
    while rows < target_rows {
        let Some(req) = q.reqs.pop_front() else { break };
        rows += req.m;
        out.push(req);
    }
    q.rows -= rows.min(q.rows);
    if q.reqs.is_empty() {
        q.force = false;
    }
    (Arc::clone(&q.entry), out)
}

/// Parse, batch, predict once, scatter replies.
fn execute_batch(shared: &Shared, entry: &Arc<ModelEntry>, reqs: Vec<Request>) {
    let d = entry.model.d().max(1);
    let clock = shared.handle.clock();
    let mut flat: Vec<f64> = Vec::new();
    // (request, row offset) for requests whose payload parsed clean.
    let mut valid: Vec<(Request, usize)> = Vec::new();
    let mut out: Vec<Completion> = Vec::new();
    let parse_start = clock.now_ns();
    for req in reqs {
        match parse_query_values(&mut req.payload.split_ascii_whitespace(), req.m * d) {
            Ok(vals) => {
                let start = flat.len() / d;
                flat.extend_from_slice(&vals);
                valid.push((req, start));
            }
            Err(msg) => {
                entry.stats.sub_pending(req.m as u64);
                out.push(Completion { conn: req.conn, seq: req.seq, line: format!("ERR {msg}") });
            }
        }
    }
    let parse_ns = clock.now_ns().saturating_sub(parse_start);
    let mut format_ns = 0;
    if !flat.is_empty() {
        let total_rows = (flat.len() / d) as u64;
        let result = shared.handle.predict_entry(entry, &flat, d);
        let end_ns = clock.now_ns();
        match result {
            Ok(pred) => {
                entry.stats.record_coalesced(total_rows);
                for (req, start) in &valid {
                    let mut line = String::from("OK ");
                    write_predict_reply(
                        &mut line,
                        &pred.assignments[*start..*start + req.m],
                        &pred.distances[*start..*start + req.m],
                    );
                    entry.stats.record_request(end_ns.saturating_sub(req.enq_ns));
                    out.push(Completion { conn: req.conn, seq: req.seq, line });
                }
                format_ns = clock.now_ns().saturating_sub(end_ns);
            }
            Err(e) => {
                for (req, _) in &valid {
                    out.push(Completion { conn: req.conn, seq: req.seq, line: format!("ERR {e}") });
                }
            }
        }
        entry.stats.sub_pending(total_rows);
    }
    entry.stats.record_text_phases(parse_ns, format_ns);
    if !out.is_empty() {
        shared.completions.lock().expect("completions poisoned").extend(out);
        (shared.waker)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{predict_serial, ServeConfig};
    use knor_core::Algorithm;
    use knor_matrix::DMatrix;
    use knor_numa::Topology;

    fn test_handle() -> ServeHandle {
        ServeHandle::start(
            ServeConfig::default().with_threads(2).with_topology(Topology::synthetic(1, 2)),
        )
    }

    fn wire_floats(vals: &[f64]) -> String {
        vals.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn coalesces_small_requests_into_one_kernel_batch() {
        let handle = test_handle();
        handle.register_model(
            "m",
            Algorithm::Lloyd,
            DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2),
        );
        let entry = handle.registry().get("m").unwrap();
        let completions = Arc::new(Mutex::new(Vec::new()));
        // Deadline far away: only the size trigger (8 rows) can flush.
        let cfg = CoalesceConfig { batch_rows: 8, max_delay_us: 60_000_000, dispatchers: 1 };
        let co = Coalescer::start(handle.clone(), cfg, Arc::clone(&completions), Box::new(|| {}));

        let rows: Vec<[f64; 2]> = (0..8).map(|i| [i as f64, i as f64]).collect::<Vec<_>>();
        for (i, row) in rows.iter().enumerate() {
            entry.stats.add_pending(1);
            co.enqueue(Request {
                conn: 1,
                seq: i as u64,
                entry: Arc::clone(&entry),
                m: 1,
                d: 2,
                payload: wire_floats(row),
                enq_ns: 0,
            });
        }
        // The 8th row hits the size target; wait for the flush.
        for _ in 0..500 {
            if completions.lock().unwrap().len() == 8 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let got = completions.lock().unwrap().len();
        assert_eq!(got, 8, "size-triggered flush must answer all 8");
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let reference = predict_serial(&entry.model, &flat, 2);
        for c in completions.lock().unwrap().iter() {
            let i = c.seq as usize;
            let expect = format!("OK 1 {}:{:?}", reference.assignments[i], reference.distances[i]);
            assert_eq!(c.line, expect, "seq {}", c.seq);
        }
        let s = entry.stats.snapshot();
        assert_eq!(s.coalesced_batches, 1, "one kernel batch for 8 requests");
        assert_eq!(s.coalesced_mean, 8.0);
        assert_eq!(s.pending, 0, "pending budget fully released");
        assert_eq!(entry.stats.request_histogram().total(), 8);
        co.shutdown();
    }

    #[test]
    fn flush_verb_and_parse_errors() {
        let handle = test_handle();
        handle.register_model(
            "m",
            Algorithm::Lloyd,
            DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2),
        );
        let entry = handle.registry().get("m").unwrap();
        let completions = Arc::new(Mutex::new(Vec::new()));
        let woken = Arc::new(AtomicBool::new(false));
        let woken2 = Arc::clone(&woken);
        let cfg = CoalesceConfig { batch_rows: 1024, max_delay_us: 60_000_000, dispatchers: 1 };
        let co = Coalescer::start(
            handle.clone(),
            cfg,
            Arc::clone(&completions),
            Box::new(move || woken2.store(true, Ordering::SeqCst)),
        );
        entry.stats.add_pending(2);
        co.enqueue(Request {
            conn: 7,
            seq: 0,
            entry: Arc::clone(&entry),
            m: 1,
            d: 2,
            payload: "0.5 0.5".into(),
            enq_ns: 0,
        });
        co.enqueue(Request {
            conn: 7,
            seq: 1,
            entry: Arc::clone(&entry),
            m: 1,
            d: 2,
            payload: "0.5 not-a-float".into(),
            enq_ns: 0,
        });
        assert!(!co.flush("ghost"), "no queue for unknown model");
        assert_eq!(co.pending_rows(), 2);
        assert!(co.flush("m"));
        for _ in 0..500 {
            if completions.lock().unwrap().len() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let lines: Vec<String> = {
            let mut c = completions.lock().unwrap();
            c.sort_by_key(|x| x.seq);
            c.iter().map(|x| x.line.clone()).collect()
        };
        assert!(lines[0].starts_with("OK 1 "), "{}", lines[0]);
        assert_eq!(lines[1], "ERR QUERY: value 1: invalid float literal");
        assert!(woken.load(Ordering::SeqCst), "waker must fire on completion");
        assert_eq!(entry.stats.pending_rows(), 0);
        assert_eq!(co.pending_rows(), 0);
        co.shutdown();
    }

    #[test]
    fn deadline_flush_fires_without_size_or_force() {
        let handle = test_handle();
        handle.register_model(
            "m",
            Algorithm::Lloyd,
            DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2),
        );
        let entry = handle.registry().get("m").unwrap();
        let completions = Arc::new(Mutex::new(Vec::new()));
        let cfg = CoalesceConfig { batch_rows: 1024, max_delay_us: 2_000, dispatchers: 1 };
        let co = Coalescer::start(handle.clone(), cfg, Arc::clone(&completions), Box::new(|| {}));
        entry.stats.add_pending(1);
        co.enqueue(Request {
            conn: 1,
            seq: 0,
            entry: Arc::clone(&entry),
            m: 1,
            d: 2,
            payload: "9.0 9.0".into(),
            enq_ns: handle.clock().now_ns(),
        });
        for _ in 0..1000 {
            if !completions.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(completions.lock().unwrap().len(), 1, "2 ms deadline must flush a lone row");
        co.shutdown();
    }
}

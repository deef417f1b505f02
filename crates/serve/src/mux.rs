//! The multiplexed serve front end: one readiness-driven event loop
//! (`poll(2)` via the `libc` shim — no async runtime) owning every client
//! socket, in front of the coalescer ([`crate::coalesce`]) and the
//! NUMA-bound worker pool.
//!
//! # Event loop
//!
//! A single thread polls the listener, a self-wake socket pair, and every
//! connection. Each connection carries an incremental line framer
//! ([`knor_mpi::FrameBuf`]) on the read side and a byte buffer with
//! partial-write handling on the write side. Per iteration the loop:
//! drains the wake socket, routes finished [`Completion`]s into their
//! connections, accepts new clients, reads readable sockets, and writes
//! writable ones.
//!
//! Request handling is split by cost. Control verbs (TRAIN, STATS, SWAP,
//! …) are cheap and run inline through the same [`crate::tcp::dispatch`]
//! as the blocking server. QUERY — the hot path — is admitted here
//! (header parse, model resolution, pending-budget check) and executed on
//! the coalescer's dispatcher threads. Replies within a connection are
//! emitted strictly in request order (a per-connection sequence number +
//! pending reply map), so pipelined clients see the blocking server's
//! semantics exactly.
//!
//! # Backpressure (DESIGN.md §14)
//!
//! Two mechanisms, two directions:
//!
//! * **Admission control** (protects the server): each model has a
//!   pending-row budget. A QUERY that would exceed it is answered
//!   immediately with `ERR BUSY …` — a fast, explicit signal the client
//!   can retry on — instead of queueing without bound.
//! * **Slow clients** (protects everyone else): a connection whose write
//!   buffer exceeds `write_buf_cap` stops being *read* (its `POLLIN`
//!   interest is dropped) until the buffer drains. TCP flow control then
//!   pushes back on the slow client while every other connection
//!   proceeds; one stalled reader can no longer pin server memory or a
//!   server thread.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use knor_mpi::net::{poll_fds, FrameBuf, PollFd};

use crate::coalesce::{CoalesceConfig, Coalescer, Completion, Request};
use crate::tcp::dispatch;
use crate::ServeHandle;

/// Knobs of the multiplexed front end.
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Coalescer row target per kernel batch (size trigger).
    pub batch_rows: usize,
    /// Coalescer flush deadline: oldest pending request age, µs.
    pub max_delay_us: u64,
    /// Per-model pending-row budget; QUERYs beyond it get `ERR BUSY`.
    pub pending_budget: usize,
    /// Write-buffer bytes above which a connection stops being read.
    pub write_buf_cap: usize,
    /// Coalescer dispatcher threads (parse + pool calls + scatter).
    pub dispatchers: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        Self {
            batch_rows: 1024,
            max_delay_us: 2_000,
            pending_budget: 64 * 1024,
            write_buf_cap: 1 << 20,
            dispatchers: 2,
        }
    }
}

impl MuxConfig {
    /// Set the coalescer's per-batch row target.
    pub fn with_batch_rows(mut self, v: usize) -> Self {
        self.batch_rows = v.max(1);
        self
    }

    /// Set the coalescer flush deadline, µs.
    pub fn with_max_delay_us(mut self, v: u64) -> Self {
        self.max_delay_us = v;
        self
    }

    /// Set the per-model pending-row budget.
    pub fn with_pending_budget(mut self, v: usize) -> Self {
        self.pending_budget = v.max(1);
        self
    }

    /// Set the slow-client write-buffer cap, bytes.
    pub fn with_write_buf_cap(mut self, v: usize) -> Self {
        self.write_buf_cap = v.max(1);
        self
    }

    /// Set the coalescer dispatcher thread count.
    pub fn with_dispatchers(mut self, v: usize) -> Self {
        self.dispatchers = v.max(1);
        self
    }
}

/// A running multiplexed server.
pub struct MuxServer {
    addr: SocketAddr,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    wake_tx: TcpStream,
}

impl MuxServer {
    /// Bind `addr` and start the event loop. Returns once the listener
    /// is live.
    pub fn bind<A: ToSocketAddrs>(
        handle: ServeHandle,
        addr: A,
        cfg: MuxConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = wake_pair()?;
        let stop = Arc::new(AtomicBool::new(false));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let waker_tx = wake_tx.try_clone()?;
        let coalescer = Arc::new(Coalescer::start(
            handle.clone(),
            CoalesceConfig {
                batch_rows: cfg.batch_rows,
                max_delay_us: cfg.max_delay_us,
                dispatchers: cfg.dispatchers,
            },
            Arc::clone(&completions),
            Box::new(move || {
                // A failed wake (buffer full) is fine: a wake byte is
                // already pending, so the loop will drain us anyway.
                let _ = (&waker_tx).write(&[1]);
            }),
        ));
        let stop2 = Arc::clone(&stop);
        let loop_thread = std::thread::Builder::new().name("knor-mux".into()).spawn(move || {
            let mut lp = EventLoop {
                handle,
                listener,
                wake_rx,
                cfg,
                stop: stop2,
                coalescer: Arc::clone(&coalescer),
                completions,
                conns: HashMap::new(),
                next_conn: 1,
                shutting: false,
                drain_ticks: 0,
            };
            lp.run();
            coalescer.shutdown();
        })?;
        Ok(Self { addr, loop_thread: Some(loop_thread), stop, wake_tx })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server shuts down (a client's `SHUTDOWN`, or
    /// [`MuxServer::stop`] from another thread).
    pub fn join(mut self) {
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }

    /// Stop from this side: drain in-flight queries, then exit the loop.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.wake_tx).write(&[1]);
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }
}

/// A loopback socket pair for waking the poll loop (the shim binds
/// `poll` only, so the portable self-pipe is a 127.0.0.1 TCP pair).
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(l.local_addr()?)?;
    let (rx, _) = l.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    // A wake byte must never wait behind the previous one's ACK.
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuf,
    /// Bytes queued to send; `wpos` is how far into it we've written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number whose reply may be emitted (order guarantee).
    next_send: u64,
    /// Replies that finished out of order, waiting for their turn.
    ready: BTreeMap<u64, String>,
    /// Requests handed to the coalescer and not yet completed.
    inflight: u64,
    /// Peer sent EOF; drop once the write side drains.
    eof: bool,
    dead: bool,
}

impl Conn {
    fn queued_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct EventLoop {
    handle: ServeHandle,
    listener: TcpListener,
    wake_rx: TcpStream,
    cfg: MuxConfig,
    stop: Arc<AtomicBool>,
    coalescer: Arc<Coalescer>,
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    shutting: bool,
    /// Poll ticks spent fully answered while shutting down (write grace).
    drain_ticks: u32,
}

impl EventLoop {
    fn run(&mut self) {
        loop {
            // Build this iteration's poll set. Index 0 = wake, 1 = maybe
            // listener, then one entry per connection.
            let mut pfds = vec![PollFd::read(self.wake_rx.as_raw_fd())];
            let listener_slot = if self.shutting {
                None
            } else {
                pfds.push(PollFd::read(self.listener.as_raw_fd()));
                Some(pfds.len() - 1)
            };
            let mut order = Vec::with_capacity(self.conns.len());
            for (&id, c) in self.conns.iter() {
                // Slow-client backpressure: over the write cap → stop
                // reading. While shutting down we stop reading everyone.
                let want_read =
                    !self.shutting && !c.eof && c.queued_bytes() < self.cfg.write_buf_cap;
                let want_write = c.queued_bytes() > 0;
                pfds.push(PollFd::new(c.stream.as_raw_fd(), want_read, want_write));
                order.push(id);
            }
            if poll_fds(&mut pfds, 100).is_err() {
                return; // poll itself failing is unrecoverable
            }

            if pfds[0].readable {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            self.route_completions();
            if let Some(slot) = listener_slot {
                if pfds[slot].readable {
                    self.accept_new();
                }
            }
            let base = if listener_slot.is_some() { 2 } else { 1 };
            for (i, &id) in order.iter().enumerate() {
                let ev = pfds[base + i];
                if ev.closed {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.dead = true;
                    }
                    continue;
                }
                if ev.readable {
                    self.read_conn(id);
                }
                if ev.writable {
                    if let Some(c) = self.conns.get_mut(&id) {
                        try_write(c);
                    }
                }
            }
            // Reap: dead conns, and EOF conns with nothing left to send.
            self.conns.retain(|_, c| {
                let drained =
                    c.eof && c.inflight == 0 && c.queued_bytes() == 0 && c.ready.is_empty();
                !c.dead && !drained
            });

            if self.stop.load(Ordering::SeqCst) && !self.shutting {
                self.shutting = true;
                self.coalescer.flush_all();
            }
            if self.shutting {
                // Exit once every admitted request has answered; give
                // unread reply bytes a short grace so "OK bye" reaches the
                // shutdown initiator, but never let a client that stopped
                // reading hold the process open.
                self.route_completions();
                let answered = self.conns.values().all(|c| c.dead || c.inflight == 0);
                if answered {
                    self.drain_ticks += 1;
                    let flushed = self.conns.values().all(|c| c.dead || c.queued_bytes() == 0);
                    if flushed || self.drain_ticks > 20 {
                        return;
                    }
                }
            }
        }
    }

    /// Move finished coalescer replies into their connections and emit
    /// whatever is now in order.
    fn route_completions(&mut self) {
        let done: Vec<Completion> =
            self.completions.lock().expect("completions poisoned").drain(..).collect();
        for c in done {
            // The connection may have died while its query was in flight;
            // its reply is simply dropped.
            if let Some(conn) = self.conns.get_mut(&c.conn) {
                conn.inflight -= 1;
                conn.ready.insert(c.seq, c.line);
                pump_replies(conn);
            }
        }
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Same socket options as the blocking front end's
                    // `LineConn`: replies leave as they are written.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            rbuf: FrameBuf::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            next_seq: 0,
                            next_send: 0,
                            ready: BTreeMap::new(),
                            inflight: 0,
                            eof: false,
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn read_conn(&mut self, id: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(c) = self.conns.get_mut(&id) else { return };
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    c.eof = true;
                    break;
                }
                Ok(n) => {
                    c.rbuf.extend(&chunk[..n]);
                    while let Some(line) = self.conns.get_mut(&id).and_then(|c| c.rbuf.next_line())
                    {
                        self.handle_line(id, &line);
                    }
                    // Backpressure check between chunks: if handling these
                    // lines filled the write buffer past the cap, stop
                    // reading now; poll interest drops next iteration.
                    match self.conns.get(&id) {
                        Some(c) if c.queued_bytes() < self.cfg.write_buf_cap => {}
                        _ => break,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    c.dead = true;
                    break;
                }
            }
        }
    }

    fn handle_line(&mut self, id: u64, line: &str) {
        let Some(c) = self.conns.get_mut(&id) else { return };
        let seq = c.next_seq;
        c.next_seq += 1;
        let verb = line.split_ascii_whitespace().next().unwrap_or("");
        let reply = match verb {
            "QUERY" => match self.admit_query(id, seq, line) {
                Ok(()) => return, // the coalescer will complete it
                Err(msg) => format!("ERR {msg}"),
            },
            "FLUSH" => {
                let model = line.split_ascii_whitespace().nth(1);
                match model {
                    Some(m) => {
                        self.coalescer.flush(m);
                        format!("OK flushed {m}")
                    }
                    None => "ERR FLUSH: missing model".into(),
                }
            }
            "SHUTDOWN" => {
                self.stop.store(true, Ordering::SeqCst);
                "OK bye".into()
            }
            _ => dispatch(&self.handle, line),
        };
        self.complete_local(id, seq, reply);
    }

    /// Admit one QUERY: parse the header, resolve the model version (this
    /// is the hot-swap pin point), check dimensions and the pending
    /// budget, and hand the raw payload to the coalescer. Float parsing
    /// is deferred to the dispatcher threads.
    fn admit_query(&mut self, id: u64, seq: u64, line: &str) -> Result<(), String> {
        let mut tokens = line.split_ascii_whitespace();
        let _verb = tokens.next();
        let model = tokens.next().ok_or("QUERY: missing model")?;
        let m: usize = tokens
            .next()
            .ok_or("QUERY: m: missing")?
            .parse()
            .map_err(|e| format!("QUERY: m: {e}"))?;
        let d: usize = tokens
            .next()
            .ok_or("QUERY: d: missing")?
            .parse()
            .map_err(|e| format!("QUERY: d: {e}"))?;
        m.checked_mul(d).ok_or("QUERY: m*d overflows")?;
        let entry =
            self.handle.registry().get(model).ok_or_else(|| format!("unknown model `{model}`"))?;
        if d != entry.model.d() {
            // Same message the pool produces, so both front ends agree.
            return Err(format!(
                "query dimensionality {d} does not match model d={}",
                entry.model.d()
            ));
        }
        if m == 0 {
            // Zero-row queries need no kernel; answer inline like the
            // blocking path ("OK 0").
            self.complete_local(id, seq, "OK 0".into());
            return Ok(());
        }
        let pending = entry.stats.pending_rows();
        if pending + m as u64 > self.cfg.pending_budget as u64 {
            entry.stats.record_busy();
            return Err(format!(
                "BUSY model={model} pending={pending} budget={}",
                self.cfg.pending_budget
            ));
        }
        entry.stats.add_pending(m as u64);
        let payload = after_tokens(line, 4).to_string();
        let enq_ns = self.handle.clock().now_ns();
        self.coalescer.enqueue(Request { conn: id, seq, entry, m, d, payload, enq_ns });
        if let Some(c) = self.conns.get_mut(&id) {
            c.inflight += 1;
        }
        Ok(())
    }

    /// Deliver an inline (non-coalesced) reply through the same ordering
    /// machinery as coalesced ones.
    fn complete_local(&mut self, id: u64, seq: u64, line: String) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.ready.insert(seq, line);
            pump_replies(c);
        }
    }
}

/// Emit every reply that is next in sequence into the write buffer, then
/// push bytes to the socket.
fn pump_replies(c: &mut Conn) {
    while let Some(line) = c.ready.remove(&c.next_send) {
        c.wbuf.extend_from_slice(line.as_bytes());
        c.wbuf.push(b'\n');
        c.next_send += 1;
    }
    try_write(c);
}

/// Write as much of the buffer as the socket accepts; compact when done.
fn try_write(c: &mut Conn) {
    while c.wpos < c.wbuf.len() {
        match c.stream.write(&c.wbuf[c.wpos..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    if c.wpos == c.wbuf.len() {
        c.wbuf.clear();
        c.wpos = 0;
    } else if c.wpos > 64 * 1024 {
        c.wbuf.drain(..c.wpos);
        c.wpos = 0;
    }
}

/// The rest of `line` after its first `n` whitespace-separated tokens
/// (the raw QUERY payload; float parsing is deferred).
fn after_tokens(line: &str, n: usize) -> &str {
    let mut rest = line.trim_start();
    for _ in 0..n {
        match rest.find(|ch: char| ch.is_ascii_whitespace()) {
            Some(i) => rest = rest[i..].trim_start(),
            None => return "",
        }
    }
    rest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn after_tokens_splits_headers_from_payload() {
        assert_eq!(after_tokens("QUERY m 2 3 0.5 1.5", 4), "0.5 1.5");
        assert_eq!(after_tokens("  QUERY   m  1   2   7.0 8.0", 4), "7.0 8.0");
        assert_eq!(after_tokens("QUERY m 0 3", 4), "");
        assert_eq!(after_tokens("QUERY", 4), "");
    }
}

//! The line-delimited TCP front end: one request line in, one response
//! line out, over [`knor_mpi::LineConn`] framing.
//!
//! Grammar (tokens space-separated; floats formatted with Rust's `{:?}`,
//! which round-trips `f64` exactly, so even the text protocol is bitwise):
//!
//! ```text
//! TRAIN <model> <engine> <algospec> <k> <iters> <seed> [pruning=<none|mti>] <path>
//!                                               → OK job <id>
//! STATUS <job>                                  → OK queued|running|done <v>|failed <msg>
//! QUERY <model> <m> <d> <f0> <f1> … <f(m·d−1)>  → OK <m> <c>:<dist> …
//! STATS <model>                                 → OK queries=… qps=… io_skip_rows=…
//! METRICS                                       → OK <prometheus text, newline-escaped>
//! LIST                                          → OK <name>:v<ver>:<queries> …
//! SAVE <model> <dir>                            → OK saved <metapath>
//! SWAP <model> <version|latest>                 → OK serving <model> v<V>
//! ROLLBACK <model>                              → OK serving <model> v<V>
//! SHUTDOWN                                      → OK bye (server stops accepting)
//! a line over MAX_LINE_BYTES, or not UTF-8      → ERR <message>, then the server hangs up
//! anything else                                 → ERR <message>
//! ```
//!
//! (The full protocol reference lives in `docs/PROTOCOL.md`.)
//!
//! The server spawns one thread per connection; all of them share the
//! [`ServeHandle`], whose registry/pool/job-runner are already concurrent.
//! It is knor's one front end (DESIGN.md §14 says why).

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use knor_core::spec::{parse_train, Engine, RunSpec};
use knor_mpi::LineConn;

use crate::jobs::JobId;
use crate::{ServeError, ServeHandle, StatsSnapshot};

/// The longest request line the server reads, terminator included: 64 MiB,
/// about a hundred times a 1024-row, 32-column `QUERY`. A client cannot
/// make a connection thread hold more than this; a longer line is answered
/// with one `ERR` and the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// A running TCP server.
pub struct TcpServer {
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl TcpServer {
    /// Bind `addr` and start accepting. Returns once the listener is
    /// live; `knor serve` then blocks on [`TcpServer::join`].
    pub fn bind<A: ToSocketAddrs>(handle: ServeHandle, addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new().spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let handle = handle.clone();
                let stop = Arc::clone(&stop2);
                // A thread the OS refuses drops its stream (the client sees
                // the close) instead of panicking the accept loop away.
                let _ = std::thread::Builder::new().spawn(move || {
                    let _ = serve_conn(handle, stream, &stop, addr);
                });
            }
        })?;
        Ok(Self { addr, accept_thread: Some(accept_thread), stop })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server shuts down (via the `SHUTDOWN` command).
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting from this side (tests; clients use `SHUTDOWN`).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// The name of the deleted multiplexed front end's config, kept for
/// callers written against it; [`MuxServer`] ignores it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxConfig;

/// The name of the deleted multiplexed front end, kept for callers
/// written against it: a [`TcpServer`].
#[doc(hidden)]
pub struct MuxServer(TcpServer);

impl MuxServer {
    /// [`TcpServer::bind`]; the config is ignored.
    pub fn bind<A: ToSocketAddrs>(handle: ServeHandle, addr: A, _: MuxConfig) -> io::Result<Self> {
        TcpServer::bind(handle, addr).map(Self)
    }

    /// [`TcpServer::addr`].
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// [`TcpServer::join`].
    pub fn join(self) {
        self.0.join()
    }

    /// [`TcpServer::stop`].
    pub fn stop(self) {
        self.0.stop()
    }
}

/// One connection's request loop.
fn serve_conn(
    handle: ServeHandle,
    stream: TcpStream,
    stop: &AtomicBool,
    local_addr: SocketAddr,
) -> io::Result<()> {
    let mut conn = LineConn::new(stream)?;
    loop {
        let line = match conn.recv_line_capped(MAX_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            // Over the cap, the rest of the line cannot be told from the
            // next request: answer once and hang up. Not UTF-8 is the
            // same kind of error and goes the same way.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                conn.send_line(&format!("ERR {e}"))?;
                break;
            }
            Err(e) => return Err(e),
        };
        // Match the verb exactly like dispatch does, so a request that
        // answers "OK bye" always also stops the server.
        let shutting_down = line.split_ascii_whitespace().next() == Some("SHUTDOWN");
        let response = dispatch(&handle, &line);
        conn.send_line(&response)?;
        if shutting_down {
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(local_addr); // wake the accept loop
            break;
        }
    }
    Ok(())
}

/// Execute one request line, producing one response line.
pub fn dispatch(handle: &ServeHandle, line: &str) -> String {
    // The payload is written straight into the reply behind its `OK `
    // prefix: one buffer per reply, however many rows it carries.
    let mut reply = String::from("OK ");
    if let Err(msg) = try_dispatch(handle, line, &mut reply) {
        reply.clear();
        reply.push_str("ERR ");
        reply.push_str(&msg);
    }
    reply
}

/// Execute `line`, appending the success payload to `out`. (Writing to a
/// `String` cannot fail, hence the ignored `write!` results.)
fn try_dispatch(handle: &ServeHandle, line: &str, out: &mut String) -> Result<(), String> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or("empty request")?;
    match verb {
        "TRAIN" => {
            let id = handle.submit_train(parse_train(tokens)?);
            let _ = write!(out, "job {}", id.0);
        }
        "STATUS" => {
            let id: u64 = parse_tok(&mut tokens, "STATUS: job id")?;
            let status = handle.job_status(JobId(id)).ok_or("unknown job")?;
            out.push_str(&status.render());
        }
        "QUERY" => {
            let model = tokens.next().ok_or("QUERY: missing model")?;
            let m: usize = parse_tok(&mut tokens, "QUERY: m")?;
            let d: usize = parse_tok(&mut tokens, "QUERY: d")?;
            let total = m.checked_mul(d).ok_or("QUERY: m*d overflows")?;
            let clock = handle.clock();
            let t0 = clock.now_ns();
            let q = parse_query_values(&mut tokens, total)?;
            let t1 = clock.now_ns();
            let entry = handle
                .registry()
                .get(model)
                .ok_or_else(|| ServeError::UnknownModel(model.to_string()).to_string())?;
            let pred = handle.predict_entry(&entry, &q, d).map_err(|e| e.to_string())?;
            let t2 = clock.now_ns();
            write_predict_reply(out, &pred.assignments, &pred.distances);
            entry
                .stats
                .record_text_phases(t1.saturating_sub(t0), clock.now_ns().saturating_sub(t2));
        }
        "STATS" => {
            let model = tokens.next().ok_or("STATS: missing model")?;
            let entry = handle.registry().get(model).ok_or("unknown model")?;
            let s: StatsSnapshot = entry.stats.snapshot();
            let _ = write!(out, "{} io_skip_rows={}", s.render(), entry.train.io_skip_rows,);
        }
        "METRICS" => {
            out.push_str(&crate::metrics::escape_line(&crate::metrics::render_prometheus(handle)))
        }
        "LIST" => {
            let list = handle.list();
            if list.is_empty() {
                out.push_str("empty");
            }
            let models: Vec<String> =
                list.iter().map(|(name, v, q)| format!("{name}:v{v}:{q}")).collect();
            out.push_str(&models.join(" "));
        }
        "SAVE" => {
            let model = tokens.next().ok_or("SAVE: missing model")?.to_string();
            // Final field: rest of line, so spaced directories survive.
            let dir = tokens.collect::<Vec<_>>().join(" ");
            if dir.is_empty() {
                return Err("SAVE: missing dir".into());
            }
            let meta = handle.save_model(&model, Path::new(&dir)).map_err(|e| e.to_string())?;
            let _ = write!(out, "saved {}", meta.display());
        }
        "SWAP" => {
            let model = tokens.next().ok_or("SWAP: missing model")?;
            let vtok = tokens.next().ok_or("SWAP: missing version (number or `latest`)")?;
            let pin = match vtok {
                "latest" => None,
                v => Some(v.parse::<u32>().map_err(|e| format!("SWAP: version: {e}"))?),
            };
            let v = handle.registry().serve_pin(model, pin)?;
            let _ = write!(out, "serving {model} v{v}");
        }
        "ROLLBACK" => {
            let model = tokens.next().ok_or("ROLLBACK: missing model")?;
            let v = handle.registry().rollback(model)?;
            let _ = write!(out, "serving {model} v{v}");
        }
        "SHUTDOWN" => out.push_str("bye"),
        other => return Err(format!("unknown verb {other:?}")),
    }
    Ok(())
}

fn parse_tok<'a, T: std::str::FromStr>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let tok = tokens.next().ok_or_else(|| format!("{what}: missing"))?;
    tok.parse().map_err(|e| format!("{what}: {e}"))
}

/// Parse exactly `total` float tokens with the QUERY error contract
/// (`QUERY: missing value <i>` / `QUERY: value <i>: <parse error>`).
///
/// Pre-reservation is capped: a bogus header like `m=10^9` must fail on
/// the missing payload tokens, not abort the process in the allocator —
/// real growth is bounded by bytes actually received on the line.
fn parse_query_values<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    total: usize,
) -> Result<Vec<f64>, String> {
    let mut q = Vec::with_capacity(total.min(64 * 1024));
    for i in 0..total {
        let tok = tokens.next().ok_or_else(|| format!("QUERY: missing value {i}"))?;
        q.push(tok.parse::<f64>().map_err(|e| format!("QUERY: value {i}: {e}"))?);
    }
    Ok(q)
}

/// Append a QUERY success payload to `out`: `<m> <c>:<dist> …` with `{:?}`
/// floats (exact `f64` round trip), written in place — no per-row string.
fn write_predict_reply(out: &mut String, assignments: &[u32], distances: &[f64]) {
    let m = assignments.len();
    out.reserve(m * 24 + 8);
    let _ = write!(out, "{m}");
    for (a, dist) in assignments.iter().zip(distances) {
        let _ = write!(out, " {a}:{dist:?}");
    }
}

/// A CLI-side client for the protocol above.
pub struct Client {
    conn: LineConn,
}

impl Client {
    /// Connect to a serving instance.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self { conn: LineConn::connect(addr)? })
    }

    /// Model names are single protocol tokens; whitespace would silently
    /// shift every later field, so reject it client-side with a clear
    /// error. (Paths are fine: they are always the *last* field and the
    /// server consumes them to end-of-line.)
    fn check_name(model: &str) -> io::Result<()> {
        if model.is_empty() || model.contains(char::is_whitespace) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("model name {model:?} must be non-empty and whitespace-free"),
            ));
        }
        Ok(())
    }

    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        // The server would answer ERR only after reading the cap's worth,
        // and hang up on the rest of the line.
        if line.len() >= MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "request line of {} bytes is over the {MAX_LINE_BYTES}-byte cap",
                    line.len()
                ),
            ));
        }
        self.conn.send_line(line)?;
        let resp = self
            .conn
            .recv_line()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        match resp.strip_prefix("OK ") {
            Some(body) => Ok(body.to_string()),
            None => Err(io::Error::other(resp)),
        }
    }

    /// Submit `run` as a training job on `engine` over the server-local
    /// file `path`; returns the job id. The line carries the algorithm,
    /// `k`, the iteration cap, the seed and the pruning scheme.
    pub fn train(
        &mut self,
        model: &str,
        engine: &Engine,
        run: &RunSpec,
        path: &Path,
    ) -> io::Result<u64> {
        Self::check_name(model)?;
        let resp = self.round_trip(&run.render_train(model, engine, path))?;
        resp.strip_prefix("job ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad TRAIN response {resp:?}")))
    }

    /// Poll a job; returns the rendered status line (`queued`, `running`,
    /// `done <version>`, `failed <msg>`).
    pub fn status(&mut self, job: u64) -> io::Result<String> {
        self.round_trip(&format!("STATUS {job}"))
    }

    /// Block (poll) until the job terminates; returns the final status.
    /// The pause between polls doubles from 1 ms up to `poll`, so a short
    /// job is seen a millisecond or two after it finishes and a long one
    /// still costs one request per `poll`.
    pub fn wait(&mut self, job: u64, poll: std::time::Duration) -> io::Result<String> {
        let mut pause = poll.min(std::time::Duration::from_millis(1));
        loop {
            let s = self.status(job)?;
            if s.starts_with("done") || s.starts_with("failed") {
                return Ok(s);
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(poll);
        }
    }

    /// Send one query batch (flat row-major `m × d`); returns
    /// `(assignment, distance)` per row, bit-exact through the text
    /// framing.
    pub fn query_block(
        &mut self,
        model: &str,
        queries: &[f64],
        d: usize,
    ) -> io::Result<Vec<(u32, f64)>> {
        Self::check_name(model)?;
        if d == 0 || !queries.len().is_multiple_of(d) {
            // Same contract as the in-process pool: reject ragged blocks
            // instead of silently dropping a trailing partial row.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("query block of {} floats is not a multiple of d={d}", queries.len()),
            ));
        }
        let m = queries.len() / d.max(1);
        let mut line = String::with_capacity(queries.len() * 12 + 32);
        let _ = write!(line, "QUERY {model} {m} {d}");
        for x in queries {
            let _ = write!(line, " {x:?}");
        }
        let resp = self.round_trip(&line)?;
        let mut toks = resp.split_ascii_whitespace();
        let bad = |what: &str| io::Error::other(format!("bad QUERY response: {what}"));
        let got_m: usize = toks.next().and_then(|t| t.parse().ok()).ok_or_else(|| bad("count"))?;
        if got_m != m {
            return Err(bad("row count mismatch"));
        }
        let mut out = Vec::with_capacity(m);
        for t in toks {
            let (c, dist) = t.split_once(':').ok_or_else(|| bad("pair"))?;
            out.push((
                c.parse().map_err(|_| bad("cluster"))?,
                dist.parse().map_err(|_| bad("distance"))?,
            ));
        }
        if out.len() != m {
            return Err(bad("pair count"));
        }
        Ok(out)
    }

    /// Fetch a model's stats line.
    pub fn stats(&mut self, model: &str) -> io::Result<String> {
        Self::check_name(model)?;
        self.round_trip(&format!("STATS {model}"))
    }

    /// Fetch the Prometheus text-format metrics snapshot (multi-line;
    /// the wire escaping is undone here).
    pub fn metrics(&mut self) -> io::Result<String> {
        Ok(crate::metrics::unescape_line(&self.round_trip("METRICS")?))
    }

    /// Fetch the model listing.
    pub fn list(&mut self) -> io::Result<String> {
        self.round_trip("LIST")
    }

    /// Ask the server to save a model; returns the meta path.
    pub fn save(&mut self, model: &str, dir: &Path) -> io::Result<String> {
        Self::check_name(model)?;
        self.round_trip(&format!("SAVE {model} {}", dir.display()))
    }

    /// Pin the served version of a model (`None` = back to latest, i.e.
    /// auto-flip on training). Returns the server's `serving …` line.
    pub fn swap(&mut self, model: &str, version: Option<u32>) -> io::Result<String> {
        Self::check_name(model)?;
        let vtok = version.map_or("latest".to_string(), |v| v.to_string());
        self.round_trip(&format!("SWAP {model} {vtok}"))
    }

    /// Roll the served version back one step (and pin it there).
    pub fn rollback(&mut self, model: &str) -> io::Result<String> {
        Self::check_name(model)?;
        self.round_trip(&format!("ROLLBACK {model}"))
    }

    /// Stop the server.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.round_trip("SHUTDOWN").map(|_| ())
    }

    /// Wire bytes sent/received so far.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.conn.bytes_out(), self.conn.bytes_in())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{predict_serial, ServeConfig};
    use knor_core::spec::Entry;
    use knor_matrix::io as matrix_io;
    use knor_numa::Topology;
    use knor_workloads::MixtureSpec;

    fn spawn_server() -> (TcpServer, SocketAddr, ServeHandle) {
        let handle = ServeHandle::start(
            ServeConfig::default().with_threads(2).with_topology(Topology::synthetic(1, 2)),
        );
        let server = TcpServer::bind(handle.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        (server, addr, handle)
    }

    #[test]
    fn tcp_end_to_end_train_query_stats_shutdown() {
        let (server, addr, handle) = spawn_server();
        let data = MixtureSpec::friendster_like(400, 4, 5).generate().data;
        let path = std::env::temp_dir().join(format!("knor-serve-tcp-{}.knor", std::process::id()));
        matrix_io::write_matrix(&path, &data).unwrap();

        let mut c = Client::connect(addr).unwrap();
        let run = RunSpec::defaults(Entry::Train, 5).with_max_iters(20);
        let job = c.train("gmm", &Engine::Im, &run, &path).unwrap();
        let status = c.wait(job, std::time::Duration::from_millis(5)).unwrap();
        assert!(status.starts_with("done 1"), "{status}");

        // Query a batch over the wire and verify bit-exactness end to end.
        let q = &data.as_slice()[..32 * 4];
        let got = c.query_block("gmm", q, 4).unwrap();
        let entry = handle.registry().get("gmm").unwrap();
        let reference = predict_serial(&entry.model, q, 4);
        for (i, (c_got, d_got)) in got.iter().enumerate() {
            assert_eq!(*c_got, reference.assignments[i], "row {i}");
            assert_eq!(
                d_got.to_bits(),
                reference.distances[i].to_bits(),
                "row {i}: text framing must round-trip distances exactly"
            );
        }

        let stats = c.stats("gmm").unwrap();
        assert!(stats.contains("queries=32"), "{stats}");
        assert!(stats.contains("io_skip_rows=0") && !stats.contains("publish"), "{stats}");
        let metrics = c.metrics().unwrap();
        assert!(
            metrics.contains("knor_serve_queries_total{model=\"gmm\",version=\"1\"} 32"),
            "{metrics}"
        );
        assert!(metrics.contains("# TYPE knor_serve_batch_latency_ns histogram"), "{metrics}");
        assert!(metrics.lines().count() > 10, "metrics must arrive multi-line after unescaping");
        assert!(c.list().unwrap().contains("gmm:v1"), "listing");
        let (out_bytes, in_bytes) = c.wire_bytes();
        assert!(out_bytes > 0 && in_bytes > 0);

        // Error paths keep the connection alive.
        assert!(c.stats("ghost").is_err());
        assert!(c.query_block("ghost", &[0.0; 4], 4).is_err());
        assert!(c.list().is_ok(), "connection survives ERR responses");

        c.shutdown().unwrap();
        server.join(); // returns only because SHUTDOWN stopped the accept loop
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_over_long_request_line_is_answered_once_and_the_connection_closed() {
        use std::io::{BufRead, BufReader, Write};
        let (server, addr, _handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        // `LIST`, then blanks a MiB past the cap: the server stops reading
        // at the cap and hangs up, so the last writes may fail.
        let blanks = vec![b' '; 1 << 20];
        let _ = stream
            .write_all(b"LIST")
            .and_then(|()| (0..=MAX_LINE_BYTES >> 20).try_for_each(|_| stream.write_all(&blanks)))
            .and_then(|()| stream.write_all(b"\n"));
        let mut conn = BufReader::new(stream);
        let mut reply = String::new();
        conn.read_line(&mut reply).unwrap();
        assert!(
            reply == "ERR line longer than 67108864 bytes\n",
            "{:?}",
            &reply[..reply.len().min(80)]
        );
        let mut rest = String::new();
        assert!(matches!(conn.read_line(&mut rest), Ok(0) | Err(_)), "the server hung up");
        // The server still serves everyone else.
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.list().unwrap(), "empty");
        // The client refuses to send what the server would refuse.
        let err = c.save("m", Path::new(&"d".repeat(MAX_LINE_BYTES))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(c.list().unwrap(), "empty", "nothing was sent");
        server.stop();
    }

    #[test]
    fn dispatch_rejects_malformed_requests() {
        let handle = ServeHandle::start(
            ServeConfig::default().with_threads(1).with_topology(Topology::synthetic(1, 1)),
        );
        for bad in [
            "",
            "FROB x",
            "TRAIN only-a-name",
            "TRAIN m gpu lloyd 3 5 1 /tmp/x",
            "TRAIN m im lloyd 3 5 1 pruning=banana /tmp/x.knor",
            "TRAIN m im lloyd 3 5 1 pruning=yinyang /tmp/x.knor",
            "QUERY m 2 2 0.0", // too few values
            "STATUS notanumber",
        ] {
            let resp = dispatch(&handle, bad);
            assert!(resp.starts_with("ERR "), "{bad:?} → {resp}");
        }
        assert_eq!(dispatch(&handle, "LIST"), "OK empty");
        // Final-field paths may contain spaces (consumed to end-of-line).
        let resp = dispatch(&handle, "TRAIN m im lloyd 3 5 1 /tmp/with space.knor");
        assert!(resp.starts_with("OK job "), "{resp}");
        // dist-sem is a valid engine token (SEM-plane ranks).
        let resp = dispatch(&handle, "TRAIN m2 dist-sem lloyd 3 5 1 /tmp/x.knor");
        assert!(resp.starts_with("OK job "), "{resp}");
        // The optional pruning token parses and never eats the path.
        let resp = dispatch(&handle, "TRAIN m3 im lloyd 3 5 1 pruning=mti /tmp/x.knor");
        assert!(resp.starts_with("OK job "), "{resp}");
        // Client-side: model names must be single tokens.
        let mut c = Client::connect(TcpServer::bind(handle, "127.0.0.1:0").unwrap().addr())
            .unwrap_or_else(|e| panic!("connect: {e}"));
        assert!(c.stats("two words").is_err());
        assert!(c.query_block("", &[0.0], 1).is_err());
        assert!(c.query_block("m", &[0.0; 10], 4).is_err(), "ragged block must be rejected");
        assert!(c.query_block("m", &[0.0; 4], 0).is_err());
    }

    #[test]
    fn reply_formatter_matches_the_per_row_format_it_replaced() {
        // The reply used to be built from one `format!("{a}:{dist:?}")` per
        // row; the in-place writer must produce the same bytes, including
        // for the distances `{:?}` spells specially.
        let distances = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324, // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            1e21,
            0.1 + 0.2,
            2.0,
        ];
        let assignments: Vec<u32> = (0..distances.len() as u32).map(|i| i * 1_000_003).collect();
        for m in [0, 1, distances.len()] {
            let mut old = m.to_string();
            for (a, dist) in assignments[..m].iter().zip(&distances[..m]) {
                old.push(' ');
                old.push_str(&format!("{a}:{dist:?}"));
            }
            let mut new = String::from("OK ");
            write_predict_reply(&mut new, &assignments[..m], &distances[..m]);
            assert_eq!(new, format!("OK {old}"), "m = {m}");
        }
    }

    #[test]
    fn huge_claimed_query_header_is_an_error_not_an_abort() {
        let handle = ServeHandle::start(
            ServeConfig::default().with_threads(1).with_topology(Topology::synthetic(1, 1)),
        );
        // A bogus header claiming ~10^12 values must fail cleanly on the
        // missing payload, never reserve memory for the claim.
        let resp = dispatch(&handle, "QUERY m 1000000000 1000 0.5");
        assert!(resp.starts_with("ERR "), "{resp}");
        let resp = dispatch(&handle, &format!("QUERY m {} {} 0.5", usize::MAX, 2));
        assert!(resp.starts_with("ERR "), "{resp}");
    }
}

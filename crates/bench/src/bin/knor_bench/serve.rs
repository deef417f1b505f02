//! `serve_mix`, end to end: `knor serve` with whatever front end is the
//! default on the commit under test, a model trained through it, then a
//! closed loop (callers wait for replies) of T connections with one
//! request in flight each — a phase of 1-row QUERYs, then a phase of
//! 1024-row QUERYs. One front end used two ways, so a gain for one use
//! that costs the other shows in the same run.
//!
//! The client side is `knor_mpi::LineConn`, the transport `knor query`
//! and `knor_serve::tcp::Client` use, with exactly the socket options it
//! sets (none) and its write pattern. Request lines are formatted at
//! set-up; a request is timed from its first byte written to its reply
//! line read.

use crate::catalog::SERVE_MIX;
use crate::child::{self, Server};
use crate::inputs::{self, Data};
use crate::json::{count, num, string};
use crate::report::Report;
use crate::stats::{self, max, median, min, Summary, Timed};
use crate::train::{self, Scale};
use crate::Params;
use knor_matrix::DMatrix;
use knor_mpi::LineConn;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const MODEL: &str = "m";
/// The model: `knor train --engine im -k 64 -i 10` on the clustered file.
const TRAIN_K: usize = 64;
const TRAIN_ITERS: usize = 10;
/// Set-up cycles per run (spawn serve -> train -> first answer).
const CYCLES: usize = 5;
pub const BULK_ROWS: usize = 1024;
/// The reference mix `wall_s` prices at the measured rates: this many
/// 1-row and this many 1024-row requests.
const MIX_SMALL: usize = 100_000;
const MIX_BULK: usize = 100;
/// Distinct request lines each connection cycles through.
const SMALL_LINES: usize = 512;
const BULK_LINES: usize = 4;
/// Every `SAMPLE`-th reply is kept and checked against a brute-force scan.
const SAMPLE: usize = 100;

/// The clustered input and the query rows cut from its head.
pub struct Inputs {
    pub file: PathBuf,
    pub queries: DMatrix,
}

pub fn prepare(p: Params) -> io::Result<Inputs> {
    let w = train::workload(crate::catalog::IM_PRUNED, p.scale).expect("im_pruned is a workload");
    let file = inputs::ensure(Data::Clustered, w.n, w.d, p.seed)?;
    let need = p.threads * (SMALL_LINES + BULK_LINES * BULK_ROWS);
    let queries = knor_matrix::io::read_rows(&file, 0, need.min(w.n))?;
    Ok(Inputs { file, queries })
}

/// `QUERY <model> <m> <d> <floats…>` for rows `start..start + m`, floats
/// in the `{:?}` form `Client::query_block` sends.
pub fn query_line(queries: &DMatrix, start: usize, m: usize) -> String {
    let d = queries.ncol();
    let start = start % (queries.nrow() - m + 1);
    let mut line = format!("QUERY {MODEL} {m} {d}");
    for x in &queries.as_slice()[start * d..(start + m) * d] {
        line.push_str(&format!(" {x:?}"));
    }
    line
}

/// The request lines of one connection and the first row of each.
pub struct Script {
    pub rows_per_request: usize,
    pub lines: Vec<(usize, String)>,
}

fn scripts(queries: &DMatrix, threads: usize, rows_per_request: usize) -> Vec<Script> {
    let per_conn = if rows_per_request == 1 { SMALL_LINES } else { BULK_LINES };
    (0..threads)
        .map(|c| Script {
            rows_per_request,
            lines: (0..per_conn)
                .map(|j| {
                    let start = (c * per_conn + j) * rows_per_request;
                    (start, query_line(queries, start, rows_per_request))
                })
                .collect(),
        })
        .collect()
}

/// One `spawn serve -> train --wait -> first QUERY answered` cycle.
pub struct Cycle {
    pub setup_s: f64,
    /// Bytes the server had read when it first answered: the train job's
    /// file read.
    pub read_mb: f64,
    pub ok: bool,
}

fn setup_cycle(
    knor: &Path,
    file: &Path,
    first_query: &str,
    threads: usize,
) -> io::Result<(Server, Cycle)> {
    let t0 = Instant::now();
    let server = Server::spawn(knor, threads)?;
    let args: Vec<String> = [
        "train",
        "--addr",
        &server.addr,
        "--model",
        MODEL,
        "--engine",
        "im",
        "-k",
        &TRAIN_K.to_string(),
        "-i",
        &TRAIN_ITERS.to_string(),
        "--file",
        &file.display().to_string(),
        "--wait",
    ]
    .map(String::from)
    .to_vec();
    let trained = child::run(knor, &args)?;
    let mut ok = trained.success && trained.stdout.contains(": done");
    let mut conn = LineConn::connect(&*server.addr)?;
    conn.send_line(first_query)?;
    ok &= conn.recv_line()?.is_some_and(|r| r.starts_with("OK 1 "));
    let setup_s = t0.elapsed().as_secs_f64();
    let read_mb = child::bytes_read(server.pid())? as f64 / 1e6;
    Ok((server, Cycle { setup_s, read_mb, ok }))
}

/// `knor ctl --addr A <words>`; true when it exits 0.
pub fn ctl(knor: &Path, addr: &str, words: &[&str]) -> io::Result<child::Finished> {
    let mut args: Vec<String> = vec!["ctl".into(), "--addr".into(), addr.into()];
    args.extend(words.iter().map(|w| w.to_string()));
    child::run(knor, &args)
}

/// Ask the server to stop and check that it exits cleanly by itself.
pub fn shutdown(knor: &Path, server: Server) -> io::Result<bool> {
    if !ctl(knor, &server.addr, &["shutdown"])?.success {
        return Ok(false);
    }
    server.wait_clean_exit()
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Timed>,
    /// `(first row, rows, reply)` of every `SAMPLE`-th request.
    pub kept: Vec<(usize, usize, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub rows_answered: u64,
    pub duration_s: f64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

/// `OK <m> …` with the right `m`. Errors, refusals (`ERR BUSY`) and wrong
/// row counts all fail here.
fn reply_has_rows(reply: &str, m: usize) -> bool {
    reply.strip_prefix("OK ").and_then(|r| r.split(' ').next()).and_then(|t| t.parse().ok())
        == Some(m)
}

/// Drive every script on its own connection and thread for `duration`.
fn run_phase(addr: &str, scripts: &[Script], duration: Duration) -> io::Result<Phase> {
    // Connect before any thread waits at the gate: a refused connection
    // must be an error, not a barrier one party short.
    let conns: Vec<LineConn> =
        scripts.iter().map(|_| LineConn::connect(addr)).collect::<io::Result<_>>()?;
    let gate = Barrier::new(scripts.len() + 1);
    let (mut phase, start) = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(conns)
            .map(|(script, mut conn)| {
                let gate = &gate;
                scope.spawn(move || -> io::Result<Phase> {
                    let mut out = Phase::default();
                    gate.wait();
                    let start = Instant::now();
                    for (i, (first_row, line)) in script.lines.iter().cycle().enumerate() {
                        let sent = Instant::now();
                        if sent.duration_since(start) >= duration {
                            break;
                        }
                        conn.send_line(line)?;
                        let reply = conn.recv_line()?;
                        let done = Instant::now();
                        out.attempted += 1;
                        match reply.filter(|r| reply_has_rows(r, script.rows_per_request)) {
                            Some(reply) => {
                                out.rows_answered += script.rows_per_request as u64;
                                out.samples.push(Timed {
                                    at_s: done.duration_since(start).as_secs_f64(),
                                    latency_s: done.duration_since(sent).as_secs_f64(),
                                });
                                if i % SAMPLE == 0 {
                                    out.kept.push((*first_row, script.rows_per_request, reply));
                                }
                            }
                            None => out.failed += 1,
                        }
                    }
                    out.bytes_out = conn.bytes_out();
                    out.bytes_in = conn.bytes_in();
                    Ok(out)
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let mut all = Phase::default();
        for h in handles {
            let one = h.join().expect("client thread panicked")?;
            all.samples.extend(one.samples);
            all.kept.extend(one.kept);
            all.attempted += one.attempted;
            all.failed += one.failed;
            all.rows_answered += one.rows_answered;
            all.bytes_out += one.bytes_out;
            all.bytes_in += one.bytes_in;
        }
        Ok::<_, io::Error>((all, start))
    })?;
    phase.duration_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_s).collect()
    }
}

/// Check one kept reply against a brute-force nearest scan over the
/// saved centroids: same cluster (or an exact tie) and the same distance
/// to 1e-9 relative, for every row of the request.
fn reply_is_nearest(
    reply: &str,
    queries: &DMatrix,
    first_row: usize,
    m: usize,
    centroids: &DMatrix,
) -> Result<(), String> {
    let d = queries.ncol();
    let first_row = first_row % (queries.nrow() - m + 1);
    let pairs: Vec<&str> = reply.split(' ').skip(2).collect();
    if pairs.len() != m {
        return Err(format!("{} pairs for {m} rows", pairs.len()));
    }
    for (i, pair) in pairs.iter().enumerate() {
        let (c, dist) = pair.split_once(':').ok_or(format!("bad pair {pair:?}"))?;
        let c: usize = c.parse().map_err(|e| format!("cluster {c:?}: {e}"))?;
        let dist: f64 = dist.parse().map_err(|e| format!("distance {dist:?}: {e}"))?;
        let row = queries.row(first_row + i);
        let sq = |cent: &[f64]| row.iter().zip(cent).map(|(x, y)| (x - y) * (x - y)).sum::<f64>();
        let best = centroids.rows().map(sq).fold(f64::INFINITY, f64::min).sqrt();
        let claimed = centroids
            .rows()
            .nth(c)
            .map(sq)
            .ok_or(format!("cluster {c} of {}", centroids.nrow()))?
            .sqrt();
        let tol = 1e-9 * best.max(1.0);
        if (claimed - best).abs() > tol || (dist - best).abs() > tol {
            return Err(format!(
                "row {}: reply {c}:{dist}, scan finds {best} (d = {d})",
                first_row + i
            ));
        }
    }
    Ok(())
}

/// `knor ctl save` the model; returns its `.meta` path and centroids.
fn saved_model(knor: &Path, addr: &str) -> io::Result<(PathBuf, DMatrix)> {
    let dir = inputs::results_dir().join("work").join("saved");
    std::fs::create_dir_all(&dir)?;
    let saved = ctl(knor, addr, &["save", MODEL, &dir.display().to_string()])?;
    // `saved <dir>/m-v1.meta`; the matrix sits beside the sidecar.
    let meta = saved.stdout.trim().strip_prefix("saved ").map(PathBuf::from);
    match meta.filter(|_| saved.success) {
        Some(meta) => {
            let centroids = knor_matrix::io::read_matrix(&meta.with_extension("knor"))?;
            Ok((meta, centroids))
        }
        None => Err(io::Error::other(format!("ctl save said {:?}", saved.stdout))),
    }
}

/// Check every kept reply of the phases; returns `(checked, first error)`.
fn check_kept(
    phases: &[&Phase],
    queries: &DMatrix,
    centroids: &DMatrix,
) -> (usize, Option<String>) {
    let mut checked = 0;
    for (first_row, m, reply) in phases.iter().flat_map(|p| &p.kept) {
        checked += 1;
        if let Err(e) = reply_is_nearest(reply, queries, *first_row, *m, centroids) {
            return (checked, Some(e));
        }
    }
    (checked, None)
}

/// The part of a window both modes share: `cycles` set-up cycles (all
/// but the last shut down again), then the two phases against the last
/// cycle's server, then the reply checks.
pub struct Session {
    pub cycles: Vec<Cycle>,
    pub small: Phase,
    pub bulk: Phase,
    pub server_peak_rss_mb: f64,
    /// The `.meta` sidecar `ctl save` wrote for the served model.
    pub model_meta: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    pub clean_exits: bool,
    pub checked: usize,
    pub check_error: Option<String>,
}

/// Run a session. The last cycle's server is handed back still running,
/// for the caller to read its counters and shut it down.
pub fn session(
    knor: &Path,
    inputs: &Inputs,
    p: Params,
    cycles: usize,
    t0: Instant,
) -> io::Result<(Server, Session)> {
    let small_scripts = scripts(&inputs.queries, p.threads, 1);
    let bulk_scripts = scripts(&inputs.queries, p.threads, BULK_ROWS);
    let first_query = &small_scripts[0].lines[0].1;
    let (mut attempted, mut failed, mut clean_exits) = (0, 0, true);
    let mut timings = Vec::new();
    let mut server = None;
    for i in 0..cycles {
        let (cycle_server, cycle) = setup_cycle(knor, &inputs.file, first_query, p.threads)?;
        attempted += 1;
        let mut ok = cycle.ok;
        timings.push(cycle);
        if i + 1 < cycles {
            let clean = shutdown(knor, cycle_server)?;
            clean_exits &= clean;
            ok &= clean;
        } else {
            server = Some(cycle_server);
        }
        failed += u64::from(!ok);
    }
    let server = server.expect("at least one cycle");
    // Two phases of half the remaining window each.
    let left = p.seconds - t0.elapsed().as_secs_f64() - 1.0;
    let phase = Duration::from_secs_f64((left / 2.0).max(0.5));
    let small = run_phase(&server.addr, &small_scripts, phase)?;
    let bulk = run_phase(&server.addr, &bulk_scripts, phase)?;
    let server_peak_rss_mb = child::peak_rss_mb(server.pid())?;
    let (model_meta, centroids) = saved_model(knor, &server.addr)?;
    let (checked, check_error) = check_kept(&[&small, &bulk], &inputs.queries, &centroids);
    attempted += small.attempted + bulk.attempted;
    failed += small.failed + bulk.failed;
    let session = Session {
        cycles: timings,
        small,
        bulk,
        server_peak_rss_mb,
        model_meta,
        attempted,
        failed,
        clean_exits,
        checked,
        check_error,
    };
    Ok((server, session))
}

/// Record the checks both modes make of a session.
pub fn record_checks(r: &mut Report, s: &Session, clean_exit: bool) {
    r.attempted = s.attempted;
    r.failed = s.failed;
    r.check(
        "serve.every_reply_has_its_row_count",
        s.small.failed + s.bulk.failed == 0,
        format!(
            "{} small and {} bulk requests, {} failed",
            s.small.attempted,
            s.bulk.attempted,
            s.small.failed + s.bulk.failed
        ),
    );
    r.check(
        "serve.sampled_replies_match_a_brute_force_scan",
        s.check_error.is_none() && s.checked > 0,
        s.check_error
            .clone()
            .unwrap_or(format!("{} replies against `ctl save`d centroids", s.checked)),
    );
    r.check(
        "serve.exits_cleanly_on_ctl_shutdown",
        s.clean_exits && clean_exit,
        format!("{} servers", s.cycles.len()),
    );
}

pub fn run(p: Params) -> io::Result<Report> {
    let t0 = Instant::now();
    let knor = child::knor_bin()?;
    let inputs = prepare(p)?;
    let cycles = if p.scale == Scale::Full { CYCLES } else { 2 };
    let (server, s) = session(&knor, &inputs, p, cycles, t0)?;
    let clean_exit = shutdown(&knor, server)?;
    let mut r = Report::new(SERVE_MIX, false);
    record_checks(&mut r, &s, clean_exit);
    if s.small.samples.is_empty() || s.bulk.samples.is_empty() {
        return Ok(r);
    }
    let setups: Vec<f64> = s.cycles.iter().map(|c| c.setup_s).collect();
    let reads: Vec<f64> = s.cycles.iter().map(|c| c.read_mb).collect();
    let small_us: Vec<f64> = s.small.latencies().iter().map(|x| x * 1e6).collect();
    let small_p01_us = stats::percentile(&small_us, 0.01);
    // Closed loop: each connection answers one request per latency. The
    // median latency, not the mean, so that a burst of interference
    // counts as the few requests it touched.
    let bulk_s = s.bulk.latencies();
    let bulk_rows_per_s = (p.threads * BULK_ROWS) as f64 / median(&bulk_s);
    r.value(
        "wall_s",
        MIX_SMALL as f64 * small_p01_us / 1e6 + (MIX_BULK * BULK_ROWS) as f64 / bulk_rows_per_s,
    );
    r.sampled("setup_s", min(&setups), &setups);
    r.value("peak_rss_mb", s.server_peak_rss_mb);
    r.sampled("io_read_mb", max(&reads), &reads);
    r.sampled("small_p01_us", small_p01_us, &small_us);
    r.value("bulk_rows_per_s", bulk_rows_per_s);
    r.note("bulk_latency_s", Summary::of(&bulk_s).to_json());
    r.note("bulk_rows_per_phase_s", num(s.bulk.rows_answered as f64 / s.bulk.duration_s));
    r.note("front_end", string("default (`knor serve` without --mux)"));
    r.note("connections", count(p.threads as u64));
    r.note("small_requests", count(s.small.attempted));
    r.note("bulk_requests", count(s.bulk.attempted));
    r.note("phase_s", num(s.small.duration_s));
    r.note("window_s", num(t0.elapsed().as_secs_f64()));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` rows in 2-d: row i = (i, 2i).
    fn grid(rows: usize) -> DMatrix {
        DMatrix::from_vec((0..rows).flat_map(|i| [i as f64, 2.0 * i as f64]).collect(), rows, 2)
    }

    #[test]
    fn request_lines_are_protocol_queries() {
        let q = grid(16);
        assert_eq!(query_line(&q, 3, 1), "QUERY m 1 2 3.0 6.0");
        assert_eq!(query_line(&q, 0, 2), "QUERY m 2 2 0.0 0.0 1.0 2.0");
        // Starts beyond the matrix wrap instead of overrunning it.
        assert_eq!(query_line(&q, 16, 1), query_line(&q, 0, 1));
        let s = scripts(&grid(2 * SMALL_LINES), 2, 1);
        assert_eq!((s.len(), s[0].lines.len()), (2, SMALL_LINES));
        assert_ne!(s[0].lines[0].1, s[1].lines[0].1, "connections send different rows");
    }

    #[test]
    fn replies_are_checked_for_row_count_and_nearest_centroid() {
        assert!(reply_has_rows("OK 1 3:0.5", 1));
        assert!(!reply_has_rows("OK 2 3:0.5 1:0.1", 1));
        assert!(!reply_has_rows("ERR BUSY model=m pending=9 budget=8", 1));
        let q = grid(16);
        let cents = DMatrix::from_vec(vec![0.0, 0.0, 10.0, 20.0], 2, 2);
        // Row 1 = (1,2): nearest is centroid 0 at sqrt(5).
        let good = format!("OK 1 0:{:?}", 5f64.sqrt());
        assert_eq!(reply_is_nearest(&good, &q, 1, 1, &cents), Ok(()));
        let wrong_cluster = format!("OK 1 1:{:?}", 5f64.sqrt());
        assert!(reply_is_nearest(&wrong_cluster, &q, 1, 1, &cents).is_err());
        assert!(reply_is_nearest("OK 1 0:2.0", &q, 1, 1, &cents).is_err());
        assert!(reply_is_nearest("OK 1 7:2.0", &q, 1, 1, &cents).is_err());
        assert!(reply_is_nearest("OK 2 0:2.0", &q, 1, 2, &cents).is_err());
    }
}

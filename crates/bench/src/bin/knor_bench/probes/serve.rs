//! Traced run of `serve_mix`: a short session against the child server
//! for the client's view and the server's own phase counters, then the
//! serving layers called in-process — the pool, the protocol dispatch
//! without a socket, and both front ends on a loopback connection.

use super::SAMPLES;
use crate::child;
use crate::json::count;
use crate::report::Report;
use crate::serve::{self, query_line, BULK_ROWS, MODEL};
use crate::spans::Recorder;
use crate::stats::{max, median, percentile, sliced_p99};
use crate::Params;
use knor_mpi::LineConn;
use knor_serve::tcp::{dispatch, TcpServer};
use knor_serve::{MuxConfig, MuxServer, ServeConfig, ServeHandle};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of the window the session against the child server gets; the
/// in-process probes take the rest.
const SESSION_SHARE: f64 = 0.45;
/// Single-row calls per sample of a microsecond-scale probe.
const SMALL_CALLS: usize = 2_000;
/// 1024-row calls per sample.
const BULK_CALLS: usize = 8;
/// Requests in flight per connection, and rows per request, of the
/// mux fan-in probe.
const FANIN_IN_FLIGHT: usize = 64;
const FANIN_ROWS: usize = 8;

fn scaled(xs: &[f64], by: f64) -> Vec<f64> {
    xs.iter().map(|x| x * by).collect()
}

/// Mean seconds per call of `SAMPLES` batches of `calls` calls.
fn per_call_s(rec: &mut Recorder, name: &str, calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..SAMPLES as u32)
        .map(|rep| {
            let ((), s) = rec.time(name, rep, || (0..calls).for_each(|_| f()));
            s / calls as f64
        })
        .collect()
}

/// `knor_serve_request_phase_ns_total{…phase="<phase>"}` of a METRICS dump.
fn phase_ns(metrics: &str, phase: &str) -> Option<f64> {
    let tag = format!("phase=\"{phase}\"");
    metrics
        .lines()
        .find(|l| l.starts_with("knor_serve_request_phase_ns_total{") && l.contains(&tag))?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()
}

/// One closed-loop connection to a front end: `n` requests of `line`,
/// latency of each in seconds.
fn round_trips(addr: &str, line: &str, n: usize) -> io::Result<Vec<f64>> {
    let mut conn = LineConn::connect(addr)?;
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            conn.send_line(line)?;
            match conn.recv_line()? {
                Some(reply) if reply.starts_with("OK ") => Ok(t0.elapsed().as_secs_f64()),
                other => Err(io::Error::other(format!("front end answered {other:?}"))),
            }
        })
        .collect()
}

/// T connections each keeping `FANIN_IN_FLIGHT` small requests in flight
/// for `duration`; rows answered per second.
fn fan_in(addr: &str, lines: &[String], threads: usize, duration: Duration) -> io::Result<f64> {
    let t0 = Instant::now();
    let rows = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                scope.spawn(move || -> io::Result<u64> {
                    let mut conn = LineConn::connect(addr)?;
                    let mut lines = lines.iter().cycle().skip(c);
                    let mut next = || lines.next().expect("cycle never ends");
                    for _ in 0..FANIN_IN_FLIGHT {
                        conn.send_line(next())?;
                    }
                    let mut answered = 0;
                    let start = Instant::now();
                    while start.elapsed() < duration {
                        if !conn.recv_line()?.is_some_and(|r| r.starts_with("OK ")) {
                            return Err(io::Error::other("mux refused a pipelined request"));
                        }
                        answered += FANIN_ROWS as u64;
                        conn.send_line(next())?;
                    }
                    // Drain what is still in flight so the server can close.
                    for _ in 0..FANIN_IN_FLIGHT {
                        conn.recv_line()?;
                    }
                    Ok(answered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-in thread panicked"))
            .sum::<io::Result<u64>>()
    })?;
    Ok(rows as f64 / t0.elapsed().as_secs_f64())
}

fn loaded_handle(meta: &Path, threads: usize) -> io::Result<ServeHandle> {
    let handle = ServeHandle::start(ServeConfig::default().with_threads(threads));
    handle.load_model(meta).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(handle)
}

pub fn run(p: Params, rec: &mut Recorder, r: &mut Report) -> io::Result<()> {
    let t0 = Instant::now();
    let knor = child::knor_bin()?;
    let inputs = serve::prepare(p)?;
    let d = inputs.queries.ncol();

    // The client's view and the server's own counters.
    let session_span = rec.open("client.session", 0);
    let window = Params { seconds: p.seconds * SESSION_SHARE, ..p };
    let (server, s) = serve::session(&knor, &inputs, window, 1, t0)?;
    rec.close(session_span);
    let metrics = serve::ctl(&knor, &server.addr, &["metrics"])?.stdout;
    let clean_exit = serve::shutdown(&knor, server)?;
    serve::record_checks(r, &s, clean_exit);
    let meta = &s.model_meta;

    let small = s.small.latencies();
    let bulk = s.bulk.latencies();
    if small.is_empty() || bulk.is_empty() {
        return Ok(());
    }
    let us = |x: f64| x * 1e6;
    let small_p50 = median(&small);
    r.value("client.requests", (s.small.attempted + s.bulk.attempted) as f64);
    r.value("client.small_p50_us", us(small_p50));
    // The sliced tail when the slices are full enough, else (short smoke
    // windows) the plain p99 of the phase.
    let (tail_s, slices) =
        sliced_p99(&s.small.samples, 1.0).unwrap_or_else(|| (percentile(&small, 0.99), 0));
    r.value("client.small_p99_us", us(tail_s));
    r.note("small_p99_slices", count(slices as u64));
    r.value("client.small_p90_us", us(percentile(&small, 0.90)));
    r.value("client.small_p999_us", us(percentile(&small, 0.999)));
    r.value("client.small_max_us", us(max(&small)));
    r.value("client.bulk_p50_ms", median(&bulk) * 1e3);
    r.value("client.bulk_p99_ms", percentile(&bulk, 0.99) * 1e3);
    let requests = (s.small.attempted + s.bulk.attempted) as f64;
    r.value("client.bytes_out_per_req", (s.small.bytes_out + s.bulk.bytes_out) as f64 / requests);
    r.value("client.bytes_in_per_req", (s.small.bytes_in + s.bulk.bytes_in) as f64 / requests);

    // serve::stats: the server's per-phase time against the time clients
    // spent waiting for it. What no phase covers is socket, parse and
    // format time — and any stall between the two ends.
    let waited_ns = (small.iter().sum::<f64>() + bulk.iter().sum::<f64>()) * 1e9;
    let mut covered = 0.0;
    for phase in ["enqueue", "dispatch", "kernel", "reply"] {
        let ns = phase_ns(&metrics, phase)
            .ok_or_else(|| io::Error::other(format!("no {phase} phase in METRICS")))?;
        r.value(&format!("serve.phase_{phase}_frac"), ns / waited_ns);
        covered += ns / waited_ns;
    }
    r.value("serve.unattributed_frac", 1.0 - covered);

    // serve::pool and serve::tcp, no socket.
    let handle = loaded_handle(meta, p.threads)?;
    let row = &inputs.queries.as_slice()[..d];
    let block = &inputs.queries.as_slice()[..BULK_ROWS * d];
    let (line1, line1024) =
        (query_line(&inputs.queries, 0, 1), query_line(&inputs.queries, 0, BULK_ROWS));
    let predict = |rows: &[f64]| {
        black_box(handle.predict_rows(MODEL, black_box(rows), d).expect("model is loaded"));
    };
    let predict1 = per_call_s(rec, "pool.predict_rows(1)", SMALL_CALLS, || predict(row));
    r.sampled("pool.predict1_us", us(median(&predict1)), &scaled(&predict1, 1e6));
    let predict1024 = per_call_s(rec, "pool.predict_rows(1024)", BULK_CALLS, || predict(block));
    let rates: Vec<f64> = predict1024.iter().map(|s| BULK_ROWS as f64 / s).collect();
    r.sampled("pool.predict1024_rows_per_s", median(&rates), &rates);
    let dispatch1 = per_call_s(rec, "tcp.dispatch(1)", SMALL_CALLS, || {
        black_box(dispatch(&handle, black_box(&line1)));
    });
    r.sampled("tcp.dispatch1_us", us(median(&dispatch1)), &scaled(&dispatch1, 1e6));
    let dispatch1024 = per_call_s(rec, "tcp.dispatch(1024)", BULK_CALLS, || {
        black_box(dispatch(&handle, black_box(&line1024)));
    });
    r.sampled("tcp.dispatch1024_ms", median(&dispatch1024) * 1e3, &scaled(&dispatch1024, 1e3));
    r.value("tcp.parse_format_frac_1024", 1.0 - median(&predict1024) / median(&dispatch1024));
    r.value("net.socket_us_1", us(small_p50 - median(&dispatch1)));

    // Both front ends in-process, one loopback connection.
    let blocking = TcpServer::bind(handle.clone(), "127.0.0.1:0")?;
    let addr = blocking.addr().to_string();
    let (b1, _) = rec.time("tcp.blocking(1)", 0, || round_trips(&addr, &line1, SMALL_CALLS));
    let (b1024, _) = rec.time("tcp.blocking(1024)", 0, || round_trips(&addr, &line1024, SAMPLES));
    blocking.stop();
    let (b1, b1024) = (b1?, b1024?);
    r.sampled("tcp.blocking_b1_p50_us", us(median(&b1)), &scaled(&b1, 1e6));
    r.sampled("tcp.blocking_b1024_ms", median(&b1024) * 1e3, &scaled(&b1024, 1e3));

    // A handle of its own, so the coalescer counters are the mux's alone.
    let mux_handle = loaded_handle(meta, p.threads)?;
    let mux = MuxServer::bind(mux_handle.clone(), "127.0.0.1:0", MuxConfig::default())?;
    let addr = mux.addr().to_string();
    let (m1, _) = rec.time("mux(1)", 0, || round_trips(&addr, &line1, SMALL_CALLS));
    let (m1024, _) = rec.time("mux(1024)", 0, || round_trips(&addr, &line1024, SAMPLES));
    let fanin_lines: Vec<String> =
        (0..64).map(|i| query_line(&inputs.queries, i * FANIN_ROWS, FANIN_ROWS)).collect();
    let fanin_for = Duration::from_secs_f64((p.seconds * 0.05).max(0.2));
    let (fanin, _) = rec.time("mux.fanin", 0, || fan_in(&addr, &fanin_lines, p.threads, fanin_for));
    let mux_stats = mux_handle.stats(MODEL);
    mux.stop();
    let (m1, m1024) = (m1?, m1024?);
    r.sampled("mux.b1_p50_us", us(median(&m1)), &scaled(&m1, 1e6));
    r.sampled("mux.b1024_ms", median(&m1024) * 1e3, &scaled(&m1024, 1e3));
    r.value("mux.fanin_rows_per_s", fanin?);
    let mux_stats = mux_stats.expect("model is loaded");
    r.value("mux.coalesced_mean_rows", mux_stats.coalesced_mean);
    r.value("mux.busy", mux_stats.busy as f64);
    r.note("connections", count(p.threads as u64));
    r.note("small_requests", count(s.small.attempted));
    r.note("bulk_requests", count(s.bulk.attempted));
    Ok(())
}

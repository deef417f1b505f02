//! The CI bench-regression gate (`bench_check`).
//!
//! Measures a fixed set of smoke-mode throughputs — the assignment
//! kernels, Lloyd's on all three engines, and serve predict at batch 1
//! and 1024 — and compares
//! them against the committed
//! `results/BENCH_BASELINE.json` with a generous tolerance (default
//! 2.5×; see `knor_bench::regression`). Exit code 1 on any violation, so
//! a hot-path regression fails the CI job instead of merging silently.
//!
//! PR 6 adds `kernel.assign.gemm` plus a hard floor independent of the
//! baseline file: the blocked-GEMM path must hold ≥ 1.5× rows/s over PR 2's
//! committed tiled *and* norm-trick headline numbers (k = 64, d = 32).
//!
//! PR 10 adds `prune.yinyang` plus hard bars against a same-build MTI run
//! (see [`prune_gate`]): Yinyang's steady-state distance evaluations must
//! stay at or below 0.5× MTI's and its steady iterations/s at or above
//! MTI's, on the separated-grid workload at the headline (k, d).
//!
//! ```text
//! bench_check                      gate against results/BENCH_BASELINE.json
//! bench_check --write-baseline     refresh the committed baseline
//! bench_check --baseline P         gate against a specific file
//! bench_check --tolerance X        override the slowdown tolerance
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use knor_bench::regression::{compare, parse_metrics, render_metrics, Metric, DEFAULT_TOLERANCE};
use knor_core::centroids::Centroids;
use knor_core::kernel::{assign_rows, centroid_sqnorms, KernelKind};
use knor_core::trace::TraceBuf;
use knor_core::{Algorithm, InitMethod, Kmeans, KmeansConfig, Pruning};
use knor_dist::{DistConfig, DistKmeans, RankPlane};
use knor_matrix::{io as matrix_io, DMatrix};
use knor_sem::{SemConfig, SemKmeans, SemPlaneConfig};
use knor_serve::{ServeConfig, ServeHandle};
use knor_workloads::{uniform_matrix, MixtureSpec};

/// Best-of-`reps` wall time of `f`, seconds.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Kernel metrics: full-scan assignment throughput (rows/s) per kernel.
fn kernel_metrics(out: &mut Vec<Metric>) {
    let (n, k, d) = (20_000, 32, 16);
    let data = uniform_matrix(n, d, 42);
    let mut cents = Centroids::zeros(k, d);
    cents.means.copy_from_slice(&data.as_slice()[..k * d]);
    let mut cnorms = vec![0.0; k];
    centroid_sqnorms(&cents, &mut cnorms);
    let (mut best, mut dist) = (Vec::new(), Vec::new());
    for (name, kind) in [("kernel.scalar", KernelKind::Scalar), ("kernel.tiled", KernelKind::Tiled)]
    {
        let rk = kind.resolve(k, d, false);
        let secs = best_secs(3, || {
            assign_rows(data.as_slice(), d, &cents, &rk, &cnorms, &mut best, &mut dist, true);
        });
        out.push(Metric { name: name.into(), per_sec: n as f64 / secs });
    }
}

/// PR 2's committed headline numbers (`results/BENCH_PR2.json`, n = 100 000,
/// k = 64, d = 32): the exact tiled scan and the norm-trick scan, in ns per
/// full assignment pass. The PR 6 acceptance bar is the blocked-GEMM path
/// beating *both* by ≥ 1.5× in rows/s at the same (k, d).
const PR2_ROWS: f64 = 100_000.0;
const PR2_TILED_NS: f64 = 25_292_684.0;
const PR2_NORM_NS: f64 = 23_011_200.0;
const GEMM_SPEEDUP_FLOOR: f64 = 1.5;

/// Measure the GEMM path at the headline (k, d) — CI-friendly n, rows/s is
/// n-invariant for a full scan — record `kernel.assign.gemm`, and enforce
/// the ≥ 1.5× bar against PR 2's committed tiled/norm throughputs.
fn gemm_headline_gate(out: &mut Vec<Metric>) {
    let (n, k, d) = (20_000, 64, 32);
    let data = uniform_matrix(n, d, 42);
    let mut cents = Centroids::zeros(k, d);
    cents.means.copy_from_slice(&data.as_slice()[..k * d]);
    let mut cnorms = vec![0.0; k];
    centroid_sqnorms(&cents, &mut cnorms);
    let rk = KernelKind::Gemm.resolve(k, d, false);
    let (mut best, mut dist) = (Vec::new(), Vec::new());
    let secs = best_secs(5, || {
        assign_rows(data.as_slice(), d, &cents, &rk, &cnorms, &mut best, &mut dist, true);
    });
    let gemm_rate = n as f64 / secs;
    out.push(Metric { name: "kernel.assign.gemm".into(), per_sec: gemm_rate });

    let tiled_rate = PR2_ROWS / (PR2_TILED_NS * 1e-9);
    let norm_rate = PR2_ROWS / (PR2_NORM_NS * 1e-9);
    let vs_tiled = gemm_rate / tiled_rate;
    let vs_norm = gemm_rate / norm_rate;
    println!(
        "  gemm headline ({k}x{d}): {:.2}x vs PR2 tiled, {:.2}x vs PR2 norm (floor {GEMM_SPEEDUP_FLOOR}x)",
        vs_tiled, vs_norm
    );
    if vs_tiled < GEMM_SPEEDUP_FLOOR || vs_norm < GEMM_SPEEDUP_FLOOR {
        eprintln!(
            "GEMM SPEEDUP GATE FAILED: {:.0} rows/s is {:.2}x PR2 tiled / {:.2}x PR2 norm; \
             the floor is {GEMM_SPEEDUP_FLOOR}x for both",
            gemm_rate, vs_tiled, vs_norm
        );
        std::process::exit(1);
    }
}

/// PR 10 acceptance bars for Yinyang group-bound pruning, measured on the
/// grid workload at the headline (k, d): steady-state distance
/// evaluations at most this fraction of MTI's, and steady iterations/s at
/// least this fraction of MTI's. Both runs walk the identical trajectory
/// (exact bounds), which the gate also asserts.
const YY_DIST_CEILING: f64 = 0.5;
const YY_SPEED_FLOOR: f64 = 1.0;

/// Measure MTI vs Yinyang on the separated-grid workload (CI-friendly n;
/// the per-row pruning behavior is n-invariant) over the steady window —
/// the second half of the iterations, past the reassignment cascade.
/// Records `prune.yinyang` (steady iterations/s) and enforces
/// [`YY_DIST_CEILING`] / [`YY_SPEED_FLOOR`] against the MTI run.
fn prune_gate(out: &mut Vec<Metric>) {
    let (n, k, d) = (20_000, 64, 32);
    let (data, _) = knor_workloads::grid_clusters(n, d, k);
    let init = InitMethod::Forgy.initialize(&data, k, 7).to_matrix();
    let steady = |r: &knor_core::KmeansResult| {
        let w = &r.iters[r.iters.len() / 2..];
        let ns = w.iter().map(|i| i.wall_ns as f64).sum::<f64>() / w.len() as f64;
        let dists =
            w.iter().map(|i| i.prune.dist_computations as f64).sum::<f64>() / w.len() as f64;
        (ns, dists)
    };
    let run = |scheme: Pruning| {
        let cfg = KmeansConfig::new(k)
            .with_init(InitMethod::Given(init.clone()))
            .with_threads(4)
            .with_pruning(scheme)
            .with_sse(false)
            .with_max_iters(60);
        let a = Kmeans::new(cfg.clone()).fit(&data);
        let b = Kmeans::new(cfg).fit(&data);
        if steady(&a).0 <= steady(&b).0 {
            a
        } else {
            b
        }
    };
    let mti = run(Pruning::Mti);
    let yy = run(Pruning::Yinyang);
    assert_eq!(yy.niters, mti.niters, "yinyang/mti trajectories diverged");
    assert_eq!(yy.assignments, mti.assignments, "yinyang/mti assignments diverged");
    let (mti_ns, mti_dists) = steady(&mti);
    let (yy_ns, yy_dists) = steady(&yy);
    let dist_ratio = yy_dists / mti_dists;
    let speed_ratio = mti_ns / yy_ns;
    out.push(Metric { name: "prune.yinyang".into(), per_sec: 1e9 / yy_ns });
    println!(
        "  prune gate ({k}x{d}): yinyang {dist_ratio:.3}x mti's steady dists \
         (ceiling {YY_DIST_CEILING}x), {speed_ratio:.2}x mti's iter/s (floor {YY_SPEED_FLOOR}x)"
    );
    if dist_ratio > YY_DIST_CEILING || speed_ratio < YY_SPEED_FLOOR {
        eprintln!(
            "PRUNE GATE FAILED: yinyang steady dists {yy_dists:.0}/iter vs mti {mti_dists:.0} \
             ({dist_ratio:.3}x, ceiling {YY_DIST_CEILING}x); steady iter {yy_ns:.0} ns vs mti \
             {mti_ns:.0} ns ({speed_ratio:.2}x iter/s, floor {YY_SPEED_FLOOR}x)"
        );
        std::process::exit(1);
    }
}

/// Tracing must stay measurement-only in cost as well as in results: with
/// a recorder attached, the headline knori configuration (n = 100 000,
/// k = 64, d = 32, full scans) may run at most this factor slower than the
/// untraced run (steady-state ns/iter, best of 3 each).
const TRACE_OVERHEAD_CEILING: f64 = 1.02;

/// Measure traced vs untraced steady iteration time at the headline
/// (k, d) and enforce [`TRACE_OVERHEAD_CEILING`]. Always emits
/// `trace.overhead` (untraced/traced throughput ratio, ≈ 1.0) so the
/// baseline comparison also notices if this gate silently disappears.
fn trace_overhead_gate(out: &mut Vec<Metric>) {
    let (n, k, d, iters) = (100_000, 64, 32, 8);
    let data = uniform_matrix(n, d, 42);
    let run = |trace: Option<Arc<TraceBuf>>| {
        let mut cfg = KmeansConfig::new(k)
            .with_init(InitMethod::Forgy)
            .with_seed(3)
            .with_pruning(Pruning::None)
            .with_sse(false)
            .with_max_iters(iters);
        if let Some(b) = trace {
            cfg = cfg.with_trace(b);
        }
        knor_bench::steady_iter_ns(&Kmeans::new(cfg).fit(&data))
    };
    let best = |mut f: Box<dyn FnMut() -> f64>| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let off_ns = best(Box::new(|| run(None)));
    let on_ns = best(Box::new(|| run(Some(Arc::new(TraceBuf::new())))));
    let ratio = on_ns / off_ns;
    out.push(Metric { name: "trace.overhead".into(), per_sec: off_ns / on_ns });
    println!(
        "  trace overhead ({k}x{d}): {ratio:.3}x traced vs untraced \
         (ceiling {TRACE_OVERHEAD_CEILING}x)"
    );
    if ratio > TRACE_OVERHEAD_CEILING {
        eprintln!(
            "TRACE OVERHEAD GATE FAILED: traced steady iter {on_ns:.0} ns vs untraced \
             {off_ns:.0} ns — {ratio:.3}x exceeds the {TRACE_OVERHEAD_CEILING}x ceiling"
        );
        std::process::exit(1);
    }
}

/// Engine metrics: Lloyd iterations/s on knori / knors / knord.
fn engine_metrics(out: &mut Vec<Metric>) {
    let (n, k, d, iters) = (20_000, 16, 8, 6);
    let data = MixtureSpec::friendster_like(n, d, 7).generate().data;

    let im = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Forgy)
            .with_seed(3)
            .with_max_iters(iters)
            .with_sse(false),
    )
    .fit(&data);
    out.push(Metric {
        name: "algo.lloyd.knori".into(),
        per_sec: 1e9 / knor_bench::steady_iter_ns(&im),
    });

    let path = std::env::temp_dir().join(format!("knor-bench-check-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).expect("write bench data");
    let sem = SemKmeans::new(SemConfig::new(k).with_seed(3).with_max_iters(iters))
        .fit(&path)
        .expect("sem run");
    let sem_ns = sem.kmeans.iters.iter().map(|i| i.wall_ns as f64).sum::<f64>()
        / sem.kmeans.iters.len().max(1) as f64;
    out.push(Metric { name: "algo.lloyd.knors".into(), per_sec: 1e9 / sem_ns });
    let _ = std::fs::remove_file(&path);

    let dist =
        DistKmeans::new(DistConfig::new(k, 2, 2).with_seed(3).with_max_iters(iters)).fit(&data);
    let dist_ns =
        dist.iters.iter().map(|i| i.wall_ns as f64).sum::<f64>() / dist.iters.len().max(1) as f64;
    out.push(Metric { name: "algo.lloyd.knord".into(), per_sec: 1e9 / dist_ns });
}

/// Plane metrics: Lloyd iterations/s on knord with per-rank SEM planes
/// (the PR-5 dist×Sem composition — gated so the staged plane's hot path
/// cannot silently regress).
fn plane_metrics(out: &mut Vec<Metric>) {
    let (n, k, d, iters) = (20_000, 16, 8, 6);
    let data = MixtureSpec::friendster_like(n, d, 7).generate().data;
    let path =
        std::env::temp_dir().join(format!("knor-bench-check-plane-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).expect("write bench data");
    let r = DistKmeans::new(
        DistConfig::new(k, 2, 2)
            .with_seed(3)
            .with_init(InitMethod::Forgy)
            .with_plane(RankPlane::Sem(
                SemPlaneConfig::default().with_row_cache_bytes((n * d * 8 / 2) as u64),
            ))
            .with_max_iters(iters),
    )
    .fit_file(&path)
    .expect("dist+sem run");
    let ns = r.iters.iter().map(|i| i.wall_ns as f64).sum::<f64>() / r.iters.len().max(1) as f64;
    out.push(Metric { name: "plane.lloyd.dist_sem".into(), per_sec: 1e9 / ns });
    let _ = std::fs::remove_file(&path);
}

/// Serve metrics: predict queries/s at batch 1 and 1024.
fn serve_metrics(out: &mut Vec<Metric>) {
    let (k, d) = (16, 16);
    let data = uniform_matrix(16_000, d, 42);
    let mut cents = DMatrix::zeros(k, d);
    cents.as_mut_slice().copy_from_slice(&data.as_slice()[..k * d]);
    let handle = ServeHandle::start(ServeConfig::default().with_kernel(KernelKind::Tiled));
    handle.register_model("gate", Algorithm::Lloyd, cents);
    let flat = data.as_slice();
    for (name, batch, rows) in
        [("serve.batch1", 1usize, 1_000usize), ("serve.batch1024", 1024, 16_000)]
    {
        let secs = best_secs(2, || {
            let mut row = 0usize;
            while row < rows {
                let hi = (row + batch).min(rows);
                handle.predict_rows("gate", &flat[row * d..hi * d], d).expect("predict");
                row = hi;
            }
        });
        out.push(Metric { name: name.into(), per_sec: rows as f64 / secs });
    }
}

/// Mux front-end metrics (PR 9): aggregate queries/s with 32 concurrent
/// small-batch TCP clients through the event loop + coalescer, and the
/// end-to-end p99 as its inverse (1e9 / p99_ns, so "bigger is better"
/// like every other metric). The p99 is deadline-dominated (flush
/// deadline + kernel time), which keeps the gate stable across hosts.
fn serve_mux_metrics(out: &mut Vec<Metric>) {
    use knor_serve::tcp::Client;
    use knor_serve::{MuxConfig, MuxServer};
    let (k, d) = (16, 16);
    let data = uniform_matrix(8_192, d, 42);
    let mut cents = DMatrix::zeros(k, d);
    cents.as_mut_slice().copy_from_slice(&data.as_slice()[..k * d]);
    let handle = ServeHandle::start(ServeConfig::default().with_kernel(KernelKind::Tiled));
    handle.register_model("gate", Algorithm::Lloyd, cents);
    let cfg = MuxConfig::default().with_max_delay_us(3_000);
    let server = MuxServer::bind(handle.clone(), "127.0.0.1:0", cfg).expect("bind mux");
    let addr = server.addr();
    let (conns, batch, rounds) = (32usize, 8usize, 32usize);
    let n = data.nrow();
    let flat = data.as_slice();
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..conns {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for r in 0..rounds {
                    let lo = ((t * rounds + r) * batch) % (n - batch);
                    c.query_block("gate", &flat[lo * d..(lo + batch) * d], d).expect("query");
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let rows = (conns * batch * rounds) as f64;
    server.stop();
    let snap = handle.registry().get("gate").unwrap().stats.snapshot();
    assert_eq!(snap.queries as f64, rows, "mux gate dropped queries");
    out.push(Metric { name: "serve.mux.qps".into(), per_sec: rows / secs });
    out.push(Metric { name: "serve.mux.p99inv".into(), per_sec: 1e9 / snap.req_p99_ns as f64 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_baseline = false;
    let mut baseline_path = PathBuf::from("results/BENCH_BASELINE.json");
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--write-baseline" => write_baseline = true,
            "--baseline" => {
                i += 1;
                baseline_path = PathBuf::from(args.get(i).expect("--baseline needs a path"));
            }
            "--tolerance" => {
                i += 1;
                tolerance =
                    args.get(i).and_then(|s| s.parse().ok()).expect("--tolerance needs a number");
            }
            "--smoke" => {} // always smoke-mode; accepted for CI symmetry
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("measuring smoke-mode throughputs...");
    let mut fresh: Vec<Metric> = Vec::new();
    kernel_metrics(&mut fresh);
    gemm_headline_gate(&mut fresh);
    prune_gate(&mut fresh);
    trace_overhead_gate(&mut fresh);
    engine_metrics(&mut fresh);
    plane_metrics(&mut fresh);
    serve_metrics(&mut fresh);
    serve_mux_metrics(&mut fresh);
    for m in &fresh {
        println!("  {:<20} {:>14.0} /s", m.name, m.per_sec);
    }

    let rendered = render_metrics("bench_gate", "smoke", &fresh);
    if write_baseline {
        if let Some(dir) = baseline_path.parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        std::fs::write(&baseline_path, &rendered).expect("write baseline");
        println!("\nbaseline written to {}", baseline_path.display());
        return;
    }

    // Fresh numbers always land next to the baseline for artifact upload.
    let fresh_path = baseline_path.with_file_name("BENCH_GATE_FRESH.json");
    let _ = std::fs::write(&fresh_path, &rendered);

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "no baseline at {} ({e}); run `bench_check --write-baseline` and commit it",
                baseline_path.display()
            );
            std::process::exit(1);
        }
    };
    let baseline = parse_metrics(&text).expect("parse baseline");
    let violations = compare(&baseline, &fresh, tolerance);
    if violations.is_empty() {
        println!("\nbench gate OK ({} metrics within {tolerance}x of baseline)", fresh.len());
        return;
    }
    eprintln!("\nBENCH REGRESSION ({} metric(s) beyond {tolerance}x):", violations.len());
    for v in &violations {
        eprintln!(
            "  {:<20} baseline {:>12.0}/s  fresh {:>12.0}/s  slowdown {:.2}x",
            v.name, v.baseline, v.fresh, v.slowdown
        );
    }
    std::process::exit(1);
}

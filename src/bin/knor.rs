//! The `knor` command-line utility: cluster a knor-format binary matrix
//! with the in-memory, semi-external-memory, or simulated-distributed
//! engine — mirroring the original project's `knori`/`knors`/`knord`
//! binaries.
//!
//! ```text
//! knor im   <file.knor> -k 10 [-i 100] [-t N] [--pruning none|mti] [--init pp|forgy|random]
//!           [--algo lloyd|spherical|fuzzy|minibatch] [--fuzz M] [--batch B]
//!           [--stats] [--trace out.json]
//! knor sem  <file.knor> -k 10 [--row-cache MB] [--page-cache MB] [--stats] [--trace out.json]
//! knor dist <file.knor> -k 10 [--ranks R] [--star] [--plane im|sem] [--stats] [--trace out.json]
//! knor gen  <file.knor> --dataset friendster8|friendster32|rm856m|rm1b|ru2b --scale f
//!
//! knor serve --addr H:P [-t N]                     run a serving instance
//! knor train --addr H:P --model M --file F -k 10    submit a train job
//!            [--engine im|sem|dist|dist-sem] [--algo ...] [-i N] [--seed S] [--wait]
//! knor query --addr H:P --model M --file Q.knor     stream queries, print stats
//!            [--limit N] [--batch B]
//! knor ctl   --addr H:P list|stats M|metrics|save M DIR|swap M V|rollback M|shutdown
//! ```
//!
//! There is no kernel flag: the run's shape picks the assignment kernel
//! (`knor_core::ResolvedKernel::for_shape`), and `--stats` prints the
//! choice on its `kernel:` line.
//!
//! The full line protocol behind serve/train/query/ctl is documented in
//! `docs/PROTOCOL.md`.

use knor::core::pruning::PruneCounters;
use knor::core::spec::{choose, count_for, number_for, Engine, Entry, Knob, Refusal, Source};
use knor::core::{CommitCounters, InitStats, LoadStats, MemoryFootprint, RunSpec, SettleStats};
use knor::dist::{launch, Fitted};
use knor::prelude::*;
use knor::serve::tcp::{Client, TcpServer};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

struct Opts {
    file: PathBuf,
    /// The run the knob flags describe (`-k`, `-i`, `--pruning`, … — the
    /// rows of `knor::core::spec::KNOBS`), over the CLI's defaults.
    run: RunSpec,
    /// The engine the mode (or `train --engine`) names, with `--ranks`,
    /// `--star`, `--plane`, `--row-cache` and `--page-cache` applied.
    engine: Engine,
    /// `--batch`, which `query` reads as rows per request.
    batch: usize,
    /// Print the per-iteration I/O / wire summary after the run.
    stats: bool,
    /// Write a chrome-trace JSON timeline of the run here (`--trace`).
    trace: Option<PathBuf>,
    dataset: PaperDataset,
    scale: f64,
    addr: String,
    model: String,
    wait: bool,
    limit: usize,
    /// Positional words after the mode (the `ctl` subcommand).
    rest: Vec<String>,
}

/// The one usage text. `--help` prints it to stdout (exit 0); a bare
/// `knor`, an unknown mode or a mode missing its file prints it to stderr
/// (exit 2), while a flag mistake is a one-line `knor: …` (exit 2). Every
/// flag the parser accepts must appear here — `scripts/check_doc_drift.sh`
/// and the CLI tests diff this text against the README flag table.
const HELP: &str =
    "usage: knor <im|sem|dist|gen> <file.knor> [-k K] [-i|--iters ITERS] [-t|--threads THREADS]
           [--pruning none|mti] [--init pp|forgy|random] [--seed S]
           [--algo lloyd|spherical|fuzzy|minibatch]
           [--fuzz M] [--batch B] [--stats] [--trace out.json]
           [--row-cache MB] [--page-cache MB]              (sem)
           [--ranks R] [--star] [--plane im|sem]           (dist)
           [--dataset NAME] [--scale F]                    (gen)
       knor serve --addr H:P [-t|--threads THREADS]
       knor train --addr H:P --model M --file F.knor [-k K] [-i N]
           [--engine im|sem|dist|dist-sem] [--algo A] [--seed S] [--wait]
       knor query --addr H:P --model M --file Q.knor [--limit N] [--batch B]
       knor ctl --addr H:P <list | stats MODEL | metrics | save MODEL DIR
           | swap MODEL VERSION|latest | rollback MODEL | shutdown>
       knor --help | -h | help                             print this text

The serve line protocol (verbs, framing, error replies) is documented in
docs/PROTOCOL.md; the README has a per-flag reference table.";

fn usage() -> ! {
    eprintln!("{HELP}");
    exit(2)
}

/// One-line rejection with a nonzero exit — flag problems must never flow
/// into the engines as degenerate values and surface as a panic later.
fn die(msg: &str) -> ! {
    eprintln!("knor: {msg}");
    exit(2)
}

/// One-line failure with exit 1: a missing or truncated file, an address
/// nobody listens on or one that is taken is the user's to fix, not a
/// panic to backtrace. `what` names the file or the address.
fn io_die(what: impl std::fmt::Display, e: std::io::Error) -> ! {
    let (what, msg) = (what.to_string(), e.to_string());
    // The length check already names the file.
    if msg.starts_with(&what) {
        eprintln!("knor: {msg}");
    } else {
        eprintln!("knor: {what}: {msg}");
    }
    exit(1)
}

/// A flag value or the one-line refusal all of them share.
fn ok<T>(parsed: Result<T, Refusal>) -> T {
    parsed.unwrap_or_else(|refusal| die(&refusal.cli()))
}

/// Parse a megabyte flag value into bytes, rejecting amounts whose byte
/// conversion (`<< 20`) would overflow instead of silently wrapping.
fn mb(flag: &'static str, s: &str) -> u64 {
    let v: u64 = ok(number_for(flag, s));
    if v > (u64::MAX >> 20) {
        die(&format!("invalid value '{s}' for {flag}: exceeds the addressable byte range"));
    }
    v << 20
}

const PLANES: &[&str] = &["im", "sem"];
const DATASETS: &[&str] = &["friendster8", "friendster32", "rm856m", "rm1b", "ru2b"];

fn parse(args: &[String]) -> (String, Opts) {
    if args.is_empty() {
        usage();
    }
    if args.iter().any(|a| a == "--help" || a == "-h") || args[0] == "help" {
        println!("{HELP}");
        exit(0)
    }
    let mode = args[0].clone();
    // The training/generation modes take a positional file; the serving
    // modes are flag-driven (ctl keeps trailing words as its subcommand).
    let positional_file = matches!(mode.as_str(), "im" | "sem" | "dist" | "gen");
    if positional_file && args.len() < 2 {
        usage();
    }
    let mut o = Opts {
        file: if positional_file { PathBuf::from(&args[1]) } else { PathBuf::new() },
        run: RunSpec::defaults(Entry::Cli, 10),
        engine: Engine::Im,
        batch: 0,
        stats: false,
        trace: None,
        dataset: PaperDataset::Friendster8,
        scale: 0.001,
        addr: "127.0.0.1:7979".into(),
        model: String::new(),
        wait: false,
        limit: 0,
        rest: Vec::new(),
    };
    // The knob flags, gathered for the one parser; the engine's flags.
    let mut knobs: Vec<(&str, &str)> = Vec::new();
    let (mut engine, mut plane, mut ranks, mut star) = ("im", "im", None, false);
    let (mut row_cache, mut page_cache) = (None, None);
    let mut i = if positional_file { 2 } else { 1 };
    while i < args.len() {
        let flag = args[i].as_str();
        let val = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i).unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag {
            "--row-cache" => row_cache = Some(mb("--row-cache", val(&mut i))),
            "--page-cache" => page_cache = Some(mb("--page-cache", val(&mut i))),
            "--ranks" => ranks = Some(ok(count_for("--ranks", val(&mut i)))),
            "--star" => star = true,
            "--plane" => plane = PLANES[ok(choose("--plane", PLANES, val(&mut i)))],
            "--engine" => engine = val(&mut i),
            "--stats" => o.stats = true,
            "--trace" => o.trace = Some(PathBuf::from(val(&mut i))),
            "--dataset" => {
                let name = val(&mut i).to_lowercase();
                o.dataset = PaperDataset::all()[ok(choose("--dataset", DATASETS, &name))];
            }
            "--scale" => {
                let s = val(&mut i);
                o.scale = ok(number_for("--scale", s));
                if !(o.scale > 0.0 && o.scale.is_finite()) {
                    die(&format!("invalid value '{s}' for --scale: must be a positive number"));
                }
            }
            "--addr" => o.addr = val(&mut i).to_string(),
            "--model" => o.model = val(&mut i).to_string(),
            "--file" => o.file = PathBuf::from(val(&mut i)),
            "--wait" => o.wait = true,
            "--limit" => o.limit = ok(number_for("--limit", val(&mut i))),
            knob if Knob::find(knob).is_some() => knobs.push((knob, val(&mut i))),
            // Only `ctl` takes trailing positional words (its subcommand);
            // anywhere else a stray word is a mistake, not ignorable.
            word if !word.starts_with('-') && mode == "ctl" => o.rest.push(word.to_string()),
            other => die(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    // Every value is checked here, before any file or socket is touched.
    o.run = ok(o.run.parse(&knobs));
    let given = |flag: &str| knobs.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v);
    o.batch = given("--batch").map_or(0, |v| v.parse().expect("parsed above"));
    o.engine = ok(Engine::parse(
        match mode.as_str() {
            "train" => engine,
            "dist" if plane == "sem" => "dist-sem",
            "sem" | "dist" => &mode,
            _ => "im",
        },
        Entry::Cli,
    ));
    if let Engine::Dist { ranks: r, star: s, .. } = &mut o.engine {
        (*r, *s) = (ranks.unwrap_or(*r), star);
    }
    if let Some(io) = o.engine.sem_io() {
        io.row_cache_bytes = row_cache.unwrap_or(io.row_cache_bytes);
        io.page_cache_bytes = page_cache.unwrap_or(io.page_cache_bytes);
        // A streaming engine never holds the matrix, so its init must
        // avoid a full pass too: forgy reads k rows from disk, and is the
        // default when the user expressed no preference.
        let (what, other) =
            if mode == "sem" { ("knor sem", "knor im") } else { ("--plane sem", "--plane im") };
        match given("--init") {
            Some(init) if o.run.init != InitMethod::Forgy && mode != "train" => die(&format!(
                "{what} streams from disk; --init {init} needs the full matrix \
                 (use --init forgy or {other})"
            )),
            _ => o.run.init = InitMethod::Forgy,
        }
    }
    (mode, o)
}

/// The one-line `--stats` kernel note: the kernel and tiles the run's
/// shape picked, by the function the engines call.
fn kernel_note(run: &RunSpec, d: usize) -> String {
    let rk = ResolvedKernel::for_shape(run.k, d);
    format!(
        "kernel: resolved={} tiles={}x{} fma={}",
        rk.kind.name(),
        rk.row_tile,
        rk.cent_tile,
        if fma_usable() { "yes" } else { "no" },
    )
}

/// Post-run trace sinks: chrome-trace JSON to the `--trace` file and the
/// phase-group breakdown table under `--stats`.
fn finish_trace(o: &Opts, buf: Option<&Arc<TraceBuf>>, fitted: &Fitted) {
    if let (Some(path), Some(buf)) = (o.trace.as_ref(), buf) {
        std::fs::write(path, buf.chrome_trace_json())
            .unwrap_or_else(|e| die(&format!("cannot write trace to {}: {e}", path.display())));
        println!("trace: wrote {}", path.display());
    }
    if o.stats {
        if let Some(p) = fitted.kmeans().phases.as_ref().filter(|p| !p.is_empty()) {
            // knori neither reads a device nor talks to a rank.
            print!("{}", p.render(!matches!(fitted, Fitted::Im(_))));
        }
    }
}

/// A reader that went away (`knor sem … | head -1`) is not a crash. Every
/// `println!` panics on the `EPIPE`; this hook turns exactly that panic
/// into a quiet exit, in one place rather than a checked write per print.
fn exit_quietly_when_stdout_closes() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if msg.is_some_and(|m| {
            m.starts_with("failed printing to stdout") && m.ends_with("(os error 32)")
        }) {
            exit(0)
        }
        default(info)
    }));
}

fn main() {
    exit_quietly_when_stdout_closes();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, mut o) = parse(&args);
    let connect = || Client::connect(&*o.addr).unwrap_or_else(|e| io_die(&o.addr, e));
    match mode.as_str() {
        "gen" => {
            let g = o.dataset.generate(o.scale, o.run.seed);
            matrix_io::write_matrix(&o.file, &g.data)
                .unwrap_or_else(|e| io_die(o.file.display(), e));
            println!(
                "wrote {} ({} x {}, {:.1} MB) to {}",
                o.dataset.name(),
                g.data.nrow(),
                g.data.ncol(),
                g.bytes() as f64 / 1e6,
                o.file.display()
            );
        }
        "im" | "sem" | "dist" => {
            // The header carries n and d: what `-k` is checked against,
            // what mini-batch's default batch and the kernel note need.
            let h = matrix_io::read_header(&o.file).unwrap_or_else(|e| io_die(o.file.display(), e));
            let (n, d) = (h.nrow as usize, h.ncol as usize);
            if o.run.k > n {
                die(&format!("-k {} exceeds the {n} rows of {}", o.run.k, o.file.display()));
            }
            o.run.default_batch(n);
            // The span recorder is allocated only when some sink will read
            // it (`--stats` prints the phase table, `--trace` writes the
            // timeline); otherwise the engines keep their `None` path.
            o.run.trace = (o.stats || o.trace.is_some()).then(|| Arc::new(TraceBuf::new()));
            let t0 = std::time::Instant::now();
            let fitted = launch(&o.engine, &o.run, &Source::File(o.file.clone()))
                .unwrap_or_else(|e| io_die(o.file.display(), e));
            let km = fitted.kmeans();
            report(&format!("knor{}", &mode[..1]), km, t0.elapsed());
            if let Fitted::Sem(r) = &fitted {
                let read: u64 = r.io.iter().map(|i| i.bytes_read).sum();
                println!("device bytes read: {:.1} MB", read as f64 / 1e6);
            }
            if o.stats {
                println!("{}", kernel_note(&o.run, d));
                print_prune(&o.run, n, &km.total_prune());
                // Load, seeding, iterations and the closing pass: the run.
                // knord prints its wire and rank tables instead of the
                // commit, NUMA and memory lines.
                if !matches!(fitted, Fitted::Dist(_)) {
                    print_commit(&km.total_commit());
                    print_numa(&km.numa);
                }
                if let Some(l) = &km.load {
                    print_load(l);
                }
                print_init(&o.run, n, &km.init);
                print_settle(&km.settle);
                match &fitted {
                    Fitted::Im(_) => print_memory(&km.memory),
                    Fitted::Sem(r) => {
                        print_memory(&km.memory);
                        print_io_table(&r.io);
                        print_io_summary(&[&r.io]);
                    }
                    Fitted::Dist(r) => print_dist_stats(r),
                }
            }
            finish_trace(&o, o.run.trace.as_ref(), &fitted);
        }
        "serve" => {
            // `-t` is accepted and sizes nothing: each connection's thread
            // scans its own queries, a large block split over the CPUs.
            let handle = ServeHandle::start(ServeConfig::default());
            let server = TcpServer::bind(handle, &*o.addr).unwrap_or_else(|e| io_die(&o.addr, e));
            println!("knor-serve listening on {}", server.addr());
            server.join();
            println!("knor-serve stopped");
        }
        "train" => {
            if o.model.is_empty() || o.file.as_os_str().is_empty() {
                eprintln!("train needs --model and --file");
                usage()
            }
            // The mini-batch default batch (`n/10`) needs n: one header read.
            let n = matrix_io::read_header(&o.file).map(|h| h.nrow as usize).unwrap_or(0);
            o.run.default_batch(n);
            let mut c = connect();
            let job = c
                .train(&o.model, &o.engine, &o.run, &o.file)
                .unwrap_or_else(|e| io_die(&o.addr, e));
            println!("submitted job {job} (model {}, engine {})", o.model, o.engine.token());
            if o.wait {
                // Polls at most 5 ms apart, so the job's end is seen within
                // 5 ms of it; at 50 ms a scripted train-then-query start
                // moved in 50 ms steps from one run to the next.
                let status = c
                    .wait(job, std::time::Duration::from_millis(5))
                    .unwrap_or_else(|e| io_die(&o.addr, e));
                println!("job {job}: {status}");
                if status.starts_with("failed") {
                    exit(1);
                }
            }
        }
        "query" => {
            if o.model.is_empty() || o.file.as_os_str().is_empty() {
                eprintln!("query needs --model and --file");
                usage()
            }
            let data =
                matrix_io::read_matrix(&o.file).unwrap_or_else(|e| io_die(o.file.display(), e));
            let n = if o.limit > 0 { o.limit.min(data.nrow()) } else { data.nrow() };
            let d = data.ncol();
            let batch = if o.batch > 0 { o.batch } else { 64 };
            let mut c = connect();
            let t0 = std::time::Instant::now();
            let mut hist = vec![0u64; o.run.k];
            let mut sent = 0usize;
            while sent < n {
                let hi = (sent + batch).min(n);
                let block = &data.as_slice()[sent * d..hi * d];
                let out = c.query_block(&o.model, block, d).unwrap_or_else(|e| io_die(&o.addr, e));
                for (cluster, _) in out {
                    if (cluster as usize) < hist.len() {
                        hist[cluster as usize] += 1;
                    } else {
                        hist.resize(cluster as usize + 1, 0);
                        hist[cluster as usize] = 1;
                    }
                }
                sent = hi;
            }
            let elapsed = t0.elapsed();
            let (wire_out, wire_in) = c.wire_bytes();
            println!(
                "{n} queries in {elapsed:.2?} ({:.0} q/s client-side), wire {wire_out}B out / {wire_in}B in",
                n as f64 / elapsed.as_secs_f64().max(1e-9),
            );
            let nonzero = hist.iter().filter(|&&c| c > 0).count();
            println!("assignments hit {nonzero} clusters");
            let stats = c.stats(&o.model).unwrap_or_else(|e| io_die(&o.addr, e));
            println!("stats: {stats}");
        }
        "ctl" => {
            let mut c = connect();
            let cmd = o.rest.first().map(String::as_str).unwrap_or("");
            let out = match (cmd, o.rest.get(1), o.rest.get(2)) {
                ("list", None, None) => c.list(),
                ("stats", Some(model), None) => c.stats(model),
                ("metrics", None, None) => c.metrics(),
                ("save", Some(model), Some(dir)) => c.save(model, std::path::Path::new(dir)),
                ("swap", Some(model), Some(ver)) => {
                    let pin = (ver != "latest").then(|| ok(number_for::<u32>("swap VERSION", ver)));
                    c.swap(model, pin)
                }
                ("rollback", Some(model), None) => c.rollback(model),
                ("shutdown", None, None) => c.shutdown().map(|()| "bye".to_string()),
                _ => {
                    eprintln!(
                        "ctl expects: list | stats MODEL | metrics | save MODEL DIR | \
                         swap MODEL VERSION|latest | rollback MODEL | shutdown"
                    );
                    usage()
                }
            };
            match out {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("ctl {cmd} failed: {e}");
                    exit(1)
                }
            }
        }
        _ => usage(),
    }
}

fn report(name: &str, km: &KmeansResult, t: std::time::Duration) {
    println!("{name}: {} iterations in {t:.2?} (converged = {})", km.niters, km.converged);
    if let Some(s) = km.sse {
        println!("SSE = {s:.4}");
    }
}

/// The `--stats` pruning section: the resolved scheme, the bytes the
/// bounds occupy (per-row upper bounds plus MTI's `O(k²)` state), and the
/// per-clause outcome totals.
/// `one_cand` counts the committed rows MTI's one-candidate shortcut
/// settled and `gemm_rows` those the one-row gemm scan settled (subsets of
/// the rows the clauses above already count; a scanned row counts its
/// open candidates as `dists`). `io_skip_rows` is the staged-plane
/// fetch-avoidance subset of clause 1 (always 0 on direct planes).
fn print_prune(run: &RunSpec, n: usize, total: &PruneCounters) {
    let scheme = run.scheme();
    // The bounds do not depend on `d`, the thread count or the data held.
    let bound_bytes = MemoryFootprint::account(scheme, (n, run.k, 0), 0, 0, 0).bound_bytes(n);
    println!(
        "prune: scheme={} bound_B={bound_bytes} c1_rows={} c2={} c3={} dists={} one_cand={} \
         gemm_rows={} io_skip_rows={}",
        scheme.name(),
        total.clause1_rows,
        total.clause2_prunes,
        total.clause3_prunes,
        total.dist_computations,
        total.one_cand_rows,
        total.gemm_rows,
        total.io_skip_rows,
    );
}

/// The `--stats` commit line: how the worker loop reached the rows it
/// committed, summed over the run. An unscoped run gathers nothing (every
/// block is read where it lies; only mini-batch's sampled rows are copied
/// together first), and the GEMM kernel's centroid panel is packed once
/// per worker per iteration — `iterations × threads`, pruned or not (MTI's
/// commit scans its many-candidate rows against it), 0 on the scalar
/// kernel. `rescored_rows` counts the rows whose gemm winner was not
/// certified and were re-decided exactly: re-scanned with `nearest` in a
/// full scan, walked by MTI's clause machine in a pruned commit.
/// `f32_rows` counts the rows a gemm full scan scored in f32 (an unpruned
/// run after iteration 0, when the precision rule allows it), and
/// `f32_misses` the rows the rule counted against f32: those of an f32
/// scan that failed the f32 certificate, and those of iteration 0's probe
/// whose gap would have failed it. `block_rows` counts the rows an MTI
/// iteration in block mode committed straight from the block scan, and
/// `wide_rows` the committed rows whose final bound left many candidates
/// open: the counter the block rule reads (DESIGN.md §2).
fn print_commit(c: &CommitCounters) {
    println!(
        "commit: borrowed_rows={} gathered_rows={} panel_packs={} rescored_rows={} f32_rows={} \
         f32_misses={} block_rows={} wide_rows={}",
        c.borrowed_rows,
        c.gathered_rows,
        c.panel_packs,
        c.rescored_rows,
        c.f32_rows,
        c.f32_misses,
        c.block_rows,
        c.wide_rows
    );
}

/// The `--stats` NUMA section: the topology the run saw and how workers
/// spread over its nodes.
fn print_numa(numa: &NumaReport) {
    let spread = numa.workers_per_node.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
    println!("numa: nodes={} workers_per_node=[{spread}]", numa.nodes);
}

/// The `--stats` load line: what reading the input into place cost, and
/// the process's memory on huge pages after it (`n/a` off Linux). The
/// "N iterations in X" line above includes it.
fn print_load(l: &LoadStats) {
    let huge = l.huge_bytes.map_or("n/a".into(), |b| format!("{:.1}", b as f64 / 1e6));
    println!(
        "load: bytes={} secs={:.3} MB/s={:.0} threads={} huge_MB={huge}",
        l.bytes,
        l.secs,
        l.bytes as f64 / 1e6 / l.secs.max(1e-9),
        l.threads,
    );
}

/// The `--stats` init line: the seeding method and its wall time, and for
/// k-means++ the row-to-center distances its D² scan evaluated out of the
/// `n·(k−1)` a scan without the triangle-inequality skip would.
fn print_init(run: &RunSpec, n: usize, s: &InitStats) {
    let method = run.init.name().unwrap_or("given");
    let dists = if run.init == InitMethod::PlusPlus {
        format!(" dists={}/{}", s.dists, n as u64 * (run.k as u64 - 1))
    } else {
        String::new()
    };
    println!("init: method={method} secs={:.3}{dists}", s.secs);
}

/// The `--stats` settle line: the pass after the last iteration (the SSE,
/// and mini-batch's refresh), the threads that computed its terms and, for
/// a pass streamed from the file, the device bytes it read — which
/// `device bytes read` (the iterations') does not count.
fn print_settle(s: &SettleStats) {
    let read = s.read_bytes.map_or(String::new(), |b| format!(" read_MB={:.1}", b as f64 / 1e6));
    println!("settle: secs={:.3} threads={}{read}", s.secs, s.threads);
}

/// The `--stats` memory line: what the run accounts for (Table 1's terms)
/// next to what the process peaked at. `VmHWM` also covers the binary,
/// the allocator's slack and init's transient buffers.
fn print_memory(m: &MemoryFootprint) {
    let hwm = match vm_hwm_bytes() {
        Some(b) => format!("{:.1}", b as f64 / 1e6),
        None => "n/a".into(),
    };
    println!("memory: accounted_MB={:.1} VmHWM_MB={hwm}", m.total() as f64 / 1e6);
}

/// The process's peak resident set, where `/proc` reports one (Linux).
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?;
    Some(kb.trim().parse::<u64>().ok()? * 1024)
}

/// The one `--stats` table renderer: right-aligned columns sized to the
/// widest cell (header included), one space between columns. The I/O,
/// wire and rank summaries all feed it instead of keeping their own
/// hand-tuned format strings in sync.
fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let render = |cells: &mut dyn Iterator<Item = &str>| {
        let line =
            cells.zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join(" ");
        println!("{}", line.trim_end());
    };
    render(&mut header.iter().copied());
    for row in rows {
        render(&mut row.iter().map(String::as_str));
    }
}

/// The per-iteration I/O summary engines collect (`--stats` for sem/dist).
fn print_io_table(io: &[knor::sem::IoIterStats]) {
    let rows: Vec<Vec<String>> = io
        .iter()
        .map(|it| {
            vec![
                it.iter.to_string(),
                it.active_rows.to_string(),
                it.rc_hits.to_string(),
                it.rc_misses.to_string(),
                it.bytes_requested.to_string(),
                it.bytes_read.to_string(),
                it.page_hits.to_string(),
                it.page_misses.to_string(),
                it.rc_resident_rows.to_string(),
                if it.rc_refreshed { "yes".into() } else { String::new() },
            ]
        })
        .collect();
    print_table(
        &[
            "iter", "active", "rc_hit", "rc_miss", "req_B", "read_B", "pg_hit", "pg_miss",
            "rc_rows", "refr",
        ],
        &rows,
    );
}

/// The `--stats` request-path line of a SEM run, summed over iterations and
/// threads (`planes`: knors' one, or every knord rank's): how many row
/// requests became how many `pread`s of how many pages, the thread-seconds
/// they took and so the MB/s one thread drew from the device, and what the
/// reusable request buffers hold at the end. (Pages are the default size:
/// no flag of this binary sets another.)
fn print_io_summary(planes: &[&[knor::sem::IoIterStats]]) {
    let sum = |f: fn(&knor::sem::IoIterStats) -> u64| -> u64 {
        planes.iter().flat_map(|io| io.iter()).map(f).sum()
    };
    let (reads, read_b, secs) =
        (sum(|i| i.device_reads), sum(|i| i.bytes_read), sum(|i| i.fetch_ns) as f64 / 1e9);
    let arena: u64 = planes.iter().filter_map(|io| io.last()).map(|i| i.arena_bytes).sum();
    println!(
        "io: fetch_calls={} device_reads={reads} pages/read={:.1} fetch_s={secs:.3} MB/s/thread={:.0} arena_KB={}",
        sum(|i| i.fetch_calls),
        (read_b / knor::safs::DEFAULT_PAGE_SIZE as u64) as f64 / reads.max(1) as f64,
        read_b as f64 / 1e6 / secs.max(1e-9),
        arena / 1024,
    );
}

/// `--stats` for dist: per-iteration wire traffic, per-rank totals, and —
/// for SEM-plane runs — each rank's private I/O record and their sum.
fn print_dist_stats(r: &DistResult) {
    let iter_rows: Vec<Vec<String>> = r
        .kmeans
        .iters
        .iter()
        .map(|it| {
            vec![
                it.iter.to_string(),
                it.reassigned.to_string(),
                it.comm_bytes.to_string(),
                it.max_rank_comm_bytes.to_string(),
            ]
        })
        .collect();
    print_table(&["iter", "reassign", "wire_B", "max_rank_wire_B"], &iter_rows);
    let rank_rows: Vec<Vec<String>> = r
        .rank_comm
        .iter()
        .map(|c| {
            vec![
                c.rank.to_string(),
                c.rows.to_string(),
                c.bytes_sent.to_string(),
                c.bytes_received.to_string(),
                c.messages_sent.to_string(),
            ]
        })
        .collect();
    print_table(&["rank", "rows", "sent_B", "recv_B", "msgs"], &rank_rows);
    for rio in &r.rank_io {
        if rio.io.is_empty() {
            continue;
        }
        let read: u64 = rio.io.iter().map(|i| i.bytes_read).sum();
        let hits: u64 = rio.io.iter().map(|i| i.rc_hits).sum();
        let misses: u64 = rio.io.iter().map(|i| i.rc_misses).sum();
        println!(
            "rank {} io: {:.1} MB read, rc {hits} hits / {misses} misses",
            rio.rank,
            read as f64 / 1e6
        );
    }
    let planes: Vec<&[_]> = r.rank_io.iter().map(|rio| &rio.io[..]).collect();
    if planes.iter().any(|io| !io.is_empty()) {
        print_io_summary(&planes);
    }
}

//! CLI input validation: degenerate numeric flags must be rejected with a
//! clear one-line error and a nonzero exit *before* any engine runs —
//! never flow into an engine and surface as a downstream panic.

use std::process::Command;

fn knor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_knor"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("knor-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_exits_zero_and_bad_flags_exit_two() {
    for args in [vec!["--help"], vec!["-h"], vec!["help"], vec!["im", "x.knor", "--help"]] {
        let out = knor().args(&args).output().expect("spawn knor");
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: knor"), "{args:?} → {text:?}");
    }
    // No arguments, or a mode without its file, is still a usage error on
    // stderr; an unknown flag is one line naming it.
    for args in [vec![], vec!["im"]] {
        let out = knor().args(&args).output().expect("spawn knor");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: knor"));
    }
    let out = knor().args(["im", "x.knor", "--no-such-flag"]).output().expect("spawn knor");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "knor: unknown flag '--no-such-flag'\n");
}

/// Extract every flag token (`--long` or single-letter `-x`) from a usage
/// text — the same tokenization `scripts/check_doc_drift.sh` uses.
fn extract_flags(help: &str) -> Vec<String> {
    let mut flags: Vec<String> = help
        .split(|c: char| c.is_whitespace() || matches!(c, '[' | ']' | '|'))
        .filter(|t| {
            let long = t.starts_with("--")
                && t.len() > 2
                && t[2..].chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
            let short = t.len() == 2
                && t.starts_with('-')
                && t[1..].chars().all(|c| c.is_ascii_alphabetic());
            long || short
        })
        .map(str::to_string)
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

/// The doc-drift gate as a test: every flag `knor --help` advertises must
/// appear in the README (which keeps a per-flag reference table).
#[test]
fn help_flags_are_documented_in_readme() {
    let out = knor().arg("--help").output().expect("spawn knor");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    let flags = extract_flags(&help);
    assert!(flags.len() >= 30, "flag extraction broke: only {flags:?}");
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("read README.md");
    let missing: Vec<&String> = flags.iter().filter(|f| !readme.contains(f.as_str())).collect();
    assert!(missing.is_empty(), "flags in `knor --help` but not in README.md: {missing:?}");
}

#[test]
fn degenerate_numeric_flags_are_rejected_before_any_io() {
    // None of these files exist; every rejection must fire at parse time.
    for args in [
        vec!["im", "/nonexistent/x.knor", "-k", "0"],
        vec!["im", "/nonexistent/x.knor", "-k", "banana"],
        vec!["im", "/nonexistent/x.knor", "-i", "0"],
        vec!["im", "/nonexistent/x.knor", "-t", "0"],
        vec!["im", "/nonexistent/x.knor", "--seed", "eleven"],
        vec!["im", "/nonexistent/x.knor", "--batch", "0"],
        vec!["sem", "/nonexistent/x.knor", "--row-cache", "lots"],
        vec!["dist", "/nonexistent/x.knor", "--ranks", "0"],
        vec!["dist", "/nonexistent/x.knor", "--plane", "gpu"],
        vec!["gen", "/nonexistent/x.knor", "--scale", "0"],
        vec!["gen", "/nonexistent/x.knor", "--scale", "-0.5"],
        vec!["gen", "/nonexistent/x.knor", "--scale", "NaN"],
        vec!["train", "--model", "m", "--file", "f", "--engine", "gpu"],
        vec!["im", "/nonexistent/x.knor", "--kernel", "warp"],
        // The deleted kernels and the deleted tuner are refused like typos.
        vec!["im", "/nonexistent/x.knor", "--kernel", "fma"],
        vec!["im", "/nonexistent/x.knor", "--kernel", "norm"],
        vec!["im", "/nonexistent/x.knor", "--tune", "on"],
        // Unknown flags and missing values are one line, not the usage.
        vec!["im", "/nonexistent/x.knor", "--bogus", "1"],
        vec!["im", "/nonexistent/x.knor", "-k"],
        vec!["im", "/nonexistent/x.knor", "--pruning", "banana"],
        vec!["sem", "/nonexistent/x.knor", "--kernel", "avx512"],
        vec!["dist", "/nonexistent/x.knor", "--pruning", "elkan"],
        // Every enum-valued flag is checked by the one parser, early.
        vec!["im", "/nonexistent/x.knor", "--init", "banana"],
        vec!["dist", "/nonexistent/x.knor", "--init", "kmeans||"],
        vec!["im", "/nonexistent/x.knor", "--algo", "kmedoids"],
        vec!["sem", "/nonexistent/x.knor", "--algo", "fuzzy:0.5"],
        vec!["gen", "/nonexistent/x.knor", "--dataset", "mnist"],
        vec!["im", "/nonexistent/x.knor", "--fuzz", "1.0"],
        vec!["im", "/nonexistent/x.knor", "--algo", "fuzzy", "--fuzz", "NaN"],
        vec!["im", "/nonexistent/x.knor", "-k", "3", "-k", "4"],
        // A streaming engine cannot run an init that needs the matrix.
        vec!["sem", "/nonexistent/x.knor", "--init", "pp"],
        vec!["sem", "/nonexistent/x.knor", "--init", "random"],
        vec!["dist", "/nonexistent/x.knor", "--plane", "sem", "--init", "pp"],
        vec!["train", "--addr", "127.0.0.1:1", "--model", "m", "--file", "f", "--algo", "x"],
    ] {
        let out = knor().args(&args).output().expect("spawn knor");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("knor: "), "{args:?} → {err:?}");
        assert_eq!(err.trim_end().lines().count(), 1, "{args:?}: one-line error, got {err:?}");
    }
    // There is one copy of the centroids: `--replication` is a stranger.
    let out = knor().args(["im", "/nonexistent/x.knor", "--replication", "on"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!((out.status.code(), &*err), (Some(2), "knor: unknown flag '--replication'\n"));

    // `-k` is checked against the header's row count — the first thing
    // read, the last thing that can be checked without the data — in the
    // same voice, by every engine.
    let file = gen_small("k-rows.knor");
    let path = file.to_str().unwrap();
    for engine in [vec!["im"], vec!["sem"], vec!["dist"], vec!["dist", "--plane", "sem"]] {
        let out = knor().arg(engine[0]).arg(path).args(&engine[1..]).args(["-k", "99999"]).output();
        let out = out.expect("spawn knor");
        assert_eq!(out.status.code(), Some(2), "{engine:?} -k 99999 must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err, format!("knor: -k 99999 exceeds the 19800 rows of {path}\n"), "{engine:?}");
    }
    std::fs::remove_file(&file).unwrap();
}

/// A server that is not there is the user's to fix: `train`, `query` and
/// `ctl` against a dead address print one line and exit 1 — no backtrace.
#[test]
fn a_dead_address_is_a_one_line_error() {
    let file = gen_small("dead-addr.knor");
    let path = file.to_str().unwrap();
    // Nobody listens on port 1.
    for args in [
        vec!["train", "--addr", "127.0.0.1:1", "--model", "m", "--file", path, "--wait"],
        vec!["query", "--addr", "127.0.0.1:1", "--model", "m", "--file", path],
        vec!["ctl", "--addr", "127.0.0.1:1", "list"],
        vec!["ctl", "--addr", "127.0.0.1:1", "shutdown"],
    ] {
        let out = knor().args(&args).output().expect("spawn knor");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} → {err:?}");
        assert!(err.starts_with("knor: 127.0.0.1:1: "), "{args:?} → {err:?}");
        assert!(!err.contains("panicked"), "{args:?} → {err:?}");
        assert_eq!(err.trim_end().lines().count(), 1, "{args:?}: one line, got {err:?}");
    }
    // Neither can a file be written into a directory that is not there.
    let out =
        knor().args(["gen", "/nonexistent/dir/x.knor", "--scale", "0.0001"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err:?}");
    assert!(err.starts_with("knor: /nonexistent/dir/x.knor: ") && !err.contains("panicked"));
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn valid_flags_still_run_end_to_end() {
    let file = tmp("ok.knor");
    let gen = knor()
        .args(["gen", file.to_str().unwrap(), "--dataset", "friendster8", "--scale", "0.0002"])
        .output()
        .expect("spawn gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));

    let im = knor()
        .args(["im", file.to_str().unwrap(), "-k", "4", "-i", "5", "-t", "2"])
        .output()
        .expect("spawn im");
    assert!(im.status.success(), "{}", String::from_utf8_lossy(&im.stderr));

    // Yinyang end to end, with the pruning section of --stats.
    let yy = knor()
        .args([
            "im",
            file.to_str().unwrap(),
            "-k",
            "4",
            "-i",
            "5",
            "-t",
            "2",
            "--pruning",
            "yinyang",
            "--stats",
        ])
        .output()
        .expect("spawn im yinyang");
    assert!(yy.status.success(), "{}", String::from_utf8_lossy(&yy.stderr));
    let stdout = String::from_utf8_lossy(&yy.stdout);
    let prune = stdout
        .lines()
        .find(|l| l.starts_with("prune: "))
        .unwrap_or_else(|| panic!("--stats must print the prune line: {stdout}"));
    assert!(prune.contains("scheme=yinyang"), "{prune}");
    assert!(prune.contains("groups=1"), "k=4 → t=1: {prune}");
    assert!(prune.contains("bound_B="), "{prune}");
    assert!(prune.contains("io_skip_rows=0"), "direct plane never skips I/O: {prune}");

    // Post-parse domain checks still reject cleanly (fuzzifier domain).
    let fuzz = knor()
        .args(["im", file.to_str().unwrap(), "-k", "2", "--algo", "fuzzy", "--fuzz", "1.0"])
        .output()
        .expect("spawn fuzzy");
    assert_eq!(fuzz.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&fuzz.stderr).contains("--fuzz"));

    // dist over SEM ranks straight from the CLI, with the I/O summary.
    let dist = knor()
        .args([
            "dist",
            file.to_str().unwrap(),
            "-k",
            "4",
            "-i",
            "5",
            "--ranks",
            "2",
            "--plane",
            "sem",
            "--row-cache",
            "4",
            "--stats",
        ])
        .output()
        .expect("spawn dist+sem");
    assert!(dist.status.success(), "{}", String::from_utf8_lossy(&dist.stderr));
    let stdout = String::from_utf8_lossy(&dist.stdout);
    assert!(stdout.contains("knord:"), "{stdout}");
    assert!(stdout.contains("rank 0 io:"), "--stats must print per-rank I/O: {stdout}");
    assert!(stdout.contains("rank 1 io:"), "{stdout}");

    std::fs::remove_file(&file).unwrap();
}

#[test]
fn kernel_flag_reports_what_actually_ran() {
    let file = tmp("kern.knor");
    let gen = knor()
        .args(["gen", file.to_str().unwrap(), "--dataset", "friendster8", "--scale", "0.0002"])
        .output()
        .expect("spawn gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));

    // --kernel gemm under MTI (the default) downgrades to the exact tiled
    // path; --stats must say so in one explicit line.
    let gemm_mti = knor()
        .args(["im", file.to_str().unwrap(), "-k", "4", "-i", "3", "--kernel", "gemm", "--stats"])
        .output()
        .expect("spawn im gemm");
    assert!(gemm_mti.status.success(), "{}", String::from_utf8_lossy(&gemm_mti.stderr));
    let stdout = String::from_utf8_lossy(&gemm_mti.stdout);
    let note = stdout
        .lines()
        .find(|l| l.starts_with("kernel: "))
        .unwrap_or_else(|| panic!("--stats must print the kernel note: {stdout}"));
    assert!(note.contains("requested=gemm"), "{note}");
    assert!(note.contains("resolved=tiled"), "{note}");
    // Nothing packs a centroid panel for the tiled kernel.
    assert!(stdout.contains(" gathered_rows=0 panel_packs=0\n"), "{stdout}");

    // Without pruning the request sticks.
    let gemm = knor()
        .args([
            "im",
            file.to_str().unwrap(),
            "-k",
            "4",
            "-i",
            "3",
            "--pruning",
            "none",
            "--kernel",
            "gemm",
            "-t",
            "3",
            "--stats",
        ])
        .output()
        .expect("spawn im gemm");
    assert!(gemm.status.success(), "{}", String::from_utf8_lossy(&gemm.stderr));
    let stdout = String::from_utf8_lossy(&gemm.stdout);
    let note = stdout.lines().find(|l| l.starts_with("kernel: ")).expect("kernel note");
    assert!(note.contains("requested=gemm") && note.contains("resolved=gemm"), "{note}");
    // The commit line shows the mechanism: an unscoped run reads every row
    // where it lies, and each of the 3 workers packs the GEMM panel once
    // per iteration.
    let iters: u64 = stdout
        .strip_prefix("knori: ")
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no iteration count in {stdout}"));
    let commit = stdout.lines().find(|l| l.starts_with("commit: ")).expect("commit line");
    assert!(commit.contains(" gathered_rows=0 "), "{commit}");
    assert!(commit.ends_with(&format!(" panel_packs={}", iters * 3)), "{commit}");

    std::fs::remove_file(&file).unwrap();
}

/// A missing or truncated input is the user's to fix: one `knor: <path>: …`
/// line and exit 1 from every engine — never a panic (exit 101), and never
/// the hang a failed SEM read at `-t 2` used to be.
#[test]
fn missing_and_truncated_inputs_are_one_line_errors() {
    let missing = tmp("missing.knor");
    let short = tmp("short.knor");
    let gen = knor()
        .args(["gen", short.to_str().unwrap(), "--dataset", "friendster8", "--scale", "0.0002"])
        .output()
        .expect("spawn gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let full = std::fs::metadata(&short).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&short).unwrap().set_len(full * 97 / 100).unwrap();

    for (file, what) in [(&missing, "No such file"), (&short, "header declares")] {
        let path = file.to_str().unwrap();
        for engine in [
            vec!["im", path, "-k", "4"],
            vec!["sem", path, "-k", "4", "-t", "1"],
            vec!["sem", path, "-k", "4", "-t", "2"],
            vec!["dist", path, "-k", "4", "--ranks", "2", "--plane", "sem"],
            // Reads its queries before it dials: nobody listens on port 1.
            vec!["query", "--addr", "127.0.0.1:1", "--model", "m", "--file", path],
        ] {
            let out = knor().args(&engine).output().expect("spawn knor");
            assert_eq!(out.status.code(), Some(1), "{engine:?} must exit 1");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.starts_with(&format!("knor: {path}: ")), "{engine:?} → {err:?}");
            assert!(err.contains(what), "{engine:?} → {err:?}");
            assert_eq!(err.trim_end().lines().count(), 1, "{engine:?}: one line, got {err:?}");
        }
    }
    std::fs::remove_file(&short).unwrap();
}

/// `knor im` holds its input once: the file is read straight into the
/// placed layout, so the process peaks well under twice the file (it was
/// 2.09x when a `DMatrix` was read first and copied), and `--stats` says
/// what the load cost and what the run holds.
#[test]
fn im_stats_report_the_load_and_a_peak_under_one_and_a_half_inputs() {
    let file = tmp("hwm.knor");
    let gen = knor()
        .args(["gen", file.to_str().unwrap(), "--dataset", "friendster32", "--scale", "0.0015"])
        .output()
        .expect("spawn gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let file_bytes = std::fs::metadata(&file).unwrap().len();
    assert!(file_bytes >= 16 << 20, "the input must dwarf the process's fixed costs");

    let run = knor()
        .args(["im", file.to_str().unwrap(), "-k", "8", "-i", "3", "-t", "4", "--stats"])
        .output()
        .expect("spawn im");
    std::fs::remove_file(&file).unwrap();
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let stdout = String::from_utf8_lossy(&run.stdout);
    let field = |line: &str, key: &str| -> String {
        let l = stdout
            .lines()
            .find(|l| l.starts_with(line))
            .unwrap_or_else(|| panic!("--stats must print a `{line}` line: {stdout}"));
        let v = l.split_whitespace().find_map(|w| w.strip_prefix(key));
        v.unwrap_or_else(|| panic!("no {key} in {l:?}")).to_string()
    };
    assert_eq!(field("load: ", "bytes="), (file_bytes - 24).to_string());
    assert_eq!(field("load: ", "threads="), "4");
    let accounted: f64 = field("memory: ", "accounted_MB=").parse().unwrap();
    assert!(accounted * 1e6 >= (file_bytes - 24) as f64, "the data is accounted: {accounted}");
    if cfg!(target_os = "linux") {
        let hwm: f64 = field("memory: ", "VmHWM_MB=").parse().unwrap();
        assert!(hwm >= accounted, "the peak covers what is accounted: {hwm} < {accounted}");
        assert!(hwm * 1e6 <= 1.5 * file_bytes as f64, "peak {hwm} MB for a {file_bytes} B file");
    } else {
        assert_eq!(field("memory: ", "VmHWM_MB="), "n/a");
    }
}

/// A small clustered input for the SEM tests below.
fn gen_small(name: &str) -> std::path::PathBuf {
    let file = tmp(name);
    let gen = knor()
        .args(["gen", file.to_str().unwrap(), "--dataset", "friendster8", "--scale", "0.0003"])
        .output()
        .expect("spawn gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    file
}

/// `--stats` on a SEM run prints one `io:` line — requests, reads, pages
/// per read, the thread-seconds they took and the bandwidth that is — so
/// bytes × bandwidth can be checked without `--trace`.
#[test]
fn sem_stats_print_one_request_path_line_that_parses() {
    let file = gen_small("io-line.knor");
    let path = file.to_str().unwrap();
    let caches = ["--row-cache", "1", "--page-cache", "1", "--stats"];
    for engine in [
        vec!["sem", path, "-k", "6", "-i", "6", "-t", "2"],
        vec!["dist", path, "-k", "6", "-i", "6", "--ranks", "2", "--plane", "sem"],
    ] {
        let run = knor().args(&engine).args(caches).output().expect("spawn knor");
        assert!(run.status.success(), "{engine:?}: {}", String::from_utf8_lossy(&run.stderr));
        let stdout = String::from_utf8_lossy(&run.stdout);
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("io: ")).collect();
        assert_eq!(lines.len(), 1, "{engine:?}: one `io:` line in {stdout}");
        let fields: Vec<(&str, f64)> = lines[0]["io: ".len()..]
            .split_whitespace()
            .map(|w| {
                let (key, v) = w.split_once('=').unwrap_or_else(|| panic!("{w:?} in {lines:?}"));
                (key, v.parse().unwrap_or_else(|_| panic!("{w:?} in {lines:?}")))
            })
            .collect();
        let keys: Vec<&str> = fields.iter().map(|f| f.0).collect();
        assert_eq!(
            keys,
            ["fetch_calls", "device_reads", "pages/read", "fetch_s", "MB/s/thread", "arena_KB"]
        );
        let get = |key: &str| fields.iter().find(|f| f.0 == key).unwrap().1;
        assert!(get("device_reads") > 0.0 && get("fetch_calls") > 0.0, "{lines:?}");
        assert!(get("pages/read") >= 1.0 && get("MB/s/thread") > 0.0, "{lines:?}");
        assert!(get("arena_KB") > 0.0, "{lines:?}");
    }
    std::fs::remove_file(&file).unwrap();
}

/// `knor … | head -1`: a reader that closes stdout — before anything is
/// printed, or after the first line — ends the process quietly, exit 0 and
/// nothing about a panic on stderr.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let file = gen_small("epipe.knor");
    let path = file.to_str().unwrap();
    for engine in [
        vec!["sem", path, "-k", "6", "-i", "8", "-t", "2", "--stats"],
        vec!["im", path, "-k", "6", "-i", "8", "-t", "2", "--stats"],
    ] {
        for read_first_line in [false, true] {
            let mut child = knor()
                .args(&engine)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn knor");
            let mut stdout = BufReader::new(child.stdout.take().unwrap());
            if read_first_line {
                let mut line = String::new();
                stdout.read_line(&mut line).unwrap();
                assert!(line.starts_with("knor"), "{engine:?}: {line:?}");
            }
            drop(stdout);
            let mut stderr = String::new();
            child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
            let status = child.wait().unwrap();
            let what = format!("{engine:?} first line read: {read_first_line}");
            assert!(!stderr.contains("panicked"), "{what}: {stderr}");
            assert_eq!(stderr, "", "{what}");
            assert_eq!(status.code(), Some(0), "{what}");
        }
    }
    std::fs::remove_file(&file).unwrap();
}

/// The iteration and `SSE =` lines of a run, with the wall time masked.
fn iterations_and_sse(stdout: &str) -> String {
    let lines = stdout.lines().filter(|l| l.contains(" iterations in ") || l.starts_with("SSE = "));
    lines
        .map(|l| mask(l.split_once(": ").map_or(l, |(_, rest)| rest)))
        .collect::<Vec<_>>()
        .join(" / ")
}

/// One description, one run: the same `-k`, `--seed` and `--init forgy`
/// name the same rows on every engine, so all four print the same
/// iteration count and SSE. (knori's Forgy used to be a different draw.)
#[test]
fn one_spec_prints_the_same_run_on_every_engine() {
    let file = gen_small("one-spec.knor");
    let path = file.to_str().unwrap();
    let run = |engine: &[&str]| {
        let args = ["-k", "10", "--init", "forgy", "--seed", "5"];
        let out = knor().arg(engine[0]).arg(path).args(&engine[1..]).args(args).output().unwrap();
        assert!(out.status.success(), "{engine:?}: {}", String::from_utf8_lossy(&out.stderr));
        iterations_and_sse(&String::from_utf8_lossy(&out.stdout))
    };
    let im = run(&["im"]);
    assert!(im.contains(" iterations in T (converged = ") && im.contains(" / SSE = "), "{im}");
    for engine in [&["sem"][..], &["dist"], &["dist", "--plane", "sem"], &["dist", "--star"]] {
        assert_eq!(run(engine), im, "{engine:?}");
    }
    std::fs::remove_file(&file).unwrap();
}

/// `line` with its timings — and what depends on the host's CPU — masked.
fn mask(line: &str) -> String {
    let mut out = line.to_string();
    for key in
        [" iterations in ", "secs=", "MB/s=", "VmHWM_MB=", "fetch_s=", "MB/s/thread=", "fma="]
    {
        if let Some(at) = out.find(key).map(|at| at + key.len()) {
            let end = out[at..].find(' ').map_or(out.len(), |e| at + e);
            out.replace_range(at..end, "T");
        }
    }
    out
}

/// `--stats` is a record people diff. With timings masked, what each
/// engine prints at `-t 1` is the text captured from the binary of the
/// commit before `RunSpec` (PR 19) on the same generated file: the kernel
/// note, the prune, commit, numa and memory lines, the I/O and wire tables;
/// plus the `init:` line, whose k-means++ distance count is exact.
#[test]
fn stats_output_is_the_text_the_per_engine_arms_printed() {
    let file = gen_small("golden.knor");
    let path = file.to_str().unwrap();
    let golden = |name: &str| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        std::fs::read_to_string(format!("{dir}/stats_{name}.txt")).expect("read golden")
    };
    let caches = ["--row-cache", "1", "--page-cache", "1"];
    for (name, engine) in [
        ("im", vec!["im"]),
        ("sem", [&["sem"][..], &caches].concat()),
        ("dist", vec!["dist", "--ranks", "2"]),
        ("dist_sem", [&["dist", "--ranks", "2", "--plane", "sem"][..], &caches].concat()),
    ] {
        let out = knor()
            .arg(engine[0])
            .arg(path)
            .args(&engine[1..])
            .args(["-k", "16", "-i", "12", "-t", "1", "--stats"])
            // One node whatever the host: the `numa:` line is the run's.
            .env("KNOR_SYNTH_NODES", "1")
            .output()
            .expect("spawn knor");
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The phase table under the record is all timings.
        let record: Vec<String> =
            stdout.lines().take_while(|l| !l.starts_with("phase breakdown")).map(mask).collect();
        assert_eq!(record.join("\n") + "\n", golden(name), "{name}");
    }
    std::fs::remove_file(&file).unwrap();
}

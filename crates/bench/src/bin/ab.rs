//! `ab`: run `knor_bench` workloads on two builds in alternating pairs
//! and print, per workload, the comparison table (quartiles, ratio, pairs
//! won, sign-test p) for every metric of the result line.
//!
//! ```text
//! ab --workload W[,W2…] [--pairs N] [--seconds S] [--seed N] [--trace 0|1]
//!    [--dir D] BASE [CHANGE]
//! ab --aa --workload W[,W2…] … BASE
//! ab --layout --workload W[,W2…] … BASE
//! ```
//!
//! `BASE` and `CHANGE` are git revisions of the repository the command
//! runs in (each exported with `git archive` into `D/a/src` or `D/b/src`), or
//! paths to existing checkouts, used in place. `CHANGE` defaults to the
//! current directory. With `--aa`, `BASE` is exported twice and built in
//! two target directories: the A/A' noise floor. With `--layout`, `BASE`
//! (a revision) is exported twice and the second copy of the `knor`
//! binary's source gets one function that is never called
//! ([`pad_layout`]): the floor that a change of code layout alone sets.
//! Each side is built once by the benchmark's own `run.sh` with `CARGO_TARGET_DIR=D/a|b/target`. Then,
//! one workload after the other in the order given, pair `i` runs `run.sh
//! --workload W --seed N --seconds S --trace T` on both sides, A first when
//! `i` is even and B first when it is odd, with [`PAUSE`] between runs. The
//! raw result lines go to `D/ab-<W>-seed<N>-trace<T>.jsonl`, each workload's table
//! to standard output as soon as its pairs are done.
//!
//! ```sh
//! cargo run --release -p knor-bench --bin ab -- --workload serve_mix --pairs 10 HEAD~1 HEAD
//! cargo run --release -p knor-bench --bin ab -- --workload im_dense,sem_stream --pairs 5 HEAD~1
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use knor_bench::ab::{metric_specs, render_table, Paired, RunResult};
use knor_bench::regression::Json;

const USAGE: &str =
    "usage: ab --workload W[,W2…] [--pairs N] [--seconds S] [--seed N] [--trace 0|1] \
                     [--dir D] [--aa | --layout] BASE [CHANGE]";

/// The benchmark script, relative to a checkout's root.
const RUN_SH: &str = "crates/bench/src/bin/knor_bench/run.sh";

/// The `knor` binary's source, relative to a checkout's root: where
/// `--layout` adds its function.
const KNOR_RS: &str = "src/bin/knor.rs";

/// The idle time before each run, so one run's exit does not overlap the
/// next one's start.
const PAUSE: Duration = Duration::from_secs(2);

struct Args {
    workloads: Vec<String>,
    pairs: usize,
    seconds: String,
    seed: String,
    trace: String,
    dir: PathBuf,
    aa: bool,
    layout: bool,
    sides: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        pairs: 10,
        seconds: "30".into(),
        seed: "1".into(),
        trace: "0".into(),
        dir: PathBuf::from("target/ab"),
        aa: false,
        layout: false,
        sides: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads = workloads(&value()?)?,
            "--pairs" => a.pairs = value()?.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seconds" => a.seconds = value()?,
            "--seed" => a.seed = value()?,
            "--trace" => a.trace = value()?,
            "--dir" => a.dir = PathBuf::from(value()?),
            "--aa" => a.aa = true,
            "--layout" => a.layout = true,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            side => a.sides.push(side.to_string()),
        }
    }
    if a.workloads.is_empty() || a.pairs == 0 {
        return Err("--workload and at least one pair are required".into());
    }
    match (a.aa, a.layout, a.sides.len()) {
        (true, false, 1) | (false, true, 1) | (false, false, 1 | 2) => Ok(a),
        _ => Err("give BASE [CHANGE], --aa BASE or --layout BASE".into()),
    }
}

/// The workloads of a comma-separated `--workload` list, in order; an
/// empty item or one named twice is an error.
fn workloads(list: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for w in list.split(',') {
        if w.is_empty() {
            return Err(format!("--workload {list:?}: empty item"));
        }
        if out.iter().any(|o| o == w) {
            return Err(format!("--workload {list:?}: {w} named twice"));
        }
        out.push(w.to_string());
    }
    Ok(out)
}

/// A side's source tree: a checkout used in place, or `rev` exported.
fn source(rev: &str, dir: &Path) -> Result<PathBuf, String> {
    if Path::new(rev).join(RUN_SH).is_file() {
        return std::fs::canonicalize(rev).map_err(|e| format!("{rev}: {e}"));
    }
    let src = dir.join("src");
    let _ = std::fs::remove_dir_all(&src);
    std::fs::create_dir_all(&src).map_err(|e| format!("{}: {e}", src.display()))?;
    let archive = dir.join("src.tar");
    run(Command::new("git").args(["archive", "-o"]).arg(&archive).arg(rev))?;
    run(Command::new("tar").arg("-xf").arg(&archive).arg("-C").arg(&src))?;
    std::fs::remove_file(&archive).map_err(|e| e.to_string())?;
    Ok(src)
}

/// `knor.rs` with one more function: `#[inline(never)]`, never called,
/// its address taken in `main` so that the compiler emits it and the code
/// placed after it moves. Nothing else about the binary changes.
fn pad_layout(knor_rs: &str) -> Result<String, String> {
    const MAIN: &str = "\nfn main() {\n";
    if knor_rs.matches(MAIN).count() != 1 {
        return Err(format!("{KNOR_RS}: no single `fn main() {{` line to pad"));
    }
    let text = knor_rs.replacen(
        MAIN,
        &format!("{MAIN}    std::hint::black_box(ab_layout_pad as fn(u64) -> u64);\n"),
        1,
    );
    Ok(text
        + "\n/// Added by `ab --layout`: never called.\n#[inline(never)]\n\
           fn ab_layout_pad(x: u64) -> u64 {\n    \
           x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)\n}\n")
}

fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{cmd:?}: {}\n{}", out.status, String::from_utf8_lossy(&out.stderr)));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

struct Side {
    label: &'static str,
    rev: String,
    src: PathBuf,
    target: PathBuf,
}

impl Side {
    fn bench(&self, args: &[&str]) -> Result<String, String> {
        run(Command::new("bash")
            .arg(self.src.join(RUN_SH))
            .args(args)
            .current_dir(&self.src)
            .env("CARGO_TARGET_DIR", &self.target))
    }
}

fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                Some(l.strip_prefix("model name")?.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown CPU".into());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("host: {cpu}, {nproc} vCPUs, Linux {}", kernel.trim())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_args(&argv).and_then(|a| compare(&a)) {
        eprintln!("ab: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

fn compare(a: &Args) -> Result<(), String> {
    let (base, change) = match a.sides.as_slice() {
        [base] if a.aa => ((base.clone(), "A"), (base.clone(), "A'")),
        [base] if a.layout => ((base.clone(), "A"), (base.clone(), "A+pad")),
        [base] => ((base.clone(), "parent"), (".".to_string(), "change")),
        [base, change] => ((base.clone(), "parent"), (change.clone(), "change")),
        _ => unreachable!("checked by parse_args"),
    };
    let mut sides = Vec::new();
    for (i, (rev, label)) in [base, change].into_iter().enumerate() {
        let dir = a.dir.join(["a", "b"][i]);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
        let src = source(&rev, &dir)?;
        if a.layout && i == 1 {
            if Path::new(&rev).join(RUN_SH).is_file() {
                return Err(format!("--layout {rev}: give a revision, not a checkout"));
            }
            let path = src.join(KNOR_RS);
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{KNOR_RS}: {e}"))?;
            std::fs::write(&path, pad_layout(&text)?).map_err(|e| format!("{KNOR_RS}: {e}"))?;
        }
        let side = Side { rev: rev.clone(), label, src, target: dir.join("target") };
        eprintln!("ab: building {} ({}) in {}", side.label, side.rev, side.target.display());
        side.bench(&["--list"])?;
        sides.push(side);
    }
    let benchmark = std::fs::read_to_string(sides[0].src.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t))?;
    println!("{}", host_line());
    println!("{} = {}, {} = {}", sides[0].label, sides[0].rev, sides[1].label, sides[1].rev);
    for workload in &a.workloads {
        println!();
        compare_workload(a, workload, &sides, &benchmark)?;
    }
    Ok(())
}

/// `a.pairs` alternating pairs of `workload` on the built `sides`, then
/// its table.
fn compare_workload(
    a: &Args,
    workload: &str,
    sides: &[Side],
    benchmark: &Json,
) -> Result<(), String> {
    // The seed is in the name: two seeds' runs in one `--dir` keep both logs.
    let log_path = a.dir.join(format!("ab-{workload}-seed{}-trace{}.jsonl", a.seed, a.trace));
    let mut log = String::new();
    let mut pairs = Vec::with_capacity(a.pairs);
    let run_args =
        ["--workload", workload, "--seed", &a.seed, "--seconds", &a.seconds, "--trace", &a.trace];
    for i in 0..a.pairs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut results: [Option<RunResult>; 2] = [None, None];
        for s in order {
            std::thread::sleep(PAUSE);
            let stdout = sides[s].bench(&run_args)?;
            let r = RunResult::parse(&stdout).map_err(|e| format!("{}: {e}", sides[s].label))?;
            eprintln!(
                "ab: {workload} pair {}/{} {}: correct={} failed={}/{}",
                i + 1,
                a.pairs,
                sides[s].label,
                r.correct,
                r.failed,
                r.attempted
            );
            log.push_str(&format!(
                "{{\"pair\":{i},\"side\":{s},\"result\":{}}}\n",
                stdout.lines().last().unwrap_or("")
            ));
            results[s] = Some(r);
        }
        let [Some(ra), Some(rb)] = results else { unreachable!("both sides ran") };
        pairs.push((ra, rb));
        std::fs::write(&log_path, &log).map_err(|e| format!("{}: {e}", log_path.display()))?;
    }
    let rows: Vec<Paired> =
        metric_specs(benchmark).iter().map(|m| Paired::collect(m, &pairs)).collect();
    println!(
        "workload {}, {} alternating pairs, seed {}, {} s windows, trace {}; raw lines in {}\n",
        workload,
        a.pairs,
        a.seed,
        a.seconds,
        a.trace,
        log_path.display()
    );
    let ok = |side: usize| pairs.iter().filter(|p| [&p.0, &p.1][side].correct).count();
    let failed = |side: usize| pairs.iter().map(|p| [&p.0, &p.1][side].failed).sum::<f64>();
    println!(
        "correct: {} {}/{}, {} {}/{}; failed operations: {} vs {}\n",
        sides[0].label,
        ok(0),
        a.pairs,
        sides[1].label,
        ok(1),
        a.pairs,
        failed(0),
        failed(1)
    );
    print!("{}", render_table(sides[0].label, sides[1].label, &rows));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_degenerate_ones_are_refused() {
        let a = args("--workload serve_mix --pairs 4 --seconds 10 HEAD~1 HEAD").unwrap();
        assert_eq!(a.workloads, ["serve_mix"]);
        assert_eq!((a.pairs, a.seconds.as_str()), (4, "10"));
        assert_eq!(a.sides, ["HEAD~1", "HEAD"]);
        assert!(args("--aa --workload im_dense HEAD").unwrap().aa);
        let layout = args("--layout --workload im_dense HEAD").unwrap();
        assert!(layout.layout && !layout.aa);
        assert_eq!(layout.sides, ["HEAD"]);
        for bad in [
            "HEAD",
            "--workload w",
            "--workload w --aa A B",
            "--workload w A B C",
            "--workload w --pairs 0 A",
            "--frob --workload w A",
            "--layout --workload w A B",
            "--layout --workload w",
            "--aa --layout --workload w A",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// `--layout` adds one function and one line that takes its address,
    /// and refuses a source it cannot place them in.
    #[test]
    fn layout_padding_adds_one_uncalled_function() {
        let src = "use std::x;\n\nfn main() {\n    run();\n}\n";
        let padded = pad_layout(src).unwrap();
        assert!(padded.starts_with(
            "use std::x;\n\nfn main() {\n    std::hint::black_box(ab_layout_pad as fn(u64) -> u64);\n    run();\n}\n"
        ));
        assert!(padded.contains("#[inline(never)]\nfn ab_layout_pad(x: u64) -> u64 {"));
        assert_eq!(padded.matches("ab_layout_pad").count(), 2);
        assert!(pad_layout("fn helper() {}\n").is_err());
        assert!(pad_layout("\nfn main() {\n}\n\nfn main() {\n}\n").is_err());
    }

    #[test]
    fn a_workload_list_keeps_its_order_and_refuses_empty_items_and_repeats() {
        let a = args("--workload im_pruned,im_dense,sem_stream,serve_mix --aa A").unwrap();
        assert_eq!(a.workloads, ["im_pruned", "im_dense", "sem_stream", "serve_mix"]);
        for bad in [
            "--workload , A",
            "--workload im_dense, A",
            "--workload ,im_dense A",
            "--workload im_dense,,sem_stream A",
            "--workload im_dense,sem_stream,im_dense A",
            "--workload serve_mix,serve_mix A",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}

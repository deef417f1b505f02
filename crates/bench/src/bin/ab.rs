//! `ab`: run one `knor_bench` workload on two builds in alternating pairs
//! and print the comparison table (quartiles, ratio, pairs won, sign-test
//! p) for every metric of the result line.
//!
//! ```text
//! ab --workload W [--pairs N] [--seconds S] [--seed N] [--trace 0|1]
//!    [--dir D] BASE [CHANGE]
//! ab --aa --workload W … BASE
//! ```
//!
//! `BASE` and `CHANGE` are git revisions of the repository the command
//! runs in (each exported with `git archive` into `D/a/src` or `D/b/src`), or
//! paths to existing checkouts, used in place. `CHANGE` defaults to the
//! current directory. With `--aa`, `BASE` is exported twice and built in
//! two target directories: the A/A' noise floor. Each side is built by the
//! benchmark's own `run.sh` with `CARGO_TARGET_DIR=D/a|b/target`, then
//! pair `i` runs `run.sh --workload W --seed N --seconds S --trace T` on
//! both sides, A first when `i` is even and B first when it is odd, with
//! [`PAUSE`] between runs. The raw result lines go to
//! `D/ab-<W>-trace<T>.jsonl`, the table to standard output.
//!
//! ```sh
//! cargo run --release -p knor-bench --bin ab -- --workload serve_mix --pairs 10 HEAD~1 HEAD
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use knor_bench::ab::{metric_specs, render_table, Paired, RunResult};
use knor_bench::regression::Json;

const USAGE: &str = "usage: ab --workload W [--pairs N] [--seconds S] [--seed N] [--trace 0|1] \
                     [--dir D] [--aa] BASE [CHANGE]";

/// The benchmark script, relative to a checkout's root.
const RUN_SH: &str = "crates/bench/src/bin/knor_bench/run.sh";

/// The idle time before each run, so one run's exit does not overlap the
/// next one's start.
const PAUSE: Duration = Duration::from_secs(2);

struct Args {
    workload: String,
    pairs: usize,
    seconds: String,
    seed: String,
    trace: String,
    dir: PathBuf,
    aa: bool,
    sides: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        pairs: 10,
        seconds: "30".into(),
        seed: "1".into(),
        trace: "0".into(),
        dir: PathBuf::from("target/ab"),
        aa: false,
        sides: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--pairs" => a.pairs = value()?.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seconds" => a.seconds = value()?,
            "--seed" => a.seed = value()?,
            "--trace" => a.trace = value()?,
            "--dir" => a.dir = PathBuf::from(value()?),
            "--aa" => a.aa = true,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            side => a.sides.push(side.to_string()),
        }
    }
    if a.workload.is_empty() || a.pairs == 0 {
        return Err("--workload and at least one pair are required".into());
    }
    match (a.aa, a.sides.len()) {
        (true, 1) | (false, 1 | 2) => Ok(a),
        _ => Err("give BASE [CHANGE], or --aa BASE".into()),
    }
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
    let (base, change) = match (a.aa, a.sides.as_slice()) {
        (true, [base]) => ((base.clone(), "A"), (base.clone(), "A'")),
        (_, [base]) => ((base.clone(), "parent"), (".".to_string(), "change")),
        (_, [base, change]) => ((base.clone(), "parent"), (change.clone(), "change")),
        _ => unreachable!("checked by parse_args"),
    };
    let mut sides = Vec::new();
    for (i, (rev, label)) in [base, change].into_iter().enumerate() {
        let dir = a.dir.join(["a", "b"][i]);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
        let side =
            Side { rev: rev.clone(), label, src: source(&rev, &dir)?, target: dir.join("target") };
        eprintln!("ab: building {} ({}) in {}", side.label, side.rev, side.target.display());
        side.bench(&["--list"])?;
        sides.push(side);
    }
    let benchmark = std::fs::read_to_string(sides[0].src.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t))?;
    let log_path = a.dir.join(format!("ab-{}-trace{}.jsonl", a.workload, a.trace));
    let mut log = String::new();
    let mut pairs = Vec::with_capacity(a.pairs);
    let run_args = [
        "--workload",
        &a.workload,
        "--seed",
        &a.seed,
        "--seconds",
        &a.seconds,
        "--trace",
        &a.trace,
    ];
    for i in 0..a.pairs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut results: [Option<RunResult>; 2] = [None, None];
        for s in order {
            std::thread::sleep(PAUSE);
            let stdout = sides[s].bench(&run_args)?;
            let r = RunResult::parse(&stdout).map_err(|e| format!("{}: {e}", sides[s].label))?;
            eprintln!(
                "ab: pair {}/{} {}: correct={} failed={}/{}",
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
        metric_specs(&benchmark).iter().map(|m| Paired::collect(m, &pairs)).collect();
    println!("{}", host_line());
    println!("{} = {}, {} = {}", sides[0].label, sides[0].rev, sides[1].label, sides[1].rev);
    println!(
        "workload {}, {} alternating pairs, seed {}, {} s windows, trace {}; raw lines in {}\n",
        a.workload,
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
        assert_eq!((a.workload.as_str(), a.pairs, a.seconds.as_str()), ("serve_mix", 4, "10"));
        assert_eq!(a.sides, ["HEAD~1", "HEAD"]);
        assert!(args("--aa --workload im_dense HEAD").unwrap().aa);
        for bad in [
            "HEAD",
            "--workload w",
            "--workload w --aa A B",
            "--workload w A B C",
            "--workload w --pairs 0 A",
            "--frob --workload w A",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}

//! `knor_bench` — the repository's benchmark: four long workloads driven
//! through the shipped `knor` binary for the end-to-end metrics, and a
//! separate traced run per workload that times calls into each layer's
//! public functions for the per-layer metrics. See `README.md` beside
//! this file for the definitions and `BENCHMARK.json` for the contract.
//!
//! ```text
//! knor_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! knor_bench                 every workload, untraced then traced
//! knor_bench --list          every metric of every workload, unmeasured
//! knor_bench --agree [--runs R] [--seed N] [--seconds S] [--smoke]
//! knor_bench --benchmark-json
//! ```

mod agree;
mod calib;
mod catalog;
mod child;
mod host;
mod inputs;
mod json;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use report::{Outcome, Report};
use std::io;
use std::process::{Command, ExitCode};
use train::Scale;

/// Everything a run is parameterised by.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub scale: Scale,
}

struct Args {
    workload: Option<String>,
    traced: bool,
    agree: bool,
    runs: usize,
    list: bool,
    benchmark_json: bool,
    params: Params,
}

const USAGE: &str = "usage: knor_bench [--workload im_dense|im_pruned|sem_stream|serve_mix]
           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       knor_bench --agree [--runs R] [--seed N] [--seconds S] [--smoke]
       knor_bench --list | --benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        traced: false,
        agree: false,
        runs: 2,
        list: false,
        benchmark_json: false,
        params: Params {
            seed: 1,
            seconds: catalog::RUN_SECONDS as f64,
            threads: host::threads(),
            scale: Scale::Full,
        },
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !catalog::is_workload(w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                args.params.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 170.0) {
                    return Err(format!("--seconds {s}: must be in (0, 170]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs 0: need at least one run per set".into());
                }
            }
            "--smoke" => args.params.scale = Scale::Smoke,
            "--agree" => args.agree = true,
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // `--smoke`: a twentieth of the data in 2-second windows.
    args.params.seconds = seconds.unwrap_or(match args.params.scale {
        Scale::Full => catalog::RUN_SECONDS as f64,
        Scale::Smoke => 2.0,
    });
    Ok(args)
}

/// Run one workload in one mode, write its report (and, traced, its
/// chrome trace) under `results/bench/`.
pub fn run_one(workload: &str, traced: bool, p: Params) -> io::Result<Report> {
    let host = host::record(p.seed, p.seconds);
    let report = if traced {
        let (report, recorder) = probes::run(workload, p)?;
        let trace = recorder.chrome_trace(host.clone());
        json::write_report(&format!("trace_{workload}.json"), &trace)?;
        report
    } else {
        match train::workload(workload, p.scale) {
            Some(w) => train::run(&w, p)?,
            None => serve::run(p)?,
        }
    };
    json::write_report(&report.file_name(), &report.to_json(host))?;
    Ok(report)
}

/// Run one workload in one mode the way the driver does: as a fresh
/// process of this program, read back from the last line it prints. (A
/// child's `ru_maxrss` starts from its parent's peak RSS, so a process
/// that has already fitted one workload in-process must not be the one
/// that spawns the next workload's `knor` children.)
pub fn run_in_child(workload: &str, traced: bool, p: Params) -> io::Result<Outcome> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &p.seed.to_string()]);
    cmd.args(["--seconds", &p.seconds.to_string(), "--trace", if traced { "1" } else { "0" }]);
    if p.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    eprintln!("{table}");
    Outcome::parse(line)
        .filter(|_| out.status.success())
        .ok_or_else(|| io::Error::other(format!("{workload} (trace {traced}) printed no result")))
}

fn real_main(args: Args) -> io::Result<()> {
    if args.benchmark_json {
        println!("{}", json::render(&catalog::benchmark_json()));
    } else if args.list {
        print!("{}", catalog::listing());
    } else if args.agree {
        let passed = agree::run(args.params, args.runs)?;
        if !passed {
            return Err(io::Error::other("two sets of runs of the same code disagree"));
        }
    } else if let Some(w) = &args.workload {
        let report = run_one(w, args.traced, args.params)?;
        print!("{}", report.table());
        println!("{}", json::render(&report.result_line()));
    } else {
        // Every metric of every workload by name, with its unit.
        let mut all_correct = true;
        for w in &catalog::WORKLOADS {
            for traced in [false, true] {
                all_correct &= run_in_child(w.name, traced, args.params)?.correct;
            }
        }
        println!("{}", json::render(&json::obj([("correct", json::Json::Bool(all_correct))])));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Internal: `inputs::ensure` generates in a child of its own, and
    // the weather probe (`calib`) is one.
    let internal = match argv.first().map(String::as_str) {
        Some("--generate") => Some(inputs::generate_main(&argv[1..])),
        Some("--probe") => Some(calib::probe_main(&argv[1..])),
        _ => None,
    };
    if let Some(outcome) = internal {
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("knor_bench {}: {e}", argv[0]);
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("knor_bench: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("knor_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a =
            parse(&["--workload", "sem_stream", "--seed", "7", "--seconds", "30", "--trace", "1"])
                .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("sem_stream"));
        assert!(a.traced);
        assert_eq!((a.params.seed, a.params.seconds), (7, 30.0));
        assert_eq!(a.params.scale, Scale::Full);
    }

    #[test]
    fn defaults_and_smoke_windows() {
        let a = parse(&[]).expect("valid");
        assert!(a.workload.is_none() && !a.traced && !a.agree);
        assert_eq!(a.params.seconds, catalog::RUN_SECONDS as f64);
        let s = parse(&["--smoke"]).expect("valid");
        assert_eq!((s.params.scale, s.params.seconds), (Scale::Smoke, 2.0));
        let s = parse(&["--smoke", "--seconds", "5"]).expect("valid");
        assert_eq!(s.params.seconds, 5.0);
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse(&["--workload", "dist_restarts"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "500"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}

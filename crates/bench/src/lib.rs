//! Shared harness utilities for the per-table/per-figure binaries.
//!
//! Every binary follows the same pattern: generate the scaled workload,
//! run the real implementations (measuring exact counters), and — where
//! the paper's EC2 cluster is being simulated (Figs. 11–13) — convert the
//! exact counters into modeled time via [`distmodel`] and `knor-mpi`'s
//! network model (DESIGN.md §3), labelled as modeled.
//! Output is the same rows/series the paper reports.

use knor_core::stats::KmeansResult;
use knor_mpi::NetModel;

pub mod ab;
pub mod distmodel;
pub mod regression;

/// Common CLI arguments: `--scale f --threads t --seed s --iters n`.
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// Row-count scale applied to Table 2 datasets (default 1/1000).
    pub scale: f64,
    /// Worker threads for measured runs (default: all cores).
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Iteration cap for measured runs.
    pub iters: usize,
}

impl HarnessArgs {
    /// Parse from `std::env::args`; unknown flags are ignored.
    pub fn parse() -> Self {
        let mut out = Self {
            scale: 1.0 / 1000.0,
            threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2),
            seed: 1,
            iters: 30,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--scale" => out.scale = args[i + 1].parse().expect("bad --scale"),
                "--threads" => out.threads = args[i + 1].parse().expect("bad --threads"),
                "--seed" => out.seed = args[i + 1].parse().expect("bad --seed"),
                "--iters" => out.iters = args[i + 1].parse().expect("bad --iters"),
                _ => {
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        out
    }
}

/// Pretty time formatting for harness tables.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Pretty byte formatting.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// Measured mean wall time per iteration of a result, skipping the first
/// (cold) iteration when there are enough samples.
pub fn steady_iter_ns(r: &KmeansResult) -> f64 {
    if r.iters.len() > 2 {
        let later = &r.iters[1..];
        later.iter().map(|i| i.wall_ns as f64).sum::<f64>() / later.len() as f64
    } else {
        r.mean_iter_ns()
    }
}

/// The EC2 network model shared by the distributed harnesses.
pub fn ec2_net() -> NetModel {
    NetModel::ec2_10gbe()
}

/// Write a results file under `results/` (created on demand) and echo the
/// path, so EXPERIMENTS.md can reference raw outputs.
pub fn save_results(name: &str, contents: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            println!("\n[saved {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(1.5e9), "1.50 s");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.5e3), "3.50 us");
        assert_eq!(fmt_ns(42.0), "42 ns");
        assert_eq!(fmt_bytes(2e9), "2.00 GB");
        assert_eq!(fmt_bytes(5e5), "500.00 KB");
    }
}

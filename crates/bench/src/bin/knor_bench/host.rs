//! The machine a number was measured on, recorded on every output.

use crate::json::{arr, count, obj, string, Json};
use std::process::Command;

/// Threads for every `-t`, connection count and client thread count.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(4)
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// First `key : value` line of `/proc/cpuinfo` with this key.
fn cpuinfo(key: &str) -> Option<String> {
    read("/proc/cpuinfo")?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Size of the last-level cache of cpu0, from sysfs (`"266240K"` style).
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok()? << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok()? << 20,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

fn opt_string(s: Option<String>) -> Json {
    s.map_or(Json::Null, string)
}

pub fn record(seed: u64, seconds: f64) -> Json {
    let flags = cpuinfo("flags").unwrap_or_default();
    let isa = ["sse2", "avx", "avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|f| flags.split_ascii_whitespace().any(|have| have == *f))
        .map(string);
    let numa_nodes = std::fs::read_dir("/sys/devices/system/node").map_or(0, |d| {
        d.flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .and_then(|n| n.strip_prefix("node"))
                    .is_some_and(|rest| rest.parse::<u32>().is_ok())
            })
            .count()
    });
    obj([
        ("nproc", count(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64)),
        ("cpu_model", opt_string(cpuinfo("model name"))),
        ("isa", arr(isa)),
        ("numa_nodes", count(numa_nodes.max(1) as u64)),
        ("llc_bytes", llc_bytes().map_or(Json::Null, count)),
        ("KNOR_SYNTH_NODES", opt_string(std::env::var("KNOR_SYNTH_NODES").ok())),
        ("git_commit", opt_string(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", opt_string(command_line("rustc", &["--version"]))),
        ("T", count(threads() as u64)),
        ("seed", count(seed)),
        ("seconds", Json::Num(seconds)),
    ])
}

//! Run every table/figure harness in sequence at a quick scale and tee
//! their outputs under `results/`.
//!
//! ```sh
//! cargo run --release -p knor-bench --bin reproduce_all -- --scale 0.001
//! ```

use std::process::Command;

fn main() {
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "tab1_memory",
        "tab2_datasets",
        "tab3_serial",
        "fig05_scheduler",
        "fig06_rc_io",
        "fig07_rc_hits",
        "fig08_mti",
        "fig11_dist_speedup",
        "fig12_dist_time",
        "fig13_sem_vs_dist",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("current exe dir");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n=== {bin} {} ===", "=".repeat(60_usize.saturating_sub(bin.len())));
        let status = Command::new(exe_dir.join(bin)).args(&passthrough).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("[reproduce_all] {bin} failed: {other:?}");
                failures.push(bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll {} experiments completed; outputs in results/.", bins.len());
    } else {
        eprintln!("\nFailed experiments: {failures:?}");
        std::process::exit(1);
    }
}

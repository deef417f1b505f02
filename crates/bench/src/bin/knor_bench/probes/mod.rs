//! The traced run: the workload's command re-enacted in-process through
//! the library with the same configuration and file, every call into a
//! layer's public functions wrapped in a span, plus the comparators and
//! micro-probes the per-layer metrics need. Only layers the workload
//! exercises are measured; the rest of the per-layer list reads 0 for it.
//!
//! Timed probes are medians of at least [`SAMPLES`] samples (the samples
//! are whole calls, or the steady iterations of one call where a call
//! takes seconds). End-to-end metrics are never taken from a traced run.

mod im;
mod sem;
mod serve;

use crate::catalog::SERVE_MIX;
use crate::child;
use crate::report::Report;
use crate::spans::{engine_self_times, Recorder};
use crate::stats::{median, min};
use crate::train::{self, Engine, Scale, Workload};
use crate::Params;
use knor_core::{IterStats, PhaseGroup, TraceBuf};
use std::io;
use std::path::Path;

/// Fewest samples behind a timed probe.
pub const SAMPLES: usize = 7;

/// Iterations of a comparator fit: one unprunable first pass and
/// [`SAMPLES`] + 1 steady ones to sample.
pub const PROBE_ITERS: usize = SAMPLES + 2;

/// Re-enactments of the workload's command (2 under `--smoke`).
fn reps(p: Params) -> usize {
    if p.scale == Scale::Full {
        SAMPLES
    } else {
        2
    }
}

pub fn run(workload: &str, p: Params) -> io::Result<(Report, Recorder)> {
    let mut rec = Recorder::new();
    let mut r = Report::new(workload, true);
    match train::workload(workload, p.scale) {
        Some(w) if w.engine == Engine::Im => im::run(&w, p, &mut rec, &mut r)?,
        Some(w) => sem::run(&w, p, &mut rec, &mut r)?,
        None => {
            debug_assert_eq!(workload, SERVE_MIX);
            serve::run(p, &mut rec, &mut r)?
        }
    }
    Ok((r, rec))
}

/// Wall time of the steady iterations (all but the unprunable first) in ms.
fn steady_ms(iters: &[IterStats]) -> Vec<f64> {
    iters.iter().skip(1).map(|i| i.wall_ns as f64 / 1e6).collect()
}

fn total_wall_ns(iters: &[IterStats]) -> f64 {
    iters.iter().map(|i| i.wall_ns as f64).sum()
}

/// Where one engine run's worker time went: the self time of each phase
/// group as a share of `workers x (sum of iteration wall times)`, and
/// what no span covers.
struct Shares {
    by_group: [f64; 5],
    unattributed: f64,
    /// Self time of the compute group in seconds, summed over workers.
    compute_s: f64,
    /// The same, restricted to iterations after the first.
    steady_compute_s: f64,
}

fn group_index(g: PhaseGroup) -> usize {
    PhaseGroup::ALL.iter().position(|x| *x == g).expect("group is in ALL")
}

fn shares(buf: &TraceBuf, iters: &[IterStats], workers: usize) -> Shares {
    let mut ns = [0u64; 5];
    let mut steady_compute = 0u64;
    for (span, self_ns) in engine_self_times(buf) {
        let g = group_index(span.phase.group());
        ns[g] += self_ns;
        if span.phase.group() == PhaseGroup::Compute && span.iter >= 1 {
            steady_compute += self_ns;
        }
    }
    let total = workers as f64 * total_wall_ns(iters);
    let by_group = ns.map(|x| x as f64 / total);
    Shares {
        by_group,
        unattributed: 1.0 - by_group.iter().sum::<f64>(),
        compute_s: ns[group_index(PhaseGroup::Compute)] as f64 / 1e9,
        steady_compute_s: steady_compute as f64 / 1e9,
    }
}

/// Record the median over reps of each group's share under `prefix`.
fn record_shares(r: &mut Report, prefix: &str, all: &[Shares], groups: &[(PhaseGroup, &str)]) {
    for (g, name) in groups {
        let xs: Vec<f64> = all.iter().map(|s| s.by_group[group_index(*g)]).collect();
        r.sampled(&format!("{prefix}.{name}_frac"), median(&xs), &xs);
    }
    let xs: Vec<f64> = all.iter().map(|s| s.unattributed).collect();
    r.sampled(&format!("{prefix}.unattributed_frac"), median(&xs), &xs);
}

/// `cli.spawn_ms` and `cli.unattributed_s`: what the process costs beyond
/// the library calls it makes. `library_s` is the floor (minimum over the
/// reps) of the in-process work the command is made of.
fn cli_probes(
    w: &Workload,
    file: &Path,
    p: Params,
    library_s: f64,
    r: &mut Report,
) -> io::Result<()> {
    let knor = child::knor_bin()?;
    let help = ["--help".to_string()];
    let spawns = (0..4 * SAMPLES)
        .map(|_| child::run(&knor, &help).map(|done| done.wall_s * 1e3))
        .collect::<io::Result<Vec<f64>>>()?;
    r.sampled("cli.spawn_ms", median(&spawns), &spawns);
    // A difference of two floors; three CLI reps are what the window has
    // room for, so this one derived value rests on fewer than SAMPLES.
    let args = w.command(file, w.iters, p.threads);
    let walls = (0..3)
        .map(|_| child::run(&knor, &args).map(|done| done.wall_s))
        .collect::<io::Result<Vec<f64>>>()?;
    r.sampled("cli.unattributed_s", min(&walls) - library_s, &walls);
    Ok(())
}

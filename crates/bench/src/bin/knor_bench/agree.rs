//! Agreement mode: does the benchmark agree with itself? Every workload
//! is run as two interleaved sets (A B A B …) of the same code on the
//! same seeds, the way the acceptance check runs it, and each end-to-end
//! metric is held against its own bound: the two sets' medians may not
//! differ by more than the bound, and (from four runs per set) neither
//! set's interquartile spread may exceed it. One traced run per set
//! checks that every `exact` count repeats exactly.
//!
//! The bounds in the catalogue come from runs of this mode on a good and
//! on a bad half hour of the reference box; the last column prints what
//! the issue's rule, `max(2 x observed difference, 3 %)`, would give.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{arr, num, obj, string, Json};
use crate::report::Outcome;
use crate::stats::{median, spread};
use crate::train::Scale;
use crate::{host, json, run_in_child, Params};
use std::io;

/// One metric of one workload, both sets.
struct Row {
    workload: &'static str,
    metric: &'static str,
    a: f64,
    b: f64,
    /// How much worse the worse set reads, as a share of the better one.
    difference: f64,
    spread_a: f64,
    spread_b: f64,
    bound: f64,
    pass: bool,
}

/// Relative difference of two medians of the same code: which set is
/// "parent" is arbitrary, so the worse one is held against the better.
fn difference(a: f64, b: f64) -> f64 {
    let (lo, hi) = (a.min(b), a.max(b));
    if lo > 0.0 {
        (hi - lo) / lo
    } else {
        f64::INFINITY
    }
}

fn compare(workload: &'static str, set_a: &[Outcome], set_b: &[Outcome]) -> Vec<Row> {
    END_TO_END
        .iter()
        .map(|m| {
            let values = |set: &[Outcome]| -> Vec<f64> {
                set.iter().filter_map(|r| r.get(m.name)).collect()
            };
            let (xa, xb) = (values(set_a), values(set_b));
            let complete = xa.len() == set_a.len() && xb.len() == set_b.len() && !xa.is_empty();
            let (a, b) = if complete { (median(&xa), median(&xb)) } else { (0.0, 0.0) };
            let difference = difference(a, b);
            // Quartiles of fewer than four runs say nothing.
            let spread_of = |xs: &[f64]| if xs.len() >= 4 { spread(xs) } else { 0.0 };
            let (spread_a, spread_b) = (spread_of(&xa), spread_of(&xb));
            // The acceptance check exempts setup_s from the spread rule.
            let spread_ok = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            Row {
                workload,
                metric: m.name,
                a,
                b,
                difference,
                spread_a,
                spread_b,
                bound: m.bound,
                pass: complete && difference <= m.bound && spread_ok,
            }
        })
        .collect()
}

/// Names of the `exact` counts the two traced runs disagree on.
fn exact_mismatches(workload: &str, a: &Outcome, b: &Outcome) -> Vec<String> {
    PER_LAYER
        .iter()
        .filter(|m| m.exact && m.on.contains(&workload))
        .filter(|m| a.get(m.name).map(f64::to_bits) != b.get(m.name).map(f64::to_bits))
        .map(|m| format!("{} ({:?} vs {:?})", m.name, a.get(m.name), b.get(m.name)))
        .collect()
}

pub fn run(p: Params, runs: usize) -> io::Result<bool> {
    let mut rows = Vec::new();
    let mut all_ok = true;
    let mut exact_report = Vec::new();
    for w in &WORKLOADS {
        let (mut set_a, mut set_b) = (Vec::new(), Vec::new());
        for i in 0..runs as u64 {
            for set in [&mut set_a, &mut set_b] {
                let outcome = run_in_child(w.name, false, Params { seed: p.seed + i, ..p })?;
                all_ok &= outcome.correct;
                set.push(outcome);
            }
        }
        rows.extend(compare(w.name, &set_a, &set_b));
        let traced_a = run_in_child(w.name, true, p)?;
        let traced_b = run_in_child(w.name, true, p)?;
        all_ok &= traced_a.correct && traced_b.correct;
        let mismatches = exact_mismatches(w.name, &traced_a, &traced_b);
        all_ok &= mismatches.is_empty();
        exact_report.push((w.name, mismatches));
    }

    println!(
        "{:<11} {:<16} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7} {:>9}  result",
        "workload",
        "metric",
        "set A",
        "set B",
        "diff %",
        "spread A%",
        "spread B%",
        "bound %",
        "2x diff %"
    );
    for r in &rows {
        println!(
            "{:<11} {:<16} {:>14.6} {:>14.6} {:>8.2} {:>9.2} {:>9.2} {:>7.0} {:>9.2}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.difference * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound * 100.0,
            (2.0 * r.difference).max(0.03) * 100.0,
            if r.pass { "PASS" } else { "FAIL" }
        );
        // `--smoke` checks correctness only: millisecond reps gate nothing.
        all_ok &= r.pass || p.scale == Scale::Smoke;
    }
    for (workload, mismatches) in &exact_report {
        if mismatches.is_empty() {
            println!("{workload}: every exact count is identical in both traced runs");
        } else {
            println!("{workload}: exact counts differ: {}", mismatches.join(", "));
        }
    }
    println!("{}", if all_ok { "AGREE" } else { "DISAGREE" });

    let doc = obj([
        ("host", host::record(p.seed, p.seconds)),
        ("runs_per_set", num(runs as f64)),
        ("agree", Json::Bool(all_ok)),
        (
            "rows",
            arr(rows.iter().map(|r| {
                obj([
                    ("workload", string(r.workload)),
                    ("metric", string(r.metric)),
                    ("set_a", num(r.a)),
                    ("set_b", num(r.b)),
                    ("difference", num(r.difference)),
                    ("spread_a", num(r.spread_a)),
                    ("spread_b", num(r.spread_b)),
                    ("bound", num(r.bound)),
                    ("pass", Json::Bool(r.pass)),
                ])
            })),
        ),
        (
            "exact_mismatches",
            obj(exact_report.iter().map(|(w, m)| (*w, arr(m.iter().map(|s| string(&**s)))))),
        ),
    ]);
    json::write_report("agree.json", &doc)?;
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall: f64, rss: f64) -> Outcome {
        let value = |name| match name {
            "wall_s" => wall,
            "peak_rss_mb" => rss,
            _ => 1.0,
        };
        Outcome {
            correct: true,
            metrics: END_TO_END.iter().map(|m| (m.name.to_string(), value(m.name))).collect(),
        }
    }

    #[test]
    fn difference_is_symmetric_and_relative_to_the_better_set() {
        assert!((difference(1.0, 1.05) - 0.05).abs() < 1e-12);
        assert_eq!(difference(1.05, 1.0), difference(1.0, 1.05));
        assert_eq!(difference(2.0, 2.0), 0.0);
        assert_eq!(difference(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn sets_pass_inside_their_bounds_and_fail_outside() {
        let wall_bound = END_TO_END.iter().find(|m| m.name == "wall_s").expect("wall_s").bound;
        let a = [report(1.00, 100.0), report(1.02, 100.0)];
        let inside = [report(1.00 * (1.0 + wall_bound / 2.0), 100.0), report(1.03, 100.0)];
        let rows = compare("im_dense", &a, &inside);
        assert!(rows.iter().all(|r| r.pass), "half a bound apart agrees");
        let outside = [report(1.3, 100.0), report(1.3, 100.0)];
        let rows = compare("im_dense", &a, &outside);
        let wall = rows.iter().find(|r| r.metric == "wall_s").expect("wall_s row");
        assert!(!wall.pass && wall.difference > wall_bound);
        assert!(rows.iter().filter(|r| r.metric != "wall_s").all(|r| r.pass));
    }

    #[test]
    fn a_wide_spread_within_a_set_fails_even_when_medians_agree() {
        let noisy =
            || [report(1.0, 100.0), report(1.5, 100.0), report(1.0, 100.0), report(1.5, 100.0)];
        let rows = compare("im_dense", &noisy(), &noisy());
        let wall = rows.iter().find(|r| r.metric == "wall_s").expect("wall_s row");
        assert_eq!(wall.difference, 0.0);
        assert!(wall.spread_a > wall.bound && !wall.pass);
    }

    #[test]
    fn a_missing_metric_fails_its_row() {
        let mut broken = report(1.0, 100.0);
        broken.metrics.retain(|(name, _)| name != "wall_s");
        let rows = compare("im_dense", &[report(1.0, 100.0)], &[broken]);
        assert!(!rows.iter().find(|r| r.metric == "wall_s").expect("row").pass);
    }

    #[test]
    fn exact_counts_must_repeat_bit_for_bit() {
        let exact = PER_LAYER.iter().filter(|m| m.exact && m.on.contains(&"im_dense"));
        let a =
            Outcome { correct: true, metrics: exact.map(|m| (m.name.to_string(), 12.0)).collect() };
        let mut b = a.clone();
        assert!(exact_mismatches("im_dense", &a, &b).is_empty());
        b.metrics[0].1 = 13.0;
        assert_eq!(exact_mismatches("im_dense", &a, &b).len(), 1);
    }
}

//! Paired A/B comparison of two builds on one `knor_bench` workload: the
//! statistics and the table behind the `ab` binary.
//!
//! Each side runs the same workload N times, alternating which side goes
//! first, and every metric of the result line is summarised per side by
//! its quartiles. The ratio is B's median over A's; a pair is won by B
//! when B's value is better than A's in the same pair (ties are dropped),
//! and the sign test asks how likely that many wins are if neither side
//! is better. An A/A' run (the same source built twice) gives the noise
//! floor the ratio of a real change has to clear.

use crate::regression::Json;

/// `(q1, median, q3)` as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the "exclusive" method, the benchmark's own definition). A
/// single value is its own quartiles. A copy of the frozen harness's
/// `stats::quartiles`, until the next benchmark change moves that one here
/// (ROADMAP item 11).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Two-sided exact sign test: the probability, if each pair is a fair
/// coin, of a split at least as uneven as `wins` against `losses`.
pub fn sign_test_p(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    let tail: f64 = (0..=wins.min(losses)).map(|i| binomial(n, i)).sum();
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

fn binomial(n: usize, k: usize) -> f64 {
    (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64)
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Its name in the result line.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
}

/// Every end-to-end and per-layer metric `BENCHMARK.json` declares.
pub fn metric_specs(benchmark: &Json) -> Vec<MetricSpec> {
    let list = |key| benchmark.get(key).and_then(Json::as_arr).unwrap_or_default();
    list("end_to_end")
        .iter()
        .chain(list("per_layer"))
        .filter_map(|m| {
            Some(MetricSpec {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
            })
        })
        .collect()
}

/// One run's result line: `{"correct":…, "attempted":…, "failed":…,
/// "metrics": {name: {"value":…, "unit":…}, …}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The run's correctness checks all passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations that failed.
    pub failed: f64,
    /// Metric values by name, in the line's order.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Parse the last non-empty line of a run's standard output.
    pub fn parse(stdout: &str) -> Result<Self, String> {
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        let doc = Json::parse(line)?;
        let field = |k| doc.get(k).ok_or_else(|| format!("result line has no {k:?}"));
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        Ok(Self {
            correct: field("correct")? == &Json::Bool(true),
            attempted: field("attempted")?.as_f64().ok_or("\"attempted\" is not a number")?,
            failed: field("failed")?.as_f64().ok_or("\"failed\" is not a number")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect::<Option<_>>()
                .ok_or("a metric has no numeric value")?,
        })
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One metric over the pairs: A's and B's value in pair `i` at index `i`.
#[derive(Debug, Clone)]
pub struct Paired {
    /// What is compared.
    pub spec: MetricSpec,
    /// Side A's values.
    pub a: Vec<f64>,
    /// Side B's values.
    pub b: Vec<f64>,
}

impl Paired {
    /// Collect `spec` from the pairs' results; pairs where either side
    /// lacks the metric are left out.
    pub fn collect(spec: &MetricSpec, pairs: &[(RunResult, RunResult)]) -> Self {
        let (a, b) = pairs
            .iter()
            .filter_map(|(a, b)| Some((a.get(&spec.name)?, b.get(&spec.name)?)))
            .unzip();
        Self { spec: spec.clone(), a, b }
    }

    /// B's median over A's.
    pub fn ratio(&self) -> f64 {
        quartiles(&self.b).1 / quartiles(&self.a).1
    }

    /// `(pairs B won, pairs B lost)`; equal pairs count for neither.
    pub fn wins(&self) -> (usize, usize) {
        let sign = if self.spec.higher_is_better { 1.0 } else { -1.0 };
        self.a.iter().zip(&self.b).fold((0, 0), |(won, lost), (a, b)| {
            let d = sign * (b - a);
            (won + usize::from(d > 0.0), lost + usize::from(d < 0.0))
        })
    }
}

/// The Markdown table EXPERIMENTS.md records: one row per metric with
/// both sides' quartiles, the ratio, pairs won by B and the sign-test p.
/// Metrics that read 0 on every run of both sides (not measured on this
/// workload) are left out.
pub fn render_table(a_label: &str, b_label: &str, rows: &[Paired]) -> String {
    let q = |xs: &[f64]| {
        let (q1, med, q3) = quartiles(xs);
        format!("{} / **{}** / {}", sig(q1), sig(med), sig(q3))
    };
    let mut out = format!(
        "| metric | better | {a_label} q1 / median / q3 | {b_label} q1 / median / q3 | ratio | {b_label} won | sign p |\n\
         |---|---|---:|---:|---:|---:|---:|\n"
    );
    for r in rows.iter().filter(|r| !r.a.is_empty() && r.a.iter().chain(&r.b).any(|&x| x != 0.0)) {
        let (won, lost) = r.wins();
        out.push_str(&format!(
            "| `{}` ({}) | {} | {} | {} | {:.3} | {won}/{} | {:.3} |\n",
            r.spec.name,
            r.spec.unit,
            if r.spec.higher_is_better { "higher" } else { "lower" },
            q(&r.a),
            q(&r.b),
            r.ratio(),
            r.a.len(),
            sign_test_p(won, lost),
        ));
    }
    out
}

/// Four significant digits, without an exponent for everyday magnitudes.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let mag = x.abs().log10().floor() as i32;
    if (-4..9).contains(&mag) {
        format!("{:.*}", (3 - mag).max(0) as usize, x)
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) = [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1]) = [0.5, 2.0, 3.5]: the ends clamp.
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn sign_test_matches_the_binomial_tail() {
        assert_eq!(sign_test_p(10, 0), 2.0 / 1024.0);
        assert_eq!(sign_test_p(1, 9), 2.0 * 11.0 / 1024.0);
        assert_eq!(sign_test_p(5, 5), 1.0);
        assert_eq!(sign_test_p(0, 0), 1.0);
        assert!((sign_test_p(8, 2) - 0.109375).abs() < 1e-12);
    }

    fn spec(name: &str, higher: bool) -> MetricSpec {
        MetricSpec { name: name.into(), unit: "s".into(), higher_is_better: higher }
    }

    #[test]
    fn wins_follow_the_metrics_direction_and_drop_ties() {
        let lower =
            Paired { spec: spec("wall_s", false), a: vec![2.0, 2.0, 2.0], b: vec![1.0, 2.0, 3.0] };
        assert_eq!(lower.wins(), (1, 1));
        let higher = Paired { spec: spec("rows", true), a: vec![1.0, 1.0], b: vec![2.0, 3.0] };
        assert_eq!(higher.wins(), (2, 0));
        assert_eq!(higher.ratio(), 2.5);
    }

    #[test]
    fn a_result_line_parses_and_pairs_collect() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"},"bulk_rows_per_s":{"value":6.5e5,"unit":"1/s"}}}"#;
        let r = RunResult::parse(&format!("building…\n{line}\n\n")).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12.0, 0.0));
        assert_eq!(r.get("bulk_rows_per_s"), Some(6.5e5));
        assert!(RunResult::parse("").is_err());
        assert!(RunResult::parse(r#"{"correct":true}"#).is_err());
        let pairs = vec![(r.clone(), r)];
        let p = Paired::collect(&spec("wall_s", false), &pairs);
        assert_eq!((p.a.as_slice(), p.b.as_slice()), (&[1.5][..], &[1.5][..]));
        assert!(Paired::collect(&spec("absent", false), &pairs).a.is_empty());
    }

    #[test]
    fn specs_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.25}],
                "per_layer":[{"name":"tcp.dispatch1024_ms","unit":"ms","better":"lower"},
                             {"name":"pool.predict1024_rows_per_s","unit":"1/s","better":"higher"}]}"#,
        )
        .unwrap();
        let specs = metric_specs(&doc);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0], spec("wall_s", false));
        assert!(specs[2].higher_is_better);
    }

    #[test]
    fn the_table_renders_quartiles_ratio_wins_and_p() {
        let rows = [
            Paired { spec: spec("wall_s", false), a: vec![1.0, 1.2, 1.1], b: vec![0.9, 1.0, 0.95] },
            Paired { spec: spec("unmeasured", false), a: vec![0.0; 3], b: vec![0.0; 3] },
        ];
        assert_eq!(
            render_table("parent", "change", &rows),
            "| metric | better | parent q1 / median / q3 | change q1 / median / q3 | ratio | change won | sign p |\n\
             |---|---|---:|---:|---:|---:|---:|\n\
             | `wall_s` (s) | lower | 1.000 / **1.100** / 1.200 | 0.9000 / **0.9500** / 1.000 | 0.864 | 3/3 | 0.250 |\n"
        );
        assert_eq!(sig(659_812.4), "659812");
        assert_eq!(sig(12.93), "12.93");
        assert_eq!(sig(2.5e-7), "2.500e-7");
    }
}

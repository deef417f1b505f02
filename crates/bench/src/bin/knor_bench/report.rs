//! What one run of one workload produces, and its two renderings: the
//! full report (host record, every sample summary, every check) written
//! under `results/bench/`, and the one-line result the driver reads.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::{arr, count, num, obj, string, Json};
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The gated value: a minimum, maximum, median or count as the
    /// metric's definition says.
    pub value: f64,
    /// The samples behind a timing (absent for counts and derived values).
    pub samples: Option<Summary>,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    /// Reps and requests attempted, and how many of them exited non-zero,
    /// errored, were refused or failed a check. Failures are excluded
    /// from the timings.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub notes: Vec<(&'static str, Json)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Self {
        Self {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a value that has no sample of its own (a count, a ratio of
    /// counts, a value derived from other metrics).
    pub fn value(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit: unit_of(name), value, samples: None });
    }

    /// Record a timing with the samples it was chosen from.
    pub fn sampled(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit_of(name),
            value,
            samples: Some(Summary::of(samples)),
        });
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, passed, detail: detail.into() });
    }

    pub fn note(&mut self, key: &'static str, value: Json) {
        self.notes.push((key, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    pub fn file_name(&self) -> String {
        format!("{}_{}.json", if self.traced { "layers" } else { "run" }, self.workload)
    }

    /// The full report.
    pub fn to_json(&self, host: Json) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("name".to_string(), string(&*m.name)),
                ("unit".to_string(), string(m.unit)),
                ("value".to_string(), num(m.value)),
            ];
            if let Some(s) = m.samples {
                for (k, v) in [
                    ("min", s.min),
                    ("q1", s.q1),
                    ("median", s.median),
                    ("q3", s.q3),
                    ("max", s.max),
                ] {
                    fields.push((k.to_string(), num(v)));
                }
                fields.push(("n".to_string(), count(s.n as u64)));
            }
            if PER_LAYER.iter().any(|p| p.name == m.name && p.exact) {
                fields.push(("exact".to_string(), Json::Bool(true)));
            }
            Json::Obj(fields)
        });
        let checks = self.checks.iter().map(|c| {
            obj([
                ("check", string(c.name)),
                ("passed", Json::Bool(c.passed)),
                ("detail", string(&*c.detail)),
            ])
        });
        obj([
            ("host", host),
            ("workload", string(&*self.workload)),
            ("mode", string(if self.traced { "trace" } else { "run" })),
            ("correct", Json::Bool(self.correct())),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("metrics", arr(metrics)),
            ("checks", arr(checks)),
            (
                "notes",
                Json::Obj(self.notes.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()),
            ),
        ])
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being every end-to-end metric of an
    /// untraced run or every per-layer metric of a traced one. A
    /// per-layer metric this workload's layers do not exercise reads 0.
    pub fn result_line(&self) -> Json {
        let names: Vec<(&str, &str)> = if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = names.into_iter().map(|(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (name, obj([("value", num(value)), ("unit", string(unit))]))
        });
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", count(self.attempted.max(1))),
            ("failed", count(self.failed)),
            ("metrics", obj(metrics)),
        ])
    }

    /// Human-readable table for the terminal.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}): correct={} attempted={} failed={}\n",
            self.workload,
            if self.traced { "traced" } else { "end to end" },
            self.correct(),
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<30} {:>16.6} {:<8}", m.name, m.value, m.unit));
            if let Some(s) = m.samples {
                out.push_str(&format!(
                    " min {:.6} q1 {:.6} median {:.6} q3 {:.6} n {}",
                    s.min, s.q1, s.median, s.q3, s.n
                ));
            }
            out.push('\n');
        }
        for c in &self.checks {
            out.push_str(&format!(
                "  {} {}: {}\n",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out
    }
}

/// A result line read back: what the driver sees of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn parse(line: &str) -> Option<Self> {
        let doc = Json::parse(line).ok()?;
        let Json::Obj(metrics) = doc.get("metrics")? else { return None };
        Some(Self {
            correct: doc.get("correct")? == &Json::Bool(true),
            metrics: metrics
                .iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::render;

    #[test]
    fn a_result_line_reads_back_as_the_driver_sees_it() {
        let mut r = Report::new("sem_stream", false);
        r.value("io_read_mb", 845.8);
        r.value("wall_s", 0.9525);
        let outcome = Outcome::parse(&render(&r.result_line())).expect("own line parses");
        assert!(outcome.correct);
        assert_eq!(outcome.get("io_read_mb"), Some(845.8));
        assert_eq!(outcome.get("setup_s"), Some(0.0), "unmeasured metrics read 0");
        assert_eq!(outcome.get("nonesuch"), None);
        assert_eq!(Outcome::parse("knor_bench: no such file"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut r = Report::new("im_dense", false);
        r.attempted = 26;
        r.sampled("wall_s", 1.5, &[1.5, 1.7, 1.6]);
        r.value("peak_rss_mb", 260.5);
        r.check("demo", true, "fine");
        let line = r.result_line();
        let Json::Obj(fields) = &line else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s");
        assert_eq!(render(wall), r#"{"value":1.5,"unit":"s"}"#);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let traced = Report::new("im_dense", true).result_line();
        let Some(Json::Obj(metrics)) = traced.get("metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(traced.get("attempted").and_then(Json::as_f64), Some(1.0), "at least 1");
    }

    #[test]
    fn a_failed_check_or_rep_makes_the_run_incorrect() {
        let mut r = Report::new("sem_stream", false);
        assert!(r.correct());
        r.check("demo", false, "broken");
        assert!(!r.correct());
        let mut r = Report::new("sem_stream", false);
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    fn full_report_carries_summaries_host_and_exact_flags() {
        let mut r = Report::new("im_dense", true);
        r.sampled("driver.fit_s", 1.25, &[1.0, 1.25, 1.5, 1.25, 1.3, 1.2, 1.4]);
        r.value("driver.iters", 16.0);
        let doc = r.to_json(obj([("nproc", count(2))]));
        let text = render(&doc);
        let parsed = Json::parse(&text).expect("report parses");
        let metrics = parsed.get("metrics").and_then(Json::as_arr).expect("metrics");
        assert_eq!(metrics[0].get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(metrics[0].get("min").and_then(Json::as_f64), Some(1.0));
        assert_eq!(metrics[1].get("exact"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed.get("host").and_then(|h| h.get("nproc")).and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(r.file_name(), "layers_im_dense.json");
    }
}

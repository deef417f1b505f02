//! Prometheus text-format export of the serving counters (`ctl metrics`).
//!
//! One snapshot call walks the registry's latest model versions and
//! renders the standard exposition format: `counter` series for query /
//! batch totals and per-phase request time, a `histogram` rendering of
//! the existing log₂ latency buckets (cumulative `_bucket{le=…}` +
//! `_sum`/`_count`), and `gauge`s for the training-run diagnostics. The
//! text travels over the existing [`knor_mpi::LineConn`] line protocol,
//! so newlines are escaped on the wire (see [`escape_line`]).

use std::fmt::Write as _;

use crate::stats::{LatencyHistogram, BUCKETS, REQUEST_PHASES};
use crate::ServeHandle;

/// Render a Prometheus text-format snapshot of every model's serving
/// counters (the **served** version per name — pinned by SWAP/ROLLBACK or
/// the latest — in name order, so dashboards track what queries hit).
pub fn render_prometheus(handle: &ServeHandle) -> String {
    let entries = handle.registry().served_entries();
    let mut out = String::with_capacity(1024);

    let counter = |out: &mut String, name: &str, help: &str| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
    };

    counter(&mut out, "knor_serve_queries_total", "Query rows answered.");
    for e in &entries {
        let _ = writeln!(
            out,
            "knor_serve_queries_total{{model=\"{}\",version=\"{}\"}} {}",
            e.model.name,
            e.model.version,
            e.stats.queries()
        );
    }

    counter(&mut out, "knor_serve_batches_total", "Query batches answered.");
    for e in &entries {
        let _ = writeln!(
            out,
            "knor_serve_batches_total{{model=\"{}\",version=\"{}\"}} {}",
            e.model.name,
            e.model.version,
            e.stats.snapshot().batches
        );
    }

    counter(
        &mut out,
        "knor_serve_request_phase_ns_total",
        "Cumulative request time per handling phase \
         (enqueue/dispatch/kernel/reply; parse/format on the text protocol).",
    );
    for e in &entries {
        for (phase, ns) in REQUEST_PHASES.iter().zip(e.stats.phase_ns()) {
            let _ = writeln!(
                out,
                "knor_serve_request_phase_ns_total{{model=\"{}\",phase=\"{phase}\"}} {ns}",
                e.model.name
            );
        }
    }

    counter(
        &mut out,
        "knor_serve_inline_calls_total",
        "Predict calls of one chunk, answered on the calling thread without a pool hand-off.",
    );
    let _ = writeln!(out, "knor_serve_inline_calls_total {}", handle.inline_calls());

    let _ = writeln!(out, "# HELP knor_serve_batch_latency_ns Batch latency histogram.");
    let _ = writeln!(out, "# TYPE knor_serve_batch_latency_ns histogram");
    for e in &entries {
        let hist = e.stats.histogram();
        render_histogram(&mut out, "knor_serve_batch_latency_ns", &e.model.name, &hist);
    }

    let _ =
        writeln!(out, "# HELP knor_serve_served_version The model version queries are routed to.");
    let _ = writeln!(out, "# TYPE knor_serve_served_version gauge");
    for e in &entries {
        let _ = writeln!(
            out,
            "knor_serve_served_version{{model=\"{}\"}} {}",
            e.model.name, e.model.version
        );
    }

    let _ = writeln!(
        out,
        "# HELP knor_serve_train_io_skip_rows \
         Row fetches the staged plane skipped via bound pruning when the model trained."
    );
    let _ = writeln!(out, "# TYPE knor_serve_train_io_skip_rows gauge");
    for e in &entries {
        let _ = writeln!(
            out,
            "knor_serve_train_io_skip_rows{{model=\"{}\"}} {}",
            e.model.name, e.train.io_skip_rows
        );
    }

    out
}

/// The log₂ histogram as cumulative Prometheus buckets: `le` labels are
/// the bucket upper edges in ns, buckets above the last occupied one are
/// folded into `+Inf` (the cumulative series loses nothing by stopping
/// early).
fn render_histogram(out: &mut String, name: &str, model: &str, hist: &LatencyHistogram) {
    let counts = hist.bucket_counts();
    let last = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate().take(last.min(BUCKETS)) {
        cum += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{model=\"{model}\",le=\"{}\"}} {cum}",
            LatencyHistogram::bucket_edge_ns(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{model=\"{model}\",le=\"+Inf\"}} {}", hist.total());
    let _ = writeln!(out, "{name}_sum{{model=\"{model}\"}} {}", hist.sum_ns());
    let _ = writeln!(out, "{name}_count{{model=\"{model}\"}} {}", hist.total());
}

/// Escape a multi-line payload into one [`knor_mpi::LineConn`] line
/// (`\` → `\\`, newline → `\n`).
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_line`].
pub fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use knor_core::Algorithm;
    use knor_matrix::DMatrix;
    use knor_numa::Topology;

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a\nb\nc", "back\\slash\\n", "trailing\n", "\\"] {
            let esc = escape_line(s);
            assert!(!esc.contains('\n'), "{esc:?}");
            assert_eq!(unescape_line(&esc), s, "{s:?}");
        }
    }

    #[test]
    fn prometheus_snapshot_has_counters_buckets_and_diag() {
        let h = ServeHandle::start(
            ServeConfig::default().with_threads(2).with_topology(Topology::synthetic(1, 2)),
        );
        let cents = DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2);
        h.register_model("demo", Algorithm::Lloyd, cents);
        let q: Vec<f64> = (0..64 * 2).map(|x| x as f64).collect();
        h.predict_rows("demo", &q, 2).unwrap();

        let text = render_prometheus(&h);
        assert!(text.contains("# TYPE knor_serve_queries_total counter"), "{text}");
        assert!(text.contains("knor_serve_queries_total{model=\"demo\",version=\"1\"} 64"));
        assert!(text.contains("knor_serve_batches_total{model=\"demo\",version=\"1\"} 1"));
        assert!(text.contains("# TYPE knor_serve_batch_latency_ns histogram"));
        assert!(text.contains("_bucket{model=\"demo\",le=\"+Inf\"} 1"));
        assert!(text.contains("knor_serve_batch_latency_ns_count{model=\"demo\"} 1"));
        assert!(text.contains("phase=\"kernel\""));
        assert!(text.contains("phase=\"parse\"") && text.contains("phase=\"format\""));
        // 64 rows are one chunk: answered inline.
        assert!(text.contains("knor_serve_inline_calls_total 1\n"), "{text}");
        assert!(!text.contains("knor_serve_train_publish"), "{text}");
        assert!(text.contains("knor_serve_train_io_skip_rows{model=\"demo\"} 0"));
        assert!(text.contains("knor_serve_served_version{model=\"demo\"} 1"));
        // One front end: no queue to measure, nothing refused, nothing coalesced.
        for gone in ["busy_total", "pending_rows", "coalesced_rows", "request_latency_ns"] {
            assert!(!text.contains(&format!("knor_serve_{gone}")), "{gone}: {text}");
        }
        // Cumulative buckets are monotonically nondecreasing.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("knor_serve_batch_latency_ns_bucket{model=\"demo\""))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
    }
}

//! The tracing layer's contract, across engines:
//!
//! 1. **Measurement only.** Attaching a recorder must not perturb the
//!    computation: a traced run reproduces the untraced run *bitwise* —
//!    assignments, centroids, trajectory — on knori, knors and knord.
//! 2. **Well-formed export.** The chrome-trace JSON parses (with the
//!    bench harness's own parser, no serde in this workspace), carries
//!    one named track per worker, and names every barrier super-phase.
//! 3. **Accounted breakdown.** The folded [`PhaseBreakdown`] sees every
//!    span the export sees and a nonzero compute + barrier-wait total.

use knor::core::PhaseGroup;
use knor::matrix::io::TempFile;
use knor::numa::Topology;
use knor::prelude::*;
use knor_bench::regression::Json;
use std::collections::BTreeSet;
use std::sync::Arc;

fn workload(n: usize, d: usize, seed: u64) -> DMatrix {
    MixtureSpec::friendster_like(n, d, seed).generate().data
}

/// Run-or-trace harness: `f(None)` is the reference, `f(Some(buf))` the
/// traced run; the two must be indistinguishable in every result field
/// that feeds the algorithm.
fn assert_bitwise<R>(
    tag: &str,
    f: impl Fn(Option<Arc<TraceBuf>>) -> R,
    fields: impl Fn(&R) -> (&Vec<u32>, &DMatrix, usize, Option<f64>),
) -> Arc<TraceBuf> {
    let off = f(None);
    let buf = Arc::new(TraceBuf::new());
    let on = f(Some(buf.clone()));
    let (a_off, c_off, n_off, s_off) = fields(&off);
    let (a_on, c_on, n_on, s_on) = fields(&on);
    assert_eq!(a_on, a_off, "{tag}: traced assignments diverged");
    assert_eq!(c_on, c_off, "{tag}: traced centroids must match bitwise");
    assert_eq!(n_on, n_off, "{tag}: traced trajectory diverged");
    assert_eq!(
        s_on.map(f64::to_bits),
        s_off.map(f64::to_bits),
        "{tag}: traced SSE must match bitwise"
    );
    assert!(!buf.spans().is_empty(), "{tag}: traced run recorded nothing");
    buf
}

#[test]
fn tracing_is_bitwise_neutral_for_knori_knors_knord() {
    let data = workload(1400, 6, 512);
    let k = 9;
    let init = InitMethod::Forgy.initialize(&data, k, 7).to_matrix();
    let max_iters = 25;

    // knori on a synthetic 2-node topology.
    let im = assert_bitwise(
        "knori",
        |trace| {
            let mut cfg = KmeansConfig::new(k)
                .with_init(InitMethod::Given(init.clone()))
                .with_threads(4)
                .with_topology(Topology::synthetic(2, 2))
                .with_scheduler(SchedulerKind::Static)
                .with_max_iters(max_iters)
                .with_sse(true);
            if let Some(b) = trace {
                cfg = cfg.with_trace(b);
            }
            Kmeans::new(cfg).fit(&data)
        },
        |r| (&r.assignments, &r.centroids, r.niters, r.sse),
    );
    let bd = im.breakdown();
    assert!(!bd.is_empty());
    assert_eq!(bd.tracks.len(), 4, "one track per knori worker");

    // knors from a file.
    let path = TempFile::new(format!("knor-trace-bitwise-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    assert_bitwise(
        "knors",
        |trace| {
            let mut cfg = SemConfig::new(k)
                .with_init(SemInit::Given(init.clone()))
                .with_threads(2)
                .with_scheduler(SchedulerKind::Static)
                .with_page_size(512)
                .with_task_size(128)
                .with_row_cache_bytes(1 << 20)
                .with_max_iters(max_iters)
                .with_sse(true);
            if let Some(b) = trace {
                cfg = cfg.with_trace(b);
            }
            SemKmeans::new(cfg).fit(&path).unwrap()
        },
        |r| (&r.kmeans.assignments, &r.kmeans.centroids, r.kmeans.niters, r.kmeans.sse),
    );

    // knord: 2 ranks × 2 threads over the wire model.
    let dist = assert_bitwise(
        "knord",
        |trace| {
            let mut cfg = DistConfig::new(k, 2, 2)
                .with_init(InitMethod::Given(init.clone()))
                .with_scheduler(SchedulerKind::Static)
                .with_task_size(128)
                .with_max_iters(max_iters)
                .with_sse(true);
            if let Some(b) = trace {
                cfg = cfg.with_trace(b);
            }
            DistKmeans::new(cfg).fit(&data)
        },
        |r| (&r.kmeans.assignments, &r.kmeans.centroids, r.kmeans.niters, r.kmeans.sse),
    );
    // 2 ranks × (2 workers + 1 comm track) register under distinct ids.
    assert_eq!(dist.breakdown().tracks.len(), 6, "knord tracks: workers plus comm");
}

/// The result structs surface the breakdown only when a recorder was
/// attached — `--stats` without `--trace` must not silently cost a ring.
#[test]
fn phases_field_is_none_without_a_recorder() {
    let data = workload(600, 4, 99);
    let r = Kmeans::new(KmeansConfig::new(5).with_seed(1).with_max_iters(10)).fit(&data);
    assert!(r.phases.is_none());
    let d =
        DistKmeans::new(DistConfig::new(5, 2, 1).with_seed(1).with_max_iters(10)).fit(&data).kmeans;
    assert!(d.phases.is_none());
}

#[test]
fn chrome_trace_export_is_valid_json_with_per_worker_tracks() {
    let data = workload(1200, 6, 613);
    let buf = Arc::new(TraceBuf::new());
    let r = Kmeans::new(
        KmeansConfig::new(9)
            .with_seed(3)
            .with_threads(3)
            .with_max_iters(12)
            .with_trace(buf.clone()),
    )
    .fit(&data);
    assert!(r.phases.as_ref().is_some_and(|p| !p.is_empty()));

    let text = buf.chrome_trace_json();
    let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty());

    let mut span_tracks = BTreeSet::new();
    let mut named_tracks = BTreeSet::new();
    let mut phases = BTreeSet::new();
    let mut spans = 0u64;
    for e in events {
        let track = (
            e.get("pid").and_then(Json::as_f64).expect("pid") as u64,
            e.get("tid").and_then(Json::as_f64).expect("tid") as u64,
        );
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => {
                named_tracks.insert(track);
            }
            Some("X") => {
                spans += 1;
                span_tracks.insert(track);
                phases.insert(e.get("name").and_then(Json::as_str).expect("name").to_string());
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).is_some_and(|d| d >= 0.0));
                assert!(e.get("args").and_then(|a| a.get("iter")).is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(named_tracks.len(), 3, "one thread_name metadata record per worker");
    assert!(span_tracks.iter().all(|t| named_tracks.contains(t)), "spans on unnamed tracks");
    assert_eq!(spans, buf.spans().len() as u64, "export and breakdown must see the same spans");
    for required in ["compute", "barrier_a", "barrier_b", "barrier_c", "merge", "update"] {
        assert!(phases.contains(required), "missing phase {required}: {phases:?}");
    }
}

/// knord's ranks reuse worker ids, so a track is a `(pid, tid)` pair: each
/// rank's workers and comm track keep their own columns of the breakdown.
#[test]
fn knord_breakdown_keeps_each_rank_in_its_own_columns() {
    let data = workload(900, 5, 719);
    let buf = Arc::new(TraceBuf::new());
    let r = DistKmeans::new(
        DistConfig::new(8, 2, 2).with_seed(11).with_max_iters(8).with_trace(buf.clone()),
    )
    .fit(&data)
    .kmeans;
    let bd = r.phases.as_ref().expect("a recorder was attached");
    let mut tracks = bd.tracks.clone();
    tracks.sort_unstable();
    assert_eq!(tracks, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    for (c, &(rank, tid)) in bd.tracks.iter().enumerate() {
        let (group, what) =
            if tid < 2 { (PhaseGroup::Compute, "worker") } else { (PhaseGroup::IoWait, "comm") };
        assert!(bd.group_ns(group)[c] > 0, "rank {rank} {what} track {tid} is empty");
    }
}

/// knord's export adds one comm track per rank whose allreduce spans
/// carry the wire byte count.
#[test]
fn knord_trace_names_allreduce_with_wire_bytes() {
    let data = workload(900, 5, 717);
    let buf = Arc::new(TraceBuf::new());
    DistKmeans::new(
        DistConfig::new(8, 2, 2).with_seed(11).with_max_iters(8).with_trace(buf.clone()),
    )
    .fit(&data);
    let doc = Json::parse(&buf.chrome_trace_json()).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let allreduce: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("allreduce"))
        .collect();
    assert!(!allreduce.is_empty(), "no allreduce spans in a 2-rank run");
    assert!(
        allreduce.iter().any(|e| {
            e.get("args").and_then(|a| a.get("bytes")).and_then(Json::as_f64).unwrap_or(0.0) > 0.0
        }),
        "allreduce spans never carried wire bytes"
    );
}

/// knors' phase table counts each worker nanosecond once. The staged
/// plane's I/O spans nest inside the driver's `compute` span on the same
/// track, and the fold takes self times, so a track's groups sum to at most
/// the time from its first span's start to its last span's end, and so to
/// at most the run's wall time. Every row is read from the device in every
/// iteration here, so counting the nested I/O twice would overshoot both.
#[test]
fn knors_phase_table_sums_within_the_run() {
    let data = workload(40_000, 16, 811);
    let path = TempFile::new(format!("knor-trace-knors-sum-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &data).unwrap();
    let buf = Arc::new(TraceBuf::new());
    let t0 = std::time::Instant::now();
    let r = SemKmeans::new(
        SemConfig::new(8)
            .with_init(SemInit::Forgy)
            .with_seed(5)
            .with_threads(2)
            .with_pruning(Pruning::None)
            .with_row_cache_bytes(0)
            .with_page_cache_bytes(0)
            .with_max_iters(6)
            .with_trace(buf.clone()),
    )
    .fit(&path)
    .unwrap();
    let run_ns = t0.elapsed().as_nanos() as u64;
    let bd = r.kmeans.phases.as_ref().expect("a recorder was attached");
    assert_eq!(bd.tracks.len(), 2, "one track per knors worker");
    let spans = buf.spans();
    for (c, &(_, tid)) in bd.tracks.iter().enumerate() {
        let sum: u64 = PhaseGroup::ALL.iter().map(|&g| bd.group_ns(g)[c]).sum();
        let mine = || spans.iter().filter(|s| s.worker == tid);
        let covered =
            mine().map(|s| s.t_end).max().unwrap() - mine().map(|s| s.t_start).min().unwrap();
        assert!(
            sum <= covered,
            "track {c}: {sum} ns of phases in {covered} ns\n{}",
            bd.render(true)
        );
        assert!(sum <= run_ns, "track {c}: {sum} ns of phases in a {run_ns} ns run");
        let io = bd.group_ns(PhaseGroup::IoWait)[c];
        assert!(io > 0, "track {c}: no device wait in a run that reads every row");
    }
}

//! Traced runs of `im_dense` and `im_pruned`: `knor im` re-enacted as
//! read -> place -> init -> fit, then the probes of the layers each of
//! the two exercises.

use super::{cli_probes, record_shares, reps, shares, steady_ms, total_wall_ns, Shares};
use super::{PROBE_ITERS, SAMPLES};
use crate::catalog::IM_DENSE;
use crate::child::sse_text;
use crate::json::count;
use crate::report::Report;
use crate::spans::{engine_self_times, Recorder};
use crate::stats::{median, min};
use crate::train::{Workload, KNOR_SEED};
use crate::Params;
use knor_core::kernel::{assign_rows, centroid_sqnorms};
use knor_core::serial::lloyd_serial;
use knor_core::{Centroids, KernelKind, Kmeans, KmeansConfig, KmeansResult, Phase, PhaseGroup};
use knor_core::{Pruning, Replication, TraceBuf};
use knor_dist::{DistConfig, DistKmeans};
use knor_matrix::DMatrix;
use knor_mpi::collectives::allreduce_f64;
use knor_mpi::{LocalCluster, ReduceAlgo};
use knor_numa::{NumaMatrix, Placement, Topology};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Rows of the block the kernels are timed on (one thread).
const KERNEL_BLOCK_ROWS: usize = 64 * 1024;

/// Calls per sample of the bare all-reduce (7 samples: over 1000 calls).
const ALLREDUCE_CALLS: usize = 200;

/// Iterations `im_dense`'s result is checked against `lloyd_serial` for.
const SERIAL_CHECK_ITERS: usize = 4;

/// Everything later probes need from the re-enactment reps.
struct Enacted {
    data: DMatrix,
    init: Centroids,
    last: KmeansResult,
    read_s: Vec<f64>,
    fit_s: Vec<f64>,
    shares: Vec<Shares>,
    /// Wall time in ns of iteration `i`, median over reps.
    iter_ns: Vec<f64>,
}

/// Re-enact `knor im` rep by rep. Placement and initialisation happen
/// inside `Kmeans::fit`; they are timed by calling the same public
/// functions with the same arguments just before it.
fn enact(
    w: &Workload,
    file: &std::path::Path,
    p: Params,
    rec: &mut Recorder,
    r: &mut Report,
) -> io::Result<Enacted> {
    let topo = Topology::detect();
    let placement = Placement::new(&topo, w.n, p.threads);
    let (mut read_s, mut place_s, mut init_s, mut fit_s) = (vec![], vec![], vec![], vec![]);
    let (mut all_shares, mut iter0_ms, mut steady) = (vec![], vec![], vec![]);
    let mut per_iter: Vec<Vec<f64>> = Vec::new();
    let mut place_mb = 0.0;
    let mut kept: Option<(DMatrix, Centroids, KmeansResult)> = None;
    let mut same = true;
    for rep in 0..reps(p) as u32 {
        let rep_span = rec.open(w.name, rep);
        let (data, s) = rec.time("matrix.read", rep, || knor_matrix::io::read_matrix(file));
        let data = data?;
        read_s.push(s);
        let (placed, s) =
            rec.time("numa.place", rep, || NumaMatrix::from_dmatrix(&topo, &placement, &data));
        place_mb = placed.heap_bytes() as f64 / 1e6;
        drop(placed);
        place_s.push(s);
        let (init, s) =
            rec.time("init", rep, || w.init.initialize_parallel(&data, w.k, KNOR_SEED, p.threads));
        init_s.push(s);
        let (buf, offset) = rec.engine_trace();
        let solver = Kmeans::new(w.im_config(p.threads).with_trace(buf.clone()));
        let fit_span = rec.open("kmeans.fit", rep);
        let result = solver.fit(&data);
        fit_s.push(rec.close(fit_span));
        rec.adopt(fit_span, &buf, offset);
        rec.close(rep_span);
        r.attempted += 1;

        all_shares.push(shares(&buf, &result.iters, p.threads));
        iter0_ms.push(result.iters[0].wall_ns as f64 / 1e6);
        steady.extend(steady_ms(&result.iters));
        per_iter.push(result.iters.iter().map(|i| i.wall_ns as f64).collect());
        if let Some((_, _, first)) = &kept {
            same &= first.niters == result.niters && sse_text(first.sse) == sse_text(result.sse);
        }
        kept = Some((data, init, result));
    }
    let (data, init, last) = kept.expect("at least one rep");
    r.check(
        "lib.every_rep_reaches_the_same_iterations_and_sse",
        same,
        format!("{} reps: {} iterations, SSE {}", fit_s.len(), last.niters, sse_text(last.sse)),
    );

    r.sampled("matrix.read_s", median(&read_s), &read_s);
    let mb_per_s: Vec<f64> = read_s.iter().map(|s| w.input_bytes() as f64 / 1e6 / s).collect();
    r.sampled("matrix.read_mb_per_s", median(&mb_per_s), &mb_per_s);
    r.sampled("numa.place_s", median(&place_s), &place_s);
    r.value("numa.place_mb", place_mb);
    r.sampled("init.s", median(&init_s), &init_s);
    r.sampled("driver.fit_s", median(&fit_s), &fit_s);
    r.value("driver.iters", last.niters as f64);
    r.sampled("driver.iter0_ms", median(&iter0_ms), &iter0_ms);
    r.sampled("driver.iter_ms", median(&steady), &steady);
    record_shares(
        r,
        "driver",
        &all_shares,
        &[
            (PhaseGroup::Compute, "compute"),
            (PhaseGroup::BarrierWait, "barrier_wait"),
            (PhaseGroup::Merge, "merge"),
            (PhaseGroup::Publish, "publish"),
        ],
    );
    let iter_ns = (0..last.niters)
        .map(|i| median(&per_iter.iter().filter_map(|rep| rep.get(i).copied()).collect::<Vec<_>>()))
        .collect();
    Ok(Enacted { data, init, last, read_s, fit_s, shares: all_shares, iter_ns })
}

/// Distances per second of one kernel through `assign_rows` on the head
/// of the data, one thread, [`SAMPLES`] passes.
fn kernel_rate(kind: KernelKind, w: &Workload, e: &Enacted, pruning: bool) -> Vec<f64> {
    let rows = KERNEL_BLOCK_ROWS.min(w.n);
    let block = &e.data.as_slice()[..rows * w.d];
    let rk = kind.resolve(w.k, w.d, pruning);
    let mut cnorms = vec![0.0; w.k];
    centroid_sqnorms(&e.init, &mut cnorms);
    let (mut best, mut best_dist) = (Vec::new(), Vec::new());
    // One unrecorded pass sizes the scratch and warms the block.
    (0..=SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            assign_rows(
                black_box(block),
                w.d,
                &e.init,
                &rk,
                &cnorms,
                &mut best,
                &mut best_dist,
                pruning,
            );
            black_box(&best);
            (rows * w.k) as f64 / t0.elapsed().as_secs_f64()
        })
        .skip(1)
        .collect()
}

fn kernel_probes(w: &Workload, e: &Enacted, r: &mut Report) -> f64 {
    let pruning = w.pruning.enabled();
    let rates = kernel_rate(KernelKind::Auto, w, e, pruning);
    let rate = median(&rates);
    r.sampled("kernel.dists_per_s", rate, &rates);
    // A distance is d multiply-adds; a row of d doubles meets k centroids.
    r.value("kernel.gflops", rate * 2.0 * w.d as f64 / 1e9);
    r.value("kernel.flop_per_byte", (2 * w.d * w.k) as f64 / (8 * w.d) as f64);
    let resolved = KernelKind::Auto.resolve(w.k, w.d, pruning);
    r.note("kernel_resolved", crate::json::string(resolved.kind.name()));
    if w.name == IM_DENSE {
        for (kind, name) in [
            (KernelKind::Scalar, "scalar"),
            (KernelKind::Tiled, "tiled"),
            (KernelKind::Fma, "fma"),
            (KernelKind::NormTrick, "norm"),
            (KernelKind::Gemm, "gemm"),
        ] {
            let rates = kernel_rate(kind, w, e, false);
            r.sampled(&format!("kernel.{name}.dists_per_s"), median(&rates), &rates);
        }
    }
    rate
}

/// A short fit of the workload's problem with one knob changed.
fn probe_fit(
    w: &Workload,
    p: Params,
    change: impl FnOnce(KmeansConfig) -> KmeansConfig,
    data: &DMatrix,
) -> KmeansResult {
    Kmeans::new(change(w.im_config(p.threads).with_max_iters(PROBE_ITERS))).fit(data)
}

/// `driver.kernel_eff` and `driver.par_eff`: the driver's measured time
/// against what the kernel rate and perfect scaling predict.
fn efficiency(w: &Workload, p: Params, e: &Enacted, kernel_rate: f64, r: &mut Report) {
    // Time the counted distance evaluations would take at the kernel's
    // rate, over the compute time the workers measured (thread-seconds).
    let dists = e.last.total_prune().dist_computations as f64;
    let effs: Vec<f64> = e.shares.iter().map(|s| dists / kernel_rate / s.compute_s).collect();
    r.sampled("driver.kernel_eff", median(&effs), &effs);
    // One thread against T on the same iterations (MTI's cost per
    // iteration falls as clusters root, so the window must match).
    let one = probe_fit(w, p, |c| c.with_threads(1), &e.data);
    let one_ns: f64 = total_wall_ns(&one.iters[1..]);
    let many_ns: f64 = e.iter_ns[1..one.niters.min(e.iter_ns.len())].iter().sum();
    r.sampled("driver.par_eff", one_ns / (p.threads as f64 * many_ns), &steady_ms(&one.iters));
}

fn dense_probes(w: &Workload, p: Params, e: &Enacted, r: &mut Report) {
    // knor_sched: where workers found their tasks.
    let tasks: u64 = e.last.iters.iter().map(|i| i.queue.total()).sum();
    let own: u64 = e.last.iters.iter().map(|i| i.queue.own).sum();
    r.value("sched.tasks_per_iter", tasks as f64 / e.last.niters as f64);
    r.value("sched.own_frac", own as f64 / tasks as f64);

    // core::replica: per-node replicas on a synthetic 2-node topology.
    let topo = Topology::synthetic(2, p.threads.div_ceil(2));
    let fit =
        |mode| probe_fit(w, p, |c| c.with_topology(topo.clone()).with_replication(mode), &e.data);
    let (on, off) = (fit(Replication::On), fit(Replication::Off));
    let ratio = total_wall_ns(&on.iters[1..]) / total_wall_ns(&off.iters[1..]);
    r.sampled("replica.on_over_off", ratio, &steady_ms(&on.iters));
    r.value(
        "replica.publish_kb_per_iter",
        on.total_publish_bytes() as f64 / (on.niters - 1) as f64 / 1e3,
    );

    // core::trace: alternating traced / untraced fits.
    let time_fit = |traced: bool| {
        let t0 = Instant::now();
        let attach =
            |c: KmeansConfig| if traced { c.with_trace(Arc::new(TraceBuf::new())) } else { c };
        black_box(probe_fit(w, p, attach, &e.data));
        t0.elapsed().as_secs_f64()
    };
    let overheads: Vec<f64> = (0..5).map(|_| time_fit(true) / time_fit(false) - 1.0).collect();
    r.sampled("trace.overhead_frac", median(&overheads), &overheads);

    // gemm is exact to 1e-9 of the serial scan, not bitwise. The serial
    // scan takes 0.3 s an iteration, so the first few iterations of the
    // trajectory stand for all of it.
    let short = probe_fit(w, p, |c| c.with_max_iters(SERIAL_CHECK_ITERS), &e.data);
    let serial = lloyd_serial(&e.data, w.k, &w.init, KNOR_SEED, SERIAL_CHECK_ITERS, 0.0);
    let (a, b) = (short.sse.expect("SSE"), serial.sse.expect("SSE"));
    r.check(
        "lib.fit_is_within_1e-9_of_lloyd_serial",
        serial.niters == short.niters && (a - b).abs() <= 1e-9 * b.abs(),
        format!("after {} iterations: knori SSE {a}, lloyd_serial SSE {b}", serial.niters),
    );
}

fn pruned_probes(w: &Workload, p: Params, e: &Enacted, r: &mut Report) {
    let (n, k) = (w.n as f64, w.k as f64);
    let total = e.last.total_prune();
    r.value("pruning.dist_frac", total.dist_computations as f64 / (n * k * e.last.niters as f64));
    r.value("pruning.c1_frac", total.clause1_rows as f64 / (n * e.last.niters as f64));
    // Upper bounds plus the scheme's tables, as `--stats` counts them.
    let m = &e.last.memory;
    r.value("pruning.bound_mb", (m.per_row_bytes - 4 * w.n as u64 + m.pruning_bytes) as f64 / 1e6);
    let visits = n * (e.last.niters - 1) as f64;
    let ns: Vec<f64> = e.shares.iter().map(|s| s.steady_compute_s * 1e9 / visits).collect();
    r.sampled("pruning.ns_per_row_visit", median(&ns), &ns);

    for (scheme, name) in
        [(Pruning::None, "none"), (Pruning::Mti, "mti"), (Pruning::Yinyang, "yinyang")]
    {
        let fit = probe_fit(w, p, |c| c.with_pruning(scheme), &e.data);
        let ms = steady_ms(&fit.iters);
        r.sampled(&format!("pruning.{name}.iter_ms"), median(&ms), &ms);
        if scheme == Pruning::Yinyang {
            let dists = fit.total_prune().dist_computations as f64;
            r.value("pruning.yinyang.dist_frac", dists / (n * k * fit.niters as f64));
        }
    }

    // Serial baseline: its iterations all cost the same, so SAMPLES + 1 of
    // them extrapolate to the workload's count.
    let t0 = Instant::now();
    let serial = lloyd_serial(&e.data, w.k, &w.init, KNOR_SEED, PROBE_ITERS, 0.0);
    let short_s = t0.elapsed().as_secs_f64();
    let ms = steady_ms(&serial.iters);
    let serial_s = short_s + (w.iters - serial.niters) as f64 * median(&ms) / 1e3;
    r.sampled("serial.fit_s", serial_s, &ms);
    r.value("im.speedup_vs_serial", serial_s / median(&e.fit_s));
}

/// knord on the same data: T ranks of one thread on an in-process
/// `LocalCluster`, so every comm number here is *measured in-process*.
/// A knord fit of the whole problem takes as long as a knori one, so the
/// reps run its first [`PROBE_ITERS`] iterations and are held against
/// knori's time for the same iterations.
fn dist_probes(w: &Workload, p: Params, e: &Enacted, rec: &mut Recorder, r: &mut Report) {
    let ranks = p.threads;
    let (mut fit_s, mut steady, mut allreduce, mut over_im) = (vec![], vec![], vec![], vec![]);
    let im_steady_ns: f64 = e.iter_ns[1..PROBE_ITERS.min(e.iter_ns.len())].iter().sum();
    let mut last = None;
    for rep in 0..reps(p) as u32 {
        let (buf, offset) = rec.engine_trace();
        let cfg = DistConfig::new(w.k, ranks, 1)
            .with_init(w.init.clone())
            .with_seed(KNOR_SEED)
            .with_pruning(w.pruning)
            .with_max_iters(PROBE_ITERS)
            .with_trace(buf.clone());
        let span = rec.open("dist.fit", rep);
        let result = DistKmeans::new(cfg).fit(&e.data);
        fit_s.push(rec.close(span));
        rec.adopt(span, &buf, offset);
        let steady_ns: f64 = result.iters.iter().skip(1).map(|i| i.wall_ns as f64).sum();
        steady.extend(result.iters.iter().skip(1).map(|i| i.wall_ns as f64 / 1e6));
        over_im.push(steady_ns / im_steady_ns);
        let reduce_ns: u64 = engine_self_times(&buf)
            .iter()
            .filter(|(s, _)| s.phase == Phase::Allreduce)
            .map(|(s, _)| s.dur_ns())
            .sum();
        let wall_ns: f64 = result.iters.iter().map(|i| i.wall_ns as f64).sum();
        allreduce.push(reduce_ns as f64 / (ranks as f64 * wall_ns));
        last = Some(result);
    }
    let last = last.expect("at least one rep");
    r.sampled("dist.fit_s", median(&fit_s), &fit_s);
    r.sampled("dist.iter_ms", median(&steady), &steady);
    r.sampled("dist.over_im", median(&over_im), &over_im);
    let wire: u64 = last.iters.iter().map(|i| i.comm_bytes).sum();
    let msgs: u64 = last.rank_comm.iter().map(|c| c.messages_sent).sum();
    r.value("dist.wire_kb_per_iter", wire as f64 / last.niters as f64 / 1e3);
    r.value("dist.msgs_per_iter", msgs as f64 / last.niters as f64);
    r.sampled("mpi.allreduce_frac", median(&allreduce), &allreduce);
    // Same init, same pruning, canonical-order reductions: knord walks
    // knori's trajectory, so it reassigns the same rows each iteration.
    let moved =
        |iters: &mut dyn Iterator<Item = u64>| iters.take(PROBE_ITERS).collect::<Vec<u64>>();
    let knord = moved(&mut last.iters.iter().map(|i| i.reassigned));
    let knori = moved(&mut e.last.iters.iter().map(|i| i.reassigned));
    r.check(
        "lib.knord_walks_knori_s_trajectory",
        knord == knori,
        format!("rows reassigned per iteration: knord {knord:?}, knori {knori:?}"),
    );

    // The collective alone, at the run's payload: k x d sums, k counts
    // and the convergence scalars.
    let payload = w.k * w.d + w.k + 7;
    for (algo, name) in
        [(ReduceAlgo::Ring, "mpi.allreduce_us"), (ReduceAlgo::Star, "mpi.allreduce_star_us")]
    {
        let per_rank = LocalCluster::run(ranks, |comm| {
            let mut buf = vec![0.0f64; payload];
            (0..SAMPLES)
                .map(|_| {
                    comm.barrier();
                    let t0 = Instant::now();
                    for _ in 0..ALLREDUCE_CALLS {
                        allreduce_f64(&comm, black_box(&mut buf), algo);
                    }
                    t0.elapsed().as_secs_f64() * 1e6 / ALLREDUCE_CALLS as f64
                })
                .collect::<Vec<f64>>()
        });
        r.sampled(name, median(&per_rank[0]), &per_rank[0]);
    }
    r.note("dist_ranks", count(ranks as u64));
}

pub fn run(w: &Workload, p: Params, rec: &mut Recorder, r: &mut Report) -> io::Result<()> {
    let file = w.input(p.seed)?;
    let e = enact(w, &file, p, rec, r)?;
    let rate = kernel_probes(w, &e, r);
    efficiency(w, p, &e, rate, r);
    if w.name == IM_DENSE {
        dense_probes(w, p, &e, r);
    } else {
        pruned_probes(w, p, &e, r);
        dist_probes(w, p, &e, rec, r);
    }
    cli_probes(w, &file, p, min(&e.read_s) + min(&e.fit_s), r)
}

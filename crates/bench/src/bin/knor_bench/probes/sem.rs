//! Traced run of `sem_stream`: `knor sem` re-enacted through
//! `SemKmeans::fit`, the I/O record it returns, and `SafsReader` driven
//! directly on the rows a rooted run still fetches.

use super::{cli_probes, record_shares, reps, shares, steady_ms, SAMPLES};
use crate::child::sse_text;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, min};
use crate::train::{Workload, KNOR_SEED};
use crate::Params;
use knor_core::{InitMethod, Kmeans, KmeansResult, PhaseGroup};
use knor_matrix::DMatrix;
use knor_safs::{RowStore, SafsReader, DEFAULT_PAGE_SIZE};
use knor_sched::DEFAULT_TASK_SIZE;
use knor_sem::plane::forgy_from_file;
use knor_sem::{SemKmeans, SemResult};
use std::io;
use std::path::Path;
use std::time::Instant;

/// The rows MTI's clause 1 cannot skip once the run has rooted: those
/// whose distance to their own centroid exceeds half the distance from
/// it to the nearest other centroid. The engine's upper bounds are looser
/// than exact distances, so its active set contains this one; the pattern
/// (which rows, how they cluster on pages) is the run's own.
fn rooted_active_rows(data: &DMatrix, fit: &KmeansResult) -> Vec<usize> {
    let k = fit.centroids.nrow();
    let dist =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    let half_nearest: Vec<f64> = (0..k)
        .map(|a| {
            (0..k)
                .filter(|&c| c != a)
                .map(|c| dist(fit.centroids.row(a), fit.centroids.row(c)))
                .fold(f64::INFINITY, f64::min)
                / 2.0
        })
        .collect();
    (0..data.nrow())
        .filter(|&i| {
            let a = fit.assignments[i] as usize;
            dist(data.row(i), fit.centroids.row(a)) > half_nearest[a]
        })
        .collect()
}

/// `SafsReader::fetch_rows` over the active rows in task-sized batches,
/// as a worker issues them, with the run's page-cache budget.
fn fetch_probe(
    w: &Workload,
    file: &Path,
    p: Params,
    active: &[usize],
    r: &mut Report,
) -> io::Result<()> {
    let row_bytes = (w.d * 8) as f64;
    let (mut mb_per_s, mut pages_per_call) = (vec![], vec![]);
    for _ in 0..SAMPLES {
        let store = RowStore::open(file, DEFAULT_PAGE_SIZE)?;
        let reader =
            SafsReader::new(store, w.sem_config(p.threads).page_cache_bytes, p.threads.max(4));
        let mut out = Vec::new();
        let t0 = Instant::now();
        let mut next = 0;
        for task_end in (0..w.n).step_by(DEFAULT_TASK_SIZE).map(|s| s + DEFAULT_TASK_SIZE) {
            let batch_end = next + active[next..].partition_point(|&row| row < task_end);
            if batch_end > next {
                reader.fetch_rows(&active[next..batch_end], &mut out)?;
                std::hint::black_box(&out);
            }
            next = batch_end;
        }
        let s = t0.elapsed().as_secs_f64();
        let io = reader.stats().snapshot();
        mb_per_s.push(active.len() as f64 * row_bytes / 1e6 / s);
        pages_per_call
            .push(io.bytes_read_device as f64 / DEFAULT_PAGE_SIZE as f64 / io.device_reads as f64);
    }
    r.sampled("safs.fetch_mb_per_s", median(&mb_per_s), &mb_per_s);
    r.sampled("safs.pages_per_call", median(&pages_per_call), &pages_per_call);
    Ok(())
}

pub fn run(w: &Workload, p: Params, rec: &mut Recorder, r: &mut Report) -> io::Result<()> {
    let file = w.input(p.seed)?;
    let (mut fit_s, mut steady, mut all_shares) = (vec![], vec![], vec![]);
    let mut kept: Option<SemResult> = None;
    let mut same = true;
    for rep in 0..reps(p) as u32 {
        let (buf, offset) = rec.engine_trace();
        let solver = SemKmeans::new(w.sem_config(p.threads).with_trace(buf.clone()));
        let rep_span = rec.open(w.name, rep);
        let fit_span = rec.open("sem.fit", rep);
        let result = solver.fit(&file)?;
        fit_s.push(rec.close(fit_span));
        rec.adopt(fit_span, &buf, offset);
        rec.close(rep_span);
        r.attempted += 1;
        all_shares.push(shares(&buf, &result.kmeans.iters, p.threads));
        steady.extend(steady_ms(&result.kmeans.iters));
        if let Some(first) = &kept {
            same &= first.kmeans.niters == result.kmeans.niters
                && sse_text(first.kmeans.sse) == sse_text(result.kmeans.sse);
        }
        kept = Some(result);
    }
    let last = kept.expect("at least one rep");
    let km = &last.kmeans;
    r.check(
        "lib.every_rep_reaches_the_same_iterations_and_sse",
        same,
        format!("{} reps: {} iterations, SSE {}", fit_s.len(), km.niters, sse_text(km.sse)),
    );

    r.sampled("sem.fit_s", median(&fit_s), &fit_s);
    r.sampled("sem.iter_ms", median(&steady), &steady);
    record_shares(
        r,
        "sem",
        &all_shares,
        &[(PhaseGroup::IoWait, "io_wait"), (PhaseGroup::Compute, "compute")],
    );
    let sum = |f: fn(&knor_sem::IoIterStats) -> u64| last.io.iter().map(f).sum::<u64>() as f64;
    let (read, req) = (sum(|i| i.bytes_read), sum(|i| i.bytes_requested));
    let (hits, misses) = (sum(|i| i.page_hits), sum(|i| i.page_misses));
    let active = sum(|i| i.active_rows);
    r.value("safs.read_mb", read / 1e6);
    r.value("safs.req_mb", req / 1e6);
    r.value("safs.read_amp", read / req);
    r.value("safs.pg_hit_frac", hits / (hits + misses));
    r.value("sem.rc_hit_frac", sum(|i| i.rc_hits) / active);
    r.value("sem.active_frac", active / (w.n * km.niters) as f64);
    let skipped = km.total_prune().io_skip_rows;
    r.value("sem.io_skip_rows", skipped as f64);
    r.value("sem.cache_mb", km.memory.cache_bytes as f64 / 1e6);
    r.value("sem.per_row_mb", km.memory.per_row_bytes as f64 / 1e6);

    // knori from the same forgy rows of the same file walks the same
    // trajectory: the staged plane changes where rows come from, not
    // what is computed on them.
    let data = knor_matrix::io::read_matrix(&file)?;
    let init = InitMethod::Given(forgy_from_file(&file, w.k, KNOR_SEED)?);
    let im = Kmeans::new(w.im_config(p.threads).with_init(init)).fit(&data);
    r.check(
        "lib.knors_reaches_knori_s_sse_and_skips_io",
        im.niters == km.niters && sse_text(im.sse) == sse_text(km.sse) && skipped > 0,
        format!(
            "knors SSE {}, knori SSE {}, io_skip_rows {skipped}",
            sse_text(km.sse),
            sse_text(im.sse)
        ),
    );

    fetch_probe(w, &file, p, &rooted_active_rows(&data, km), r)?;
    cli_probes(w, &file, p, min(&fit_s), r)
}

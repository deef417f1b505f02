//! Figure 13: knors on one storage-dense machine vs distributed packages
//! on a cluster (knord / MPI on 48 cores; 128 for RU1B-class data).
//!
//! knors is priced on an i3.16xlarge-like box (32 cores, 8 NVMe SSDs):
//! per-iteration time = max(compute, device I/O) + in-box reduce, using
//! the *measured* per-iteration device bytes from the real SEM run.
//! Distributed implementations are priced by `distmodel` as in Figs 11/12.

use knor_bench::distmodel::{modeled_iter_ns, DistImpl, IterWork, FLOP_NS};
use knor_bench::{ec2_net, fmt_ns, save_results, HarnessArgs};
use knor_core::{InitMethod, Pruning};
use knor_dist::{DistConfig, DistKmeans};
use knor_sem::{SemConfig, SemInit, SemKmeans};
use knor_workloads::PaperDataset;

/// Aggregate SSD bandwidth of the 8-NVMe i3.16xlarge, bytes/ns.
const SSD_GBPS: f64 = 8.0 * 0.5;
/// knors host cores.
const SEM_CORES: usize = 48; // 32 physical + SMT, as in the paper

fn main() {
    let args = HarnessArgs::parse();
    let net = ec2_net();
    let mut out = String::new();
    println!("Figure 13: knors (one machine) vs distributed packages\n");
    println!(
        "{:<14} {:>7} {:>11} {:>11} {:>11} {:>11}",
        "dataset", "cores*", "knors", "MLlib-EC2", "knord", "MPI"
    );

    for (ds, k, dist_cores) in [
        (PaperDataset::Friendster8, 10usize, 48usize),
        (PaperDataset::Friendster32, 10, 48),
        (PaperDataset::RM856M, 10, 48),
        (PaperDataset::RM1B, 10, 128),
    ] {
        let data = ds.generate(args.scale, args.seed).data;
        let n = data.nrow();
        let d = data.ncol();
        let init = InitMethod::PlusPlus.initialize(&data, k, args.seed).to_matrix();

        // Real SEM run for per-iteration device bytes + work counters.
        let mut path = std::env::temp_dir();
        path.push(format!("knor-fig13-{}-{}.knor", std::process::id(), d));
        knor_matrix::io::write_matrix(&path, &data).unwrap();
        let sem = SemKmeans::new(
            SemConfig::new(k)
                .with_init(SemInit::Given(init.clone()))
                .with_threads(args.threads)
                .with_row_cache_bytes(((n * d * 8) / 8) as u64)
                .with_page_cache_bytes(((n * d * 8) / 16) as u64)
                .with_cache_interval(2) // reach RC steady state in short runs
                .with_task_size((n / (args.threads * 8)).max(512))
                .with_max_iters(args.iters.min(15)),
        )
        .fit(&path)
        .unwrap();
        std::fs::remove_file(&path).unwrap();
        // Steady-state device traffic: iterations after the first refresh,
        // excluding refresh iterations themselves (the paper's "in-memory
        // speeds for the vast majority of iterations" regime).
        let first_refresh = sem.io.iter().position(|i| i.rc_refreshed).unwrap_or(0);
        let steady: Vec<f64> = sem
            .io
            .iter()
            .skip(first_refresh + 1)
            .filter(|i| !i.rc_refreshed)
            .map(|i| i.bytes_read as f64)
            .collect();
        let dev_bytes: f64 = if steady.is_empty() {
            sem.io.last().map(|i| i.bytes_read as f64).unwrap_or(0.0) / args.scale
        } else {
            steady.iter().sum::<f64>() / steady.len() as f64 / args.scale
        };
        let flops: f64 = sem.kmeans.iters[1..]
            .iter()
            .map(|i| ((i.prune.dist_computations + i.reassigned) * d as u64) as f64)
            .sum::<f64>()
            / (sem.kmeans.iters.len() - 1).max(1) as f64
            / args.scale;
        // knors modeled: compute over SEM_CORES overlapped with device I/O.
        let compute_ns = flops * FLOP_NS / SEM_CORES as f64;
        let io_ns = dev_bytes / SSD_GBPS;
        let knors_ns = compute_ns.max(io_ns) + 50_000.0; // in-box merge

        // Distributed work from a real knord run.
        let r = DistKmeans::new(
            DistConfig::new(k, 2, args.threads.div_ceil(2))
                .with_init(InitMethod::Given(init))
                .with_pruning(Pruning::Mti)
                .with_max_iters(args.iters.min(10)),
        )
        .fit(&data);
        let dl = &r.kmeans.iters[1.min(r.kmeans.iters.len() - 1)..];
        let dflops: u64 =
            dl.iter().map(|i| (i.prune.dist_computations + i.reassigned) * d as u64).sum::<u64>()
                / dl.len() as u64;
        let drows: u64 = dl
            .iter()
            .map(|i| i.prune.dist_computations / k as u64 + i.prune.clause1_rows / 4)
            .sum::<u64>()
            / dl.len() as u64;
        let w = IterWork::from_measured(dflops, drows * (d * 8) as u64, k, d, args.scale);
        // MLlib runs no MTI: price it on the full unpruned per-iteration work.
        let w_full = IterWork {
            flops: ds.full_n() as f64 * (k * d) as f64,
            bytes: ds.full_n() as f64 * (d * 8) as f64,
            reduce_bytes: w.reduce_bytes,
        };
        let knord = modeled_iter_ns(DistImpl::Knord, w, dist_cores, net);
        let mpi = modeled_iter_ns(DistImpl::PureMpi, w, dist_cores, net);
        let mllib = modeled_iter_ns(DistImpl::MllibLike, w_full, dist_cores, net);

        println!(
            "{:<14} {dist_cores:>7} {:>11} {:>11} {:>11} {:>11}",
            ds.name(),
            fmt_ns(knors_ns),
            fmt_ns(mllib),
            fmt_ns(knord),
            fmt_ns(mpi)
        );
        out.push_str(&format!("{}\t{knors_ns}\t{mllib}\t{knord}\t{mpi}\n", ds.name()));
    }
    println!("\n(*cluster cores for MLlib/knord/MPI; knors uses one 48-thread machine)");
    println!(
        "Shape check (paper: knors often beats MLlib-on-a-cluster and stays within a\nsmall factor of knord/MPI — scale-up before scale-out)."
    );
    save_results("fig13_sem_vs_dist.tsv", &out);
}

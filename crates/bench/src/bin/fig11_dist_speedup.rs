//! Figure 11: distributed speedup of knord vs pure MPI vs MLlib-EC2 on
//! Friendster-32 (24/48/96 threads) and RM1B (72/144/288 threads).
//!
//! Real runs at harness scale produce the exact work counters (flops,
//! bytes, wire traffic); `distmodel` prices them on the paper's EC2
//! cluster (18 cores/machine, 10 GbE) — DESIGN.md §3.3.

use knor_bench::distmodel::{modeled_iter_ns, DistImpl, IterWork};
use knor_bench::{ec2_net, save_results, HarnessArgs};
use knor_core::{InitMethod, Pruning};
use knor_dist::{DistConfig, DistKmeans};
use knor_workloads::PaperDataset;

fn measured_work(ds: PaperDataset, k: usize, args: &HarnessArgs, pruning: Pruning) -> IterWork {
    let data = ds.generate(args.scale, args.seed).data;
    let d = data.ncol();
    let init = InitMethod::PlusPlus.initialize(&data, k, args.seed).to_matrix();
    let r = DistKmeans::new(
        DistConfig::new(k, 2, args.threads.div_ceil(2))
            .with_init(InitMethod::Given(init))
            .with_pruning(pruning)
            .with_max_iters(args.iters.min(12)),
    )
    .fit(&data)
    .kmeans;
    // Steady-state per-iteration work, skipping the cold full pass.
    let later = &r.iters[1.min(r.iters.len() - 1)..];
    let flops: u64 =
        later.iter().map(|i| (i.prune.dist_computations + i.reassigned) * d as u64).sum::<u64>()
            / later.len() as u64;
    let rows: u64 = later
        .iter()
        .map(|i| i.prune.dist_computations / k as u64 + i.prune.clause1_rows / 4)
        .sum::<u64>()
        / later.len() as u64;
    IterWork::from_measured(flops, rows * (d * 8) as u64, k, d, args.scale)
}

fn main() {
    let args = HarnessArgs::parse();
    let net = ec2_net();
    let mut out = String::new();

    for (ds, k, threads) in [
        (PaperDataset::Friendster32, 10, vec![24usize, 48, 96]),
        (PaperDataset::RM1B, 10, vec![72, 144, 288]),
    ] {
        println!(
            "\nFigure 11 ({}, k={k}): modeled relative performance (normalized to 1 thread)",
            ds.name()
        );
        println!("{:>8} {:>8} {:>8} {:>10} {:>7}", "threads", "knord", "MPI", "MLlib-EC2", "ideal");
        // Speedup panels isolate parallel efficiency (each implementation
        // normalized to its own serial time, as the paper's caption says);
        // absolute times with pruning are Fig 12's subject.
        let work_full = measured_work(ds, k, &args, Pruning::None);
        for &t in &threads {
            let s = |imp: DistImpl, w: IterWork| {
                modeled_iter_ns(imp, w, 1, net) / modeled_iter_ns(imp, w, t, net)
            };
            let knord = s(DistImpl::Knord, work_full);
            let mpi = s(DistImpl::PureMpi, work_full);
            let mllib = s(DistImpl::MllibLike, work_full);
            println!("{t:>8} {knord:>8.1} {mpi:>8.1} {mllib:>10.1} {t:>7}");
            out.push_str(&format!("{}\t{t}\t{knord}\t{mpi}\t{mllib}\n", ds.name()));
        }
    }
    println!(
        "\nShape check (paper: knord within a constant factor of linear; MLlib saturates\nearly under driver aggregation)."
    );
    save_results("fig11_dist_speedup.tsv", &out);
}

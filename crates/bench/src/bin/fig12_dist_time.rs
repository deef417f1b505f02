//! Figure 12: distributed time/iteration — knord, MPI, knord-, MPI-, and
//! MLlib-EC2. (12a) Friendster-8/32 at k=100; (12b) RM856M/RM1B at k=10.
//!
//! Work counters come from real runs at harness scale; `distmodel` prices
//! them on the paper's EC2 cluster.

use knor_bench::distmodel::{modeled_iter_ns, DistImpl, IterWork};
use knor_bench::{ec2_net, fmt_ns, save_results, HarnessArgs};
use knor_core::{InitMethod, Pruning};
use knor_dist::{DistConfig, DistKmeans};
use knor_workloads::PaperDataset;

fn work(ds: PaperDataset, k: usize, args: &HarnessArgs, pruning: Pruning) -> IterWork {
    let data = ds.generate(args.scale, args.seed).data;
    let d = data.ncol();
    let init = InitMethod::PlusPlus.initialize(&data, k, args.seed).to_matrix();
    let r = DistKmeans::new(
        DistConfig::new(k, 2, args.threads.div_ceil(2))
            .with_init(InitMethod::Given(init))
            .with_pruning(pruning)
            .with_max_iters(args.iters.min(10)),
    )
    .fit(&data)
    .kmeans;
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
    let panels = [
        (PaperDataset::Friendster8, 100usize, vec![48usize, 64]),
        (PaperDataset::Friendster32, 100, vec![48, 96, 126]),
        (PaperDataset::RM856M, 10, vec![72, 144, 288]),
        (PaperDataset::RM1B, 10, vec![144, 288]),
    ];

    for (ds, k, cores) in panels {
        println!("\nFigure 12 ({}, k={k}): modeled time per iteration", ds.name());
        println!(
            "{:>7} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "cores", "knord", "MPI", "knord-", "MPI-", "MLlib-EC2"
        );
        let w_mti = work(ds, k, &args, Pruning::Mti);
        let w_full = work(ds, k, &args, Pruning::None);
        for &c in &cores {
            let knord = modeled_iter_ns(DistImpl::Knord, w_mti, c, net);
            let mpi = modeled_iter_ns(DistImpl::PureMpi, w_mti, c, net);
            let knord_m = modeled_iter_ns(DistImpl::Knord, w_full, c, net);
            let mpi_m = modeled_iter_ns(DistImpl::PureMpi, w_full, c, net);
            let mllib = modeled_iter_ns(DistImpl::MllibLike, w_full, c, net);
            println!(
                "{c:>7} {:>11} {:>11} {:>11} {:>11} {:>11}",
                fmt_ns(knord),
                fmt_ns(mpi),
                fmt_ns(knord_m),
                fmt_ns(mpi_m),
                fmt_ns(mllib)
            );
            out.push_str(&format!(
                "{}\t{c}\t{knord}\t{mpi}\t{knord_m}\t{mpi_m}\t{mllib}\n",
                ds.name()
            ));
        }
        let c = cores[0];
        let knord_m = modeled_iter_ns(DistImpl::Knord, w_full, c, net);
        let mllib = modeled_iter_ns(DistImpl::MllibLike, w_full, c, net);
        println!(
            "  shape: knord- vs MLlib at {c} cores = {:.1}x (paper: >= 5x even without MTI)",
            mllib / knord_m
        );
    }
    save_results("fig12_dist_time.tsv", &out);
}

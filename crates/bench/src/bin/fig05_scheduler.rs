//! Figure 5: the partitioned NUMA-aware scheduler vs FIFO vs static, under
//! MTI-induced skew, k in {10, 20, 50, 100}, Friendster-8.
//!
//! Reports the measured steady-state wall time per iteration on the host
//! for each scheduler, plus the NUMA-aware queue's dispatch counters
//! (own, node-local steals, priority hits, remote steals) from the last
//! iteration, which show how much of its work stayed local.

use knor_bench::{fmt_ns, save_results, steady_iter_ns, HarnessArgs};
use knor_core::{InitMethod, Kmeans, KmeansConfig};
use knor_sched::SchedulerKind;
use knor_workloads::PaperDataset;

fn main() {
    let args = HarnessArgs::parse();
    let data = PaperDataset::Friendster8.generate(args.scale, args.seed).data;
    let n = data.nrow();
    // Paper task size is 8192 rows on 66M; keep tasks proportionally small
    // so the queue actually has depth at harness scale.
    let task_size = (n / (args.threads * 16)).max(256);

    println!(
        "Figure 5: scheduler comparison under MTI skew, Friendster-8 at scale {} (n={n})",
        args.scale
    );
    println!("threads={}, task_size={task_size}\n", args.threads);
    println!(
        "{:>5} {:>12} {:>12} {:>12}   {:>24}",
        "k", "numa-aware", "fifo", "static", "numa-aware steal profile"
    );
    let mut out = String::from("k\tnuma_ns\tfifo_ns\tstatic_ns\n");
    for k in [10usize, 20, 50, 100] {
        let init = InitMethod::PlusPlus.initialize(&data, k, args.seed).to_matrix();
        let mut row = [0.0f64; 3];
        let mut steal_note = String::new();
        for (i, sched) in [SchedulerKind::NumaAware, SchedulerKind::Fifo, SchedulerKind::Static]
            .into_iter()
            .enumerate()
        {
            let r = Kmeans::new(
                KmeansConfig::new(k)
                    .with_init(InitMethod::Given(init.clone()))
                    .with_threads(args.threads)
                    .with_scheduler(sched)
                    .with_task_size(task_size)
                    .with_max_iters(args.iters)
                    .with_sse(false),
            )
            .fit(&data);
            row[i] = steady_iter_ns(&r);
            if sched == SchedulerKind::NumaAware {
                let q = r.iters.last().unwrap().queue;
                steal_note = format!(
                    "own {} node {} prio {} remote {}",
                    q.own, q.node_steals, q.priority_hits, q.remote_steals
                );
            }
        }
        println!(
            "{k:>5} {:>12} {:>12} {:>12}   {steal_note:>24}",
            fmt_ns(row[0]),
            fmt_ns(row[1]),
            fmt_ns(row[2]),
        );
        out.push_str(&format!("{k}\t{}\t{}\t{}\n", row[0], row[1], row[2]));
    }
    println!("\nShape check (paper: NUMA-aware wins grow with k, >40% at k=100 vs static).");
    save_results("fig05_scheduler.tsv", &out);
}

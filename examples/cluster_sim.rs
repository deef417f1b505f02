//! knord on a simulated cluster: decentralized ring reduce vs the
//! driver-centric star, with exact wire-traffic accounting.
//!
//! ```sh
//! cargo run --release --example cluster_sim [ranks]
//! ```

use knor::prelude::*;

fn main() {
    let ranks: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    let n = 120_000;
    let d = 16;
    let k = 32;

    let data = MixtureSpec::friendster_like(n, d, 3).generate().data;
    let init = InitMethod::PlusPlus.initialize(&data, k, 1).to_matrix();

    println!("knord on {ranks} in-process ranks (n={n}, d={d}, k={k})\n");
    println!("reduce  iters  time      max-rank-comm/iter  modeled-wire/iter");
    for (name, algo) in [("ring", ReduceAlgo::Ring), ("star", ReduceAlgo::Star)] {
        let t0 = std::time::Instant::now();
        let result = DistKmeans::new(
            DistConfig::new(k, ranks, 1)
                .with_init(InitMethod::Given(init.clone()))
                .with_reduce(algo)
                .with_max_iters(60),
        )
        .fit(&data)
        .kmeans;
        let elapsed = t0.elapsed();
        let comm: u64 = result.iters.iter().map(|i| i.max_rank_comm_bytes).max().unwrap();
        let wire: f64 =
            result.iters.iter().map(|i| i.modeled_comm_ns).sum::<f64>() / result.niters as f64;
        println!(
            "{name:<6}  {:>5}  {elapsed:>8.2?}  {:>15.1} KB  {:>14.2} ms",
            result.niters,
            comm as f64 / 1e3,
            wire / 1e6,
        );
    }

    // The MPI baseline shape: one single-threaded rank per "core".
    let t0 = std::time::Instant::now();
    let mpi = DistKmeans::new(
        DistConfig::pure_mpi(k, ranks * 2)
            .with_init(InitMethod::Given(init.clone()))
            .with_max_iters(60),
    )
    .fit(&data)
    .kmeans;
    println!(
        "\npure-MPI baseline ({} ranks x 1 thread): {} iters in {:.2?}",
        ranks * 2,
        mpi.niters,
        t0.elapsed()
    );

    // All variants agree with a serial run.
    let serial = knor::core::serial::lloyd_serial(&data, k, &InitMethod::Given(init), 0, 60, 0.0);
    println!(
        "serial agreement check: {} iterations (matches = {})",
        serial.niters,
        serial.niters == mpi.niters
    );
}

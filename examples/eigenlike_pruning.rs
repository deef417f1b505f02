//! MTI pruning on natural-cluster data: knori vs knori- vs full Elkan TI.
//!
//! Reproduces the §8.6 story on a laptop-scale Friendster-like workload:
//! MTI prunes nearly as much as full TI while holding O(n) instead of
//! O(nk) bound state.
//!
//! ```sh
//! cargo run --release --example eigenlike_pruning [n] [k]
//! ```

use knor::prelude::*;
use knor_baselines::elkan::elkan_full_ti;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    let data = MixtureSpec::friendster_like(n, 8, 11).generate().data;
    let init = InitMethod::PlusPlus.initialize(&data, k, 3).to_matrix();

    println!("workload: n={n}, d=8, k={k} (power-law natural clusters)\n");

    // knori (MTI on).
    let t0 = std::time::Instant::now();
    let knori = Kmeans::new(
        KmeansConfig::new(k).with_init(InitMethod::Given(init.clone())).with_max_iters(100),
    )
    .fit(&data);
    let t_knori = t0.elapsed();

    // knori- (MTI off).
    let t0 = std::time::Instant::now();
    let knori_minus = Kmeans::new(
        KmeansConfig::new(k)
            .with_init(InitMethod::Given(init.clone()))
            .with_pruning(Pruning::None)
            .with_max_iters(100),
    )
    .fit(&data);
    let t_minus = t0.elapsed();

    // Full Elkan TI (serial reference with O(nk) bounds).
    let t0 = std::time::Instant::now();
    let elkan = elkan_full_ti(&data, &init, 100);
    let t_elkan = t0.elapsed();

    let exhaustive = (n * k) as u64 * knori.niters as u64;
    let mti_comps = knori.total_prune().dist_computations;
    let ti_comps = elkan.prune.dist_computations;

    println!("variant   iters  time       dist-comps     vs exhaustive  bound state");
    println!(
        "knori     {:>5}  {:>8.2?}  {:>13}  {:>12.1}%  O(n)   = {:.1} MB",
        knori.niters,
        t_knori,
        mti_comps,
        100.0 * mti_comps as f64 / exhaustive as f64,
        (n * 8) as f64 / 1e6
    );
    println!(
        "knori-    {:>5}  {:>8.2?}  {:>13}  {:>12.1}%  none",
        knori_minus.niters,
        t_minus,
        knori_minus.total_prune().dist_computations,
        100.0
    );
    println!(
        "ElkanTI   {:>5}  {:>8.2?}  {:>13}  {:>12.1}%  O(nk)  = {:.1} MB",
        elkan.niters,
        t_elkan,
        ti_comps,
        100.0 * ti_comps as f64 / (n * k) as f64 / elkan.niters as f64,
        elkan.bound_bytes as f64 / 1e6
    );

    // The three must agree on the clustering (pruning is exact).
    let sse_knori = knori.sse.unwrap();
    let sse_minus = knori_minus.sse.unwrap();
    let sse_elkan = knor::core::quality::sse(&data, &elkan.centroids, &elkan.assignments, 1);
    println!("\nSSE agreement: knori={sse_knori:.4}  knori-={sse_minus:.4}  elkan={sse_elkan:.4}");
}

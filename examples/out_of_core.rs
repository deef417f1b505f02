//! knors end-to-end: write a dataset to disk, cluster it under an O(n)
//! memory budget, and report the I/O the caches saved.
//!
//! ```sh
//! cargo run --release --example out_of_core [n]
//! ```

use knor::prelude::*;

fn main() -> std::io::Result<()> {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let d = 32;
    let k = 16;

    // Generate and persist a Friendster-32-like matrix.
    let planted = MixtureSpec::friendster_like(n, d, 99).generate();
    let mut path = std::env::temp_dir();
    path.push(format!("knor-out-of-core-{}.knor", std::process::id()));
    matrix_io::write_matrix(&path, &planted.data)?;
    let file_mb = (n * d * 8) as f64 / 1e6;
    println!("wrote {file_mb:.1} MB to {}", path.display());

    // Cluster it semi-externally: row data never fully resident.
    let init = InitMethod::PlusPlus.initialize(&planted.data, k, 5).to_matrix();
    let config = SemConfig::new(k)
        .with_init(SemInit::Given(init))
        .with_row_cache_bytes(8 << 20) // 8 MB row cache
        .with_page_cache_bytes(16 << 20) // lent to the row cache: 24 MB in all
        .with_max_iters(60)
        .with_sse(true);
    let t0 = std::time::Instant::now();
    let result = SemKmeans::new(config).fit(&path)?;
    let elapsed = t0.elapsed();

    println!("\nknors run: {} iterations in {elapsed:.2?}", result.kmeans.niters);
    println!("  converged = {}", result.kmeans.converged);
    println!("  SSE = {:.3}", result.kmeans.sse.unwrap());
    println!(
        "  resident engine state: {:.2} MB (vs {file_mb:.1} MB of data)",
        (result.kmeans.memory.total() - result.kmeans.memory.cache_bytes) as f64 / 1e6,
    );

    let req: u64 = result.io.iter().map(|i| i.bytes_requested).sum();
    let read: u64 = result.io.iter().map(|i| i.bytes_read).sum();
    let naive = (n * d * 8) as u64 * result.kmeans.niters as u64;
    println!("\nI/O accounting across the run:");
    println!("  full rescan would request : {:>10.1} MB", naive as f64 / 1e6);
    println!("  knors requested           : {:>10.1} MB (Clause 1 + row cache)", req as f64 / 1e6);
    println!("  device actually read      : {:>10.1} MB (page-granular)", read as f64 / 1e6);
    let hits: u64 = result.io.iter().map(|i| i.rc_hits).sum();
    println!("  row-cache hits            : {hits}");

    println!("\n  iter  active-rows  rc-hits  MB-read");
    for io in result.io.iter().take(10) {
        println!(
            "  {:>4}  {:>11}  {:>7}  {:>7.2}",
            io.iter,
            io.active_rows,
            io.rc_hits,
            io.bytes_read as f64 / 1e6
        );
    }
    if result.io.len() > 10 {
        println!("  ... ({} more iterations)", result.io.len() - 10);
    }

    std::fs::remove_file(&path)?;
    Ok(())
}

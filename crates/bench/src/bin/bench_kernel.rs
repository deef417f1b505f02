//! Kernel benchmark: scalar vs tiled vs blocked-GEMM assignment across an
//! (n, k, d) grid. `results/BENCH_PR2.json` holds the first trajectory;
//! `results/BENCH_PR6.json` the one with the GEMM path, recording
//! per-kernel ns and FMA availability.
//!
//! Each configuration times complete assignment passes (every row against
//! every centroid — the non-pruned compute super-phase) and cross-checks
//! the kernels against each other: tiled must match the scalar scan
//! bitwise; gemm within 1e-9 relative on distances.
//!
//! ```text
//! bench_kernel           full grid, writes results/BENCH_PR6.json
//! bench_kernel --smoke   tiny shapes for CI; asserts gemm beats scalar on
//!                        the scaled headline shape and does not touch
//!                        results/
//! ```

use knor_bench::save_results;
use knor_core::centroids::Centroids;
use knor_core::distance::nearest;
use knor_core::kernel::{assign_rows, centroid_sqnorms, fma_usable, KernelKind, ResolvedKernel};
use knor_workloads::uniform_matrix;

struct Shape {
    n: usize,
    k: usize,
    d: usize,
    /// Smoke mode asserts gemm-beats-scalar only on the headline shape
    /// (tiny shapes are noise-dominated).
    headline: bool,
}

fn time_passes<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    let sh = |n, k, d, headline| Shape { n, k, d, headline };
    let shapes: Vec<Shape> = if smoke {
        vec![
            sh(2000, 8, 5, false),
            sh(1000, 12, 16, false),
            // The headline (k, d) at CI-friendly n: big enough that the
            // gemm-vs-scalar assertion is not timer noise.
            sh(20_000, 64, 32, true),
        ]
    } else {
        vec![
            sh(100_000, 64, 32, true), // the headline workload
            sh(100_000, 16, 16, false),
            sh(50_000, 32, 8, false),
            sh(20_000, 128, 64, false),
            sh(50_000, 10, 100, false),
        ]
    };
    let reps = if smoke { 3 } else { 9 };

    println!(
        "fma: {}",
        if fma_usable() { "available" } else { "not available (portable fallback)" }
    );
    println!(
        "{:>8} {:>5} {:>4} {:>11} {:>11} {:>11} {:>7}",
        "n", "k", "d", "scalar", "tiled", "gemm", "gemmX"
    );
    let mut rows = Vec::new();
    for s in &shapes {
        let data = uniform_matrix(s.n, s.d, 42);
        let mut cents = Centroids::zeros(s.k, s.d);
        cents.means.copy_from_slice(&data.as_slice()[..s.k * s.d]);
        let mut cnorms = vec![0.0; s.k];
        centroid_sqnorms(&cents, &mut cnorms);

        let scalar_rk = KernelKind::Scalar.resolve(s.k, s.d, false);
        let tiled_rk = KernelKind::Tiled.resolve(s.k, s.d, false);
        let gemm_rk = KernelKind::Gemm.resolve(s.k, s.d, false);
        let run = |rk: &ResolvedKernel, best: &mut Vec<u32>, dist: &mut Vec<f64>| {
            assign_rows(data.as_slice(), s.d, &cents, rk, &cnorms, best, dist, true);
        };

        // Correctness first: tiled bitwise, the rest within tolerance.
        let (mut sb, mut sd) = (Vec::new(), Vec::new());
        let (mut tb, mut td) = (Vec::new(), Vec::new());
        run(&scalar_rk, &mut sb, &mut sd);
        run(&tiled_rk, &mut tb, &mut td);
        assert_eq!(sb, tb, "tiled kernel diverged from scalar");
        assert!(
            sd.iter().zip(&td).all(|(a, b)| a.to_bits() == b.to_bits()),
            "tiled distances not bitwise"
        );
        // 1e-9 relative band plus an absolute floor for rows sitting on a
        // centroid: the gemm cancellation leaves an O(ulp·‖x‖²) residual in
        // the squared distance, which sqrt amplifies to ~1e-7 when the true
        // distance is 0 (far below any real inter-centroid scale).
        let (mut gb, mut gd) = (Vec::new(), Vec::new());
        run(&gemm_rk, &mut gb, &mut gd);
        for (i, (a, x)) in sd.iter().zip(&gd).enumerate() {
            assert!((a - x).abs() <= 1e-9 * a.abs() + 1e-6, "gemm row {i}: {a} vs {x}");
        }
        // Spot-check the scalar reference itself.
        let (a0, d0) = nearest(data.row(0), &cents.means, s.k);
        assert_eq!((sb[0], sd[0]), (a0 as u32, d0));

        let scalar_ns = time_passes(reps, || run(&scalar_rk, &mut sb, &mut sd));
        let tiled_ns = time_passes(reps, || run(&tiled_rk, &mut tb, &mut td));
        let gemm_ns = time_passes(reps, || run(&gemm_rk, &mut gb, &mut gd));
        let gemm_x = scalar_ns / gemm_ns;
        println!(
            "{:>8} {:>5} {:>4} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>6.2}x",
            s.n,
            s.k,
            s.d,
            scalar_ns / 1e6,
            tiled_ns / 1e6,
            gemm_ns / 1e6,
            gemm_x
        );
        if smoke && s.headline {
            assert!(
                gemm_ns < scalar_ns,
                "gemm ({gemm_ns:.0} ns) must beat scalar ({scalar_ns:.0} ns) on the headline shape"
            );
        }
        rows.push(format!(
            concat!(
                "    {{\"n\": {}, \"k\": {}, \"d\": {}, ",
                "\"scalar_ns\": {:.0}, \"tiled_ns\": {:.0}, \"gemm_ns\": {:.0}, ",
                "\"gemm_speedup\": {:.3}}}"
            ),
            s.n, s.k, s.d, scalar_ns, tiled_ns, gemm_ns, gemm_x
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"kernel_assign\",\n  \"pr\": 6,\n  \"mode\": \"{}\",\n",
            "  \"reps\": {},\n  \"fma_available\": {},\n  \"results\": [\n{}\n  ]\n}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        reps,
        fma_usable(),
        rows.join(",\n")
    );
    if smoke {
        // CI runs smoke on every build; never clobber the committed
        // full-mode artifact with tiny-shape numbers.
        println!("\n[smoke mode: JSON not saved]\n{json}");
    } else {
        save_results("BENCH_PR6.json", &json);
    }
}

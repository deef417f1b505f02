//! Inputs, generated from `--seed` by `knor_workloads` into the
//! git-ignored `results/bench/work/` and reused while header, length and
//! seed match. knor itself only ever sees these files and query bytes.
//!
//! What the seed varies, and what it must not: a regression gate needs
//! the same amount of work on every run, and Lloyd's work on a freshly
//! drawn mixture does not repeat — on eight draws of the mixture below,
//! 40 MTI iterations took 20 M to 38 M distance evaluations and 0.73 s to
//! 1.69 s. So the mixture's geometry (centres, sizes, noise) is part of
//! the workload definition, drawn once from [`MIXTURE_SEED`], and the
//! seed picks a rigid motion of it: a random rotation, reflection, column
//! permutation and translation. k-means is equivariant under rigid
//! motions, so iterations, distance evaluations and rows fetched repeat
//! (to floating-point ties) while every byte knor reads differs.
//! `im_dense`'s uniform matrix has no structure to hold still and is
//! drawn afresh from the seed.

use knor_matrix::io::{read_header, write_matrix, HEADER_LEN};
use knor_matrix::DMatrix;
use knor_workloads::{uniform_matrix, Balance, MixtureSpec};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// Seed of the planted mixture's geometry; fixed, see the module text.
const MIXTURE_SEED: u64 = 7;

pub fn results_dir() -> PathBuf {
    PathBuf::from("results/bench")
}

fn work_dir() -> PathBuf {
    results_dir().join("work")
}

/// The two matrices the workloads read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// `rm1b`-style i.i.d. uniform rows (`im_dense`).
    Dense,
    /// friendster32-style planted mixture (`im_pruned`, `sem_stream`,
    /// `serve_mix`).
    Clustered,
}

impl Data {
    fn stem(self) -> &'static str {
        match self {
            Data::Dense => "dense",
            Data::Clustered => "clustered",
        }
    }

    fn from_stem(stem: &str) -> Option<Self> {
        [Data::Dense, Data::Clustered].into_iter().find(|d| d.stem() == stem)
    }

    fn generate(self, n: usize, d: usize, seed: u64) -> DMatrix {
        match self {
            Data::Dense => uniform_matrix(n, d, seed),
            Data::Clustered => {
                let mut m = MixtureSpec {
                    n,
                    d,
                    k: 10,
                    separation: 8.0,
                    sigma: 0.5,
                    balance: Balance::PowerLaw(1.2),
                    noise: 0.02,
                    seed: MIXTURE_SEED,
                }
                .generate()
                .data;
                rigid_motion(&mut m, seed);
                m
            }
        }
    }
}

/// SplitMix64: the benchmark's own stream for the rigid motion, so the
/// motion does not depend on how `knor_workloads` consumes its generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle(&mut self, xs: &mut [usize]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Apply the seed's rigid motion to every row: three rounds of plane
/// rotations over random disjoint column pairs (together a dense random
/// rotation), a sign flip and a translation per column. The column
/// shuffles make the rotation include a column permutation.
fn rigid_motion(m: &mut DMatrix, seed: u64) {
    let d = m.ncol();
    let mut rng = SplitMix(seed);
    let rounds: Vec<Vec<(usize, usize, f64, f64)>> = (0..3)
        .map(|_| {
            let mut cols: Vec<usize> = (0..d).collect();
            rng.shuffle(&mut cols);
            cols.chunks_exact(2)
                .map(|p| {
                    let (sin, cos) = (rng.unit() * std::f64::consts::TAU).sin_cos();
                    (p[0], p[1], cos, sin)
                })
                .collect()
        })
        .collect();
    let flip: Vec<f64> = (0..d).map(|_| if rng.next() & 1 == 0 { 1.0 } else { -1.0 }).collect();
    let shift: Vec<f64> = (0..d).map(|_| rng.unit() * 8.0 - 4.0).collect();
    for row in m.as_mut_slice().chunks_exact_mut(d) {
        for round in &rounds {
            for &(a, b, cos, sin) in round {
                let (x, y) = (row[a], row[b]);
                row[a] = cos * x - sin * y;
                row[b] = sin * x + cos * y;
            }
        }
        for ((x, f), s) in row.iter_mut().zip(&flip).zip(&shift) {
            *x = *x * f + s;
        }
    }
}

/// Flush a file's (or directory's) dirty pages to the device.
fn sync(path: &Path) -> io::Result<()> {
    File::open(path)?.sync_all()
}

/// `knor_bench --generate <stem> <n> <d> <seed> <path>`: generate one
/// input, sync it to the device (write-back of a fresh 170 MB file was
/// measured to slow the next rep by 25-80 %).
pub fn generate_main(words: &[String]) -> io::Result<()> {
    let bad =
        || io::Error::new(io::ErrorKind::InvalidInput, "--generate <stem> <n> <d> <seed> <path>");
    let [stem, n, d, seed, path] = words else { return Err(bad()) };
    let data = Data::from_stem(stem).ok_or_else(bad)?;
    let (n, d) = (n.parse().map_err(|_| bad())?, d.parse().map_err(|_| bad())?);
    let path = Path::new(path);
    write_matrix(path, &data.generate(n, d, seed.parse().map_err(|_| bad())?))?;
    sync(path)
}

/// The input file for `(data, n, d, seed)`: reused when a file of that
/// name has the right header and length, else generated and renamed into
/// place. Files of the same shape from other seeds are removed, so the
/// directory holds one seed's data.
///
/// Generation runs in a child of this process: a child's `ru_maxrss`
/// starts from its parent's resident size at the fork, so a benchmark
/// that had held a 170 MB matrix would report that as every knor
/// child's peak.
pub fn ensure(data: Data, n: usize, d: usize, seed: u64) -> io::Result<PathBuf> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir)?;
    let shape = format!("{}_{n}x{d}_s", data.stem());
    let path = dir.join(format!("{shape}{seed}.knor"));
    let want_len = HEADER_LEN + (n * d * 8) as u64;
    let reusable = read_header(&path).is_ok_and(|h| (h.nrow, h.ncol) == (n as u64, d as u64))
        && std::fs::metadata(&path).is_ok_and(|m| m.len() == want_len);
    if reusable {
        return Ok(path);
    }
    for entry in std::fs::read_dir(&dir)?.flatten() {
        if entry.file_name().to_str().is_some_and(|f| f.starts_with(&shape)) {
            std::fs::remove_file(entry.path())?;
        }
    }
    let tmp = dir.join(format!("{shape}{seed}.tmp"));
    let generated = std::process::Command::new(std::env::current_exe()?)
        .args(["--generate", data.stem(), &n.to_string(), &d.to_string(), &seed.to_string()])
        .arg(&tmp)
        .status()?;
    if !generated.success() {
        return Err(io::Error::other(format!("generating {} failed: {generated}", tmp.display())));
    }
    std::fs::rename(&tmp, &path)?;
    sync(&dir)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sqdist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn the_seed_moves_every_row_and_keeps_every_distance() {
        let base = Data::Clustered.generate(200, 8, 1);
        let moved = Data::Clustered.generate(200, 8, 2);
        assert_eq!(base, Data::Clustered.generate(200, 8, 1), "same seed, same input");
        assert!(base.rows().zip(moved.rows()).all(|(a, b)| a != b), "another seed, other bytes");
        for (i, j) in [(0, 1), (5, 150), (199, 3)] {
            let (a, b) = (sqdist(base.row(i), base.row(j)), sqdist(moved.row(i), moved.row(j)));
            assert!((a - b).abs() <= 1e-9 * a.max(1.0), "rows {i},{j}: {a} vs {b}");
        }
    }

    #[test]
    fn dense_rows_are_drawn_from_the_seed() {
        assert_eq!(Data::Dense.generate(50, 4, 7), Data::Dense.generate(50, 4, 7));
        assert_ne!(Data::Dense.generate(50, 4, 7), Data::Dense.generate(50, 4, 8));
    }
}

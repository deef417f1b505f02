//! Centroid initialization: random partition, Forgy, k-means++ and
//! user-provided seeds.

use crate::centroids::Centroids;
use crate::distance::sqdist;
use crate::stats::InitStats;
use knor_matrix::{DMatrix, Rows};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Barrier, Mutex, RwLock};
use std::time::Instant;

/// Initialization strategy for the first iteration's centroids.
#[derive(Debug, Clone, PartialEq)]
pub enum InitMethod {
    /// Assign every point to a random cluster and take the means
    /// (knor's `random` init).
    RandomPartition,
    /// Pick `k` distinct random rows as the initial centroids
    /// (knor's `forgy` init).
    Forgy,
    /// k-means++ D²-weighted seeding (knor's `kmeanspp` init).
    PlusPlus,
    /// Explicit `k x d` means supplied by the caller (knor's `none` init —
    /// used by every cross-module equivalence test in this repo).
    Given(DMatrix),
}

impl InitMethod {
    /// Parse a CLI spelling (`pp | forgy | random`; `kmeanspp` = `pp`).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "pp" | "kmeanspp" => InitMethod::PlusPlus,
            "forgy" => InitMethod::Forgy,
            "random" => InitMethod::RandomPartition,
            _ => return None,
        })
    }

    /// The CLI spelling; `None` for [`InitMethod::Given`], which no token
    /// can carry.
    pub fn name(&self) -> Option<&'static str> {
        match self {
            InitMethod::PlusPlus => Some("pp"),
            InitMethod::Forgy => Some("forgy"),
            InitMethod::RandomPartition => Some("random"),
            InitMethod::Given(_) => None,
        }
    }

    /// Compute initial centroids for `data` with `k` clusters.
    ///
    /// # Panics
    /// Panics if `k` is zero, `k > n`, or (for [`InitMethod::Given`]) the
    /// supplied matrix shape is not `k x d`.
    pub fn initialize<R: Rows>(&self, data: &R, k: usize, seed: u64) -> Centroids {
        self.initialize_parallel(data, k, seed, 1)
    }

    /// [`InitMethod::initialize`] with a worker budget: the k-means++ D²
    /// scan runs its per-chunk distance updates and partial sums on
    /// `threads` scoped threads. The chunk decomposition (and therefore
    /// every sum, comparison and pick) is **independent of `threads`**: any
    /// thread count produces the same centroids as the serial path, bit for
    /// bit. The other methods are O(n) single-pass and ignore `threads`.
    ///
    /// Each pass skips the rows the triangle inequality rules out: a row
    /// whose nearest chosen center lies at least twice its distance (with a
    /// rounding margin) from the new center cannot move, so it is not read.
    /// Every D² value, sum and pick is the full scan's.
    ///
    /// Note on cross-version reproducibility: the chunked D² arithmetic is
    /// the canonical definition. For `n <= 4096` (one chunk) it coincides
    /// exactly with the classic flat scan shipped before the
    /// parallelization; for larger `n` a seeded pick may differ from what
    /// pre-chunking versions produced (FP addition is non-associative),
    /// while remaining deterministic per seed forever after.
    ///
    /// `data` is any [`Rows`]: everything here walks it in global row
    /// order, so a placed layout yields the centroids its source matrix
    /// would.
    pub fn initialize_parallel<R: Rows>(
        &self,
        data: &R,
        k: usize,
        seed: u64,
        threads: usize,
    ) -> Centroids {
        self.initialize_with_stats(data, k, seed, threads).0
    }

    /// [`InitMethod::initialize_parallel`], and what the seeding did: its
    /// wall time and the row-to-center distances k-means++ evaluated.
    pub fn initialize_with_stats<R: Rows>(
        &self,
        data: &R,
        k: usize,
        seed: u64,
        threads: usize,
    ) -> (Centroids, InitStats) {
        let t0 = Instant::now();
        assert!(k >= 1, "k must be positive");
        assert!(k <= data.nrow(), "k = {k} exceeds n = {}", data.nrow());
        let d = data.ncol();
        let (c, dists) = match self {
            InitMethod::Given(m) => {
                assert_eq!((m.nrow(), m.ncol()), (k, d), "Given init has wrong shape");
                (Centroids::from_matrix(m), 0)
            }
            InitMethod::Forgy => {
                let mut c = Centroids::zeros(k, d);
                for (i, &r) in forgy_rows(data.nrow(), k, seed).iter().enumerate() {
                    c.means[i * d..(i + 1) * d].copy_from_slice(data.row(r));
                }
                (c, 0)
            }
            InitMethod::RandomPartition => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut sums = vec![0.0f64; k * d];
                let mut counts = vec![0u64; k];
                for row in data.rows_in(0..data.nrow()) {
                    let c = rng.gen_range(0..k);
                    for (s, x) in sums[c * d..(c + 1) * d].iter_mut().zip(row) {
                        *s += x;
                    }
                    counts[c] += 1;
                }
                let mut cents = Centroids::zeros(k, d);
                for c in 0..k {
                    if counts[c] == 0 {
                        // Degenerate (tiny n): fall back to a sample row.
                        let r = rng.gen_range(0..data.nrow());
                        cents.means[c * d..(c + 1) * d].copy_from_slice(data.row(r));
                    } else {
                        let inv = 1.0 / counts[c] as f64;
                        for j in 0..d {
                            cents.means[c * d + j] = sums[c * d + j] * inv;
                        }
                    }
                }
                (cents, 0)
            }
            InitMethod::PlusPlus => plus_plus(data, k, seed, threads.max(1)),
        };
        (c, InitStats { secs: t0.elapsed().as_secs_f64(), dists })
    }
}

/// The rows Forgy seeds from: `k` distinct uniform ids in `0..n`, drawn by
/// rejection. Every engine's Forgy — in memory or read from the device —
/// picks through here, so one seed names one set of rows everywhere. The
/// rejection loop is knors' original; seeded picks must never change.
pub fn forgy_rows(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k <= n, "k = {k} exceeds n = {n}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows: Vec<usize> = Vec::with_capacity(k);
    while rows.len() < k {
        let r = rng.gen_range(0..n);
        if !rows.contains(&r) {
            rows.push(r);
        }
    }
    rows
}

/// Rows per k-means++ scan chunk. The chunk grid is fixed — never derived
/// from the thread count — so chunk sums, the total, and every pick are
/// identical for any `threads`. (For `n <= PP_CHUNK` there is one chunk
/// and the arithmetic degenerates to the classic fully-serial scan.)
const PP_CHUNK: usize = 4096;

/// One chunk of the D² state: per row, the squared distance to the nearest
/// chosen center and that center's index among the chosen (`near`), plus
/// the chunk's in-order weight sum and the distances its last pass
/// evaluated.
struct PpChunk<'a> {
    dist2: &'a mut [f64],
    near: &'a mut [u32],
    sum: f64,
    evals: u64,
}

/// One D² pass: the `j`-th chosen center (data row `row`) and its squared
/// distance to each earlier center, a non-finite entry stored as NaN so no
/// row ever skips against it.
struct PpPass {
    row: usize,
    j: u32,
    cc2: Vec<f64>,
}

/// `4·(1 + κ)` with `κ = 8(d+4)·2⁻⁵³`: the factor by which the new center's
/// squared distance to a row's nearest chosen center must exceed the row's
/// D² for the rounded new distance to be provably no smaller than D²
/// (DESIGN.md, "Why the result is bitwise that of `fit`").
fn pp_margin(d: usize) -> f64 {
    4.0 * (1.0 + 8.0 * (d as f64 + 4.0) * (f64::EPSILON / 2.0))
}

/// A center-to-center squared distance as [`PpPass::cc2`] holds it: NaN
/// unless finite, so [`ruled_out`] never passes on it.
fn cc2_entry(cc: f64) -> f64 {
    if cc.is_finite() {
        cc
    } else {
        f64::NAN
    }
}

/// Whether a row at D² `cur` from its nearest chosen center, which lies
/// `cc` (a [`cc2_entry`]) from the new center, keeps `cur` without
/// evaluating the new distance: `cc ≥ margin·cur`. A NaN `cc` and a
/// non-finite `cur` never pass, and neither does a subnormal `cur`, whose
/// terms may have lost more than the margin to underflow. (`cur = 0`
/// passes whenever `cc` is finite: no distance is below it.)
#[inline]
fn ruled_out(cc: f64, cur: f64, margin: f64) -> bool {
    cc >= margin * cur && (cur >= f64::MIN_POSITIVE || cur == 0.0)
}

/// Update one chunk's D² against `pass`'s center (or fill it, on the first
/// pass) over the rows from `base`, walking the storage's runs; record the
/// chunk's weight sum, accumulated in index order, and the distances
/// evaluated. A row the triangle inequality rules out is not read.
fn pp_scan_chunk<R: Rows>(data: &R, base: usize, pass: &PpPass, margin: f64, ch: &mut PpChunk) {
    let (d, len) = (data.ncol(), ch.dist2.len());
    let center = data.row(pass.row);
    let (mut sum, mut evals) = (0.0, 0);
    let mut at = 0;
    while at < len {
        let run = data.run(base + at..base + len);
        let end = at + run.len() / d;
        let rows = run.chunks_exact(d);
        if pass.j == 0 {
            for (row, dv) in rows.zip(&mut ch.dist2[at..end]) {
                *dv = sqdist(row, center);
                sum += *dv;
            }
            evals += (end - at) as u64;
        } else {
            for ((row, dv), nr) in rows.zip(&mut ch.dist2[at..end]).zip(&mut ch.near[at..end]) {
                let cur = *dv;
                if !ruled_out(pass.cc2[*nr as usize], cur, margin) {
                    evals += 1;
                    let s = sqdist(row, center);
                    if s < cur {
                        *dv = s;
                        *nr = pass.j;
                    }
                }
                sum += *dv;
            }
        }
        at = end;
    }
    (ch.sum, ch.evals) = (sum, evals);
}

/// D²-weighted pick from chunk sums + per-row weights: locate the chunk by
/// whole-chunk sums, then scan row-wise inside it. The selection never
/// depends on the parallel split, only on the fixed chunk grid.
fn pp_pick(n: usize, target0: f64, chunks: &[Mutex<PpChunk<'_>>]) -> usize {
    let mut target = target0;
    for (ci, ch) in chunks.iter().enumerate() {
        let ch = ch.lock().expect("chunk lock");
        if target - ch.sum <= 0.0 {
            for (i, &w) in ch.dist2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    return ci * PP_CHUNK + i;
                }
            }
            return ci * PP_CHUNK + ch.dist2.len() - 1;
        }
        target -= ch.sum;
    }
    n - 1
}

/// The D² scan over the canonical chunk grid, and the row-to-center
/// distances it evaluated. At `threads > 1` one set of workers lives for
/// the whole run (the driver's barrier discipline, not a spawn per pick —
/// `k` picks × `T` spawn/join cycles would dwarf the scan at large `k`):
/// chunks are round-robined by index onto workers, each chunk behind its
/// own uncontended lock, so the arithmetic — and every pick — is that of
/// the one-thread scan, which the caller's thread runs itself.
fn plus_plus<R: Rows>(data: &R, k: usize, seed: u64, threads: usize) -> (Centroids, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = data.nrow();
    let d = data.ncol();
    let nchunks = n.div_ceil(PP_CHUNK);
    let nthreads = threads.min(nchunks).max(1);
    let margin = pp_margin(d);
    let mut c = Centroids::zeros(k, d);
    let first = rng.gen_range(0..n);
    c.means[0..d].copy_from_slice(data.row(first));

    // One allocation each, so the 12 bytes a row are handed back whole
    // before the fit allocates.
    let (mut dist2, mut near) = (vec![0.0; n], vec![0u32; n]);
    let chunks: Vec<Mutex<PpChunk>> = dist2
        .chunks_mut(PP_CHUNK)
        .zip(near.chunks_mut(PP_CHUNK))
        .map(|(dist2, near)| Mutex::new(PpChunk { dist2, near, sum: 0.0, evals: 0 }))
        .collect();
    // The pass the workers scan next; `None` sends them home.
    let pass = RwLock::new(Some(PpPass { row: first, j: 0, cc2: Vec::with_capacity(k) }));
    // Workers + the coordinating caller.
    let barrier = Barrier::new(nthreads + 1);
    let scan = |t: usize, pass: &PpPass| {
        for ci in (t..nchunks).step_by(nthreads) {
            let mut ch = chunks[ci].lock().expect("chunk lock");
            pp_scan_chunk(data, ci * PP_CHUNK, pass, margin, &mut ch);
        }
    };

    let mut dists = 0u64;
    std::thread::scope(|s| {
        if nthreads > 1 {
            for t in 0..nthreads {
                let (pass, barrier, scan) = (&pass, &barrier, &scan);
                s.spawn(move || loop {
                    barrier.wait(); // A — pass published by the coordinator
                    match pass.read().expect("pass lock").as_ref() {
                        Some(p) => scan(t, p),
                        None => break,
                    }
                    barrier.wait(); // B — scan complete
                });
            }
        }
        for chosen in 1..k {
            if nthreads > 1 {
                barrier.wait(); // A — release the scan for the current center
                barrier.wait(); // B — every chunk final
            } else {
                scan(0, pass.read().expect("pass lock").as_ref().expect("a pass"));
            }
            let sums: Vec<f64> = chunks
                .iter()
                .map(|ch| {
                    let ch = ch.lock().expect("chunk lock");
                    dists += ch.evals;
                    ch.sum
                })
                .collect();
            let total: f64 = sums.iter().sum();
            let next = if total <= 0.0 {
                rng.gen_range(0..n) // all points coincide with a center
            } else {
                pp_pick(n, rng.gen::<f64>() * total, &chunks)
            };
            c.means[chosen * d..(chosen + 1) * d].copy_from_slice(data.row(next));
            let mut p = pass.write().expect("pass lock");
            let p = p.as_mut().expect("a pass");
            let cv = &c.means[chosen * d..(chosen + 1) * d];
            p.cc2.clear();
            p.cc2.extend(c.means[..chosen * d].chunks_exact(d).map(|cj| cc2_entry(sqdist(cv, cj))));
            (p.row, p.j) = (next, chosen as u32);
        }
        *pass.write().expect("pass lock") = None;
        if nthreads > 1 {
            barrier.wait(); // final A — workers observe the end and exit
        }
    });
    (c, dists)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DMatrix {
        DMatrix::from_vec(
            vec![0.0, 0.0, 0.1, 0.1, 10.0, 10.0, 10.1, 9.9, -10.0, 0.0, -10.1, 0.1],
            6,
            2,
        )
    }

    #[test]
    fn forgy_picks_distinct_rows() {
        let data = toy();
        let c = InitMethod::Forgy.initialize(&data, 3, 7);
        // Every centroid equals some data row.
        for i in 0..3 {
            assert!((0..6).any(|r| data.row(r) == c.mean(i)));
        }
        // Distinct.
        assert!(c.mean(0) != c.mean(1) && c.mean(1) != c.mean(2) && c.mean(0) != c.mean(2));
    }

    #[test]
    fn plus_plus_spreads_centers() {
        let data = toy();
        let c = InitMethod::PlusPlus.initialize(&data, 3, 3);
        // Centers must come from different natural blobs with overwhelming
        // probability: pairwise distances all large.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(sqdist(c.mean(i), c.mean(j)) > 1.0, "centers {i},{j} too close");
            }
        }
    }

    #[test]
    fn random_partition_centroids_near_global_mean() {
        let data = toy();
        let c = InitMethod::RandomPartition.initialize(&data, 2, 11);
        assert_eq!(c.k(), 2);
        for i in 0..2 {
            assert!(c.mean(i).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn given_passes_through() {
        let data = toy();
        let m = DMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let c = InitMethod::Given(m.clone()).initialize(&data, 2, 0);
        assert_eq!(c.to_matrix(), m);
    }

    #[test]
    #[should_panic]
    fn given_shape_checked() {
        let data = toy();
        let m = DMatrix::from_vec(vec![1.0, 2.0], 1, 2);
        let _ = InitMethod::Given(m).initialize(&data, 2, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = toy();
        for m in [InitMethod::Forgy, InitMethod::PlusPlus, InitMethod::RandomPartition] {
            let a = m.initialize(&data, 3, 5);
            let b = m.initialize(&data, 3, 5);
            assert_eq!(a.means, b.means, "{m:?} not deterministic");
        }
    }

    /// Today's k-means++ without the skip: every pass evaluates every
    /// row's distance to the new center, serially, over the same chunk
    /// grid. The pruned scan must reproduce its centroids bit for bit.
    fn plus_plus_oracle<R: Rows>(data: &R, k: usize, seed: u64) -> Centroids {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = data.nrow();
        let d = data.ncol();
        let nchunks = n.div_ceil(PP_CHUNK);
        let mut c = Centroids::zeros(k, d);
        let first = rng.gen_range(0..n);
        c.means[0..d].copy_from_slice(data.row(first));
        let mut dist2 = vec![0.0f64; n];
        let mut chunk_sums = vec![0.0f64; nchunks];
        let mut center = first;
        let mut fill = true;
        for chosen in 1..k {
            for (ci, (dpart, sum)) in
                dist2.chunks_mut(PP_CHUNK).zip(chunk_sums.iter_mut()).enumerate()
            {
                let base = ci * PP_CHUNK;
                *sum = 0.0;
                for (row, dv) in data.rows_in(base..base + dpart.len()).zip(dpart.iter_mut()) {
                    let s = sqdist(row, data.row(center));
                    if fill || s < *dv {
                        *dv = s;
                    }
                    *sum += *dv;
                }
            }
            fill = false;
            let total: f64 = chunk_sums.iter().sum();
            let next = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut pick = n - 1;
                for (ci, &cs) in chunk_sums.iter().enumerate() {
                    if target - cs <= 0.0 {
                        let (start, end) = (ci * PP_CHUNK, ((ci + 1) * PP_CHUNK).min(n));
                        pick = end - 1;
                        for (i, &w) in dist2.iter().enumerate().take(end).skip(start) {
                            target -= w;
                            if target <= 0.0 {
                                pick = i;
                                break;
                            }
                        }
                        break;
                    }
                    target -= cs;
                }
                pick
            };
            c.means[chosen * d..(chosen + 1) * d].copy_from_slice(data.row(next));
            center = next;
        }
        c
    }

    /// The seeding's centroids and evaluated distances at `threads`.
    fn seeded(data: &DMatrix, k: usize, seed: u64, threads: usize) -> (Vec<f64>, u64) {
        let (c, s) = InitMethod::PlusPlus.initialize_with_stats(data, k, seed, threads);
        (c.means, s.dists)
    }

    /// Bitwise equality that also holds for NaN entries.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn plusplus_parallel_picks_identical_to_serial() {
        // Spans multiple PP_CHUNK chunks so the parallel fan-out is real;
        // every thread count must reproduce the serial scan's picks
        // bit for bit (the chunk grid never depends on the thread count).
        // The uniform input prunes almost nothing; the grid's separated
        // clusters make most rows skip, so the skip is exercised too.
        let n = 3 * PP_CHUNK + 517;
        let uniform = knor_workloads::uniform_matrix(n, 6, 77);
        let (grid, _) = knor_workloads::grid_clusters(n, 3, 16);
        for data in [&uniform, &grid] {
            for k in [2usize, 7, 16] {
                for seed in [0u64, 9, 123] {
                    let (serial, dists) = seeded(data, k, seed, 1);
                    assert_eq!(serial, plus_plus_oracle(data, k, seed).means);
                    for threads in [2usize, 3, 8] {
                        assert_eq!(
                            seeded(data, k, seed, threads),
                            (serial.clone(), dists),
                            "k={k} seed={seed} threads={threads}: picks diverged"
                        );
                    }
                }
            }
        }
        assert!(seeded(&grid, 16, 0, 1).1 < (n * 15) as u64, "nothing pruned on the grid");
    }

    #[test]
    fn plusplus_skips_most_distances_on_separated_clusters() {
        // Rows sit near their own natural cluster's centers, so once a
        // cluster holds a center, a new center elsewhere is more than twice
        // as far from it as its rows are: the pass does not read them.
        let (n, k) = (20_000usize, 32usize);
        let (data, _) = knor_workloads::grid_clusters(n, 3, k);
        let full = (n * (k - 1)) as u64;
        let (cents, dists) = seeded(&data, k, 5, 1);
        assert!(2 * dists < full, "evaluated {dists} of {full}");
        assert_eq!(cents, plus_plus_oracle(&data, k, 5).means);
        for threads in [2, 3, 8] {
            assert_eq!(seeded(&data, k, 5, threads).1, dists, "threads={threads}");
        }
    }

    #[test]
    fn a_subnormal_d2_is_never_skipped() {
        // d = 1: the first center at 0, a row at 1.2·2⁻⁵³⁷ (D² rounds down
        // to one subnormal ulp, 2⁻¹⁰⁷⁴) and a new center at 1.88·2⁻⁵³⁷
        // (its squared distance to the first rounds up to 4 ulp, which
        // passes the margin test). The exact new distance is 0.46 ulp and
        // rounds to 0 < D²: the row must move, so it must be evaluated.
        let u = 2f64.powi(-537);
        let data = DMatrix::from_vec(vec![0.0, 1.2 * u, 1.88 * u], 3, 1);
        let (mut dist2, mut near) = ([0.0; 3], [0; 3]);
        let mut ch = PpChunk { dist2: &mut dist2, near: &mut near, sum: 0.0, evals: 0 };
        let margin = pp_margin(1);
        pp_scan_chunk(&data, 0, &PpPass { row: 0, j: 0, cc2: vec![] }, margin, &mut ch);
        assert_eq!(ch.dist2[1], f64::from_bits(1), "D² is one subnormal ulp");
        let cc2 = vec![cc2_entry(sqdist(data.row(2), data.row(0)))];
        assert!(cc2[0] >= margin * ch.dist2[1], "the margin test alone would skip the row");
        pp_scan_chunk(&data, 0, &PpPass { row: 2, j: 1, cc2 }, margin, &mut ch);
        assert_eq!(ch.dist2[1], 0.0);
        assert_eq!(ch.near[1], 1);
        assert_eq!(ch.evals, 2, "the row at the first center (D² = 0) skips");
    }

    #[test]
    fn non_finite_values_never_pass_the_skip_test() {
        let m = pp_margin(3);
        let pass = |cc: f64, cur: f64| ruled_out(cc2_entry(cc), cur, m);
        assert!(pass(4.5, 1.0) && pass(0.0, 0.0) && pass(7.0, 0.0));
        assert!(!pass(4.0, 1.0), "no margin left for rounding");
        for (cc, cur) in [
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (f64::INFINITY, f64::INFINITY),
            (f64::MAX, f64::INFINITY),
            (5.0, f64::NAN),
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
        ] {
            assert!(!pass(cc, cur), "cc={cc} D²={cur}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn pruned_seeding_is_the_full_scan(
            shape in (0usize..7, 0usize..3, 0usize..3),
            input in (0usize..4, 0usize..3, 0u64..1_000_000),
        ) {
            // n straddles the chunk grid; k = n only where n·k stays small.
            let (ni, di, ki) = shape;
            let n = [1, 5, 300, PP_CHUNK - 1, PP_CHUNK, PP_CHUNK + 1, 2 * PP_CHUNK + 3][ni];
            let d = [1, 3, 32][di];
            let k = [1, 2, if n <= 300 { n } else { 9 }][ki].min(n);
            let (kind, mag, seed) = input;
            let scale = [1e-150, 1.0, 1e150][mag];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let centers: Vec<f64> = (0..6 * d).map(|_| rng.gen_range(-50.0..50.0)).collect();
            let mut v: Vec<f64> = (0..n * d)
                .map(|i| {
                    let c = (i / d) % 6;
                    match kind {
                        1 => centers[i % d], // every row the same
                        _ => centers[c * d + i % d] + rng.gen_range(-0.5..0.5),
                    }
                })
                .map(|x| x * scale)
                .collect();
            if kind == 2 {
                // NaN and ±inf coordinates in a few rows.
                for (r, x) in [(0usize, f64::NAN), (n / 2, f64::INFINITY), (n - 1, f64::NEG_INFINITY)] {
                    v[r * d + rng.gen_range(0..d)] = x;
                }
            }
            if kind == 3 {
                // Clusters far apart at every scale: an extra offset per cluster.
                for (i, x) in v.iter_mut().enumerate() {
                    *x += ((i / d) % 6) as f64 * 1e3 * scale;
                }
            }
            let data = DMatrix::from_vec(v, n, d);
            let oracle = bits(&plus_plus_oracle(&data, k, seed).means);
            let (serial, dists) = seeded(&data, k, seed, 1);
            assert_eq!(bits(&serial), oracle, "n={n} d={d} k={k} kind={kind}");
            assert!(dists <= (n * (k - 1)) as u64);
            for threads in [2usize, 3, 8] {
                let (par, pd) = seeded(&data, k, seed, threads);
                assert_eq!((bits(&par), pd), (oracle.clone(), dists), "threads={threads}");
            }
        }
    }

    #[test]
    fn plusplus_single_chunk_matches_legacy_scan() {
        // For n <= PP_CHUNK the chunked selection degenerates to the
        // classic fully-serial D² scan — verified against an inline
        // replica of the pre-parallel implementation.
        let data = knor_workloads::uniform_matrix(800, 5, 31);
        let (n, d, k, seed) = (800usize, 5usize, 6usize, 4u64);
        let legacy = {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut c = Centroids::zeros(k, d);
            let first = rng.gen_range(0..n);
            c.means[0..d].copy_from_slice(data.row(first));
            let mut dist2: Vec<f64> =
                (0..n).map(|i| sqdist(data.row(i), data.row(first))).collect();
            for chosen in 1..k {
                let total: f64 = dist2.iter().sum();
                let next = if total <= 0.0 {
                    rng.gen_range(0..n)
                } else {
                    let mut target = rng.gen::<f64>() * total;
                    let mut pick = n - 1;
                    for (i, &w) in dist2.iter().enumerate() {
                        target -= w;
                        if target <= 0.0 {
                            pick = i;
                            break;
                        }
                    }
                    pick
                };
                c.means[chosen * d..(chosen + 1) * d].copy_from_slice(data.row(next));
                if chosen + 1 < k {
                    for (i, cur) in dist2.iter_mut().enumerate() {
                        let s = sqdist(data.row(i), data.row(next));
                        if s < *cur {
                            *cur = s;
                        }
                    }
                }
            }
            c
        };
        let now = InitMethod::PlusPlus.initialize(&data, k, seed);
        assert_eq!(legacy.means, now.means);
    }

    #[test]
    fn forgy_rows_are_distinct_and_in_range() {
        for seed in 0..50 {
            let s = forgy_rows(20, 10, seed);
            let mut t = s.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 10);
            assert!(t.iter().all(|&x| x < 20));
        }
    }
}

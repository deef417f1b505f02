//! Centroid initialization: random partition, Forgy, k-means++ and
//! user-provided seeds.

use crate::centroids::Centroids;
use crate::distance::sqdist;
use knor_matrix::{DMatrix, Rows};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
    /// scan — serial `O(nk)` and the startup bottleneck at large `n` —
    /// runs its per-chunk distance updates and partial sums on `threads`
    /// scoped threads. The chunk decomposition (and therefore every sum,
    /// comparison and pick) is **independent of `threads`**: any thread
    /// count produces the same centroids as the serial path, bit for bit.
    /// The other methods are O(n) single-pass and ignore `threads`.
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
        assert!(k >= 1, "k must be positive");
        assert!(k <= data.nrow(), "k = {k} exceeds n = {}", data.nrow());
        let d = data.ncol();
        match self {
            InitMethod::Given(m) => {
                assert_eq!((m.nrow(), m.ncol()), (k, d), "Given init has wrong shape");
                Centroids::from_matrix(m)
            }
            InitMethod::Forgy => {
                let mut c = Centroids::zeros(k, d);
                for (i, &r) in forgy_rows(data.nrow(), k, seed).iter().enumerate() {
                    c.means[i * d..(i + 1) * d].copy_from_slice(data.row(r));
                }
                c
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
                cents
            }
            InitMethod::PlusPlus => plus_plus(data, k, seed, threads.max(1)),
        }
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

/// Update `dist2` for one chunk against a freshly chosen center (or fill
/// it, on the first pass) and return the chunk's weight sum, accumulated
/// in index order.
fn pp_scan_chunk<R: Rows>(
    data: &R,
    center: &[f64],
    base: usize,
    dpart: &mut [f64],
    fill: bool,
) -> f64 {
    let mut sum = 0.0;
    for (row, dv) in data.rows_in(base..base + dpart.len()).zip(dpart.iter_mut()) {
        let s = sqdist(row, center);
        if fill || s < *dv {
            *dv = s;
        }
        sum += *dv;
    }
    sum
}

/// D²-weighted pick from chunk sums + per-element weights: locate the
/// chunk by whole-chunk sums, then scan element-wise inside it. The
/// selection never depends on the parallel split, only on the fixed chunk
/// grid. `dist2_at`/`chunk_sum_at` abstract the storage (plain slices on
/// the serial path, barrier-ordered shared buffers on the pooled path).
fn pp_pick(
    n: usize,
    nchunks: usize,
    target0: f64,
    dist2_at: impl Fn(usize) -> f64,
    chunk_sum_at: impl Fn(usize) -> f64,
) -> usize {
    let mut target = target0;
    let mut pick = n - 1;
    for ci in 0..nchunks {
        let cs = chunk_sum_at(ci);
        if target - cs <= 0.0 {
            let start = ci * PP_CHUNK;
            let end = (start + PP_CHUNK).min(n);
            pick = end - 1;
            for i in start..end {
                target -= dist2_at(i);
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
}

fn plus_plus<R: Rows>(data: &R, k: usize, seed: u64, threads: usize) -> Centroids {
    let n = data.nrow();
    let nchunks = n.div_ceil(PP_CHUNK);
    let nthreads = threads.min(nchunks).max(1);
    if nthreads <= 1 {
        plus_plus_serial(data, k, seed)
    } else {
        plus_plus_pooled(data, k, seed, nthreads)
    }
}

/// The serial D² scan over the canonical chunk grid.
fn plus_plus_serial<R: Rows>(data: &R, k: usize, seed: u64) -> Centroids {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = data.nrow();
    let d = data.ncol();
    let nchunks = n.div_ceil(PP_CHUNK);
    let mut c = Centroids::zeros(k, d);
    let first = rng.gen_range(0..n);
    c.means[0..d].copy_from_slice(data.row(first));

    // dist2[i] = squared distance of row i to its nearest chosen center;
    // chunk_sums[ci] = in-order sum of dist2 over chunk ci.
    let mut dist2 = vec![0.0f64; n];
    let mut chunk_sums = vec![0.0f64; nchunks];
    let mut center = first;
    let mut fill = true;
    for chosen in 1..k {
        for (ci, (dpart, sum)) in dist2.chunks_mut(PP_CHUNK).zip(chunk_sums.iter_mut()).enumerate()
        {
            *sum = pp_scan_chunk(data, data.row(center), ci * PP_CHUNK, dpart, fill);
        }
        fill = false;
        let total: f64 = chunk_sums.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n) // all points coincide with a center
        } else {
            let t0 = rng.gen::<f64>() * total;
            pp_pick(n, nchunks, t0, |i| dist2[i], |ci| chunk_sums[ci])
        };
        c.means[chosen * d..(chosen + 1) * d].copy_from_slice(data.row(next));
        center = next;
    }
    c
}

/// The pooled D² scan: one set of workers lives for the whole run (the
/// driver's barrier discipline, not a spawn per pick — `k` picks × `T`
/// spawn/join cycles would dwarf the scan at large `k`). Chunks are
/// round-robined by index onto workers; writes go to disjoint,
/// barrier-ordered slots of shared buffers, so the arithmetic — and every
/// pick — is identical to the serial path.
fn plus_plus_pooled<R: Rows>(data: &R, k: usize, seed: u64, nthreads: usize) -> Centroids {
    use knor_matrix::shared::SharedRows;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = data.nrow();
    let d = data.ncol();
    let nchunks = n.div_ceil(PP_CHUNK);
    let mut c = Centroids::zeros(k, d);
    let first = rng.gen_range(0..n);
    c.means[0..d].copy_from_slice(data.row(first));

    let dist2: SharedRows<f64> = SharedRows::new(n, 0.0);
    let chunk_sums: SharedRows<f64> = SharedRows::new(nchunks, 0.0);
    let center = AtomicUsize::new(first);
    let fill = AtomicBool::new(true);
    let stop = AtomicBool::new(false);
    // Workers + the coordinating caller.
    let barrier = Barrier::new(nthreads + 1);

    std::thread::scope(|s| {
        for t in 0..nthreads {
            let (dist2, chunk_sums) = (&dist2, &chunk_sums);
            let (center, fill, stop, barrier) = (&center, &fill, &stop, &barrier);
            s.spawn(move || loop {
                barrier.wait(); // A — round published by the coordinator
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let cv = data.row(center.load(Ordering::Acquire));
                let filling = fill.load(Ordering::Acquire);
                let mut ci = t;
                while ci < nchunks {
                    let base = ci * PP_CHUNK;
                    let end = (base + PP_CHUNK).min(n);
                    let mut sum = 0.0;
                    for (i, row) in (base..end).zip(data.rows_in(base..end)) {
                        let sq = sqdist(row, cv);
                        // Safety: chunk `ci` is owned by worker `ci %
                        // nthreads` for this round; barriers A/B order the
                        // writes against the coordinator's reads.
                        let dv = unsafe { dist2.get_mut(i) };
                        if filling || sq < *dv {
                            *dv = sq;
                        }
                        sum += *dv;
                    }
                    unsafe { *chunk_sums.get_mut(ci) = sum };
                    ci += nthreads;
                }
                barrier.wait(); // B — scan complete
            });
        }

        for chosen in 1..k {
            barrier.wait(); // A — release the scan for the current center
            barrier.wait(); // B — all chunk slots final
            fill.store(false, Ordering::Release);
            // Safety (all reads below): workers idle at barrier A.
            let total: f64 = (0..nchunks).map(|ci| unsafe { *chunk_sums.get(ci) }).sum();
            let next = if total <= 0.0 {
                rng.gen_range(0..n) // all points coincide with a center
            } else {
                let t0 = rng.gen::<f64>() * total;
                pp_pick(
                    n,
                    nchunks,
                    t0,
                    |i| unsafe { *dist2.get(i) },
                    |ci| unsafe { *chunk_sums.get(ci) },
                )
            };
            c.means[chosen * d..(chosen + 1) * d].copy_from_slice(data.row(next));
            center.store(next, Ordering::Release);
        }
        stop.store(true, Ordering::Release);
        barrier.wait(); // final A — workers observe stop and exit
    });
    c
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

    #[test]
    fn plusplus_parallel_picks_identical_to_serial() {
        // Spans multiple PP_CHUNK chunks so the parallel fan-out is real;
        // every thread count must reproduce the serial scan's picks
        // bit for bit (the chunk grid never depends on the thread count).
        let data = knor_workloads::uniform_matrix(3 * PP_CHUNK + 517, 6, 77);
        for k in [2usize, 7, 16] {
            for seed in [0u64, 9, 123] {
                let serial = InitMethod::PlusPlus.initialize_parallel(&data, k, seed, 1);
                for threads in [2usize, 3, 8] {
                    let par = InitMethod::PlusPlus.initialize_parallel(&data, k, seed, threads);
                    assert_eq!(
                        serial.means, par.means,
                        "k={k} seed={seed} threads={threads}: picks diverged"
                    );
                }
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

//! The blocked assignment kernel layer.
//!
//! Every engine's compute super-phase bottoms out in the same operation:
//! "assign a batch of rows to their nearest centroids". The per-row
//! [`crate::distance::nearest`] scan re-streams the whole `k x d` centroid
//! matrix from memory for every row and exposes only one row's worth of
//! instruction-level parallelism. This module replaces it, for full-scan
//! iterations, with a row-tile × centroid-tile kernel:
//!
//! * rows are staged in blocks that fit alongside a centroid tile in L1/L2,
//! * the inner micro-kernel evaluates **four rows against two centroids**
//!   at a time, amortizing every centroid load 4× and every row load 2×,
//!   with eight independent accumulator vectors hiding the FP latency,
//! * each `(row, centroid)` pair still performs *exactly* the arithmetic of
//!   [`crate::distance::sqdist`] (same chunking, same summation order) and
//!   candidates are compared in ascending index order with a strict `<`, so
//!   the tiled kernel is **bitwise identical** to the scalar scan — and
//!   therefore to `serial.rs`.
//!
//! An opt-in norm-trick path computes `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²`
//! from cached centroid norms (maintained incrementally by the driver: only
//! centroids with non-zero drift are re-normed). Dot products cost half the
//! arithmetic of difference-squares, but the cancellation re-orders floating
//! point, so this path is only *approximately* equal to the reference
//! (≤ 1e-9 relative on distances, see DESIGN.md §7) and is never used where
//! MTI bound invariants require exact upper bounds.
//!
//! The GEMM path's cache-resident operand is not a row tile but the
//! centroid matrix itself, transposed and padded ([`CentroidPanel`]). The
//! caller packs it — [`crate::plane::drain`] once per worker per compute
//! super-phase, [`assign_rows`] once per call — and every block of that
//! phase streams past the same panel through [`assign_rows_packed`].
//!
//! MTI iterations (`iter > 0` with pruning on) do not come through here:
//! each row carries its own bound, the bound leaves three of `k`
//! candidates open on average, and a full scan of the surviving rows costs
//! more than the clause machine does (measured, DESIGN.md §7). Their
//! candidate scan is the bitmask walk in [`crate::pruning::mti_assign`].

use crate::centroids::Centroids;
use crate::distance::{nearest, sqdist};

/// Which assignment kernel a run requests (the `DriverConfig` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// Pick per shape: scalar for tiny `k·d`, GEMM for large unpruned
    /// shapes, tiled otherwise.
    #[default]
    Auto,
    /// The per-row `nearest` scan (the pre-kernel behaviour).
    Scalar,
    /// Row-tile × centroid-tile blocked scan; bitwise equal to `Scalar`.
    Tiled,
    /// The tiled scan with FMA/AVX2 micro-kernels. Fused rounding differs
    /// from the reference, so this path carries a ≤ 1e-9 parity band and
    /// downgrades to `Tiled` while MTI needs exact bounds.
    Fma,
    /// `‖x‖² − 2x·c + ‖c‖²` with cached centroid norms; only
    /// approximately equal (and ignored while MTI needs exact bounds).
    NormTrick,
    /// The norm-trick assignment restructured as a blocked GEMM
    /// (`−2XCᵀ` by k-panel × row-panel × d-block, FMA where available);
    /// same ≤ 1e-9 band and MTI downgrade as `NormTrick`.
    Gemm,
}

impl KernelKind {
    /// Parse a CLI spelling (`--kernel …`).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "auto" => KernelKind::Auto,
            "scalar" => KernelKind::Scalar,
            "tiled" => KernelKind::Tiled,
            "fma" => KernelKind::Fma,
            "norm" | "normtrick" => KernelKind::NormTrick,
            "gemm" => KernelKind::Gemm,
            _ => return None,
        })
    }

    /// The CLI spelling of this knob.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::Scalar => "scalar",
            KernelKind::Tiled => "tiled",
            KernelKind::Fma => "fma",
            KernelKind::NormTrick => "norm",
            KernelKind::Gemm => "gemm",
        }
    }
}

/// The kernel actually selected for a run, after the heuristic resolved
/// `Auto` and legality downgraded the approximate paths where bounds must
/// be exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedKind {
    /// Per-row scans.
    Scalar,
    /// Blocked, bitwise-exact scans.
    Tiled,
    /// Blocked scans with FMA micro-kernels (≤ 1e-9 band).
    Fma,
    /// Blocked dot-product scans with cached norms.
    NormTrick,
    /// Blocked-GEMM dot-product scans with cached norms (≤ 1e-9 band).
    Gemm,
}

impl ResolvedKind {
    /// Stable short name (tune-table serialization, `--stats`).
    pub fn name(self) -> &'static str {
        match self {
            ResolvedKind::Scalar => "scalar",
            ResolvedKind::Tiled => "tiled",
            ResolvedKind::Fma => "fma",
            ResolvedKind::NormTrick => "norm",
            ResolvedKind::Gemm => "gemm",
        }
    }

    /// Inverse of [`ResolvedKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "scalar" => ResolvedKind::Scalar,
            "tiled" => ResolvedKind::Tiled,
            "fma" => ResolvedKind::Fma,
            "norm" => ResolvedKind::NormTrick,
            "gemm" => ResolvedKind::Gemm,
            _ => return None,
        })
    }

    /// Whether this path needs the cached centroid squared norms.
    pub fn needs_cnorms(self) -> bool {
        matches!(self, ResolvedKind::NormTrick | ResolvedKind::Gemm)
    }
}

/// A resolved kernel selection: the path plus the tile shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedKernel {
    /// Which code path full scans take.
    pub kind: ResolvedKind,
    /// Rows staged per block.
    pub row_tile: usize,
    /// Centroids per inner tile (kept hot while a row block is scanned).
    pub cent_tile: usize,
}

impl ResolvedKernel {
    /// Replace the heuristic tile shape with a tuned choice, clamped to
    /// legal bounds (`k` caps the centroid tile).
    pub fn with_tiles(mut self, row_tile: usize, cent_tile: usize, k: usize) -> Self {
        self.row_tile = row_tile.clamp(4, 4096);
        self.cent_tile = cent_tile.clamp(1, k.max(1));
        self
    }

    /// Rows a direct row source hands the kernel per call: as many whole
    /// row tiles as fit [`L2_BLOCK_BYTES`], so the pass over the block
    /// that follows the kernel call (accumulate, store the assignment)
    /// finds its rows still in cache. A row's result does not depend on
    /// the blocking.
    pub fn block_rows(&self, d: usize) -> usize {
        let tiles = L2_BLOCK_BYTES / (d.max(1) * 8) / self.row_tile.max(1);
        tiles.max(1) * self.row_tile.max(1)
    }
}

/// Below this many multiply-adds per row (`k·d`), staging a tile costs more
/// than it saves and `Auto` falls back to the scalar path.
pub const SCALAR_CUTOFF: usize = 64;

/// At and above this many multiply-adds per row (`k·d`), the blocked-GEMM
/// norm-trick path wins over the exact tiled scan and `Auto` selects it —
/// but only where the ≤ 1e-9 band is legal (no MTI bounds in play).
pub const GEMM_CUTOFF: usize = 2048;

/// L1 budget (bytes) each of the centroid tile and the row tile should fit
/// in — half a typical 32 KB L1d apiece.
const TILE_BYTES: usize = 16 * 1024;

/// L2 budget (bytes) for one block of rows: the share the GEMM d-block
/// already counts on staying L2-resident (a 64-centroid × [`GEMM_DBLOCK`]
/// panel slice), a quarter of the smallest L2 the engines meet.
const L2_BLOCK_BYTES: usize = GEMM_DBLOCK * 64 * 8;

impl KernelKind {
    /// Resolve the requested kernel for a `(k, d)` problem. `pruning`
    /// downgrades the approximate paths (`Fma`, `NormTrick`, `Gemm`) to
    /// `Tiled`: the MTI clauses compare *upper bounds* against exact
    /// thresholds, and a fused or norm-trick distance can land a hair
    /// below the true distance, silently invalidating Clause 1.
    pub fn resolve(self, k: usize, d: usize, pruning: bool) -> ResolvedKernel {
        let row_bytes = (d.max(1)) * 8;
        let row_tile = (TILE_BYTES / row_bytes).clamp(8, 128);
        let cent_tile = (TILE_BYTES / row_bytes).max(4).min(k.max(1));
        let exact_or = |kind| if pruning { ResolvedKind::Tiled } else { kind };
        let kind = match self {
            KernelKind::Scalar => ResolvedKind::Scalar,
            KernelKind::Tiled => ResolvedKind::Tiled,
            KernelKind::Fma => exact_or(ResolvedKind::Fma),
            KernelKind::NormTrick => exact_or(ResolvedKind::NormTrick),
            KernelKind::Gemm => exact_or(ResolvedKind::Gemm),
            KernelKind::Auto => {
                if k * d <= SCALAR_CUTOFF {
                    ResolvedKind::Scalar
                } else if !pruning && k * d >= GEMM_CUTOFF {
                    ResolvedKind::Gemm
                } else {
                    ResolvedKind::Tiled
                }
            }
        };
        ResolvedKernel { kind, row_tile, cent_tile }
    }
}

/// `‖c‖²` for every centroid, into `out` (the norm-trick cache).
pub fn centroid_sqnorms(cents: &Centroids, out: &mut [f64]) {
    debug_assert_eq!(out.len(), cents.k());
    for (c, o) in out.iter_mut().enumerate() {
        *o = sqnorm(cents.mean(c));
    }
}

/// `‖v‖²` with the same chunked arithmetic as [`sqdist`] against zero.
#[inline]
pub fn sqnorm(v: &[f64]) -> f64 {
    let mut chunks = v.chunks_exact(4);
    let mut acc = [0.0f64; 4];
    for ch in chunks.by_ref() {
        for i in 0..4 {
            acc[i] += ch[i] * ch[i];
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for x in chunks.remainder() {
        sum += x * x;
    }
    sum
}

/// The GEMM path's packed operand: the centroid matrix transposed to
/// `d × kp` (`k` rounded up to the micro-kernel's lane count, pad columns
/// zero) so that for a fixed dimension the values of consecutive centroids
/// sit in contiguous vector lanes, plus the `‖c‖²` vector padded with `+∞`
/// (a pad column can never win a strict-`<` race).
///
/// A panel is a function of the centroids alone, so one [`Self::pack`]
/// serves every row block scanned against those centroids
/// ([`assign_rows_packed`]). Grow-only: re-packing for the same shape never
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct CentroidPanel {
    packed: Vec<f64>,
    cnorms: Vec<f64>,
    k: usize,
    d: usize,
    kp: usize,
    /// [`Self::stamp_of`] the operands of the last pack.
    stamp: u64,
}

impl CentroidPanel {
    /// Pack `cents` and their squared norms `cnorms` (`len k`), replacing
    /// whatever the panel held.
    pub fn pack(&mut self, cents: &Centroids, cnorms: &[f64]) {
        let (k, d) = (cents.k(), cents.d);
        debug_assert_eq!(cnorms.len(), k);
        let lanes = panel_lanes();
        let kp = k.div_ceil(lanes) * lanes;
        // Every slot in use is overwritten below — real columns by the
        // transpose, pad columns explicitly — so a larger panel left by an
        // earlier shape needs no clear.
        if self.packed.len() < kp * d {
            self.packed.resize(kp * d, 0.0);
        }
        if self.cnorms.len() < kp {
            self.cnorms.resize(kp, f64::INFINITY);
        }
        self.cnorms[..k].copy_from_slice(cnorms);
        self.cnorms[k..kp].fill(f64::INFINITY);
        let packed = &mut self.packed;
        for (c, mean) in cents.means.chunks_exact(d.max(1)).enumerate() {
            for (j, &v) in mean.iter().enumerate() {
                packed[j * kp + c] = v;
            }
        }
        for j in 0..d {
            packed[j * kp + k..(j + 1) * kp].fill(0.0);
        }
        (self.k, self.d, self.kp) = (k, d, kp);
        // Only debug builds read it.
        self.stamp = if cfg!(debug_assertions) { Self::stamp_of(cents, cnorms) } else { 0 };
    }

    /// A fingerprint of the operands a panel was packed from: what lets a
    /// debug build catch a panel used after its centroids moved.
    fn stamp_of(cents: &Centroids, cnorms: &[f64]) -> u64 {
        let mut h = (cents.k() as u64) << 32 | cents.d as u64;
        for x in cents.means.iter().chain(cnorms) {
            h = (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        h
    }

    /// Whether the panel holds exactly `cents`/`cnorms`.
    fn is_packed_from(&self, cents: &Centroids, cnorms: &[f64]) -> bool {
        (self.k, self.d) == (cents.k(), cents.d) && self.stamp == Self::stamp_of(cents, cnorms)
    }
}

/// Centroid columns per micro-kernel pass, which the panel pads `k` to:
/// sixteen for the AVX-512 kernel, eight for the AVX2 one (and for the
/// portable path, which reads the row-major centroids instead).
fn panel_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx512_usable() {
        return 16;
    }
    8
}

/// Assign every row of a contiguous `m × d` block to its nearest centroid,
/// resizing `best`/`best_dist` to `m` (grow-only). Dispatches on `rk.kind`;
/// `cnorms` is only read on the norm-trick path and may be empty otherwise.
///
/// When `need_dist` is true, `best_dist` holds the exact (tiled/scalar) or
/// reconstructed (norm-trick) distance per row. When false — the
/// non-pruned engine paths, which only consume indices — the distance
/// finalization pass (square roots, and the norm-trick's per-row
/// `O(d)` norm reconstruction) is skipped and `best_dist` holds kernel-
/// internal scores with unspecified meaning.
///
/// This is [`CentroidPanel::pack`] + [`assign_rows_packed`]: a caller with
/// more than one block per set of centroids packs once itself.
#[allow(clippy::too_many_arguments)]
pub fn assign_rows(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    rk: &ResolvedKernel,
    cnorms: &[f64],
    best: &mut Vec<u32>,
    best_dist: &mut Vec<f64>,
    need_dist: bool,
) {
    let mut panel = CentroidPanel::default();
    if rk.kind == ResolvedKind::Gemm {
        panel.pack(cents, cnorms);
    }
    assign_rows_packed(block, d, cents, rk, cnorms, &panel, best, best_dist, need_dist);
}

/// [`assign_rows`] against an already packed `panel`, which must have been
/// packed from `cents`/`cnorms` when `rk.kind` is [`ResolvedKind::Gemm`]
/// (checked in debug builds) and is not read otherwise. A row's result
/// does not depend on which other rows share its block, so any blocking of
/// the same rows gives the same `best`/`best_dist`, bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn assign_rows_packed(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    rk: &ResolvedKernel,
    cnorms: &[f64],
    panel: &CentroidPanel,
    best: &mut Vec<u32>,
    best_dist: &mut Vec<f64>,
    need_dist: bool,
) {
    debug_assert_eq!(block.len() % d.max(1), 0);
    let m = block.len().checked_div(d).unwrap_or(0);
    best.clear();
    best.resize(m, 0);
    best_dist.clear();
    best_dist.resize(m, 0.0);
    // The GEMM path takes the whole block in one pass: its cache-resident
    // operand is the packed panel, which rows stream past exactly once,
    // so nothing there is sized by `row_tile`.
    let tile = if rk.kind == ResolvedKind::Gemm {
        debug_assert!(panel.is_packed_from(cents, cnorms), "stale or unpacked centroid panel");
        m.max(1)
    } else {
        rk.row_tile
    };
    let mut start = 0usize;
    while start < m {
        let end = (start + tile).min(m);
        let sub = &block[start * d..end * d];
        let (tile_best, tile_dist) = (&mut best[start..end], &mut best_dist[start..end]);
        match rk.kind {
            ResolvedKind::Scalar => {
                for (i, row) in sub.chunks_exact(d).enumerate() {
                    let (a, da) = nearest(row, &cents.means, cents.k());
                    tile_best[i] = a as u32;
                    tile_dist[i] = da;
                }
            }
            ResolvedKind::Tiled => {
                assign_tile_scored(sub, d, cents, rk.cent_tile, tile_best, tile_dist)
            }
            ResolvedKind::Fma => fma_tile_scored(sub, d, cents, rk.cent_tile, tile_best, tile_dist),
            ResolvedKind::NormTrick => {
                normtrick_tile_scored(sub, d, cents, cnorms, rk.cent_tile, tile_best, tile_dist)
            }
            ResolvedKind::Gemm => {
                gemm_tile_scored(sub, d, cents, cnorms, panel, rk.cent_tile, tile_best, tile_dist)
            }
        }
        start = end;
    }
    if need_dist {
        match rk.kind {
            ResolvedKind::Scalar => {}
            ResolvedKind::Tiled | ResolvedKind::Fma => {
                for x in best_dist.iter_mut() {
                    *x = x.sqrt();
                }
            }
            ResolvedKind::NormTrick | ResolvedKind::Gemm => normtrick_finalize(block, d, best_dist),
        }
    }
}

/// True when the AVX micro-kernels are usable on this machine (cached by
/// `std`'s feature detection). The baseline x86-64 build targets SSE2,
/// where the per-row scan already saturates the FP ports; the 4-wide AVX
/// micro-kernels — deliberately **without FMA**, which would fuse rounding
/// steps and break bitwise parity — are where the tiled speedup comes from.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx_usable() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// True when the FMA/AVX2 micro-kernels are usable on this machine. The
/// fused paths (`Fma`, `Gemm`) fall back to their un-fused counterparts
/// where this is false, which trivially satisfies their ≤ 1e-9 contract.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn fma_usable() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// True when the 8-wide AVX-512 GEMM micro-kernel is usable. Only the GEMM
/// path widens to 512-bit lanes — it is already inside the ≤ 1e-9 band, so
/// the wider accumulator layout costs nothing contract-wise.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_usable() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Non-x86 fallback: the fused micro-kernels are never available.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn fma_usable() -> bool {
    false
}

/// The shared tile-scan skeleton, monomorphized per micro-kernel set.
/// `kern4x2` evaluates four rows against two centroids (sharing the row
/// loads), `kern4` four rows against a leftover centroid, `kern1` one
/// remainder row, and `score` maps the raw kernel output to the minimized
/// quantity (identity for squared distances; `‖c‖² − 2·dot` for the norm
/// trick). Candidates are compared in ascending index order with a strict
/// `<`, and the running best for each 4-row group lives in registers
/// across the whole centroid tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_scan(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
    kern4x2: impl Fn(&[&[f64]; 4], &[f64], &[f64]) -> ([f64; 4], [f64; 4]),
    kern4: impl Fn(&[&[f64]; 4], &[f64]) -> [f64; 4],
    kern1: impl Fn(&[f64], &[f64]) -> f64,
    score: impl Fn(usize, f64) -> f64,
) {
    let m = block.len() / d.max(1);
    let k = cents.k();
    debug_assert!(best.len() == m && best_dist.len() == m);
    // best_dist carries the running best score until the caller finalizes.
    best_dist.iter_mut().for_each(|x| *x = f64::INFINITY);
    best.iter_mut().for_each(|x| *x = 0);

    let mut c0 = 0usize;
    while c0 < k {
        let c1 = (c0 + cent_tile).min(k);
        let ctile = &cents.means[c0 * d..c1 * d];
        let ctile_n = c1 - c0;
        // 4-row × 2-centroid micro-kernel: the centroid tile stays hot,
        // every row load is amortized over two centroids and every
        // centroid load over four rows, and eight independent accumulator
        // sets hide the floating-point latency.
        let mut r = 0usize;
        while r + 4 <= m {
            let rows = [
                &block[r * d..(r + 1) * d],
                &block[(r + 1) * d..(r + 2) * d],
                &block[(r + 2) * d..(r + 3) * d],
                &block[(r + 3) * d..(r + 4) * d],
            ];
            let mut bd = [best_dist[r], best_dist[r + 1], best_dist[r + 2], best_dist[r + 3]];
            let mut bi = [best[r], best[r + 1], best[r + 2], best[r + 3]];
            let mut ci = 0usize;
            while ci + 2 <= ctile_n {
                let (s0, s1) = kern4x2(
                    &rows,
                    &ctile[ci * d..(ci + 1) * d],
                    &ctile[(ci + 1) * d..(ci + 2) * d],
                );
                // Candidate ci strictly before ci + 1: ascending order.
                for (i, &si) in s0.iter().enumerate() {
                    let sc = score(c0 + ci, si);
                    if sc < bd[i] {
                        bd[i] = sc;
                        bi[i] = (c0 + ci) as u32;
                    }
                }
                for (i, &si) in s1.iter().enumerate() {
                    let sc = score(c0 + ci + 1, si);
                    if sc < bd[i] {
                        bd[i] = sc;
                        bi[i] = (c0 + ci + 1) as u32;
                    }
                }
                ci += 2;
            }
            while ci < ctile_n {
                let c = c0 + ci;
                let s = kern4(&rows, &ctile[ci * d..(ci + 1) * d]);
                for (i, &si) in s.iter().enumerate() {
                    let sc = score(c, si);
                    if sc < bd[i] {
                        bd[i] = sc;
                        bi[i] = c as u32;
                    }
                }
                ci += 1;
            }
            best_dist[r..r + 4].copy_from_slice(&bd);
            best[r..r + 4].copy_from_slice(&bi);
            r += 4;
        }
        // Remainder rows one at a time, same per-pair arithmetic.
        for i in r..m {
            let row = &block[i * d..(i + 1) * d];
            for (ci, mean) in ctile.chunks_exact(d).enumerate() {
                let c = c0 + ci;
                let sc = score(c, kern1(row, mean));
                if sc < best_dist[i] {
                    best_dist[i] = sc;
                    best[i] = c as u32;
                }
            }
        }
        c0 = c1;
    }
}

/// The tiled primitive: scan one row block (`≤ row_tile` rows, contiguous)
/// against all centroids, one centroid tile at a time. Bitwise identical to
/// calling [`nearest`] per row.
pub fn assign_tile(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
) {
    assign_tile_scored(block, d, cents, cent_tile, best, best_dist);
    for x in best_dist.iter_mut() {
        *x = x.sqrt();
    }
}

/// [`assign_tile`]'s scan without the final square-root pass: `best_dist`
/// is left holding the best *squared* distances.
fn assign_tile_scored(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx_usable() {
        // Safety: AVX support verified at runtime.
        unsafe { x86::assign_tile_avx(block, d, cents, cent_tile, best, best_dist) };
        return;
    }
    tile_scan(
        block,
        d,
        cents,
        cent_tile,
        best,
        best_dist,
        |rows, a, b| (sqdist4(rows, a), sqdist4(rows, b)),
        sqdist4,
        sqdist,
        |_, s| s,
    );
}

/// The `Fma` path: [`assign_tile_scored`] with fused multiply-add
/// micro-kernels where the hardware has them, the bitwise tiled scan
/// otherwise. Fusing drops one rounding step per element, so results sit
/// within the ≤ 1e-9 band of the reference rather than matching it bitwise.
fn fma_tile_scored(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if fma_usable() {
        // Safety: FMA + AVX2 support verified at runtime.
        unsafe { x86::assign_tile_fma(block, d, cents, cent_tile, best, best_dist) };
        return;
    }
    assign_tile_scored(block, d, cents, cent_tile, best, best_dist);
}

/// AVX micro-kernels: 4-wide lanes map one-to-one onto [`sqdist`]'s four
/// accumulator lanes, and sub/mul/add stay un-fused, so every pair's
/// arithmetic — and therefore every result bit — matches the portable path.
/// The whole tile scans are compiled with the feature enabled so the
/// micro-kernels inline into them (a `target_feature` function cannot
/// inline into a caller without the feature).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{dot, sqdist, tile_scan, CentroidPanel, Centroids};

    /// [`super::assign_tile`]'s scan, AVX-enabled.
    ///
    /// # Safety
    /// Caller must have verified AVX support at runtime.
    #[target_feature(enable = "avx")]
    pub unsafe fn assign_tile_avx(
        block: &[f64],
        d: usize,
        cents: &Centroids,
        cent_tile: usize,
        best: &mut [u32],
        best_dist: &mut [f64],
    ) {
        // Safety: closures inherit the enclosing function's target features.
        tile_scan(
            block,
            d,
            cents,
            cent_tile,
            best,
            best_dist,
            |rows, a, b| unsafe { sqdist4x2_avx(rows, a, b) },
            |rows, c| unsafe { sqdist4_avx(rows, c) },
            sqdist,
            |_, s| s,
        );
    }

    /// [`super::assign_tile_normtrick`]'s scan, AVX-enabled.
    ///
    /// # Safety
    /// Caller must have verified AVX support at runtime.
    #[target_feature(enable = "avx")]
    pub unsafe fn normtrick_tile_avx(
        block: &[f64],
        d: usize,
        cents: &Centroids,
        cnorms: &[f64],
        cent_tile: usize,
        best: &mut [u32],
        best_dist: &mut [f64],
    ) {
        tile_scan(
            block,
            d,
            cents,
            cent_tile,
            best,
            best_dist,
            |rows, a, b| unsafe { dot4x2_avx(rows, a, b) },
            |rows, c| unsafe { dot4_avx(rows, c) },
            dot,
            |c, dp| cnorms[c] - 2.0 * dp,
        );
    }

    /// [`super::fma_tile_scored`]'s scan: the exact tiled loop nest with
    /// fused micro-kernels. AVX2 + FMA fuse the multiply and add of every
    /// lane step, dropping one rounding per element — ≤ 1e-9 band, not
    /// bitwise.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn assign_tile_fma(
        block: &[f64],
        d: usize,
        cents: &Centroids,
        cent_tile: usize,
        best: &mut [u32],
        best_dist: &mut [f64],
    ) {
        // Safety: closures inherit the enclosing function's target features.
        tile_scan(
            block,
            d,
            cents,
            cent_tile,
            best,
            best_dist,
            |rows, a, b| unsafe { sqdist4x2_fma(rows, a, b) },
            |rows, c| unsafe { sqdist4_fma(rows, c) },
            sqdist,
            |_, s| s,
        );
    }

    /// [`super::gemm_tile_scored`]'s fused path: a register-blocked GEMM.
    ///
    /// In the packed panel ([`CentroidPanel`]: `d × k_padded`, `k` rounded
    /// up to 8 with `+∞`-normed padding that can never win a strict-`<`
    /// race) the values of eight consecutive centroids sit, for a fixed
    /// dimension `j`, in two contiguous vector lanes. The micro-kernel
    /// evaluates **four rows × eight centroids** per pass: one broadcast per row element, two packed
    /// loads per dimension, eight independent FMA accumulators — ~16
    /// double FLOPs per cycle on AVX2 ports, with every accumulator
    /// staying in a register across the whole `d` loop (no score-panel
    /// round-trip, any `d`). The winner pass scores `‖c‖² − 2·dot` in
    /// ascending candidate order with a strict `<`, same tie discipline as
    /// every other path; sequential-over-`j` accumulation re-orders the
    /// sum vs the 4-lane reference dot, which the ≤ 1e-9 band absorbs.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_tile_fma(
        block: &[f64],
        panel: &CentroidPanel,
        best: &mut [u32],
        best_dist: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let (d, kp) = (panel.d, panel.kp);
        let m = block.len() / d.max(1);
        assert!(kp % 8 == 0 && panel.packed.len() >= kp * d && panel.cnorms.len() >= kp);
        debug_assert!(best.len() == m && best_dist.len() == m);
        let cn = &panel.cnorms;
        let pk = panel.packed.as_ptr();
        let mut r = 0usize;
        while r + 4 <= m {
            let rows = [
                block.as_ptr().add(r * d),
                block.as_ptr().add((r + 1) * d),
                block.as_ptr().add((r + 2) * d),
                block.as_ptr().add((r + 3) * d),
            ];
            let mut bd = [f64::INFINITY; 4];
            let mut bi = [0u32; 4];
            let mut c8 = 0usize;
            while c8 < kp {
                let pb = pk.add(c8);
                let mut acc = [_mm256_setzero_pd(); 8];
                for j in 0..d {
                    let b0 = _mm256_loadu_pd(pb.add(j * kp));
                    let b1 = _mm256_loadu_pd(pb.add(j * kp + 4));
                    for (rr, row) in rows.iter().enumerate() {
                        let a = _mm256_set1_pd(*row.add(j));
                        acc[2 * rr] = _mm256_fmadd_pd(a, b0, acc[2 * rr]);
                        acc[2 * rr + 1] = _mm256_fmadd_pd(a, b1, acc[2 * rr + 1]);
                    }
                }
                for rr in 0..4 {
                    let mut dp = [0.0f64; 8];
                    _mm256_storeu_pd(dp.as_mut_ptr(), acc[2 * rr]);
                    _mm256_storeu_pd(dp.as_mut_ptr().add(4), acc[2 * rr + 1]);
                    for (ci, &dpv) in dp.iter().enumerate() {
                        let sc = cn[c8 + ci] - 2.0 * dpv;
                        if sc < bd[rr] {
                            bd[rr] = sc;
                            bi[rr] = (c8 + ci) as u32;
                        }
                    }
                }
                c8 += 8;
            }
            best_dist[r..r + 4].copy_from_slice(&bd);
            best[r..r + 4].copy_from_slice(&bi);
            r += 4;
        }
        // Remainder rows: the same packed panel, one row at a time.
        for i in r..m {
            let row = block.as_ptr().add(i * d);
            let mut bd = f64::INFINITY;
            let mut bi = 0u32;
            let mut c8 = 0usize;
            while c8 < kp {
                let pb = pk.add(c8);
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                for j in 0..d {
                    let a = _mm256_set1_pd(*row.add(j));
                    a0 = _mm256_fmadd_pd(a, _mm256_loadu_pd(pb.add(j * kp)), a0);
                    a1 = _mm256_fmadd_pd(a, _mm256_loadu_pd(pb.add(j * kp + 4)), a1);
                }
                let mut dp = [0.0f64; 8];
                _mm256_storeu_pd(dp.as_mut_ptr(), a0);
                _mm256_storeu_pd(dp.as_mut_ptr().add(4), a1);
                for (ci, &dpv) in dp.iter().enumerate() {
                    let sc = cn[c8 + ci] - 2.0 * dpv;
                    if sc < bd {
                        bd = sc;
                        bi = (c8 + ci) as u32;
                    }
                }
                c8 += 8;
            }
            best_dist[i] = bd;
            best[i] = bi;
        }
    }

    /// The AVX-512 variant of [`gemm_tile_fma`]: the same packed-transpose
    /// layout (`k` padded to 16) with a **four rows × sixteen centroids**
    /// micro-kernel — two 8-wide panel loads and four broadcasts feed eight
    /// independent zmm FMA accumulators per dimension, saturating both
    /// 512-bit FMA ports where the hardware has them (~32 double FLOPs per
    /// cycle).
    ///
    /// The winner scan is vectorized too: scores `‖c‖² − 2·dot` come from
    /// one `fnmadd` per lane (the `2·dot` scale is exact, so each score
    /// rounds exactly like the scalar formula), and a masked strict-`<`
    /// blend keeps per-lane champions with candidates visited in ascending
    /// index order. The final 8-lane reduction prefers strictly smaller
    /// scores and breaks exact ties toward the lower index — precisely the
    /// scalar first-minimum discipline. Same ≤ 1e-9 band as the 256-bit
    /// path.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512(
        block: &[f64],
        panel: &CentroidPanel,
        best: &mut [u32],
        best_dist: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let (d, kp) = (panel.d, panel.kp);
        let m = block.len() / d.max(1);
        assert!(kp % 16 == 0 && panel.packed.len() >= kp * d && panel.cnorms.len() >= kp);
        debug_assert!(best.len() == m && best_dist.len() == m);
        // Reduce one row's 8-lane champions (scores + indices) to the
        // scalar first-minimum: strictly smaller score wins, an exactly
        // equal score falls back to the lower candidate index.
        let reduce = |vs: __m512d, vi: __m512i| -> (f64, u32) {
            let mut sv = [0.0f64; 8];
            let mut iv = [0i64; 8];
            // Safety: the enclosing function already verified AVX-512F.
            unsafe {
                _mm512_storeu_pd(sv.as_mut_ptr(), vs);
                _mm512_storeu_si512(iv.as_mut_ptr().cast(), vi);
            }
            let (mut bd, mut bi) = (f64::INFINITY, u32::MAX);
            for l in 0..8 {
                if sv[l] < bd || (sv[l] == bd && (iv[l] as u32) < bi) {
                    bd = sv[l];
                    bi = iv[l] as u32;
                }
            }
            (bd, bi)
        };
        let pk = panel.packed.as_ptr();
        let pcn = panel.cnorms.as_ptr();
        let iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let two = _mm512_set1_pd(2.0);
        let inf = _mm512_set1_pd(f64::INFINITY);
        let mut r = 0usize;
        while r + 4 <= m {
            let rows = [
                block.as_ptr().add(r * d),
                block.as_ptr().add((r + 1) * d),
                block.as_ptr().add((r + 2) * d),
                block.as_ptr().add((r + 3) * d),
            ];
            let mut vs = [inf; 4];
            let mut vi = [_mm512_setzero_si512(); 4];
            let mut c16 = 0usize;
            while c16 < kp {
                let pb = pk.add(c16);
                let mut acc = [_mm512_setzero_pd(); 8];
                for j in 0..d {
                    let b0 = _mm512_loadu_pd(pb.add(j * kp));
                    let b1 = _mm512_loadu_pd(pb.add(j * kp + 8));
                    for (rr, row) in rows.iter().enumerate() {
                        let a = _mm512_set1_pd(*row.add(j));
                        acc[2 * rr] = _mm512_fmadd_pd(a, b0, acc[2 * rr]);
                        acc[2 * rr + 1] = _mm512_fmadd_pd(a, b1, acc[2 * rr + 1]);
                    }
                }
                let cn0 = _mm512_loadu_pd(pcn.add(c16));
                let cn1 = _mm512_loadu_pd(pcn.add(c16 + 8));
                let idx0 = _mm512_add_epi64(iota, _mm512_set1_epi64(c16 as i64));
                let idx1 = _mm512_add_epi64(iota, _mm512_set1_epi64((c16 + 8) as i64));
                for rr in 0..4 {
                    let s0 = _mm512_fnmadd_pd(two, acc[2 * rr], cn0);
                    let m0 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s0, vs[rr]);
                    vs[rr] = _mm512_mask_blend_pd(m0, vs[rr], s0);
                    vi[rr] = _mm512_mask_blend_epi64(m0, vi[rr], idx0);
                    let s1 = _mm512_fnmadd_pd(two, acc[2 * rr + 1], cn1);
                    let m1 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s1, vs[rr]);
                    vs[rr] = _mm512_mask_blend_pd(m1, vs[rr], s1);
                    vi[rr] = _mm512_mask_blend_epi64(m1, vi[rr], idx1);
                }
                c16 += 16;
            }
            for rr in 0..4 {
                let (bd, bi) = reduce(vs[rr], vi[rr]);
                best_dist[r + rr] = bd;
                best[r + rr] = bi;
            }
            r += 4;
        }
        // Remainder rows: the same packed panel, one row at a time.
        for i in r..m {
            let row = block.as_ptr().add(i * d);
            let mut vs = inf;
            let mut vi = _mm512_setzero_si512();
            let mut c16 = 0usize;
            while c16 < kp {
                let pb = pk.add(c16);
                let mut a0 = _mm512_setzero_pd();
                let mut a1 = _mm512_setzero_pd();
                for j in 0..d {
                    let a = _mm512_set1_pd(*row.add(j));
                    a0 = _mm512_fmadd_pd(a, _mm512_loadu_pd(pb.add(j * kp)), a0);
                    a1 = _mm512_fmadd_pd(a, _mm512_loadu_pd(pb.add(j * kp + 8)), a1);
                }
                let s0 = _mm512_fnmadd_pd(two, a0, _mm512_loadu_pd(pcn.add(c16)));
                let idx0 = _mm512_add_epi64(iota, _mm512_set1_epi64(c16 as i64));
                let m0 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s0, vs);
                vs = _mm512_mask_blend_pd(m0, vs, s0);
                vi = _mm512_mask_blend_epi64(m0, vi, idx0);
                let s1 = _mm512_fnmadd_pd(two, a1, _mm512_loadu_pd(pcn.add(c16 + 8)));
                let idx1 = _mm512_add_epi64(iota, _mm512_set1_epi64((c16 + 8) as i64));
                let m1 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s1, vs);
                vs = _mm512_mask_blend_pd(m1, vs, s1);
                vi = _mm512_mask_blend_epi64(m1, vi, idx1);
                c16 += 16;
            }
            let (bd, bi) = reduce(vs, vi);
            best_dist[i] = bd;
            best[i] = bi;
        }
    }

    /// Squared distances of four rows to two centroids with fused
    /// multiply-adds (`vfmadd`), sharing every row load.
    ///
    /// # Safety
    /// As `sqdist4x2_avx`: only reachable from the feature-gated scans.
    #[inline(always)]
    unsafe fn sqdist4x2_fma(rows: &[&[f64]; 4], c0: &[f64], c1: &[f64]) -> ([f64; 4], [f64; 4]) {
        use std::arch::x86_64::*;
        let d = c0.len();
        let full = d - d % 4;
        let mut acc0 = [_mm256_setzero_pd(); 4];
        let mut acc1 = [_mm256_setzero_pd(); 4];
        let mut j = 0usize;
        while j < full {
            let cv0 = _mm256_loadu_pd(c0.as_ptr().add(j));
            let cv1 = _mm256_loadu_pd(c1.as_ptr().add(j));
            for (r, row) in rows.iter().enumerate() {
                let rv = _mm256_loadu_pd(row.as_ptr().add(j));
                let d0 = _mm256_sub_pd(rv, cv0);
                acc0[r] = _mm256_fmadd_pd(d0, d0, acc0[r]);
                let d1 = _mm256_sub_pd(rv, cv1);
                acc1[r] = _mm256_fmadd_pd(d1, d1, acc1[r]);
            }
            j += 4;
        }
        let mut out0 = [0.0f64; 4];
        let mut out1 = [0.0f64; 4];
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc0[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                let diff = row[jj] - c0[jj];
                sum += diff * diff;
            }
            out0[r] = sum;
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc1[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                let diff = row[jj] - c1[jj];
                sum += diff * diff;
            }
            out1[r] = sum;
        }
        (out0, out1)
    }

    /// Squared distances of four rows to one centroid, fused.
    ///
    /// # Safety
    /// As `sqdist4x2_avx`: only reachable from the feature-gated scans.
    #[inline(always)]
    unsafe fn sqdist4_fma(rows: &[&[f64]; 4], c: &[f64]) -> [f64; 4] {
        use std::arch::x86_64::*;
        let d = c.len();
        let full = d - d % 4;
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut j = 0usize;
        while j < full {
            let cv = _mm256_loadu_pd(c.as_ptr().add(j));
            for (r, row) in rows.iter().enumerate() {
                let rv = _mm256_loadu_pd(row.as_ptr().add(j));
                let diff = _mm256_sub_pd(rv, cv);
                acc[r] = _mm256_fmadd_pd(diff, diff, acc[r]);
            }
            j += 4;
        }
        let mut out = [0.0f64; 4];
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                let diff = row[jj] - c[jj];
                sum += diff * diff;
            }
            out[r] = sum;
        }
        out
    }

    /// Squared distances of four rows to two centroids, sharing every row
    /// load (AVX lanes; each pair's arithmetic matches `sqdist` exactly).
    ///
    /// `#[inline(always)]` rather than `#[target_feature]`: the two are
    /// mutually exclusive, and a non-inlined call per two centroids (with
    /// its by-memory tuple return) costs ~30% of the kernel. Inlining into
    /// the `target_feature` scans above compiles the intrinsics in an
    /// AVX-enabled context.
    ///
    /// # Safety
    /// Must only execute under AVX — guaranteed by being called only from
    /// the feature-gated scans above.
    #[inline(always)]
    unsafe fn sqdist4x2_avx(rows: &[&[f64]; 4], c0: &[f64], c1: &[f64]) -> ([f64; 4], [f64; 4]) {
        use std::arch::x86_64::*;
        let d = c0.len();
        let full = d - d % 4;
        let mut acc0 = [_mm256_setzero_pd(); 4];
        let mut acc1 = [_mm256_setzero_pd(); 4];
        let mut j = 0usize;
        while j < full {
            let cv0 = _mm256_loadu_pd(c0.as_ptr().add(j));
            let cv1 = _mm256_loadu_pd(c1.as_ptr().add(j));
            for (r, row) in rows.iter().enumerate() {
                let rv = _mm256_loadu_pd(row.as_ptr().add(j));
                let d0 = _mm256_sub_pd(rv, cv0);
                acc0[r] = _mm256_add_pd(acc0[r], _mm256_mul_pd(d0, d0));
                let d1 = _mm256_sub_pd(rv, cv1);
                acc1[r] = _mm256_add_pd(acc1[r], _mm256_mul_pd(d1, d1));
            }
            j += 4;
        }
        let mut out0 = [0.0f64; 4];
        let mut out1 = [0.0f64; 4];
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc0[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                let diff = row[jj] - c0[jj];
                sum += diff * diff;
            }
            out0[r] = sum;
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc1[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                let diff = row[jj] - c1[jj];
                sum += diff * diff;
            }
            out1[r] = sum;
        }
        (out0, out1)
    }

    /// Dot products of four rows with two centroids, sharing row loads.
    ///
    /// # Safety
    /// As `sqdist4x2_avx`: only reachable from the feature-gated scans.
    #[inline(always)]
    unsafe fn dot4x2_avx(rows: &[&[f64]; 4], c0: &[f64], c1: &[f64]) -> ([f64; 4], [f64; 4]) {
        use std::arch::x86_64::*;
        let d = c0.len();
        let full = d - d % 4;
        let mut acc0 = [_mm256_setzero_pd(); 4];
        let mut acc1 = [_mm256_setzero_pd(); 4];
        let mut j = 0usize;
        while j < full {
            let cv0 = _mm256_loadu_pd(c0.as_ptr().add(j));
            let cv1 = _mm256_loadu_pd(c1.as_ptr().add(j));
            for (r, row) in rows.iter().enumerate() {
                let rv = _mm256_loadu_pd(row.as_ptr().add(j));
                acc0[r] = _mm256_add_pd(acc0[r], _mm256_mul_pd(rv, cv0));
                acc1[r] = _mm256_add_pd(acc1[r], _mm256_mul_pd(rv, cv1));
            }
            j += 4;
        }
        let mut out0 = [0.0f64; 4];
        let mut out1 = [0.0f64; 4];
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc0[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                sum += row[jj] * c0[jj];
            }
            out0[r] = sum;
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc1[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                sum += row[jj] * c1[jj];
            }
            out1[r] = sum;
        }
        (out0, out1)
    }

    /// Squared distances of four rows to one centroid (AVX lanes).
    ///
    /// # Safety
    /// As `sqdist4x2_avx`: only reachable from the feature-gated scans.
    #[inline(always)]
    unsafe fn sqdist4_avx(rows: &[&[f64]; 4], c: &[f64]) -> [f64; 4] {
        use std::arch::x86_64::*;
        let d = c.len();
        let full = d - d % 4;
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut j = 0usize;
        while j < full {
            let cv = _mm256_loadu_pd(c.as_ptr().add(j));
            for (r, row) in rows.iter().enumerate() {
                let rv = _mm256_loadu_pd(row.as_ptr().add(j));
                let diff = _mm256_sub_pd(rv, cv);
                acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(diff, diff));
            }
            j += 4;
        }
        let mut out = [0.0f64; 4];
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc[r]);
            // Same summation order as `sqdist`: ((l0 + l1) + l2) + l3.
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                let diff = row[jj] - c[jj];
                sum += diff * diff;
            }
            out[r] = sum;
        }
        out
    }

    /// Dot products of four rows with one centroid (AVX lanes).
    ///
    /// # Safety
    /// As `sqdist4x2_avx`: only reachable from the feature-gated scans.
    #[inline(always)]
    unsafe fn dot4_avx(rows: &[&[f64]; 4], c: &[f64]) -> [f64; 4] {
        use std::arch::x86_64::*;
        let d = c.len();
        let full = d - d % 4;
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut j = 0usize;
        while j < full {
            let cv = _mm256_loadu_pd(c.as_ptr().add(j));
            for (r, row) in rows.iter().enumerate() {
                let rv = _mm256_loadu_pd(row.as_ptr().add(j));
                acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(rv, cv));
            }
            j += 4;
        }
        let mut out = [0.0f64; 4];
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc[r]);
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for jj in full..d {
                sum += row[jj] * c[jj];
            }
            out[r] = sum;
        }
        out
    }
}

/// Squared distances of four rows to one centroid, each pair computed with
/// exactly [`sqdist`]'s chunking and summation order.
#[inline]
fn sqdist4(rows: &[&[f64]; 4], c: &[f64]) -> [f64; 4] {
    let d = c.len();
    let full = d - d % 4;
    let mut acc = [[0.0f64; 4]; 4];
    let mut j = 0usize;
    while j < full {
        let cc = &c[j..j + 4];
        for (r, row) in rows.iter().enumerate() {
            let rr = &row[j..j + 4];
            for l in 0..4 {
                let diff = rr[l] - cc[l];
                acc[r][l] += diff * diff;
            }
        }
        j += 4;
    }
    let mut out = [0.0f64; 4];
    for (r, row) in rows.iter().enumerate() {
        let mut sum = acc[r][0] + acc[r][1] + acc[r][2] + acc[r][3];
        for jj in full..d {
            let diff = row[jj] - c[jj];
            sum += diff * diff;
        }
        out[r] = sum;
    }
    out
}

/// The norm-trick primitive: per row, minimize `‖c‖² − 2·x·c` (adding `‖x‖²`
/// is row-constant and cannot change the argmin), then reconstruct the
/// distance as `√max(‖x‖² + score, 0)`. Half the arithmetic of the exact
/// kernel; accurate to ≤ 1e-9 relative on non-degenerate data.
pub fn assign_tile_normtrick(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cnorms: &[f64],
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
) {
    normtrick_tile_scored(block, d, cents, cnorms, cent_tile, best, best_dist);
    normtrick_finalize(block, d, best_dist);
}

/// [`assign_tile_normtrick`]'s scan without the distance reconstruction:
/// `best_dist` is left holding the best scores `‖c‖² − 2·x·c`.
fn normtrick_tile_scored(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cnorms: &[f64],
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
) {
    debug_assert_eq!(cnorms.len(), cents.k());
    #[cfg(target_arch = "x86_64")]
    if avx_usable() {
        // Safety: AVX support verified at runtime.
        unsafe { x86::normtrick_tile_avx(block, d, cents, cnorms, cent_tile, best, best_dist) };
        return;
    }
    tile_scan(
        block,
        d,
        cents,
        cent_tile,
        best,
        best_dist,
        |rows, a, b| (dot4(rows, a), dot4(rows, b)),
        dot4,
        dot,
        |c, dp| cnorms[c] - 2.0 * dp,
    );
}

/// Reconstruct distances from the winning norm-trick scores.
fn normtrick_finalize(block: &[f64], d: usize, best_dist: &mut [f64]) {
    for (i, x) in best_dist.iter_mut().enumerate() {
        let row = &block[i * d..(i + 1) * d];
        *x = (sqnorm(row) + *x).max(0.0).sqrt();
    }
}

/// Dimensions per GEMM d-block: at 256 elements a 64-centroid panel slice
/// is 128 KB — L2-resident while every row of the block streams past it.
const GEMM_DBLOCK: usize = 256;

std::thread_local! {
    /// Grow-only dot-product panel for the GEMM path (`row_tile ×
    /// cent_tile`). Thread-local so [`assign_rows`]' signature stays
    /// scratch-free and steady-state iterations never allocate.
    static GEMM_PANEL: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The blocked-GEMM primitive: treat the norm-trick assignment as
/// `‖x‖² − 2XCᵀ + ‖c‖²` and compute the `XCᵀ` panel with a k-panel ×
/// row-panel × d-block loop nest. The centroid panel's d-slice stays
/// cache-resident across the whole row panel, dot products accumulate in
/// a `row × cent_tile` score panel, and the winner pass scores
/// `‖c‖² − 2·dot` in ascending candidate order with a strict `<` —
/// the same tie discipline as every other path. `best_dist` is left
/// holding the winning scores (the caller finalizes like the norm trick).
#[allow(clippy::too_many_arguments)]
fn gemm_tile_scored(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cnorms: &[f64],
    panel: &CentroidPanel,
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
) {
    debug_assert_eq!(cnorms.len(), cents.k());
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_usable() {
            // Safety: AVX-512F support verified at runtime.
            unsafe { x86::gemm_tile_avx512(block, panel, best, best_dist) };
            return;
        }
        if fma_usable() {
            // Safety: FMA + AVX2 support verified at runtime.
            unsafe { x86::gemm_tile_fma(block, panel, best, best_dist) };
            return;
        }
    }
    // No fused micro-kernel on this machine: the portable scans read the
    // row-major centroids and leave the panel alone.
    if d <= GEMM_DBLOCK {
        // Single d-block: skip the panel round-trip and score inline (see
        // the fused variant for the argument; bitwise equal to the panel
        // path it shortcuts).
        tile_scan(
            block,
            d,
            cents,
            cent_tile,
            best,
            best_dist,
            |rows, a, b| (dot4(rows, a), dot4(rows, b)),
            dot4,
            dot,
            |c, dp| cnorms[c] - 2.0 * dp,
        );
        return;
    }
    gemm_scan(
        block,
        d,
        cents,
        cnorms,
        cent_tile,
        best,
        best_dist,
        |rows, a, b| (dot4(rows, a), dot4(rows, b)),
        dot4,
        dot,
    );
}

/// The shared GEMM loop nest, monomorphized per micro-kernel set. The
/// kernels receive *d-slices* of rows and centroids and return partial dot
/// products, which accumulate into the panel across d-blocks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_scan(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    cnorms: &[f64],
    cent_tile: usize,
    best: &mut [u32],
    best_dist: &mut [f64],
    kern4x2: impl Fn(&[&[f64]; 4], &[f64], &[f64]) -> ([f64; 4], [f64; 4]),
    kern4: impl Fn(&[&[f64]; 4], &[f64]) -> [f64; 4],
    kern1: impl Fn(&[f64], &[f64]) -> f64,
) {
    let m = block.len() / d.max(1);
    let k = cents.k();
    debug_assert!(best.len() == m && best_dist.len() == m);
    best_dist.iter_mut().for_each(|x| *x = f64::INFINITY);
    best.iter_mut().for_each(|x| *x = 0);
    let tile = cent_tile.max(1);
    GEMM_PANEL.with(|cell| {
        let mut panel = cell.borrow_mut();
        let width = tile.min(k.max(1));
        if panel.len() < m * width {
            panel.resize(m * width, 0.0);
        }
        let mut c0 = 0usize;
        while c0 < k {
            let c1 = (c0 + tile).min(k);
            let ctn = c1 - c0;
            panel[..m * ctn].iter_mut().for_each(|x| *x = 0.0);
            // d-block loop: the centroid panel slice stays hot while the
            // whole row panel streams past it once per block.
            let mut j0 = 0usize;
            while j0 < d {
                let j1 = (j0 + GEMM_DBLOCK).min(d);
                let mut r = 0usize;
                while r + 4 <= m {
                    let rows = [
                        &block[r * d + j0..r * d + j1],
                        &block[(r + 1) * d + j0..(r + 1) * d + j1],
                        &block[(r + 2) * d + j0..(r + 2) * d + j1],
                        &block[(r + 3) * d + j0..(r + 3) * d + j1],
                    ];
                    let mut ci = 0usize;
                    while ci + 2 <= ctn {
                        let ca = &cents.means[(c0 + ci) * d + j0..(c0 + ci) * d + j1];
                        let cb = &cents.means[(c0 + ci + 1) * d + j0..(c0 + ci + 1) * d + j1];
                        let (s0, s1) = kern4x2(&rows, ca, cb);
                        for i in 0..4 {
                            panel[(r + i) * ctn + ci] += s0[i];
                            panel[(r + i) * ctn + ci + 1] += s1[i];
                        }
                        ci += 2;
                    }
                    while ci < ctn {
                        let cc = &cents.means[(c0 + ci) * d + j0..(c0 + ci) * d + j1];
                        let s = kern4(&rows, cc);
                        for i in 0..4 {
                            panel[(r + i) * ctn + ci] += s[i];
                        }
                        ci += 1;
                    }
                    r += 4;
                }
                for i in r..m {
                    let row = &block[i * d + j0..i * d + j1];
                    for ci in 0..ctn {
                        let cc = &cents.means[(c0 + ci) * d + j0..(c0 + ci) * d + j1];
                        panel[i * ctn + ci] += kern1(row, cc);
                    }
                }
                j0 = j1;
            }
            // Winner pass over the finished panel, ascending candidates.
            for i in 0..m {
                for ci in 0..ctn {
                    let c = c0 + ci;
                    let sc = cnorms[c] - 2.0 * panel[i * ctn + ci];
                    if sc < best_dist[i] {
                        best_dist[i] = sc;
                        best[i] = c as u32;
                    }
                }
            }
            c0 = c1;
        }
    });
}

/// Chunked dot product (same shape as [`sqdist`] for vectorization).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut acc = [0.0f64; 4];
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..4 {
            acc[i] += x[i] * y[i];
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += x * y;
    }
    sum
}

/// Dot products of four rows with one centroid.
#[inline]
fn dot4(rows: &[&[f64]; 4], c: &[f64]) -> [f64; 4] {
    let d = c.len();
    let full = d - d % 4;
    let mut acc = [[0.0f64; 4]; 4];
    let mut j = 0usize;
    while j < full {
        let cc = &c[j..j + 4];
        for (r, row) in rows.iter().enumerate() {
            let rr = &row[j..j + 4];
            for l in 0..4 {
                acc[r][l] += rr[l] * cc[l];
            }
        }
        j += 4;
    }
    let mut out = [0.0f64; 4];
    for (r, row) in rows.iter().enumerate() {
        let mut sum = acc[r][0] + acc[r][1] + acc[r][2] + acc[r][3];
        for jj in full..d {
            sum += row[jj] * c[jj];
        }
        out[r] = sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_case(m: usize, k: usize, d: usize, seed: u64) -> (Vec<f64>, Centroids) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let block: Vec<f64> = (0..m * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut cents = Centroids::zeros(k, d);
        for x in cents.means.iter_mut() {
            *x = rng.gen_range(-5.0..5.0);
        }
        (block, cents)
    }

    fn scalar_reference(block: &[f64], d: usize, cents: &Centroids) -> (Vec<u32>, Vec<f64>) {
        block
            .chunks_exact(d)
            .map(|row| {
                let (a, da) = nearest(row, &cents.means, cents.k());
                (a as u32, da)
            })
            .unzip()
    }

    #[test]
    fn tiled_is_bitwise_identical_to_scalar() {
        // Shapes straddle the 4-row micro-kernel, tile boundaries and
        // d % 4 != 0 remainders.
        for (m, k, d, seed) in
            [(1, 1, 3, 1u64), (3, 5, 7, 2), (4, 8, 8, 3), (67, 13, 6, 4), (130, 40, 9, 5)]
        {
            let (block, cents) = random_case(m, k, d, seed);
            let rk = KernelKind::Tiled.resolve(k, d, false);
            let (mut best, mut dist) = (Vec::new(), Vec::new());
            assign_rows(&block, d, &cents, &rk, &[], &mut best, &mut dist, true);
            let (rbest, rdist) = scalar_reference(&block, d, &cents);
            assert_eq!(best, rbest, "case {m}x{k}x{d}");
            assert_eq!(
                dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rdist.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "distances must match bitwise in case {m}x{k}x{d}"
            );
        }
    }

    #[test]
    fn tiny_cent_tile_still_exact() {
        let (block, cents) = random_case(21, 17, 5, 9);
        let rk = ResolvedKernel { kind: ResolvedKind::Tiled, row_tile: 8, cent_tile: 4 };
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        assign_rows(&block, 5, &cents, &rk, &[], &mut best, &mut dist, true);
        let (rbest, rdist) = scalar_reference(&block, 5, &cents);
        assert_eq!(best, rbest);
        assert_eq!(dist, rdist);
    }

    #[test]
    fn normtrick_within_tolerance() {
        for (m, k, d, seed) in [(50, 9, 6, 7u64), (33, 16, 11, 8), (4, 1, 5, 9)] {
            let (block, cents) = random_case(m, k, d, seed);
            let mut cnorms = vec![0.0; k];
            centroid_sqnorms(&cents, &mut cnorms);
            let rk = KernelKind::NormTrick.resolve(k, d, false);
            assert_eq!(rk.kind, ResolvedKind::NormTrick);
            let (mut best, mut dist) = (Vec::new(), Vec::new());
            assign_rows(&block, d, &cents, &rk, &cnorms, &mut best, &mut dist, true);
            let (_, rdist) = scalar_reference(&block, d, &cents);
            for i in 0..m {
                let tol = 1e-9 * rdist[i].abs() + 1e-12;
                assert!(
                    (dist[i] - rdist[i]).abs() <= tol,
                    "row {i}: norm-trick {} vs exact {}",
                    dist[i],
                    rdist[i]
                );
            }
        }
    }

    #[test]
    fn ties_break_to_lower_index() {
        // Two identical centroids: the tiled scan must pick index 0, like
        // `nearest`.
        let block = vec![0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5];
        let cents = Centroids { means: vec![1.0; 8], counts: vec![0; 2], d: 4 };
        let rk = KernelKind::Tiled.resolve(2, 4, false);
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        assign_rows(&block, 4, &cents, &rk, &[], &mut best, &mut dist, true);
        assert_eq!(best, vec![0, 0]);
    }

    #[test]
    fn auto_resolution_heuristics() {
        // Tiny k·d falls back to scalar; mid-size problems tile; large
        // unpruned problems take the blocked-GEMM path.
        assert_eq!(KernelKind::Auto.resolve(4, 8, false).kind, ResolvedKind::Scalar);
        assert_eq!(KernelKind::Auto.resolve(16, 16, false).kind, ResolvedKind::Tiled);
        assert_eq!(KernelKind::Auto.resolve(64, 32, false).kind, ResolvedKind::Gemm);
        // Approximate paths are illegal under pruning (bounds must be
        // exact), so `Auto` and the explicit knobs all downgrade.
        assert_eq!(KernelKind::Auto.resolve(64, 32, true).kind, ResolvedKind::Tiled);
        assert_eq!(KernelKind::NormTrick.resolve(64, 32, true).kind, ResolvedKind::Tiled);
        assert_eq!(KernelKind::NormTrick.resolve(64, 32, false).kind, ResolvedKind::NormTrick);
        assert_eq!(KernelKind::Fma.resolve(64, 32, true).kind, ResolvedKind::Tiled);
        assert_eq!(KernelKind::Fma.resolve(64, 32, false).kind, ResolvedKind::Fma);
        assert_eq!(KernelKind::Gemm.resolve(64, 32, true).kind, ResolvedKind::Tiled);
        assert_eq!(KernelKind::Gemm.resolve(64, 32, false).kind, ResolvedKind::Gemm);
        // Tile sizes shrink as d grows.
        let small_d = KernelKind::Tiled.resolve(100, 4, false);
        let large_d = KernelKind::Tiled.resolve(100, 500, false);
        assert!(small_d.row_tile >= large_d.row_tile);
        assert!(small_d.cent_tile >= large_d.cent_tile);
        assert!(large_d.row_tile >= 8 && large_d.cent_tile >= 4);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            KernelKind::Auto,
            KernelKind::Scalar,
            KernelKind::Tiled,
            KernelKind::Fma,
            KernelKind::NormTrick,
            KernelKind::Gemm,
        ] {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(KernelKind::parse("normtrick"), Some(KernelKind::NormTrick));
        assert_eq!(KernelKind::parse("warp"), None);
        for kind in [
            ResolvedKind::Scalar,
            ResolvedKind::Tiled,
            ResolvedKind::Fma,
            ResolvedKind::NormTrick,
            ResolvedKind::Gemm,
        ] {
            assert_eq!(ResolvedKind::parse(kind.name()), Some(kind));
        }
    }

    /// The approximate kernels (FMA-fused tiled, blocked GEMM) must agree
    /// with the scalar `nearest` reference within the 1e-9 band across the
    /// awkward shapes: `d % 4 != 0`, `k = 1`, blocks smaller than a tile,
    /// non-trivial multi-tile scans.
    #[test]
    fn fma_and_gemm_within_tolerance() {
        for (m, k, d, seed) in [
            (1, 1, 3, 11u64),
            (3, 1, 5, 12),
            (4, 7, 9, 13),
            (50, 9, 6, 14),
            (33, 16, 11, 15),
            (67, 40, 13, 16),
            (130, 65, 7, 17),
        ] {
            let (block, cents) = random_case(m, k, d, seed);
            let mut cnorms = vec![0.0; k];
            centroid_sqnorms(&cents, &mut cnorms);
            let (rbest, rdist) = scalar_reference(&block, d, &cents);
            for kernel in [KernelKind::Fma, KernelKind::Gemm] {
                let rk = kernel.resolve(k, d, false);
                let (mut best, mut dist) = (Vec::new(), Vec::new());
                assign_rows(&block, d, &cents, &rk, &cnorms, &mut best, &mut dist, true);
                for i in 0..m {
                    let tol = 1e-9 * rdist[i].abs() + 1e-12;
                    assert!(
                        (dist[i] - rdist[i]).abs() <= tol,
                        "{kernel:?} row {i} in case {m}x{k}x{d}: {} vs exact {}",
                        dist[i],
                        rdist[i]
                    );
                    // On random data there are no near-ties; winners agree.
                    assert_eq!(best[i], rbest[i], "{kernel:?} winner, case {m}x{k}x{d}");
                }
            }
        }
    }

    #[test]
    fn gemm_spans_multiple_d_blocks() {
        // d > GEMM_DBLOCK forces panel accumulation across several
        // d-blocks; the winner must still match the reference.
        let (block, cents) = random_case(9, 5, 2 * GEMM_DBLOCK + 3, 21);
        let d = 2 * GEMM_DBLOCK + 3;
        let mut cnorms = vec![0.0; 5];
        centroid_sqnorms(&cents, &mut cnorms);
        let rk = KernelKind::Gemm.resolve(5, d, false);
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        assign_rows(&block, d, &cents, &rk, &cnorms, &mut best, &mut dist, true);
        let (rbest, rdist) = scalar_reference(&block, d, &cents);
        assert_eq!(best, rbest);
        for i in 0..9 {
            assert!((dist[i] - rdist[i]).abs() <= 1e-9 * rdist[i].abs() + 1e-12);
        }
    }

    #[test]
    fn gemm_ties_break_to_lower_index() {
        // Two identical centroids produce identical dot products; the
        // strict `<` winner pass must keep index 0, like `nearest`.
        let block = vec![0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5];
        let cents = Centroids { means: vec![1.0; 8], counts: vec![0; 2], d: 4 };
        let mut cnorms = vec![0.0; 2];
        centroid_sqnorms(&cents, &mut cnorms);
        let rk = KernelKind::Gemm.resolve(2, 4, false);
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        assign_rows(&block, 4, &cents, &rk, &cnorms, &mut best, &mut dist, true);
        assert_eq!(best, vec![0, 0]);
    }

    /// Every kernel the run can resolve to, as the driver would resolve it.
    fn every_kind(k: usize, d: usize) -> Vec<ResolvedKernel> {
        [
            KernelKind::Scalar,
            KernelKind::Tiled,
            KernelKind::Fma,
            KernelKind::NormTrick,
            KernelKind::Gemm,
        ]
        .iter()
        .map(|kind| kind.resolve(k, d, false))
        .collect()
    }

    /// `rows` through [`assign_rows_packed`] in blocks of `step` rows.
    #[allow(clippy::too_many_arguments)]
    fn blocked(
        rows: &[f64],
        d: usize,
        cents: &Centroids,
        rk: &ResolvedKernel,
        cnorms: &[f64],
        panel: &CentroidPanel,
        step: usize,
    ) -> (Vec<u32>, Vec<u64>) {
        let (mut best, mut bits) = (Vec::new(), Vec::new());
        let (mut b, mut bd) = (Vec::new(), Vec::new());
        for block in rows.chunks(step * d) {
            assign_rows_packed(block, d, cents, rk, cnorms, panel, &mut b, &mut bd, true);
            best.extend_from_slice(&b);
            bits.extend(bd.iter().map(|x| x.to_bits()));
        }
        (best, bits)
    }

    /// What lets the worker loop choose its block size freely, and pack
    /// once for all of an iteration's blocks: a row's winner and distance
    /// do not depend on the rows it shares a call with, nor on how many
    /// calls the panel has already served. `k` straddles the panel's pad
    /// columns (8 and 16 lanes), `d % 4 != 0` the lane remainders, and the
    /// steps the 4-row micro-kernel, the row tile and the ragged tail.
    #[test]
    fn packed_assignment_is_independent_of_the_blocking() {
        let (m, d) = (1003, 7);
        for k in [1usize, 15, 16, 17, 64] {
            let (rows, mut cents) = random_case(m, k, d, 40 + k as u64);
            let mut cnorms = vec![0.0; k];
            let mut panel = CentroidPanel::default();
            // Two sets of centroids through one panel: packed, reused by
            // every call below, re-packed after the centroids move.
            for round in 0..2 {
                centroid_sqnorms(&cents, &mut cnorms);
                panel.pack(&cents, &cnorms);
                for rk in every_kind(k, d) {
                    let whole = blocked(&rows, d, &cents, &rk, &cnorms, &panel, m);
                    for step in [1usize, 3, 63, 64, 65, 1000] {
                        let got = blocked(&rows, d, &cents, &rk, &cnorms, &panel, step);
                        assert_eq!(got, whole, "{:?} k={k} step={step} round={round}", rk.kind);
                    }
                    // And `assign_rows` is exactly pack + packed.
                    let (mut b, mut bd) = (Vec::new(), Vec::new());
                    assign_rows(&rows, d, &cents, &rk, &cnorms, &mut b, &mut bd, true);
                    let bits: Vec<u64> = bd.iter().map(|x| x.to_bits()).collect();
                    assert_eq!((b, bits), whole, "{:?} k={k} round={round}", rk.kind);
                }
                for x in cents.means.iter_mut() {
                    *x = 0.5 * *x + 0.25;
                }
            }
        }
    }

    /// A panel that outlived its centroids is a bug in the caller; debug
    /// builds catch it at the call.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale or unpacked centroid panel")]
    fn stale_panel_is_caught_in_debug_builds() {
        let (rows, mut cents) = random_case(8, 5, 6, 3);
        let mut cnorms = vec![0.0; 5];
        centroid_sqnorms(&cents, &mut cnorms);
        let mut panel = CentroidPanel::default();
        panel.pack(&cents, &cnorms);
        cents.means[7] += 1.0;
        centroid_sqnorms(&cents, &mut cnorms);
        let rk = KernelKind::Gemm.resolve(5, 6, false);
        let (mut b, mut bd) = (Vec::new(), Vec::new());
        assign_rows_packed(&rows, 6, &cents, &rk, &cnorms, &panel, &mut b, &mut bd, false);
    }

    #[test]
    fn block_rows_are_whole_row_tiles_within_the_l2_budget() {
        for d in [1usize, 3, 32, 100, 5000, 40_000] {
            let rk = KernelKind::Gemm.resolve(64, d, false);
            let rows = rk.block_rows(d);
            assert!(rows >= rk.row_tile && rows.is_multiple_of(rk.row_tile), "d={d}: {rows}");
            assert!(
                rows == rk.row_tile || rows * d * 8 <= L2_BLOCK_BYTES,
                "d={d}: {rows} rows overflow the budget"
            );
        }
        // The benchmark's dense shape: 512 rows of 256 B.
        assert_eq!(KernelKind::Gemm.resolve(64, 32, false).block_rows(32), 512);
    }

    #[test]
    fn tuned_tiles_override_is_clamped_and_exact() {
        let (block, cents) = random_case(37, 11, 6, 22);
        let rk = KernelKind::Tiled.resolve(11, 6, false).with_tiles(16, 64, 11);
        assert_eq!((rk.row_tile, rk.cent_tile), (16, 11), "cent tile capped at k");
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        assign_rows(&block, 6, &cents, &rk, &[], &mut best, &mut dist, true);
        let (rbest, rdist) = scalar_reference(&block, 6, &cents);
        assert_eq!(best, rbest);
        assert_eq!(dist, rdist, "tuned tiles must not change exact results");
        assert_eq!(KernelKind::Tiled.resolve(11, 6, false).with_tiles(0, 0, 11).row_tile, 4);
    }

    #[test]
    fn sqnorm_matches_naive() {
        let v: Vec<f64> = (0..13).map(|x| (x as f64 * 0.31).sin()).collect();
        let naive: f64 = v.iter().map(|x| x * x).sum();
        assert!((sqnorm(&v) - naive).abs() < 1e-12);
        let naive_dot: f64 = v.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert!((dot(&v, &v) - naive_dot).abs() < 1e-12);
    }
}

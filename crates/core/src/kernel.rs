//! The assignment kernel layer.
//!
//! Every engine's compute super-phase bottoms out in the same operation:
//! "assign a batch of rows to their nearest centroids". The answer is
//! defined by [`crate::distance::nearest`]: the first centroid, in
//! ascending index order, that minimizes the rounded
//! [`crate::distance::sqdist`]. Both kernels here give that answer bit for
//! bit:
//!
//! * `Scalar` is `nearest` itself, row by row. It is the oracle, and a
//!   run scans with it when `k·d ≤` [`SCALAR_CUTOFF`]
//!   ([`ResolvedKernel::for_shape`], the one place a run's kernel is
//!   chosen).
//! * `Gemm` scores every candidate as `‖c‖² − 2·x·c`, a blocked `−2XCᵀ`
//!   product against a transposed centroid panel ([`CentroidPanel`]; FMA
//!   and AVX-512 micro-kernels where the host has them). Dot products cost
//!   half the arithmetic of difference-squares, but the score re-orders
//!   the floating point, so the scan then *certifies* its winner. Every
//!   scorer keeps the runner-up score `s₂` next to the winner's `s₁`. By
//!   the rounding bounds of DESIGN.md §7, once `s₂ − s₁` exceeds
//!   `κ·(‖x‖² + 2·max‖c‖²)`, with `κ = 8(d+4)·2⁻⁵³`, no other candidate's
//!   rounded `sqdist` can reach the winner's, so the winner is `nearest`'s.
//!   A row that fails the test (a near-tie, a duplicated centroid, a
//!   non-finite or overflow-sized input) is re-scanned with `nearest`. When
//!   the caller wants distances, the winner's is its `sqdist`.
//!
//! A gemm block scan can also *score in f32*, on the AVX-512 scorer's f32
//! twin: the panel's f32 half ([`CentroidPanel::pack`] fills both), each
//! 4-row group of f64 rows rounded once into worker scratch, 4 × 64 passes
//! at half the FMAs per distance of the f64 4 × 32 pass. Its winners are
//! certified with the f32 certificate of DESIGN.md §7 — the same test with
//! `κ₃₂ = 8(d+4)·2⁻²⁴` plus the roundings of `x` and `c` to f32, behind a
//! range guard — and a row that fails it is re-scanned with `nearest`, so
//! the answer is still `nearest`'s bit for bit. The driver's precision
//! rule picks it ([`Precision`], [`crate::driver::F32_MISS_SHARE`]): only
//! an unpruned full scan after iteration 0, at `k > 48`, when the previous
//! scan's counters say the f32 certificate will hold — iteration 0's f64
//! scan probes for it. `assign_rows`, MTI's [`certified_row`],
//! spherical's [`max_dot_rows`] and serve's predicts score in plain f64.
//!
//! So there is one exactness class. It is what lets MTI take a gemm
//! distance as an upper bound and serve answer with gemm; DESIGN.md §11
//! says why there is no third kernel and no tile autotuner.
//!
//! The panel is the scan's cache-resident operand, and it norms its own
//! centroids. The caller packs it: [`crate::plane::drain`] once per worker
//! per compute super-phase, the serve registry once per model,
//! [`assign_rows`] once per call. Every block of that phase streams past
//! the same panel through [`assign_rows_packed`].
//!
//! MTI iterations (`iter > 0` with pruning on) scan blocks only in block
//! mode: when most committed rows end with many candidates open, the
//! driver's block rule scores the Clause-1 survivors here with
//! [`Finish::Certified`] and commits the certified non-movers (DESIGN.md
//! §2). Otherwise a bound leaves three of `k` candidates open on average,
//! a scan of the surviving rows costs more than the clause machine does
//! (measured, DESIGN.md §7), and the candidate scan
//! is the bitmask walk in [`crate::pruning::mti_assign`], which hands a row
//! whose tight bound leaves many candidates open to [`certified_row`]: the
//! same scorers, one row against the worker's panel, certified with
//! [`ROW_MARGIN`] times the block scan's margin.

use crate::centroids::Centroids;
use crate::distance::{nearest, sqdist};
use crate::stats::CommitCounters;

/// A kernel choice by name. Runs do not choose: [`RunSpec::resolve`]
/// takes [`ResolvedKernel::for_shape`]. The kernel-level oracles force
/// `Scalar` against `Gemm` through these names, and the benchmark harness
/// times each one.
///
/// [`RunSpec::resolve`]: crate::spec::RunSpec::resolve
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// The shape's choice, [`ResolvedKernel::for_shape`].
    #[default]
    Auto,
    /// The per-row `nearest` scan (the pre-kernel behaviour).
    Scalar,
    /// `‖c‖² − 2x·c` as a blocked GEMM against a packed centroid panel
    /// (FMA where available), certified row by row; bitwise `Scalar`.
    Gemm,
}

#[allow(non_upper_case_globals)]
impl KernelKind {
    /// A spelling of [`KernelKind::Gemm`]. The tiled scan it once named was
    /// bitwise `Scalar`, which the certified gemm scan now is too.
    #[doc(hidden)]
    pub const Tiled: KernelKind = KernelKind::Gemm;

    /// A spelling of [`KernelKind::Gemm`]. The fused tiled scan it once
    /// named was slower than gemm; it resolves exactly as `Gemm` does.
    #[doc(hidden)]
    pub const Fma: KernelKind = KernelKind::Gemm;

    /// A spelling of [`KernelKind::Gemm`], whose objective the deleted
    /// norm-trick tile scan computed; it resolves exactly as `Gemm` does.
    #[doc(hidden)]
    pub const NormTrick: KernelKind = KernelKind::Gemm;
}

/// The path a run's full scans take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedKind {
    /// Per-row scans.
    Scalar,
    /// Blocked-GEMM dot-product scans, certified against `nearest`.
    Gemm,
}

impl ResolvedKind {
    /// Stable short name (`--stats`).
    pub fn name(self) -> &'static str {
        match self {
            ResolvedKind::Scalar => "scalar",
            ResolvedKind::Gemm => "gemm",
        }
    }
}

/// A resolved kernel selection: the path plus the tile shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedKernel {
    /// Which code path full scans take.
    pub kind: ResolvedKind,
    /// Rows per tile; a direct source's block is whole tiles
    /// ([`Self::block_rows`]).
    pub row_tile: usize,
    /// Centroids an L1-sized tile holds. `--stats` reports it (`tiles=`);
    /// no scan reads it.
    pub cent_tile: usize,
}

impl ResolvedKernel {
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

/// At or below this many multiply-adds per row (`k·d`), packing a panel
/// costs more than it saves and [`ResolvedKernel::for_shape`] takes the
/// scalar path.
pub const SCALAR_CUTOFF: usize = 64;

/// L1 budget (bytes) each of the centroid tile and the row tile should fit
/// in — half a typical 32 KB L1d apiece.
const TILE_BYTES: usize = 16 * 1024;

/// L2 budget (bytes) for one block of rows: 128 KB, a quarter of the
/// smallest L2 the engines meet (a 64-centroid × 256-dimension panel slice).
const L2_BLOCK_BYTES: usize = 128 * 1024;

impl ResolvedKernel {
    /// The kernel a run over `k` centroids of `d` dimensions scans with:
    /// scalar when `k·d ≤` [`SCALAR_CUTOFF`], gemm otherwise, with tiles
    /// from `d` alone. Every engine, the serve registry and the CLI's
    /// `kernel:` line take it from here.
    pub fn for_shape(k: usize, d: usize) -> Self {
        let row_bytes = (d.max(1)) * 8;
        let row_tile = (TILE_BYTES / row_bytes).clamp(8, 128);
        let cent_tile = (TILE_BYTES / row_bytes).max(4).min(k.max(1));
        let kind = if k * d <= SCALAR_CUTOFF { ResolvedKind::Scalar } else { ResolvedKind::Gemm };
        ResolvedKernel { kind, row_tile, cent_tile }
    }
}

impl KernelKind {
    /// `Auto` is [`ResolvedKernel::for_shape`]; `Scalar` and `Gemm` force
    /// their path with the same tiles. `pruning` is ignored: both kernels
    /// give `nearest`'s exact distances, which is all MTI's bounds need.
    /// The argument stays because the benchmark harness passes it.
    pub fn resolve(self, k: usize, d: usize, _pruning: bool) -> ResolvedKernel {
        let shaped = ResolvedKernel::for_shape(k, d);
        let kind = match self {
            KernelKind::Auto => shaped.kind,
            KernelKind::Scalar => ResolvedKind::Scalar,
            KernelKind::Gemm => ResolvedKind::Gemm,
        };
        ResolvedKernel { kind, ..shaped }
    }
}

/// `‖c‖²` for every centroid, into `out`: the norms a [`CentroidPanel`]
/// packs. The panel computes its own, so no scan takes these from a
/// caller; the benchmark harness still calls this.
pub fn centroid_sqnorms(cents: &Centroids, out: &mut [f64]) {
    debug_assert_eq!(out.len(), cents.k());
    for (c, o) in out.iter_mut().enumerate() {
        *o = sqnorm(cents.mean(c));
    }
}

/// `‖v‖²` with the same chunked arithmetic as [`sqdist`] against zero.
/// Always inlined, so that inside a gemm scorer it is vectorized as wide
/// as the scorer's target features allow (the bits do not change).
#[inline(always)]
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
/// (a pad column can never win a strict-`<` race) and its largest real
/// entry, which sizes the certificate's margin.
///
/// A panel is a function of the centroids alone, so one [`Self::pack`]
/// serves every row block scanned against those centroids
/// ([`assign_rows_packed`]). Grow-only: re-packing for the same shape never
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct CentroidPanel {
    packed: Vec<f64>,
    cnorms: Vec<f64>,
    /// `packed` and `cnorms` rounded to `f32`, for the f32 scorer.
    packed32: Vec<f32>,
    cnorms32: Vec<f32>,
    /// The largest real `cnorms` entry, NaN if any is NaN.
    cmax: f64,
    k: usize,
    d: usize,
    kp: usize,
    /// [`Self::stamp_of`] the centroids of the last pack.
    stamp: u64,
}

impl CentroidPanel {
    /// Pack `cents` and their squared norms, in `f64` and rounded to `f32`,
    /// replacing whatever the panel held.
    pub fn pack(&mut self, cents: &Centroids) {
        self.pack_with(cents, true);
    }

    /// [`Self::pack`], with every norm 0 when `norms` is false (the score
    /// becomes `−2·x·c`; see [`max_dot_rows`]).
    fn pack_with(&mut self, cents: &Centroids, norms: bool) {
        let (k, d) = (cents.k(), cents.d);
        let kp = panel_columns(k);
        // Every slot in use is overwritten below — real columns by the
        // transpose, pad columns explicitly — so a larger panel left by an
        // earlier shape needs no clear.
        if self.packed.len() < kp * d {
            self.packed.resize(kp * d, 0.0);
        }
        if self.cnorms.len() < kp {
            self.cnorms.resize(kp, f64::INFINITY);
        }
        if self.packed32.len() < kp * d {
            self.packed32.resize(kp * d, 0.0);
        }
        if self.cnorms32.len() < kp {
            self.cnorms32.resize(kp, f32::INFINITY);
        }
        self.cmax = 0.0;
        let (packed, packed32) = (&mut self.packed, &mut self.packed32);
        for (c, mean) in cents.means.chunks_exact(d.max(1)).enumerate().take(k) {
            for (j, &v) in mean.iter().enumerate() {
                packed[j * kp + c] = v;
                packed32[j * kp + c] = v as f32;
            }
            let n = if norms { sqnorm(mean) } else { 0.0 };
            (self.cnorms[c], self.cnorms32[c]) = (n, n as f32);
            // A NaN norm sticks, and then no row is certified.
            if n > self.cmax || n.is_nan() {
                self.cmax = n;
            }
        }
        self.cnorms[k..kp].fill(f64::INFINITY);
        self.cnorms32[k..kp].fill(f32::INFINITY);
        for j in 0..d {
            packed[j * kp + k..(j + 1) * kp].fill(0.0);
            packed32[j * kp + k..(j + 1) * kp].fill(0.0);
        }
        (self.k, self.d, self.kp) = (k, d, kp);
        // Only debug builds read it.
        self.stamp = if cfg!(debug_assertions) { Self::stamp_of(cents) } else { 0 };
    }

    /// A fingerprint of the centroids a panel was packed from: what lets a
    /// debug build catch a panel used after its centroids moved.
    fn stamp_of(cents: &Centroids) -> u64 {
        let mut h = (cents.k() as u64) << 32 | cents.d as u64;
        for x in &cents.means {
            h = (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        h
    }

    /// The certificate of a row `x` with `‖x‖² = xnorm` (computed in any
    /// order), whose scan scored its winner `s1` and its runner-up `s2`:
    /// `s₂ − s₁ − margin·(κ·(‖x‖² + 2·cmax) + d·MIN_POSITIVE)`, with
    /// `κ = 8(d+4)·2⁻⁵³`. At `margin = 1`, positive exactly when DESIGN.md
    /// §7 shows that no other candidate's rounded `sqdist` can be at or
    /// below the winner's; the absolute term covers underflow. NaN unless
    /// `‖x‖² + 2·cmax ≤ MAX/4` — so nothing the scorer computed overflowed,
    /// and a NaN or infinite norm fails — and NaN for a NaN gap.
    #[inline(always)]
    fn slack(&self, xnorm: f64, s1: f64, s2: f64, margin: f64) -> f64 {
        let d = self.d as f64;
        let norms = xnorm + 2.0 * self.cmax;
        if norms <= f64::MAX / 4.0 {
            (s2 - s1)
                - margin * (8.0 * (d + 4.0) * (f64::EPSILON / 2.0) * norms + d * f64::MIN_POSITIVE)
        } else {
            f64::NAN
        }
    }

    /// The f32 certificate of a row `x` with `‖x‖² = xnorm`, whose winner
    /// scored `s1` and runner-up `s2` (f32 scores widened, or an f64
    /// scan's, which measures the row against the f32 margin):
    /// `s₂ − s₁ − ((κ₃₂ + ι)·(‖x‖² + 2·cmax) + 4d·2⁻¹²⁶)`, with
    /// `κ₃₂ = 8(d+4)·2⁻²⁴` for the f32 arithmetic and `ι = 16·2⁻²⁴` for
    /// the roundings of `x` and `c` to f32. Positive exactly when DESIGN.md
    /// §7 shows that the f32 scorer's winner — rows and centroids rounded
    /// to `f32`, dot products and scores in `f32` — is `nearest`'s. NaN
    /// (uncertified) beyond the range guard: unless
    /// `‖x‖² + 2·cmax ≤ f32::MAX/4`, where no rounded coordinate, dot
    /// product or score can overflow, and `d ≤ 2²⁰`, where the bound's `γ`
    /// terms stay first-order. Underflow needs no guard: the absolute term
    /// covers it, so a row at scale 10⁻¹⁵⁰, whose f32 scores all round to
    /// 0, fails.
    #[inline(always)]
    fn slack32(&self, xnorm: f64, s1: f64, s2: f64) -> f64 {
        let d = self.d as f64;
        let norms = xnorm + 2.0 * self.cmax;
        if norms <= f64::from(f32::MAX) / 4.0 && self.d <= F32_MAX_D {
            let u = f64::from(f32::EPSILON) / 2.0;
            let (kappa, iota) = (8.0 * (d + 4.0) * u, 16.0 * u);
            (s2 - s1) - ((kappa + iota) * norms + 4.0 * d * f64::from(f32::MIN_POSITIVE))
        } else {
            f64::NAN
        }
    }
}

/// The largest `d` the f32 certificate covers ([`CentroidPanel::slack32`]).
const F32_MAX_D: usize = 1 << 20;

/// How a gemm full scan scores its rows; the driver's precision rule picks
/// one per iteration (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// In f64.
    F64,
    /// In f64, also counting the rows whose gap would fail the f32
    /// certificate: the scan the rule reads before any f32 scan has run
    /// (iteration 0 of a run that may score in f32). AVX-512 hosts only.
    F64Probe,
    /// In f32, through the AVX-512 scorer's twin ([`f32_scan_possible`]
    /// must hold).
    F32,
}

/// Whether a full scan against `cents` may score in f32: the host runs
/// the AVX-512 scorer, whose f32 twin is the only f32 scorer; the panel
/// fills at least one 4 × 64 pass (`k > 48`: narrower, the twin runs 4 × 32
/// or 4 × 16 passes with half or a quarter of the f64 scorer's sixteen
/// accumulators, and measured no faster than it, DESIGN.md §7); and the
/// centroids pass the panel's half of the f32 range guard
/// (`2·max‖c‖² ≤ f32::MAX/4`, `d ≤ 2²⁰`; a NaN norm fails). The driver's
/// precision rule asks this of every iteration's new centroids.
pub fn f32_scan_possible(cents: &Centroids) -> bool {
    avx512_scorer()
        && panel_columns(cents.k()) >= 64
        && cents.d <= F32_MAX_D
        && (0..cents.k()).all(|c| 2.0 * sqnorm(cents.mean(c)) <= f64::from(f32::MAX) / 4.0)
}

/// Whether this host's gemm scans run on the AVX-512 scorer.
pub fn avx512_scorer() -> bool {
    Scorer::host() == Scorer::Avx512
}

/// The columns of a panel of `k` centroids: `k` rounded up to the
/// centroids per micro-kernel pass, sixteen for the AVX-512 kernel, eight
/// for the AVX2 one (and for the portable path, which reads the row-major
/// centroids instead).
pub(crate) fn panel_columns(k: usize) -> usize {
    let lanes = if Scorer::host() == Scorer::Avx512 { 16 } else { 8 };
    k.div_ceil(lanes) * lanes
}

/// Assign every row of a contiguous `m × d` block to its nearest centroid,
/// resizing `best`/`best_dist` to `m` (grow-only). Dispatches on `rk.kind`.
/// `cnorms` is not read: the panel norms its centroids itself. The
/// parameter stays because the benchmark harness passes it.
///
/// When `need_dist` is true, `best_dist` holds each row's exact distance to
/// its centroid, `nearest`'s bits. When false — the non-pruned engine
/// paths, which only consume indices — `best_dist` holds kernel-internal
/// values with unspecified meaning. `best` is `nearest`'s either way.
///
/// This is [`CentroidPanel::pack`] + [`assign_rows_packed`]: a caller with
/// more than one block per set of centroids packs once itself.
#[allow(clippy::too_many_arguments)]
pub fn assign_rows(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    rk: &ResolvedKernel,
    _cnorms: &[f64],
    best: &mut Vec<u32>,
    best_dist: &mut Vec<f64>,
    need_dist: bool,
) {
    let mut panel = CentroidPanel::default();
    if rk.kind == ResolvedKind::Gemm {
        panel.pack(cents);
    }
    let finish = if need_dist { Finish::Distances } else { Finish::Winners };
    let f64 = Precision::F64;
    assign_rows_packed(block, d, cents, rk, &panel, best, best_dist, finish, f64, &mut Vec::new());
}

/// What [`assign_rows_packed`] leaves in `best_dist`, and what it does
/// with a row whose gemm winner it could not certify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finish {
    /// `nearest`'s winners; `best_dist` holds kernel-internal values.
    Winners,
    /// `nearest`'s winners and their exact distances (`nearest`'s bits).
    Distances,
    /// Certified winners and their exact distances. A gemm row whose
    /// winner is not certified gets [`UNCERTIFIED`] (distance NaN) and is
    /// not re-scanned: the caller decides it (MTI's block commit hands it
    /// to the walk, which `nearest` disagrees with on exact ties). The
    /// scalar kernel's winners are `nearest`'s, all of them kept.
    Certified,
}

/// The winner [`Finish::Certified`] reports for a row it could not certify:
/// no centroid index and no assignment.
pub const UNCERTIFIED: u32 = u32::MAX;

/// [`assign_rows`] against an already packed `panel`, which must have been
/// packed from `cents` when `rk.kind` is [`ResolvedKind::Gemm`] (its shape
/// is checked, its contents in debug builds) and is not read otherwise.
/// A row's result does not depend on which other rows share its block, so
/// any blocking of the same rows gives the same `best`/`best_dist`, bit
/// for bit. `finish` says what `best_dist` holds and what becomes of an
/// uncertified row.
///
/// The gemm scan scores at `precision`. In f32 each 4-row group is
/// rounded into `rows32` (grow-only; no other precision touches it), and
/// each winner is certified with the f32 certificate. The winners and
/// distances are `nearest`'s either way.
///
/// Returns the scan's `rescored_rows` (rows whose winner was not certified:
/// re-scanned with `nearest`, or marked), `f32_rows` (rows scored in f32)
/// and `f32_misses`: the rows that failed the f32 certificate (in f32) or
/// would have failed it ([`Precision::F64Probe`]), which the driver's
/// precision rule reads. The other fields are 0.
#[allow(clippy::too_many_arguments)]
pub fn assign_rows_packed(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    rk: &ResolvedKernel,
    panel: &CentroidPanel,
    best: &mut Vec<u32>,
    best_dist: &mut Vec<f64>,
    finish: Finish,
    precision: Precision,
    rows32: &mut Vec<f32>,
) -> CommitCounters {
    debug_assert_eq!(block.len() % d.max(1), 0);
    let m = block.len().checked_div(d).unwrap_or(0);
    best.clear();
    best.resize(m, 0);
    best_dist.clear();
    best_dist.resize(m, 0.0);
    let mut counts = CommitCounters::default();
    if m == 0 {
        return counts;
    }
    assert_eq!(cents.means.len(), cents.k() * d, "centroid table is not k × d");
    match rk.kind {
        ResolvedKind::Scalar => {
            for (i, row) in block.chunks_exact(d).enumerate() {
                let (a, da) = nearest(row, &cents.means, cents.k());
                (best[i], best_dist[i]) = (a as u32, da);
            }
        }
        ResolvedKind::Gemm => {
            assert!((panel.k, panel.d) == (cents.k(), d), "stale or unpacked centroid panel");
            debug_assert!(
                panel.stamp == CentroidPanel::stamp_of(cents),
                "stale or unpacked centroid panel"
            );
            counts.f32_rows = if precision == Precision::F32 { m as u64 } else { 0 };
            let probed =
                Scorer::host().scan(block, cents, panel, best, best_dist, precision, rows32);
            counts.rescored_rows = certify(block, d, cents, best, best_dist, finish);
            counts.f32_misses =
                if precision == Precision::F32 { counts.rescored_rows } else { probed };
        }
    }
    counts
}

/// How many times the block scan's margin [`certified_row`] asks of its
/// winner. MTI's walk compares `√sqdist` values and prunes against halved
/// centroid distances; the extra margin covers those roundings too, so a
/// row this certifies is one the walk would have settled on the same
/// winner with the same distance bits (DESIGN.md §2).
pub const ROW_MARGIN: f64 = 3.0;

/// One row `x` against `panel` (packed from `cents`) through the host's
/// gemm scorer: `Some(w)` when `w` is certified, with [`ROW_MARGIN`], as
/// the strict unique minimum of the rounded `sqdist` — so `nearest`'s
/// answer — and `None` for a near-tie, a duplicated centroid, or
/// non-finite or overflow-sized data. MTI's many-candidate rows come
/// through here ([`crate::pruning::mti_assign`]).
pub fn certified_row(x: &[f64], cents: &Centroids, panel: &CentroidPanel) -> Option<usize> {
    assert!((panel.k, panel.d) == (cents.k(), x.len()), "stale or unpacked centroid panel");
    debug_assert!(
        panel.stamp == CentroidPanel::stamp_of(cents),
        "stale or unpacked centroid panel"
    );
    let (w, slack) = Scorer::host().row(x, cents, panel);
    (slack > 0.0).then_some(w as usize)
}

/// Spherical k-means' map: each row's first maximum of `x·c`, into `best`.
/// This is the gemm scan with zero norms (score `−2·x·c`) and no
/// certificate, because its objective is the dot product itself, not a
/// distance `nearest` could re-check. `scratch` receives internal values.
pub fn max_dot_rows(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    best: &mut Vec<u32>,
    scratch: &mut Vec<f64>,
) {
    let m = block.len().checked_div(d).unwrap_or(0);
    best.clear();
    best.resize(m, 0);
    scratch.clear();
    scratch.resize(m, 0.0);
    if m > 0 {
        let mut panel = CentroidPanel::default();
        panel.pack_with(cents, false);
        Scorer::host().scan(block, cents, &panel, best, scratch, Precision::F64, &mut Vec::new());
    }
}

/// True when the FMA/AVX2 GEMM micro-kernel is usable on this machine.
/// Where neither it nor AVX-512 is, GEMM falls back to the portable
/// un-fused dot scan.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn fma_usable() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// True when the 8-wide AVX-512 GEMM micro-kernel is usable.
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

/// How many kept rows ahead of the current one a filtered scan hints into
/// cache: MTI's bounded commit and k-means++'s D² pass. A filter leaves
/// gaps between the rows it keeps, so the hardware's stride prefetcher
/// does not follow them. The AVX-512 block scans, f64 and f32, hint their
/// 4-row groups this many rows ahead too: they read consecutive rows, yet
/// the hint pays there as well (DESIGN.md §7).
pub(crate) const PF: usize = 8;

/// Hint every cache line of `row` into L1.
#[inline(always)]
pub(crate) fn prefetch_row(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(8) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint that never faults or writes, and
        // the address lies in a live slice anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// The gemm scorers, fastest first. Each one's contract: for every row of
/// `block`, the first index (ascending, strict `<`) minimizing the score
/// `‖c‖² − 2·x·c` into `best`, and its [`CentroidPanel::slack`] — from
/// the winner's score `s₁` and the runner-up's `s₂` (`+∞` when `k = 1`) —
/// into `slack`. Their scores differ in the last bits (fused or not,
/// summation order); certified, all three give `nearest`'s answer. The
/// AVX-512 scorer has an f32 twin, whose slack is the f32 certificate
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scorer {
    /// `x86::gemm_tile_avx512`.
    Avx512,
    /// `x86::gemm_tile_fma`.
    Fma,
    /// [`gemm_portable`].
    Portable,
}

impl Scorer {
    /// Whether this host can run the scorer.
    fn usable(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Scorer::Avx512 => avx512_usable(),
            #[cfg(not(target_arch = "x86_64"))]
            Scorer::Avx512 => false,
            Scorer::Fma => fma_usable(),
            Scorer::Portable => true,
        }
    }

    /// The fastest scorer this host can run (the one [`panel_columns`]
    /// pads for).
    fn host() -> Scorer {
        [Scorer::Avx512, Scorer::Fma].into_iter().find(|s| s.usable()).unwrap_or(Scorer::Portable)
    }

    /// Score `block` against `panel` (packed from `cents`) at `precision`:
    /// in f32 through the AVX-512 scorer's twin, which rounds each 4-row
    /// group into `rows32`. Returns, in a probe, the rows whose gap would
    /// fail the f32 certificate, else 0.
    #[allow(clippy::too_many_arguments)]
    fn scan(
        self,
        block: &[f64],
        cents: &Centroids,
        panel: &CentroidPanel,
        best: &mut [u32],
        slack: &mut [f64],
        precision: Precision,
        rows32: &mut Vec<f32>,
    ) -> u64 {
        self.scan_by::<true>(block, cents, panel, best, slack, precision, rows32)
    }

    /// [`Self::scan`]; with `WIDE = false` the AVX-512 f64 scorer takes no
    /// 32-column pass (see `x86::gemm_tile_avx512`), which only the tests'
    /// oracle asks for.
    #[allow(clippy::too_many_arguments)]
    fn scan_by<const WIDE: bool>(
        self,
        block: &[f64],
        cents: &Centroids,
        panel: &CentroidPanel,
        best: &mut [u32],
        slack: &mut [f64],
        precision: Precision,
        rows32: &mut Vec<f32>,
    ) -> u64 {
        assert!(self.usable(), "{self:?} scorer on a host without it");
        let f32_work = precision != Precision::F64;
        assert!(!f32_work || self == Scorer::Avx512, "{self:?} scorer has no f32 twin");
        #[cfg(target_arch = "x86_64")]
        // Safety: the scorer's features were verified by `usable`.
        unsafe {
            match (self, precision) {
                (Scorer::Avx512, Precision::F32) => {
                    x86::gemm_tile_avx512_f32(block, panel, best, slack, rows32);
                    return 0;
                }
                (Scorer::Avx512, p) => {
                    let probe = p == Precision::F64Probe;
                    return x86::gemm_tile_avx512::<WIDE>(block, panel, best, slack, probe);
                }
                (Scorer::Fma, _) => {
                    x86::gemm_tile_fma(block, panel, best, slack);
                    return 0;
                }
                (Scorer::Portable, _) => {}
            }
        }
        gemm_portable(block, cents, panel, best, slack);
        0
    }

    /// Score one row `x` against `panel` (packed from `cents`): the first
    /// minimum and its [`CentroidPanel::slack`] at [`ROW_MARGIN`]. A 4-row
    /// group padded with copies of the row costs four rows' arithmetic;
    /// these spend it on one row's latency chains instead.
    fn row(self, x: &[f64], cents: &Centroids, panel: &CentroidPanel) -> (u32, f64) {
        assert!(self.usable(), "{self:?} scorer on a host without it");
        #[cfg(target_arch = "x86_64")]
        // Safety: the scorer's features were verified by `usable`.
        unsafe {
            match self {
                Scorer::Avx512 => return x86::gemm_row_avx512(x, panel),
                Scorer::Fma => return x86::gemm_row_fma(x, panel),
                Scorer::Portable => {}
            }
        }
        gemm_row_portable(x, cents, panel)
    }
}

/// Offer candidate `c`'s score to a row's running winner `w`, best score
/// `s1` and runner-up `s2`. Candidates arrive in ascending index order and
/// only a strictly smaller score takes the lead, so `w` is the first
/// minimum; an equal score becomes the runner-up, and the gap is 0.
#[inline(always)]
fn offer(sc: f64, c: usize, w: &mut u32, s1: &mut f64, s2: &mut f64) {
    // Selects rather than branches: whether a score lowers the runner-up
    // is data-dependent and would mispredict.
    let lead = sc < *s1;
    *s2 = if lead { *s1 } else { s2.min(sc) };
    *s1 = if lead { sc } else { *s1 };
    *w = if lead { c as u32 } else { *w };
}

/// Settle each row's gemm winner as `finish` asks, and return how many
/// rows were not certified. On entry `slack` holds each row's certificate
/// ([`CentroidPanel::slack`]): a row whose slack is positive keeps its
/// winner, and gets the winner's distance, `√sqdist`, unless `finish` is
/// [`Finish::Winners`]; any other row is re-scanned with `nearest`, or
/// under [`Finish::Certified`] marked [`UNCERTIFIED`].
fn certify(
    block: &[f64],
    d: usize,
    cents: &Centroids,
    best: &mut [u32],
    slack: &mut [f64],
    finish: Finish,
) -> u64 {
    let mut uncertified = 0;
    for ((row, w), x) in block.chunks_exact(d).zip(best.iter_mut()).zip(slack.iter_mut()) {
        if *x > 0.0 {
            if finish != Finish::Winners {
                *x = sqdist(row, cents.mean(*w as usize)).sqrt();
            }
        } else {
            (*w, *x) = match finish {
                Finish::Certified => (UNCERTIFIED, f64::NAN),
                _ => {
                    let (a, da) = nearest(row, &cents.means, cents.k());
                    (a as u32, da)
                }
            };
            uncertified += 1;
        }
    }
    uncertified
}

/// AVX2/FMA and AVX-512 gemm scorers. Each evaluates four rows at a time:
/// **4 × 8** passes on AVX2, **4 × 32** passes and a **4 × 16** tail on
/// AVX-512, and **4 × 64** passes with 4 × 32 and 4 × 16 tails in the
/// AVX-512 scorer's f32 twin. The last group of a block repeats its last row in the missing
/// slots and stores only the real ones; a row's arithmetic does not depend
/// on its group-mates.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{prefetch_row, sqnorm, CentroidPanel, PF, ROW_MARGIN};
    use std::arch::x86_64::{__m256d, __m512, __m512d, __m512i};

    /// Row pointers for the 4-row group at `r`, the last real row standing
    /// in for rows past `m`.
    #[inline(always)]
    fn group(block: &[f64], d: usize, m: usize, r: usize) -> [*const f64; 4] {
        std::array::from_fn(|i| block[(r + i).min(m - 1) * d..].as_ptr())
    }

    /// [`super::Scorer::Fma`]: a register-blocked GEMM.
    ///
    /// In the packed panel ([`CentroidPanel`]: `d × k_padded`, `k` rounded
    /// up to 8 with `+∞`-normed padding that can never win a strict-`<`
    /// race) the values of eight consecutive centroids sit, for a fixed
    /// dimension `j`, in two contiguous vector lanes. The micro-kernel
    /// evaluates **four rows × eight centroids** per pass: one broadcast
    /// per row element, two packed loads per dimension, eight independent
    /// FMA accumulators, every accumulator in a register across the whole
    /// `d` loop. The winner scan is vectorized: scores `‖c‖² − 2·dot` from
    /// one `fnmadd` per lane (bitwise the scalar formula), and per lane a
    /// champion, its index and a runner-up kept by strict-`<` blends, as in
    /// [`gemm_tile_avx512`]; the four lanes reduce to the row's first
    /// minimum and runner-up.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_tile_fma(
        block: &[f64],
        panel: &CentroidPanel,
        best: &mut [u32],
        slack: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let (d, kp, m) = (panel.d, panel.kp, best.len());
        assert!(kp % 8 == 0 && panel.packed.len() >= kp * d && panel.cnorms.len() >= kp);
        assert!(m > 0 && slack.len() == m && block.len() == m * d);
        let pk = panel.packed.as_ptr();
        let pcn = panel.cnorms.as_ptr();
        let iota = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let two = _mm256_set1_pd(2.0);
        let inf = _mm256_set1_pd(f64::INFINITY);
        for r in (0..m).step_by(4) {
            let rows = group(block, d, m, r);
            // Per row and lane: champion, runner-up, champion index (as
            // f64, exact); lane `l` sees candidates `l`, `l + 4`, … in
            // ascending order.
            let (mut vs, mut v2, mut vi) = ([inf; 4], [inf; 4], [_mm256_setzero_pd(); 4]);
            for c8 in (0..kp).step_by(8) {
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
                for (h, c) in [c8, c8 + 4].into_iter().enumerate() {
                    let cn = _mm256_loadu_pd(pcn.add(c));
                    let idx = _mm256_add_pd(iota, _mm256_set1_pd(c as f64));
                    for rr in 0..4 {
                        let s = _mm256_fnmadd_pd(two, acc[2 * rr + h], cn);
                        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(s, vs[rr]);
                        // A NaN score never displaces a runner-up (see
                        // `gemm_tile_avx512`).
                        v2[rr] = _mm256_blendv_pd(_mm256_min_pd(s, v2[rr]), vs[rr], lt);
                        vs[rr] = _mm256_blendv_pd(vs[rr], s, lt);
                        vi[rr] = _mm256_blendv_pd(vi[rr], idx, lt);
                    }
                }
            }
            for rr in 0..4.min(m - r) {
                let (w, s1, s2) = lanes_fma(vs[rr], v2[rr], vi[rr]);
                let xnorm = sqnorm(&block[(r + rr) * d..(r + rr + 1) * d]);
                (best[r + rr], slack[r + rr]) = (w, panel.slack(xnorm, s1, s2, 1.0));
            }
        }
    }

    /// The AVX-512 variant of [`gemm_tile_fma`]: the same packed-transpose
    /// layout (`k` padded to 16), with the panel scored in **four rows ×
    /// thirty-two centroids** passes ([`pass`] with four column groups:
    /// four 8-wide panel loads and four broadcasts feed sixteen independent
    /// zmm FMA accumulators per dimension) and, when `kp % 32 == 16`, one
    /// **four rows × sixteen centroids** pass for the last sixteen columns.
    /// Before each 4-row group it hints the group [`PF`] rows ahead into
    /// cache, within the block. With `probe` it returns how many rows'
    /// gaps fail the f32 certificate ([`CentroidPanel::slack32`]), else 0.
    ///
    /// Each lane sees its columns `l`, `l + 8`, `l + 16`, … in ascending
    /// order whatever the pass width, and each dot product is one FMA chain
    /// over `j`, so the winner and runner-up do not depend on the width.
    /// `WIDE = false` scores the whole panel in sixteen-column passes: the
    /// scorer as it was before the 32-column block, which the tests keep
    /// as its oracle.
    ///
    /// The winner scan is vectorized too: scores `‖c‖² − 2·dot` come from
    /// one `fnmadd` per lane (the `2·dot` scale is exact, so each score
    /// rounds exactly like the scalar formula). Each lane keeps its
    /// champion, the champion's index and its runner-up: a masked
    /// strict-`<` blend promotes a smaller score and demotes the old
    /// champion, and any other score lowers the runner-up. The final
    /// 8-lane reduction takes the least score and, among the lanes holding
    /// it, the lowest index — the scalar first-minimum discipline — and
    /// the row's runner-up is the least of every other lane's champion and
    /// every lane's runner-up.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512<const WIDE: bool>(
        block: &[f64],
        panel: &CentroidPanel,
        best: &mut [u32],
        slack: &mut [f64],
        probe: bool,
    ) -> u64 {
        use std::arch::x86_64::*;
        let (d, kp, m) = (panel.d, panel.kp, best.len());
        assert!(kp % 16 == 0 && panel.packed.len() >= kp * d && panel.cnorms.len() >= kp);
        assert!(m > 0 && slack.len() == m && block.len() == m * d);
        let wide_end = if WIDE { kp - kp % 32 } else { 0 };
        let inf = _mm512_set1_pd(f64::INFINITY);
        let mut misses = 0;
        for r in (0..m).step_by(4) {
            prefetch_row(&block[(r + PF).min(m) * d..(r + PF + 4).min(m) * d]);
            let rows = group(block, d, m, r);
            let mut lanes = Lanes { vs: [inf; 4], v2: [inf; 4], vi: [_mm512_setzero_si512(); 4] };
            for c in (0..wide_end).step_by(32) {
                pass::<4>(&rows, panel, c, &mut lanes);
            }
            for c in (wide_end..kp).step_by(16) {
                pass::<2>(&rows, panel, c, &mut lanes);
            }
            for rr in 0..4.min(m - r) {
                let (w, s1, s2) = lanes_avx512(lanes.vs[rr], lanes.v2[rr], lanes.vi[rr]);
                let xnorm = sqnorm(&block[(r + rr) * d..(r + rr + 1) * d]);
                (best[r + rr], slack[r + rr]) = (w, panel.slack(xnorm, s1, s2, 1.0));
                if probe {
                    // A NaN slack fails too.
                    let slack32 = panel.slack32(xnorm, s1, s2);
                    misses += u64::from(slack32.is_nan() || slack32 <= 0.0);
                }
            }
        }
        misses
    }

    /// Per row of a 4-row group and per lane: the champion score, the
    /// runner-up and the champion's index.
    struct Lanes {
        vs: [__m512d; 4],
        v2: [__m512d; 4],
        vi: [__m512i; 4],
    }

    /// One [`gemm_tile_avx512`] pass: the four rows at `rows` against the
    /// `8·G` panel columns from `c` on, `4·G` FMA accumulators over the
    /// whole `d` loop, then each column group's scores offered to `lanes`
    /// in ascending column order.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support at runtime; `rows` must
    /// point at `d` readable values each and `c + 8·G ≤ kp`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn pass<const G: usize>(
        rows: &[*const f64; 4],
        panel: &CentroidPanel,
        c: usize,
        lanes: &mut Lanes,
    ) {
        use std::arch::x86_64::*;
        let (d, kp) = (panel.d, panel.kp);
        let pb = panel.packed.as_ptr().add(c);
        let mut acc = [[_mm512_setzero_pd(); G]; 4];
        for j in 0..d {
            let mut b = [_mm512_setzero_pd(); G];
            for (g, bg) in b.iter_mut().enumerate() {
                *bg = _mm512_loadu_pd(pb.add(j * kp + 8 * g));
            }
            for (acc, row) in acc.iter_mut().zip(rows) {
                let a = _mm512_set1_pd(*row.add(j));
                for (acc, &bg) in acc.iter_mut().zip(&b) {
                    *acc = _mm512_fmadd_pd(a, bg, *acc);
                }
            }
        }
        let (iota, two) = (_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0), _mm512_set1_pd(2.0));
        for g in 0..G {
            let cg = c + 8 * g;
            let cn = _mm512_loadu_pd(panel.cnorms.as_ptr().add(cg));
            let idx = _mm512_add_epi64(iota, _mm512_set1_epi64(cg as i64));
            for (rr, acc) in acc.iter().enumerate() {
                let s = _mm512_fnmadd_pd(two, acc[g], cn);
                let (vs, v2, vi) = (&mut lanes.vs[rr], &mut lanes.v2[rr], &mut lanes.vi[rr]);
                let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s, *vs);
                // `min_pd` returns its second operand when either is NaN:
                // a NaN score never displaces a runner-up.
                *v2 = _mm512_mask_blend_pd(lt, _mm512_min_pd(s, *v2), *vs);
                *vs = _mm512_mask_blend_pd(lt, *vs, s);
                *vi = _mm512_mask_blend_epi64(lt, *vi, idx);
            }
        }
    }

    /// The f32 twin of [`gemm_tile_avx512`]: the panel's f32 half
    /// (`packed32`, `cnorms32`) scored in **four rows × sixty-four
    /// centroids** passes ([`pass32`] with four column groups: one zmm
    /// holds sixteen f32 lanes, so the pass keeps the same sixteen
    /// accumulators as the f64 4 × 32 pass at half the FMAs per distance),
    /// then a 4 × 32 and a 4 × 16 pass for what `kp % 64` leaves. The rows
    /// stay f64: each 4-row group is rounded into `xs` (grow-only) once and
    /// broadcast from there. Each row's slack is the f32 certificate
    /// ([`CentroidPanel::slack32`]), from its f64 `‖x‖²`.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512_f32(
        block: &[f64],
        panel: &CentroidPanel,
        best: &mut [u32],
        slack: &mut [f64],
        xs: &mut Vec<f32>,
    ) {
        use std::arch::x86_64::*;
        let (d, kp, m) = (panel.d, panel.kp, best.len());
        assert!(kp % 16 == 0 && panel.packed32.len() >= kp * d && panel.cnorms32.len() >= kp);
        assert!(m > 0 && d > 0 && slack.len() == m && block.len() == m * d);
        if xs.len() < 4 * d {
            xs.resize(4 * d, 0.0);
        }
        let wide_end = kp - kp % 64;
        let inf = _mm512_set1_ps(f32::INFINITY);
        for r in (0..m).step_by(4) {
            prefetch_row(&block[(r + PF).min(m) * d..(r + PF + 4).min(m) * d]);
            for (i, x) in xs.chunks_exact_mut(d).take(4).enumerate() {
                let row = &block[(r + i).min(m - 1) * d..][..d];
                for (o, &v) in x.iter_mut().zip(row) {
                    *o = v as f32;
                }
            }
            let mut lanes = Lanes32 { vs: [inf; 4], v2: [inf; 4], vi: [_mm512_setzero_si512(); 4] };
            for c in (0..wide_end).step_by(64) {
                pass32::<4>(xs, panel, c, &mut lanes);
            }
            let mut c = wide_end;
            if kp - c >= 32 {
                pass32::<2>(xs, panel, c, &mut lanes);
                c += 32;
            }
            if kp > c {
                pass32::<1>(xs, panel, c, &mut lanes);
            }
            for rr in 0..4.min(m - r) {
                let (w, s1, s2) = lanes_avx512_f32(lanes.vs[rr], lanes.v2[rr], lanes.vi[rr]);
                let xnorm = sqnorm(&block[(r + rr) * d..(r + rr + 1) * d]);
                let sl = panel.slack32(xnorm, f64::from(s1), f64::from(s2));
                (best[r + rr], slack[r + rr]) = (w, sl);
            }
        }
    }

    /// [`Lanes`] for sixteen f32 lanes.
    struct Lanes32 {
        vs: [__m512; 4],
        v2: [__m512; 4],
        vi: [__m512i; 4],
    }

    /// One [`gemm_tile_avx512_f32`] pass: the four rounded rows in `xs`
    /// (`d` values each) against the `16·G` f32 panel columns from `c` on,
    /// as [`pass`] does in f64.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support at runtime;
    /// `xs.len() ≥ 4·d` and `c + 16·G ≤ kp`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn pass32<const G: usize>(
        xs: &[f32],
        panel: &CentroidPanel,
        c: usize,
        lanes: &mut Lanes32,
    ) {
        use std::arch::x86_64::*;
        let (d, kp) = (panel.d, panel.kp);
        let (pb, px) = (panel.packed32.as_ptr().add(c), xs.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); G]; 4];
        for j in 0..d {
            let mut b = [_mm512_setzero_ps(); G];
            for (g, bg) in b.iter_mut().enumerate() {
                *bg = _mm512_loadu_ps(pb.add(j * kp + 16 * g));
            }
            for (rr, acc) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*px.add(rr * d + j));
                for (acc, &bg) in acc.iter_mut().zip(&b) {
                    *acc = _mm512_fmadd_ps(a, bg, *acc);
                }
            }
        }
        let iota = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let two = _mm512_set1_ps(2.0);
        for g in 0..G {
            let cg = c + 16 * g;
            let cn = _mm512_loadu_ps(panel.cnorms32.as_ptr().add(cg));
            let idx = _mm512_add_epi32(iota, _mm512_set1_epi32(cg as i32));
            for (rr, acc) in acc.iter().enumerate() {
                let s = _mm512_fnmadd_ps(two, acc[g], cn);
                let (vs, v2, vi) = (&mut lanes.vs[rr], &mut lanes.v2[rr], &mut lanes.vi[rr]);
                let lt = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(s, *vs);
                *v2 = _mm512_mask_blend_ps(lt, _mm512_min_ps(s, *v2), *vs);
                *vs = _mm512_mask_blend_ps(lt, *vs, s);
                *vi = _mm512_mask_blend_epi32(lt, *vi, idx);
            }
        }
    }

    /// One row through the [`gemm_tile_fma`] layout: per eight-column pass,
    /// dimension `j` feeds chain `j % 4` of each 4-lane half, so eight
    /// independent FMA chains hide the latency one row's two would expose.
    /// The chains add pairwise, then the pass scores and keeps per lane a
    /// champion, its index and a runner-up, as the tile scorer does.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_row_fma(x: &[f64], panel: &CentroidPanel) -> (u32, f64) {
        use std::arch::x86_64::*;
        let (d, kp) = (panel.d, panel.kp);
        assert!(kp % 8 == 0 && panel.packed.len() >= kp * d && panel.cnorms.len() >= kp);
        assert!(x.len() == d);
        let (pk, pcn, px) = (panel.packed.as_ptr(), panel.cnorms.as_ptr(), x.as_ptr());
        let iota = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let two = _mm256_set1_pd(2.0);
        let inf = _mm256_set1_pd(f64::INFINITY);
        let (mut vs, mut v2, mut vi) = (inf, inf, _mm256_setzero_pd());
        for c8 in (0..kp).step_by(8) {
            let pb = pk.add(c8);
            let mut acc = [_mm256_setzero_pd(); 8];
            // Unrolled by four, so every chain index is a constant and the
            // accumulators stay in registers; the tail feeds chain 0.
            for j in (0..d - d % 4).step_by(4) {
                for p in 0..4 {
                    let a = _mm256_set1_pd(*px.add(j + p));
                    let b = pb.add((j + p) * kp);
                    acc[2 * p] = _mm256_fmadd_pd(a, _mm256_loadu_pd(b), acc[2 * p]);
                    acc[2 * p + 1] = _mm256_fmadd_pd(a, _mm256_loadu_pd(b.add(4)), acc[2 * p + 1]);
                }
            }
            for j in d - d % 4..d {
                let (a, b) = (_mm256_set1_pd(*px.add(j)), pb.add(j * kp));
                acc[0] = _mm256_fmadd_pd(a, _mm256_loadu_pd(b), acc[0]);
                acc[1] = _mm256_fmadd_pd(a, _mm256_loadu_pd(b.add(4)), acc[1]);
            }
            for h in 0..2 {
                let dot = _mm256_add_pd(
                    _mm256_add_pd(acc[h], acc[h + 2]),
                    _mm256_add_pd(acc[h + 4], acc[h + 6]),
                );
                let c = c8 + 4 * h;
                let s = _mm256_fnmadd_pd(two, dot, _mm256_loadu_pd(pcn.add(c)));
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(s, vs);
                v2 = _mm256_blendv_pd(_mm256_min_pd(s, v2), vs, lt);
                vs = _mm256_blendv_pd(vs, s, lt);
                vi = _mm256_blendv_pd(vi, _mm256_add_pd(iota, _mm256_set1_pd(c as f64)), lt);
            }
        }
        let (w, s1, s2) = lanes_fma(vs, v2, vi);
        (w, panel.slack(sqnorm(x), s1, s2, ROW_MARGIN))
    }

    /// One row through the [`gemm_tile_avx512`] layout: per sixteen-column
    /// pass, dimension `j` feeds chain `j % 4` of each 8-lane half (eight
    /// independent FMA chains), the chains add pairwise, and the scores go
    /// through the same per-lane champion, index and runner-up and the same
    /// reduction as the tile scorer's.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_row_avx512(x: &[f64], panel: &CentroidPanel) -> (u32, f64) {
        use std::arch::x86_64::*;
        let (d, kp) = (panel.d, panel.kp);
        assert!(kp % 16 == 0 && panel.packed.len() >= kp * d && panel.cnorms.len() >= kp);
        assert!(x.len() == d);
        let (pk, pcn, px) = (panel.packed.as_ptr(), panel.cnorms.as_ptr(), x.as_ptr());
        let iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let two = _mm512_set1_pd(2.0);
        let inf = _mm512_set1_pd(f64::INFINITY);
        let (mut vs, mut v2, mut vi) = (inf, inf, _mm512_setzero_si512());
        for c16 in (0..kp).step_by(16) {
            let pb = pk.add(c16);
            let mut acc = [_mm512_setzero_pd(); 8];
            // Unrolled by four, so every chain index is a constant and the
            // accumulators stay in registers; the tail feeds chain 0.
            for j in (0..d - d % 4).step_by(4) {
                for p in 0..4 {
                    let a = _mm512_set1_pd(*px.add(j + p));
                    let b = pb.add((j + p) * kp);
                    acc[2 * p] = _mm512_fmadd_pd(a, _mm512_loadu_pd(b), acc[2 * p]);
                    acc[2 * p + 1] = _mm512_fmadd_pd(a, _mm512_loadu_pd(b.add(8)), acc[2 * p + 1]);
                }
            }
            for j in d - d % 4..d {
                let (a, b) = (_mm512_set1_pd(*px.add(j)), pb.add(j * kp));
                acc[0] = _mm512_fmadd_pd(a, _mm512_loadu_pd(b), acc[0]);
                acc[1] = _mm512_fmadd_pd(a, _mm512_loadu_pd(b.add(8)), acc[1]);
            }
            for h in 0..2 {
                let dot = _mm512_add_pd(
                    _mm512_add_pd(acc[h], acc[h + 2]),
                    _mm512_add_pd(acc[h + 4], acc[h + 6]),
                );
                let c = c16 + 8 * h;
                let s = _mm512_fnmadd_pd(two, dot, _mm512_loadu_pd(pcn.add(c)));
                let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s, vs);
                v2 = _mm512_mask_blend_pd(lt, _mm512_min_pd(s, v2), vs);
                vs = _mm512_mask_blend_pd(lt, vs, s);
                vi = _mm512_mask_blend_epi64(
                    lt,
                    vi,
                    _mm512_add_epi64(iota, _mm512_set1_epi64(c as i64)),
                );
            }
        }
        let (w, s1, s2) = lanes_avx512(vs, v2, vi);
        (w, panel.slack(sqnorm(x), s1, s2, ROW_MARGIN))
    }

    /// An AVX2 scorer's four lanes to its row's winner, the winner's score
    /// and the runner-up: the least champion with the lowest index among
    /// equals, and the least of every lane's runner-up and every other
    /// lane's champion. A safe `#[target_feature]` function, like
    /// [`lanes_avx512`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes_fma(vs: __m256d, v2: __m256d, vi: __m256d) -> (u32, f64, f64) {
        let (sv, s2v, iv) = (lanes4(vs), lanes4(v2), lanes4(vi));
        let mut lane = 0;
        for l in 1..4 {
            if sv[l] < sv[lane] || (sv[l] == sv[lane] && iv[l] < iv[lane]) {
                lane = l;
            }
        }
        let mut s2 = f64::INFINITY;
        for l in 0..4 {
            s2 = s2.min(s2v[l]);
            if l != lane {
                s2 = s2.min(sv[l]);
            }
        }
        (iv[lane] as u32, sv[lane], s2)
    }

    /// The four lanes of `v`, lowest first.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes4(v: __m256d) -> [f64; 4] {
        use std::arch::x86_64::*;
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        [
            _mm_cvtsd_f64(lo),
            _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
            _mm_cvtsd_f64(hi),
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
        ]
    }

    /// An AVX-512 scorer's eight lanes to its row's winner, the winner's
    /// score and the runner-up: the least champion, the lowest index among
    /// the lanes holding it, and the runner-up — that score again if two
    /// lanes hold it, else the least of every lane's runner-up and every
    /// other champion. A safe `#[target_feature]` function: it touches no
    /// memory, and only the AVX-512F scorers above, which have the feature,
    /// can call it without `unsafe`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes_avx512(vs: __m512d, v2: __m512d, vi: __m512i) -> (u32, f64, f64) {
        use std::arch::x86_64::*;
        let s1 = _mm512_reduce_min_pd(vs);
        let at = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(vs, _mm512_set1_pd(s1));
        let w = _mm512_mask_reduce_min_epi64(at, vi) as u32;
        let s2 = if at.count_ones() > 1 {
            s1
        } else {
            let others = _mm512_mask_blend_pd(at, vs, _mm512_set1_pd(f64::INFINITY));
            _mm512_reduce_min_pd(_mm512_min_pd(v2, others))
        };
        (w, s1, s2)
    }

    /// [`lanes_avx512`] for sixteen f32 lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes_avx512_f32(vs: __m512, v2: __m512, vi: __m512i) -> (u32, f32, f32) {
        use std::arch::x86_64::*;
        let s1 = _mm512_reduce_min_ps(vs);
        let at = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(vs, _mm512_set1_ps(s1));
        let w = _mm512_mask_reduce_min_epi32(at, vi) as u32;
        let s2 = if at.count_ones() > 1 {
            s1
        } else {
            let others = _mm512_mask_blend_ps(at, vs, _mm512_set1_ps(f32::INFINITY));
            _mm512_reduce_min_ps(_mm512_min_ps(v2, others))
        };
        (w, s1, s2)
    }
}

/// [`Scorer::Portable`]: four rows at a time against the row-major
/// centroids (each centroid load shared by the four), un-fused [`dot4`]
/// products, the same [`offer`] discipline.
fn gemm_portable(
    block: &[f64],
    cents: &Centroids,
    panel: &CentroidPanel,
    best: &mut [u32],
    slack: &mut [f64],
) {
    let (d, m) = (cents.d, best.len());
    for r in (0..m).step_by(4) {
        let rows: [&[f64]; 4] = std::array::from_fn(|i| {
            let i = (r + i).min(m - 1);
            &block[i * d..(i + 1) * d]
        });
        let (mut w, mut s1, mut s2) = ([0u32; 4], [f64::INFINITY; 4], [f64::INFINITY; 4]);
        for (c, mean) in cents.means.chunks_exact(d).enumerate() {
            for (rr, dp) in dot4(&rows, mean).into_iter().enumerate() {
                offer(panel.cnorms[c] - 2.0 * dp, c, &mut w[rr], &mut s1[rr], &mut s2[rr]);
            }
        }
        for rr in 0..4.min(m - r) {
            let xnorm = sqnorm(rows[rr]);
            (best[r + rr], slack[r + rr]) = (w[rr], panel.slack(xnorm, s1[rr], s2[rr], 1.0));
        }
    }
}

/// [`Scorer::Portable`] for one row: [`dot`] against each row-major
/// centroid, the [`offer`] discipline, the slack at [`ROW_MARGIN`].
fn gemm_row_portable(x: &[f64], cents: &Centroids, panel: &CentroidPanel) -> (u32, f64) {
    let (mut w, mut s1, mut s2) = (0u32, f64::INFINITY, f64::INFINITY);
    for (c, mean) in cents.means.chunks_exact(x.len().max(1)).enumerate() {
        offer(panel.cnorms[c] - 2.0 * dot(x, mean), c, &mut w, &mut s1, &mut s2);
    }
    (w, panel.slack(sqnorm(x), s1, s2, ROW_MARGIN))
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

/// Dot products of four rows with one centroid, each bitwise [`dot`].
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `nearest` per row: winners and the bits of their distances.
    fn reference(block: &[f64], d: usize, cents: &Centroids) -> (Vec<u32>, Vec<u64>) {
        block
            .chunks_exact(d)
            .map(|row| {
                let (a, da) = nearest(row, &cents.means, cents.k());
                (a as u32, da.to_bits())
            })
            .unzip()
    }

    /// `rk` through [`assign_rows`] with distances, as [`reference`] reports.
    fn assigned(
        block: &[f64],
        d: usize,
        cents: &Centroids,
        rk: &ResolvedKernel,
    ) -> (Vec<u32>, Vec<u64>) {
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        assign_rows(block, d, cents, rk, &[], &mut best, &mut dist, true);
        (best, bits(&dist))
    }

    /// One scorer, called directly, in f64 or (`f32`) through its f32
    /// twin, then certified as [`assign_rows_packed`] certifies the host's:
    /// winners, distance bits, re-scanned rows.
    fn certified(
        s: Scorer,
        f32: bool,
        block: &[f64],
        d: usize,
        cents: &Centroids,
    ) -> (Vec<u32>, Vec<u64>, u64) {
        let mut panel = CentroidPanel::default();
        panel.pack(cents);
        let m = block.len() / d;
        let (mut best, mut slack, mut xs) = (vec![0; m], vec![0.0; m], Vec::new());
        let precision = if f32 { Precision::F32 } else { Precision::F64 };
        s.scan(block, cents, &panel, &mut best, &mut slack, precision, &mut xs);
        let rescored = certify(block, d, cents, &mut best, &mut slack, Finish::Distances);
        (best, bits(&slack), rescored)
    }

    /// Every scorer this host can run: on an AVX-512 host all three, since
    /// a 16-lane panel is also whole 8-lane passes.
    fn host_scorers() -> Vec<Scorer> {
        [Scorer::Avx512, Scorer::Fma, Scorer::Portable].into_iter().filter(|s| s.usable()).collect()
    }

    /// Every block scorer this host can run, as `(scorer, f32)`: the f64
    /// ones and, on an AVX-512 host, the f32 twin.
    fn block_scorers() -> Vec<(Scorer, bool)> {
        let f32 = Scorer::Avx512.usable().then_some((Scorer::Avx512, true));
        host_scorers().into_iter().map(|s| (s, false)).chain(f32).collect()
    }

    /// Certified gemm is `nearest` bit for bit across the awkward shapes:
    /// `d % 4 != 0`, `k = 1`, blocks smaller than a 4-row group, pad
    /// columns on both panel widths.
    #[test]
    fn gemm_is_bitwise_the_reference() {
        for (m, k, d, seed) in [
            (1, 1, 3, 11u64),
            (3, 1, 5, 12),
            (3, 5, 7, 2),
            (4, 7, 9, 13),
            (4, 8, 8, 3),
            (50, 9, 6, 14),
            (33, 16, 11, 15),
            (67, 40, 13, 16),
            (130, 65, 7, 17),
        ] {
            let (block, cents) = random_case(m, k, d, seed);
            let rk = KernelKind::Gemm.resolve(k, d, false);
            let want = reference(&block, d, &cents);
            assert_eq!(assigned(&block, d, &cents, &rk), want, "case {m}x{k}x{d}");
            // Without distances the winners are still `nearest`'s.
            let (mut best, mut scratch) = (Vec::new(), Vec::new());
            assign_rows(&block, d, &cents, &rk, &[], &mut best, &mut scratch, false);
            assert_eq!(best, want.0, "case {m}x{k}x{d}, no distances");
        }
    }

    #[test]
    fn ties_break_to_lower_index() {
        // Two identical centroids produce identical scores: the runner-up
        // ties the winner, no row is certified, and `nearest` keeps index 0.
        let block = vec![0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5];
        let cents = Centroids { means: vec![1.0; 8], counts: vec![0; 2], d: 4 };
        let rk = KernelKind::Gemm.resolve(2, 4, false);
        let mut panel = CentroidPanel::default();
        panel.pack(&cents);
        let (mut best, mut dist) = (Vec::new(), Vec::new());
        let counts = assign_rows_packed(
            &block,
            4,
            &cents,
            &rk,
            &panel,
            &mut best,
            &mut dist,
            Finish::Distances,
            Precision::F64,
            &mut Vec::new(),
        );
        assert_eq!((best, counts.rescored_rows, counts.f32_rows), (vec![0, 0], 2, 0));
    }

    /// On separated data every row is certified; with every centroid
    /// duplicated none is, and the re-scan still gives `nearest`'s bits.
    #[test]
    fn rescored_rows_are_the_uncertified_ones() {
        let (block, cents) = random_case(101, 12, 9, 8);
        for (s, f32) in block_scorers() {
            let (.., rescored) = certified(s, f32, &block, 9, &cents);
            assert_eq!(rescored, 0, "{s:?} f32={f32}");
            let twice = Centroids {
                means: [cents.means.as_slice(), &cents.means].concat(),
                counts: vec![0; 24],
                d: 9,
            };
            let (best, dist, rescored) = certified(s, f32, &block, 9, &twice);
            assert_eq!((best, dist), reference(&block, 9, &twice), "{s:?} f32={f32}");
            assert_eq!(rescored, 101, "{s:?} f32={f32}");
        }
    }

    /// Iteration 0's probe counts the rows the f32 twin would fail: none on
    /// separated data, every row against duplicated centroids. It scores
    /// in f64, so its winners are the plain scan's.
    #[test]
    fn the_probe_counts_f32_misses() {
        if !Scorer::Avx512.usable() {
            return;
        }
        let (block, cents) = random_case(101, 12, 9, 8);
        let twice = Centroids {
            means: [cents.means.as_slice(), &cents.means].concat(),
            counts: vec![0; 24],
            d: 9,
        };
        for (cs, want) in [(&cents, 0), (&twice, 101)] {
            let mut panel = CentroidPanel::default();
            panel.pack(cs);
            let rk = KernelKind::Gemm.resolve(cs.k(), 9, false);
            let (mut best, mut dist, probe) = (Vec::new(), Vec::new(), Precision::F64Probe);
            let c = assign_rows_packed(
                &block,
                9,
                cs,
                &rk,
                &panel,
                &mut best,
                &mut dist,
                Finish::Distances,
                probe,
                &mut Vec::new(),
            );
            assert_eq!((best, c.f32_misses, c.f32_rows), (reference(&block, 9, cs).0, want, 0));
        }
    }

    /// The f32 certificate's margin is DESIGN.md §7's bound,
    /// `(8(d+4) + 16)·2⁻²⁴·(‖x‖² + 2·max‖c‖²) + 4d·2⁻¹²⁶`: a gap just above
    /// it certifies, one just below does not. Every correctness test would
    /// still pass with a somewhat smaller margin (the bound is not tight),
    /// so this is what pins it.
    #[test]
    fn f32_margin_is_the_derived_bound() {
        for d in [1usize, 3, 32, 1000] {
            let (_, cents) = random_case(1, 5, d, d as u64);
            let mut panel = CentroidPanel::default();
            panel.pack(&cents);
            let cmax = (0..5).map(|c| sqnorm(cents.mean(c))).fold(0.0, f64::max);
            let xnorm = 3.5 * d as f64;
            let u = 2f64.powi(-24);
            let margin = (8.0 * (d as f64 + 4.0) + 16.0) * u * (xnorm + 2.0 * cmax)
                + 4.0 * d as f64 * 2f64.powi(-126);
            assert!(panel.slack32(xnorm, -1.0, -1.0 + margin * 1.001) > 0.0, "d={d}");
            assert!(panel.slack32(xnorm, -1.0, -1.0 + margin * 0.999) <= 0.0, "d={d}");
        }
    }

    /// Every one-row scorer the host can run, at every chain remainder
    /// (`d % 4`) and panel width: on separated data it certifies every row
    /// with `nearest`'s winner, as [`certified_row`] does; with every
    /// centroid duplicated it certifies none.
    #[test]
    fn row_scorers_certify_nearest() {
        for d in [1usize, 3, 7, 32, 257] {
            for k in [1usize, 2, 17, 64] {
                let (block, cents) = random_case(29, k, d, (d * 1000 + k) as u64);
                let want = reference(&block, d, &cents).0;
                let mut panel = CentroidPanel::default();
                panel.pack(&cents);
                let twice = Centroids {
                    means: [cents.means.as_slice(), &cents.means].concat(),
                    counts: vec![0; 2 * k],
                    d,
                };
                let mut doubled = CentroidPanel::default();
                doubled.pack(&twice);
                for (i, row) in block.chunks_exact(d).enumerate() {
                    let what = format!("k={k} d={d} row {i}");
                    assert_eq!(
                        certified_row(row, &cents, &panel),
                        Some(want[i] as usize),
                        "{what}"
                    );
                    assert_eq!(certified_row(row, &twice, &doubled), None, "{what}");
                    for s in host_scorers() {
                        let (w, slack) = s.row(row, &cents, &panel);
                        assert!(slack > 0.0 && w == want[i], "{s:?} {what}: {w} {slack}");
                        let slack = s.row(row, &twice, &doubled).1;
                        assert!(slack <= 0.0 || slack.is_nan(), "{s:?} {what}: {slack}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_shape_picks_the_kernel() {
        // Tiny k·d takes scalar; everything else takes gemm.
        assert_eq!(ResolvedKernel::for_shape(4, 8).kind, ResolvedKind::Scalar);
        assert_eq!(ResolvedKernel::for_shape(8, 8).kind, ResolvedKind::Scalar);
        assert_eq!(ResolvedKernel::for_shape(13, 5).kind, ResolvedKind::Gemm);
        assert_eq!(ResolvedKernel::for_shape(64, 32).kind, ResolvedKind::Gemm);
        // `Auto` is the shape's choice, pruned or not; the forced kinds
        // keep its tiles.
        for (k, d) in [(4usize, 8usize), (13, 5), (64, 32)] {
            let shaped = ResolvedKernel::for_shape(k, d);
            for pruning in [false, true] {
                assert_eq!(KernelKind::Auto.resolve(k, d, pruning), shaped);
                let forced =
                    [KernelKind::Scalar, KernelKind::Gemm].map(|kind| kind.resolve(k, d, pruning));
                assert_eq!(forced.map(|rk| rk.kind), [ResolvedKind::Scalar, ResolvedKind::Gemm]);
                assert!(forced.iter().all(|rk| rk.row_tile == shaped.row_tile));
            }
        }
        // Tile sizes shrink as d grows.
        let small_d = ResolvedKernel::for_shape(100, 4);
        let large_d = ResolvedKernel::for_shape(100, 500);
        assert!(small_d.row_tile >= large_d.row_tile);
        assert!(small_d.cent_tile >= large_d.cent_tile);
        assert!(large_d.row_tile >= 8 && large_d.cent_tile >= 4);
    }

    /// `Tiled`, `Fma` and `NormTrick` are names the benchmark harness
    /// (`knor_bench`) compiles against, nothing more: on both sides of the
    /// cutoff, pruned or not, they resolve as `Gemm` does and scan the same
    /// bits.
    #[test]
    fn tiled_fma_and_norm_are_spellings_of_gemm() {
        // k·d = 64, 65, 2047, 2048, 4000.
        for (k, d) in [(8usize, 8usize), (13, 5), (23, 89), (64, 32), (40, 100)] {
            let (block, cents) = random_case(37, k, d, (k * d) as u64);
            for pruning in [false, true] {
                let gemm = KernelKind::Gemm.resolve(k, d, pruning);
                for alias in [KernelKind::Tiled, KernelKind::Fma, KernelKind::NormTrick] {
                    let rk = alias.resolve(k, d, pruning);
                    assert_eq!(rk, gemm, "{k}x{d} pruning={pruning}");
                    assert_eq!(
                        assigned(&block, d, &cents, &rk),
                        assigned(&block, d, &cents, &gemm),
                        "{k}x{d} pruning={pruning}"
                    );
                }
            }
        }
    }

    /// Every scorer this host can run, called directly: on an AVX host
    /// `assign_rows` never reaches the portable one, yet it is what a host
    /// without FMA runs, at every `d`. The last centroid duplicates the
    /// first, so a row nearest to it ties exactly and must keep the first.
    #[test]
    fn every_scorer_matches_the_reference() {
        let m = 13;
        for d in [1usize, 7, 256, 257, 600] {
            for k in [1usize, 8, 17, 64] {
                let (mut block, mut cents) = random_case(m, k, d, (d * 100 + k) as u64);
                let first = cents.mean(0).to_vec();
                cents.means[(k - 1) * d..].copy_from_slice(&first);
                for (x, c) in block.iter_mut().zip(&first) {
                    *x = c + 0.5;
                }
                let want = reference(&block, d, &cents);
                for (s, f32) in block_scorers() {
                    let (best, dist, _) = certified(s, f32, &block, d, &cents);
                    assert_eq!((best, dist), want, "{s:?} f32={f32} {k}x{d}");
                }
            }
        }
    }

    /// The AVX-512 scorer's raw `(best, slack)` bits, with or without its
    /// 32-column passes.
    fn avx512<const WIDE: bool>(
        block: &[f64],
        cents: &Centroids,
        panel: &CentroidPanel,
    ) -> (Vec<u32>, Vec<u64>) {
        let m = block.len() / cents.d;
        let (mut best, mut slack) = (vec![0; m], vec![0.0; m]);
        Scorer::Avx512.scan_by::<WIDE>(
            block,
            cents,
            panel,
            &mut best,
            &mut slack,
            Precision::F64,
            &mut Vec::new(),
        );
        (best, bits(&slack))
    }

    /// The AVX-512 scorer's 32-column passes and their 16-column tail give
    /// the `(best, slack)` bits of 16-column passes alone, at every panel
    /// remainder (`kp % 32` is 0 or 16) and at group counts that end at,
    /// before and past the prefetch distance. The last centroid duplicates
    /// the first, so some rows have a zero gap and an uncertified slack.
    #[test]
    fn avx512_blocks_are_bitwise_the_16_column_pass() {
        if !Scorer::Avx512.usable() {
            return;
        }
        for d in [7usize, 32] {
            for k in [1usize, 16, 17, 32, 33, 48, 49, 64, 80] {
                for m in [1usize, 3, 4, 5, 8, 9, 12, 37, 512] {
                    let (block, mut cents) =
                        random_case(m, k, d, (d * 10_000 + k * 100 + m) as u64);
                    let first = cents.mean(0).to_vec();
                    cents.means[(k - 1) * d..].copy_from_slice(&first);
                    let mut panel = CentroidPanel::default();
                    panel.pack(&cents);
                    assert_eq!(
                        avx512::<true>(&block, &cents, &panel),
                        avx512::<false>(&block, &cents, &panel),
                        "k={k} m={m} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_matches_the_reference_at_large_d() {
        // Two AVX-512 panel widths' worth of dimensions and a ragged tail.
        let d = 515;
        let (block, cents) = random_case(9, 5, d, 21);
        let rk = KernelKind::Gemm.resolve(5, d, false);
        assert_eq!(assigned(&block, d, &cents, &rk), reference(&block, d, &cents));
    }

    /// Spherical's scan: the first maximum of `x·c`, which on data without
    /// near-ties is the naive argmax.
    #[test]
    fn max_dot_rows_is_the_dot_argmax() {
        let (block, cents) = random_case(29, 11, 6, 5);
        let (mut best, mut scratch) = (Vec::new(), Vec::new());
        max_dot_rows(&block, 6, &cents, &mut best, &mut scratch);
        for (row, &b) in block.chunks_exact(6).zip(&best) {
            let dots: Vec<f64> = (0..11).map(|c| dot(row, cents.mean(c))).collect();
            let top = dots.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(dots[b as usize], top);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]
        /// Every host scorer, certified, is `nearest` bit for bit — winner
        /// and distance — on the inputs where a score and a `sqdist` can
        /// disagree: duplicated centroids, rows on the midpoint of two
        /// centroids, rows on a centroid, NaN and ±∞ in rows and centroids,
        /// at scales 1e-150, 1 and 1e150, rows and centroids on one line
        /// whose norms fit `f64` while their distances overflow, and rows
        /// with a coordinate beyond `f32`'s range — where the f32 twin, which
        /// runs here too, scores a wrong winner `−∞` that only its range
        /// guard keeps from being certified.
        #[test]
        fn certified_gemm_is_the_exact_scan(
            shape in (0usize..5, 0usize..7, 0usize..3),
            input in (0usize..6, 0u64..1_000_000),
        ) {
            let (di, ki, mag) = shape;
            let (d, k) = ([1, 3, 7, 32, 257][di], [1, 2, 17, 33, 48, 64, 80][ki]);
            let (kind, seed) = input;
            let scale = [1e-150, 1.0, 1e150][mag];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let m = 37;
            let mut cents = Centroids::zeros(k, d);
            for x in cents.means.iter_mut() {
                *x = rng.gen_range(-5.0..5.0) * scale;
            }
            if k > 2 {
                // A duplicated pair.
                let first = cents.mean(0).to_vec();
                cents.means[(k - 1) * d..].copy_from_slice(&first);
            }
            let mut block: Vec<f64> = (0..m * d).map(|_| rng.gen_range(-5.0..5.0) * scale).collect();
            for (i, row) in block.chunks_exact_mut(d).enumerate() {
                let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
                match (kind, i % 3) {
                    // On the midpoint of two centroids.
                    (1, _) | (3, 0) => {
                        for (j, x) in row.iter_mut().enumerate() {
                            *x = 0.5 * cents.mean(a)[j] + 0.5 * cents.mean(b)[j];
                        }
                    }
                    // On a centroid.
                    (2, _) | (3, 1) => row.copy_from_slice(cents.mean(a)),
                    _ => {}
                }
            }
            if kind == 3 {
                // NaN and ±∞ coordinates in a few rows and centroids.
                for (r, x) in [(0usize, f64::NAN), (m / 2, f64::INFINITY), (m - 1, f64::NEG_INFINITY)] {
                    block[r * d + rng.gen_range(0..d)] = x;
                    let c = rng.gen_range(0..k);
                    if rng.gen_range(0..2) == 0 {
                        cents.means[c * d + rng.gen_range(0..d)] = x;
                    }
                }
            }
            if kind == 4 {
                // One line through the origin, rows on one side and
                // centroids on the other: ‖x‖² + 2·max‖c‖² ≈ 0.91·MAX is
                // finite and every distance (≥ 1.02·MAX) rounds to +∞, so
                // `nearest` answers centroid 0 — which scores worst.
                let unit = f64::MAX.sqrt() / (d as f64).sqrt();
                for (c, mean) in cents.means.chunks_exact_mut(d).enumerate() {
                    let b = if c == 0 { 0.55 } else { rng.gen_range(0.46..0.55) };
                    mean.iter_mut().for_each(|x| *x = b * unit);
                }
                block.iter_mut().for_each(|x| *x = -0.55 * unit);
            }
            if kind == 5 && d > 1 && k > 1 {
                f32_trap(&mut block, &mut cents, rng.gen_range(0..k));
            }
            let want = reference(&block, d, &cents);
            let mut panel = CentroidPanel::default();
            panel.pack(&cents);
            for (s, f32) in block_scorers() {
                let (best, dist, _) = certified(s, f32, &block, d, &cents);
                assert_eq!((best, dist), want, "{s:?} f32={f32} k={k} d={d} kind={kind}");
            }
            for s in host_scorers() {
                // The one-row scorer: whatever it certifies is `nearest`'s.
                for (i, row) in block.chunks_exact(d).enumerate() {
                    let (w, slack) = s.row(row, &cents, &panel);
                    if slack > 0.0 {
                        assert_eq!(w, want.0[i], "{s:?} row {i} k={k} d={d} kind={kind}");
                    }
                }
            }
            let rk = KernelKind::Gemm.resolve(k, d, false);
            assert_eq!(assigned(&block, d, &cents, &rk), want, "k={k} d={d} kind={kind}");
        }
    }

    /// Every row gets `x₀ = 10³⁹`, beyond `f32`'s range, and `x₁ = 0`;
    /// every centroid gets `c₀ = −0.01`, but centroid `a` gets `c₀ = +0.01`
    /// and `c₁ = 10¹⁹`. Rounded to `f32`, `x₀` is `+∞`, so `a` scores `−∞`
    /// and every other centroid `+∞`. Exactly, `a` is `4·10³⁷` nearer in
    /// `x₀` but `10³⁸` farther in `x₁`, so `nearest` never takes it.
    fn f32_trap(block: &mut [f64], cents: &mut Centroids, a: usize) {
        let d = cents.d;
        for row in block.chunks_exact_mut(d) {
            (row[0], row[1]) = (1e39, 0.0);
        }
        for (c, mean) in cents.means.chunks_exact_mut(d).enumerate() {
            mean[0] = if c == a { 0.01 } else { -0.01 };
            if c == a {
                mean[1] = 1e19;
            }
        }
    }

    /// The f32 twin's range guard: a row beyond `f32`'s range scores a
    /// wrong winner with an infinite gap, and only the guard
    /// (`‖x‖² + 2·max‖c‖² ≤ f32::MAX/4`) fails its certificate.
    #[test]
    fn f32_range_guard_keeps_rows_beyond_f32_out() {
        if !Scorer::Avx512.usable() {
            return;
        }
        let (mut block, mut cents) = random_case(5, 3, 2, 9);
        f32_trap(&mut block, &mut cents, 1);
        let want = reference(&block, 2, &cents);
        assert!(want.0.iter().all(|&w| w != 1), "the trap's centroid is never nearest");
        let mut panel = CentroidPanel::default();
        panel.pack(&cents);
        let (mut best, mut slack, mut xs) = (vec![0; 5], vec![0.0; 5], Vec::new());
        Scorer::Avx512.scan(&block, &cents, &panel, &mut best, &mut slack, Precision::F32, &mut xs);
        assert_eq!(best, [1; 5], "the f32 scorer's winner is the trap's");
        assert!(slack.iter().all(|s| s.is_nan()), "{slack:?}");
        assert_eq!(certified(Scorer::Avx512, true, &block, 2, &cents), (want.0, want.1, 5));
    }

    /// The f32 twin's oracle: at every panel remainder (`kp % 64` is 0, 16,
    /// 32 or 48, so every pass width and tail order runs), at group counts
    /// that end at, before and past the prefetch distance, and at `d` from
    /// one to past a cache line of rows, the certified f32 scan gives
    /// `nearest`'s winners and distances bit for bit. The last centroid
    /// duplicates the first, so some rows tie exactly and must fall back;
    /// on the rest the certificate holds for all but a few rows.
    #[test]
    fn f32_blocks_are_bitwise_nearest() {
        if !Scorer::Avx512.usable() {
            return;
        }
        let (mut rows, mut misses) = (0, 0);
        for d in [1usize, 7, 32, 257] {
            for k in [1usize, 16, 17, 33, 48, 63, 64, 65, 80, 128] {
                for m in [1usize, 3, 4, 5, 37, 512] {
                    let (block, mut cents) =
                        random_case(m, k, d, (d * 100_000 + k * 1_000 + m) as u64);
                    let first = cents.mean(0).to_vec();
                    cents.means[(k - 1) * d..].copy_from_slice(&first);
                    let what = format!("k={k} m={m} d={d}");
                    let (best, dist, rescored) = certified(Scorer::Avx512, true, &block, d, &cents);
                    assert_eq!((best, dist), reference(&block, d, &cents), "{what}");
                    // At k = 1 the "duplicate" is the centroid itself.
                    let tied = reference(&block, d, &cents).0.iter().filter(|&&w| w == 0).count()
                        * usize::from(k > 1);
                    assert!(rescored as usize >= tied, "{what}: a tie was certified");
                    (rows, misses) = (rows + m - tied, misses + rescored as usize - tied);
                }
            }
        }
        assert!(misses * 50 <= rows, "{misses} of {rows} untied rows fell back");
    }

    /// Every kernel the run can resolve to, as the driver would resolve it.
    fn every_kind(k: usize, d: usize) -> Vec<ResolvedKernel> {
        [KernelKind::Scalar, KernelKind::Gemm]
            .iter()
            .map(|kind| kind.resolve(k, d, false))
            .collect()
    }

    /// `rows` through [`assign_rows_packed`] in blocks of `step` rows.
    fn blocked(
        rows: &[f64],
        d: usize,
        cents: &Centroids,
        rk: &ResolvedKernel,
        panel: &CentroidPanel,
        step: usize,
    ) -> (Vec<u32>, Vec<u64>) {
        let (mut best, mut bits) = (Vec::new(), Vec::new());
        let (mut b, mut bd) = (Vec::new(), Vec::new());
        for block in rows.chunks(step * d) {
            assign_rows_packed(
                block,
                d,
                cents,
                rk,
                panel,
                &mut b,
                &mut bd,
                Finish::Distances,
                Precision::F64,
                &mut Vec::new(),
            );
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
            let mut panel = CentroidPanel::default();
            // Two sets of centroids through one panel: packed, reused by
            // every call below, re-packed after the centroids move.
            for round in 0..2 {
                panel.pack(&cents);
                for rk in every_kind(k, d) {
                    let whole = blocked(&rows, d, &cents, &rk, &panel, m);
                    for step in [1usize, 3, 63, 64, 65, 1000] {
                        let got = blocked(&rows, d, &cents, &rk, &panel, step);
                        assert_eq!(got, whole, "{:?} k={k} step={step} round={round}", rk.kind);
                    }
                    // And `assign_rows` is exactly pack + packed.
                    assert_eq!(assigned(&rows, d, &cents, &rk), whole, "{:?} k={k}", rk.kind);
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
        let mut panel = CentroidPanel::default();
        panel.pack(&cents);
        cents.means[7] += 1.0;
        let rk = KernelKind::Gemm.resolve(5, 6, false);
        let (mut b, mut bd) = (Vec::new(), Vec::new());
        assign_rows_packed(
            &rows,
            6,
            &cents,
            &rk,
            &panel,
            &mut b,
            &mut bd,
            Finish::Winners,
            Precision::F64,
            &mut Vec::new(),
        );
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
    fn sqnorm_matches_naive() {
        let v: Vec<f64> = (0..13).map(|x| (x as f64 * 0.31).sin()).collect();
        let naive: f64 = v.iter().map(|x| x * x).sum();
        assert!((sqnorm(&v) - naive).abs() < 1e-12);
        let naive_dot: f64 = v.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert!((dot(&v, &v) - naive_dot).abs() < 1e-12);
    }
}

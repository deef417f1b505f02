//! One description of a run.
//!
//! knori, knors and knord are one ||Lloyd's routine over three data planes,
//! so a run is described once — a [`RunSpec`] — resolved once —
//! [`RunSpec::resolve`], the only place a [`DriverConfig`] is built — and
//! reported once — [`Resolved::finish`]. What an entry point adds to the
//! description rides in [`RunSpec::ext`]: nothing for knori,
//! [`SemPlaneConfig`] for knors, [`DistExt`] for knord, [`Job`] for a serve
//! training job; `KmeansConfig`, `SemConfig`, `DistConfig` and `TrainSpec`
//! are aliases of `RunSpec<…>`, which is why the constructors of all four
//! live here. Every field, default and builder is written in this file and
//! nowhere else.
//!
//! The same goes for text. [`KNOBS`] has one row per knob that a `knor`
//! flag or a `TRAIN` token can set: its key, its flag, the spellings it
//! accepts, its parser and its renderer. [`RunSpec::parse`] and
//! [`RunSpec::render`] walk that table; [`parse_train`] and
//! [`RunSpec::render_train`] are the `TRAIN` line of `docs/PROTOCOL.md`;
//! a [`Refusal`] says why a value was turned away, in the CLI's voice or
//! the protocol's. DESIGN.md §0 has the knob table.

use std::fmt::Display;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use knor_matrix::{DMatrix, Rows};
use knor_numa::{NodeId, Placement, Topology};
use knor_sched::{SchedulerKind, TaskQueue, DEFAULT_TASK_SIZE};

use crate::algo::{Algorithm, MmAlgorithm};
use crate::centroids::Centroids;
use crate::driver::{DriverConfig, DriverOutcome};
use crate::init::InitMethod;
use crate::kernel::KernelKind;
use crate::pruning::Pruning;
use crate::stats::{InitStats, KmeansResult, MemoryFootprint, NumaReport, SettleStats};
use crate::trace::{TraceBuf, TraceHandle};

/// Everything about a run that does not depend on where its rows live,
/// plus `ext`, what the entry point adds.
#[derive(Debug, Clone)]
pub struct RunSpec<X = ()> {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap (counting the initial assignment pass).
    pub max_iters: usize,
    /// Stop when the maximum centroid drift falls to or below this value
    /// (0.0 = stop only on zero reassignments).
    pub tol: f64,
    /// Centroid initialization. Engines that stream their rows from a file
    /// (knors, knord over SEM ranks) take `Forgy` and `Given` only: the
    /// other two need a pass over the data.
    pub init: InitMethod,
    /// Seed for initialization randomness and the mini-batch sampler.
    pub seed: u64,
    /// Pruning scheme: MTI, or none (the `-` modules).
    /// Applied only to algorithms it is sound for ([`RunSpec::scheme`]).
    pub pruning: Pruning,
    /// Task queue policy (Fig. 5).
    pub scheduler: SchedulerKind,
    /// Worker threads — per rank under knord; `None` = all available CPUs.
    pub threads: Option<usize>,
    /// Machine topology; `None` = detect the host (which honors
    /// `KNOR_SYNTH_NODES`). knord ranks model their own workers instead.
    pub topology: Option<Topology>,
    /// Rows per scheduler task.
    pub task_size: usize,
    /// NUMA-aware placement/binding (true) or the oblivious baseline of
    /// Fig. 4 (knori only).
    pub numa_aware: bool,
    /// Record per-iteration `AccessTally`s for the cost model (knori only).
    pub track_tallies: bool,
    /// Compute the final SSE (one extra pass over the rows).
    pub compute_sse: bool,
    /// Assignment kernel for full scans (see [`crate::kernel`]).
    pub kernel: KernelKind,
    /// Clustering algorithm to run on the driver (see [`crate::algo`]).
    pub algo: Algorithm,
    /// Span recorder to attach to the run (see [`crate::trace`]); `None`
    /// records nothing and costs nothing. knord registers every rank's
    /// workers under `pid = rank`.
    pub trace: Option<Arc<TraceBuf>>,
    /// What the entry point adds to the description.
    pub ext: X,
}

/// Where a run is described. The three entry points default differently —
/// the library as the paper's modules do, the CLI and `TRAIN` as their
/// first versions did — and tests and the benchmark pin each of them, so
/// the differences are written down here, once, and not harmonised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `KmeansConfig::new(k)`, `SemConfig::new(k)`, `DistConfig::new(..)`.
    Library,
    /// `knor im|sem|dist`.
    Cli,
    /// The serve protocol's `TRAIN`, and `TrainSpec::new`.
    Train,
}

impl Entry {
    /// `(iterations, seed, init, final SSE pass, ranks of a knord run nobody
    /// sized)`. The library's SSE pass is knori's — `SemConfig::new` and
    /// `DistConfig::new` turn it off — and its callers always say the ranks.
    fn table(self) -> (usize, u64, InitMethod, bool, usize) {
        match self {
            Entry::Library => (100, 0, InitMethod::Forgy, true, 1),
            Entry::Cli => (100, 1, InitMethod::PlusPlus, true, 4),
            Entry::Train => (30, 1, InitMethod::Forgy, false, 2),
        }
    }
}

impl RunSpec {
    /// The paper's knori: MTI on, NUMA-aware scheduler, all CPUs, task
    /// size 8192 — under the library's defaults.
    pub fn new(k: usize) -> Self {
        Self::defaults(Entry::Library, k)
    }

    /// The description `entry` starts from.
    pub fn defaults(entry: Entry, k: usize) -> Self {
        let (max_iters, seed, init, compute_sse, _) = entry.table();
        Self {
            k,
            max_iters,
            tol: 0.0,
            init,
            seed,
            pruning: Pruning::Mti,
            scheduler: SchedulerKind::NumaAware,
            threads: None,
            topology: None,
            task_size: DEFAULT_TASK_SIZE,
            numa_aware: true,
            track_tallies: false,
            compute_sse,
            kernel: KernelKind::Auto,
            algo: Algorithm::Lloyd,
            trace: None,
            ext: (),
        }
    }
}

/// The spelling `knor_bench` times centroid replication with. Every run
/// reads one shared copy of the centroids, so both variants are that copy
/// ([`RunSpec::with_replication`] ignores them; DESIGN.md §12).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replication {
    /// The shared copy.
    Off,
    /// The shared copy.
    On,
}

/// Builders: `$name(v)` stores `$value`, an expression over `v`, in `$field`.
macro_rules! setters {
    ($($(#[$doc:meta])* $name:ident($v:ident: $ty:ty) => $($field:ident).+ = $value:expr;)*) => {$(
        $(#[$doc])*
        pub fn $name(mut self, $v: $ty) -> Self {
            self.$($field).+ = $value;
            self
        }
    )*};
}

impl<X> RunSpec<X> {
    setters! {
        /// Set the iteration cap.
        with_max_iters(v: usize) => max_iters = v;
        /// Set the drift tolerance.
        with_tol(v: f64) => tol = v;
        /// Set the initialization method.
        with_init(v: InitMethod) => init = v;
        /// Set the RNG seed.
        with_seed(v: u64) => seed = v;
        /// Choose the pruning scheme.
        with_pruning(v: Pruning) => pruning = v;
        /// Choose the scheduler policy.
        with_scheduler(v: SchedulerKind) => scheduler = v;
        /// Set the worker thread count (per rank under knord).
        with_threads(v: usize) => threads = Some(v.max(1));
        /// Supply a topology (synthetic topologies enable modeled scaling runs).
        with_topology(v: Topology) => topology = Some(v);
        /// Set rows per task.
        with_task_size(v: usize) => task_size = v.max(1);
        /// Toggle NUMA-aware placement (false = oblivious baseline).
        with_numa_aware(v: bool) => numa_aware = v;
        /// Toggle access-tally tracking.
        with_tallies(v: bool) => track_tallies = v;
        /// Toggle the final SSE pass.
        with_sse(v: bool) => compute_sse = v;
        /// Choose the full-scan assignment kernel.
        with_kernel(v: KernelKind) => kernel = v;
        /// Choose the clustering algorithm.
        with_algo(v: Algorithm) => algo = v;
        /// Attach a span recorder to the run.
        with_trace(v: Arc<TraceBuf>) => trace = Some(v);
    }

    /// Accepted and ignored: every worker reads the one shared copy of the
    /// centroids (DESIGN.md §12).
    #[doc(hidden)]
    pub fn with_replication(self, _: Replication) -> Self {
        self
    }

    /// The same run described for another entry point.
    pub fn with_ext<Y>(&self, ext: Y) -> RunSpec<Y> {
        RunSpec {
            k: self.k,
            max_iters: self.max_iters,
            tol: self.tol,
            init: self.init.clone(),
            seed: self.seed,
            pruning: self.pruning,
            scheduler: self.scheduler,
            threads: self.threads,
            topology: self.topology.clone(),
            task_size: self.task_size,
            numa_aware: self.numa_aware,
            track_tallies: self.track_tallies,
            compute_sse: self.compute_sse,
            kernel: self.kernel,
            algo: self.algo.clone(),
            trace: self.trace.clone(),
            ext,
        }
    }
}

/// An entry point's own knobs read as the description's
/// (`cfg.page_cache_bytes`, `cfg.ranks`, `spec.model`), as they did when
/// every entry point declared a whole struct.
impl<X> std::ops::Deref for RunSpec<X> {
    type Target = X;

    fn deref(&self) -> &X {
        &self.ext
    }
}

// ---------------------------------------------------------------------------
// What the entry points add
// ---------------------------------------------------------------------------

/// knors' I/O knobs: what a SEM plane needs beyond the run — one per knors
/// run, one per rank under knord ([`RankPlane::Sem`]).
#[derive(Debug, Clone)]
pub struct SemPlaneConfig {
    /// SAFS page size (paper: 4KB).
    pub page_size: usize,
    /// Page cache budget in bytes (per plane — per rank under knord). With
    /// a row cache and no prefetch, the plane lends these bytes to the row
    /// cache and reads past no page cache (one budget, `knor_sem::plane`).
    pub page_cache_bytes: u64,
    /// Row cache budget in bytes (0 = knors--; per plane).
    pub row_cache_bytes: u64,
    /// Row-cache update interval `I_cache` (paper: 5).
    pub cache_interval: usize,
    /// Lazy exponential refresh (paper) vs fixed-period (ablation).
    pub lazy_refresh: bool,
    /// Overlap I/O with compute via the prefetch pool. Off by default so
    /// per-iteration I/O accounting is exactly attributable (Fig. 6);
    /// enable for throughput runs.
    pub prefetch: bool,
    /// Prefetch pool threads (when `prefetch`).
    pub prefetch_threads: usize,
}

impl Default for SemPlaneConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            page_cache_bytes: 1 << 30,
            row_cache_bytes: 512 << 20,
            cache_interval: 5,
            lazy_refresh: true,
            prefetch: false,
            prefetch_threads: 2,
        }
    }
}

impl SemPlaneConfig {
    setters! {
        /// Set the row-cache budget (0 = knors--).
        with_row_cache_bytes(v: u64) => row_cache_bytes = v;
        /// Set the page-cache budget.
        with_page_cache_bytes(v: u64) => page_cache_bytes = v;
        /// Set the page size.
        with_page_size(v: usize) => page_size = v;
        /// Enable the prefetch pipeline.
        with_prefetch(v: bool) => prefetch = v;
    }
}

/// `SemConfig`: a run plus knors' I/O knobs.
impl RunSpec<SemPlaneConfig> {
    /// Paper-default knors configuration.
    pub fn new(k: usize) -> Self {
        RunSpec::defaults(Entry::Library, k).with_sse(false).with_ext(SemPlaneConfig::default())
    }

    setters! {
        /// Set the page size.
        with_page_size(v: usize) => ext.page_size = v;
        /// Set the page-cache budget.
        with_page_cache_bytes(v: u64) => ext.page_cache_bytes = v;
        /// Set the row-cache budget (0 = knors--).
        with_row_cache_bytes(v: u64) => ext.row_cache_bytes = v;
        /// Set `I_cache`.
        with_cache_interval(v: usize) => ext.cache_interval = v.max(1);
        /// Lazy (true) vs fixed-period (false) refresh.
        with_lazy_refresh(v: bool) => ext.lazy_refresh = v;
        /// Enable the prefetch pipeline.
        with_prefetch(v: bool) => ext.prefetch = v;
    }
}

/// Which data plane every knord rank mounts (paper §3.3: each node runs
/// either knori or knors over its slice of the rows).
#[derive(Debug, Clone, Default)]
pub enum RankPlane {
    /// Each rank holds its row slice in memory (knori per node).
    #[default]
    InMemory,
    /// Each rank streams its own byte range of the shared on-disk matrix
    /// through a private SEM stack — per-rank row cache, page cache,
    /// prefetch pool and I/O counters (knors per node). Needs a file:
    /// `DistKmeans::fit_file`.
    Sem(SemPlaneConfig),
}

impl RankPlane {
    /// A SEM plane with the paper-default budgets.
    pub fn sem_default() -> Self {
        RankPlane::Sem(SemPlaneConfig::default())
    }
}

/// knord's knobs. The all-reduce algorithm `R` and the network model `N`
/// are `knor-mpi`'s types, a crate this one does not link; `knor-dist`
/// names them in its `DistConfig` alias.
#[derive(Debug, Clone)]
pub struct DistExt<R, N> {
    /// Ranks (simulated machines).
    pub ranks: usize,
    /// All-reduce algorithm for the per-iteration centroid+count state.
    pub reduce: R,
    /// Network model used to price each iteration's reduction (Figs. 11–13).
    pub net: N,
    /// Per-rank data plane.
    pub plane: RankPlane,
    /// Test hook: make one prefetch-pool thread of this rank's SEM plane
    /// panic right after spawn (exercises `panicked_io_threads`
    /// surfacing; ignored for in-memory ranks or when prefetch is off).
    #[doc(hidden)]
    pub inject_prefetch_panic_rank: Option<usize>,
}

/// `DistConfig`: a run plus knord's knobs.
impl<R: Default, N: Default> RunSpec<DistExt<R, N>> {
    /// knord defaults: MTI on, ring all-reduce, `ranks` engines of
    /// `threads_per_rank` workers each.
    pub fn new(k: usize, ranks: usize, threads_per_rank: usize) -> Self {
        RunSpec::defaults(Entry::Library, k)
            .with_sse(false)
            .with_threads(threads_per_rank)
            .with_ext(DistExt {
                ranks: ranks.max(1),
                reduce: R::default(),
                net: N::default(),
                plane: RankPlane::InMemory,
                inject_prefetch_panic_rank: None,
            })
    }

    /// The paper's pure-MPI baseline shape: one single-threaded rank per
    /// "core" (each rank owns one contiguous block, so there is nothing to
    /// place NUMA-wise inside it).
    pub fn pure_mpi(k: usize, ranks: usize) -> Self {
        Self::new(k, ranks, 1)
    }

    setters! {
        /// Choose the all-reduce algorithm.
        with_reduce(v: R) => ext.reduce = v;
        /// Supply a network model for the modeled wire times.
        with_net(v: N) => ext.net = v;
        /// Choose the per-rank data plane.
        with_plane(v: RankPlane) => ext.plane = v;
        /// Test hook: inject a prefetch-pool panic into one SEM rank.
        #[doc(hidden)]
        with_inject_prefetch_panic_rank(v: usize) => ext.inject_prefetch_panic_rank = Some(v);
    }
}

/// Which engine runs a description handed to `knor_dist::launch`.
#[derive(Debug, Clone)]
pub enum Engine {
    /// In-memory (knori).
    Im,
    /// Semi-external-memory (knors); streams from a file source.
    Sem(SemPlaneConfig),
    /// Simulated-distributed (knord).
    Dist {
        /// Ranks (simulated machines).
        ranks: usize,
        /// Star all-reduce (`--star`); ring otherwise.
        star: bool,
        /// Per-rank data plane (`Sem` streams from a file source).
        plane: RankPlane,
    },
}

impl Engine {
    /// The engine tokens (`knor train --engine`, `TRAIN`'s second field).
    pub const TOKENS: &'static [&'static str] = &["im", "sem", "dist", "dist-sem"];

    /// The engine a token names, with the paper-default budgets and
    /// `entry`'s rank count. `dist-sem` is knord over SEM ranks.
    pub fn parse(token: &str, entry: Entry) -> Result<Self, Refusal> {
        let (.., ranks) = entry.table();
        let dist = |plane| Engine::Dist { ranks, star: false, plane };
        Ok(match choose("--engine", Self::TOKENS, token)? {
            0 => Engine::Im,
            1 => Engine::Sem(SemPlaneConfig::default()),
            2 => dist(RankPlane::InMemory),
            _ => dist(RankPlane::sem_default()),
        })
    }

    /// Inverse of [`Engine::parse`].
    pub fn token(&self) -> &'static str {
        match self {
            Engine::Im => "im",
            Engine::Sem(_) => "sem",
            Engine::Dist { plane: RankPlane::InMemory, .. } => "dist",
            Engine::Dist { plane: RankPlane::Sem(_), .. } => "dist-sem",
        }
    }

    /// The I/O knobs of an engine that streams its rows from the file —
    /// knors, or knord over SEM ranks; `None` for one that loads them.
    pub fn sem_io(&mut self) -> Option<&mut SemPlaneConfig> {
        match self {
            Engine::Sem(io) | Engine::Dist { plane: RankPlane::Sem(io), .. } => Some(io),
            _ => None,
        }
    }
}

/// Where a launched run's rows come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A knor binary matrix on disk (the only source SEM planes accept).
    File(PathBuf),
    /// An in-memory matrix (in-process API).
    Matrix(DMatrix),
}

/// What a serve training job adds to a run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Registry name the trained model is published under.
    pub model: String,
    /// Engine to train on.
    pub engine: Engine,
    /// Training data.
    pub source: Source,
}

/// `TrainSpec`: a run plus the job around it.
impl RunSpec<Job> {
    /// A job under `TRAIN`'s defaults (im engine, Lloyd, 30 iterations).
    pub fn new(model: &str, k: usize, source: Source) -> Self {
        let job = Job { model: model.to_string(), engine: Engine::Im, source };
        RunSpec::defaults(Entry::Train, k).with_ext(job)
    }
}

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

/// One knob as text.
pub struct Knob {
    /// Its `TRAIN` token name, and its key in [`RunSpec::render`].
    pub key: &'static str,
    /// Its `knor` flag — first as error messages spell it, then its long
    /// form where it has one.
    pub flags: &'static [&'static str],
    /// The spellings of an enum-valued knob, in the order errors list them.
    pub expected: &'static [&'static str],
    set: fn(&mut RunSpec, &str) -> Result<(), Why>,
    get: fn(&RunSpec) -> Option<String>,
}

/// Every knob a flag or a token can set — name, spellings, parser and
/// renderer, once each. (`fuzz` and `batch` parameterize `algo` and are
/// rendered inside its spec string.)
pub const KNOBS: &[Knob] = &[
    Knob {
        key: "k",
        flags: &["-k"],
        expected: &[],
        set: |s, v| put(&mut s.k, at_least_1(v)),
        get: |s| Some(s.k.to_string()),
    },
    Knob {
        key: "iters",
        flags: &["-i", "--iters"],
        expected: &[],
        set: |s, v| put(&mut s.max_iters, at_least_1(v)),
        get: |s| Some(s.max_iters.to_string()),
    },
    Knob {
        key: "threads",
        flags: &["-t", "--threads"],
        expected: &[],
        set: |s, v| put(&mut s.threads, at_least_1(v).map(Some)),
        get: |s| s.threads.map(|t| t.to_string()),
    },
    Knob {
        key: "seed",
        flags: &["--seed"],
        expected: &[],
        set: |s, v| put(&mut s.seed, number(v)),
        get: |s| Some(s.seed.to_string()),
    },
    Knob {
        key: "pruning",
        flags: &["--pruning"],
        expected: &["none", "mti"],
        set: |s, v| put(&mut s.pruning, Pruning::parse(v).ok_or(Why::Expected)),
        get: |s| Some(s.pruning.name().into()),
    },
    Knob {
        key: "init",
        flags: &["--init"],
        expected: &["pp", "forgy", "random"],
        set: |s, v| put(&mut s.init, InitMethod::parse(v).ok_or(Why::Expected)),
        get: |s| s.init.name().map(String::from),
    },
    Knob {
        key: "algo",
        flags: &["--algo"],
        expected: &["lloyd", "spherical", "fuzzy", "minibatch"],
        // A bare `minibatch` leaves the batch to `batch`, or to the row
        // count ([`RunSpec::default_batch`]).
        set: |s, v| {
            let bare = matches!(v, "minibatch" | "mini-batch");
            let algo = if bare { Some(Algorithm::MiniBatch { batch: 0 }) } else { None };
            put(&mut s.algo, algo.or_else(|| Algorithm::parse_spec(v)).ok_or(Why::Expected))
        },
        get: |s| Some(s.algo.spec_string()),
    },
    Knob {
        key: "fuzz",
        flags: &["--fuzz"],
        expected: &[],
        set: |s, v| match (number::<f64>(v)?, &mut s.algo) {
            // NaN fails the comparison too.
            (m, _) if m.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) => {
                Err(Why::Domain("must exceed 1.0"))
            }
            (v, Algorithm::Fuzzy { m }) => put(m, Ok(v)),
            _ => Ok(()),
        },
        get: |_| None,
    },
    Knob {
        key: "batch",
        flags: &["--batch"],
        expected: &[],
        set: |s, v| match (at_least_1(v)?, &mut s.algo) {
            (v, Algorithm::MiniBatch { batch }) => put(batch, Ok(v)),
            _ => Ok(()),
        },
        get: |_| None,
    },
    Knob {
        key: "kernel",
        flags: &["--kernel"],
        expected: &["auto", "scalar", "gemm"],
        set: |s, v| put(&mut s.kernel, KernelKind::parse(v).ok_or(Why::Expected)),
        get: |s| Some(s.kernel.name().into()),
    },
];

fn put<T>(slot: &mut T, v: Result<T, Why>) -> Result<(), Why> {
    *slot = v?;
    Ok(())
}

fn number<T: FromStr<Err: Display>>(v: &str) -> Result<T, Why> {
    v.parse().map_err(|e: T::Err| Why::NotANumber(e.to_string()))
}

fn at_least_1(v: &str) -> Result<usize, Why> {
    match number(v)? {
        0 => Err(Why::TooSmall),
        n => Ok(n),
    }
}

impl Knob {
    /// The knob `name` — a key, a flag or a flag's long form — names.
    pub fn find(name: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| name == k.key || k.flags.contains(&name))
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Why {
    /// With `str::parse`'s own words, which the protocol quotes.
    NotANumber(String),
    TooSmall,
    Expected,
    Domain(&'static str),
    Unknown,
    Duplicate,
}

/// Why a value was turned away. One refusal, two voices: the CLI's
/// one-liner and the `ERR` payload `docs/PROTOCOL.md` documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    flag: &'static str,
    expected: &'static [&'static str],
    value: String,
    why: Why,
}

impl Refusal {
    fn new(flag: &'static str, expected: &'static [&'static str], value: &str, why: Why) -> Self {
        Self { flag, expected, value: value.to_string(), why }
    }

    /// `invalid value 'X' for --flag: expected a, b or c`.
    pub fn cli(&self) -> String {
        let why = match &self.why {
            Why::NotANumber(_) => "not a number".to_string(),
            Why::TooSmall => "must be at least 1".to_string(),
            Why::Domain(what) => what.to_string(),
            Why::Expected => {
                let (last, head) = self.expected.split_last().expect("an enum knob has spellings");
                format!("expected {} or {last}", head.join(", "))
            }
            Why::Unknown => return format!("unknown knob '{}'", self.value),
            Why::Duplicate => return format!("{} given more than once", self.flag),
        };
        format!("invalid value '{}' for {}: {why}", self.value, self.flag)
    }

    /// `TRAIN: bad pruning (none|mti)`, `TRAIN: k: <parse error>`.
    pub fn wire(&self) -> String {
        let key = Knob::find(self.flag).map_or(self.flag.trim_start_matches('-'), |k| k.key);
        match &self.why {
            Why::Expected if key == "algo" => "TRAIN: bad algo spec".to_string(),
            Why::Expected => format!("TRAIN: bad {key} ({})", self.expected.join("|")),
            Why::NotANumber(e) => format!("TRAIN: {key}: {e}"),
            Why::TooSmall => format!("TRAIN: {key}: must be at least 1"),
            Why::Domain(what) => format!("TRAIN: {key}: {what}"),
            Why::Unknown | Why::Duplicate => format!("TRAIN: {}", self.cli()),
        }
    }
}

/// The position of `value` among `names`, or the refusal every enum-valued
/// flag shares (for flags outside [`KNOBS`]: `--plane`, `--dataset`).
pub fn choose(
    flag: &'static str,
    names: &'static [&'static str],
    value: &str,
) -> Result<usize, Refusal> {
    let at = names.iter().position(|n| *n == value);
    at.ok_or_else(|| Refusal::new(flag, names, value, Why::Expected))
}

/// A numeric flag outside [`KNOBS`], refused in the same voice.
pub fn number_for<T: FromStr<Err: Display>>(flag: &'static str, value: &str) -> Result<T, Refusal> {
    number(value).map_err(|why| Refusal::new(flag, &[], value, why))
}

/// [`number_for`] a count that must be at least 1.
pub fn count_for(flag: &'static str, value: &str) -> Result<usize, Refusal> {
    at_least_1(value).map_err(|why| Refusal::new(flag, &[], value, why))
}

impl RunSpec {
    /// Set the knob `name` (a key or a flag) from its text.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), Refusal> {
        let knob = Knob::find(name).ok_or_else(|| Refusal::new("", &[], name, Why::Unknown))?;
        (knob.set)(self, value)
            .map_err(|why| Refusal::new(knob.flags[0], knob.expected, value, why))
    }

    /// This description with `pairs` of `(key or flag, value)` applied: the
    /// one parser behind `knor`'s flags and `TRAIN`'s tokens. A knob may be
    /// given once; `fuzz` and `batch` reach the algorithm wherever they
    /// stand.
    pub fn parse(mut self, pairs: &[(&str, &str)]) -> Result<Self, Refusal> {
        let (mut seen, mut params) = (Vec::new(), Vec::new());
        for &(name, value) in pairs {
            let knob = Knob::find(name).ok_or_else(|| Refusal::new("", &[], name, Why::Unknown))?;
            if seen.contains(&knob.key) {
                return Err(Refusal::new(knob.flags[0], &[], value, Why::Duplicate));
            }
            seen.push(knob.key);
            match knob.key {
                "fuzz" | "batch" => params.push((name, value)),
                _ => self.set(name, value)?,
            }
        }
        for (name, value) in params {
            self.set(name, value)?;
        }
        Ok(self)
    }

    /// The knobs as `(key, value)` tokens; [`RunSpec::parse`] reads them
    /// back. (`threads` appears when set; a `Given` init has no token.)
    pub fn render(&self) -> Vec<(&'static str, String)> {
        KNOBS.iter().filter_map(|k| Some((k.key, (k.get)(self)?))).collect()
    }

    /// Mini-batch's batch when nobody gave one: a tenth of the `n` rows.
    pub fn default_batch(&mut self, n: usize) {
        if let Algorithm::MiniBatch { batch: batch @ 0 } = &mut self.algo {
            *batch = (n / 10).max(1);
        }
    }

    /// The `TRAIN` line submitting this run (`docs/PROTOCOL.md`).
    pub fn render_train(&self, model: &str, engine: &Engine, path: &Path) -> String {
        let tokens = self.render();
        let v = |key| &tokens.iter().find(|t| t.0 == key).expect("always rendered").1;
        format!(
            "TRAIN {model} {} {} {} {} {} pruning={} {}",
            engine.token(),
            v("algo"),
            v("k"),
            v("iters"),
            v("seed"),
            v("pruning"),
            path.display()
        )
    }
}

/// Parse what follows the `TRAIN` verb: `<model> <engine> <algospec> <k>
/// <iters> <seed> [pruning=<scheme>] <path>`. The optional token rides
/// between the fixed fields and the path, so lines from older clients stay
/// valid; the path is the rest of the line, spaces and all.
pub fn parse_train<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<RunSpec<Job>, String> {
    let model = tokens.next().ok_or("TRAIN: missing model")?;
    let engine = Engine::parse(tokens.next().ok_or("TRAIN: missing engine")?, Entry::Train)
        .map_err(|r| r.wire())?;
    let mut run = RunSpec::defaults(Entry::Train, 0);
    run.set("algo", tokens.next().ok_or("TRAIN: missing algo")?).map_err(|r| r.wire())?;
    if matches!(run.algo, Algorithm::MiniBatch { batch: 0 }) {
        return Err("TRAIN: bad algo spec".into()); // no row count to derive a batch from
    }
    for key in ["k", "iters", "seed"] {
        let token = tokens.next().ok_or_else(|| format!("TRAIN: {key}: missing"))?;
        run.set(key, token).map_err(|r| r.wire())?;
    }
    let mut tokens = tokens.peekable();
    if let Some(scheme) = tokens.peek().and_then(|t| t.strip_prefix("pruning=")) {
        run.set("pruning", scheme).map_err(|r| r.wire())?;
        tokens.next();
    }
    let path = tokens.collect::<Vec<_>>().join(" ");
    if path.is_empty() {
        return Err("TRAIN: missing path".into());
    }
    let source = Source::File(PathBuf::from(path));
    Ok(run.with_ext(Job { model: model.to_string(), engine, source }))
}

// ---------------------------------------------------------------------------
// Resolve and finish
// ---------------------------------------------------------------------------

/// A description resolved against the data's shape and the machine:
/// everything [`crate::driver::run_mm`] takes besides the rows and the
/// reducer, and what [`Resolved::finish`] reports afterwards.
pub struct Resolved {
    /// The driver's configuration.
    pub driver: DriverConfig,
    /// The run's algorithm instance.
    pub algo: Box<dyn MmAlgorithm>,
    /// The topology the run sees.
    pub topo: Topology,
    /// The workers' Fig. 1 plan (row blocks, node groups).
    pub placement: Placement,
    /// The task queue over that plan.
    pub queue: TaskQueue,
    /// Node each worker runs on: its Fig. 1 group when NUMA-aware, a
    /// round-robin spread (what an oblivious OS scheduler converges to)
    /// otherwise.
    pub thread_node: Vec<NodeId>,
}

impl<X> RunSpec<X> {
    /// The pruning scheme the run applies: the one asked for, where it is
    /// sound for the algorithm.
    pub fn scheme(&self) -> Pruning {
        if self.algo.prune_eligible() {
            self.pruning
        } else {
            Pruning::None
        }
    }

    /// Worker threads the run resolves to: the request, or every CPU.
    pub fn nthreads(&self) -> usize {
        let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        self.threads.unwrap_or(hw).max(1)
    }

    /// Resolve the description for an engine instance that owns `rows` of
    /// a matrix of `n_total` rows by `d` columns (knord: one rank's slice;
    /// otherwise all of it) and traces as process `pid`. `topo` overrides
    /// the description's topology (knord ranks model their own workers).
    /// The algorithm instance comes from the global shape, so every rank
    /// resolves the same one. The only place a
    /// [`DriverConfig`] is built.
    ///
    /// # Panics
    /// Panics if `k` exceeds `n_total`.
    pub fn resolve(
        &self,
        rows: Range<usize>,
        n_total: usize,
        d: usize,
        topo: Option<Topology>,
        pid: u32,
    ) -> Resolved {
        assert!(self.k <= n_total, "k = {} exceeds n = {n_total}", self.k);
        let topo = topo.or_else(|| self.topology.clone()).unwrap_or_else(Topology::detect);
        let nthreads = self.nthreads();
        let placement = Placement::new(&topo, rows.len(), nthreads);
        let nnodes = topo.nodes();
        let thread_node = (0..nthreads)
            .map(|t| if self.numa_aware { placement.node_of_thread(t) } else { NodeId(t % nnodes) })
            .collect();
        let driver = DriverConfig {
            k: self.k,
            d,
            n: rows.len(),
            nthreads,
            max_iters: self.max_iters,
            tol: self.tol,
            pruning: self.scheme(),
            task_size: self.task_size,
            kernel: self.kernel,
            row_offset: rows.start,
            trace: self.trace.clone().map(|b| TraceHandle::with_pid(b, pid)),
        };
        Resolved {
            driver,
            algo: self.algo.resolve(self.k, n_total, self.seed),
            queue: TaskQueue::new(self.scheduler, &placement),
            topo,
            placement,
            thread_node,
        }
    }
}

impl Resolved {
    /// Assemble the result of the run `outcome` ended: the clustering, the
    /// seeding's cost, the accounted memory (Table 1's terms for what this
    /// run resolved to, given the bytes the engine holds of the data and
    /// its cache budgets), the NUMA report and what the closing pass
    /// (`settle`, or knors' streamed one) returned.
    pub fn finish(
        &self,
        outcome: DriverOutcome,
        init: InitStats,
        centroids: DMatrix,
        data_bytes: u64,
        cache_bytes: u64,
        (sse, settle): (Option<f64>, SettleStats),
    ) -> KmeansResult {
        let c = &self.driver;
        let mut workers_per_node = vec![0usize; self.topo.nodes()];
        for t in &self.thread_node {
            workers_per_node[t.0] += 1;
        }
        KmeansResult {
            centroids,
            assignments: outcome.assignments,
            niters: outcome.iters.len(),
            converged: outcome.converged,
            iters: outcome.iters,
            memory: MemoryFootprint::account(
                c.pruning,
                (c.n, c.k, c.d),
                c.nthreads,
                data_bytes,
                cache_bytes,
            ),
            sse,
            numa: NumaReport { nodes: self.topo.nodes(), workers_per_node },
            load: None,
            init,
            settle,
            phases: outcome.phases,
        }
    }
}

/// What follows the last iteration when the rows are at hand. Subsampled
/// algorithms (mini-batch) leave each row assigned as of its last sampled
/// batch: one map pass makes the assignments — and the SSE, when `want_sse`
/// — consistent with the returned model. Walks `data` in global row order,
/// and sums the SSE on `threads` threads in that order too
/// ([`crate::quality::sse`]), so the result depends neither on how `data`
/// is placed nor on `threads`. (The per-run algorithm instances are
/// identical and `map` is stateless, so any of them — or a fresh one —
/// serves.)
pub fn settle<R: Rows + Sync>(
    algo: &dyn MmAlgorithm,
    data: &R,
    centroids: &DMatrix,
    assignments: &mut [u32],
    want_sse: bool,
    threads: usize,
) -> (Option<f64>, SettleStats) {
    let t0 = Instant::now();
    if algo.subsamples() {
        let cents = Centroids::from_matrix(centroids);
        for (row, a) in data.rows_in(0..data.nrow()).zip(assignments.iter_mut()) {
            *a = algo.map(row, &cents).cluster;
        }
    }
    let sse = want_sse.then(|| crate::quality::sse(data, centroids, assignments, threads));
    let threads = crate::quality::sse_threads(data.nrow(), threads);
    (sse, SettleStats { secs: t0.elapsed().as_secs_f64(), threads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type Tokens =
        ((usize, usize, u64, Option<usize>), (Pruning, InitMethod, Algorithm), KernelKind);

    /// Everything a token can carry, for comparing descriptions.
    fn tokens(s: &RunSpec) -> Tokens {
        (
            (s.k, s.max_iters, s.seed, s.threads),
            (s.pruning, s.init.clone(), s.algo.clone()),
            s.kernel,
        )
    }

    const PRUNINGS: [Pruning; 2] = [Pruning::None, Pruning::Mti];
    const KERNELS: [KernelKind; 3] = [KernelKind::Auto, KernelKind::Scalar, KernelKind::Gemm];

    /// A description with every token-carrying knob drawn from `rng`.
    fn arbitrary(rng: &mut ChaCha8Rng) -> RunSpec {
        let mut s = RunSpec::defaults(Entry::Cli, rng.gen_range(1..10_000));
        s.max_iters = rng.gen_range(1..1_000);
        s.seed = rng.gen();
        s.threads = rng.gen_bool(0.5).then(|| rng.gen_range(1..64));
        s.pruning = PRUNINGS[rng.gen_range(0..2usize)];
        s.init = match rng.gen_range(0..3) {
            0 => InitMethod::PlusPlus,
            1 => InitMethod::Forgy,
            _ => InitMethod::RandomPartition,
        };
        s.algo = match rng.gen_range(0..4) {
            0 => Algorithm::Lloyd,
            1 => Algorithm::Spherical,
            // Any float above 1 must survive the `{:?}` spelling.
            2 => Algorithm::Fuzzy { m: 1.0 + rng.gen_range(f64::EPSILON..9.0) },
            _ => Algorithm::MiniBatch { batch: rng.gen_range(1..100_000) },
        };
        s.kernel = KERNELS[rng.gen_range(0..3usize)];
        s
    }

    #[test]
    fn parse_reads_back_what_render_wrote() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for case in 0..2_000 {
            let spec = arbitrary(&mut rng);
            let rendered = spec.render();
            let pairs: Vec<(&str, &str)> = rendered.iter().map(|(k, v)| (*k, v.as_str())).collect();
            // Over other defaults entirely: every token must be carried.
            let back = RunSpec::defaults(Entry::Train, 0).parse(&pairs).unwrap_or_else(|r| {
                panic!("case {case}: {pairs:?} refused: {}", r.cli());
            });
            assert_eq!(tokens(&back), tokens(&spec), "case {case}: {pairs:?}");
            assert_eq!(back.render(), rendered, "case {case}");
        }
    }

    #[test]
    fn every_listed_spelling_parses_and_is_the_one_rendered() {
        for knob in KNOBS.iter().filter(|k| !k.expected.is_empty()) {
            for name in knob.expected {
                let spec = RunSpec::<()>::new(3).parse(&[(knob.key, name)]).unwrap();
                let rendered = (knob.get)(&spec).unwrap();
                // `fuzzy` renders with its parameter; bare `minibatch` has none yet.
                assert!(rendered.starts_with(name), "{}={name} rendered {rendered}", knob.key);
            }
        }
        for (i, token) in Engine::TOKENS.iter().enumerate() {
            assert_eq!(Engine::parse(token, Entry::Cli).unwrap().token(), *token);
            assert_eq!(choose("--engine", Engine::TOKENS, token), Ok(i));
        }
        // The aliases parse but are never rendered or listed.
        let alias =
            RunSpec::<()>::new(3).parse(&[("init", "kmeanspp"), ("algo", "mini-batch")]).unwrap();
        let spelled: Vec<String> = alias.render().into_iter().map(|t| t.1).collect();
        assert!(spelled.contains(&"pp".to_string()));
        assert_eq!(alias.algo, Algorithm::MiniBatch { batch: 0 });
        // The library's `Tiled`/`NormTrick`/`Fma` are `Gemm`, and are spelled so.
        for alias in [KernelKind::Tiled, KernelKind::NormTrick, KernelKind::Fma] {
            let gemm = RunSpec::<()>::new(3).with_kernel(alias).render();
            assert!(gemm.contains(&("kernel", "gemm".to_string())), "{gemm:?}");
        }
    }

    #[test]
    fn refusals_speak_in_both_voices() {
        let refused = |pairs: &[(&str, &str)]| RunSpec::<()>::new(3).parse(pairs).unwrap_err();
        for (pairs, cli, wire) in [
            (
                &[("pruning", "banana")][..],
                "invalid value 'banana' for --pruning: expected none or mti",
                "TRAIN: bad pruning (none|mti)",
            ),
            // The deleted scheme's spelling is refused like any other.
            (
                &[("--pruning", "yinyang")],
                "invalid value 'yinyang' for --pruning: expected none or mti",
                "TRAIN: bad pruning (none|mti)",
            ),
            (
                &[("pruning", "yinyang")],
                "invalid value 'yinyang' for --pruning: expected none or mti",
                "TRAIN: bad pruning (none|mti)",
            ),
            (
                &[("--kernel", "warp")],
                "invalid value 'warp' for --kernel: expected auto, scalar or gemm",
                "TRAIN: bad kernel (auto|scalar|gemm)",
            ),
            // The deleted kernels' spellings are refused like any other.
            (
                &[("--kernel", "fma")],
                "invalid value 'fma' for --kernel: expected auto, scalar or gemm",
                "TRAIN: bad kernel (auto|scalar|gemm)",
            ),
            (
                &[("kernel", "tiled")],
                "invalid value 'tiled' for --kernel: expected auto, scalar or gemm",
                "TRAIN: bad kernel (auto|scalar|gemm)",
            ),
            (
                &[("--init", "banana")],
                "invalid value 'banana' for --init: expected pp, forgy or random",
                "TRAIN: bad init (pp|forgy|random)",
            ),
            (
                &[("algo", "fuzzy:0.5")],
                "invalid value 'fuzzy:0.5' for --algo: expected lloyd, spherical, fuzzy or minibatch",
                "TRAIN: bad algo spec",
            ),
            // There is no replication knob: its key is refused like any stranger's.
            (
                &[("replication", "on")],
                "unknown knob 'replication'",
                "TRAIN: unknown knob 'replication'",
            ),
            (
                &[("k", "x")],
                "invalid value 'x' for -k: not a number",
                "TRAIN: k: invalid digit found in string",
            ),
            (
                &[("--iters", "0")],
                "invalid value '0' for -i: must be at least 1",
                "TRAIN: iters: must be at least 1",
            ),
            (
                &[("-t", "0")],
                "invalid value '0' for -t: must be at least 1",
                "TRAIN: threads: must be at least 1",
            ),
            (
                &[("seed", "-1")],
                "invalid value '-1' for --seed: not a number",
                "TRAIN: seed: invalid digit found in string",
            ),
            // Out of domain whatever the algorithm, and NaN with it.
            (
                &[("fuzz", "1.0")],
                "invalid value '1.0' for --fuzz: must exceed 1.0",
                "TRAIN: fuzz: must exceed 1.0",
            ),
            (
                &[("algo", "fuzzy"), ("--fuzz", "NaN")],
                "invalid value 'NaN' for --fuzz: must exceed 1.0",
                "TRAIN: fuzz: must exceed 1.0",
            ),
            (
                &[("batch", "0")],
                "invalid value '0' for --batch: must be at least 1",
                "TRAIN: batch: must be at least 1",
            ),
            (&[("frobnicate", "1")], "unknown knob 'frobnicate'", "TRAIN: unknown knob 'frobnicate'"),
            (&[("--tune", "on")], "unknown knob '--tune'", "TRAIN: unknown knob '--tune'"),
            // A key, its flag and its long form are one knob.
            (&[("k", "3"), ("-k", "4")], "-k given more than once", "TRAIN: -k given more than once"),
            (
                &[("-i", "3"), ("--iters", "4")],
                "-i given more than once",
                "TRAIN: -i given more than once",
            ),
        ] {
            let r = refused(pairs);
            assert_eq!((r.cli().as_str(), r.wire().as_str()), (cli, wire), "{pairs:?}");
        }
        let engine = Engine::parse("gpu", Entry::Train).unwrap_err();
        assert_eq!(
            engine.cli(),
            "invalid value 'gpu' for --engine: expected im, sem, dist or dist-sem"
        );
        assert_eq!(engine.wire(), "TRAIN: bad engine (im|sem|dist|dist-sem)");
        let plane = choose("--plane", &["im", "sem"], "gpu").unwrap_err();
        assert_eq!(plane.cli(), "invalid value 'gpu' for --plane: expected im or sem");
        let ranks = count_for("--ranks", "0").unwrap_err();
        assert_eq!(ranks.cli(), "invalid value '0' for --ranks: must be at least 1");
        let scale = number_for::<f64>("--scale", "big").unwrap_err();
        assert_eq!(scale.cli(), "invalid value 'big' for --scale: not a number");
    }

    #[test]
    fn algorithm_parameters_reach_the_algorithm_wherever_they_stand() {
        let run = |pairs: &[(&str, &str)]| RunSpec::<()>::new(3).parse(pairs).unwrap().algo;
        assert_eq!(run(&[("--fuzz", "2.5"), ("--algo", "fuzzy")]), Algorithm::Fuzzy { m: 2.5 });
        assert_eq!(run(&[("--algo", "fuzzy"), ("--fuzz", "2.5")]), Algorithm::Fuzzy { m: 2.5 });
        assert_eq!(run(&[("--algo", "fuzzy")]), Algorithm::Fuzzy { m: 2.0 });
        assert_eq!(
            run(&[("--batch", "64"), ("--algo", "minibatch")]),
            Algorithm::MiniBatch { batch: 64 }
        );
        // Parameters of an algorithm nobody chose are checked, then dropped.
        assert_eq!(run(&[("--batch", "64"), ("--fuzz", "3")]), Algorithm::Lloyd);
        let mut bare = RunSpec::<()>::new(3).parse(&[("--algo", "minibatch")]).unwrap();
        bare.default_batch(1_234);
        assert_eq!(bare.algo, Algorithm::MiniBatch { batch: 123 });
        bare.default_batch(99); // a batch somebody gave stays
        assert_eq!(bare.algo, Algorithm::MiniBatch { batch: 123 });
    }

    #[test]
    fn argv_and_train_describe_the_same_run() {
        for (argv, line) in [
            (
                &[("-k", "8"), ("-i", "50"), ("--seed", "1"), ("--pruning", "mti")][..],
                "TRAIN gmm im lloyd 8 50 1 pruning=mti /data/train.knor",
            ),
            (
                &[("-k", "5"), ("--iters", "7"), ("--seed", "9"), ("--pruning", "none")],
                "TRAIN m sem lloyd 5 7 9 pruning=none /tmp/with space.knor",
            ),
            (
                &[
                    ("--algo", "fuzzy"),
                    ("--fuzz", "1.5"),
                    ("-k", "3"),
                    ("-i", "2"),
                    ("--seed", "0"),
                ],
                "TRAIN m dist fuzzy:1.5 3 2 0 pruning=mti x.knor",
            ),
            (
                &[("--batch", "512"), ("--algo", "minibatch"), ("-k", "3"), ("--pruning", "none")],
                "TRAIN m dist-sem minibatch:512 3 30 1 pruning=none x.knor",
            ),
        ] {
            // `TRAIN` carries the run's tokens; the rest is its own table.
            let cli = RunSpec::defaults(Entry::Train, 0).parse(argv).unwrap();
            let wire = parse_train(line.split_ascii_whitespace().skip(1)).unwrap();
            assert_eq!(tokens(&cli), tokens(&wire.with_ext(())), "{line}");
            // And the client writes the line the server read.
            let Source::File(path) = &wire.source else { panic!("TRAIN names a file") };
            assert_eq!(cli.render_train(&wire.model, &wire.engine, path), line);
        }
        // Lines from clients that predate the `pruning=` token stay valid.
        let old = parse_train("gmm im lloyd 8 50 1 /data/train.knor".split(' ')).unwrap();
        assert_eq!((old.k, old.max_iters, old.seed, old.pruning), (8, 50, 1, Pruning::Mti));
        for (line, err) in [
            ("", "TRAIN: missing model"),
            ("m", "TRAIN: missing engine"),
            ("m gpu lloyd 3 5 1 /x", "TRAIN: bad engine (im|sem|dist|dist-sem)"),
            ("m im", "TRAIN: missing algo"),
            ("m im kmedoids 3 5 1 /x", "TRAIN: bad algo spec"),
            ("m im minibatch 3 5 1 /x", "TRAIN: bad algo spec"),
            ("m im lloyd", "TRAIN: k: missing"),
            ("m im lloyd x 5 1 /x", "TRAIN: k: invalid digit found in string"),
            ("m im lloyd 3", "TRAIN: iters: missing"),
            ("m im lloyd 3 5", "TRAIN: seed: missing"),
            ("m im lloyd 3 5 1 pruning=banana /x", "TRAIN: bad pruning (none|mti)"),
            ("m im lloyd 3 5 1 pruning=yinyang /x", "TRAIN: bad pruning (none|mti)"),
            ("m im lloyd 3 5 1", "TRAIN: missing path"),
            ("m im lloyd 3 5 1 pruning=mti", "TRAIN: missing path"),
        ] {
            assert_eq!(parse_train(line.split_ascii_whitespace()).unwrap_err(), err, "{line:?}");
        }
    }

    /// The three entry points' defaults. They differ on purpose — tests,
    /// the benchmark's commands and deployed clients each pin one of them —
    /// so "harmonising" seed 0/1 or 100/30 iterations must fail here first.
    #[test]
    fn each_entry_point_keeps_its_own_defaults() {
        let row = |s: &RunSpec| (s.max_iters, s.seed, s.init.clone(), s.compute_sse);
        let library = RunSpec::<()>::new(7);
        assert_eq!(row(&library), (100, 0, InitMethod::Forgy, true));
        let sem = RunSpec::<SemPlaneConfig>::new(7);
        assert_eq!(row(&sem.with_ext(())), (100, 0, InitMethod::Forgy, false));
        let dist = RunSpec::<DistExt<u8, u8>>::new(7, 0, 0);
        assert_eq!(row(&dist.with_ext(())), (100, 0, InitMethod::Forgy, false));
        assert_eq!((dist.ranks, dist.threads), (1, Some(1)), "both clamp to 1");
        let cli = RunSpec::defaults(Entry::Cli, 10);
        assert_eq!(row(&cli), (100, 1, InitMethod::PlusPlus, true));
        let train = RunSpec::<Job>::new("m", 7, Source::File("f".into()));
        assert_eq!(row(&train.with_ext(())), (30, 1, InitMethod::Forgy, false));
        assert_eq!((train.model.as_str(), train.engine.token()), ("m", "im"));
        let ranks = |entry| match Engine::parse("dist", entry).unwrap() {
            Engine::Dist { ranks, star: false, plane: RankPlane::InMemory } => ranks,
            other => panic!("{other:?}"),
        };
        assert_eq!((ranks(Entry::Cli), ranks(Entry::Train)), (4, 2));
        // What no entry point touches is the same everywhere.
        for s in [&library, &cli, &train.with_ext(())] {
            assert_eq!((s.k, s.tol, s.threads, s.task_size), (s.k, 0.0, None, DEFAULT_TASK_SIZE));
            assert_eq!((s.pruning, s.kernel), Default::default());
            assert_eq!(
                (s.scheduler, s.numa_aware, s.track_tallies),
                (SchedulerKind::NumaAware, true, false)
            );
            assert_eq!(s.algo, Algorithm::Lloyd);
            assert!(s.topology.is_none() && s.trace.is_none());
        }
        let io = SemPlaneConfig::default();
        assert_eq!(
            (io.page_size, io.page_cache_bytes, io.row_cache_bytes),
            (4096, 1 << 30, 512 << 20)
        );
        assert_eq!(
            (io.cache_interval, io.lazy_refresh, io.prefetch, io.prefetch_threads),
            (5, true, false, 2)
        );
    }

    #[test]
    fn resolve_gates_pruning_once_for_every_engine() {
        let topo = Topology::synthetic(2, 2);
        let base = RunSpec::<()>::new(4).with_threads(4).with_topology(topo);
        let r = base.resolve(10..40, 100, 3, None, 7);
        assert_eq!((r.driver.n, r.driver.row_offset, r.driver.nthreads), (30, 10, 4));
        assert_eq!(r.driver.pruning, Pruning::Mti);
        assert_eq!(r.placement.nrow(), 30);
        // Pruning is sound for Lloyd only.
        let fuzzy =
            base.clone().with_algo(Algorithm::Fuzzy { m: 2.0 }).resolve(0..100, 100, 3, None, 0);
        assert_eq!(fuzzy.driver.pruning, Pruning::None);
        let oblivious = base.clone().with_numa_aware(false).resolve(0..100, 100, 3, None, 0);
        assert_eq!(oblivious.thread_node, [0, 1, 0, 1].map(NodeId), "oblivious threads spread");
        // A rank's own topology overrides the description's.
        let flat = base.resolve(0..50, 100, 3, Some(Topology::flat(4)), 1);
        assert_eq!(flat.topo.nodes(), 1);
    }
}

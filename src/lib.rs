//! # knor — NUMA-optimized k-means, in Rust
//!
//! A from-scratch reproduction of *knor: A NUMA-Optimized In-Memory,
//! Distributed and Semi-External-Memory k-means Library* (HPDC 2017).
//! This facade crate re-exports the three user-facing modules and their
//! substrates:
//!
//! | Module | Use when | Entry point |
//! |--------|----------|-------------|
//! | **knori** (in-memory) | data fits in RAM | [`Kmeans`] |
//! | **knors** (semi-external) | data fits on disk, `O(n)` RAM | [`SemKmeans`] |
//! | **knord** (distributed) | data fits in aggregate cluster RAM | [`DistKmeans`] |
//!
//! ```
//! use knor::prelude::*;
//!
//! // 2,000 points with 16 natural clusters, like the paper's Friendster
//! // eigenvector workloads.
//! let data = MixtureSpec::friendster_like(2_000, 8, 42).generate().data;
//! let result = Kmeans::new(KmeansConfig::new(10).with_seed(1)).fit(&data);
//! assert!(result.converged);
//! println!(
//!     "{} iters, {:.1}% of distance computations pruned",
//!     result.niters,
//!     100.0 * result.prune_fraction(2_000, 10)
//! );
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use knor_baselines as baselines;
pub use knor_core as core;
pub use knor_dist as dist;
pub use knor_matrix as matrix;
pub use knor_mpi as mpi;
pub use knor_numa as numa;
pub use knor_safs as safs;
pub use knor_sched as sched;
pub use knor_sem as sem;
pub use knor_serve as serve;
pub use knor_workloads as workloads;

pub use knor_core::{
    Algorithm, InitMethod, IterStats, Kmeans, KmeansConfig, KmeansResult, NumaReport, Pruning,
    Replication,
};
pub use knor_dist::{DistConfig, DistKmeans, DistResult, RankIo, RankPlane};
pub use knor_matrix::DMatrix;
pub use knor_sem::{SemConfig, SemInit, SemKmeans, SemPlaneConfig, SemResult};
pub use knor_serve::{ServeConfig, ServeHandle};

/// One-stop imports for typical use.
pub mod prelude {
    pub use knor_core::{
        fma_usable, Algorithm, InitMethod, KernelKind, Kmeans, KmeansConfig, KmeansResult,
        NumaReport, PhaseBreakdown, Pruning, Replication, TraceBuf, TunePolicy, Tuning,
    };
    pub use knor_dist::{DistConfig, DistKmeans, DistResult, RankIo, RankPlane};
    pub use knor_matrix::{io as matrix_io, DMatrix};
    pub use knor_mpi::ReduceAlgo;
    pub use knor_sched::SchedulerKind;
    pub use knor_sem::{SemConfig, SemInit, SemKmeans, SemPlaneConfig, SemResult};
    pub use knor_serve::{
        Prediction, ServeConfig, ServeHandle, StatsSnapshot, TrainSource, TrainSpec,
    };
    pub use knor_workloads::{MixtureSpec, PaperDataset};
}

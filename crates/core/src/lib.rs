//! `knor-core` — the ||Lloyd's engine with MTI pruning (the paper's knori).
//!
//! # The algorithm
//!
//! Classic Lloyd's alternates two globally-barriered phases: (I) assign each
//! point to its nearest centroid, (II) recompute centroids as the mean of
//! their members. Phase II parallelism is limited by contention on the
//! shared next-iteration centroids. knor's ||Lloyd's (Algorithm 1) gives
//! every thread a private copy of the next-iteration centroids, merges
//! phases I and II into one *super-phase*, and reduces the per-thread
//! copies in parallel at the end of the iteration — one global barrier
//! instead of two, and no locks on the hot path.
//!
//! # MTI pruning
//!
//! Elkan's triangle-inequality algorithm prunes distance computations but
//! keeps an `O(nk)` lower-bound matrix. knor's *minimal triangle
//! inequality* (MTI) keeps only an `O(n)` vector of upper bounds plus an
//! `O(k^2)` centroid–centroid distance matrix and applies three of Elkan's
//! four clauses:
//!
//! * **Clause 1** — if `u(x) <= ½·min_{c≠a} d(a, c)`, the point keeps its
//!   assignment and *no data access at all* is needed (in SEM mode this
//!   also skips the I/O request);
//! * **Clause 2** — a candidate `c` is skipped when `u(x) <= ½·d(a, c)`;
//! * **Clause 3** — after tightening `u(x)` to the exact distance
//!   (`U(u_t)` in the paper), the same test prunes again.
//!
//! (The paper's prose omits Elkan's ½ factor; we implement the correct
//! bound — see DESIGN.md §3.)
//!
//! # Quick start
//!
//! ```
//! use knor_core::{Kmeans, KmeansConfig};
//! use knor_matrix::DMatrix;
//!
//! let data = DMatrix::from_vec(
//!     vec![0.0, 0.1, 0.2, 10.0, 10.1, 9.9, -5.0, -5.1, -4.9],
//!     9,
//!     1,
//! );
//! let result = Kmeans::new(KmeansConfig::new(3).with_seed(1)).fit(&data);
//! assert!(result.converged);
//! assert_eq!(result.centroids.nrow(), 3);
//! ```

pub mod algo;
pub mod centroids;
pub mod distance;
pub mod driver;
pub mod engine;
pub mod init;
pub mod kernel;
pub mod plane;
pub mod pruning;
pub mod quality;
pub mod serial;
pub mod spec;
pub mod stats;
pub mod trace;

pub use algo::{Algorithm, MapOut, MmAlgorithm, Normalization, UpdateCtx};
pub use centroids::{Centroids, LocalAccum};
pub use driver::{DriverConfig, DriverOutcome, IterView, ReduceReport, Reducer, WorkerReport};
pub use engine::{Kmeans, KmeansConfig};
pub use init::InitMethod;
pub use kernel::{fma_usable, KernelKind, ResolvedKernel, ResolvedKind};
pub use plane::{DataPlane, DrainScratch, RowSource, SlicePlane};
pub use pruning::Pruning;
pub use spec::{Replication, RunSpec};
pub use stats::{
    CommitCounters, InitStats, IterStats, KmeansResult, LoadStats, MemoryFootprint, NumaReport,
    SettleStats,
};
pub use trace::{Phase, PhaseBreakdown, PhaseGroup, Span, TraceBuf, TraceHandle, WorkerTracer};

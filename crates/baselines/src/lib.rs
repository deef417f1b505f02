//! `knor-baselines` — every comparator the paper evaluates against.
//!
//! * [`serial`] — iterative serial Lloyd's variants standing in for the
//!   Table 3 row set (R / Scikit-learn / MLpack style loops).
//! * [`gemm`] — k-means over our own blocked matrix multiply, the
//!   MATLAB/BLAS GEMM formulation of Table 3.
//! * [`elkan`] — the *full* triangle-inequality algorithm with the `O(nk)`
//!   lower-bound matrix that MTI deliberately drops (Table 1's memory
//!   contrast, and the pruning-rate comparison).
//! * [`minibatch`] — Sculley's web-scale approximation (Related Work).
//!   Now a serial mirror of `Algorithm::MiniBatch` on the parallel driver,
//!   kept for exact parity testing against the engines.
//! * [`spherical`] — a §9 future-work variant, likewise the serial mirror
//!   of `Algorithm::Spherical` (the engines run it natively since the
//!   `MmAlgorithm` layer landed — DESIGN.md §8).

pub mod elkan;
pub mod gemm;
pub mod minibatch;
pub mod serial;
pub mod spherical;

pub use elkan::elkan_full_ti;
pub use gemm::gemm_lloyd;
pub use minibatch::minibatch_kmeans;
pub use serial::{alloc_heavy_lloyd, naive_indexed_lloyd};
pub use spherical::spherical_kmeans;

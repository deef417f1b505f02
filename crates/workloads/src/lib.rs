//! Synthetic workload generators reproducing the paper's datasets (Table 2).
//!
//! The paper evaluates on two kinds of data:
//!
//! * **Friendster top-8 / top-32 eigenvectors** — spectral embeddings of a
//!   power-law social graph. What matters for knor is that they contain
//!   *natural clusters with well-defined centroids* of power-law sizes,
//!   which makes MTI pruning effective (§8). [`gmm`] generates mixtures
//!   with exactly those properties.
//! * **Rand-Multivariate / Rand-Univariate** — random synthetic data,
//!   "typically the worst case scenario for the convergence of k-means"
//!   (§8.8). [`uniform`] generates these.
//!
//! [`catalog`] names each paper dataset and scales it (default 1/1000) so
//! the whole evaluation runs on a laptop; the generators are deterministic
//! given a seed.
//!
//! [`grid`] adds a third, non-paper workload: deterministic well-separated
//! grid clusters where bound pruning (MTI, Elkan) is maximally
//! effective — the benchmark counterpart to the RM/RU worst case.

pub mod catalog;
pub mod gmm;
pub mod grid;
pub mod uniform;

pub use catalog::{PaperDataset, ScaledDataset};
pub use gmm::{Balance, MixtureSpec, PlantedMixture};
pub use grid::grid_clusters;
pub use uniform::{uniform_matrix, univariate_matrix};

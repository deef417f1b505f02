//! NUMA topology, thread binding, data placement and the access cost model.
//!
//! knor's in-memory performance comes from three NUMA policies (paper §5.2):
//!
//! 1. bind every worker thread to a NUMA *node* (not a core);
//! 2. partition the dataset across nodes so each thread's block lives in its
//!    node's local memory bank (Fig. 1);
//! 3. schedule tasks so threads prefer rows homed on their own node (Fig. 2).
//!
//! This crate supplies the substrate for all three: [`Topology`] describes
//! real or synthetic machines, [`bind`] applies CPU affinity on Linux,
//! [`placement`] computes the Fig. 1 block mapping, [`NumaMatrix`] stores a
//! matrix as per-node arenas (advised onto huge pages by [`pages`]), and
//! [`cost`] converts exact local/remote access
//! tallies into modeled iteration time so the paper's 48-core scaling
//! experiments can be reproduced on small hosts (DESIGN.md §3.1).

pub mod bind;
pub mod cost;
pub mod pages;
pub mod placement;
pub mod topology;

mod numa_matrix;

pub use cost::{AccessTally, CostModel, IterationCost};
pub use numa_matrix::NumaMatrix;
pub use placement::Placement;
pub use topology::{NodeId, Topology};

//! MPI-lite: the message-passing substrate under knord.
//!
//! The paper's knord runs one decentralized MPI process per machine and
//! reduces per-iteration centroid state with `MPI_Allreduce`. This crate
//! reimplements the pieces knord needs, from scratch, as in-process ranks
//! connected by byte channels (DESIGN.md §3.3):
//!
//! * [`LocalCluster`] — spawns `R` rank threads over a full mesh of
//!   channels; every transfer moves real serialized bytes, so per-rank
//!   traffic counters are exact.
//! * [`Comm`] — rank handle with `send`/`recv`, barrier, broadcast, and two
//!   all-reduce algorithms: **ring** (bandwidth-optimal, what a decent MPI
//!   uses for large payloads — knord's pattern) and **star** (master
//!   aggregation — the MLlib/driver pattern the paper contrasts against).
//! * [`NetModel`] — converts measured byte counts into modeled wire time
//!   for a 10 GbE EC2-like cluster, used by the Fig. 11–13 harnesses.

pub mod cluster;
pub mod collectives;
pub mod net;

pub use cluster::{Comm, CommStats, LocalCluster};
pub use collectives::ReduceAlgo;
pub use net::{LineConn, NetModel};

//! Per-NUMA-node read replicas of the iteration state.
//!
//! Every assignment-phase read — centroid means, the norm-trick
//! `‖c‖²` cache, and the MTI half-distance (ccdist), half-min and drift
//! tables — goes through [`crate::driver::IterView`]. With one shared copy, all workers on all
//! nodes pull those cache lines across the interconnect each iteration;
//! at the headline shape this is the hottest remaining remote-read path.
//! This module gives the driver one replica of that state per NUMA node,
//! allocated and first-touched by a worker *pinned to that node*, so
//! assignment-phase reads are node-local by construction. (The packed
//! GEMM panel needs no replica of its own: every worker packs it into its
//! own drain scratch, once per iteration, from whatever centroids the view
//! hands it, so it inherits node locality from the replicated means.)
//!
//! The per-iteration merge stays canonical — the coordinator finalizes
//! one authoritative copy exactly as before — and replication becomes an
//! *op-log apply*: the coordinator's drift pass records which centroids
//! moved ([`OpLog`]), and after the coordinator window one designated
//! writer per node copies just the drifted means, their refreshed norms
//! and the touched ccdist rows/columns (plus the always-rewritten
//! drift/half-min vectors) into its node's replica, in canonical order.
//!
//! # Bitwise identity
//!
//! Replication must not change trajectories, so the delta rule is exactly
//! the canonical state's own update rule:
//!
//! * a zero-drift centroid's mean is *numerically* unchanged
//!   (`Σ(old_j − new_j)² = 0` forces every coordinate equal), so the
//!   replica's stale row can differ from the canonical row only in the
//!   sign of zero coordinates — and every consumer (squared distances,
//!   dot products accumulated from `+0.0`, strict-`<` argmin) is
//!   insensitive to that sign;
//! * the canonical `cnorms` cache itself refreshes only drifted entries,
//!   so copying exactly those keeps replica and canonical bitwise equal;
//! * a ccdist entry between two non-drifted centroids is recomputed by
//!   the canonical rebuild from numerically-identical operands, i.e. it
//!   is bitwise-stable, so only rows/columns of drifted centroids need
//!   copying (iteration 0 publishes in full to root the induction).
//!
//! The driver's barrier P orders the canonical writes against the node
//! writers' reads, and the next iteration's barrier A orders the
//! writers' stores against all node-local readers.

use crate::centroids::Centroids;
use crate::pruning::{MtiIterState, Pruning, YinyangState};
use crate::sync::ExclusiveCell;

/// The replication knob carried on every engine config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replication {
    /// Never replicate: all workers read the one shared copy.
    Off,
    /// Replicate when it can pay: the resolved topology has more than one
    /// NUMA node (and the engine is running NUMA-aware).
    #[default]
    Auto,
    /// Always replicate, even on a single node (testing / benchmarking).
    On,
}

impl Replication {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "off" => Replication::Off,
            "auto" => Replication::Auto,
            "on" => Replication::On,
            _ => return None,
        })
    }

    /// Canonical CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Replication::Off => "off",
            Replication::Auto => "auto",
            Replication::On => "on",
        }
    }

    /// Resolve the knob against a topology's node count. `Auto` replicates
    /// only when crossing the interconnect is possible at all. (Engines
    /// with a NUMA-oblivious mode additionally gate `Auto` on being
    /// NUMA-aware.)
    pub fn resolve(self, nodes: usize) -> bool {
        match self {
            Replication::Off => false,
            Replication::On => true,
            Replication::Auto => nodes > 1,
        }
    }
}

/// One node's replica of the read-shared iteration state.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// Node-local copy of the current centroids (`C^t`).
    pub cents: Centroids,
    /// Node-local copy of the norm-trick `‖c‖²` cache (empty when the
    /// resolved kernel does not use it).
    pub cnorms: Vec<f64>,
    /// Node-local copy of the MTI ccdist/half-min/drift tables (zero-sized
    /// and never read unless the scheme is MTI).
    pub mti: MtiIterState,
    /// Node-local copy of the Yinyang grouping + drift state (zero-sized
    /// and never read unless the scheme is Yinyang; the grouping tables
    /// are immutable after install, only the drifts are re-published).
    pub yy: YinyangState,
}

impl ReplicaState {
    /// Clone the canonical state. Called by the node writer *on its bound
    /// thread* before the first iteration, so first-touch places the
    /// replica's pages on the writer's node.
    pub fn from_canonical(
        cents: &Centroids,
        cnorms: &[f64],
        mti: &MtiIterState,
        yy: &YinyangState,
    ) -> Self {
        Self { cents: cents.clone(), cnorms: cnorms.to_vec(), mti: mti.clone(), yy: yy.clone() }
    }

    /// Apply one iteration's op-log: copy the drifted means, their
    /// refreshed norms and the touched ccdist rows/columns (plus the
    /// always-rewritten counts, drift and half-min vectors; under Yinyang
    /// the per-centroid and per-group drift vectors) from the canonical
    /// state. Returns the bytes copied — by construction equal to
    /// [`OpLog::bytes_per_node`] for the same shapes.
    pub fn apply(
        &mut self,
        log: &OpLog,
        cents: &Centroids,
        cnorms: &[f64],
        mti: Option<&MtiIterState>,
        yy: Option<&YinyangState>,
    ) -> u64 {
        let k = cents.k();
        let d = cents.d;
        let mut bytes = (k * 8) as u64;
        self.cents.counts.copy_from_slice(&cents.counts);
        if log.full {
            self.cents.means.copy_from_slice(&cents.means);
            bytes += (k * d * 8) as u64;
        } else {
            for &c in &log.drifted {
                self.cents.means[c * d..(c + 1) * d].copy_from_slice(cents.mean(c));
            }
            bytes += (log.drifted.len() * d * 8) as u64;
        }
        if !cnorms.is_empty() {
            if log.full {
                self.cnorms.copy_from_slice(cnorms);
                bytes += (k * 8) as u64;
            } else {
                for &c in &log.drifted {
                    self.cnorms[c] = cnorms[c];
                }
                bytes += (log.drifted.len() * 8) as u64;
            }
        }
        if let Some(m) = mti {
            // Drift and half-min are rewritten for every centroid each
            // iteration; copy them whole.
            self.mti.drift.copy_from_slice(&m.drift);
            self.mti.half_min.copy_from_slice(&m.half_min);
            bytes += (2 * k * 8) as u64;
            if log.copies_full_ccdist(k) {
                self.mti.half_cc.copy_from_slice(&m.half_cc);
                bytes += (k * k * 8) as u64;
            } else {
                for &c in &log.drifted {
                    self.mti.half_cc[c * k..(c + 1) * k]
                        .copy_from_slice(&m.half_cc[c * k..(c + 1) * k]);
                    for i in 0..k {
                        self.mti.half_cc[i * k + c] = m.half_cc[i * k + c];
                    }
                }
                bytes += (2 * log.drifted.len() * k * 8) as u64;
            }
        }
        if let Some(y) = yy {
            // Drift and group drift are rewritten each iteration; the
            // grouping tables were installed once and never change.
            self.yy.drift.copy_from_slice(&y.drift);
            self.yy.group_drift.copy_from_slice(&y.group_drift);
            bytes += ((y.drift.len() + y.group_drift.len()) * 8) as u64;
        }
        bytes
    }
}

/// The canonical delta of one iteration, recorded by the coordinator's
/// drift pass and applied to every node replica by its node writer.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Centroids whose drift was non-zero this iteration.
    pub drifted: Vec<usize>,
    /// Publish everything (iteration 0 roots the bitwise induction on a
    /// full copy).
    pub full: bool,
}

impl OpLog {
    /// Start recording a new iteration's delta.
    pub fn begin(&mut self, full: bool) {
        self.drifted.clear();
        self.full = full;
    }

    /// Record a drifted centroid (ascending order: the coordinator's
    /// drift pass runs `c = 0..k`).
    #[inline]
    pub fn record(&mut self, c: usize) {
        self.drifted.push(c);
    }

    /// Whether the ccdist copy degenerates to the full matrix (row+column
    /// copies would touch at least as many elements).
    #[inline]
    pub fn copies_full_ccdist(&self, k: usize) -> bool {
        self.full || 2 * self.drifted.len() >= k
    }

    /// Bytes [`ReplicaState::apply`] copies into *one* node replica for
    /// this delta (the `--stats` publish accounting multiplies by the
    /// populated node count). `ngroups` is the Yinyang group count `t`
    /// (ignored for other schemes).
    pub fn bytes_per_node(
        &self,
        k: usize,
        d: usize,
        scheme: Pruning,
        ngroups: usize,
        has_cnorms: bool,
    ) -> u64 {
        let nd = if self.full { k } else { self.drifted.len() };
        let mut bytes = (k * 8) as u64; // counts
        bytes += (nd * d * 8) as u64; // means
        if has_cnorms {
            bytes += (nd * 8) as u64;
        }
        match scheme {
            Pruning::None => {}
            Pruning::Mti => {
                bytes += (2 * k * 8) as u64; // drift + half_min
                bytes += if self.copies_full_ccdist(k) {
                    (k * k * 8) as u64
                } else {
                    (2 * self.drifted.len() * k * 8) as u64
                };
            }
            Pruning::Yinyang => {
                bytes += ((k + ngroups) * 8) as u64; // drift + group_drift
            }
        }
        bytes
    }
}

/// The per-node replica slots, owned by one driver run. Slot `node` is
/// written by that node's designated writer (installation before the
/// first barrier A, op-log applies between barriers P and A) and read by
/// that node's workers during the compute super-phase — the same manual
/// barrier discipline as [`ExclusiveCell`] everywhere else in the driver.
pub struct NodeReplicas {
    slots: Vec<ExclusiveCell<Option<ReplicaState>>>,
}

impl NodeReplicas {
    /// Empty slots for `nnodes` nodes. Nodes without workers keep `None`
    /// forever (and are never read).
    pub fn new(nnodes: usize) -> Self {
        Self { slots: (0..nnodes.max(1)).map(|_| ExclusiveCell::new(None)).collect() }
    }

    /// Number of slots.
    pub fn nnodes(&self) -> usize {
        self.slots.len()
    }

    /// Exclusive access to a node's slot.
    ///
    /// # Safety
    /// Caller must be `node`'s designated writer, before the first
    /// barrier A or between barriers P and the next A.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slot_mut(&self, node: usize) -> &mut Option<ReplicaState> {
        self.slots[node].get_mut()
    }

    /// Shared read access to a node's installed replica.
    ///
    /// # Safety
    /// Caller must be in a phase barrier-separated from the writer's
    /// installs/applies (between barriers A and P), and the slot must have
    /// been installed (the node has a writer).
    #[inline]
    pub unsafe fn get(&self, node: usize) -> &ReplicaState {
        self.slots[node].get().as_ref().expect("replica read before install")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::dist;

    fn cents(k: usize, d: usize, scale: f64) -> Centroids {
        let mut c = Centroids::zeros(k, d);
        for (i, x) in c.means.iter_mut().enumerate() {
            *x = (i as f64 * 0.37).sin() * scale;
        }
        for (i, n) in c.counts.iter_mut().enumerate() {
            *n = i as u64 + 1;
        }
        c
    }

    #[test]
    fn knob_parses_and_resolves() {
        assert_eq!(Replication::parse("off"), Some(Replication::Off));
        assert_eq!(Replication::parse("auto"), Some(Replication::Auto));
        assert_eq!(Replication::parse("on"), Some(Replication::On));
        assert_eq!(Replication::parse("maybe"), None);
        for r in [Replication::Off, Replication::Auto, Replication::On] {
            assert_eq!(Replication::parse(r.name()), Some(r));
        }
        assert!(!Replication::Off.resolve(4));
        assert!(Replication::On.resolve(1));
        assert!(!Replication::Auto.resolve(1));
        assert!(Replication::Auto.resolve(2));
    }

    #[test]
    fn full_then_delta_applies_track_canonical() {
        let (k, d) = (6, 3);
        let c0 = cents(k, d, 1.0);
        let mut mti0 = MtiIterState::new(k);
        mti0.update(&c0.clone(), &c0);
        let mut cn0 = vec![0.0; k];
        crate::kernel::centroid_sqnorms(&c0, &mut cn0);

        let mut rep =
            ReplicaState::from_canonical(&c0, &cn0, &MtiIterState::new(k), &YinyangState::empty());
        // Iteration 0: full publish.
        let mut log = OpLog::default();
        log.begin(true);
        let bytes = rep.apply(&log, &c0, &cn0, Some(&mti0), None);
        assert_eq!(bytes, log.bytes_per_node(k, d, Pruning::Mti, 0, true));
        assert_eq!(rep.cents, c0);
        assert_eq!(rep.cnorms, cn0);
        assert_eq!(rep.mti.half_cc, mti0.half_cc);

        // Iteration 1: two centroids drift; delta apply must land the
        // replica bitwise on the canonical state.
        let mut c1 = c0.clone();
        for j in 0..d {
            c1.means[2 * d + j] += 0.25;
            c1.means[5 * d + j] -= 0.5;
        }
        c1.counts[0] += 3;
        let mut mti1 = mti0.clone();
        mti1.update(&c0, &c1);
        let mut cn1 = cn0.clone();
        for c in [2usize, 5] {
            cn1[c] = crate::kernel::sqnorm(c1.mean(c));
        }
        log.begin(false);
        for c in 0..k {
            if dist(c0.mean(c), c1.mean(c)) != 0.0 {
                log.record(c);
            }
        }
        assert_eq!(log.drifted, vec![2, 5]);
        let bytes = rep.apply(&log, &c1, &cn1, Some(&mti1), None);
        assert_eq!(bytes, log.bytes_per_node(k, d, Pruning::Mti, 0, true));
        assert_eq!(rep.cents, c1);
        assert_eq!(rep.cnorms, cn1);
        // The canonical rebuild recomputed every pair, but entries between
        // two non-drifted centroids are bitwise-stable — so touching only
        // the drifted rows/columns reproduces the whole matrix.
        assert_eq!(rep.mti.half_cc, mti1.half_cc);
        assert_eq!(rep.mti.half_min, mti1.half_min);
        assert_eq!(rep.mti.drift, mti1.drift);
    }

    #[test]
    fn ccdist_copy_degenerates_to_full_matrix() {
        let k = 4;
        let mut log = OpLog::default();
        log.begin(false);
        log.record(0);
        assert!(!log.copies_full_ccdist(k));
        log.record(1);
        assert!(log.copies_full_ccdist(k), "2·nd == k copies the matrix");
        // Accounting follows the same rule: counts + 2 drifted means of
        // d=2 + drift/half_min + full ccdist.
        let b = log.bytes_per_node(k, 2, Pruning::Mti, 0, false);
        assert_eq!(b, (k * 8 + 2 * 2 * 8 + 2 * k * 8 + k * k * 8) as u64);
    }

    #[test]
    fn bytes_skip_absent_structures() {
        let mut log = OpLog::default();
        log.begin(false);
        log.record(3);
        let (k, d) = (8, 4);
        // No pruning, no cnorms: counts + one mean row.
        assert_eq!(log.bytes_per_node(k, d, Pruning::None, 0, false), (k * 8 + d * 8) as u64);
        // cnorms adds one entry.
        assert_eq!(log.bytes_per_node(k, d, Pruning::None, 0, true), (k * 8 + d * 8 + 8) as u64);
        // Yinyang publishes the per-centroid + per-group drifts, never an
        // O(k²) matrix.
        let t = 2;
        assert_eq!(
            log.bytes_per_node(k, d, Pruning::Yinyang, t, false),
            (k * 8 + d * 8 + (k + t) * 8) as u64
        );
    }

    #[test]
    fn yinyang_delta_apply_tracks_canonical() {
        let (k, d) = (20, 3);
        let c0 = cents(k, d, 1.0);
        let mut canon = YinyangState::group(&c0);
        let mut state = ReplicaState::from_canonical(&c0, &[], &MtiIterState::new(0), &canon);
        // A later iteration's canonical drift pass…
        for (c, dr) in canon.drift.iter_mut().enumerate() {
            *dr = (c as f64 * 0.13).sin().abs();
        }
        canon.update_group_drift();
        // …lands bitwise on the replica through the O(k + t) delta.
        let mut log = OpLog::default();
        log.begin(false);
        let bytes = state.apply(&log, &c0, &[], None, Some(&canon));
        assert_eq!(bytes, log.bytes_per_node(k, d, Pruning::Yinyang, canon.t(), false));
        assert_eq!(state.yy.drift, canon.drift);
        assert_eq!(state.yy.group_drift, canon.group_drift);
        assert_eq!(state.yy.group_of, canon.group_of);
    }

    #[test]
    fn replicas_install_and_read() {
        let reps = NodeReplicas::new(2);
        assert_eq!(reps.nnodes(), 2);
        let c = cents(3, 2, 1.0);
        // Single-threaded stand-in for the barrier-ordered protocol.
        unsafe {
            *reps.slot_mut(1) = Some(ReplicaState::from_canonical(
                &c,
                &[],
                &MtiIterState::new(3),
                &YinyangState::empty(),
            ));
            assert_eq!(reps.get(1).cents, c);
        }
    }
}

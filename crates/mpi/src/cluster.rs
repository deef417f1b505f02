//! In-process rank cluster with a full channel mesh.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crossbeam_channel::{unbounded, Receiver, Sender};

/// Per-rank traffic counters (exact, byte-accurate).
#[derive(Debug, Default)]
pub struct CommStats {
    /// Bytes this rank put on the wire.
    pub bytes_sent: AtomicU64,
    /// Bytes this rank received.
    pub bytes_received: AtomicU64,
    /// Messages sent.
    pub messages_sent: AtomicU64,
}

impl CommStats {
    /// Snapshot `(bytes_sent, bytes_received, messages_sent)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
            self.messages_sent.load(Ordering::Relaxed),
        )
    }
}

/// A rank's communicator handle.
///
/// Channels are unbounded, so point-to-point sends never deadlock; the
/// collectives in [`crate::collectives`] are built on these primitives.
pub struct Comm {
    rank: usize,
    size: usize,
    /// `senders[to]` delivers into rank `to`'s `receivers[self.rank]`.
    senders: Vec<Sender<Vec<u8>>>,
    /// `receivers[from]` yields messages sent by rank `from`.
    receivers: Vec<Receiver<Vec<u8>>>,
    barrier: Arc<Barrier>,
    stats: Arc<CommStats>,
}

impl Comm {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size `R`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's traffic counters.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Send `bytes` to rank `to`.
    pub fn send(&self, to: usize, bytes: Vec<u8>) {
        debug_assert_ne!(to, self.rank, "self-send is a bug in a collective");
        self.stats.bytes_sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.senders[to].send(bytes).expect("peer rank hung up");
    }

    /// Block until a message from rank `from` arrives.
    pub fn recv(&self, from: usize) -> Vec<u8> {
        let bytes = self.receivers[from].recv().expect("peer rank hung up");
        self.stats.bytes_received.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        bytes
    }

    /// Global barrier across all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Spawns rank threads wired into a full mesh.
pub struct LocalCluster;

impl LocalCluster {
    /// Run `f` on `nranks` rank threads; returns each rank's result in rank
    /// order. Panics in any rank propagate.
    pub fn run<F, T>(nranks: usize, f: F) -> Vec<T>
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        assert!(nranks >= 1);
        // mesh[from][to] channel endpoints.
        let mut senders: Vec<Vec<Option<Sender<Vec<u8>>>>> = Vec::with_capacity(nranks);
        let mut receivers: Vec<Vec<Option<Receiver<Vec<u8>>>>> =
            (0..nranks).map(|_| (0..nranks).map(|_| None).collect()).collect();
        for from in 0..nranks {
            let mut row = Vec::with_capacity(nranks);
            for (to, rrow) in receivers.iter_mut().enumerate() {
                if from == to {
                    row.push(None);
                } else {
                    let (tx, rx) = unbounded();
                    row.push(Some(tx));
                    rrow[from] = Some(rx);
                }
            }
            senders.push(row);
        }
        // Self-channels so the Vec indices line up (never used).
        let barrier = Arc::new(Barrier::new(nranks));

        let mut comms: Vec<Comm> = Vec::with_capacity(nranks);
        for (rank, (srow, rrow)) in senders.into_iter().zip(receivers).enumerate() {
            let (dummy_tx, dummy_rx) = unbounded();
            let senders: Vec<Sender<Vec<u8>>> =
                srow.into_iter().map(|s| s.unwrap_or_else(|| dummy_tx.clone())).collect();
            let receivers: Vec<Receiver<Vec<u8>>> =
                rrow.into_iter().map(|r| r.unwrap_or_else(|| dummy_rx.clone())).collect();
            comms.push(Comm {
                rank,
                size: nranks,
                senders,
                receivers,
                barrier: Arc::clone(&barrier),
                stats: Arc::new(CommStats::default()),
            });
        }

        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = comms.into_iter().map(|comm| s.spawn(move || f(comm))).collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }
}

/// Encode an `f64` slice as little-endian bytes.
pub fn encode_f64(xs: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes into `f64`s.
pub fn decode_f64(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let ids = LocalCluster::run(4, |c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = LocalCluster::run(3, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, vec![c.rank() as u8]);
            let got = c.recv(left);
            got[0]
        });
        assert_eq!(out, vec![2, 0, 1]);
    }

    #[test]
    fn traffic_counters_exact() {
        let sent = LocalCluster::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![0u8; 1000]);
            } else {
                let b = c.recv(0);
                assert_eq!(b.len(), 1000);
            }
            c.barrier();
            c.stats().snapshot()
        });
        assert_eq!(sent[0].0, 1000);
        assert_eq!(sent[1].1, 1000);
        assert_eq!(sent[0].2, 1);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let phase1 = AtomicU32::new(0);
        LocalCluster::run(4, |c| {
            phase1.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn codecs_round_trip() {
        let xs = [1.5f64, -0.25, f64::MIN_POSITIVE];
        assert_eq!(decode_f64(&encode_f64(&xs)), xs);
    }

    #[test]
    fn single_rank_cluster() {
        let out = LocalCluster::run(1, |c| {
            c.barrier();
            c.rank()
        });
        assert_eq!(out, vec![0]);
    }
}

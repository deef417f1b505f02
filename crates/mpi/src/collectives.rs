//! Collective operations: ring and star sum all-reduce, and a max
//! all-reduce — the two knord runs on.
//!
//! knord's per-iteration global state is one all-reduce of `k·d` sums plus
//! `k` counts. A bandwidth-optimal ring moves `2·(R-1)/R` of the payload
//! per rank regardless of `R`; the star (driver aggregation, Spark-style)
//! funnels `(R-1)` payloads through one root — the structural reason the
//! paper's decentralized design beats master-centric frameworks as clusters
//! grow.
//!
//! # Reproducibility
//!
//! Both all-reduce algorithms accumulate every chunk **in rank order**
//! (`((a₀ + a₁) + a₂) + …`), so `allreduce_f64` is bitwise deterministic
//! and algorithm-independent: a knord run reduces to identical centroids
//! whether it uses the ring or the star. The ring achieves this with a
//! *direct* reduce-scatter (each rank sends its contribution for chunk `c`
//! straight to chunk `c`'s owner, which folds the `R` contributions in
//! rank order) followed by a ring all-gather — the same `2·(R-1)/R`
//! per-rank traffic as the classic incremental ring, without imposing the
//! ring's traversal order on the floating-point sums.

use crate::cluster::{decode_f64, encode_f64, Comm};

/// Which all-reduce algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceAlgo {
    /// Chunked ring: reduce-scatter + all-gather, `2(R-1)` steps.
    #[default]
    Ring,
    /// Root gathers, reduces, broadcasts (the master/driver pattern).
    Star,
}

/// Split `len` into `parts` near-equal chunk ranges (ring chunking).
fn chunks(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let l = base + usize::from(i < extra);
        out.push(start..start + l);
        start += l;
    }
    out
}

/// Sum-all-reduce `buf` across all ranks in place.
pub fn allreduce_f64(comm: &Comm, buf: &mut [f64], algo: ReduceAlgo) {
    match algo {
        ReduceAlgo::Ring => ring_allreduce(comm, buf),
        ReduceAlgo::Star => star_allreduce(comm, buf),
    }
}

fn ring_allreduce(comm: &Comm, buf: &mut [f64]) {
    let r = comm.size();
    if r == 1 || buf.is_empty() {
        return;
    }
    let rank = comm.rank();
    let right = (rank + 1) % r;
    let left = (rank + r - 1) % r;
    let ranges = chunks(buf.len(), r);

    // Phase 1: direct reduce-scatter. Every rank sends its contribution
    // for chunk o straight to o's owner; the owner folds all R
    // contributions in rank order (see module docs: this makes the sum
    // bitwise identical to the star's).
    for o in 0..r {
        if o != rank {
            comm.send(o, encode_f64(&buf[ranges[o].clone()]));
        }
    }
    let own = ranges[rank].clone();
    let mut acc: Vec<f64> =
        if rank == 0 { buf[own.clone()].to_vec() } else { decode_f64(&comm.recv(0)) };
    for from in 1..r {
        if from == rank {
            for (a, b) in acc.iter_mut().zip(&buf[own.clone()]) {
                *a += b;
            }
        } else {
            let incoming = decode_f64(&comm.recv(from));
            for (a, b) in acc.iter_mut().zip(&incoming) {
                *a += b;
            }
        }
    }
    buf[own].copy_from_slice(&acc);

    // Phase 2: all-gather the reduced chunks around the ring.
    for s in 0..r - 1 {
        let send_idx = (rank + r - s) % r;
        let recv_idx = (rank + r - s - 1) % r;
        comm.send(right, encode_f64(&buf[ranges[send_idx].clone()]));
        let incoming = decode_f64(&comm.recv(left));
        buf[ranges[recv_idx].clone()].copy_from_slice(&incoming);
    }
}

fn star_allreduce(comm: &Comm, buf: &mut [f64]) {
    let r = comm.size();
    if r == 1 {
        return;
    }
    if comm.rank() == 0 {
        for from in 1..r {
            let other = decode_f64(&comm.recv(from));
            for (a, b) in buf.iter_mut().zip(&other) {
                *a += b;
            }
        }
        let bytes = encode_f64(buf);
        for to in 1..r {
            comm.send(to, bytes.clone());
        }
    } else {
        comm.send(0, encode_f64(buf));
        let reduced = decode_f64(&comm.recv(0));
        buf.copy_from_slice(&reduced);
    }
}

/// Max-all-reduce a single `u64` across all ranks (star; the payload is 8
/// bytes, so topology does not matter). knord uses this for per-iteration
/// "slowest rank" metrics like wire bytes.
pub fn allreduce_max_u64(comm: &Comm, value: u64) -> u64 {
    let r = comm.size();
    if r == 1 {
        return value;
    }
    if comm.rank() == 0 {
        let mut max = value;
        for from in 1..r {
            let bytes = comm.recv(from);
            max = max.max(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        }
        let out = max.to_le_bytes().to_vec();
        for to in 1..r {
            comm.send(to, out.clone());
        }
        max
    } else {
        comm.send(0, value.to_le_bytes().to_vec());
        let bytes = comm.recv(0);
        u64::from_le_bytes(bytes[..8].try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LocalCluster;

    fn check_allreduce(nranks: usize, len: usize, algo: ReduceAlgo) {
        let results = LocalCluster::run(nranks, |c| {
            let mut buf: Vec<f64> = (0..len).map(|i| (c.rank() * len + i) as f64 * 0.5).collect();
            allreduce_f64(&c, &mut buf, algo);
            buf
        });
        // Expected: elementwise sum of every rank's initial buffer.
        let expected: Vec<f64> =
            (0..len).map(|i| (0..nranks).map(|r| (r * len + i) as f64 * 0.5).sum()).collect();
        for (rank, buf) in results.iter().enumerate() {
            for (j, (&got, &want)) in buf.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "{algo:?} R={nranks} len={len} rank {rank} idx {j}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn ring_allreduce_sums() {
        for r in [1, 2, 3, 4, 7] {
            for len in [1usize, 5, 64, 1000] {
                check_allreduce(r, len, ReduceAlgo::Ring);
            }
        }
    }

    #[test]
    fn star_allreduce_sums() {
        for r in [1, 2, 5] {
            for len in [1usize, 17, 256] {
                check_allreduce(r, len, ReduceAlgo::Star);
            }
        }
    }

    #[test]
    fn ring_and_star_are_bitwise_identical() {
        // The engine-level guarantee: algorithm choice must not change the
        // reduced floating-point values in any bit.
        for r in [2usize, 3, 4, 7] {
            let len = 257; // non-divisible by r: exercises chunk rounding
            let mk = |algo: ReduceAlgo| {
                LocalCluster::run(r, move |c| {
                    let mut buf: Vec<f64> = (0..len)
                        .map(|i| ((c.rank() * 7919 + i * 104729) as f64).sin() * 1e3)
                        .collect();
                    allreduce_f64(&c, &mut buf, algo);
                    buf
                })
            };
            let ring = mk(ReduceAlgo::Ring);
            let star = mk(ReduceAlgo::Star);
            for rank in 0..r {
                for (a, b) in ring[rank].iter().zip(&star[rank]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "R={r} rank={rank}: ring {a} != star {b}");
                }
            }
            // And every rank agrees with every other bitwise.
            for rank in 1..r {
                assert_eq!(ring[0], ring[rank]);
            }
        }
    }

    #[test]
    fn max_allreduce_agrees_everywhere() {
        let out = LocalCluster::run(5, |c| allreduce_max_u64(&c, (c.rank() as u64 * 13) % 37));
        let expect = (0..5u64).map(|r| (r * 13) % 37).max().unwrap();
        assert_eq!(out, vec![expect; 5]);
    }

    #[test]
    fn ring_traffic_is_bandwidth_optimal() {
        // Each rank sends 2(R-1)/R of the payload (+/- chunk rounding).
        let len = 1024usize;
        let r = 4;
        let stats = LocalCluster::run(r, |c| {
            let mut buf = vec![1.0f64; len];
            allreduce_f64(&c, &mut buf, ReduceAlgo::Ring);
            c.stats().snapshot().0
        });
        let payload = (len * 8) as u64;
        let expect = 2 * (r as u64 - 1) / r as u64 * payload; // = 1.5 * payload
        for sent in stats {
            let ratio = sent as f64 / payload as f64;
            assert!((ratio - 1.5).abs() < 0.1, "ratio {ratio}");
            let _ = expect;
        }
    }

    #[test]
    fn star_concentrates_traffic_at_root() {
        let len = 1024usize;
        let r = 4;
        let stats = LocalCluster::run(r, |c| {
            let mut buf = vec![1.0f64; len];
            allreduce_f64(&c, &mut buf, ReduceAlgo::Star);
            c.stats().snapshot()
        });
        let payload = (len * 8) as u64;
        // Root receives (R-1) payloads and sends (R-1).
        assert_eq!(stats[0].1, 3 * payload);
        assert_eq!(stats[0].0, 3 * payload);
        // Leaves each send/receive exactly one payload.
        for s in &stats[1..] {
            assert_eq!(s.0, payload);
            assert_eq!(s.1, payload);
        }
    }
}

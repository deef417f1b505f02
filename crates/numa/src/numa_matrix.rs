//! NUMA-partitioned matrix storage.
//!
//! [`NumaMatrix`] holds the dataset as one arena per NUMA node, with each
//! thread's Fig. 1 row block stored contiguously inside its node's arena.
//! On hosts that really have multiple nodes each block is first-touched by
//! a thread bound to the owning node, which — under Linux's default
//! first-touch page placement policy — physically places the pages on that
//! node's bank without needing `mbind`. On synthetic topologies the arenas
//! are plain allocations and placement is purely logical (it still drives
//! the scheduler's local-first task order). Either way each arena is
//! advised onto transparent huge pages before its first touch
//! ([`crate::pages`]).
//!
//! There is one builder with two fills: [`NumaMatrix::load`] reads a file
//! into place (one copy of the data, read in parallel, read = first
//! touch) and [`NumaMatrix::from_dmatrix`] copies a matrix the caller
//! already holds.

use std::io;
use std::ops::Range;

use crate::bind::bind_current_thread;
use crate::pages::advise_huge_pages;
use crate::placement::Placement;
use crate::topology::{NodeId, Topology};
use knor_matrix::io::MatrixFile;
use knor_matrix::{DMatrix, Rows};

/// A matrix partitioned across NUMA-node arenas (Fig. 1 layout).
#[derive(Debug)]
pub struct NumaMatrix {
    /// One contiguous arena per node; rows of threads bound to the node, in
    /// thread order.
    arenas: Vec<Vec<f64>>,
    ncol: usize,
    placement: Placement,
    /// Starting row offset (within the node arena) of each thread's block.
    thread_arena_base: Vec<usize>,
}

impl NumaMatrix {
    /// Distribute a copy of `m` across nodes according to `placement`.
    pub fn from_dmatrix(topo: &Topology, placement: &Placement, m: &DMatrix) -> Self {
        assert_eq!(m.nrow(), placement.nrow());
        let ncol = m.ncol();
        Self::build(topo, placement, ncol, |rows, block| {
            block.copy_from_slice(&m.as_slice()[rows.start * ncol..rows.end * ncol]);
            Ok(())
        })
        .expect("a copy cannot fail")
    }

    /// Read `file` straight into the placed layout: every placement thread
    /// `pread`s its own Fig. 1 row block into its slice of its node's
    /// arena, so the data is held once and the read is the first touch. A
    /// failed read in any thread is returned after all of them have
    /// stopped (the first, in thread order).
    pub fn load(topo: &Topology, placement: &Placement, file: &MatrixFile) -> io::Result<Self> {
        let h = file.header();
        assert_eq!(h.nrow as usize, placement.nrow());
        Self::build(topo, placement, h.ncol as usize, |rows, block| {
            file.read_rows_into(rows, block)
        })
    }

    /// The one builder: untouched arenas, advised onto huge pages, split
    /// into the threads' blocks, each block written by `fill(rows, block)`
    /// on a thread of its own.
    ///
    /// When `topo` is detected and has more than one node that thread is
    /// bound to the block's node first, so the fill's writes — the first
    /// touch of those pages — place them on that node's bank.
    fn build(
        topo: &Topology,
        placement: &Placement,
        ncol: usize,
        fill: impl Fn(Range<usize>, &mut [f64]) -> io::Result<()> + Sync,
    ) -> io::Result<Self> {
        // Arena size per node and per-thread base offsets within its arena.
        let mut arena_rows = vec![0usize; placement.nnodes()];
        let mut thread_arena_base = vec![0usize; placement.nthreads()];
        for (t, base) in thread_arena_base.iter_mut().enumerate() {
            let node = placement.node_of_thread(t).0;
            *base = arena_rows[node];
            arena_rows[node] += placement.range_of_thread(t).len();
        }
        // Allocated zeroed, which leaves large arenas' pages untouched, so
        // the advice reaches every page before the fill faults it in.
        let mut arenas: Vec<Vec<f64>> =
            arena_rows.iter().map(|&rows| vec![0.0f64; rows * ncol]).collect();
        for arena in &mut arenas {
            advise_huge_pages(arena);
        }

        let do_bind = topo.is_detected() && topo.nodes() > 1;
        let mut unsplit: Vec<&mut [f64]> = arenas.iter_mut().map(Vec::as_mut_slice).collect();
        std::thread::scope(|s| {
            let fills: Vec<_> = (0..placement.nthreads())
                .map(|t| {
                    let node = placement.node_of_thread(t);
                    let rows = placement.range_of_thread(t);
                    // Blocks sit in an arena in thread order, as
                    // `thread_arena_base` says.
                    let (block, rest) =
                        std::mem::take(&mut unsplit[node.0]).split_at_mut(rows.len() * ncol);
                    unsplit[node.0] = rest;
                    let fill = &fill;
                    s.spawn(move || {
                        if do_bind {
                            let _ = bind_current_thread(topo, node);
                        }
                        fill(rows, block)
                    })
                })
                .collect();
            // Every thread is joined before the first error is reported.
            let filled: Vec<io::Result<()>> = fills
                .into_iter()
                .map(|h| h.join().expect("arena population thread panicked"))
                .collect();
            filled.into_iter().collect::<io::Result<()>>()
        })?;

        Ok(Self { arenas, ncol, placement: placement.clone(), thread_arena_base })
    }

    /// Number of rows.
    #[inline]
    pub fn nrow(&self) -> usize {
        self.placement.nrow()
    }

    /// Number of columns.
    #[inline]
    pub fn ncol(&self) -> usize {
        self.ncol
    }

    /// The placement this matrix was built with.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Home node of `row`.
    #[inline]
    pub fn node_of_row(&self, row: usize) -> NodeId {
        self.placement.node_of_row(row)
    }

    /// Borrow `row`, returning the slice and the node whose bank served it.
    #[inline]
    pub fn row(&self, row: usize) -> (&[f64], NodeId) {
        let t = self.placement.thread_of_row(row);
        (self.in_block(t, row..row + 1), self.placement.node_of_thread(t))
    }

    /// `rows`, all of them in thread `t`'s block.
    #[inline]
    fn in_block(&self, t: usize, rows: Range<usize>) -> &[f64] {
        let local =
            self.thread_arena_base[t] + (rows.start - self.placement.thread_ranges()[t].start);
        let a = &self.arenas[self.placement.node_of_thread(t).0];
        &a[local * self.ncol..(local + rows.len()) * self.ncol]
    }

    /// Copy back into a contiguous [`DMatrix`] (tests / export).
    pub fn to_dmatrix(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.nrow(), self.ncol);
        for r in 0..self.nrow() {
            let (src, _) = self.row(r);
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Total heap bytes held by the arenas.
    pub fn heap_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| (a.len() * 8) as u64).sum()
    }
}

impl Rows for NumaMatrix {
    fn nrow(&self) -> usize {
        NumaMatrix::nrow(self)
    }
    fn ncol(&self) -> usize {
        self.ncol
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        NumaMatrix::row(self, i).0
    }
    /// As far as the end of the block `rows.start` is in.
    fn run(&self, rows: Range<usize>) -> &[f64] {
        let t = self.placement.thread_of_row(rows.start);
        let block_end = self.placement.thread_ranges()[t].end;
        self.in_block(t, rows.start..rows.end.min(block_end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_matrix(nrow: usize, ncol: usize) -> DMatrix {
        DMatrix::from_vec((0..nrow * ncol).map(|x| x as f64).collect(), nrow, ncol)
    }

    #[test]
    fn round_trip_preserves_rows() {
        let topo = Topology::synthetic(4, 2);
        let m = seq_matrix(103, 3);
        let p = Placement::new(&topo, 103, 8);
        let nm = NumaMatrix::from_dmatrix(&topo, &p, &m);
        assert_eq!(nm.to_dmatrix(), m);
    }

    #[test]
    fn rows_live_on_their_home_node() {
        let topo = Topology::synthetic(2, 4);
        let m = seq_matrix(100, 4);
        let p = Placement::new(&topo, 100, 4);
        let nm = NumaMatrix::from_dmatrix(&topo, &p, &m);
        for r in 0..100 {
            let (slice, node) = nm.row(r);
            assert_eq!(node, p.node_of_row(r));
            assert_eq!(slice, m.row(r));
        }
    }

    #[test]
    fn heap_accounting() {
        let topo = Topology::synthetic(2, 2);
        let m = seq_matrix(10, 4);
        let p = Placement::new(&topo, 10, 2);
        let nm = NumaMatrix::from_dmatrix(&topo, &p, &m);
        assert_eq!(nm.heap_bytes(), 10 * 4 * 8);
    }

    #[test]
    fn works_with_detected_topology() {
        let topo = Topology::detect();
        let m = seq_matrix(64, 2);
        let p = Placement::new(&topo, 64, 4);
        let nm = NumaMatrix::from_dmatrix(&topo, &p, &m);
        assert_eq!(nm.to_dmatrix(), m);
    }
}

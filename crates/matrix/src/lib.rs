//! Dense row-major matrix types and the knor binary on-disk format.
//!
//! Every knor module views the dataset as an `n x d` row-major matrix of `f64`
//! (one row per data point, as in the paper's nomenclature `V ∈ R^{n x d}`).
//! This crate provides:
//!
//! * [`DMatrix`] — an owned, contiguous row-major matrix.
//! * [`RowView`] — a borrowed view over any `&[f64]` with row structure.
//! * [`Rows`] — row access in global order over either, or over a placed layout.
//! * [`io`] — the flat binary format used by the semi-external-memory module
//!   (`knors`) and by the example/bench dataset writers.
//! * [`shared`] — a low-level shared-slice primitive used by the parallel
//!   engine to hand disjoint row ranges to worker threads without locks.

pub mod io;
pub mod shared;

use std::ops::Range;

/// An owned, dense, row-major `n x d` matrix of `f64`.
///
/// The backing storage is a single contiguous allocation so that sequential
/// row scans maximize prefetching and cache-line utilization (Section 5.2 of
/// the paper: "Effective data layout for CPU cache exploitation").
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    data: Vec<f64>,
    nrow: usize,
    ncol: usize,
}

impl DMatrix {
    /// Create a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != nrow * ncol`.
    pub fn from_vec(data: Vec<f64>, nrow: usize, ncol: usize) -> Self {
        assert_eq!(
            data.len(),
            nrow * ncol,
            "buffer length {} does not match {nrow}x{ncol}",
            data.len()
        );
        Self { data, nrow, ncol }
    }

    /// Create an `nrow x ncol` matrix of zeros.
    pub fn zeros(nrow: usize, ncol: usize) -> Self {
        Self { data: vec![0.0; nrow * ncol], nrow, ncol }
    }

    /// Number of rows (data points), `n`.
    #[inline]
    pub fn nrow(&self) -> usize {
        self.nrow
    }

    /// Number of columns (dimensionality), `d`.
    #[inline]
    pub fn ncol(&self) -> usize {
        self.ncol
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `i` as a `d`-length slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.nrow);
        &self.data[i * self.ncol..(i + 1) * self.ncol]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.nrow);
        &mut self.data[i * self.ncol..(i + 1) * self.ncol]
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterate over rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.ncol.max(1))
    }

    /// A borrowed view of a contiguous row range `[start, end)`.
    pub fn view(&self, start: usize, end: usize) -> RowView<'_> {
        assert!(start <= end && end <= self.nrow);
        RowView { data: &self.data[start * self.ncol..end * self.ncol], ncol: self.ncol }
    }

    /// View over the whole matrix.
    pub fn as_view(&self) -> RowView<'_> {
        RowView { data: &self.data, ncol: self.ncol }
    }

    /// Split the rows into `parts` near-equal contiguous ranges.
    ///
    /// This is the Fig. 1 partitioning: range `i` is the block handed to
    /// thread `i` (`alpha = n/T` rows per thread, with the remainder spread
    /// over the first `n % parts` ranges).
    pub fn partition_rows(nrow: usize, parts: usize) -> Vec<Range<usize>> {
        partition_rows(nrow, parts)
    }
}

/// Split `nrow` rows into `parts` near-equal contiguous ranges.
pub fn partition_rows(nrow: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = nrow / parts;
    let extra = nrow % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, nrow);
    out
}

/// Row access in global row order, whatever the storage: what the code
/// that walks a dataset outside the engines' worker loop (initialization,
/// the SSE pass) is written against, so it computes the same thing bit
/// for bit over a contiguous [`DMatrix`] and over a NUMA-placed layout.
/// Rows have at least one column.
pub trait Rows: Sync {
    /// Number of rows, `n`.
    fn nrow(&self) -> usize;
    /// Columns per row, `d`.
    fn ncol(&self) -> usize;
    /// Borrow row `i`.
    fn row(&self, i: usize) -> &[f64];
    /// The rows from `rows.start` on that sit in one slice of the storage,
    /// as far as `rows.end`: at least one row of a non-empty range.
    fn run(&self, rows: Range<usize>) -> &[f64];

    /// The rows `rows`, in order. A scan resolves the storage once per
    /// [`Rows::run`] instead of once per [`Rows::row`].
    fn rows_in(&self, rows: Range<usize>) -> impl Iterator<Item = &[f64]> {
        let d = self.ncol();
        let mut next = rows.start;
        std::iter::from_fn(move || {
            (next < rows.end).then(|| {
                let run = self.run(next..rows.end);
                next += run.len() / d;
                run.chunks_exact(d)
            })
        })
        .flatten()
    }
}

impl Rows for DMatrix {
    fn nrow(&self) -> usize {
        self.nrow
    }
    fn ncol(&self) -> usize {
        self.ncol
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        DMatrix::row(self, i)
    }
    #[inline]
    fn run(&self, rows: Range<usize>) -> &[f64] {
        &self.data[rows.start * self.ncol..rows.end * self.ncol]
    }
}

impl Rows for RowView<'_> {
    fn nrow(&self) -> usize {
        RowView::nrow(self)
    }
    fn ncol(&self) -> usize {
        self.ncol
    }
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        RowView::row(self, i)
    }
    #[inline]
    fn run(&self, rows: Range<usize>) -> &[f64] {
        &self.data[rows.start * self.ncol..rows.end * self.ncol]
    }
}

/// A borrowed row-structured view over a flat `f64` slice.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    data: &'a [f64],
    ncol: usize,
}

impl<'a> RowView<'a> {
    /// Wrap a flat row-major slice; `data.len()` must be a multiple of `ncol`.
    pub fn new(data: &'a [f64], ncol: usize) -> Self {
        assert!(ncol > 0 && data.len().is_multiple_of(ncol));
        Self { data, ncol }
    }

    /// Rows in this view.
    #[inline]
    pub fn nrow(&self) -> usize {
        self.data.len() / self.ncol
    }

    /// Columns per row.
    #[inline]
    pub fn ncol(&self) -> usize {
        self.ncol
    }

    /// Borrow row `i` (local index within the view).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.ncol..(i + 1) * self.ncol]
    }

    /// The flat backing slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Iterate rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &'a [f64]> + 'a {
        self.data.chunks_exact(self.ncol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_rows() {
        let m = DMatrix::from_vec((0..12).map(|x| x as f64).collect(), 4, 3);
        assert_eq!(m.nrow(), 4);
        assert_eq!(m.ncol(), 3);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(3), &[9.0, 10.0, 11.0]);
        assert_eq!(m.rows().count(), 4);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = DMatrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.as_slice(), &[0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn view_is_offset_correctly() {
        let m = DMatrix::from_vec((0..12).map(|x| x as f64).collect(), 4, 3);
        let v = m.view(1, 3);
        assert_eq!(v.nrow(), 2);
        assert_eq!(v.row(0), &[3.0, 4.0, 5.0]);
        assert_eq!(v.row(1), &[6.0, 7.0, 8.0]);
    }

    #[test]
    fn partition_covers_all_rows_without_overlap() {
        for nrow in [0usize, 1, 5, 8192, 100_001] {
            for parts in [1usize, 2, 3, 7, 48] {
                let ranges = partition_rows(nrow, parts);
                assert_eq!(ranges.len(), parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, nrow);
                // Near-equal: lengths differ by at most one.
                let lens: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    #[should_panic]
    fn bad_from_vec_panics() {
        let _ = DMatrix::from_vec(vec![1.0; 5], 2, 3);
    }
}

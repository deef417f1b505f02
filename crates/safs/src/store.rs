//! Row-addressable storage over a knor-format file.
//!
//! This is the `page_row` abstraction of §6.1: a row's location on disk is
//! *computed* from its id (`HEADER_LEN + row * row_bytes`), so — unlike
//! FlashGraph's `page_vertex`, which keeps an O(n) index of edge-list
//! offsets — no in-memory index is needed at all.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

use knor_matrix::io::{read_header, Header, HEADER_LEN};

/// A read-only, page-addressable view of an on-disk matrix.
#[derive(Debug)]
pub struct RowStore {
    file: File,
    header: Header,
    page_size: usize,
    npages: u64,
}

impl RowStore {
    /// Open a knor-format file with the given page size.
    pub fn open(path: &Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size >= 64 && page_size.is_multiple_of(8), "unreasonable page size");
        let header = read_header(path)?;
        let file = File::open(path)?;
        let npages = header.file_len().div_ceil(page_size as u64);
        Ok(Self { file, header, page_size, npages })
    }

    /// Number of rows.
    pub fn nrow(&self) -> usize {
        self.header.nrow as usize
    }

    /// Row dimensionality.
    pub fn ncol(&self) -> usize {
        self.header.ncol as usize
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> u64 {
        self.header.row_bytes()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total pages covering the file.
    pub fn npages(&self) -> u64 {
        self.npages
    }

    /// Byte offset of `row` within the file.
    pub fn row_offset(&self, row: usize) -> u64 {
        HEADER_LEN + row as u64 * self.row_bytes()
    }

    /// The inclusive page range `[first, last]` containing `row`'s payload.
    pub fn pages_of_row(&self, row: usize) -> (u64, u64) {
        let start = self.row_offset(row);
        let end = start + self.row_bytes() - 1;
        (start / self.page_size as u64, end / self.page_size as u64)
    }

    /// Read page `page` from the device into `buf` (`buf.len() ==
    /// page_size`; the final page may be short — the tail is zero-filled).
    pub fn read_page(&self, page: u64, buf: &mut [u8]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let offset = page * self.page_size as u64;
        let file_len = self.header.file_len();
        if offset >= file_len {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "page past EOF"));
        }
        let want = ((file_len - offset) as usize).min(self.page_size);
        self.file.read_exact_at(&mut buf[..want], offset)?;
        buf[want..].fill(0);
        Ok(())
    }

    /// Read the contiguous run of pages starting at `first` into `buf`
    /// (`buf.len()` = pages × `page_size`) in one `pread` — the
    /// merged-request fast path. The part of the last page past EOF is
    /// zero-filled; on error `buf` holds nothing a caller may use.
    pub fn read_page_run_into(&self, first: u64, buf: &mut [u8]) -> io::Result<()> {
        debug_assert_eq!(buf.len() % self.page_size, 0);
        let offset = first * self.page_size as u64;
        let file_len = self.header.file_len();
        if offset >= file_len {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "run past EOF"));
        }
        let want = ((file_len - offset) as usize).min(buf.len());
        self.file.read_exact_at(&mut buf[..want], offset)?;
        buf[want..].fill(0);
        Ok(())
    }

    /// [`RowStore::read_page_run_into`] a fresh buffer of `count` pages.
    pub fn read_page_run(&self, first: u64, count: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; count * self.page_size];
        self.read_page_run_into(first, &mut buf)?;
        Ok(buf)
    }

    /// Decode `row` out of page buffers straight into `out` (`ncol`
    /// values).
    ///
    /// `bytes_from(p)` returns page `p`'s bytes followed by however many
    /// of the pages after it the caller holds contiguously — at least the
    /// one page; a merged run hands back its whole tail, so a row inside a
    /// run decodes in one pass however many pages it spans. Page sizes and
    /// row offsets are multiples of 8, so no value straddles a page.
    pub fn decode_row<'a, F>(&self, row: usize, mut bytes_from: F, out: &mut [f64])
    where
        F: FnMut(u64) -> &'a [u8],
    {
        let rb = self.row_bytes() as usize;
        debug_assert_eq!(out.len() * 8, rb);
        let start = self.row_offset(row);
        let ps = self.page_size as u64;
        let mut done = 0usize;
        while done < rb {
            let pos = start + done as u64;
            let src = &bytes_from(pos / ps)[(pos % ps) as usize..];
            let take = src.len().min(rb - done);
            for (x, b) in out[done / 8..(done + take) / 8].iter_mut().zip(src.chunks_exact(8)) {
                *x = f64::from_le_bytes(b.try_into().expect("chunks_exact(8)"));
            }
            done += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_matrix::io::write_matrix;
    use knor_matrix::DMatrix;

    impl RowStore {
        /// Copy `row`'s payload bytes out of page buffers — the byte-level
        /// walk [`RowStore::decode_row`] replaced, kept as the tests' oracle.
        ///
        /// `get_page(p)` must return the page-size buffer for page `p`; the row
        /// may straddle two pages (or more for very wide rows).
        pub(crate) fn assemble_row<'a, F>(&self, row: usize, mut get_page: F, out: &mut [u8])
        where
            F: FnMut(u64) -> &'a [u8],
        {
            let rb = self.row_bytes() as usize;
            debug_assert_eq!(out.len(), rb);
            let start = self.row_offset(row);
            let ps = self.page_size as u64;
            let mut copied = 0usize;
            while copied < rb {
                let pos = start + copied as u64;
                let page = pos / ps;
                let in_page = (pos % ps) as usize;
                let take = (self.page_size - in_page).min(rb - copied);
                let src = get_page(page);
                out[copied..copied + take].copy_from_slice(&src[in_page..in_page + take]);
                copied += take;
            }
        }
    }

    fn store_with(
        nrow: usize,
        ncol: usize,
        page: usize,
    ) -> (RowStore, DMatrix, std::path::PathBuf) {
        let m = DMatrix::from_vec((0..nrow * ncol).map(|x| x as f64 * 0.25).collect(), nrow, ncol);
        let mut p = std::env::temp_dir();
        p.push(format!("knor-safs-store-{}-{nrow}x{ncol}-{page}.knor", std::process::id()));
        write_matrix(&p, &m).unwrap();
        (RowStore::open(&p, page).unwrap(), m, p)
    }

    #[test]
    fn geometry() {
        let (s, _, p) = store_with(100, 8, 4096);
        assert_eq!(s.nrow(), 100);
        assert_eq!(s.ncol(), 8);
        assert_eq!(s.row_bytes(), 64);
        // 24-byte header + 6400 payload = 6424 bytes -> 2 pages.
        assert_eq!(s.npages(), 2);
        assert_eq!(s.pages_of_row(0), (0, 0));
        // Row 63 spans bytes 24+4032..24+4096 -> crosses into page 1.
        assert_eq!(s.pages_of_row(63), (0, 1));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn page_reads_round_trip_rows() {
        let (s, m, p) = store_with(200, 5, 256);
        let mut pages: Vec<Vec<u8>> = Vec::new();
        for pg in 0..s.npages() {
            let mut buf = vec![0u8; 256];
            s.read_page(pg, &mut buf).unwrap();
            pages.push(buf);
        }
        let mut rb = vec![0u8; s.row_bytes() as usize];
        for r in 0..200 {
            s.assemble_row(r, |pg| &pages[pg as usize][..], &mut rb);
            let mut vals = Vec::new();
            knor_matrix::io::decode_f64(&rb, &mut vals);
            assert_eq!(&vals[..], m.row(r), "row {r}");
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn run_read_equals_individual_pages() {
        let (s, _, p) = store_with(500, 7, 512);
        let run = s.read_page_run(1, 3).unwrap();
        for i in 0..3u64 {
            let mut buf = vec![0u8; 512];
            s.read_page(1 + i, &mut buf).unwrap();
            assert_eq!(&run[i as usize * 512..(i as usize + 1) * 512], &buf[..]);
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn eof_page_is_error() {
        let (s, _, p) = store_with(10, 2, 4096);
        let mut buf = vec![0u8; 4096];
        assert!(s.read_page(s.npages() + 1, &mut buf).is_err());
        std::fs::remove_file(p).unwrap();
    }
}

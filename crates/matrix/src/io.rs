//! The knor flat binary matrix format.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset 0   : magic  b"KNOR" (4 bytes)
//! offset 4   : format version u32          (currently 1)
//! offset 8   : nrow u64
//! offset 16  : ncol u64
//! offset 24  : row-major f64 payload, nrow * ncol * 8 bytes
//! ```
//!
//! The payload region is what the semi-external-memory module reads at page
//! granularity; [`HEADER_LEN`] is the fixed payload offset. The original knor
//! consumes raw row-major doubles; we add a tiny header so files are
//! self-describing, and expose [`read_matrix`]/[`write_matrix`] for in-memory
//! use plus header-only probing for out-of-core use.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::DMatrix;

/// Fixed byte offset of the row-major payload.
pub const HEADER_LEN: u64 = 24;
/// File magic.
pub const MAGIC: [u8; 4] = *b"KNOR";
/// Current format version.
pub const VERSION: u32 = 1;

/// Parsed file header: shape of the stored matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Number of rows (data points).
    pub nrow: u64,
    /// Number of columns (dimensions).
    pub ncol: u64,
}

impl Header {
    /// Size in bytes of one row of payload.
    pub fn row_bytes(&self) -> u64 {
        self.ncol * 8
    }

    /// Byte offset of row `i`'s payload within the file.
    pub fn row_offset(&self, i: u64) -> u64 {
        HEADER_LEN + i * self.row_bytes()
    }

    /// Total file size implied by this header.
    pub fn file_len(&self) -> u64 {
        HEADER_LEN + self.nrow * self.row_bytes()
    }
}

/// Write `m` to `path` in knor binary format.
pub fn write_matrix(path: &Path, m: &DMatrix) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(m.nrow() as u64).to_le_bytes())?;
    w.write_all(&(m.ncol() as u64).to_le_bytes())?;
    // Row-at-a-time keeps the intermediate buffer small for huge matrices.
    let mut buf = Vec::with_capacity(m.ncol() * 8);
    for row in m.rows() {
        buf.clear();
        for &x in row {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.flush()
}

/// Read just the header of a knor binary file.
pub fn read_header(path: &Path) -> io::Result<Header> {
    let mut r = File::open(path)?;
    let mut hdr = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut hdr)?;
    parse_header(&hdr)
}

/// Parse a header from its raw 24 bytes.
pub fn parse_header(hdr: &[u8]) -> io::Result<Header> {
    if hdr.len() < HEADER_LEN as usize {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short knor header"));
    }
    if hdr[0..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad knor magic"));
    }
    let version = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported knor format version {version}"),
        ));
    }
    let nrow = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
    let ncol = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
    Ok(Header { nrow, ncol })
}

/// Reject a file shorter than its header declares, before anything is
/// allocated for (or clustered from) the declared shape. Saturating
/// arithmetic keeps a hostile header from overflowing the comparison.
pub fn check_len(path: &Path, h: &Header) -> io::Result<()> {
    check_len_is(path, std::fs::metadata(path)?.len(), h)
}

fn check_len_is(path: &Path, have: u64, h: &Header) -> io::Result<()> {
    let declared = u128::from(h.nrow)
        .saturating_mul(u128::from(h.ncol))
        .saturating_mul(8)
        .saturating_add(u128::from(HEADER_LEN));
    if u128::from(have) < declared {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {have} bytes, header declares {declared}", path.display()),
        ));
    }
    Ok(())
}

/// Bytes per positional read of [`MatrixFile::read_rows_into`], and the
/// size of its bounce buffer: large enough that the system call is noise,
/// small enough that the decode reads it back from cache and that a
/// loader thread's buffer does not show in the process's peak RSS.
const READ_CHUNK: usize = 1 << 18;

/// An open knor file whose header has been parsed and whose length has
/// been checked against it: the one reader under [`read_matrix`],
/// [`read_rows`] and the NUMA loader. Reads are positional (`pread`), so
/// any number of threads share one descriptor.
#[derive(Debug)]
pub struct MatrixFile {
    file: File,
    header: Header,
}

impl MatrixFile {
    /// Open `path`, parse its header and reject a file shorter than the
    /// header declares.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let mut hdr = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut hdr, 0)?;
        let header = parse_header(&hdr)?;
        check_len_is(path, file.metadata()?.len(), &header)?;
        Ok(Self { file, header })
    }

    /// Shape of the stored matrix.
    pub fn header(&self) -> Header {
        self.header
    }

    fn check_rows(&self, rows: &Range<usize>) -> io::Result<()> {
        if rows.start > rows.end || rows.end as u64 > self.header.nrow {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "row range {}..{} exceeds file rows {}",
                    rows.start, rows.end, self.header.nrow
                ),
            ));
        }
        Ok(())
    }

    /// Read the rows `rows` into `dst` (`rows.len() * ncol` values). A
    /// range outside the file is `InvalidInput`; a file that shrank since
    /// [`MatrixFile::open`] is `UnexpectedEof`.
    pub fn read_rows_into(&self, rows: Range<usize>, dst: &mut [f64]) -> io::Result<()> {
        self.check_rows(&rows)?;
        let h = &self.header;
        assert_eq!(dst.len(), rows.len() * h.ncol as usize, "destination is not rows x ncol");
        let mut offset = h.row_offset(rows.start as u64);
        let mut bounce = vec![0u8; READ_CHUNK.min(dst.len() * 8)];
        for part in dst.chunks_mut(READ_CHUNK / 8) {
            let bytes = &mut bounce[..part.len() * 8];
            self.file.read_exact_at(bytes, offset)?;
            for (x, b) in part.iter_mut().zip(bytes.chunks_exact(8)) {
                *x = f64::from_le_bytes(b.try_into().expect("chunks_exact(8)"));
            }
            offset += bytes.len() as u64;
        }
        Ok(())
    }
}

/// Read a whole matrix into memory.
pub fn read_matrix(path: &Path) -> io::Result<DMatrix> {
    let file = MatrixFile::open(path)?;
    let nrow = file.header.nrow as usize;
    read_range(&file, 0..nrow)
}

/// Read the contiguous row range `[start, end)` into memory — a rank's
/// slice of a large on-disk matrix, so no process ever has to hold more
/// than its own `O(n/R · d)` share.
pub fn read_rows(path: &Path, start: usize, end: usize) -> io::Result<DMatrix> {
    read_range(&MatrixFile::open(path)?, start..end)
}

fn read_range(file: &MatrixFile, rows: Range<usize>) -> io::Result<DMatrix> {
    // Before the allocation: the range is the caller's, not the file's.
    file.check_rows(&rows)?;
    let ncol = file.header.ncol as usize;
    let mut data = vec![0.0f64; rows.len() * ncol];
    file.read_rows_into(rows.clone(), &mut data)?;
    Ok(DMatrix::from_vec(data, rows.len(), ncol))
}

/// Decode a contiguous byte region of payload into `f64`s.
///
/// `bytes.len()` must be a multiple of 8.
pub fn decode_f64(bytes: &[u8], out: &mut Vec<f64>) {
    debug_assert_eq!(bytes.len() % 8, 0);
    out.clear();
    out.reserve(bytes.len() / 8);
    for c in bytes.chunks_exact(8) {
        out.push(f64::from_le_bytes(c.try_into().unwrap()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("knor-matrix-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_file() {
        let m = DMatrix::from_vec((0..30).map(|x| x as f64 * 0.5).collect(), 10, 3);
        let p = tmp("rt.knor");
        write_matrix(&p, &m).unwrap();
        let h = read_header(&p).unwrap();
        assert_eq!(h, Header { nrow: 10, ncol: 3 });
        assert_eq!(h.row_offset(0), HEADER_LEN);
        assert_eq!(h.row_offset(2), HEADER_LEN + 48);
        let back = read_matrix(&p).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let p = tmp("bad.knor");
        std::fs::write(&p, vec![0u8; 64]).unwrap();
        assert!(read_header(&p).is_err());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn short_file_is_rejected_before_the_payload_is_read() {
        let m = DMatrix::from_vec((0..30).map(|x| x as f64).collect(), 10, 3);
        let p = tmp("short.knor");
        write_matrix(&p, &m).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 8]).unwrap();
        for err in [read_matrix(&p).unwrap_err(), read_rows(&p, 0, 2).unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.ends_with(": 256 bytes, header declares 264"), "{msg}");
        }
        // A header whose shape overflows u64 is just another short file.
        let mut huge = full[..HEADER_LEN as usize].to_vec();
        huge[8..24].fill(0xff);
        std::fs::write(&p, &huge).unwrap();
        assert_eq!(read_matrix(&p).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn header_math() {
        let h = Header { nrow: 100, ncol: 8 };
        assert_eq!(h.row_bytes(), 64);
        assert_eq!(h.file_len(), HEADER_LEN + 6400);
    }

    #[test]
    fn read_rows_matches_slices() {
        let m = DMatrix::from_vec((0..60).map(|x| x as f64 * 1.5).collect(), 20, 3);
        let p = tmp("rows.knor");
        write_matrix(&p, &m).unwrap();
        let mid = read_rows(&p, 5, 12).unwrap();
        assert_eq!((mid.nrow(), mid.ncol()), (7, 3));
        for (i, r) in (5..12).enumerate() {
            assert_eq!(mid.row(i), m.row(r), "row {r}");
        }
        assert_eq!(read_rows(&p, 0, 20).unwrap(), m);
        assert_eq!(read_rows(&p, 8, 8).unwrap().nrow(), 0);
        assert!(read_rows(&p, 10, 30).is_err(), "out-of-range must error");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn read_rows_into_is_exact_at_chunk_boundaries() {
        // One column, so a row is one value and a range's byte length is
        // eight times its row count.
        let chunk = READ_CHUNK / 8;
        let n = 2 * chunk + 3;
        let m = DMatrix::from_vec((0..n).map(|x| x as f64 - 0.5).collect(), n, 1);
        let p = tmp("chunks.knor");
        write_matrix(&p, &m).unwrap();
        let file = MatrixFile::open(&p).unwrap();
        assert_eq!(file.header(), Header { nrow: n as u64, ncol: 1 });
        for start in [0, 1, chunk - 1, chunk + 2] {
            for len in [0, 1, chunk - 1, chunk, chunk + 1] {
                let mut got = vec![f64::NAN; len];
                file.read_rows_into(start..start + len, &mut got).unwrap();
                assert_eq!(got, &m.as_slice()[start..start + len], "rows {start}+{len}");
            }
        }
        let mut one = [0.0];
        for rows in [n..n + 1, n + 5..n + 6] {
            let err = file.read_rows_into(rows, &mut one).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        assert_eq!(read_rows(&p, 3, n + 1).unwrap_err().kind(), io::ErrorKind::InvalidInput);

        // The file shrinks under an open reader: the rows still there read
        // back, the first missing byte is an error, not zeros.
        std::fs::OpenOptions::new().write(true).open(&p).unwrap().set_len(24 + 8 * 10).unwrap();
        let mut got = vec![0.0; 10];
        file.read_rows_into(0..10, &mut got).unwrap();
        assert_eq!(got, &m.as_slice()[..10]);
        let err = file.read_rows_into(5..11, &mut got[..6]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn decode_round_trip() {
        let xs = [1.5f64, -2.25, 0.0, f64::MAX];
        let mut bytes = Vec::new();
        for x in xs {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        let mut out = Vec::new();
        decode_f64(&bytes, &mut out);
        assert_eq!(out, xs);
    }
}

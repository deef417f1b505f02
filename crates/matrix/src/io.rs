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
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
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
    let have = std::fs::metadata(path)?.len();
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

/// Read a whole matrix into memory.
pub fn read_matrix(path: &Path) -> io::Result<DMatrix> {
    let file = File::open(path)?;
    let mut r = BufReader::new(file);
    let mut hdr = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut hdr)?;
    let h = parse_header(&hdr)?;
    check_len(path, &h)?;
    let n = (h.nrow * h.ncol) as usize;
    let mut data = vec![0.0f64; n];
    let mut buf = [0u8; 8];
    for x in data.iter_mut() {
        r.read_exact(&mut buf)?;
        *x = f64::from_le_bytes(buf);
    }
    Ok(DMatrix::from_vec(data, h.nrow as usize, h.ncol as usize))
}

/// Read the contiguous row range `[start, end)` into memory — a rank's
/// slice of a large on-disk matrix, so no process ever has to hold more
/// than its own `O(n/R · d)` share.
pub fn read_rows(path: &Path, start: usize, end: usize) -> io::Result<DMatrix> {
    let file = File::open(path)?;
    let mut r = BufReader::new(file);
    let mut hdr = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut hdr)?;
    let h = parse_header(&hdr)?;
    check_len(path, &h)?;
    if start > end || end > h.nrow as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("row range {start}..{end} exceeds file rows {}", h.nrow),
        ));
    }
    r.seek(SeekFrom::Start(h.row_offset(start as u64)))?;
    let n = (end - start) * h.ncol as usize;
    let mut data = vec![0.0f64; n];
    let mut buf = [0u8; 8];
    for x in data.iter_mut() {
        r.read_exact(&mut buf)?;
        *x = f64::from_le_bytes(buf);
    }
    Ok(DMatrix::from_vec(data, end - start, h.ncol as usize))
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

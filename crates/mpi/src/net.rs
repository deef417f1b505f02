//! Network plumbing: the analytic cluster model (DESIGN.md §3.3) and the
//! real line-framed TCP transport shared by the serving front end.
//!
//! The in-process substrate measures exact byte counts; [`NetModel`]
//! converts them into modeled wire time for the paper's environment:
//! c4.8xlarge instances on a 10-Gigabit interconnect within one placement
//! group. Standard alpha-beta (latency + bandwidth) cost formulation.
//!
//! [`LineConn`] is the concrete counterpart: a newline-delimited framing
//! over a `TcpStream` (buffered reads, one write per message, Nagle off)
//! with exact byte accounting on both directions, so anything built on it
//! (the `knor-serve` TCP front end, its CLI clients) can report real wire
//! bytes.

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Latency/bandwidth model of one cluster interconnect.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// One-way small-message latency, microseconds.
    pub latency_us: f64,
    /// Per-link bandwidth, gigabytes per second (== bytes/ns).
    pub bandwidth_gbps: f64,
}

impl Default for NetModel {
    /// The paper's cluster: [`NetModel::ec2_10gbe`].
    fn default() -> Self {
        Self::ec2_10gbe()
    }
}

impl NetModel {
    /// EC2 placement-group defaults: ~50us latency, 10 GbE (1.25 GB/s).
    pub fn ec2_10gbe() -> Self {
        Self { latency_us: 50.0, bandwidth_gbps: 1.25 }
    }

    /// Time to push `bytes` over one link, nanoseconds.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.latency_us * 1_000.0 + bytes as f64 / self.bandwidth_gbps
    }

    /// Ring all-reduce of a `bytes` payload over `r` ranks: `2(R-1)` steps,
    /// each moving `bytes / R`.
    pub fn ring_allreduce_ns(&self, bytes: u64, r: usize) -> f64 {
        if r <= 1 {
            return 0.0;
        }
        let steps = 2 * (r - 1);
        steps as f64 * self.transfer_ns(bytes / r as u64)
    }

    /// Star all-reduce: the root serializes `R-1` receives then `R-1`
    /// sends of the full payload (the driver bottleneck).
    pub fn star_allreduce_ns(&self, bytes: u64, r: usize) -> f64 {
        if r <= 1 {
            return 0.0;
        }
        2.0 * (r as f64 - 1.0) * self.transfer_ns(bytes)
    }

    /// Binomial-tree broadcast: `ceil(log2 R)` rounds of the full payload.
    pub fn broadcast_ns(&self, bytes: u64, r: usize) -> f64 {
        if r <= 1 {
            return 0.0;
        }
        (r as f64).log2().ceil() * self.transfer_ns(bytes)
    }
}

/// A newline-delimited message connection over TCP.
///
/// One request line, one response line: the framing the serving protocol
/// speaks. Reads are buffered; [`LineConn::send_line`] hands the line and
/// its terminator to the socket in one `writev`, and the socket has
/// `TCP_NODELAY` set, so a round trip is exactly one write burst and one
/// read. (Written as `line`, then `"\n"`, with Nagle on, the 1-byte tail
/// of any line larger than the write buffer waits for the peer's delayed
/// ACK — a 40 ms kernel timer — while the peer waits for that byte to
/// finish the line: the write-write-read stall, DESIGN.md §9.) Byte
/// counters track the real wire traffic (including the terminating `\n`).
pub struct LineConn {
    r: BufReader<TcpStream>,
    w: TcpStream,
    bytes_in: u64,
    bytes_out: u64,
}

/// Write `line` and its `\n` terminator as one vectored write; a short
/// write resumes where the socket stopped, so the message is still a single
/// burst with no separately flushed tail.
fn write_frame<W: Write>(w: &mut W, line: &[u8]) -> io::Result<()> {
    let mut bufs = [IoSlice::new(line), IoSlice::new(b"\n")];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl LineConn {
    /// Wrap an accepted (or connected) stream; turns Nagle off on it.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let r = BufReader::new(stream.try_clone()?);
        Ok(Self { r, w: stream, bytes_in: 0, bytes_out: 0 })
    }

    /// Connect to `addr` and wrap the stream.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Send one message line (a `\n` is appended; `line` must not contain
    /// one) as a single write.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "embedded newline breaks framing");
        write_frame(&mut self.w, line.as_bytes())?;
        self.bytes_out += line.len() as u64 + 1;
        Ok(())
    }

    /// Receive one message line (without the `\n`). `Ok(None)` on a clean
    /// peer close.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        self.recv_line_capped(usize::MAX)
    }

    /// [`LineConn::recv_line`], reading at most `limit` bytes, the `\n`
    /// included. A line that has not ended by then is an
    /// [`io::ErrorKind::InvalidData`] error, as is one that is not UTF-8;
    /// after the first, the connection is mid-line.
    pub fn recv_line_capped(&mut self, limit: usize) -> io::Result<Option<String>> {
        let mut buf = Vec::new();
        let n = (&mut self.r).take(limit as u64).read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.bytes_in += n as u64;
        if n == limit && buf.last() != Some(&b'\n') {
            let msg = format!("line longer than {limit} bytes");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            buf.pop();
        }
        String::from_utf8(buf).map(Some).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
        })
    }

    /// Bytes received so far.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Bytes sent so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_conn_round_trips_and_counts_bytes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = LineConn::new(stream).unwrap();
            while let Some(line) = conn.recv_line().unwrap() {
                conn.send_line(&format!("echo {line}")).unwrap();
            }
            (conn.bytes_in(), conn.bytes_out())
        });
        let mut c = LineConn::connect(addr).unwrap();
        c.send_line("hello").unwrap();
        assert_eq!(c.recv_line().unwrap().as_deref(), Some("echo hello"));
        // f64 round trip through the text framing is exact with `{:?}`.
        let x = -0.1f64 + 0.7;
        c.send_line(&format!("{x:?}")).unwrap();
        let back = c.recv_line().unwrap().unwrap();
        let parsed: f64 = back.strip_prefix("echo ").unwrap().parse().unwrap();
        assert_eq!(parsed.to_bits(), x.to_bits());
        assert_eq!(c.bytes_out(), 6 + format!("{x:?}").len() as u64 + 1);
        drop(c); // clean close ends the server loop
        let (sin, sout) = server.join().unwrap();
        assert_eq!(sin, 6 + format!("{x:?}").len() as u64 + 1);
        assert!(sout > sin, "echo adds a prefix");
    }

    #[test]
    fn a_capped_read_stops_at_the_cap() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut rx = LineConn::new(listener.accept().unwrap().0).unwrap();
        // Eight bytes with the terminator fit a cap of 8; nine do not, and
        // the read stops at the cap, mid-line.
        tx.write_all(b"1234567\n123456789\n").unwrap();
        assert_eq!(rx.recv_line_capped(8).unwrap().as_deref(), Some("1234567"));
        let err = rx.recv_line_capped(8).unwrap_err();
        assert_eq!(
            (err.kind(), err.to_string()),
            (io::ErrorKind::InvalidData, "line longer than 8 bytes".into())
        );
        assert_eq!(rx.bytes_in(), 16);
        assert_eq!(rx.recv_line().unwrap().as_deref(), Some("9"), "the rest of the line is unread");
        // Not UTF-8 is the same kind of error; the line is consumed.
        tx.write_all(b"\xff\xfe\nok\r\n").unwrap();
        let err = rx.recv_line_capped(8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(rx.recv_line_capped(8).unwrap().as_deref(), Some("ok"));
        drop(tx);
        assert_eq!(rx.recv_line_capped(8).unwrap(), None);
    }

    /// Accepts at most `per_call` bytes per write and records each call.
    struct RecordingWriter {
        per_call: usize,
        calls: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl RecordingWriter {
        fn new(per_call: usize) -> Self {
            Self { per_call, calls: Vec::new(), bytes: Vec::new() }
        }
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let before = self.bytes.len();
            for buf in bufs {
                let room = self.per_call - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            self.calls.push(self.bytes.len() - before);
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_ending_in_the_newline() {
        // Both sides of the old 8 KiB `BufWriter` boundary, and a bulk query.
        for len in [0, 1, 8191, 8192, 8193, 1 << 20] {
            let line = vec![b'x'; len];
            let mut w = RecordingWriter::new(usize::MAX);
            write_frame(&mut w, &line).unwrap();
            assert_eq!(w.calls, [len + 1], "len {len}: line and terminator in one write");
            assert_eq!(w.bytes.last(), Some(&b'\n'));
            assert_eq!(&w.bytes[..len], &line[..]);
        }
    }

    #[test]
    fn short_writes_resume_where_the_writer_stopped() {
        for len in [0, 1, 2, 8193] {
            let line: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let mut w = RecordingWriter::new(1);
            write_frame(&mut w, &line).unwrap();
            assert_eq!(w.calls.len(), len + 1, "one byte per call");
            assert_eq!(&w.bytes[..len], &line[..]);
            assert_eq!(w.bytes[len], b'\n');
        }
        // A writer that accepts nothing is an error, not a spin.
        let err = write_frame(&mut RecordingWriter::new(0), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn both_ends_of_a_line_conn_have_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = LineConn::connect(listener.local_addr().unwrap()).unwrap();
        let server = LineConn::new(listener.accept().unwrap().0).unwrap();
        assert!(client.w.nodelay().unwrap());
        assert!(server.w.nodelay().unwrap());
    }

    #[test]
    fn large_lines_round_trip_without_the_delayed_ack_stall() {
        // The shape of a bulk QUERY: a 512 KiB request answered by a 24 KiB
        // reply. Written as line-then-terminator with Nagle on, nine of ten
        // such round trips wait out the peer's delayed-ACK timer (>= 40 ms)
        // for their last byte; stall-free one takes ~1 ms, debug build
        // included. (An echo of the 512 KiB line stalls only now and then.)
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reply = "0:0.123456789 ".repeat(24 * 1024 / 14);
        let server = std::thread::spawn(move || {
            let mut conn = LineConn::new(listener.accept().unwrap().0).unwrap();
            while let Some(line) = conn.recv_line().unwrap() {
                assert_eq!(line.len(), 512 * 1024 / 12 * 12);
                conn.send_line(&reply).unwrap();
            }
        });
        let mut c = LineConn::connect(addr).unwrap();
        let line = "0.123456789 ".repeat(512 * 1024 / 12);
        let mut ms: Vec<f64> = (0..10)
            .map(|_| {
                let t0 = std::time::Instant::now();
                c.send_line(&line).unwrap();
                assert!(c.recv_line().unwrap().is_some_and(|r| r.len() > 24_000));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        assert!(ms[5] < 20.0, "median round trip {:.1} ms, all: {ms:?}", ms[5]);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn ring_beats_star_at_scale() {
        let m = NetModel::ec2_10gbe();
        let payload = 8 * 100 * 32; // k=100 x d=32 sums
        for r in [4usize, 8, 16] {
            assert!(
                m.ring_allreduce_ns(payload, r) < m.star_allreduce_ns(payload, r),
                "ring should win at R={r}"
            );
        }
    }

    #[test]
    fn star_grows_linearly_with_ranks() {
        let m = NetModel::ec2_10gbe();
        let t4 = m.star_allreduce_ns(1 << 20, 4);
        let t8 = m.star_allreduce_ns(1 << 20, 8);
        assert!((t8 / t4 - 7.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn single_rank_is_free() {
        let m = NetModel::ec2_10gbe();
        assert_eq!(m.ring_allreduce_ns(1 << 20, 1), 0.0);
        assert_eq!(m.star_allreduce_ns(1 << 20, 1), 0.0);
        assert_eq!(m.broadcast_ns(1 << 20, 1), 0.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = NetModel::ec2_10gbe();
        let small = m.transfer_ns(8);
        assert!((small - 50_006.4).abs() < 1.0);
    }
}

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
//! bytes — and, via [`NetModel`], a modeled wire time for the paper's
//! interconnect.
//!
//! For the multiplexed (non-blocking) front end, [`FrameBuf`] provides the
//! incremental half of the same framing — bytes arrive in arbitrary chunks
//! from a readiness loop, complete lines come out — and [`poll_fds`] wraps
//! `poll(2)` from the `libc` shim into a safe readiness wait.

use std::io::{self, BufRead, BufReader, IoSlice, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::RawFd;

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
        let mut buf = String::new();
        let n = self.r.read_line(&mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.bytes_in += n as u64;
        while buf.ends_with('\n') || buf.ends_with('\r') {
            buf.pop();
        }
        Ok(Some(buf))
    }

    /// Bytes received so far.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Bytes sent so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Modeled one-way wire time for the traffic sent so far (ns), under
    /// `model` — ties the real transport back to the paper's interconnect.
    pub fn modeled_send_ns(&self, model: &NetModel) -> f64 {
        model.transfer_ns(self.bytes_out)
    }
}

/// Incremental newline framing for a non-blocking socket.
///
/// The readiness loop feeds whatever bytes `read(2)` produced via
/// [`FrameBuf::extend`]; [`FrameBuf::next_line`] yields each complete line
/// (stripped of `\n` / `\r\n`) as it becomes available. A line split across
/// any number of reads reassembles transparently. Consumed bytes are
/// compacted lazily so a burst of many lines costs O(bytes), not O(lines²).
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of unconsumed data in `buf`.
    start: usize,
    /// Next byte to scan for `\n` (avoid rescanning a long partial line).
    scan: usize,
    bytes_in: u64,
}

impl FrameBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.bytes_in += bytes.len() as u64;
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scan = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete line, if one has fully arrived. Strips the
    /// trailing `\n` (and a `\r` before it); invalid UTF-8 is replaced.
    pub fn next_line(&mut self) -> Option<String> {
        let nl = self.buf[self.scan.max(self.start)..].iter().position(|&b| b == b'\n');
        let Some(off) = nl else {
            self.scan = self.buf.len();
            return None;
        };
        let end = self.scan.max(self.start) + off;
        let mut line_end = end;
        if line_end > self.start && self.buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        let line = String::from_utf8_lossy(&self.buf[self.start..line_end]).into_owned();
        self.start = end + 1;
        self.scan = self.start;
        // Compact once the consumed prefix dominates, keeping amortized O(1).
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
            self.scan = 0;
        }
        Some(line)
    }

    /// Bytes buffered but not yet returned as a line (a partial frame).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Total bytes ever fed in.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }
}

/// One descriptor's interest and readiness for [`poll_fds`].
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The raw descriptor to watch.
    pub fd: RawFd,
    /// Wait for readability.
    pub want_read: bool,
    /// Wait for writability.
    pub want_write: bool,
    /// Set by [`poll_fds`]: a read will not block.
    pub readable: bool,
    /// Set by [`poll_fds`]: a write will not block.
    pub writable: bool,
    /// Set by [`poll_fds`]: error, hangup, or invalid fd — drop the peer.
    pub closed: bool,
}

impl PollFd {
    /// Interest in readability only.
    pub fn read(fd: RawFd) -> Self {
        Self::new(fd, true, false)
    }

    /// Interest in the given directions.
    pub fn new(fd: RawFd, want_read: bool, want_write: bool) -> Self {
        Self { fd, want_read, want_write, readable: false, writable: false, closed: false }
    }
}

/// Safe wrapper over `poll(2)` (via the `libc` shim): waits up to
/// `timeout_ms` (`-1` = forever) for any registered readiness, fills the
/// `readable`/`writable`/`closed` flags in place, and returns how many
/// entries are ready. Retries transparently on `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let mut raw: Vec<libc::pollfd> = fds
        .iter()
        .map(|f| libc::pollfd {
            fd: f.fd,
            events: if f.want_read { libc::POLLIN } else { 0 }
                | if f.want_write { libc::POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ready = loop {
        let rc = unsafe { libc::poll(raw.as_mut_ptr(), raw.len() as libc::nfds_t, timeout_ms) };
        if rc >= 0 {
            break rc as usize;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    };
    for (f, r) in fds.iter_mut().zip(&raw) {
        f.readable = r.revents & libc::POLLIN != 0;
        f.writable = r.revents & libc::POLLOUT != 0;
        f.closed = r.revents & (libc::POLLERR | libc::POLLHUP | libc::POLLNVAL) != 0;
    }
    Ok(ready)
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

    #[test]
    fn frame_buf_reassembles_split_lines() {
        let mut fb = FrameBuf::new();
        fb.extend(b"hel");
        assert_eq!(fb.next_line(), None);
        assert_eq!(fb.pending_bytes(), 3);
        fb.extend(b"lo\nwor");
        assert_eq!(fb.next_line().as_deref(), Some("hello"));
        assert_eq!(fb.next_line(), None);
        fb.extend(b"ld\r\n\n");
        assert_eq!(fb.next_line().as_deref(), Some("world"));
        assert_eq!(fb.next_line().as_deref(), Some(""));
        assert_eq!(fb.next_line(), None);
        assert_eq!(fb.pending_bytes(), 0);
        assert_eq!(fb.bytes_in(), 14);
    }

    #[test]
    fn frame_buf_burst_of_many_lines() {
        let mut fb = FrameBuf::new();
        let mut wire = String::new();
        for i in 0..10_000 {
            wire.push_str(&format!("line {i}\n"));
        }
        fb.extend(wire.as_bytes());
        for i in 0..10_000 {
            assert_eq!(fb.next_line().unwrap(), format!("line {i}"));
        }
        assert_eq!(fb.next_line(), None);
    }

    #[test]
    fn poll_reports_tcp_readiness() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        // Nothing to read yet: rx times out, tx is writable immediately.
        let mut fds = [PollFd::read(rx.as_raw_fd()), PollFd::new(tx.as_raw_fd(), false, true)];
        let n = poll_fds(&mut fds, 100).unwrap();
        assert_eq!(n, 1);
        assert!(!fds[0].readable);
        assert!(fds[1].writable);
        // After a send the receive side becomes readable.
        (&tx).write_all(b"x").unwrap();
        let mut fds = [PollFd::read(rx.as_raw_fd())];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable);
        // Peer close raises readable (EOF) — the loop's signal to drop.
        drop(tx);
        let mut fds = [PollFd::read(rx.as_raw_fd())];
        poll_fds(&mut fds, 1000).unwrap();
        assert!(fds[0].readable || fds[0].closed);
    }
}

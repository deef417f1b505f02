//! Running the shipped `knor` binary as a child and measuring it from
//! outside: wall time from spawn to exit, peak RSS from `wait4`'s rusage,
//! bytes read from `/proc/PID/io` (still there while the child is a
//! zombie). Linux only, like the `/proc` reads in `host.rs`.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The `knor` binary built next to this one (both builds of the
/// benchmark put `knor_bench` in the target directory `knor` is in).
pub fn knor_bin() -> io::Result<PathBuf> {
    let path = std::env::current_exe()?.with_file_name("knor");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} not found: run `cargo build --release` first", path.display()),
        ))
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of x86-64 and aarch64 Linux: two timevals, 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What the kernel reports about a finished child.
struct Exit {
    success: bool,
    peak_rss_mb: f64,
}

/// Reap `child` with `wait4`, which is the only way to get one child's
/// own peak RSS. The `Child` is consumed: std must not wait on it again.
fn reap(child: Child) -> io::Result<Exit> {
    let (mut status, mut usage) = (0i32, Rusage::default());
    // SAFETY: `status` and `usage` are live, writable and of the layout
    // wait4(2) fills on Linux; the pid is a child of this process that
    // nothing else waits on, because `child` is owned here.
    let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if got < 0 {
        return Err(io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0.
    Ok(Exit {
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        peak_rss_mb: usage.maxrss_kb as f64 * 1024.0 / 1e6,
    })
}

/// `rchar` of `/proc/PID/io`: bytes the process asked `read`-family calls
/// for, whether they came from the page cache or the device.
pub fn bytes_read(pid: u32) -> io::Result<u64> {
    proc_field(&format!("/proc/{pid}/io"), "rchar:")
}

/// `VmHWM` of `/proc/PID/status` in MB: a live process's peak RSS.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    Ok(proc_field(&format!("/proc/{pid}/status"), "VmHWM:")? as f64 * 1024.0 / 1e6)
}

fn proc_field(path: &str, key: &str) -> io::Result<u64> {
    std::fs::read_to_string(path)?
        .lines()
        .find_map(|l| l.strip_prefix(key)?.split_ascii_whitespace().next()?.parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {key} in {path}")))
}

/// One finished `knor` command.
pub struct Finished {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub read_mb: f64,
    pub success: bool,
    pub stdout: String,
}

/// Run `knor <args>` to completion, timing spawn -> exit.
pub fn run(knor: &Path, args: &[String]) -> io::Result<Finished> {
    let t0 = Instant::now();
    let mut child = Command::new(knor).args(args).stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    // End of file on the pipe is the child exiting (or closing stdout,
    // which knor never does early).
    child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout)?;
    let read_mb = bytes_read(child.id())? as f64 / 1e6;
    let exit = reap(child)?;
    Ok(Finished {
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss_mb: exit.peak_rss_mb,
        read_mb,
        success: exit.success,
        stdout,
    })
}

/// What a training command printed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutput {
    pub iters: usize,
    /// The SSE exactly as printed (4 decimals), compared as text.
    pub sse: String,
    /// `device bytes read` of `knor sem`.
    pub device_mb: Option<f64>,
}

/// An SSE as the CLI prints it. Results are compared at this precision:
/// the streamed and the in-memory SSE pass sum in different orders.
pub fn sse_text(sse: Option<f64>) -> String {
    format!("{:.4}", sse.expect("SSE is requested"))
}

/// Parse `knori: 20 iterations in 1.67s (converged = false)`,
/// `SSE = 1451809.8222` and `device bytes read: 1764.3 MB`.
pub fn parse_train_output(stdout: &str) -> Option<TrainOutput> {
    let mut iters = None;
    let mut sse = None;
    let mut device_mb = None;
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        match words.as_slice() {
            [_, n, "iterations", ..] => iters = n.parse().ok(),
            ["SSE", "=", s] => sse = Some(s.to_string()),
            ["device", "bytes", "read:", mb, "MB"] => device_mb = mb.parse().ok(),
            _ => {}
        }
    }
    Some(TrainOutput { iters: iters?, sse: sse?, device_mb })
}

/// A running `knor serve` child. Dropping it without a clean shutdown
/// (an error path) kills it and waits: no run leaves a server behind.
pub struct Server {
    /// `None` once the child has been reaped.
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Server {
    /// Spawn `knor serve` on a free port with the default front end and
    /// wait for its `listening on` line.
    pub fn spawn(knor: &Path, threads: usize) -> io::Result<Self> {
        let mut child = Command::new(knor)
            .args(["serve", "--addr", "127.0.0.1:0", "-t", &threads.to_string()])
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Self { child: Some(child), stdout, addr: String::new() };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        match line.trim().rsplit_once("listening on ") {
            Some((_, addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            None => Err(io::Error::other(format!("knor serve said {line:?}, not `listening on`"))),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("not yet reaped").id()
    }

    /// After `ctl shutdown`: wait for the server to exit by itself and
    /// report whether it did so cleanly (status 0, `stopped` printed).
    pub fn wait_clean_exit(mut self) -> io::Result<bool> {
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let child = self.child.take().expect("not yet reaped");
        Ok(reap(child)?.success && rest.contains("knor-serve stopped"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_cli_prints() {
        let im = "knori: 20 iterations in 1.67s (converged = false)\nSSE = 1451809.8222\n";
        assert_eq!(
            parse_train_output(im),
            Some(TrainOutput { iters: 20, sse: "1451809.8222".into(), device_mb: None })
        );
        let sem = "knors: 15 iterations in 2.34s (converged = false)\nSSE = 130004126.4714\n\
                   device bytes read: 1764.3 MB\n";
        assert_eq!(
            parse_train_output(sem),
            Some(TrainOutput { iters: 15, sse: "130004126.4714".into(), device_mb: Some(1764.3) })
        );
        assert_eq!(parse_train_output("thread 'main' panicked"), None);
    }

    #[test]
    fn reads_this_process_from_proc() {
        let me = std::process::id();
        assert!(bytes_read(me).expect("rchar") > 0);
        assert!(peak_rss_mb(me).expect("VmHWM") > 0.1);
    }

    #[test]
    fn a_child_reports_its_exit_and_peak_rss() {
        let ok = reap(Command::new("true").spawn().expect("spawn true")).expect("wait4");
        assert!(ok.success && ok.peak_rss_mb > 0.0);
        let bad = reap(Command::new("false").spawn().expect("spawn false")).expect("wait4");
        assert!(!bad.success);
    }
}

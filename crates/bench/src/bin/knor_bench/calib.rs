//! The weather probe: how fast is the machine right now?
//!
//! The reference box is a small guest on a shared host, and its speed
//! moves under the benchmark's feet: for one to three minutes at a time
//! every memory-bound rep runs 25-35 % slower than in the minutes around
//! it (README, *Noise*). No statistic of a 30-second window removes that,
//! because the whole window is slow; the minimum over reps, the best raw
//! one, still spread by 24 % over ten consecutive windows when three of
//! them fell into such a stretch.
//!
//! So every timed rep is bracketed by two *probe points*: a fixed kernel
//! (the squared distance of every row of a 32 MB matrix per thread to one
//! centroid, `T` threads, the memory-streaming inner loop every engine
//! has) timed right before and right after it. A rep's *calibrated* time
//! is its raw time times `NOMINAL_PROBE_S / probe time around it`: the
//! seconds it would have taken with the machine in its usual state. The
//! probe slows down with the workloads (correlation 0.90-0.95 between
//! window minima), so the median of a window's calibrated reps spread by
//! 3-8 % over the same windows. The kernel is this file's own code: no
//! change to knor can move it.
//!
//! The probe lives in a child process (`knor_bench --probe T`), because a
//! spawned child's `ru_maxrss` starts from its parent's resident size and
//! the probe's matrices must not become every `knor` child's peak RSS.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one pass of the probe kernel takes on the reference box in its
/// usual state (the median probe point of 1 300 taken over 45 minutes was
/// 5.6-6.0 ms). Only a scale: it makes calibrated seconds read like
/// seconds, and cancels in every comparison of two runs.
pub const NOMINAL_PROBE_S: f64 = 0.0058;

/// Columns of the probe matrix: the workloads' `d`.
const COLS: usize = 32;
/// Rows per thread: 32 MB of `f64`, far beyond a core's private caches.
const ROWS_PER_THREAD: usize = (32 << 20) / (8 * COLS);
/// Passes per probe point; the point is the fastest of them.
const PASSES: usize = 3;

/// Sum over rows of the squared distance to `centroid`.
fn kernel(rows: &[f64], centroid: &[f64; COLS]) -> f64 {
    let mut sum = 0.0;
    for row in rows.chunks_exact(COLS) {
        let mut dist = 0.0;
        for (x, c) in row.iter().zip(centroid) {
            dist += (x - c) * (x - c);
        }
        sum += dist;
    }
    sum
}

/// One pass: every thread streams its own matrix once. Returns the
/// seconds it took and the checksum that keeps the work alive.
fn pass(matrices: &[Vec<f64>], centroid: &[f64; COLS]) -> (f64, f64) {
    let t0 = Instant::now();
    let sum: f64 = std::thread::scope(|scope| {
        let workers: Vec<_> =
            matrices.iter().map(|m| scope.spawn(move || kernel(m, centroid))).collect();
        workers.into_iter().map(|w| w.join().expect("probe thread panicked")).sum()
    });
    (t0.elapsed().as_secs_f64(), sum)
}

/// `knor_bench --probe <threads>`: allocate, say `ready`, then answer
/// every line on stdin with the fastest of [`PASSES`] passes; exit at end
/// of input.
pub fn probe_main(words: &[String]) -> io::Result<()> {
    let bad = || io::Error::new(io::ErrorKind::InvalidInput, "--probe <threads>");
    let [threads] = words else { return Err(bad()) };
    let threads: usize = threads.parse().map_err(|_| bad())?;
    let matrices: Vec<Vec<f64>> = (0..threads.max(1))
        .map(|t| (0..ROWS_PER_THREAD * COLS).map(|i| ((i * 7 + t) % 1000) as f64 * 1e-3).collect())
        .collect();
    let centroid = [0.5; COLS];
    pass(&matrices, &centroid);
    let (stdin, mut stdout) = (io::stdin().lock(), io::stdout().lock());
    writeln!(stdout, "ready")?;
    stdout.flush()?;
    for line in stdin.lines() {
        line?;
        let (mut best, mut checksum) = (f64::INFINITY, 0.0);
        for _ in 0..PASSES {
            let (seconds, sum) = pass(&matrices, &centroid);
            best = best.min(seconds);
            checksum += sum;
        }
        writeln!(stdout, "{best} {checksum}")?;
        stdout.flush()?;
    }
    Ok(())
}

/// The running probe child with the latest point taken: the "before" of
/// the rep timed next (reps that follow each other share the point
/// between them). Dropping it closes the child's stdin, which ends it,
/// and waits for it: no run leaves a probe behind.
pub struct Weather {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    last_s: f64,
    /// Every point taken, in order.
    points: Vec<f64>,
}

impl Drop for Weather {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Weather {
    /// Start the probe child with `threads` threads, wait until it has
    /// allocated, and take the first point.
    pub fn start(threads: usize) -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--probe", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut weather = Self { child, stdin, stdout, last_s: 0.0, points: Vec::new() };
        if weather.read_line()?.trim() != "ready" {
            return Err(io::Error::other("the probe child did not say `ready`"));
        }
        weather.last_s = weather.point()?;
        Ok(weather)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("the probe child closed its output"));
        }
        Ok(line)
    }

    /// Take one probe point: seconds of the fastest of [`PASSES`] passes.
    fn point(&mut self) -> io::Result<f64> {
        let stdin = self.stdin.as_mut().expect("open until drop");
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let line = self.read_line()?;
        let seconds: f64 = line
            .split_ascii_whitespace()
            .next()
            .and_then(|w| w.parse().ok())
            .filter(|s: &f64| *s > 0.0)
            .ok_or_else(|| io::Error::other(format!("the probe child said {line:?}")))?;
        self.points.push(seconds);
        Ok(seconds)
    }

    /// Calibrate `raw_s`, which ran since the latest point: take the
    /// point after it, which becomes the next "before".
    pub fn calibrate(&mut self, raw_s: f64) -> io::Result<f64> {
        let after_s = self.point()?;
        let value = calibrated(raw_s, self.last_s, after_s);
        self.last_s = after_s;
        Ok(value)
    }

    /// Every probe point taken, in seconds.
    pub fn points(&self) -> &[f64] {
        &self.points
    }
}

/// `raw_s` as it would have read with the machine in its usual state,
/// given the probe points taken right before and right after it.
pub fn calibrated(raw_s: f64, before_s: f64, after_s: f64) -> f64 {
    raw_s * NOMINAL_PROBE_S / (0.5 * (before_s + after_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_sums_squared_distances() {
        let mut rows = vec![0.0; 2 * COLS];
        rows[0] = 3.0;
        rows[COLS + 1] = 4.0;
        assert_eq!(kernel(&rows, &[0.0; COLS]), 25.0);
        let (seconds, sum) = pass(&[rows.clone(), rows], &[0.0; COLS]);
        assert!(seconds >= 0.0);
        assert_eq!(sum, 50.0);
    }

    #[test]
    fn calibration_scales_by_the_probe_around_the_rep() {
        // The machine at nominal speed: calibrated is raw.
        assert_eq!(calibrated(1.5, NOMINAL_PROBE_S, NOMINAL_PROBE_S), 1.5);
        // Everything a third slower, rep and probe alike: same reading.
        let slow = calibrated(2.0, NOMINAL_PROBE_S * 4.0 / 3.0, NOMINAL_PROBE_S * 4.0 / 3.0);
        assert!((slow - 1.5).abs() < 1e-12);
        // The weather turned during the rep: the mean of the two points.
        let turning = calibrated(1.0, NOMINAL_PROBE_S, NOMINAL_PROBE_S * 3.0);
        assert!((turning - 0.5).abs() < 1e-12);
    }
}

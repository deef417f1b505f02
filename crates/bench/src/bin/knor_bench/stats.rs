//! The statistics every number in the benchmark goes through.
//!
//! Interference on a shared box comes in bursts of seconds and in
//! stretches of minutes. A training rep is scaled by the weather probe
//! around it (`calib`) and the gated value is the *median* of a window's
//! calibrated reps, the quartiles printed beside it as the noise record.
//! Request latencies have ~10⁵ samples: a low percentile is their floor,
//! and the tail is taken per slice so that a burst stays in its slice.

use crate::json::{count, num, obj, Json};

/// Minimum of a non-empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a non-empty sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method) — the definition the acceptance
/// check uses for a metric's spread. A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median (the middle quartile).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=1).
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(xs), p)
}

/// The printed record of one timing: which value is gated, and the noise
/// around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(xs);
        Self { n: xs.len(), min: min(xs), q1, median, q3, max: max(xs) }
    }

    pub fn to_json(self) -> Json {
        obj([
            ("min", num(self.min)),
            ("q1", num(self.q1)),
            ("median", num(self.median)),
            ("q3", num(self.q3)),
            ("max", num(self.max)),
            ("n", count(self.n as u64)),
        ])
    }
}

/// A request latency with the time its reply arrived (both in seconds;
/// the arrival time is relative to the start of its phase).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub at_s: f64,
    pub latency_s: f64,
}

/// Samples a slice needs beyond its p99 before that p99 means anything.
const TAIL_SAMPLES: usize = 100;

/// The tail of a long closed-loop phase: cut the phase into `slice_s`
/// slices by reply arrival time, take each slice's p99 (only slices with
/// at least [`TAIL_SAMPLES`] samples beyond it), and return the lower
/// quartile of those with the number of slices used. A burst of
/// interference lifts the p99 of the slices it touches, not the lower
/// quartile over all slices. `None` when no slice has enough samples.
pub fn sliced_p99(samples: &[Timed], slice_s: f64) -> Option<(f64, usize)> {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for s in samples {
        let i = (s.at_s / slice_s) as usize;
        if slices.len() <= i {
            slices.resize_with(i + 1, Vec::new);
        }
        slices[i].push(s.latency_s);
    }
    let p99s: Vec<f64> = slices
        .iter()
        .filter(|s| s.len() >= TAIL_SAMPLES * 100)
        .map(|s| percentile(s, 0.99))
        .collect();
    if p99s.is_empty() {
        return None;
    }
    Some((quartiles(&p99s).0, p99s.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_median() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 10.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 4.0, 6.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn summary_carries_the_noise_record() {
        let s = Summary::of(&[2.0, 1.0, 4.0, 3.0]);
        assert_eq!((s.n, s.min, s.max, s.median), (4, 1.0, 4.0, 2.5));
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }

    /// Ten 1-second slices of 10 000 samples each; two slices carry a
    /// burst (a fifth of their requests, a hundred times slower). The
    /// lower quartile over slices must not see the burst; the plain p99
    /// over everything does.
    #[test]
    fn sliced_p99_ignores_a_burst() {
        let mut samples = Vec::new();
        for slice in 0..10 {
            for i in 0..10_000 {
                let burst = (slice == 3 || slice == 7) && i % 5 == 0;
                let tail = i % 50 == 0;
                let latency_s = if burst {
                    1e-2
                } else if tail {
                    2e-4
                } else {
                    1e-4
                };
                samples.push(Timed { at_s: slice as f64 + i as f64 / 10_000.0, latency_s });
            }
        }
        let (p99, used) = sliced_p99(&samples, 1.0).expect("slices are full");
        assert_eq!(used, 10);
        assert_eq!(p99, 2e-4);
        let all: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
        assert_eq!(percentile(&all, 0.99), 1e-2);
    }

    #[test]
    fn sliced_p99_needs_a_hundred_samples_beyond_it() {
        let few: Vec<Timed> =
            (0..9_999).map(|i| Timed { at_s: i as f64 / 10_000.0, latency_s: 1e-4 }).collect();
        assert_eq!(sliced_p99(&few, 1.0), None);
    }
}

//! Sample statistics: medians, quartiles, and tail percentiles that
//! refuse to report a tail the samples cannot support.

use std::fmt;

/// Samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when picking a tail to report.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// A single sample is its own quartiles; no samples give NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Samples lying strictly beyond the nearest-rank `p`-th percentile of
/// `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples
/// (the epsilon keeps `90% of 100` at rank 90 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).max(1)
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if beyond(xs.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank(xs.len(), p) - 1])
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75, 50) that
/// `n` samples support, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// One metric's samples reduced to the numbers the benchmark prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Metric name.
    pub name: String,
    /// Unit of every sample.
    pub unit: &'static str,
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(name: impl Into<String>, unit: &'static str, xs: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(xs);
        let tail =
            highest_percentile(xs.len()).and_then(|p| percentile(xs, p).map(|value| (p, value)));
        Summary { name: name.into(), unit, n: xs.len(), median, q1, q3, tail }
    }
}

impl fmt::Display for Summary {
    /// One line: name, unit, median, tail percentile and sample count.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => String::from("p-=n/a"),
        };
        write!(
            f,
            "metric {:<26} unit {:<8} median {:<14.6} {:<18} iqr [{:.6}, {:.6}] n {}",
            self.name, self.unit, self.median, tail, self.q1, self.q3, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 95.0), None, "only 5 samples beyond p95");
        assert_eq!(percentile(&xs[..99], 90.0), None, "99 samples leave 9 beyond p90");
    }

    #[test]
    fn highest_percentile_climbs_with_the_sample_count() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_line_names_unit_median_percentile_and_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of("campaign_p50_ms", "ms", &xs);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        let line = s.to_string();
        for part in ["campaign_p50_ms", "unit ms", "median 50.5", "p90=90", "n 100"] {
            assert!(line.contains(part), "`{part}` missing from `{line}`");
        }
        let few = Summary::of("x", "s", &[1.0, 2.0]).to_string();
        assert!(few.contains("p-=n/a") && few.contains("n 2"), "{few}");
    }
}

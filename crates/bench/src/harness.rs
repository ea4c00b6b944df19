//! A tiny wall-clock benchmark harness (std-only).
//!
//! The workspace builds offline, so instead of an external framework the
//! `benches/` targets and the timing bins are plain binaries driving
//! this module: warm up, time a fixed number of passes, and report the
//! median with the p10/p90 spread. One pass of a small workload is
//! dominated by host noise; the median of several is what the
//! `BENCH_*.json` artifacts record and the baselines gate.

use std::time::{Duration, Instant};

/// Timing results of one benchmark: nearest-rank percentiles of the
/// timed passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchResult {
    /// Timed passes.
    pub iterations: u32,
    /// 10th-percentile pass, in nanoseconds.
    pub p10_ns: u128,
    /// Median pass, in nanoseconds.
    pub median_ns: u128,
    /// 90th-percentile pass, in nanoseconds.
    pub p90_ns: u128,
}

impl BenchResult {
    /// Reduces pass times (in nanoseconds, any order) to their
    /// percentiles.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    fn of(samples: &mut [u128]) -> Self {
        assert!(!samples.is_empty(), "a benchmark needs at least one pass");
        samples.sort_unstable();
        let rank = |q: f64| samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1];
        BenchResult {
            iterations: samples.len() as u32,
            p10_ns: rank(0.1),
            median_ns: rank(0.5),
            p90_ns: rank(0.9),
        }
    }

    /// Median pass time in seconds.
    pub fn median_seconds(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }

    /// 10th-percentile pass time in seconds.
    pub fn p10_seconds(&self) -> f64 {
        self.p10_ns as f64 / 1e9
    }

    /// 90th-percentile pass time in seconds.
    pub fn p90_seconds(&self) -> f64 {
        self.p90_ns as f64 / 1e9
    }
}

/// Runs `f` for `warmup + iterations` calls, timing the last
/// `iterations`, and prints one `name: median … (p10 …, p90 …)` line.
pub fn bench(name: &str, warmup: u32, iterations: u32, mut f: impl FnMut()) -> BenchResult {
    bench_timed(name, warmup, iterations, || {
        let start = Instant::now();
        f();
        start.elapsed()
    })
}

/// Like [`bench()`], but each call of `f` times its own pass and returns
/// the duration, so per-pass setup (a fresh store directory, say) stays
/// out of the sample.
pub fn bench_timed(
    name: &str,
    warmup: u32,
    iterations: u32,
    mut f: impl FnMut() -> Duration,
) -> BenchResult {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<u128> = (0..iterations.max(1)).map(|_| f().as_nanos()).collect();
    let result = BenchResult::of(&mut samples);
    println!(
        "{name:<44} {:>12} median  ({:>12} p10, {:>12} p90, {} iters)",
        format_ns(result.median_ns),
        format_ns(result.p10_ns),
        format_ns(result.p90_ns),
        result.iterations,
    );
    result
}

fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_consistent_bounds() {
        let mut n = 0u64;
        let r = bench("noop", 1, 5, || n = n.wrapping_add(1));
        assert_eq!(r.iterations, 5);
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
        assert_eq!(n, 6, "warmup + timed iterations all ran");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let r = BenchResult::of(&mut [50, 10, 40, 20, 30]);
        assert_eq!((r.p10_ns, r.median_ns, r.p90_ns), (10, 30, 50));
        let r = BenchResult::of(&mut (1..=10).rev().collect::<Vec<u128>>());
        assert_eq!((r.p10_ns, r.median_ns, r.p90_ns), (1, 5, 9));
        let r = BenchResult::of(&mut [7]);
        assert_eq!((r.p10_ns, r.median_ns, r.p90_ns), (7, 7, 7));
    }

    #[test]
    fn timed_passes_exclude_setup() {
        let r = bench_timed("fixed", 0, 3, || Duration::from_micros(2));
        assert_eq!((r.p10_ns, r.median_ns, r.p90_ns), (2_000, 2_000, 2_000));
    }

    #[test]
    fn ns_formatting_picks_sensible_units() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(1_500), "1.500 us");
        assert_eq!(format_ns(2_000_000), "2.000 ms");
        assert_eq!(format_ns(3_200_000_000), "3.200 s");
    }
}

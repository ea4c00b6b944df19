//! Integer histograms for the Fig. 6 plots.

use std::collections::BTreeMap;
use std::fmt;

/// A histogram over `u64` values.
///
/// ```
/// use rrb_analysis::Histogram;
/// let h: Histogram = [3u64, 3, 3, 5, 9].into_iter().collect();
/// assert_eq!(h.count(3), 3);
/// assert_eq!(h.mode(), Some(3));
/// assert_eq!(h.max(), Some(9));
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: BTreeMap<u64, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds directly from pre-counted bins.
    pub fn from_bins<I: IntoIterator<Item = (u64, u64)>>(bins: I) -> Self {
        Histogram { bins: bins.into_iter().filter(|&(_, n)| n > 0).collect() }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: u64) {
        *self.bins.entry(value).or_insert(0) += 1;
    }

    /// Adds `count` observations of `value`.
    pub fn add_n(&mut self, value: u64, count: u64) {
        if count > 0 {
            *self.bins.entry(value).or_insert(0) += count;
        }
    }

    /// Occurrences of `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.bins.get(&value).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.bins.values().sum()
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<u64> {
        self.bins.keys().next_back().copied()
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<u64> {
        self.bins.keys().next().copied()
    }

    /// Most frequent value (ties break toward the larger value, matching
    /// the conservative reading a timing analyst would take).
    pub fn mode(&self) -> Option<u64> {
        self.bins.iter().max_by_key(|&(v, n)| (*n, *v)).map(|(&v, _)| v)
    }

    /// Fraction of observations equal to `value`, in `[0, 1]`.
    pub fn fraction(&self, value: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(value) as f64 / total as f64
        }
    }

    /// The smallest value `v` such that at least `q` (in `[0,1]`) of the
    /// observations are `<= v`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.total();
        if total == 0 {
            return None;
        }
        let threshold = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&v, &n) in &self.bins {
            seen += n;
            if seen >= threshold {
                return Some(v);
            }
        }
        self.max()
    }

    /// Mean of the observations.
    pub fn mean(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let sum: u64 = self.bins.iter().map(|(&v, &n)| v * n).sum();
        Some(sum as f64 / total as f64)
    }

    /// Iterates `(value, count)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins.iter().map(|(&v, &n)| (v, n))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, n) in other.iter() {
            self.add_n(v, n);
        }
    }

    /// Renders an ASCII bar chart, one row per bin, scaled to `width`
    /// characters for the largest bin.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let peak = self.bins.values().max().copied().unwrap_or(0);
        if peak == 0 {
            return String::from("(empty)\n");
        }
        let mut out = String::new();
        for (v, n) in self.iter() {
            let bar = (n as f64 / peak as f64 * width as f64).round() as usize;
            let _ = writeln!(out, "{v:>6} | {:<width$} {n}", "#".repeat(bar));
        }
        out
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(40))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_total() {
        let h: Histogram = [1u64, 1, 2, 9].into_iter().collect();
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn mode_ties_break_high() {
        let h: Histogram = [1u64, 1, 5, 5].into_iter().collect();
        assert_eq!(h.mode(), Some(5));
    }

    #[test]
    fn quantiles() {
        let h: Histogram = (1u64..=100).collect();
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.mode(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.fraction(3), 0.0);
        assert_eq!(h.render(10), "(empty)\n");
    }

    #[test]
    fn merge_accumulates() {
        let mut a: Histogram = [1u64, 2].into_iter().collect();
        let b: Histogram = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn from_bins_skips_empty() {
        let h = Histogram::from_bins([(4, 2), (7, 0)]);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.count(7), 0);
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn mean_is_weighted() {
        let h = Histogram::from_bins([(10, 3), (20, 1)]);
        assert_eq!(h.mean(), Some(12.5));
    }

    #[test]
    fn fraction_of_mode_measures_synchrony() {
        // The §5.2 observation: 98 % of requests share one delay.
        let mut h = Histogram::from_bins([(26, 98), (20, 1), (13, 1)]);
        assert!(h.fraction(26) > 0.97);
        h.add(26);
        assert_eq!(h.count(26), 99);
    }

    #[test]
    fn render_scales_bars() {
        let h = Histogram::from_bins([(1, 10), (2, 5)]);
        let r = h.render(10);
        assert!(r.contains("##########"));
        assert!(r.contains("#####"));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn bad_quantile_panics() {
        let h: Histogram = [1u64].into_iter().collect();
        let _ = h.quantile(1.5);
    }
}

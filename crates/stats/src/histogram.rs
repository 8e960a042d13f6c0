//! Fixed-bin histogram, mirroring the oscilloscope's compressed sample
//! storage used in the paper's measurement methodology (Sec. II-A).

/// A fixed-bin histogram over a closed value range.
///
/// Values below the range are accumulated in an underflow bucket and
/// values above it in an overflow bucket, so [`Histogram::total`] always
/// equals the number of recorded samples. The paper's scope stores
/// minutes of voltage samples this way; we use the same structure for
/// per-cycle voltage samples and for droop-depth distributions.
///
/// # Examples
///
/// ```
/// use vsmooth_stats::Histogram;
///
/// let mut h = Histogram::new(-10.0, 10.0, 200);
/// h.record(-9.6);
/// h.record(0.0);
/// h.record(3.2);
/// assert_eq!(h.total(), 3);
/// assert!((h.min_recorded().unwrap() + 9.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    min: f64,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, if either bound is non-finite, or if
    /// `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram bounds must be finite"
        );
        assert!(lo < hi, "histogram range must be non-empty (lo < hi)");
        assert!(bins > 0, "histogram must have at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            min: f64::INFINITY,
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one sample.
    ///
    /// Non-finite samples are ignored (a scope would not emit them).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.total += 1;
        self.sum += x;
        self.min = self.min.min(x);
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Merges another histogram with identical binning into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms do not share `lo`, `hi` and bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram merge: mismatched lower bound");
        assert_eq!(self.hi, other.hi, "histogram merge: mismatched upper bound");
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram merge: mismatched bin count"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
    }

    /// Total number of recorded samples (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of bins.
    pub(crate) fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Raw bin counts, ascending by value.
    pub(crate) fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Lower bound of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min_recorded(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Mean of all recorded samples (exact, not binned); `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Count of samples with value `< x` (binned approximation:
    /// whole bins strictly below the bin containing `x`, plus underflow).
    pub(crate) fn count_below(&self, x: f64) -> u64 {
        if x <= self.lo {
            return self.underflow;
        }
        if x >= self.hi {
            return self.total - self.overflow;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
        self.underflow + self.bins[..idx].iter().sum::<u64>()
    }

    /// Count of samples with value `>= x` (binned: the bin containing `x`
    /// and everything above, plus overflow).
    pub fn count_at_or_above(&self, x: f64) -> u64 {
        if x <= self.lo {
            return self.total - self.underflow;
        }
        if x >= self.hi {
            return self.overflow;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
        self.overflow + self.bins[idx..].iter().sum::<u64>()
    }

    /// Fraction of samples with value `< x`; `0.0` if empty.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_below(x) as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_fall_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.5);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
    }

    #[test]
    fn underflow_and_overflow_are_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-1.0);
        h.record(2.0);
        h.record(1.0); // hi is exclusive -> overflow
        assert_eq!(h.total(), 3);
        assert_eq!(h.count_below(0.0), 1);
        assert_eq!(h.count_at_or_above(1.0), 2);
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.record(0.1);
        b.record(0.9);
        b.record(0.1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.bins()[0], 2);
        assert_eq!(a.bins()[3], 1);
    }

    #[test]
    #[should_panic(expected = "mismatched bin count")]
    fn merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        a.merge(&b);
    }

    #[test]
    fn bin_center_is_midpoint() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        assert!((h.bin_center(9) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn mean_tracks_exact_sum() {
        let mut h = Histogram::new(0.0, 10.0, 3);
        h.record(1.0);
        h.record(2.0);
        h.record(6.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn total_counts_every_finite_sample(xs in proptest::collection::vec(-1e3f64..1e3, 0..200)) {
            let mut h = Histogram::new(-10.0, 10.0, 50);
            for &x in &xs {
                h.record(x);
            }
            prop_assert_eq!(h.total(), xs.len() as u64);
        }

        #[test]
        fn below_plus_at_or_above_is_total(
            xs in proptest::collection::vec(-2f64..2.0, 1..200),
            t in -2f64..2.0,
        ) {
            let mut h = Histogram::new(-1.0, 1.0, 37);
            for &x in &xs {
                h.record(x);
            }
            prop_assert_eq!(h.count_below(t) + h.count_at_or_above(t), h.total());
        }

        #[test]
        fn min_recorded_is_the_smallest_sample(xs in proptest::collection::vec(-1e2f64..1e2, 1..100)) {
            let mut h = Histogram::new(-10.0, 10.0, 10);
            for &x in &xs {
                h.record(x);
            }
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(h.min_recorded().unwrap(), lo);
        }
    }
}

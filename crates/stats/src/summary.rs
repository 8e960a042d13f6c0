//! Streaming summary statistics (Welford's algorithm), used when a full
//! sample vector would be too large to keep (billions of cycles).

/// Online mean/variance/min/max accumulator.
///
/// Uses Welford's numerically stable update, so it is safe to stream
/// billions of per-cycle voltage samples through it.
///
/// # Examples
///
/// ```
/// use vsmooth_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples; `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Peak-to-peak range (max − min); `0.0` if empty.
    ///
    /// This is the quantity the paper reports for every voltage-swing
    /// comparison ("peak-to-peak swing").
    pub fn peak_to_peak(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.peak_to_peak(), 0.0);
    }

    #[test]
    fn variance_matches_batch_formula() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_nan() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
    }

    proptest! {
        #[test]
        fn merge_equals_sequential(
            a in proptest::collection::vec(-1e3f64..1e3, 0..50),
            b in proptest::collection::vec(-1e3f64..1e3, 0..50),
        ) {
            let mut s1 = Summary::new();
            let mut s2 = Summary::new();
            let mut all = Summary::new();
            for &x in &a {
                s1.record(x);
                all.record(x);
            }
            for &x in &b {
                s2.record(x);
                all.record(x);
            }
            s1.merge(&s2);
            prop_assert_eq!(s1.count(), all.count());
            prop_assert!((s1.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((s1.variance() - all.variance()).abs() < 1e-6);
            prop_assert_eq!(s1.min(), all.min());
            prop_assert_eq!(s1.max(), all.max());
        }

        #[test]
        fn mean_bounded_by_min_max(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let mut s = Summary::new();
            for &x in &xs {
                s.record(x);
            }
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        }
    }
}

//! Cumulative distribution series, as plotted in Figs. 7 and 9.

use crate::Histogram;

/// A cumulative distribution function as a series of `(value, fraction)`
/// points, with `fraction` non-decreasing from 0 toward 1.
///
/// This is the representation behind the paper's Fig. 7 ("Cumulative
/// distribution of voltage samples across 881 program executions") and
/// Fig. 9 (the same on the reduced-capacitance processors).
///
/// # Examples
///
/// ```
/// use vsmooth_stats::Cdf;
///
/// let cdf = Cdf::from_samples(&[1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(cdf.fraction_at(2.0), 0.75);
/// assert_eq!(cdf.fraction_at(0.5), 0.0);
/// assert_eq!(cdf.fraction_at(5.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Builds a CDF from raw samples (each sample becomes a step).
    ///
    /// Non-finite samples are ignored.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut xs: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = xs.len() as f64;
        let mut points = Vec::with_capacity(xs.len());
        let mut i = 0usize;
        while i < xs.len() {
            let v = xs[i];
            let mut j = i;
            while j < xs.len() && xs[j] == v {
                j += 1;
            }
            points.push((v, j as f64 / n));
            i = j;
        }
        Self { points }
    }

    /// Builds a CDF from a [`Histogram`], using bin centers as values.
    ///
    /// Underflow mass is attached just below the range, overflow just
    /// above it, so the curve still ends at 1.
    pub fn from_histogram(h: &Histogram) -> Self {
        let total = h.total();
        let mut points = Vec::with_capacity(h.bin_count() + 2);
        if total == 0 {
            return Self { points };
        }
        let mut cum = 0u64;
        let under = h.count_below(h.lo());
        if under > 0 {
            cum += under;
            points.push((h.lo(), cum as f64 / total as f64));
        }
        for (i, &c) in h.bins().iter().enumerate() {
            if c > 0 {
                cum += c;
                points.push((h.bin_center(i), cum as f64 / total as f64));
            }
        }
        if cum < total {
            points.push((h.hi(), 1.0));
        }
        Self { points }
    }

    /// The `(value, cumulative fraction)` points, ascending by value.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Fraction of mass at or below `x` (step interpolation).
    pub fn fraction_at(&self, x: f64) -> f64 {
        let mut frac = 0.0;
        for &(v, f) in &self.points {
            if v <= x {
                frac = f;
            } else {
                break;
            }
        }
        frac
    }

    /// Smallest value at which the CDF reaches at least `q` (inverse CDF).
    ///
    /// Returns `None` for an empty CDF or `q > 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        self.points.iter().find(|&&(_, f)| f >= q).map(|&(v, _)| v)
    }

    /// Number of distinct step points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the CDF has no points (no samples recorded).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_samples_handles_duplicates() {
        let cdf = Cdf::from_samples(&[3.0, 1.0, 3.0]);
        assert_eq!(cdf.len(), 2);
        assert!((cdf.fraction_at(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.fraction_at(3.0), 1.0);
    }

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at(0.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }

    #[test]
    fn quantile_inverts_fraction() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.quantile(0.25), Some(1.0));
        assert_eq!(cdf.quantile(0.26), Some(2.0));
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(cdf.quantile(1.5), None);
    }

    #[test]
    fn from_histogram_reaches_one() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(0.1);
        h.record(0.6);
        h.record(2.0); // overflow
        let cdf = Cdf::from_histogram(&h);
        let last = cdf.points().last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let cdf = Cdf::from_samples(&xs);
            for w in cdf.points().windows(2) {
                prop_assert!(w[0].0 < w[1].0);
                prop_assert!(w[0].1 <= w[1].1);
            }
            prop_assert!((cdf.points().last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }
}

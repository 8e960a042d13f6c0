//! Statistics substrate for the `vsmooth` voltage-noise reproduction.
//!
//! The MICRO 2010 paper gathers oscilloscope voltage samples in a
//! "highly compressed histogram format" and reports cumulative
//! distributions (Fig. 7, Fig. 9), Pearson correlations between droops
//! and stall ratio (Fig. 15), and boxplots of droop counts across
//! co-schedules (Fig. 17). This crate provides those primitives:
//!
//! * [`Histogram`] — fixed-bin histogram mirroring the scope's
//!   compressed sample storage.
//! * [`Cdf`] — cumulative distribution series derived from a histogram
//!   or raw samples.
//! * [`pearson`] — linear correlation coefficient.
//! * [`BoxplotStats`] — five-number summary used for Fig. 17.
//! * [`Summary`] — streaming mean/min/max/variance.
//! * [`linear_fit`] — least-squares line fit.
//!
//! # Examples
//!
//! ```
//! use vsmooth_stats::{Histogram, pearson};
//!
//! let mut h = Histogram::new(0.0, 1.0, 10);
//! for x in [0.05, 0.15, 0.15, 0.95] {
//!     h.record(x);
//! }
//! assert_eq!(h.total(), 4);
//! assert_eq!(h.count_at_or_above(0.9), 1);
//!
//! let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
//! assert!((r - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod boxplot;
mod cdf;
mod corr;
mod histogram;
mod metrics;
mod summary;

pub use boxplot::BoxplotStats;
pub use cdf::Cdf;
pub use corr::{linear_fit, pearson, LinearFit};
pub use histogram::Histogram;
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot, SeriesId};
pub use summary::Summary;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(vsmooth_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(vsmooth_stats::mean(&[]), 0.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice; `0.0` for fewer than two points.
///
/// # Examples
///
/// ```
/// let sd = vsmooth_stats::std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert!((sd - 2.0).abs() < 1e-12);
/// ```
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Linear interpolation percentile (inclusive method) of unsorted data.
///
/// `q` is clamped to `[0, 1]`. Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if the data contains NaN.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(vsmooth_stats::percentile(&xs, 0.5), 2.5);
/// assert_eq!(vsmooth_stats::percentile(&xs, 0.0), 1.0);
/// assert_eq!(vsmooth_stats::percentile(&xs, 1.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in data"));
    percentile_sorted(&sorted, q)
}

/// Percentile of already-sorted data (ascending). See [`percentile`].
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[5.0; 7]), 5.0);
    }

    #[test]
    fn std_dev_single_point_is_zero() {
        assert_eq!(std_dev(&[42.0]), 0.0);
    }

    #[test]
    fn percentile_midpoint() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn percentile_clamps_q() {
        assert_eq!(percentile(&[1.0, 2.0], 2.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], -1.0), 1.0);
    }
}

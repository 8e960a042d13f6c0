//! Five-number boxplot summaries (Fig. 17: droop variance across
//! co-schedules for every CPU2006 benchmark).

/// Five-number summary (min, Q1, median, Q3, max) plus the mean.
///
/// # Examples
///
/// ```
/// use vsmooth_stats::BoxplotStats;
///
/// let b = BoxplotStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
/// assert_eq!(b.median, 3.0);
/// assert_eq!(b.q1, 2.0);
/// assert_eq!(b.q3, 4.0);
/// assert_eq!(b.min, 1.0);
/// assert_eq!(b.max, 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// Smallest sample.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxplotStats {
    /// Computes the summary; returns `None` for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("boxplot: NaN in data"));
        Some(Self {
            min: sorted[0],
            q1: crate::percentile_sorted(&sorted, 0.25),
            median: crate::percentile_sorted(&sorted, 0.50),
            q3: crate::percentile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("non-empty"),
            mean: crate::mean(&sorted),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_returns_none() {
        assert!(BoxplotStats::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample_collapses() {
        let b = BoxplotStats::from_samples(&[7.0]).unwrap();
        assert_eq!(b.min, 7.0);
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.median, 7.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.max, 7.0);
    }

    proptest! {
        #[test]
        fn summary_is_ordered(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let b = BoxplotStats::from_samples(&xs).unwrap();
            prop_assert!(b.min <= b.q1);
            prop_assert!(b.q1 <= b.median);
            prop_assert!(b.median <= b.q3);
            prop_assert!(b.q3 <= b.max);
            prop_assert!(b.mean >= b.min && b.mean <= b.max);
        }
    }
}

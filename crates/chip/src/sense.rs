//! On-die voltage sensing: the software model of the paper's
//! `VCCsense`/`VSSsense` + oscilloscope measurement chain.

use vsmooth_stats::{Cdf, Histogram, Summary};

/// Threshold grid used to count droop (or overshoot) *events* at every
/// margin simultaneously.
///
/// A droop event at threshold `t` is one downward crossing of
/// `-t%` deviation. The grid exploits monotonicity — being below a deep
/// threshold implies being below every shallower one — so per-cycle
/// bookkeeping is O(depth change), not O(thresholds).
///
/// # Examples
///
/// ```
/// use vsmooth_chip::sense::CrossingGrid;
///
/// let mut g = CrossingGrid::droop_grid();
/// // A dip to -5% and back.
/// for d in [0.0, -2.0, -5.0, -1.0, 0.0] {
///     g.observe(d);
/// }
/// assert_eq!(g.events_at(2.3), 1);
/// assert_eq!(g.events_at(4.9), 1);
/// assert_eq!(g.events_at(6.0), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrossingGrid {
    /// Threshold magnitudes in percent, ascending.
    lo: f64,
    step: f64,
    counts: Vec<u64>,
    /// Index of the deepest threshold currently exceeded (`-1` if none).
    depth: i64,
    /// +1 counts downward excursions (droops), -1 upward (overshoots).
    sign: f64,
}

impl CrossingGrid {
    /// Number of thresholds in the standard grids.
    pub(crate) const GRID_LEN: usize = 60;

    /// Standard droop grid: thresholds 0.5 % … 15.25 % in 0.25 % steps.
    pub fn droop_grid() -> Self {
        Self {
            lo: 0.5,
            step: 0.25,
            counts: vec![0; Self::GRID_LEN],
            depth: -1,
            sign: -1.0,
        }
    }

    /// Standard overshoot grid over the same magnitudes.
    pub fn overshoot_grid() -> Self {
        Self {
            lo: 0.5,
            step: 0.25,
            counts: vec![0; Self::GRID_LEN],
            depth: -1,
            sign: 1.0,
        }
    }

    /// Observes one voltage sample expressed as percent deviation from
    /// nominal (e.g. `-2.3` for a 2.3 % droop).
    pub fn observe(&mut self, deviation_pct: f64) {
        let magnitude = deviation_pct * self.sign;
        let new_depth = if magnitude < self.lo {
            -1
        } else {
            (((magnitude - self.lo) / self.step) as i64).min(self.counts.len() as i64 - 1)
        };
        if new_depth > self.depth {
            // Crossed every threshold between old depth and new depth.
            let from = (self.depth + 1).max(0) as usize;
            for c in &mut self.counts[from..=new_depth as usize] {
                *c += 1;
            }
        }
        self.depth = new_depth;
    }

    /// Number of excursion events that reached at least `margin_pct`.
    pub fn events_at(&self, margin_pct: f64) -> u64 {
        if margin_pct < self.lo {
            return self.counts.first().copied().unwrap_or(0);
        }
        let idx = ((margin_pct - self.lo) / self.step).ceil() as usize;
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// The effective threshold [`CrossingGrid::events_at`] counts
    /// crossings of: the nearest grid line at or above `margin_pct`
    /// (clamped to the grid). A per-event logger that wants to agree
    /// exactly with the grid's aggregate count must trigger at this
    /// quantized margin, not the raw one.
    pub fn quantized_margin(&self, margin_pct: f64) -> f64 {
        if margin_pct < self.lo {
            return self.lo;
        }
        let idx = (((margin_pct - self.lo) / self.step).ceil() as usize).min(self.counts.len() - 1);
        self.lo + self.step * idx as f64
    }

    /// Merges event counts from another grid with identical layout.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different shapes.
    pub fn merge(&mut self, other: &CrossingGrid) {
        assert_eq!(self.counts.len(), other.counts.len(), "grid shape mismatch");
        assert_eq!(self.lo, other.lo, "grid origin mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// The voltage sensor: per-cycle sample capture in the scope's
/// compressed-histogram format, plus a streaming summary.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSensor {
    nominal: f64,
    histogram: Histogram,
    summary: Summary,
}

impl VoltageSensor {
    /// Creates a sensor around the given nominal voltage. Samples are
    /// stored as percent deviation in 0.05 % bins from −16 % to +10 %.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not a positive finite voltage.
    pub fn new(nominal: f64) -> Self {
        assert!(
            nominal.is_finite() && nominal > 0.0,
            "nominal voltage must be positive"
        );
        Self {
            nominal,
            histogram: Histogram::new(-16.0, 10.0, 520),
            summary: Summary::new(),
        }
    }

    /// Nominal voltage in volts.
    pub fn nominal(&self) -> f64 {
        self.nominal
    }

    /// Records one die-voltage sample (volts); returns the percent
    /// deviation from nominal.
    pub fn record(&mut self, volts: f64) -> f64 {
        let dev = 100.0 * (volts - self.nominal) / self.nominal;
        self.histogram.record(dev);
        self.summary.record(dev);
        dev
    }

    /// The percent-deviation histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Streaming summary of percent deviations.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Peak-to-peak swing in percent of nominal.
    pub fn peak_to_peak_pct(&self) -> f64 {
        self.summary.peak_to_peak()
    }

    /// Cumulative distribution of percent deviations (Fig. 7 / Fig. 9).
    pub fn cdf(&self) -> Cdf {
        Cdf::from_histogram(&self.histogram)
    }

    /// Merges another sensor's samples (same nominal).
    ///
    /// # Panics
    ///
    /// Panics if nominals differ.
    pub fn merge(&mut self, other: &VoltageSensor) {
        assert_eq!(
            self.nominal, other.nominal,
            "cannot merge sensors with different nominals"
        );
        self.histogram.merge(&other.histogram);
        self.summary.merge(&other.summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The grid's thresholds in percent, ascending.
    fn thresholds(g: &CrossingGrid) -> Vec<f64> {
        (0..g.counts.len())
            .map(|i| g.lo + g.step * i as f64)
            .collect()
    }

    #[test]
    fn grid_counts_single_excursion_once_per_threshold() {
        let mut g = CrossingGrid::droop_grid();
        for d in [0.0, -1.0, -3.0, -6.0, -3.0, 0.0] {
            g.observe(d);
        }
        assert_eq!(g.events_at(1.0), 1);
        assert_eq!(g.events_at(5.9), 1);
        assert_eq!(g.events_at(6.1), 0);
    }

    #[test]
    fn grid_counts_separate_excursions_separately() {
        let mut g = CrossingGrid::droop_grid();
        for d in [0.0, -3.0, 0.0, -3.0, 0.0, -3.0, 0.0] {
            g.observe(d);
        }
        assert_eq!(g.events_at(2.3), 3);
    }

    #[test]
    fn oscillation_within_excursion_not_double_counted() {
        let mut g = CrossingGrid::droop_grid();
        // Dips to -5, recovers only to -2 (still below 1%), dips again.
        for d in [0.0, -5.0, -2.0, -5.0, 0.0] {
            g.observe(d);
        }
        // At 1%: one event (never recovered above 1%).
        assert_eq!(g.events_at(1.0), 1);
        // At 4%: two events (recovered above 4% in between).
        assert_eq!(g.events_at(4.0), 2);
    }

    #[test]
    fn overshoot_grid_counts_positive_excursions() {
        let mut g = CrossingGrid::overshoot_grid();
        for d in [0.0, 3.0, 0.0, -5.0, 0.0] {
            g.observe(d);
        }
        assert_eq!(g.events_at(2.0), 1);
    }

    #[test]
    fn chatter_around_a_deep_threshold_counts_each_crossing() {
        // Event counts need NOT be monotone in margin: a signal parked
        // just below -1% that chatters across -4% counts one shallow
        // event but many deep ones. This is physically correct — a
        // resilient design at the deep margin really would trigger that
        // many recoveries.
        let mut g = CrossingGrid::droop_grid();
        for d in [0.0, -5.0, -2.0, -5.0, -2.0, -5.0, 0.0] {
            g.observe(d);
        }
        assert_eq!(g.events_at(1.0), 1);
        assert_eq!(g.events_at(4.0), 3);
    }

    #[test]
    fn sensor_percent_conversion() {
        let mut s = VoltageSensor::new(1.0);
        let dev = s.record(0.95);
        assert!((dev + 5.0).abs() < 1e-12);
        assert_eq!(s.histogram().total(), 1);
        assert!((s.peak_to_peak_pct()).abs() < 1e-12);
        s.record(1.02);
        assert!((s.peak_to_peak_pct() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn sensor_merge_combines_samples() {
        let mut a = VoltageSensor::new(1.0);
        let mut b = VoltageSensor::new(1.0);
        a.record(0.99);
        b.record(1.01);
        a.merge(&b);
        assert_eq!(a.histogram().total(), 2);
    }

    #[test]
    fn partial_recovery_recounts_only_the_reopened_band() {
        // Down to -10.98 %, back up to -9.28 %, down again to -11.82 %,
        // then recovery: the partial recovery reopens 9.5-10.75 %, so
        // only that band counts a second crossing. Proptest once shrank
        // a failure of `grid_event_count_bounded_by_sample_count` to
        // this input.
        let mut samples = vec![-10.98165303791108, -9.280643106683456, -11.820851657821294];
        samples.resize(10, 0.0);
        let mut g = CrossingGrid::droop_grid();
        for &d in &samples {
            g.observe(d);
        }
        for t in thresholds(&g) {
            let expect = match t {
                t if t <= 9.25 => 1,
                t if t <= 10.75 => 2,
                t if t <= 11.75 => 1,
                _ => 0,
            };
            assert_eq!(g.events_at(t), expect, "threshold {t}");
            assert!(g.events_at(t) <= samples.len() as u64);
        }
    }

    proptest! {
        #[test]
        fn grid_event_count_bounded_by_sample_count(
            samples in proptest::collection::vec(-12.0f64..6.0, 10..400),
        ) {
            let n = samples.len() as u64;
            let mut g = CrossingGrid::droop_grid();
            for d in samples {
                g.observe(d);
            }
            // Each threshold can be crossed at most once per sample.
            for t in thresholds(&g) {
                prop_assert!(g.events_at(t) <= n);
            }
        }

        #[test]
        fn single_monotone_descent_counts_once_everywhere(
            depth in 1.0f64..14.0,
        ) {
            let mut g = CrossingGrid::droop_grid();
            // Monotone descent to -depth and monotone recovery.
            for k in 0..=20 {
                g.observe(-depth * k as f64 / 20.0);
            }
            for k in (0..=20).rev() {
                g.observe(-depth * k as f64 / 20.0);
            }
            for t in thresholds(&g) {
                let expect = u64::from(t <= depth);
                prop_assert_eq!(g.events_at(t), expect, "threshold {}", t);
            }
        }
    }
}

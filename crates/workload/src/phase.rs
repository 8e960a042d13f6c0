//! Phase-structured workload descriptions.
//!
//! Sec. IV-A of the paper: "Similar to program execution phases, we find
//! that the processor experiences varying levels of voltage swing
//! activity during execution … Voltage noise phases result from changing
//! microarchitectural stall activity." A workload is therefore a
//! timeline of [`Phase`]s, each with an [`EventMix`] — per-kilocycle
//! stall-event rates and an execution intensity.

use vsmooth_uarch::StallEvent;

/// Per-kilocycle stall-event rates plus execution intensity for one
/// program phase.
///
/// Rates are expressed per 1 000 *running* (unstalled) cycles; events
/// cannot fire while the pipeline is already stalled, so heavy mixes
/// saturate naturally, just like a real pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMix {
    /// Issue intensity while running (0..≈1.1).
    pub intensity: f64,
    /// Rates per kilocycle: `[L1, L2, TLB, BR, EXCP]`, matching
    /// [`StallEvent::ALL`] order.
    pub rates: [f64; 5],
}

impl EventMix {
    /// A quiet compute-bound mix (high intensity, few stalls).
    pub const fn compute(intensity: f64) -> Self {
        Self {
            intensity,
            rates: [6.0, 0.2, 0.2, 4.0, 0.01],
        }
    }

    /// Rate for one event class, per kilocycle of running execution.
    pub fn rate(&self, e: StallEvent) -> f64 {
        self.rates[e as usize]
    }

    /// Total event rate per kilocycle.
    pub(crate) fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Expected stall cycles triggered per kilocycle of running
    /// execution.
    pub(crate) fn expected_stall_per_kilocycle(&self) -> f64 {
        StallEvent::ALL
            .iter()
            .map(|&e| self.rate(e) * f64::from(e.profile().stall_cycles))
            .sum()
    }

    /// First-order stall-ratio estimate: stall cycles accrue only
    /// against running cycles, so the ratio saturates as
    /// `S / (1000 + S)`.
    pub(crate) fn stall_ratio_estimate(&self) -> f64 {
        let s = self.expected_stall_per_kilocycle();
        s / (1000.0 + s)
    }

    /// Burstiness of the issue stream: how strongly instantaneous
    /// activity swings around the phase mean, as a fraction of the
    /// intensity. Stall events cluster — misses arrive in trains and
    /// every resolution launches a burst of piled-up work — so issue
    /// burstiness grows with stall activity. This is the
    /// microarchitectural mechanism behind the paper's Fig. 15
    /// observation that voltage droops track the stall ratio.
    pub(crate) fn burstiness(&self) -> f64 {
        (0.02 + 1.0 * self.stall_ratio_estimate()).min(0.65)
    }

    /// Validates rates and intensity.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite rates, or intensity outside
    /// `[0, 1.2]`.
    pub fn assert_valid(&self) {
        assert!(
            self.intensity.is_finite() && (0.0..=1.2).contains(&self.intensity),
            "intensity out of range: {}",
            self.intensity
        );
        for r in self.rates {
            assert!(r.is_finite() && r >= 0.0, "negative event rate: {r}");
        }
    }
}

/// One phase: an event mix sustained for a number of measurement
/// intervals (one interval ≈ the paper's 60-second scope window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Duration in measurement intervals.
    pub intervals: u32,
    /// The stall-event mix during this phase.
    pub mix: EventMix,
}

/// An ordered sequence of phases covering a program's full execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimeline {
    phases: Vec<Phase>,
}

impl PhaseTimeline {
    /// Creates a timeline from phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any phase has zero duration, or any
    /// mix is invalid.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "timeline must have at least one phase");
        for p in &phases {
            assert!(p.intervals > 0, "phase duration must be non-zero");
            p.mix.assert_valid();
        }
        Self { phases }
    }

    /// A single-phase timeline.
    pub fn flat(intervals: u32, mix: EventMix) -> Self {
        Self::new(vec![Phase { intervals, mix }])
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total duration in intervals.
    pub fn total_intervals(&self) -> u32 {
        self.phases.iter().map(|p| p.intervals).sum()
    }

    /// The mix active during `interval` (0-based). Intervals past the
    /// end stay in the final phase (a completed program that is
    /// re-measured keeps its tail behaviour).
    pub(crate) fn mix_at(&self, interval: u32) -> &EventMix {
        let mut acc = 0;
        for p in &self.phases {
            acc += p.intervals;
            if interval < acc {
                return &p.mix;
            }
        }
        &self.phases.last().expect("timeline non-empty").mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(rates: [f64; 5]) -> EventMix {
        EventMix {
            intensity: 0.8,
            rates,
        }
    }

    #[test]
    fn mix_rate_accessors() {
        let m = mix([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.rate(StallEvent::L1Miss), 1.0);
        assert_eq!(m.rate(StallEvent::Exception), 5.0);
        assert_eq!(m.total_rate(), 15.0);
    }

    #[test]
    fn stall_ratio_estimate_saturates() {
        let light = mix([1.0, 0.0, 0.0, 0.0, 0.0]);
        let heavy = mix([0.0, 50.0, 0.0, 0.0, 0.0]);
        assert!(light.stall_ratio_estimate() < 0.05);
        let h = heavy.stall_ratio_estimate();
        assert!(h > 0.5 && h < 1.0, "heavy estimate = {h}");
    }

    #[test]
    fn timeline_mix_lookup() {
        let t = PhaseTimeline::new(vec![
            Phase {
                intervals: 2,
                mix: mix([1.0; 5]),
            },
            Phase {
                intervals: 3,
                mix: mix([2.0; 5]),
            },
        ]);
        assert_eq!(t.total_intervals(), 5);
        assert_eq!(t.mix_at(0).rates[0], 1.0);
        assert_eq!(t.mix_at(1).rates[0], 1.0);
        assert_eq!(t.mix_at(2).rates[0], 2.0);
        assert_eq!(t.mix_at(4).rates[0], 2.0);
        // Past the end: stays in the last phase.
        assert_eq!(t.mix_at(99).rates[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_timeline_panics() {
        PhaseTimeline::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_duration_phase_panics() {
        PhaseTimeline::new(vec![Phase {
            intervals: 0,
            mix: mix([0.0; 5]),
        }]);
    }
}

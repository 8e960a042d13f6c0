//! Microarchitectural stall events and their current-signature profiles.
//!
//! Sec. III-C of the paper: "Microarchitectural events that cause stalls
//! lead to voltage swings." The five events studied with hand-crafted
//! microbenchmarks are L1 misses, L2 misses, TLB misses, branch
//! mispredictions (BR) and exceptions (EXCP). Each event momentarily
//! stalls execution — current drops as the clock gates idle units and
//! voltage *overshoots*; when the stall resolves, the pipeline refills
//! with a current surge and voltage *droops*.

use std::fmt;

/// A pipeline-stalling microarchitectural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallEvent {
    /// L1 data-cache miss that hits in the L2 (short stall).
    L1Miss,
    /// L2 miss serviced from DRAM (long stall, deep gating).
    L2Miss,
    /// TLB miss requiring a page walk.
    TlbMiss,
    /// Branch misprediction: an abrupt full pipeline flush and refill.
    BranchMispredict,
    /// Exception: pipeline drain, microcode entry, and a large refill
    /// burst — the deepest current step of the five.
    Exception,
}

impl StallEvent {
    /// All five events in the order the paper's figures use.
    pub const ALL: [StallEvent; 5] = [
        Self::L1Miss,
        Self::L2Miss,
        Self::TlbMiss,
        Self::BranchMispredict,
        Self::Exception,
    ];

    /// This event's position in [`StallEvent::ALL`] — the index of its
    /// slot in raw per-event count arrays. Constant-folds to a plain
    /// integer, so hot counter paths can index instead of scanning.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Self::L1Miss => 0,
            Self::L2Miss => 1,
            Self::TlbMiss => 2,
            Self::BranchMispredict => 3,
            Self::Exception => 4,
        }
    }

    /// Short label used in the paper's figures (L1, L2, TLB, BR, EXCP).
    pub fn label(self) -> &'static str {
        match self {
            Self::L1Miss => "L1",
            Self::L2Miss => "L2",
            Self::TlbMiss => "TLB",
            Self::BranchMispredict => "BR",
            Self::Exception => "EXCP",
        }
    }

    /// The event's activity/current signature.
    ///
    /// Calibration notes (see DESIGN.md): the branch-misprediction flush
    /// collapses activity essentially instantaneously and refills just as
    /// fast, so its recurrence in a tight loop sits near the PDN's
    /// 100–200 MHz resonance and produces the largest *single-core* swing
    /// (Fig. 12, ≈1.7× idle). The exception drains more state over more
    /// cycles and refills with the largest absolute current step, so two
    /// cores taking exceptions together produce the largest *chip-wide*
    /// swing (Fig. 13, ≈2.4× idle).
    pub fn profile(self) -> EventProfile {
        match self {
            Self::L1Miss => EventProfile {
                stall_cycles: 10,
                retain_frac: 0.8,
                gate_rate: 0.6,
                surge_gain: 1.09,
                surge_cycles: 2,
                surge_floor: 0.85,
            },
            Self::L2Miss => EventProfile {
                stall_cycles: 160,
                retain_frac: 0.52,
                gate_rate: 0.20,
                surge_gain: 1.34,
                surge_cycles: 6,
                surge_floor: 0.85,
            },
            Self::TlbMiss => EventProfile {
                stall_cycles: 28,
                retain_frac: 0.62,
                gate_rate: 0.45,
                surge_gain: 1.2,
                surge_cycles: 4,
                surge_floor: 0.85,
            },
            Self::BranchMispredict => EventProfile {
                stall_cycles: 12,
                retain_frac: 0.795,
                gate_rate: 0.95,
                surge_gain: 1.08,
                surge_cycles: 4,
                surge_floor: 0.85,
            },
            Self::Exception => EventProfile {
                stall_cycles: 110,
                retain_frac: 0.55,
                gate_rate: 0.45,
                surge_gain: 1.3,
                surge_cycles: 12,
                surge_floor: 0.85,
            },
        }
    }
}

impl fmt::Display for StallEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How an event shapes core activity over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventProfile {
    /// Cycles the pipeline is stalled.
    pub stall_cycles: u32,
    /// Fraction of the pre-stall activity retained while gated (0..1).
    /// Production cores gate only part of their switching power during
    /// a stall — caches, clock distribution and the front end keep
    /// toggling — which is why single-event voltage spikes are on the
    /// few-millivolt scale of Fig. 11 rather than full-swing steps.
    pub retain_frac: f64,
    /// Per-cycle exponential rate of the gating decay (0..1]; 1.0 is an
    /// instantaneous collapse (branch flush).
    pub gate_rate: f64,
    /// Activity overshoot factor relative to the pre-stall target during
    /// the post-stall refill burst (>= 1).
    pub surge_gain: f64,
    /// Cycles the refill surge lasts.
    pub surge_cycles: u32,
    /// Minimum effective intensity the refill bursts from: a full
    /// out-of-order window issues at high width regardless of the
    /// stream's average intensity.
    pub surge_floor: f64,
}

impl EventProfile {
    /// Validates the profile invariants used by the core model.
    ///
    /// # Panics
    ///
    /// Panics if any field is outside its documented range.
    pub fn assert_valid(&self) {
        assert!(self.stall_cycles > 0, "stall must last at least one cycle");
        assert!(
            (0.0..=1.0).contains(&self.retain_frac),
            "retain_frac must be in [0,1]"
        );
        assert!(
            self.gate_rate > 0.0 && self.gate_rate <= 1.0,
            "gate_rate must be in (0,1]"
        );
        assert!(self.surge_gain >= 1.0, "surge_gain must be >= 1");
        assert!(
            (0.0..=1.2).contains(&self.surge_floor),
            "surge_floor must be in [0,1.2]"
        );
    }

    /// Scales the drain depth, surge strength and surge floor by
    /// `weight` in (0..1]. Weight 1.0 is the full out-of-order
    /// drain/refill signature; small weights model serialized loops
    /// with a single miss in flight (the paper's hand-crafted
    /// microbenchmarks).
    pub(crate) fn weighted(&self, weight: f64) -> EventProfile {
        let w = weight.clamp(0.0, 1.0);
        EventProfile {
            stall_cycles: self.stall_cycles,
            retain_frac: 1.0 - (1.0 - self.retain_frac) * w,
            gate_rate: self.gate_rate,
            surge_gain: 1.0 + (self.surge_gain - 1.0) * w,
            surge_cycles: self.surge_cycles,
            surge_floor: self.surge_floor * w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_valid() {
        for e in StallEvent::ALL {
            e.profile().assert_valid();
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = StallEvent::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels, ["L1", "L2", "TLB", "BR", "EXCP"]);
    }

    #[test]
    fn index_matches_position_in_all() {
        for (i, e) in StallEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn branch_flush_is_fastest_collapse() {
        let br = StallEvent::BranchMispredict.profile();
        for e in StallEvent::ALL {
            if e != StallEvent::BranchMispredict {
                assert!(br.gate_rate > e.profile().gate_rate);
            }
        }
    }

    #[test]
    fn long_stalls_gate_deepest_and_surge_hardest() {
        // The events that drain the machine for the longest (L2 misses,
        // exceptions) shed the most current and refill with the biggest
        // bursts; short flushes and L1 misses barely move it.
        let l2 = StallEvent::L2Miss.profile();
        let ex = StallEvent::Exception.profile();
        for e in [
            StallEvent::L1Miss,
            StallEvent::TlbMiss,
            StallEvent::BranchMispredict,
        ] {
            let p = e.profile();
            assert!(l2.retain_frac < p.retain_frac, "{e} vs L2 gating");
            assert!(ex.retain_frac < p.retain_frac, "{e} vs EXCP gating");
            assert!(l2.surge_gain > p.surge_gain, "{e} vs L2 surge");
            assert!(ex.surge_gain > p.surge_gain, "{e} vs EXCP surge");
        }
    }

    #[test]
    fn l2_misses_stall_longest_among_cache_events() {
        assert!(
            StallEvent::L2Miss.profile().stall_cycles > StallEvent::L1Miss.profile().stall_cycles
        );
        assert!(
            StallEvent::L2Miss.profile().stall_cycles > StallEvent::TlbMiss.profile().stall_cycles
        );
    }

    #[test]
    fn display_is_label() {
        assert_eq!(StallEvent::Exception.to_string(), "EXCP");
    }
}

//! Resilient execution: actually *simulate* the fail-safe, instead of
//! modelling it analytically.
//!
//! The paper (Sec. III-B) models typical-case designs by counting
//! margin violations after the fact and adding `cost × emergencies`
//! recovery cycles to the runtime. This module closes the loop: the
//! chip detects each emergency as it happens, halts execution for the
//! recovery penalty (a checkpoint rollback: commits void, cores gated,
//! the program paused), and then resumes. Comparing the measured
//! slowdown against the analytic model validates the paper's
//! methodology inside this reproduction.

use crate::chip::Chip;
use crate::stats::RunStats;
use crate::ChipError;
use serde::{Deserialize, Serialize};
use vsmooth_uarch::StimulusSource;

/// Result of a run on a resilient chip with live error recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientRunStats {
    /// Ordinary measurements over the whole wall-clock run (recovery
    /// periods included — the supply keeps moving during rollback).
    pub stats: RunStats,
    /// Aggressive margin the detector fired at, percent below nominal.
    pub margin_pct: f64,
    /// Rollback penalty per emergency, in cycles.
    pub recovery_cost: u64,
    /// Emergencies detected (each one triggered a full rollback).
    pub emergencies: u64,
    /// Wall-clock cycles spent in recovery.
    pub recovery_cycles: u64,
}

impl ResilientRunStats {
    /// Fraction of wall-clock cycles lost to rollback.
    pub fn recovery_overhead(&self) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            self.recovery_cycles as f64 / self.stats.cycles as f64
        }
    }

    /// Net performance improvement over the worst-case design, using
    /// the same Bowman margin-to-frequency scaling the analytic model
    /// uses but with the *measured* recovery overhead.
    pub fn net_improvement(&self, worst_case_margin_pct: f64, scaling: f64) -> f64 {
        let gain = scaling * (worst_case_margin_pct - self.margin_pct).max(0.0) / 100.0;
        (1.0 + gain) * (1.0 - self.recovery_overhead()) - 1.0
    }
}

impl Chip {
    /// Runs `cycles` measured cycles on a resilient design: an
    /// `margin_pct` aggressive margin with a `recovery_cost`-cycle
    /// checkpoint rollback fired on every violation.
    ///
    /// During recovery the program is paused (sources are not
    /// advanced), in-flight work is squashed (the triggering cores
    /// re-execute it after resume — that is the rollback cost), and the
    /// cores idle-gate, which is itself an electrical event the shared
    /// supply sees.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::run`].
    pub fn run_resilient(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        margin_pct: f64,
        recovery_cost: u64,
    ) -> Result<ResilientRunStats, ChipError> {
        with_rollback(self.nominal_voltage(), margin_pct, recovery_cost, |hook| {
            self.run_inner(sources, cycles, interval_cycles, None, Some(hook))
        })
    }
}

/// [`Chip::run_resilient`]'s detector and rollback around a
/// measurement: `measure` runs the measurement loop with the hook it is
/// handed consulted before every cycle, with the previously sensed
/// voltage.
pub(crate) fn with_rollback(
    nominal: f64,
    margin_pct: f64,
    recovery_cost: u64,
    measure: impl FnOnce(&mut dyn FnMut(f64) -> CycleControl) -> Result<RunStats, ChipError>,
) -> Result<ResilientRunStats, ChipError> {
    if margin_pct <= 0.0 || !margin_pct.is_finite() {
        return Err(ChipError::InvalidConfig("margin must be positive"));
    }
    let threshold = nominal * (1.0 - margin_pct / 100.0);
    let mut emergencies = 0u64;
    let mut recovery_cycles = 0u64;
    let mut recovering: u64 = 0;
    // After a rollback the clocks ramp back up and the current surge
    // of re-execution would immediately re-trip a naive detector
    // (a recovery storm). Real resilient designs mask the detector
    // through the post-recovery ramp; so does this one.
    const POST_RECOVERY_GRACE: u64 = 200;
    let mut grace: u64 = 0;
    let mut below = false;
    let stats = measure(&mut |v| {
        if recovering > 0 {
            recovering -= 1;
            recovery_cycles += 1;
            if recovering == 0 {
                grace = POST_RECOVERY_GRACE;
            }
            return CycleControl::Recovery;
        }
        if grace > 0 {
            grace -= 1;
            below = v < threshold;
            return CycleControl::Normal;
        }
        if v < threshold {
            if !below {
                below = true;
                emergencies += 1;
                recovering = recovery_cost;
            }
        } else {
            below = false;
        }
        CycleControl::Normal
    })?;
    Ok(ResilientRunStats {
        stats,
        margin_pct,
        recovery_cost,
        emergencies,
        recovery_cycles,
    })
}

/// Per-cycle control decision from the resilience hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CycleControl {
    /// Execute the program normally.
    Normal,
    /// Rollback in progress: the program is paused and cores idle.
    Recovery,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::stats::PHASE_MARGIN_PCT;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    fn run_resilient_workload(margin: f64, cost: u64) -> ResilientRunStats {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc3());
        let mut chip = Chip::new(cfg).unwrap();
        let w = by_name("482.sphinx3").unwrap();
        let mut stream = w.stream(0, 4_000);
        let mut idle = vsmooth_uarch::IdleLoop::default();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut stream, &mut idle];
        chip.run_resilient(&mut sources, 100_000, 100_000, margin, cost)
            .unwrap()
    }

    #[test]
    fn emergencies_fire_and_cost_cycles() {
        let r = run_resilient_workload(PHASE_MARGIN_PCT, 100);
        assert!(
            r.emergencies > 0,
            "expected emergencies at an aggressive margin"
        );
        assert!(r.recovery_cycles >= r.emergencies * 100 - 100);
        assert!(r.recovery_overhead() > 0.0 && r.recovery_overhead() < 1.0);
    }

    #[test]
    fn conservative_margin_never_triggers() {
        let r = run_resilient_workload(13.5, 1_000);
        assert_eq!(r.emergencies, 0);
        assert_eq!(r.recovery_cycles, 0);
        // Pure frequency gain at zero overhead.
        let imp = r.net_improvement(14.0, 1.5);
        assert!(imp > 0.0 && imp < 0.01 + 1.5 * (14.0 - 13.5) / 100.0);
    }

    #[test]
    fn measured_overhead_validates_the_analytic_model() {
        // The paper's model: overhead = cost x emergencies / cycles,
        // with emergencies counted post-hoc on an unprotected run. The
        // live-recovery run must agree to first order (recovery pauses
        // execution and suppresses follow-on emergencies, so it counts
        // no more than the analytic bound).
        // Parameters chosen so the analytic overhead is well below 1
        // (the regime where the first-order model is meaningful).
        let margin = 4.5;
        let cost = 200u64;
        let cfg = ChipConfig::core2_duo(DecapConfig::proc3());
        let w = by_name("482.sphinx3").unwrap();

        let unprotected = {
            let mut chip = Chip::new(cfg.clone()).unwrap();
            let mut s = w.stream(0, 4_000);
            let mut idle = vsmooth_uarch::IdleLoop::default();
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            chip.run(&mut sources, 100_000, 100_000).unwrap()
        };
        let analytic_overhead =
            cost as f64 * unprotected.emergencies(margin) as f64 / unprotected.cycles as f64;

        let live = {
            let mut chip = Chip::new(cfg).unwrap();
            let mut s = w.stream(0, 4_000);
            let mut idle = vsmooth_uarch::IdleLoop::default();
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            chip.run_resilient(&mut sources, 100_000, 100_000, margin, cost)
                .unwrap()
        };

        assert!(live.emergencies > 0);
        assert!(
            live.recovery_overhead() <= 1.3 * analytic_overhead + 0.01,
            "live {:.4} should not exceed the analytic bound {:.4}",
            live.recovery_overhead(),
            analytic_overhead
        );
        assert!(
            live.recovery_overhead() >= 0.15 * analytic_overhead,
            "live {:.4} vs analytic {:.4}: model badly off",
            live.recovery_overhead(),
            analytic_overhead
        );
    }

    #[test]
    fn invalid_margin_is_rejected() {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let mut chip = Chip::new(cfg).unwrap();
        let mut idle0 = vsmooth_uarch::IdleLoop::default();
        let mut idle1 = vsmooth_uarch::IdleLoop::default();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut idle0, &mut idle1];
        assert!(chip
            .run_resilient(&mut sources, 100, 100, -1.0, 10)
            .is_err());
    }
}

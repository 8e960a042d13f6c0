//! Aggregated statistics for one measured run.

use crate::sense::{CrossingGrid, VoltageSensor};
use vsmooth_stats::Cdf;
use vsmooth_uarch::PerfCounters;

/// The droop margin used purely for *phase characterization* in the
/// paper (Sec. IV-A): "Assuming a 2.3% voltage margin … it allows us to
/// cleanly eliminate background operating system activity."
pub const PHASE_MARGIN_PCT: f64 = 2.3;

/// Everything measured during one run: the scope histogram, droop and
/// overshoot event grids, per-interval droop timeline, and per-core
/// performance counters.
///
/// All margin-dependent quantities (emergencies, droop rates) are
/// derived *after* the run from the threshold grids, so a single
/// simulation serves every margin × recovery-cost sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Simulated cycles (after warm-up).
    pub cycles: u64,
    /// The voltage sensor with all samples.
    pub sensor: VoltageSensor,
    /// Droop-event counts per threshold.
    pub droops: CrossingGrid,
    /// Overshoot-event counts per threshold.
    pub overshoots: CrossingGrid,
    /// Droop events (at [`PHASE_MARGIN_PCT`]) per interval, normalized
    /// per kilocycle — the Fig. 14 timeline.
    pub droops_per_interval: Vec<f64>,
    /// Per-core performance counters.
    pub core_counters: Vec<PerfCounters>,
}

impl RunStats {
    /// Number of droop events at least `margin_pct` deep — the
    /// emergency count a resilient design with that margin would see.
    pub fn emergencies(&self, margin_pct: f64) -> u64 {
        self.droops.events_at(margin_pct)
    }

    /// Droop events per 1 000 cycles at the given margin.
    pub fn droops_per_kilocycle(&self, margin_pct: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.emergencies(margin_pct) as f64 * 1000.0 / self.cycles as f64
        }
    }

    /// Peak-to-peak swing as a percent of nominal voltage.
    pub fn peak_to_peak_pct(&self) -> f64 {
        self.sensor.peak_to_peak_pct()
    }

    /// Deepest droop in percent (positive number).
    pub fn max_droop_pct(&self) -> f64 {
        (-self.sensor.summary().min().unwrap_or(0.0)).max(0.0)
    }

    /// Largest overshoot in percent.
    pub fn max_overshoot_pct(&self) -> f64 {
        self.sensor.summary().max().unwrap_or(0.0).max(0.0)
    }

    /// CDF of voltage samples in percent deviation (Fig. 7 / Fig. 9).
    pub fn cdf(&self) -> Cdf {
        self.sensor.cdf()
    }

    /// Fraction of samples below `-margin_pct` (the Fig. 7 typical-case
    /// argument: only 0.06 % of samples violate −4 % on Proc100).
    pub fn fraction_below(&self, margin_pct: f64) -> f64 {
        self.sensor.histogram().fraction_below(-margin_pct)
    }

    /// Chip-wide instructions per cycle (sum over cores).
    pub fn ipc(&self) -> f64 {
        self.core_counters.iter().map(PerfCounters::ipc).sum()
    }

    /// Mean stall ratio across cores that actually ran work.
    pub fn stall_ratio(&self) -> f64 {
        let active: Vec<f64> = self
            .core_counters
            .iter()
            .filter(|c| c.instructions() > 0.0 || c.stall_cycles() > 0)
            .map(PerfCounters::stall_ratio)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Merges another run's samples into this one (used to pool the 881
    /// campaign runs for Fig. 7).
    pub fn merge_samples(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        self.sensor.merge(&other.sensor);
        self.droops.merge(&other.droops);
        self.overshoots.merge(&other.overshoots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(devs: &[f64]) -> RunStats {
        let mut sensor = VoltageSensor::new(1.0);
        let mut droops = CrossingGrid::droop_grid();
        let mut overshoots = CrossingGrid::overshoot_grid();
        for &d in devs {
            sensor.record(1.0 * (1.0 + d / 100.0));
            droops.observe(d);
            overshoots.observe(d);
        }
        RunStats {
            cycles: devs.len() as u64,
            sensor,
            droops,
            overshoots,
            droops_per_interval: vec![],
            core_counters: vec![],
        }
    }

    #[test]
    fn emergencies_counted_from_grid() {
        let s = stats_with(&[0.0, -5.0, 0.0, -2.0, 0.0]);
        assert_eq!(s.emergencies(4.0), 1);
        assert_eq!(s.emergencies(1.5), 2);
        assert!((s.max_droop_pct() - 5.0).abs() < 0.11);
    }

    #[test]
    fn droops_per_kilocycle_normalizes() {
        let s = stats_with(&[0.0, -3.0, 0.0, -3.0, 0.0]);
        assert!((s.droops_per_kilocycle(2.3) - 2.0 * 1000.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn merge_pools_cycles_and_events() {
        let mut a = stats_with(&[0.0, -5.0, 0.0]);
        let b = stats_with(&[0.0, -5.0, 0.0]);
        a.merge_samples(&b);
        assert_eq!(a.cycles, 6);
        assert_eq!(a.emergencies(4.0), 2);
        assert_eq!(a.sensor.histogram().total(), 6);
    }

    #[test]
    fn empty_counters_stall_ratio_is_zero() {
        let s = stats_with(&[0.0]);
        assert_eq!(s.stall_ratio(), 0.0);
        assert_eq!(s.ipc(), 0.0);
    }
}

//! The sliding-window co-scheduling experiment (Sec. IV-B, Fig. 16).
//!
//! "One program, called Prog. X, is tied to Core 0. It runs
//! uninterrupted until program completion. During its execution, we
//! spawn a second program called Prog. Y onto Core 1. However, this
//! program is not allowed to run to completion. Instead, we prematurely
//! terminate its execution after 60 seconds. We immediately re-launch a
//! new instance. … In this way, we capture the interaction between the
//! first 60 seconds of program Prog. Y and all voltage noise phases
//! within Prog. X."

use crate::SchedError;
use vsmooth_chip::{Chip, ChipConfig, Fidelity, RunStats};
use vsmooth_uarch::{IdleLoop, StimulusSource};
use vsmooth_workload::{EventStream, PhaseTimeline, Workload};

/// Result of the sliding-window convolution of two programs.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    /// Program X (runs to completion on core 0).
    pub program_x: String,
    /// Program Y (its first interval restarts forever on core 1).
    pub program_y: String,
    /// X's single-core droop profile (droops per kilocycle per
    /// interval; core 1 idles) — Fig. 16b.
    pub single: Vec<f64>,
    /// The co-scheduled profile against the restarting Y — Fig. 16c.
    pub coscheduled: Vec<f64>,
}

impl SlidingWindow {
    /// Per-interval noise amplification: co-scheduled droops divided by
    /// the single-core profile.
    pub fn amplification(&self) -> Vec<f64> {
        self.single
            .iter()
            .zip(&self.coscheduled)
            .map(|(&s, &c)| c / s.max(1e-9))
            .collect()
    }

    /// Intervals where the phase alignment amplifies noise well beyond
    /// the quietest alignment this pair can achieve ("constructive
    /// interference, bad"). Classification is relative to the run's own
    /// alignment spread, mirroring how the paper reads Fig. 16c:
    /// constructive and destructive regions of the *same* co-schedule.
    pub fn constructive_intervals(&self) -> Vec<usize> {
        let amp = self.amplification();
        let lo = amp.iter().cloned().fold(f64::INFINITY, f64::min);
        amp.iter()
            .enumerate()
            .filter(|(_, &a)| a > 1.12 * lo)
            .map(|(i, _)| i)
            .collect()
    }

    /// Intervals near the quietest alignment — the co-scheduling the
    /// Droop policy wants ("destructive interference, good").
    pub fn destructive_intervals(&self) -> Vec<usize> {
        let amp = self.amplification();
        let lo = amp.iter().cloned().fold(f64::INFINITY, f64::min);
        amp.iter()
            .enumerate()
            .filter(|(_, &a)| a <= 1.05 * lo)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The first measurement interval of a workload, packaged as a
/// restartable stream (the paper's prematurely-terminated `Prog. Y`).
fn first_window_stream(w: &Workload, cycles_per_interval: u64, instance: u64) -> EventStream {
    let head = PhaseTimeline::flat(1, w.timeline().phases()[0].mix);
    let mut s = EventStream::new(
        format!("{}[0..60s]", w.name()),
        head,
        w.seed(instance) ^ 0x51ed_ee11,
        cycles_per_interval,
    );
    s.set_looping(true);
    s
}

/// Runs the sliding-window experiment for `(x, y)`.
///
/// # Errors
///
/// Propagates chip simulation errors.
pub fn sliding_window(
    cfg: &ChipConfig,
    x: &Workload,
    y: &Workload,
    fidelity: Fidelity,
) -> Result<SlidingWindow, SchedError> {
    let cpi = fidelity.cycles_per_interval();
    let total = u64::from(x.total_intervals()) * cpi;

    let single = {
        let mut chip = Chip::new(cfg.clone()).map_err(|e| wrap(x, y, e))?;
        let mut sx = x.stream(0, cpi);
        let mut idle = IdleLoop::default();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut sx, &mut idle];
        chip.run(&mut sources, total, cpi)
            .map_err(|e| wrap(x, y, e))?
    };

    let co = {
        let mut chip = Chip::new(cfg.clone()).map_err(|e| wrap(x, y, e))?;
        let mut sx = x.stream(0, cpi);
        let mut sy = first_window_stream(y, cpi, 1);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut sx, &mut sy];
        chip.run(&mut sources, total, cpi)
            .map_err(|e| wrap(x, y, e))?
    };

    Ok(SlidingWindow {
        program_x: x.name().to_string(),
        program_y: y.name().to_string(),
        single: profile(&single),
        coscheduled: profile(&co),
    })
}

fn profile(stats: &RunStats) -> Vec<f64> {
    stats.droops_per_interval.clone()
}

fn wrap(x: &Workload, y: &Workload, e: vsmooth_chip::ChipError) -> SchedError {
    SchedError::Measurement {
        pair: format!("{}<<{}", x.name(), y.name()),
        source: e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    /// Ratio of the worst to the best alignment — how much co-schedule
    /// phase placement matters for this pair.
    fn alignment_contrast(sw: &SlidingWindow) -> f64 {
        let amp = sw.amplification();
        let lo = amp.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = amp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if lo > 0.0 {
            hi / lo
        } else {
            1.0
        }
    }

    #[test]
    fn astar_self_coschedule_shows_both_interference_signs() {
        // Fig. 16: sliding astar over itself yields a region where the
        // co-scheduled noise is near single-core level (destructive) and
        // a region where it is far larger (constructive).
        let cfg = ChipConfig::core2_duo(DecapConfig::proc3());
        let astar = by_name("473.astar").unwrap();
        let sw = sliding_window(&cfg, &astar, &astar, Fidelity::Custom(20_000)).unwrap();
        assert_eq!(sw.single.len() as u32, astar.total_intervals());
        assert!(
            !sw.constructive_intervals().is_empty(),
            "expected constructive region: single={:?} co={:?}",
            sw.single,
            sw.coscheduled
        );
        assert!(
            !sw.destructive_intervals().is_empty(),
            "expected destructive region: single={:?} co={:?}",
            sw.single,
            sw.coscheduled
        );
        assert!(
            alignment_contrast(&sw) > 1.08,
            "phase alignment should matter: contrast {:.2}",
            alignment_contrast(&sw)
        );
    }

    #[test]
    fn single_core_profile_is_roughly_flat_for_astar() {
        // Fig. 16b: astar alone has "a relatively flat noise profile".
        let cfg = ChipConfig::core2_duo(DecapConfig::proc3());
        let astar = by_name("473.astar").unwrap();
        let sw = sliding_window(&cfg, &astar, &astar, Fidelity::Custom(20_000)).unwrap();
        let mean = sw.single.iter().sum::<f64>() / sw.single.len() as f64;
        assert!(mean > 0.0);
        for v in &sw.single {
            assert!(
                (*v - mean).abs() < 0.8 * mean,
                "astar single profile not flat: {:?}",
                sw.single
            );
        }
    }
}

//! Microbenchmark probes: single-core event swings (Fig. 12), the
//! cross-core interference matrix (Fig. 13), the TLB overshoot trace
//! (Fig. 11), and the empirical software-loop impedance reconstruction
//! that validates the PDN model (Fig. 4a methodology).

use crate::chip::{Chip, ChipConfig};
use crate::ChipError;
use vsmooth_uarch::{IdleLoop, Microbenchmark, SquareWave, StallEvent, StimulusSource};

/// Measurement window for probe runs, in cycles. Long enough for
/// cross-core phase drift to expose the worst-case alignment.
const PROBE_CYCLES: u64 = 150_000;

/// Peak-to-peak swing (percent of nominal) of an idling machine —
/// the baseline of every relative measurement in Figs. 12/13.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn idle_swing_pct(cfg: &ChipConfig) -> Result<f64, ChipError> {
    let mut chip = Chip::new(cfg.clone())?;
    let mut idles: Vec<IdleLoop> = (0..cfg.num_cores).map(|_| IdleLoop::default()).collect();
    let mut sources: Vec<&mut dyn StimulusSource> = idles
        .iter_mut()
        .map(|i| i as &mut dyn StimulusSource)
        .collect();
    Ok(chip
        .run(&mut sources, PROBE_CYCLES, PROBE_CYCLES)?
        .peak_to_peak_pct())
}

/// One bar of Fig. 12: single-core peak-to-peak swing for an event
/// microbenchmark, relative to the idling machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSwing {
    /// The stimulated event.
    pub event: StallEvent,
    /// Peak-to-peak swing relative to idle (idle ≡ 1.0).
    pub relative_swing: f64,
}

/// Reproduces Fig. 12: each microbenchmark runs alone on core 0 while
/// the remaining cores idle.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn single_core_event_swings(cfg: &ChipConfig) -> Result<Vec<EventSwing>, ChipError> {
    let idle = idle_swing_pct(cfg)?;
    StallEvent::ALL
        .iter()
        .map(|&event| {
            let mut chip = Chip::new(cfg.clone())?;
            let mut micro = Microbenchmark::new(event, 11);
            let mut idles: Vec<IdleLoop> =
                (1..cfg.num_cores).map(|_| IdleLoop::default()).collect();
            let mut sources: Vec<&mut dyn StimulusSource> = Vec::with_capacity(cfg.num_cores);
            sources.push(&mut micro);
            sources.extend(idles.iter_mut().map(|i| i as &mut dyn StimulusSource));
            let p2p = chip
                .run(&mut sources, PROBE_CYCLES, PROBE_CYCLES)?
                .peak_to_peak_pct();
            Ok(EventSwing {
                event,
                relative_swing: p2p / idle,
            })
        })
        .collect()
}

/// The Fig. 13 interference matrix: `matrix[i][j]` is the chip-wide
/// peak-to-peak swing (relative to idle) when core 0 runs the
/// microbenchmark for `StallEvent::ALL[i]` and core 1 the one for
/// `StallEvent::ALL[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceMatrix {
    /// Relative swings, indexed `[core0 event][core1 event]`.
    pub matrix: [[f64; 5]; 5],
    /// The idle baseline in percent of nominal.
    pub idle_swing_pct: f64,
}

impl InterferenceMatrix {
    /// The largest relative swing and its event pair.
    pub fn max(&self) -> (StallEvent, StallEvent, f64) {
        let mut best = (StallEvent::L1Miss, StallEvent::L1Miss, f64::NEG_INFINITY);
        for (i, &e0) in StallEvent::ALL.iter().enumerate() {
            for (j, &e1) in StallEvent::ALL.iter().enumerate() {
                if self.matrix[i][j] > best.2 {
                    best = (e0, e1, self.matrix[i][j]);
                }
            }
        }
        best
    }

    /// Relative swing for a specific pair.
    pub fn at(&self, core0: StallEvent, core1: StallEvent) -> f64 {
        self.matrix[core0 as usize][core1 as usize]
    }
}

/// Reproduces Fig. 13 by running every event pair across the two cores.
///
/// # Errors
///
/// Propagates chip construction/run errors; requires a two-core config.
pub fn interference_matrix(cfg: &ChipConfig) -> Result<InterferenceMatrix, ChipError> {
    if cfg.num_cores != 2 {
        return Err(ChipError::InvalidConfig(
            "interference matrix requires two cores",
        ));
    }
    let idle = idle_swing_pct(cfg)?;
    let mut matrix = [[0.0; 5]; 5];
    for (i, &e0) in StallEvent::ALL.iter().enumerate() {
        for (j, &e1) in StallEvent::ALL.iter().enumerate() {
            let mut chip = Chip::new(cfg.clone())?;
            // Distinct seeds: two independent programs never start
            // phase-locked.
            let mut m0 = Microbenchmark::new(e0, 101);
            let mut m1 = Microbenchmark::new(e1, 202);
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut m0, &mut m1];
            let p2p = chip
                .run(&mut sources, PROBE_CYCLES, PROBE_CYCLES)?
                .peak_to_peak_pct();
            matrix[i][j] = p2p / idle;
        }
    }
    Ok(InterferenceMatrix {
        matrix,
        idle_swing_pct: idle,
    })
}

/// Reproduces the Fig. 11 oscilloscope view: the raw voltage waveform
/// (volts) while one core loops on TLB misses. The VRM sawtooth is the
/// background; the recurring overshoot spikes are the TLB stalls.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn tlb_overshoot_trace(cfg: &ChipConfig, trace_cycles: u64) -> Result<Vec<f64>, ChipError> {
    let mut chip = Chip::new(cfg.clone())?;
    let mut micro = Microbenchmark::new(StallEvent::TlbMiss, 7);
    let mut idles: Vec<IdleLoop> = (1..cfg.num_cores).map(|_| IdleLoop::default()).collect();
    let mut sources: Vec<&mut dyn StimulusSource> = Vec::with_capacity(cfg.num_cores);
    sources.push(&mut micro);
    sources.extend(idles.iter_mut().map(|i| i as &mut dyn StimulusSource));
    let (_, trace) = chip.run_with_trace(&mut sources, trace_cycles, trace_cycles, trace_cycles)?;
    Ok(trace)
}

/// One point of the software-loop impedance reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalImpedancePoint {
    /// Modulation frequency of the current loop, in hertz.
    pub frequency_hz: f64,
    /// Estimated impedance (voltage p2p / current p2p), in ohms.
    pub impedance_ohms: f64,
}

/// Reconstructs the impedance profile with the paper's Sec. II-A
/// methodology: "a current-consuming software loop that runs on the
/// processor … By modulating execution activity through these paths,
/// the loop can control the current draw frequency."
///
/// The estimate is `ΔV_pp / ΔI_pp` at each modulation period; near
/// resonance the ringing makes it read slightly high, exactly as a real
/// scope measurement does.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn empirical_impedance(
    cfg: &ChipConfig,
    periods_cycles: &[u32],
) -> Result<Vec<EmpiricalImpedancePoint>, ChipError> {
    let core = cfg.core;
    let delta_intensity = 1.0 - 0.12; // the SquareWave::current_loop swing
    let delta_i = core.max_dynamic_current * delta_intensity;
    periods_cycles
        .iter()
        .map(|&period| {
            let mut chip = Chip::new(cfg.clone())?;
            let mut hi = SquareWave::current_loop(period);
            let mut idles: Vec<IdleLoop> =
                (1..cfg.num_cores).map(|_| IdleLoop::default()).collect();
            let mut sources: Vec<&mut dyn StimulusSource> = Vec::with_capacity(cfg.num_cores);
            sources.push(&mut hi);
            sources.extend(idles.iter_mut().map(|i| i as &mut dyn StimulusSource));
            let cycles = (u64::from(period) * 200).max(60_000);
            let stats = chip.run(&mut sources, cycles, cycles)?;
            let v_pp = stats.peak_to_peak_pct() / 100.0 * cfg.pdn.nominal_voltage();
            Ok(EmpiricalImpedancePoint {
                frequency_hz: cfg.clock_hz / f64::from(period),
                impedance_ohms: v_pp / delta_i,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;

    fn cfg() -> ChipConfig {
        ChipConfig::core2_duo(DecapConfig::proc100())
    }

    #[test]
    fn idle_swing_is_small_but_nonzero() {
        let idle = idle_swing_pct(&cfg()).unwrap();
        assert!(idle > 0.1 && idle < 1.5, "idle swing = {idle:.3}%");
    }

    #[test]
    fn branch_mispredictions_cause_largest_single_core_swing() {
        // Fig. 12: "branch mispredictions cause the largest amount of
        // voltage swing compared to other events … over 1.7 times".
        let swings = single_core_event_swings(&cfg()).unwrap();
        let br = swings
            .iter()
            .find(|s| s.event == StallEvent::BranchMispredict)
            .unwrap()
            .relative_swing;
        for s in &swings {
            assert!(
                s.relative_swing >= 1.0,
                "{}: {:.2}",
                s.event,
                s.relative_swing
            );
            if s.event != StallEvent::BranchMispredict {
                assert!(
                    br >= s.relative_swing,
                    "BR {br:.2} vs {} {:.2}",
                    s.event,
                    s.relative_swing
                );
            }
        }
        assert!((1.4..2.2).contains(&br), "BR relative swing = {br:.2}");
    }

    #[test]
    fn interference_peaks_at_exception_pair() {
        // Fig. 13: max 2.42x when both cores run EXCP; always larger
        // than the single-core maximum.
        let m = interference_matrix(&cfg()).unwrap();
        let (e0, e1, max) = m.max();
        // The paper's worst pair is EXCP/EXCP; which of the two resonant
        // events wins in the simulator is calibration-sensitive
        // (DESIGN.md §6), so accept either same-event resonance.
        assert_eq!(e0, e1, "max interference at {e0}/{e1} = {max:.2}");
        assert!(
            matches!(e0, StallEvent::Exception | StallEvent::BranchMispredict),
            "max interference at {e0}/{e1} = {max:.2}"
        );
        assert!((1.9..3.0).contains(&max), "{e0}/{e1} = {max:.2}");
        // Pairing the worst event with anything else is no louder.
        for &other in StallEvent::ALL.iter().filter(|&&e| e != e0) {
            assert!(m.at(e0, other) < max);
        }
    }

    #[test]
    fn multicore_interference_amplifies_single_core_noise() {
        let singles = single_core_event_swings(&cfg()).unwrap();
        let single_max = singles
            .iter()
            .map(|s| s.relative_swing)
            .fold(f64::NEG_INFINITY, f64::max);
        let m = interference_matrix(&cfg()).unwrap();
        let (_, _, pair_max) = m.max();
        // Sec. III-C reports a 42% increase (1.7 -> 2.42).
        let increase = pair_max / single_max;
        assert!(
            (1.2..1.8).contains(&increase),
            "multi-core amplification = {increase:.2} (single {single_max:.2}, pair {pair_max:.2})"
        );
    }

    #[test]
    fn tlb_trace_shows_recurring_overshoots() {
        // Fig. 11: recurring voltage spikes *above* the local baseline
        // (the loaded, IR-depressed mean with its VRM sawtooth).
        let c = cfg();
        let trace = tlb_overshoot_trace(&c, 20_000).unwrap();
        // The spikes are "embedded within" the VRM sawtooth (Fig. 11),
        // so detect them against a short moving-average baseline that
        // tracks the slow ripple but not the fast TLB transients.
        let win = 40usize;
        let mut spikes = 0;
        let mut above = false;
        for i in win..trace.len() {
            let baseline: f64 = trace[i - win..i].iter().sum::<f64>() / win as f64;
            if trace[i] > baseline + 0.6e-3 && !above {
                spikes += 1;
                above = true;
            } else if trace[i] < baseline + 0.2e-3 {
                above = false;
            }
        }
        // TLB microbenchmark period is 90 cycles => ~222 events in 20k
        // cycles; expect to see nearly one overshoot spike per event.
        assert!(
            spikes > 100,
            "expected recurring overshoot spikes, saw {spikes}"
        );
    }

    #[test]
    fn empirical_impedance_matches_analytic_shape() {
        let c = cfg();
        // Probe below, at, and above the ~120 MHz resonance.
        let points = empirical_impedance(&c, &[64, 16, 4]).unwrap();
        let z_low = points[0].impedance_ohms;
        let z_res = points[1].impedance_ohms;
        let z_high = points[2].impedance_ohms;
        assert!(
            z_res > z_low,
            "resonance {z_res:.2e} should exceed low-freq {z_low:.2e}"
        );
        assert!(
            z_res > z_high,
            "resonance {z_res:.2e} should exceed high-freq {z_high:.2e}"
        );
    }
}

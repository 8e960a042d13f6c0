//! Time-domain transient simulation at the PDN level (Figs. 5m–r, 6).
//!
//! The paper stimulates each decap-modified processor with a reset —
//! "turning off and on, the processor, causes a very sharp, large and
//! sudden change in current activity" — and records the die-voltage
//! droop on the scope. [`reset_response`] reproduces that stimulus and
//! [`decap_swing_sweep`] the Fig. 6 summary.

use crate::decap::DecapConfig;
use crate::ladder::LadderConfig;
use crate::PdnError;

/// Default core clock of the E6300 (1.86 GHz), used as the simulation
/// time step.
pub const CORE2_CLOCK_HZ: f64 = 1.86e9;

/// Result of a transient PDN simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Die voltage at every time step, in volts.
    pub samples: Vec<f64>,
    /// Time step in seconds.
    pub dt: f64,
}

impl TransientResult {
    /// Minimum die voltage over the run.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum die voltage over the run.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Peak-to-peak voltage swing in volts.
    pub fn peak_to_peak(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.max() - self.min()
        }
    }
}

/// Simulates the die voltage for an arbitrary per-cycle load-current
/// waveform, starting from the DC steady state of the first sample.
///
/// # Errors
///
/// Returns a ladder validation error, or [`PdnError::Singular`] if the
/// network has no DC operating point (cannot happen for valid ladders).
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::{simulate_current_waveform, DecapConfig, LadderConfig};
/// use vsmooth_pdn::transient::CORE2_CLOCK_HZ;
///
/// let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
/// // A 10 A load step.
/// let wave: Vec<f64> = (0..5_000).map(|c| if c < 100 { 5.0 } else { 15.0 }).collect();
/// let res = simulate_current_waveform(&cfg, &wave, 1.0 / CORE2_CLOCK_HZ)?;
/// assert!(res.peak_to_peak() > 0.0);
/// # Ok::<(), vsmooth_pdn::PdnError>(())
/// ```
pub fn simulate_current_waveform(
    cfg: &LadderConfig,
    current: &[f64],
    dt: f64,
) -> Result<TransientResult, PdnError> {
    let sys = cfg.state_space()?;
    let mut d = sys.discretize(dt).ok_or(PdnError::Singular)?;
    let vs = cfg.nominal_voltage();
    let i0 = current.first().copied().unwrap_or(0.0);
    let (x0, _) = sys.steady_state(&[vs, i0]).ok_or(PdnError::Singular)?;
    d.set_state(&x0);
    let mut samples = Vec::with_capacity(current.len());
    for &i in current {
        let y = d.step(&[vs, i]);
        samples.push(y[0]);
    }
    Ok(TransientResult { samples, dt })
}

/// The canonical reset stimulus: the machine idles, power is cut, then
/// boot activity surges. Durations are in clock cycles at
/// [`CORE2_CLOCK_HZ`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ResetStimulus {
    /// Idle current before the reset, in amperes.
    pub idle_current: f64,
    /// Cycles of idling before the reset edge.
    pub idle_cycles: usize,
    /// Cycles with the core completely gated (current ≈ 0).
    pub off_cycles: usize,
    /// Peak in-rush/boot current, in amperes.
    pub surge_current: f64,
    /// Cycles over which the surge ramps up.
    pub ramp_cycles: usize,
    /// Cycles the surge is held (long enough to capture the full droop).
    pub hold_cycles: usize,
}

impl Default for ResetStimulus {
    fn default() -> Self {
        Self {
            idle_current: 8.0,
            idle_cycles: 2_000,
            off_cycles: 400,
            surge_current: 32.0,
            ramp_cycles: 120,
            hold_cycles: 40_000,
        }
    }
}

impl ResetStimulus {
    /// Renders the stimulus as a per-cycle current waveform.
    pub(crate) fn waveform(&self) -> Vec<f64> {
        let mut w = Vec::with_capacity(
            self.idle_cycles + self.off_cycles + self.ramp_cycles + self.hold_cycles,
        );
        w.extend(std::iter::repeat_n(self.idle_current, self.idle_cycles));
        w.extend(std::iter::repeat_n(0.0, self.off_cycles));
        for k in 0..self.ramp_cycles {
            w.push(self.surge_current * (k + 1) as f64 / self.ramp_cycles as f64);
        }
        w.extend(std::iter::repeat_n(self.surge_current, self.hold_cycles));
        w
    }
}

/// Simulates the reset response of a Core 2 Duo package with the given
/// decap configuration (one panel of Figs. 5m–r).
///
/// # Errors
///
/// Propagates errors from [`simulate_current_waveform`].
pub fn reset_response(decap: DecapConfig) -> Result<TransientResult, PdnError> {
    let cfg = LadderConfig::core2_duo(decap);
    simulate_current_waveform(
        &cfg,
        &ResetStimulus::default().waveform(),
        1.0 / CORE2_CLOCK_HZ,
    )
}

/// One row of the Fig. 6 summary: peak-to-peak reset swing relative to
/// the unmodified Proc100 package.
#[derive(Debug, Clone, PartialEq)]
pub struct DecapSwing {
    /// The decap configuration.
    pub decap: DecapConfig,
    /// Absolute peak-to-peak swing in volts.
    pub peak_to_peak: f64,
    /// Swing relative to Proc100 (Proc100 ≡ 1.0).
    pub relative: f64,
}

/// Reproduces Fig. 6: reset-stimulus peak-to-peak swing across the
/// decap sweep, normalized to Proc100.
///
/// # Errors
///
/// Propagates errors from [`reset_response`].
pub fn decap_swing_sweep() -> Result<Vec<DecapSwing>, PdnError> {
    let base = reset_response(DecapConfig::proc100())?.peak_to_peak();
    DecapConfig::sweep()
        .into_iter()
        .map(|decap| {
            let p2p = reset_response(decap.clone())?.peak_to_peak();
            Ok(DecapSwing {
                decap,
                peak_to_peak: p2p,
                relative: p2p / base,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deepest droop of `res` below `reference`, in volts (positive).
    fn max_droop_below(res: &TransientResult, reference: f64) -> f64 {
        (reference - res.min()).max(0.0)
    }

    #[test]
    fn constant_current_has_negligible_swing() {
        let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
        let wave = vec![10.0; 5_000];
        let res = simulate_current_waveform(&cfg, &wave, 1.0 / CORE2_CLOCK_HZ).unwrap();
        assert!(res.peak_to_peak() < 1e-9, "p2p={}", res.peak_to_peak());
    }

    #[test]
    fn load_step_causes_droop_then_recovery() {
        let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
        let mut wave = vec![5.0; 500];
        wave.extend(vec![25.0; 60_000]);
        let res = simulate_current_waveform(&cfg, &wave, 1.0 / CORE2_CLOCK_HZ).unwrap();
        let vnom = cfg.nominal_voltage();
        // There is a visible droop...
        assert!(max_droop_below(&res, vnom) > 0.01);
        // ...and the voltage recovers toward the new DC point at the end.
        let dc = vnom - 25.0 * cfg.total_series_resistance();
        let settle = *res.samples.last().unwrap();
        assert!((settle - dc).abs() < 5e-3, "settle={settle} dc={dc}");
    }

    #[test]
    fn reset_droop_magnitude_is_plausible() {
        // Fig. 5m: Proc100 experiences a sharp ~150 mV droop.
        let res = reset_response(DecapConfig::proc100()).unwrap();
        let droop = max_droop_below(&res, crate::ladder::CORE2_NOMINAL_VOLTAGE);
        assert!(
            (0.05..0.40).contains(&droop),
            "Proc100 reset droop = {:.0} mV (expected on the order of 150 mV)",
            droop * 1e3
        );
    }

    #[test]
    fn decap_sweep_swings_grow_monotonically() {
        let sweep = decap_swing_sweep().unwrap();
        assert_eq!(sweep.len(), 6);
        assert!((sweep[0].relative - 1.0).abs() < 1e-9);
        for w in sweep.windows(2) {
            assert!(
                w[1].relative >= w[0].relative * 0.999,
                "{} ({}) should swing at least as much as {} ({})",
                w[1].decap,
                w[1].relative,
                w[0].decap,
                w[0].relative
            );
        }
    }

    #[test]
    fn sweep_reproduces_fig6_shape() {
        // Fig. 6 trend is "roughly the same as Fig. 1": the knee sits at
        // Proc25-Proc3 and the final point reaches ~2-3x.
        let sweep = decap_swing_sweep().unwrap();
        let rel = |p: u8| {
            sweep
                .iter()
                .find(|s| s.decap.percent_retained() == p)
                .map(|s| s.relative)
                .unwrap()
        };
        assert!((1.0..1.25).contains(&rel(75)), "Proc75 = {:.2}", rel(75));
        assert!((1.2..1.7).contains(&rel(25)) || (1.05..1.7).contains(&rel(50)));
        assert!((1.7..2.7).contains(&rel(3)), "Proc3 = {:.2}", rel(3));
        assert!((2.0..3.5).contains(&rel(0)), "Proc0 = {:.2}", rel(0));
    }

    #[test]
    fn reset_waveform_has_expected_shape() {
        let s = ResetStimulus::default();
        let w = s.waveform();
        assert_eq!(
            w.len(),
            s.idle_cycles + s.off_cycles + s.ramp_cycles + s.hold_cycles
        );
        assert_eq!(w[0], s.idle_current);
        assert_eq!(w[s.idle_cycles], 0.0);
        assert_eq!(*w.last().unwrap(), s.surge_current);
    }
}

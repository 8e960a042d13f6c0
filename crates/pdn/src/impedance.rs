//! Impedance-profile computation (Fig. 4).
//!
//! The impedance seen by the die is the magnitude of the transfer
//! function from load current to die voltage, `|∂V_die/∂I_load|(jω)`,
//! evaluated analytically from the ladder state space. The paper builds
//! the same curve empirically with a current-modulating software loop;
//! the chip simulator offers that path too (see `vsmooth-chip`), and the
//! two agree — which is exactly the validation argument of Sec. II-A.

use crate::ladder::LadderConfig;
use crate::PdnError;

/// One point of an impedance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpedancePoint {
    /// Frequency in hertz.
    pub frequency_hz: f64,
    /// Impedance magnitude in ohms.
    pub impedance_ohms: f64,
}

/// An impedance-vs-frequency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpedanceProfile {
    points: Vec<ImpedancePoint>,
}

impl ImpedanceProfile {
    /// Computes the profile of `cfg` over `[f_lo, f_hi]` hertz with
    /// `n` logarithmically spaced points.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidFrequencyRange`] unless
    /// `0 < f_lo < f_hi` and `n >= 2`, or a ladder validation error.
    pub fn compute(cfg: &LadderConfig, f_lo: f64, f_hi: f64, n: usize) -> Result<Self, PdnError> {
        if !(f_lo.is_finite() && f_hi.is_finite()) || f_lo <= 0.0 || f_hi <= f_lo || n < 2 {
            return Err(PdnError::InvalidFrequencyRange { lo: f_lo, hi: f_hi });
        }
        let sys = cfg.state_space()?;
        let log_lo = f_lo.ln();
        let log_hi = f_hi.ln();
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let f = (log_lo + (log_hi - log_lo) * i as f64 / (n - 1) as f64).exp();
            let omega = 2.0 * std::f64::consts::PI * f;
            // Input 1 is the load current; the response is a droop, so the
            // impedance is the magnitude of the (negative) gain.
            let g = sys.frequency_response(omega, 1).ok_or(PdnError::Singular)?;
            points.push(ImpedancePoint {
                frequency_hz: f,
                impedance_ohms: g[0].abs(),
            });
        }
        Ok(Self { points })
    }

    /// The computed `(frequency, |Z|)` points, ascending in frequency.
    pub fn points(&self) -> &[ImpedancePoint] {
        &self.points
    }

    /// The point of maximum impedance (the resonance peak).
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty (cannot be constructed empty via
    /// [`ImpedanceProfile::compute`]).
    pub fn peak(&self) -> ImpedancePoint {
        *self
            .points
            .iter()
            .max_by(|a, b| {
                a.impedance_ohms
                    .partial_cmp(&b.impedance_ohms)
                    .expect("finite")
            })
            .expect("impedance profile is never empty")
    }

    /// The resonance period in core clock cycles at `clock_hz`:
    /// `clock / f_peak`. This is the ringing period a scope capture of
    /// a droop shows (and what an autocorrelation over triggered
    /// windows estimates — see `vsmooth-profile`).
    pub fn resonance_period_cycles(&self, clock_hz: f64) -> f64 {
        clock_hz / self.peak().frequency_hz
    }

    /// Impedance magnitude at the sampled frequency closest to `f` hertz.
    pub fn at(&self, f: f64) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| {
                let da = (a.frequency_hz.ln() - f.ln()).abs();
                let db = (b.frequency_hz.ln() - f.ln()).abs();
                da.partial_cmp(&db).expect("finite")
            })
            .map(|p| p.impedance_ohms)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decap::DecapConfig;

    fn profile(decap: DecapConfig) -> ImpedanceProfile {
        let cfg = LadderConfig::core2_duo(decap);
        ImpedanceProfile::compute(&cfg, 1e5, 1e9, 240).unwrap()
    }

    #[test]
    fn resonance_peak_is_in_paper_band() {
        // Fig. 4a: "impedance peaks at around the resonance frequency of
        // 100MHz to 200MHz".
        let p = profile(DecapConfig::proc100()).peak();
        assert!(
            (8e7..2.5e8).contains(&p.frequency_hz),
            "peak at {:.3e} Hz (expected ~100-200 MHz)",
            p.frequency_hz
        );
    }

    #[test]
    fn peak_impedance_is_milliohm_scale() {
        let p = profile(DecapConfig::proc100()).peak();
        assert!(
            p.impedance_ohms > 1e-3 && p.impedance_ohms < 2e-2,
            "peak |Z| = {:.3e} ohms",
            p.impedance_ohms
        );
    }

    #[test]
    fn resonance_period_is_a_handful_of_cycles() {
        // At the paper's 1.86 GHz clock, a 100–200 MHz resonance rings
        // with a period around 9–19 cycles.
        let prof = profile(DecapConfig::proc100());
        let period = prof.resonance_period_cycles(1.86e9);
        assert!(
            (7.0..24.0).contains(&period),
            "resonance period {period:.1} cycles"
        );
    }

    #[test]
    fn removing_decaps_raises_low_frequency_impedance() {
        // Fig. 4b: ~5x higher around 1 MHz with reduced caps.
        let full = profile(DecapConfig::proc100());
        let cut = profile(DecapConfig::proc3());
        let ratio = cut.at(1e6) / full.at(1e6);
        assert!(
            ratio > 3.0,
            "1 MHz impedance ratio = {ratio:.2} (expected > 3x)"
        );
    }

    #[test]
    fn dc_impedance_equals_series_resistance() {
        let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
        let prof = ImpedanceProfile::compute(&cfg, 1e-2, 1e0, 8).unwrap();
        let z_dc = prof.points()[0].impedance_ohms;
        assert!(
            (z_dc - cfg.total_series_resistance()).abs() < 0.2e-3,
            "z_dc={z_dc:.2e}, sum R={:.2e}",
            cfg.total_series_resistance()
        );
    }

    #[test]
    fn invalid_range_is_rejected() {
        let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
        assert!(ImpedanceProfile::compute(&cfg, 1e6, 1e5, 10).is_err());
        assert!(ImpedanceProfile::compute(&cfg, 0.0, 1e6, 10).is_err());
        assert!(ImpedanceProfile::compute(&cfg, 1e5, 1e6, 1).is_err());
    }
}

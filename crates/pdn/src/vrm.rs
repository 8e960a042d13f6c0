//! Voltage-regulator-module switching ripple.
//!
//! Fig. 11 of the paper shows a "sawtooth-like waveform \[that\] is the
//! switching frequency of the voltage regulator module (VRM). This is
//! background activity" underneath the microbenchmark spikes. The chip
//! simulator superimposes this ripple on the VRM source voltage so that
//! an idle machine exhibits exactly this background swing.

/// A periodic triangular ripple on the regulator output.
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::VrmRipple;
///
/// let r = VrmRipple::core2_duo();
/// // Zero-mean over one period.
/// let period = r.period_cycles();
/// let mean: f64 = (0..period).map(|c| r.offset(c)).sum::<f64>() / period as f64;
/// assert!(mean.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrmRipple {
    amplitude: f64,
    period_cycles: u64,
}

impl VrmRipple {
    /// Creates a ripple with the given peak amplitude (volts) and period
    /// in core clock cycles.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative/non-finite or `period_cycles`
    /// is zero.
    pub fn new(amplitude: f64, period_cycles: u64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "ripple amplitude must be >= 0"
        );
        assert!(period_cycles > 0, "ripple period must be non-zero");
        Self {
            amplitude,
            period_cycles,
        }
    }

    /// Ripple of the E6300 platform's regulator: a few millivolts at an
    /// effective multi-phase switching rate near 1 MHz (≈ 1900 core
    /// cycles at 1.86 GHz).
    pub fn core2_duo() -> Self {
        Self::new(2.5e-3, 1_900)
    }

    /// A perfectly quiet regulator (useful for isolating load effects in
    /// tests and ablations).
    pub fn none() -> Self {
        Self {
            amplitude: 0.0,
            period_cycles: 1,
        }
    }

    /// Period in core clock cycles.
    pub fn period_cycles(&self) -> u64 {
        self.period_cycles
    }

    /// Zero-mean triangular offset at the given cycle, in volts.
    pub fn offset(&self, cycle: u64) -> f64 {
        if self.amplitude == 0.0 {
            return 0.0;
        }
        let phase = (cycle % self.period_cycles) as f64 / self.period_cycles as f64;
        // Triangle: ramp from -A to +A in the first half, back down in
        // the second half.
        let tri = if phase < 0.5 {
            4.0 * phase - 1.0
        } else {
            3.0 - 4.0 * phase
        };
        self.amplitude * tri
    }

    /// Peak-to-peak ripple in volts.
    pub fn peak_to_peak(&self) -> f64 {
        2.0 * self.amplitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_is_bounded_by_amplitude() {
        let r = VrmRipple::new(3e-3, 100);
        for c in 0..500 {
            assert!(r.offset(c).abs() <= r.amplitude + 1e-15);
        }
    }

    #[test]
    fn offset_is_periodic() {
        let r = VrmRipple::new(3e-3, 77);
        for c in 0..77 {
            assert_eq!(r.offset(c), r.offset(c + 77));
        }
    }

    #[test]
    fn none_is_flat() {
        let r = VrmRipple::none();
        assert_eq!(r.offset(12345), 0.0);
        assert_eq!(r.peak_to_peak(), 0.0);
    }

    #[test]
    fn triangle_hits_both_peaks() {
        let r = VrmRipple::new(1.0, 1000);
        let min = (0..1000).map(|c| r.offset(c)).fold(f64::INFINITY, f64::min);
        let max = (0..1000)
            .map(|c| r.offset(c))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min < -0.99 && max > 0.99, "min={min} max={max}");
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_panics() {
        VrmRipple::new(1e-3, 0);
    }
}

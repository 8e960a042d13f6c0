//! Online change-point detection: EWMA baseline + one-sided CUSUM.
//!
//! Each monitored signal gets its own [`CusumDetector`]. The detector
//! learns a baseline with an exponentially-weighted moving average,
//! then accumulates a one-sided CUSUM statistic of deviations beyond a
//! drift allowance. When the statistic crosses the threshold the
//! signal is *breached*; the statistic decays naturally once the
//! signal returns toward baseline, which is what gives alert rules
//! their hysteresis. Everything is plain f64 arithmetic over inputs in
//! coordinator order — no clocks, no randomness — so detector
//! decisions are byte-reproducible for any worker-thread count.

/// Which direction of change counts as anomalous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Signal rising above baseline is bad (droop rate, throttle).
    Up,
    /// Signal falling below baseline is bad (voltage margin).
    Down,
}

/// Tuning for one CUSUM detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumConfig {
    /// EWMA smoothing factor for the baseline, in (0, 1]. Higher
    /// adapts faster (and forgives slow regressions faster).
    pub alpha: f64,
    /// Slack subtracted from each deviation before it accumulates:
    /// deviations smaller than `drift` never raise the statistic.
    pub drift: f64,
    /// The statistic level at which the signal is declared breached.
    pub threshold: f64,
    /// Samples consumed to seed the baseline before any accumulation.
    pub warmup: usize,
    /// Whether rising or falling values are anomalous.
    pub direction: Direction,
}

impl CusumConfig {
    /// A detector for a rate-like signal that should stay near zero.
    pub fn rising(drift: f64, threshold: f64) -> Self {
        Self {
            alpha: 0.2,
            drift,
            threshold,
            warmup: 4,
            direction: Direction::Up,
        }
    }
}

/// Outcome of feeding one sample to a [`CusumDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CusumDecision {
    /// Current one-sided CUSUM statistic (0 when the signal is
    /// tracking its baseline).
    pub statistic: f64,
    /// Current EWMA baseline estimate.
    pub baseline: f64,
    /// True once `statistic` exceeds the configured threshold.
    pub breached: bool,
}

/// One-sided CUSUM change detector over an EWMA baseline.
#[derive(Debug, Clone)]
pub(crate) struct CusumDetector {
    cfg: CusumConfig,
    baseline: f64,
    samples: usize,
    s: f64,
}

impl CusumDetector {
    /// A detector in its warm-up state.
    pub(crate) fn new(cfg: CusumConfig) -> Self {
        Self {
            cfg,
            baseline: 0.0,
            samples: 0,
            s: 0.0,
        }
    }

    /// Feeds one sample and returns the updated decision.
    ///
    /// During warm-up the sample only trains the baseline. Afterwards
    /// the signed deviation (per [`Direction`]) beyond the drift
    /// allowance accumulates into the statistic, which is clamped to
    /// `[0, 4 * threshold]` so recovery time stays bounded. The
    /// baseline is frozen while the statistic is non-zero — otherwise
    /// a slow ramp would be absorbed into the baseline and never fire.
    pub(crate) fn update(&mut self, x: f64) -> CusumDecision {
        if self.samples < self.cfg.warmup {
            // Seed with a plain running mean: an EWMA from zero would
            // drag the early baseline toward zero regardless of data.
            self.baseline += (x - self.baseline) / (self.samples as f64 + 1.0);
            self.samples += 1;
            return CusumDecision {
                statistic: 0.0,
                baseline: self.baseline,
                breached: false,
            };
        }
        let dev = match self.cfg.direction {
            Direction::Up => x - self.baseline,
            Direction::Down => self.baseline - x,
        };
        self.s = (self.s + dev - self.cfg.drift).clamp(0.0, 4.0 * self.cfg.threshold);
        if self.s == 0.0 {
            self.baseline += self.cfg.alpha * (x - self.baseline);
        }
        CusumDecision {
            statistic: self.s,
            baseline: self.baseline,
            breached: self.s > self.cfg.threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_never_breaches_even_on_wild_input() {
        let mut d = CusumDetector::new(CusumConfig::rising(0.1, 1.0));
        for x in [0.0, 100.0, -50.0, 100.0] {
            assert!(!d.update(x).breached);
        }
    }

    #[test]
    fn stable_signal_stays_quiet() {
        let mut d = CusumDetector::new(CusumConfig::rising(0.2, 1.0));
        for _ in 0..50 {
            let dec = d.update(1.0);
            assert_eq!(dec.statistic, 0.0);
            assert!(!dec.breached);
        }
        // Baseline converged to the signal.
        assert!((d.baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn step_change_breaches_then_recovers() {
        let mut d = CusumDetector::new(CusumConfig::rising(0.1, 1.0));
        for _ in 0..10 {
            d.update(0.5);
        }
        // Step from 0.5 to 1.5: deviation 1.0, drift 0.1 → statistic
        // grows ~0.9 per sample and crosses threshold 1.0 on sample 2.
        assert!(!d.update(1.5).breached);
        assert!(d.update(1.5).breached);
        // Back to baseline: deviation 0, minus drift → decays. The
        // statistic is clamped at 4×threshold so recovery is bounded.
        let mut cleared = false;
        for _ in 0..60 {
            if !d.update(0.5).breached {
                cleared = true;
                break;
            }
        }
        assert!(cleared, "statistic never decayed below threshold");
    }

    #[test]
    fn baseline_freezes_while_accumulating() {
        let mut d = CusumDetector::new(CusumConfig::rising(0.0, 10.0));
        for _ in 0..10 {
            d.update(1.0);
        }
        let before = d.baseline;
        // A slow ramp keeps the statistic positive; the baseline must
        // not chase the ramp or the detector would never fire.
        for i in 0..20 {
            d.update(1.5 + i as f64 * 0.1);
        }
        assert_eq!(d.baseline, before);
    }

    #[test]
    fn falling_direction_fires_on_drops() {
        let falling = CusumConfig {
            direction: Direction::Down,
            ..CusumConfig::rising(0.1, 1.0)
        };
        let mut d = CusumDetector::new(falling);
        for _ in 0..10 {
            d.update(2.0);
        }
        // Deviation 1.5 minus drift 0.1 → statistic 1.4 > threshold.
        let dec = d.update(0.5);
        assert!(
            dec.breached,
            "statistic {} should exceed 1.0",
            dec.statistic
        );
        // Rising values are fine for a falling detector.
        let mut d2 = CusumDetector::new(falling);
        for _ in 0..10 {
            d2.update(2.0);
        }
        for _ in 0..20 {
            assert!(!d2.update(5.0).breached);
        }
    }

    #[test]
    fn statistic_is_clamped_to_four_thresholds() {
        let mut d = CusumDetector::new(CusumConfig::rising(0.0, 1.0));
        for _ in 0..10 {
            d.update(0.0);
        }
        for _ in 0..100 {
            d.update(50.0);
        }
        assert!(d.s <= 4.0 + 1e-12);
    }

    #[test]
    fn decisions_are_deterministic() {
        let feed = |vals: &[f64]| {
            let mut d = CusumDetector::new(CusumConfig::rising(0.05, 0.5));
            vals.iter().map(|&x| d.update(x)).collect::<Vec<_>>()
        };
        let vals: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        assert_eq!(feed(&vals), feed(&vals));
    }
}

//! The multi-core chip: cores on a shared power supply.
//!
//! "Individual cores within the processor typically share a single
//! power supply source. Therefore, a transient voltage droop anywhere
//! on the shared power grid could inadvertently affect all cores."
//! (Sec. III-C.) The chip sums per-core current draws into the PDN
//! model and senses the resulting die voltage every cycle.

use crate::fastpath::FastCache;
use crate::session::{self, MeasureState, ReferenceStep};
use crate::stats::RunStats;
use crate::ChipError;
use vsmooth_pdn::{DecapConfig, DiscreteStateSpace, LadderConfig, VrmRipple};
use vsmooth_uarch::{Core, CoreConfig, StimulusSource};

/// The VRM's DC regulation behaviour (Intel VRD 11.0-style remote
/// sensing with a load-line).
///
/// The regulator's control loop (bandwidth tens of kHz) trims the
/// source voltage so the *average* die voltage tracks
/// `V_nominal − offset − R_LL · I_avg`. Fast noise passes through
/// untouched; slow IR differences between workloads are largely
/// regulated out. This is why the paper can use one fixed 2.3 %
/// characterization margin across programs whose average power differs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrmRegulator {
    /// Static set-point offset below nominal, in volts.
    pub offset_volts: f64,
    /// Load-line slope in ohms (die mean falls this much per ampere).
    pub load_line_ohms: f64,
    /// Integral gain per cycle (sets the ~50 kHz loop bandwidth).
    pub gain: f64,
    /// EMA coefficient for the sensed average current.
    pub current_ema: f64,
}

impl VrmRegulator {
    /// The LGA775 VRD 11.0-like regulator of the paper's platform.
    pub(crate) fn vrd11() -> Self {
        Self {
            offset_volts: 17e-3,
            load_line_ohms: 0.40e-3,
            gain: 2e-4,
            current_ema: 2e-4,
        }
    }

    /// No DC regulation (source voltage fixed at nominal) — useful for
    /// ablations.
    pub fn none() -> Self {
        Self {
            offset_volts: 0.0,
            load_line_ohms: 0.0,
            gain: 0.0,
            current_ema: 1e-4,
        }
    }
}

/// Static chip configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// The power-delivery network.
    pub pdn: LadderConfig,
    /// Per-core parameters (homogeneous cores).
    pub core: CoreConfig,
    /// Number of cores sharing the supply.
    pub num_cores: usize,
    /// Regulator switching ripple superimposed on the source.
    pub ripple: VrmRipple,
    /// Regulator DC behaviour (load-line + slow trim loop).
    pub regulator: VrmRegulator,
    /// Core clock in hertz (sets the PDN discretization step).
    pub clock_hz: f64,
    /// Cycles simulated before measurement starts (settles the initial
    /// activity ramp so it is not recorded as an artificial droop).
    pub warmup_cycles: u64,
}

impl ChipConfig {
    /// The paper's platform: a two-core E6300 at 1.86 GHz with the
    /// given package-decap configuration.
    pub fn core2_duo(decap: DecapConfig) -> Self {
        Self {
            pdn: LadderConfig::core2_duo(decap),
            core: CoreConfig::core2_duo(),
            num_cores: 2,
            ripple: VrmRipple::core2_duo(),
            regulator: VrmRegulator::vrd11(),
            clock_hz: 1.86e9,
            warmup_cycles: 8_000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] for zero cores, a
    /// non-positive clock or a core parameter out of range
    /// ([`CoreConfig::validate`]).
    pub fn validate(&self) -> Result<(), ChipError> {
        if self.num_cores == 0 {
            return Err(ChipError::InvalidConfig("chip must have at least one core"));
        }
        if !self.clock_hz.is_finite() || self.clock_hz <= 0.0 {
            return Err(ChipError::InvalidConfig("clock must be positive"));
        }
        self.core.validate().map_err(ChipError::InvalidConfig)
    }
}

/// A simulated multi-core chip with shared PDN and per-cycle sensing.
///
/// # Examples
///
/// ```
/// use vsmooth_chip::{Chip, ChipConfig};
/// use vsmooth_pdn::DecapConfig;
/// use vsmooth_uarch::{IdleLoop, StimulusSource};
///
/// let mut chip = Chip::new(ChipConfig::core2_duo(DecapConfig::proc100()))?;
/// let mut idle0 = IdleLoop::default();
/// let mut idle1 = IdleLoop::default();
/// let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut idle0, &mut idle1];
/// let stats = chip.run(&mut sources, 20_000, 10_000)?;
/// // An idling machine only sees the VRM ripple: a sub-1% swing.
/// assert!(stats.peak_to_peak_pct() < 1.0);
/// # Ok::<(), vsmooth_chip::ChipError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Chip {
    // Fields are crate-visible so the fused step (`crate::fastpath`)
    // can mirror `step_cycle` with its state in locals.
    pub(crate) cfg: ChipConfig,
    pub(crate) cores: Vec<Core>,
    pub(crate) pdn: DiscreteStateSpace,
    pub(crate) cycle: u64,
    /// Trimmed source voltage (the regulator's integrator state).
    pub(crate) vs: f64,
    /// Slow EMA of total load current, as the regulator senses it.
    pub(crate) i_avg: f64,
    /// Last sensed die voltage (regulator feedback).
    pub(crate) last_v: f64,
}

impl Chip {
    /// Builds the chip and initializes the PDN at the idle operating
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] or a wrapped PDN error.
    pub fn new(cfg: ChipConfig) -> Result<Self, ChipError> {
        cfg.validate()?;
        let sys = cfg.pdn.state_space()?;
        let mut pdn = sys
            .discretize(1.0 / cfg.clock_hz)
            .ok_or(vsmooth_pdn::PdnError::Singular)?;
        let cores: Vec<Core> = (0..cfg.num_cores).map(|_| Core::new(cfg.core)).collect();
        let idle_current: f64 = cores.iter().map(Core::current).sum();
        // Start at the regulated operating point: the source voltage is
        // pre-trimmed so the die sits at the regulator's target for the
        // idle current (the slow loop then only corrects load changes).
        let vnom = cfg.pdn.nominal_voltage();
        let reg = cfg.regulator;
        let target = vnom - reg.offset_volts - reg.load_line_ohms * idle_current;
        let vs = if reg.gain > 0.0 {
            target + idle_current * cfg.pdn.total_series_resistance()
        } else {
            vnom
        };
        let (x0, y0) = sys
            .steady_state(&[vs, idle_current])
            .ok_or(vsmooth_pdn::PdnError::Singular)?;
        pdn.set_state(&x0);
        Ok(Self {
            cfg,
            cores,
            pdn,
            cycle: 0,
            vs,
            i_avg: idle_current,
            last_v: y0[0],
        })
    }

    /// The chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Nominal supply voltage.
    pub fn nominal_voltage(&self) -> f64 {
        self.cfg.pdn.nominal_voltage()
    }

    /// Advances one cycle with the given per-core stimuli; returns the
    /// sensed die voltage.
    ///
    /// The regulator ripple appears directly in the sensed waveform:
    /// the VRM's control loop imposes its sawtooth across the local
    /// capacitor bank, which is exactly the background waveform the
    /// paper's scope shows in Fig. 11 (injecting it at the remote source
    /// node would be low-pass filtered away by the bulk capacitance and
    /// never reach the die).
    pub(crate) fn step_cycle(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        warmup: bool,
        recovery: bool,
    ) -> f64 {
        let mut total = 0.0;
        for (core, src) in self.cores.iter_mut().zip(sources.iter_mut()) {
            // A rollback pauses the program: the stream is not advanced
            // and the core idle-gates while state is restored.
            let stimulus = if recovery {
                vsmooth_uarch::CycleStimulus::Idle
            } else {
                src.next()
            };
            total += core.tick(stimulus);
        }
        // Slow DC trim: the regulator walks the source voltage toward
        // its load-line target; fast transients pass through untouched.
        // During warm-up the loop is accelerated so measurement starts
        // from the settled operating point a long-running platform
        // would be at (the real loop has had minutes to converge).
        let reg = self.cfg.regulator;
        if reg.gain > 0.0 {
            let boost = if warmup { 50.0 } else { 1.0 };
            self.i_avg += (reg.current_ema * boost).min(0.05) * (total - self.i_avg);
            // Feed-forward trim: cancel the sensed average IR drop and
            // impose the load-line, leaving fast transients untouched.
            // (Open-loop in voltage, so unconditionally stable.)
            let vnom = self.nominal_voltage();
            let r_path = self.cfg.pdn.total_series_resistance();
            self.vs = (vnom - reg.offset_volts + self.i_avg * (r_path - reg.load_line_ohms))
                .clamp(vnom * 0.9, vnom * 1.1);
        }
        let v = self.pdn.step_first(&[self.vs, total]);
        self.last_v = v;
        let ripple = self.cfg.ripple.offset(self.cycle);
        self.cycle += 1;
        v + ripple
    }

    /// Runs `cycles` measured cycles (after the configured warm-up),
    /// collecting statistics with interval boundaries every
    /// `interval_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::SourceCountMismatch`] if the number of
    /// sources differs from the core count, or
    /// [`ChipError::InvalidConfig`] for a zero interval.
    pub fn run(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
    ) -> Result<RunStats, ChipError> {
        self.run_inner(sources, cycles, interval_cycles, None, None)
    }

    /// Like [`Chip::run`], but additionally captures the raw voltage
    /// waveform of the first `trace_cycles` measured cycles (the
    /// oscilloscope screenshot of Fig. 11).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::run`].
    pub(crate) fn run_with_trace(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        trace_cycles: u64,
    ) -> Result<(RunStats, Vec<f64>), ChipError> {
        let mut trace = Vec::with_capacity(trace_cycles.min(cycles) as usize);
        let stats = self.run_inner(
            sources,
            cycles,
            interval_cycles,
            Some((&mut trace, trace_cycles)),
            None,
        )?;
        Ok((stats, trace))
    }

    /// The one-shot measurement behind every `run*` entry point:
    /// warm-up, then `cycles` measured cycles with whatever `trace` and
    /// `hook` arm. Crossings, windows and the invariant checker are
    /// armed on a [`ChipSession`](crate::ChipSession) instead.
    pub(crate) fn run_inner(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        trace: Option<(&mut Vec<f64>, u64)>,
        hook: Option<&mut dyn FnMut(f64) -> crate::resilient::CycleControl>,
    ) -> Result<RunStats, ChipError> {
        self.check_sources(sources.len())?;
        if interval_cycles == 0 {
            return Err(ChipError::InvalidConfig("interval_cycles must be non-zero"));
        }
        // Chips the fused step covers warm up and measure on it, with
        // whatever `trace` and `hook` arm; the others run the reference
        // step.
        let mut state;
        match FastCache::build(self) {
            Some(cache) => {
                let [s0, s1] = sources else {
                    unreachable!("FastCache only accepts two-core chips")
                };
                cache.warm_up(self, || s0.next(), || s1.next());
                state = MeasureState::new(self, interval_cycles);
                cache.with_step(
                    self,
                    false,
                    || s0.next(),
                    || s1.next(),
                    |step| state.run::<true, _>(step, cycles, trace, hook),
                );
            }
            None => {
                self.warm_up(sources);
                state = MeasureState::new(self, interval_cycles);
                let mut step = ReferenceStep {
                    chip: self,
                    sources,
                    warmup: false,
                };
                state.run::<true, _>(&mut step, cycles, trace, hook);
            }
        }
        Ok(state.into_stats(self))
    }

    /// Whether this chip's measurements run on the fused step: two
    /// cores, an 8-state PDN with two inputs and a tabulable ripple
    /// period. Other chips measure on the reference step: the same bits
    /// at under half the speed.
    pub fn runs_fused(&self) -> bool {
        FastCache::build(self).is_some()
    }

    /// Validates that `count` stimulus sources match the core count.
    pub(crate) fn check_sources(&self, count: usize) -> Result<(), ChipError> {
        if count != self.cores.len() {
            return Err(ChipError::SourceCountMismatch {
                cores: self.cores.len(),
                sources: count,
            });
        }
        Ok(())
    }

    /// Runs the configured warm-up and resets the performance counters
    /// so measurement starts from the settled operating point.
    pub(crate) fn warm_up(&mut self, sources: &mut [&mut dyn StimulusSource]) {
        let cycles = self.cfg.warmup_cycles;
        let mut step = ReferenceStep {
            chip: self,
            sources,
            warmup: true,
        };
        session::warm_up(&mut step, cycles);
        self.reset_counters();
    }

    /// Zeroes every core's performance counters.
    pub(crate) fn reset_counters(&mut self) {
        for core in &mut self.cores {
            core.reset_counters();
        }
    }

    /// The most recently sensed die voltage.
    pub(crate) fn last_sensed(&self) -> f64 {
        self.last_v
    }

    /// Snapshot of every core's performance counters.
    pub fn core_counters(&self) -> Vec<vsmooth_uarch::PerfCounters> {
        self.cores.iter().map(|c| *c.counters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_uarch::{FixedIntensity, IdleLoop, Microbenchmark, SquareWave, StallEvent};

    fn chip() -> Chip {
        Chip::new(ChipConfig::core2_duo(DecapConfig::proc100())).unwrap()
    }

    #[test]
    fn idle_machine_sees_only_ripple() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let stats = c.run(&mut s, 40_000, 20_000).unwrap();
        let ripple_pct = 100.0 * c.cfg.ripple.peak_to_peak() / c.nominal_voltage();
        assert!(stats.peak_to_peak_pct() > 0.5 * ripple_pct);
        assert!(stats.peak_to_peak_pct() < 3.0 * ripple_pct);
        assert_eq!(
            stats.emergencies(2.3),
            0,
            "idle machine must not droop past 2.3%"
        );
    }

    #[test]
    fn source_count_mismatch_is_rejected() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a];
        assert!(matches!(
            c.run(&mut s, 100, 100),
            Err(ChipError::SourceCountMismatch {
                cores: 2,
                sources: 1
            })
        ));
    }

    #[test]
    fn microbenchmark_swings_exceed_idle() {
        let mut c1 = chip();
        let mut idle0 = IdleLoop::default();
        let mut idle1 = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut idle0, &mut idle1];
        let idle = c1.run(&mut s, 60_000, 60_000).unwrap().peak_to_peak_pct();

        let mut c2 = chip();
        let mut micro = Microbenchmark::new(StallEvent::BranchMispredict, 1);
        let mut idle2 = IdleLoop::default();
        let mut s2: Vec<&mut dyn StimulusSource> = vec![&mut micro, &mut idle2];
        let br = c2.run(&mut s2, 60_000, 60_000).unwrap().peak_to_peak_pct();
        assert!(br > 1.3 * idle, "BR swing {br:.3}% vs idle {idle:.3}%");
    }

    #[test]
    fn power_virus_droops_deeper_than_steady_execution() {
        let mut c1 = chip();
        let mut f0 = FixedIntensity::new(1.0);
        let mut f1 = FixedIntensity::new(1.0);
        let mut s1: Vec<&mut dyn StimulusSource> = vec![&mut f0, &mut f1];
        let steady = c1.run(&mut s1, 60_000, 60_000).unwrap();

        let mut c2 = chip();
        let mut v0 = SquareWave::power_virus();
        let mut v1 = SquareWave::power_virus();
        let mut s2: Vec<&mut dyn StimulusSource> = vec![&mut v0, &mut v1];
        let virus = c2.run(&mut s2, 60_000, 60_000).unwrap();
        assert!(
            virus.max_droop_pct() > steady.max_droop_pct() + 1.0,
            "virus {:.2}% vs steady {:.2}%",
            virus.max_droop_pct(),
            steady.max_droop_pct()
        );
    }

    #[test]
    fn interval_timeline_has_expected_length() {
        let mut c = chip();
        let mut a = FixedIntensity::new(0.8);
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let stats = c.run(&mut s, 50_000, 10_000).unwrap();
        assert_eq!(stats.droops_per_interval.len(), 5);
    }

    #[test]
    fn trace_captures_requested_cycles() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let (_, trace) = c.run_with_trace(&mut s, 10_000, 10_000, 2_500).unwrap();
        assert_eq!(trace.len(), 2_500);
        // All samples near nominal voltage.
        assert!(trace.iter().all(|&v| (v - c.nominal_voltage()).abs() < 0.1));
    }

    #[test]
    fn zero_interval_is_rejected() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        assert!(c.run(&mut s, 100, 0).is_err());
    }

    #[test]
    fn invalid_chip_configs_are_rejected() {
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.num_cores = 0;
        assert!(Chip::new(cfg).is_err());
        let mut cfg2 = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg2.clock_hz = -1.0;
        assert!(Chip::new(cfg2).is_err());
        // A core parameter out of range is a typed error too, for a
        // chip and for the batch every campaign and fleet run builds.
        let mut cfg3 = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg3.core.peak_ipc = 0.0;
        assert!(matches!(
            Chip::new(cfg3.clone()),
            Err(ChipError::InvalidConfig(_))
        ));
        assert!(matches!(
            crate::ChipBatch::new(cfg3),
            Err(ChipError::InvalidConfig(_))
        ));
    }
}

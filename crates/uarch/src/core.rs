//! Per-cycle core activity and current-draw model.
//!
//! The core is a small state machine: **running** (activity tracks the
//! workload's intensity), **stalled** (clock gating pulls activity down
//! toward the event's gate floor — current falls, die voltage
//! overshoots), and **surging** (the post-stall refill burst pushes
//! activity above steady state — current jumps, die voltage droops).
//! Per-cycle current is an affine function of activity, calibrated to
//! the E6300's power envelope.

use crate::counters::PerfCounters;
use crate::event::{EventProfile, StallEvent};
use serde::{Deserialize, Serialize};

/// What the running software asks of the core this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CycleStimulus {
    /// Normal execution at the given intensity (0..≈1.5): the fraction
    /// of peak issue activity the instruction mix sustains.
    Active {
        /// Activity/issue intensity; 1.0 is a fully busy pipeline.
        intensity: f64,
    },
    /// The OS idle loop.
    Idle,
    /// A stall event fires this cycle (and execution resumes at the
    /// given intensity afterwards).
    Event {
        /// Which stall class fired.
        event: StallEvent,
        /// How much of the event's full drain/refill current signature
        /// applies (0..1]. Real workloads drain and refill a whole
        /// out-of-order window (1.0); a hand-crafted serialized
        /// microbenchmark loop keeps only one miss in flight and swings
        /// far less (see [`crate::Microbenchmark`]).
        weight: f64,
    },
}

impl CycleStimulus {
    /// A full-weight stall event (the common case for real workloads).
    pub fn event(event: StallEvent) -> Self {
        Self::Event { event, weight: 1.0 }
    }
}

/// Static core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Leakage plus always-on clock-tree current, in amperes.
    pub leakage_current: f64,
    /// Additional current at activity 1.0, in amperes.
    pub max_dynamic_current: f64,
    /// Activity of the OS idle loop (halted most of the time).
    pub idle_activity: f64,
    /// Committed instructions per cycle at intensity 1.0.
    pub peak_ipc: f64,
    /// Per-cycle tracking rate toward the activity target while running
    /// (pipelines ramp in a few cycles).
    pub ramp_rate: f64,
}

impl CoreConfig {
    /// One core of the Core 2 Duo E6300. The E6300 draws well under its
    /// 65 W TDP in practice (~30 W loaded at 1.325 V ⇒ ≈ 11 A/core);
    /// only part of that is gateable switching current — caches, clock
    /// distribution and the front end keep toggling through stalls,
    /// which is why single-event voltage spikes in Fig. 11 are on the
    /// same few-millivolt scale as the regulator ripple.
    pub fn core2_duo() -> Self {
        Self {
            leakage_current: 4.0,
            max_dynamic_current: 9.0,
            idle_activity: 0.07,
            peak_ipc: 2.4,
            ramp_rate: 0.35,
        }
    }

    /// Checks every parameter against its range: finite non-negative
    /// leakage, finite positive dynamic current, idle activity in
    /// `[0, 1)`, positive peak IPC and a ramp rate in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Names the first parameter out of range.
    pub fn validate(&self) -> Result<(), &'static str> {
        let ranges = [
            (
                self.leakage_current >= 0.0 && self.leakage_current.is_finite(),
                "leakage current must be finite and non-negative",
            ),
            (
                self.max_dynamic_current > 0.0 && self.max_dynamic_current.is_finite(),
                "dynamic current must be finite and positive",
            ),
            (
                (0.0..1.0).contains(&self.idle_activity),
                "idle activity must lie in [0, 1)",
            ),
            (self.peak_ipc > 0.0, "peak IPC must be positive"),
            (
                self.ramp_rate > 0.0 && self.ramp_rate <= 1.0,
                "ramp rate must lie in (0, 1]",
            ),
        ];
        match ranges.into_iter().find(|&(ok, _)| !ok) {
            Some((_, msg)) => Err(msg),
            None => Ok(()),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or out-of-range parameters (see
    /// [`CoreConfig::validate`]).
    pub fn assert_valid(&self) {
        if let Err(msg) = self.validate() {
            panic!("invalid core configuration: {msg}");
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::core2_duo()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum CoreState {
    Running,
    Stalled {
        remaining: u32,
        profile: EventProfile,
        resume_intensity: f64,
    },
    Surging {
        remaining: u32,
        profile: EventProfile,
        resume_intensity: f64,
    },
}

/// A single core: per-cycle activity dynamics, current draw and
/// performance counters.
///
/// # Examples
///
/// ```
/// use vsmooth_uarch::{Core, CoreConfig, CycleStimulus, StallEvent};
///
/// let mut core = Core::new(CoreConfig::core2_duo());
/// // Run flat out for a while...
/// for _ in 0..100 {
///     core.tick(CycleStimulus::Active { intensity: 1.0 });
/// }
/// let busy = core.current();
/// // ...then take an L2 miss: within a few cycles current falls.
/// core.tick(CycleStimulus::event(StallEvent::L2Miss));
/// for _ in 0..40 {
///     core.tick(CycleStimulus::Active { intensity: 1.0 });
/// }
/// assert!(core.current() < busy);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Core {
    cfg: CoreConfig,
    state: CoreState,
    activity: f64,
    counters: PerfCounters,
}

impl Core {
    /// Creates a core in the idle state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`CoreConfig::assert_valid`]).
    pub fn new(cfg: CoreConfig) -> Self {
        cfg.assert_valid();
        Self {
            cfg,
            state: CoreState::Running,
            activity: cfg.idle_activity,
            counters: PerfCounters::new(),
        }
    }

    /// Core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Instantaneous activity level (0..≈1.6 during surges).
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Instantaneous current draw in amperes.
    pub fn current(&self) -> f64 {
        self.cfg.leakage_current + self.cfg.max_dynamic_current * self.activity
    }

    /// Performance counters accumulated so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Resets the counters (e.g. at an interval boundary) without
    /// disturbing the electrical state.
    pub fn reset_counters(&mut self) {
        self.counters = PerfCounters::new();
    }

    /// Advances one clock cycle under `stimulus`; returns the current
    /// draw (amperes) for this cycle.
    pub fn tick(&mut self, stimulus: CycleStimulus) -> f64 {
        match self.state {
            CoreState::Stalled {
                remaining,
                profile,
                resume_intensity,
            } => {
                // Clock gating: decay toward the event's retained
                // fraction of the interrupted activity level.
                let floor = profile.retain_frac * resume_intensity;
                self.activity += profile.gate_rate * (floor - self.activity);
                self.counters.on_cycle(true, 0.0);
                self.state = if remaining > 1 {
                    CoreState::Stalled {
                        remaining: remaining - 1,
                        profile,
                        resume_intensity,
                    }
                } else {
                    CoreState::Surging {
                        remaining: profile.surge_cycles,
                        profile,
                        resume_intensity,
                    }
                };
            }
            CoreState::Surging {
                remaining,
                profile,
                resume_intensity,
            } => {
                // Refill burst: the piled-up window issues at full width
                // no matter how lazy the average instruction stream is,
                // so the burst target has an absolute floor. This is why
                // memory-bound code droops on every miss *return* even
                // though its average activity is low.
                let target =
                    (profile.surge_gain * resume_intensity.max(profile.surge_floor)).min(1.6);
                self.activity += 0.75 * (target - self.activity);
                self.counters
                    .on_cycle(false, self.cfg.peak_ipc * resume_intensity);
                self.state = if remaining > 1 {
                    CoreState::Surging {
                        remaining: remaining - 1,
                        profile,
                        resume_intensity,
                    }
                } else {
                    CoreState::Running
                };
            }
            CoreState::Running => match stimulus {
                CycleStimulus::Active { intensity } => {
                    let intensity = intensity.clamp(0.0, 1.5);
                    self.activity += self.cfg.ramp_rate * (intensity - self.activity);
                    self.counters.on_cycle(false, self.cfg.peak_ipc * intensity);
                }
                CycleStimulus::Idle => {
                    self.activity += self.cfg.ramp_rate * (self.cfg.idle_activity - self.activity);
                    self.counters.on_cycle(false, 0.0);
                }
                CycleStimulus::Event { event, weight } => {
                    let profile = event.profile().weighted(weight);
                    self.counters.on_event(event);
                    self.counters.on_cycle(true, 0.0);
                    // The intensity to resume at: the current activity is
                    // the best estimate of the interrupted steady state.
                    let resume = self.activity.clamp(self.cfg.idle_activity, 1.2);
                    let floor = profile.retain_frac * resume;
                    self.activity += profile.gate_rate * (floor - self.activity);
                    self.state = CoreState::Stalled {
                        remaining: profile.stall_cycles.saturating_sub(1).max(1),
                        profile,
                        resume_intensity: resume,
                    };
                }
            },
        }
        self.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run(core: &mut Core, n: usize, s: CycleStimulus) {
        for _ in 0..n {
            core.tick(s);
        }
    }

    #[test]
    fn activity_converges_to_intensity() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 200, CycleStimulus::Active { intensity: 0.8 });
        assert!((core.activity() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn idle_current_is_low() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 200, CycleStimulus::Idle);
        let idle = core.current();
        run(&mut core, 200, CycleStimulus::Active { intensity: 1.0 });
        assert!(
            core.current() > 2.0 * idle,
            "busy {} vs idle {}",
            core.current(),
            idle
        );
    }

    #[test]
    fn stall_drops_current_then_surge_overshoots() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 200, CycleStimulus::Active { intensity: 0.9 });
        let steady = core.current();
        core.tick(CycleStimulus::event(StallEvent::Exception));
        let mut min_i = f64::INFINITY;
        let mut max_i: f64 = 0.0;
        // Drive through the whole stall + surge.
        for _ in 0..200 {
            let i = core.tick(CycleStimulus::Active { intensity: 0.9 });
            min_i = min_i.min(i);
            max_i = max_i.max(i);
        }
        // Exceptions retain ~95% of activity while gated and surge ~2%
        // above steady afterwards; current moves a few percent — the
        // scale of a real production core (Fig. 11/12).
        assert!(
            min_i < 0.975 * steady,
            "gated current {min_i} vs steady {steady}"
        );
        assert!(
            max_i > 1.008 * steady,
            "surge current {max_i} vs steady {steady}"
        );
    }

    #[test]
    fn branch_flush_reaches_its_gate_floor_within_two_cycles() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 200, CycleStimulus::Active { intensity: 1.0 });
        core.tick(CycleStimulus::event(StallEvent::BranchMispredict));
        core.tick(CycleStimulus::Active { intensity: 1.0 });
        let floor = StallEvent::BranchMispredict.profile().retain_frac;
        assert!(
            (core.activity() - floor).abs() < 0.02,
            "activity after flush = {} (floor {floor})",
            core.activity()
        );
    }

    #[test]
    fn stall_cycles_are_counted() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 100, CycleStimulus::Active { intensity: 1.0 });
        core.tick(CycleStimulus::event(StallEvent::L2Miss));
        run(&mut core, 300, CycleStimulus::Active { intensity: 1.0 });
        let c = core.counters();
        let expected_stall = u64::from(StallEvent::L2Miss.profile().stall_cycles);
        assert_eq!(c.stall_cycles(), expected_stall);
        assert_eq!(c.event_count(StallEvent::L2Miss), 1);
        assert_eq!(c.cycles(), 401);
    }

    #[test]
    fn events_during_stall_are_ignored() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 50, CycleStimulus::Active { intensity: 1.0 });
        core.tick(CycleStimulus::event(StallEvent::L2Miss));
        // Attempt to fire more events mid-stall; they must not extend it.
        for _ in 0..10 {
            core.tick(CycleStimulus::event(StallEvent::L2Miss));
        }
        assert_eq!(core.counters().event_count(StallEvent::L2Miss), 1);
    }

    #[test]
    fn ipc_reflects_intensity() {
        let mut core = Core::new(CoreConfig::core2_duo());
        run(&mut core, 1000, CycleStimulus::Active { intensity: 0.5 });
        let ipc = core.counters().ipc();
        assert!((ipc - 0.5 * core.config().peak_ipc).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn current_is_always_bounded(
            seq in proptest::collection::vec(0u8..7, 1..500),
        ) {
            let cfg = CoreConfig::core2_duo();
            let mut core = Core::new(cfg);
            let max_i = cfg.leakage_current + cfg.max_dynamic_current * 1.6;
            for s in seq {
                let stim = match s {
                    0 => CycleStimulus::Idle,
                    1 => CycleStimulus::Active { intensity: 0.3 },
                    2 => CycleStimulus::Active { intensity: 1.0 },
                    3 => CycleStimulus::event(StallEvent::L1Miss),
                    4 => CycleStimulus::event(StallEvent::BranchMispredict),
                    5 => CycleStimulus::event(StallEvent::Exception),
                    _ => CycleStimulus::event(StallEvent::TlbMiss),
                };
                let i = core.tick(stim);
                prop_assert!(i >= 0.0 && i <= max_i, "current {i} out of bounds");
                prop_assert!(core.activity() >= 0.0 && core.activity() <= 1.6);
            }
        }
    }
}

//! Incremental chip execution: run a measurement in interval-sized
//! slices instead of one shot.
//!
//! [`Chip::run`] simulates a whole measurement in a single call, which
//! is the right shape for the paper's offline characterization
//! campaigns. A scheduling *service* needs something else: it must
//! interleave simulation with decisions — run every chip for one
//! interval, look at the telemetry, re-pair jobs, repeat. A
//! [`ChipSession`] owns a warmed-up [`Chip`] plus the accumulated
//! measurement state (voltage sensor, droop/overshoot grids, interval
//! timeline) and exposes [`ChipSession::run_slice`]; the final
//! [`RunStats`] is identical in structure to what a one-shot run
//! produces over the same cycles.
//!
//! Sessions are also where captures live: droop crossings
//! ([`ChipSession::capture_droops`]), waveform windows
//! ([`ChipSession::enable_profiling`]) and the invariant checker
//! ([`ChipSession::enable_invariants`]) are armed on a session and
//! drained slice by slice, as the serving shards do. A one-shot run
//! observes only what its production callers read: the Fig. 11 trace
//! ([`Chip::run_with_trace`]) and the rollback hook
//! ([`Chip::run_resilient`]).
//!
//! This module also holds the crate's one measurement loop
//! (`MeasureState::run`) and one warm-up loop, generic over the physics
//! step: the reference step (`Chip::step_cycle`, the oracle) or the
//! fused step (`crate::fastpath`), which computes the same bits. Every
//! observer rides the one loop, so each sees the same cycles on either.

use crate::chip::Chip;
use crate::invariant::{InvariantConfig, InvariantReport, InvariantState, InvariantViolation};
use crate::resilient::CycleControl;
use crate::sense::{CrossingGrid, VoltageSensor};
use crate::stats::{RunStats, PHASE_MARGIN_PCT};
use crate::window::{DroopWindow, WindowCapture, WindowConfig};
use crate::ChipError;
use vsmooth_uarch::{Core, PerfCounters, StimulusSource};

/// One cycle of chip physics: stimulus, core ticks, regulator trim, PDN
/// step and ripple. The measurement and warm-up loops drive every chip
/// through this.
pub(crate) trait PhysicsStep {
    /// Advances one cycle and returns the sensed die voltage. Under
    /// `recovery` the program pauses: no source is advanced and every
    /// core idle-gates.
    fn step(&mut self, recovery: bool) -> f64;

    /// The chip's cores as of the latest step.
    fn cores(&self) -> &[Core];
}

/// The reference step, [`Chip::step_cycle`] over `dyn` sources: the
/// oracle the fused step is held to.
pub(crate) struct ReferenceStep<'c, 's, 'a> {
    pub(crate) chip: &'c mut Chip,
    pub(crate) sources: &'s mut [&'a mut dyn StimulusSource],
    /// Whether the regulator runs its accelerated warm-up loop.
    pub(crate) warmup: bool,
}

impl PhysicsStep for ReferenceStep<'_, '_, '_> {
    fn step(&mut self, recovery: bool) -> f64 {
        self.chip.step_cycle(self.sources, self.warmup, recovery)
    }

    fn cores(&self) -> &[Core] {
        &self.chip.cores
    }
}

/// Runs `cycles` warm-up cycles on `step`, which the caller built in
/// warm-up mode; the sensed voltages are discarded.
pub(crate) fn warm_up(step: &mut impl PhysicsStep, cycles: u64) {
    for _ in 0..cycles {
        step.step(false);
    }
}

/// One margin-crossing droop event captured during a measurement.
///
/// A crossing begins the cycle the sensed voltage first dips at least
/// `margin_pct` below nominal and ends when it recovers above the
/// margin; consecutive below-margin cycles belong to the same event
/// (matching how [`CrossingGrid`] counts entries, though the capture
/// compares against the exact margin rather than the grid's quantized
/// thresholds).
#[derive(Debug, Clone, PartialEq)]
pub struct DroopCrossing {
    /// Session-absolute measured cycle (0-based) at which the voltage
    /// first crossed below the margin.
    pub cycle: u64,
    /// Deepest excursion of this event, percent below nominal.
    pub depth_pct: f64,
}

/// Active droop-event capture: margin, hysteresis state, event log.
#[derive(Debug, Clone)]
struct DroopCapture {
    margin_pct: f64,
    below: bool,
    events: Vec<DroopCrossing>,
}

impl DroopCapture {
    /// Feeds one measured cycle's deviation; returns whether a new
    /// crossing starts on it.
    #[inline]
    fn observe(&mut self, cycle: u64, dev: f64) -> bool {
        let depth = -dev;
        if depth >= self.margin_pct {
            if self.below {
                // Still inside the same event: track its floor.
                if let Some(last) = self.events.last_mut() {
                    last.depth_pct = last.depth_pct.max(depth);
                }
            } else {
                self.below = true;
                self.events.push(DroopCrossing {
                    cycle,
                    depth_pct: depth,
                });
                return true;
            }
        } else {
            self.below = false;
        }
        false
    }
}

/// Accumulated measurement state shared by one-shot runs and sessions;
/// only a [`ChipSession`] arms and drains its capture and checker slots.
#[derive(Debug, Clone)]
pub(crate) struct MeasureState {
    sensor: VoltageSensor,
    droops: CrossingGrid,
    overshoots: CrossingGrid,
    droops_per_interval: Vec<f64>,
    interval_cycles: u64,
    interval_start_events: u64,
    measured_cycles: u64,
    last_sensed: f64,
    capture: Option<DroopCapture>,
    window: Option<WindowCapture>,
    invariants: Option<InvariantState>,
}

impl MeasureState {
    /// Fresh state for a warmed-up chip. `interval_cycles` must be
    /// non-zero (validated by the caller).
    pub(crate) fn new(chip: &Chip, interval_cycles: u64) -> Self {
        Self {
            sensor: VoltageSensor::new(chip.nominal_voltage()),
            droops: CrossingGrid::droop_grid(),
            overshoots: CrossingGrid::overshoot_grid(),
            droops_per_interval: Vec::new(),
            interval_cycles,
            interval_start_events: 0,
            measured_cycles: 0,
            last_sensed: chip.last_sensed(),
            capture: None,
            window: None,
            invariants: None,
        }
    }

    /// The measurement loop: advances `step` by `cycles` measured cycles,
    /// feeding per cycle the rollback `hook` (with the previous sensed
    /// voltage), the step, the sensor, both grids, crossing and window
    /// capture, the invariant checker and the raw `trace` (its first
    /// `limit` cycles), and the interval timeline at every interval
    /// boundary, wherever in an interval the slice starts and ends.
    /// Lean (`!FULL`) skips the sensor and the overshoot grid, computing
    /// the deviation as the sensor does. Returns the per-slice summary.
    // Inlined into each caller, so a fused step's state can stay in
    // registers across the loop instead of behind `step`.
    #[inline(always)]
    pub(crate) fn run<const FULL: bool, P: PhysicsStep>(
        &mut self,
        step: &mut P,
        cycles: u64,
        mut trace: Option<(&mut Vec<f64>, u64)>,
        mut hook: Option<&mut dyn FnMut(f64) -> CycleControl>,
    ) -> SliceStats {
        let Self {
            sensor,
            droops,
            overshoots,
            droops_per_interval,
            interval_cycles,
            interval_start_events,
            measured_cycles,
            last_sensed,
            capture,
            window,
            invariants,
        } = self;
        let interval = *interval_cycles;
        let droops_before = droops.events_at(PHASE_MARGIN_PCT);
        let counters_before: Vec<PerfCounters> =
            step.cores().iter().map(|c| *c.counters()).collect();
        let nominal = sensor.nominal();
        let first = *measured_cycles;
        let mut mc = first;
        let mut sensed = *last_sensed;
        let mut capture = capture.as_mut();
        // Windows, invariants and traces are rarely armed: one branch
        // per cycle covers all three.
        let observed = window.is_some() || invariants.is_some() || trace.is_some();
        let mut to_boundary = interval - mc % interval;
        let mut min_dev = 0.0f64;
        let mut sum_dev = 0.0f64;
        let mut left = cycles;
        while left > 0 {
            // Run up to the next interval boundary, then extend the
            // timeline once.
            let run = left.min(to_boundary);
            for _ in 0..run {
                let recovery = match hook.as_mut() {
                    Some(h) => h(sensed) == CycleControl::Recovery,
                    None => false,
                };
                let v = step.step(recovery);
                sensed = v;
                let dev = if FULL {
                    sensor.record(v)
                } else {
                    100.0 * (v - nominal) / nominal
                };
                min_dev = min_dev.min(dev);
                sum_dev += dev;
                droops.observe(dev);
                if FULL {
                    overshoots.observe(dev);
                }
                let crossing_started = match capture.as_deref_mut() {
                    Some(cap) => cap.observe(mc, dev),
                    None => false,
                };
                if observed {
                    if let Some(win) = window.as_mut() {
                        win.on_cycle(step.cores(), mc, dev, crossing_started);
                    }
                    if let Some(inv) = invariants.as_mut() {
                        inv.on_cycle(step.cores(), mc, v, dev);
                    }
                    if let Some((buf, limit)) = trace.as_mut() {
                        if mc - first < *limit {
                            buf.push(v);
                        }
                    }
                }
                mc += 1;
            }
            left -= run;
            to_boundary -= run;
            if to_boundary == 0 {
                let now = droops.events_at(PHASE_MARGIN_PCT);
                droops_per_interval
                    .push((now - *interval_start_events) as f64 * 1000.0 / interval as f64);
                *interval_start_events = now;
                to_boundary = interval;
            }
        }
        *measured_cycles = mc;
        *last_sensed = sensed;
        let core_deltas: Vec<PerfCounters> = step
            .cores()
            .iter()
            .zip(&counters_before)
            .map(|(core, then)| core.counters().delta_since(then))
            .collect();
        if let Some(inv) = invariants.as_mut() {
            inv.on_slice(step.cores(), cycles, &core_deltas, droops);
        }
        SliceStats {
            cycles,
            droops: droops.events_at(PHASE_MARGIN_PCT) - droops_before,
            max_droop_pct: -min_dev,
            mean_dev_pct: if cycles == 0 {
                0.0
            } else {
                sum_dev / cycles as f64
            },
            core_deltas,
        }
    }

    /// Converts the accumulated state into the final [`RunStats`].
    pub(crate) fn into_stats(self, chip: &Chip) -> RunStats {
        RunStats {
            cycles: self.measured_cycles,
            sensor: self.sensor,
            droops: self.droops,
            overshoots: self.overshoots,
            droops_per_interval: self.droops_per_interval,
            core_counters: chip.core_counters(),
        }
    }
}

/// Summary of one incremental slice of execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceStats {
    /// Measured cycles in this slice.
    pub cycles: u64,
    /// Droop events at the characterization margin
    /// ([`PHASE_MARGIN_PCT`]) that *started* during this slice.
    pub droops: u64,
    /// Deepest droop observed in this slice, percent below nominal
    /// (0 if the voltage never dipped below nominal).
    pub max_droop_pct: f64,
    /// Mean sensed voltage deviation over the slice, percent of
    /// nominal (negative = below nominal). A monitor turns this into
    /// the mean voltage margin: `PHASE_MARGIN_PCT + mean_dev_pct`.
    pub mean_dev_pct: f64,
    /// Per-core counter deltas for this slice — the software-visible
    /// telemetry an online scheduler samples.
    pub core_deltas: Vec<PerfCounters>,
}

impl SliceStats {
    /// Droop events per 1000 cycles in this slice.
    pub fn droops_per_kilocycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.droops as f64 * 1000.0 / self.cycles as f64
        }
    }
}

/// A resumable measurement: a warmed-up chip plus accumulated stats,
/// advanced one slice at a time.
///
/// # Examples
///
/// ```
/// use vsmooth_chip::{Chip, ChipConfig, ChipSession};
/// use vsmooth_pdn::DecapConfig;
/// use vsmooth_uarch::{IdleLoop, StimulusSource};
///
/// let chip = Chip::new(ChipConfig::core2_duo(DecapConfig::proc100()))?;
/// let mut idle0 = IdleLoop::default();
/// let mut idle1 = IdleLoop::default();
/// let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut idle0, &mut idle1];
/// let mut session = ChipSession::begin(chip, &mut warm, 5_000)?;
/// for _ in 0..4 {
///     let mut a = IdleLoop::default();
///     let mut b = IdleLoop::default();
///     let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
///     let slice = session.run_slice(&mut sources, 5_000)?;
///     assert_eq!(slice.cycles, 5_000);
/// }
/// let stats = session.finish()?;
/// assert_eq!(stats.cycles, 20_000);
/// assert_eq!(stats.droops_per_interval.len(), 4);
/// # Ok::<(), vsmooth_chip::ChipError>(())
/// ```
#[derive(Debug)]
pub struct ChipSession {
    pub(crate) chip: Chip,
    pub(crate) state: MeasureState,
    /// Precomputed coefficients for the fused step (`crate::fastpath`),
    /// built on first use and reused for the session's lifetime (the
    /// PDN matrices and ripple are immutable).
    pub(crate) fast: Option<crate::fastpath::FastCache>,
    /// Measured cycles run on the lean fused step, which leaves the
    /// sensor and overshoot grid behind (see [`ChipSession::finish`]).
    pub(crate) lean_cycles: u64,
}

impl ChipSession {
    /// Warms the chip up under `warmup_sources` (its configured warm-up
    /// cycle count), resets the performance counters and opens a
    /// measurement with interval boundaries every `interval_cycles`.
    /// Runs on the reference step, the oracle;
    /// [`begin_fast`](ChipSession::begin_fast) is the fused twin.
    ///
    /// # Errors
    ///
    /// [`ChipError::SourceCountMismatch`] if `warmup_sources` does not
    /// match the core count, [`ChipError::InvalidConfig`] for a zero
    /// interval.
    pub fn begin(
        mut chip: Chip,
        warmup_sources: &mut [&mut dyn StimulusSource],
        interval_cycles: u64,
    ) -> Result<Self, ChipError> {
        chip.check_sources(warmup_sources.len())?;
        if interval_cycles == 0 {
            return Err(ChipError::InvalidConfig("interval_cycles must be non-zero"));
        }
        chip.warm_up(warmup_sources);
        let state = MeasureState::new(&chip, interval_cycles);
        Ok(Self {
            chip,
            state,
            fast: None,
            lean_cycles: 0,
        })
    }

    /// Runs one slice of `cycles` measured cycles under `sources`.
    ///
    /// Sources may differ between slices (that is the point: the
    /// service re-pairs jobs at slice boundaries); only the count must
    /// match the core count. A slice may be any length. It runs on the
    /// reference step, the oracle, and keeps the statistics complete;
    /// [`run_slice_fast`](ChipSession::run_slice_fast) runs the same
    /// loop on the lean fused step.
    ///
    /// # Errors
    ///
    /// [`ChipError::SourceCountMismatch`] on a source/core mismatch.
    pub fn run_slice(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
    ) -> Result<SliceStats, ChipError> {
        self.chip.check_sources(sources.len())?;
        let mut step = ReferenceStep {
            chip: &mut self.chip,
            sources,
            warmup: false,
        };
        Ok(self.state.run::<true, _>(&mut step, cycles, None, None))
    }

    /// Starts logging individual [`DroopCrossing`] events at the given
    /// margin (percent below nominal). Only cycles run after this call
    /// are captured; call once right after [`ChipSession::begin`] to
    /// cover the whole session. Calling again (at any margin) re-arms
    /// the capture: previously captured but undrained events are
    /// dropped and the hysteresis state resets.
    pub fn capture_droops(&mut self, margin_pct: f64) {
        self.state.capture = Some(DroopCapture {
            margin_pct,
            below: false,
            events: Vec::new(),
        });
    }

    /// Starts triggered waveform profiling: arms droop capture at
    /// `margin_pct` (like [`ChipSession::capture_droops`]) and
    /// additionally snapshots a [`DroopWindow`] around every crossing —
    /// the lead-in ring plus a post-trigger tail of per-cycle voltage
    /// deviation, with the counter deltas and stall events over it.
    pub fn enable_profiling(&mut self, margin_pct: f64, window: WindowConfig) {
        self.capture_droops(margin_pct);
        self.state.window = Some(WindowCapture::new(&self.chip.cores, window));
    }

    /// Drains the droop events captured since the last call (empty if
    /// [`ChipSession::capture_droops`] was never called). Event cycles
    /// are session-absolute measured cycles, so a coordinator can map
    /// them onto its own virtual timeline.
    pub fn take_droop_crossings(&mut self) -> Vec<DroopCrossing> {
        match self.state.capture.as_mut() {
            Some(cap) => std::mem::take(&mut cap.events),
            None => Vec::new(),
        }
    }

    /// Drains the captured windows whose post-trigger tail is complete
    /// (empty unless [`ChipSession::enable_profiling`] was called).
    /// Windows come out in trigger order; a window triggered close to
    /// the end of a slice surfaces once its tail has run, so drain
    /// again later — or call [`ChipSession::flush_droop_windows`] at
    /// the end of the measurement.
    pub fn take_droop_windows(&mut self) -> Vec<DroopWindow> {
        match self.state.window.as_mut() {
            Some(w) => w.take_windows(),
            None => Vec::new(),
        }
    }

    /// Force-finalizes in-flight windows (marked
    /// [`truncated`](DroopWindow::truncated)) and drains every window
    /// not yet taken. Call once when the measurement ends so no
    /// triggered capture is lost.
    pub fn flush_droop_windows(&mut self) -> Vec<DroopWindow> {
        match self.state.window.as_mut() {
            Some(w) => {
                w.flush(&self.chip.cores);
                w.take_windows()
            }
            None => Vec::new(),
        }
    }

    /// Arms the physics/bookkeeping invariant checker (see
    /// [`InvariantKind`](crate::InvariantKind)). Like droop capture and
    /// profiling, the hook is an `Option` that stays `None` unless
    /// armed — a disarmed session pays one untaken branch per cycle.
    /// Calling again re-arms with fresh baselines and drops unread
    /// violations.
    pub fn enable_invariants(&mut self, cfg: InvariantConfig) {
        let checker = InvariantState::new(&self.chip.cores, &self.state.droops, cfg);
        self.state.invariants = Some(checker);
    }

    /// Snapshot of invariant-checker coverage and findings, or `None`
    /// if [`ChipSession::enable_invariants`] was never called.
    pub fn invariant_report(&self) -> Option<InvariantReport> {
        self.state.invariants.as_ref().map(InvariantState::report)
    }

    /// Drains recorded invariant violations (empty when the checker is
    /// disarmed or everything held).
    pub fn take_invariant_violations(&mut self) -> Vec<InvariantViolation> {
        match self.state.invariants.as_mut() {
            Some(inv) => inv.take_violations(),
            None => Vec::new(),
        }
    }

    /// Measured cycles so far.
    pub fn measured_cycles(&self) -> u64 {
        self.state.measured_cycles
    }

    /// The underlying chip.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// A snapshot of the accumulated statistics without ending the
    /// session.
    ///
    /// # Errors
    ///
    /// Same condition as [`ChipSession::finish`].
    pub fn stats(&self) -> Result<RunStats, ChipError> {
        self.complete()?;
        Ok(self.state.clone().into_stats(&self.chip))
    }

    /// Ends the session, yielding the accumulated statistics.
    ///
    /// # Errors
    ///
    /// [`ChipError::IncompleteStats`] if any slice ran on the lean fused
    /// kernel ([`ChipSession::run_slice_fast`]), which does not feed the
    /// voltage sensor or the overshoot grid.
    pub fn finish(self) -> Result<RunStats, ChipError> {
        self.complete()?;
        Ok(self.state.into_stats(&self.chip))
    }

    fn complete(&self) -> Result<(), ChipError> {
        match self.lean_cycles {
            0 => Ok(()),
            lean_cycles => Err(ChipError::IncompleteStats { lean_cycles }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::invariant::InvariantKind;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_uarch::{FixedIntensity, IdleLoop};
    use vsmooth_workload::by_name;

    fn chip() -> Chip {
        Chip::new(ChipConfig::core2_duo(DecapConfig::proc100())).unwrap()
    }

    fn idle_pair() -> (IdleLoop, IdleLoop) {
        (IdleLoop::default(), IdleLoop::default())
    }

    #[test]
    fn sliced_run_matches_one_shot_run() {
        // The same workload through run() and through four slices must
        // produce identical statistics: the session is a pure refactor
        // of the one-shot loop.
        let w = by_name("482.sphinx3").unwrap();

        let one_shot = {
            let mut c = chip();
            let mut s = w.stream(0, 10_000);
            let mut idle = IdleLoop::default();
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            c.run(&mut sources, 40_000, 10_000).unwrap()
        };

        let sliced = {
            let mut s = w.stream(0, 10_000);
            let mut idle = IdleLoop::default();
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            let mut session = ChipSession::begin(chip(), &mut warm, 10_000).unwrap();
            for _ in 0..4 {
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
                session.run_slice(&mut sources, 10_000).unwrap();
            }
            session.finish().unwrap()
        };

        assert_eq!(one_shot.cycles, sliced.cycles);
        assert_eq!(one_shot.droops, sliced.droops);
        assert_eq!(one_shot.overshoots, sliced.overshoots);
        assert_eq!(one_shot.droops_per_interval, sliced.droops_per_interval);
        assert_eq!(one_shot.sensor, sliced.sensor);
        assert_eq!(one_shot.core_counters, sliced.core_counters);

        // Slices that start and end mid-interval: the timeline's
        // countdown carries across slice boundaries.
        let unaligned = {
            let mut s = w.stream(0, 10_000);
            let mut idle = IdleLoop::default();
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            let mut session = ChipSession::begin(chip(), &mut warm, 10_000).unwrap();
            for cycles in [3_500, 7_000, 12_345, 17_155] {
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
                session.run_slice(&mut sources, cycles).unwrap();
            }
            session.finish().unwrap()
        };
        assert_eq!(one_shot, unaligned);
    }

    #[test]
    fn slice_droops_sum_to_total() {
        let w = by_name("473.astar").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        let mut slice_droops = 0;
        for _ in 0..6 {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            slice_droops += session.run_slice(&mut sources, 5_000).unwrap().droops;
        }
        let stats = session.finish().unwrap();
        assert_eq!(stats.emergencies(PHASE_MARGIN_PCT), slice_droops);
    }

    #[test]
    fn slice_core_deltas_sum_to_final_counters() {
        let (mut a, mut b) = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 4_000).unwrap();
        let mut merged = vec![PerfCounters::new(); 2];
        for _ in 0..3 {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
            let slice = session.run_slice(&mut sources, 4_000).unwrap();
            for (m, d) in merged.iter_mut().zip(&slice.core_deltas) {
                m.merge(d);
            }
        }
        let stats = session.finish().unwrap();
        assert_eq!(merged, stats.core_counters);
    }

    #[test]
    fn sources_can_change_between_slices() {
        let (mut a, mut b) = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 2_000).unwrap();
        {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
            session.run_slice(&mut sources, 2_000).unwrap();
        }
        // Swap in a hot job on core 0 mid-measurement.
        let mut busy = FixedIntensity::new(0.9);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut busy, &mut b];
        let slice = session.run_slice(&mut sources, 2_000).unwrap();
        assert_eq!(session.measured_cycles(), 4_000);
        assert!(slice.core_deltas[0].ipc() > 0.0);
    }

    #[test]
    fn droop_capture_counts_match_grid_events() {
        // At a threshold that sits exactly on a CrossingGrid grid line,
        // the per-event capture and the grid's aggregate count must
        // agree — they are two views of the same crossings.
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        session.capture_droops(2.5);
        let mut captured = Vec::new();
        for _ in 0..6 {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, 5_000).unwrap();
            captured.extend(session.take_droop_crossings());
        }
        let total = session.measured_cycles();
        let stats = session.finish().unwrap();
        assert_eq!(captured.len() as u64, stats.emergencies(2.5));
        assert!(!captured.is_empty(), "sphinx3 should droop past 2.5%");
        // Events are ordered, in range, and at least margin deep.
        for pair in captured.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle);
        }
        for ev in &captured {
            assert!(ev.cycle < total);
            assert!(ev.depth_pct >= 2.5);
            assert!(ev.depth_pct <= stats.max_droop_pct() + 1e-9);
        }
    }

    #[test]
    fn take_droop_crossings_drains() {
        // Drain semantics: a second call right after a drain is empty,
        // and draining again after more cycles only returns new events.
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        session.capture_droops(2.5);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        session.run_slice(&mut sources, 15_000).unwrap();
        let first = session.take_droop_crossings();
        assert!(!first.is_empty(), "sphinx3 should droop past 2.5%");
        assert!(session.take_droop_crossings().is_empty());
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        session.run_slice(&mut sources, 15_000).unwrap();
        let second = session.take_droop_crossings();
        for ev in &second {
            assert!(ev.cycle >= 15_000, "drained event from the first slice");
        }
        let stats = session.finish().unwrap();
        assert_eq!((first.len() + second.len()) as u64, stats.emergencies(2.5));
    }

    #[test]
    fn capture_droops_rearms_on_margin_change() {
        // Re-arming at a new margin drops undrained events and counts
        // crossings at the new threshold from that point on.
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        session.capture_droops(2.5);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        session.run_slice(&mut sources, 10_000).unwrap();

        let before_rearm = session.stats().unwrap().emergencies(3.0);
        session.capture_droops(3.0);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        session.run_slice(&mut sources, 20_000).unwrap();
        let events = session.take_droop_crossings();
        // The re-arm discarded the 2.5% events of the first slice.
        for ev in &events {
            assert!(ev.cycle >= 10_000);
            assert!(ev.depth_pct >= 3.0);
        }
        let stats = session.finish().unwrap();
        assert_eq!(
            events.len() as u64,
            stats.emergencies(3.0) - before_rearm,
            "post-re-arm capture must match the grid at the new margin"
        );
    }

    #[test]
    fn slice_mean_dev_matches_sensor_mean() {
        // A single slice covering the whole measurement must report
        // the same mean deviation the sensor accumulates.
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let slice = session.run_slice(&mut sources, 15_000).unwrap();
        let stats = session.finish().unwrap();
        let sensor_mean = stats.sensor.summary().mean();
        assert!((slice.mean_dev_pct - sensor_mean).abs() < 1e-9);
        assert!(slice.mean_dev_pct > -PHASE_MARGIN_PCT);
    }

    #[test]
    fn zero_cycle_slice_rates_are_zero() {
        let (mut a, mut b) = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 1_000).unwrap();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let slice = session.run_slice(&mut sources, 0).unwrap();
        assert_eq!(slice.cycles, 0);
        assert_eq!(slice.droops_per_kilocycle(), 0.0);
        assert!(slice.droops_per_kilocycle().is_finite());
    }

    #[test]
    fn droop_windows_match_crossings_and_counters() {
        // Tentpole invariants at the chip layer: one window per
        // crossing, window event lists equal the windowed counter
        // deltas, and windows carry the full requested span.
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let wcfg = WindowConfig {
            pre_cycles: 48,
            post_cycles: 80,
        };
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        session.enable_profiling(2.5, wcfg);
        let mut windows = Vec::new();
        let mut crossings = Vec::new();
        for _ in 0..6 {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, 5_000).unwrap();
            windows.extend(session.take_droop_windows());
            crossings.extend(session.take_droop_crossings());
        }
        windows.extend(session.flush_droop_windows());
        let stats = session.finish().unwrap();
        assert_eq!(windows.len() as u64, stats.emergencies(2.5));
        assert_eq!(windows.len(), crossings.len());
        assert!(!windows.is_empty(), "sphinx3 should droop past 2.5%");
        for (win, crossing) in windows.iter().zip(&crossings) {
            assert_eq!(win.trigger_cycle, crossing.cycle);
            assert!(win.depth_pct >= 2.5);
            // The trigger sits inside the window, lead-in ≤ pre.
            assert!(win.start_cycle <= win.trigger_cycle);
            assert!(win.trigger_cycle - win.start_cycle < wcfg.pre_cycles as u64);
            if !win.truncated {
                assert_eq!(win.end_cycle() - win.trigger_cycle, wcfg.post_cycles as u64);
            }
            // Counter deltas span exactly the window: the cycle count
            // matches and, per core and event kind, the delta equals
            // the number of logged window events — the attribution
            // layer's base invariant.
            for (core, delta) in win.counter_deltas.iter().enumerate() {
                assert_eq!(delta.cycles(), win.len() as u64);
                for e in vsmooth_uarch::StallEvent::ALL {
                    let logged = win
                        .events
                        .iter()
                        .filter(|ev| ev.core == core && ev.event == e)
                        .count() as u64;
                    assert_eq!(
                        delta.event_count(e),
                        logged,
                        "core {core} {} delta vs window events",
                        e.label()
                    );
                }
            }
            // Events are cycle-ordered and inside the window.
            for pair in win.events.windows(2) {
                assert!(pair[0].cycle <= pair[1].cycle);
            }
            for ev in &win.events {
                assert!(ev.cycle >= win.start_cycle && ev.cycle <= win.end_cycle());
            }
        }
    }

    #[test]
    fn profiling_does_not_perturb_measurement() {
        let w = by_name("473.astar").unwrap();
        let run = |profiled: bool| {
            let mut s = w.stream(0, 5_000);
            s.set_looping(true);
            let mut idle = IdleLoop::default();
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
            if profiled {
                session.enable_profiling(PHASE_MARGIN_PCT, WindowConfig::default());
            }
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, 15_000).unwrap();
            session.finish().unwrap()
        };
        let plain = run(false);
        let profiled = run(true);
        assert_eq!(plain.sensor, profiled.sensor);
        assert_eq!(plain.droops, profiled.droops);
        assert_eq!(plain.core_counters, profiled.core_counters);
    }

    #[test]
    fn take_droop_windows_is_empty_without_profiling() {
        let (mut a, mut b) = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 2_000).unwrap();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        session.run_slice(&mut sources, 2_000).unwrap();
        assert!(session.take_droop_windows().is_empty());
        assert!(session.flush_droop_windows().is_empty());
    }

    #[test]
    fn take_droop_crossings_is_empty_without_capture() {
        let (mut a, mut b) = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 2_000).unwrap();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        session.run_slice(&mut sources, 2_000).unwrap();
        assert!(session.take_droop_crossings().is_empty());
    }

    #[test]
    fn droop_capture_does_not_perturb_measurement() {
        let w = by_name("473.astar").unwrap();
        let run = |capture: bool| {
            let mut s = w.stream(0, 5_000);
            s.set_looping(true);
            let mut idle = IdleLoop::default();
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
            if capture {
                session.capture_droops(PHASE_MARGIN_PCT);
            }
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, 15_000).unwrap();
            session.finish().unwrap()
        };
        let plain = run(false);
        let logged = run(true);
        assert_eq!(plain.sensor, logged.sensor);
        assert_eq!(plain.droops, logged.droops);
        assert_eq!(plain.core_counters, logged.core_counters);
    }

    #[test]
    fn invariants_hold_on_a_clean_run() {
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        session.enable_invariants(InvariantConfig::default());
        for _ in 0..4 {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, 5_000).unwrap();
        }
        let report = session.invariant_report().expect("armed");
        assert_eq!(report.cycles_checked, 20_000);
        assert_eq!(report.slices_checked, 4);
        assert!(
            report.is_clean(),
            "violations on a healthy run: {:?}",
            report.violations
        );
        assert!(session.take_invariant_violations().is_empty());
    }

    #[test]
    fn invariant_checking_does_not_perturb_measurement() {
        let w = by_name("473.astar").unwrap();
        let run = |checked: bool| {
            let mut s = w.stream(0, 5_000);
            s.set_looping(true);
            let mut idle = IdleLoop::default();
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
            if checked {
                session.enable_invariants(InvariantConfig::default());
            }
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, 15_000).unwrap();
            session.finish().unwrap()
        };
        let plain = run(false);
        let checked = run(true);
        assert_eq!(plain.sensor, checked.sensor);
        assert_eq!(plain.droops, checked.droops);
        assert_eq!(plain.core_counters, checked.core_counters);
    }

    #[test]
    fn invariant_report_is_none_without_arming() {
        let (mut a, mut b) = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 2_000).unwrap();
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        session.run_slice(&mut sources, 2_000).unwrap();
        assert!(session.invariant_report().is_none());
        assert!(session.take_invariant_violations().is_empty());
    }

    #[test]
    fn invariant_checker_flags_an_impossible_voltage_band() {
        // Sanity that the checker actually fires: a 0% band makes every
        // non-nominal cycle a violation, and the report caps recording
        // while still counting the overflow.
        let w = by_name("482.sphinx3").unwrap();
        let mut s = w.stream(0, 5_000);
        s.set_looping(true);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip(), &mut warm, 5_000).unwrap();
        session.enable_invariants(InvariantConfig {
            voltage_band_pct: 0.0,
            max_violations: 8,
            ..InvariantConfig::default()
        });
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        session.run_slice(&mut sources, 5_000).unwrap();
        let report = session.invariant_report().expect("armed");
        assert!(!report.is_clean());
        assert_eq!(report.violations.len(), 8, "recording must cap");
        assert!(report.dropped > 0, "overflow must still be counted");
        assert!(report
            .violations
            .iter()
            .all(|v| v.kind == InvariantKind::VoltageOutOfBounds));
        // Draining resets the log.
        assert_eq!(session.take_invariant_violations().len(), 8);
        let after = session.invariant_report().expect("armed");
        assert!(after.violations.is_empty());
        assert_eq!(after.dropped, 0);
    }

    #[test]
    fn invalid_sessions_are_rejected() {
        let (mut a, _) = idle_pair();
        let mut one: Vec<&mut dyn StimulusSource> = vec![&mut a];
        assert!(matches!(
            ChipSession::begin(chip(), &mut one, 1_000),
            Err(ChipError::SourceCountMismatch { .. })
        ));

        let (mut a, mut b) = idle_pair();
        let mut two: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        assert!(ChipSession::begin(chip(), &mut two, 0).is_err());
    }
}

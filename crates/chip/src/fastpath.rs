//! Fused kernel: the per-cycle chip loop monomorphized and flattened
//! into one loop over fixed-size arrays.
//!
//! The reference per-cycle path ([`Chip::step_cycle`] +
//! [`MeasureState::run`]) walks a `Vec`-backed state-space model
//! through bounds-checked `Mat` indexing, dispatches stimulus sources
//! through `&mut dyn`, and recomputes the VRM ripple phase with a
//! division every cycle. None of that changes the physics — it is pure
//! interpretation overhead.
//!
//! This module specializes the loop for the platform's shape (2-core
//! chip, 8-state PDN with 2 inputs, interval-aligned slices, no
//! waveform windows, no invariant checker) into one fused loop over
//! fixed-size arrays with closure-typed stimulus sources. The kernel
//! reproduces the reference floating-point accumulation order
//! *exactly* — same adds, same order, same clamps — so every value it
//! produces is bit-identical to the reference loop. The identity tests
//! at the bottom of this file and testkit's P5 property enforce that.
//!
//! The kernel comes in two flavours, picked by `const FULL: bool`:
//!
//! * `FULL = true` also records every sensed sample in the voltage
//!   sensor's histogram/summary and feeds the overshoot grid, so a
//!   fused measurement yields the complete [`RunStats`](crate::RunStats)
//!   bit for bit. [`Chip::run`] and [`Chip::run_captured`] without
//!   windows run every measurement this way, and with them the paper's
//!   campaign, the fleet sweeps, the pair oracle and the probes.
//! * `FULL = false` (lean) skips those two channels. The serving
//!   runtime's shard workers drive sessions through
//!   [`ChipSession::run_slice_fast`](crate::ChipSession::run_slice_fast)
//!   this way: no serve caller reads `RunStats`, and the two channels
//!   would cost about a fifth of the service's throughput. A session
//!   that ran lean cycles refuses to hand out `RunStats`
//!   ([`ChipError::IncompleteStats`]).
//!
//! Everything the kernel cannot do runs on the reference loop, which
//! stays the oracle: waveform windows, raw traces, rollback hooks, the
//! invariant checker, [`ChipSession::run_slice`](crate::ChipSession::run_slice),
//! and chips [`FastCache::build`] rejects.

use crate::chip::Chip;
use crate::session::{DroopCapture, MeasureState, SliceStats};
use crate::stats::PHASE_MARGIN_PCT;
use crate::ChipError;
use vsmooth_uarch::{CycleStimulus, PerfCounters, StimulusSource};

/// Largest ripple period we precompute a lookup table for. The
/// platform's VRM switches every 1 900 cycles; anything vastly larger
/// would just waste cache, so such configs fall back to the reference
/// loop.
const MAX_RIPPLE_TABLE: u64 = 1 << 16;

/// Adapter exposing a closure as a [`StimulusSource`], so callers that
/// hold closure-typed sources can still run the reference loop when a
/// slice does not qualify for the fused kernel.
pub(crate) struct FnSource<F: FnMut() -> CycleStimulus + Send>(pub(crate) F);

impl<F: FnMut() -> CycleStimulus + Send> StimulusSource for FnSource<F> {
    fn next(&mut self) -> CycleStimulus {
        (self.0)()
    }

    fn name(&self) -> &str {
        "closure"
    }
}

/// Precomputed coefficients for the fused kernel: the discretized PDN
/// matrices copied into fixed-size arrays plus the VRM ripple unrolled
/// into a one-period lookup table.
///
/// Matrices and ripple are immutable after [`Chip::new`], so the cache
/// is built once per session; only the PDN state vector is copied in
/// and written back around each fast slice.
#[derive(Debug, Clone)]
pub(crate) struct FastCache {
    /// Ad transposed: `adt[col][row]`. The state update walks columns
    /// so the eight row accumulators advance together (see
    /// [`step_pdn`]).
    adt: [[f64; 8]; 8],
    /// Bd transposed: `bdt[input][row]`.
    bdt: [[f64; 8]; 2],
    c: [f64; 8],
    d: [f64; 2],
    ripple: Vec<f64>,
}

impl FastCache {
    /// Builds the cache, or `None` when the chip's PDN is not the
    /// 8-state/2-input ladder the kernel is specialized for.
    pub(crate) fn build(chip: &Chip) -> Option<Self> {
        if chip.cores.len() != 2 {
            return None;
        }
        let (ad, bd, c, d) = chip.pdn.system_matrices();
        if ad.rows() != 8
            || ad.cols() != 8
            || bd.rows() != 8
            || bd.cols() != 2
            || c.cols() != 8
            || d.cols() != 2
        {
            return None;
        }
        let period = chip.cfg.ripple.period_cycles();
        if period > MAX_RIPPLE_TABLE {
            return None;
        }
        let mut fa = [[0.0f64; 8]; 8];
        let mut fb = [[0.0f64; 8]; 2];
        let mut fc = [0.0f64; 8];
        for r in 0..8 {
            for col in 0..8 {
                fa[col][r] = ad[(r, col)];
            }
            fb[0][r] = bd[(r, 0)];
            fb[1][r] = bd[(r, 1)];
        }
        for (col, slot) in fc.iter_mut().enumerate() {
            *slot = c[(0, col)];
        }
        let fd = [d[(0, 0)], d[(0, 1)]];
        // `VrmRipple::offset` is periodic in `period_cycles`; tabulating
        // one period and indexing with a wrapping counter reproduces it
        // bit-exactly (same function, same inputs) without the per-cycle
        // modulo.
        let ripple = (0..period).map(|i| chip.cfg.ripple.offset(i)).collect();
        Some(Self {
            adt: fa,
            bdt: fb,
            c: fc,
            d: fd,
            ripple,
        })
    }
}

/// Whether a slice of `cycles` can run through the fused kernel right
/// now: no waveform windows or invariant checker armed (those hooks
/// read whole-chip state mid-cycle), and the slice must start and end
/// on interval boundaries so the interval-timeline push can be hoisted
/// out of the loop.
pub(crate) fn fast_slice_supported(state: &MeasureState, cycles: u64) -> bool {
    state.window.is_none()
        && state.invariants.is_none()
        && cycles == state.interval_cycles
        && state.measured_cycles.is_multiple_of(state.interval_cycles)
}

/// Runs the chip's configured warm-up through the fused kernel and
/// resets the performance counters — bit-identical to
/// [`Chip::warm_up`] over the same sources.
pub(crate) fn warm_up_fast<S0, S1>(chip: &mut Chip, cache: &FastCache, mut s0: S0, mut s1: S1)
where
    S0: FnMut() -> CycleStimulus,
    S1: FnMut() -> CycleStimulus,
{
    // Reference: `step_cycle(sources, warmup=true, recovery=false)` for
    // `warmup_cycles`, then counter reset. The warm-up boost multiplies
    // the current EMA by 50 before the 0.05 clamp.
    let reg = chip.cfg.regulator;
    let has_reg = reg.gain > 0.0;
    let ema = (reg.current_ema * 50.0).min(0.05);
    let vnom = chip.nominal_voltage();
    let base = vnom - reg.offset_volts;
    let rll = chip.cfg.pdn.total_series_resistance() - reg.load_line_ohms;
    let (clamp_lo, clamp_hi) = (vnom * 0.9, vnom * 1.1);
    let cycles = chip.cfg.warmup_cycles;
    let period = cache.ripple.len();
    let mut phase = (chip.cycle % period as u64) as usize;

    let mut x = [0.0f64; 8];
    x.copy_from_slice(chip.pdn.state());
    let mut vs = chip.vs;
    let mut i_avg = chip.i_avg;
    let mut last_v = chip.last_v;
    {
        let (head, tail) = chip.cores.split_at_mut(1);
        let (core0, core1) = (&mut head[0], &mut tail[0]);
        for _ in 0..cycles {
            let mut total = 0.0;
            total += core0.tick(s0());
            total += core1.tick(s1());
            if has_reg {
                i_avg += ema * (total - i_avg);
                vs = (base + i_avg * rll).clamp(clamp_lo, clamp_hi);
            }
            last_v = step_pdn(cache, &mut x, vs, total);
            // Warm-up discards the sensed value; only the phase advances.
            phase += 1;
            if phase == period {
                phase = 0;
            }
        }
    }
    chip.pdn.set_state(&x);
    chip.cycle += cycles;
    chip.vs = vs;
    chip.i_avg = i_avg;
    chip.last_v = last_v;
    for core in &mut chip.cores {
        core.reset_counters();
    }
}

/// One fused PDN step: `x ← Ad·x + Bd·u`, returning `y = C·x + D·u`.
/// The accumulation order is exactly
/// [`step_first`](vsmooth_pdn::DiscreteStateSpace::step_first)'s —
/// Ad·x in column order first, then the two Bd terms, then C·x, then
/// the two D terms — so results are bit-identical. Walking Ad by
/// *columns* leaves every row accumulator with the very same operand
/// sequence as the reference row-major dot product (`x[0]`'s term
/// first, then `x[1]`'s, ...), but turns the inner loop into eight
/// independent stride-1 accumulations the compiler can vectorize,
/// where the row-major form is one serial add chain per row.
#[inline]
fn step_pdn(cache: &FastCache, x: &mut [f64; 8], u0: f64, u1: f64) -> f64 {
    let prev = *x;
    let mut nx = [0.0f64; 8];
    for (col, &xc) in prev.iter().enumerate() {
        for (acc, &a) in nx.iter_mut().zip(&cache.adt[col]) {
            *acc += a * xc;
        }
    }
    for (acc, &b) in nx.iter_mut().zip(&cache.bdt[0]) {
        *acc += b * u0;
    }
    for (acc, &b) in nx.iter_mut().zip(&cache.bdt[1]) {
        *acc += b * u1;
    }
    *x = nx;
    let mut y = 0.0;
    for (col, &xc) in nx.iter().enumerate() {
        y += cache.c[col] * xc;
    }
    y += cache.d[0] * u0;
    y += cache.d[1] * u1;
    y
}

/// Advances one interval-aligned slice through the fused kernel.
///
/// Mirrors [`MeasureState::run`] + [`Chip::step_cycle`] cycle for
/// cycle (stimulus → core tick → regulator trim → PDN step → ripple →
/// deviation → droop grid → droop capture). With `FULL` the deviation
/// comes from [`VoltageSensor::record`](crate::sense::VoltageSensor::record)
/// and the overshoot grid observes it right after the droop grid, the
/// reference loop's order; without it both channels are skipped (see
/// the module docs). The caller must have checked
/// [`fast_slice_supported`].
pub(crate) fn run_slice_fast<const FULL: bool, S0, S1>(
    chip: &mut Chip,
    state: &mut MeasureState,
    cache: &FastCache,
    mut s0: S0,
    mut s1: S1,
    cycles: u64,
) -> SliceStats
where
    S0: FnMut() -> CycleStimulus,
    S1: FnMut() -> CycleStimulus,
{
    debug_assert!(fast_slice_supported(state, cycles));
    let droops_before = state.droops.events_at(PHASE_MARGIN_PCT);
    let counters_before = chip.core_counters();

    let reg = chip.cfg.regulator;
    let has_reg = reg.gain > 0.0;
    let ema = (reg.current_ema * 1.0).min(0.05);
    let vnom = chip.nominal_voltage();
    let base = vnom - reg.offset_volts;
    let rll = chip.cfg.pdn.total_series_resistance() - reg.load_line_ohms;
    let (clamp_lo, clamp_hi) = (vnom * 0.9, vnom * 1.1);
    let nominal = state.sensor.nominal();
    let period = cache.ripple.len();
    let mut phase = (chip.cycle % period as u64) as usize;

    let mut x = [0.0f64; 8];
    x.copy_from_slice(chip.pdn.state());
    let mut vs = chip.vs;
    let mut i_avg = chip.i_avg;
    let mut last_v = chip.last_v;
    let mut sensed = state.last_sensed;
    let mut mc = state.measured_cycles;
    let mut min_dev = 0.0f64;
    let mut sum_dev = 0.0f64;
    {
        let (head, tail) = chip.cores.split_at_mut(1);
        let (core0, core1) = (&mut head[0], &mut tail[0]);
        let sensor = &mut state.sensor;
        let droops = &mut state.droops;
        let overshoots = &mut state.overshoots;
        let mut capture = state.capture.as_mut();
        for _ in 0..cycles {
            let mut total = 0.0;
            total += core0.tick(s0());
            total += core1.tick(s1());
            if has_reg {
                i_avg += ema * (total - i_avg);
                vs = (base + i_avg * rll).clamp(clamp_lo, clamp_hi);
            }
            let v = step_pdn(cache, &mut x, vs, total);
            last_v = v;
            sensed = v + cache.ripple[phase];
            phase += 1;
            if phase == period {
                phase = 0;
            }
            let dev = if FULL {
                sensor.record(sensed)
            } else {
                100.0 * (sensed - nominal) / nominal
            };
            min_dev = min_dev.min(dev);
            sum_dev += dev;
            droops.observe(dev);
            if FULL {
                overshoots.observe(dev);
            }
            if let Some(cap) = capture.as_deref_mut() {
                observe_capture(cap, mc, dev);
            }
            mc += 1;
        }
    }
    chip.pdn.set_state(&x);
    chip.cycle += cycles;
    chip.vs = vs;
    chip.i_avg = i_avg;
    chip.last_v = last_v;
    state.last_sensed = sensed;
    state.measured_cycles = mc;
    // The slice is interval-aligned, so exactly its final cycle lands on
    // an interval boundary; the reference loop's per-cycle check reduces
    // to this single push.
    let now_events = state.droops.events_at(PHASE_MARGIN_PCT);
    state.droops_per_interval.push(
        (now_events - state.interval_start_events) as f64 * 1000.0 / state.interval_cycles as f64,
    );
    state.interval_start_events = now_events;

    let core_deltas: Vec<PerfCounters> = chip
        .core_counters()
        .iter()
        .zip(&counters_before)
        .map(|(now, then)| now.delta_since(then))
        .collect();
    SliceStats {
        cycles,
        droops: state.droops.events_at(PHASE_MARGIN_PCT) - droops_before,
        max_droop_pct: -min_dev,
        mean_dev_pct: if cycles == 0 {
            0.0
        } else {
            sum_dev / cycles as f64
        },
        core_deltas,
    }
}

/// [`Chip::warm_up`] over a one-shot run's `dyn` source pair, through
/// the fused kernel. Only for chips [`FastCache::build`] accepted.
pub(crate) fn warm_up_sources(
    chip: &mut Chip,
    cache: &FastCache,
    sources: &mut [&mut dyn StimulusSource],
) {
    let [s0, s1] = sources else {
        unreachable!("FastCache only accepts two-core chips")
    };
    warm_up_fast(chip, cache, || s0.next(), || s1.next());
}

/// [`MeasureState::run`] over a whole one-shot measurement on a chip
/// [`FastCache::build`] accepted: every whole interval through the
/// `FULL` kernel, then a final partial interval (which pushes no
/// timeline entry) on the reference loop. The caller's `dyn` sources
/// are called through closures, so each stream's own `next` stays
/// exact at every interval length: a mix change in mid-interval when
/// the warm-up is not a whole number of intervals, and a looping
/// stream's restart.
pub(crate) fn run_measurement(
    chip: &mut Chip,
    state: &mut MeasureState,
    cache: &FastCache,
    sources: &mut [&mut dyn StimulusSource],
    cycles: u64,
) {
    let interval = state.interval_cycles;
    let [s0, s1] = &mut *sources else {
        unreachable!("FastCache only accepts two-core chips")
    };
    for _ in 0..cycles / interval {
        run_slice_fast::<true, _, _>(chip, state, cache, || s0.next(), || s1.next(), interval);
    }
    #[cfg(test)]
    FULL_CYCLES.set(FULL_CYCLES.get() + cycles / interval * interval);
    let tail = cycles % interval;
    if tail > 0 {
        state.run(chip, sources, tail, None, None);
    }
}

#[cfg(test)]
thread_local! {
    /// Measured cycles this thread ran through the `FULL` kernel, so the
    /// routing tests can see which loop a measurement took.
    pub(crate) static FULL_CYCLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The droop-capture hysteresis, verbatim from [`MeasureState::run`].
#[inline]
fn observe_capture(cap: &mut DroopCapture, measured_cycle: u64, dev: f64) {
    let depth = -dev;
    if depth >= cap.margin_pct {
        if cap.below {
            if let Some(last) = cap.events.last_mut() {
                last.depth_pct = last.depth_pct.max(depth);
            }
        } else {
            cap.below = true;
            cap.events.push(crate::session::DroopCrossing {
                cycle: measured_cycle,
                depth_pct: depth,
            });
        }
    } else {
        cap.below = false;
    }
}

/// Closure-sourced entry points on [`ChipSession`](crate::ChipSession):
/// the serving runtime's shard workers hold concrete stream/idle state
/// and drive sessions through these instead of `&mut dyn` source
/// slices.
impl crate::ChipSession {
    /// Like [`begin`](crate::ChipSession::begin), but warm-up sources
    /// are closures and the warm-up runs through the fused kernel when
    /// the chip qualifies (falling back to the reference loop when
    /// not). Bit-identical to `begin` over equivalent sources.
    ///
    /// # Errors
    ///
    /// Same conditions as [`begin`](crate::ChipSession::begin); the
    /// closure pair corresponds to a two-core source slice.
    pub fn begin_fast<S0, S1>(
        chip: Chip,
        s0: S0,
        s1: S1,
        interval_cycles: u64,
    ) -> Result<Self, ChipError>
    where
        S0: FnMut() -> CycleStimulus + Send,
        S1: FnMut() -> CycleStimulus + Send,
    {
        if interval_cycles == 0 {
            return Err(ChipError::InvalidConfig("interval_cycles must be non-zero"));
        }
        match FastCache::build(&chip) {
            Some(cache) => {
                let mut chip = chip;
                chip.check_sources(2)?;
                warm_up_fast(&mut chip, &cache, s0, s1);
                let state = MeasureState::new(&chip, interval_cycles);
                Ok(Self {
                    chip,
                    state,
                    fast: Some(cache),
                    lean_cycles: 0,
                })
            }
            None => {
                let mut w0 = FnSource(s0);
                let mut w1 = FnSource(s1);
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
                Self::begin(chip, &mut sources, interval_cycles)
            }
        }
    }

    /// Like [`run_slice`](crate::ChipSession::run_slice), but with
    /// closure-typed sources: interval-aligned slices on a qualifying
    /// session run through the lean fused kernel, everything else falls
    /// back to the reference loop via [`FnSource`]. The returned
    /// [`SliceStats`], droop crossings, droop grid and interval timeline
    /// are bit-identical either way. The lean kernel is what the
    /// serving shards run: it skips the voltage sensor and the
    /// overshoot grid, which no serve caller reads and which would cost
    /// them about a fifth of their throughput. So once a slice has run
    /// lean, [`stats`](crate::ChipSession::stats) and
    /// [`finish`](crate::ChipSession::finish) return
    /// [`ChipError::IncompleteStats`] instead of under-counted
    /// `RunStats`; callers that need them use `run_slice`, or a one-shot
    /// [`Chip::run`], which runs the complete fused kernel.
    ///
    /// # Errors
    ///
    /// [`ChipError::SourceCountMismatch`] if the session's chip does
    /// not have exactly two cores.
    pub fn run_slice_fast<S0, S1>(
        &mut self,
        s0: S0,
        s1: S1,
        cycles: u64,
    ) -> Result<SliceStats, ChipError>
    where
        S0: FnMut() -> CycleStimulus + Send,
        S1: FnMut() -> CycleStimulus + Send,
    {
        self.chip.check_sources(2)?;
        if fast_slice_supported(&self.state, cycles) {
            if self.fast.is_none() {
                self.fast = FastCache::build(&self.chip);
            }
            // Disjoint field borrows: the cache is read-only while chip
            // and measurement state advance.
            let Self {
                chip,
                state,
                fast,
                lean_cycles,
            } = self;
            if let Some(cache) = fast.as_ref() {
                *lean_cycles += cycles;
                return Ok(run_slice_fast::<false, _, _>(
                    chip, state, cache, s0, s1, cycles,
                ));
            }
        }
        let mut w0 = FnSource(s0);
        let mut w1 = FnSource(s1);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
        self.run_slice(&mut sources, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::resilient::CycleControl;
    use crate::runner::{Capture, Captured};
    use crate::window::WindowConfig;
    use crate::ChipSession;
    use vsmooth_pdn::{DecapConfig, LadderConfig};
    use vsmooth_uarch::IdleLoop;
    use vsmooth_workload::by_name;

    fn chip() -> Chip {
        Chip::new(ChipConfig::core2_duo(DecapConfig::proc100())).unwrap()
    }

    #[test]
    fn fast_cache_builds_for_the_platform_chip() {
        // The three decap configurations the campaign measures; the
        // facade pins the configs `Lab` and a fleet actually build.
        for decap in [
            DecapConfig::proc100(),
            DecapConfig::proc25(),
            DecapConfig::proc3(),
        ] {
            let c = Chip::new(ChipConfig::core2_duo(decap)).unwrap();
            assert!(FastCache::build(&c).is_some() && c.runs_fused());
        }
    }

    /// The reference loop's one-shot measurement, as `Chip::run_inner`
    /// runs it on chips the fused kernel does not cover: reference
    /// warm-up, then `MeasureState::run` over every cycle.
    fn reference_run(
        mut chip: Chip,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        capture: Capture,
    ) -> Captured {
        chip.warm_up(sources);
        let mut state = MeasureState::new(&chip, interval_cycles);
        if let Capture::Crossings(margin) = capture {
            state.enable_droop_capture(margin);
        }
        state.run(&mut chip, sources, cycles, None, None);
        Captured {
            crossings: state.take_droop_crossings(),
            windows: Vec::new(),
            stats: state.into_stats(&chip),
        }
    }

    /// Measured cycles the `FULL` kernel ran on this thread during `f`.
    fn full_cycles_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = FULL_CYCLES.get();
        let out = f();
        (FULL_CYCLES.get() - before, out)
    }

    /// The campaign's three run shapes over fresh sources: a single
    /// with an idle partner, one stream per core of a multi-threaded
    /// program, and a looping pair. Returns the sources and the
    /// measured cycles the runners would use.
    fn shape(kind: usize, cpi: u64) -> (Vec<Box<dyn StimulusSource>>, u64) {
        let astar = by_name("473.astar").unwrap();
        match kind {
            0 => (
                vec![
                    Box::new(astar.stream(0, cpi)),
                    Box::new(IdleLoop::default()),
                ],
                u64::from(astar.total_intervals()) * cpi,
            ),
            1 => {
                let w = by_name("bodytrack").unwrap();
                (
                    vec![Box::new(w.stream(0, cpi)), Box::new(w.stream(1, cpi))],
                    u64::from(w.total_intervals()) * cpi,
                )
            }
            _ => {
                let mcf = by_name("429.mcf").unwrap();
                let (mut a, mut b) = (astar.stream(0, cpi), mcf.stream(1, cpi));
                a.set_looping(true);
                b.set_looping(true);
                let intervals = astar.total_intervals().max(mcf.total_intervals());
                (vec![Box::new(a), Box::new(b)], u64::from(intervals) * cpi)
            }
        }
    }

    /// Measures one run shape through `Chip::run_captured` and through
    /// the reference loop, `tail` cycles past its last whole interval,
    /// and asserts the two agree with every whole interval run fused.
    fn assert_fused_matches_reference(
        cfg: &ChipConfig,
        cpi: u64,
        kind: usize,
        capture: Capture,
        tail: u64,
    ) {
        let run = |fused: bool| {
            let (mut boxes, cycles) = shape(kind, cpi);
            let mut sources: Vec<&mut dyn StimulusSource> = boxes
                .iter_mut()
                .map(|b| -> &mut dyn StimulusSource { &mut **b })
                .collect();
            let mut chip = Chip::new(cfg.clone()).unwrap();
            if fused {
                full_cycles_in(|| {
                    let run = chip.run_captured(&mut sources, cycles + tail, cpi, capture);
                    run.unwrap()
                })
            } else {
                let run = reference_run(chip, &mut sources, cycles + tail, cpi, capture);
                (cycles, run)
            }
        };
        let (full, fused) = run(true);
        let (whole, reference) = run(false);
        let at = format!("cpi {cpi}, shape {kind}, {capture:?}, tail {tail}");
        assert_eq!(full, whole, "{at}: not every whole interval ran fused");
        assert_eq!(fused, reference, "{at}");
        if matches!(capture, Capture::Crossings(_)) {
            assert!(!fused.crossings.is_empty(), "{at}: no droops to compare");
        }
    }

    #[test]
    fn one_shot_runs_equal_the_reference_loop() {
        // Interval lengths that do (4 000) and do not (3 000, 7 001,
        // 30 000) divide the 8 000-cycle warm-up, so streams change mix
        // in mid-interval; the looping pair restarts astar inside
        // `next()`.
        for decap in [DecapConfig::proc100(), DecapConfig::proc3()] {
            let cfg = ChipConfig::core2_duo(decap);
            for cpi in [3_000, 4_000, 7_001, 30_000] {
                for kind in 0..3 {
                    for capture in [Capture::None, Capture::Crossings(2.5)] {
                        assert_fused_matches_reference(&cfg, cpi, kind, capture, 0);
                    }
                }
            }
        }
        // A partial final interval, which no campaign caller produces,
        // runs on the reference loop and pushes no timeline entry.
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        for kind in 0..3 {
            assert_fused_matches_reference(&cfg, 3_000, kind, Capture::Crossings(2.5), 1_234);
        }
    }

    #[test]
    fn measurements_route_to_the_kernel_that_can_run_them() {
        fn idle_pair() -> [IdleLoop; 2] {
            [IdleLoop::new(0), IdleLoop::new(1)]
        }
        let full_in = |capture: Capture| {
            let [mut a, mut b] = idle_pair();
            let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
            full_cycles_in(|| chip().run_captured(&mut s, 6_000, 2_000, capture).unwrap()).0
        };
        // Plain and crossing-capturing runs take the complete kernel…
        assert_eq!(full_in(Capture::None), 6_000);
        assert_eq!(full_in(Capture::Crossings(2.5)), 6_000);
        let [mut a, mut b] = idle_pair();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        assert_eq!(full_cycles_in(|| chip().run(&mut s, 6_000, 2_000)).0, 6_000);

        // …windows, traces and hooks take the reference loop…
        assert_eq!(full_in(Capture::Windows(2.5, WindowConfig::default())), 0);
        let [mut a, mut b] = idle_pair();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let traced = full_cycles_in(|| chip().run_with_trace(&mut s, 6_000, 2_000, 100));
        assert_eq!(traced.0, 0);
        let [mut a, mut b] = idle_pair();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let hooked = full_cycles_in(|| {
            chip().run_with_hook(&mut s, 6_000, 2_000, &mut |_| CycleControl::Normal)
        });
        assert_eq!(hooked.0, 0);

        // …and so do chips the kernel is not specialized for: a
        // three-stage PDN (6 states) and a single core.
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let stages = cfg.pdn.stages()[..3].to_vec();
        cfg.pdn = LadderConfig::new("three-stage", stages, cfg.pdn.nominal_voltage()).unwrap();
        let mut three = Chip::new(cfg).unwrap();
        assert!(!three.runs_fused());
        let [mut a, mut b] = idle_pair();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        assert_eq!(full_cycles_in(|| three.run(&mut s, 6_000, 2_000)).0, 0);
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.num_cores = 1;
        let mut single = Chip::new(cfg).unwrap();
        assert!(!single.runs_fused());
        let mut a = IdleLoop::new(0);
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a];
        assert_eq!(full_cycles_in(|| single.run(&mut s, 6_000, 2_000)).0, 0);

        // Sessions never run the complete kernel: `run_slice` is the
        // reference loop, `run_slice_fast` the lean kernel.
        let [mut a, mut b] = idle_pair();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let mut session = ChipSession::begin(chip(), &mut warm, 2_000).unwrap();
        let (full, _) = full_cycles_in(|| {
            let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
            session.run_slice(&mut s, 2_000).unwrap();
            session
                .run_slice_fast(
                    || StimulusSource::next(&mut a),
                    || StimulusSource::next(&mut b),
                    2_000,
                )
                .unwrap();
        });
        assert_eq!(full, 0);
        assert_eq!(session.lean_cycles, 2_000);
    }

    #[test]
    fn lean_sessions_refuse_to_hand_out_stats() {
        // sphinx3 over 10 × 600 cycles. The lean kernel feeds neither
        // the sensor nor the overshoot grid, so its stats would hold 0
        // samples, 0 % swing and 0 % droop next to the reference
        // session's 6 000 samples.
        let w = by_name("482.sphinx3").unwrap();
        let slice = 600u64;
        let reference = {
            let mut s = w.stream(0, slice);
            let mut idle = IdleLoop::default();
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            let mut session = ChipSession::begin(chip(), &mut warm, slice).unwrap();
            for _ in 0..10 {
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
                session.run_slice(&mut sources, slice).unwrap();
            }
            session.finish().unwrap()
        };
        assert_eq!(reference.sensor.histogram().total(), 6_000);
        assert!(reference.peak_to_peak_pct() > 0.0 && reference.max_droop_pct() > 0.0);

        let mut s = w.stream(0, slice);
        let mut idle = IdleLoop::default();
        let mut session = ChipSession::begin_fast(
            chip(),
            || StimulusSource::next(&mut s),
            || StimulusSource::next(&mut idle),
            slice,
        )
        .unwrap();
        for _ in 0..10 {
            session
                .run_slice_fast(
                    || StimulusSource::next(&mut s),
                    || StimulusSource::next(&mut idle),
                    slice,
                )
                .unwrap();
        }
        let lean = Err(ChipError::IncompleteStats { lean_cycles: 6_000 });
        assert_eq!(session.stats(), lean);
        assert_eq!(session.finish(), lean);

        // A fused warm-up measures nothing, so a session that began
        // fast but ran reference slices hands out the reference stats.
        let mut s = w.stream(0, slice);
        let mut idle = IdleLoop::default();
        let mut session = ChipSession::begin_fast(
            chip(),
            || StimulusSource::next(&mut s),
            || StimulusSource::next(&mut idle),
            slice,
        )
        .unwrap();
        for _ in 0..10 {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, slice).unwrap();
        }
        assert_eq!(session.finish(), Ok(reference));
    }

    #[test]
    fn fused_pdn_step_matches_reference_bits() {
        let mut c = chip();
        let cache = FastCache::build(&c).unwrap();
        let mut x = [0.0f64; 8];
        x.copy_from_slice(c.pdn.state());
        for k in 0..5_000 {
            let u0 = 1.25 + (k as f64 * 0.01).sin() * 0.05;
            let u1 = 10.0 + (k as f64 * 0.03).cos() * 4.0;
            let fast = step_pdn(&cache, &mut x, u0, u1);
            let reference = c.pdn.step_first(&[u0, u1]);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "cycle {k}: fused output diverged"
            );
        }
        for (f, r) in x.iter().zip(c.pdn.state()) {
            assert_eq!(f.to_bits(), r.to_bits(), "state vector diverged");
        }
    }

    #[test]
    fn fast_warmup_matches_reference_warmup_bits() {
        let reference = {
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
            ChipSession::begin(chip(), &mut warm, 2_000).unwrap()
        };
        let fast = {
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            ChipSession::begin_fast(
                chip(),
                || StimulusSource::next(&mut i0),
                || StimulusSource::next(&mut i1),
                2_000,
            )
            .unwrap()
        };
        assert_chip_state_eq(reference.chip(), fast.chip());
    }

    /// Drives the same seeded workload/idle pair through the reference
    /// slice loop and the fused kernel and asserts every observable is
    /// bit-identical: slice stats, droop crossings, and the full chip
    /// electrical state (checked by running a further *reference* slice
    /// on both sessions and comparing again).
    #[test]
    fn fast_slices_match_reference_slices_bits() {
        let w = by_name("482.sphinx3").unwrap();
        let slice = 2_000u64;
        let slices = 12;

        let run_reference = |capture: bool| {
            let mut s = w.stream(7, slice);
            s.set_looping(true);
            let mut idle = IdleLoop::new(3);
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
            let mut session = ChipSession::begin(chip(), &mut warm, slice).unwrap();
            if capture {
                session.capture_droops(2.5);
            }
            let mut stats = Vec::new();
            let mut crossings = Vec::new();
            for _ in 0..slices {
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
                stats.push(session.run_slice(&mut sources, slice).unwrap());
                crossings.extend(session.take_droop_crossings());
            }
            (session, stats, crossings)
        };
        let run_fast = |capture: bool| {
            let mut s = w.stream(7, slice);
            s.set_looping(true);
            let mut idle = IdleLoop::new(3);
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            let mut session = ChipSession::begin_fast(
                chip(),
                || StimulusSource::next(&mut i0),
                || StimulusSource::next(&mut i1),
                slice,
            )
            .unwrap();
            if capture {
                session.capture_droops(2.5);
            }
            let mut stats = Vec::new();
            let mut crossings = Vec::new();
            for _ in 0..slices {
                // Hoist the mix exactly the way the serving shard does.
                let mix = s.current_prepared();
                stats.push(
                    session
                        .run_slice_fast(
                            || s.step_prepared(&mix),
                            || StimulusSource::next(&mut idle),
                            slice,
                        )
                        .unwrap(),
                );
                crossings.extend(session.take_droop_crossings());
            }
            (session, stats, crossings)
        };

        for capture in [false, true] {
            let (mut ref_session, ref_stats, ref_crossings) = run_reference(capture);
            let (mut fast_session, fast_stats, fast_crossings) = run_fast(capture);
            assert_eq!(ref_stats, fast_stats, "slice stats diverged");
            assert_eq!(ref_crossings, fast_crossings, "crossings diverged");
            if capture {
                assert!(!ref_crossings.is_empty(), "scenario needs droops");
            }
            assert_eq!(
                ref_session.measured_cycles(),
                fast_session.measured_cycles()
            );
            assert_chip_state_eq(ref_session.chip(), fast_session.chip());
            // One further reference slice on both sessions: any hidden
            // state divergence would surface here.
            let mut a0 = IdleLoop::new(11);
            let mut a1 = IdleLoop::new(12);
            let mut b0 = IdleLoop::new(11);
            let mut b1 = IdleLoop::new(12);
            let mut sa: Vec<&mut dyn StimulusSource> = vec![&mut a0, &mut a1];
            let mut sb: Vec<&mut dyn StimulusSource> = vec![&mut b0, &mut b1];
            let tail_ref = ref_session.run_slice(&mut sa, slice).unwrap();
            let tail_fast = fast_session.run_slice(&mut sb, slice).unwrap();
            assert_eq!(tail_ref, tail_fast, "post-slice reference runs diverged");
        }
    }

    #[test]
    fn unaligned_or_windowed_slices_fall_back_to_reference() {
        let mut i0 = IdleLoop::new(0);
        let mut i1 = IdleLoop::new(1);
        let mut session = ChipSession::begin_fast(
            chip(),
            || StimulusSource::next(&mut i0),
            || StimulusSource::next(&mut i1),
            2_000,
        )
        .unwrap();
        // A half-interval slice cannot use the fused kernel…
        assert!(!fast_slice_supported(&session.state, 1_000));
        let mut a = IdleLoop::new(2);
        let mut b = IdleLoop::new(3);
        let s = session
            .run_slice_fast(
                || StimulusSource::next(&mut a),
                || StimulusSource::next(&mut b),
                1_000,
            )
            .unwrap();
        assert_eq!(s.cycles, 1_000);
        // …and the session is now unaligned, so full-interval slices
        // fall back too until the boundary is restored. Fallback slices
        // run the reference loop, so the statistics stay complete.
        assert!(!fast_slice_supported(&session.state, 2_000));
        assert_eq!(session.lean_cycles, 0);
        assert!(session.stats().is_ok());
        // Windows force the reference loop outright.
        let mut windowed = {
            let mut w0 = IdleLoop::new(4);
            let mut w1 = IdleLoop::new(5);
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
            ChipSession::begin(chip(), &mut warm, 2_000).unwrap()
        };
        windowed.enable_profiling(2.5, crate::window::WindowConfig::default());
        assert!(!fast_slice_supported(&windowed.state, 2_000));
    }

    fn assert_chip_state_eq(a: &Chip, b: &Chip) {
        assert_eq!(a.cycle, b.cycle, "cycle counter diverged");
        assert_eq!(a.vs.to_bits(), b.vs.to_bits(), "regulator vs diverged");
        assert_eq!(a.i_avg.to_bits(), b.i_avg.to_bits(), "i_avg diverged");
        assert_eq!(a.last_v.to_bits(), b.last_v.to_bits(), "last_v diverged");
        for (xa, xb) in a.pdn.state().iter().zip(b.pdn.state()) {
            assert_eq!(xa.to_bits(), xb.to_bits(), "PDN state diverged");
        }
        assert_eq!(a.core_counters(), b.core_counters(), "counters diverged");
        for core in 0..2 {
            assert_eq!(
                a.core_current(core).to_bits(),
                b.core_current(core).to_bits(),
                "core {core} current diverged"
            );
        }
    }
}

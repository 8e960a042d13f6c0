//! Fused step: the chip's per-cycle physics monomorphized and flattened
//! over fixed-size arrays.
//!
//! The reference step ([`Chip::step_cycle`]) walks a `Vec`-backed
//! state-space model through bounds-checked `Mat` indexing, dispatches
//! stimulus sources through `&mut dyn`, and recomputes the VRM ripple
//! phase with a division every cycle. None of that changes the physics
//! — it is pure interpretation overhead.
//!
//! [`FusedStep`] specializes the step for the platform's shape (2-core
//! chip, 8-state PDN with 2 inputs): fixed-size arrays, closure-typed
//! sources, a one-period ripple table, and the electrical state held
//! in the step, written back to the chip when the loop ends. It
//! reproduces the reference floating-point accumulation order
//! *exactly* — same adds, same order, same clamps — so every value is
//! bit-identical; the identity tests at the bottom of this file and
//! testkit's P5 property enforce that. The crate's one
//! measurement loop (`MeasureState::run`) drives both steps, so on a
//! chip [`FastCache::build`] accepts every measurement runs fused —
//! captures, waveform windows, traces, rollback hooks, invariants, any
//! slice length — except [`ChipSession::begin`](crate::ChipSession::begin)
//! and [`ChipSession::run_slice`](crate::ChipSession::run_slice).
//!
//! The loop comes in two flavours, picked by `const FULL: bool`:
//!
//! * `FULL = true` also feeds the voltage sensor's histogram/summary and
//!   the overshoot grid, so the [`RunStats`](crate::RunStats) are
//!   complete: [`Chip::run`] and its siblings, and with them the paper's
//!   campaign, the fleet sweeps, the pair oracle and the probes.
//! * `FULL = false` (lean) skips those two channels:
//!   [`ChipSession::run_slice_fast`](crate::ChipSession::run_slice_fast),
//!   so the serving shards, which read no `RunStats` and would lose about
//!   a fifth of their throughput to them. A session that ran lean
//!   cycles refuses to hand out `RunStats` ([`ChipError::IncompleteStats`]).

use crate::chip::Chip;
use crate::session::{self, MeasureState, PhysicsStep, SliceStats};
use crate::ChipError;
use vsmooth_uarch::{Core, CycleStimulus, StimulusSource};

/// Largest ripple period we precompute a lookup table for. The
/// platform's VRM switches every 1 900 cycles; anything vastly larger
/// would just waste cache, so such configs run the reference step.
const MAX_RIPPLE_TABLE: u64 = 1 << 16;

/// Adapter exposing a closure as a [`StimulusSource`], so callers that
/// hold closure-typed sources can still run the reference step on a
/// chip the fused step does not cover.
pub(crate) struct FnSource<F: FnMut() -> CycleStimulus + Send>(pub(crate) F);

impl<F: FnMut() -> CycleStimulus + Send> StimulusSource for FnSource<F> {
    fn next(&mut self) -> CycleStimulus {
        (self.0)()
    }

    fn name(&self) -> &str {
        "closure"
    }
}

/// Precomputed coefficients for the fused step: the discretized PDN
/// matrices copied into fixed-size arrays plus the VRM ripple unrolled
/// into a one-period lookup table.
///
/// Matrices and ripple are immutable after [`Chip::new`], so the cache
/// is built once per session; only the electrical state is copied in
/// and written back around each run of the loop.
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

    /// [`Chip::warm_up`] on the fused step: bit-identical over the same
    /// sources.
    pub(crate) fn warm_up<S0, S1>(&self, chip: &mut Chip, s0: S0, s1: S1)
    where
        S0: FnMut() -> CycleStimulus,
        S1: FnMut() -> CycleStimulus,
    {
        let cycles = chip.cfg.warmup_cycles;
        self.with_step(chip, true, s0, s1, |step| session::warm_up(step, cycles));
        chip.reset_counters();
    }

    /// Runs `f` on a fused step over `chip`, then writes the step's
    /// electrical state back. `warmup` selects the regulator's
    /// accelerated warm-up trim, as in [`Chip::step_cycle`].
    pub(crate) fn with_step<S0, S1, R>(
        &self,
        chip: &mut Chip,
        warmup: bool,
        s0: S0,
        s1: S1,
        f: impl FnOnce(&mut FusedStep<'_, S0, S1>) -> R,
    ) -> R
    where
        S0: FnMut() -> CycleStimulus,
        S1: FnMut() -> CycleStimulus,
    {
        let reg = chip.cfg.regulator;
        let vnom = chip.nominal_voltage();
        let boost = if warmup { 50.0 } else { 1.0 };
        let mut x = [0.0f64; 8];
        x.copy_from_slice(chip.pdn.state());
        let Ok(cores) = <&mut [Core; 2]>::try_from(chip.cores.as_mut_slice()) else {
            unreachable!("FastCache only accepts two-core chips")
        };
        let mut step = FusedStep {
            cache: self,
            ripple: &self.ripple,
            cores,
            s0,
            s1,
            x,
            vs: chip.vs,
            i_avg: chip.i_avg,
            last_v: chip.last_v,
            phase: (chip.cycle % self.ripple.len() as u64) as usize,
            cycles: 0,
            has_reg: reg.gain > 0.0,
            ema: (reg.current_ema * boost).min(0.05),
            base: vnom - reg.offset_volts,
            rll: chip.cfg.pdn.total_series_resistance() - reg.load_line_ohms,
            clamp: (vnom * 0.9, vnom * 1.1),
        };
        let out = f(&mut step);
        chip.pdn.set_state(&step.x);
        chip.cycle += step.cycles;
        chip.vs = step.vs;
        chip.i_avg = step.i_avg;
        chip.last_v = step.last_v;
        #[cfg(test)]
        FUSED_CYCLES.set(FUSED_CYCLES.get() + step.cycles);
        out
    }
}

#[cfg(test)]
thread_local! {
    /// Cycles this thread ran on the fused step (warm-up included), so
    /// the routing tests can see which step a measurement took.
    pub(crate) static FUSED_CYCLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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

/// The fused step over a two-core chip: [`Chip::step_cycle`]'s physics
/// (stimulus → core tick → regulator trim → PDN step → ripple) with the
/// electrical state held here instead of in the chip, and written back
/// by [`FastCache::with_step`].
pub(crate) struct FusedStep<'c, S0, S1> {
    cache: &'c FastCache,
    /// `cache.ripple`, borrowed once so the per-cycle lookup and wrap
    /// read no pointer through `cache`.
    ripple: &'c [f64],
    cores: &'c mut [Core; 2],
    s0: S0,
    s1: S1,
    x: [f64; 8],
    vs: f64,
    i_avg: f64,
    last_v: f64,
    phase: usize,
    /// Cycles stepped so far (the chip's cycle counter advances by this).
    cycles: u64,
    has_reg: bool,
    ema: f64,
    base: f64,
    rll: f64,
    clamp: (f64, f64),
}

impl<S0, S1> PhysicsStep for FusedStep<'_, S0, S1>
where
    S0: FnMut() -> CycleStimulus,
    S1: FnMut() -> CycleStimulus,
{
    #[inline(always)]
    fn step(&mut self, recovery: bool) -> f64 {
        let [core0, core1] = &mut *self.cores;
        let mut total = 0.0;
        if recovery {
            total += core0.tick(CycleStimulus::Idle);
            total += core1.tick(CycleStimulus::Idle);
        } else {
            total += core0.tick((self.s0)());
            total += core1.tick((self.s1)());
        }
        if self.has_reg {
            self.i_avg += self.ema * (total - self.i_avg);
            self.vs = (self.base + self.i_avg * self.rll).clamp(self.clamp.0, self.clamp.1);
        }
        let v = step_pdn(self.cache, &mut self.x, self.vs, total);
        self.last_v = v;
        let sensed = v + self.ripple[self.phase];
        self.phase += 1;
        if self.phase == self.ripple.len() {
            self.phase = 0;
        }
        self.cycles += 1;
        sensed
    }

    #[inline(always)]
    fn cores(&self) -> &[Core] {
        &self.cores[..]
    }
}

/// Closure-sourced entry points on [`ChipSession`](crate::ChipSession):
/// the serving runtime's shard workers hold concrete stream/idle state
/// and drive sessions through these instead of `&mut dyn` source
/// slices.
impl crate::ChipSession {
    /// Like [`begin`](crate::ChipSession::begin), but warm-up sources
    /// are closures and the warm-up runs on the fused step when the
    /// chip qualifies (on the reference step when not). Bit-identical
    /// to `begin` over equivalent sources.
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
        let Some(cache) = FastCache::build(&chip) else {
            let mut w0 = FnSource(s0);
            let mut w1 = FnSource(s1);
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
            return Self::begin(chip, &mut sources, interval_cycles);
        };
        let mut chip = chip;
        cache.warm_up(&mut chip, s0, s1);
        Ok(Self {
            state: MeasureState::new(&chip, interval_cycles),
            chip,
            fast: Some(cache),
            lean_cycles: 0,
        })
    }

    /// Like [`run_slice`](crate::ChipSession::run_slice), but with
    /// closure-typed sources, on the lean fused step whenever the chip
    /// qualifies (on the reference step via `FnSource` when not). A
    /// slice may be any length and every armed observer — crossing
    /// capture, waveform windows, the invariant checker — rides along;
    /// the returned [`SliceStats`], droop crossings, windows, invariant
    /// report, droop grid and interval timeline are bit-identical
    /// either way. The lean step is what the serving shards run: it
    /// skips the voltage sensor and the overshoot grid, which no serve
    /// caller reads and which would cost them about a fifth of their
    /// throughput. So once a slice has run lean,
    /// [`stats`](crate::ChipSession::stats) and
    /// [`finish`](crate::ChipSession::finish) return
    /// [`ChipError::IncompleteStats`] instead of under-counted
    /// `RunStats`; callers that need them use `run_slice`, or a one-shot
    /// [`Chip::run`], which runs the complete fused step.
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
        if self.fast.is_none() {
            self.fast = FastCache::build(&self.chip);
        }
        let Some(cache) = self.fast.as_ref() else {
            let mut w0 = FnSource(s0);
            let mut w1 = FnSource(s1);
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
            return self.run_slice(&mut sources, cycles);
        };
        let state = &mut self.state;
        self.lean_cycles += cycles;
        Ok(cache.with_step(&mut self.chip, false, s0, s1, |step| {
            state.run::<false, _>(step, cycles, None, None)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::invariant::InvariantConfig;
    use crate::resilient::{with_rollback, CycleControl};
    use crate::runner::{Capture, Captured};
    use crate::session::ReferenceStep;
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

    /// The reference step's one-shot measurement, as `Chip::run_inner`
    /// runs it on chips the fused step does not cover: reference
    /// warm-up, then the measurement loop on the reference step over
    /// every cycle, with the same observers armed.
    fn reference_run(
        mut chip: Chip,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        capture: Capture,
        trace: Option<(&mut Vec<f64>, u64)>,
        hook: Option<&mut dyn FnMut(f64) -> CycleControl>,
    ) -> Captured {
        chip.warm_up(sources);
        let mut state = MeasureState::new(&chip, interval_cycles);
        state.arm(&chip, capture);
        let mut step = ReferenceStep {
            chip: &mut chip,
            sources,
            warmup: false,
        };
        state.run::<true, _>(&mut step, cycles, trace, hook);
        Captured {
            crossings: state.take_droop_crossings(),
            windows: state.flush_droop_windows(&chip),
            stats: state.into_stats(&chip),
        }
    }

    /// Cycles the fused step ran on this thread during `f`.
    fn fused_cycles_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = FUSED_CYCLES.get();
        let out = f();
        (FUSED_CYCLES.get() - before, out)
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

    fn dyn_sources(boxes: &mut [Box<dyn StimulusSource>]) -> Vec<&mut dyn StimulusSource> {
        boxes
            .iter_mut()
            .map(|b| -> &mut dyn StimulusSource { &mut **b })
            .collect()
    }

    /// Measures one run shape through `Chip::run_captured` and through
    /// the reference step, `tail` cycles past its last whole interval,
    /// and asserts the two agree with every cycle run fused.
    fn assert_fused_matches_reference(
        cfg: &ChipConfig,
        cpi: u64,
        kind: usize,
        capture: Capture,
        tail: u64,
    ) {
        let run = |fused: bool| {
            let (mut boxes, cycles) = shape(kind, cpi);
            let mut sources = dyn_sources(&mut boxes);
            let mut chip = Chip::new(cfg.clone()).unwrap();
            if fused {
                fused_cycles_in(|| {
                    let run = chip.run_captured(&mut sources, cycles + tail, cpi, capture);
                    run.unwrap()
                })
            } else {
                let run =
                    reference_run(chip, &mut sources, cycles + tail, cpi, capture, None, None);
                (cfg.warmup_cycles + cycles + tail, run)
            }
        };
        let (fused_cycles, fused) = run(true);
        let (all_cycles, reference) = run(false);
        let at = format!("cpi {cpi}, shape {kind}, {capture:?}, tail {tail}");
        assert_eq!(fused_cycles, all_cycles, "{at}: not every cycle ran fused");
        assert_eq!(fused, reference, "{at}");
        if !matches!(capture, Capture::None) {
            assert!(!fused.crossings.is_empty(), "{at}: no droops to compare");
        }
        if matches!(capture, Capture::Windows(..)) {
            assert_eq!(fused.windows.len(), fused.crossings.len(), "{at}");
        }
    }

    #[test]
    fn one_shot_runs_equal_the_reference_step() {
        // Interval lengths that do (4 000) and do not (3 000, 7 001,
        // 30 000) divide the 8 000-cycle warm-up, so streams change mix
        // in mid-interval; the looping pair restarts astar inside
        // `next()`.
        let windows = Capture::Windows(
            2.5,
            WindowConfig {
                pre_cycles: 40,
                post_cycles: 70,
                capture_currents: true,
            },
        );
        for decap in [DecapConfig::proc100(), DecapConfig::proc3()] {
            let cfg = ChipConfig::core2_duo(decap);
            for cpi in [3_000, 4_000, 7_001, 30_000] {
                for kind in 0..3 {
                    for capture in [Capture::None, Capture::Crossings(2.5), windows] {
                        assert_fused_matches_reference(&cfg, cpi, kind, capture, 0);
                    }
                }
            }
        }
        // A partial final interval, which no campaign caller produces,
        // pushes no timeline entry; the countdown carries it fused.
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        for kind in 0..3 {
            assert_fused_matches_reference(&cfg, 3_000, kind, windows, 1_234);
        }
    }

    #[test]
    fn traced_runs_equal_the_reference_step() {
        // The Fig. 11 probe: the raw sensed waveform of the first
        // `limit` measured cycles, next to the run's statistics.
        let (cycles, cpi, limit) = (12_000, 3_000, 5_000);
        let w = by_name("482.sphinx3").unwrap();
        let (mut s, mut idle) = (w.stream(0, cpi), IdleLoop::default());
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let (fused_cycles, fused) = fused_cycles_in(|| {
            chip()
                .run_with_trace(&mut sources, cycles, cpi, limit)
                .unwrap()
        });
        let (mut s, mut idle) = (w.stream(0, cpi), IdleLoop::default());
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut trace = Vec::new();
        let reference = reference_run(
            chip(),
            &mut sources,
            cycles,
            cpi,
            Capture::None,
            Some((&mut trace, limit)),
            None,
        );
        assert_eq!(fused_cycles, 8_000 + cycles);
        assert_eq!(fused.1.len() as u64, limit);
        assert_eq!(fused.1, trace, "trace buffers diverged");
        assert_eq!(fused.0, reference.stats);
    }

    #[test]
    fn resilient_runs_equal_the_reference_step() {
        // Proc3 at a 4.5 % margin with 200-cycle rollbacks: the
        // detector fires, so recovery cycles idle both cores mid-run.
        let cfg = ChipConfig::core2_duo(DecapConfig::proc3());
        let (cycles, cpi, margin, cost) = (60_000, 20_000, 4.5, 200);
        let w = by_name("482.sphinx3").unwrap();
        let (mut s, mut idle) = (w.stream(0, 4_000), IdleLoop::default());
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut c = Chip::new(cfg.clone()).unwrap();
        let (fused_cycles, fused) = fused_cycles_in(|| {
            c.run_resilient(&mut sources, cycles, cpi, margin, cost)
                .unwrap()
        });
        let (mut s, mut idle) = (w.stream(0, 4_000), IdleLoop::default());
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let c = Chip::new(cfg).unwrap();
        let reference = with_rollback(c.nominal_voltage(), margin, cost, |hook| {
            let run = reference_run(
                c,
                &mut sources,
                cycles,
                cpi,
                Capture::None,
                None,
                Some(hook),
            );
            Ok(run.stats)
        })
        .unwrap();
        assert_eq!(fused_cycles, 8_000 + cycles);
        assert!(fused.emergencies > 0 && fused.recovery_cycles > 0);
        assert_eq!(fused, reference);
    }

    #[test]
    fn measurements_route_to_the_kernel_that_can_run_them() {
        fn idle_pair() -> [IdleLoop; 2] {
            [IdleLoop::new(0), IdleLoop::new(1)]
        }
        for decap in [
            DecapConfig::proc100(),
            DecapConfig::proc25(),
            DecapConfig::proc3(),
        ] {
            let cfg = ChipConfig::core2_duo(decap);
            let chip = || Chip::new(cfg.clone()).unwrap();
            let all = cfg.warmup_cycles + 6_000;
            // Every one-shot measurement warms up and measures on the
            // fused step, whatever it observes…
            let one_shot = |run: &dyn Fn(&mut Chip, &mut [&mut dyn StimulusSource])| {
                let [mut a, mut b] = idle_pair();
                let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
                let mut c = chip();
                fused_cycles_in(|| run(&mut c, &mut s)).0
            };
            assert_eq!(one_shot(&|c, s| drop(c.run(s, 6_000, 2_000))), all);
            for capture in [
                Capture::None,
                Capture::Crossings(2.5),
                Capture::Windows(2.5, WindowConfig::default()),
            ] {
                let fused = one_shot(&|c, s| drop(c.run_captured(s, 6_000, 2_000, capture)));
                assert_eq!(fused, all, "{capture:?}");
            }
            assert_eq!(
                one_shot(&|c, s| drop(c.run_with_trace(s, 6_000, 2_000, 100))),
                all
            );
            assert_eq!(
                one_shot(&|c, s| drop(c.run_resilient(s, 6_000, 2_000, 2.3, 100))),
                all
            );

            // …and so does every session slice but `begin` and
            // `run_slice`, which keep the reference step: armed,
            // unaligned or plain, a `run_slice_fast` slice runs fused.
            let [mut a, mut b] = idle_pair();
            let (fused, mut session) = fused_cycles_in(|| {
                let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
                ChipSession::begin(chip(), &mut warm, 2_000).unwrap()
            });
            assert_eq!(fused, 0);
            session.enable_profiling(2.5, WindowConfig::default());
            session.enable_invariants(InvariantConfig::default());
            let (fused, _) = fused_cycles_in(|| {
                let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
                session.run_slice(&mut s, 2_000).unwrap()
            });
            assert_eq!(fused, 0);
            let (fused, _) = fused_cycles_in(|| {
                let s0 = || StimulusSource::next(&mut a);
                session.run_slice_fast(s0, || StimulusSource::next(&mut b), 1_000)
            });
            assert_eq!(fused, 1_000);
            let (fused, _) = fused_cycles_in(|| {
                let (s0, s1) = (|| StimulusSource::next(&mut a), || IdleLoop::new(1).next());
                ChipSession::begin_fast(chip(), s0, s1, 2_000).unwrap()
            });
            assert_eq!(fused, cfg.warmup_cycles);
        }

        // Chips the fused step is not specialized for run the reference
        // step everywhere: a three-stage PDN (6 states) and a single
        // core.
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let stages = cfg.pdn.stages()[..3].to_vec();
        cfg.pdn = LadderConfig::new("three-stage", stages, cfg.pdn.nominal_voltage()).unwrap();
        let mut three = Chip::new(cfg.clone()).unwrap();
        assert!(!three.runs_fused());
        let [mut a, mut b] = idle_pair();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let capture = Capture::Windows(2.5, WindowConfig::default());
        assert_eq!(
            fused_cycles_in(|| three.run_captured(&mut s, 6_000, 2_000, capture)).0,
            0
        );
        let [mut a, mut b] = idle_pair();
        let (fused, mut session) = fused_cycles_in(|| {
            let (s0, s1) = (|| StimulusSource::next(&mut a), || IdleLoop::new(1).next());
            ChipSession::begin_fast(Chip::new(cfg).unwrap(), s0, s1, 2_000).unwrap()
        });
        let (fused_slice, _) = fused_cycles_in(|| {
            let s0 = || StimulusSource::next(&mut a);
            session.run_slice_fast(s0, || StimulusSource::next(&mut b), 2_000)
        });
        assert_eq!((fused, fused_slice, session.lean_cycles), (0, 0, 0));
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.num_cores = 1;
        let mut single = Chip::new(cfg).unwrap();
        assert!(!single.runs_fused());
        let mut a = IdleLoop::new(0);
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a];
        assert_eq!(fused_cycles_in(|| single.run(&mut s, 6_000, 2_000)).0, 0);
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

    /// Everything a session's slices observed, drained after each slice
    /// (windows flushed at the end).
    #[derive(Debug, PartialEq)]
    struct Observed {
        stats: Vec<SliceStats>,
        crossings: Vec<crate::DroopCrossing>,
        windows: Vec<crate::DroopWindow>,
        /// The invariant report's `Debug` rendering (`None` unarmed).
        invariants: String,
    }

    /// Drives the same seeded workload/idle pair through `slices`
    /// slices of `slice` cycles on a reference session (`begin` +
    /// `run_slice`) or a fast one (`begin_fast` + `run_slice_fast`,
    /// hoisting the stream's mix the way the serving shard does), with
    /// crossing capture at 2.5 % if `capture`, and waveform windows and
    /// the invariant checker if `armed`.
    fn observed_session(
        fast: bool,
        (capture, armed): (bool, bool),
        slice: u64,
        slices: u64,
    ) -> (ChipSession, Observed) {
        let w = by_name("482.sphinx3").unwrap();
        let interval = 2_000;
        let mut s = w.stream(7, interval);
        s.set_looping(true);
        let mut idle = IdleLoop::new(3);
        let (mut i0, mut i1) = (IdleLoop::new(0), IdleLoop::new(1));
        let mut session = if fast {
            let (w0, w1) = (|| i0.next(), || i1.next());
            ChipSession::begin_fast(chip(), w0, w1, interval).unwrap()
        } else {
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
            ChipSession::begin(chip(), &mut warm, interval).unwrap()
        };
        if capture {
            session.capture_droops(2.5);
        }
        if armed {
            let window = WindowConfig {
                pre_cycles: 48,
                post_cycles: 80,
                capture_currents: true,
            };
            session.enable_profiling(2.5, window);
            session.enable_invariants(InvariantConfig::default());
        }
        let mut seen = Observed {
            stats: Vec::new(),
            crossings: Vec::new(),
            windows: Vec::new(),
            invariants: String::new(),
        };
        for _ in 0..slices {
            let stats = if fast {
                let mix = s.current_prepared();
                let s0 = || s.step_prepared(&mix);
                session.run_slice_fast(s0, || StimulusSource::next(&mut idle), slice)
            } else {
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
                session.run_slice(&mut sources, slice)
            };
            seen.stats.push(stats.unwrap());
            seen.crossings.extend(session.take_droop_crossings());
            seen.windows.extend(session.take_droop_windows());
        }
        seen.windows.extend(session.flush_droop_windows());
        seen.invariants = format!("{:?}", session.invariant_report());
        (session, seen)
    }

    /// Drives the same seeded workload/idle pair through the reference
    /// slice loop and the fused step and asserts every observable is
    /// bit-identical: slice stats, droop crossings, and the full chip
    /// electrical state (checked by running a further *reference* slice
    /// on both sessions and comparing again).
    #[test]
    fn fast_slices_match_reference_slices_bits() {
        // Whole intervals unobserved, then with crossings, windows and
        // invariants armed, then half intervals with crossings, which
        // start and end mid-interval.
        for (observers, slice, slices) in [
            ((false, false), 2_000, 12),
            ((true, true), 2_000, 12),
            ((true, false), 1_000, 23),
        ] {
            let (mut ref_session, reference) = observed_session(false, observers, slice, slices);
            let (mut fast_session, fast) = observed_session(true, observers, slice, slices);
            let (capture, armed) = observers;
            let at = format!("capture {capture}, armed {armed}, slice {slice}");
            assert_eq!(reference, fast, "{at}: observations diverged");
            assert_eq!(
                reference.crossings.is_empty(),
                !capture,
                "{at}: scenario needs droops"
            );
            assert_eq!(fast_session.lean_cycles, slice * slices, "{at}");
            if armed {
                assert_eq!(reference.windows.len(), reference.crossings.len(), "{at}");
                let report = fast_session.invariant_report().expect("armed");
                assert!(report.is_clean() && report.cycles_checked == slice * slices);
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
            assert_eq!(
                tail_ref, tail_fast,
                "{at}: post-slice reference runs diverged"
            );
        }
    }

    #[test]
    fn unaligned_and_windowed_slices_run_lean() {
        let mut i0 = IdleLoop::new(0);
        let mut i1 = IdleLoop::new(1);
        let mut session = ChipSession::begin_fast(
            chip(),
            || StimulusSource::next(&mut i0),
            || StimulusSource::next(&mut i1),
            2_000,
        )
        .unwrap();
        // A half-interval slice runs on the lean fused step…
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
        assert_eq!(session.lean_cycles, 1_000);
        // …and so does a whole interval from the unaligned position, so
        // the statistics are incomplete.
        session
            .run_slice_fast(
                || StimulusSource::next(&mut a),
                || StimulusSource::next(&mut b),
                2_000,
            )
            .unwrap();
        assert_eq!(session.lean_cycles, 3_000);
        let lean = Err(ChipError::IncompleteStats { lean_cycles: 3_000 });
        assert_eq!(session.stats(), lean);
        // Windows ride the lean step too, on a session that warmed up on
        // the reference step.
        let mut windowed = {
            let mut w0 = IdleLoop::new(4);
            let mut w1 = IdleLoop::new(5);
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
            ChipSession::begin(chip(), &mut warm, 2_000).unwrap()
        };
        windowed.enable_profiling(2.5, WindowConfig::default());
        windowed
            .run_slice_fast(
                || StimulusSource::next(&mut a),
                || StimulusSource::next(&mut b),
                2_000,
            )
            .unwrap();
        assert_eq!(windowed.lean_cycles, 2_000);
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
        for (core, (ca, cb)) in a.cores.iter().zip(&b.cores).enumerate() {
            assert_eq!(
                ca.current().to_bits(),
                cb.current().to_bits(),
                "core {core} current diverged"
            );
        }
    }
}

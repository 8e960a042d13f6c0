//! Physics and bookkeeping invariant checking for chip measurements.
//!
//! The simulator asserts its own conservation laws: every measured
//! cycle must produce a finite die voltage inside a physically
//! plausible band, core currents can never go negative, the virtual
//! clock only moves forward, and the aggregate bookkeeping (droop
//! grids, per-interval rates, per-slice counter deltas) must agree
//! with an *independently maintained* shadow count. The checker plugs
//! into [`ChipSession`](crate::ChipSession) behind the same
//! `Option`-gated hook as droop capture and window profiling — a
//! disarmed session pays one untaken branch per cycle, nothing more.
//!
//! Checked invariants (see `DESIGN.md` §10 for tolerances):
//!
//! 1. **Voltage finite** — the sensed die voltage is never NaN/∞.
//! 2. **Voltage in bounds** — |deviation| stays within a configured
//!    band around nominal (default ±50%).
//! 3. **Current nonnegative** — every per-core current draw is finite
//!    and ≥ 0 every cycle.
//! 4. **Monotone virtual clock** — measured cycles advance by exactly
//!    one, with no repeats or gaps.
//! 5. **Droop-count agreement** — an independent hysteresis counter at
//!    the quantized check margin must equal the [`CrossingGrid`]
//!    aggregate, every slice.
//! 6. **Counter/cycle conservation** — each per-slice
//!    [`PerfCounters`] delta spans exactly the slice's cycles, stall
//!    cycles never exceed cycles, and no stall-event count exceeds the
//!    cycle count.
//! 7. **Delta summation** — the running merge of per-slice counter
//!    deltas equals the chip's cumulative counters since arming (the
//!    slice telemetry is a lossless partition of the totals).

use crate::sense::CrossingGrid;
use crate::stats::PHASE_MARGIN_PCT;
use vsmooth_uarch::{Core, PerfCounters, StallEvent};

/// Configuration for the invariant checker.
#[derive(Debug, Clone)]
pub struct InvariantConfig {
    /// Margin (percent below nominal) at which the independent droop
    /// counter cross-checks the aggregate grid. Snapped to the nearest
    /// grid threshold at or above, exactly like droop capture.
    pub margin_pct: f64,
    /// Allowed |voltage deviation| from nominal, in percent. The PDN
    /// is a passive ladder behind a regulated supply; excursions
    /// beyond tens of percent mean the integrator diverged.
    pub voltage_band_pct: f64,
    /// At most this many violations are recorded verbatim; the rest
    /// are only counted (see [`InvariantReport::dropped`]).
    pub max_violations: usize,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self {
            margin_pct: PHASE_MARGIN_PCT,
            voltage_band_pct: 50.0,
            max_violations: 64,
        }
    }
}

/// What kind of invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InvariantKind {
    /// Sensed voltage was NaN or infinite.
    NonFiniteVoltage,
    /// |deviation| exceeded the configured band.
    VoltageOutOfBounds,
    /// A per-core current was negative or non-finite.
    NegativeCurrent,
    /// The measured-cycle clock repeated or skipped.
    ClockNotMonotone,
    /// The independent droop counter disagreed with the grid.
    DroopCountMismatch,
    /// A per-slice counter delta did not span the slice's cycles, or
    /// an event/stall count exceeded it.
    CounterConservation,
    /// Merged slice deltas stopped matching the cumulative counters.
    DeltaSummation,
}

impl InvariantKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            InvariantKind::NonFiniteVoltage => "non-finite-voltage",
            InvariantKind::VoltageOutOfBounds => "voltage-out-of-bounds",
            InvariantKind::NegativeCurrent => "negative-current",
            InvariantKind::ClockNotMonotone => "clock-not-monotone",
            InvariantKind::DroopCountMismatch => "droop-count-mismatch",
            InvariantKind::CounterConservation => "counter-conservation",
            InvariantKind::DeltaSummation => "delta-summation",
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Session-absolute measured cycle at which the violation was
    /// detected (slice-level checks report the slice's last cycle).
    pub cycle: u64,
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable detail (observed vs expected values).
    pub detail: String,
}

/// Snapshot of the checker's coverage and findings.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Cycles checked since arming.
    pub cycles_checked: u64,
    /// Slice boundaries checked since arming.
    pub slices_checked: u64,
    /// Recorded violations, oldest first (capped).
    pub violations: Vec<InvariantViolation>,
    /// Violations beyond the recording cap (counted, not stored).
    pub dropped: u64,
}

impl InvariantReport {
    /// `true` when every checked cycle and slice held every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }
}

/// Live checker state, armed via
/// [`ChipSession::enable_invariants`](crate::ChipSession::enable_invariants).
#[derive(Debug, Clone)]
pub(crate) struct InvariantState {
    cfg: InvariantConfig,
    /// Quantized cross-check margin (a grid threshold).
    margin_pct: f64,
    /// Independent hysteresis state for the shadow droop counter.
    below: bool,
    /// Shadow droop-event count since arming.
    shadow_droops: u64,
    /// Grid count at the quantized margin when the checker armed.
    grid_base: u64,
    /// Next measured cycle the checker expects to see.
    expected_cycle: Option<u64>,
    /// Cumulative per-core counters when the checker armed.
    counters_base: Vec<PerfCounters>,
    /// Running merge of every per-slice delta since arming.
    merged_deltas: Vec<PerfCounters>,
    cycles_checked: u64,
    slices_checked: u64,
    violations: Vec<InvariantViolation>,
    dropped: u64,
}

impl InvariantState {
    pub(crate) fn new(cores: &[Core], grid: &CrossingGrid, cfg: InvariantConfig) -> Self {
        let margin_pct = grid.quantized_margin(cfg.margin_pct);
        let counters_base: Vec<PerfCounters> = cores.iter().map(|c| *c.counters()).collect();
        Self {
            margin_pct,
            below: false,
            shadow_droops: 0,
            grid_base: grid.events_at(margin_pct),
            expected_cycle: None,
            merged_deltas: vec![PerfCounters::new(); counters_base.len()],
            counters_base,
            cfg,
            cycles_checked: 0,
            slices_checked: 0,
            violations: Vec::new(),
            dropped: 0,
        }
    }

    fn record(&mut self, cycle: u64, kind: InvariantKind, detail: String) {
        if self.violations.len() < self.cfg.max_violations {
            self.violations.push(InvariantViolation {
                cycle,
                kind,
                detail,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Per-cycle checks: voltage physics, current sign, clock
    /// monotonicity, and the shadow droop counter.
    pub(crate) fn on_cycle(&mut self, cores: &[Core], cycle: u64, v: f64, dev_pct: f64) {
        self.cycles_checked += 1;
        if !v.is_finite() {
            self.record(
                cycle,
                InvariantKind::NonFiniteVoltage,
                format!("sensed voltage {v}"),
            );
        } else if dev_pct.abs() > self.cfg.voltage_band_pct {
            self.record(
                cycle,
                InvariantKind::VoltageOutOfBounds,
                format!(
                    "deviation {dev_pct:.3}% exceeds ±{:.1}% band",
                    self.cfg.voltage_band_pct
                ),
            );
        }
        for (core, c) in cores.iter().enumerate() {
            let i = c.current();
            if !i.is_finite() || i < 0.0 {
                self.record(
                    cycle,
                    InvariantKind::NegativeCurrent,
                    format!("core {core} current {i}"),
                );
            }
        }
        match self.expected_cycle {
            Some(expected) if cycle != expected => {
                self.record(
                    cycle,
                    InvariantKind::ClockNotMonotone,
                    format!("measured cycle {cycle}, expected {expected}"),
                );
            }
            _ => {}
        }
        self.expected_cycle = Some(cycle + 1);
        // Shadow droop counter: same hysteresis rule as CrossingGrid —
        // one event per upward crossing of the (quantized) margin.
        let depth = -dev_pct;
        if depth >= self.margin_pct {
            if !self.below {
                self.below = true;
                self.shadow_droops += 1;
            }
        } else {
            self.below = false;
        }
    }

    /// Per-slice checks: counter conservation, delta summation, and
    /// the shadow-vs-grid droop-count cross-check.
    pub(crate) fn on_slice(
        &mut self,
        cores: &[Core],
        slice_cycles: u64,
        core_deltas: &[PerfCounters],
        grid: &CrossingGrid,
    ) {
        self.slices_checked += 1;
        let at = self.expected_cycle.map_or(0, |c| c.saturating_sub(1));
        for (core, delta) in core_deltas.iter().enumerate() {
            if delta.cycles() != slice_cycles {
                self.record(
                    at,
                    InvariantKind::CounterConservation,
                    format!(
                        "core {core} delta spans {} cycles, slice ran {slice_cycles}",
                        delta.cycles()
                    ),
                );
            }
            if delta.stall_cycles() > delta.cycles() {
                self.record(
                    at,
                    InvariantKind::CounterConservation,
                    format!(
                        "core {core} stall cycles {} exceed cycles {}",
                        delta.stall_cycles(),
                        delta.cycles()
                    ),
                );
            }
            if !delta.instructions().is_finite() || delta.instructions() < 0.0 {
                self.record(
                    at,
                    InvariantKind::CounterConservation,
                    format!("core {core} instruction delta {}", delta.instructions()),
                );
            }
            for e in StallEvent::ALL {
                if delta.event_count(e) > slice_cycles {
                    self.record(
                        at,
                        InvariantKind::CounterConservation,
                        format!(
                            "core {core} {} events {} exceed slice cycles {slice_cycles}",
                            e.label(),
                            delta.event_count(e)
                        ),
                    );
                }
            }
        }
        // Delta summation: the per-slice telemetry must partition the
        // cumulative counters exactly.
        for (m, d) in self.merged_deltas.iter_mut().zip(core_deltas) {
            m.merge(d);
        }
        let mut mismatches = Vec::new();
        for (core, ((merged, base), current)) in self
            .merged_deltas
            .iter()
            .zip(&self.counters_base)
            .zip(cores)
            .enumerate()
        {
            let since_arm = current.counters().delta_since(base);
            // Integer fields must telescope exactly; instructions are
            // an f64 accumulator, so summing slice deltas may differ
            // from the cumulative difference by rounding — allow a
            // hair of relative slack there.
            let instr_gap = (merged.instructions() - since_arm.instructions()).abs();
            let instr_tol = 1e-9 * since_arm.instructions().abs().max(1.0);
            let exact_ok = merged.cycles() == since_arm.cycles()
                && merged.stall_cycles() == since_arm.stall_cycles()
                && StallEvent::ALL
                    .iter()
                    .all(|&e| merged.event_count(e) == since_arm.event_count(e));
            if !exact_ok || instr_gap > instr_tol {
                mismatches.push(format!(
                    "core {core}: merged slice deltas ({} cycles, {:.1} instrs) \
                     != cumulative since arm ({} cycles, {:.1} instrs)",
                    merged.cycles(),
                    merged.instructions(),
                    since_arm.cycles(),
                    since_arm.instructions()
                ));
            }
        }
        for detail in mismatches {
            self.record(at, InvariantKind::DeltaSummation, detail);
        }
        // Shadow droop counter vs the aggregate grid.
        let grid_now = grid.events_at(self.margin_pct) - self.grid_base;
        if grid_now != self.shadow_droops {
            self.record(
                at,
                InvariantKind::DroopCountMismatch,
                format!(
                    "grid counted {grid_now} events at {:.2}%, shadow counter {}",
                    self.margin_pct, self.shadow_droops
                ),
            );
        }
    }

    pub(crate) fn report(&self) -> InvariantReport {
        InvariantReport {
            cycles_checked: self.cycles_checked,
            slices_checked: self.slices_checked,
            violations: self.violations.clone(),
            dropped: self.dropped,
        }
    }

    pub(crate) fn take_violations(&mut self) -> Vec<InvariantViolation> {
        self.dropped = 0;
        std::mem::take(&mut self.violations)
    }
}

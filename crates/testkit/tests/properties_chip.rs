//! Metamorphic properties of the chip layer under seeded scenario
//! generation (properties P5–P7 of `DESIGN.md` §10).

use proptest::prelude::*;
use vsmooth_chip::chip::VrmRegulator;
use vsmooth_chip::{
    Chip, ChipConfig, ChipError, ChipSession, DroopCrossing, DroopWindow, InvariantConfig,
    InvariantReport, SliceStats, WindowConfig,
};
use vsmooth_pdn::{DecapConfig, LadderConfig};
use vsmooth_testkit::generator::{gen_chip, gen_stage, gen_workload, strategy_of};
use vsmooth_uarch::{IdleLoop, StimulusSource};
use vsmooth_workload::Workload;

/// Custom-fidelity measurement interval used by P6 and P7.
const CPI: u64 = 300;

fn workload_strategy() -> impl Strategy<Value = Workload> {
    strategy_of(|rng: &mut TestRng| gen_workload(rng, "prop"))
}

/// The campaign's three run shapes.
#[derive(Debug)]
enum Shape {
    /// A single program with an idle partner.
    Single(Workload),
    /// One stream instance per core, as multi-threaded programs run.
    PerCore(Workload),
    /// A looping pair, run until the longer program ends.
    Pair(Workload, Workload),
}

impl Shape {
    /// Fresh sources for this shape, plus its whole-interval length.
    fn sources(&self, cpi: u64) -> (Vec<Box<dyn StimulusSource>>, u32) {
        match self {
            Self::Single(w) => (
                vec![Box::new(w.stream(0, cpi)), Box::new(IdleLoop::default())],
                w.total_intervals(),
            ),
            Self::PerCore(w) => (
                vec![Box::new(w.stream(0, cpi)), Box::new(w.stream(1, cpi))],
                w.total_intervals(),
            ),
            Self::Pair(a, b) => {
                let (mut sa, mut sb) = (a.stream(0, cpi), b.stream(1, cpi));
                sa.set_looping(true);
                sb.set_looping(true);
                (
                    vec![Box::new(sa), Box::new(sb)],
                    a.total_intervals().max(b.total_intervals()),
                )
            }
        }
    }
}

/// What both P5 sessions capture: nothing, crossings at a margin, or
/// crossings plus waveform windows of a generated shape.
#[derive(Debug, Clone, Copy)]
enum Scope {
    None,
    Crossings(f64),
    Windows(f64, WindowConfig),
}

/// One P5 scenario: a generated chip, a run shape over generated
/// workloads, an interval length, what the sessions capture and
/// whether they also check invariants.
#[derive(Debug)]
struct Scenario {
    chip: ChipConfig,
    /// Whether the chip's PDN was swapped for a 1–3-stage ladder (its
    /// cores' currents fitted to it), whose state dimension (2–6) the
    /// fused step does not cover.
    small_pdn: bool,
    shape: Shape,
    cpi: u64,
    scope: Scope,
    /// Whether both sessions also arm the invariant checker.
    invariants: bool,
}

/// The supply fraction within which a generated small ladder carries
/// its chip's peak current (see [`fit_currents_to_pdn`]).
const SMALL_PDN_SWING: f64 = 0.1;

/// Scales the cores' currents down, if need be, so the chip's peak
/// draw through the ladder's summed stage impedance (series resistance,
/// shunt ESR and characteristic impedance √(L/C)) stays within
/// [`SMALL_PDN_SWING`] of the supply: the target-impedance rule a real
/// PDN is designed to. `gen_stage` spans decades for the PDN oracles
/// (up to 5 nH against 10 nF, a 0.7 Ω stage); under the platform's
/// core currents such a ladder drives the die negative.
fn fit_currents_to_pdn(chip: &mut ChipConfig) {
    let ohms: f64 = chip
        .pdn
        .stages()
        .iter()
        .map(|s| s.series_r + s.shunt_esr + (s.series_l / s.shunt_c).sqrt())
        .sum();
    // Each core's leakage plus its dynamic current at the surge
    // ceiling (activity 1.6).
    let peak_amps =
        chip.num_cores as f64 * (chip.core.leakage_current + 1.6 * chip.core.max_dynamic_current);
    let scale = (SMALL_PDN_SWING * chip.pdn.nominal_voltage() / (peak_amps * ohms)).min(1.0);
    chip.core.leakage_current *= scale;
    chip.core.max_dynamic_current *= scale;
}

fn gen_scenario(rng: &mut TestRng) -> Scenario {
    let mut chip = gen_chip(rng);
    let small_pdn = match rng.below(4) {
        0 => {
            chip.regulator = VrmRegulator::none();
            false
        }
        1 => {
            let stages = (0..1 + rng.below(3)).map(|_| gen_stage(rng)).collect();
            let vdd = 0.8 + 0.9 * rng.unit_f64();
            chip.pdn = LadderConfig::new("p5-small", stages, vdd).expect("valid stages");
            fit_currents_to_pdn(&mut chip);
            true
        }
        _ => false,
    };
    let shape = match rng.below(3) {
        0 => Shape::Single(gen_workload(rng, "p5")),
        1 => Shape::PerCore(gen_workload(rng, "p5")),
        _ => Shape::Pair(gen_workload(rng, "p5-a"), gen_workload(rng, "p5-b")),
    };
    // 400 and 1 000 divide the 8 000-cycle warm-up; 300 and 1 300 do
    // not, so streams change mix in mid-interval.
    let cpi = [300, 400, 1_000, 1_300][rng.below(4) as usize];
    // On the droop grid's lines, where P6 holds the capture to it.
    let margin = 0.5 + 0.25 * rng.below(19) as f64;
    let scope = match rng.below(3) {
        0 => Scope::None,
        1 => Scope::Crossings(margin),
        // A zero lead-in is clamped to the trigger cycle; a zero tail
        // seals each window on its trigger.
        _ => Scope::Windows(
            margin,
            WindowConfig {
                pre_cycles: rng.below(160) as usize,
                post_cycles: rng.below(240) as usize,
            },
        ),
    };
    Scenario {
        chip,
        small_pdn,
        shape,
        cpi,
        scope,
        invariants: rng.below(2) == 0,
    }
}

impl Scenario {
    /// Arms `session` with the scenario's capture and, if drawn, the
    /// invariant checker.
    fn arm(&self, session: &mut ChipSession) {
        match self.scope {
            Scope::None => {}
            Scope::Crossings(margin) => session.capture_droops(margin),
            Scope::Windows(margin, window) => session.enable_profiling(margin, window),
        }
        if self.invariants {
            session.enable_invariants(InvariantConfig::default());
        }
    }
}

fn dyn_sources(boxes: &mut [Box<dyn StimulusSource>]) -> Vec<&mut dyn StimulusSource> {
    boxes
        .iter_mut()
        .map(|b| -> &mut dyn StimulusSource { &mut **b })
        .collect()
}

/// Everything a session observed: per slice its summary and the
/// crossings and windows drained right after it, then the windows the
/// final flush truncated and the invariant report.
#[derive(Debug)]
struct Observed {
    slices: Vec<(SliceStats, Vec<DroopCrossing>, Vec<DroopWindow>)>,
    flushed: Vec<DroopWindow>,
    invariants: Option<InvariantReport>,
}

/// Runs `slices` one-interval slices on `session` through `slice` (the
/// reference or the lean step), draining its captures after each.
fn observe(
    session: &mut ChipSession,
    slices: u32,
    mut slice: impl FnMut(&mut ChipSession) -> SliceStats,
) -> Observed {
    let slices = (0..slices)
        .map(|_| {
            let stats = slice(session);
            let crossings = session.take_droop_crossings();
            (stats, crossings, session.take_droop_windows())
        })
        .collect();
    Observed {
        slices,
        flushed: session.flush_droop_windows(),
        invariants: session.invariant_report(),
    }
}

proptest! {
    /// P5 — the fused step against the reference step, on the paths
    /// that run: (a) a one-shot `Chip::run` (the fused step on every
    /// chip it covers, as campaigns and fleet sweeps run it) and an
    /// interval-by-interval reference session (`begin` + `run_slice`)
    /// must yield identical `RunStats`; (b) a lean session (`begin_fast`
    /// + `run_slice_fast`, the serving shards' path) and that reference
    /// session, armed alike, must yield identical per-slice
    /// `SliceStats`, droop crossings and waveform windows, and clean
    /// invariant reports over the same cycles and slices. Drawn on
    /// generated chips, regulators and PDNs, in all three run shapes,
    /// with no capture, a crossing capture or windows of a generated
    /// shape, the invariant checker in half the cases, at intervals that
    /// do and do not divide the warm-up.
    #[test]
    fn sliced_measurement_equals_one_shot(sc in strategy_of(gen_scenario)) {
        let (intervals, reference, sliced) = {
            let chip = Chip::new(sc.chip.clone()).expect("chip");
            let (mut boxes, intervals) = sc.shape.sources(sc.cpi);
            let mut sources = dyn_sources(&mut boxes);
            let mut session = ChipSession::begin(chip, &mut sources, sc.cpi).expect("begin");
            sc.arm(&mut session);
            let observed = observe(&mut session, intervals, |session| {
                session.run_slice(&mut sources, sc.cpi).expect("slice")
            });
            let stats = session.finish().expect("reference slices keep complete stats");
            (intervals, observed, stats)
        };
        let total = u64::from(intervals) * sc.cpi;

        let one_shot = {
            let mut chip = Chip::new(sc.chip.clone()).expect("chip");
            prop_assert_eq!(chip.runs_fused(), !sc.small_pdn, "kernel routing");
            let (mut boxes, _) = sc.shape.sources(sc.cpi);
            let mut sources = dyn_sources(&mut boxes);
            chip.run(&mut sources, total, sc.cpi).expect("run")
        };

        let (lean, lean_end) = {
            let chip = Chip::new(sc.chip.clone()).expect("chip");
            let (mut boxes, _) = sc.shape.sources(sc.cpi);
            let [s0, s1] = &mut boxes[..] else {
                unreachable!("every shape drives two cores")
            };
            let mut session = ChipSession::begin_fast(chip, || s0.next(), || s1.next(), sc.cpi)
                .expect("begin_fast");
            sc.arm(&mut session);
            let observed = observe(&mut session, intervals, |session| {
                session
                    .run_slice_fast(|| s0.next(), || s1.next(), sc.cpi)
                    .expect("lean slice")
            });
            (observed, session.finish())
        };

        // (a) One-shot fused run == reference session.
        prop_assert_eq!(&one_shot, &sliced);

        // (b) Lean session == reference session, slice by slice.
        prop_assert_eq!(&lean.slices, &reference.slices);
        prop_assert_eq!(&lean.flushed, &reference.flushed);
        for report in [&reference.invariants, &lean.invariants] {
            prop_assert_eq!(report.is_some(), sc.invariants, "invariant checker arming");
            if let Some(report) = report {
                prop_assert!(report.is_clean(), "violations: {:?}", report.violations);
                prop_assert_eq!(
                    (report.cycles_checked, report.slices_checked),
                    (total, u64::from(intervals))
                );
            }
        }
        // Every cycle of a chip the fused step covers ran lean, so the
        // session refuses `RunStats`; the others fell back to the
        // reference step and hand out the reference statistics.
        if sc.small_pdn {
            prop_assert_eq!(lean_end, Ok(sliced));
        } else {
            prop_assert_eq!(lean_end, Err(ChipError::IncompleteStats { lean_cycles: total }));
        }
    }

    /// P6 — per-event droop capture vs aggregate grid: at any margin
    /// that sits exactly on a `CrossingGrid` threshold, the number of
    /// captured crossing events equals the grid's emergency count. Two
    /// independent accounting paths over the same waveform.
    #[test]
    fn droop_capture_agrees_with_grid_at_quantized_margins(
        (w, k) in (workload_strategy(), 0u64..=18)
    ) {
        let margin = 0.5 + 0.25 * k as f64; // exactly on grid lines
        let cfg = ChipConfig::core2_duo(DecapConfig::proc3());
        let chip = Chip::new(cfg).expect("chip");
        let mut s = w.stream(0, CPI);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip, &mut warm, CPI).expect("begin");
        session.capture_droops(margin);
        for _ in 0..w.total_intervals() {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, CPI).expect("slice");
        }
        let captured = session.take_droop_crossings();
        let stats = session.finish().expect("reference slices keep complete stats");
        prop_assert_eq!(
            captured.len() as u64,
            stats.emergencies(margin),
            "margin {}%: event log vs grid count",
            margin
        );
        for ev in &captured {
            prop_assert!(ev.depth_pct >= margin);
        }
    }

    /// P7 — the physics/bookkeeping invariants hold on randomly drawn
    /// chips (random decap level, perturbed clock) running randomly
    /// generated workloads — not just on the calibrated platform.
    #[test]
    fn invariants_hold_on_random_chips_and_workloads(
        (chip_cfg, w) in (strategy_of(gen_chip), workload_strategy())
    ) {
        let chip = Chip::new(chip_cfg).expect("generated chip is valid");
        let mut s = w.stream(0, CPI);
        let mut idle = IdleLoop::default();
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        let mut session = ChipSession::begin(chip, &mut warm, CPI).expect("begin");
        session.enable_invariants(InvariantConfig::default());
        for _ in 0..w.total_intervals() {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
            session.run_slice(&mut sources, CPI).expect("slice");
        }
        let report = session.invariant_report().expect("armed");
        prop_assert!(
            report.is_clean(),
            "violations on a generated chip/workload: {:?}",
            report.violations
        );
    }
}

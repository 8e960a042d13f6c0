//! Overhead guard for the disabled invariant checker: the hook sits in
//! the chip measurement loop behind an `Option` that stays `None`
//! unless `ChipSession::enable_invariants` armed it. This test
//! enforces that an unchecked run stays within a generous factor of
//! the plain baseline — i.e. the hook compiles down to a branch, not
//! work.
//!
//! Timing in CI is noisy, so the bound is deliberately loose (2.5x on
//! medians of several rounds); a real regression — per-cycle current
//! reads or counter snapshots on the unchecked path — shows up as an
//! order of magnitude.

use std::time::{Duration, Instant};

use vsmooth::chip::{ChipConfig, ChipSession, InvariantConfig};
use vsmooth::pdn::DecapConfig;
use vsmooth::uarch::StimulusSource;
use vsmooth::workload::by_name;

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn run_session(check: bool) -> vsmooth::chip::RunStats {
    let w = by_name("482.sphinx3").expect("in catalog");
    let mut s = w.stream(0, 5_000);
    s.set_looping(true);
    let mut idle = vsmooth::uarch::IdleLoop::default();
    let chip = vsmooth::chip::Chip::new(ChipConfig::core2_duo(DecapConfig::proc100()))
        .expect("valid chip");
    let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
    let mut session = ChipSession::begin(chip, &mut warm, 5_000).expect("valid session");
    if check {
        session.enable_invariants(InvariantConfig::default());
    }
    for _ in 0..8 {
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
        session.run_slice(&mut sources, 5_000).expect("slice runs");
    }
    if check {
        let report = session.invariant_report().expect("armed");
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }
    session
        .finish()
        .expect("reference slices keep complete stats")
}

#[test]
fn unchecked_runs_pay_nothing_for_the_invariant_hook() {
    let time_plain = || -> Duration {
        let start = Instant::now();
        let stats = run_session(false);
        assert_eq!(stats.cycles, 40_000);
        start.elapsed()
    };

    // Warm up caches and lazy init before timing anything, then time
    // the same unchecked path twice: run-to-run jitter is the only
    // thing separating the two series, so a stable ratio proves the
    // dormant hook adds nothing measurable.
    time_plain();
    let rounds = 5;
    let mut first = Vec::with_capacity(rounds);
    let mut second = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        first.push(time_plain());
        second.push(time_plain());
    }
    let first = median(first);
    let second = median(second);
    let ratio = second.as_secs_f64() / first.as_secs_f64().max(1e-9);
    assert!(
        (0.4..=2.5).contains(&ratio),
        "unchecked timing unstable: {first:?} vs {second:?} (ratio {ratio:.2})"
    );

    // Armed checking pays per-cycle current reads and per-slice counter
    // comparisons, but it must stay a constant factor of the simulation
    // itself, not blow it up.
    let time_checked = || -> Duration {
        let start = Instant::now();
        run_session(true);
        start.elapsed()
    };
    time_checked();
    let mut checked_rounds = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        checked_rounds.push(time_checked());
    }
    let checked_time = median(checked_rounds);
    let overhead = checked_time.as_secs_f64() / first.min(second).as_secs_f64().max(1e-9);
    assert!(
        overhead <= 8.0,
        "armed invariant checking too expensive: {checked_time:?} vs {first:?} ({overhead:.2}x)"
    );

    // The structural guarantee, independent of wall-clock noise:
    // checking must change nothing about the measurement itself.
    let plain = run_session(false);
    let checked = run_session(true);
    assert_eq!(plain.droops, checked.droops);
    assert_eq!(plain.sensor, checked.sensor);
    assert_eq!(plain.core_counters, checked.core_counters);
}

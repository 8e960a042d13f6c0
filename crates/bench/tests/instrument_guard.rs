//! Overhead guards for the service's instruments. `Service::run` is
//! `Service::run_with` with nothing armed, so every instrument's hook
//! sits on the hot path unconditionally: the tracer's is-enabled
//! branches, and the chip-side window and droop captures the profiler
//! and monitor share, each behind an `Option` that stays `None` until
//! armed. These tests enforce that a dormant hook stays within a
//! generous factor of the plain baseline (it compiles down to a
//! branch, not work), that an armed profiler or monitor stays a
//! constant factor of the simulation itself, and that no instrument
//! changes the measurement.
//!
//! Timing in CI is noisy, so the bounds are deliberately loose (2.5x
//! on medians of several rounds, 8x when armed); a real regression —
//! formatting on the disabled path, per-cycle ring pushes, feeding or
//! rule evaluation on an unarmed run — shows up as an order of
//! magnitude.

use std::time::{Duration, Instant};

use vsmooth::chip::ChipConfig;
use vsmooth::monitor::MonitorConfig;
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, JobSpec, Service, ServiceConfig, ServiceReport};
use vsmooth::trace::Tracer;
use vsmooth::{Instruments, Observed};

const ROUNDS: usize = 5;

struct Guard {
    service: Service,
    jobs: Vec<JobSpec>,
}

impl Guard {
    fn new() -> Self {
        let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
        cfg.chips = 2;
        cfg.slice_cycles = 600;
        Self {
            service: Service::new(cfg).expect("valid config"),
            jobs: synthetic_jobs(7, 12, 900),
        }
    }

    fn run(&self, inst: &Instruments) -> Observed<ServiceReport> {
        let observed = self
            .service
            .run_with(&self.jobs, &OnlineDroop, 1, inst)
            .expect("service run");
        assert_eq!(observed.report.jobs_completed, 12);
        observed
    }

    fn time(&self, inst: &Instruments) -> Duration {
        let start = Instant::now();
        self.run(inst);
        start.elapsed()
    }

    /// Medians of interleaved timed runs of `a` and `b` after a warm-up
    /// run, so run-to-run jitter is all that separates the series.
    fn medians(&self, a: &Instruments, b: &Instruments) -> (Duration, Duration) {
        self.time(a);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            first.push(self.time(a));
            second.push(self.time(b));
        }
        (median(first), median(second))
    }

    /// Asserts the dormant hooks add nothing measurable (plain against
    /// plain) and that arming `inst` stays a constant factor.
    fn assert_bounded(&self, inst: &Instruments, what: &str) {
        let plain = Instruments::new();
        let (first, second) = self.medians(&plain, &plain);
        assert_ratio(first, second, what);
        self.time(inst);
        let armed = median((0..ROUNDS).map(|_| self.time(inst)).collect());
        let overhead = armed.as_secs_f64() / first.min(second).as_secs_f64().max(1e-9);
        assert!(
            overhead <= 8.0,
            "armed {what} too expensive: {armed:?} vs {first:?} ({overhead:.2}x)"
        );
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn assert_ratio(first: Duration, second: Duration, what: &str) {
    let ratio = second.as_secs_f64() / first.as_secs_f64().max(1e-9);
    assert!(
        (0.4..=2.5).contains(&ratio),
        "un-{what} timing unstable: {first:?} vs {second:?} (ratio {ratio:.2})"
    );
}

#[test]
fn disabled_tracer_adds_no_measurable_overhead() {
    let guard = Guard::new();
    let disabled = Tracer::disabled();
    let traced = Instruments::new().traced(&disabled);
    let (plain, traced_time) = guard.medians(&Instruments::new(), &traced);
    assert_ratio(plain, traced_time, "traced");
    // The structural guarantee, independent of wall-clock noise: a
    // disabled tracer records nothing at all.
    guard.run(&traced);
    assert!(disabled.is_empty(), "disabled tracer must record no events");
    assert_eq!(disabled.droops_total(), 0);
}

#[test]
fn unprofiled_runs_pay_nothing_for_the_capture_hook() {
    let guard = Guard::new();
    let profiled = Instruments::new().profiled();
    guard.assert_bounded(&profiled, "profiled");
    let plain = guard.run(&Instruments::new()).report;
    let observed = guard.run(&profiled);
    assert_eq!(plain.droops, observed.report.droops);
    assert_eq!(plain.completed, observed.report.completed);
    let profile = observed.profile.expect("profiler armed");
    assert_eq!(profile.total_droops, observed.report.droops);
}

#[test]
fn unmonitored_runs_pay_nothing_for_the_health_hooks() {
    let guard = Guard::new();
    let monitored = Instruments::new().monitored(MonitorConfig::default());
    guard.assert_bounded(&monitored, "monitored");
    let plain = guard.run(&Instruments::new()).report;
    let observed = guard.run(&monitored);
    assert_eq!(plain.droops, observed.report.droops);
    assert_eq!(plain.completed, observed.report.completed);
    let health = observed.health.expect("monitor armed");
    assert_eq!(health.epochs, observed.report.epochs);
}

//! Tier-1 concurrency stress for the shard-per-worker runtime: eight
//! shards under deliberately skewed token ownership, so most of the
//! pool can only make progress by work-stealing, across several
//! seeded job streams.
//!
//! Two regimes are covered:
//!
//! * **hot burst** — every job arrives at cycle 0 against a 3-chip
//!   pool, so 3 token owners are hot and 5 shards only ever steal;
//! * **trickle** — sparse arrivals against an 8-chip pool, so usually
//!   one chip is busy and its owner's queue is the only non-empty one.
//!
//! The invariant-checked variant additionally arms the vsmooth-chip
//! physical-invariant checker on every cell; the shards check on the
//! fused step and the coordinator on the reference step, so both steps
//! are covered.
//!
//! Conservation is the oracle: no job is lost or duplicated under
//! stealing — admitted == completed == submitted, completed ids are
//! exactly the submitted ids, executed cycles reconcile with the
//! slice counters, and the whole report still matches the coordinator
//! byte for byte.

use std::collections::BTreeSet;

use proptest::TestRng;
use vsmooth::chip::ChipConfig;
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{JobSpec, RuntimeMode, Service, ServiceConfig, ServiceReport};
use vsmooth::testkit::gen_job_stream;

const SHARDS: usize = 8;

fn config(chips: usize, invariants: bool, runtime: RuntimeMode) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = chips;
    cfg.slice_cycles = 600;
    cfg.invariants = invariants;
    cfg.runtime = runtime;
    cfg
}

/// All jobs at cycle 0: the admission sweep floods every chip at
/// once and the ready queue stays deep for many epochs.
fn hot_burst(seed: u64, count: usize) -> Vec<JobSpec> {
    gen_job_stream(&mut TestRng::new(seed), count, 1)
        .into_iter()
        .map(|mut job| {
            job.arrival_cycle = 0;
            job
        })
        .collect()
}

fn assert_conserved(jobs: &[JobSpec], report: &ServiceReport) {
    assert_eq!(report.jobs_submitted, jobs.len());
    assert_eq!(report.jobs_completed, jobs.len(), "jobs lost or stuck");
    assert_eq!(report.completed.len(), jobs.len());
    // Exactly the submitted ids completed — nothing lost, nothing
    // duplicated, nothing invented.
    let submitted: BTreeSet<u64> = jobs.iter().map(|j| j.id).collect();
    let completed: BTreeSet<u64> = report.completed.iter().map(|j| j.spec.id).collect();
    assert_eq!(submitted.len(), jobs.len(), "stream ids must be unique");
    assert_eq!(submitted, completed, "completed ids differ from submitted");
    // Counter conservation: the admission and completion counters
    // both saw every job exactly once...
    assert_eq!(
        report.snapshot.counter("serve_jobs_admitted_total"),
        jobs.len() as u64
    );
    assert_eq!(
        report.snapshot.counter("serve_jobs_completed_total"),
        jobs.len() as u64
    );
    // ...and per-job executed cycles reconcile with the slice
    // counters: every scheduling quantum advanced one or two resident
    // jobs by exactly `slice_cycles`.
    let executed: u64 = report.completed.iter().map(|j| j.executed_cycles).sum();
    let slices = report.snapshot.counter("serve_slices_total");
    let chip_cycles = report.snapshot.counter("serve_chip_cycles_total");
    assert_eq!(chip_cycles, slices * 600, "partial slices must not exist");
    assert_eq!(chip_cycles, report.chip_cycles);
    assert!(executed >= chip_cycles, "solo slices still run full chips");
    assert!(executed <= 2 * chip_cycles);
}

#[test]
fn hot_burst_under_eight_shards_conserves_every_job() {
    for seed in [1u64, 2, 3] {
        let jobs = hot_burst(seed, 24);
        let reference = Service::new(config(3, false, RuntimeMode::Coordinator))
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        // 3 chips own all the tokens; shards 3..8 can only steal.
        let sharded = Service::new(config(3, false, RuntimeMode::Sharded))
            .unwrap()
            .run(&jobs, &OnlineDroop, SHARDS)
            .unwrap();
        assert_conserved(&jobs, &sharded);
        assert_eq!(reference, sharded, "seed {seed} diverged");
        assert_eq!(reference.render(), sharded.render());
    }
}

#[test]
fn trickle_stream_under_eight_shards_conserves_every_job() {
    for seed in [11u64, 12] {
        let jobs = gen_job_stream(&mut TestRng::new(seed), 16, 2_500);
        let reference = Service::new(config(8, false, RuntimeMode::Coordinator))
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        let sharded = Service::new(config(8, false, RuntimeMode::Sharded))
            .unwrap()
            .run(&jobs, &OnlineDroop, SHARDS)
            .unwrap();
        assert_conserved(&jobs, &sharded);
        assert_eq!(reference, sharded, "seed {seed} diverged");
    }
}

#[test]
fn shard_slice_tallies_reconcile_with_the_slice_counter_under_stealing() {
    use std::sync::{Arc, Mutex};
    use vsmooth::obs::{ObsConfig, ObsSnapshot, TelemetryHub};

    // Hot burst over 3 chips with 8 shards: 5 shards can only steal,
    // so the per-shard introspection section must show stolen slices
    // and still account for every executed slice exactly once.
    let jobs = hot_burst(5, 24);
    let last = Arc::new(Mutex::new(None::<ObsSnapshot>));
    let sink = Arc::clone(&last);
    let mut cfg = config(3, false, RuntimeMode::Sharded);
    let mut oc = ObsConfig::new(Arc::new(TelemetryHub::new()));
    oc.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
        *sink.lock().unwrap() = Some(snap.clone());
    }));
    cfg.obs = Some(oc);
    let report = Service::new(cfg)
        .unwrap()
        .run(&jobs, &OnlineDroop, SHARDS)
        .unwrap();
    assert_conserved(&jobs, &report);
    let snap = last.lock().unwrap().take().expect("final publish seen");
    let section = snap.shards.as_ref().expect("shard runtime publishes");
    assert_eq!(section.shards.len(), SHARDS);
    // The live owned/stolen split sums exactly to the deterministic
    // slice counter — no slice lost, none double-counted.
    assert_eq!(
        section
            .shards
            .iter()
            .map(|s| s.slices_owned + s.slices_stolen)
            .sum::<u64>(),
        report.snapshot.counter("serve_slices_total"),
        "per-shard slice tallies must reconcile with serve_slices_total"
    );
    // Only 3 chips own tokens, so at least one of the other 5 shards
    // progressed by stealing.
    assert!(
        section.shards.iter().any(|s| s.slices_stolen > 0),
        "skewed ownership must force steals"
    );
    // A shard's lane high-water mark counts its logs sent but not yet
    // received: at least one once it ran a slice, never more than it
    // ran, and none if it ran nothing.
    for s in &section.shards {
        let executed = s.slices_owned + s.slices_stolen;
        let hwm = s.lane_occupancy_hwm;
        if executed == 0 {
            assert_eq!(hwm, 0, "shard {} ran nothing", s.shard);
        } else {
            assert!(
                (1..=executed).contains(&hwm),
                "shard {} ran {executed} slices with lane high-water mark {hwm}",
                s.shard
            );
        }
    }
    assert_eq!(
        section.grants,
        report.snapshot.counter("serve_slices_total")
    );
    assert_eq!(section.epochs_decided, report.epochs);
    assert_eq!(section.cell_queue_hwm.len(), 3);
}

#[test]
fn invariant_checked_stress_run_is_clean_and_conserved() {
    let jobs = hot_burst(7, 18);
    // The checker rides along on every cell (on the fused step in the
    // shards, the reference step in the coordinator); a healthy run must
    // produce zero violations and the exact coordinator artifacts.
    let reference = Service::new(config(3, true, RuntimeMode::Coordinator))
        .unwrap()
        .run(&jobs, &OnlineDroop, 1)
        .expect("invariant checker must stay quiet on the coordinator");
    let sharded = Service::new(config(3, true, RuntimeMode::Sharded))
        .unwrap()
        .run(&jobs, &OnlineDroop, SHARDS)
        .expect("invariant checker must stay quiet under sharding");
    assert_conserved(&jobs, &sharded);
    assert_eq!(reference, sharded);
    // Checked and unchecked runs agree on physics: the checker is
    // pure observation.
    let unchecked = Service::new(config(3, false, RuntimeMode::Sharded))
        .unwrap()
        .run(&jobs, &OnlineDroop, SHARDS)
        .unwrap();
    assert_eq!(unchecked.droops, sharded.droops);
    assert_eq!(unchecked.completed, sharded.completed);
}

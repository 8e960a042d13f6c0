//! Tier-1 differential oracle for the shard-per-worker runtime: every
//! artifact the service produces must be byte-identical between the
//! single-threaded coordinator backend and the sharded backend at 1,
//! 2, 4 and 8 shards — same seeded job stream, same policy, same
//! config, only [`RuntimeMode`] varies.
//!
//! Six artifact classes are pinned:
//!
//! 1. the [`ServiceReport`] (struct equality *and* rendered bytes),
//! 2. the Chrome trace JSON,
//! 3. the `vsmooth-profile-v1` attribution JSON,
//! 4. the monitor health report JSON (alerts and postmortems
//!    included) — 3 and 4 also from passes that arm the profiler and
//!    the monitor together,
//! 5. the obs hub snapshot stream (every periodic publish plus the
//!    final one) — including the decision ring and the recent-droop
//!    ring riding in each snapshot — under the arming an operator runs
//!    (streaming trace, monitor, decision audit, a publish every
//!    epoch), together with that run's streamed trace bytes,
//! 6. the `vsmooth-audit-v1` decision audit artifact.
//!
//! The single documented exception is `ObsSnapshot::shards`: the
//! per-shard introspection section is live execution state
//! (per-executor slice counts, queue depths, wall latency) and published
//! only by the shard runtime. Its slice tallies must still *sum* to
//! `serve_slices_total` at the final publish.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vsmooth::chip::ChipConfig;
use vsmooth::monitor::MonitorConfig;
use vsmooth::obs::{ObsConfig, ObsSnapshot, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{AuditConfig, JobSpec, RuntimeMode, Service, ServiceConfig, ServiceReport};
use vsmooth::testkit::gen_job_stream;
use vsmooth::trace::{validate_chrome_trace, StreamConfig, Tracer};
use vsmooth::{Instruments, Observed};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(runtime: RuntimeMode) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 600;
    cfg.runtime = runtime;
    cfg
}

fn jobs(seed: u64) -> Vec<JobSpec> {
    gen_job_stream(&mut TestRng::new(seed), 14, 900)
}

fn run_with(
    runtime: RuntimeMode,
    workers: usize,
    jobs: &[JobSpec],
    inst: &Instruments,
) -> Observed<ServiceReport> {
    Service::new(config(runtime))
        .unwrap()
        .run_with(jobs, &OnlineDroop, workers, inst)
        .unwrap()
}

#[test]
fn service_reports_match_coordinator_at_every_shard_count() {
    let jobs = jobs(0xA11CE);
    let reference = Service::new(config(RuntimeMode::Coordinator))
        .unwrap()
        .run(&jobs, &OnlineDroop, 1)
        .unwrap();
    assert_eq!(reference.jobs_completed, jobs.len());
    for shards in SHARD_COUNTS {
        let sharded = Service::new(config(RuntimeMode::Sharded))
            .unwrap()
            .run(&jobs, &OnlineDroop, shards)
            .unwrap();
        assert_eq!(reference, sharded, "report diverged at {shards} shards");
        assert_eq!(
            reference.render(),
            sharded.render(),
            "rendered report diverged at {shards} shards"
        );
    }
}

#[test]
fn trace_json_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xB0B);
    let run = |runtime, workers| {
        let tracer = Tracer::enabled();
        run_with(runtime, workers, &jobs, &Instruments::new().traced(&tracer));
        tracer.to_chrome_json()
    };
    let reference = run(RuntimeMode::Coordinator, 1);
    assert!(reference.contains("traceEvents"));
    for shards in SHARD_COUNTS {
        assert_eq!(
            reference,
            run(RuntimeMode::Sharded, shards),
            "trace JSON diverged at {shards} shards"
        );
    }
}

/// The coordinator reference and every shard count, for the inputs a
/// single-instrument artifact must also match from a pass that arms
/// the profiler and the monitor together.
fn every_backend() -> impl Iterator<Item = (RuntimeMode, usize)> {
    std::iter::once((RuntimeMode::Coordinator, 1))
        .chain(SHARD_COUNTS.map(|shards| (RuntimeMode::Sharded, shards)))
}

fn both_instruments() -> Instruments<'static> {
    Instruments::new()
        .profiled()
        .monitored(MonitorConfig::default())
}

#[test]
fn profile_json_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xCAFE);
    let profile_only = Instruments::new().profiled();
    let run = |runtime, workers, inst| {
        let observed = run_with(runtime, workers, &jobs, inst);
        (observed.report, observed.profile.unwrap().to_json())
    };
    let (reference_report, reference_json) = run(RuntimeMode::Coordinator, 1, &profile_only);
    assert!(reference_json.contains("vsmooth-profile-v1"));
    for shards in SHARD_COUNTS {
        let (report, json) = run(RuntimeMode::Sharded, shards, &profile_only);
        assert_eq!(reference_report, report, "report diverged at {shards}");
        assert_eq!(
            reference_json, json,
            "profile JSON diverged at {shards} shards"
        );
    }
    let both = both_instruments();
    for (runtime, workers) in every_backend() {
        assert_eq!(
            reference_json,
            run(runtime, workers, &both).1,
            "profile JSON of the monitored pass diverged under {runtime:?} at {workers}"
        );
    }
}

#[test]
fn health_json_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xD00D);
    let monitor_only = Instruments::new().monitored(MonitorConfig::default());
    let run = |runtime, workers, inst| {
        let observed = run_with(runtime, workers, &jobs, inst);
        (observed.report, observed.health.unwrap())
    };
    let (reference_report, reference_health) = run(RuntimeMode::Coordinator, 1, &monitor_only);
    for shards in SHARD_COUNTS {
        let (report, health) = run(RuntimeMode::Sharded, shards, &monitor_only);
        assert_eq!(reference_report, report, "report diverged at {shards}");
        assert_eq!(
            reference_health.alerts, health.alerts,
            "alerts diverged at {shards} shards"
        );
        assert_eq!(
            reference_health.to_json(),
            health.to_json(),
            "health JSON diverged at {shards} shards"
        );
        assert_eq!(reference_health.postmortems.len(), health.postmortems.len());
        for (a, b) in reference_health.postmortems.iter().zip(&health.postmortems) {
            assert_eq!(a.to_json(), b.to_json(), "postmortem diverged at {shards}");
        }
    }
    let both = both_instruments();
    for (runtime, workers) in every_backend() {
        assert_eq!(
            reference_health.to_json(),
            run(runtime, workers, &both).1.to_json(),
            "health JSON of the profiled pass diverged under {runtime:?} at {workers}"
        );
    }
}

/// A `Write` target whose bytes survive the streaming sink taking
/// ownership of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs the service with every always-on instrument armed — a
/// streaming tracer, the monitor, the decision audit and an obs hub
/// publishing every epoch — and returns every snapshot the hub
/// published, in publish order, plus the streamed trace bytes.
fn observed_snapshots(
    runtime: RuntimeMode,
    workers: usize,
    jobs: &[JobSpec],
) -> (Vec<ObsSnapshot>, Vec<u8>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let mut cfg = config(runtime);
    cfg.audit = Some(AuditConfig::default());
    let mut oc = ObsConfig::new(Arc::new(TelemetryHub::new()));
    oc.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
        sink.lock().unwrap().push(snap.clone());
    }));
    cfg.obs = Some(oc);
    let trace = SharedBuf::default();
    let tracer = Tracer::streaming_to_writer(trace.clone(), StreamConfig::default());
    let inst = Instruments::new()
        .traced(&tracer)
        .monitored(MonitorConfig::default());
    Service::new(cfg)
        .unwrap()
        .run_with(jobs, &OnlineDroop, workers, &inst)
        .unwrap();
    tracer
        .finish_stream()
        .expect("streaming tracer")
        .expect("sink flush");
    let snapshots = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    let bytes = trace.0.lock().unwrap().clone();
    (snapshots, bytes)
}

/// A metrics snapshot rendered without the streaming pipeline's
/// wall-clock flush-latency series, the one series (present only at
/// the final publish) that is not a function of the inputs.
fn deterministic_metrics(snap: &ObsSnapshot) -> String {
    snap.metrics
        .render()
        .lines()
        .filter(|l| !l.contains("telemetry_flush_latency_us"))
        .flat_map(|l| [l, "\n"])
        .collect()
}

#[test]
fn obs_snapshot_stream_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xFEED);
    let (reference, reference_trace) = observed_snapshots(RuntimeMode::Coordinator, 1, &jobs);
    assert!(reference.len() > 2, "expected several periodic publishes");
    let last = reference.last().unwrap();
    assert!(!last.decisions.is_empty(), "expected audited decisions");
    assert!(!last.recent_droops.is_empty(), "expected recent droops");
    let shape = validate_chrome_trace(std::str::from_utf8(&reference_trace).unwrap())
        .expect("valid streamed trace");
    assert!(shape.spans > 0 && shape.droops > 0);
    for shards in SHARD_COUNTS {
        let (sharded, trace) = observed_snapshots(RuntimeMode::Sharded, shards, &jobs);
        assert!(
            reference_trace == trace,
            "streamed trace bytes diverged at {shards} shards"
        );
        assert_eq!(
            reference.len(),
            sharded.len(),
            "publish count diverged at {shards} shards"
        );
        for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
            if i + 1 < reference.len() {
                assert_eq!(a.metrics, b.metrics, "metrics diverged at {shards}/{i}");
            } else {
                assert_eq!(
                    deterministic_metrics(a),
                    deterministic_metrics(b),
                    "final metrics diverged at {shards}"
                );
            }
            assert_eq!(a.health, b.health, "health diverged at {shards}/{i}");
            assert_eq!(
                a.recent_droops, b.recent_droops,
                "droop ring diverged at {shards}/{i}"
            );
            assert_eq!(
                a.profile_json.as_deref(),
                b.profile_json.as_deref(),
                "profile body diverged at {shards}/{i}"
            );
            // The service status is fully deterministic since the live
            // per-worker split moved into `ObsSnapshot::shards`.
            assert_eq!(a.service, b.service, "status diverged at {shards}/{i}");
            assert_eq!(
                a.decisions, b.decisions,
                "decision ring diverged at {shards}/{i}"
            );
        }
        // The live introspection section is the documented exception:
        // published only by the shard runtime, but its slice tallies
        // (the shards' plus the coordinator's) at the final (done)
        // publish are pinned by the slice counter.
        let last = sharded.last().unwrap();
        assert!(last.service.as_ref().unwrap().done);
        let section = last.shards.as_ref().expect("shard runtime publishes");
        assert_eq!(
            section.shards.iter().map(|s| s.slices).sum::<u64>() + section.coordinator_slices,
            last.metrics.counter("serve_slices_total"),
            "final per-shard slice sum diverged at {shards} shards"
        );
    }
}

#[test]
fn audit_artifact_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xAD17);
    let run = |runtime, workers| {
        let mut cfg = config(runtime);
        cfg.audit = Some(AuditConfig::default());
        Service::new(cfg)
            .unwrap()
            .run(&jobs, &OnlineDroop, workers)
            .unwrap()
    };
    let reference = run(RuntimeMode::Coordinator, 1);
    let reference_audit = reference.audit.as_ref().expect("audit armed");
    assert!(reference_audit.total > 0, "expected recorded decisions");
    let reference_json = reference_audit.to_json();
    assert!(reference_json.contains("vsmooth-audit-v1"));
    for shards in SHARD_COUNTS {
        let sharded = run(RuntimeMode::Sharded, shards);
        assert_eq!(
            reference.audit, sharded.audit,
            "audit ring diverged at {shards} shards"
        );
        assert_eq!(
            reference_json,
            sharded.audit.as_ref().unwrap().to_json(),
            "vsmooth-audit-v1 bytes diverged at {shards} shards"
        );
    }
}

proptest! {
    /// Seeded property: whatever job stream the generator draws, the
    /// sharded runtime's report and rendered bytes match the
    /// coordinator's. Case count is pinned by `PROPTEST_CASES`.
    #[test]
    fn seeded_job_streams_agree_across_backends(
        seed in 0u64..u64::MAX,
        shards in sample::select([2usize, 4, 8]),
    ) {
        let jobs = gen_job_stream(&mut TestRng::new(seed), 8, 1_100);
        let reference = Service::new(config(RuntimeMode::Coordinator))
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        let sharded = Service::new(config(RuntimeMode::Sharded))
            .unwrap()
            .run(&jobs, &OnlineDroop, shards)
            .unwrap();
        prop_assert_eq!(&reference, &sharded);
        prop_assert_eq!(reference.render(), sharded.render());
    }
}

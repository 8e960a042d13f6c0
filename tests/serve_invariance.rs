//! The service's determinism contract: for a fixed configuration, job
//! stream and policy, the [`ServiceReport`] — including its rendered
//! metrics snapshot — must be byte-identical however many worker
//! threads simulate the chip pool.

use std::sync::{Arc, Mutex};

use vsmooth::chip::ChipConfig;
use vsmooth::monitor::MonitorConfig;
use vsmooth::obs::{ObsConfig, ObsSnapshot, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::{OnlineDroop, OnlineIpc, PairPolicy, RandomPairing};
use vsmooth::serve::{
    synthetic_jobs, AuditConfig, JobSpec, RuntimeMode, ServeError, Service, ServiceConfig,
    ServiceReport,
};
use vsmooth::trace::{validate_chrome_trace, Tracer};
use vsmooth::Instruments;

fn run(policy: &dyn PairPolicy, workers: usize) -> ServiceReport {
    run_traced(policy, workers, &Tracer::disabled())
}

fn run_traced(policy: &dyn PairPolicy, workers: usize, tracer: &Tracer) -> ServiceReport {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 600;
    let service = Service::new(cfg).expect("valid config");
    let jobs = synthetic_jobs(19, 18, 900);
    service
        .run_with(&jobs, policy, workers, &Instruments::new().traced(tracer))
        .expect("service run")
        .report
}

#[test]
fn service_report_is_byte_identical_across_worker_counts() {
    for policy in [
        &OnlineDroop as &dyn PairPolicy,
        &OnlineIpc,
        &RandomPairing { seed: 3 },
    ] {
        let baseline = run(policy, 1);
        assert_eq!(baseline.jobs_completed, 18);
        for workers in [2, 8] {
            let other = run(policy, workers);
            assert_eq!(
                baseline,
                other,
                "{}: report differs between 1 and {workers} workers",
                policy.name()
            );
            // Byte-level check on the full rendering (structured
            // equality could miss formatting-visible float drift).
            assert_eq!(baseline.render(), other.render());
        }
    }
}

#[test]
fn trace_and_metrics_artifacts_are_byte_identical_across_worker_counts() {
    let artifacts = |workers: usize| {
        let tracer = Tracer::enabled();
        let report = run_traced(&OnlineDroop, workers, &tracer);
        (tracer.to_chrome_json(), report.snapshot.render_prometheus())
    };
    let (trace_1, prom_1) = artifacts(1);
    for workers in [2, 8] {
        let (trace_n, prom_n) = artifacts(workers);
        assert_eq!(
            trace_1, trace_n,
            "trace JSON differs between 1 and {workers} workers"
        );
        assert_eq!(
            prom_1, prom_n,
            "Prometheus snapshot differs between 1 and {workers} workers"
        );
    }
    // The invariant artifact is also a well-formed, non-trivial trace.
    let shape = validate_chrome_trace(&trace_1).expect("valid Chrome trace");
    assert!(shape.spans > 0 && shape.droops > 0);
    assert!(prom_1.contains("droops_total{policy=\"Droop(online)\"}"));
    assert!(prom_1.contains("queue_wait_kcycles{quantile=\"0.95\"}"));
}

#[test]
fn queue_overflow_sheds_the_same_job_under_sharding() {
    // A burst of simultaneous arrivals against a tiny bounded queue:
    // the run must end in the typed overflow error, shedding the very
    // same job with the very same recorded capacity, whether the pool
    // is the in-line coordinator or any number of shards. Admission
    // order is a decision-loop property, so which job overflows must
    // not depend on the execution backend.
    let jobs: Vec<JobSpec> = (0..12)
        .map(|id| JobSpec {
            id,
            workload: "429.mcf".into(),
            arrival_cycle: 0,
        })
        .collect();
    let overflow = |runtime: RuntimeMode, workers: usize| {
        let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
        cfg.chips = 2;
        cfg.slice_cycles = 600;
        cfg.queue_capacity = Some(3);
        cfg.runtime = runtime;
        match Service::new(cfg)
            .expect("valid config")
            .run(&jobs, &OnlineDroop, workers)
        {
            Err(ServeError::QueueOverflow { capacity, job }) => (capacity, job),
            other => panic!("expected QueueOverflow under {runtime:?}/{workers}, got {other:?}"),
        }
    };
    let reference = overflow(RuntimeMode::Coordinator, 1);
    assert_eq!(reference.0, 3);
    for shards in [1usize, 2, 4, 8] {
        assert_eq!(
            overflow(RuntimeMode::Sharded, shards),
            reference,
            "overflow identity differs at {shards} shards"
        );
    }
    // The default Auto mapping takes the sharded path for multi-worker
    // calls; the shed job must not change there either.
    for workers in [2usize, 8] {
        assert_eq!(overflow(RuntimeMode::Auto, workers), reference);
    }
}

/// What a run that ends in a queue overflow leaves behind: the error,
/// the trace, and every obs snapshot published before it.
struct OverflowArtifacts {
    error: ServeError,
    trace: String,
    publishes: Vec<ObsSnapshot>,
}

fn overflow_mid_run(runtime: RuntimeMode, workers: usize) -> OverflowArtifacts {
    const WORKLOADS: [&str; 4] = ["429.mcf", "482.sphinx3", "473.astar", "462.libquantum"];
    // Six jobs trickle in while the pool has room, so slices run and
    // every instrument has recorded state; then a burst of fourteen at
    // one cycle overflows the queue with epochs already executed.
    let jobs: Vec<JobSpec> = (0..20u64)
        .map(|id| JobSpec {
            id,
            workload: WORKLOADS[id as usize % WORKLOADS.len()].into(),
            arrival_cycle: if id < 6 { id * 700 } else { 9_000 },
        })
        .collect();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let mut obs = ObsConfig::new(Arc::new(TelemetryHub::new()));
    obs.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
        sink.lock().unwrap().push(snap.clone());
    }));
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 2;
    cfg.slice_cycles = 600;
    cfg.queue_capacity = Some(3);
    cfg.runtime = runtime;
    cfg.audit = Some(AuditConfig::default());
    cfg.obs = Some(obs);
    let tracer = Tracer::enabled();
    let inst = Instruments::new()
        .traced(&tracer)
        .monitored(MonitorConfig::default());
    let error =
        match Service::new(cfg)
            .expect("valid config")
            .run_with(&jobs, &OnlineDroop, workers, &inst)
        {
            Err(e) => e,
            Ok(_) => panic!("expected QueueOverflow under {runtime:?}/{workers}"),
        };
    OverflowArtifacts {
        error,
        trace: tracer.to_chrome_json(),
        publishes: Arc::try_unwrap(seen).unwrap().into_inner().unwrap(),
    }
}

#[test]
fn mid_run_queue_overflow_leaves_the_same_artifacts_under_sharding() {
    // The overflow drain replays every epoch decided before the
    // overflowing admission, so the trace, the metrics and every
    // published snapshot must end exactly where the in-line
    // coordinator leaves them — at every shard count.
    let reference = overflow_mid_run(RuntimeMode::Coordinator, 1);
    assert!(matches!(
        reference.error,
        ServeError::QueueOverflow { capacity: 3, .. }
    ));
    let shape = validate_chrome_trace(&reference.trace).expect("valid Chrome trace");
    assert!(
        shape.spans > 0 && shape.droops > 0,
        "slices ran before the overflow"
    );
    let last = reference
        .publishes
        .last()
        .expect("epochs published before the overflow");
    assert!(!last.decisions.is_empty() && !last.recent_droops.is_empty());
    assert!(last.health.is_some());
    for shards in [1usize, 2, 4, 8] {
        let sharded = overflow_mid_run(RuntimeMode::Sharded, shards);
        assert_eq!(sharded.error, reference.error, "error at {shards} shards");
        assert!(
            sharded.trace == reference.trace,
            "trace JSON diverged at {shards} shards"
        );
        assert_eq!(
            sharded.publishes.len(),
            reference.publishes.len(),
            "publish count at {shards} shards"
        );
        let (a, b) = (last, sharded.publishes.last().unwrap());
        assert_eq!(a.metrics, b.metrics, "metrics at {shards} shards");
        assert_eq!(a.health, b.health, "health at {shards} shards");
        assert_eq!(a.service, b.service, "status at {shards} shards");
        assert_eq!(a.decisions, b.decisions, "decisions at {shards} shards");
        assert_eq!(
            a.recent_droops, b.recent_droops,
            "droops at {shards} shards"
        );
        assert_eq!(a.profile_json, b.profile_json, "profile at {shards} shards");
    }
}

/// The sealed `vsmooth-audit-v1` JSON of a 48-job stream on four
/// Proc100 chips with 600-cycle slices, its ring large enough to keep
/// every decision.
fn stream_audit_json(workers: usize) -> String {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.slice_cycles = 600;
    cfg.audit = Some(AuditConfig { capacity: 4096 });
    let report = Service::new(cfg)
        .expect("valid config")
        .run(&synthetic_jobs(2010, 48, 900), &OnlineDroop, workers)
        .expect("service run");
    report.audit.expect("audit armed").to_json()
}

/// The job-timeline instants of a Chrome trace (`admit` instants and
/// `decision` instants), one event per line, in record order.
fn job_instants(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.contains("\"ph\":\"i\"") && l.contains("\"pid\":1,"))
        .map(|l| format!("{}\n", l.trim_end_matches(',')))
        .collect()
}

#[test]
fn decision_audit_matches_its_goldens_at_zero_and_two_workers() {
    // The audit is derived from the epoch script at replay time. These
    // goldens hold that derivation to the bytes the decision loop
    // recorded when it still pushed every event itself: the sealed
    // ring of a full stream, and the job-timeline instants of the
    // mid-run overflow, the only artifact that shows the shed (the
    // error drops the report, ring included). The instants also pin
    // how decision instants interleave with the admit instants.
    let stream = include_str!("golden/audit_stream.json");
    let overflow = include_str!("golden/overflow_jobs_instants.json");
    for workers in [0usize, 2] {
        assert!(
            stream_audit_json(workers) == stream,
            "stream audit JSON differs from the golden at {workers} workers"
        );
        let trace = overflow_mid_run(RuntimeMode::Auto, workers).trace;
        assert!(
            job_instants(&trace) == overflow,
            "overflow job instants differ from the golden at {workers} workers"
        );
    }
    // The goldens exercise every decision kind the loop takes.
    for kind in ["admit", "place", "grant", "demote"] {
        assert!(
            stream.contains(&format!("\"kind\":\"{kind}\"")),
            "no {kind} in the stream audit"
        );
    }
    assert_eq!(
        overflow
            .matches("\"name\":\"shed\",\"cat\":\"decision\"")
            .count(),
        1
    );
}

//! The service's determinism contract: for a fixed configuration, job
//! stream and policy, the [`ServiceReport`] — including its rendered
//! metrics snapshot — must be byte-identical however many worker
//! threads simulate the chip pool.

use vsmooth::chip::ChipConfig;
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::{OnlineDroop, OnlineIpc, PairPolicy, RandomPairing};
use vsmooth::serve::{
    synthetic_jobs, JobSpec, RuntimeMode, ServeError, Service, ServiceConfig, ServiceReport,
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

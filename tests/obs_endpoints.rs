//! End-to-end contract for the live operational endpoints: a monitored
//! service run must be scrapeable over loopback HTTP *while jobs
//! execute* with parseable payloads, `/healthz` must follow the paging
//! state through an injected degradation (503 mid-burst, 200 again
//! after resolve hysteresis), and hostile requests must be answered
//! with 400/404 without killing the accept loop.
//!
//! Mid-run scrapes ride the `on_publish` hook: the coordinator blocks
//! in the hook right after swapping the snapshot in, so what the
//! endpoints serve at that instant is exactly the snapshot just
//! published — a deterministic observation, not a wall-clock race.

use std::sync::{Arc, Mutex};

use vsmooth::chip::ChipConfig;
use vsmooth::monitor::{
    CusumConfig, HealthReport, MonitorConfig, RecorderConfig, Severity, Signal, SloRule,
};
use vsmooth::obs::{http_get, http_send_raw, ObsConfig, ObsServer, ObsSnapshot, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::{OnlineDroop, SameWorkload};
use vsmooth::serve::{synthetic_jobs, AuditConfig, JobSpec, Service, ServiceConfig, ServiceReport};
use vsmooth::trace::{parse_json, StreamConfig, Tracer};
use vsmooth::Instruments;

/// Virtual cycle at which the noisy burst begins.
const NOISY_AT: u64 = 14_000;
/// Virtual cycle at which the quiet tail starts arriving.
const QUIET_AT: u64 = 40_000;

/// The staged degradation of `monitor_demo` / `obs_demo`: quiet
/// lead-in, 482.sphinx3 self-pair burst, quiet tail so the paging
/// alert resolves before shutdown.
fn degradation_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for i in 0..4u64 {
        jobs.push(JobSpec {
            id: i,
            workload: if i % 2 == 0 { "444.namd" } else { "453.povray" }.to_string(),
            arrival_cycle: i * 200,
        });
    }
    for i in 0..8u64 {
        jobs.push(JobSpec {
            id: 4 + i,
            workload: "482.sphinx3".to_string(),
            arrival_cycle: NOISY_AT + i * 200,
        });
    }
    for i in 0..6u64 {
        jobs.push(JobSpec {
            id: 12 + i,
            workload: if i % 2 == 0 { "444.namd" } else { "453.povray" }.to_string(),
            arrival_cycle: QUIET_AT + i * 2_000,
        });
    }
    jobs
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        window_epochs: 8,
        recovery_cost_cycles: 20,
        rules: vec![
            SloRule::anomaly(
                "droop_rate_anomaly",
                Severity::Warning,
                Signal::DroopRate,
                CusumConfig::rising(1.0, 4.0),
            ),
            SloRule {
                fire_after: 2,
                ..SloRule::burn_rate(
                    "recovery_budget_burn",
                    Severity::Critical,
                    5.0,
                    4,
                    16,
                    6.0,
                    3.0,
                )
            },
        ],
        recorder: RecorderConfig::default(),
    }
}

fn run_observed(obs: ObsConfig) -> (ServiceReport, HealthReport) {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 2;
    cfg.slice_cycles = 600;
    cfg.obs = Some(obs);
    let service = Service::new(cfg).expect("valid config");
    service
        .run_monitored(
            &degradation_jobs(),
            &SameWorkload,
            2,
            &Tracer::disabled(),
            monitor_config(),
        )
        .expect("service run")
}

#[test]
fn endpoints_serve_parseable_payloads_while_jobs_execute() {
    let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // Before any publish the server is up but not ready.
    assert_eq!(http_get(addr, "/readyz").expect("probe").status, 503);

    // Capture one deterministic mid-run observation at epoch 40 —
    // inside the sphinx3 burst, with jobs still queued and running.
    type Scraped = (String, String, String, u16);
    let captured: Arc<Mutex<Option<Scraped>>> = Arc::new(Mutex::new(None));
    let mut obs = ObsConfig::new(server.hub());
    obs.on_publish = Some(Arc::new({
        let captured = Arc::clone(&captured);
        move |snap: &ObsSnapshot| {
            if snap.service.as_ref().is_some_and(|s| s.epoch == 40) {
                let metrics = http_get(addr, "/metrics").expect("mid-run /metrics");
                let status = http_get(addr, "/status").expect("mid-run /status");
                let recent = http_get(addr, "/trace/recent").expect("mid-run /trace/recent");
                let readyz = http_get(addr, "/readyz").expect("mid-run /readyz");
                assert_eq!(metrics.status, 200);
                assert_eq!(status.status, 200);
                assert_eq!(recent.status, 200);
                *captured.lock().expect("capture slot") =
                    Some((metrics.body, status.body, recent.body, readyz.status));
            }
        }
    }));
    let (report, _) = run_observed(obs);

    let (metrics_body, status_body, recent_body, readyz_status) = captured
        .lock()
        .expect("capture slot")
        .clone()
        .expect("epoch 40 must publish");
    assert_eq!(readyz_status, 200);

    // Prometheus text with the run's own counters and HELP metadata.
    assert!(metrics_body.contains("serve_jobs_admitted_total"));
    assert!(metrics_body.contains("# HELP serve_jobs_admitted_total"));
    assert!(metrics_body.contains("obs_scrapes_total"));

    // vsmooth-obs-v1 JSON mid-flight: not done, work in progress.
    let doc = parse_json(&status_body).expect("status JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(vsmooth::obs::OBS_STATUS_SCHEMA)
    );
    let service = doc.get("service").expect("service block");
    assert_eq!(service.get("epoch").and_then(|v| v.as_f64()), Some(40.0));
    assert_eq!(
        service.get("done").and_then(|v| v.as_bool()),
        Some(false),
        "epoch 40 is mid-run"
    );
    let running = service
        .get("running_jobs")
        .and_then(|v| v.as_f64())
        .expect("running_jobs");
    assert!(running > 0.0, "the burst keeps the chips busy at epoch 40");
    let completed = service
        .get("jobs_completed")
        .and_then(|v| v.as_f64())
        .expect("jobs_completed");
    assert!(completed < report.jobs_completed as f64);

    // The burst has already left droop crossings in the recent ring.
    let doc = parse_json(&recent_body).expect("trace JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(vsmooth::obs::OBS_TRACE_SCHEMA)
    );
    let returned = doc
        .get("returned")
        .and_then(|v| v.as_f64())
        .expect("returned");
    assert!(returned > 0.0, "mid-burst scrape must see recent droops");

    // After shutdown of the run (not the server) the final snapshot is
    // marked done and agrees with the report.
    let doc = parse_json(&http_get(addr, "/status").expect("final /status").body)
        .expect("final status JSON");
    let service = doc.get("service").expect("service block");
    assert_eq!(service.get("done").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        service.get("jobs_completed").and_then(|v| v.as_f64()),
        Some(report.jobs_completed as f64)
    );
    assert_eq!(
        service.get("droops").and_then(|v| v.as_f64()),
        Some(report.droops as f64)
    );
    server.shutdown();
}

#[test]
fn shards_and_decisions_endpoints_serve_live_sections_at_every_shard_count() {
    use vsmooth::serve::{AuditConfig, RuntimeMode};

    for workers in [1usize, 2, 8] {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();

        // One deterministic mid-run observation, as above: scrape from
        // inside the publish hook at epoch 40, mid-burst.
        type Scraped = (String, String, String);
        let captured: Arc<Mutex<Option<Scraped>>> = Arc::new(Mutex::new(None));
        let mut obs = ObsConfig::new(server.hub());
        obs.on_publish = Some(Arc::new({
            let captured = Arc::clone(&captured);
            move |snap: &ObsSnapshot| {
                if snap.service.as_ref().is_some_and(|s| s.epoch == 40) {
                    let shards = http_get(addr, "/shards").expect("mid-run /shards");
                    let decisions = http_get(addr, "/decisions?n=5").expect("mid-run /decisions");
                    let metrics = http_get(addr, "/metrics").expect("mid-run /metrics");
                    assert_eq!(shards.status, 200);
                    assert_eq!(decisions.status, 200);
                    assert_eq!(metrics.status, 200);
                    *captured.lock().expect("capture slot") =
                        Some((shards.body, decisions.body, metrics.body));
                }
            }
        }));
        let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
        cfg.chips = 2;
        cfg.slice_cycles = 600;
        cfg.runtime = RuntimeMode::Sharded;
        cfg.audit = Some(AuditConfig::default());
        cfg.obs = Some(obs);
        let (report, _) = Service::new(cfg)
            .expect("valid config")
            .run_monitored(
                &degradation_jobs(),
                &SameWorkload,
                workers,
                &Tracer::disabled(),
                monitor_config(),
            )
            .expect("service run");

        let (shards_body, decisions_body, metrics_body) = captured
            .lock()
            .expect("capture slot")
            .clone()
            .expect("epoch 40 must publish");

        // vsmooth-obs-shards-v2: one section per shard worker, live.
        let doc = parse_json(&shards_body).expect("shards JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(vsmooth::obs::OBS_SHARDS_SCHEMA)
        );
        let sections = doc
            .get("shards")
            .and_then(|v| v.as_array())
            .expect("shards array");
        assert_eq!(sections.len(), workers, "one section per shard");
        let grants = doc.get("grants").and_then(|v| v.as_f64()).expect("grants");
        assert!(grants > 0.0, "epoch 40 has granted quanta");

        // vsmooth-obs-decisions-v1: the audit ring tail, capped at n.
        let doc = parse_json(&decisions_body).expect("decisions JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(vsmooth::obs::OBS_DECISIONS_SCHEMA)
        );
        let events = doc
            .get("events")
            .and_then(|v| v.as_array())
            .expect("events array");
        assert!(!events.is_empty() && events.len() <= 5);
        for event in events {
            let kind = event.get("kind").and_then(|v| v.as_str()).expect("kind");
            assert!(["admit", "place", "grant", "shed", "demote"].contains(&kind));
        }

        // The introspection gauges ride the /metrics exposition with
        // HELP metadata, and the audit fold counter is live.
        assert!(metrics_body.contains("# HELP serve_shard_slices"));
        assert!(metrics_body.contains("serve_shard_slices{"));
        assert!(metrics_body.contains("# HELP serve_merge_lag_epochs"));
        assert!(metrics_body.contains("serve_audit_events_total"));

        // The sealed audit made it onto the report too.
        let audit = report.audit.as_ref().expect("audit armed");
        assert!(audit.total > 0);
        assert_eq!(
            report.snapshot.counter("serve_audit_events_total"),
            audit.total
        );
        server.shutdown();
    }

    // A coordinator run has no shard runtime: /shards answers 404
    // while every other endpoint keeps serving.
    let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 2;
    cfg.slice_cycles = 600;
    cfg.obs = Some(ObsConfig::new(server.hub()));
    Service::new(cfg)
        .expect("valid config")
        .run(&degradation_jobs()[..4], &SameWorkload, 1)
        .expect("coordinator run");
    assert_eq!(http_get(addr, "/status").expect("probe").status, 200);
    assert_eq!(http_get(addr, "/shards").expect("probe").status, 404);
    server.shutdown();
}

#[test]
fn healthz_degrades_to_503_and_recovers_with_the_run() {
    let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // Scrape /healthz from the hook every time the paging state flips;
    // the sequence of statuses is then a deterministic function of the
    // scenario, not of scrape timing.
    let transitions: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::new()));
    let mut obs = ObsConfig::new(server.hub());
    obs.on_publish = Some(Arc::new({
        let transitions = Arc::clone(&transitions);
        move |snap: &ObsSnapshot| {
            let paging = snap.health.as_ref().is_some_and(|h| h.pages_firing() > 0);
            let want: u16 = if paging { 503 } else { 200 };
            let mut log = transitions.lock().expect("transition log");
            if log.last() != Some(&want) {
                log.push(http_get(addr, "/healthz").expect("probe").status);
            }
        }
    }));
    let (_, health) = run_observed(obs);

    assert_eq!(
        transitions.lock().expect("transition log").clone(),
        vec![200, 503, 200],
        "healthy lead-in, paging burst, resolved tail"
    );
    // The endpoint's verdict is the same one the health report renders.
    assert_eq!(health.verdict(), "OK");
    assert_eq!(health.pages_firing(), 0);
    let resp = http_get(addr, "/healthz").expect("final probe");
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with("OK"));
    server.shutdown();
}

#[test]
fn hostile_requests_get_4xx_and_the_server_keeps_serving() {
    let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    server.hub().publish(ObsSnapshot::default());

    assert_eq!(http_send_raw(addr, b"garbage\r\n\r\n").expect("raw"), 400);
    assert_eq!(
        http_send_raw(addr, b"GET /status HTTP/1.1 extra\r\n\r\n").expect("raw"),
        400
    );
    assert_eq!(http_get(addr, "/nope").expect("probe").status, 404);
    assert_eq!(
        http_get(addr, "/trace/recent?n=many")
            .expect("probe")
            .status,
        400
    );
    assert_eq!(
        http_send_raw(addr, b"DELETE /metrics HTTP/1.1\r\n\r\n").expect("raw"),
        405
    );

    // Still alive, and the self-metrics counted every rejection.
    let resp = http_get(addr, "/metrics").expect("probe");
    assert_eq!(resp.status, 200);
    assert!(resp
        .body
        .contains("obs_scrapes_total{endpoint=\"invalid\",status=\"400\"} 2"));
    assert!(resp
        .body
        .contains("obs_scrapes_total{endpoint=\"unknown\",status=\"404\"} 1"));
    server.shutdown();
}

/// The `/trace/recent?n=256` and `/decisions?n=256` bodies of the final
/// publish of `synthetic_jobs(2010, 48, 900)` on the 4-chip Proc100
/// pool with 600-cycle slices and every instrument armed (a streaming
/// tracer, the profiler, the monitor, obs publishing every epoch, the
/// audit and the invariant checker), captured through
/// `ObsConfig::on_publish` and served from a hub of its own.
fn final_ring_bodies() -> (String, String) {
    let last = Arc::new(Mutex::new(None));
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.slice_cycles = 600;
    cfg.invariants = true;
    cfg.audit = Some(AuditConfig::default());
    let mut oc = ObsConfig::new(Arc::new(TelemetryHub::new()));
    let sink = Arc::clone(&last);
    oc.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
        if snap.service.as_ref().is_some_and(|s| s.done) {
            *sink.lock().unwrap() = Some(snap.clone());
        }
    }));
    cfg.obs = Some(oc);
    let tracer = Tracer::streaming_to_writer(std::io::sink(), StreamConfig::default());
    let inst = Instruments::new()
        .traced(&tracer)
        .profiled()
        .monitored(MonitorConfig::default());
    Service::new(cfg)
        .expect("valid config")
        .run_with(&synthetic_jobs(2010, 48, 900), &OnlineDroop, 1, &inst)
        .expect("service run");
    let snap = last.lock().unwrap().take().expect("a final publish");
    let server = ObsServer::bind("127.0.0.1:0").expect("bind");
    server.hub().publish(snap);
    let get = |path: &str| {
        let resp = http_get(server.local_addr(), path).expect("scrape");
        assert_eq!(resp.status, 200, "{path}");
        resp.body
    };
    let bodies = (get("/trace/recent?n=256"), get("/decisions?n=256"));
    server.shutdown();
    bodies
}

#[test]
fn recent_and_decision_bodies_match_their_goldens() {
    // The shard-equivalence suite compares these bodies across shard
    // counts; the goldens pin their bytes, so a change that moved them
    // at every shard count alike still fails here.
    let (recent, decisions) = final_ring_bodies();
    assert!(
        recent == include_str!("golden/obs_trace_recent.json"),
        "/trace/recent body differs from its golden"
    );
    assert!(
        decisions == include_str!("golden/obs_decisions.json"),
        "/decisions body differs from its golden"
    );
    // Both rings are full, so the bodies cross batch boundaries.
    for body in [&recent, &decisions] {
        let doc = parse_json(body).expect("ring JSON parses");
        assert_eq!(doc.get("returned").and_then(|v| v.as_f64()), Some(256.0));
    }
}

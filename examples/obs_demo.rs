//! vsmooth-obs demo: live operational endpoints over a real
//! degradation.
//!
//! The monitored staged-degradation scenario of `monitor_demo` (quiet
//! lead-in, 482.sphinx3 burst, quiet tail) runs with an embedded
//! scrape server attached on an ephemeral loopback port. While the
//! jobs execute the coordinator publishes a snapshot every epoch, and
//! the demo proves the serving contract end to end:
//!
//! * `/healthz` flips 200 → 503 when the recovery-budget burn-rate
//!   rule (Critical, the paging severity) fires mid-burst, and back to
//!   200 once the quiet tail lets it resolve — observed *during* the
//!   run from the `on_publish` hook, so the check is deterministic
//!   rather than a wall-clock race;
//! * all eight endpoints answer over plain loopback HTTP with
//!   parseable payloads (`/profile` from a second, profiled pass;
//!   `/shards` with the live per-shard introspection of the sharded
//!   runtime; `/decisions` with the scheduler audit ring);
//! * the armed decision audit seals as the `vsmooth-audit-v1` JSON
//!   artifact, written next to the run;
//! * malformed and unknown requests get 400/404 without killing the
//!   accept loop.
//!
//! ```text
//! cargo run --example obs_demo --release [audit-out.json]
//! ```

use std::sync::{Arc, Mutex};

use vsmooth::chip::ChipConfig;
use vsmooth::monitor::{CusumConfig, MonitorConfig, RecorderConfig, Severity, Signal, SloRule};
use vsmooth::obs::{http_get, http_send_raw, ObsConfig, ObsServer, ObsSnapshot};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::SameWorkload;
use vsmooth::serve::{AuditConfig, JobSpec, Service, ServiceConfig};
use vsmooth::trace::parse_json;
use vsmooth::Instruments;

/// Virtual cycle at which the noisy burst begins.
const NOISY_AT: u64 = 14_000;
/// Virtual cycle at which the quiet tail starts arriving.
const QUIET_AT: u64 = 40_000;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = ObsServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr();
    println!("obs: listening on http://{addr}/");

    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 2;
    cfg.slice_cycles = 600;

    // The transition probe: after each publish (the coordinator blocks
    // in this hook, so /healthz reads exactly the snapshot just
    // published) scrape /healthz whenever the paging state changed.
    let transitions: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::new()));
    let mut obs = ObsConfig::new(server.hub());
    obs.on_publish = Some(Arc::new({
        let transitions = Arc::clone(&transitions);
        move |snap: &ObsSnapshot| {
            let paging = snap.health.as_ref().is_some_and(|h| h.pages_firing() > 0);
            let want: u16 = if paging { 503 } else { 200 };
            let mut log = transitions.lock().expect("transition log");
            if log.last() != Some(&want) {
                let got = http_get(addr, "/healthz").map(|r| r.status).unwrap_or(0);
                assert_eq!(got, want, "/healthz disagrees with the published snapshot");
                log.push(got);
            }
        }
    }));
    let mut monitored_cfg = cfg.clone();
    monitored_cfg.obs = Some(obs);
    // Arm the decision audit: the run's admit/place/grant/demote
    // decisions fold into a bounded ring served at /decisions and
    // sealed as the vsmooth-audit-v1 artifact below.
    monitored_cfg.audit = Some(AuditConfig::default());
    let service = Service::new(monitored_cfg)?;
    let inst = Instruments::new().monitored(monitor_config());
    let run = service.run_with(&degradation_jobs(), &SameWorkload, 2, &inst)?;
    let (report, health) = (run.report, run.health.expect("monitor armed"));

    let flips = transitions.lock().expect("transition log").clone();
    assert_eq!(
        flips,
        vec![200, 503, 200],
        "expected healthy -> paging -> resolved"
    );
    println!("/healthz flipped 200 -> 503 -> 200 (degradation burst, then resolve hysteresis)");
    println!(
        "run: {} jobs completed, {} droops, final verdict {}",
        report.jobs_completed,
        report.droops,
        health.verdict()
    );

    // Every endpoint answers over plain loopback HTTP against the
    // final (done) snapshot.
    for path in ["/metrics", "/healthz", "/readyz", "/status"] {
        let resp = http_get(addr, path)?;
        println!("GET {path} -> {}", resp.status);
        assert_eq!(resp.status, 200);
    }
    let status = http_get(addr, "/status")?;
    let doc = parse_json(&status.body).map_err(|e| format!("status JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("status schema missing")?
        .to_string();
    println!("status schema {schema}");
    let svc = doc.get("service").ok_or("service block missing")?;
    assert_eq!(
        svc.get("done").and_then(|v| v.as_bool()),
        Some(true),
        "final snapshot marks the run done"
    );

    let recent = http_get(addr, "/trace/recent?n=8")?;
    let doc = parse_json(&recent.body).map_err(|e| format!("trace JSON: {e}"))?;
    let returned = doc.get("returned").and_then(|v| v.as_f64()).unwrap_or(0.0);
    println!(
        "GET /trace/recent?n=8 -> {} ({returned} droop crossings)",
        recent.status
    );
    assert!(returned > 0.0, "the burst must leave recent droops behind");

    // The sharded runtime (2 workers) published its live introspection
    // section: per-shard slice counts, lane high-water marks, queue
    // depths, merge lag.
    let shards = http_get(addr, "/shards")?;
    let doc = parse_json(&shards.body).map_err(|e| format!("shards JSON: {e}"))?;
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("vsmooth-obs-shards-v2")
    );
    let sections = doc
        .get("shards")
        .and_then(|v| v.as_array())
        .ok_or("shards array missing")?;
    println!(
        "GET /shards -> {} ({} shard sections, schema vsmooth-obs-shards-v2)",
        shards.status,
        sections.len()
    );
    assert_eq!(shards.status, 200);

    // The decision audit ring rides in every snapshot.
    let decisions = http_get(addr, "/decisions?n=6")?;
    let doc = parse_json(&decisions.body).map_err(|e| format!("decisions JSON: {e}"))?;
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("vsmooth-obs-decisions-v1")
    );
    let available = doc.get("available").and_then(|v| v.as_f64()).unwrap_or(0.0);
    println!(
        "GET /decisions?n=6 -> {} ({available} in ring)",
        decisions.status
    );
    assert_eq!(decisions.status, 200);
    assert!(available > 0.0, "the audited run must record decisions");

    // Seal the audit as its exported artifact.
    let audit = report.audit.as_ref().ok_or("audit armed but absent")?;
    let audit_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "obs_demo_audit.json".into());
    std::fs::write(&audit_path, audit.to_json())?;
    println!(
        "audit: vsmooth-audit-v1 sealed to {audit_path} ({} decisions recorded, {} in ring)",
        audit.total,
        audit.events.len()
    );

    // A second, profiled pass on the same hub lights up /profile with
    // the live vsmooth-profile-v1 attribution document.
    let mut profiled_cfg = cfg.clone();
    profiled_cfg.obs = Some(ObsConfig::new(server.hub()));
    let service = Service::new(profiled_cfg)?;
    let inst = Instruments::new().profiled();
    service.run_with(&degradation_jobs(), &SameWorkload, 2, &inst)?;
    let profile = http_get(addr, "/profile")?;
    println!("GET /profile -> {} (after a profiled pass)", profile.status);
    assert_eq!(profile.status, 200);
    let doc = parse_json(&profile.body).map_err(|e| format!("profile JSON: {e}"))?;
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("vsmooth-profile-v1")
    );

    // Hostile input does not kill the accept loop.
    assert_eq!(http_send_raw(addr, b"garbage\r\n\r\n")?, 400);
    println!("malformed request -> 400");
    assert_eq!(http_get(addr, "/nope")?.status, 404);
    println!("unknown path -> 404");
    assert_eq!(http_get(addr, "/metrics")?.status, 200);
    println!("server survived; obs self-metrics in /metrics exposition");

    server.shutdown();
    println!("obs demo complete");
    Ok(())
}

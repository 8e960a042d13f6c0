//! vsmooth-monitor demo: live health monitoring of a scheduling-service
//! run through a staged degradation —
//!
//! * a quiet lead-in of compute-bound jobs establishes the CUSUM
//!   droop-rate baseline;
//! * a burst of 482.sphinx3 arrivals under the same-workload policy
//!   forces the noisiest self-pair in the catalog onto every chip;
//! * the streaming window aggregator sees the droop rate jump, the
//!   anomaly rule and the recovery-budget burn-rate rule fire, and the
//!   flight recorder seals `vsmooth-postmortem-v1` bundles carrying the
//!   offending window's droop events, slice timeline and snapshots;
//! * alert counters and windowed gauges land in the labeled metrics
//!   registry (rendered as Prometheus text below).
//!
//! The demo also *proves* the determinism contract: it re-runs the
//! identical stream with 1, 2 and 8 worker threads and asserts the
//! health artifact — alerts and postmortems included — is
//! byte-identical.
//!
//! ```text
//! cargo run --example monitor_demo --release [health.json]
//! ```

use vsmooth::chip::ChipConfig;
use vsmooth::monitor::{
    validate_postmortem, CusumConfig, HealthReport, MonitorConfig, RecorderConfig, Severity,
    Signal, SloRule,
};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::SameWorkload;
use vsmooth::serve::{JobSpec, Service, ServiceConfig, ServiceReport};
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
    // A quiet tail after the burst drains: the windowed droop rate
    // falls back, the rules clear for `resolve_after` evaluations, and
    // the run shuts down with verdict OK instead of a page still
    // firing (exactly what an operator wants after remediation).
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
    let mut args = std::env::args().skip(1);
    let health_path = args
        .next()
        .unwrap_or_else(|| "target/monitor_demo.json".into());

    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 2;
    cfg.slice_cycles = 600;
    let jobs = degradation_jobs();

    let run =
        |workers: usize| -> Result<(ServiceReport, HealthReport), Box<dyn std::error::Error>> {
            let service = Service::new(cfg.clone())?;
            let inst = Instruments::new().monitored(monitor_config());
            let run = service.run_with(&jobs, &SameWorkload, workers, &inst)?;
            Ok((run.report, run.health.expect("monitor armed")))
        };

    let (report, health) = run(1)?;
    let json = health.to_json();
    for workers in [2, 8] {
        let (_, h) = run(workers)?;
        assert_eq!(json, h.to_json(), "health differs with {workers} workers");
    }
    println!("determinism: health artifact byte-identical for 1/2/8 workers");

    // The regime change fired both rules, after the burst.
    assert!(!health.alerts.is_empty(), "degradation must page");
    for alert in &health.alerts {
        assert!(alert.fired_at_cycle >= NOISY_AT, "no false positives");
        println!(
            "alert: {} [{}] fired at kcycle {:.1} (windowed droop rate \
             {:.2}/kcycle, recovery overhead {:.1}%)",
            alert.rule,
            alert.severity.label(),
            alert.fired_at_kcycle(),
            alert.window.droop_rate_per_kilocycle,
            alert.window.recovery_overhead_pct()
        );
    }

    // Every sealed postmortem re-validates offline.
    assert_eq!(health.postmortems.len(), health.alerts.len());
    for pm in &health.postmortems {
        let shape = validate_postmortem(&pm.to_json()).map_err(|e| format!("postmortem: {e}"))?;
        println!(
            "postmortem[{}]: {} droop events, {} slices, {} snapshots",
            pm.alert.rule, shape.droop_events, shape.slices, shape.snapshots
        );
    }

    println!();
    print!("{}", health.render());

    // Alert counters and windowed gauges are in the labeled metrics.
    let prometheus = report.snapshot.render_prometheus();
    println!();
    for line in prometheus
        .lines()
        .filter(|l| l.starts_with("alerts_total") || l.starts_with("monitor_"))
    {
        println!("{line}");
    }

    std::fs::write(&health_path, &json)?;
    println!("\nwrote {health_path} — deterministic health artifact");

    // The exit-code contract shares one definition of "unhealthy" with
    // the obs server's /healthz (Severity::pages): a paging alert
    // still unresolved at shutdown means verdict FIRING, a [FIRING]
    // marker on the service report, and a nonzero exit. The quiet tail
    // above lets the critical alert resolve, so the demo exits 0.
    println!("health verdict: {}", health.verdict());
    if health.pages_firing() > 0 {
        eprintln!("paging alert still firing at shutdown");
        std::process::exit(1);
    }
    assert!(
        !report.render().contains("[FIRING]"),
        "report marker must agree with the verdict"
    );
    Ok(())
}

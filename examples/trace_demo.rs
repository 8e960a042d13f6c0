//! vsmooth-trace demo: one scheduling-service run recorded as a
//! structured event log, exported two ways —
//!
//! * a Chrome trace-event JSON (open `chrome://tracing` or
//!   <https://ui.perfetto.dev> and load the file) with per-job spans
//!   (admit → queue → run), per-slice chip timelines and a typed
//!   instant + running counter for every droop emergency;
//! * a Prometheus text snapshot with labeled counters and p50/p95/p99
//!   summary quantiles.
//!
//! The demo also *proves* the determinism contract: it re-runs the
//! identical stream with 1, 2 and 8 worker threads and asserts both
//! artifacts are byte-identical.
//!
//! ```text
//! cargo run --example trace_demo --release [trace.json [metrics.prom]]
//! ```

use vsmooth::chip::ChipConfig;
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, Service, ServiceConfig};
use vsmooth::trace::{validate_chrome_trace, Tracer};
use vsmooth::Instruments;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let trace_path = args
        .next()
        .unwrap_or_else(|| "target/trace_demo.json".into());
    let metrics_path = args
        .next()
        .unwrap_or_else(|| "target/trace_demo.prom".into());

    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 1_000;
    let jobs = synthetic_jobs(42, 24, 1_500);

    let run = |workers: usize| -> Result<(String, String), Box<dyn std::error::Error>> {
        let tracer = Tracer::enabled();
        let service = Service::new(cfg.clone())?;
        let inst = Instruments::new().traced(&tracer);
        let report = service
            .run_with(&jobs, &OnlineDroop, workers, &inst)?
            .report;
        Ok((tracer.to_chrome_json(), report.snapshot.render_prometheus()))
    };

    let (trace_json, prometheus) = run(1)?;
    for workers in [2, 8] {
        let (t, p) = run(workers)?;
        assert_eq!(trace_json, t, "trace differs with {workers} workers");
        assert_eq!(prometheus, p, "metrics differ with {workers} workers");
    }
    println!("determinism: trace + metrics byte-identical for 1/2/8 workers");

    let shape = validate_chrome_trace(&trace_json)?;
    assert!(shape.spans >= 2 * jobs.len(), "≥2 spans per job");
    assert!(shape.droops > 0, "the stream should hit the margin");
    println!(
        "trace:       {} events ({} spans, {} instants, {} counter samples, {} droops)",
        shape.events, shape.spans, shape.instants, shape.counters, shape.droops
    );

    assert!(prometheus.contains("droops_total{policy=\"Droop(online)\"}"));
    assert!(prometheus.contains("queue_wait_kcycles{quantile=\"0.5\"}"));
    assert!(prometheus.contains("queue_wait_kcycles{quantile=\"0.95\"}"));
    assert!(prometheus.contains("queue_wait_kcycles{quantile=\"0.99\"}"));

    std::fs::write(&trace_path, &trace_json)?;
    std::fs::write(&metrics_path, &prometheus)?;
    println!("wrote {trace_path} — load it in chrome://tracing or ui.perfetto.dev");
    println!("wrote {metrics_path} — Prometheus text exposition snapshot:\n");
    for line in prometheus.lines().take(12) {
        println!("  {line}");
    }
    println!("  ...");
    Ok(())
}

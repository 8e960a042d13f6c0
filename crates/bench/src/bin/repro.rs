//! Regenerates every figure and table of the paper in one run, sharing
//! the expensive campaigns across experiments.
//!
//! ```text
//! cargo run -p vsmooth-bench --bin repro --release            # default scale
//! VSMOOTH_BENCH=full cargo run -p vsmooth-bench --bin repro --release
//! ```
//!
//! `VSMOOTH_BENCH` picks the experiment scale: `quick`, `bench` or
//! `full`; anything else runs a reduced-but-faithful default (10
//! benchmarks at 10 k cycles per interval) that completes in minutes.
//!
//! With `--trace-out <path>` and/or `--metrics-out <path>` the run
//! additionally executes one traced scheduling-service pass and writes
//! a Chrome trace-event JSON (load it in `chrome://tracing` or
//! Perfetto) and a Prometheus text snapshot of the labeled metrics.
//! `--profile-out <path>` upgrades that pass to a profiled one and
//! writes the droop root-cause attribution report as a JSON artifact
//! (see `vsmooth-profile`). `--monitor-out <path>` attaches a live
//! health monitor to the pass and writes the final `vsmooth-health-v1`
//! report — windowed signals, SLO alerts, and any sealed
//! flight-recorder postmortems (see `vsmooth-monitor`).
//! `--fleet-out <path>` additionally runs a small seeded heterogeneous
//! fleet sweep and writes the per-chip `vsmooth-fleet-v1` margin report
//! (see `vsmooth-fleet`). `--stream-trace <path>` runs the same traced
//! pass through the bounded-memory streaming pipeline instead of the
//! in-memory buffer, writing the Chrome trace incrementally and
//! printing the pipeline's own telemetry (ring occupancy, bytes
//! flushed, typed drops). `--serve-http <addr>` runs one more
//! monitored pass with live operational endpoints: an embedded scrape
//! server (bind to `127.0.0.1:0` for an ephemeral port) serves
//! `/metrics`, `/healthz`, `/readyz`, `/status`, `/trace/recent` and
//! `/profile` over loopback HTTP while the jobs execute, then the
//! binary self-probes every endpoint and reports the statuses.

use vsmooth::chip::Fidelity;
use vsmooth::experiments::{ExperimentConfig, Lab};
use vsmooth::monitor::MonitorConfig;
use vsmooth::report;
use vsmooth::{Instruments, VsmoothError};

/// The experiment configuration selected by `VSMOOTH_BENCH`.
fn scale() -> ExperimentConfig {
    match std::env::var("VSMOOTH_BENCH").ok().as_deref() {
        Some("full") => ExperimentConfig {
            fidelity: Fidelity::Custom(120_000),
            ..ExperimentConfig::bench()
        },
        Some("bench") => ExperimentConfig::bench(),
        Some("quick") => ExperimentConfig::quick(),
        _ => ExperimentConfig {
            fidelity: Fidelity::Custom(10_000),
            benchmarks: Some(10),
            ..ExperimentConfig::bench()
        },
    }
}

/// The command line `repro` accepts.
const USAGE: &str = "usage: repro [--trace-out <path>] [--metrics-out <path>] \
                     [--profile-out <path>] [--monitor-out <path>] [--fleet-out <path>] \
                     [--stream-trace <path>] [--serve-http <addr>]";

/// Reports a command-line error with the usage line and exits with
/// status 2, before any simulation starts.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() -> Result<(), VsmoothError> {
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut monitor_out: Option<String> = None;
    let mut fleet_out: Option<String> = None;
    let mut stream_trace: Option<String> = None;
    let mut serve_http: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--trace-out" => &mut trace_out,
            "--metrics-out" => &mut metrics_out,
            "--profile-out" => &mut profile_out,
            "--monitor-out" => &mut monitor_out,
            "--fleet-out" => &mut fleet_out,
            "--stream-trace" => &mut stream_trace,
            "--serve-http" => &mut serve_http,
            other => usage_error(&format!("unknown argument: {other}")),
        };
        // A flag where the value should be is a missing value, not a
        // path: `--trace-out --metrics-out` must not write the trace to
        // a file named `--metrics-out`.
        match args.next() {
            Some(value) if !value.starts_with("--") => *slot = Some(value),
            _ => usage_error(&format!("{arg} needs a value")),
        }
    }

    let mut lab = Lab::new(scale());
    println!(
        "vsmooth reproduction — fidelity {:?}, {} benchmarks, {} threads\n",
        lab.config().fidelity,
        lab.benchmark_names().len(),
        lab.config().threads
    );

    println!("{}", report::fig01(&lab.fig01()?));
    println!("{}", report::fig02(&lab.fig02()));
    println!("{}", report::fig04(&lab.fig04()?));

    println!("Fig. 5m-r — reset waveforms (min voltage per configuration)");
    for (decap, wave) in lab.fig05(64)? {
        let min = wave.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("  {decap:<8} min {min:.3} V");
    }
    println!();

    println!("{}", report::fig06(&lab.fig06()?));

    let trace = lab.fig11(4_000)?;
    let (lo, hi) = trace
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    println!(
        "Fig. 11 — TLB microbenchmark trace: {} samples, {:.1} mV p2p\n",
        trace.len(),
        (hi - lo) * 1e3
    );

    println!("Fig. 12 — single-core event swings (relative to idling OS)");
    for s in lab.fig12()? {
        println!("  {:>4}: {:.2}x", s.event, s.relative_swing);
    }
    println!();

    let m = lab.fig13()?;
    println!("Fig. 13 — interference matrix (rows core0 L1..EXCP, cols core1)");
    for (i, e) in vsmooth::uarch::StallEvent::ALL.iter().enumerate() {
        let row: Vec<String> = m.matrix[i].iter().map(|v| format!("{v:.2}")).collect();
        println!("  {:>4}: {}", e.label(), row.join(" "));
    }
    let (e0, e1, max) = m.max();
    println!("  max {e0}/{e1} = {max:.2} (paper: EXCP/EXCP = 2.42)\n");

    println!("Fig. 7 — {}", report::sample_distribution(&lab.fig07()?));
    println!("{}", report::fig08(&lab.fig08()?));
    for d in lab.fig09()? {
        println!("Fig. 9 — {}", report::sample_distribution(&d));
    }
    println!("{}", report::fig10(&lab.fig10()?));
    println!("{}", report::fig14(&lab.fig14()?));
    println!("{}", report::fig15(&lab.fig15()?));
    println!("{}", report::fig16(&lab.fig16()?));
    println!("{}", report::fig17(&lab.fig17()?));
    println!("{}", report::fig18(&lab.fig18()?));
    println!("{}", report::fig19(&lab.fig19()?));
    println!("{}", report::tab01(&lab.tab01()?));

    // Beyond the paper: the online scheduling service, one submission
    // stream under every pairing policy.
    println!(
        "{}",
        report::serve_comparison(&lab.serve_comparison(2010, 120)?)
    );

    if let Some(path) = &fleet_out {
        // Beyond the paper: the heterogeneous fleet sweep — how much of
        // the shipped 14 % margin could each part of a varied
        // population shed?
        let fleet = lab.fleet_sweep(2010, 6, 8)?;
        println!("{}", report::fleet(&fleet));
        std::fs::write(path, fleet.to_json()).expect("write fleet JSON");
        println!(
            "wrote fleet margin report ({} chips, {} runs) to {path}",
            fleet.chips.len(),
            fleet.total_runs
        );
    }

    if trace_out.is_some()
        || metrics_out.is_some()
        || profile_out.is_some()
        || monitor_out.is_some()
    {
        let tracer = vsmooth::trace::Tracer::enabled();
        // Profiling and monitoring ride on the same service pass: the
        // schedule (and thus the trace and metrics) is identical either
        // way. When both are requested the monitor gets its own
        // untraced pass (same stream, same schedule): arming it on the
        // profiled pass would add alert instants to the trace and
        // alert series to the metrics snapshot.
        let traced = Instruments::new().traced(&tracer);
        let monitored = Instruments::new().monitored(MonitorConfig::default());
        let observed = if profile_out.is_some() {
            let mut observed = lab.serve(2010, 120, None, &traced.profiled())?;
            if monitor_out.is_some() {
                observed.health = lab.serve(2010, 120, None, &monitored)?.health;
            }
            observed
        } else if monitor_out.is_some() {
            lab.serve(2010, 120, None, &traced.monitored(MonitorConfig::default()))?
        } else {
            lab.serve(2010, 120, None, &traced)?
        };
        if let Some(path) = &trace_out {
            std::fs::write(path, tracer.to_chrome_json()).expect("write trace JSON");
            println!(
                "wrote Chrome trace ({} records, {} droop events) to {path}",
                tracer.len(),
                tracer.droops_total()
            );
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, observed.report.snapshot.render_prometheus())
                .expect("write metrics");
            println!("wrote Prometheus metrics snapshot to {path}");
        }
        if let (Some(path), Some(profile)) = (&profile_out, &observed.profile) {
            std::fs::write(path, profile.to_json()).expect("write profile JSON");
            println!(
                "wrote droop attribution profile ({} droops, {} co-schedules) to {path}",
                profile.total_droops,
                profile.workloads.len()
            );
        }
        if let (Some(path), Some(health)) = (&monitor_out, &observed.health) {
            std::fs::write(path, health.to_json()).expect("write health JSON");
            println!(
                "wrote health report ({} epochs, {} alerts, {} postmortems) to {path}",
                health.epochs,
                health.alerts.len(),
                health.postmortems.len()
            );
        }
    }

    if let Some(path) = &stream_trace {
        // Same traced pass, but through the bounded-memory pipeline:
        // records flow job-stream-order into a fixed ring and out to
        // the file in chunks, so peak telemetry memory is the ring —
        // not the whole trace.
        let file = std::fs::File::create(path).expect("create stream trace file");
        let tracer = vsmooth::trace::Tracer::streaming_to_writer(
            std::io::BufWriter::new(file),
            vsmooth::trace::StreamConfig::default(),
        );
        lab.serve(2010, 120, None, &Instruments::new().traced(&tracer))?;
        let stats = tracer
            .finish_stream()
            .expect("streaming tracer")
            .expect("flush stream trace");
        let written = std::fs::read_to_string(path).expect("read back stream trace");
        let shape =
            vsmooth::trace::validate_chrome_trace(&written).expect("streamed trace is valid");
        println!(
            "streamed Chrome trace to {path}: {} records in, {} written, \
             {} dropped, peak ring {}/{}, {} bytes in {} flushes \
             ({} spans, {} droop events validated)",
            stats.records_seen,
            stats.records_written,
            stats.dropped_total(),
            stats.peak_ring_occupancy,
            stats.ring_capacity,
            stats.sink.bytes_flushed,
            stats.sink.flushes,
            shape.spans,
            shape.droops
        );
    }

    if let Some(addr) = &serve_http {
        // One more monitored pass, this time observable from outside:
        // the coordinator publishes into the server's hub each epoch
        // and the endpoints serve whatever snapshot is current.
        use vsmooth::obs::{http_get, ObsConfig, ObsServer};
        let server = ObsServer::bind(addr.as_str()).expect("bind obs server");
        let local = server.local_addr();
        println!("obs: listening on http://{local}/ for one monitored pass");
        let obs = ObsConfig::new(server.hub());
        let monitored = Instruments::new().monitored(MonitorConfig::default());
        let run = lab.serve(2010, 120, Some(obs), &monitored)?;
        let (observed, health) = (run.report, run.health.expect("monitored pass"));
        for path in [
            "/metrics",
            "/healthz",
            "/readyz",
            "/status",
            "/trace/recent?n=8",
            "/profile",
        ] {
            let resp = http_get(local, path).expect("self-probe endpoint");
            println!("  GET {path} -> {}", resp.status);
        }
        server.shutdown();
        println!(
            "observed pass: {} jobs completed, health verdict {}",
            observed.jobs_completed,
            health.verdict()
        );
    }

    Ok(())
}

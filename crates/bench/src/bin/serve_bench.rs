//! Quick machine-readable serve benchmark: the scheduling-service
//! throughput per worker count and the overhead of each armed
//! instrument (traced, profiled, monitored, ...), condensed into
//! medians and written as a small JSON artifact so CI can track the
//! perf trajectory.
//!
//! ```text
//! cargo run -p vsmooth-bench --bin serve_bench --release [BENCH_serve.json]
//! ```
//!
//! Shape (`vsmooth-serve-bench-v1`): per worker count the median
//! wall-clock milliseconds and simulated kilocycles per second over
//! `ROUNDS` runs of an identical job stream, plus the median per-pair
//! overhead ratio of each armed instrument over interleaved plain runs
//! (including the bounded-memory streaming trace pipeline and an
//! `obs_scrape_under_load` row: a monitored run publishing into a live
//! scrape server hammered by a loopback `/metrics` client, against the
//! same monitored run unobserved; and an `introspection` row: the
//! sharded runtime with the live scoreboard and decision audit armed,
//! against the plain sharded baseline; and an `observed` row: a
//! streaming tracer, the monitor, an obs hub publishing every epoch
//! and the decision audit on one fused shard, against a plain run on
//! one fused shard), a telemetry-memory comparison of Full-mode
//! buffering vs the streaming ring, plus a fleet-sweep throughput row
//! (runs per second with and without checkpointing to disk).

use std::sync::Arc;
use std::time::Instant;

use vsmooth::chip::ChipConfig;
use vsmooth::fleet::{FleetCampaign, FleetSpec};
use vsmooth::monitor::MonitorConfig;
use vsmooth::obs::{ObsConfig, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, AuditConfig, RuntimeMode, Service, ServiceConfig};
use vsmooth::trace::{StreamConfig, Tracer};
use vsmooth::Instruments;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ROUNDS: usize = 5;
const JOBS: usize = 48;
const SLICE: u64 = 600;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());

    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.slice_cycles = SLICE;
    let service = Service::new(cfg).expect("valid config");
    let jobs = synthetic_jobs(2010, JOBS, 900);

    // Throughput per worker count: median wall time and simulated
    // kilocycles per wall second over identical runs. Rounds are
    // *interleaved* across worker counts (round-major, not
    // worker-major) so slow drift of the host — thermal throttling,
    // noisy neighbours — lands on every worker count equally instead
    // of skewing whichever count happened to run last. The scaling
    // ratios below compare medians across counts, so drift matters
    // more here than in any single row.
    let warm = service.run(&jobs, &OnlineDroop, 1).expect("service run");
    let mut wall_ms = vec![Vec::with_capacity(ROUNDS); WORKER_COUNTS.len()];
    let mut kcps = vec![Vec::with_capacity(ROUNDS); WORKER_COUNTS.len()];
    for round in 0..=ROUNDS {
        for (i, &workers) in WORKER_COUNTS.iter().enumerate() {
            let start = Instant::now();
            let report = service
                .run(&jobs, &OnlineDroop, workers)
                .expect("service run");
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(report.chip_cycles, warm.chip_cycles, "schedule drifted");
            if round > 0 {
                // Round 0 warms every worker count's code paths.
                wall_ms[i].push(secs * 1e3);
                kcps[i].push(report.chip_cycles as f64 / 1e3 / secs);
            }
        }
    }
    let mut rows = Vec::new();
    for (i, &workers) in WORKER_COUNTS.iter().enumerate() {
        let (ms, kc) = (median(wall_ms[i].clone()), median(kcps[i].clone()));
        println!("serve_throughput workers={workers}: {ms:.1} ms, {kc:.0} kcycles/sec");
        rows.push((workers, ms, kc));
    }

    // Shard-runtime scaling summary: the 8-worker over 1-worker
    // throughput ratio, and whether throughput is monotone in the
    // worker count (with a small tolerance for adjacent counts whose
    // true cost is nearly equal, so host noise can't flip the flag).
    // The flags compare each count's *best* round rather than its
    // median: on a one-core host every preemption only ever adds
    // time, so the per-count minimum wall is the least-noise estimate
    // of true cost (same reasoning as the obs row below), and these
    // flags are CI gates that must not flake with the host's mood.
    let best_kcps: Vec<f64> = kcps
        .iter()
        .map(|xs| xs.iter().copied().fold(0.0, f64::max))
        .collect();
    let kcps_at = |workers: usize| {
        WORKER_COUNTS
            .iter()
            .position(|w| *w == workers)
            .map(|i| best_kcps[i])
            .expect("worker count benchmarked")
    };
    let scaling_8w_over_1w = kcps_at(8) / kcps_at(1);
    let scaling_monotone = best_kcps.windows(2).all(|pair| pair[1] >= pair[0] * 0.97);
    let scaling_meets_target = scaling_8w_over_1w >= 2.5;
    let best: Vec<String> = WORKER_COUNTS
        .iter()
        .zip(&best_kcps)
        .map(|(workers, kc)| format!("{workers}w {kc:.0}"))
        .collect();
    println!(
        "serve_scaling: best-round kcycles/sec {}; 8w/1w = {scaling_8w_over_1w:.2}x, \
         monotone(3% tol) = {scaling_monotone}, meets 2.5x target = {scaling_meets_target}",
        best.join(", ")
    );

    // Armed-instrument overhead: interleaved pairs of (plain, armed)
    // runs of the same stream, median of per-pair ratios, so slow
    // timing drift of the host cancels out instead of skewing whichever
    // side happened to run later. `plain` is the one-worker plain run
    // unless a row names its own baseline; `pairs` is `ROUNDS` unless a
    // row needs more to resolve.
    let plain_1w = || {
        service.run(&jobs, &OnlineDroop, 1).expect("service run");
    };
    let overhead_over = |name: &str, pairs: usize, plain: &dyn Fn(), run: &dyn Fn()| {
        run(); // warm up
        let mut pair_ratios = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let start = Instant::now();
            plain();
            let plain = start.elapsed().as_secs_f64().max(1e-9);
            let start = Instant::now();
            run();
            pair_ratios.push(start.elapsed().as_secs_f64() / plain);
        }
        let ratio = median(pair_ratios);
        println!("{name} overhead: {ratio:.2}x");
        (name.to_string(), ratio)
    };
    let overhead = |name: &str, run: &dyn Fn()| overhead_over(name, ROUNDS, &plain_1w, run);
    let mut ratios = vec![
        overhead("traced", &|| {
            let tracer = Tracer::enabled();
            service
                .run_with(&jobs, &OnlineDroop, 1, &Instruments::new().traced(&tracer))
                .expect("service run");
        }),
        overhead("profiled", &|| {
            service
                .run_with(&jobs, &OnlineDroop, 1, &Instruments::new().profiled())
                .expect("service run");
        }),
        overhead("monitored", &|| {
            service
                .run_monitored(
                    &jobs,
                    &OnlineDroop,
                    1,
                    &Tracer::disabled(),
                    MonitorConfig::default(),
                )
                .expect("service run");
        }),
        overhead("streaming", &|| {
            let tracer = Tracer::streaming_to_writer(std::io::sink(), StreamConfig::default());
            service
                .run_with(&jobs, &OnlineDroop, 1, &Instruments::new().traced(&tracer))
                .expect("service run");
            tracer
                .finish_stream()
                .expect("streaming tracer")
                .expect("flush stream");
        }),
    ];

    // Observed-serve overhead on one fused shard: a streaming tracer,
    // the monitor, an obs hub publishing every epoch and the decision
    // audit, against the plain run on one fused shard — the pair the
    // benchmark's `serve_observed` and `serve` workloads run, minus its
    // scrape client. Its ratio swings more between runs than the
    // instrument rows' (1.26-1.71 over five pairs, against 1.25-1.28
    // over thirty), so it takes the introspection row's four times the
    // pairs.
    {
        let sharded = |observed: bool| {
            let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
            cfg.slice_cycles = SLICE;
            cfg.runtime = RuntimeMode::Sharded;
            if observed {
                cfg.obs = Some(ObsConfig::new(Arc::new(TelemetryHub::new())));
                cfg.audit = Some(AuditConfig::default());
            }
            Service::new(cfg).expect("valid config")
        };
        let (plain, observed) = (sharded(false), sharded(true));
        ratios.push(overhead_over(
            "observed",
            ROUNDS * 4,
            &|| {
                plain.run(&jobs, &OnlineDroop, 1).expect("service run");
            },
            &|| {
                let tracer = Tracer::streaming_to_writer(std::io::sink(), StreamConfig::default());
                let inst = Instruments::new()
                    .traced(&tracer)
                    .monitored(MonitorConfig::default());
                observed
                    .run_with(&jobs, &OnlineDroop, 1, &inst)
                    .expect("service run");
                tracer
                    .finish_stream()
                    .expect("streaming tracer")
                    .expect("flush stream");
            },
        ));
    }

    // Scrape-under-load overhead: the monitored run with a live scrape
    // server attached and a loopback client polling `/metrics` at a
    // fixed 20 ms cadence (50 Hz — orders of magnitude hotter than any
    // real scrape interval), against the same monitored run unobserved
    // — interleaved pairs again, but with the *monitored* run as the
    // denominator so the row isolates the obs cost alone. The cadence
    // matters on small hosts: an unthrottled busy-loop client would
    // measure CPU starvation, not serving cost.
    {
        use std::sync::atomic::{AtomicBool, Ordering};
        use vsmooth::obs::{http_get, ObsServer};

        let server = ObsServer::bind("127.0.0.1:0").expect("bind obs server");
        let addr = server.local_addr();
        let mut obs_cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
        obs_cfg.slice_cycles = SLICE;
        let mut obs_opts = ObsConfig::new(server.hub());
        // Publishing every epoch would re-snapshot the metrics registry
        // hundreds of times in a ~50 ms run; every 64 epochs keeps
        // scrapes ~10 ms stale on this deliberately hot run while
        // amortizing the snapshot clone and letting the server's
        // per-snapshot render cache hit between publishes (see
        // `ObsConfig::publish_every`).
        obs_opts.publish_every = 64;
        obs_cfg.obs = Some(obs_opts);
        let obs_service = Service::new(obs_cfg).expect("valid config");
        let monitored = |svc: &Service| {
            svc.run_monitored(
                &jobs,
                &OnlineDroop,
                1,
                &Tracer::disabled(),
                MonitorConfig::default(),
            )
            .expect("service run");
        };
        monitored(&obs_service); // warm up
                                 // Four times the usual pair count, and a ratio of per-side
                                 // *minimum* wall times rather than a median of pair ratios:
                                 // this row chases a much smaller effect (a few percent)
                                 // than the instrument rows, and on a one-core host every
                                 // preemption only ever adds time, so the minimum is the
                                 // least-noise estimate of each side's true cost.
        let obs_rounds = ROUNDS * 4;
        let mut plain_times = Vec::with_capacity(obs_rounds);
        let mut obs_times = Vec::with_capacity(obs_rounds);
        let mut scrapes_total = 0u64;
        for _ in 0..obs_rounds {
            let start = Instant::now();
            monitored(&service);
            plain_times.push(start.elapsed().as_secs_f64().max(1e-9));

            let stop = Arc::new(AtomicBool::new(false));
            let scraper = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scrapes = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if http_get(addr, "/metrics").is_ok() {
                            scrapes += 1;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    scrapes
                })
            };
            let start = Instant::now();
            monitored(&obs_service);
            obs_times.push(start.elapsed().as_secs_f64().max(1e-9));
            stop.store(true, Ordering::Relaxed);
            scrapes_total += scraper.join().expect("scraper thread");
        }
        server.shutdown();
        let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = best(&obs_times) / best(&plain_times);
        assert!(scrapes_total > 0, "scrape client never got a response");
        println!("obs_scrape_under_load overhead: {ratio:.2}x ({scrapes_total} scrapes served)");
        ratios.push(("obs_scrape_under_load".to_string(), ratio));
    }

    // Introspection + audit overhead on the sharded runtime: the
    // monitored sharded run with the live scoreboard feeding obs
    // publishes and the decision audit armed, against the same
    // monitored sharded run without them. A *monitored* denominator
    // (the same convention as the obs row above) keeps droop-crossing
    // capture armed on both sides, so the row isolates exactly what
    // this layer adds — the atomic counters, the per-epoch decision
    // records, the merge-side audit fold, and the snapshot publishes —
    // rather than re-measuring the cost of arming crossing capture
    // (the `monitored` row already owns that). Minimum-of-pairs again:
    // the effect is small and preemptions only ever add time.
    {
        let workers = 4;
        let mut armed_cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
        armed_cfg.slice_cycles = SLICE;
        let mut armed_obs = ObsConfig::new(Arc::new(TelemetryHub::new()));
        armed_obs.publish_every = 64;
        armed_cfg.obs = Some(armed_obs);
        armed_cfg.audit = Some(AuditConfig::default());
        let armed = Service::new(armed_cfg).expect("valid config");
        let monitored = |svc: &Service| {
            svc.run_monitored(
                &jobs,
                &OnlineDroop,
                workers,
                &Tracer::disabled(),
                MonitorConfig::default(),
            )
            .expect("service run");
        };
        monitored(&armed); // warm up
        let intro_rounds = ROUNDS * 4;
        let mut plain_times = Vec::with_capacity(intro_rounds);
        let mut armed_times = Vec::with_capacity(intro_rounds);
        for _ in 0..intro_rounds {
            let start = Instant::now();
            monitored(&service);
            plain_times.push(start.elapsed().as_secs_f64().max(1e-9));
            let start = Instant::now();
            monitored(&armed);
            armed_times.push(start.elapsed().as_secs_f64().max(1e-9));
        }
        let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = best(&armed_times) / best(&plain_times);
        println!("introspection overhead: {ratio:.2}x (monitored sharded, {workers} workers)");
        ratios.push(("introspection".to_string(), ratio));
    }

    // Peak telemetry memory: Full mode buffers every record until the
    // run ends; the streaming pipeline's working set is its fixed ring.
    let full_records = {
        let tracer = Tracer::enabled();
        service
            .run_with(&jobs, &OnlineDroop, 1, &Instruments::new().traced(&tracer))
            .expect("service run");
        tracer.len() as u64
    };
    let stream_stats = {
        let tracer = Tracer::streaming_to_writer(std::io::sink(), StreamConfig::default());
        service
            .run_with(&jobs, &OnlineDroop, 1, &Instruments::new().traced(&tracer))
            .expect("service run");
        tracer
            .finish_stream()
            .expect("streaming tracer")
            .expect("flush stream")
    };
    assert_eq!(
        stream_stats.dropped_total(),
        0,
        "default stream must not drop"
    );
    println!(
        "telemetry memory: full buffers {full_records} records, streaming peaks at \
         {}/{} ring slots ({} bytes flushed)",
        stream_stats.peak_ring_occupancy,
        stream_stats.ring_capacity,
        stream_stats.sink.bytes_flushed
    );

    // Fleet-sweep throughput: runs per wall second for one seeded
    // heterogeneous sweep, in memory and with per-chunk checkpointing
    // to disk (the durability tax).
    let mut fleet_spec = FleetSpec::new(2010, 4, 16);
    fleet_spec.fidelity = vsmooth::chip::Fidelity::Custom(SLICE);
    fleet_spec.probe_cycles = 4_000;
    fleet_spec.checkpoint_every = 16;
    let fleet_runs = fleet_spec.total_runs();
    let campaign = FleetCampaign::new(fleet_spec).expect("valid fleet spec");
    let fleet_rps = |checkpointed: bool| -> f64 {
        let ckpt_path = std::env::temp_dir().join(format!(
            "vsmooth-serve-bench-fleet-{}.ckpt.json",
            std::process::id()
        ));
        let mut samples = Vec::with_capacity(ROUNDS);
        for round in 0..=ROUNDS {
            let _ = std::fs::remove_file(&ckpt_path);
            let start = Instant::now();
            if checkpointed {
                campaign
                    .run_checkpointed(2, &ckpt_path, None)
                    .expect("fleet sweep");
            } else {
                campaign.run(2).expect("fleet sweep");
            }
            if round > 0 {
                // Round 0 is the warm-up.
                samples.push(fleet_runs as f64 / start.elapsed().as_secs_f64().max(1e-9));
            }
        }
        let _ = std::fs::remove_file(&ckpt_path);
        median(samples)
    };
    let fleet_plain_rps = fleet_rps(false);
    let fleet_ckpt_rps = fleet_rps(true);
    println!(
        "fleet_sweep: {fleet_plain_rps:.1} runs/sec plain, \
         {fleet_ckpt_rps:.1} runs/sec checkpointed"
    );

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"vsmooth-serve-bench-v1\",\n");
    out.push_str(&format!("  \"jobs\": {JOBS},\n"));
    out.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    out.push_str(&format!("  \"slice_cycles\": {SLICE},\n"));
    out.push_str("  \"throughput\": [\n");
    for (i, (workers, ms, kcps)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {workers}, \"median_wall_ms\": {ms:.3}, \
             \"median_kcycles_per_sec\": {kcps:.1}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"scaling\": {\n");
    out.push_str(&format!(
        "    \"scaling_8w_over_1w\": {scaling_8w_over_1w:.3},\n"
    ));
    out.push_str(&format!(
        "    \"scaling_monotone_1_to_8\": {scaling_monotone},\n"
    ));
    out.push_str(&format!(
        "    \"scaling_meets_target\": {scaling_meets_target}\n"
    ));
    out.push_str("  },\n  \"overhead_ratio\": {\n");
    for (i, (name, ratio)) in ratios.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {ratio:.3}{}\n",
            if i + 1 < ratios.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"telemetry\": {\n");
    out.push_str(&format!(
        "    \"full_mode_peak_records\": {full_records},\n"
    ));
    out.push_str(&format!(
        "    \"streaming_peak_ring_occupancy\": {},\n",
        stream_stats.peak_ring_occupancy
    ));
    out.push_str(&format!(
        "    \"streaming_ring_capacity\": {},\n",
        stream_stats.ring_capacity
    ));
    out.push_str(&format!(
        "    \"streaming_bytes_flushed\": {},\n",
        stream_stats.sink.bytes_flushed
    ));
    out.push_str(&format!(
        "    \"streaming_dropped_total\": {}\n",
        stream_stats.dropped_total()
    ));
    out.push_str("  },\n  \"fleet\": {\n");
    out.push_str(&format!("    \"runs\": {fleet_runs},\n"));
    out.push_str(&format!("    \"runs_per_sec\": {fleet_plain_rps:.1},\n"));
    out.push_str(&format!(
        "    \"runs_per_sec_checkpointed\": {fleet_ckpt_rps:.1}\n"
    ));
    out.push_str("  }\n}\n");
    std::fs::write(&path, out).expect("write bench JSON");
    println!("wrote {path}");
}

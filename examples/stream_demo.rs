//! Capped-memory streaming soak: the always-on telemetry pitch, live.
//!
//! A single bounded ring (512 slots) streams the Chrome trace of wave
//! after wave of scheduling-service jobs straight to disk until it has
//! absorbed at least 10x the record volume that Full mode would have
//! had to buffer in memory — then proves the ring never filled and not
//! one record was dropped. A second, sampled pipeline shows the
//! deterministic head-sampler: two identically seeded runs produce
//! byte-identical output while keeping a fraction of the stream (droop
//! instants and their tails are always forced through).
//!
//! The pipeline's self-observation — drop counters by reason, sampler
//! decisions, ring occupancy, flush sizes/latencies — lands in the
//! ordinary metrics registry and renders as Prometheus text.
//!
//! ```text
//! cargo run --example stream_demo --release [stream.json]
//! ```

use vsmooth::chip::ChipConfig;
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, Service, ServiceConfig};
use vsmooth::stats::MetricsRegistry;
use vsmooth::trace::{validate_chrome_trace, SamplerConfig, StreamConfig, Tracer};
use vsmooth::Instruments;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/stream_demo.json".into());

    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 1_000;
    let service = Service::new(cfg)?;
    let jobs = synthetic_jobs(42, 24, 1_500);

    // Baseline: how much would Full mode have to hold in memory?
    let full_records = {
        let tracer = Tracer::enabled();
        service.run_with(&jobs, &OnlineDroop, 1, &Instruments::new().traced(&tracer))?;
        tracer.len() as u64
    };
    println!("full-mode baseline: {full_records} records buffered for one wave");

    // The soak: one fixed 512-slot ring, sampling off, flushing to disk
    // in chunks. Waves repeat until the pipeline has seen >= 10x the
    // Full-mode volume.
    let ring_capacity = 512usize;
    let soak_cfg = StreamConfig {
        ring_capacity,
        ..StreamConfig::default()
    };
    let file = std::io::BufWriter::new(std::fs::File::create(&trace_path)?);
    let tracer = Tracer::streaming_to_writer(file, soak_cfg);
    let mut waves = 0u32;
    while tracer.telemetry().expect("telemetry").records_seen < 10 * full_records {
        service.run_with(&jobs, &OnlineDroop, 2, &Instruments::new().traced(&tracer))?;
        waves += 1;
    }
    let stats = tracer
        .finish_stream()
        .expect("streaming tracer")
        .expect("flush stream");

    assert_eq!(stats.dropped_total(), 0, "soak must not drop a record");
    assert_eq!(stats.records_written, stats.records_seen);
    assert!(
        stats.peak_ring_occupancy < ring_capacity,
        "watermark draining must keep the ring under capacity"
    );
    let shape = validate_chrome_trace(&std::fs::read_to_string(&trace_path)?)?;
    println!(
        "soak: {} waves, {} records streamed, peak ring {}/{}, drops {}",
        waves,
        stats.records_seen,
        stats.peak_ring_occupancy,
        ring_capacity,
        stats.dropped_total()
    );
    println!(
        "soak: {} bytes flushed in {} chunks to {trace_path} \
         ({} spans, {} droops validated)",
        stats.sink.bytes_flushed, stats.sink.flushes, shape.spans, shape.droops
    );

    // Deterministic head-sampling: identical seeds, identical bytes.
    let sampled = |seed: u64| -> Result<_, Box<dyn std::error::Error>> {
        let cfg = StreamConfig {
            sampler: Some(SamplerConfig {
                seed,
                keep_per_1024: 128,
                droop_retain_cycles: 4_096,
            }),
            ..StreamConfig::default()
        };
        let tracer = Tracer::streaming(cfg);
        service.run_with(&jobs, &OnlineDroop, 1, &Instruments::new().traced(&tracer))?;
        let stats = tracer.telemetry().expect("telemetry");
        let bytes = tracer.to_chrome_json().into_bytes();
        Ok((bytes, stats))
    };
    let (bytes_a, stats_a) = sampled(7)?;
    let (bytes_b, _) = sampled(7)?;
    assert_eq!(bytes_a, bytes_b, "identical seeds must agree byte-for-byte");
    println!(
        "sampler: of {} records, kept {} by seeded hash, forced {} through \
         (metadata, droops and their retention tails), sampled out {} — \
         deterministically, at any worker count",
        stats_a.records_seen,
        stats_a.sampler_kept,
        stats_a.sampler_forced,
        stats_a.dropped(vsmooth::trace::DropReason::SampledOut)
    );

    // Self-observation, rendered the same way as every other metric.
    let mut metrics = MetricsRegistry::new();
    stats.export_metrics(&mut metrics);
    let prom = metrics.snapshot().render_prometheus();
    assert!(prom.contains("telemetry_records_dropped_total{reason=\"ring_full\"} 0"));
    assert!(prom.contains("telemetry_bytes_flushed_total"));
    println!("\npipeline self-metrics (Prometheus):");
    for line in prom.lines().filter(|l| l.starts_with("telemetry_")) {
        println!("  {line}");
    }
    Ok(())
}

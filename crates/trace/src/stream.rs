//! The streaming telemetry pipeline: bounded memory, typed drops,
//! deterministic sampling.
//!
//! A buffering tracer keeps every [`TraceRecord`] until the run ends —
//! fine for a figure regeneration, fatal for a soak that never stops.
//! A streaming tracer ([`Tracer::streaming`](crate::Tracer::streaming)
//! and its siblings) replaces the unbounded `Vec` with a
//! fixed-capacity ring feeding an optional [`ChromeJsonSink`]:
//!
//! ```text
//! record ──sampler──▶ ring (fixed capacity) ──watermark──▶ sink ──▶ io::Write
//!            │                 │
//!        SampledOut        RingFull            (typed drop accounting)
//! ```
//!
//! What the ring holds depends on the sink. Without one it is a flight
//! recorder of [`TraceRecord`]s, read back by
//! [`Tracer::records`](crate::Tracer::records). With one, nothing
//! reads records back, so each record is rendered when it is offered
//! and the ring parks its bytes and end offset; a droop's two records
//! are rendered straight from its [`DroopBatch`], so no record is ever
//! built for it. The drain still runs at the record-count watermark
//! and hands the sink one record at a time, so bytes, chunk boundaries
//! and every [`TelemetryStats`] field advance exactly as a ring of
//! records rendered at the drain would make them.
//!
//! * [`ChromeJsonSink`] takes rendered records in the exact byte
//!   format of [`chrome_trace_json`](crate::export::chrome_trace_json)
//!   and flushes bounded chunks to any `io::Write` — the streamed file
//!   is byte-identical to the batch export of the same record stream.
//! * [`SamplerConfig`] is deterministic head-sampling: a seeded hash of
//!   each record's `(pid, tid)` timeline decides keep/drop, so two runs
//!   with the same seed sample identically, and a whole job's spans
//!   survive or vanish together instead of leaving half a timeline.
//!   Droop records are never sampled out, and every droop opens a
//!   tail-retention window (like the flight recorder) during which
//!   *all* records on that pid are kept — sample the quiet stretches,
//!   keep the interesting ones.
//! * [`TelemetryStats`] is the pipeline observing itself: records seen
//!   and written, drops by [`DropReason`], sampler decisions, bytes and
//!   chunks flushed, flush latency samples, and the peak ring
//!   occupancy a soak asserts stayed under capacity.
//!
//! Wall-clock time appears only in [`SinkStats::flush_latency_us`]
//! (operational metrics); it never enters the trace byte stream, so
//! streamed traces keep the crate's determinism contract.

use crate::event::{chip_pid, DroopBatch, TraceRecord};
use crate::export::{push_counter, push_droop_context, push_droop_instant, push_event};
use std::collections::VecDeque;
use std::io::Write;
use std::time::Instant;

/// Why the pipeline dropped a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The ring was full and no sink was attached to drain it; the
    /// oldest record was evicted (flight-recorder semantics).
    RingFull,
    /// The sampler decided against the record's timeline.
    SampledOut,
    /// The sink's underlying writer returned an error.
    SinkError,
}

impl DropReason {
    /// All reasons, in label order (metrics export emits every series
    /// so dashboards see explicit zeros).
    pub const ALL: [DropReason; 3] = [Self::RingFull, Self::SampledOut, Self::SinkError];

    /// Stable label used as the `reason` metric label value.
    pub fn label(self) -> &'static str {
        match self {
            Self::RingFull => "ring_full",
            Self::SampledOut => "sampled_out",
            Self::SinkError => "sink_error",
        }
    }
}

/// Deterministic seeded sampling policy for quiet stretches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Seed mixed into every keep/drop decision. Two pipelines with the
    /// same seed make identical decisions on identical streams.
    pub seed: u64,
    /// Head-sampling rate: a `(pid, tid)` timeline is kept when its
    /// seeded hash lands below this threshold out of 1024. `1024`
    /// keeps everything; `0` keeps only forced records.
    pub keep_per_1024: u32,
    /// After a droop on some pid, keep *every* record on that pid whose
    /// timestamp falls within this many cycles — the tail-retention
    /// window around the interesting part of the stream.
    pub droop_retain_cycles: u64,
}

impl Default for SamplerConfig {
    /// Keep 1 timeline in 16, retain two slices' worth of context
    /// around every droop.
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            keep_per_1024: 64,
            droop_retain_cycles: 2_048,
        }
    }
}

/// Configuration for a streaming tracer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Fixed capacity of the in-memory record ring. With a sink
    /// attached the ring drains at a 3/4 watermark, so occupancy stays
    /// strictly below capacity; without one the ring is a flight
    /// recorder that evicts its oldest record (`DropReason::RingFull`).
    pub ring_capacity: usize,
    /// Target rendered-chunk size in bytes: the JSON sink buffers about
    /// this much before writing, bounding both syscall rate and the
    /// pipeline's memory footprint.
    pub chunk_bytes: usize,
    /// Optional sampling policy. `None` (the default) keeps every
    /// record — required for byte-identity with the batch exporter.
    pub sampler: Option<SamplerConfig>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 4_096,
            chunk_bytes: 64 * 1024,
            sampler: None,
        }
    }
}

/// Operational counters describing a sink's flushing behavior.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SinkStats {
    /// Total bytes handed to the underlying writer.
    pub bytes_flushed: u64,
    /// Number of chunk writes.
    pub flushes: u64,
    /// Size of each flushed chunk in bytes.
    pub flush_bytes: Vec<f64>,
    /// Wall-clock latency of each chunk write in microseconds
    /// (operational telemetry only — never part of the trace bytes).
    pub flush_latency_us: Vec<f64>,
}

/// The pipeline's self-observation: every count a soak needs to prove
/// its telemetry stayed bounded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryStats {
    /// Records offered to the pipeline.
    pub records_seen: u64,
    /// Records successfully handed to the sink.
    pub records_written: u64,
    /// Records evicted from a full, sink-less ring.
    pub dropped_ring_full: u64,
    /// Records dropped by the sampler.
    pub dropped_sampled: u64,
    /// Records lost to sink write errors.
    pub dropped_sink_error: u64,
    /// Sampler decisions that kept a record by hash.
    pub sampler_kept: u64,
    /// Sampler decisions forced to keep (metadata, droops, retention
    /// windows).
    pub sampler_forced: u64,
    /// Most records the ring held at once: records kept for read-back
    /// without a sink, rendered records parked for the drain with one.
    pub peak_ring_occupancy: usize,
    /// The ring's fixed capacity.
    pub ring_capacity: usize,
    /// Flushing behavior of the attached sink, if any.
    pub sink: SinkStats,
}

impl TelemetryStats {
    /// Total drops across all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_ring_full + self.dropped_sampled + self.dropped_sink_error
    }

    /// Drops attributed to `reason`.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::RingFull => self.dropped_ring_full,
            DropReason::SampledOut => self.dropped_sampled,
            DropReason::SinkError => self.dropped_sink_error,
        }
    }

    /// Lands the pipeline's self-observation in a
    /// [`MetricsRegistry`](vsmooth_stats::MetricsRegistry):
    /// `telemetry_records_dropped_total{reason=…}` (every reason, so
    /// zeros are explicit), seen/written counters, sampler-decision
    /// counters, ring occupancy gauges, `telemetry_bytes_flushed_total`
    /// and flush size/latency histograms. Counters are cumulative-add,
    /// so export once per run, after the stream completes.
    pub fn export_metrics(&self, metrics: &mut vsmooth_stats::MetricsRegistry) {
        metrics.counter_add("telemetry_records_seen_total", self.records_seen);
        metrics.counter_add("telemetry_records_written_total", self.records_written);
        for reason in DropReason::ALL {
            metrics.counter_with(
                "telemetry_records_dropped_total",
                &[("reason", reason.label())],
                self.dropped(reason),
            );
        }
        for (decision, count) in [
            ("kept", self.sampler_kept),
            ("forced", self.sampler_forced),
            ("dropped", self.dropped_sampled),
        ] {
            metrics.counter_with(
                "telemetry_sampler_decisions_total",
                &[("decision", decision)],
                count,
            );
        }
        metrics.gauge_set(
            "telemetry_ring_peak_occupancy",
            self.peak_ring_occupancy as f64,
        );
        metrics.gauge_set("telemetry_ring_capacity", self.ring_capacity as f64);
        metrics.counter_add("telemetry_bytes_flushed_total", self.sink.bytes_flushed);
        metrics.counter_add("telemetry_flushes_total", self.sink.flushes);
        metrics.declare_buckets(
            "telemetry_flush_bytes",
            &[1_024.0, 4_096.0, 16_384.0, 65_536.0, 262_144.0, 1_048_576.0],
        );
        metrics.declare_buckets(
            "telemetry_flush_latency_us",
            &[10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 10_000.0],
        );
        for &bytes in &self.sink.flush_bytes {
            metrics.observe("telemetry_flush_bytes", bytes);
        }
        for &latency in &self.sink.flush_latency_us {
            metrics.observe("telemetry_flush_latency_us", latency);
        }
    }
}

const TRACE_HEADER: &str = "{\"traceEvents\":[\n";
const TRACE_FOOTER: &str =
    "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\"}}\n";

/// Incremental Chrome trace-event JSON writer.
///
/// Takes each record rendered by the batch exporter's formatting
/// routines and flushes bounded chunks to the wrapped writer, so
/// `header + records + footer` is byte-for-byte the output of
/// [`chrome_trace_json`](crate::export::chrome_trace_json) on the same
/// stream — the property the 1/2/8-worker determinism tests pin down —
/// while holding only one chunk in memory.
pub(crate) struct ChromeJsonSink<W: Write> {
    writer: W,
    chunk_bytes: usize,
    buf: String,
    wrote_any: bool,
    /// The trailer has been queued (it may still be buffered).
    finished: bool,
    stats: SinkStats,
}

impl<W: Write> ChromeJsonSink<W> {
    /// Wraps `writer`, buffering about `chunk_bytes` rendered bytes per
    /// write.
    pub(crate) fn new(writer: W, chunk_bytes: usize) -> Self {
        let chunk_bytes = chunk_bytes.max(1);
        Self {
            writer,
            chunk_bytes,
            buf: String::with_capacity(chunk_bytes + 256),
            wrote_any: false,
            finished: false,
            stats: SinkStats::default(),
        }
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        self.writer.write_all(self.buf.as_bytes())?;
        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        self.stats.bytes_flushed += self.buf.len() as u64;
        self.stats.flushes += 1;
        self.stats.flush_bytes.push(self.buf.len() as f64);
        self.stats.flush_latency_us.push(elapsed_us);
        self.buf.clear();
        Ok(())
    }

    /// Accepts the next record in stream order, already rendered.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's error; the pipeline counts
    /// the record as [`DropReason::SinkError`] and keeps going.
    pub(crate) fn accept(&mut self, rendered: &str) -> std::io::Result<()> {
        if !self.wrote_any {
            self.buf.push_str(TRACE_HEADER);
            self.wrote_any = true;
        } else {
            self.buf.push_str(",\n");
        }
        self.buf.push_str(rendered);
        if self.buf.len() >= self.chunk_bytes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flushes buffered output and writes the trailer. Idempotent, and
    /// safe to retry after an error: the trailer is written once.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's error.
    pub(crate) fn finish(&mut self) -> std::io::Result<()> {
        // The trailer is queued once; a retry after a failed write or
        // flush only resends whatever is still buffered.
        if !self.finished {
            if !self.wrote_any {
                self.buf.push_str(TRACE_HEADER);
                self.wrote_any = true;
            }
            self.buf.push_str(TRACE_FOOTER);
            self.finished = true;
        }
        self.flush_chunk()?;
        self.writer.flush()
    }
}

/// SplitMix64 finalizer: a fast, well-mixed hash for sampling keys.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A sampler decision on one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Kept by the timeline hash.
    Kept,
    /// Kept unconditionally (metadata, droop, retention window).
    Forced,
    /// Dropped.
    Dropped,
}

/// What the sampler reads of a record: its kind and timeline.
#[derive(Debug, Clone, Copy)]
enum SampleKey {
    /// A process or thread name.
    Meta,
    /// A droop instant (`cat == "droop"`).
    Droop { pid: u32, ts: u64 },
    /// A span or other instant on thread `tid`; a counter samples as
    /// thread 0 of its pid.
    Timeline { pid: u32, tid: u64, ts: u64 },
}

impl SampleKey {
    fn of(record: &TraceRecord) -> Self {
        match record {
            TraceRecord::ProcessName { .. } | TraceRecord::ThreadName { .. } => Self::Meta,
            TraceRecord::Instant {
                cat: "droop",
                pid,
                ts,
                ..
            } => Self::Droop { pid: *pid, ts: *ts },
            TraceRecord::Span { pid, tid, ts, .. } | TraceRecord::Instant { pid, tid, ts, .. } => {
                Self::Timeline {
                    pid: *pid,
                    tid: *tid,
                    ts: *ts,
                }
            }
            TraceRecord::Counter { pid, ts, .. } => Self::Timeline {
                pid: *pid,
                tid: 0,
                ts: *ts,
            },
        }
    }
}

/// Live sampler state: the config plus per-pid retention deadlines.
#[derive(Debug, Clone)]
struct SamplerState {
    cfg: SamplerConfig,
    /// `retain[pid]`: keep everything on this pid up to this cycle.
    retain_until: std::collections::BTreeMap<u32, u64>,
}

impl SamplerState {
    fn new(cfg: SamplerConfig) -> Self {
        Self {
            cfg,
            retain_until: std::collections::BTreeMap::new(),
        }
    }

    fn keeps_timeline(&self, pid: u32, tid: u64) -> bool {
        let key = mix64(
            self.cfg
                .seed
                .wrapping_add(mix64((u64::from(pid) << 32) ^ tid)),
        );
        (key % 1024) < u64::from(self.cfg.keep_per_1024)
    }

    fn decide(&mut self, key: SampleKey) -> Decision {
        match key {
            // Metadata names are tiny and make every sampled timeline
            // readable; always keep them.
            SampleKey::Meta => Decision::Forced,
            SampleKey::Droop { pid, ts } => {
                // A droop is the signal the whole pipeline exists for:
                // keep it and open the tail-retention window on its pid.
                let until = ts.saturating_add(self.cfg.droop_retain_cycles);
                let slot = self.retain_until.entry(pid).or_insert(0);
                *slot = (*slot).max(until);
                Decision::Forced
            }
            SampleKey::Timeline { pid, tid, ts } => {
                if self.in_retention(pid, ts) {
                    Decision::Forced
                } else if self.keeps_timeline(pid, tid) {
                    Decision::Kept
                } else {
                    Decision::Dropped
                }
            }
        }
    }

    fn in_retention(&self, pid: u32, ts: u64) -> bool {
        self.retain_until
            .get(&pid)
            .is_some_and(|&until| ts <= until)
    }
}

/// The live streaming pipeline owned by a streaming
/// [`Tracer`](crate::Tracer): sampler, ring, optional sink, stats.
pub(crate) struct StreamState {
    ring: Ring,
    capacity: usize,
    /// Drain the ring to the sink once it holds this many records —
    /// below capacity, so sink-backed occupancy never reaches it.
    flush_at: usize,
    sampler: Option<SamplerState>,
    stats: TelemetryStats,
}

/// Where a stream's admitted records wait.
enum Ring {
    /// No sink: a flight recorder of records for read-back, evicting
    /// its oldest at capacity.
    Records(VecDeque<TraceRecord>),
    /// A sink: records rendered on offer, parked until the drain.
    Rendered(Held),
}

/// Bytes a rendered record is assumed to take when sizing the held
/// buffer: a droop instant renders to about 130 bytes and its counter
/// to about 80, so a stream of them fills the buffer without regrowing
/// it.
const RECORD_BYTES: usize = 128;

/// A sink-backed stream's ring: the rendered bytes of every parked
/// record, back to back, and the end offset of each.
struct Held {
    sink: ChromeJsonSink<Box<dyn Write + Send>>,
    bytes: String,
    ends: Vec<usize>,
    /// The args tail of the droop batch being offered, escaped once.
    context: String,
}

impl Held {
    /// Parks the record just rendered onto `bytes`, draining every
    /// parked record once `flush_at` are parked.
    fn park(&mut self, flush_at: usize, stats: &mut TelemetryStats) {
        self.ends.push(self.bytes.len());
        stats.peak_ring_occupancy = stats.peak_ring_occupancy.max(self.ends.len());
        if self.ends.len() >= flush_at {
            self.drain(stats);
        }
    }

    /// Hands the parked records to the sink one at a time, so its chunk
    /// boundaries and per-record error accounting are those of a ring
    /// of records rendered here.
    fn drain(&mut self, stats: &mut TelemetryStats) {
        let mut start = 0;
        for &end in &self.ends {
            match self.sink.accept(&self.bytes[start..end]) {
                Ok(()) => stats.records_written += 1,
                Err(_) => stats.dropped_sink_error += 1,
            }
            start = end;
        }
        self.bytes.clear();
        self.ends.clear();
    }
}

/// Counts one offered record and runs the sampler on it; `false` when
/// the sampler drops it.
fn admit(sampler: &mut Option<SamplerState>, stats: &mut TelemetryStats, key: SampleKey) -> bool {
    stats.records_seen += 1;
    let Some(sampler) = sampler else {
        return true;
    };
    match sampler.decide(key) {
        Decision::Kept => stats.sampler_kept += 1,
        Decision::Forced => stats.sampler_forced += 1,
        Decision::Dropped => {
            stats.dropped_sampled += 1;
            return false;
        }
    }
    true
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("ring_len", &self.buffered_len())
            .field("capacity", &self.capacity)
            .field("has_sink", &matches!(self.ring, Ring::Rendered(_)))
            .field("stats", &self.stats)
            .finish()
    }
}

impl StreamState {
    pub(crate) fn new(
        cfg: StreamConfig,
        sink: Option<ChromeJsonSink<Box<dyn Write + Send>>>,
    ) -> Self {
        let capacity = cfg.ring_capacity.max(1);
        let flush_at = (capacity * 3 / 4).max(1);
        let ring = match sink {
            Some(sink) => Ring::Rendered(Held {
                sink,
                bytes: String::with_capacity(flush_at * RECORD_BYTES),
                ends: Vec::with_capacity(flush_at),
                context: String::new(),
            }),
            None => Ring::Records(VecDeque::with_capacity(capacity)),
        };
        Self {
            ring,
            capacity,
            flush_at,
            sampler: cfg.sampler.map(SamplerState::new),
            stats: TelemetryStats {
                ring_capacity: capacity,
                ..TelemetryStats::default()
            },
        }
    }

    /// Offers one record to the pipeline (the funnel every recording
    /// method but the droop batch routes through in streaming mode).
    pub(crate) fn offer(&mut self, record: TraceRecord) {
        if !admit(&mut self.sampler, &mut self.stats, SampleKey::of(&record)) {
            return;
        }
        match &mut self.ring {
            Ring::Records(ring) => {
                if ring.len() == self.capacity {
                    ring.pop_front();
                    self.stats.dropped_ring_full += 1;
                }
                ring.push_back(record);
                self.stats.peak_ring_occupancy = self.stats.peak_ring_occupancy.max(ring.len());
            }
            Ring::Rendered(held) => {
                push_event(&mut held.bytes, &record);
                held.park(self.flush_at, &mut self.stats);
            }
        }
    }

    /// Offers every crossing of `batch`: its `droop` instant, then the
    /// `droops_total` counter at `total`, which counts every crossing,
    /// kept or not. A sink-backed stream renders both straight from the
    /// batch.
    pub(crate) fn offer_droops(&mut self, batch: &DroopBatch, total: &mut u64) {
        let Ring::Rendered(held) = &mut self.ring else {
            for i in 0..batch.crossings.len() {
                *total += 1;
                for record in batch.records(i, *total) {
                    self.offer(record);
                }
            }
            return;
        };
        let pid = chip_pid(batch.chip);
        held.context.clear();
        push_droop_context(&mut held.context, &batch.label, &batch.phase);
        for &(ts, depth_pct) in &batch.crossings {
            *total += 1;
            if admit(
                &mut self.sampler,
                &mut self.stats,
                SampleKey::Droop { pid, ts },
            ) {
                push_droop_instant(&mut held.bytes, pid, ts, depth_pct, &held.context);
                held.park(self.flush_at, &mut self.stats);
            }
            let counter = SampleKey::Timeline { pid, tid: 0, ts };
            if admit(&mut self.sampler, &mut self.stats, counter) {
                push_counter(&mut held.bytes, "droops_total", pid, ts, *total as f64);
                held.park(self.flush_at, &mut self.stats);
            }
        }
    }

    /// Drains the ring, completes the sink, and returns final stats.
    pub(crate) fn finish(&mut self) -> std::io::Result<TelemetryStats> {
        let result = match &mut self.ring {
            Ring::Rendered(held) => {
                held.drain(&mut self.stats);
                held.sink.finish()
            }
            Ring::Records(_) => Ok(()),
        };
        let stats = self.stats_snapshot();
        result.map(|()| stats)
    }

    /// Current stats, including the sink's flushing counters.
    pub(crate) fn stats_snapshot(&self) -> TelemetryStats {
        let mut stats = self.stats.clone();
        if let Ring::Rendered(held) = &self.ring {
            stats.sink = held.sink.stats.clone();
        }
        stats
    }

    /// Records the ring keeps for read-back (oldest first): a sink-less
    /// ring's, and none for a sink-backed one, which holds only bytes.
    pub(crate) fn buffered(&self) -> Vec<TraceRecord> {
        match &self.ring {
            Ring::Records(ring) => ring.iter().cloned().collect(),
            Ring::Rendered(_) => Vec::new(),
        }
    }

    /// Records in the ring now, rendered or not.
    pub(crate) fn buffered_len(&self) -> usize {
        match &self.ring {
            Ring::Records(ring) => ring.len(),
            Ring::Rendered(held) => held.ends.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PID_JOBS;

    fn span(pid: u32, tid: u64, ts: u64) -> TraceRecord {
        TraceRecord::Span {
            name: format!("s{ts}"),
            cat: "job",
            pid,
            tid,
            ts,
            dur: 10,
            args: vec![],
        }
    }

    /// `record` rendered as the sink takes it.
    fn rendered(record: &TraceRecord) -> String {
        let mut out = String::new();
        push_event(&mut out, record);
        out
    }

    fn droop_instant(pid: u32, ts: u64) -> TraceRecord {
        TraceRecord::Instant {
            name: "droop".into(),
            cat: "droop",
            pid,
            tid: 0,
            ts,
            args: vec![],
        }
    }

    #[test]
    fn incremental_sink_matches_batch_exporter_bytes() {
        let records: Vec<TraceRecord> = (0..100)
            .map(|i| span(PID_JOBS, i % 3, i))
            .chain([droop_instant(7, 42)])
            .collect();
        let batch = crate::export::chrome_trace_json(&records);
        // Tiny chunks force many flushes; bytes must still agree.
        let mut sink = ChromeJsonSink::new(Vec::new(), 64);
        for r in &records {
            sink.accept(&rendered(r)).unwrap();
        }
        sink.finish().unwrap();
        assert!(sink.stats.flushes > 1, "expected multiple chunk writes");
        assert_eq!(String::from_utf8(sink.writer).unwrap(), batch);
    }

    #[test]
    fn empty_sink_emits_the_empty_batch_document() {
        let batch = crate::export::chrome_trace_json(&[]);
        let mut sink = ChromeJsonSink::new(Vec::new(), 64);
        sink.finish().unwrap();
        sink.finish().unwrap(); // idempotent
        assert_eq!(String::from_utf8(sink.writer).unwrap(), batch);
    }

    #[test]
    fn finish_retried_after_a_failed_write_appends_the_trailer_once() {
        /// Fails its first write, then writes through.
        struct FailsOnce {
            failed: bool,
            out: Vec<u8>,
        }
        impl Write for FailsOnce {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if !self.failed {
                    self.failed = true;
                    return Err(std::io::Error::other("transient"));
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let records: Vec<TraceRecord> = (0..5).map(|i| span(PID_JOBS, 0, i)).collect();
        let writer = FailsOnce {
            failed: false,
            out: Vec::new(),
        };
        // Chunks larger than the stream: the first write is finish's.
        let mut sink = ChromeJsonSink::new(writer, 1 << 20);
        for r in &records {
            sink.accept(&rendered(r)).unwrap();
        }
        assert!(sink.finish().is_err(), "the first write fails");
        sink.finish().expect("the retry succeeds");
        sink.finish().expect("and stays idempotent");
        let bytes = String::from_utf8(sink.writer.out).unwrap();
        assert_eq!(bytes, crate::export::chrome_trace_json(&records));
    }

    #[test]
    fn sink_stats_account_for_every_byte() {
        let mut sink = ChromeJsonSink::new(Vec::new(), 32);
        for i in 0..20 {
            sink.accept(&rendered(&span(PID_JOBS, 0, i))).unwrap();
        }
        sink.finish().unwrap();
        let stats = &sink.stats;
        let written = sink.writer.len() as u64;
        assert_eq!(stats.bytes_flushed, written);
        assert_eq!(stats.flush_bytes.len() as u64, stats.flushes);
        assert_eq!(stats.flush_latency_us.len() as u64, stats.flushes);
        assert_eq!(stats.flush_bytes.iter().sum::<f64>() as u64, written);
    }

    #[test]
    fn ring_without_sink_evicts_oldest_with_typed_accounting() {
        let mut s = StreamState::new(
            StreamConfig {
                ring_capacity: 8,
                ..StreamConfig::default()
            },
            None,
        );
        for i in 0..20 {
            s.offer(span(PID_JOBS, 0, i));
        }
        let stats = s.stats_snapshot();
        assert_eq!(stats.records_seen, 20);
        assert_eq!(stats.dropped_ring_full, 12);
        assert_eq!(stats.peak_ring_occupancy, 8);
        let kept = s.buffered();
        assert_eq!(kept.len(), 8);
        // Flight-recorder semantics: the newest records survive.
        let TraceRecord::Span { ts, .. } = &kept[0] else {
            panic!("expected span");
        };
        assert_eq!(*ts, 12);
    }

    #[test]
    fn sink_backed_ring_stays_under_capacity() {
        let mut s = StreamState::new(
            StreamConfig {
                ring_capacity: 16,
                chunk_bytes: 128,
                sampler: None,
            },
            Some(ChromeJsonSink::new(Box::new(Vec::new()), 128)),
        );
        for i in 0..1_000 {
            s.offer(span(PID_JOBS, 0, i));
        }
        let stats = s.finish().unwrap();
        assert_eq!(stats.records_written, 1_000);
        assert_eq!(stats.dropped_total(), 0);
        assert!(
            stats.peak_ring_occupancy < stats.ring_capacity,
            "peak {} must stay under capacity {}",
            stats.peak_ring_occupancy,
            stats.ring_capacity
        );
        assert!(stats.sink.bytes_flushed > 0);
    }

    #[test]
    fn sampler_is_deterministic_across_identically_seeded_pipelines() {
        let cfg = StreamConfig {
            ring_capacity: 4_096,
            chunk_bytes: 512,
            sampler: Some(SamplerConfig {
                seed: 99,
                keep_per_1024: 256,
                droop_retain_cycles: 50,
            }),
        };
        let run = || {
            let mut s = StreamState::new(cfg, None);
            for i in 0..400 {
                s.offer(span(10 + (i % 7) as u32, i % 5, i));
            }
            s.offer(droop_instant(10, 500));
            for i in 500..560 {
                s.offer(span(10, 3, i));
            }
            (s.buffered(), s.stats_snapshot())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "identical seeds must sample identically");
        assert_eq!(sa, sb);
        assert!(sa.dropped_sampled > 0, "some timelines must drop");
        assert!(sa.sampler_kept > 0, "some timelines must survive");
    }

    #[test]
    fn droop_forces_retention_of_its_pid_tail() {
        let mut s = StreamState::new(
            StreamConfig {
                ring_capacity: 4_096,
                chunk_bytes: 512,
                sampler: Some(SamplerConfig {
                    seed: 1,
                    keep_per_1024: 0, // drop every unforced record
                    droop_retain_cycles: 100,
                }),
            },
            None,
        );
        s.offer(span(10, 0, 5)); // quiet stretch: sampled out
        s.offer(droop_instant(10, 50)); // opens retention on pid 10
        s.offer(span(10, 0, 120)); // inside the window: forced
        s.offer(span(10, 0, 200)); // past the window: sampled out
        s.offer(span(11, 0, 120)); // other pid: sampled out
        let stats = s.stats_snapshot();
        assert_eq!(stats.sampler_forced, 2); // droop + retained span
        assert_eq!(stats.dropped_sampled, 3);
        assert_eq!(s.buffered_len(), 2);
    }

    #[test]
    fn different_seeds_sample_differently() {
        let buffered = |seed: u64| {
            let mut s = StreamState::new(
                StreamConfig {
                    ring_capacity: 4_096,
                    chunk_bytes: 512,
                    sampler: Some(SamplerConfig {
                        seed,
                        keep_per_1024: 512,
                        droop_retain_cycles: 0,
                    }),
                },
                None,
            );
            for i in 0..200 {
                s.offer(span(10 + (i % 13) as u32, i % 3, i));
            }
            s.buffered()
        };
        // Not a hard guarantee for arbitrary seeds, but these two
        // differ — a regression here means the seed stopped mattering.
        assert_ne!(buffered(1), buffered(2));
    }

    #[test]
    fn sink_errors_are_counted_not_fatal() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let mut s = StreamState::new(
            StreamConfig {
                ring_capacity: 4,
                chunk_bytes: 1, // flush (and fail) every record
                sampler: None,
            },
            Some(ChromeJsonSink::new(Box::new(FailingWriter), 1)),
        );
        for i in 0..10 {
            s.offer(span(PID_JOBS, 0, i));
        }
        let err = s.finish();
        assert!(err.is_err(), "finish surfaces the writer error");
        let stats = s.stats_snapshot();
        assert!(stats.dropped_sink_error > 0);
        assert_eq!(
            stats.records_written + stats.dropped_sink_error,
            stats.records_seen
        );
    }

    /// The stream as it was before a sink-backed ring held rendered
    /// records: a ring of [`TraceRecord`]s, rendered one by one into the
    /// sink when it drains. The oracle for the rendered ring.
    mod reference {
        use crate::event::TraceRecord;
        use crate::export::push_event;
        use crate::stream::{mix64, SamplerConfig, SinkStats, StreamConfig, TelemetryStats};
        use std::collections::{BTreeMap, VecDeque};
        use std::io::Write;

        const HEADER: &str = "{\"traceEvents\":[\n";
        const FOOTER: &str =
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\"}}\n";

        struct Sink<W: Write> {
            writer: W,
            chunk_bytes: usize,
            buf: String,
            wrote_any: bool,
            finished: bool,
            stats: SinkStats,
        }

        impl<W: Write> Sink<W> {
            fn flush_chunk(&mut self) -> std::io::Result<()> {
                if self.buf.is_empty() {
                    return Ok(());
                }
                self.writer.write_all(self.buf.as_bytes())?;
                self.stats.bytes_flushed += self.buf.len() as u64;
                self.stats.flushes += 1;
                self.stats.flush_bytes.push(self.buf.len() as f64);
                self.stats.flush_latency_us.push(0.0);
                self.buf.clear();
                Ok(())
            }

            fn accept(&mut self, record: &TraceRecord) -> std::io::Result<()> {
                if !self.wrote_any {
                    self.buf.push_str(HEADER);
                    self.wrote_any = true;
                } else {
                    self.buf.push_str(",\n");
                }
                push_event(&mut self.buf, record);
                if self.buf.len() >= self.chunk_bytes {
                    self.flush_chunk()?;
                }
                Ok(())
            }

            fn finish(&mut self) -> std::io::Result<()> {
                if !self.finished {
                    if !self.wrote_any {
                        self.buf.push_str(HEADER);
                        self.wrote_any = true;
                    }
                    self.buf.push_str(FOOTER);
                    self.finished = true;
                }
                self.flush_chunk()?;
                self.writer.flush()
            }
        }

        struct Sampler {
            cfg: SamplerConfig,
            retain_until: BTreeMap<u32, u64>,
        }

        impl Sampler {
            fn keeps_timeline(&self, pid: u32, tid: u64) -> bool {
                let key = mix64(
                    self.cfg
                        .seed
                        .wrapping_add(mix64((u64::from(pid) << 32) ^ tid)),
                );
                (key % 1024) < u64::from(self.cfg.keep_per_1024)
            }

            fn in_retention(&self, pid: u32, ts: u64) -> bool {
                self.retain_until
                    .get(&pid)
                    .is_some_and(|&until| ts <= until)
            }

            /// `Some(forced)` to keep the record, `None` to drop it.
            fn decide(&mut self, record: &TraceRecord) -> Option<bool> {
                let (pid, tid, ts) = match record {
                    TraceRecord::ProcessName { .. } | TraceRecord::ThreadName { .. } => {
                        return Some(true)
                    }
                    TraceRecord::Instant { cat, pid, ts, .. } if *cat == "droop" => {
                        let until = ts.saturating_add(self.cfg.droop_retain_cycles);
                        let slot = self.retain_until.entry(*pid).or_insert(0);
                        *slot = (*slot).max(until);
                        return Some(true);
                    }
                    TraceRecord::Span { pid, tid, ts, .. }
                    | TraceRecord::Instant { pid, tid, ts, .. } => (*pid, *tid, *ts),
                    TraceRecord::Counter { pid, ts, .. } => (*pid, 0, *ts),
                };
                if self.in_retention(pid, ts) {
                    Some(true)
                } else if self.keeps_timeline(pid, tid) {
                    Some(false)
                } else {
                    None
                }
            }
        }

        pub(super) struct RecordStream<W: Write> {
            ring: VecDeque<TraceRecord>,
            flush_at: usize,
            sink: Sink<W>,
            sampler: Option<Sampler>,
            stats: TelemetryStats,
        }

        impl<W: Write> RecordStream<W> {
            pub(super) fn new(cfg: StreamConfig, writer: W) -> Self {
                let capacity = cfg.ring_capacity.max(1);
                Self {
                    ring: VecDeque::new(),
                    flush_at: (capacity * 3 / 4).max(1),
                    sink: Sink {
                        writer,
                        chunk_bytes: cfg.chunk_bytes.max(1),
                        buf: String::new(),
                        wrote_any: false,
                        finished: false,
                        stats: SinkStats::default(),
                    },
                    sampler: cfg.sampler.map(|cfg| Sampler {
                        cfg,
                        retain_until: BTreeMap::new(),
                    }),
                    stats: TelemetryStats {
                        ring_capacity: capacity,
                        ..TelemetryStats::default()
                    },
                }
            }

            pub(super) fn offer(&mut self, record: TraceRecord) {
                self.stats.records_seen += 1;
                if let Some(sampler) = &mut self.sampler {
                    match sampler.decide(&record) {
                        Some(false) => self.stats.sampler_kept += 1,
                        Some(true) => self.stats.sampler_forced += 1,
                        None => {
                            self.stats.dropped_sampled += 1;
                            return;
                        }
                    }
                }
                self.ring.push_back(record);
                self.stats.peak_ring_occupancy =
                    self.stats.peak_ring_occupancy.max(self.ring.len());
                if self.ring.len() >= self.flush_at {
                    self.drain();
                }
            }

            fn drain(&mut self) {
                for record in self.ring.drain(..) {
                    match self.sink.accept(&record) {
                        Ok(()) => self.stats.records_written += 1,
                        Err(_) => self.stats.dropped_sink_error += 1,
                    }
                }
            }

            pub(super) fn stats(&self) -> TelemetryStats {
                TelemetryStats {
                    sink: self.sink.stats.clone(),
                    ..self.stats.clone()
                }
            }

            pub(super) fn finish(&mut self) -> std::io::Result<TelemetryStats> {
                self.drain();
                let result = self.sink.finish();
                result.map(|()| self.stats())
            }
        }
    }

    /// A writer into a shared buffer that fails the write calls its
    /// schedule marks, and its flushes when told to.
    struct ScriptedWriter {
        out: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        fail_writes: Vec<bool>,
        fail_flush: bool,
        calls: usize,
    }

    impl Write for ScriptedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let fail = self.fail_writes.get(self.calls).copied().unwrap_or(false);
            self.calls += 1;
            if fail {
                return Err(std::io::Error::other("scripted failure"));
            }
            self.out.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            if self.fail_flush {
                return Err(std::io::Error::other("scripted flush failure"));
            }
            Ok(())
        }
    }

    /// `stats` with each flush latency, the one wall-clock field,
    /// zeroed: both sides must still record one per flush.
    fn without_wall_clock(mut stats: TelemetryStats) -> TelemetryStats {
        stats.sink.flush_latency_us.fill(0.0);
        stats
    }

    fn any_name(rng: &mut proptest::prelude::TestRng) -> String {
        const PARTS: [&str; 6] = ["429.mcf", "+", "\"", "\\", "\n", "é"];
        (0..rng.below(4))
            .map(|_| PARTS[rng.below(PARTS.len() as u64) as usize])
            .collect()
    }

    proptest::proptest! {
        /// A sink-backed stream holding rendered records writes the
        /// bytes, and reports after every record and at finish the
        /// telemetry, that a ring of records rendered at the drain
        /// does: over random spans, instants, droop batches recorded
        /// through the `Tracer`, counters and name records, ring
        /// capacities 1–64, chunks of 1–4096 bytes, the sampler on or
        /// off, and writers failing on chosen writes and flushes. Case
        /// count is pinned by `PROPTEST_CASES`.
        #[test]
        fn rendered_ring_matches_the_record_ring(seed in 0u64..u64::MAX) {
            use crate::event::{chip_pid, ArgValue, DroopBatch};
            use crate::Tracer;
            use std::borrow::Cow;
            use std::sync::{Arc, Mutex};

            let mut rng = proptest::prelude::TestRng::new(seed);
            let cfg = StreamConfig {
                ring_capacity: 1 + rng.below(64) as usize,
                chunk_bytes: 1 + rng.below(4096) as usize,
                sampler: (rng.below(2) == 0).then(|| SamplerConfig {
                    seed: rng.next_u64(),
                    keep_per_1024: rng.below(1025) as u32,
                    droop_retain_cycles: rng.below(400),
                }),
            };
            let fail_rate = [0, 0, 1, 4, 16][rng.below(5) as usize];
            let fail_writes: Vec<bool> = (0..1024)
                .map(|_| fail_rate == 1 || (fail_rate > 1 && rng.below(fail_rate) == 0))
                .collect();
            let fail_flush = rng.below(4) == 0;
            let writer = |out: &Arc<Mutex<Vec<u8>>>| ScriptedWriter {
                out: Arc::clone(out),
                fail_writes: fail_writes.clone(),
                fail_flush,
                calls: 0,
            };
            let (live_out, reference_out) = (Arc::default(), Arc::default());
            let tracer = Tracer::streaming_to_writer(writer(&live_out), cfg);
            let mut reference = reference::RecordStream::new(cfg, writer(&reference_out));
            let mut droops_total = 0u64;
            for _ in 0..rng.below(160) {
                let pid = 10 + rng.below(3) as u32;
                let tid = rng.below(3);
                let ts = rng.below(2_000);
                match rng.below(6) {
                    0 => {
                        let (name, dur) = (any_name(&mut rng), rng.below(500));
                        let args = vec![("job", ArgValue::U64(rng.below(9)))];
                        tracer.complete(name.clone(), "slice", pid, tid, ts, dur, args.clone());
                        reference.offer(TraceRecord::Span {
                            name, cat: "slice", pid, tid, ts, dur, args,
                        });
                    }
                    1 => {
                        let cat = ["job", "droop", "decision"][rng.below(3) as usize];
                        let args = vec![("workload", ArgValue::from(any_name(&mut rng)))];
                        tracer.instant("admit", cat, pid, tid, ts, args.clone());
                        reference.offer(TraceRecord::Instant {
                            name: Cow::Borrowed("admit"), cat, pid, tid, ts, args,
                        });
                    }
                    2 => {
                        let label: Arc<str> = any_name(&mut rng).into();
                        let batch = DroopBatch {
                            chip: pid as usize - 10,
                            workloads: [Arc::clone(&label)].into(),
                            label,
                            phase: format!("epoch{}", rng.below(50)).into(),
                            crossings: (0..rng.below(5))
                                .map(|k| (ts + 7 * k, 2.5 + rng.unit_f64() * 3.0))
                                .collect(),
                        };
                        tracer.droops(&batch);
                        for &(ts, depth_pct) in &batch.crossings {
                            droops_total += 1;
                            let pid = chip_pid(batch.chip);
                            reference.offer(TraceRecord::Instant {
                                name: Cow::Borrowed("droop"),
                                cat: "droop",
                                pid,
                                tid: 0,
                                ts,
                                args: vec![
                                    ("depth_pct", ArgValue::F64(depth_pct)),
                                    ("workloads", ArgValue::Str(Arc::clone(&batch.label))),
                                    ("phase", ArgValue::Str(Arc::clone(&batch.phase))),
                                ],
                            });
                            reference.offer(TraceRecord::Counter {
                                name: Cow::Borrowed("droops_total"),
                                pid,
                                ts,
                                value: droops_total as f64,
                            });
                        }
                    }
                    3 => {
                        let record = TraceRecord::Counter {
                            name: Cow::Borrowed("queue_depth"),
                            pid,
                            ts,
                            value: rng.below(9) as f64,
                        };
                        tracer.push(record.clone());
                        reference.offer(record);
                    }
                    4 => {
                        let name = any_name(&mut rng);
                        tracer.process_name(pid, name.clone());
                        reference.offer(TraceRecord::ProcessName { pid, name });
                    }
                    _ => {
                        let name = any_name(&mut rng);
                        tracer.thread_name(pid, tid, name.clone());
                        reference.offer(TraceRecord::ThreadName { pid, tid, name });
                    }
                }
                proptest::prop_assert_eq!(
                    without_wall_clock(tracer.telemetry().unwrap()),
                    reference.stats()
                );
            }
            let live = tracer.finish_stream().unwrap();
            let expected = reference.finish();
            proptest::prop_assert_eq!(live.is_ok(), expected.is_ok());
            proptest::prop_assert_eq!(
                without_wall_clock(tracer.telemetry().unwrap()),
                reference.stats()
            );
            if let (Ok(live), Ok(expected)) = (live, expected) {
                proptest::prop_assert_eq!(without_wall_clock(live), expected);
            }
            proptest::prop_assert_eq!(tracer.droops_total(), droops_total);
            let live_bytes = live_out.lock().unwrap().clone();
            let reference_bytes = reference_out.lock().unwrap().clone();
            proptest::prop_assert!(live_bytes == reference_bytes, "written bytes diverged");
        }
    }
}

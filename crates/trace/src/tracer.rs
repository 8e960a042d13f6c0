//! The recorder: cheap when disabled, deterministic when enabled.
//!
//! A [`Tracer`] is created once per run: disabled, buffering
//! everything, or streaming everything through the bounded
//! [`stream`](crate::stream) pipeline. Every recording method first
//! checks the mode with a plain branch, so a disabled tracer costs one
//! predictable-false comparison per call site and never takes the lock
//! — that is the "zero overhead when disabled" budget the serve hot
//! path relies on.
//!
//! Worker threads never write to a tracer. They hand back slice
//! counters and the chip session's droop captures, and one
//! coordinator-side producer records from those in a fixed order —
//! epoch, then chip index, then core — so the exported byte stream is
//! independent of the worker-thread count.

use crate::event::{Args, DroopBatch, TraceRecord};
use crate::stream::{ChromeJsonSink, StreamConfig, StreamState, TelemetryStats};
use std::borrow::Cow;
use std::sync::Mutex;

/// What a [`Tracer`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceMode {
    /// Record nothing; every call is a no-op.
    Disabled,
    /// Record everything, including typed droop events.
    Full,
    /// Record everything through the bounded streaming pipeline
    /// (fixed-capacity ring, optional sampler and sink) instead of the
    /// unbounded Full-mode buffer. See the [`stream`](crate::stream)
    /// module docs.
    Streaming,
}

#[derive(Debug, Default)]
struct TracerState {
    records: Vec<TraceRecord>,
    droops_total: u64,
    /// The streaming pipeline; `Some` exactly in `Streaming` mode.
    stream: Option<StreamState>,
}

impl TracerState {
    /// The single record funnel: streaming mode routes through the
    /// bounded pipeline, every other enabled mode buffers.
    fn push(&mut self, record: TraceRecord) {
        match &mut self.stream {
            Some(stream) => stream.offer(record),
            None => self.records.push(record),
        }
    }
}

/// The run-wide trace recorder: disabled, buffering everything, or
/// streaming everything through a bounded ring. Every recording method
/// checks the mode with one plain branch first, so a disabled tracer
/// never takes the lock.
#[derive(Debug)]
pub struct Tracer {
    mode: TraceMode,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::buffered(TraceMode::Disabled)
    }

    /// A tracer recording everything.
    pub fn enabled() -> Self {
        Self::buffered(TraceMode::Full)
    }

    fn buffered(mode: TraceMode) -> Self {
        Self {
            mode,
            state: Mutex::new(TracerState::default()),
        }
    }

    /// A streaming tracer with no sink: the ring is a flight recorder
    /// holding the newest `cfg.ring_capacity` records, evicting the
    /// oldest with typed drop accounting.
    pub fn streaming(cfg: StreamConfig) -> Self {
        Self::with_stream(StreamState::new(cfg, None))
    }

    /// A streaming tracer writing Chrome trace-event JSON to `writer`
    /// in bounded chunks — byte-identical to what
    /// [`to_chrome_json`](Self::to_chrome_json) renders of the same
    /// stream in a buffering tracer. Records are rendered as they
    /// arrive and their bytes parked in the ring, which drains at a
    /// watermark below capacity, so memory stays bounded however long
    /// the record stream runs. Call
    /// [`finish_stream`](Self::finish_stream) to complete the document.
    pub fn streaming_to_writer(
        writer: impl std::io::Write + Send + 'static,
        cfg: StreamConfig,
    ) -> Self {
        let writer: Box<dyn std::io::Write + Send> = Box::new(writer);
        let sink = ChromeJsonSink::new(writer, cfg.chunk_bytes);
        Self::with_stream(StreamState::new(cfg, Some(sink)))
    }

    fn with_stream(stream: StreamState) -> Self {
        Self {
            mode: TraceMode::Streaming,
            state: Mutex::new(TracerState {
                stream: Some(stream),
                ..TracerState::default()
            }),
        }
    }

    /// Whether any recording happens at all. Call sites that must build
    /// arguments (allocations) should guard on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Disabled
    }

    /// Whether records flow through the bounded streaming pipeline.
    #[inline]
    pub fn is_streaming(&self) -> bool {
        self.mode == TraceMode::Streaming
    }

    pub(crate) fn push(&self, record: TraceRecord) {
        self.state.lock().expect("tracer lock").push(record);
    }

    /// Names a virtual process in the exported trace.
    pub fn process_name(&self, pid: u32, name: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceRecord::ProcessName {
            pid,
            name: name.into(),
        });
    }

    /// Names a virtual thread in the exported trace.
    pub fn thread_name(&self, pid: u32, tid: u64, name: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceRecord::ThreadName {
            pid,
            tid,
            name: name.into(),
        });
    }

    /// Records a complete span (`[ts, ts + dur)` in virtual cycles).
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts: u64,
        dur: u64,
        args: Args,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceRecord::Span {
            name: name.into(),
            cat,
            pid,
            tid,
            ts,
            dur,
            args,
        });
    }

    /// Records an instant event. A `&'static str` name is borrowed,
    /// not copied.
    pub fn instant(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts: u64,
        args: Args,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceRecord::Instant {
            name: name.into(),
            cat,
            pid,
            tid,
            ts,
            args,
        });
    }

    /// Records every crossing of one slice's droop batch: an instant
    /// on the chip's timeline plus a `droops_total` counter sample (the
    /// running total across the whole run). Borrows the batch, so the
    /// same allocation can also feed the monitor and the obs ring. A
    /// sink-backed stream renders both records straight from the batch,
    /// escaping its label and phase once; the buffering modes keep
    /// records whose args share the batch's strings.
    pub fn droops(&self, batch: &DroopBatch) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self.state.lock().expect("tracer lock");
        let state = &mut *guard;
        match &mut state.stream {
            Some(stream) => stream.offer_droops(batch, &mut state.droops_total),
            None => {
                for i in 0..batch.crossings.len() {
                    state.droops_total += 1;
                    state.records.extend(batch.records(i, state.droops_total));
                }
            }
        }
    }

    /// Droop events recorded so far.
    pub fn droops_total(&self) -> u64 {
        self.state.lock().expect("tracer lock").droops_total
    }

    /// Number of records held in memory: every record of a buffering
    /// tracer, the ring of a sink-less stream, and the rendered records
    /// a sink-backed stream has parked for its next drain — not the
    /// stream total (see [`telemetry`](Self::telemetry) for that).
    pub fn len(&self) -> usize {
        let state = self.state.lock().expect("tracer lock");
        match &state.stream {
            Some(stream) => stream.buffered_len(),
            None => state.records.len(),
        }
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the records held for read-back, in record order:
    /// everything a buffering tracer recorded, or a sink-less stream's
    /// ring. A sink-backed stream keeps only rendered bytes, so it
    /// returns none; its records are in the sink's output.
    pub fn records(&self) -> Vec<TraceRecord> {
        let state = self.state.lock().expect("tracer lock");
        match &state.stream {
            Some(stream) => stream.buffered(),
            None => state.records.clone(),
        }
    }

    /// Renders the [records](Self::records) held for read-back as
    /// Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        crate::export::chrome_trace_json(&self.records())
    }

    /// The streaming pipeline's self-observation stats, if streaming.
    pub fn telemetry(&self) -> Option<TelemetryStats> {
        self.state
            .lock()
            .expect("tracer lock")
            .stream
            .as_ref()
            .map(StreamState::stats_snapshot)
    }

    /// Drains the ring through the sink, completes the output document
    /// and returns the final stats. `None` when not streaming.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error (drop accounting still reflects
    /// the attempt).
    pub fn finish_stream(&self) -> Option<std::io::Result<TelemetryStats>> {
        self.state
            .lock()
            .expect("tracer lock")
            .stream
            .as_mut()
            .map(StreamState::finish)
    }

    /// Exports the streaming pipeline's self-observation into
    /// `metrics` (no-op for non-streaming tracers). See
    /// [`TelemetryStats::export_metrics`] for the series emitted.
    pub fn export_telemetry(&self, metrics: &mut vsmooth_stats::MetricsRegistry) {
        if let Some(stats) = self.telemetry() {
            stats.export_metrics(metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{chip_pid, PID_JOBS};

    fn droops(chip: usize, cycles: &[u64]) -> DroopBatch {
        DroopBatch {
            chip,
            workloads: ["429.mcf".into(), "482.sphinx3".into()].into(),
            label: "429.mcf+482.sphinx3".into(),
            phase: "epoch1".into(),
            crossings: cycles.iter().map(|&c| (c, 2.9)).collect(),
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.complete("x", "job", PID_JOBS, 0, 0, 10, vec![]);
        t.instant("y", "job", PID_JOBS, 0, 5, vec![]);
        t.droops(&droops(0, &[7]));
        t.process_name(PID_JOBS, "jobs");
        assert!(t.is_empty());
        assert_eq!(t.droops_total(), 0);
    }

    #[test]
    fn droop_emits_instant_plus_running_counter() {
        let t = Tracer::enabled();
        t.droops(&droops(1, &[10, 30]));
        let records = t.records();
        assert_eq!(records.len(), 4);
        assert!(records[0].is_instant());
        assert!(matches!(records[1], TraceRecord::Counter { .. }));
        let TraceRecord::Counter { value, pid, .. } = &records[3] else {
            panic!("expected counter");
        };
        assert_eq!(*value, 2.0);
        assert_eq!(*pid, chip_pid(1));
        assert_eq!(t.droops_total(), 2);
    }

    #[test]
    fn streaming_mode_wants_droop_events_and_reports_telemetry() {
        let t = Tracer::streaming(crate::stream::StreamConfig::default());
        // Every enabled tracer records droop events.
        assert!(t.is_enabled());
        assert!(t.is_streaming());
        assert!(Tracer::enabled().telemetry().is_none());
        t.droops(&droops(2, &[40]));
        assert_eq!(t.droops_total(), 1);
        assert_eq!(t.len(), 2);
        let stats = t.telemetry().expect("streaming tracers have stats");
        assert_eq!(stats.records_seen, 2);
        assert_eq!(stats.dropped_total(), 0);
    }

    #[test]
    fn streaming_tracer_without_sink_exports_its_ring() {
        let t = Tracer::streaming(crate::stream::StreamConfig::default());
        t.complete("x", "job", PID_JOBS, 0, 0, 10, vec![]);
        let batch = Tracer::enabled();
        batch.complete("x", "job", PID_JOBS, 0, 0, 10, vec![]);
        assert_eq!(t.to_chrome_json(), batch.to_chrome_json());
    }
}

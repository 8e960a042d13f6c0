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

use crate::event::{chip_pid, ArgValue, Args, DroopEvent, TraceRecord};
use crate::stream::{ChromeJsonSink, StreamConfig, StreamState, TelemetryStats, TraceSink};
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

/// The run-wide trace recorder. See the [module docs](self).
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
        Self {
            mode: TraceMode::Streaming,
            state: Mutex::new(TracerState {
                stream: Some(StreamState::new(cfg, None)),
                ..TracerState::default()
            }),
        }
    }

    /// A streaming tracer draining through `sink`: the ring flushes at
    /// a watermark below capacity, so memory stays bounded however
    /// long the record stream runs.
    pub fn streaming_to(sink: Box<dyn TraceSink>, cfg: StreamConfig) -> Self {
        Self {
            mode: TraceMode::Streaming,
            state: Mutex::new(TracerState {
                stream: Some(StreamState::new(cfg, Some(sink))),
                ..TracerState::default()
            }),
        }
    }

    /// A streaming tracer writing Chrome trace-event JSON to `writer`
    /// in bounded chunks — byte-identical to
    /// [`to_chrome_json`](Self::to_chrome_json) on the same stream.
    /// Call [`finish_stream`](Self::finish_stream) to complete the
    /// document.
    pub fn streaming_to_writer(
        writer: impl std::io::Write + Send + 'static,
        cfg: StreamConfig,
    ) -> Self {
        let sink = ChromeJsonSink::new(writer, cfg.chunk_bytes);
        Self::streaming_to(Box::new(sink), cfg)
    }

    /// Whether any recording happens at all. Call sites that must build
    /// arguments (allocations) should guard on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Disabled
    }

    /// Whether droop-event capture should be switched on chip-side:
    /// every enabled tracer records droop events.
    #[inline]
    pub fn wants_droop_events(&self) -> bool {
        self.is_enabled()
    }

    /// Whether records flow through the bounded streaming pipeline.
    #[inline]
    pub fn is_streaming(&self) -> bool {
        self.mode == TraceMode::Streaming
    }

    fn push(&self, record: TraceRecord) {
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

    /// Records an instant event.
    pub fn instant(
        &self,
        name: impl Into<String>,
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

    /// Records a counter sample.
    pub fn counter(&self, name: impl Into<String>, pid: u32, ts: u64, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceRecord::Counter {
            name: name.into(),
            pid,
            ts,
            value,
        });
    }

    /// Opens a span guard keyed by a static name. The span is recorded
    /// when the guard is [`finish`](SpanGuard::finish)ed with its end
    /// cycle; dropping the guard without finishing records nothing
    /// (virtual time has no implicit "now").
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u64,
        start_cycle: u64,
    ) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            name,
            cat,
            pid,
            tid,
            start: start_cycle,
        }
    }

    /// Records one typed droop event: an instant on the chip's
    /// timeline plus a `droops_total` counter sample (the running
    /// total across the whole run). Borrows the event, so one event
    /// can also feed the monitor and the obs ring without a copy.
    pub fn droop(&self, event: &DroopEvent) {
        if !self.wants_droop_events() {
            return;
        }
        let mut state = self.state.lock().expect("tracer lock");
        state.droops_total += 1;
        let total = state.droops_total;
        let pid = chip_pid(event.chip);
        state.push(TraceRecord::Instant {
            name: "droop".into(),
            cat: "droop",
            pid,
            tid: event.core as u64,
            ts: event.cycle,
            args: vec![
                ("depth_pct", ArgValue::F64(event.depth_pct)),
                ("workloads", ArgValue::Str(event.workloads.join("+"))),
                ("phase", ArgValue::Str(event.phase.clone())),
            ],
        });
        state.push(TraceRecord::Counter {
            name: "droops_total".into(),
            pid,
            ts: event.cycle,
            value: total as f64,
        });
    }

    /// Droop events recorded so far.
    pub fn droops_total(&self) -> u64 {
        self.state.lock().expect("tracer lock").droops_total
    }

    /// Number of records currently buffered in memory (for a sink-fed
    /// streaming tracer this is the ring's residue, not the stream
    /// total — see [`telemetry`](Self::telemetry) for the totals).
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

    /// A copy of the buffered record stream, in record order.
    pub fn records(&self) -> Vec<TraceRecord> {
        let state = self.state.lock().expect("tracer lock");
        match &state.stream {
            Some(stream) => stream.buffered(),
            None => state.records.clone(),
        }
    }

    /// Drains the buffered stream, leaving the tracer empty (the droop
    /// running total is kept so later counter samples stay monotonic).
    ///
    /// The `&mut self` receiver makes the drain explicit at call sites:
    /// unlike the read-only accessors this *consumes* the buffer, so it
    /// demands exclusive access instead of hiding the mutation behind
    /// the interior lock. A second take without intervening records
    /// returns an empty stream.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        let state = self.state.get_mut().expect("tracer lock");
        match &mut state.stream {
            Some(stream) => stream.take_buffered(),
            None => std::mem::take(&mut state.records),
        }
    }

    /// Renders the buffered stream as Chrome trace-event JSON.
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
    pub fn export_telemetry(&self, metrics: &vsmooth_stats::MetricsRegistry) {
        if let Some(stats) = self.telemetry() {
            stats.export_metrics(metrics);
        }
    }
}

/// An open span held by its creator; see [`Tracer::span`].
#[must_use = "a span guard records nothing until finished"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    cat: &'static str,
    pid: u32,
    tid: u64,
    start: u64,
}

impl SpanGuard<'_> {
    /// The span's start cycle.
    pub fn start_cycle(&self) -> u64 {
        self.start
    }

    /// Closes the span at `end_cycle` and records it.
    pub fn finish(self, end_cycle: u64) {
        self.finish_with(end_cycle, Vec::new());
    }

    /// Closes the span at `end_cycle` with arguments.
    pub fn finish_with(self, end_cycle: u64, args: Args) {
        self.tracer.complete(
            self.name,
            self.cat,
            self.pid,
            self.tid,
            self.start,
            end_cycle.saturating_sub(self.start),
            args,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PID_JOBS;

    fn droop(chip: usize, cycle: u64) -> DroopEvent {
        DroopEvent {
            chip,
            core: 0,
            cycle,
            depth_pct: 2.9,
            workloads: vec!["429.mcf".into(), "482.sphinx3".into()],
            phase: "epoch1".into(),
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.complete("x", "job", PID_JOBS, 0, 0, 10, vec![]);
        t.instant("y", "job", PID_JOBS, 0, 5, vec![]);
        t.counter("c", PID_JOBS, 5, 1.0);
        t.droop(&droop(0, 7));
        t.process_name(PID_JOBS, "jobs");
        t.span("s", "job", PID_JOBS, 0, 0).finish(4);
        assert!(t.is_empty());
        assert_eq!(t.droops_total(), 0);
    }

    #[test]
    fn droop_emits_instant_plus_running_counter() {
        let t = Tracer::enabled();
        t.droop(&droop(1, 10));
        t.droop(&droop(1, 30));
        let records = t.records();
        assert_eq!(records.len(), 4);
        assert!(records[0].is_instant());
        assert!(records[1].is_counter());
        let TraceRecord::Counter { value, pid, .. } = &records[3] else {
            panic!("expected counter");
        };
        assert_eq!(*value, 2.0);
        assert_eq!(*pid, chip_pid(1));
        assert_eq!(t.droops_total(), 2);
    }

    #[test]
    fn span_guard_records_on_finish_only() {
        let t = Tracer::enabled();
        {
            let _unfinished = t.span("a", "job", PID_JOBS, 0, 100);
            // Dropped without finish: no record.
        }
        t.span("b", "job", PID_JOBS, 1, 100).finish(250);
        let records = t.records();
        assert_eq!(records.len(), 1);
        let TraceRecord::Span { name, ts, dur, .. } = &records[0] else {
            panic!("expected span");
        };
        assert_eq!(name, "b");
        assert_eq!((*ts, *dur), (100, 150));
    }

    #[test]
    fn take_records_drains_but_keeps_droop_total() {
        let mut t = Tracer::enabled();
        t.droop(&droop(0, 1));
        assert_eq!(t.take_records().len(), 2);
        assert!(t.is_empty());
        t.droop(&droop(0, 2));
        let TraceRecord::Counter { value, .. } = &t.records()[1] else {
            panic!("expected counter");
        };
        assert_eq!(*value, 2.0, "running total survives a drain");
    }

    #[test]
    fn double_take_returns_an_empty_stream() {
        // Regression for the old `take_records(&self)` API: draining
        // through a shared reference let a reader that thought it held
        // a snapshot silently empty the tracer for everyone else. The
        // drain is now exclusive, and a second take yields nothing.
        let mut t = Tracer::enabled();
        t.complete("x", "job", PID_JOBS, 0, 0, 10, vec![]);
        t.instant("y", "job", PID_JOBS, 0, 5, vec![]);
        let first = t.take_records();
        assert_eq!(first.len(), 2);
        let second = t.take_records();
        assert!(second.is_empty(), "second take must not re-yield records");
        // Streaming tracers drain their ring the same way.
        let mut s = Tracer::streaming(crate::stream::StreamConfig::default());
        s.complete("x", "job", PID_JOBS, 0, 0, 10, vec![]);
        assert_eq!(s.take_records().len(), 1);
        assert!(s.take_records().is_empty());
    }

    #[test]
    fn streaming_mode_wants_droop_events_and_reports_telemetry() {
        let t = Tracer::streaming(crate::stream::StreamConfig::default());
        assert!(t.is_enabled());
        assert!(t.is_streaming());
        assert!(t.wants_droop_events());
        assert!(Tracer::enabled().telemetry().is_none());
        t.droop(&droop(2, 40));
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

//! The trace vocabulary: what a [`Tracer`](crate::Tracer) records.
//!
//! All timestamps are **virtual cycles**, never wall-clock time. That
//! is the determinism contract: the same run must produce the same
//! trace however many OS threads simulated it, so nothing
//! thread-timing-dependent may enter a record.

use crate::json::{escape_into, json_f64};
use std::fmt::Write as _;
use std::sync::Arc;

/// Virtual process id of the job timeline (admission queue + per-job
/// lifecycle spans) in exported traces.
pub const PID_JOBS: u32 = 1;

/// Virtual process id of the health-monitor timeline (alert
/// fire/resolve instants and windowed-signal counters).
pub const PID_MONITOR: u32 = 3;

/// First virtual process id assigned to chips; chip `c` exports as
/// process [`chip_pid`]`(c)`.
pub(crate) const PID_CHIP_BASE: u32 = 10;

/// The exported virtual process id of chip `chip`.
pub fn chip_pid(chip: usize) -> u32 {
    PID_CHIP_BASE + chip as u32
}

/// One droop emergency, enriched with everything the paper's
/// characterization wants to know about it: *which* chip and core,
/// *when* (virtual cycle), *how deep*, and *what was running*
/// (PAPER.md §III — the oscilloscope events, here with scheduling
/// context attached).
///
/// The context — `workloads`, `label` and `phase` — is the same for
/// every droop of one slice, so it is shared: an event holds three
/// reference counts, and the tracer's args hold the same strings.
#[derive(Debug, Clone, PartialEq)]
pub struct DroopEvent {
    /// Chip (pool slot) the droop occurred on.
    pub chip: usize,
    /// Core the event is charged to. Cores share one supply rail, so
    /// the sense point is chip-wide; by convention this is `0` (the
    /// rail), with `workloads` naming every co-runner.
    pub core: usize,
    /// Virtual cycle of the downward margin crossing.
    pub cycle: u64,
    /// Excursion depth in percent below nominal (grows until the rail
    /// recovers above the margin).
    pub depth_pct: f64,
    /// Workloads resident on the chip when the droop started, in core
    /// order.
    pub workloads: Arc<[Arc<str>]>,
    /// `workloads` joined with `+`, the label the trace renders.
    pub label: Arc<str>,
    /// Phase label of the emitting context (e.g. `epoch42`).
    pub phase: Arc<str>,
}

impl DroopEvent {
    /// Appends the event as one JSON object, the form both the
    /// postmortem bundle and the `/trace/recent` endpoint embed.
    pub fn push_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"chip\": {}, \"core\": {}, \"cycle\": {}, \"depth_pct\": {}, \"workloads\": [",
            self.chip,
            self.core,
            self.cycle,
            json_f64(self.depth_pct)
        );
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(if i == 0 { "\"" } else { ", \"" });
            escape_into(w, out);
            out.push('"');
        }
        out.push_str("], \"phase\": \"");
        escape_into(&self.phase, out);
        out.push_str("\"}");
    }
}

/// One value attached to a record's `args` map.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument, shareable with the event it came from.
    Str(Arc<str>),
    /// An unsigned integer argument.
    U64(u64),
    /// A float argument (rendered with 4 decimal places).
    F64(f64),
}

impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        Self::Str(s.into())
    }
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        Self::Str(s.into())
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

/// Named arguments of a span or instant.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One recorded trace entry.
///
/// The variants map one-to-one onto Chrome trace-event phases:
/// `Span` → `"X"` (complete), `Instant` → `"i"`, `Counter` → `"C"`,
/// and the two name records → `"M"` metadata.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A complete span: `[ts, ts + dur)` on one track.
    Span {
        /// Span name (e.g. workload or lifecycle stage).
        name: String,
        /// Category tag (`job`, `slice`, …).
        cat: &'static str,
        /// Virtual process id.
        pid: u32,
        /// Virtual thread id within the process.
        tid: u64,
        /// Start, in virtual cycles.
        ts: u64,
        /// Duration, in virtual cycles.
        dur: u64,
        /// Named arguments.
        args: Args,
    },
    /// A point event.
    Instant {
        /// Event name.
        name: String,
        /// Category tag.
        cat: &'static str,
        /// Virtual process id.
        pid: u32,
        /// Virtual thread id within the process.
        tid: u64,
        /// Event time, in virtual cycles.
        ts: u64,
        /// Named arguments.
        args: Args,
    },
    /// A sampled counter series value.
    Counter {
        /// Counter name.
        name: String,
        /// Virtual process id the series belongs to.
        pid: u32,
        /// Sample time, in virtual cycles.
        ts: u64,
        /// The counter value at `ts`.
        value: f64,
    },
    /// Names a virtual process in the viewer.
    ProcessName {
        /// Virtual process id being named.
        pid: u32,
        /// Display name.
        name: String,
    },
    /// Names a virtual thread in the viewer.
    ThreadName {
        /// Virtual process id owning the thread.
        pid: u32,
        /// Virtual thread id being named.
        tid: u64,
        /// Display name.
        name: String,
    },
}

impl TraceRecord {
    /// Whether this record is a complete span.
    pub fn is_span(&self) -> bool {
        matches!(self, Self::Span { .. })
    }

    /// Whether this record is an instant event.
    pub fn is_instant(&self) -> bool {
        matches!(self, Self::Instant { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_pids_are_disjoint_from_reserved_pids() {
        assert!(chip_pid(0) > PID_JOBS);
        assert!(chip_pid(0) > PID_MONITOR);
        assert_eq!(chip_pid(3), PID_CHIP_BASE + 3);
    }

    #[test]
    fn record_kind_predicates() {
        let span = TraceRecord::Span {
            name: "x".into(),
            cat: "job",
            pid: PID_JOBS,
            tid: 0,
            ts: 0,
            dur: 1,
            args: vec![],
        };
        assert!(span.is_span());
        assert!(!span.is_instant());
        let c = TraceRecord::Counter {
            name: "droops_total".into(),
            pid: PID_JOBS,
            ts: 0,
            value: 1.0,
        };
        assert!(!c.is_span() && !c.is_instant());
    }

    #[test]
    fn arg_value_conversions() {
        assert_eq!(ArgValue::from("a"), ArgValue::Str("a".into()));
        assert_eq!(ArgValue::from(3u64), ArgValue::U64(3));
        assert_eq!(ArgValue::from(2usize), ArgValue::U64(2));
        assert_eq!(ArgValue::from(1.5), ArgValue::F64(1.5));
    }
}

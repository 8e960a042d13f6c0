//! Exporters and validation.
//!
//! [`chrome_trace_json`] renders a record stream in the Chrome
//! trace-event JSON format (load the file in `chrome://tracing` or
//! Perfetto to see per-chip and per-job timelines). One virtual cycle
//! is exported as one microsecond, so the viewer's time axis reads
//! directly in kilocycles per millisecond.
//!
//! The output is byte-deterministic: records render in stream order,
//! integers as integers, and every float with a fixed four-decimal
//! format. No wall-clock value ever enters the file.
//!
//! [`validate_chrome_trace`] reads an export back through
//! [`parse_json`] so tests and `ci.sh` can prove it actually parses.

use crate::event::{ArgValue, Args, TraceRecord};
use crate::json::{escape_into, parse_json, JsonValue};
use std::fmt::Write as _;

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape_into(value, out);
    out.push('"');
}

fn push_args(out: &mut String, args: &Args) {
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            ArgValue::Str(s) => push_str_field(out, key, s),
            ArgValue::U64(v) => {
                let _ = write!(out, "\"{key}\":{v}");
            }
            ArgValue::F64(v) => {
                let _ = write!(out, "\"{key}\":{v:.4}");
            }
        }
    }
    out.push('}');
}

/// Renders one record as a JSON object. Shared with the incremental
/// streaming sink so batch and streamed exports are byte-identical.
pub(crate) fn push_event(out: &mut String, record: &TraceRecord) {
    out.push('{');
    match record {
        TraceRecord::Span {
            name,
            cat,
            pid,
            tid,
            ts,
            dur,
            args,
        } => {
            push_str_field(out, "name", name);
            let _ = write!(out, ",\"cat\":\"{cat}\",\"ph\":\"X\"");
            let _ = write!(
                out,
                ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}"
            );
            push_args(out, args);
        }
        TraceRecord::Instant {
            name,
            cat,
            pid,
            tid,
            ts,
            args,
        } => {
            push_str_field(out, "name", name);
            let _ = write!(out, ",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\"");
            let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}");
            push_args(out, args);
        }
        TraceRecord::Counter {
            name,
            pid,
            ts,
            value,
        } => {
            push_str_field(out, "name", name);
            let _ = write!(out, ",\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts}");
            let _ = write!(out, ",\"args\":{{\"value\":{value:.4}}}");
        }
        TraceRecord::ProcessName { pid, name } => {
            let _ = write!(out, "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid}");
            out.push_str(",\"args\":{");
            push_str_field(out, "name", name);
            out.push('}');
        }
        TraceRecord::ThreadName { pid, tid, name } => {
            let _ = write!(
                out,
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid}"
            );
            out.push_str(",\"args\":{");
            push_str_field(out, "name", name);
            out.push('}');
        }
    }
    out.push('}');
}

/// Renders a record stream as a `chrome://tracing`-loadable JSON
/// document.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        push_event(&mut out, record);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\"}}\n");
    out
}

/// Shape summary of a parsed Chrome trace, used by tests and `ci.sh`
/// to assert an export is well-formed and non-trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceShape {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete spans (`ph == "X"`).
    pub spans: usize,
    /// Instants (`ph == "i"`).
    pub instants: usize,
    /// Counter samples (`ph == "C"`).
    pub counters: usize,
    /// Droop instants (`cat == "droop"`).
    pub droops: usize,
}

/// Parses `json` as a Chrome trace document and summarizes its shape.
///
/// # Errors
///
/// Fails if the document does not parse or lacks a `traceEvents`
/// array.
pub fn validate_chrome_trace(json: &str) -> Result<TraceShape, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut shape = TraceShape {
        events: events.len(),
        ..TraceShape::default()
    };
    for event in events {
        let ph = event.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        match ph {
            "X" => shape.spans += 1,
            "i" => shape.instants += 1,
            "C" => shape.counters += 1,
            _ => {}
        }
        if event.get("cat").and_then(JsonValue::as_str) == Some("droop") {
            shape.droops += 1;
        }
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DroopEvent, PID_JOBS};
    use crate::tracer::Tracer;

    fn sample_tracer() -> Tracer {
        let t = Tracer::enabled();
        t.process_name(PID_JOBS, "jobs");
        t.thread_name(PID_JOBS, 3, "job 3");
        t.complete(
            "429.mcf",
            "job",
            PID_JOBS,
            3,
            100,
            2_000,
            vec![("chip", 1usize.into()), ("ipc", 0.75.into())],
        );
        t.instant("admit", "job", PID_JOBS, 3, 100, vec![]);
        t.droop(DroopEvent {
            chip: 1,
            core: 0,
            cycle: 1_234,
            depth_pct: 2.8125,
            workloads: vec!["429.mcf".into()],
            phase: "epoch2".into(),
        });
        t
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let json = sample_tracer().to_chrome_json();
        let shape = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(shape.events, 6);
        assert_eq!(shape.spans, 1);
        assert_eq!(shape.instants, 2);
        assert_eq!(shape.counters, 1);
        assert_eq!(shape.droops, 1);
    }

    #[test]
    fn export_is_deterministic() {
        let a = sample_tracer().to_chrome_json();
        let b = sample_tracer().to_chrome_json();
        assert_eq!(a, b);
    }

    #[test]
    fn droop_args_survive_export() {
        let json = sample_tracer().to_chrome_json();
        let doc = parse_json(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let droop = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("droop"))
            .expect("droop instant");
        let args = droop.get("args").expect("args");
        assert_eq!(
            args.get("depth_pct").and_then(JsonValue::as_f64),
            Some(2.8125)
        );
        assert_eq!(
            args.get("phase").and_then(JsonValue::as_str),
            Some("epoch2")
        );
    }

    #[test]
    fn strings_are_escaped() {
        let t = Tracer::enabled();
        t.process_name(PID_JOBS, "a\"b\\c\nd");
        let json = t.to_chrome_json();
        let doc = parse_json(&json).expect("escapes parse back");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let name = events[0].get("args").unwrap().get("name").unwrap();
        assert_eq!(name.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn validation_requires_a_trace_events_array() {
        assert!(validate_chrome_trace("{\"noEvents\":[]}").is_err());
    }

    #[test]
    fn empty_tracer_exports_an_empty_but_valid_document() {
        let json = Tracer::enabled().to_chrome_json();
        let shape = validate_chrome_trace(&json).unwrap();
        assert_eq!(shape.events, 0);
    }
}

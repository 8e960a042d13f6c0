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
//! Rendering is on the telemetry hot path (every streamed record goes
//! through `push_event`), so it appends fixed fragments with
//! `push_str` and integers through a digit loop instead of the `write!`
//! formatter; floats go through the JSON module's `push_f64`, which
//! renders exactly what `{:.4}` renders with integer arithmetic. The
//! `push_event_matches_the_formatter` property holds it to a
//! `write!`-based renderer byte for byte.
//!
//! [`validate_chrome_trace`] reads an export back through
//! [`parse_json`] so tests and `ci.sh` can prove it actually parses.

use crate::event::{ArgValue, Args, TraceRecord};
use crate::json::{escape_into, parse_json, push_f64, push_u64, JsonValue};

/// Appends `"key":` (keys are static identifiers, never escaped).
fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    out.push('"');
    escape_into(value, out);
    out.push('"');
}

/// Appends `,"pid":P` and, when given, `,"tid":T`, then `,"ts":TS`.
fn push_ids(out: &mut String, pid: u32, tid: Option<u64>, ts: u64) {
    out.push_str(",\"pid\":");
    push_u64(out, u64::from(pid));
    if let Some(tid) = tid {
        out.push_str(",\"tid\":");
        push_u64(out, tid);
    }
    out.push_str(",\"ts\":");
    push_u64(out, ts);
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
                push_key(out, key);
                push_u64(out, *v);
            }
            ArgValue::F64(v) => {
                push_key(out, key);
                push_f64(out, *v);
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
            out.push_str(",\"cat\":\"");
            out.push_str(cat);
            out.push_str("\",\"ph\":\"X\"");
            push_ids(out, *pid, Some(*tid), *ts);
            out.push_str(",\"dur\":");
            push_u64(out, *dur);
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
            out.push_str(",\"cat\":\"");
            out.push_str(cat);
            out.push_str("\",\"ph\":\"i\",\"s\":\"t\"");
            push_ids(out, *pid, Some(*tid), *ts);
            push_args(out, args);
        }
        TraceRecord::Counter {
            name,
            pid,
            ts,
            value,
        } => push_counter_fields(out, name, *pid, *ts, *value),
        TraceRecord::ProcessName { pid, name } => {
            out.push_str("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
            push_u64(out, u64::from(*pid));
            out.push_str(",\"args\":{");
            push_str_field(out, "name", name);
            out.push('}');
        }
        TraceRecord::ThreadName { pid, tid, name } => {
            out.push_str("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":");
            push_u64(out, u64::from(*pid));
            out.push_str(",\"tid\":");
            push_u64(out, *tid);
            out.push_str(",\"args\":{");
            push_str_field(out, "name", name);
            out.push('}');
        }
    }
    out.push('}');
}

fn push_counter_fields(out: &mut String, name: &str, pid: u32, ts: u64, value: f64) {
    push_str_field(out, "name", name);
    out.push_str(",\"ph\":\"C\"");
    push_ids(out, pid, None, ts);
    out.push_str(",\"args\":{\"value\":");
    push_f64(out, value);
    out.push('}');
}

/// Renders a counter sample as [`push_event`] renders the
/// `TraceRecord::Counter` of the same fields.
pub(crate) fn push_counter(out: &mut String, name: &str, pid: u32, ts: u64, value: f64) {
    out.push('{');
    push_counter_fields(out, name, pid, ts, value);
    out.push('}');
}

/// Appends the tail every droop instant of one batch shares — its
/// `workloads` label and `phase` args, escaped once, closing the args
/// and the event — for [`push_droop_instant`].
pub(crate) fn push_droop_context(out: &mut String, label: &str, phase: &str) {
    out.push(',');
    push_str_field(out, "workloads", label);
    out.push(',');
    push_str_field(out, "phase", phase);
    out.push_str("}}");
}

/// Renders one crossing's `droop` instant as [`push_event`] renders the
/// instant [`DroopBatch::records`](crate::DroopBatch) makes of it, with
/// `context` from [`push_droop_context`].
pub(crate) fn push_droop_instant(
    out: &mut String,
    pid: u32,
    ts: u64,
    depth_pct: f64,
    context: &str,
) {
    out.push_str("{\"name\":\"droop\",\"cat\":\"droop\",\"ph\":\"i\",\"s\":\"t\"");
    push_ids(out, pid, Some(0), ts);
    out.push_str(",\"args\":{\"depth_pct\":");
    push_f64(out, depth_pct);
    out.push_str(context);
}

/// Renders a record stream as a `chrome://tracing`-loadable JSON
/// document.
pub(crate) fn chrome_trace_json(records: &[TraceRecord]) -> String {
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
    use crate::event::{DroopBatch, PID_JOBS};
    use crate::tracer::Tracer;
    use proptest::prelude::*;

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
        t.droops(&DroopBatch {
            chip: 1,
            workloads: ["429.mcf".into()].into(),
            label: "429.mcf".into(),
            phase: "epoch2".into(),
            crossings: vec![(1_234, 2.8125)],
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

    /// The renderer as it was written with the `write!` formatter and a
    /// per-character escaper: the byte oracle for `push_event`.
    mod formatter {
        use crate::event::{ArgValue, Args, TraceRecord};
        use std::fmt::Write as _;

        fn escape_into(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
        }

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

        pub(super) fn push_event(out: &mut String, record: &TraceRecord) {
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
    }

    /// Characters every escape path and the UTF-8 boundaries meet:
    /// quotes, backslashes, control characters, DEL and multi-byte
    /// code points, plus any scalar value at all.
    fn hostile_string(rng: &mut TestRng) -> String {
        const SPECIAL: [char; 14] = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '—', '😀', '/',
            'a',
        ];
        let len = rng.below(12) as usize;
        (0..len)
            .map(|_| match rng.below(3) {
                0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            })
            .collect()
    }

    /// Integer-valued floats on both sides of 2^53, signed zeros,
    /// non-integers, NaN, the infinities and arbitrary bit patterns
    /// (subnormals, huge magnitudes).
    fn any_float(rng: &mut TestRng) -> f64 {
        const BOUND: f64 = 9_007_199_254_740_992.0;
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        sign * match rng.below(12) {
            0 => 0.0,
            1 => rng.below(1_000_000) as f64,
            2 => rng.below(1 << 53) as f64,
            3 => BOUND - 1.0,
            4 => BOUND,
            5 => f64::from_bits(BOUND.to_bits() + 1 + rng.below(4)),
            6 => u64::MAX as f64,
            7 => rng.unit_f64() * 10f64.powi(rng.below(12) as i32 - 4),
            8 => rng.below(100_000) as f64 + 0.000_05,
            9 => f64::NAN,
            10 => f64::INFINITY,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn any_u64(rng: &mut TestRng) -> u64 {
        match rng.below(5) {
            0 => u64::MAX,
            1 => 0,
            2 => 10u64.pow(rng.below(20) as u32) - rng.below(2),
            3 => rng.below(1_000),
            _ => rng.next_u64(),
        }
    }

    fn any_u32(rng: &mut TestRng) -> u32 {
        match rng.below(3) {
            0 => u32::MAX,
            1 => rng.below(64) as u32,
            _ => rng.next_u64() as u32,
        }
    }

    const KEYS: [&str; 6] = ["name", "value", "chip", "depth_pct", "workloads", "job"];

    fn any_args(rng: &mut TestRng) -> Args {
        (0..rng.below(4))
            .map(|_| {
                let key = KEYS[rng.below(KEYS.len() as u64) as usize];
                let value = match rng.below(3) {
                    0 => ArgValue::from(hostile_string(rng)),
                    1 => ArgValue::U64(any_u64(rng)),
                    _ => ArgValue::F64(any_float(rng)),
                };
                (key, value)
            })
            .collect()
    }

    fn any_record(rng: &mut TestRng) -> TraceRecord {
        const CATS: [&str; 4] = ["job", "slice", "droop", "decision"];
        let cat = CATS[rng.below(CATS.len() as u64) as usize];
        match rng.below(5) {
            0 => TraceRecord::Span {
                name: hostile_string(rng),
                cat,
                pid: any_u32(rng),
                tid: any_u64(rng),
                ts: any_u64(rng),
                dur: any_u64(rng),
                args: any_args(rng),
            },
            1 => TraceRecord::Instant {
                name: hostile_string(rng).into(),
                cat,
                pid: any_u32(rng),
                tid: any_u64(rng),
                ts: any_u64(rng),
                args: any_args(rng),
            },
            2 => TraceRecord::Counter {
                name: hostile_string(rng).into(),
                pid: any_u32(rng),
                ts: any_u64(rng),
                value: any_float(rng),
            },
            3 => TraceRecord::ProcessName {
                pid: any_u32(rng),
                name: hostile_string(rng),
            },
            _ => TraceRecord::ThreadName {
                pid: any_u32(rng),
                tid: any_u64(rng),
                name: hostile_string(rng),
            },
        }
    }

    proptest! {
        /// `push_event` renders every record byte for byte as the
        /// `write!`-based renderer does, and so do the droop fast paths
        /// the records of a random crossing. Case count is pinned by
        /// `PROPTEST_CASES`.
        #[test]
        fn push_event_matches_the_formatter(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            for _ in 0..16 {
                let record = any_record(&mut rng);
                let (mut fast, mut reference) = (String::new(), String::new());
                push_event(&mut fast, &record);
                formatter::push_event(&mut reference, &record);
                prop_assert_eq!(fast, reference, "record {:?}", record);
            }
            let batch = DroopBatch {
                chip: rng.below(1 << 20) as usize,
                workloads: [].into(),
                label: hostile_string(&mut rng).into(),
                phase: hostile_string(&mut rng).into(),
                crossings: vec![(any_u64(&mut rng), any_float(&mut rng))],
            };
            let total = any_u64(&mut rng);
            let (ts, depth_pct) = batch.crossings[0];
            let pid = crate::event::chip_pid(batch.chip);
            let (mut context, mut fast, mut reference) =
                (String::new(), String::new(), String::new());
            push_droop_context(&mut context, &batch.label, &batch.phase);
            push_droop_instant(&mut fast, pid, ts, depth_pct, &context);
            push_counter(&mut fast, "droops_total", pid, ts, total as f64);
            for record in &batch.records(0, total) {
                formatter::push_event(&mut reference, record);
            }
            prop_assert_eq!(fast, reference, "batch {:?}", batch);
        }
    }
}

//! # vsmooth-trace — structured tracing for the vsmooth workspace
//!
//! The paper's whole methodology is *observing* voltage noise: scope
//! captures, droop histograms, per-phase attribution (PAPER.md §III).
//! This crate is that methodology for the simulated system — a
//! first-class event log that can answer "which job pair, on which
//! chip, at which cycle caused that emergency?" instead of end-of-run
//! aggregates only.
//!
//! * [`Tracer`] — span, instant and droop-event recording, free when
//!   disabled (one branch per call site, no lock taken).
//! * [`DroopEvent`] — the typed emergency record: chip, core, cycle,
//!   depth, resident workloads, phase.
//! * [`DroopBatch`] and [`BatchRing`] — one slice's crossings with
//!   their shared context, and the bounded ring of shared batches the
//!   monitor, the obs endpoints and the decision audit keep.
//! * [`Tracer::to_chrome_json`] — Chrome trace-event JSON (viewable in
//!   `chrome://tracing` / Perfetto), checked offline by
//!   [`validate_chrome_trace`].
//! * [`json`] — the workspace's one JSON string escaper, float format
//!   and minimal parser, shared by every artifact writer.
//!
//! # Determinism contract
//!
//! Timestamps are **virtual cycles**; no wall-clock value, thread id,
//! or allocation address ever enters a record. Worker threads only
//! simulate and hand back counters and chip-session droop captures;
//! one coordinator-side producer makes every record from them in a
//! fixed order, so the exported bytes are identical whatever the
//! worker-thread count — enforced end to end by the `serve_invariance`
//! integration test.
//!
//! # Examples
//!
//! ```
//! use vsmooth_trace::{validate_chrome_trace, DroopBatch, Tracer, PID_JOBS};
//!
//! let tracer = Tracer::enabled();
//! tracer.process_name(PID_JOBS, "jobs");
//! tracer.complete("429.mcf", "job", PID_JOBS, 0, 1_000, 5_000, vec![]);
//! tracer.droops(&DroopBatch {
//!     chip: 0,
//!     workloads: ["429.mcf".into()].into(),
//!     label: "429.mcf".into(),
//!     phase: "epoch1".into(),
//!     crossings: vec![(2_400, 2.9), (2_460, 3.1)],
//! });
//! let json = tracer.to_chrome_json();
//! let shape = validate_chrome_trace(&json).unwrap();
//! assert_eq!(shape.spans, 1);
//! assert_eq!(shape.droops, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod audit;
mod event;
mod export;
pub mod json;
mod ring;
mod stream;
mod tracer;

pub use audit::{DecisionEvent, DecisionKind, AUDIT_SCHEMA};
pub use event::{
    chip_pid, ArgValue, Args, DroopBatch, DroopEvent, TraceRecord, PID_JOBS, PID_MONITOR,
};
pub use export::{validate_chrome_trace, TraceShape};
pub use json::parse_json;
pub use ring::{Batch, BatchRing};
pub use stream::{DropReason, SamplerConfig, SinkStats, StreamConfig, TelemetryStats};
pub use tracer::Tracer;

//! # vsmooth-monitor — live health monitoring for the vsmooth service
//!
//! The paper's Droop scheduler wins by shaving the typical-case
//! voltage margin; that bet only holds while emergency droop rates
//! stay in the regime the characterization assumed (PAPER.md §V–VI).
//! This crate is the online layer that *notices when they don't*: the
//! production-monitoring triad — detect, alert, snapshot — for the
//! simulated serving system.
//!
//! * [`SlidingWindow`] / [`WindowSnapshot`] — fixed-size ring-buffer
//!   aggregation over the virtual kcycle clock: windowed droop rate,
//!   mean/min voltage margin, throttle fraction, queue depth.
//! * [`CusumConfig`] — EWMA baseline + one-sided CUSUM change-point
//!   detection, fully deterministic, tunable drift/threshold.
//! * [`SloRule`] / [`Alert`] — declarative SLO rules (thresholds,
//!   Google-SRE-style multi-window burn rate over the
//!   `droop_recovery_overhead_pct` budget, CUSUM anomaly rules) with
//!   pending → firing → resolved hysteresis.
//! * [`RecorderConfig`] / [`PostmortemBundle`] — always-on bounded
//!   evidence rings sealed into a `vsmooth-postmortem-v1` JSON bundle
//!   the moment an alert fires, re-validated offline by
//!   [`validate_postmortem`].
//! * [`Monitor`] / [`HealthReport`] — the coordinator-facing facade
//!   armed by `Instruments::monitored` on `Service::run_with`, the one
//!   run owner that feeds it.
//!
//! # Determinism contract
//!
//! The monitor is fed exclusively by the service's merge layer, in
//! epoch and chip-index order, with virtual-cycle timestamps. No wall-clock
//! value, thread id, or iteration-order-dependent quantity enters any
//! decision, so alert sequences and postmortem bytes are identical
//! for 1, 2, or 8 worker threads — enforced end to end by the
//! `monitor_pipeline` integration test and the `monitor_demo`
//! example.
//!
//! # Example
//!
//! ```
//! use vsmooth_monitor::{EpochSample, Monitor, MonitorConfig};
//!
//! let mut monitor = Monitor::new(MonitorConfig::default());
//! for epoch in 0..20u64 {
//!     monitor.on_epoch(EpochSample {
//!         end_cycle: (epoch + 1) * 1_000,
//!         cycles: 1_000,
//!         droops: if epoch < 10 { 0 } else { 8 },
//!         min_margin_pct: 1.5,
//!         mean_margin_pct: 2.1,
//!         queue_depth: 0,
//!         running_jobs: 2,
//!     });
//! }
//! let report = monitor.report();
//! // The quiet→noisy regime change trips the CUSUM droop-rate rule.
//! assert!(report.alerts.iter().any(|a| a.rule == "droop_rate_anomaly"));
//! assert_eq!(report.postmortems.len(), report.alerts.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod detector;
#[allow(clippy::module_inception)]
mod monitor;
mod recorder;
mod report;
mod slo;
mod window;

pub use detector::{CusumConfig, Direction};
pub use monitor::{Monitor, MonitorConfig};
pub use recorder::{
    validate_postmortem, PostmortemBundle, PostmortemShape, RecorderConfig, SliceRecord,
};
pub use report::{verdict, HealthReport, HealthStatus, HealthSummary};
pub use slo::{Alert, AlertPhase, RuleKind, Severity, Signal, SloRule};
pub use window::{EpochSample, SlidingWindow, WindowSnapshot};

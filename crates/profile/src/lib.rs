//! # vsmooth-profile — droop root-cause attribution
//!
//! The paper's central characterization result is *causal*: droops are
//! triggered by microarchitectural stall events whose current steps
//! excite the PDN resonance (Sec. III, Figs. 7–8). The observability
//! stack so far says *when and how many* droops occur; this crate says
//! *why*. It consumes the triggered waveform windows the chip layer
//! captures around every margin crossing
//! ([`DroopWindow`](vsmooth_chip::DroopWindow)) and turns them into:
//!
//! * a per-droop [`DroopAttribution`] — each stall-event kind's
//!   responsibility share, from exponentially time-decayed weighting of
//!   the events in the lead-in window;
//! * per-workload [`NoiseProfile`]s — droop counts, an events ×
//!   droop-depth share matrix, dominant-event counts and the windowed
//!   counter deltas, aggregated by the [`Profiler`];
//! * a dominant **resonance-period estimate** from the autocorrelation
//!   of the captured ringing, cross-checkable against the analytic
//!   ladder resonance
//!   ([`ImpedanceProfile::resonance_period_cycles`](vsmooth_pdn::ImpedanceProfile::resonance_period_cycles));
//! * exporters: a human-readable text report, a deterministic JSON
//!   artifact, labeled metrics (`droop_attribution_total{event=...}`)
//!   into a [`MetricsRegistry`](vsmooth_stats::MetricsRegistry), and
//!   capture-window spans on `vsmooth-trace` chip timelines.
//!
//! # Determinism contract
//!
//! Everything here is plain deterministic arithmetic over windows fed
//! in a caller-defined order. The serve and campaign layers feed the
//! profiler coordinator-side in a fixed order (chip index / spec
//! order), so profile artifacts are byte-identical for any worker
//! count — enforced by their invariance tests.
//!
//! # Examples
//!
//! ```
//! use vsmooth_chip::{run_workload_with, Capture, ChipConfig, Fidelity};
//! use vsmooth_pdn::DecapConfig;
//! use vsmooth_profile::{ProfileConfig, Profiler};
//! use vsmooth_workload::by_name;
//!
//! let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
//! let sphinx = by_name("482.sphinx3").expect("in catalog");
//! let pcfg = ProfileConfig::default();
//! let capture = Capture::Windows(2.5, pcfg.window);
//! let run = run_workload_with(&cfg, &sphinx, Fidelity::Custom(2_000), capture)?;
//! let mut profiler = Profiler::new(2.5, pcfg);
//! for w in &run.windows {
//!     profiler.record("482.sphinx3", w);
//! }
//! let report = profiler.report();
//! assert_eq!(report.total_droops, run.stats.emergencies(2.5));
//! # Ok::<(), vsmooth_chip::ChipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod profiler;
pub mod report;

pub use attribution::{attribute, event_index, DroopAttribution};
pub use profiler::{NoiseProfile, Profiler};
pub use report::{emit_window_span, ProfileReport, WorkloadProfile};

use vsmooth_chip::WindowConfig;

/// Configuration of the whole profiling pipeline: capture window
/// shape, attribution decay, depth binning and resonance search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// Shape of the triggered capture window (lead-in + tail).
    pub window: WindowConfig,
    /// Time constant (cycles) of the exponential decay that weighs
    /// lead-in events: an event `dt` cycles before the crossing
    /// contributes `exp(-dt / tau)`.
    pub decay_tau_cycles: f64,
    /// Width of one droop-depth bin in the events × depth matrix,
    /// percent below the margin.
    pub depth_bin_pct: f64,
    /// Number of depth bins (the last bin absorbs deeper droops).
    pub depth_bins: usize,
    /// Longest autocorrelation lag (cycles) searched for the
    /// resonance period.
    pub max_lag: usize,
}

impl Default for ProfileConfig {
    /// Defaults sized for the paper's platform: a 24-cycle decay
    /// (stall events couple into the PDN within one or two resonance
    /// periods), 0.5 %-wide depth bins matching the crossing grid
    /// spacing, and a 48-cycle lag search comfortably covering the
    /// ~9–19-cycle analytic resonance.
    fn default() -> Self {
        Self {
            window: WindowConfig::default(),
            decay_tau_cycles: 24.0,
            depth_bin_pct: 0.5,
            depth_bins: 6,
            max_lag: 48,
        }
    }
}

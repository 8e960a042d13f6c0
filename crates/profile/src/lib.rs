//! # vsmooth-profile — droop root-cause attribution
//!
//! The paper's central characterization result is *causal*: droops are
//! triggered by microarchitectural stall events whose current steps
//! excite the PDN resonance (Sec. III, Figs. 7–8). The observability
//! stack so far says *when and how many* droops occur; this crate says
//! *why*. It consumes the triggered waveform windows
//! ([`DroopWindow`](vsmooth_chip::DroopWindow)) a chip session captures
//! around every margin crossing once profiling is armed
//! ([`ChipSession::enable_profiling`](vsmooth_chip::ChipSession::enable_profiling),
//! as the serving shards arm it) and turns them into:
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
//! in a caller-defined order. The service's merge layer feeds the
//! profiler in a fixed order (epoch, then chip index), so profile
//! artifacts are byte-identical for any worker count — enforced by
//! its invariance tests.
//!
//! # Examples
//!
//! ```
//! use vsmooth_chip::{Chip, ChipConfig, ChipSession, WindowConfig};
//! use vsmooth_pdn::DecapConfig;
//! use vsmooth_profile::Profiler;
//! use vsmooth_uarch::{IdleLoop, StimulusSource};
//! use vsmooth_workload::by_name;
//!
//! let chip = Chip::new(ChipConfig::core2_duo(DecapConfig::proc100()))?;
//! let sphinx = by_name("482.sphinx3").expect("in catalog");
//! let (mut stream, mut idle) = (sphinx.stream(0, 2_000), IdleLoop::default());
//! let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut stream, &mut idle];
//! let mut session = ChipSession::begin(chip, &mut sources, 2_000)?;
//! session.enable_profiling(2.5, WindowConfig::default());
//! let mut profiler = Profiler::new(2.5);
//! for _ in 0..sphinx.total_intervals() {
//!     session.run_slice(&mut sources, 2_000)?;
//!     for w in &session.take_droop_windows() {
//!         profiler.record("482.sphinx3", w);
//!     }
//! }
//! for w in &session.flush_droop_windows() {
//!     profiler.record("482.sphinx3", w);
//! }
//! let report = profiler.report();
//! assert_eq!(report.total_droops, session.finish()?.emergencies(2.5));
//! # Ok::<(), vsmooth_chip::ChipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod attribution;
mod profiler;
mod report;

pub use attribution::DroopAttribution;
pub use profiler::{NoiseProfile, Profiler};
pub use report::{emit_window_span, ProfileReport, WorkloadProfile};

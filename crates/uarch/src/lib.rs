//! Microarchitecture substrate for the `vsmooth` reproduction of
//! *Voltage Smoothing* (MICRO 2010).
//!
//! The paper's measurements run on a physical Core 2 Duo; this crate
//! models what matters for voltage noise — the per-cycle *current
//! signature* of execution:
//!
//! * [`StallEvent`] — the five stall classes the paper microbenchmarks
//!   (L1, L2, TLB, BR, EXCP) with their gating/surge profiles.
//! * [`Core`] — a per-cycle activity state machine converting stimuli
//!   to amperes (clock gating on stall → overshoot; refill surge →
//!   droop) while maintaining [`PerfCounters`].
//! * [`StimulusSource`] implementations — [`Microbenchmark`] loops,
//!   the [`IdleLoop`], the power-virus and the impedance-probe
//!   [`SquareWave`] loops.
//!
//! # Examples
//!
//! ```
//! use vsmooth_uarch::{Core, CoreConfig, Microbenchmark, StallEvent, StimulusSource};
//!
//! let mut core = Core::new(CoreConfig::core2_duo());
//! let mut micro = Microbenchmark::new(StallEvent::TlbMiss, 42);
//! for _ in 0..10_000 {
//!     core.tick(micro.next());
//! }
//! assert!(core.counters().event_count(StallEvent::TlbMiss) > 50);
//! assert!(core.counters().stall_ratio() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod core;
mod counters;
mod event;
mod stimulus;

pub use crate::core::{Core, CoreConfig, CycleStimulus};
pub use counters::PerfCounters;
pub use event::{EventProfile, StallEvent};
pub use stimulus::{FixedIntensity, IdleLoop, Microbenchmark, SquareWave, StimulusSource};

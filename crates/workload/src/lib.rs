//! Workload substrate for the `vsmooth` reproduction of *Voltage
//! Smoothing* (MICRO 2010).
//!
//! The paper characterizes 881 benchmark runs: 29 single-threaded SPEC
//! CPU2006 workloads, 11 multi-threaded PARSEC programs, and the
//! 29 × 29 multi-program pairing sweep. This crate provides synthetic,
//! phase-structured stand-ins for those suites (see `DESIGN.md` for the
//! substitution argument):
//!
//! * [`EventMix`] / [`Phase`] / [`PhaseTimeline`] — per-phase stall
//!   event rates and intensity.
//! * [`EventStream`] — deterministic stochastic rendering of a timeline
//!   as a per-cycle [`vsmooth_uarch::StimulusSource`].
//! * [`spec2006`] / [`parsec`] / [`by_name`] — the catalog.
//!
//! # Examples
//!
//! ```
//! use vsmooth_workload::{by_name, spec2006};
//! use vsmooth_uarch::StimulusSource;
//!
//! assert_eq!(spec2006().len(), 29);
//! let mcf = by_name("429.mcf").expect("in catalog");
//! let mut stream = mcf.stream(0, 10_000);
//! let _stimulus = stream.next();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod catalog;
mod phase;
mod stream;

pub use catalog::{by_name, parsec, spec2006, Threading, Workload};
pub use phase::{EventMix, Phase, PhaseTimeline};
pub use stream::{EventStream, PreparedMix};

//! Multi-core chip model for the `vsmooth` reproduction of *Voltage
//! Smoothing* (MICRO 2010).
//!
//! This crate wires the substrates together: per-core activity models
//! ([`vsmooth_uarch`]) drive current into a shared power-delivery
//! network ([`vsmooth_pdn`]) while an on-die [`sense::VoltageSensor`]
//! records every cycle the way the paper's scope does. The result of a
//! run is a [`RunStats`]: a voltage histogram, droop/overshoot event
//! grids usable at *any* margin, a per-interval droop timeline, and
//! per-core performance counters.
//!
//! # Examples
//!
//! ```
//! use vsmooth_chip::{run_workload, ChipConfig, Fidelity};
//! use vsmooth_pdn::DecapConfig;
//! use vsmooth_workload::by_name;
//!
//! let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
//! let mcf = by_name("429.mcf").expect("in catalog");
//! let stats = run_workload(&cfg, &mcf, Fidelity::Custom(1_000))?;
//! assert!(stats.peak_to_peak_pct() > 0.0);
//! # Ok::<(), vsmooth_chip::ChipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batch;
pub mod chip;
pub(crate) mod fastpath;
mod fidelity;
mod invariant;
mod probe;
mod resilient;
mod runner;
pub mod sense;
mod session;
mod stats;
mod topology;
mod window;

pub use crate::batch::ChipBatch;
pub use crate::chip::{Chip, ChipConfig};
pub use fidelity::Fidelity;
pub use invariant::{InvariantConfig, InvariantKind, InvariantReport, InvariantViolation};
pub use probe::{
    empirical_impedance, idle_swing_pct, interference_matrix, single_core_event_swings,
    tlb_overshoot_trace, EmpiricalImpedancePoint, EventSwing, InterferenceMatrix,
};
pub use resilient::ResilientRunStats;
pub use runner::{fan_out, run_pair, run_workload, ChipSource};
pub use session::{ChipSession, DroopCrossing, SliceStats};
pub use stats::{RunStats, PHASE_MARGIN_PCT};
pub use topology::{split_vs_connected, SupplyComparison};
pub use window::{DroopWindow, WindowConfig, WindowEvent};

use std::error::Error;
use std::fmt;

/// Errors from chip construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChipError {
    /// A configuration parameter is invalid.
    InvalidConfig(&'static str),
    /// Number of stimulus sources does not match the core count.
    SourceCountMismatch {
        /// Cores on the chip.
        cores: usize,
        /// Sources supplied.
        sources: usize,
    },
    /// An underlying PDN error.
    Pdn(vsmooth_pdn::PdnError),
    /// A session's statistics were asked for after some of its slices
    /// ran on the lean fused kernel, which leaves the voltage sensor
    /// and the overshoot grid behind.
    IncompleteStats {
        /// Measured cycles the lean kernel ran.
        lean_cycles: u64,
    },
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid chip configuration: {msg}"),
            Self::SourceCountMismatch { cores, sources } => {
                write!(
                    f,
                    "chip has {cores} cores but {sources} stimulus sources were supplied"
                )
            }
            Self::Pdn(e) => write!(f, "power delivery network error: {e}"),
            Self::IncompleteStats { lean_cycles } => write!(
                f,
                "{lean_cycles} measured cycles ran on the lean fused kernel, \
                 which records no sensor samples or overshoots"
            ),
        }
    }
}

impl Error for ChipError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Pdn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vsmooth_pdn::PdnError> for ChipError {
    fn from(e: vsmooth_pdn::PdnError) -> Self {
        Self::Pdn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = ChipError::SourceCountMismatch {
            cores: 2,
            sources: 1,
        };
        assert!(e.to_string().contains("2 cores"));
        let p: ChipError = vsmooth_pdn::PdnError::Singular.into();
        assert!(std::error::Error::source(&p).is_some());
    }
}

//! Power-delivery-network (PDN) substrate for the `vsmooth`
//! reproduction of *Voltage Smoothing* (MICRO 2010).
//!
//! The paper measures voltage noise on a physical Intel Core 2 Duo by
//! probing its `VCCsense`/`VSSsense` pins. This crate replaces that
//! hardware with a lumped RLC ladder model of the power delivery path,
//! exposing everything the paper's methodology needs:
//!
//! * [`LadderConfig`] — the electrical network (VRM, bulk caps, package
//!   decaps, on-die grid) and its state-space model.
//! * [`ImpedanceProfile`] — the Fig. 4 validation curve.
//! * [`DecapConfig`] — the Fig. 5 decap-removal extrapolation
//!   (Proc100 … Proc0).
//! * [`transient`] — time-domain simulation and the Fig. 5m–r / Fig. 6
//!   reset-response study.
//! * [`TechNode`] / [`node_swing_projection`] — the Fig. 1 future-node
//!   projection.
//! * [`RingOscillator`] — the Fig. 2 margin-vs-frequency model.
//! * [`VrmRipple`] — the background regulator sawtooth of Fig. 11.
//!
//! # Examples
//!
//! ```
//! use vsmooth_pdn::{DecapConfig, ImpedanceProfile, LadderConfig};
//!
//! let pdn = LadderConfig::core2_duo(DecapConfig::proc100());
//! let z = ImpedanceProfile::compute(&pdn, 1e5, 1e9, 200)?;
//! let peak = z.peak();
//! // The resonance the paper validates against Intel data.
//! assert!(peak.frequency_hz > 8e7 && peak.frequency_hz < 2.5e8);
//! # Ok::<(), vsmooth_pdn::PdnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod decap;
mod impedance;
mod ladder;
pub mod linalg;
mod ringosc;
mod statespace;
mod technode;
pub mod transient;
mod vrm;

pub use decap::DecapConfig;
pub use impedance::{ImpedancePoint, ImpedanceProfile};
pub use ladder::{LadderConfig, LadderStage};
pub use ringosc::{margin_frequency_sweep, MarginFrequencySeries, RingOscillator};
pub use statespace::{DiscreteStateSpace, StateSpace};
pub use technode::{node_swing_projection, NodeSwing, TechNode};
pub use transient::{decap_swing_sweep, reset_response, simulate_current_waveform, DecapSwing};
pub use vrm::VrmRipple;

use std::error::Error;
use std::fmt;

/// Errors produced by PDN construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdnError {
    /// A circuit element value is non-positive or non-finite.
    InvalidElement {
        /// Which element was invalid.
        element: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A ladder must have at least one stage.
    EmptyLadder,
    /// Frequency sweep bounds are not `0 < lo < hi` with `n >= 2`.
    InvalidFrequencyRange {
        /// Requested lower bound in hertz.
        lo: f64,
        /// Requested upper bound in hertz.
        hi: f64,
    },
    /// A linear system was numerically singular.
    Singular,
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidElement { element, value } => {
                write!(f, "invalid circuit element {element} = {value}")
            }
            Self::EmptyLadder => write!(f, "ladder must have at least one stage"),
            Self::InvalidFrequencyRange { lo, hi } => {
                write!(f, "invalid frequency range [{lo}, {hi}]")
            }
            Self::Singular => write!(f, "linear system is singular"),
        }
    }
}

impl Error for PdnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        let e = PdnError::InvalidElement {
            element: "shunt_c",
            value: -1.0,
        };
        assert!(e.to_string().contains("shunt_c"));
        assert!(PdnError::EmptyLadder.to_string().contains("stage"));
        assert!(PdnError::Singular.to_string().contains("singular"));
        assert!(PdnError::InvalidFrequencyRange { lo: 2.0, hi: 1.0 }
            .to_string()
            .contains("range"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<PdnError>();
    }
}

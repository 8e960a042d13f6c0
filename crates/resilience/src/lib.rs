//! Typical-case (resilient) design analysis for the `vsmooth`
//! reproduction of *Voltage Smoothing* (MICRO 2010).
//!
//! Sec. III of the paper quantifies what a resilient microarchitecture
//! — aggressive voltage margin plus error-recovery hardware — gains
//! over the conservative worst-case design. This crate implements that
//! analysis pipeline:
//!
//! * [`model`] — the performance model: Bowman 1.5× margin-to-frequency
//!   scaling, recovery overhead, optimal-margin search, margin sweeps
//!   (Fig. 8) and improvement heatmaps (Fig. 10).
//! * [`CampaignSpec`] — the 881-run measurement campaign (29 CPU2006 +
//!   11 PARSEC + 29×29 pairs) with thread-parallel execution.
//! * [`measure_worst_case_margin`] — worst-case-margin determination
//!   with the power virus (Sec. II-C).
//!
//! A campaign returns per-run statistics only: tracing, profiling and
//! health monitoring are armed on the scheduling service
//! (`vsmooth-serve`), the one run owner that is observed.
//!
//! # Examples
//!
//! ```
//! use vsmooth_chip::{ChipConfig, Fidelity};
//! use vsmooth_pdn::DecapConfig;
//! use vsmooth_resilience::{CampaignSpec, model};
//!
//! // A miniature campaign (2 singles + 4 pairs + 2 MT) at test fidelity.
//! let chip = ChipConfig::core2_duo(DecapConfig::proc100());
//! let result = CampaignSpec::reduced(chip, Fidelity::Custom(400), 2).run(2)?;
//! let sweeps = model::margin_sweeps(&result.all_stats(), &[100]);
//! let (optimal_margin, improvement) = sweeps[0].optimal();
//! assert!(optimal_margin <= model::WORST_CASE_MARGIN_PCT);
//! assert!(improvement >= 0.0);
//! # Ok::<(), vsmooth_resilience::CampaignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod campaign;
mod margin;
pub mod model;

pub use campaign::{CampaignResult, CampaignRun, CampaignSpec, RunId};
pub use margin::{measure_worst_case_margin, WorstCaseMargin};
pub use model::{
    frequency_gain, margin_sweeps, performance_improvement, ImprovementHeatmap, MarginSweep,
    RECOVERY_COSTS, WORST_CASE_MARGIN_PCT,
};

use std::error::Error;
use std::fmt;

/// Errors from campaign execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The campaign specification contains no runs.
    EmptySpec,
    /// A run failed to simulate.
    Run {
        /// Which run failed.
        id: String,
        /// The underlying chip error.
        source: vsmooth_chip::ChipError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySpec => write!(f, "campaign specification contains no runs"),
            Self::Run { id, source } => write!(f, "campaign run {id} failed: {source}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Run { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays_run_id() {
        let e = CampaignError::Run {
            id: "429.mcf".into(),
            source: vsmooth_chip::ChipError::InvalidConfig("boom"),
        };
        assert!(e.to_string().contains("429.mcf"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

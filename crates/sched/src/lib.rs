//! Voltage-noise-aware thread scheduling — the primary contribution of
//! *Voltage Smoothing* (MICRO 2010), reproduced for the `vsmooth`
//! workspace.
//!
//! The technique is "hardware-guaranteed and software-assisted":
//! hardware provides a fail-safe recovery, while the scheduler
//! co-schedules noise-compatible program phases so the fail-safe fires
//! rarely. This crate implements:
//!
//! * [`PairOracle`] — the pre-measured 29 × 29 droop/IPC tables the
//!   paper's oracle study uses (Sec. IV-C).
//! * [`Policy`] — `Droop`, `IPC`, `IPC/Droopⁿ` and `Random` scheduling
//!   policies.
//! * [`schedule_batch`] — the 50-combination batch-schedule experiment
//!   behind Fig. 18.
//! * [`sliding_window`] — the Prog. X / Prog. Y sliding-window
//!   convolution of Fig. 16.
//! * [`scheduled_pass_counts`] — the Tab. I / Fig. 19 pass-rate analysis.
//! * [`compare_online_scheduling`] — a counter-driven (non-oracle) Droop
//!   scheduler built on the stall-ratio correlation, the future-work
//!   extension the paper motivates in Sec. IV-A.
//!
//! # Examples
//!
//! ```no_run
//! use vsmooth_chip::{ChipConfig, Fidelity};
//! use vsmooth_pdn::DecapConfig;
//! use vsmooth_sched::{schedule_batch, PairOracle, Policy};
//!
//! // Oracle study on the paper's future node (Proc3).
//! let chip = ChipConfig::core2_duo(DecapConfig::proc3());
//! let oracle = PairOracle::measure_cpu2006(&chip, Fidelity::Bench, 8)?;
//! let batch = schedule_batch(&oracle, Policy::Droop);
//! println!("Droop policy: {:.2}x SPECrate noise", batch.normalized_droops);
//! # Ok::<(), vsmooth_sched::SchedError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batch;
mod online;
mod oracle;
mod pairing;
mod passrate;
mod policy;
mod sliding;

pub use batch::{policy_scatter, schedule_batch, BatchSchedule, BATCH_COMBINATIONS, MAX_REPEATS};
pub use online::{compare_online_scheduling, OnlineComparison, StallRatioPredictor};
pub use oracle::PairOracle;
pub use pairing::{OnlineDroop, OnlineIpc, PairCandidate, PairPolicy, RandomPairing, SameWorkload};
pub use passrate::{scheduled_pass_counts, specrate_analysis, ScheduledPassRow, SpecrateRow};
pub use policy::Policy;
pub use sliding::{sliding_window, SlidingWindow};

use std::error::Error;
use std::fmt;

/// Errors from scheduling experiments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// The workload pool was empty.
    EmptyPool,
    /// A pair measurement failed.
    Measurement {
        /// Which pair failed.
        pair: String,
        /// Underlying chip error.
        source: vsmooth_chip::ChipError,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPool => write!(f, "workload pool is empty"),
            Self::Measurement { pair, source } => {
                write!(f, "measurement of pair {pair} failed: {source}")
            }
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Measurement { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(SchedError::EmptyPool.to_string().contains("empty"));
        let e = SchedError::Measurement {
            pair: "a+b".into(),
            source: vsmooth_chip::ChipError::InvalidConfig("x"),
        };
        assert!(e.to_string().contains("a+b"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

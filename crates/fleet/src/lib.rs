//! Heterogeneous fleet campaigns for the voltage-smoothing study.
//!
//! The paper (Reddi et al., MICRO 2010) characterizes one Core 2 Duo
//! part and argues its uniform ~14 % voltage margin is mostly wasted
//! slack. This crate asks the production-scale version of that
//! question: across a *fleet* of parts — different technology nodes,
//! package-decap configurations, DVFS operating points and per-part
//! silicon — how much margin could each chip actually shed?
//!
//! Three pieces answer it:
//!
//! * [`FleetSpec`] — a seeded specification expanding into per-chip
//!   [`ChipVariant`]s and mixed single/pair job streams; the same seed
//!   always yields the same fleet ([`spec`]).
//! * [`FleetCampaign`] — the sweep runner: batched chip construction
//!   ([`vsmooth_chip::ChipBatch`]), a worker pool per chunk, durable
//!   `vsmooth-fleet-ckpt-v1` checkpoints and **exact** resume — a
//!   killed-and-resumed sweep reports byte-identical results
//!   ([`campaign`], [`checkpoint`]).
//! * [`FleetReport`] — per-chip worst-case margin (virus-probed, plus
//!   that part's guardband), droop rates, and the distribution of
//!   *sheddable margin* against the shipped 14 % ([`report`]).
//!
//! A sweep's outputs are its report and its checkpoint; it records no
//! trace, metrics or live progress. [`FleetCampaign::run`] and
//! [`FleetCampaign::run_checkpointed`] are its only entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod report;
pub mod spec;

pub use campaign::{FleetCampaign, FleetOutcome};
pub use checkpoint::{Checkpoint, CheckpointError, RunRecord, CHECKPOINT_SCHEMA};
pub use report::{ChipReport, FleetDistribution, FleetReport, REPORT_SCHEMA, SHIPPED_MARGIN_PCT};
pub use spec::{ChipVariant, FleetJob, FleetRun, FleetSpec, OperatingPoint, BASE_CLOCK_HZ};

use std::error::Error;
use std::fmt;
use vsmooth_chip::ChipError;
use vsmooth_pdn::PdnError;

/// Errors from fleet specification, execution or persistence.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet specification is malformed.
    InvalidSpec(&'static str),
    /// Chip construction or simulation failed outside a specific run.
    Chip(ChipError),
    /// One sweep run failed.
    Run {
        /// Canonical index of the failed run.
        run: usize,
        /// Its job label.
        label: String,
        /// Underlying simulation error.
        source: ChipError,
    },
    /// A checkpoint could not be written, read or trusted.
    Checkpoint(CheckpointError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidSpec(reason) => write!(f, "invalid fleet spec: {reason}"),
            Self::Chip(e) => write!(f, "fleet chip error: {e}"),
            Self::Run { run, label, source } => {
                write!(f, "fleet run {run} ({label}) failed: {source}")
            }
            Self::Checkpoint(e) => write!(f, "fleet checkpoint error: {e}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::InvalidSpec(_) => None,
            Self::Chip(e) | Self::Run { source: e, .. } => Some(e),
            Self::Checkpoint(e) => Some(e),
        }
    }
}

impl From<ChipError> for FleetError {
    fn from(e: ChipError) -> Self {
        Self::Chip(e)
    }
}

impl From<PdnError> for FleetError {
    fn from(e: PdnError) -> Self {
        Self::Chip(ChipError::from(e))
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

//! # vsmooth-serve — online noise-aware scheduling as a service
//!
//! The paper's scheduling study (Sec. IV) is offline: an oracle
//! measures all 29 × 29 pairings first, then a policy picks pairs from
//! the table. This crate turns the idea into the *service* the paper's
//! future-work section gestures at: a long-running scheduler that
//! accepts a stream of job submissions, holds them in an admission
//! queue, and co-schedules noise-compatible pairs onto a pool of
//! simulated two-core chips — with the Droop decision driven online by
//! per-workload EWMA stall-ratio telemetry (the Fig. 15 correlation),
//! not by any pre-measured table.
//!
//! * [`JobSpec`] / [`synthetic_jobs`] — the submission stream.
//! * [`WorkloadProfile`] — per-workload EWMA profiles built from
//!   [`PerfCounters`] slice deltas.
//! * [`Service`] — epoch-based placement and sliced chip simulation
//!   over a multi-worker pool, instrumented through
//!   [`MetricsRegistry`].
//! * [`ServiceReport`] — the worker-count-independent run summary.
//! * [`Instruments`] / [`Observed`] — what a run records besides its
//!   report (a tracer, the droop profiler, the health monitor) and the
//!   artifacts it hands back. The service is the workspace's one
//!   observed run owner: campaigns and fleet sweeps return their
//!   reports only.
//!
//! [`PerfCounters`]: vsmooth_uarch::PerfCounters
//! [`MetricsRegistry`]: vsmooth_stats::MetricsRegistry
//!
//! # Examples
//!
//! ```
//! use vsmooth_chip::ChipConfig;
//! use vsmooth_pdn::DecapConfig;
//! use vsmooth_sched::OnlineDroop;
//! use vsmooth_serve::{synthetic_jobs, Service, ServiceConfig};
//!
//! let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
//! cfg.chips = 2;
//! cfg.slice_cycles = 500;
//! let service = Service::new(cfg)?;
//! let jobs = synthetic_jobs(7, 8, 2_000);
//! let report = service.run(&jobs, &OnlineDroop, 2)?;
//! assert_eq!(report.jobs_completed, 8);
//! # Ok::<(), vsmooth_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod audit;
mod control;
mod instruments;
pub(crate) mod introspect;
mod job;
pub(crate) mod merge;
mod service;
pub(crate) mod shard;
mod telemetry;

pub use audit::{AuditConfig, AuditReport};
pub use control::RuntimeMode;
pub use instruments::{Instruments, Observed};
pub use job::{synthetic_jobs, CompletedJob, JobSpec};
pub use service::{Service, ServiceConfig, ServiceReport};
pub use telemetry::WorkloadProfile;
// Re-exported so callers can wire `ServiceConfig::obs` without naming
// the obs crate directly.
pub use vsmooth_obs::{ObsConfig, ObsServer, TelemetryHub};

use std::error::Error;
use std::fmt;

/// Errors from the scheduling service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A configuration parameter is invalid.
    InvalidConfig(&'static str),
    /// A job names a workload the catalog does not have.
    UnknownWorkload(String),
    /// An arrival would push the admission queue past the configured
    /// [`queue_capacity`](ServiceConfig::queue_capacity).
    QueueOverflow {
        /// The configured bound the queue hit.
        capacity: usize,
        /// The job whose admission overflowed.
        job: u64,
    },
    /// Chip simulation failed.
    Chip(vsmooth_chip::ChipError),
    /// A shard worker panicked: the slices it was running can never
    /// report, so the run ends here instead of waiting for them.
    ShardFailed {
        /// The shard whose worker panicked.
        shard: usize,
    },
    /// The run was configured with
    /// [`invariants`](ServiceConfig::invariants) and the per-chip
    /// physical-invariant checker flagged violations.
    InvariantViolations {
        /// Total violations flagged across the pool.
        violations: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid service configuration: {msg}"),
            Self::UnknownWorkload(name) => write!(f, "unknown workload: {name}"),
            Self::QueueOverflow { capacity, job } => write!(
                f,
                "admission queue overflow: job {job} arrived with {capacity} jobs already waiting"
            ),
            Self::Chip(e) => write!(f, "chip simulation failed: {e}"),
            Self::ShardFailed { shard } => write!(f, "shard worker {shard} panicked"),
            Self::InvariantViolations { violations } => {
                write!(f, "invariant checker flagged {violations} violations")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Chip(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vsmooth_chip::ChipError> for ServeError {
    fn from(e: vsmooth_chip::ChipError) -> Self {
        Self::Chip(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        assert!(ServeError::InvalidConfig("x")
            .to_string()
            .contains("invalid"));
        assert!(ServeError::UnknownWorkload("z".into())
            .to_string()
            .contains('z'));
        let chip: ServeError = vsmooth_chip::ChipError::InvalidConfig("y").into();
        assert!(std::error::Error::source(&chip).is_some());
        let shard = ServeError::ShardFailed { shard: 3 };
        assert_eq!(shard.to_string(), "shard worker 3 panicked");
    }
}

//! # vsmooth — *Voltage Smoothing* (MICRO 2010) in Rust
//!
//! A full reproduction of *"Voltage Smoothing: Characterizing and
//! Mitigating Voltage Noise in Production Processors via
//! Software-Guided Thread Scheduling"* (Reddi, Kanev, Kim, Campanoni,
//! Smith, Wei, Brooks — MICRO 2010), built on simulated substrates that
//! replace the paper's physical Core 2 Duo testbed (see `DESIGN.md`).
//!
//! The workspace layers, re-exported here:
//!
//! * [`pdn`] — the RLC power-delivery network, impedance profiles,
//!   decap-removal extrapolation, technology-node projection.
//! * [`uarch`] — per-cycle core activity/current model, stall events,
//!   performance counters, microbenchmarks.
//! * [`workload`] — the synthetic SPEC CPU2006 / PARSEC catalog with
//!   phase-structured stall-event mixes.
//! * [`chip`] — multi-core chip on a shared supply with per-cycle
//!   voltage sensing and droop detection.
//! * [`profile`] — droop root-cause attribution: triggered waveform
//!   windows scored into per-workload noise profiles, with a
//!   resonance-period estimate cross-checked against the analytic PDN.
//! * [`monitor`] — live health monitoring: streaming window
//!   aggregators, EWMA+CUSUM anomaly detection, SLO/alert rules with
//!   burn-rate budgets, and flight-recorder postmortems.
//! * [`obs`] — live operational endpoints: an embedded loopback scrape
//!   server (`/metrics`, `/healthz`, `/readyz`, `/status`,
//!   `/trace/recent`, `/profile`) fed by a lock-light snapshot hub.
//! * [`resilience`] — the typical-case design performance model and the
//!   881-run measurement campaign.
//! * [`fleet`] — heterogeneous fleet campaigns: per-chip silicon/DVFS
//!   variation, checkpoint/resume sweeps, per-chip margin reports.
//! * [`sched`] — the noise-aware thread scheduler: Droop / IPC /
//!   IPC-over-Droopⁿ policies, batch scheduling, sliding windows,
//!   pass-rate analysis, and a counter-driven online scheduler.
//! * [`testkit`] — correctness tooling: differential oracles against
//!   closed-form circuit solutions, a brute-force reference scheduler,
//!   campaign-scale invariant sweeps, and a seeded scenario generator.
//! * [`experiments`] — one runner per paper figure/table, and
//!   [`report`] — plain-text rendering of each result.
//!
//! # Quick start
//!
//! ```
//! use vsmooth::experiments::{ExperimentConfig, Lab};
//!
//! // Microbenchmark characterization (Fig. 12): which stall event
//! // swings the supply hardest?
//! let lab = Lab::new(ExperimentConfig::quick());
//! let swings = lab.fig12()?;
//! let br = swings
//!     .iter()
//!     .find(|s| s.event == vsmooth::uarch::StallEvent::BranchMispredict)
//!     .expect("BR measured");
//! assert!(br.relative_swing > 1.0);
//! # Ok::<(), vsmooth::VsmoothError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod report;

/// The multi-core chip model.
pub use vsmooth_chip as chip;
/// Heterogeneous fleet campaigns: per-chip silicon/DVFS variation,
/// checkpoint/resume sweeps, per-chip margin reports.
pub use vsmooth_fleet as fleet;
/// Live health monitoring: windowed signals, anomaly detection,
/// SLO/alert rules, flight-recorder postmortems.
pub use vsmooth_monitor as monitor;
/// Live operational endpoints: the embedded scrape server and the
/// lock-light `TelemetryHub` snapshot exchange.
pub use vsmooth_obs as obs;
/// The power-delivery-network substrate.
pub use vsmooth_pdn as pdn;
/// Droop root-cause attribution over triggered waveform windows.
pub use vsmooth_profile as profile;
/// Typical-case design analysis and the measurement campaign.
pub use vsmooth_resilience as resilience;
/// The noise-aware thread scheduler.
pub use vsmooth_sched as sched;
/// The online noise-aware scheduling service.
pub use vsmooth_serve as serve;
/// The observation descriptor the scheduling service takes, and the
/// result it hands back.
pub use vsmooth_serve::{Instruments, Observed};
/// Statistics helpers.
pub use vsmooth_stats as stats;
/// Correctness tooling: differential oracles against closed-form
/// circuit solutions, a reference scheduler, campaign-scale invariant
/// sweeps, and the seeded scenario generator (see `DESIGN.md` §10).
pub use vsmooth_testkit as testkit;
/// Structured tracing: droop events, spans, Chrome trace export.
pub use vsmooth_trace as trace;
/// The microarchitecture substrate.
pub use vsmooth_uarch as uarch;
/// The workload catalog.
pub use vsmooth_workload as workload;

use std::error::Error;
use std::fmt;

/// Unified error type across the experiment suite.
#[derive(Debug)]
#[non_exhaustive]
pub enum VsmoothError {
    /// PDN construction or analysis failed.
    Pdn(vsmooth_pdn::PdnError),
    /// Chip simulation failed.
    Chip(vsmooth_chip::ChipError),
    /// Campaign execution failed.
    Campaign(vsmooth_resilience::CampaignError),
    /// Fleet sweep execution or persistence failed.
    Fleet(vsmooth_fleet::FleetError),
    /// Scheduling experiment failed.
    Sched(vsmooth_sched::SchedError),
    /// The scheduling service failed.
    Serve(vsmooth_serve::ServeError),
}

impl fmt::Display for VsmoothError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pdn(e) => write!(f, "pdn: {e}"),
            Self::Chip(e) => write!(f, "chip: {e}"),
            Self::Campaign(e) => write!(f, "campaign: {e}"),
            Self::Fleet(e) => write!(f, "fleet: {e}"),
            Self::Sched(e) => write!(f, "sched: {e}"),
            Self::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl Error for VsmoothError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Pdn(e) => Some(e),
            Self::Chip(e) => Some(e),
            Self::Campaign(e) => Some(e),
            Self::Fleet(e) => Some(e),
            Self::Sched(e) => Some(e),
            Self::Serve(e) => Some(e),
        }
    }
}

impl From<vsmooth_pdn::PdnError> for VsmoothError {
    fn from(e: vsmooth_pdn::PdnError) -> Self {
        Self::Pdn(e)
    }
}

impl From<vsmooth_chip::ChipError> for VsmoothError {
    fn from(e: vsmooth_chip::ChipError) -> Self {
        Self::Chip(e)
    }
}

impl From<vsmooth_resilience::CampaignError> for VsmoothError {
    fn from(e: vsmooth_resilience::CampaignError) -> Self {
        Self::Campaign(e)
    }
}

impl From<vsmooth_fleet::FleetError> for VsmoothError {
    fn from(e: vsmooth_fleet::FleetError) -> Self {
        Self::Fleet(e)
    }
}

impl From<vsmooth_sched::SchedError> for VsmoothError {
    fn from(e: vsmooth_sched::SchedError) -> Self {
        Self::Sched(e)
    }
}

impl From<vsmooth_serve::ServeError> for VsmoothError {
    fn from(e: vsmooth_serve::ServeError) -> Self {
        Self::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_wrap_and_display() {
        let e: VsmoothError = vsmooth_pdn::PdnError::Singular.into();
        assert!(e.to_string().contains("pdn"));
        assert!(std::error::Error::source(&e).is_some());
        let e: VsmoothError = vsmooth_chip::ChipError::InvalidConfig("x").into();
        assert!(e.to_string().contains("chip"));
    }
}

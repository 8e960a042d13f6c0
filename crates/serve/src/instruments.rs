//! What a service run records besides its report.
//!
//! [`Service::run_with`](crate::Service::run_with) takes one
//! [`Instruments`] and hands back one [`Observed`] result, so arming a
//! tracer, the droop profiler or the health monitor is one builder
//! call:
//!
//! ```
//! use vsmooth_monitor::MonitorConfig;
//! use vsmooth_serve::Instruments;
//! use vsmooth_trace::Tracer;
//!
//! let tracer = Tracer::enabled();
//! let inst = Instruments::new()
//!     .traced(&tracer)
//!     .monitored(MonitorConfig::default());
//! assert!(inst.tracer.is_some() && inst.monitor.is_some());
//! assert!(inst.profile.is_none());
//! ```
//!
//! There is no metrics instrument: the service owns the registry its
//! report embeds ([`ServiceReport::snapshot`](crate::ServiceReport)).

use vsmooth_monitor::{HealthReport, MonitorConfig};
use vsmooth_profile::{ProfileConfig, ProfileReport};
use vsmooth_trace::Tracer;

/// What a run records besides its own report. Every field defaults to
/// off; arming any of them never changes the report itself.
#[derive(Debug, Clone, Default)]
pub struct Instruments<'a> {
    /// Records spans, droop events and alert instants.
    pub tracer: Option<&'a Tracer>,
    /// Profiles every droop into an attribution [`ProfileReport`].
    pub profile: Option<ProfileConfig>,
    /// Watches the run with a health monitor sealing a
    /// [`HealthReport`].
    pub monitor: Option<MonitorConfig>,
}

impl<'a> Instruments<'a> {
    /// No instrument armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `tracer`.
    pub fn traced(mut self, tracer: &'a Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Arms the droop profiler.
    pub fn profiled(mut self, cfg: ProfileConfig) -> Self {
        self.profile = Some(cfg);
        self
    }

    /// Arms the health monitor.
    pub fn monitored(mut self, cfg: MonitorConfig) -> Self {
        self.monitor = Some(cfg);
        self
    }
}

/// A run's report plus the artifacts its [`Instruments`] sealed:
/// `profile` is `Some` exactly when a profiler was armed, `health`
/// exactly when a monitor was.
#[derive(Debug)]
pub struct Observed<R> {
    /// The owner's own report.
    pub report: R,
    /// The droop attribution profile, if profiling was armed.
    pub profile: Option<ProfileReport>,
    /// The final health report, if monitoring was armed.
    pub health: Option<HealthReport>,
}

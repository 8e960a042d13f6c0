//! Online per-workload telemetry: the EWMA profiles that replace the
//! paper's pre-measured oracle table.
//!
//! The paper's oracle scheduler ranks pairs from an exhaustive 29 × 29
//! droop table (Sec. IV-C) — unavailable to a service meeting jobs at
//! admission time. Instead, every completed slice yields the counters
//! a real kernel would sample ([`PerfCounters`] deltas plus the chip's
//! droop count), folded into exponentially weighted moving averages
//! keyed by *workload name*: names recur across submissions, so the
//! profile warms up quickly and fresh jobs of a known workload start
//! hot. Fig. 15's 0.97 stall-ratio/droop correlation is what makes the
//! stall EWMA a usable noise predictor.
//!
//! [`PerfCounters`]: vsmooth_uarch::PerfCounters

use std::collections::BTreeMap;
use vsmooth_sched::PairCandidate;
use vsmooth_uarch::PerfCounters;

/// EWMA smoothing factor: weight of the newest sample.
const ALPHA: f64 = 0.25;

/// Neutral stall-ratio prior for never-seen workloads (mid-pack for
/// the catalog, so cold jobs are neither favored nor shunned).
const COLD_STALL_RATIO: f64 = 0.2;

/// Neutral IPC prior for never-seen workloads.
const COLD_IPC: f64 = 1.0;

/// One workload's accumulated online profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// EWMA of the per-slice stall ratio.
    pub stall_ratio: f64,
    /// EWMA of the per-slice IPC.
    pub ipc: f64,
    /// EWMA of droops per kilocycle on chips this workload occupied.
    pub droops_per_kilocycle: f64,
    /// Slices folded into this profile.
    pub samples: u64,
}

impl WorkloadProfile {
    fn cold() -> Self {
        Self {
            stall_ratio: COLD_STALL_RATIO,
            ipc: COLD_IPC,
            droops_per_kilocycle: 0.0,
            samples: 0,
        }
    }

    fn fold(&mut self, stall_ratio: f64, ipc: f64, droops_per_kilocycle: f64) {
        if self.samples == 0 {
            // First real sample replaces the prior outright.
            self.stall_ratio = stall_ratio;
            self.ipc = ipc;
            self.droops_per_kilocycle = droops_per_kilocycle;
        } else {
            self.stall_ratio += ALPHA * (stall_ratio - self.stall_ratio);
            self.ipc += ALPHA * (ipc - self.ipc);
            self.droops_per_kilocycle += ALPHA * (droops_per_kilocycle - self.droops_per_kilocycle);
        }
        self.samples += 1;
    }
}

/// The service's telemetry store: workload name → EWMA profile.
///
/// Updates must come from a single thread in a deterministic order
/// (the service's coordinator applies them chip-by-chip after every
/// epoch); the book itself is plain data.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TelemetryBook {
    profiles: BTreeMap<String, WorkloadProfile>,
}

impl TelemetryBook {
    /// An empty book: every workload is cold.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds one slice observation for `workload`: the core's counter
    /// delta plus the chip-level droop rate over the slice.
    pub(crate) fn observe(
        &mut self,
        workload: &str,
        delta: &PerfCounters,
        droops_per_kilocycle: f64,
    ) {
        if delta.cycles() == 0 {
            return;
        }
        // Probe by `&str` first: `entry` would allocate the owned key
        // on every observation, and this runs once per core per slice.
        if !self.profiles.contains_key(workload) {
            self.profiles
                .insert(workload.to_string(), WorkloadProfile::cold());
        }
        self.profiles
            .get_mut(workload)
            .expect("present or just inserted")
            .fold(delta.stall_ratio(), delta.ipc(), droops_per_kilocycle);
    }

    /// The current profile for `workload` (a cold prior if unseen).
    pub(crate) fn profile(&self, workload: &str) -> WorkloadProfile {
        self.profiles
            .get(workload)
            .cloned()
            .unwrap_or_else(WorkloadProfile::cold)
    }

    /// Number of workloads with at least one real sample.
    pub(crate) fn warmed(&self) -> usize {
        self.profiles.values().filter(|p| p.samples > 0).count()
    }

    /// Builds the [`PairCandidate`] a scheduling policy scores: job
    /// identity plus this book's current view of its workload.
    pub(crate) fn candidate(&self, job: u64, workload: &str) -> PairCandidate {
        let p = self.profile(workload);
        PairCandidate {
            job,
            workload: workload.to_string(),
            stall_ratio: p.stall_ratio,
            ipc: p.ipc,
            droops_per_kilocycle: p.droops_per_kilocycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_uarch::StallEvent;

    fn counters(cycles: u64, stalled: u64, instructions: f64) -> PerfCounters {
        let mut c = PerfCounters::new();
        for i in 0..cycles {
            c.on_cycle(i < stalled, instructions / cycles as f64);
        }
        c.on_event(StallEvent::BranchMispredict);
        c
    }

    #[test]
    fn cold_profile_uses_neutral_prior() {
        let book = TelemetryBook::new();
        let p = book.profile("999.unseen");
        assert_eq!(p.samples, 0);
        assert!((p.stall_ratio - COLD_STALL_RATIO).abs() < 1e-12);
        assert!((p.ipc - COLD_IPC).abs() < 1e-12);
        assert_eq!(p.droops_per_kilocycle, 0.0);
    }

    #[test]
    fn first_sample_replaces_prior_then_ewma_smooths() {
        let mut book = TelemetryBook::new();
        book.observe("429.mcf", &counters(1000, 600, 500.0), 4.0);
        let first = book.profile("429.mcf");
        assert!((first.stall_ratio - 0.6).abs() < 1e-12);
        assert!((first.droops_per_kilocycle - 4.0).abs() < 1e-12);

        book.observe("429.mcf", &counters(1000, 200, 500.0), 0.0);
        let second = book.profile("429.mcf");
        // EWMA moved a quarter of the way toward the new sample.
        assert!((second.stall_ratio - (0.6 + ALPHA * (0.2 - 0.6))).abs() < 1e-12);
        assert!((second.droops_per_kilocycle - 3.0).abs() < 1e-12);
        assert_eq!(second.samples, 2);
    }

    #[test]
    fn empty_slices_are_ignored() {
        let mut book = TelemetryBook::new();
        book.observe("429.mcf", &PerfCounters::new(), 9.0);
        assert_eq!(book.warmed(), 0);
    }

    #[test]
    fn candidate_reflects_book_state() {
        let mut book = TelemetryBook::new();
        book.observe("429.mcf", &counters(1000, 900, 100.0), 8.0);
        let c = book.candidate(17, "429.mcf");
        assert_eq!(c.job, 17);
        assert_eq!(c.workload, "429.mcf");
        assert!(c.stall_ratio > 0.8);
        let cold = book.candidate(18, "473.astar");
        assert!((cold.stall_ratio - COLD_STALL_RATIO).abs() < 1e-12);
    }
}

//! Hardware performance counters (the paper reads these with VTune).
//!
//! The scheduler side of the paper leans on exactly two derived counter
//! metrics: **stall ratio** — "computed from counters that measure the
//! numbers of cycles the pipeline is waiting" (Sec. IV-A, correlates
//! 0.97 with droops) — and **IPC** for the performance-oriented
//! scheduling baseline (Sec. IV-C).

use crate::event::StallEvent;

/// Per-core performance counters.
///
/// # Examples
///
/// ```
/// use vsmooth_uarch::PerfCounters;
///
/// let mut c = PerfCounters::new();
/// c.on_cycle(true, 0.0);
/// c.on_cycle(false, 2.0);
/// assert_eq!(c.cycles(), 2);
/// assert_eq!(c.stall_ratio(), 0.5);
/// assert_eq!(c.ipc(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfCounters {
    cycles: u64,
    stall_cycles: u64,
    committed: f64,
    event_counts: [u64; 5],
}

impl PerfCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances one cycle, recording whether it stalled and how many
    /// instructions committed.
    pub fn on_cycle(&mut self, stalled: bool, committed: f64) {
        self.cycles += 1;
        if stalled {
            self.stall_cycles += 1;
        }
        self.committed += committed;
    }

    /// Reconstructs a snapshot from raw parts — the inverse of reading
    /// the accessors. Used by triggered capture to rebuild the counter
    /// state at a past cycle from the current state minus windowed
    /// increments, instead of ring-buffering whole snapshots per cycle.
    pub fn from_parts(
        cycles: u64,
        stall_cycles: u64,
        committed: f64,
        event_counts: [u64; 5],
    ) -> Self {
        Self {
            cycles,
            stall_cycles,
            committed,
            event_counts,
        }
    }

    /// Records the occurrence of a stall event.
    #[inline]
    pub fn on_event(&mut self, e: StallEvent) {
        self.event_counts[e.index()] += 1;
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles spent with the pipeline stalled.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Committed instructions (fractional commits accumulate exactly).
    pub fn instructions(&self) -> f64 {
        self.committed
    }

    /// Fraction of cycles spent stalled — VTune's "stall ratio" event,
    /// the software-visible noise proxy of Fig. 15.
    pub fn stall_ratio(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed / self.cycles as f64
        }
    }

    /// Number of occurrences of `e`.
    #[inline]
    pub fn event_count(&self, e: StallEvent) -> u64 {
        self.event_counts[e.index()]
    }

    /// Raw per-event counts, in [`StallEvent::ALL`] order. Lets
    /// per-cycle consumers diff all five events with one array compare
    /// instead of five keyed lookups.
    #[inline]
    pub fn event_counts_raw(&self) -> [u64; 5] {
        self.event_counts
    }

    /// The counter deltas accumulated since `earlier` was captured —
    /// how an OS-level sampler derives per-interval stall ratio and IPC
    /// from free-running hardware counters.
    ///
    /// Saturates at zero if `earlier` is not actually an earlier
    /// snapshot of this counter set.
    pub fn delta_since(&self, earlier: &PerfCounters) -> PerfCounters {
        let mut d = PerfCounters {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            stall_cycles: self.stall_cycles.saturating_sub(earlier.stall_cycles),
            committed: (self.committed - earlier.committed).max(0.0),
            event_counts: [0; 5],
        };
        for (slot, (now, then)) in d
            .event_counts
            .iter_mut()
            .zip(self.event_counts.iter().zip(&earlier.event_counts))
        {
            *slot = now.saturating_sub(*then);
        }
        d
    }

    /// Merges another counter set (e.g. across intervals).
    pub fn merge(&mut self, other: &PerfCounters) {
        self.cycles += other.cycles;
        self.stall_cycles += other.stall_cycles;
        self.committed += other.committed;
        for (a, b) in self.event_counts.iter_mut().zip(&other.event_counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_counters_are_safe() {
        let c = PerfCounters::new();
        assert_eq!(c.stall_ratio(), 0.0);
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.cycles(), 0);
    }

    #[test]
    fn event_counts_track_per_event() {
        let mut c = PerfCounters::new();
        c.on_event(StallEvent::BranchMispredict);
        c.on_event(StallEvent::BranchMispredict);
        c.on_event(StallEvent::L2Miss);
        assert_eq!(c.event_count(StallEvent::BranchMispredict), 2);
        assert_eq!(c.event_count(StallEvent::L2Miss), 1);
        assert_eq!(c.event_count(StallEvent::TlbMiss), 0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = PerfCounters::new();
        let mut b = PerfCounters::new();
        a.on_cycle(true, 0.0);
        b.on_cycle(false, 3.0);
        b.on_event(StallEvent::L1Miss);
        a.merge(&b);
        assert_eq!(a.cycles(), 2);
        assert_eq!(a.stall_cycles(), 1);
        assert_eq!(a.instructions(), 3.0);
        assert_eq!(a.event_count(StallEvent::L1Miss), 1);
    }

    #[test]
    fn delta_since_and_merge_round_trip() {
        // Snapshot, accumulate, delta, then merge the delta back onto
        // the snapshot: the reconstruction must equal the live counters
        // in every field. This is the identity the profiler's windowed
        // counter-delta bookkeeping relies on.
        let mut live = PerfCounters::new();
        for i in 0..50 {
            live.on_cycle(i % 4 == 0, 1.5);
        }
        live.on_event(StallEvent::L2Miss);
        let snapshot = live;
        for i in 0..30 {
            live.on_cycle(i % 2 == 0, 0.5);
        }
        live.on_event(StallEvent::L2Miss);
        live.on_event(StallEvent::TlbMiss);

        let delta = live.delta_since(&snapshot);
        assert_eq!(delta.cycles(), 30);
        assert_eq!(delta.stall_cycles(), 15);
        assert_eq!(delta.instructions(), 15.0);
        assert_eq!(delta.event_count(StallEvent::L2Miss), 1);
        assert_eq!(delta.event_count(StallEvent::TlbMiss), 1);
        assert_eq!(delta.event_count(StallEvent::L1Miss), 0);

        let mut rebuilt = snapshot;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn delta_since_saturates_on_misordered_snapshots() {
        let mut later = PerfCounters::new();
        later.on_cycle(true, 2.0);
        later.on_event(StallEvent::Exception);
        // Asking for "the delta since a *later* snapshot" must clamp to
        // zero everywhere instead of wrapping.
        let d = PerfCounters::new().delta_since(&later);
        assert_eq!(d, PerfCounters::new());
    }

    #[test]
    fn from_parts_round_trips_the_accessors() {
        let mut live = PerfCounters::new();
        for i in 0..40 {
            live.on_cycle(i % 3 == 0, 1.25);
        }
        live.on_event(StallEvent::TlbMiss);
        live.on_event(StallEvent::Exception);
        let rebuilt = PerfCounters::from_parts(
            live.cycles(),
            live.stall_cycles(),
            live.instructions(),
            live.event_counts_raw(),
        );
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn stall_ratio_in_unit_interval() {
        let mut c = PerfCounters::new();
        for i in 0..100 {
            c.on_cycle(i % 3 == 0, 1.0);
        }
        assert!(c.stall_ratio() > 0.0 && c.stall_ratio() < 1.0);
    }
}

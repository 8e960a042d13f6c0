//! Streaming window aggregation over the virtual kcycle clock.
//!
//! The monitor never sees raw cycles: the service coordinator folds
//! each scheduling epoch into one [`EpochSample`] (droops, margins,
//! queue depth) and pushes it here. A [`SlidingWindow`] keeps the last
//! `capacity` samples in a fixed-size ring — allocated once at
//! construction, never touched again — and yields a [`WindowSnapshot`]
//! of windowed rates on demand. Everything is plain arithmetic over
//! coordinator-ordered inputs, so snapshots are byte-identical for any
//! worker-thread count.

/// One scheduling epoch's worth of coordinator-side observations,
/// aggregated over every busy chip of the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Virtual clock at the end of the epoch, cycles.
    pub end_cycle: u64,
    /// Chip cycles measured this epoch (summed over busy chips).
    pub cycles: u64,
    /// Droop emergencies at the phase margin this epoch.
    pub droops: u64,
    /// Worst instantaneous voltage margin this epoch, percent
    /// (characterization margin minus the deepest droop; negative
    /// means the margin was crossed).
    pub min_margin_pct: f64,
    /// Cycle-weighted mean voltage margin this epoch, percent.
    pub mean_margin_pct: f64,
    /// Jobs waiting in the admission queue after placement.
    pub queue_depth: usize,
    /// Jobs resident on cores at the end of the epoch.
    pub running_jobs: usize,
}

/// Windowed health signals derived from the last `epochs` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Virtual clock at the newest sample in the window, cycles.
    pub end_cycle: u64,
    /// Samples currently in the window.
    pub epochs: usize,
    /// Chip cycles covered by the window.
    pub cycles: u64,
    /// Droop emergencies in the window.
    pub droops: u64,
    /// Windowed droop rate, events per 1 000 chip cycles.
    pub droop_rate_per_kilocycle: f64,
    /// Cycle-weighted mean voltage margin over the window, percent.
    pub mean_margin_pct: f64,
    /// Worst voltage margin over the window, percent.
    pub min_margin_pct: f64,
    /// Fraction of window cycles spent in droop recovery (throttled),
    /// assuming the configured per-droop recovery cost; capped at 1.
    pub throttle_fraction: f64,
    /// Mean admission-queue depth over the window.
    pub mean_queue_depth: f64,
}

impl Default for WindowSnapshot {
    fn default() -> Self {
        Self {
            end_cycle: 0,
            epochs: 0,
            cycles: 0,
            droops: 0,
            droop_rate_per_kilocycle: 0.0,
            mean_margin_pct: 0.0,
            min_margin_pct: 0.0,
            throttle_fraction: 0.0,
            mean_queue_depth: 0.0,
        }
    }
}

impl WindowSnapshot {
    /// Recovery overhead as percent of window cycles — the signal the
    /// `droop_recovery_overhead_pct` SLO budget is written against.
    pub fn recovery_overhead_pct(&self) -> f64 {
        100.0 * self.throttle_fraction
    }
}

/// A fixed-capacity ring of [`EpochSample`]s with incrementally
/// maintained sums. Pushing into a full window evicts the oldest
/// sample; no allocation happens after construction.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    ring: Vec<EpochSample>,
    capacity: usize,
    /// Index the next push writes to (ring is full once `len ==
    /// capacity`).
    head: usize,
    len: usize,
    cycles: u64,
    droops: u64,
    /// Sum of `mean_margin_pct * cycles` (cycle-weighted mean margin).
    margin_weight: f64,
    queue_sum: u64,
}

impl SlidingWindow {
    /// A window over the last `capacity` epochs (`capacity` clamped to
    /// at least 1). The ring is fully allocated here.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            cycles: 0,
            droops: 0,
            margin_weight: 0.0,
            queue_sum: 0,
        }
    }

    /// The configured capacity, in epochs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window has no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes one sample, evicting the oldest if the window is full.
    pub fn push(&mut self, sample: EpochSample) {
        if self.len == self.capacity {
            let old = self.ring[self.head];
            self.cycles -= old.cycles;
            self.droops -= old.droops;
            self.margin_weight -= old.mean_margin_pct * old.cycles as f64;
            self.queue_sum -= old.queue_depth as u64;
            self.ring[self.head] = sample;
        } else {
            self.ring.push(sample);
            self.len += 1;
        }
        self.head = (self.head + 1) % self.capacity;
        self.cycles += sample.cycles;
        self.droops += sample.droops;
        self.margin_weight += sample.mean_margin_pct * sample.cycles as f64;
        self.queue_sum += sample.queue_depth as u64;
    }

    /// The windowed signals right now. `recovery_cost_cycles` is the
    /// assumed per-droop recovery penalty behind `throttle_fraction`.
    ///
    /// Sums are maintained incrementally; only the window minimum and
    /// the newest timestamp rescan the ring (at most `capacity`
    /// entries).
    pub fn snapshot(&self, recovery_cost_cycles: u64) -> WindowSnapshot {
        if self.len == 0 {
            return WindowSnapshot::default();
        }
        let samples = &self.ring[..self.len];
        let min_margin_pct = samples
            .iter()
            .map(|s| s.min_margin_pct)
            .fold(f64::INFINITY, f64::min);
        let end_cycle = samples.iter().map(|s| s.end_cycle).max().unwrap_or(0);
        let cycles = self.cycles;
        let droop_rate = if cycles == 0 {
            0.0
        } else {
            self.droops as f64 * 1000.0 / cycles as f64
        };
        let throttle = if cycles == 0 {
            0.0
        } else {
            ((self.droops * recovery_cost_cycles) as f64 / cycles as f64).min(1.0)
        };
        WindowSnapshot {
            end_cycle,
            epochs: self.len,
            cycles,
            droops: self.droops,
            droop_rate_per_kilocycle: droop_rate,
            mean_margin_pct: if cycles == 0 {
                0.0
            } else {
                self.margin_weight / cycles as f64
            },
            min_margin_pct,
            throttle_fraction: throttle,
            mean_queue_depth: self.queue_sum as f64 / self.len as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_cycle: u64, cycles: u64, droops: u64, margin: f64, queue: usize) -> EpochSample {
        EpochSample {
            end_cycle,
            cycles,
            droops,
            min_margin_pct: margin,
            mean_margin_pct: margin + 1.0,
            queue_depth: queue,
            running_jobs: 2,
        }
    }

    #[test]
    fn empty_window_snapshots_to_zeros() {
        let w = SlidingWindow::new(4);
        assert!(w.is_empty());
        let snap = w.snapshot(100);
        assert_eq!(snap, WindowSnapshot::default());
        assert_eq!(snap.recovery_overhead_pct(), 0.0);
    }

    #[test]
    fn sums_and_rates_cover_exactly_the_window() {
        let mut w = SlidingWindow::new(3);
        for (i, droops) in [1u64, 2, 3, 4].iter().enumerate() {
            w.push(sample((i as u64 + 1) * 1_000, 1_000, *droops, 1.0, i));
        }
        // Capacity 3: the first sample (1 droop) was evicted.
        let snap = w.snapshot(10);
        assert_eq!(snap.epochs, 3);
        assert_eq!(snap.cycles, 3_000);
        assert_eq!(snap.droops, 2 + 3 + 4);
        assert_eq!(snap.end_cycle, 4_000);
        assert!((snap.droop_rate_per_kilocycle - 3.0).abs() < 1e-12);
        // 9 droops * 10 cycles / 3000 cycles.
        assert!((snap.throttle_fraction - 0.03).abs() < 1e-12);
        assert!((snap.mean_queue_depth - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_margin_tracks_the_window_not_history() {
        let mut w = SlidingWindow::new(2);
        w.push(sample(1_000, 500, 0, -2.0, 0));
        w.push(sample(2_000, 500, 0, 1.0, 0));
        assert_eq!(w.snapshot(0).min_margin_pct, -2.0);
        w.push(sample(3_000, 500, 0, 0.5, 0));
        // The -2.0 sample has been evicted.
        assert_eq!(w.snapshot(0).min_margin_pct, 0.5);
    }

    #[test]
    fn throttle_fraction_is_capped_at_one() {
        let mut w = SlidingWindow::new(2);
        w.push(sample(1_000, 100, 50, 0.0, 0));
        let snap = w.snapshot(1_000_000);
        assert_eq!(snap.throttle_fraction, 1.0);
        assert_eq!(snap.recovery_overhead_pct(), 100.0);
    }

    #[test]
    fn ring_never_reallocates_after_construction() {
        let mut w = SlidingWindow::new(8);
        let before = w.ring.capacity();
        for i in 0..100 {
            w.push(sample(i, 10, 0, 1.0, 0));
        }
        assert_eq!(w.ring.capacity(), before);
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn mean_margin_is_cycle_weighted() {
        let mut w = SlidingWindow::new(4);
        // 1000 cycles at margin 2.0 (mean 3.0), 3000 cycles at margin
        // 0.0 (mean 1.0): weighted mean = (3.0*1000 + 1.0*3000)/4000.
        w.push(sample(1_000, 1_000, 0, 2.0, 0));
        w.push(sample(2_000, 3_000, 0, 0.0, 0));
        let snap = w.snapshot(0);
        assert!((snap.mean_margin_pct - 1.5).abs() < 1e-12);
    }
}

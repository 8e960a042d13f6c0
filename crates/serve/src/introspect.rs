//! Runtime introspection counters for the shard pool.
//!
//! [`RuntimeStats`] is the shared atomic scoreboard every layer of the
//! sharded runtime feeds: shards count the slices they run and the
//! logs they have sent that the pump has not yet received (whose
//! high-water mark is the lane occupancy), the coordinator counts the
//! slices it runs itself while it waits on the shards, the pump counts
//! receipts, the decision loop counts grants and (when obs is armed)
//! its own wall-clock latency, and the pool records each chip's
//! command-queue depth high-water mark. A pool with no workers (the
//! in-line coordinator) credits every slice to the coordinator and
//! publishes no section.
//!
//! Everything here is **live execution state** — which shard ran which
//! slice, how deep a queue got, how long a decision took — and is
//! therefore published *only* through the per-shard obs snapshot
//! section ([`ObsSnapshot::shards`](vsmooth_obs::ObsSnapshot)), never
//! through the determinism-pinned run registry. The one deterministic
//! fact it carries — total slices executed, by the shards and the
//! coordinator together — reconciles exactly with `serve_slices_total`
//! (asserted in `tests/shard_stress.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use vsmooth_obs::{LatencyStats, ShardStatus, ShardsStatus};

/// Per-executor execution counters.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Slices the executor ran.
    pub slices: AtomicU64,
    /// Slice logs the executor has made that the pump has not received.
    pub in_flight: AtomicU64,
    /// High-water mark of `in_flight`: the shard's lane occupancy.
    pub lane_hwm: AtomicU64,
}

/// The shared introspection scoreboard of one service run.
#[derive(Debug)]
pub(crate) struct RuntimeStats {
    /// One counter block per executor: the shards in shard order, then
    /// the coordinator, executor `shards` (executor 0 of a pool with no
    /// workers).
    pub executors: Vec<ShardCounters>,
    /// Per-chip command-queue depth high-water marks.
    pub cell_queue_hwm: Vec<AtomicU64>,
    /// Quantum grants issued by the decision loop.
    pub grants: AtomicU64,
    /// Epochs the decision loop has finished deciding.
    pub epochs_decided: AtomicU64,
    /// Decision-loop latency samples (wall microseconds; recorded
    /// only when obs publishing is armed, so wall time never leaks
    /// into unobserved runs).
    pub decision_count: AtomicU64,
    pub decision_total_us: AtomicU64,
    pub decision_max_us: AtomicU64,
}

impl RuntimeStats {
    pub(crate) fn new(shards: usize, chips: usize) -> Self {
        Self {
            executors: (0..=shards).map(|_| ShardCounters::default()).collect(),
            cell_queue_hwm: (0..chips).map(|_| AtomicU64::new(0)).collect(),
            grants: AtomicU64::new(0),
            epochs_decided: AtomicU64::new(0),
            decision_count: AtomicU64::new(0),
            decision_total_us: AtomicU64::new(0),
            decision_max_us: AtomicU64::new(0),
        }
    }

    /// Credits one executed slice to executor `me` and counts its log
    /// in flight until the pump receives it.
    pub(crate) fn record_slice(&self, me: usize) {
        let counters = &self.executors[me];
        counters.slices.fetch_add(1, Ordering::Relaxed);
        let in_flight = counters.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        counters.lane_hwm.fetch_max(in_flight, Ordering::Relaxed);
    }

    /// The pump received one of executor `me`'s slice logs.
    pub(crate) fn record_receipt(&self, me: usize) {
        self.executors[me].in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one decision-loop latency sample, in microseconds.
    pub(crate) fn record_decision_latency(&self, micros: u64) {
        self.decision_count.fetch_add(1, Ordering::Relaxed);
        self.decision_total_us.fetch_add(micros, Ordering::Relaxed);
        self.decision_max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// Total slices executed across every executor.
    pub(crate) fn slices_total(&self) -> u64 {
        self.executors
            .iter()
            .map(|counters| counters.slices.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshots the scoreboard into the published obs section: one
    /// entry per shard, and the coordinator's slices as a tally of
    /// their own. `epochs_merged` comes from the merge layer (lag =
    /// decided − merged).
    pub(crate) fn status(&self, epochs_merged: u64) -> ShardsStatus {
        let (coordinator, shards) = self
            .executors
            .split_last()
            .expect("the coordinator's counter block");
        let shards = shards
            .iter()
            .enumerate()
            .map(|(i, counters)| ShardStatus {
                shard: i,
                slices: counters.slices.load(Ordering::Relaxed),
                lane_occupancy_hwm: counters.lane_hwm.load(Ordering::Relaxed),
                stream_dropped: 0,
            })
            .collect();
        let epochs_decided = self.epochs_decided.load(Ordering::Relaxed);
        ShardsStatus {
            shards,
            coordinator_slices: coordinator.slices.load(Ordering::Relaxed),
            cell_queue_hwm: self
                .cell_queue_hwm
                .iter()
                .map(|hwm| hwm.load(Ordering::Relaxed))
                .collect(),
            grants: self.grants.load(Ordering::Relaxed),
            epochs_decided,
            merge_lag_epochs: epochs_decided.saturating_sub(epochs_merged),
            decision_latency: LatencyStats {
                count: self.decision_count.load(Ordering::Relaxed),
                total_us: self.decision_total_us.load(Ordering::Relaxed),
                max_us: self.decision_max_us.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_reconcile_across_executors() {
        let stats = RuntimeStats::new(2, 3);
        stats.record_slice(0);
        stats.record_slice(0);
        stats.record_slice(1);
        stats.record_receipt(0);
        stats.record_slice(0);
        // Executor 2 is the coordinator.
        stats.record_slice(2);
        assert_eq!(stats.slices_total(), 5);
        let status = stats.status(0);
        assert_eq!(status.shards.len(), 2, "one entry per shard");
        assert_eq!(status.shards[0].slices, 3);
        assert_eq!(status.shards[1].slices, 1);
        assert_eq!(status.coordinator_slices, 1);
        // Two of shard 0's logs were in flight at once, never three.
        assert_eq!(status.shards[0].lane_occupancy_hwm, 2);
        assert_eq!(status.shards[1].lane_occupancy_hwm, 1);
        assert_eq!(status.cell_queue_hwm, vec![0, 0, 0]);
    }

    #[test]
    fn latency_and_lag_summaries() {
        let stats = RuntimeStats::new(1, 1);
        stats.record_decision_latency(10);
        stats.record_decision_latency(30);
        stats.epochs_decided.store(8, Ordering::Relaxed);
        let status = stats.status(5);
        assert_eq!(status.merge_lag_epochs, 3);
        assert_eq!(status.decision_latency.count, 2);
        assert_eq!(status.decision_latency.total_us, 40);
        assert_eq!(status.decision_latency.max_us, 30);
        assert_eq!(status.decision_latency.mean_us(), 20.0);
    }
}

//! Runtime introspection counters for the shard pool.
//!
//! Each counter lives beside state its writers already share, so none
//! needs synchronisation of its own. Each executor's
//! [`ExecutorCounters`] sit in the pool state, under the pool lock: the
//! release that files a slice's log counts the slice and the log, and
//! the coordinator's collection empties every executor's lane (its logs
//! filed and not yet collected, whose high-water mark is the lane
//! occupancy). Each chip's command-queue depth high-water mark sits in
//! its slot there too. The decision loop's [`DecisionCounters`] —
//! grants, epochs decided and (when obs is armed) its own wall-clock
//! latency — are a plain field of the pool, which only the
//! coordinator's thread touches. A pool with no workers (the in-line
//! coordinator) credits every slice to the coordinator and publishes no
//! section.
//!
//! Everything here is **live execution state** — which shard ran which
//! slice, how deep a queue got, how long a decision took — and is
//! therefore published *only* through the per-shard obs snapshot
//! section ([`ObsSnapshot::shards`](vsmooth_obs::ObsSnapshot)), never
//! through the determinism-pinned run registry. The one deterministic
//! fact it carries — total slices executed, by the shards and the
//! coordinator together — reconciles exactly with `serve_slices_total`
//! (asserted in `tests/shard_stress.rs`).

use vsmooth_obs::{LatencyStats, ShardStatus, ShardsStatus};

/// One executor's counters, kept in the pool state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecutorCounters {
    /// Slices the executor ran.
    pub slices: u64,
    /// The executor's slice logs filed and not yet collected.
    pub filed: u64,
    /// High-water mark of `filed`: the executor's lane occupancy.
    pub lane_hwm: u64,
}

impl ExecutorCounters {
    /// Counts one slice run and its log filed.
    pub(crate) fn record_filed(&mut self) {
        self.slices += 1;
        self.filed += 1;
        self.lane_hwm = self.lane_hwm.max(self.filed);
    }
}

/// The decision loop's counters.
#[derive(Debug, Default)]
pub(crate) struct DecisionCounters {
    /// Quantum grants issued.
    pub grants: u64,
    /// Epochs the decision loop has finished deciding.
    pub epochs_decided: u64,
    /// Decision-loop latency samples (wall microseconds; recorded only
    /// when obs publishing is armed, so wall time never leaks into
    /// unobserved runs).
    pub latency: LatencyStats,
}

impl DecisionCounters {
    /// Records one decision-loop latency sample, in microseconds.
    pub(crate) fn record_latency(&mut self, micros: u64) {
        self.latency.count += 1;
        self.latency.total_us += micros;
        self.latency.max_us = self.latency.max_us.max(micros);
    }

    /// Assembles the published section: one entry per shard from
    /// `executors`, whose last block, the coordinator's, is a tally of
    /// its own, each chip's `cell_queue_hwm`, and the lag behind
    /// `epochs_merged`, which comes from the merge layer (lag = decided
    /// − merged).
    pub(crate) fn status(
        &self,
        executors: &[ExecutorCounters],
        cell_queue_hwm: Vec<u64>,
        epochs_merged: u64,
    ) -> ShardsStatus {
        let (coordinator, shards) = executors
            .split_last()
            .expect("the coordinator's counter block");
        let shards = shards
            .iter()
            .enumerate()
            .map(|(shard, counters)| ShardStatus {
                shard,
                slices: counters.slices,
                lane_occupancy_hwm: counters.lane_hwm,
                stream_dropped: 0,
            })
            .collect();
        ShardsStatus {
            shards,
            coordinator_slices: coordinator.slices,
            cell_queue_hwm,
            grants: self.grants,
            epochs_decided: self.epochs_decided,
            merge_lag_epochs: self.epochs_decided.saturating_sub(epochs_merged),
            decision_latency: self.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_reconcile_across_executors() {
        let mut executors = [ExecutorCounters::default(); 3];
        executors[0].record_filed();
        executors[0].record_filed();
        executors[1].record_filed();
        // A collection empties every lane.
        for counters in &mut executors {
            counters.filed = 0;
        }
        executors[0].record_filed();
        // Executor 2 is the coordinator.
        executors[2].record_filed();
        let status = DecisionCounters::default().status(&executors, vec![0, 0, 0], 0);
        assert_eq!(status.shards.len(), 2, "one entry per shard");
        assert_eq!(status.shards[0].slices, 3);
        assert_eq!(status.shards[1].slices, 1);
        assert_eq!(status.coordinator_slices, 1);
        // Two of shard 0's logs were filed at once, never three.
        assert_eq!(status.shards[0].lane_occupancy_hwm, 2);
        assert_eq!(status.shards[1].lane_occupancy_hwm, 1);
        assert_eq!(status.cell_queue_hwm, vec![0, 0, 0]);
    }

    #[test]
    fn latency_and_lag_summaries() {
        let mut decisions = DecisionCounters {
            epochs_decided: 8,
            ..DecisionCounters::default()
        };
        decisions.record_latency(10);
        decisions.record_latency(30);
        let status = decisions.status(&[ExecutorCounters::default(); 2], vec![0], 5);
        assert_eq!(status.merge_lag_epochs, 3);
        assert_eq!(status.decision_latency.count, 2);
        assert_eq!(status.decision_latency.total_us, 40);
        assert_eq!(status.decision_latency.max_us, 30);
        assert_eq!(status.decision_latency.mean_us(), 20.0);
    }
}

//! The [`TelemetryHub`]: the lock-light snapshot exchange between the
//! service coordinator and the scrape server.
//!
//! The coordinator is the only writer: once per publish interval it
//! assembles an immutable [`ObsSnapshot`] and swaps it in with
//! [`TelemetryHub::publish`]. Scrape threads call
//! [`TelemetryHub::latest`] and get an `Arc` clone of whatever
//! snapshot is current. The exchange slot is a `Mutex<Arc<_>>`, but
//! the critical section on either side is a single pointer
//! swap/clone — never a render, a serialization, or an allocation
//! proportional to the snapshot — so a slow or stuck scraper cannot
//! stall the epoch loop (see DESIGN.md §14 for the protocol).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vsmooth_monitor::HealthStatus;
use vsmooth_stats::MetricsSnapshot;
use vsmooth_trace::{BatchRing, DecisionEvent, DroopBatch};

/// Live scheduling-service state published alongside the metrics
/// snapshot, rendered by the `/status` endpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStatus {
    /// Epochs completed so far.
    pub epoch: u64,
    /// Virtual chip cycles elapsed.
    pub virtual_cycles: u64,
    /// Jobs waiting in the admission queue.
    pub queue_depth: usize,
    /// Jobs currently placed on chips.
    pub running_jobs: usize,
    /// Jobs in the submitted stream.
    pub jobs_submitted: usize,
    /// Jobs admitted from the stream so far.
    pub jobs_admitted: u64,
    /// Jobs that ran to completion so far.
    pub jobs_completed: u64,
    /// Droop emergencies observed so far.
    pub droops: u64,
    /// True once the run has finished and this is the final snapshot.
    pub done: bool,
}

/// Summary of decision-loop latency samples (wall microseconds —
/// live observation only, never part of any deterministic artifact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in microseconds.
    pub total_us: u64,
    /// Largest sample, in microseconds.
    pub max_us: u64,
}

impl LatencyStats {
    /// Mean latency in microseconds (0 before any sample).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// One shard's live execution counters, published in the `/shards`
/// snapshot section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Slices this shard ran.
    pub slices: u64,
    /// High-water mark of the shard's lane occupancy: its slice logs
    /// filed but not yet collected by the coordinator.
    pub lane_occupancy_hwm: u64,
    /// Always zero: shards build no trace records, so they drop none.
    /// Kept only because the `perfbench` harness reads it.
    pub stream_dropped: u64,
}

/// Live runtime introspection of the shard-per-worker runtime, behind
/// the `/shards` endpoint. This whole section is execution state —
/// which executor ran how many slices, how deep queues got, how long
/// decisions took — and is the documented determinism exception: it
/// appears only in published snapshots, never in the run's registry or
/// report. The one pinned reconciliation: the sum of every shard's
/// `slices`, plus `coordinator_slices`, equals `serve_slices_total`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardsStatus {
    /// Per-shard counters, in shard order: one entry per shard worker
    /// thread.
    pub shards: Vec<ShardStatus>,
    /// Slices the coordinator executed itself, running queued slices
    /// while it waited on the shards.
    pub coordinator_slices: u64,
    /// Per-chip command-queue depth high-water marks, in chip order.
    pub cell_queue_hwm: Vec<u64>,
    /// Quantum grants issued by the decision loop.
    pub grants: u64,
    /// Epochs the decision loop has finished deciding.
    pub epochs_decided: u64,
    /// Epochs decided but not yet merged (merge-buffer lag).
    pub merge_lag_epochs: u64,
    /// Decision-loop wall latency summary.
    pub decision_latency: LatencyStats,
}

/// One immutable observation of a running system: everything the
/// scrape endpoints render, assembled coordinator-side.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Metrics registry snapshot behind `/metrics`.
    pub metrics: MetricsSnapshot,
    /// Live monitor health behind `/healthz` (absent on unmonitored
    /// runs, which therefore never report unhealthy).
    pub health: Option<HealthStatus>,
    /// Scheduling-service counters behind `/status`.
    pub service: Option<ServiceStatus>,
    /// The most recent droop crossings behind `/trace/recent`, oldest
    /// first. This ring is an independent coordinator-side copy; the
    /// streaming tracer's own ring is never drained on its behalf. It
    /// holds per-slice batches shared with the publisher's ring (and
    /// the monitor's flight recorder), so a publish costs a refcount
    /// bump per batch, not per crossing.
    pub recent_droops: BatchRing<DroopBatch>,
    /// Latest `vsmooth-profile-v1` JSON behind `/profile`.
    pub profile_json: Option<Arc<String>>,
    /// Live shard-runtime introspection behind `/shards` (absent on
    /// in-line coordinator runs).
    pub shards: Option<ShardsStatus>,
    /// The decision audit ring behind `/decisions`, oldest first, as
    /// per-epoch batches shared with the audit log. Folded merge-side
    /// in `(epoch, chip)` order, so — unlike `shards` — this section is
    /// deterministic at any shard count.
    pub decisions: BatchRing<Vec<DecisionEvent>>,
}

/// The snapshot exchange. One writer (the coordinator) swaps in
/// `Arc<ObsSnapshot>`s; any number of readers clone the current one.
///
/// # Examples
///
/// ```
/// use vsmooth_obs::{ObsSnapshot, TelemetryHub};
///
/// let hub = TelemetryHub::new();
/// assert!(!hub.ready());
/// hub.publish(ObsSnapshot::default());
/// assert!(hub.ready());
/// assert_eq!(hub.publishes(), 1);
/// let snap = hub.latest();
/// assert!(snap.health.is_none());
/// ```
#[derive(Debug)]
pub struct TelemetryHub {
    /// The exchange slot. Held only for a pointer swap (publish) or a
    /// refcount bump (latest), so neither side can block the other
    /// for longer than that.
    slot: Mutex<Arc<ObsSnapshot>>,
    publishes: AtomicU64,
    /// Milliseconds from `created` to the most recent publish
    /// (`u64::MAX` until the first one).
    last_publish_ms: AtomicU64,
    created: Instant,
}

impl TelemetryHub {
    /// An empty hub; `latest()` returns a default snapshot until the
    /// first publish and [`TelemetryHub::ready`] reports false.
    pub fn new() -> Self {
        Self {
            slot: Mutex::new(Arc::new(ObsSnapshot::default())),
            publishes: AtomicU64::new(0),
            last_publish_ms: AtomicU64::new(u64::MAX),
            created: Instant::now(),
        }
    }

    /// Publishes a new snapshot: one allocation, one pointer swap.
    /// The previous snapshot stays alive until its last reader drops
    /// it, so readers never observe a torn or partially updated view.
    /// When the hub held the last reference, the replaced snapshot is
    /// freed after the slot lock is released, so a concurrent
    /// [`latest`](Self::latest) never waits on that deallocation.
    pub fn publish(&self, snapshot: ObsSnapshot) {
        let fresh = Arc::new(snapshot);
        // The guard is a temporary of this statement, so the lock is
        // released before the replaced snapshot is dropped below.
        let replaced = std::mem::replace(&mut *self.slot.lock().expect("hub slot"), fresh);
        drop(replaced);
        self.last_publish_ms.store(
            self.created.elapsed().as_millis().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// The current snapshot (an `Arc` clone; never blocks a writer
    /// beyond the pointer swap).
    pub fn latest(&self) -> Arc<ObsSnapshot> {
        Arc::clone(&self.slot.lock().expect("hub slot"))
    }

    /// Snapshots published so far.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// True once at least one snapshot has been published — the
    /// `/readyz` condition.
    pub fn ready(&self) -> bool {
        self.publishes() > 0
    }

    /// Milliseconds since the most recent publish (`None` before the
    /// first one) — the snapshot staleness gauge.
    pub(crate) fn staleness_ms(&self) -> Option<u64> {
        let at = self.last_publish_ms.load(Ordering::Relaxed);
        if at == u64::MAX {
            return None;
        }
        let now = self.created.elapsed().as_millis().min(u64::MAX as u128) as u64;
        Some(now.saturating_sub(at))
    }

    /// Milliseconds since the hub was created — the uptime field in
    /// `/status`.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.created.elapsed().as_millis().min(u64::MAX as u128) as u64
    }
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

/// Coordinator-side hook called with each snapshot right after it is
/// published — see [`ObsConfig::on_publish`].
pub(crate) type PublishHook = Arc<dyn Fn(&ObsSnapshot) + Send + Sync>;

/// How a service run publishes into a [`TelemetryHub`]. Stored as
/// `ServiceConfig::obs`; when absent the run carries zero obs cost.
#[derive(Clone)]
pub struct ObsConfig {
    /// The hub to publish into — usually `ObsServer::hub()`.
    pub hub: Arc<TelemetryHub>,
    /// Publish one snapshot every this many epochs (0 acts as 1).
    /// Raising it amortizes the per-publish metrics-snapshot clone on
    /// hot runs; 1 keeps scrapes at most one epoch stale.
    pub publish_every: u64,
    /// Capacity of the coordinator-side recent-droop ring behind
    /// `/trace/recent`.
    pub recent_droops: usize,
    /// Called after every publish with the snapshot just published —
    /// the deterministic hook integration tests scrape from, instead
    /// of racing wall-clock against the epoch loop.
    pub on_publish: Option<PublishHook>,
}

impl ObsConfig {
    /// Publishing every epoch into `hub`, 256-droop ring.
    pub fn new(hub: Arc<TelemetryHub>) -> Self {
        Self {
            hub,
            publish_every: 1,
            recent_droops: 256,
            on_publish: None,
        }
    }
}

impl std::fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsConfig")
            .field("publish_every", &self.publish_every)
            .field("recent_droops", &self.recent_droops)
            .field("on_publish", &self.on_publish.as_ref().map(|_| "Fn"))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_swaps_the_visible_snapshot() {
        let hub = TelemetryHub::new();
        assert!(!hub.ready());
        assert_eq!(hub.staleness_ms(), None);
        assert!(hub.latest().service.is_none());

        hub.publish(ObsSnapshot {
            service: Some(ServiceStatus {
                epoch: 3,
                ..ServiceStatus::default()
            }),
            ..ObsSnapshot::default()
        });
        assert!(hub.ready());
        assert_eq!(hub.publishes(), 1);
        assert_eq!(hub.latest().service.as_ref().unwrap().epoch, 3);
        assert!(hub.staleness_ms().is_some());
    }

    #[test]
    fn readers_keep_their_snapshot_across_publishes() {
        let hub = TelemetryHub::new();
        hub.publish(ObsSnapshot {
            service: Some(ServiceStatus {
                epoch: 1,
                ..ServiceStatus::default()
            }),
            ..ObsSnapshot::default()
        });
        let held = hub.latest();

        hub.publish(ObsSnapshot {
            service: Some(ServiceStatus {
                epoch: 2,
                ..ServiceStatus::default()
            }),
            ..ObsSnapshot::default()
        });

        // The old Arc is immutable and still valid; new readers see
        // the new snapshot.
        assert_eq!(held.service.as_ref().unwrap().epoch, 1);
        assert_eq!(hub.latest().service.as_ref().unwrap().epoch, 2);
        assert_eq!(hub.publishes(), 2);
    }

    #[test]
    fn concurrent_scrapes_and_publishes_do_not_tear() {
        let hub = Arc::new(TelemetryHub::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let hub = Arc::clone(&hub);
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        let snap = hub.latest();
                        if let Some(s) = &snap.service {
                            // Epoch and cycle move together in every
                            // published snapshot below.
                            assert_eq!(s.virtual_cycles, s.epoch * 100);
                        }
                    }
                });
            }
            for epoch in 1..=2_000u64 {
                hub.publish(ObsSnapshot {
                    service: Some(ServiceStatus {
                        epoch,
                        virtual_cycles: epoch * 100,
                        ..ServiceStatus::default()
                    }),
                    ..ObsSnapshot::default()
                });
            }
        });
        assert_eq!(hub.publishes(), 2_000);
    }
}

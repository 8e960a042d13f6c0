//! Control plane of the sharded service runtime: the typed records
//! the coordinator's decision loop emits, the commands it queues at
//! chip cells, and the slice logs executors file back under the pool
//! lock.
//!
//! The decision loop never touches an artifact. It only *decides* —
//! admissions, placements, grants, analytic completions — and records
//! each epoch as an `EpochRec`, the epoch script's one entry per epoch.
//! Every observable side effect, the decision audit included, is
//! derived later by the merge layer (`crate::merge`) replaying those
//! records against the per-chip `SliceLog`s, in exactly the order the
//! historical single-coordinator loop produced them. Byte-identity of
//! every artifact therefore holds by construction, regardless of which
//! shard executed which slice when.
//!
//! The one piece of merge state the loop reads is the telemetry book
//! placement scores against. The merge folds each finished epoch into
//! the book on its own, ahead of that epoch's replay, so the loop can
//! place and grant the next epoch first and leave the rest of the
//! replay to overlap the shards' next slice. Each `CoreSlice`
//! carries its job's workload for that fold.

use std::sync::Arc;

use crate::job::JobSpec;
use vsmooth_chip::{DroopCrossing, DroopWindow, SliceStats};
use vsmooth_workload::EventStream;

/// How [`Service::run`](crate::Service::run) maps its `workers`
/// argument onto the shard pool's worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeMode {
    /// `workers <= 1` runs the in-line coordinator, `workers >= 2`
    /// runs one long-lived shard per worker. The default.
    #[default]
    Auto,
    /// Always the in-line coordinator, whatever `workers` says: a pool
    /// with no worker threads, whose every grant drains the chip cells
    /// on the calling thread through the reference cycle loop. This is
    /// the reference implementation the shard runtime is
    /// differentially tested against.
    Coordinator,
    /// Always one shard per worker, even for `workers == 1`. The
    /// calling thread, which runs the decision loop and the merge,
    /// also runs queued slices whenever it would otherwise wait on the
    /// shards, so one worker runs the kernel on two threads.
    Sharded,
}

/// One job placement decided in an epoch, in decision order.
#[derive(Debug, Clone)]
pub(crate) struct PlaceRec {
    pub spec: JobSpec,
    pub chip: usize,
    pub core: usize,
    /// Which placement pass chose it: `pair_resident`, `best_pair` or
    /// `solo` (the audit's reason code).
    pub reason: &'static str,
}

/// One core's resident job during an epoch's slice, plus whether the
/// decision loop's analytic completion check says this slice is the
/// job's last (streams advance one cycle per cycle and never loop, so
/// `executed >= total_cycles` is exactly `EventStream::is_finished`).
#[derive(Debug, Clone)]
pub(crate) struct CoreSlice {
    pub job: u64,
    /// The job's workload, resolved once per job: the telemetry-book
    /// key its slice folds into, and the label of its slice span and
    /// droop events.
    pub workload: Arc<str>,
    pub finishes: bool,
}

/// One busy chip's occupancy for one epoch, in core order.
#[derive(Debug, Clone)]
pub(crate) struct BusyChip {
    pub chip: usize,
    pub cores: [Option<CoreSlice>; 2],
}

/// Everything the decision loop decided in one epoch — the script
/// entry the merge layer replays, and the only record of the epoch's
/// decisions: the audit, queue depth and resident count are all
/// derived from it. `index` is the zero-based epoch number and `now`
/// the virtual clock at the epoch's start.
#[derive(Debug, Clone)]
pub(crate) struct EpochRec {
    pub index: u64,
    pub now: u64,
    /// Jobs admitted this epoch, in admission order.
    pub admits: Vec<JobSpec>,
    /// Set when an admission overflowed the bounded queue: the
    /// configured capacity and the overflowing job. The record then
    /// carries only the admissions that preceded the overflow, and the
    /// run ends with [`ServeError::QueueOverflow`](crate::ServeError).
    pub overflow: Option<(usize, u64)>,
    /// Placements decided this epoch, in placement-pass order.
    pub places: Vec<PlaceRec>,
    /// Chips that run a slice this epoch, in chip-index order.
    pub busy: Vec<BusyChip>,
}

impl EpochRec {
    pub(crate) fn new(index: u64, now: u64) -> Self {
        Self {
            index,
            now,
            admits: Vec::new(),
            overflow: None,
            places: Vec::new(),
            busy: Vec::new(),
        }
    }
}

/// A job as a chip cell holds it: its id and instance-seeded event
/// stream.
#[derive(Debug)]
pub(crate) struct CellJob {
    pub id: u64,
    pub stream: EventStream,
}

/// A command queued at a chip. The executor that claims the chip pops
/// its commands in FIFO order, each claim through the chip's next
/// grant. FIFO order is what lets any executor run any chip: whichever
/// executor claims a chip replays the cell's history exactly as any
/// other would have.
#[derive(Debug)]
pub(crate) enum CellCmd {
    /// Install `job` on `core` (the decision loop only targets cores
    /// its shadow occupancy knows are free). Boxed, so the far more
    /// frequent grants do not each occupy a job's worth of queue.
    AddJob { core: usize, job: Box<CellJob> },
    /// Advance the chip one scheduling quantum for epoch `epoch`.
    Grant { epoch: u64 },
}

/// Everything one executed slice produced. `(epoch, chip)` is the key
/// the merge layer orders by; `shard` names the executor that ran it,
/// which only the live introspection counters read.
#[derive(Debug)]
pub(crate) struct SliceLog {
    pub shard: usize,
    pub epoch: u64,
    pub chip: usize,
    /// Session clock at the start of the slice.
    pub session_start: u64,
    pub stats: SliceStats,
    pub crossings: Vec<DroopCrossing>,
    pub windows: Vec<DroopWindow>,
    pub invariant_violations: usize,
    /// Per-core job ids whose stream finished on this slice, as the
    /// *executor* observed it — cross-checked in debug builds against
    /// the decision loop's analytic completion prediction.
    pub finished: [Option<u64>; 2],
}

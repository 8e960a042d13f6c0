//! Control plane of the sharded service runtime: the typed records
//! the coordinator's decision loop emits, the commands it sends to
//! chip cells, the messages shards send back over the pool's one
//! channel, and the run queue every executor pops chips from.
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

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::job::JobSpec;
use vsmooth_chip::{ChipError, DroopCrossing, DroopWindow, SliceStats};
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

/// A command queued at a chip cell. The queue has a lock of its own,
/// held for one push or pop; the executor holding the cell's execution
/// lock pops the commands in FIFO order, each step through the chip's
/// next grant. FIFO order is what lets any executor run any chip:
/// whichever executor pops a chip replays the cell's history exactly as
/// any other would have.
#[derive(Debug)]
pub(crate) enum CellCmd {
    /// Install `job` on `core` (the decision loop only targets cores
    /// its shadow occupancy knows are free). Boxed, so the far more
    /// frequent grants do not each occupy a job's worth of queue.
    AddJob { core: usize, job: Box<CellJob> },
    /// Advance the chip one scheduling quantum for epoch `epoch`.
    Grant { epoch: u64 },
}

/// Everything one executed slice produced, tagged `(shard, epoch,
/// seq)`: `shard`/`seq` give the per-executor total order (each
/// shard's sends arrive in the order it made them), while `(epoch,
/// chip)` is the executor-independent key the merge layer actually
/// orders by.
#[derive(Debug)]
pub(crate) struct SliceLog {
    pub shard: usize,
    pub seq: u64,
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

/// One message from an executor to the coordinator.
#[derive(Debug)]
pub(crate) enum ShardEvent {
    Slice(SliceLog),
    /// Chip simulation failed; the run aborts with
    /// [`ServeError::Chip`](crate::ServeError).
    Failed {
        error: ChipError,
    },
    /// Shard `shard` is unwinding from a panic, sent on its way out;
    /// the run aborts with
    /// [`ServeError::ShardFailed`](crate::ServeError).
    Panicked {
        shard: usize,
    },
}

/// The pool's run queue: chips with a grant waiting, oldest first.
/// The pool's claim protocol keeps each chip on it at most once: a
/// grant queues its chip only if no executor has it scheduled, and the
/// executor that ran one of its slices re-queues it only if another
/// grant waits. Every executor pops from here; a chip's commands keep
/// their order in its cell queue, so whichever executor pops it runs
/// the right slice.
#[derive(Debug, Default)]
pub(crate) struct RunQueue {
    state: Mutex<RunState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct RunState {
    chips: VecDeque<usize>,
    /// Executors parked in a blocking [`RunQueue::pop`].
    parked: usize,
    shutdown: bool,
}

impl RunQueue {
    /// The queue's state. Nothing panics while holding its lock, so a
    /// poisoned one still holds whole entries.
    fn state(&self) -> MutexGuard<'_, RunState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `chips` in one critical section and wakes one parked
    /// executor per chip, no more than are parked.
    pub(crate) fn push(&self, chips: &[usize]) {
        let mut state = self.state();
        state.chips.extend(chips);
        let wakes = chips.len().min(state.parked);
        drop(state);
        for _ in 0..wakes {
            self.cv.notify_one();
        }
    }

    /// The oldest queued chip. With `block`, waits while the queue is
    /// empty and returns `None` only once it is shut down and drained;
    /// without, returns `None` whenever it is empty.
    pub(crate) fn pop(&self, block: bool) -> Option<usize> {
        let mut state = self.state();
        loop {
            if let Some(chip) = state.chips.pop_front() {
                return Some(chip);
            }
            if !block || state.shutdown {
                return None;
            }
            state.parked += 1;
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// Lets every executor drain what is queued and stop.
    pub(crate) fn shutdown(&self) {
        self.state().shutdown = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
impl RunQueue {
    /// The queued chips, oldest first.
    pub(crate) fn queued(&self) -> Vec<usize> {
        self.state().chips.iter().copied().collect()
    }

    /// Poisons the queue's lock, as a panic inside its critical
    /// section would.
    pub(crate) fn poison(&self) {
        let _ = std::panic::catch_unwind(|| {
            let _state = self.state.lock();
            panic!("poisoning the run queue");
        });
        assert!(self.state.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_run_queue_pops_the_oldest_chip_first() {
        let run = RunQueue::default();
        run.push(&[7, 9]);
        run.push(&[]);
        run.push(&[3]);
        let popped: Vec<_> = std::iter::from_fn(|| run.pop(false)).collect();
        assert_eq!(popped, [7, 9, 3]);
        assert_eq!(run.pop(false), None, "an empty queue does not block");
    }

    #[test]
    fn a_push_wakes_a_parked_executor() {
        let run = RunQueue::default();
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| run.pop(true));
            run.push(&[5]);
            assert_eq!(parked.join().unwrap(), Some(5));
        });
    }

    #[test]
    fn shutdown_drains_before_stopping() {
        let run = RunQueue::default();
        run.push(&[3]);
        run.shutdown();
        // Queued chips are still served after shutdown.
        assert_eq!(run.pop(true), Some(3));
        assert_eq!(run.pop(true), None);
    }

    #[test]
    fn a_poisoned_run_queue_keeps_its_chips() {
        let run = RunQueue::default();
        run.push(&[1, 2]);
        run.poison();
        run.push(&[4]);
        assert_eq!(run.queued(), [1, 2, 4]);
        run.shutdown();
        assert_eq!(run.pop(true), Some(1));
    }
}

//! Control plane of the sharded service runtime: the typed records
//! the coordinator's decision loop emits, the commands it sends to
//! chip cells, the messages shards send back over the pool's one
//! channel, and the token board shards (and the waiting coordinator)
//! claim chips from.
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
use std::sync::{Arc, Condvar, Mutex};

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
/// lock pops the commands in FIFO order, each claim through the chip's
/// next grant. FIFO order is what makes work-stealing safe: whichever
/// executor claims a chip's token replays the cell's history exactly as
/// the owning shard would have.
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

/// A claimed chip token: the chip to serve, and whether the claim
/// came off another shard's queue (a steal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChipToken {
    pub chip: usize,
    pub stolen: bool,
}

/// The token board: per-shard queues of chip tokens (a token means
/// "this chip has one queued grant to run") plus the work-stealing
/// protocol. A shard prefers its own queue and steals round-robin
/// from the others when it runs dry, so one hot shard's backlog is
/// spread across the pool without ever reordering a single chip's
/// command stream (ordering lives in the cell's FIFO, not here; a
/// chip's tokens are interchangeable). The shards take the oldest
/// tokens; the waiting coordinator is offered the newest first
/// ([`TokenBoard::try_take`]), from the other end.
#[derive(Debug)]
pub(crate) struct TokenBoard {
    state: Mutex<TokenState>,
    cv: Condvar,
}

#[derive(Debug)]
struct TokenState {
    /// Per-shard queues of `(stamp, chip)` tokens, oldest first. The
    /// stamp counts pushes, so it orders tokens across queues.
    queues: Vec<VecDeque<(u64, usize)>>,
    next_stamp: u64,
    shutdown: bool,
}

impl TokenBoard {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            state: Mutex::new(TokenState {
                queues: (0..shards).map(|_| VecDeque::new()).collect(),
                next_stamp: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues chip tokens onto their owners' queues in one critical
    /// section. One parked shard is woken per token (capped at the
    /// pool size): any shard can serve any token via the steal sweep,
    /// and waking the whole pool for a handful of tokens just burns
    /// context switches on small machines.
    pub(crate) fn push_many(&self, tokens: impl IntoIterator<Item = (usize, usize)>) {
        let mut state = self.state.lock().expect("token lock");
        let mut pushed = 0usize;
        for (owner, chip) in tokens {
            let stamp = state.next_stamp;
            state.next_stamp += 1;
            state.queues[owner].push_back((stamp, chip));
            pushed += 1;
        }
        let wakes = pushed.min(state.queues.len());
        drop(state);
        for _ in 0..wakes {
            self.cv.notify_one();
        }
    }

    /// The next chip token for shard `me`: its own queue first, then a
    /// round-robin steal sweep. Blocks when every queue is empty and
    /// returns `None` only after shutdown. The claim reports whether
    /// it came off another shard's queue, feeding the per-shard
    /// owned/stolen introspection counters.
    pub(crate) fn next(&self, me: usize) -> Option<ChipToken> {
        let mut state = self.state.lock().expect("token lock");
        loop {
            if let Some((_, chip)) = state.queues[me].pop_front() {
                return Some(ChipToken {
                    chip,
                    stolen: false,
                });
            }
            let n = state.queues.len();
            for offset in 1..n {
                if let Some((_, chip)) = state.queues[(me + offset) % n].pop_front() {
                    return Some(ChipToken { chip, stolen: true });
                }
            }
            if state.shutdown {
                return None;
            }
            state = self.cv.wait(state).expect("token lock");
        }
    }

    /// Non-blocking, for the waiting coordinator: offers `claim` every
    /// chip with a queued token, newest token first and each chip once,
    /// and takes the offered token off the board at the first chip
    /// `claim` accepts. The offers happen under the board lock, so a
    /// refused token never leaves its place, no shard can miss it and
    /// steal another shard's token meanwhile, and none allocates.
    /// `claim` must not block: it runs while every shard is locked out
    /// of the board.
    pub(crate) fn try_take<T>(&self, mut claim: impl FnMut(usize) -> Option<T>) -> Option<T> {
        let mut state = self.state.lock().expect("token lock");
        let queues = &mut state.queues;
        let mut below = u64::MAX;
        loop {
            // The newest token older than the last one offered; each
            // queue is in stamp order.
            let (queue, index) = (0..queues.len())
                .filter_map(|q| {
                    let older = queues[q].partition_point(|&(stamp, _)| stamp < below);
                    Some((q, older.checked_sub(1)?))
                })
                .max_by_key(|&(q, index)| queues[q][index].0)?;
            let (stamp, chip) = queues[queue][index];
            below = stamp;
            // A newer token of the same chip was offered already.
            let offered = queues
                .iter()
                .flatten()
                .any(|&(other_stamp, other)| other == chip && other_stamp > stamp);
            if offered {
                continue;
            }
            if let Some(claimed) = claim(chip) {
                queues[queue].remove(index);
                return Some(claimed);
            }
        }
    }

    /// Lets every shard drain its remaining tokens and exit.
    pub(crate) fn shutdown(&self) {
        self.state.lock().expect("token lock").shutdown = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_board_prefers_own_queue_then_steals() {
        let board = TokenBoard::new(2);
        board.push_many([(0, 7), (1, 9)]);
        // Shard 1 takes its own token first, then steals shard 0's —
        // and the claims say which was which.
        assert_eq!(
            board.next(1),
            Some(ChipToken {
                chip: 9,
                stolen: false
            })
        );
        assert_eq!(
            board.next(1),
            Some(ChipToken {
                chip: 7,
                stolen: true
            })
        );
        board.shutdown();
        assert_eq!(board.next(1), None);
        assert_eq!(board.next(0), None);
    }

    #[test]
    fn try_take_offers_each_chip_newest_first_and_keeps_refused_tokens() {
        let board = TokenBoard::new(2);
        // Stamps 0-4: shard 0 holds chips 4, 6, 4; shard 1 chips 5, 5.
        board.push_many([(0, 4), (1, 5), (0, 6), (1, 5), (0, 4)]);
        let offers = |board: &TokenBoard| {
            let mut offered = Vec::new();
            let taken = board.try_take(|chip| {
                offered.push(chip);
                None::<usize>
            });
            assert_eq!(taken, None, "every offer was refused");
            offered
        };
        // Each chip once, at its newest token, across both queues.
        assert_eq!(offers(&board), [4, 5, 6]);
        // The first chip accepted gives up its newest token, stamp 3.
        assert_eq!(board.try_take(|chip| (chip != 4).then_some(chip)), Some(5));
        // The refused tokens stayed in place: the shards still take
        // the oldest, own queue first, then steal.
        let mut taken = Vec::new();
        for _ in 0..4 {
            let token = board.next(0).expect("a token is left");
            taken.push((token.chip, token.stolen));
        }
        assert_eq!(taken, [(4, false), (6, false), (4, false), (5, true)]);
        assert_eq!(offers(&board), []);
    }

    #[test]
    fn shutdown_drains_before_stopping() {
        let board = TokenBoard::new(1);
        board.push_many([(0, 3)]);
        board.shutdown();
        // Remaining tokens are still served after shutdown.
        assert_eq!(
            board.next(0),
            Some(ChipToken {
                chip: 3,
                stolen: false
            })
        );
        assert_eq!(board.next(0), None);
    }
}

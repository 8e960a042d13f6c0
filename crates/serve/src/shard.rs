//! The service's executor: chips packaged as self-contained cells in
//! one pool, advanced slice by slice for the decision loop.
//!
//! Each chip has two locks. Its command queue ([`CellCmd`]) has a lock
//! of its own, taken only to push or pop one command, so a placement or
//! grant never waits for a slice. The cell lock is the execution lock:
//! whichever executor holds it owns the chip, pops its queued commands
//! in FIFO order and runs its slice.
//!
//! With one or more workers the pool is the shard runtime: long-lived
//! shard threads claim chip tokens (own queue first, then steal). A
//! token stands for one queued grant: the executor that claims it
//! installs the placements queued ahead of that grant, runs its one
//! slice on the lean fused step ([`ChipSession::run_slice_fast`]),
//! releases the cell and sends the [`SliceLog`] back over the pool's
//! one channel. A shard that panics sends [`ShardEvent::Panicked`] on
//! its way out, so the run ends with [`ServeError::ShardFailed`]
//! instead of waiting for a log that will never come. The coordinator
//! is an executor too: when [`ShardPool::wait_through`] would block on
//! the channel, it first claims a token whose cell it can lock at once
//! (the board offers every queued chip, newest token first) and runs
//! that slice itself, on the same step, as executor `workers`, filing
//! the log as it makes it. It never waits for a cell lock: a busy or
//! poisoned cell's token stays on the board for a shard, and the
//! coordinator sleeps only when every queued chip is refused. With no
//! workers, [`ShardPool::grant`] runs each granted slice itself, in
//! chip order, on the historical dyn-dispatch reference step, so every
//! log is in before it returns and the merge runs in lockstep with the
//! decision loop: the in-line coordinator, the byte oracle
//! `tests/shard_equivalence.rs` holds the shard runtime to.
//! Every executor runs the same cell-drain routine, and the
//! coordinator's two drains share one caller-side routine; the merge
//! layer cannot tell executors apart. Executors only simulate and
//! drain the captures the [`DrainPlan`] names; the merge layer makes
//! every trace record. The fused step is bit-identical to the
//! reference step (window capture and the invariant checker riding
//! along), so every sharded run is also a differential test of it.
//!
//! Either way the cells start from clones of chip sessions the service
//! warmed up once, on the fused step ([`warm_sessions`]), whose
//! warm-up is bit-identical to the reference step's.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::control::{CellCmd, CellJob, ChipToken, ShardEvent, SliceLog, TokenBoard};
use crate::introspect::RuntimeStats;
use crate::ServeError;
use vsmooth_chip::{
    Chip, ChipConfig, ChipError, ChipSession, InvariantConfig, SliceStats, WindowConfig,
};
use vsmooth_uarch::{IdleLoop, StimulusSource};

/// One pool member: a warmed-up measurement session plus whatever is
/// running on its two cores. Cells own their chips end-to-end; only
/// the executor holding the cell lock (a shard or the coordinator)
/// touches them.
#[derive(Debug)]
pub(crate) struct ChipCell {
    pub session: ChipSession,
    pub cores: [Option<CellJob>; 2],
    pub idle: [IdleLoop; 2],
}

/// The seed of pool chip `index`'s idle loop on `core`.
fn idle_seed(index: usize, core: usize) -> u64 {
    (index * 2 + core) as u64
}

/// Builds `chips` pool chips of `cfg` and warms each up on its idle
/// loops, on the fused step (bit-identical to the reference warm-up),
/// with intervals of `slice_cycles`. A service warms its chips once
/// and every run's pool clones them.
pub(crate) fn warm_sessions(
    cfg: &ChipConfig,
    chips: usize,
    slice_cycles: u64,
) -> Result<Vec<ChipSession>, ChipError> {
    (0..chips)
        .map(|index| {
            let mut w0 = IdleLoop::new(idle_seed(index, 0));
            let mut w1 = IdleLoop::new(idle_seed(index, 1));
            ChipSession::begin_fast(
                Chip::new(cfg.clone())?,
                || StimulusSource::next(&mut w0),
                || StimulusSource::next(&mut w1),
                slice_cycles,
            )
        })
        .collect()
}

impl ChipCell {
    /// Pool chip `index` from its warmed-up `session`, armed with the
    /// captures `drain` names, its cores running fresh idle loops.
    fn new(mut session: ChipSession, index: usize, drain: &DrainPlan) -> Self {
        if let Some(window) = drain.windows {
            session.enable_profiling(drain.margin, window);
        } else if drain.crossings {
            session.capture_droops(drain.margin);
        }
        if drain.invariants {
            session.enable_invariants(InvariantConfig::default());
        }
        Self {
            session,
            cores: [None, None],
            idle: [
                IdleLoop::new(idle_seed(index, 0)),
                IdleLoop::new(idle_seed(index, 1)),
            ],
        }
    }

    /// Advances this chip one quantum on the historical reference
    /// step; empty cores run the idle loop, exactly like an OS idle
    /// thread.
    fn run_reference_slice(&mut self, cycles: u64) -> Result<SliceStats, ChipError> {
        let [c0, c1] = &mut self.cores;
        let [i0, i1] = &mut self.idle;
        let s0: &mut dyn StimulusSource = match c0 {
            Some(job) => &mut job.stream,
            None => i0,
        };
        let s1: &mut dyn StimulusSource = match c1 {
            Some(job) => &mut job.stream,
            None => i1,
        };
        let mut sources: Vec<&mut dyn StimulusSource> = vec![s0, s1];
        self.session.run_slice(&mut sources, cycles)
    }

    /// Advances this chip one quantum on the lean fused step, with each
    /// resident stream's event mix hoisted out of the cycle loop. Job
    /// streams never loop and always advance in whole slice-aligned
    /// intervals here, which is precisely the regime where hoisted-mix
    /// stepping is bit-identical to `EventStream::next`.
    fn run_fast_slice(&mut self, cycles: u64) -> Result<SliceStats, ChipError> {
        let [c0, c1] = &mut self.cores;
        let [i0, i1] = &mut self.idle;
        match (c0.as_mut(), c1.as_mut()) {
            (Some(j0), Some(j1)) => {
                let m0 = j0.stream.current_prepared();
                let m1 = j1.stream.current_prepared();
                self.session.run_slice_fast(
                    || j0.stream.step_prepared(&m0),
                    || j1.stream.step_prepared(&m1),
                    cycles,
                )
            }
            (Some(j0), None) => {
                let m0 = j0.stream.current_prepared();
                self.session.run_slice_fast(
                    || j0.stream.step_prepared(&m0),
                    || StimulusSource::next(i1),
                    cycles,
                )
            }
            (None, Some(j1)) => {
                let m1 = j1.stream.current_prepared();
                self.session.run_slice_fast(
                    || StimulusSource::next(i0),
                    || j1.stream.step_prepared(&m1),
                    cycles,
                )
            }
            (None, None) => self.session.run_slice_fast(
                || StimulusSource::next(i0),
                || StimulusSource::next(i1),
                cycles,
            ),
        }
    }

    /// Frees cores whose stream just ran its final slice — the same
    /// `is_finished` test the decision loop evaluates analytically —
    /// and reports which job ids finished, per core.
    fn pop_finished(&mut self) -> [Option<u64>; 2] {
        let mut finished = [None, None];
        for (slot, out) in self.cores.iter_mut().zip(&mut finished) {
            if slot.as_ref().is_some_and(|j| j.stream.is_finished()) {
                *out = slot.take().map(|j| j.id);
            }
        }
        finished
    }
}

/// Which per-slice channels a run captures, decided once by the merge
/// layer from the run's armed instruments. The pool arms each chip
/// session from it, executors drain exactly these channels into
/// [`SliceLog`]s, and the merge layer branches on it, so no layer
/// re-derives what another already decided.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DrainPlan {
    /// Margin crossings are captured and drained: some consumer (the
    /// tracer, profiler, monitor or obs) reads them.
    pub crossings: bool,
    /// The tracer, monitor or obs wants each crossing as a
    /// `DroopEvent`. Implies `crossings`.
    pub droop_events: bool,
    /// Waveform windows of this shape are captured and drained (the
    /// profiler scores them). Implies `crossings`.
    pub windows: Option<WindowConfig>,
    pub invariants: bool,
    /// The capture margin, in percent below nominal.
    pub margin: f64,
}

/// Runs chip `chip`'s slice for `epoch` on `cell`, on the pool's step,
/// and packages the log, stamped `seq` by executor `me`.
fn exec_slice(
    cell: &mut ChipCell,
    shared: &PoolShared,
    me: usize,
    seq: u64,
    epoch: u64,
    chip: usize,
) -> Result<SliceLog, ChipError> {
    let session_start = cell.session.measured_cycles();
    let stats = if shared.fused {
        cell.run_fast_slice(shared.slice_cycles)?
    } else {
        cell.run_reference_slice(shared.slice_cycles)?
    };
    let drain = &shared.drain;
    let crossings = if drain.crossings {
        cell.session.take_droop_crossings()
    } else {
        Vec::new()
    };
    let windows = if drain.windows.is_some() {
        cell.session.take_droop_windows()
    } else {
        Vec::new()
    };
    let invariant_violations = if drain.invariants {
        cell.session.take_invariant_violations().len()
    } else {
        0
    };
    let finished = cell.pop_finished();
    Ok(SliceLog {
        shard: me,
        seq,
        epoch,
        chip,
        session_start,
        stats,
        crossings,
        windows,
        invariant_violations,
        finished,
    })
}

/// State shared between the coordinator and the shard workers.
#[derive(Debug)]
struct PoolShared {
    /// Per chip, the execution lock: the executor holding it owns the
    /// chip for one claim.
    cells: Vec<Mutex<ChipCell>>,
    /// Per chip, the pending commands, oldest first. Each lock is held
    /// for one push or one pop, never across a slice.
    queues: Vec<Mutex<VecDeque<CellCmd>>>,
    tokens: TokenBoard,
    /// The live introspection scoreboard, shared with obs publishes.
    /// The per-shard split of slice counts is execution-dependent
    /// (work-stealing); only the sum is deterministic. All
    /// determinism-pinned metrics are recorded by the merge layer,
    /// never here.
    stats: Arc<RuntimeStats>,
    slice_cycles: u64,
    drain: DrainPlan,
    /// Cells run slices on the lean fused step. Only a pool with no
    /// workers keeps the reference step, as the oracle.
    fused: bool,
}

impl PoolShared {
    /// Chip `chip`'s command queue. Nothing panics while holding it, so
    /// a poisoned queue still holds whole commands.
    fn queue(&self, chip: usize) -> MutexGuard<'_, VecDeque<CellCmd>> {
        self.queues[chip]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Pops chip `chip`'s oldest command. The guard never leaves this
    /// function, so no executor holds the queue lock across a slice and
    /// a push never waits for one.
    fn pop_cmd(&self, chip: usize) -> Option<CellCmd> {
        self.queue(chip).pop_front()
    }
}

/// Serves one claim of the chip `token` names, as executor `me`, on
/// `cell`, whose execution lock the executor holds: pops the chip's
/// commands in FIFO order, installing placed jobs, up to and including
/// one grant, whose slice it runs and hands to `emit`. Returns `false`
/// once a slice failed; the executor stops there.
fn drain_cell(
    shared: &PoolShared,
    cell: &mut ChipCell,
    me: usize,
    token: ChipToken,
    seq: &mut u64,
    mut emit: impl FnMut(ShardEvent),
) -> bool {
    let chip = token.chip;
    while let Some(cmd) = shared.pop_cmd(chip) {
        match cmd {
            CellCmd::AddJob { core, job } => {
                debug_assert!(cell.cores[core].is_none(), "placement on occupied core");
                cell.cores[core] = Some(*job);
            }
            CellCmd::Grant { epoch } => {
                return match exec_slice(cell, shared, me, *seq, epoch, chip) {
                    Ok(log) => {
                        shared.stats.record_slice(me, token.stolen);
                        *seq += 1;
                        emit(ShardEvent::Slice(log));
                        true
                    }
                    Err(error) => {
                        emit(ShardEvent::Failed { error });
                        false
                    }
                };
            }
        }
    }
    true
}

/// A shard's sending end of the pool's channel. Dropped while the
/// shard unwinds from a panic, it sends the shard's exit before the
/// `Sender` goes, so the coordinator learns of the death instead of
/// waiting on a log that will never come.
struct Lane {
    me: usize,
    tx: Sender<ShardEvent>,
}

impl Drop for Lane {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(ShardEvent::Panicked { shard: self.me });
        }
    }
}

/// The body of one shard worker: pop a chip token (own queue first,
/// then steal), run that chip's next slice, send its outcome to the
/// coordinator. A send fails only once the pool is gone, and then
/// nobody is owed the log. A shard waits for a busy cell's lock and
/// panics on a poisoned one, which its [`Lane`] reports.
fn shard_main(lane: Lane, shared: &PoolShared) {
    let mut seq = 0u64;
    while let Some(token) = shared.tokens.next(lane.me) {
        let mut cell = shared.cells[token.chip].lock().expect("cell lock");
        if !drain_cell(shared, &mut cell, lane.me, token, &mut seq, |event| {
            let _ = lane.tx.send(event);
        }) {
            return;
        }
    }
}

/// The service's one executor: the chip pool plus `workers` long-lived
/// shard threads that own it for the duration of a run, or none, and
/// the coordinator that drains cells while it waits (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// The receiving end of the channel every shard sends on. A pool
    /// with no workers keeps no `Sender`, so its channel reads as
    /// disconnected.
    events: Receiver<ShardEvent>,
    /// Granted `(epoch, chip)` slices whose logs have not arrived yet.
    outstanding: BTreeSet<(u64, usize)>,
    /// Logs received but not yet consumed by the merge layer.
    received: BTreeMap<(u64, usize), SliceLog>,
    /// Next expected per-executor sequence number: one `Sender`'s
    /// messages arrive in the order it sent them, and each executor
    /// stamps its slices 0, 1, 2, … — so logs must arrive in exactly
    /// that order per executor. Slot `workers` is the coordinator's,
    /// which files its logs as it makes them, so its slot is also its
    /// next stamp.
    next_seq: Vec<u64>,
    /// Chip index → executor that ran its previous slice, for the
    /// ownership-churn introspection counter.
    last_executor: Vec<Option<usize>>,
    /// The first failure received; every later call returns it.
    failure: Option<ServeError>,
}

impl ShardPool {
    /// Builds one cell per `warmed` session (a clone, armed from
    /// `drain`), then spawns `workers` shard threads. Chips are owned
    /// round-robin across shards.
    pub(crate) fn new(
        warmed: &[ChipSession],
        workers: usize,
        stats: Arc<RuntimeStats>,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        let chips = warmed.len();
        let cells = warmed
            .iter()
            .enumerate()
            .map(|(index, session)| Mutex::new(ChipCell::new(session.clone(), index, &drain)))
            .collect();
        let shared = Arc::new(PoolShared {
            cells,
            queues: (0..chips).map(|_| Mutex::default()).collect(),
            tokens: TokenBoard::new(workers),
            stats,
            slice_cycles,
            drain,
            fused: workers > 0,
        });
        let (tx, events) = mpsc::channel();
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let lane = Lane { me, tx: tx.clone() };
                std::thread::Builder::new()
                    .name(format!("vsmooth-shard{me}"))
                    .spawn(move || shard_main(lane, &shared))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            shared,
            handles,
            events,
            outstanding: BTreeSet::new(),
            received: BTreeMap::new(),
            next_seq: vec![0; workers + 1],
            last_executor: vec![None; chips],
            failure: None,
        }
    }

    /// Queues `cmd` at its chip's command queue and records the depth
    /// the queue reached. Only the queue lock is taken, so the push
    /// never waits for a slice running on the cell, and a cell poisoned
    /// by a shard that panicked holding it takes the command all the
    /// same: that shard's death ends the run with
    /// [`ServeError::ShardFailed`] at the next wait, and nothing drains
    /// a poisoned cell.
    fn push_cmd(&self, chip: usize, cmd: CellCmd) {
        let depth = {
            let mut queue = self.shared.queue(chip);
            queue.push_back(cmd);
            queue.len()
        };
        self.shared.stats.cell_queue_hwm[chip].fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Queues a placement at its chip cell.
    pub(crate) fn add_job(&mut self, chip: usize, core: usize, job: CellJob) {
        let job = Box::new(job);
        self.push_cmd(chip, CellCmd::AddJob { core, job });
    }

    /// Grants `busy` chips one quantum for `epoch`: queues a grant at
    /// each cell and hands one token per grant to the chip's owning
    /// shard. With no workers, runs each granted slice here instead, in
    /// chip order, so every log is received before this returns.
    pub(crate) fn grant(&mut self, epoch: u64, busy: &[usize]) -> Result<(), ServeError> {
        for &chip in busy {
            self.push_cmd(chip, CellCmd::Grant { epoch });
            self.outstanding.insert((epoch, chip));
        }
        let workers = self.handles.len();
        if workers > 0 {
            self.shared
                .tokens
                .push_many(busy.iter().map(|&chip| (chip % workers, chip)));
            return Ok(());
        }
        // `receive` borrows the whole pool, so the drain reads the
        // shared state through a handle of its own.
        let shared = Arc::clone(&self.shared);
        for &chip in busy {
            // Only this thread touches the cells. A cell it cannot lock
            // keeps its log owed, and the wait for it panics.
            let Ok(mut cell) = shared.cells[chip].try_lock() else {
                break;
            };
            let token = ChipToken {
                chip,
                stolen: false,
            };
            if !self.drain_here(&shared, &mut cell, token) {
                break;
            }
        }
        self.pump()
    }

    /// The coordinator's drain, shared by a zero-worker grant and the
    /// help of [`ShardPool::wait_through`]: serves one claim on `cell`,
    /// which this thread has locked, as executor `workers` (executor 0
    /// of a pool with no workers), filing the log straight into
    /// `receive`. Returns `false` once a slice failed.
    fn drain_here(&mut self, shared: &PoolShared, cell: &mut ChipCell, token: ChipToken) -> bool {
        let me = self.handles.len();
        let mut seq = self.next_seq[me];
        drain_cell(shared, cell, me, token, &mut seq, |event| {
            self.receive(event)
        })
    }

    /// Runs one queued slice on this thread instead of sleeping on the
    /// shards: claims the first chip the board offers (newest token
    /// first) whose cell lock is free at once. A busy or poisoned cell
    /// is not waited for and its tokens stay on the board for a shard.
    /// Returns whether a token was claimed; a slice that failed there
    /// is kept as the run's failure, which the wait's next pump
    /// returns.
    fn help(&mut self) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some((chip, mut cell)) = shared
            .tokens
            .try_take(|chip| shared.cells[chip].try_lock().ok().map(|cell| (chip, cell)))
        else {
            return false;
        };
        // The coordinator owns no queue: every token it claims came off
        // a shard's.
        let token = ChipToken { chip, stolen: true };
        self.drain_here(&shared, &mut cell, token);
        true
    }

    /// Files one executor message: a log joins `received`, a failure
    /// is kept (the first one wins).
    fn receive(&mut self, event: ShardEvent) {
        match event {
            ShardEvent::Slice(log) => {
                debug_assert_eq!(
                    log.seq, self.next_seq[log.shard],
                    "an executor's slices arrived out of order"
                );
                self.next_seq[log.shard] = log.seq + 1;
                let stats = &self.shared.stats;
                stats.record_receipt(log.shard);
                if self.last_executor[log.chip].is_some_and(|prev| prev != log.shard) {
                    stats.ownership_churn.fetch_add(1, Ordering::Relaxed);
                }
                self.last_executor[log.chip] = Some(log.shard);
                self.outstanding.remove(&(log.epoch, log.chip));
                self.received.insert((log.epoch, log.chip), log);
            }
            ShardEvent::Failed { error } => {
                self.failure.get_or_insert(ServeError::Chip(error));
            }
            ShardEvent::Panicked { shard } => {
                self.failure
                    .get_or_insert(ServeError::ShardFailed { shard });
            }
        }
    }

    /// Non-blocking: receives every message already sent, then
    /// returns the first failure received, if any.
    fn pump(&mut self) -> Result<(), ServeError> {
        while let Ok(event) = self.events.try_recv() {
            self.receive(event);
        }
        match &self.failure {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }

    fn has_through(&self, bound: u64) -> bool {
        !self.outstanding.iter().any(|&(epoch, _)| epoch < bound)
    }

    /// Blocks until every log for epochs `< bound` has arrived, or
    /// until a shard reports a failure or a panic. Before each block,
    /// the coordinator runs a queued slice on any cell it can lock at
    /// once ([`ShardPool::help`]), so it runs kernel slices while it
    /// would otherwise sleep. A pool whose workers have all exited without
    /// reporting one (or that never had any) panics with a log still
    /// owed instead of blocking forever: that is a runtime bug, not a
    /// recoverable condition.
    pub(crate) fn wait_through(&mut self, bound: u64) -> Result<(), ServeError> {
        loop {
            self.pump()?;
            if self.has_through(bound) {
                return Ok(());
            }
            if self.help() {
                continue;
            }
            let event = self
                .events
                .recv()
                .expect("all shard workers exited with granted slices still outstanding");
            self.receive(event);
        }
    }

    /// Non-blocking: whether every log for epochs `< bound` is in.
    pub(crate) fn ready_through(&mut self, bound: u64) -> Result<bool, ServeError> {
        self.pump()?;
        Ok(self.has_through(bound))
    }

    /// Lends the merge layer one received log for the telemetry-book
    /// fold; the replay takes it later. Panics if absent — the caller
    /// must have established availability first.
    pub(crate) fn log(&self, epoch: u64, chip: usize) -> &SliceLog {
        self.received
            .get(&(epoch, chip))
            .expect("granted slice log available at fold time")
    }

    /// Hands the merge layer one received log. Panics if absent — the
    /// caller must have established availability first.
    pub(crate) fn take_log(&mut self, epoch: u64, chip: usize) -> SliceLog {
        self.received
            .remove(&(epoch, chip))
            .expect("granted slice log available at merge time")
    }

    /// Shuts the pool down and returns the cells in chip order for
    /// end-of-run flushing (late-sealing droop windows, measured-cycle
    /// totals).
    pub(crate) fn finish(mut self) -> Result<Vec<ChipCell>, ServeError> {
        self.shared.tokens.shutdown();
        for (shard, handle) in std::mem::take(&mut self.handles).into_iter().enumerate() {
            if handle.join().is_err() {
                self.failure
                    .get_or_insert(ServeError::ShardFailed { shard });
            }
        }
        self.pump()?;
        // `Drop` prevents moving a field out of `self`; clone the Arc,
        // let the (now trivial) destructor run, then unwrap.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::try_unwrap(shared).expect("all shard handles joined");
        debug_assert!(
            (0..shared.queues.len()).all(|chip| shared.queue(chip).is_empty()),
            "commands left undrained at shutdown"
        );
        // Only a shard's panic poisons a cell, and the pump above has
        // then returned that shard's failure.
        Ok(shared
            .cells
            .into_iter()
            .map(|cell| cell.into_inner().expect("cell lock"))
            .collect())
    }
}

/// Early error returns (queue overflow, chip failure) drop the pool
/// with workers still parked on the token board; release them and wait,
/// or they would outlive the run holding the shared state.
impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.tokens.shutdown();
        for handle in self.handles.drain(..) {
            // A worker that panicked already sent its exit; don't
            // double-panic while unwinding.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vsmooth_obs::ShardsStatus;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    const SLICE: u64 = 500;

    fn pool(chips: usize, workers: usize) -> ShardPool {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let warmed = warm_sessions(&cfg, chips, SLICE).unwrap();
        let stats = Arc::new(RuntimeStats::new(workers, chips));
        ShardPool::new(&warmed, workers, stats, SLICE, DrainPlan::default())
    }

    fn inline_pool(chips: usize) -> ShardPool {
        pool(chips, 0)
    }

    fn job(id: u64) -> CellJob {
        CellJob {
            id,
            stream: by_name("429.mcf").unwrap().stream(id, SLICE),
        }
    }

    #[test]
    fn a_zero_worker_pool_drains_every_grant_before_returning() {
        let mut pool = inline_pool(3);
        assert!(
            pool.handles.is_empty(),
            "a zero-worker pool spawns no thread"
        );
        pool.add_job(0, 0, job(0));
        pool.add_job(2, 1, job(1));
        pool.add_job(2, 0, job(2));
        let busy = [0, 2];
        for epoch in 0..3 {
            pool.grant(epoch, &busy).unwrap();
            assert!(pool.ready_through(epoch + 1).unwrap(), "epoch {epoch}");
            for chip in busy {
                let log = pool.log(epoch, chip);
                assert_eq!((log.epoch, log.chip, log.shard), (epoch, chip, 0));
                assert_eq!(log.stats.cycles, SLICE);
            }
            // In-line slices are stamped in grant order as executor 0.
            let seqs: Vec<u64> = busy.iter().map(|&c| pool.take_log(epoch, c).seq).collect();
            assert_eq!(seqs, [2 * epoch, 2 * epoch + 1]);
        }
        assert_eq!(pool.shared.stats.slices_total(), 6);
        let cells = pool.finish().unwrap();
        let measured: Vec<u64> = cells.iter().map(|c| c.session.measured_cycles()).collect();
        assert_eq!(measured, [3 * SLICE, 0, 3 * SLICE]);
    }

    #[test]
    #[should_panic(expected = "all shard workers exited with granted slices still outstanding")]
    fn a_zero_worker_pool_panics_on_a_missing_log_instead_of_blocking() {
        let mut pool = inline_pool(1);
        // A slice granted behind the pool's back: nothing will ever
        // deliver its log.
        pool.outstanding.insert((0, 0));
        let _ = pool.wait_through(1);
    }

    /// A shard that panics on a poisoned cell ends the run with a typed
    /// error, in bounded time, at one worker and at two. Chip 0's grant
    /// is queued, then its cell lock is poisoned, then the tokens go
    /// out. With two workers the test holds chip 1's cell, so shard 1
    /// stays on its own token and chip 0's is always shard 0's.
    #[test]
    fn a_panicking_shard_ends_the_run_with_shard_failed() {
        for workers in [1, 2] {
            let mut pool = pool(workers, workers);
            for chip in 0..workers {
                pool.push_cmd(chip, CellCmd::Grant { epoch: 0 });
                pool.outstanding.insert((0, chip));
            }
            let shared = Arc::clone(&pool.shared);
            let _ = std::panic::catch_unwind(|| {
                let _slot = shared.cells[0].lock();
                panic!("poisoning chip 0's cell");
            });
            assert!(shared.cells[0].is_poisoned());
            let hold = (workers > 1).then(|| shared.cells[1].lock().unwrap());
            shared
                .tokens
                .push_many((0..workers).map(|chip| (chip % workers, chip)));
            let (tx, rx) = mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let _ = tx.send(pool.wait_through(1));
            });
            let outcome = rx.recv_timeout(Duration::from_secs(10));
            drop(hold);
            assert_eq!(
                outcome,
                Ok(Err(ServeError::ShardFailed { shard: 0 })),
                "{workers} workers"
            );
            waiter.join().unwrap();
        }
    }

    /// Poisons `chip`'s cell the way a shard that panicked holding it
    /// would.
    fn poison(shared: &PoolShared, chip: usize) {
        let _ = std::panic::catch_unwind(|| {
            let _slot = shared.cells[chip].lock();
            panic!("poisoning chip {chip}'s cell");
        });
        assert!(shared.cells[chip].is_poisoned());
    }

    /// A placement and a grant take only the chip's queue lock, so
    /// neither waits for the slice an executor is running on the cell.
    /// The test holds chip 0's cell, as a shard holds it mid-slice,
    /// while a helper thread places a job there and grants both chips.
    #[test]
    fn a_grant_never_waits_for_a_running_slice() {
        let mut pool = pool(2, 1);
        let shared = Arc::clone(&pool.shared);
        let held = shared.cells[0].lock().unwrap();
        let (tx, rx) = mpsc::channel();
        let granter = std::thread::spawn(move || {
            pool.add_job(0, 0, job(0));
            pool.grant(0, &[0, 1]).unwrap();
            let _ = tx.send(());
            pool
        });
        let granted = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        assert_eq!(granted, Ok(()), "the grant waited for the held cell");
        let mut pool = granter.join().unwrap();
        assert_eq!(pool.wait_through(1), Ok(()));
        for chip in 0..2 {
            let log = pool.log(0, chip);
            assert_eq!((log.epoch, log.chip), (0, chip));
        }
    }

    /// A claim installs the placements queued ahead of the chip's next
    /// grant and runs that one slice, and it runs and emits the slice
    /// without holding the chip's queue lock, so a push never waits for
    /// a slice.
    #[test]
    fn a_claim_runs_one_slice_without_its_queue_lock() {
        let mut pool = inline_pool(1);
        pool.add_job(0, 0, job(0));
        pool.push_cmd(0, CellCmd::Grant { epoch: 0 });
        pool.push_cmd(0, CellCmd::Grant { epoch: 1 });
        let shared = &pool.shared;
        let mut cell = shared.cells[0].lock().unwrap();
        let token = ChipToken {
            chip: 0,
            stolen: false,
        };
        let mut emitted = Vec::new();
        let ran = drain_cell(shared, &mut cell, 0, token, &mut 0, |event| {
            let ShardEvent::Slice(log) = event else {
                panic!("the slice failed");
            };
            emitted.push((log.epoch, shared.queues[0].try_lock().is_ok()));
        });
        assert!(ran);
        assert_eq!(emitted, [(0, true)], "one slice, queue lock free");
        assert_eq!(shared.queue(0).len(), 1, "epoch 1's grant is left");
        assert!(cell.cores[0].is_some(), "the placement was installed");
    }

    /// A grant that reaches a dead shard's poisoned cell queues its
    /// command instead of panicking the caller, and the wait ends with
    /// that shard's typed failure. The test holds chips 1 and 2, each
    /// shard's own token, so both shards park on them first; it then
    /// releases chip 2, shard 0's, so shard 0 is the one that takes
    /// chip 0's token.
    #[test]
    fn a_grant_to_a_poisoned_cell_ends_the_run_with_shard_failed() {
        let mut pool = pool(3, 2);
        let shared = Arc::clone(&pool.shared);
        let held_1 = shared.cells[1].lock().unwrap();
        let held_2 = shared.cells[2].lock().unwrap();
        shared.tokens.push_many([(0, 2), (1, 1)]);
        poison(&shared, 0);
        pool.grant(0, &[0]).unwrap();
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(pool.wait_through(1));
        });
        drop(held_2);
        let outcome = rx.recv_timeout(Duration::from_secs(10));
        drop(held_1);
        assert_eq!(outcome, Ok(Err(ServeError::ShardFailed { shard: 0 })));
        waiter.join().unwrap();
    }

    /// The waiting coordinator drains a queued cell itself, as executor
    /// `workers`, and neither blocks on a busy cell nor keeps its
    /// token. The test holds chips 0 and 2. The shard takes the oldest
    /// token, chip 0, and is stuck on it; the coordinator must take the
    /// newest, chip 1, and run its slice meanwhile. Its next offer,
    /// chip 2, is held: a coordinator that waited for that lock would
    /// run chip 2's slice itself once the test lets go, and one that
    /// kept the token would leave chip 2's log owed forever.
    #[test]
    fn the_waiting_coordinator_drains_a_cell_the_shard_has_not_reached() {
        let mut pool = pool(3, 1);
        for chip in 0..3 {
            pool.push_cmd(chip, CellCmd::Grant { epoch: 0 });
            pool.outstanding.insert((0, chip));
        }
        let shared = Arc::clone(&pool.shared);
        let held_0 = shared.cells[0].lock().unwrap();
        let held_2 = shared.cells[2].lock().unwrap();
        shared.tokens.push_many([(0, 0), (0, 2), (0, 1)]);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let outcome = pool.wait_through(1);
            let _ = tx.send((outcome, pool));
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let wait_for = |what: &str, done: &dyn Fn(&ShardsStatus) -> bool| {
            while !done(&shared.stats.status(0)) {
                assert!(std::time::Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for("the coordinator ran no slice", &|s| {
            s.coordinator_slices > 0
        });
        let status = shared.stats.status(0);
        assert_eq!(status.coordinator_slices, 1);
        assert_eq!(status.shards[0].slices_owned, 0, "the shard is stuck");
        drop(held_0);
        wait_for("the shard ran no slice", &|s| s.shards[0].slices_owned > 0);
        drop(held_2);
        let (outcome, pool) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait ends once the cells are free");
        assert_eq!(outcome, Ok(()));
        let executors: Vec<usize> = (0..3).map(|chip| pool.log(0, chip).shard).collect();
        assert_eq!(executors, [0, 1, 0], "chip 1 ran on the coordinator");
        assert_eq!(shared.stats.status(0).coordinator_slices, 1);
        waiter.join().unwrap();
    }

    /// The board offers the waiting coordinator every queued chip, not
    /// just the newest token's. The test holds chips 0 and 2, tokens
    /// pushed 0, 1, 2: the shard is stuck on chip 0, the newest token's
    /// cell is busy, and the coordinator must run chip 1's slice
    /// instead of sleeping.
    #[test]
    fn the_waiting_coordinator_runs_an_older_chip_when_the_newest_is_held() {
        let mut pool = pool(3, 1);
        for chip in 0..3 {
            pool.push_cmd(chip, CellCmd::Grant { epoch: 0 });
            pool.outstanding.insert((0, chip));
        }
        let shared = Arc::clone(&pool.shared);
        let held_0 = shared.cells[0].lock().unwrap();
        let held_2 = shared.cells[2].lock().unwrap();
        shared.tokens.push_many([(0, 0), (0, 1), (0, 2)]);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let outcome = pool.wait_through(1);
            let _ = tx.send((outcome, pool));
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while shared.stats.status(0).coordinator_slices == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the coordinator ran no slice"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let status = shared.stats.status(0);
        assert_eq!(status.coordinator_slices, 1);
        assert_eq!(status.shards[0].slices_owned, 0, "the shard is stuck");
        drop(held_0);
        drop(held_2);
        let (outcome, pool) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait ends once the cells are free");
        assert_eq!(outcome, Ok(()));
        assert_eq!(pool.log(0, 1).shard, 1, "chip 1 ran on the coordinator");
        waiter.join().unwrap();
    }
}

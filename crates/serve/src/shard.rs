//! The service's executor: chips packaged as self-contained cells in
//! one pool, advanced slice by slice for the decision loop.
//!
//! Each chip has two locks. Its command queue ([`CellCmd`]) has a lock
//! of its own, taken only to push or pop one command, so a placement or
//! grant never waits for a slice; the same lock keeps the chip's place
//! in the claim protocol below. The cell lock is the execution lock:
//! the executor holding it owns the chip, pops its queued commands in
//! FIFO order and runs its slice.
//!
//! Every executor runs one step: pop a runnable chip off the pool's
//! [`RunQueue`], take its cell, install the placements queued ahead of
//! the chip's next grant, run that one slice, release the cell, and put
//! the chip back on the queue if another grant waits. A chip is
//! *scheduled* from the grant that queues it until the step that finds
//! no grant left, and it is on the queue at most once, so no two
//! executors ever hold it: its cell is free by construction, and no
//! executor waits for a cell lock. Three hosts drive the step:
//!
//! * with one or more workers, long-lived shard threads, which block
//!   while the queue is empty, run the lean fused step
//!   ([`ChipSession::run_slice_fast`]) and send each [`SliceLog`] back
//!   over the pool's one channel. A shard that panics sends
//!   [`ShardEvent::Panicked`] on its way out, so the run ends with
//!   [`ServeError::ShardFailed`] instead of waiting for a log that will
//!   never come;
//! * the waiting coordinator: before [`ShardPool::wait_through`] would
//!   block on the channel, it steps without blocking, as executor
//!   `workers`, on the same fused step, filing each log as it makes it;
//! * with no workers, [`ShardPool::grant`], which steps until the queue
//!   is empty, on the historical dyn-dispatch reference step, so every
//!   log is in before it returns and the merge runs in lockstep with
//!   the decision loop: the in-line coordinator, the byte oracle
//!   `tests/shard_equivalence.rs` holds the shard runtime to.
//!
//! The merge layer cannot tell executors apart. Executors only simulate
//! and drain the captures the [`DrainPlan`] names; the merge layer
//! makes every trace record. The fused step is bit-identical to the
//! reference step (window capture and the invariant checker riding
//! along), so every sharded run is also a differential test of it.
//!
//! Every pool's cells start from clones of chip sessions the service
//! warmed up once, on the fused step ([`warm_sessions`]), whose
//! warm-up is bit-identical to the reference step's.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::control::{CellCmd, CellJob, RunQueue, ShardEvent, SliceLog};
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

/// Chip `chip`'s pending commands and its place in the claim protocol,
/// under one lock, held for one push or pop.
#[derive(Debug, Default)]
struct ChipQueue {
    /// The commands, oldest first.
    cmds: VecDeque<CellCmd>,
    /// Grants among `cmds`: slices granted and not yet claimed.
    grants: usize,
    /// The chip is on the run queue or an executor holds it. A grant
    /// queues the chip only while this is unset, and the executor that
    /// ran one of its slices unsets it once no grant is left.
    scheduled: bool,
}

/// State shared between the coordinator and the shard workers.
#[derive(Debug)]
struct PoolShared {
    /// Per chip, the execution lock: the executor holding it owns the
    /// chip for one step.
    cells: Vec<Mutex<ChipCell>>,
    /// Per chip, the pending commands and the claim state. Each lock is
    /// held for one push or one pop, never across a slice.
    queues: Vec<Mutex<ChipQueue>>,
    /// The scheduled chips no executor holds, oldest first.
    run: RunQueue,
    /// The live introspection scoreboard, shared with obs publishes.
    /// The per-executor split of slice counts is execution-dependent;
    /// only the sum is deterministic. All determinism-pinned metrics
    /// are recorded by the merge layer, never here.
    stats: Arc<RuntimeStats>,
    slice_cycles: u64,
    drain: DrainPlan,
    /// Cells run slices on the lean fused step. Only a pool with no
    /// workers keeps the reference step, as the oracle.
    fused: bool,
}

/// What one executor step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Ran a slice and emitted its log.
    Ran,
    /// Ran a slice that failed and emitted the failure; stop.
    Failed,
    /// Found the run queue empty (blocking: shut down and drained).
    Idle,
    /// Popped this chip, whose cell refused `try_lock`: a panic poisoned
    /// it, and only a test or a broken protocol queues such a chip.
    Refused(usize),
}

impl PoolShared {
    /// Chip `chip`'s queue. Nothing panics while holding it, so a
    /// poisoned queue still holds whole commands and a true count.
    fn queue(&self, chip: usize) -> MutexGuard<'_, ChipQueue> {
        self.queues[chip]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `cmd` at chip `chip`, records the depth the queue reached,
    /// and returns whether the chip must go on the run queue: a grant
    /// schedules a chip no executor has scheduled. Only the queue lock
    /// is taken, so a push never waits for a slice, nor for a poisoned
    /// cell, whose dead shard never released its chip.
    fn push_cmd(&self, chip: usize, cmd: CellCmd) -> bool {
        let mut queue = self.queue(chip);
        let mut runnable = false;
        if let CellCmd::Grant { .. } = cmd {
            queue.grants += 1;
            runnable = !queue.scheduled;
            queue.scheduled = true;
        }
        queue.cmds.push_back(cmd);
        let depth = queue.cmds.len() as u64;
        drop(queue);
        self.stats.cell_queue_hwm[chip].fetch_max(depth, Ordering::Relaxed);
        runnable
    }

    /// Queues a grant for `epoch` at each chip in `busy` and puts the
    /// chips this schedules on the run queue, in `busy` order.
    fn grant(&self, epoch: u64, busy: &[usize]) {
        let mut runnable = Vec::new();
        for &chip in busy {
            if self.push_cmd(chip, CellCmd::Grant { epoch }) {
                runnable.push(chip);
            }
        }
        self.run.push(&runnable);
    }

    /// Pops chip `chip`'s oldest command. The guard never leaves this
    /// function, so no executor holds the queue lock across a slice and
    /// a push never waits for one.
    fn pop_cmd(&self, chip: usize) -> Option<CellCmd> {
        let mut queue = self.queue(chip);
        let cmd = queue.cmds.pop_front();
        if let Some(CellCmd::Grant { .. }) = cmd {
            queue.grants -= 1;
        }
        cmd
    }

    /// Ends a step on chip `chip`, after its cell is released: puts the
    /// chip back on the run queue if another grant waits, and otherwise
    /// unschedules it, so the next grant queues it.
    fn release(&self, chip: usize) {
        let requeue = {
            let mut queue = self.queue(chip);
            queue.scheduled = queue.grants > 0;
            queue.scheduled
        };
        if requeue {
            self.run.push(&[chip]);
        }
    }

    /// One executor step, the only routine a host drives: pops a
    /// runnable chip (waiting for one if `block`), takes its cell, runs
    /// the chip's next slice as executor `me` through [`drain_cell`],
    /// handing the outcome to `emit`, and releases the cell and the
    /// chip. The cell lock is only ever tried: no other executor holds
    /// a scheduled chip's cell.
    fn step(&self, me: usize, block: bool, seq: &mut u64, emit: impl FnMut(ShardEvent)) -> Step {
        let Some(chip) = self.run.pop(block) else {
            return Step::Idle;
        };
        let Ok(mut cell) = self.cells[chip].try_lock() else {
            return Step::Refused(chip);
        };
        if !drain_cell(self, &mut cell, me, chip, seq, emit) {
            return Step::Failed;
        }
        drop(cell);
        self.release(chip);
        Step::Ran
    }
}

/// Serves one step on chip `chip`, as executor `me`, on `cell`, whose
/// execution lock the executor holds: pops the chip's commands in FIFO
/// order, installing placed jobs, up to and including one grant, whose
/// slice it runs and hands to `emit`. Returns `false` once a slice
/// failed; the executor stops there.
fn drain_cell(
    shared: &PoolShared,
    cell: &mut ChipCell,
    me: usize,
    chip: usize,
    seq: &mut u64,
    mut emit: impl FnMut(ShardEvent),
) -> bool {
    while let Some(cmd) = shared.pop_cmd(chip) {
        match cmd {
            CellCmd::AddJob { core, job } => {
                debug_assert!(cell.cores[core].is_none(), "placement on occupied core");
                cell.cores[core] = Some(*job);
            }
            CellCmd::Grant { epoch } => {
                return match exec_slice(cell, shared, me, *seq, epoch, chip) {
                    Ok(log) => {
                        shared.stats.record_slice(me, chip);
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

/// The body of one shard worker: step, blocking while the run queue is
/// empty, until shutdown drains it or a slice fails, and send each
/// outcome to the coordinator. A send fails only once the pool is gone,
/// and then nobody is owed the log. A shard panics on a cell that
/// refuses its lock, which its [`Lane`] reports.
fn shard_main(lane: Lane, shared: &PoolShared) {
    let mut seq = 0u64;
    loop {
        let step = shared.step(lane.me, true, &mut seq, |event| {
            let _ = lane.tx.send(event);
        });
        match step {
            Step::Ran => {}
            Step::Failed | Step::Idle => return,
            Step::Refused(chip) => panic!("chip {chip}'s cell refused its lock"),
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
    /// `drain`), then spawns `workers` shard threads.
    pub(crate) fn new(
        warmed: &[ChipSession],
        workers: usize,
        stats: Arc<RuntimeStats>,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        let cells = warmed
            .iter()
            .enumerate()
            .map(|(index, session)| Mutex::new(ChipCell::new(session.clone(), index, &drain)))
            .collect();
        let shared = Arc::new(PoolShared {
            cells,
            queues: warmed.iter().map(|_| Mutex::default()).collect(),
            run: RunQueue::default(),
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
            last_executor: vec![None; warmed.len()],
            failure: None,
        }
    }

    /// Queues a placement at its chip cell.
    pub(crate) fn add_job(&mut self, chip: usize, core: usize, job: CellJob) {
        let job = Box::new(job);
        self.shared.push_cmd(chip, CellCmd::AddJob { core, job });
    }

    /// Grants `busy` chips one quantum for `epoch`: queues a grant at
    /// each cell and puts each chip no executor has scheduled on the run
    /// queue. With no workers, steps here until the queue is empty, so
    /// every log is received before this returns.
    pub(crate) fn grant(&mut self, epoch: u64, busy: &[usize]) -> Result<(), ServeError> {
        self.outstanding
            .extend(busy.iter().map(|&chip| (epoch, chip)));
        self.shared.grant(epoch, busy);
        if !self.handles.is_empty() {
            return Ok(());
        }
        while self.failure.is_none() && self.help() {}
        self.pump()
    }

    /// Runs one step on this thread without blocking, as executor
    /// `workers` (executor 0 of a pool with no workers), filing what it
    /// emits straight into `receive`. Returns whether it ran a slice.
    /// It never waits for a cell lock nor unwraps one: a refused chip
    /// goes back on the run queue for a shard, whose panic ends the run.
    fn help(&mut self) -> bool {
        let shared = Arc::clone(&self.shared);
        let me = self.handles.len();
        let mut seq = self.next_seq[me];
        match shared.step(me, false, &mut seq, |event| self.receive(event)) {
            Step::Ran | Step::Failed => true,
            Step::Idle => false,
            Step::Refused(chip) => {
                shared.run.push(&[chip]);
                false
            }
        }
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
    /// until a shard reports a failure or a panic. While the run queue
    /// has a chip, the coordinator steps ([`ShardPool::help`]) instead
    /// of blocking, so it runs kernel slices while it would otherwise
    /// sleep. A pool whose workers have all exited without
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
        self.shared.run.shutdown();
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
            (0..shared.queues.len()).all(|chip| shared.queue(chip).cmds.is_empty()),
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
/// with workers still parked on the run queue; release them and wait,
/// or they would outlive the run holding the shared state.
impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.run.shutdown();
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
    use proptest::prelude::*;
    use std::time::{Duration, Instant};
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    const SLICE: u64 = 500;

    fn warmed(chips: usize) -> Vec<ChipSession> {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        warm_sessions(&cfg, chips, SLICE).unwrap()
    }

    fn pool(chips: usize, workers: usize) -> ShardPool {
        let stats = Arc::new(RuntimeStats::new(workers, chips));
        ShardPool::new(&warmed(chips), workers, stats, SLICE, DrainPlan::default())
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

    /// Polls `done` every millisecond, failing with `what` after ten
    /// seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The shard whose thread has ended, once one has: the run's own
    /// record of which shard died.
    fn dead_shard(pool: &ShardPool) -> usize {
        wait_until("no shard died", || {
            pool.handles.iter().any(JoinHandle::is_finished)
        });
        pool.handles
            .iter()
            .position(JoinHandle::is_finished)
            .expect("a shard ended")
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

    /// A shard that panics on a poisoned cell ends the run with a typed
    /// error naming it, in bounded time, at one worker and at two.
    /// Chip 0's cell is poisoned before its grant, so whichever shard
    /// pops it panics; the test reads which one died from the run and
    /// only then lets the coordinator wait, so the coordinator cannot
    /// pop chip 0 first.
    #[test]
    fn a_panicking_shard_ends_the_run_with_shard_failed() {
        for workers in [1, 2] {
            let mut pool = pool(workers, workers);
            poison(&pool.shared, 0);
            let busy: Vec<usize> = (0..workers).collect();
            pool.grant(0, &busy).unwrap();
            let dead = dead_shard(&pool);
            let (tx, rx) = mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let _ = tx.send(pool.wait_through(1));
            });
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)),
                Ok(Err(ServeError::ShardFailed { shard: dead })),
                "{workers} workers"
            );
            waiter.join().unwrap();
        }
    }

    /// A grant that reaches the cell a dead shard poisoned queues its
    /// command instead of panicking the caller. The shard never released
    /// chip 0, so the chip stays scheduled and off the run queue: the
    /// dead shard strands only the chip it held. The wait ends with that
    /// shard's typed failure, at one worker and at two.
    #[test]
    fn a_grant_to_a_poisoned_cell_ends_the_run_with_shard_failed() {
        for workers in [1, 2] {
            let mut pool = pool(2, workers);
            let shared = Arc::clone(&pool.shared);
            poison(&shared, 0);
            pool.grant(0, &[0]).unwrap();
            let dead = dead_shard(&pool);
            pool.grant(1, &[0, 1]).unwrap();
            {
                let queue = shared.queue(0);
                assert!(queue.scheduled, "the dead shard still holds chip 0");
                assert_eq!(queue.grants, 2, "both of chip 0's grants are queued");
            }
            assert!(!shared.run.queued().contains(&0), "chip 0 is not queued");
            let (tx, rx) = mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let _ = tx.send(pool.wait_through(2));
            });
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)),
                Ok(Err(ServeError::ShardFailed { shard: dead })),
                "{workers} workers"
            );
            waiter.join().unwrap();
        }
    }

    /// The coordinator never unwraps a cell lock: in a pool with no
    /// workers, a grant to a poisoned cell returns without running it
    /// and puts the chip back on the run queue, its log still owed.
    #[test]
    fn the_coordinator_puts_a_poisoned_cell_back_instead_of_running_it() {
        let mut pool = inline_pool(2);
        poison(&pool.shared, 0);
        assert_eq!(pool.grant(0, &[0, 1]), Ok(()));
        assert_eq!(pool.shared.run.queued(), [1, 0]);
        assert!(pool.received.is_empty(), "no slice ran");
        assert_eq!(pool.outstanding.len(), 2);
    }

    /// A placement and a grant take only the chip's queue lock and the
    /// run queue's, so neither waits for the slice an executor is
    /// running on the cell. The test acts as the executor that popped
    /// chip 0 for epoch 0 and holds its cell mid-slice, while a helper
    /// thread places a job there and grants both chips. Once the test
    /// lets the chip go, with grants left, it is queued again.
    #[test]
    fn a_grant_never_waits_for_a_running_slice() {
        let mut pool = pool(2, 1);
        let shared = Arc::clone(&pool.shared);
        assert!(shared.push_cmd(0, CellCmd::Grant { epoch: 0 }));
        pool.outstanding.insert((0, 0));
        let held = shared.cells[0].lock().unwrap();
        let (tx, rx) = mpsc::channel();
        let granter = std::thread::spawn(move || {
            pool.add_job(0, 0, job(0));
            pool.grant(1, &[0, 1]).unwrap();
            let _ = tx.send(());
            pool
        });
        let granted = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        shared.release(0);
        assert_eq!(granted, Ok(()), "the grant waited for the held cell");
        let mut pool = granter.join().unwrap();
        assert_eq!(pool.wait_through(2), Ok(()));
        for (epoch, chip) in [(0, 0), (1, 0), (1, 1)] {
            let log = pool.log(epoch, chip);
            assert_eq!((log.epoch, log.chip), (epoch, chip));
        }
    }

    /// A step installs the placements queued ahead of the chip's next
    /// grant and runs that one slice, and it runs and emits the slice
    /// without holding the chip's queue lock, so a push never waits for
    /// a slice.
    #[test]
    fn a_claim_runs_one_slice_without_its_queue_lock() {
        let mut pool = inline_pool(1);
        pool.add_job(0, 0, job(0));
        let shared = &pool.shared;
        shared.push_cmd(0, CellCmd::Grant { epoch: 0 });
        shared.push_cmd(0, CellCmd::Grant { epoch: 1 });
        let mut cell = shared.cells[0].lock().unwrap();
        let mut emitted = Vec::new();
        let ran = drain_cell(shared, &mut cell, 0, 0, &mut 0, |event| {
            let ShardEvent::Slice(log) = event else {
                panic!("the slice failed");
            };
            emitted.push((log.epoch, shared.queues[0].try_lock().is_ok()));
        });
        assert!(ran);
        assert_eq!(emitted, [(0, true)], "one slice, queue lock free");
        assert_eq!(shared.queue(0).cmds.len(), 1, "epoch 1's grant is left");
        assert_eq!(shared.queue(0).grants, 1);
        assert!(cell.cores[0].is_some(), "the placement was installed");
    }

    /// A chip goes on the run queue once, however many grants wait for
    /// it, and the step that runs one of them puts it back, behind the
    /// chips queued meanwhile, only while another waits.
    #[test]
    fn a_chip_is_on_the_run_queue_at_most_once() {
        let pool = inline_pool(2);
        let shared = &pool.shared;
        for epoch in 0..3 {
            shared.grant(epoch, &[0]);
        }
        shared.grant(3, &[1, 0]);
        assert_eq!(shared.run.queued(), [0, 1]);
        let mut ran = Vec::new();
        let mut seq = 0;
        while shared.step(0, false, &mut seq, |event| {
            if let ShardEvent::Slice(log) = event {
                ran.push((log.chip, log.epoch));
            }
        }) == Step::Ran
        {
            let queued = shared.run.queued();
            assert!(queued.len() <= 1 || queued[0] != queued[1], "{queued:?}");
        }
        assert_eq!(ran, [(0, 0), (1, 3), (0, 1), (0, 2), (0, 3)]);
        assert!((0..2).all(|chip| !shared.queue(chip).scheduled));
    }

    /// The run queue's lock recovers from poisoning as the command
    /// queues' do: with it poisoned, grants and their wait still bring
    /// in every log, at zero workers and at one.
    #[test]
    fn a_poisoned_run_queue_still_runs_every_grant() {
        for workers in [0, 1] {
            let mut pool = pool(2, workers);
            pool.shared.run.poison();
            pool.add_job(0, 0, job(0));
            for epoch in 0..2 {
                pool.grant(epoch, &[0, 1]).unwrap();
            }
            assert_eq!(pool.wait_through(2), Ok(()), "{workers} workers");
            for epoch in 0..2 {
                for chip in 0..2 {
                    assert_eq!(pool.take_log(epoch, chip).chip, chip);
                }
            }
            assert!(pool.finish().is_ok(), "{workers} workers");
        }
    }

    /// The waiting coordinator runs queued slices itself, as executor
    /// `workers`, while the shard is stuck. The test holds chip 0's
    /// queue lock, then schedules chip 0 and queues it: the shard pops
    /// it, takes its cell and blocks on the queue lock, mid-step. Chips
    /// 1 and 2 are granted behind it, and the coordinator must run both
    /// while the shard is stuck, then sleep until the shard's log comes.
    #[test]
    fn the_waiting_coordinator_drains_a_cell_the_shard_has_not_reached() {
        let mut pool = pool(3, 1);
        let shared = Arc::clone(&pool.shared);
        pool.outstanding.extend((0..3).map(|chip| (0, chip)));
        assert!(shared.push_cmd(0, CellCmd::Grant { epoch: 0 }));
        let held = shared.queue(0);
        shared.run.push(&[0]);
        wait_until("the shard did not pop chip 0", || {
            shared.run.queued().is_empty()
        });
        shared.grant(0, &[1, 2]);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let outcome = pool.wait_through(1);
            let _ = tx.send((outcome, pool));
        });
        wait_until("the coordinator did not run both slices", || {
            shared.stats.status(0).coordinator_slices == 2
        });
        let status = shared.stats.status(0);
        assert_eq!(status.shards[0].slices_owned, 0, "the shard is stuck");
        drop(held);
        let (outcome, pool) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait ends once the shard is free");
        assert_eq!(outcome, Ok(()));
        let executors: Vec<usize> = (0..3).map(|chip| pool.log(0, chip).shard).collect();
        assert_eq!(executors, [0, 1, 1], "chips 1 and 2 ran on the coordinator");
        waiter.join().unwrap();
    }

    /// A virtual executor of the seeded host, between two operations:
    /// idle, holding the cell of a chip it popped, or done with the
    /// chip's slice and its cell but yet to release the chip. These are
    /// the three parts of [`PoolShared::step`].
    enum Virtual<'a> {
        Idle,
        Holding(usize, MutexGuard<'a, ChipCell>),
        Ran(usize),
    }

    /// Checks the claim protocol's invariants between two operations:
    /// each chip is on the run queue at most once, a queued chip has a
    /// grant waiting, a chip is scheduled exactly when it is queued or
    /// an executor has it, and no grant waits on an unscheduled chip.
    fn check_claims(shared: &PoolShared, executors: &[Virtual]) -> Result<(), TestCaseError> {
        let queued = shared.run.queued();
        for chip in 0..shared.queues.len() {
            let on_queue = queued.iter().filter(|&&c| c == chip).count();
            prop_assert!(on_queue <= 1, "chip {} queued {} times", chip, on_queue);
            let held = executors.iter().any(|v| match v {
                Virtual::Holding(c, _) | Virtual::Ran(c) => *c == chip,
                Virtual::Idle => false,
            });
            let queue = shared.queue(chip);
            prop_assert!(
                on_queue == 0 || queue.grants > 0,
                "chip {} is queued with no grant waiting",
                chip
            );
            prop_assert!(
                !(held && on_queue > 0),
                "chip {} is queued while held",
                chip
            );
            prop_assert_eq!(
                queue.scheduled,
                held || on_queue > 0,
                "chip {} scheduled",
                chip
            );
            prop_assert!(
                queue.grants == 0 || queue.scheduled,
                "chip {} stranded",
                chip
            );
        }
        Ok(())
    }

    proptest! {
        /// The claim protocol under interleavings a seeded chooser picks
        /// on one thread: placements, grants of any subset of 1–4 chips,
        /// and the three parts of a step by any of 1–8 virtual
        /// executors. After every operation the protocol's invariants
        /// hold ([`check_claims`]), and every claim takes its cell with
        /// `try_lock` on the first try. Once the chooser stops and the
        /// executors drain the queue, every granted `(epoch, chip)` has
        /// exactly one log, each chip's in epoch order, every job ended
        /// on the slice the decision loop predicts, and every queue is
        /// empty. The case count is pinned by `PROPTEST_CASES`.
        #[test]
        fn the_claim_protocol_queues_each_chip_at_most_once(
            seed in 0u64..u64::MAX,
            chips in 1usize..=4,
            workers in 1usize..=8,
            ops in 20usize..300,
        ) {
            // A pool with no threads of its own, its counters sized for
            // the virtual executors.
            let stats = Arc::new(RuntimeStats::new(workers, chips));
            let pool = ShardPool::new(&warmed(chips), 0, stats, SLICE, DrainPlan::default());
            let shared = &pool.shared;
            let mut rng = TestRng::new(seed);
            let mut executors: Vec<Virtual> = (0..workers).map(|_| Virtual::Idle).collect();
            let mut seqs = vec![0u64; workers];
            // The decision loop's shadow: per core, the resident job and
            // the slices it has left.
            let mut shadow = vec![[None::<(u64, u64)>; 2]; chips];
            let mut jobs = 0u64;
            let mut granted = BTreeMap::new();
            let mut logs = Vec::new();
            // Operation `ops` grants every chip, so every placement is
            // drained; after it the executors only step, until the
            // queue is drained.
            for op in 0.. {
                let quiet = executors.iter().all(|v| matches!(v, Virtual::Idle))
                    && shared.run.queued().is_empty();
                if op > ops && quiet {
                    break;
                }
                let choice = match op.cmp(&ops) {
                    std::cmp::Ordering::Less => rng.below(8),
                    std::cmp::Ordering::Equal => 1,
                    std::cmp::Ordering::Greater => 7,
                };
                match choice {
                    0 => {
                        let chip = rng.below(chips as u64) as usize;
                        let core = rng.below(2) as usize;
                        if shadow[chip][core].is_none() {
                            let job = job(jobs);
                            let slices = job.stream.total_cycles() / SLICE;
                            shadow[chip][core] = Some((jobs, slices));
                            jobs += 1;
                            shared.push_cmd(chip, CellCmd::AddJob { core, job: Box::new(job) });
                        }
                    }
                    1 | 2 => {
                        let all = (1 << chips) - 1;
                        let mask = if op == ops { all } else { 1 + rng.below(all) };
                        let busy: Vec<usize> = (0..chips).filter(|c| mask >> c & 1 == 1).collect();
                        let epoch = granted.len() as u64;
                        for &chip in &busy {
                            let mut finished = [None, None];
                            for (slot, out) in shadow[chip].iter_mut().zip(&mut finished) {
                                if let Some((job, left)) = slot {
                                    *left -= 1;
                                    if *left == 0 {
                                        *out = Some(*job);
                                        *slot = None;
                                    }
                                }
                            }
                            granted.insert((epoch, chip), finished);
                        }
                        shared.grant(epoch, &busy);
                    }
                    _ => {
                        let me = rng.below(workers as u64) as usize;
                        executors[me] = match std::mem::replace(&mut executors[me], Virtual::Idle) {
                            Virtual::Idle => match shared.run.pop(false) {
                                Some(chip) => {
                                    let cell = shared.cells[chip].try_lock();
                                    prop_assert!(cell.is_ok(), "chip {}'s cell was taken", chip);
                                    Virtual::Holding(chip, cell.unwrap())
                                }
                                None => Virtual::Idle,
                            },
                            Virtual::Holding(chip, mut cell) => {
                                let ran = drain_cell(shared, &mut cell, me, chip, &mut seqs[me], |event| {
                                    logs.push(event);
                                });
                                prop_assert!(ran, "chip {}'s slice failed", chip);
                                Virtual::Ran(chip)
                            }
                            Virtual::Ran(chip) => {
                                shared.release(chip);
                                Virtual::Idle
                            }
                        };
                    }
                }
                check_claims(shared, &executors)?;
            }
            let mut last = vec![None; chips];
            let mut seen = BTreeMap::new();
            for event in logs {
                let ShardEvent::Slice(log) = event else {
                    return Err(TestCaseError::fail("a slice failed"));
                };
                prop_assert!(last[log.chip] < Some(log.epoch), "chip {} out of epoch order", log.chip);
                last[log.chip] = Some(log.epoch);
                prop_assert!(seen.insert((log.epoch, log.chip), log.finished).is_none());
            }
            prop_assert_eq!(seen, granted);
            for chip in 0..chips {
                let queue = shared.queue(chip);
                prop_assert!(queue.cmds.is_empty() && queue.grants == 0 && !queue.scheduled);
            }
        }
    }
}

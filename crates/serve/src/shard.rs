//! The service's executor: chips packaged as self-contained cells in
//! one pool, advanced slice by slice for the decision loop.
//!
//! The pool has one lock and two condvars. Under the lock, each chip's
//! slot holds its queued commands ([`CellCmd`]) in FIFO order, its
//! grant count, its queue's high-water mark, its place in the claim
//! protocol below and, while no executor has claimed the chip, its
//! cell; beside the slots sit the FIFO of runnable chips, the count of
//! parked executors and the shutdown flag, and the run's results: the
//! [`SliceLog`]s filed and not yet collected, the first failure, and
//! each executor's counters. No critical section runs a slice, so a
//! placement or a grant never waits for one.
//!
//! Every executor runs one step, in three parts:
//!
//! * **claim**, one critical section: pop the oldest runnable chip,
//!   take its cell out of its slot, and pop its commands through its
//!   next grant;
//! * **slice**, with no lock held: install the placements and run the
//!   granted slice;
//! * **release**, one critical section: put the cell back, file the
//!   slice's log, and make the chip runnable again only if another
//!   grant waits. A slice that fails files its error instead and keeps
//!   its claim.
//!
//! A chip is *scheduled* from the grant that makes it runnable until the
//! release that finds no grant left, and it is runnable at most once, so
//! no two executors ever claim it: the executor holding the claim owns
//! the chip's cell outright. A log is filed in the critical section
//! that brings its cell home, so once every granted log is collected,
//! every cell is in its slot. A runnable chip with no grant queued, or
//! whose cell is claimed, is a protocol bug, and its claim panics once
//! the lock is dropped. Three hosts drive the step:
//!
//! * with one or more workers, long-lived shard threads, which block
//!   while nothing is runnable and run the lean fused step
//!   ([`ChipSession::run_slice_fast`]). A shard that panics files
//!   [`ServeError::ShardFailed`] on its way out, so the run ends with
//!   it instead of waiting for a log that will never come;
//! * the waiting coordinator: before [`ShardPool::wait_through`] would
//!   block, it steps without blocking, as executor `workers`, on the
//!   same fused step;
//! * with no workers, [`ShardPool::grant`], which steps until nothing
//!   is runnable, on the historical dyn-dispatch reference step, so every
//!   log is in before it returns and the merge runs in lockstep with
//!   the decision loop: the in-line coordinator, the byte oracle
//!   `tests/shard_equivalence.rs` holds the shard runtime to.
//!
//! Every log takes one path to the merge layer, whichever host made it:
//! the coordinator collects the filed logs in one critical section, and
//! waits on the second condvar only while nothing is filed, runnable or
//! failed. The merge layer cannot tell executors apart. Executors only
//! simulate and drain the captures the [`DrainPlan`] names; the merge
//! layer makes every trace record. The fused step is bit-identical to
//! the reference step (window capture and the invariant checker riding
//! along), so every sharded run is also a differential test of it.
//!
//! Every pool's cells start from clones of chip sessions the service
//! warmed up once, on the fused step ([`warm_sessions`]), whose
//! warm-up is bit-identical to the reference step's.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::control::{CellCmd, CellJob, SliceLog};
use crate::introspect::{DecisionCounters, ExecutorCounters};
use crate::ServeError;
use vsmooth_chip::{
    Chip, ChipConfig, ChipError, ChipSession, InvariantConfig, SliceStats, WindowConfig,
};
use vsmooth_obs::ShardsStatus;
use vsmooth_uarch::{IdleLoop, StimulusSource};

/// One pool member: a warmed-up measurement session plus whatever is
/// running on its two cores. Cells own their chips end-to-end; only
/// the executor holding the chip's claim (a shard or the coordinator)
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
    /// The tracer, monitor or obs wants each slice's crossings as a
    /// `DroopBatch`. Implies `crossings`.
    pub droop_events: bool,
    /// Waveform windows of this shape are captured and drained (the
    /// profiler scores them). Implies `crossings`.
    pub windows: Option<WindowConfig>,
    pub invariants: bool,
    /// The capture margin, in percent below nominal.
    pub margin: f64,
}

/// One chip's slot in the pool state: its pending commands, its place
/// in the claim protocol and, while no executor has claimed the chip,
/// its cell.
#[derive(Debug, Default)]
struct ChipSlot {
    /// The commands, oldest first.
    cmds: VecDeque<CellCmd>,
    /// The deepest `cmds` has been: the chip's queue high-water mark.
    queue_hwm: u64,
    /// Grants among `cmds`: slices granted and not yet claimed.
    grants: usize,
    /// The chip is runnable or claimed. A grant makes the chip runnable
    /// only while this is unset, and the release that finds no grant
    /// left unsets it.
    scheduled: bool,
    /// The chip's cell, out of its slot exactly while an executor holds
    /// the chip's claim.
    cell: Option<Box<ChipCell>>,
}

impl ChipSlot {
    /// Takes chip `chip`'s claim: its cell, and its commands through its
    /// next grant. Takes nothing if no grant is queued or the cell is
    /// already claimed.
    fn take_claim(&mut self, chip: usize) -> Option<Claim> {
        if self.grants == 0 {
            return None;
        }
        let cell = self.cell.take()?;
        self.grants -= 1;
        let mut placements = Vec::new();
        loop {
            match self.cmds.pop_front()? {
                CellCmd::AddJob { core, job } => placements.push((core, job)),
                CellCmd::Grant { epoch } => {
                    return Some(Claim {
                        chip,
                        epoch,
                        cell,
                        placements,
                    })
                }
            }
        }
    }
}

/// Everything behind the pool's one lock.
#[derive(Debug, Default)]
struct PoolState {
    chips: Vec<ChipSlot>,
    /// The scheduled chips no executor has claimed, oldest first.
    runnable: VecDeque<usize>,
    /// Executors parked in a blocking claim.
    parked: usize,
    shutdown: bool,
    /// Slice logs filed by releases and not yet collected.
    filed: Vec<SliceLog>,
    /// The first failure filed: a failed slice's or a panicking shard's.
    failure: Option<ServeError>,
    /// One counter block per executor: the shards in shard order, then
    /// the coordinator, executor `workers` (executor 0 of a pool with no
    /// workers).
    executors: Vec<ExecutorCounters>,
    /// The coordinator waits to collect; the next release wakes it.
    collecting: bool,
}

impl PoolState {
    /// Queues `cmd` at chip `chip`. A grant to a chip nobody has
    /// scheduled makes it runnable.
    fn push(&mut self, chip: usize, cmd: CellCmd) {
        let slot = &mut self.chips[chip];
        if let CellCmd::Grant { .. } = cmd {
            slot.grants += 1;
            if !std::mem::replace(&mut slot.scheduled, true) {
                self.runnable.push_back(chip);
            }
        }
        slot.cmds.push_back(cmd);
        slot.queue_hwm = slot.queue_hwm.max(slot.cmds.len() as u64);
    }
}

/// An executor's claim on one chip, from claim to release: the chip's
/// cell, which the executor owns meanwhile, the placements queued ahead
/// of the grant, and the grant's epoch.
#[derive(Debug)]
struct Claim {
    chip: usize,
    epoch: u64,
    cell: Box<ChipCell>,
    placements: Vec<(usize, Box<CellJob>)>,
}

impl Claim {
    /// The slice part of a step, with no lock held: installs the
    /// placements, runs the granted slice on the pool's step and drains
    /// the captures the [`DrainPlan`] names into a log made as executor
    /// `me`'s.
    fn run(&mut self, shared: &PoolShared, me: usize) -> Result<SliceLog, ChipError> {
        let cell = &mut *self.cell;
        for (core, job) in std::mem::take(&mut self.placements) {
            debug_assert!(cell.cores[core].is_none(), "placement on occupied core");
            cell.cores[core] = Some(*job);
        }
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
        Ok(SliceLog {
            shard: me,
            epoch: self.epoch,
            chip: self.chip,
            session_start,
            stats,
            crossings,
            windows,
            invariant_violations,
            finished: cell.pop_finished(),
        })
    }
}

/// State shared between the coordinator and the shard workers.
#[derive(Debug)]
struct PoolShared {
    /// The pool's one lock. Every critical section moves a few pointers
    /// and counts; none runs a slice.
    state: Mutex<PoolState>,
    /// Wakes executors parked in a blocking claim.
    ready: Condvar,
    /// Wakes the coordinator waiting to collect.
    collected: Condvar,
    slice_cycles: u64,
    drain: DrainPlan,
    /// Cells run slices on the lean fused step. Only a pool with no
    /// workers keeps the reference step, as the oracle.
    fused: bool,
}

impl PoolShared {
    /// The pool state. Nothing panics while holding its lock, so a
    /// poisoned one still holds whole commands and true counts.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a placement at chip `chip`.
    fn place(&self, chip: usize, core: usize, job: Box<CellJob>) {
        self.state().push(chip, CellCmd::AddJob { core, job });
    }

    /// Queues a grant for `epoch` at each chip in `busy`, in one critical
    /// section that makes each chip nobody has scheduled runnable, in
    /// `busy` order, then wakes one parked executor per chip it made
    /// runnable, no more than are parked.
    fn grant(&self, epoch: u64, busy: &[usize]) {
        let mut state = self.state();
        let runnable = state.runnable.len();
        for &chip in busy {
            state.push(chip, CellCmd::Grant { epoch });
        }
        let wakes = (state.runnable.len() - runnable).min(state.parked);
        drop(state);
        for _ in 0..wakes {
            self.ready.notify_one();
        }
    }

    /// The claim part of a step, one critical section: pops the oldest
    /// runnable chip, takes its cell and pops its commands through its
    /// next grant. With `block`, waits while nothing is runnable and
    /// returns `None` only once the pool is shut down and drained;
    /// without, returns `None` whenever nothing is runnable. A runnable
    /// chip with no grant queued, or whose cell is claimed, is a
    /// protocol bug: the claim panics, once the lock is dropped.
    fn claim(&self, block: bool) -> Option<Claim> {
        let mut state = self.state();
        let chip = loop {
            if let Some(chip) = state.runnable.pop_front() {
                break chip;
            }
            if !block || state.shutdown {
                return None;
            }
            state.parked += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        };
        let claim = state.chips[chip].take_claim(chip);
        drop(state);
        Some(claim.unwrap_or_else(|| {
            panic!("chip {chip} was runnable with no grant queued or its cell claimed")
        }))
    }

    /// The release part of a step, one critical section: puts the cell
    /// back, files `log` and counts it to its executor, and, if another
    /// grant waits, makes the chip runnable again and wakes a parked
    /// executor for it; otherwise unschedules the chip, so the next
    /// grant makes it runnable. Wakes the coordinator if it waits to
    /// collect.
    fn release(&self, claim: Claim, log: SliceLog) {
        let mut guard = self.state();
        let state = &mut *guard;
        state.executors[log.shard].record_filed();
        state.filed.push(log);
        let slot = &mut state.chips[claim.chip];
        slot.cell = Some(claim.cell);
        slot.scheduled = slot.grants > 0;
        if slot.scheduled {
            state.runnable.push_back(claim.chip);
        }
        let wake = slot.scheduled && state.parked > 0;
        let collector = std::mem::take(&mut state.collecting);
        drop(guard);
        if wake {
            self.ready.notify_one();
        }
        if collector {
            self.collected.notify_one();
        }
    }

    /// Files `error` as the run's failure, unless one is filed already,
    /// and wakes the coordinator; failures are rare, so it always does.
    fn fail(&self, error: ServeError) {
        self.state().failure.get_or_insert(error);
        self.collected.notify_one();
    }

    /// One executor step, the only routine a host drives: claims a
    /// runnable chip (waiting for one if `block`), runs its slice as
    /// executor `me` with no lock held, and releases the chip with its
    /// log. Returns whether it ran a slice. A slice that fails files its
    /// error and keeps its claim; the run ends on the failure.
    fn step(&self, me: usize, block: bool) -> bool {
        let Some(mut claim) = self.claim(block) else {
            return false;
        };
        match claim.run(self, me) {
            Ok(log) => {
                self.release(claim, log);
                true
            }
            Err(error) => {
                self.fail(ServeError::Chip(error));
                false
            }
        }
    }

    /// Lets every executor drain what is runnable and stop.
    fn shutdown(&self) {
        self.state().shutdown = true;
        self.ready.notify_all();
    }
}

/// The body of one shard worker: step, blocking while nothing is
/// runnable, until shutdown drains the pool or a slice fails. A claim
/// that breaks the protocol panics; the shard then files
/// [`ServeError::ShardFailed`] and ends.
fn shard_main(shared: &PoolShared, me: usize) {
    let steps = AssertUnwindSafe(|| while shared.step(me, true) {});
    if std::panic::catch_unwind(steps).is_err() {
        shared.fail(ServeError::ShardFailed { shard: me });
    }
}

/// The service's one executor: the chip pool plus `workers` long-lived
/// shard threads that own it for the duration of a run, or none, and
/// the coordinator that runs slices while it waits (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Granted `(epoch, chip)` slices whose logs are not collected yet.
    outstanding: BTreeSet<(u64, usize)>,
    /// Logs collected but not yet consumed by the merge layer.
    received: BTreeMap<(u64, usize), SliceLog>,
    /// The decision loop's live counters, which only this thread touches.
    decisions: DecisionCounters,
}

impl ShardPool {
    /// Builds one cell per `warmed` session (a clone, armed from
    /// `drain`), then spawns `workers` shard threads.
    pub(crate) fn new(
        warmed: &[ChipSession],
        workers: usize,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        let chips = warmed
            .iter()
            .enumerate()
            .map(|(index, session)| ChipSlot {
                cell: Some(Box::new(ChipCell::new(session.clone(), index, &drain))),
                ..ChipSlot::default()
            })
            .collect();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                chips,
                executors: vec![ExecutorCounters::default(); workers + 1],
                ..PoolState::default()
            }),
            ready: Condvar::new(),
            collected: Condvar::new(),
            slice_cycles,
            drain,
            fused: workers > 0,
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vsmooth-shard{me}"))
                    .spawn(move || shard_main(&shared, me))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            shared,
            handles,
            outstanding: BTreeSet::new(),
            received: BTreeMap::new(),
            decisions: DecisionCounters::default(),
        }
    }

    /// Queues a placement at its chip.
    pub(crate) fn add_job(&mut self, chip: usize, core: usize, job: CellJob) {
        self.shared.place(chip, core, Box::new(job));
    }

    /// Grants `busy` chips one quantum for `epoch`, the last decision of
    /// the epoch: queues a grant at each chip, makes each chip nobody has
    /// scheduled runnable, and counts the grants and the decided epoch.
    /// With no workers, steps here until nothing is runnable, so every
    /// log is collected before this returns.
    pub(crate) fn grant(&mut self, epoch: u64, busy: &[usize]) -> Result<(), ServeError> {
        self.outstanding
            .extend(busy.iter().map(|&chip| (epoch, chip)));
        self.decisions.grants += busy.len() as u64;
        self.decisions.epochs_decided += 1;
        self.shared.grant(epoch, busy);
        if !self.handles.is_empty() {
            return Ok(());
        }
        while self.help() {}
        self.collect(false)
    }

    /// Runs one step on this thread without blocking, as executor
    /// `workers` (executor 0 of a pool with no workers). Returns whether
    /// it ran a slice.
    fn help(&self) -> bool {
        self.shared.step(self.handles.len(), false)
    }

    /// Moves every filed log into `received`, in one critical section,
    /// and returns the first failure filed, if any. With `block`, first
    /// waits while nothing is filed, runnable or failed. A pool with no
    /// workers would wait there forever with a log still owed, which is
    /// a runtime bug, not a recoverable condition: it panics instead,
    /// once the lock is dropped.
    fn collect(&mut self, block: bool) -> Result<(), ServeError> {
        let mut state = self.shared.state();
        while block
            && state.filed.is_empty()
            && state.runnable.is_empty()
            && state.failure.is_none()
        {
            if self.handles.is_empty() {
                drop(state);
                panic!("all shard workers exited with granted slices still outstanding");
            }
            state.collecting = true;
            state = self
                .shared
                .collected
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        for executor in &mut state.executors {
            executor.filed = 0;
        }
        for log in state.filed.drain(..) {
            self.outstanding.remove(&(log.epoch, log.chip));
            self.received.insert((log.epoch, log.chip), log);
        }
        state.failure.clone().map_or(Ok(()), Err)
    }

    /// Whether every log for epochs `< bound` is in. `outstanding` is
    /// ordered by `(epoch, chip)`, so its first key decides.
    fn has_through(&self, bound: u64) -> bool {
        self.outstanding
            .first()
            .is_none_or(|&(epoch, _)| epoch >= bound)
    }

    /// Blocks until every log for epochs `< bound` is in, or until an
    /// executor files a failure. While a chip is runnable, the
    /// coordinator steps ([`ShardPool::help`]) instead of blocking, so
    /// it runs kernel slices while it would otherwise sleep.
    pub(crate) fn wait_through(&mut self, bound: u64) -> Result<(), ServeError> {
        let mut block = false;
        loop {
            self.collect(block)?;
            if self.has_through(bound) {
                return Ok(());
            }
            block = !self.help();
        }
    }

    /// Non-blocking: whether every log for epochs `< bound` is in.
    pub(crate) fn ready_through(&mut self, bound: u64) -> Result<bool, ServeError> {
        self.collect(false)?;
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

    /// Records one decision-loop latency sample, in microseconds.
    pub(crate) fn record_decision_latency(&mut self, micros: u64) {
        self.decisions.record_latency(micros);
    }

    /// Slices run by every executor together.
    pub(crate) fn slices_total(&self) -> u64 {
        self.shared.state().executors.iter().map(|e| e.slices).sum()
    }

    /// The live `/shards` section, its lag measured against the merge
    /// layer's `epochs_merged`; `None` for a pool with no workers, which
    /// has no shard runtime to introspect.
    pub(crate) fn status(&self, epochs_merged: u64) -> Option<ShardsStatus> {
        if self.handles.is_empty() {
            return None;
        }
        let state = self.shared.state();
        let queue_hwm = state.chips.iter().map(|slot| slot.queue_hwm).collect();
        Some(
            self.decisions
                .status(&state.executors, queue_hwm, epochs_merged),
        )
    }

    /// Returns the cells in chip order for end-of-run flushing
    /// (late-sealing droop windows, measured-cycle totals), or the first
    /// failure filed. A log is filed only once its cell is home, so with
    /// every granted log in, every cell is in its slot; the pool shuts
    /// down as it drops.
    pub(crate) fn finish(mut self) -> Result<Vec<ChipCell>, ServeError> {
        self.collect(false)?;
        debug_assert!(self.outstanding.is_empty(), "granted logs still owed");
        let mut state = self.shared.state();
        debug_assert!(
            state.chips.iter().all(|slot| slot.cmds.is_empty()),
            "commands left undrained at shutdown"
        );
        Ok(state
            .chips
            .iter_mut()
            .map(|slot| *slot.cell.take().expect("every claim released"))
            .collect())
    }
}

/// Early error returns (queue overflow, chip failure) drop the pool
/// with workers still parked in a claim, and `finish` leaves them
/// there; release them and wait, or they would outlive the run holding
/// the shared state.
impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.shutdown();
        for handle in self.handles.drain(..) {
            // A shard that panicked filed its failure and ended; its
            // join cannot fail.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
impl PoolShared {
    /// The runnable chips, oldest first.
    fn runnable(&self) -> Vec<usize> {
        self.state().runnable.iter().copied().collect()
    }

    /// Poisons the pool lock, as a panic inside a critical section
    /// would.
    fn poison(&self) {
        let _ = std::panic::catch_unwind(|| {
            let _state = self.state.lock();
            panic!("poisoning the pool lock");
        });
        assert!(self.state.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    const SLICE: u64 = 500;

    fn warmed(chips: usize) -> Vec<ChipSession> {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        warm_sessions(&cfg, chips, SLICE).unwrap()
    }

    fn pool(chips: usize, workers: usize) -> ShardPool {
        ShardPool::new(&warmed(chips), workers, SLICE, DrainPlan::default())
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
                let log = pool.take_log(epoch, chip);
                assert_eq!((log.epoch, log.chip, log.shard), (epoch, chip, 0));
                assert_eq!(log.stats.cycles, SLICE);
            }
        }
        assert_eq!(pool.slices_total(), 6);
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

    /// Makes `chip` runnable with no grant queued, the state only a
    /// protocol bug reaches, and wakes every parked shard: whichever
    /// claims the chip panics.
    fn break_protocol(shared: &PoolShared, chip: usize) {
        let mut state = shared.state();
        state.chips[chip].scheduled = true;
        state.runnable.push_back(chip);
        drop(state);
        shared.ready.notify_all();
    }

    /// Runs `pool.wait_through(bound)` on a thread of its own and
    /// returns its outcome, failing after ten seconds.
    fn bounded_wait(mut pool: ShardPool, bound: u64) -> Result<(), ServeError> {
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(pool.wait_through(bound));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait ended within ten seconds");
        waiter.join().unwrap();
        outcome
    }

    /// A claim that finds no grant panics, and the shard that made it
    /// ends the run with a typed error naming it, in bounded time, at
    /// one worker and at two. The test reads which shard died from the
    /// run, and only then grants and lets the coordinator wait, so the
    /// grant cannot mend the broken chip first.
    #[test]
    fn a_panicking_shard_ends_the_run_with_shard_failed() {
        for workers in [1, 2] {
            let mut pool = pool(workers, workers);
            break_protocol(&pool.shared, 0);
            let dead = dead_shard(&pool);
            let busy: Vec<usize> = (0..workers).collect();
            pool.grant(0, &busy).unwrap();
            assert_eq!(
                bounded_wait(pool, 1),
                Err(ServeError::ShardFailed { shard: dead }),
                "{workers} workers"
            );
        }
    }

    /// A grant to the chip a dead shard stranded only queues: the chip
    /// stays scheduled and never runnable again, so nothing claims it,
    /// and the grant does not panic the caller. The wait ends with the
    /// dead shard's typed failure, at one worker and at two.
    #[test]
    fn a_grant_to_a_stranded_chip_ends_the_run_with_shard_failed() {
        for workers in [1, 2] {
            let mut pool = pool(2, workers);
            break_protocol(&pool.shared, 0);
            let dead = dead_shard(&pool);
            pool.grant(0, &[0]).unwrap();
            pool.grant(1, &[0, 1]).unwrap();
            {
                let state = pool.shared.state();
                let slot = &state.chips[0];
                assert!(slot.scheduled, "chip 0 is still scheduled");
                assert_eq!(slot.grants, 2, "both of chip 0's grants are queued");
                assert!(!state.runnable.contains(&0), "chip 0 is not runnable");
            }
            assert_eq!(
                bounded_wait(pool, 2),
                Err(ServeError::ShardFailed { shard: dead }),
                "{workers} workers"
            );
        }
    }

    /// A placement and a grant take only the pool lock, which no claim
    /// holds, so neither waits for a claimed chip's slice. The test
    /// claims chip 0 for epoch 0 and holds the claim while a helper
    /// thread places a job there and grants both chips. Once the test
    /// runs and releases its claim, with a grant left, the chip is
    /// runnable again and the wait brings in every log.
    #[test]
    fn a_grant_never_waits_for_a_held_claim() {
        let mut pool = inline_pool(2);
        let shared = Arc::clone(&pool.shared);
        shared.grant(0, &[0]);
        pool.outstanding.insert((0, 0));
        let mut claim = shared.claim(false).expect("chip 0 is runnable");
        let (tx, rx) = mpsc::channel();
        let granter = std::thread::spawn(move || {
            pool.add_job(0, 0, job(0));
            pool.grant(1, &[0, 1]).unwrap();
            let _ = tx.send(());
            pool
        });
        let granted = rx.recv_timeout(Duration::from_secs(10));
        let log = claim.run(&shared, 0).expect("the slice runs");
        shared.release(claim, log);
        assert_eq!(granted, Ok(()), "the grant waited for the held claim");
        let mut pool = granter.join().unwrap();
        assert_eq!(pool.wait_through(2), Ok(()));
        for (epoch, chip) in [(0, 0), (1, 0), (1, 1)] {
            let log = pool.log(epoch, chip);
            assert_eq!((log.epoch, log.chip), (epoch, chip));
        }
    }

    /// A claim takes the chip's cell and the placements queued ahead of
    /// its grant, and leaves later grants queued; its slice installs
    /// the placements and runs that one slice while the test holds the
    /// pool lock, so the slice never takes it.
    #[test]
    fn a_claim_installs_its_placements_and_runs_one_slice_with_the_pool_lock_free() {
        let mut pool = inline_pool(1);
        pool.add_job(0, 0, job(0));
        let shared = &pool.shared;
        shared.grant(0, &[0]);
        shared.grant(1, &[0]);
        let mut claim = shared.claim(false).expect("chip 0 is runnable");
        assert_eq!((claim.chip, claim.epoch, claim.placements.len()), (0, 0, 1));
        {
            let state = shared.state();
            let slot = &state.chips[0];
            assert_eq!(slot.cmds.len(), 1, "epoch 1's grant is left");
            assert_eq!(slot.grants, 1);
            assert!(slot.cell.is_none(), "the claim holds the cell");
        }
        let ran = std::thread::scope(|scope| {
            // Held on this thread, and dropped before the scope joins the
            // slice's thread if the wait fails.
            let _state = shared.state();
            let slice = scope.spawn(|| claim.run(shared, 0));
            wait_until("the slice waited for the pool lock", || slice.is_finished());
            slice.join().unwrap()
        });
        let log = ran.expect("the slice runs");
        assert_eq!((log.epoch, log.chip, log.stats.cycles), (0, 0, SLICE));
        assert!(claim.cell.cores[0].is_some(), "the placement was installed");
    }

    #[test]
    fn claims_take_the_oldest_runnable_chip_first() {
        let pool = inline_pool(4);
        let shared = &pool.shared;
        shared.grant(0, &[2, 0]);
        shared.grant(0, &[]);
        shared.grant(0, &[3]);
        let claimed: Vec<usize> = std::iter::from_fn(|| shared.claim(false))
            .map(|claim| claim.chip)
            .collect();
        assert_eq!(claimed, [2, 0, 3]);
        assert!(shared.claim(false).is_none(), "an idle pool does not block");
    }

    /// A chip is runnable once, however many grants wait for it, and the
    /// step that runs one of them makes it runnable again, behind the
    /// chips made runnable meanwhile, only while another waits.
    #[test]
    fn a_chip_is_runnable_at_most_once() {
        let pool = inline_pool(2);
        let shared = &pool.shared;
        for epoch in 0..3 {
            shared.grant(epoch, &[0]);
        }
        shared.grant(3, &[1, 0]);
        assert_eq!(shared.runnable(), [0, 1]);
        while shared.step(0, false) {
            let runnable = shared.runnable();
            assert!(
                runnable.len() <= 1 || runnable[0] != runnable[1],
                "{runnable:?}"
            );
        }
        let ran: Vec<(usize, u64)> = shared
            .state()
            .filed
            .iter()
            .map(|log| (log.chip, log.epoch))
            .collect();
        assert_eq!(ran, [(0, 0), (1, 3), (0, 1), (0, 2), (0, 3)]);
        assert!(shared.state().chips.iter().all(|slot| !slot.scheduled));
    }

    #[test]
    fn a_grant_wakes_a_parked_executor() {
        let pool = inline_pool(6);
        let shared = &pool.shared;
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| shared.claim(true).map(|claim| claim.chip));
            wait_until("the executor did not park", || shared.state().parked == 1);
            shared.grant(0, &[5]);
            assert_eq!(parked.join().unwrap(), Some(5));
        });
    }

    #[test]
    fn shutdown_drains_before_stopping() {
        let pool = inline_pool(1);
        let shared = &pool.shared;
        shared.grant(0, &[0]);
        shared.shutdown();
        // A runnable chip is still claimed after shutdown.
        let mut claim = shared.claim(true).expect("the runnable chip");
        let log = claim.run(shared, 0).expect("the slice runs");
        shared.release(claim, log);
        assert!(shared.claim(true).is_none());
    }

    /// Nothing panics while holding the pool lock, and every use of it
    /// goes through `PoisonError::into_inner`: with it poisoned, a
    /// placement, grants and their wait still bring in every log, at
    /// zero workers and at one.
    #[test]
    fn a_poisoned_pool_lock_still_runs_every_grant() {
        for workers in [0, 1] {
            let mut pool = pool(2, workers);
            pool.shared.poison();
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
            let cells = pool.finish().unwrap();
            assert!(cells[0].cores[0].is_some(), "the placement was installed");
        }
    }

    /// The waiting coordinator runs runnable slices itself, as executor
    /// `workers`. The seam: the pool is shut down while nothing is
    /// runnable, so its only shard exits and only the coordinator can
    /// step; a runnable chip is still claimed after shutdown. The test
    /// joins the shard and leaves a finished stand-in in its place, so
    /// the coordinator keeps its executor number.
    #[test]
    fn the_waiting_coordinator_runs_runnable_slices_itself() {
        let mut pool = pool(3, 1);
        pool.shared.shutdown();
        let shard = std::mem::replace(&mut pool.handles[0], std::thread::spawn(|| {}));
        shard.join().unwrap();
        pool.grant(0, &[0, 1, 2]).unwrap();
        assert_eq!(pool.wait_through(1), Ok(()));
        let executors: Vec<usize> = (0..3).map(|chip| pool.log(0, chip).shard).collect();
        assert_eq!(executors, [1, 1, 1], "every slice ran on the coordinator");
        let status = pool.status(0).expect("a pool with a worker publishes");
        assert_eq!(status.coordinator_slices, 3);
        assert_eq!(status.shards[0].slices, 0);
    }

    /// A virtual executor of the seeded host, between two operations:
    /// idle, holding a claim whose slice is yet to run, or holding a
    /// claim whose slice ran and whose log is yet to be filed by the
    /// release. These are the three parts of [`PoolShared::step`].
    enum Virtual {
        Idle,
        Claimed(Claim),
        Ran(Claim, SliceLog),
    }

    impl Virtual {
        /// The claim this executor holds, if any.
        fn claim(&self) -> Option<&Claim> {
            match self {
                Virtual::Idle => None,
                Virtual::Claimed(claim) | Virtual::Ran(claim, _) => Some(claim),
            }
        }
    }

    /// Checks the claim protocol's invariants between two operations:
    /// each chip is runnable at most once, a runnable chip has a grant
    /// waiting, a chip is scheduled exactly when it is runnable or
    /// claimed, no grant waits on an unscheduled chip, a chip's cell is
    /// in its slot exactly when no executor holds its claim, and no
    /// filed log's slice is still held: a log is filed only once its
    /// cell is home, which `ShardPool::finish` relies on.
    fn check_claims(shared: &PoolShared, executors: &[Virtual]) -> Result<(), TestCaseError> {
        let state = shared.state();
        let held: Vec<&Claim> = executors.iter().filter_map(Virtual::claim).collect();
        for (chip, slot) in state.chips.iter().enumerate() {
            let runnable = state.runnable.iter().filter(|&&c| c == chip).count();
            prop_assert!(runnable <= 1, "chip {} runnable {} times", chip, runnable);
            let claimed = held.iter().any(|claim| claim.chip == chip);
            prop_assert!(
                runnable == 0 || slot.grants > 0,
                "chip {} is runnable with no grant waiting",
                chip
            );
            prop_assert!(
                !(claimed && runnable > 0),
                "chip {} is runnable while claimed",
                chip
            );
            prop_assert_eq!(
                slot.scheduled,
                claimed || runnable > 0,
                "chip {} scheduled",
                chip
            );
            prop_assert!(slot.grants == 0 || slot.scheduled, "chip {} stranded", chip);
            prop_assert_eq!(
                slot.cell.is_some(),
                !claimed,
                "chip {}'s cell in its slot",
                chip
            );
        }
        for log in &state.filed {
            prop_assert!(
                !held
                    .iter()
                    .any(|claim| (claim.epoch, claim.chip) == (log.epoch, log.chip)),
                "epoch {}'s log of chip {} was filed while its claim is held",
                log.epoch,
                log.chip
            );
        }
        Ok(())
    }

    proptest! {
        /// The claim protocol under interleavings a seeded chooser picks
        /// on one thread: placements, grants of any subset of 1–4 chips,
        /// and the three parts of a step (claim, slice, release) by any
        /// of 1–8 virtual executors. After every operation the
        /// protocol's invariants hold ([`check_claims`]); every claim
        /// finds a grant and its cell, or it panics. Once the chooser
        /// stops and the executors drain the pool, the pool's filed list
        /// holds exactly one log per granted `(epoch, chip)`, each chip's
        /// in epoch order, every job ended on the slice the decision loop
        /// predicts, and every chip is idle with its cell home. The case
        /// count is pinned by `PROPTEST_CASES`.
        #[test]
        fn the_claim_protocol_queues_each_chip_at_most_once(
            seed in 0u64..u64::MAX,
            chips in 1usize..=4,
            workers in 1usize..=8,
            ops in 20usize..300,
        ) {
            // A pool with no threads of its own, its counters sized for
            // the virtual executors.
            let pool = ShardPool::new(&warmed(chips), 0, SLICE, DrainPlan::default());
            let shared = &pool.shared;
            shared.state().executors.resize(workers, ExecutorCounters::default());
            let mut rng = TestRng::new(seed);
            let mut executors: Vec<Virtual> = (0..workers).map(|_| Virtual::Idle).collect();
            // The decision loop's shadow: per core, the resident job and
            // the slices it has left.
            let mut shadow = vec![[None::<(u64, u64)>; 2]; chips];
            let mut jobs = 0u64;
            let mut granted = BTreeMap::new();
            // Operation `ops` grants every chip, so every placement is
            // claimed; after it the executors only step, until the pool
            // is drained.
            for op in 0.. {
                let quiet = executors.iter().all(|v| matches!(v, Virtual::Idle))
                    && shared.runnable().is_empty();
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
                            shared.place(chip, core, Box::new(job));
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
                            Virtual::Idle => match shared.claim(false) {
                                Some(claim) => Virtual::Claimed(claim),
                                None => Virtual::Idle,
                            },
                            Virtual::Claimed(mut claim) => match claim.run(shared, me) {
                                Ok(log) => Virtual::Ran(claim, log),
                                Err(_) => {
                                    let failed = format!("chip {}'s slice failed", claim.chip);
                                    return Err(TestCaseError::fail(failed));
                                }
                            },
                            Virtual::Ran(claim, log) => {
                                shared.release(claim, log);
                                Virtual::Idle
                            }
                        };
                    }
                }
                check_claims(shared, &executors)?;
            }
            let filed = std::mem::take(&mut shared.state().filed);
            let mut last = vec![None; chips];
            let mut seen = BTreeMap::new();
            for log in filed {
                prop_assert!(last[log.chip] < Some(log.epoch), "chip {} out of epoch order", log.chip);
                last[log.chip] = Some(log.epoch);
                prop_assert!(seen.insert((log.epoch, log.chip), log.finished).is_none());
            }
            prop_assert_eq!(seen, granted);
            let state = shared.state();
            for slot in &state.chips {
                prop_assert!(slot.cmds.is_empty() && slot.grants == 0 && !slot.scheduled);
                prop_assert!(slot.cell.is_some());
            }
        }
    }
}

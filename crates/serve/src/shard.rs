//! Execution backends for the service: chips packaged as
//! self-contained cells, advanced either in-line on the coordinator
//! thread (the reference backend) or by a pool of long-lived shard
//! workers (the throughput backend).
//!
//! Both backends consume the same command stream ([`CellCmd`]) and
//! produce the same logs ([`SliceLog`]); the merge layer cannot tell
//! them apart — which is exactly the differential oracle
//! `tests/shard_equivalence.rs` enforces. Executors only simulate and
//! drain the captures the [`DrainPlan`] names; the merge layer makes
//! every trace record. The shard backend advances chips on the lean
//! fused step ([`ChipSession::run_slice_fast`], bit-identical to the
//! reference step with window capture and the invariant checker
//! riding along); the in-line backend keeps the
//! historical dyn-dispatch reference step, so every sharded run is
//! also a differential test of the fused step.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::control::{CellCmd, CellJob, EventBus, ShardEvent, SliceLog, TokenBoard};
use crate::introspect::RuntimeStats;
use crate::ServeError;
use vsmooth_chip::{ChipError, ChipSession, SliceStats};
use vsmooth_uarch::{IdleLoop, StimulusSource};

/// One pool member: a warmed-up measurement session plus whatever is
/// running on its two cores. Cells own their chips end-to-end; only
/// the executing context (coordinator or one shard at a time) touches
/// them.
#[derive(Debug)]
pub(crate) struct ChipCell {
    pub session: ChipSession,
    pub cores: [Option<CellJob>; 2],
    pub idle: [IdleLoop; 2],
}

impl ChipCell {
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

/// Which per-slice channels a run captures, decided once by the
/// service from its armed instruments. The service arms each chip
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
    pub windows: bool,
    pub invariants: bool,
}

/// The `(shard, seq, epoch, chip)` identity stamped onto one executed
/// slice's [`SliceLog`].
#[derive(Debug, Clone, Copy)]
struct SliceTag {
    shard: usize,
    seq: u64,
    epoch: u64,
    chip: usize,
}

/// Runs one granted slice on `cell` and packages the log. Shared by
/// both backends; `fast` selects the kernel.
fn exec_slice(
    cell: &mut ChipCell,
    fast: bool,
    tag: SliceTag,
    cycles: u64,
    drain: DrainPlan,
) -> Result<SliceLog, ChipError> {
    let session_start = cell.session.measured_cycles();
    let stats = if fast {
        cell.run_fast_slice(cycles)?
    } else {
        cell.run_reference_slice(cycles)?
    };
    let crossings = if drain.crossings {
        cell.session.take_droop_crossings()
    } else {
        Vec::new()
    };
    let windows = if drain.windows {
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
        shard: tag.shard,
        seq: tag.seq,
        epoch: tag.epoch,
        chip: tag.chip,
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
    cells: Vec<Mutex<CellSlot>>,
    tokens: TokenBoard,
    bus: EventBus,
    /// The live introspection scoreboard, shared with obs publishes.
    /// The per-shard split of slice counts is execution-dependent
    /// (work-stealing); only the sum is deterministic. All
    /// determinism-pinned metrics are recorded by the merge layer,
    /// never here.
    stats: Arc<RuntimeStats>,
    slice_cycles: u64,
    drain: DrainPlan,
}

/// A chip cell plus its pending command queue.
#[derive(Debug)]
struct CellSlot {
    cmds: VecDeque<CellCmd>,
    cell: ChipCell,
}

/// Rings the exit doorbell however the shard leaves `shard_main`,
/// panic included, so the coordinator never blocks on a dead pool.
struct ExitBell<'a>(&'a EventBus);

impl Drop for ExitBell<'_> {
    fn drop(&mut self) {
        self.0.shard_exited();
    }
}

/// The body of one shard worker: pop a chip token (own queue first,
/// then steal), drain that cell's command queue in FIFO order under
/// the cell lock, publish one [`SliceLog`] per grant.
fn shard_main(me: usize, shared: &PoolShared) {
    let _bell = ExitBell(&shared.bus);
    let mut seq = 0u64;
    while let Some(token) = shared.tokens.next(me) {
        let chip = token.chip;
        let mut slot = shared.cells[chip].lock().expect("cell lock");
        while let Some(cmd) = slot.cmds.pop_front() {
            match cmd {
                CellCmd::AddJob { core, job } => {
                    debug_assert!(
                        slot.cell.cores[core].is_none(),
                        "placement on occupied core"
                    );
                    slot.cell.cores[core] = Some(job);
                }
                CellCmd::Grant { epoch } => {
                    let tag = SliceTag {
                        shard: me,
                        seq,
                        epoch,
                        chip,
                    };
                    let outcome =
                        exec_slice(&mut slot.cell, true, tag, shared.slice_cycles, shared.drain);
                    match outcome {
                        Ok(log) => {
                            shared.stats.record_slice(me, token.stolen);
                            seq += 1;
                            let occupancy = shared.bus.publish(me, ShardEvent::Slice(log));
                            shared.stats.shards[me]
                                .lane_hwm
                                .fetch_max(occupancy as u64, Ordering::Relaxed);
                        }
                        Err(error) => {
                            shared.bus.publish(me, ShardEvent::Failed { error });
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// The shard-per-worker backend: `shards` long-lived OS threads own
/// the chip pool end-to-end for the duration of a run.
#[derive(Debug)]
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Chip index → owning shard (round-robin).
    owner_of: Vec<usize>,
    /// Granted `(epoch, chip)` slices whose logs have not arrived yet.
    outstanding: BTreeSet<(u64, usize)>,
    /// Logs received but not yet consumed by the merge layer.
    received: BTreeMap<(u64, usize), SliceLog>,
    /// Bus events seen, for the doorbell wait.
    seen: u64,
    /// Next expected per-shard sequence number: each lane is a FIFO
    /// and each shard stamps its slices 0, 1, 2, … — so logs must
    /// arrive in exactly that order per lane.
    next_seq: Vec<u64>,
    /// Chip index → shard that executed its previous slice, for the
    /// ownership-churn introspection counter.
    last_executor: Vec<Option<usize>>,
    scratch: Vec<ShardEvent>,
    failure: Option<ChipError>,
}

impl ShardPool {
    fn new(
        cells: Vec<ChipCell>,
        shards: usize,
        stats: Arc<RuntimeStats>,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        let chips = cells.len();
        let owner_of: Vec<usize> = (0..chips).map(|chip| chip % shards).collect();
        let shared = Arc::new(PoolShared {
            cells: cells
                .into_iter()
                .map(|cell| {
                    Mutex::new(CellSlot {
                        cmds: VecDeque::new(),
                        cell,
                    })
                })
                .collect(),
            tokens: TokenBoard::new(shards),
            bus: EventBus::new(shards),
            stats,
            slice_cycles,
            drain,
        });
        let handles = (0..shards)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vsmooth-shard{me}"))
                    .spawn(move || shard_main(me, &shared))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            shared,
            handles,
            owner_of,
            outstanding: BTreeSet::new(),
            received: BTreeMap::new(),
            seen: 0,
            next_seq: vec![0; shards],
            last_executor: vec![None; chips],
            scratch: Vec::new(),
            failure: None,
        }
    }

    /// Records the depth a cell's command queue just reached.
    fn note_queue_depth(&self, chip: usize, depth: usize) {
        self.shared.stats.cell_queue_hwm[chip].fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn add_job(&self, chip: usize, core: usize, job: CellJob) {
        let depth = {
            let mut slot = self.shared.cells[chip].lock().expect("cell lock");
            slot.cmds.push_back(CellCmd::AddJob { core, job });
            slot.cmds.len()
        };
        self.note_queue_depth(chip, depth);
    }

    fn grant(&mut self, epoch: u64, busy: &[usize]) {
        for &chip in busy {
            let depth = {
                let mut slot = self.shared.cells[chip].lock().expect("cell lock");
                slot.cmds.push_back(CellCmd::Grant { epoch });
                slot.cmds.len()
            };
            self.note_queue_depth(chip, depth);
            self.outstanding.insert((epoch, chip));
        }
        self.shared
            .tokens
            .push_many(busy.iter().map(|&chip| (self.owner_of[chip], chip)));
    }

    /// Non-blocking: drains the bus into `received`.
    fn pump(&mut self) -> Result<(), ServeError> {
        self.shared.bus.drain(&mut self.scratch);
        for event in self.scratch.drain(..) {
            match event {
                ShardEvent::Slice(log) => {
                    debug_assert_eq!(
                        log.seq, self.next_seq[log.shard],
                        "shard lane delivered slices out of order"
                    );
                    self.next_seq[log.shard] = log.seq + 1;
                    if self.last_executor[log.chip].is_some_and(|prev| prev != log.shard) {
                        self.shared
                            .stats
                            .ownership_churn
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.last_executor[log.chip] = Some(log.shard);
                    self.outstanding.remove(&(log.epoch, log.chip));
                    self.received.insert((log.epoch, log.chip), log);
                }
                ShardEvent::Failed { error } => self.failure = Some(error),
            }
        }
        match self.failure.clone() {
            Some(error) => Err(ServeError::Chip(error)),
            None => Ok(()),
        }
    }

    fn has_through(&self, bound: u64) -> bool {
        !self.outstanding.iter().any(|&(epoch, _)| epoch < bound)
    }

    fn wait_through(&mut self, bound: u64) -> Result<(), ServeError> {
        loop {
            self.pump()?;
            if self.has_through(bound) {
                return Ok(());
            }
            self.shared.bus.wait_beyond(&mut self.seen);
        }
    }

    fn finish(mut self) -> Result<Vec<ChipCell>, ServeError> {
        self.shared.tokens.shutdown();
        for handle in self.handles.drain(..) {
            handle.join().expect("shard worker panicked");
        }
        self.pump()?;
        // `Drop` prevents moving a field out of `self`; clone the Arc,
        // let the (now trivial) destructor run, then unwrap.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::try_unwrap(shared).expect("all shard handles joined");
        Ok(shared
            .cells
            .into_iter()
            .map(|slot| {
                let slot = slot.into_inner().expect("cell lock");
                debug_assert!(slot.cmds.is_empty(), "commands left undrained at shutdown");
                slot.cell
            })
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
            // A worker that panicked already published its exit; don't
            // double-panic while unwinding.
            let _ = handle.join();
        }
    }
}

/// The in-line reference backend: grants execute immediately on the
/// coordinator thread, so logs are always available and the merge
/// layer runs in lockstep with the decision loop — the historical
/// coordinator behavior, preserved as the differential baseline.
#[derive(Debug)]
pub(crate) struct InlineExec {
    cells: Vec<ChipCell>,
    logs: BTreeMap<(u64, usize), SliceLog>,
    seq: u64,
    stats: Arc<RuntimeStats>,
    slice_cycles: u64,
    drain: DrainPlan,
}

/// One run's execution backend; see [`RuntimeMode`](crate::RuntimeMode).
#[derive(Debug)]
pub(crate) enum Backend {
    Inline(InlineExec),
    Sharded(ShardPool),
}

impl Backend {
    pub(crate) fn inline(
        cells: Vec<ChipCell>,
        stats: Arc<RuntimeStats>,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        Self::Inline(InlineExec {
            cells,
            logs: BTreeMap::new(),
            seq: 0,
            stats,
            slice_cycles,
            drain,
        })
    }

    pub(crate) fn sharded(
        cells: Vec<ChipCell>,
        shards: usize,
        stats: Arc<RuntimeStats>,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        Self::Sharded(ShardPool::new(cells, shards, stats, slice_cycles, drain))
    }

    /// Queues a placement at its chip cell.
    pub(crate) fn add_job(&mut self, chip: usize, core: usize, job: CellJob) {
        match self {
            Self::Inline(exec) => {
                debug_assert!(exec.cells[chip].cores[core].is_none());
                exec.cells[chip].cores[core] = Some(job);
            }
            Self::Sharded(pool) => pool.add_job(chip, core, job),
        }
    }

    /// Grants `busy` chips one quantum for `epoch`. In-line: executes
    /// immediately. Sharded: enqueues grant commands and chip tokens.
    pub(crate) fn grant(&mut self, epoch: u64, busy: &[usize]) -> Result<(), ServeError> {
        match self {
            Self::Inline(exec) => {
                for &chip in busy {
                    let tag = SliceTag {
                        shard: 0,
                        seq: exec.seq,
                        epoch,
                        chip,
                    };
                    let log = exec_slice(
                        &mut exec.cells[chip],
                        false,
                        tag,
                        exec.slice_cycles,
                        exec.drain,
                    )
                    .map_err(ServeError::Chip)?;
                    exec.stats.record_slice(0, false);
                    exec.seq += 1;
                    exec.logs.insert((epoch, chip), log);
                }
                Ok(())
            }
            Self::Sharded(pool) => {
                pool.grant(epoch, busy);
                Ok(())
            }
        }
    }

    /// Blocks until every log for epochs `< bound` has arrived.
    pub(crate) fn wait_through(&mut self, bound: u64) -> Result<(), ServeError> {
        match self {
            Self::Inline(_) => Ok(()),
            Self::Sharded(pool) => pool.wait_through(bound),
        }
    }

    /// Non-blocking: whether every log for epochs `< bound` is in.
    pub(crate) fn ready_through(&mut self, bound: u64) -> Result<bool, ServeError> {
        match self {
            Self::Inline(_) => Ok(true),
            Self::Sharded(pool) => {
                pool.pump()?;
                Ok(pool.has_through(bound))
            }
        }
    }

    /// Lends the merge layer one received log for the telemetry-book
    /// fold; the replay takes it later. Panics if absent — the caller
    /// must have established availability first.
    pub(crate) fn log(&self, epoch: u64, chip: usize) -> &SliceLog {
        let logs = match self {
            Self::Inline(exec) => &exec.logs,
            Self::Sharded(pool) => &pool.received,
        };
        logs.get(&(epoch, chip))
            .expect("granted slice log available at fold time")
    }

    /// Hands the merge layer one received log. Panics if absent — the
    /// caller must have established availability first.
    pub(crate) fn take_log(&mut self, epoch: u64, chip: usize) -> SliceLog {
        let logs = match self {
            Self::Inline(exec) => &mut exec.logs,
            Self::Sharded(pool) => &mut pool.received,
        };
        logs.remove(&(epoch, chip))
            .expect("granted slice log available at merge time")
    }

    /// Shuts the backend down and returns the cells in chip order for
    /// end-of-run flushing (late-sealing droop windows, measured-cycle
    /// totals).
    pub(crate) fn finish(self) -> Result<Vec<ChipCell>, ServeError> {
        match self {
            Self::Inline(exec) => Ok(exec.cells),
            Self::Sharded(pool) => pool.finish(),
        }
    }
}

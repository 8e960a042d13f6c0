//! The service's executor: chips packaged as self-contained cells in
//! one pool, advanced slice by slice for the decision loop.
//!
//! With one or more workers the pool is the shard runtime: long-lived
//! shard threads claim chip tokens (own queue first, then steal), drain
//! each cell's command queue ([`CellCmd`]) in FIFO order on the lean
//! fused step ([`ChipSession::run_slice_fast`]) and send one
//! [`SliceLog`] per grant back over the [`EventBus`]. With none,
//! [`ShardPool::grant`] drains each granted cell itself, in chip order,
//! on the historical dyn-dispatch reference step, so every log is in
//! before it returns and the merge runs in lockstep with the decision
//! loop: the in-line coordinator, the byte oracle
//! `tests/shard_equivalence.rs` holds the shard runtime to. Both run
//! the same cell-drain routine and hand their logs to the same pump;
//! the merge layer cannot tell them apart. Executors only simulate and
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
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::control::{CellCmd, CellJob, ChipToken, EventBus, ShardEvent, SliceLog, TokenBoard};
use crate::introspect::RuntimeStats;
use crate::ServeError;
use vsmooth_chip::{
    Chip, ChipConfig, ChipError, ChipSession, InvariantConfig, SliceStats, WindowConfig,
};
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
    /// Cells run slices on the lean fused step. Only a pool with no
    /// workers keeps the reference step, as the oracle.
    fused: bool,
}

/// A chip cell plus its pending command queue.
#[derive(Debug)]
struct CellSlot {
    cmds: VecDeque<CellCmd>,
    cell: ChipCell,
}

/// Drains the claimed chip's command queue in FIFO order under its
/// cell lock, as executor `me`: installs placed jobs and runs one
/// slice per grant, handing each outcome to `emit`. Returns `false`
/// once a slice failed; the executor stops there.
fn drain_cell(
    shared: &PoolShared,
    me: usize,
    token: ChipToken,
    seq: &mut u64,
    mut emit: impl FnMut(ShardEvent),
) -> bool {
    let chip = token.chip;
    let mut slot = shared.cells[chip].lock().expect("cell lock");
    while let Some(cmd) = slot.cmds.pop_front() {
        match cmd {
            CellCmd::AddJob { core, job } => {
                debug_assert!(
                    slot.cell.cores[core].is_none(),
                    "placement on occupied core"
                );
                slot.cell.cores[core] = Some(*job);
            }
            CellCmd::Grant { epoch } => {
                match exec_slice(&mut slot.cell, shared, me, *seq, epoch, chip) {
                    Ok(log) => {
                        shared.stats.record_slice(me, token.stolen);
                        *seq += 1;
                        emit(ShardEvent::Slice(log));
                    }
                    Err(error) => {
                        emit(ShardEvent::Failed { error });
                        return false;
                    }
                }
            }
        }
    }
    true
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
/// then steal), drain that cell, publish each slice's outcome on the
/// shard's bus lane.
fn shard_main(me: usize, shared: &PoolShared) {
    let _bell = ExitBell(&shared.bus);
    let publish = |event| {
        let occupancy = shared.bus.publish(me, event);
        shared.stats.shards[me]
            .lane_hwm
            .fetch_max(occupancy as u64, Ordering::Relaxed);
    };
    let mut seq = 0u64;
    while let Some(token) = shared.tokens.next(me) {
        if !drain_cell(shared, me, token, &mut seq, publish) {
            return;
        }
    }
}

/// The service's one executor: the chip pool plus `workers` long-lived
/// shard threads that own it for the duration of a run, or none (see
/// the module docs).
#[derive(Debug)]
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Granted `(epoch, chip)` slices whose logs have not arrived yet.
    outstanding: BTreeSet<(u64, usize)>,
    /// Logs received but not yet consumed by the merge layer.
    received: BTreeMap<(u64, usize), SliceLog>,
    /// Bus events seen, for the doorbell wait.
    seen: u64,
    /// Next expected per-executor sequence number: each lane is a FIFO
    /// and each executor stamps its slices 0, 1, 2, … — so logs must
    /// arrive in exactly that order per lane. The in-line executor
    /// stamps as lane 0.
    next_seq: Vec<u64>,
    /// Chip index → shard that executed its previous slice, for the
    /// ownership-churn introspection counter.
    last_executor: Vec<Option<usize>>,
    scratch: Vec<ShardEvent>,
    failure: Option<ChipError>,
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
            .map(|(index, session)| {
                Mutex::new(CellSlot {
                    cmds: VecDeque::new(),
                    cell: ChipCell::new(session.clone(), index, &drain),
                })
            })
            .collect();
        let shared = Arc::new(PoolShared {
            cells,
            tokens: TokenBoard::new(workers),
            bus: EventBus::new(workers),
            stats,
            slice_cycles,
            drain,
            fused: workers > 0,
        });
        let handles = (0..workers)
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
            outstanding: BTreeSet::new(),
            received: BTreeMap::new(),
            seen: 0,
            next_seq: vec![0; workers.max(1)],
            last_executor: vec![None; chips],
            scratch: Vec::new(),
            failure: None,
        }
    }

    /// Queues `cmd` at its chip cell and records the depth the queue
    /// reached.
    fn push_cmd(&self, chip: usize, cmd: CellCmd) {
        let depth = {
            let mut slot = self.shared.cells[chip].lock().expect("cell lock");
            slot.cmds.push_back(cmd);
            slot.cmds.len()
        };
        self.shared.stats.cell_queue_hwm[chip].fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Queues a placement at its chip cell.
    pub(crate) fn add_job(&mut self, chip: usize, core: usize, job: CellJob) {
        let job = Box::new(job);
        self.push_cmd(chip, CellCmd::AddJob { core, job });
    }

    /// Grants `busy` chips one quantum for `epoch`: queues a grant at
    /// each cell and hands the chip tokens to their owning shards. With
    /// no workers, drains each granted cell here instead, in chip
    /// order, so every log is received before this returns.
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
        // Lane 0's next stamp: every earlier grant was pumped before it
        // returned.
        let mut seq = self.next_seq[0];
        for &chip in busy {
            let token = ChipToken {
                chip,
                stolen: false,
            };
            if !drain_cell(&self.shared, 0, token, &mut seq, |e| self.scratch.push(e)) {
                break;
            }
        }
        self.pump()
    }

    /// Non-blocking: drains the bus into `received`, after any logs the
    /// in-line executor left in `scratch`.
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

    /// Blocks until every log for epochs `< bound` has arrived. A pool
    /// whose workers have all exited (or that never had any) panics
    /// with a log still owed instead of blocking forever.
    pub(crate) fn wait_through(&mut self, bound: u64) -> Result<(), ServeError> {
        loop {
            self.pump()?;
            if self.has_through(bound) {
                return Ok(());
            }
            self.shared.bus.wait_beyond(&mut self.seen);
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

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    const SLICE: u64 = 500;

    fn inline_pool(chips: usize) -> ShardPool {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let warmed = warm_sessions(&cfg, chips, SLICE).unwrap();
        let stats = Arc::new(RuntimeStats::new(0, chips));
        ShardPool::new(&warmed, 0, stats, SLICE, DrainPlan::default())
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
            // In-line slices are stamped in grant order on lane 0.
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
}

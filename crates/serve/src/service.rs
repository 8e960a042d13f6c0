//! The scheduling service: admission queue → policy-paired placement
//! → sliced chip simulation → telemetry feedback, epoch by epoch.
//!
//! # Architecture
//!
//! Since the shard-per-worker refactor the service is split in three:
//!
//! * **The decision loop** (this module) owns all scheduling state —
//!   the pending/ready queues and a shadow of every chip's occupancy —
//!   and reads the telemetry book, which the merge layer folds, at
//!   placement. It only decides: each epoch's admissions, placements
//!   (with their reason codes), grants and analytic completions are
//!   recorded once, as an `EpochRec` in the epoch script, and
//!   execution is delegated to the `ShardPool`. It builds no artifact
//!   and arms no instrument.
//! * **The shard pool** (`crate::shard`) advances clones of the chips
//!   the service warmed up once, on its first run: on long-lived shard
//!   workers that claim granted chips from one pool, or, with no
//!   workers, in-line on this thread on the reference step (the
//!   coordinator, see [`RuntimeMode`]). Either way every executor files
//!   one `SliceLog` per granted slice under the pool's one lock, and
//!   this thread collects them from there. With workers, this thread is
//!   an executor too: whenever the loop must wait for a slice log, it
//!   claims and runs a runnable slice itself instead of sleeping, so on
//!   one shard the kernel runs on two threads.
//! * **The merge layer** (`crate::merge`) is the run's one artifact
//!   owner: it arms the registry, profiler, monitor and audit ring,
//!   decides the captures the pool drains for them, and replays epoch
//!   records against slice logs in `(epoch, chip)` order,
//!   reconstructing metrics, trace records, the decision audit, monitor
//!   feed, profiler attribution and obs snapshots in exactly the order
//!   the historical single-coordinator loop produced them. The
//!   telemetry book is folded first, on its own: before placing, the
//!   loop folds every finished epoch into the book, grants the next
//!   epoch, and only then replays the rest, so that replay overlaps
//!   the shards' next slice.
//!
//! # Determinism
//!
//! The service is deterministic for a fixed configuration, job stream
//! and policy, *independent of the worker count and runtime mode*:
//!
//! * Scheduling decisions (admission, pairing, placement) happen in
//!   the decision loop between epochs, never concurrently, and the
//!   loop folds every prior epoch into the telemetry book before any
//!   decision that reads it.
//! * Executors only advance disjoint chips; their logs are keyed
//!   `(epoch, chip)` and merged in that order regardless of which
//!   executor (a shard or this thread) ran what, or when.
//! * Every float observation (gauges, histograms, EWMA folds) is
//!   recorded by the merge layer in a fixed order.
//!
//! The invariance is enforced by test twice over: the in-file tests
//! pin reports/traces/profiles/health across worker counts, and
//! `tests/shard_equivalence.rs` differentially tests the shard runtime
//! against the in-line coordinator (the pool with no workers) at
//! 1/2/4/8 shards for five artifact classes, byte for byte.

use crate::audit::{AuditConfig, AuditReport};
use crate::control::{BusyChip, CellJob, CoreSlice, EpochRec, PlaceRec, RuntimeMode, SliceLog};
use crate::instruments::{Instruments, Observed};
use crate::job::{CompletedJob, JobSpec};
use crate::merge::Merge;
use crate::shard::{warm_sessions, ShardPool};
use crate::telemetry::TelemetryBook;
use crate::ServeError;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use vsmooth_chip::{ChipConfig, ChipError, ChipSession};
use vsmooth_monitor::{HealthReport, HealthSummary, MonitorConfig};
use vsmooth_obs::ObsConfig;
use vsmooth_sched::PairPolicy;
use vsmooth_stats::MetricsSnapshot;
use vsmooth_trace::Tracer;
use vsmooth_workload::by_name;

/// How many queued jobs the pairing search considers at once (the FIFO
/// prefix of the ready queue).
const PAIRING_WINDOW: usize = 16;

/// Static configuration of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The chip model every pool member instantiates.
    pub chip: ChipConfig,
    /// Two-core chips in the pool.
    pub chips: usize,
    /// Scheduling quantum in cycles; also the workload measurement
    /// interval, so programs end exactly on slice boundaries.
    pub slice_cycles: u64,
    /// Admission-queue bound: a run fails with
    /// [`ServeError::QueueOverflow`] when an arrival would push the
    /// ready queue past this many waiting jobs. `None` (the default)
    /// leaves the queue unbounded, preserving historical behavior.
    pub queue_capacity: Option<usize>,
    /// Live-observation wiring: when set, the coordinator publishes
    /// [`ObsSnapshot`](vsmooth_obs::ObsSnapshot)s into the configured
    /// hub at the configured epoch cadence, feeding the `vsmooth-obs`
    /// scrape endpoints. Publishing is strictly observational — the
    /// report, trace and health artifacts of a run are byte-identical
    /// with or without it (enforced by test).
    pub obs: Option<ObsConfig>,
    /// How the `workers` argument of [`Service::run`] maps onto the
    /// shard pool's worker threads; [`RuntimeMode::Auto`] (the
    /// default) uses the shard runtime whenever `workers >= 2`.
    pub runtime: RuntimeMode,
    /// Arm the per-chip physical-invariant checker
    /// ([`vsmooth_chip::InvariantConfig`]) for the run; any flagged
    /// violation fails the run with
    /// [`ServeError::InvariantViolations`]. Off by default.
    pub invariants: bool,
    /// Arm the scheduler decision audit log ([`AuditConfig`]): the
    /// merge layer derives a typed event for every admit/place/grant/
    /// shed/demote from the epoch script, folds it into a bounded ring
    /// and exports the ring as the `vsmooth-audit-v1` artifact on
    /// [`ServiceReport::audit`]. Deterministic: the ring and its JSON
    /// are byte-identical at any worker count. Off by default, so
    /// unaudited reports compare equal to historical ones.
    pub audit: Option<AuditConfig>,
}

impl ServiceConfig {
    /// A small default pool: 4 chips, 2 000-cycle quanta, unbounded
    /// admission queue, automatic runtime selection.
    pub fn new(chip: ChipConfig) -> Self {
        Self {
            chip,
            chips: 4,
            slice_cycles: 2_000,
            queue_capacity: None,
            obs: None,
            runtime: RuntimeMode::Auto,
            invariants: false,
            audit: None,
        }
    }
}

/// A job as the decision loop tracks it: static spec plus analytic
/// progress. Streams advance exactly one cycle per simulated cycle and
/// never loop here, so `executed_cycles >= total_cycles` is precisely
/// [`EventStream::is_finished`](vsmooth_workload::EventStream) — the
/// loop never needs to see the stream to know when a job ends.
#[derive(Debug)]
struct ShadowJob {
    spec: JobSpec,
    /// The spec's workload name, resolved once: every slice of the job
    /// shares it.
    workload: Arc<str>,
    total_cycles: u64,
    executed_cycles: u64,
}

/// The decision loop's occupancy shadow of one pool chip.
#[derive(Debug, Default)]
struct ShadowChip {
    cores: [Option<ShadowJob>; 2],
}

impl ShadowChip {
    fn occupied(&self) -> usize {
        self.cores.iter().filter(|c| c.is_some()).count()
    }
}

/// Everything the service measured about one run of a job stream.
///
/// Deliberately excludes the worker count: the report of a run must be
/// byte-identical however many threads simulated it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Name of the pairing policy that drove placement.
    pub policy: String,
    /// Jobs submitted to the service.
    pub jobs_submitted: usize,
    /// Jobs run to completion (equals submissions on a full drain).
    pub jobs_completed: usize,
    /// Final virtual-clock value, in cycles.
    pub virtual_cycles: u64,
    /// Scheduling epochs executed.
    pub epochs: u64,
    /// Measured cycles summed over every chip in the pool.
    pub chip_cycles: u64,
    /// Droop events at the phase margin, summed over the pool.
    pub droops: u64,
    /// `droops` per thousand measured chip cycles.
    pub droops_per_kilocycle: f64,
    /// Mean admission-queue wait over completed jobs, in cycles.
    pub mean_queue_wait_cycles: f64,
    /// Occupied core-quanta over available core-quanta.
    pub chip_utilization: f64,
    /// Completed jobs per million virtual cycles.
    pub throughput_jobs_per_mcycle: f64,
    /// Mean per-job IPC over completed jobs.
    pub mean_ipc: f64,
    /// Workload profiles with at least one real telemetry sample.
    pub warmed_profiles: usize,
    /// The run's metrics snapshot: [`ServiceReport::render`] prints its
    /// text exposition, and it feeds Prometheus export
    /// ([`MetricsSnapshot::render_prometheus`]) and programmatic
    /// access to labeled series and percentiles.
    pub snapshot: MetricsSnapshot,
    /// Every completed job, in completion order.
    pub completed: Vec<CompletedJob>,
    /// Health digest when the run was monitored (a monitor armed in
    /// [`Service::run_with`]); `None` otherwise, so unmonitored reports
    /// compare equal across observation modes.
    pub health: Option<HealthSummary>,
    /// The sealed decision audit when [`ServiceConfig::audit`] was
    /// armed; `None` otherwise, so unaudited reports compare equal
    /// across observation modes.
    pub audit: Option<AuditReport>,
}

impl ServiceReport {
    /// Plain-text summary (the demo's output format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== vsmooth-serve: {} ===\n", self.policy));
        out.push_str(&format!(
            "jobs        {} submitted, {} completed\n",
            self.jobs_submitted, self.jobs_completed
        ));
        out.push_str(&format!(
            "clock       {} virtual cycles over {} epochs\n",
            self.virtual_cycles, self.epochs
        ));
        out.push_str(&format!(
            "noise       {} droops in {} chip cycles = {:.4} droops/1k-cycles\n",
            self.droops, self.chip_cycles, self.droops_per_kilocycle
        ));
        out.push_str(&format!(
            "latency     mean queue wait {:.1} cycles\n",
            self.mean_queue_wait_cycles
        ));
        out.push_str(&format!(
            "throughput  {:.3} jobs/Mcycle at {:.1}% core utilization, mean IPC {:.3}\n",
            self.throughput_jobs_per_mcycle,
            100.0 * self.chip_utilization,
            self.mean_ipc
        ));
        out.push_str(&format!(
            "telemetry   {} workload profiles warmed\n",
            self.warmed_profiles
        ));
        if let Some(h) = &self.health {
            // The FIRING marker uses the same paging-severity
            // definition as /healthz's 503 and monitor_demo's exit
            // code (see `vsmooth_monitor::Severity::pages`).
            let firing = if h.pages_firing > 0 { " [FIRING]" } else { "" };
            out.push_str(&format!(
                "health      {} epochs, {} alerts ({} resolved), {} postmortems{firing}\n",
                h.epochs, h.alerts_fired, h.alerts_resolved, h.postmortems
            ));
        }
        out.push_str(&self.snapshot.render());
        out
    }
}

/// The online noise-aware scheduling service.
#[derive(Debug)]
pub struct Service {
    cfg: ServiceConfig,
    /// The pool's chips, built and warmed up by the first run (or the
    /// error that stopped it) and cloned into every run's pool.
    warmed: OnceLock<Result<Vec<ChipSession>, ChipError>>,
}

impl Service {
    /// Creates a service over `cfg`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an empty pool, a zero quantum
    /// or a zero queue capacity.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServeError> {
        if cfg.chips == 0 {
            return Err(ServeError::InvalidConfig("pool needs at least one chip"));
        }
        if cfg.slice_cycles == 0 {
            return Err(ServeError::InvalidConfig("slice_cycles must be non-zero"));
        }
        if cfg.queue_capacity == Some(0) {
            return Err(ServeError::InvalidConfig(
                "queue capacity must admit at least one job (or None for unbounded)",
            ));
        }
        Ok(Self {
            cfg,
            warmed: OnceLock::new(),
        })
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Runs `jobs` to completion under `policy` and reports. `workers`
    /// sizes the shard pool per [`ServiceConfig::runtime`]: with the
    /// default [`RuntimeMode::Auto`], `workers >= 2` runs one
    /// long-lived shard worker per count (every worker claims granted
    /// chips from one pool), while `workers <= 1`
    /// advances chips in-line on the calling thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownWorkload`] if a job names a workload the
    /// catalog does not have; [`ServeError::Chip`] on simulation
    /// failure; [`ServeError::ShardFailed`] if a shard worker panics.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        policy: &dyn PairPolicy,
        workers: usize,
    ) -> Result<ServiceReport, ServeError> {
        self.run_with(jobs, policy, workers, &Instruments::new())
            .map(|o| o.report)
    }

    /// [`Service::run_with`] with a tracer and monitor armed. Kept
    /// because the benchmark in `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Service::run`].
    pub fn run_monitored(
        &self,
        jobs: &[JobSpec],
        policy: &dyn PairPolicy,
        workers: usize,
        tracer: &Tracer,
        cfg: MonitorConfig,
    ) -> Result<(ServiceReport, HealthReport), ServeError> {
        let inst = Instruments::new().traced(tracer).monitored(cfg);
        self.run_with(jobs, policy, workers, &inst)
            .map(|o| (o.report, o.health.expect("an armed monitor seals a report")))
    }

    /// Like [`Service::run`], recording into whatever `inst` arms. The
    /// merge layer makes every record in `(epoch, chip)` order, so each
    /// artifact, like the report, is byte-identical for any `workers`
    /// and runtime mode.
    ///
    /// * `tracer`: job lifecycle spans (an `admit` instant, `queue` and
    ///   run spans), per-slice chip spans and a typed droop event per
    ///   margin crossing, all on the virtual-cycle clock.
    /// * `profile`: every crossing's triggered waveform window is
    ///   scored into a per-co-schedule profile (labels join the
    ///   resident workloads with `+`) and drawn as a `droop_window`
    ///   span on each chip's `profile` thread.
    /// * `monitor`: a health monitor watches the run epoch by epoch and
    ///   seals a `vsmooth-postmortem-v1` bundle whenever a rule fires;
    ///   the report carries its digest in [`ServiceReport::health`]
    ///   and its `alerts_total` and `monitor_*` series.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Service::run`].
    pub fn run_with(
        &self,
        jobs: &[JobSpec],
        policy: &dyn PairPolicy,
        workers: usize,
        inst: &Instruments,
    ) -> Result<Observed<ServiceReport>, ServeError> {
        for job in jobs {
            if by_name(&job.workload).is_none() {
                return Err(ServeError::UnknownWorkload(job.workload.clone()));
            }
        }
        let off = Tracer::disabled();
        let tracer = inst.tracer.unwrap_or(&off);
        // Shard workers; none runs the in-line coordinator.
        let shards = match self.cfg.runtime {
            RuntimeMode::Auto if workers >= 2 => workers,
            RuntimeMode::Auto | RuntimeMode::Coordinator => 0,
            RuntimeMode::Sharded => workers.max(1),
        };
        // The merge owns every artifact and decides which captures the
        // pool arms and drains for them.
        let mut merge = Merge::new(&self.cfg, tracer, inst, jobs.len());
        let warmed = self
            .warmed
            .get_or_init(|| warm_sessions(&self.cfg.chip, self.cfg.chips, self.cfg.slice_cycles))
            .as_ref()
            .map_err(|e| ServeError::Chip(e.clone()))?;
        let mut pool = ShardPool::new(warmed, shards, self.cfg.slice_cycles, merge.drain);
        merge.name_tracks();
        let mut pending: VecDeque<JobSpec> = {
            let mut sorted = jobs.to_vec();
            sorted.sort_by_key(|j| (j.arrival_cycle, j.id));
            sorted.into()
        };
        let mut ready: VecDeque<JobSpec> = VecDeque::new();
        let mut shadows: Vec<ShadowChip> =
            (0..self.cfg.chips).map(|_| ShadowChip::default()).collect();
        // The epoch script: epoch `e`'s record, folded and replayed by
        // the merge layer once the epoch's slice logs are in.
        let mut script = EpochScript::default();
        let mut now = 0u64;
        let mut epochs = 0u64;
        let mut finished_jobs = 0usize;

        while finished_jobs < jobs.len() {
            // Decision-loop wall latency is measured only when obs is
            // armed, so wall clocks never tick in unobserved runs.
            let decide_start = self.cfg.obs.is_some().then(Instant::now);
            let mut rec = EpochRec::new(epochs, now);
            while pending.front().is_some_and(|j| j.arrival_cycle <= now) {
                let job = pending.pop_front().expect("front checked");
                if let Some(capacity) = self.cfg.queue_capacity {
                    if ready.len() >= capacity {
                        // Overflow: replay everything decided so far
                        // plus this epoch's partial admissions, so
                        // metrics and trace state end exactly where
                        // the historical in-line loop left them, then
                        // surface the typed error.
                        rec.overflow = Some((capacity, job.id));
                        script.recs.push(rec);
                        script.drain(&mut merge, &mut pool)?;
                        return Err(ServeError::QueueOverflow {
                            capacity,
                            job: job.id,
                        });
                    }
                }
                rec.admits.push(job.clone());
                ready.push_back(job);
            }
            let any_running = shadows.iter().any(|s| s.occupied() > 0);
            if !any_running && ready.is_empty() {
                // Pool drained, queue empty: jump to the next arrival.
                // Discarding the record loses nothing — an admission
                // this iteration would have left `ready` non-empty.
                debug_assert!(rec.admits.is_empty(), "admitted jobs must reach the queue");
                now = pending.front().expect("jobs remain").arrival_cycle;
                continue;
            }
            if !ready.is_empty() && shadows.iter().any(|s| s.occupied() < 2) {
                // Placement is about to read the telemetry book: fold
                // every prior epoch into it first, so the pairing
                // scores see exactly the observations the historical
                // loop would have folded by now. The rest of those
                // epochs' replay waits until this epoch is granted.
                script.fold_through(epochs, &mut merge, &mut pool)?;
                self.place(
                    &mut shadows,
                    &mut ready,
                    merge.book(),
                    policy,
                    &mut rec,
                    &mut pool,
                )?;
            }
            for (chip, shadow) in shadows.iter_mut().enumerate() {
                if shadow.occupied() == 0 {
                    continue;
                }
                let mut cores = [None, None];
                for (core, slot) in shadow.cores.iter_mut().enumerate() {
                    if let Some(job) = slot {
                        job.executed_cycles += self.cfg.slice_cycles;
                        let finishes = job.executed_cycles >= job.total_cycles;
                        cores[core] = Some(CoreSlice {
                            job: job.spec.id,
                            workload: Arc::clone(&job.workload),
                            finishes,
                        });
                        if finishes {
                            *slot = None;
                            finished_jobs += 1;
                        }
                    }
                }
                rec.busy.push(BusyChip { chip, cores });
            }
            let busy_chips: Vec<usize> = rec.busy.iter().map(|b| b.chip).collect();
            pool.grant(epochs, &busy_chips)?;
            script.recs.push(rec);
            if let Some(start) = decide_start {
                pool.record_decision_latency(start.elapsed().as_micros() as u64);
            }
            now += self.cfg.slice_cycles;
            epochs += 1;
            // The shards now run this epoch's slices while this thread
            // replays the epochs placement folded, then opportunistically
            // merges every epoch whose logs are already in. Keeps obs
            // publishes flowing while shards work, bounds retained
            // logs, and — with no workers, where the grant already ran
            // every granted slice — runs the merge in exact lockstep
            // with the historical loop.
            script.merge_ready(&mut merge, &mut pool)?;
        }
        script.drain(&mut merge, &mut pool)?;
        merge.finalize(pool, policy.name())
    }

    /// Places ready jobs onto free cores: first complete half-empty
    /// chips with each one's best scoring partner, then fill empty
    /// chips with the best pair from the window, and finally let a
    /// partnerless leftover run solo rather than hold a core idle.
    ///
    /// Decisions mutate only the occupancy shadow; the chosen streams
    /// are shipped to the pool as `AddJob` commands and the placements
    /// recorded for the merge layer's replay.
    fn place(
        &self,
        shadows: &mut [ShadowChip],
        ready: &mut VecDeque<JobSpec>,
        book: &TelemetryBook,
        policy: &dyn PairPolicy,
        rec: &mut EpochRec,
        pool: &mut ShardPool,
    ) -> Result<(), ServeError> {
        // 1. Half-empty chips: match the running job with its best
        //    available partner.
        for (chip_idx, shadow) in shadows.iter_mut().enumerate() {
            if ready.is_empty() || shadow.occupied() != 1 {
                continue;
            }
            let resident = shadow.cores.iter().flatten().next().expect("one resident");
            let resident_cand = book.candidate(resident.spec.id, &resident.spec.workload);
            let window = ready.len().min(PAIRING_WINDOW);
            let mut best = (0usize, f64::NEG_INFINITY);
            for (qi, job) in ready.iter().take(window).enumerate() {
                let score =
                    policy.score_pair(&resident_cand, &book.candidate(job.id, &job.workload));
                if score > best.1 {
                    best = (qi, score);
                }
            }
            let job = ready.remove(best.0).expect("index in window");
            self.start_job(shadow, chip_idx, job, "pair_resident", rec, pool)?;
        }
        // 2. Empty chips: best pair within the window.
        for (chip_idx, shadow) in shadows.iter_mut().enumerate() {
            if ready.len() < 2 || shadow.occupied() != 0 {
                continue;
            }
            let window = ready.len().min(PAIRING_WINDOW);
            let cands: Vec<_> = ready
                .iter()
                .take(window)
                .map(|j| book.candidate(j.id, &j.workload))
                .collect();
            let mut best = (0usize, 1usize, f64::NEG_INFINITY);
            for i in 0..window {
                for j in (i + 1)..window {
                    let score = policy.score_pair(&cands[i], &cands[j]);
                    if score > best.2 {
                        best = (i, j, score);
                    }
                }
            }
            // Remove the later index first so the earlier stays valid.
            let second = ready.remove(best.1).expect("index in window");
            let first = ready.remove(best.0).expect("index in window");
            self.start_job(shadow, chip_idx, first, "best_pair", rec, pool)?;
            self.start_job(shadow, chip_idx, second, "best_pair", rec, pool)?;
        }
        // 3. A single leftover with a free chip runs solo.
        if let Some((chip_idx, shadow)) = shadows
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.occupied() == 0)
        {
            if ready.len() == 1 {
                let job = ready.pop_front().expect("one job");
                self.start_job(shadow, chip_idx, job, "solo", rec, pool)?;
            }
        }
        Ok(())
    }

    fn start_job(
        &self,
        shadow: &mut ShadowChip,
        chip_idx: usize,
        spec: JobSpec,
        reason: &'static str,
        rec: &mut EpochRec,
        pool: &mut ShardPool,
    ) -> Result<(), ServeError> {
        let workload = by_name(&spec.workload)
            .ok_or_else(|| ServeError::UnknownWorkload(spec.workload.clone()))?;
        // Instance-seeded stream: two jobs of the same workload phase
        // differently, like two real submissions would.
        let stream = workload.stream(spec.id, self.cfg.slice_cycles);
        let total_cycles = stream.total_cycles();
        let core = shadow
            .cores
            .iter()
            .position(Option::is_none)
            .expect("free core");
        pool.add_job(
            chip_idx,
            core,
            CellJob {
                id: spec.id,
                stream,
            },
        );
        rec.places.push(PlaceRec {
            spec: spec.clone(),
            chip: chip_idx,
            core,
            reason,
        });
        shadow.cores[core] = Some(ShadowJob {
            workload: spec.workload.as_str().into(),
            spec,
            total_cycles,
            executed_cycles: 0,
        });
        Ok(())
    }
}

/// The epoch script and how far the merge has got through it: every
/// epoch below `folded` is in the telemetry book, every epoch below
/// `merged` is fully replayed, and `merged <= folded <= recs.len()`.
/// Both advance strictly in epoch order; the fold may run ahead of the
/// replay, never behind it.
#[derive(Debug, Default)]
struct EpochScript {
    /// `recs[e]` is epoch `e`'s record.
    recs: Vec<EpochRec>,
    folded: u64,
    merged: u64,
}

impl EpochScript {
    /// Folds every epoch below `bound` into the telemetry book, waiting
    /// for their slice logs first. The logs stay with the pool for the
    /// replay.
    fn fold_through(
        &mut self,
        bound: u64,
        merge: &mut Merge,
        pool: &mut ShardPool,
    ) -> Result<(), ServeError> {
        pool.wait_through(bound)?;
        while self.folded < bound {
            let rec = &self.recs[self.folded as usize];
            merge.fold(rec, rec.busy.iter().map(|b| pool.log(rec.index, b.chip)));
            self.folded += 1;
        }
        Ok(())
    }

    /// Replays every folded epoch not yet replayed: collects each
    /// epoch's slice logs from the pool (in `rec.busy`'s chip order) and
    /// hands them to the merge layer.
    fn replay_folded(&mut self, merge: &mut Merge, pool: &mut ShardPool) -> Result<(), ServeError> {
        while self.merged < self.folded {
            let rec = &self.recs[self.merged as usize];
            let logs: Vec<SliceLog> = rec
                .busy
                .iter()
                .map(|b| pool.take_log(rec.index, b.chip))
                .collect();
            merge.replay(rec, &logs, pool)?;
            self.merged += 1;
        }
        Ok(())
    }

    /// Replays every folded epoch, then folds and replays each further
    /// epoch whose logs are already in, without blocking.
    fn merge_ready(&mut self, merge: &mut Merge, pool: &mut ShardPool) -> Result<(), ServeError> {
        self.replay_folded(merge, pool)?;
        while self.merged < self.recs.len() as u64 && pool.ready_through(self.merged + 1)? {
            self.fold_through(self.merged + 1, merge, pool)?;
            self.replay_folded(merge, pool)?;
        }
        Ok(())
    }

    /// Folds and replays the whole script, waiting for every log. Runs
    /// at the end of a run and on a queue overflow: there it replays
    /// the epochs placement already folded, then the later ones, and
    /// the overflow record's own replay surfaces the typed error last.
    fn drain(&mut self, merge: &mut Merge, pool: &mut ShardPool) -> Result<(), ServeError> {
        self.fold_through(self.recs.len() as u64, merge, pool)?;
        self.replay_folded(merge, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::synthetic_jobs;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_profile::ProfileReport;
    use vsmooth_sched::{OnlineDroop, RandomPairing};

    fn small_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
        cfg.chips = 2;
        cfg.slice_cycles = 500;
        cfg
    }

    fn traced(service: &Service, jobs: &[JobSpec], workers: usize, t: &Tracer) -> ServiceReport {
        let inst = Instruments::new().traced(t);
        service
            .run_with(jobs, &OnlineDroop, workers, &inst)
            .unwrap()
            .report
    }

    fn profiled(
        service: &Service,
        jobs: &[JobSpec],
        workers: usize,
        t: &Tracer,
    ) -> (ServiceReport, ProfileReport) {
        let inst = Instruments::new().traced(t).profiled();
        let o = service
            .run_with(jobs, &OnlineDroop, workers, &inst)
            .unwrap();
        (o.report, o.profile.unwrap())
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = small_cfg();
        c.chips = 0;
        assert!(Service::new(c).is_err());
        let mut c = small_cfg();
        c.slice_cycles = 0;
        assert!(Service::new(c).is_err());
        let mut c = small_cfg();
        c.queue_capacity = Some(0);
        assert!(matches!(Service::new(c), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn queue_overflow_is_a_typed_error() {
        // 12 jobs all arriving at cycle 0 against a 2-chip pool: far
        // more than 3 must wait, so a capacity of 3 overflows during
        // the very first admission sweep.
        let mut cfg = small_cfg();
        cfg.queue_capacity = Some(3);
        let service = Service::new(cfg).unwrap();
        let jobs: Vec<JobSpec> = (0..12)
            .map(|id| JobSpec {
                id,
                workload: "429.mcf".into(),
                arrival_cycle: 0,
            })
            .collect();
        match service.run(&jobs, &OnlineDroop, 1) {
            Err(ServeError::QueueOverflow { capacity, .. }) => assert_eq!(capacity, 3),
            other => panic!("expected QueueOverflow, got {other:?}"),
        }
    }

    #[test]
    fn generous_queue_capacity_changes_nothing() {
        // A bound the run never hits must leave the report identical to
        // the unbounded default.
        let jobs = synthetic_jobs(21, 8, 1_500);
        let unbounded = Service::new(small_cfg())
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        let mut cfg = small_cfg();
        cfg.queue_capacity = Some(jobs.len());
        let bounded = Service::new(cfg)
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        assert_eq!(unbounded.render(), bounded.render());
    }

    #[test]
    fn unknown_workloads_are_rejected_up_front() {
        let service = Service::new(small_cfg()).unwrap();
        let jobs = vec![JobSpec {
            id: 0,
            workload: "no-such-benchmark".into(),
            arrival_cycle: 0,
        }];
        assert!(matches!(
            service.run(&jobs, &OnlineDroop, 1),
            Err(ServeError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn service_drains_every_submission() {
        let service = Service::new(small_cfg()).unwrap();
        let jobs = synthetic_jobs(11, 10, 1_500);
        let report = service.run(&jobs, &OnlineDroop, 2).unwrap();
        assert_eq!(report.jobs_completed, 10);
        assert_eq!(report.completed.len(), 10);
        assert!(report.chip_cycles > 0);
        assert!(report.virtual_cycles > 0);
        assert!(report.chip_utilization > 0.0 && report.chip_utilization <= 1.0);
        assert!(report.warmed_profiles > 0);
        // Every job executed its full program length and never started
        // before it arrived.
        for job in &report.completed {
            assert!(job.executed_cycles > 0);
            assert!(job.started_cycle >= job.spec.arrival_cycle);
            assert!(job.finished_cycle > job.started_cycle);
        }
        // The renderable report mentions the policy and the metrics.
        let text = report.render();
        assert!(text.contains("Droop(online)"));
        assert!(text.contains("serve_slices_total"));
    }

    #[test]
    fn a_single_job_runs_solo_against_the_idle_filler() {
        let service = Service::new(small_cfg()).unwrap();
        let jobs = vec![JobSpec {
            id: 0,
            workload: "429.mcf".into(),
            arrival_cycle: 100,
        }];
        let report = service.run(&jobs, &OnlineDroop, 1).unwrap();
        assert_eq!(report.jobs_completed, 1);
        assert!(report.completed[0].started_cycle >= 100);
    }

    #[test]
    fn empty_submission_stream_reports_zeros() {
        let service = Service::new(small_cfg()).unwrap();
        let report = service.run(&[], &OnlineDroop, 4).unwrap();
        assert_eq!(report.jobs_completed, 0);
        assert_eq!(report.virtual_cycles, 0);
        assert_eq!(report.droops_per_kilocycle, 0.0);
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let jobs = synthetic_jobs(3, 12, 1_000);
        let run = |workers: usize| {
            Service::new(small_cfg())
                .unwrap()
                .run(&jobs, &OnlineDroop, workers)
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(3));
        assert_eq!(one.render(), run(3).render());
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let jobs = synthetic_jobs(7, 8, 1_200);
        let service = Service::new(small_cfg()).unwrap();
        let plain = service.run(&jobs, &OnlineDroop, 2).unwrap();
        let tracer = Tracer::enabled();
        let traced = traced(&service, &jobs, 2, &tracer);
        // Tracing is pure observation: the schedule and report are
        // unchanged.
        assert_eq!(plain, traced);
        // Every job got an admit instant, a queue span and a run span.
        let records = tracer.records();
        let spans = records.iter().filter(|r| r.is_span()).count();
        let instants = records.iter().filter(|r| r.is_instant()).count();
        assert!(spans >= 2 * traced.jobs_completed + traced.epochs as usize);
        assert!(instants >= traced.jobs_completed);
        // Droop events match the report's droop count.
        assert_eq!(tracer.droops_total(), traced.droops);
        // Labeled counter and percentile histograms are in the
        // snapshot.
        assert_eq!(
            traced
                .snapshot
                .counter_labeled("droops_total", &[("policy", "Droop(online)")]),
            traced.droops
        );
        assert!(traced.snapshot.histogram("queue_wait_kcycles").is_some());
        let prom = traced.snapshot.render_prometheus();
        assert!(prom.contains("droops_total{policy=\"Droop(online)\"}"));
        assert!(prom.contains("queue_wait_kcycles{quantile=\"0.99\"}"));
    }

    #[test]
    fn slice_spans_tile_each_completed_jobs_run() {
        use std::collections::BTreeMap;
        use vsmooth_trace::{ArgValue, TraceRecord};
        /// One slice span's `(pid, tid, name, ts, dur)`.
        type SliceSpan = (u32, u64, String, u64, u64);
        let jobs = synthetic_jobs(29, 10, 1_000);
        let cfg = small_cfg();
        let slice_cycles = cfg.slice_cycles;
        let service = Service::new(cfg).unwrap();
        // One worker runs the in-line coordinator; 2 and 8 run shards.
        for workers in [1, 2, 8] {
            let tracer = Tracer::enabled();
            let report = traced(&service, &jobs, workers, &tracer);
            // Job id -> its slice spans, in record order.
            let mut by_job: BTreeMap<u64, Vec<SliceSpan>> = BTreeMap::new();
            for record in tracer.records() {
                let TraceRecord::Span {
                    name,
                    cat: "slice",
                    pid,
                    tid,
                    ts,
                    dur,
                    args,
                } = record
                else {
                    continue;
                };
                let [("job", ArgValue::U64(job))] = args.as_slice() else {
                    panic!("a slice span's only arg is its job id, got {args:?}");
                };
                by_job
                    .entry(*job)
                    .or_default()
                    .push((pid, tid, name, ts, dur));
            }
            assert_eq!(by_job.len(), report.completed.len(), "{workers} workers");
            for job in &report.completed {
                let spans = by_job
                    .remove(&job.spec.id)
                    .unwrap_or_else(|| panic!("job {} has no slice spans", job.spec.id));
                let (pid, tid) = (spans[0].0, spans[0].1);
                let mut cursor = job.started_cycle;
                let mut executed = 0;
                for (p, t, name, ts, dur) in spans {
                    assert_eq!((p, t), (pid, tid), "job {} moved track", job.spec.id);
                    assert_eq!(name, job.spec.workload);
                    assert_eq!(ts, cursor, "job {} spans leave a gap", job.spec.id);
                    assert_eq!(dur, slice_cycles);
                    cursor += dur;
                    executed += dur;
                }
                assert_eq!(cursor, job.finished_cycle, "job {}", job.spec.id);
                assert_eq!(executed, job.executed_cycles, "job {}", job.spec.id);
            }
        }
    }

    #[test]
    fn profiled_run_attributes_every_droop() {
        let jobs = synthetic_jobs(17, 8, 1_200);
        let service = Service::new(small_cfg()).unwrap();
        let tracer = Tracer::enabled();
        let (report, profile) = profiled(&service, &jobs, 2, &tracer);
        // Acceptance: every droop the report counts got a captured,
        // scored window — no more, no less.
        assert_eq!(profile.total_droops, report.droops);
        assert_eq!(profile.total_windows, report.droops);
        let per_label: u64 = profile.workloads.iter().map(|w| w.profile.droops).sum();
        assert_eq!(per_label, report.droops);
        // The attribution series are in the report's own snapshot.
        assert_eq!(
            report.snapshot.counter("profile_droops_total"),
            report.droops
        );
        // Window spans rode along on the chip timelines.
        let spans = tracer.records().iter().filter(|r| r.is_span()).count();
        assert!(spans > 0);
        assert!(tracer.to_chrome_json().contains("droop_window"));
    }

    #[test]
    fn obs_publishing_does_not_change_the_report() {
        use vsmooth_obs::TelemetryHub;
        let jobs = synthetic_jobs(7, 8, 1_200);
        let service = Service::new(small_cfg()).unwrap();
        let (monitored, health) = service
            .run_monitored(
                &jobs,
                &OnlineDroop,
                2,
                &Tracer::disabled(),
                MonitorConfig::default(),
            )
            .unwrap();

        let hub = std::sync::Arc::new(TelemetryHub::new());
        let mut cfg = small_cfg();
        cfg.obs = Some(ObsConfig::new(std::sync::Arc::clone(&hub)));
        let observed_service = Service::new(cfg).unwrap();
        let (observed, obs_health) = observed_service
            .run_monitored(
                &jobs,
                &OnlineDroop,
                2,
                &Tracer::disabled(),
                MonitorConfig::default(),
            )
            .unwrap();

        // Publishing is pure observation: the report — snapshot,
        // metrics render, health digest, everything — is identical.
        assert_eq!(monitored, observed);
        assert_eq!(health, obs_health);

        // The hub saw every epoch plus the final publish, with live
        // state attached.
        assert_eq!(hub.publishes(), observed.epochs + 1);
        let last = hub.latest();
        let status = last.service.as_ref().expect("service status published");
        assert!(status.done);
        assert_eq!(status.jobs_completed, observed.jobs_completed as u64);
        assert_eq!(status.droops, observed.droops);
        // A sharded run publishes the live introspection section, and
        // its per-shard slice tallies plus the coordinator's reconcile
        // exactly with the deterministic slice counter.
        let shards = last.shards.as_ref().expect("sharded run publishes /shards");
        assert_eq!(
            shards.shards.iter().map(|s| s.slices).sum::<u64>() + shards.coordinator_slices,
            observed.snapshot.counter("serve_slices_total")
        );
        assert_eq!(last.health.as_ref().map(|h| h.epochs), Some(health.epochs));
        assert!(!last.recent_droops.is_empty());
    }

    #[test]
    fn obs_only_run_matches_plain_report() {
        use vsmooth_obs::TelemetryHub;
        let jobs = synthetic_jobs(11, 6, 900);
        let plain = Service::new(small_cfg())
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        let hub = std::sync::Arc::new(TelemetryHub::new());
        let mut cfg = small_cfg();
        let mut oc = ObsConfig::new(std::sync::Arc::clone(&hub));
        oc.publish_every = 4;
        oc.recent_droops = 8;
        cfg.obs = Some(oc);
        let observed = Service::new(cfg)
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        // Arming droop capture for the ring must not perturb physics
        // or the report (crossing capture is observational).
        assert_eq!(plain, observed);
        // Publishes: one per 4 epochs plus the final.
        assert_eq!(hub.publishes(), observed.epochs / 4 + 1);
        // The ring is bounded at the configured capacity.
        assert!(hub.latest().recent_droops.len() <= 8);
    }

    #[test]
    fn instruments_do_not_change_the_schedule() {
        let jobs = synthetic_jobs(7, 8, 1_200);
        let service = Service::new(small_cfg()).unwrap();
        let plain = service.run(&jobs, &OnlineDroop, 2).unwrap();
        let inst = Instruments::new()
            .profiled()
            .monitored(MonitorConfig::default());
        let observed = service.run_with(&jobs, &OnlineDroop, 2, &inst).unwrap();
        let (armed, health) = (observed.report, observed.health.unwrap());
        // Profiling and monitoring are pure observation: same schedule,
        // same physics (the report differs only in the extra series).
        assert_eq!(plain.droops, armed.droops);
        assert_eq!(plain.virtual_cycles, armed.virtual_cycles);
        assert_eq!(plain.completed, armed.completed);
        // One monitoring epoch per scheduling epoch, digest attached.
        assert_eq!(health.epochs, armed.epochs);
        assert_eq!(armed.health, Some(health.summary()));
        assert!(plain.health.is_none());
        // The monitor's gauges landed in the embedded snapshot.
        assert!(armed
            .snapshot
            .gauge("monitor_droop_rate_per_kilocycle")
            .is_some());
        assert_eq!(
            armed.snapshot.counter("monitor_epochs_total"),
            health.epochs
        );
        assert!(armed.render().contains("health"));
    }

    #[test]
    fn instrument_artifacts_are_identical_across_worker_counts() {
        let jobs = synthetic_jobs(41, 10, 1_000);
        let run = |workers: usize| {
            let tracer = Tracer::enabled();
            let inst = Instruments::new()
                .traced(&tracer)
                .profiled()
                .monitored(MonitorConfig::default());
            let service = Service::new(small_cfg()).unwrap();
            let o = service
                .run_with(&jobs, &OnlineDroop, workers, &inst)
                .unwrap();
            let (profile, health) = (o.profile.unwrap(), o.health.unwrap());
            (o.report, tracer.to_chrome_json(), profile.to_json(), health)
        };
        let (report, trace, profile, health) = run(1);
        assert!(trace.contains("traceEvents"));
        assert!(profile.contains("vsmooth-profile-v1"));
        for workers in [2, 8] {
            let (r, t, p, h) = run(workers);
            assert_eq!(report, r, "report at {workers} workers");
            assert_eq!(trace, t, "trace at {workers} workers");
            assert_eq!(profile, p, "profile at {workers} workers");
            // Alert sequences and the full health JSON — postmortem
            // bytes included — must not depend on the worker count.
            assert_eq!(health.alerts, h.alerts);
            assert_eq!(health.to_json(), h.to_json(), "health at {workers} workers");
            for (a, b) in health.postmortems.iter().zip(&h.postmortems) {
                assert_eq!(a.to_json(), b.to_json());
            }
        }
    }

    #[test]
    fn monitored_trace_carries_alert_instants() {
        // A monitor with a hair-trigger threshold rule must fire on
        // any droop activity and show up on the monitor timeline.
        let jobs = synthetic_jobs(17, 8, 1_200);
        let service = Service::new(small_cfg()).unwrap();
        let tracer = Tracer::enabled();
        let cfg = MonitorConfig {
            rules: vec![vsmooth_monitor::SloRule {
                fire_after: 1,
                ..vsmooth_monitor::SloRule::threshold(
                    "any_droops",
                    vsmooth_monitor::Severity::Info,
                    vsmooth_monitor::Signal::DroopRate,
                    true,
                    0.0,
                )
            }],
            ..MonitorConfig::default()
        };
        let (report, health) = service
            .run_monitored(&jobs, &OnlineDroop, 2, &tracer, cfg)
            .unwrap();
        assert!(report.droops > 0, "scenario needs droop activity");
        assert!(!health.alerts.is_empty());
        assert_eq!(
            report.snapshot.counter_labeled(
                "alerts_total",
                &[("rule", "any_droops"), ("severity", "info")]
            ),
            1
        );
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"any_droops\""));
        // Droop events were captured for the monitor even though the
        // flight recorder, not the tracer, is their consumer.
        assert_eq!(tracer.droops_total(), report.droops);
    }

    /// A service warms its chips once and every run's pool starts from
    /// clones, so nothing one run arms or advances reaches the next. One
    /// service runs profiled, then plain, then traced and monitored, at
    /// 0, 1 and 2 workers — once with the invariant checker, an obs hub
    /// and the audit armed in its config, once with nothing — and every
    /// run's artifacts equal a fresh service's for the same call.
    #[test]
    fn warmed_chips_carry_nothing_between_runs() {
        use std::sync::Mutex;
        use vsmooth_obs::{ObsSnapshot, TelemetryHub};
        let jobs = synthetic_jobs(23, 8, 1_000);
        // Every snapshot a service publishes, its live `shards` section
        // (execution state by design) left out.
        let published = Arc::new(Mutex::new(Vec::new()));
        let config = |armed: bool| {
            let mut cfg = small_cfg();
            if armed {
                cfg.invariants = true;
                cfg.audit = Some(AuditConfig::default());
                let mut oc = ObsConfig::new(Arc::new(TelemetryHub::new()));
                let sink = Arc::clone(&published);
                oc.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
                    sink.lock().unwrap().push(format!(
                        "{}{:?}",
                        snap.metrics.render(),
                        (
                            &snap.health,
                            &snap.service,
                            &snap.recent_droops,
                            &snap.decisions,
                            &snap.profile_json
                        )
                    ));
                }));
                cfg.obs = Some(oc);
            }
            cfg
        };
        let artifacts = |service: &Service, call: usize, workers: usize| {
            let tracer = Tracer::enabled();
            let inst = match call {
                0 => Instruments::new().profiled(),
                1 => Instruments::new(),
                _ => Instruments::new()
                    .traced(&tracer)
                    .monitored(MonitorConfig::default()),
            };
            let o = service
                .run_with(&jobs, &OnlineDroop, workers, &inst)
                .unwrap();
            (
                o.report.render(),
                o.report,
                tracer.to_chrome_json(),
                o.profile.map(|p| p.to_json()),
                o.health.map(|h| h.to_json()),
                std::mem::take(&mut *published.lock().unwrap()),
            )
        };
        for armed in [true, false] {
            let warmed = Service::new(config(armed)).unwrap();
            for workers in [0, 1, 2] {
                for call in 0..3 {
                    let reused = artifacts(&warmed, call, workers);
                    let fresh = artifacts(&Service::new(config(armed)).unwrap(), call, workers);
                    assert_eq!(armed, !reused.5.is_empty());
                    assert_eq!(
                        reused, fresh,
                        "call {call} at {workers} workers, armed {armed}"
                    );
                }
            }
        }
    }

    #[test]
    fn policies_change_the_schedule_but_not_the_work() {
        let jobs = synthetic_jobs(5, 12, 800);
        let service = Service::new(small_cfg()).unwrap();
        let droop = service.run(&jobs, &OnlineDroop, 2).unwrap();
        let random = service.run(&jobs, &RandomPairing { seed: 9 }, 2).unwrap();
        assert_eq!(droop.jobs_completed, random.jobs_completed);
        // Same jobs, same total program lengths.
        let total = |r: &ServiceReport| r.completed.iter().map(|j| j.executed_cycles).sum::<u64>();
        assert_eq!(total(&droop), total(&random));
        assert_ne!(droop.policy, random.policy);
    }
}

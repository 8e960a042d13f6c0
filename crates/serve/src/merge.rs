//! The merge layer: the service's one artifact owner. It owns the
//! metrics registry, the profiler and the monitor, names the trace's
//! processes and threads, decides the [`DrainPlan`] the executors
//! capture for it, and replays the decision loop's epoch script
//! against per-chip slice logs, reconstructing every artifact —
//! metrics, trace records, decision audit, monitor feed, profiler
//! attribution, obs snapshots, the telemetry book and the completed
//! jobs — in exactly the order the historical single-coordinator loop
//! produced them. [`Merge::finalize`] assembles each sealed report
//! once and hands them back as one `Observed<ServiceReport>`.
//!
//! Each epoch merges in two steps. [`Merge::fold`] folds the epoch's
//! slice telemetry into the [`TelemetryBook`], the one piece of merge
//! state placement reads; [`Merge::replay`] produces everything else.
//! The two touch disjoint state, so the decision loop folds finished
//! epochs before it places, grants the next epoch, and only then
//! replays them — the replay overlaps the shards' next slice instead
//! of idling them. Folds and replays each run in epoch order, and an
//! epoch is always folded before it is replayed.
//!
//! The replay is keyed by `(epoch, chip)`: epoch records are replayed
//! in epoch order, and within an epoch busy chips are walked in
//! chip-index order. Which executor ran a slice, and in what real-time
//! order — none of it is visible here,
//! which is what makes every artifact byte-identical at every worker
//! count, the in-line coordinator's none included (enforced by
//! `tests/shard_equivalence.rs`). The
//! single documented exception is the live shard-runtime section
//! ([`ObsSnapshot::shards`](vsmooth_obs::ObsSnapshot)): per-shard
//! counters the pool assembles under its lock at publish time
//! ([`ShardPool::status`]), whose per-executor slice counts, queue
//! high-water marks and wall-clock latencies are execution-dependent by
//! design — only the total slice count reconciles deterministically
//! (`tests/shard_stress.rs`).
//!
//! The script records each decision once; the replay derives the
//! audit from it ([`epoch_decisions`](crate::audit::epoch_decisions))
//! and counts queue depth and residents itself.
//!
//! The merge is the only producer of trace records: executors hand
//! back slice logs, and the replay records every span, instant and
//! droop event from them, slice spans included, in `(epoch, chip)`
//! order.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::audit::{epoch_decisions, AuditLog};
use crate::control::{EpochRec, SliceLog};
use crate::instruments::{Instruments, Observed};
use crate::job::CompletedJob;
use crate::service::{ServiceConfig, ServiceReport};
use crate::shard::{DrainPlan, ShardPool};
use crate::telemetry::TelemetryBook;
use crate::ServeError;
use vsmooth_chip::sense::CrossingGrid;
use vsmooth_chip::{DroopWindow, WindowConfig, PHASE_MARGIN_PCT};
use vsmooth_monitor::{EpochSample, HealthReport, Monitor, SliceRecord};
use vsmooth_obs::{ObsConfig, ObsSnapshot, ServiceStatus, ShardsStatus};
use vsmooth_profile::{emit_window_span, Profiler};
use vsmooth_stats::{MetricsRegistry, MetricsSnapshot};
use vsmooth_trace::{chip_pid, ArgValue, BatchRing, DroopBatch, Tracer, PID_JOBS, PID_MONITOR};

/// Virtual thread id hosting `droop_window` spans on a chip timeline
/// (cores are threads 0 and 1).
const PROFILE_TID: u64 = 2;

/// One executed slice of one chip, remembered so droop windows that
/// seal later (their tail crosses a slice boundary, or the run ends)
/// can still be labeled with the jobs that were resident at the
/// trigger and mapped back onto the virtual clock.
#[derive(Debug)]
struct SliceSeg {
    /// Session clock at the start of the slice.
    session_start: u64,
    /// Virtual clock at the start of the slice.
    virtual_start: u64,
    /// Workloads resident during the slice, joined with `+`.
    label: Arc<str>,
}

/// What the merge layer knows about a job currently on a core.
#[derive(Debug)]
struct RunMeta {
    spec: crate::job::JobSpec,
    started_cycle: u64,
    executed_cycles: u64,
    instructions: f64,
    attributed_droops: u64,
}

/// The replay engine plus all artifact-side run state.
pub(crate) struct Merge<'a> {
    metrics: MetricsRegistry,
    tracer: &'a Tracer,
    profiler: Option<Profiler>,
    monitor: Option<Monitor>,
    obs: Option<&'a ObsConfig>,
    publish_every: u64,
    /// The /trace/recent ring: an independent coordinator-side copy
    /// of recent crossings (the tracer's own ring stays
    /// exporter-owned). Each slice's batch is shared with the monitor's
    /// flight recorder and every snapshot published while it is in the
    /// ring.
    recent: Option<BatchRing<DroopBatch>>,
    /// The run's capture plan: which slice channels the pool arms and
    /// executors drain, and which consumers want droop events.
    pub(crate) drain: DrainPlan,
    /// The decision audit ring, when `ServiceConfig::audit` armed it.
    /// Derived and folded here at replay time, so its contents are
    /// deterministic.
    audit: Option<AuditLog>,
    slice_cycles: u64,
    jobs_submitted: usize,
    book: TelemetryBook,
    running: BTreeMap<u64, RunMeta>,
    completed: Vec<CompletedJob>,
    segs: Vec<Vec<SliceSeg>>,
    admitted: u64,
    droops: u64,
    /// Occupied core-quanta over every merged epoch.
    busy_core_quanta: u64,
    /// Slice counters batched between observation points: the registry
    /// is only readable at obs publishes and at finalize, so per-slice
    /// `counter_add` calls (a series lookup each) can be accumulated
    /// locally and flushed right before each of those points without
    /// changing a single observable byte.
    pending_slices: u64,
    pending_cycles: u64,
    epochs_merged: u64,
    /// The virtual clock at the end of the last merged epoch.
    clock: u64,
    last_profile: Option<Arc<String>>,
    invariant_violations: usize,
}

impl<'a> Merge<'a> {
    /// Arms every instrument `cfg` and `inst` ask for — the registry
    /// with its series descriptions, the profiler, the monitor, the
    /// audit ring — and decides the capture plan executors drain for
    /// them. Records nothing yet; see [`Merge::name_tracks`].
    pub(crate) fn new(
        cfg: &'a ServiceConfig,
        tracer: &'a Tracer,
        inst: &Instruments,
        jobs_submitted: usize,
    ) -> Self {
        // Capture at the grid-quantized margin so per-event logs agree
        // exactly with the aggregate droop counts in `SliceStats`
        // (which come from the crossing grid).
        let margin = CrossingGrid::droop_grid().quantized_margin(PHASE_MARGIN_PCT);
        let profiler = inst.profile.then(|| Profiler::new(margin));
        let monitor = inst.monitor.clone().map(Monitor::new);
        let obs = cfg.obs.as_ref();
        let droop_events = tracer.is_enabled() || monitor.is_some() || obs.is_some();
        let drain = DrainPlan {
            crossings: droop_events || profiler.is_some(),
            droop_events,
            // Profiling arms crossing *and* window capture at the
            // profiler's own margin, in the profiler's window shape.
            windows: inst.profile.then(WindowConfig::default),
            invariants: cfg.invariants,
            margin,
        };
        let mut metrics = MetricsRegistry::new();
        metrics.describe(
            "serve_jobs_admitted_total",
            "Jobs admitted from the submitted stream into the ready queue.",
        );
        metrics.describe("serve_jobs_completed_total", "Jobs run to completion.");
        metrics.describe(
            "serve_droops_total",
            "Droop emergencies at the phase margin, summed over the pool.",
        );
        metrics.describe(
            "droops_total",
            "Droop emergencies observed, per pairing policy.",
        );
        metrics.describe(
            "queue_wait_kcycles",
            "Admission-queue wait per completed job, kilocycles.",
        );
        if cfg.audit.is_some() {
            metrics.describe(
                "serve_audit_events_total",
                "Scheduler decisions folded into the audit ring.",
            );
        }
        let publish_every = obs.map_or(1, |o| o.publish_every.max(1));
        let recent = obs.map(|o| BatchRing::new(o.recent_droops.max(1)));
        Self {
            metrics,
            tracer,
            profiler,
            monitor,
            obs,
            publish_every,
            recent,
            drain,
            audit: cfg.audit.as_ref().map(|a| AuditLog::new(a.capacity)),
            slice_cycles: cfg.slice_cycles,
            jobs_submitted,
            book: TelemetryBook::new(),
            running: BTreeMap::new(),
            completed: Vec::new(),
            segs: (0..cfg.chips).map(|_| Vec::new()).collect(),
            admitted: 0,
            droops: 0,
            busy_core_quanta: 0,
            pending_slices: 0,
            pending_cycles: 0,
            epochs_merged: 0,
            clock: 0,
            last_profile: None,
            invariant_violations: 0,
        }
    }

    /// Names the trace's processes and threads: the jobs timeline, each
    /// chip with its cores (and its `profile` thread when profiling),
    /// and the monitor timeline when monitoring. The service calls it
    /// once the pool is built, so a run whose chips fail to build
    /// leaves the tracer empty.
    pub(crate) fn name_tracks(&self) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.process_name(PID_JOBS, "jobs");
        for c in 0..self.segs.len() {
            self.tracer.process_name(chip_pid(c), format!("chip{c}"));
            self.tracer.thread_name(chip_pid(c), 0, "core0");
            self.tracer.thread_name(chip_pid(c), 1, "core1");
            if self.profiler.is_some() {
                self.tracer.thread_name(chip_pid(c), PROFILE_TID, "profile");
            }
        }
        if self.monitor.is_some() {
            self.tracer.process_name(PID_MONITOR, "monitor");
        }
    }

    /// The placement loop scores candidates against this book; the
    /// decision loop must have folded every prior epoch before reading
    /// it.
    pub(crate) fn book(&self) -> &TelemetryBook {
        &self.book
    }

    /// Folds one epoch's slice telemetry into the book: every busy
    /// core's counter delta with its chip's droop rate, in `(chip,
    /// core)` order, exactly the observations (and order) the
    /// historical loop folded. `logs` are the epoch's slice logs in
    /// `rec.busy` order. Nothing else reads or writes the book, so an
    /// epoch may be folded any time before its replay.
    pub(crate) fn fold<'l>(
        &mut self,
        rec: &EpochRec,
        logs: impl IntoIterator<Item = &'l SliceLog>,
    ) {
        for (b, log) in rec.busy.iter().zip(logs) {
            let dpk = log.stats.droops_per_kilocycle();
            for (cs, delta) in b.cores.iter().zip(&log.stats.core_deltas) {
                if let Some(cs) = cs {
                    self.book.observe(&cs.workload, delta, dpk);
                }
            }
        }
    }

    /// Replays one epoch record, already [folded](Self::fold), with
    /// its busy chips' logs (in `rec.busy` order); a publish reads the
    /// live `shards` section from `pool`. Returns the typed
    /// overflow error when the record ends in an admission overflow,
    /// after replaying the admissions that preceded it — leaving
    /// metrics and trace state exactly as the historical in-line loop
    /// left them.
    pub(crate) fn replay(
        &mut self,
        rec: &EpochRec,
        logs: &[SliceLog],
        pool: &ShardPool,
    ) -> Result<(), ServeError> {
        let now = rec.now;
        if let Some(log) = self.audit.as_mut() {
            let decisions = epoch_decisions(rec, self.slice_cycles);
            if !decisions.is_empty() {
                self.metrics
                    .counter_add("serve_audit_events_total", decisions.len() as u64);
            }
            if self.tracer.is_enabled() {
                for d in &decisions {
                    let mut args = vec![("reason", ArgValue::from(d.reason))];
                    if let Some(chip) = d.chip {
                        args.push(("chip", ArgValue::from(chip)));
                    }
                    if let Some(job) = d.job {
                        args.push(("job", ArgValue::from(job)));
                    }
                    self.tracer.instant(
                        d.kind.label(),
                        "decision",
                        PID_JOBS,
                        d.job.unwrap_or(0),
                        d.cycle,
                        args,
                    );
                }
            }
            log.push(decisions);
        }
        for job in &rec.admits {
            self.metrics.counter_add("serve_jobs_admitted_total", 1);
            self.admitted += 1;
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    "admit",
                    "job",
                    PID_JOBS,
                    job.id,
                    job.arrival_cycle,
                    vec![("workload", ArgValue::from(job.workload.as_str()))],
                );
            }
        }
        if let Some((capacity, job)) = rec.overflow {
            return Err(ServeError::QueueOverflow { capacity, job });
        }
        for p in &rec.places {
            if self.tracer.is_enabled() {
                self.tracer.complete(
                    "queue",
                    "job",
                    PID_JOBS,
                    p.spec.id,
                    p.spec.arrival_cycle,
                    now - p.spec.arrival_cycle,
                    vec![
                        ("workload", ArgValue::from(p.spec.workload.as_str())),
                        ("chip", ArgValue::from(p.chip)),
                        ("core", ArgValue::from(p.core)),
                    ],
                );
            }
            self.running.insert(
                p.spec.id,
                RunMeta {
                    spec: p.spec.clone(),
                    started_cycle: now,
                    executed_cycles: 0,
                    instructions: 0.0,
                    attributed_droops: 0,
                },
            );
        }
        let mut epoch_cycles = 0u64;
        let mut epoch_droops = 0u64;
        let mut epoch_min_margin = PHASE_MARGIN_PCT;
        let mut epoch_margin_weight = 0.0f64;
        // The epoch's phase label, shared by all of its droop events.
        let mut phase: Option<Arc<str>> = None;
        for (b, log) in rec.busy.iter().zip(logs) {
            let slice = &log.stats;
            self.busy_core_quanta += b.cores.iter().flatten().count() as u64;
            for (core, cs) in b.cores.iter().enumerate() {
                // The decision loop predicted this slice's completions
                // analytically; the executor saw them for real. Any
                // disagreement means the analytic model is wrong.
                let predicted = cs
                    .as_ref()
                    .and_then(|c| if c.finishes { Some(c.job) } else { None });
                debug_assert_eq!(
                    log.finished[core], predicted,
                    "analytic completion disagrees with the executor"
                );
            }
            // Slice counters land here, not at execution time: shards
            // run ahead of the merge, and obs snapshots taken at
            // publish boundaries must count exactly the slices merged
            // so far to stay executor-independent. They accumulate
            // locally and flush before the next registry read.
            self.pending_slices += 1;
            self.pending_cycles += slice.cycles;
            self.droops += slice.droops;
            self.invariant_violations += log.invariant_violations;
            if self.monitor.is_some() {
                epoch_cycles += slice.cycles;
                epoch_droops += slice.droops;
                epoch_min_margin = epoch_min_margin.min(PHASE_MARGIN_PCT - slice.max_droop_pct);
                epoch_margin_weight +=
                    (PHASE_MARGIN_PCT + slice.mean_dev_pct) * slice.cycles as f64;
            }
            if slice.droops > 0 {
                self.metrics.observe("droop_depth_pct", slice.max_droop_pct);
            }
            if self.tracer.is_enabled() {
                // One `slice` span per resident core, in core order,
                // named after its workload.
                for (core, cs) in b.cores.iter().enumerate() {
                    if let Some(cs) = cs {
                        self.tracer.complete(
                            &*cs.workload,
                            "slice",
                            chip_pid(b.chip),
                            core as u64,
                            now,
                            slice.cycles,
                            vec![("job", ArgValue::from(cs.job))],
                        );
                    }
                }
            }
            if self.drain.crossings {
                // The slice's context, built once and shared by its
                // droop events, its monitor record and its profile
                // segment.
                let workloads: Arc<[Arc<str>]> = b
                    .cores
                    .iter()
                    .flatten()
                    .map(|cs| Arc::clone(&cs.workload))
                    .collect();
                let label: Arc<str> = workloads.join("+").into();
                // Busy chips only ever advance one slice per epoch, so
                // every captured crossing maps onto this slice's
                // window of the virtual clock.
                let slice_start = log.session_start;
                if self.drain.droop_events && !log.crossings.is_empty() {
                    let phase = phase.get_or_insert_with(|| format!("epoch{}", rec.index).into());
                    // One batch per slice, shared by every consumer:
                    // the tracer renders from a borrow, the flight
                    // recorder and the obs ring hold the same
                    // allocation.
                    let batch = Arc::new(DroopBatch {
                        chip: b.chip,
                        workloads: Arc::clone(&workloads),
                        label: Arc::clone(&label),
                        phase: Arc::clone(phase),
                        crossings: (log.crossings.iter())
                            .map(|c| (now + (c.cycle - slice_start), c.depth_pct))
                            .collect(),
                    });
                    self.tracer.droops(&batch);
                    if let Some(m) = self.monitor.as_mut() {
                        m.on_droops(Arc::clone(&batch));
                    }
                    if let Some(ring) = self.recent.as_mut() {
                        ring.push(batch);
                    }
                }
                if let Some(m) = self.monitor.as_mut() {
                    m.on_slice(SliceRecord {
                        start_cycle: now,
                        chip: b.chip,
                        label: Arc::clone(&label),
                        cycles: slice.cycles,
                        droops: slice.droops,
                        max_droop_pct: slice.max_droop_pct,
                    });
                }
                if let Some(p) = self.profiler.as_mut() {
                    self.segs[b.chip].push(SliceSeg {
                        session_start: slice_start,
                        virtual_start: now,
                        label,
                    });
                    record_windows(p, self.tracer, b.chip, &self.segs[b.chip], &log.windows);
                }
            }
            for core in 0..2 {
                let Some(cs) = &b.cores[core] else {
                    continue;
                };
                let meta = self.running.get_mut(&cs.job).expect("placed job tracked");
                meta.executed_cycles += slice.cycles;
                meta.instructions += slice.core_deltas[core].instructions();
                meta.attributed_droops += slice.droops;
                if cs.finishes {
                    let meta = self.running.remove(&cs.job).expect("placed job tracked");
                    self.metrics.counter_add("serve_jobs_completed_total", 1);
                    let finished_cycle = now + self.slice_cycles;
                    if self.tracer.is_enabled() {
                        self.tracer.complete(
                            meta.spec.workload.clone(),
                            "job",
                            PID_JOBS,
                            meta.spec.id,
                            meta.started_cycle,
                            finished_cycle - meta.started_cycle,
                            vec![
                                ("chip", ArgValue::from(b.chip)),
                                ("executed_cycles", ArgValue::from(meta.executed_cycles)),
                                ("attributed_droops", ArgValue::from(meta.attributed_droops)),
                            ],
                        );
                    }
                    self.completed.push(CompletedJob {
                        spec: meta.spec,
                        started_cycle: meta.started_cycle,
                        finished_cycle,
                        executed_cycles: meta.executed_cycles,
                        instructions: meta.instructions,
                        attributed_droops: meta.attributed_droops,
                    });
                }
            }
        }
        // The queue state placement left behind: admitted jobs not yet
        // placed wait, and placed ones are running or completed.
        let running_jobs = self.running.len();
        let queue_depth = self.admitted as usize - running_jobs - self.completed.len();
        self.clock = now + self.slice_cycles;
        if let Some(m) = self.monitor.as_mut() {
            // Close the monitoring epoch after the merge.
            m.on_epoch(EpochSample {
                end_cycle: self.clock,
                cycles: epoch_cycles,
                droops: epoch_droops,
                min_margin_pct: epoch_min_margin,
                mean_margin_pct: if epoch_cycles == 0 {
                    PHASE_MARGIN_PCT
                } else {
                    epoch_margin_weight / epoch_cycles as f64
                },
                queue_depth,
                running_jobs,
            });
        }
        self.epochs_merged += 1;
        if let Some(oc) = self.obs {
            if self.epochs_merged.is_multiple_of(self.publish_every) {
                self.flush_slice_counters();
                if let Some(p) = &self.profiler {
                    // Refresh /profile at publish cadence, not per
                    // epoch: report assembly is the expensive part.
                    self.last_profile = Some(Arc::new(p.report().to_json()));
                }
                let status = ServiceStatus {
                    epoch: self.epochs_merged,
                    virtual_cycles: self.clock,
                    queue_depth,
                    running_jobs,
                    jobs_submitted: self.jobs_submitted,
                    jobs_admitted: self.admitted,
                    jobs_completed: self.completed.len() as u64,
                    droops: self.droops,
                    done: false,
                };
                let shards = pool.status(self.epochs_merged);
                self.publish(oc, status, self.metrics.snapshot(), shards);
            }
        }
        Ok(())
    }

    /// Publishes one snapshot into the obs hub — `status`, the registry
    /// snapshot `metrics` and the pool's `shards` section plus the live
    /// sections as of now — and runs the publish hook on it.
    fn publish(
        &self,
        oc: &ObsConfig,
        status: ServiceStatus,
        metrics: MetricsSnapshot,
        shards: Option<ShardsStatus>,
    ) {
        oc.hub.publish(ObsSnapshot {
            metrics,
            health: self.monitor.as_ref().map(Monitor::status),
            service: Some(status),
            shards,
            decisions: (self.audit.as_ref())
                .map(|a| a.ring().clone())
                .unwrap_or_default(),
            recent_droops: self.recent.clone().unwrap_or_default(),
            profile_json: self.last_profile.clone(),
        });
        if let Some(hook) = &oc.on_publish {
            hook(&oc.hub.latest());
        }
    }

    /// Flushes the batched slice counters into the registry. Must run
    /// before every registry read so the observable totals match the
    /// per-slice adds of the historical in-line loop exactly; the
    /// zero-pending guard keeps the series from existing before the
    /// first slice merges, just as per-slice adds would have it.
    fn flush_slice_counters(&mut self) {
        if self.pending_slices > 0 {
            self.metrics
                .counter_add("serve_slices_total", self.pending_slices);
            self.metrics
                .counter_add("serve_chip_cycles_total", self.pending_cycles);
            self.pending_slices = 0;
            self.pending_cycles = 0;
        }
    }

    /// End of run, once every log is merged: the pool's cells and final
    /// counters, final window flushes, aggregate counters and float
    /// observations, the profile and health reports (each assembled
    /// once, exported into the registry and sealed), the final obs
    /// publish, and the report.
    pub(crate) fn finalize(
        mut self,
        pool: ShardPool,
        policy_name: String,
    ) -> Result<Observed<ServiceReport>, ServeError> {
        let shards = pool.status(self.epochs_merged);
        let slices_run = pool.slices_total();
        let mut cells = pool.finish()?;
        self.flush_slice_counters();
        if let Some(p) = self.profiler.as_mut() {
            // Seal windows whose tail was still filling at the end of
            // the run (their `truncated` flag records the early cut).
            for (chip_idx, cell) in cells.iter_mut().enumerate() {
                let windows = cell.session.flush_droop_windows();
                record_windows(p, self.tracer, chip_idx, &self.segs[chip_idx], &windows);
            }
        }
        if self.invariant_violations > 0 {
            return Err(ServeError::InvariantViolations {
                violations: self.invariant_violations,
            });
        }
        let metrics = &mut self.metrics;
        metrics.counter_add("serve_droops_total", self.droops);
        metrics.counter_with("droops_total", &[("policy", &policy_name)], self.droops);
        // Float observations only here, on the coordinator, in
        // completion order — see the module docs on determinism.
        for job in &self.completed {
            metrics.observe("serve_queue_wait_cycles", job.queue_wait_cycles() as f64);
            metrics.observe(
                "queue_wait_kcycles",
                job.queue_wait_cycles() as f64 / 1000.0,
            );
            metrics.observe(
                "job_latency_kcycles",
                (job.finished_cycle - job.spec.arrival_cycle) as f64 / 1000.0,
            );
            metrics.observe("serve_job_ipc", job.ipc());
        }
        let chip_cycles: u64 = cells.iter().map(|c| c.session.measured_cycles()).sum();
        let (epochs, now) = (self.epochs_merged, self.clock);
        let core_quanta_available = 2 * cells.len() as u64 * epochs;
        let utilization = if core_quanta_available == 0 {
            0.0
        } else {
            self.busy_core_quanta as f64 / core_quanta_available as f64
        };
        metrics.gauge_set("serve_chip_utilization", utilization);
        metrics.gauge_set("serve_warmed_profiles", self.book.warmed() as f64);
        let profile = self.profiler.as_ref().map(Profiler::report);
        if let Some(p) = &profile {
            // Attribution series land in the same snapshot the report
            // embeds, so `droop_attribution_total{event=...}` shows up
            // in the rendered metrics and the Prometheus exposition.
            p.export_metrics(metrics);
            if self.obs.is_some() {
                // The final /profile body includes the end-of-run
                // flushed windows the periodic refreshes could not see.
                self.last_profile = Some(Arc::new(p.to_json()));
            }
        }
        let health = self.monitor.as_ref().map(Monitor::report);
        if let Some(h) = &health {
            // alerts_total{rule,severity} and the monitor_* gauges land
            // in the same snapshot the report embeds.
            h.export_metrics(metrics);
            if self.tracer.is_enabled() {
                h.emit_alert_instants(self.tracer);
            }
        }
        if self.tracer.is_streaming() {
            // The telemetry pipeline observes itself: drop/flush/
            // sampler counters land in the same snapshot the report
            // embeds. Only streaming tracers add these series, so
            // non-streaming runs keep their exact historical renders.
            self.tracer.export_telemetry(metrics);
        }
        let snapshot = metrics.snapshot();
        // Every executor's release counts the slice it files, so the
        // introspection tallies must reconcile exactly with the
        // deterministic counter.
        debug_assert_eq!(
            slices_run,
            snapshot.counter("serve_slices_total"),
            "introspection slice tallies drifted from serve_slices_total"
        );
        if let Some(oc) = self.obs {
            // Final publish: the complete end-of-run registry (alert
            // counters, monitor gauges, attribution series included),
            // final health, and `done: true` — so post-run scrapes see
            // the finished state instead of the last periodic sample.
            let status = ServiceStatus {
                epoch: epochs,
                virtual_cycles: now,
                queue_depth: 0,
                running_jobs: 0,
                jobs_submitted: self.jobs_submitted,
                jobs_admitted: self.admitted,
                jobs_completed: self.completed.len() as u64,
                droops: self.droops,
                done: true,
            };
            self.publish(oc, status, snapshot.clone(), shards);
        }
        let completed = self.completed;
        let mean = |f: &dyn Fn(&CompletedJob) -> f64| {
            if completed.is_empty() {
                0.0
            } else {
                completed.iter().map(f).sum::<f64>() / completed.len() as f64
            }
        };
        let report = ServiceReport {
            policy: policy_name,
            jobs_submitted: self.jobs_submitted,
            jobs_completed: completed.len(),
            virtual_cycles: now,
            epochs,
            chip_cycles,
            droops: self.droops,
            droops_per_kilocycle: if chip_cycles == 0 {
                0.0
            } else {
                self.droops as f64 * 1000.0 / chip_cycles as f64
            },
            mean_queue_wait_cycles: mean(&|j| j.queue_wait_cycles() as f64),
            chip_utilization: utilization,
            throughput_jobs_per_mcycle: if now == 0 {
                0.0
            } else {
                completed.len() as f64 * 1e6 / now as f64
            },
            mean_ipc: mean(&|j| j.ipc()),
            warmed_profiles: self.book.warmed(),
            snapshot,
            completed,
            health: health.as_ref().map(HealthReport::summary),
            audit: self.audit.as_ref().map(AuditLog::report),
        };
        Ok(Observed {
            report,
            profile,
            health,
        })
    }
}

/// Scores freshly sealed capture windows into the profiler and emits
/// them as trace spans. Each window is labeled by the slice it
/// triggered in (found in `segs`, which is ordered by session clock)
/// and mapped onto the virtual clock through that slice's offset.
fn record_windows(
    profiler: &mut Profiler,
    tracer: &Tracer,
    chip_idx: usize,
    segs: &[SliceSeg],
    windows: &[DroopWindow],
) {
    for window in windows {
        let seg = segs
            .iter()
            .rev()
            .find(|s| s.session_start <= window.trigger_cycle)
            .expect("windows only trigger inside recorded slices");
        let att = profiler.record(&seg.label, window);
        if tracer.is_enabled() {
            let virtual_trigger = seg.virtual_start + (window.trigger_cycle - seg.session_start);
            let ts = virtual_trigger.saturating_sub(window.trigger_cycle - window.start_cycle);
            emit_window_span(tracer, chip_pid(chip_idx), PROFILE_TID, ts, window, &att);
        }
    }
}

//! The fleet sweep runner: batched chip construction, a worker pool
//! per checkpoint chunk, durable checkpoints, and exact resume.
//!
//! Execution is chunked: runs are claimed from a queue by `threads`
//! workers (the [`CampaignSpec`](vsmooth_resilience::CampaignSpec)
//! pattern), and after every `checkpoint_every` completions the
//! coordinator merges results **in canonical run order** and persists
//! the checkpoint. Because each run is deterministic in isolation and
//! all cross-run accumulation happens coordinator-side in run order,
//! the final [`FleetReport`] is byte-identical whether the sweep ran
//! uninterrupted, was killed and resumed, or used a different thread
//! count.

use crate::checkpoint::{Checkpoint, RunRecord};
use crate::report::{ChipReport, FleetReport};
use crate::spec::{ChipVariant, FleetJob, FleetRun, FleetSpec};
use crate::FleetError;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vsmooth_chip::{fan_out, run_pair, run_workload, ChipBatch, RunStats, PHASE_MARGIN_PCT};
use vsmooth_obs::{FleetStatus, ObsSnapshot, TelemetryHub};
use vsmooth_resilience::{measure_worst_case_margin, Instruments, Observed, WorstCaseMargin};
use vsmooth_stats::MetricsRegistry;
use vsmooth_trace::{ArgValue, Tracer, PID_CAMPAIGN};

/// Outcome of an interruptible sweep.
#[derive(Debug)]
pub enum FleetOutcome {
    /// The sweep ran to completion.
    Complete(FleetReport),
    /// The sweep stopped at a checkpoint boundary with work remaining.
    Interrupted {
        /// Runs completed so far (across all sessions).
        completed: usize,
        /// Total runs in the sweep.
        total: usize,
        /// Where the checkpoint was saved.
        checkpoint: PathBuf,
    },
}

impl FleetOutcome {
    /// The final report if the sweep ran to completion.
    pub fn into_report(self) -> Option<FleetReport> {
        match self {
            Self::Complete(report) => Some(report),
            Self::Interrupted { .. } => None,
        }
    }
}

/// Executes a [`FleetSpec`].
pub struct FleetCampaign {
    spec: FleetSpec,
    hub: Option<Arc<TelemetryHub>>,
}

impl FleetCampaign {
    /// Validates the spec and wraps it in a runner.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidSpec`] for a malformed spec.
    pub fn new(spec: FleetSpec) -> Result<Self, FleetError> {
        spec.validate()?;
        Ok(Self { spec, hub: None })
    }

    /// The spec being run.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Publishes live sweep progress into `hub` at every checkpoint
    /// boundary: a `FleetStatus` (runs completed/total, checkpoint
    /// age) plus progress gauges for `/metrics`. Publication happens
    /// coordinator-side after the in-order merge, so attaching a hub
    /// never changes the report or checkpoint bytes.
    pub fn attach_hub(&mut self, hub: Arc<TelemetryHub>) {
        self.hub = Some(hub);
    }

    /// Runs the whole sweep in memory (no checkpoint file).
    ///
    /// # Errors
    ///
    /// Returns the first simulation error encountered.
    pub fn run(&self, threads: usize) -> Result<FleetReport, FleetError> {
        self.run_with(threads, &Instruments::new())
            .map(|o| o.report)
    }

    /// Like [`run`](Self::run), recording into whatever `inst` arms.
    /// Every record is made coordinator-side in canonical run order,
    /// so each artifact is thread-count-independent.
    ///
    /// * `tracer`: one span per run on the campaign track (one virtual
    ///   thread per chip, runs laid end to end on a per-chip cumulative
    ///   clock) plus a running per-chip droop counter — a streaming
    ///   tracer bounds the sweep's telemetry memory however large the
    ///   fleet grows.
    /// * `metrics`: per-chip run/cycle/droop counters plus the final
    ///   report's margin gauges.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidSpec`] if `inst` arms a profiler or monitor
    /// (a sweep keeps per-run summaries only, no waveforms or epochs),
    /// plus the first simulation error encountered.
    pub fn run_with(
        &self,
        threads: usize,
        inst: &Instruments,
    ) -> Result<Observed<FleetReport>, FleetError> {
        if inst.profile.is_some() || inst.monitor.is_some() {
            return Err(FleetError::InvalidSpec(
                "a fleet sweep records traces and metrics only; \
                 profile or monitor a CampaignSpec instead",
            ));
        }
        let mut ckpt = Checkpoint::new(self.spec.fingerprint(), self.spec.total_runs());
        let tracer = inst.tracer.filter(|t| t.is_enabled());
        if let Some(t) = tracer {
            t.process_name(PID_CAMPAIGN, "fleet sweep");
            for variant in self.spec.variants() {
                t.thread_name(PID_CAMPAIGN, variant.index as u64, variant.id());
            }
        }
        self.execute(threads, &mut ckpt, None, None, inst.metrics, tracer)?;
        Ok(Observed {
            report: self.assemble(&ckpt, inst.metrics)?,
            profile: None,
            health: None,
        })
    }

    /// Runs the sweep with durable checkpoints at `path`, resuming any
    /// compatible checkpoint already there. With `stop_after` set the
    /// sweep stops at the first checkpoint boundary after that many
    /// *newly* completed runs — the hook that simulates a mid-flight
    /// kill with a durable checkpoint left behind. On completion the
    /// checkpoint remains on disk alongside the returned report.
    ///
    /// # Errors
    ///
    /// [`FleetError::Checkpoint`] if an existing file is corrupt or
    /// belongs to a different spec, plus the usual simulation errors.
    pub fn run_checkpointed(
        &self,
        threads: usize,
        path: &Path,
        stop_after: Option<usize>,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<FleetOutcome, FleetError> {
        let mut ckpt = self.load_or_new(path)?;
        self.execute(threads, &mut ckpt, Some(path), stop_after, metrics, None)?;
        if ckpt.is_complete() {
            Ok(FleetOutcome::Complete(self.assemble(&ckpt, metrics)?))
        } else {
            Ok(FleetOutcome::Interrupted {
                completed: ckpt.completed(),
                total: ckpt.total_runs,
                checkpoint: path.to_path_buf(),
            })
        }
    }

    fn load_or_new(&self, path: &Path) -> Result<Checkpoint, FleetError> {
        if path.exists() {
            Ok(Checkpoint::load(path, self.spec.fingerprint())?)
        } else {
            Ok(Checkpoint::new(
                self.spec.fingerprint(),
                self.spec.total_runs(),
            ))
        }
    }

    /// One `ChipBatch` per variant: the ladder discretization and
    /// steady-state solve happen once per chip, and every run stamps a
    /// clone (satellite of the [`ChipBatch`] amortization work).
    fn build_batches(&self, variants: &[ChipVariant]) -> Result<Vec<ChipBatch>, FleetError> {
        variants
            .iter()
            .map(|v| Ok(ChipBatch::new(v.chip_config()?)?))
            .collect()
    }

    /// Runs every not-yet-checkpointed run, in chunks of
    /// `checkpoint_every`, merging records in run order.
    fn execute(
        &self,
        threads: usize,
        ckpt: &mut Checkpoint,
        path: Option<&Path>,
        stop_after: Option<usize>,
        metrics: Option<&MetricsRegistry>,
        tracer: Option<&Tracer>,
    ) -> Result<(), FleetError> {
        // Per-chip cumulative clocks for trace emission: runs on one
        // chip lay end to end on that chip's virtual-thread timeline.
        let mut clocks: Vec<(u64, u64)> = vec![(0, 0); self.spec.chips];
        let variants = self.spec.variants();
        let pending: Vec<FleetRun> = self
            .spec
            .runs()
            .into_iter()
            .filter(|r| !ckpt.records.contains_key(&r.index))
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        let batches = self.build_batches(&variants)?;
        let fidelity = self.spec.fidelity;
        let mut fresh = 0usize;
        let mut saves = 0u64;
        let mut since_save = 0usize;
        for chunk in pending.chunks(self.spec.checkpoint_every) {
            let collected = fan_out(chunk, threads, |run| {
                let batch = &batches[run.chip];
                let label = run.job.label();
                let stats = match &run.job {
                    FleetJob::Single(w) => run_workload(batch, w, fidelity),
                    FleetJob::Pair(a, b) => run_pair(batch, a, b, fidelity),
                };
                stats
                    .map(|s| to_record(run, &label, &s))
                    .map_err(|source| FleetError::Run {
                        run: run.index,
                        label,
                        source,
                    })
            });
            // Coordinator-side merge in run order: counters, checkpoint
            // records and (later) the report see one canonical order
            // regardless of thread count.
            for outcome in collected {
                let rec = outcome?;
                if let Some(m) = metrics {
                    let chip_id = variants[rec.chip].id();
                    let labels: &[(&str, &str)] = &[("chip", &chip_id)];
                    m.counter_with("fleet_runs_total", labels, 1);
                    m.counter_with("fleet_cycles_total", labels, rec.cycles);
                    m.counter_with("fleet_droops_total", labels, rec.droops);
                }
                if let Some(t) = tracer {
                    let (cycles_before, droops_before) = clocks[rec.chip];
                    t.complete(
                        rec.label.clone(),
                        "fleet-run",
                        PID_CAMPAIGN,
                        rec.chip as u64,
                        cycles_before,
                        rec.cycles.max(1),
                        vec![
                            ("run", ArgValue::from(rec.run as u64)),
                            ("droops", ArgValue::from(rec.droops)),
                            ("ipc", ArgValue::F64(rec.ipc)),
                        ],
                    );
                    let clock = &mut clocks[rec.chip];
                    clock.0 = cycles_before + rec.cycles;
                    clock.1 = droops_before + rec.droops;
                    t.counter("fleet_droops_total", PID_CAMPAIGN, clock.0, clock.1 as f64);
                }
                ckpt.record(rec);
                fresh += 1;
                since_save += 1;
            }
            if let Some(path) = path {
                ckpt.save(path)?;
                saves += 1;
                since_save = 0;
            }
            self.publish_progress(ckpt, since_save, saves);
            if let Some(limit) = stop_after {
                if fresh >= limit && !ckpt.is_complete() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Publishes one checkpoint-boundary snapshot into the attached
    /// hub (no-op without one). The gauges live in a registry built
    /// fresh per publish, so the sweep's own `MetricsRegistry` (if
    /// any) stays untouched and thread-count-independent.
    fn publish_progress(&self, ckpt: &Checkpoint, checkpoint_age_runs: usize, saves: u64) {
        let Some(hub) = self.hub.as_ref() else {
            return;
        };
        let completed = ckpt.completed();
        let total = ckpt.total_runs;
        let m = MetricsRegistry::new();
        m.describe("fleet_runs_completed", "Sweep runs recorded so far.");
        m.describe("fleet_runs_planned", "Total runs in the campaign.");
        m.describe(
            "fleet_progress_ratio",
            "Completed fraction of the campaign, 0 through 1.",
        );
        m.describe(
            "fleet_checkpoint_age_runs",
            "Runs completed since the last durable checkpoint write.",
        );
        m.gauge_set("fleet_runs_completed", completed as f64);
        m.gauge_set("fleet_runs_planned", total as f64);
        m.gauge_set(
            "fleet_progress_ratio",
            if total == 0 {
                0.0
            } else {
                completed as f64 / total as f64
            },
        );
        m.gauge_set("fleet_checkpoint_age_runs", checkpoint_age_runs as f64);
        hub.publish(ObsSnapshot {
            metrics: m.snapshot(),
            fleet: Some(FleetStatus {
                runs_completed: completed,
                runs_total: total,
                chips: self.spec.chips,
                checkpoint_age_runs,
                checkpoints_saved: saves,
            }),
            ..ObsSnapshot::default()
        });
    }

    /// Probes each chip's worst-case margin and assembles the final
    /// report from the (complete) checkpoint.
    fn assemble(
        &self,
        ckpt: &Checkpoint,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<FleetReport, FleetError> {
        debug_assert!(ckpt.is_complete());
        let variants = self.spec.variants();
        let batches = self.build_batches(&variants)?;
        let probes = self.probe_margins(&batches)?;
        let chips = variants
            .iter()
            .zip(&probes)
            .map(|(variant, probe)| {
                let records: Vec<&RunRecord> = ckpt
                    .records
                    .values()
                    .filter(|r| r.chip == variant.index)
                    .collect();
                ChipReport::build(variant, &records, probe)
            })
            .collect();
        let report = FleetReport::new(self.spec.seed, ckpt.total_runs, chips);
        if let Some(m) = metrics {
            report.export_metrics(m);
        }
        Ok(report)
    }

    /// Virus-probes every chip concurrently. Probes are deterministic
    /// per chip and merged by index, so they are not checkpointed: a
    /// resumed sweep reproduces them exactly.
    fn probe_margins(&self, batches: &[ChipBatch]) -> Result<Vec<WorstCaseMargin>, FleetError> {
        let cycles = self.spec.probe_cycles;
        fan_out(batches, batches.len().clamp(1, 8), |batch| {
            measure_worst_case_margin(batch, cycles).map_err(FleetError::Chip)
        })
        .into_iter()
        .collect()
    }
}

fn to_record(run: &FleetRun, label: &str, stats: &RunStats) -> RunRecord {
    RunRecord {
        run: run.index,
        chip: run.chip,
        label: label.to_string(),
        cycles: stats.cycles,
        droops: stats.emergencies(PHASE_MARGIN_PCT),
        max_droop_pct: stats.max_droop_pct(),
        peak_to_peak_pct: stats.peak_to_peak_pct(),
        ipc: stats.ipc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn small_spec(seed: u64) -> FleetSpec {
        let mut spec = FleetSpec::new(seed, 4, 6);
        spec.fidelity = vsmooth_chip::Fidelity::Custom(300);
        spec.probe_cycles = 4_000;
        spec.checkpoint_every = 5;
        spec
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "vsmooth-fleet-{tag}-{}.ckpt.json",
            std::process::id()
        ))
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        let one = FleetCampaign::new(small_spec(17)).unwrap().run(1).unwrap();
        let four = FleetCampaign::new(small_spec(17)).unwrap().run(4).unwrap();
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.total_runs, 24);
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_report_bytes() {
        let path = tmp("resume");
        let _ = fs::remove_file(&path);
        let straight = FleetCampaign::new(small_spec(23)).unwrap().run(3).unwrap();
        // Kill after the first checkpoint chunk…
        let campaign = FleetCampaign::new(small_spec(23)).unwrap();
        let outcome = campaign.run_checkpointed(3, &path, Some(1), None).unwrap();
        let FleetOutcome::Interrupted {
            completed, total, ..
        } = outcome
        else {
            panic!("expected an interrupted sweep");
        };
        assert!(completed > 0 && completed < total, "{completed}/{total}");
        // …and resume from the durable checkpoint.
        let resumed = campaign
            .run_checkpointed(3, &path, None, None)
            .unwrap()
            .into_report()
            .expect("resumed sweep completes");
        assert_eq!(resumed.to_json(), straight.to_json());
        assert_eq!(resumed.render(), straight.render());
        // The completed checkpoint artifact remains on disk.
        let final_ckpt = Checkpoint::load(&path, campaign.spec().fingerprint()).unwrap();
        assert!(final_ckpt.is_complete());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resuming_under_a_different_spec_is_a_typed_error() {
        let path = tmp("spec-mismatch");
        let _ = fs::remove_file(&path);
        let campaign = FleetCampaign::new(small_spec(31)).unwrap();
        let outcome = campaign.run_checkpointed(2, &path, Some(1), None).unwrap();
        assert!(matches!(outcome, FleetOutcome::Interrupted { .. }));
        let other = FleetCampaign::new(small_spec(32)).unwrap();
        assert!(matches!(
            other.run_checkpointed(2, &path, None, None),
            Err(FleetError::Checkpoint(
                crate::CheckpointError::SpecMismatch { .. }
            ))
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn heterogeneity_shows_up_in_the_report() {
        let report = FleetCampaign::new(small_spec(41)).unwrap().run(4).unwrap();
        assert_eq!(report.chips.len(), 4);
        // Distinct worst-case margins across variants (non-degenerate
        // variation) and every chip ran its share of jobs.
        let margins: std::collections::BTreeSet<u64> = report
            .chips
            .iter()
            .map(|c| c.worst_case_margin_pct.to_bits())
            .collect();
        assert!(margins.len() >= 3, "margins collapsed: {margins:?}");
        for chip in &report.chips {
            assert_eq!(chip.runs, 6);
            assert!(chip.cycles > 0);
        }
    }

    #[test]
    fn metrics_record_per_chip_series() {
        let metrics = MetricsRegistry::new();
        let report = FleetCampaign::new(small_spec(53))
            .unwrap()
            .run_with(2, &Instruments::new().with_metrics(&metrics))
            .unwrap()
            .report;
        let snap = metrics.snapshot();
        // One count per run per chip, plus the report-level re-export.
        assert_eq!(
            snap.counter_labeled("fleet_runs_total", &[("chip", "chip00")]),
            6
        );
        assert_eq!(snap.counter("fleet_runs_total"), report.total_runs as u64);
        assert!(snap
            .render_prometheus()
            .contains("fleet_worst_case_margin_pct{chip=\"chip03\"}"));
    }

    #[test]
    fn traced_sweep_bytes_are_thread_count_independent() {
        let trace_at = |threads: usize| {
            let tracer = Tracer::enabled();
            FleetCampaign::new(small_spec(61))
                .unwrap()
                .run_with(threads, &Instruments::new().traced(&tracer))
                .unwrap();
            tracer.to_chrome_json()
        };
        let one = trace_at(1);
        assert_eq!(one, trace_at(4));
        let shape = vsmooth_trace::validate_chrome_trace(&one).unwrap();
        // One span and one counter per run, plus process/thread names.
        assert_eq!(shape.spans, 24);
        assert_eq!(shape.counters, 24);
    }

    #[test]
    fn streaming_tracer_bounds_sweep_telemetry() {
        let tracer = Tracer::streaming_to_writer(
            std::io::sink(),
            vsmooth_trace::StreamConfig {
                ring_capacity: 16,
                chunk_bytes: 1_024,
                sampler: None,
            },
        );
        FleetCampaign::new(small_spec(61))
            .unwrap()
            .run_with(2, &Instruments::new().traced(&tracer))
            .unwrap();
        let stats = tracer.finish_stream().unwrap().unwrap();
        assert_eq!(stats.dropped_total(), 0);
        assert!(stats.peak_ring_occupancy < stats.ring_capacity);
        assert_eq!(stats.records_written, stats.records_seen);
    }

    #[test]
    fn attached_hub_sees_checkpoint_boundary_progress() {
        let hub = Arc::new(TelemetryHub::new());
        let mut campaign = FleetCampaign::new(small_spec(67)).unwrap();
        campaign.attach_hub(Arc::clone(&hub));
        let report = campaign.run(2).unwrap();

        // 24 runs in chunks of 5 -> 5 boundary publishes; the last one
        // reports a complete sweep.
        assert_eq!(hub.publishes(), 5);
        let snap = hub.latest();
        let fleet = snap.fleet.as_ref().expect("fleet status");
        assert_eq!(fleet.runs_completed, 24);
        assert_eq!(fleet.runs_total, 24);
        assert_eq!(fleet.chips, 4);
        // In-memory run: no durable checkpoint, so age grows unbounded.
        assert_eq!(fleet.checkpoints_saved, 0);
        assert_eq!(fleet.checkpoint_age_runs, 24);
        assert_eq!(snap.metrics.gauge("fleet_runs_completed"), Some(24.0));
        assert_eq!(snap.metrics.gauge("fleet_progress_ratio"), Some(1.0));

        // And the hub never perturbs the deterministic report.
        let plain = FleetCampaign::new(small_spec(67)).unwrap().run(2).unwrap();
        assert_eq!(report.to_json(), plain.to_json());
    }

    #[test]
    fn checkpointed_sweep_reports_zero_age_after_each_save() {
        let path = tmp("hub-age");
        let _ = fs::remove_file(&path);
        let hub = Arc::new(TelemetryHub::new());
        let mut campaign = FleetCampaign::new(small_spec(71)).unwrap();
        campaign.attach_hub(Arc::clone(&hub));
        campaign.run_checkpointed(2, &path, None, None).unwrap();
        let fleet = hub.latest().fleet.clone().expect("fleet status");
        assert_eq!(fleet.checkpoint_age_runs, 0);
        assert_eq!(fleet.checkpoints_saved, 5);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn invalid_spec_is_rejected_at_construction() {
        let mut spec = small_spec(1);
        spec.chips = 0;
        assert!(matches!(
            FleetCampaign::new(spec),
            Err(FleetError::InvalidSpec(_))
        ));
    }
}

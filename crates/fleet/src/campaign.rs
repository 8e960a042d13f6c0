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
use crate::spec::{FleetJob, FleetRun, FleetSpec};
use crate::FleetError;
use std::path::{Path, PathBuf};
use vsmooth_chip::{fan_out, run_pair, run_workload, ChipBatch, RunStats, PHASE_MARGIN_PCT};
use vsmooth_resilience::{measure_worst_case_margin, WorstCaseMargin};

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
}

impl FleetCampaign {
    /// Validates the spec and wraps it in a runner.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidSpec`] for a malformed spec.
    pub fn new(spec: FleetSpec) -> Result<Self, FleetError> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// The spec being run.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Runs the whole sweep in memory (no checkpoint file) on
    /// `threads` OS threads.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error encountered.
    pub fn run(&self, threads: usize) -> Result<FleetReport, FleetError> {
        let mut ckpt = Checkpoint::new(self.spec.fingerprint(), self.spec.total_runs());
        let batches = self.build_batches()?;
        self.execute(threads, &batches, &mut ckpt, None, None)?;
        self.assemble(threads, &batches, &ckpt)
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
    ) -> Result<FleetOutcome, FleetError> {
        let mut ckpt = self.load_or_new(path)?;
        let batches = self.build_batches()?;
        self.execute(threads, &batches, &mut ckpt, Some(path), stop_after)?;
        if ckpt.is_complete() {
            Ok(FleetOutcome::Complete(
                self.assemble(threads, &batches, &ckpt)?,
            ))
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

    /// One `ChipBatch` per variant, built once per sweep call: the
    /// ladder discretization and steady-state solve happen once per
    /// chip, every run stamps a clone, and the margin probes reuse the
    /// same batches.
    fn build_batches(&self) -> Result<Vec<ChipBatch>, FleetError> {
        self.spec
            .variants()
            .iter()
            .map(|v| Ok(ChipBatch::new(v.chip_config()?)?))
            .collect()
    }

    /// Runs every not-yet-checkpointed run, in chunks of
    /// `checkpoint_every`, merging records in run order.
    fn execute(
        &self,
        threads: usize,
        batches: &[ChipBatch],
        ckpt: &mut Checkpoint,
        path: Option<&Path>,
        stop_after: Option<usize>,
    ) -> Result<(), FleetError> {
        let pending: Vec<FleetRun> = self
            .spec
            .runs()
            .into_iter()
            .filter(|r| !ckpt.records.contains_key(&r.index))
            .collect();
        let fidelity = self.spec.fidelity;
        let mut fresh = 0usize;
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
            // Coordinator-side merge in run order: checkpoint records
            // and (later) the report see one canonical order regardless
            // of thread count.
            for outcome in collected {
                ckpt.record(outcome?);
                fresh += 1;
            }
            if let Some(path) = path {
                ckpt.save(path)?;
            }
            if let Some(limit) = stop_after {
                if fresh >= limit && !ckpt.is_complete() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Probes each chip's worst-case margin and assembles the final
    /// report from the (complete) checkpoint.
    fn assemble(
        &self,
        threads: usize,
        batches: &[ChipBatch],
        ckpt: &Checkpoint,
    ) -> Result<FleetReport, FleetError> {
        debug_assert!(ckpt.is_complete());
        let probes = self.probe_margins(threads, batches)?;
        let chips = self
            .spec
            .variants()
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
        Ok(FleetReport::new(self.spec.seed, ckpt.total_runs, chips))
    }

    /// Virus-probes every chip on `threads` OS threads. Probes are
    /// deterministic per chip and merged by index, so they are not
    /// checkpointed: a resumed sweep reproduces them exactly.
    fn probe_margins(
        &self,
        threads: usize,
        batches: &[ChipBatch],
    ) -> Result<Vec<WorstCaseMargin>, FleetError> {
        let cycles = self.spec.probe_cycles;
        fan_out(batches, threads, |batch| {
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
        let outcome = campaign.run_checkpointed(3, &path, Some(1)).unwrap();
        let FleetOutcome::Interrupted {
            completed, total, ..
        } = outcome
        else {
            panic!("expected an interrupted sweep");
        };
        assert!(completed > 0 && completed < total, "{completed}/{total}");
        // …and resume from the durable checkpoint.
        let resumed = campaign
            .run_checkpointed(3, &path, None)
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
        let outcome = campaign.run_checkpointed(2, &path, Some(1)).unwrap();
        assert!(matches!(outcome, FleetOutcome::Interrupted { .. }));
        let other = FleetCampaign::new(small_spec(32)).unwrap();
        assert!(matches!(
            other.run_checkpointed(2, &path, None),
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
    fn invalid_spec_is_rejected_at_construction() {
        let mut spec = small_spec(1);
        spec.chips = 0;
        assert!(matches!(
            FleetCampaign::new(spec),
            Err(FleetError::InvalidSpec(_))
        ));
    }
}

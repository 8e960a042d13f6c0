//! Integration tests for the heterogeneous fleet pipeline: the
//! checkpoint/resume determinism contract at sweep scale, typed
//! checkpoint failure modes, and the `Lab` entry point.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use vsmooth::chip::Fidelity;
use vsmooth::experiments::{ExperimentConfig, Lab};
use vsmooth::fleet::{
    Checkpoint, CheckpointError, FleetCampaign, FleetError, FleetOutcome, FleetReport, FleetSpec,
    CHECKPOINT_SCHEMA, REPORT_SCHEMA, SHIPPED_MARGIN_PCT,
};

fn spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::new(seed, 6, 8);
    spec.fidelity = Fidelity::Custom(300);
    spec.probe_cycles = 4_000;
    spec.checkpoint_every = 10;
    spec
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "vsmooth-fleet-it-{tag}-{}.ckpt.json",
        std::process::id()
    ))
}

/// Resumes `campaign` from `path` and runs it to completion.
fn resume(campaign: &FleetCampaign, path: &Path) -> FleetReport {
    campaign
        .run_checkpointed(4, path, None)
        .unwrap()
        .into_report()
        .expect("an unbounded resume completes")
}

#[test]
fn killed_and_resumed_sweep_reports_identical_bytes() {
    let path = tmp("resume");
    let _ = fs::remove_file(&path);
    let campaign = FleetCampaign::new(spec(2010)).unwrap();
    let straight = campaign.run(4).unwrap();

    let outcome = campaign.run_checkpointed(4, &path, Some(15)).unwrap();
    let FleetOutcome::Interrupted {
        completed, total, ..
    } = outcome
    else {
        panic!("expected a mid-flight interruption");
    };
    assert!(completed >= 15 && completed < total);
    // The durable checkpoint carries its schema tag and the completed
    // records.
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains(CHECKPOINT_SCHEMA));
    let ckpt = Checkpoint::load(&path, campaign.spec().fingerprint()).unwrap();
    assert_eq!(ckpt.completed(), completed);

    // Resume, finish, compare bytes — report and render both.
    let resumed = resume(&campaign, &path);
    assert_eq!(resumed.to_json(), straight.to_json());
    assert_eq!(resumed.render(), straight.render());
    assert!(resumed.to_json().contains(REPORT_SCHEMA));

    // A second resume over the now-complete checkpoint re-runs nothing
    // and still reproduces the same bytes.
    let again = resume(&campaign, &path);
    assert_eq!(again.to_json(), straight.to_json());
    let _ = fs::remove_file(&path);
}

#[test]
fn fleet_variation_is_non_degenerate() {
    let report = FleetCampaign::new(spec(7)).unwrap().run(4).unwrap();
    // Distinct worst-case margins across at least three chip variants…
    let margins: BTreeSet<u64> = report
        .chips
        .iter()
        .map(|c| c.worst_case_margin_pct.to_bits())
        .collect();
    assert!(margins.len() >= 3, "margins collapsed: {margins:?}");
    // …at least two DVFS operating points in play…
    let ops: BTreeSet<&str> = report.chips.iter().map(|c| c.op_name.as_str()).collect();
    assert!(ops.len() >= 2);
    // …and sheddable margin within the shipped guardband.
    for chip in &report.chips {
        assert!(chip.sheddable_margin_pct >= 0.0);
        assert!(chip.sheddable_margin_pct <= SHIPPED_MARGIN_PCT);
        assert!(
            (chip.sheddable_margin_pct
                - (SHIPPED_MARGIN_PCT - chip.worst_case_margin_pct).max(0.0))
            .abs()
                < 1e-12
        );
    }
}

#[test]
fn corrupted_checkpoints_fail_with_typed_errors_not_panics() {
    let path = tmp("corrupt");
    // Garbage on disk → Malformed through the campaign entry point.
    fs::write(&path, "{ this is not a checkpoint }").unwrap();
    let campaign = FleetCampaign::new(spec(3)).unwrap();
    assert!(matches!(
        campaign.run_checkpointed(2, &path, None),
        Err(FleetError::Checkpoint(CheckpointError::Malformed { .. }))
    ));
    // A version-bumped schema tag → SchemaMismatch.
    let mut ckpt_text = Checkpoint::new(campaign.spec().fingerprint(), 48).to_json();
    ckpt_text = ckpt_text.replace(CHECKPOINT_SCHEMA, "vsmooth-fleet-ckpt-v2");
    fs::write(&path, &ckpt_text).unwrap();
    assert!(matches!(
        campaign.run_checkpointed(2, &path, None),
        Err(FleetError::Checkpoint(
            CheckpointError::SchemaMismatch { .. }
        ))
    ));
    // Another spec's checkpoint → SpecMismatch.
    let other = FleetCampaign::new(spec(4)).unwrap();
    Checkpoint::new(other.spec().fingerprint(), 48)
        .save(&path)
        .unwrap();
    assert!(matches!(
        campaign.run_checkpointed(2, &path, None),
        Err(FleetError::Checkpoint(CheckpointError::SpecMismatch { .. }))
    ));
    let _ = fs::remove_file(&path);
}

#[test]
fn lab_entry_point_runs_a_fleet_sweep() {
    let mut cfg = ExperimentConfig::quick();
    cfg.fidelity = Fidelity::Custom(300);
    let lab = Lab::new(cfg);
    let report = lab.fleet_sweep(11, 3, 4).unwrap();
    assert_eq!(report.chips.len(), 3);
    assert_eq!(report.total_runs, 12);
    assert!(report.to_json().contains(REPORT_SCHEMA));
}

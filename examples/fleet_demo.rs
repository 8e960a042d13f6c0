//! vsmooth-fleet demo: a seeded 1000-run heterogeneous fleet sweep with
//! a mid-flight kill and an exact resume —
//!
//! * a [`FleetSpec`] expands seed 2010 into ten chips spanning three
//!   technology nodes (45/32/22 nm), three package-decap banks
//!   (Proc100/50/25) and two DVFS operating points (nominal/eco), each
//!   with its own silicon jitter and a mixed single/pair job stream;
//! * the sweep first runs uninterrupted to produce the reference
//!   report, then runs again with a simulated kill at the first
//!   checkpoint boundary past 300 fresh runs — leaving only the durable
//!   `vsmooth-fleet-ckpt-v1` file behind — and resumes from it;
//! * the demo *proves* the determinism contract: the resumed report is
//!   byte-identical to the uninterrupted one, and the fleet is
//!   non-degenerate (distinct worst-case margins across chips, both
//!   DVFS points represented);
//! * the per-chip margin table shows what the paper's uniform 14 %
//!   guardband hides: how much margin each individual part could shed.
//!
//! ```text
//! cargo run --example fleet_demo --release [fleet.json [fleet.ckpt.json]]
//! ```

use std::collections::BTreeSet;
use vsmooth::fleet::{FleetCampaign, FleetOutcome, FleetSpec, CHECKPOINT_SCHEMA, REPORT_SCHEMA};
use vsmooth::report;

const SEED: u64 = 2010;
const CHIPS: usize = 10;
const RUNS_PER_CHIP: usize = 100;
const THREADS: usize = 4;
const KILL_AFTER_RUNS: usize = 300;

fn main() -> Result<(), vsmooth::VsmoothError> {
    let mut args = std::env::args().skip(1);
    let report_path = args.next().unwrap_or_else(|| "fleet.json".into());
    let ckpt_path =
        std::path::PathBuf::from(args.next().unwrap_or_else(|| "fleet.ckpt.json".into()));

    let mut spec = FleetSpec::new(SEED, CHIPS, RUNS_PER_CHIP);
    spec.fidelity = vsmooth::chip::Fidelity::Custom(400);
    spec.probe_cycles = 12_000;
    spec.checkpoint_every = 100;
    let campaign = FleetCampaign::new(spec)?;
    println!(
        "fleet sweep: {} chips x {} runs = {} runs (seed {SEED})",
        CHIPS,
        RUNS_PER_CHIP,
        campaign.spec().total_runs()
    );
    for variant in campaign.spec().variants() {
        println!("  {}", variant.describe());
    }

    // Reference: the uninterrupted sweep.
    let straight = campaign.run(THREADS)?;

    // Kill mid-flight: stop at the first checkpoint boundary past
    // KILL_AFTER_RUNS fresh runs. Only the checkpoint file survives.
    let _ = std::fs::remove_file(&ckpt_path);
    let outcome = campaign.run_checkpointed(THREADS, &ckpt_path, Some(KILL_AFTER_RUNS))?;
    let FleetOutcome::Interrupted {
        completed, total, ..
    } = outcome
    else {
        panic!("sweep should have been interrupted mid-flight");
    };
    println!("\nkilled mid-flight: {completed}/{total} runs checkpointed to {ckpt_path:?}");
    let ckpt_text = std::fs::read_to_string(&ckpt_path).expect("read checkpoint");
    assert!(
        ckpt_text.contains(CHECKPOINT_SCHEMA),
        "checkpoint must carry its schema tag"
    );

    // Resume from the durable checkpoint and finish the sweep.
    let resumed = campaign
        .run_checkpointed(THREADS, &ckpt_path, None)?
        .into_report()
        .expect("resumed sweep runs to completion");
    println!(
        "resumed and completed the remaining {} runs",
        total - completed
    );

    // The determinism contract: byte-identical artifacts.
    assert_eq!(
        resumed.to_json(),
        straight.to_json(),
        "resumed report must be byte-identical to the uninterrupted one"
    );
    assert_eq!(resumed.render(), straight.render());
    println!("resumed report is byte-identical to the uninterrupted sweep ✓");

    // Non-degenerate heterogeneity: distinct worst-case margins across
    // at least three chip variants, both DVFS points in play.
    let margins: BTreeSet<u64> = resumed
        .chips
        .iter()
        .map(|c| c.worst_case_margin_pct.to_bits())
        .collect();
    assert!(
        margins.len() >= 3,
        "expected >=3 distinct worst-case margins, got {}",
        margins.len()
    );
    let ops: BTreeSet<&str> = resumed.chips.iter().map(|c| c.op_name.as_str()).collect();
    assert!(ops.len() >= 2, "expected >=2 DVFS operating points");
    println!(
        "heterogeneity: {} distinct worst-case margins, {} DVFS points ✓\n",
        margins.len(),
        ops.len()
    );

    println!("{}", report::fleet(&resumed));

    let json = resumed.to_json();
    assert!(json.contains(REPORT_SCHEMA));
    std::fs::write(&report_path, &json).expect("write fleet report");
    println!("wrote fleet margin report to {report_path}");
    println!("final checkpoint artifact at {ckpt_path:?}");
    Ok(())
}

//! vsmooth-profile demo: one scheduling-service run with droop
//! root-cause attribution —
//!
//! * every margin crossing triggers an oscilloscope-style capture of
//!   the surrounding voltage/current waveform plus the stall events and
//!   counter deltas in the lead-in;
//! * each window is scored (exponentially time-decayed event weighting)
//!   and aggregated into per-co-schedule noise profiles;
//! * the pooled autocorrelation of the captured ringing estimates the
//!   dominant resonance period, cross-checked here against the analytic
//!   RLC ladder resonance;
//! * the report exports as text, a deterministic JSON artifact, labeled
//!   metrics and `droop_window` trace spans.
//!
//! The demo also *proves* the determinism contract: it re-runs the
//! identical stream with 1, 2 and 8 worker threads and asserts the
//! profile artifact is byte-identical.
//!
//! ```text
//! cargo run --example profile_demo --release [profile.json]
//! ```

use vsmooth::chip::ChipConfig;
use vsmooth::pdn::{DecapConfig, ImpedanceProfile, LadderConfig};
use vsmooth::profile::ProfileReport;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, Service, ServiceConfig};
use vsmooth::Instruments;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let profile_path = args
        .next()
        .unwrap_or_else(|| "target/profile_demo.json".into());

    let chip = ChipConfig::core2_duo(DecapConfig::proc100());
    let mut cfg = ServiceConfig::new(chip.clone());
    cfg.chips = 3;
    cfg.slice_cycles = 1_000;
    let jobs = synthetic_jobs(42, 24, 1_500);

    let run = |workers: usize| -> Result<(u64, ProfileReport), Box<dyn std::error::Error>> {
        let service = Service::new(cfg.clone())?;
        let inst = Instruments::new().profiled();
        let run = service.run_with(&jobs, &OnlineDroop, workers, &inst)?;
        Ok((run.report.droops, run.profile.expect("profiler armed")))
    };

    let (droops, profile) = run(1)?;
    let json = profile.to_json();
    for workers in [2, 8] {
        let (_, p) = run(workers)?;
        assert_eq!(json, p.to_json(), "profile differs with {workers} workers");
    }
    println!("determinism: profile artifact byte-identical for 1/2/8 workers");

    // Every droop the service counted got a captured, scored window.
    assert_eq!(profile.total_droops, droops);
    assert!(profile.total_droops > 0, "the stream should hit the margin");

    // The artifact is valid JSON of the documented shape.
    let value = vsmooth::trace::parse_json(&json).map_err(|e| format!("profile JSON: {e}"))?;
    assert_eq!(
        value.get("schema").and_then(|v| v.as_str()),
        Some("vsmooth-profile-v1")
    );
    assert!(value
        .get("workloads")
        .and_then(|v| v.as_array())
        .is_some_and(|w| !w.is_empty()));

    // The ringing the windows captured matches the analytic resonance
    // of the PDN ladder the chip simulates.
    if let Some(estimated) = profile.resonance_period_cycles {
        let analytic = ImpedanceProfile::compute(
            &LadderConfig::core2_duo(DecapConfig::proc100()),
            1e5,
            1e9,
            960,
        )?
        .resonance_period_cycles(chip.clock_hz);
        println!(
            "resonance:   estimated {estimated:.1} cycles vs analytic {analytic:.1} cycles \
             ({:+.1}%)",
            100.0 * (estimated - analytic) / analytic
        );
    }

    println!();
    print!("{}", profile.render());
    std::fs::write(&profile_path, &json)?;
    println!("\nwrote {profile_path} — deterministic droop attribution artifact");
    Ok(())
}

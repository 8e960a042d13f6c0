//! Golden-file test pinning the reproduction's printed tables.
//!
//! `repro` prints every figure and table of the paper. This test runs
//! the built binary at quick fidelity (`VSMOOTH_BENCH=quick`, set on
//! the child process only) and compares its stdout line by line with
//! `tests/golden/repro_quick.txt`, leaving out the header line, which
//! carries the host's thread count. A change that moves any printed
//! number fails here. If the move is intended, regenerate the golden:
//!
//! ```text
//! VSMOOTH_BENCH=quick cargo run --release -p vsmooth-bench --bin repro \
//!     > crates/bench/tests/golden/repro_quick.txt
//! ```
//!
//! A second case pins two artifacts of one invocation byte for byte:
//! the service pass's `--profile-out` JSON (`vsmooth-profile-v1`, built
//! from every droop window the chips captured) against
//! `tests/golden/repro_quick_profile.json`, and the `--fleet-out`
//! margin report of `Lab::fleet_sweep(2010, 6, 8)` (`vsmooth-fleet-v1`)
//! against `tests/golden/repro_quick_fleet.json`. Neither depends on
//! the thread count. Regenerate them the same way:
//!
//! ```text
//! VSMOOTH_BENCH=quick cargo run --release -p vsmooth-bench --bin repro -- \
//!     --profile-out crates/bench/tests/golden/repro_quick_profile.json \
//!     --fleet-out crates/bench/tests/golden/repro_quick_fleet.json
//! ```

use std::process::Command;

#[test]
fn quick_repro_prints_the_golden_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("VSMOOTH_BENCH", "quick")
        .output()
        .expect("repro starts");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let golden = include_str!("golden/repro_quick.txt");
    let (got, want): (Vec<&str>, Vec<&str>) = (
        stdout.lines().skip(1).collect(),
        golden.lines().skip(1).collect(),
    );
    if let Some((i, (g, w))) = got.iter().zip(&want).enumerate().find(|(_, (g, w))| g != w) {
        panic!(
            "line {} differs from the golden:\n  got:  {g}\n  want: {w}",
            i + 2
        );
    }
    assert_eq!(got.len(), want.len(), "line count differs from the golden");
}

/// Panics at the first line of `got` that differs from `want`, then
/// on any remaining byte difference.
fn assert_golden(what: &str, got: &str, want: &str) {
    if let Some((i, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "{what} line {} differs from the golden:\n  got:  {g}\n  want: {w}",
            i + 1
        );
    }
    assert_eq!(got, want, "{what} bytes differ from the golden");
}

#[test]
fn quick_repro_writes_the_golden_profile_and_fleet() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let profile = dir.join(format!("vsmooth_golden_profile_{pid}.json"));
    let fleet = dir.join(format!("vsmooth_golden_fleet_{pid}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("VSMOOTH_BENCH", "quick")
        .arg("--profile-out")
        .arg(&profile)
        .arg("--fleet-out")
        .arg(&fleet)
        .output()
        .expect("repro starts");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (what, path, want) in [
        (
            "profile",
            &profile,
            include_str!("golden/repro_quick_profile.json"),
        ),
        (
            "fleet",
            &fleet,
            include_str!("golden/repro_quick_fleet.json"),
        ),
    ] {
        let got = std::fs::read_to_string(path).expect("repro wrote the artifact");
        std::fs::remove_file(path).expect("remove the artifact");
        assert_golden(what, &got, want);
    }
}

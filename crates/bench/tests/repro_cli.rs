//! Command-line contract of the `repro` binary: a malformed command
//! line exits with status 2 and the usage line on stderr before any
//! simulation starts, so a requested artifact is never silently
//! skipped or written under a flag's name.

use std::process::Command;

#[test]
fn a_value_flag_without_a_value_is_a_usage_error() {
    // Given last, and followed by another flag where its path belongs.
    for args in [&["--trace-out"][..], &["--trace-out", "--metrics-out"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env("VSMOOTH_BENCH", "quick")
            .args(args)
            .output()
            .expect("repro starts");
        assert_eq!(out.status.code(), Some(2), "exit status of {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--trace-out needs a value"), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
        // The reproduction header is the first thing a run prints.
        assert!(
            out.stdout.is_empty(),
            "repro started simulating on {args:?}"
        );
    }
}

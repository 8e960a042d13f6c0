#!/usr/bin/env bash
# Workspace CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== rustfmt =="
cargo fmt --check
# The workspace excludes the vendored stubs, so `cargo fmt --check`
# never reads them, while `cargo fmt --all` rewrites them; hold them to
# the same format so a routine format pass cannot edit vendored code.
rustfmt --edition 2021 --check vendor/*/src/lib.rs

echo "== nothing serializes (no source names serde) =="
# Every artifact is written through vsmooth_trace::json and no type
# derives a serializer. The manifests still declare the inert serde
# stub until a benchmark change may rewrite perfbench/Cargo.lock, so
# hold the sources to it: an import or derive naming serde fails here.
if grep -rEn --include='*.rs' '\bserde' crates src tests examples; then
    echo "a source file names serde; nothing serializes (DESIGN.md §5)"
    exit 1
fi

echo "== clippy =="
# Every library crate root warns on `unreachable_pub`, so a `pub` item
# that no root re-export or public module reaches fails here.
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (intra-doc links) =="
# Every intra-doc link must resolve, unambiguously, and public docs
# must not link private items, so deleting or hiding an item cannot
# leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== public surface (every pub fn and const has a caller) =="
# The other half of the surface rule: a `pub fn` or `pub const` that no
# caller outside its crate names (other crates, tests/, examples/, doc
# examples, perfbench/src/) fails, naming the item, so the dead_code
# lint can see it once it is demoted to pub(crate).
cargo test -q -p vsmooth-repro --test public_surface

echo "== testkit gate (oracles, invariants, properties) =="
# Differential oracles, the campaign-scale invariant sweep, and the
# seeded metamorphic property suites. The workspace test step above
# already runs these once; this step re-runs them with a pinned
# proptest case count so the gate is identical run-to-run, and keeps
# the tier-1 oracle-validation slice visible as its own line item.
PROPTEST_CASES=64 cargo test -q -p vsmooth-testkit
cargo test -q -p vsmooth-repro --test oracle_validation

echo "== fused kernel gate (fused kernel vs reference loop) =="
# Every measurement runs one loop on the fused physics step: figures,
# campaigns, fleet sweeps, probes, traces and rollbacks on the complete
# step, and the serving shards, with the crossings, waveform windows and
# invariant checks they arm, on the lean step. P5 holds both to the
# reference step bit for bit on generated chips, regulators and PDNs,
# all three run shapes, and interval lengths that do and do not divide
# the warm-up, in two parts: (a) a one-shot run's statistics against a
# reference session's; (b) a lean session, armed as a shard arms it (no
# capture, crossings, or windows of a generated shape, plus the
# invariant checker in a drawn share of cases), against a reference
# session armed alike, slice by slice. This is the gate on the steps
# every figure and every shard runs on, so it gets more cases.
PROPTEST_CASES=256 cargo test -q -p vsmooth-testkit --test properties_chip

echo "== shared JSON module gate =="
# The one escaper every artifact writer uses must round-trip any
# string through parse_json; re-run the property with a pinned case
# count so the gate is identical run-to-run.
PROPTEST_CASES=512 cargo test -q -p vsmooth-trace --lib json
# The trace renderer skips the `write!` formatter on its hot path; its
# property holds every record kind, hostile strings and edge-case
# floats to a formatter-based renderer byte for byte.
PROPTEST_CASES=512 cargo test -q -p vsmooth-trace --lib export
# A sink-backed stream holds rendered records instead of a ring of
# records; its property holds the written bytes and every telemetry
# stat, after each record and at finish, to a copy of that record ring
# over random streams, ring sizes, chunk sizes, sampling and failing
# writers.
PROPTEST_CASES=256 cargo test -q -p vsmooth-trace --lib rendered_ring_matches_the_record_ring

echo "== benchmark harness (facade API and pinned digests) =="
# perfbench/ is a workspace of its own that drives the program only
# through the vsmooth facade, so the workspace steps above never build
# it. Its tests catch a facade change that would break the benchmark,
# and pins_match_the_inline_backend pins the trace bytes, health JSON,
# audit JSON and report digests it measures. Format and lint it like
# the workspace, since the steps above never see its sources. Both
# builds are --locked: a change to any crate's normal dependencies
# would otherwise rewrite perfbench/Cargo.lock silently, and only a
# benchmark change may touch the benchmark.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --locked --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== shard equivalence gate (coordinator vs sharded runtime) =="
# The differential oracle for the shard-per-worker runtime: every
# artifact class (report, trace JSON, profile JSON, health JSON, obs
# snapshot stream, vsmooth-audit-v1 decision audit) byte-identical
# between the in-line coordinator (the shard pool with no workers,
# draining each grant on the reference step) and 1/2/4/8 shards on
# the fused step, plus the seeded property over random job streams
# with a pinned case count, plus the stress suite (eight shards and
# the coordinator claiming chips from one pool) with job-conservation
# accounting and the armed invariant checker. Last, the seeded
# property of the claim protocol every executor follows: a chooser on
# one thread interleaves placements, grants and the parts of 1-8
# virtual executors' steps, and each chip must be runnable at most
# once, a claim must own its chip's cell (out of its slot exactly
# while the claim is held), a log must be filed only once its cell is
# home (no filed log's slice still claimed, which finish relies on),
# and every grant must yield exactly one filed log.
PROPTEST_CASES=64 cargo test -q -p vsmooth-repro --test shard_equivalence
cargo test -q -p vsmooth-repro --test shard_stress
cargo test -q -p vsmooth-repro --test serve_invariance
PROPTEST_CASES=64 cargo test -q -p vsmooth-serve --lib the_claim_protocol_queues_each_chip_at_most_once

echo "== trace demo (artifact validation) =="
# The demo itself asserts 1/2/8-worker byte-determinism and trace
# shape; afterwards double-check the artifacts exist and are sane.
cargo run -q --example trace_demo --release -- \
    target/ci_trace.json target/ci_metrics.prom
test -s target/ci_trace.json
test -s target/ci_metrics.prom
grep -q '^{"traceEvents":\[' target/ci_trace.json \
    || { echo "trace JSON lacks a traceEvents array"; exit 1; }
grep -q 'droops_total{policy=' target/ci_metrics.prom
grep -q 'queue_wait_kcycles{quantile="0.99"}' target/ci_metrics.prom

echo "== monitor demo (artifact validation) =="
# The demo runs the staged degradation scenario, asserts both SLO
# rules fire after the noisy burst, re-validates every sealed
# vsmooth-postmortem-v1 bundle with the offline validator, and proves
# 1/2/8-worker byte-determinism of the health artifact. Afterwards
# check the written health JSON and the Prometheus alert counters the
# demo prints.
cargo run -q --example monitor_demo --release -- target/ci_health.json \
    | tee target/ci_monitor_demo.out
test -s target/ci_health.json
grep -q '"schema": "vsmooth-health-v1"' target/ci_health.json \
    || { echo "health JSON lacks the vsmooth-health-v1 schema tag"; exit 1; }
grep -q '"schema": "vsmooth-postmortem-v1"' target/ci_health.json \
    || { echo "health JSON embeds no vsmooth-postmortem-v1 bundle"; exit 1; }
grep -q 'alerts_total{rule="droop_rate_anomaly",severity="warning"}' \
    target/ci_monitor_demo.out
grep -q 'alerts_total{rule="recovery_budget_burn",severity="critical"}' \
    target/ci_monitor_demo.out
grep -q 'monitor_droop_rate_per_kilocycle' target/ci_monitor_demo.out
# Exit-code contract: the paging alert resolved before shutdown, so
# the demo's verdict (shared definition with /healthz) must be OK —
# a FIRING verdict would have exited nonzero above.
grep -q 'health verdict: OK' target/ci_monitor_demo.out

echo "== streaming soak (capped-memory telemetry gate) =="
# The demo pushes >=10x Full-mode record volume through a 512-slot
# ring, asserting internally that peak occupancy stays under capacity
# and not one record is dropped at the default (sampling-off) rate.
# Afterwards hold it to the printed accounting: a zero-drop soak line,
# explicit zero ring_full drops in the Prometheus self-metrics, and a
# well-formed incremental trace on disk.
cargo run -q --example stream_demo --release -- target/ci_stream.json \
    | tee target/ci_stream_demo.out
test -s target/ci_stream.json
grep -q '^{"traceEvents":\[' target/ci_stream.json \
    || { echo "streamed trace lacks a traceEvents array"; exit 1; }
grep -Eq 'soak: .* peak ring [0-9]+/512, drops 0' target/ci_stream_demo.out \
    || { echo "soak accounting line missing or non-zero drops"; exit 1; }
grep -q 'telemetry_records_dropped_total{reason="ring_full"} 0' \
    target/ci_stream_demo.out
grep -q 'telemetry_records_dropped_total{reason="sink_error"} 0' \
    target/ci_stream_demo.out
grep -q 'telemetry_bytes_flushed_total' target/ci_stream_demo.out
grep -q 'telemetry_ring_peak_occupancy' target/ci_stream_demo.out

echo "== obs demo (live endpoints over loopback HTTP) =="
# The demo attaches the embedded scrape server to the monitored
# degradation run (audit armed, sharded runtime) on an ephemeral
# loopback port and probes it with the library's own std-TcpStream
# client (no curl in the container). It asserts internally that
# /healthz flips 200 -> 503 -> 200 through the injected burst, that
# all eight endpoints answer with parseable payloads — /shards with
# the live per-shard introspection, /decisions with the audit ring —
# and that malformed/unknown requests get 400/404 without killing the
# accept loop. Afterwards hold it to the printed markers and the
# sealed vsmooth-audit-v1 artifact.
cargo run -q --example obs_demo --release -- target/ci_audit.json \
    | tee target/ci_obs_demo.out
grep -q 'obs: listening on http://127\.0\.0\.1:' target/ci_obs_demo.out
grep -q '/healthz flipped 200 -> 503 -> 200' target/ci_obs_demo.out
grep -q 'status schema vsmooth-obs-v1' target/ci_obs_demo.out
grep -q 'GET /profile -> 200' target/ci_obs_demo.out
grep -q 'GET /shards -> 200' target/ci_obs_demo.out \
    || { echo "/shards scrape failed"; exit 1; }
grep -q 'schema vsmooth-obs-shards-v2' target/ci_obs_demo.out
grep -Eq 'GET /decisions\?n=6 -> 200' target/ci_obs_demo.out
grep -q 'malformed request -> 400' target/ci_obs_demo.out
grep -q 'unknown path -> 404' target/ci_obs_demo.out
grep -q 'obs demo complete' target/ci_obs_demo.out
test -s target/ci_audit.json
grep -q '"schema": "vsmooth-audit-v1"' target/ci_audit.json \
    || { echo "audit artifact lacks the vsmooth-audit-v1 schema tag"; exit 1; }
grep -q '"kind":"place"' target/ci_audit.json

echo "== fleet demo (checkpoint/resume + artifact validation) =="
# The demo runs a seeded 1000-run heterogeneous sweep twice: once
# uninterrupted and once killed at a checkpoint boundary and resumed
# from the durable vsmooth-fleet-ckpt-v1 file, asserting the resumed
# report is byte-identical and the fleet variation non-degenerate
# (>=3 distinct worst-case margins, >=2 DVFS points). Afterwards check
# both artifacts' schema and the per-chip margin fields.
cargo run -q --example fleet_demo --release -- \
    target/ci_fleet.json target/ci_fleet.ckpt.json
test -s target/ci_fleet.json
test -s target/ci_fleet.ckpt.json
grep -q '"schema": "vsmooth-fleet-v1"' target/ci_fleet.json \
    || { echo "fleet JSON lacks the vsmooth-fleet-v1 schema tag"; exit 1; }
grep -q '"schema": "vsmooth-fleet-ckpt-v1"' target/ci_fleet.ckpt.json \
    || { echo "checkpoint lacks the vsmooth-fleet-ckpt-v1 schema tag"; exit 1; }
grep -q '"sheddable_margin_pct"' target/ci_fleet.json
grep -q '"worst_case_margin_pct"' target/ci_fleet.json
grep -q '"max_droop_bits"' target/ci_fleet.ckpt.json

echo "== profile demo (artifact validation) =="
# The demo asserts 1/2/8-worker byte-determinism and droop-count
# agreement internally; afterwards check the JSON artifact shape.
cargo run -q --example profile_demo --release -- target/ci_profile.json
test -s target/ci_profile.json
grep -q '"schema": "vsmooth-profile-v1"' target/ci_profile.json \
    || { echo "profile JSON lacks the vsmooth-profile-v1 schema tag"; exit 1; }
grep -q '"workloads": \[' target/ci_profile.json \
    || { echo "profile JSON lacks a workloads array"; exit 1; }
grep -q '"event_shares":' target/ci_profile.json
grep -q '"share_matrix":' target/ci_profile.json
grep -q '"resonance_period_cycles":' target/ci_profile.json

echo "== serve bench (quick, machine-readable) =="
# Last, because its host-noise gates fail more often than any step
# above: a failed gate still fails CI, after every other step has run.
# Median wall time and simulated kcycles/sec per worker count plus
# armed-instrument overhead ratios, written for the perf trajectory.
cargo run -q -p vsmooth-bench --bin serve_bench --release -- BENCH_serve.json
test -s BENCH_serve.json
grep -q '"schema": "vsmooth-serve-bench-v1"' BENCH_serve.json
grep -q '"median_kcycles_per_sec"' BENCH_serve.json
grep -q '"runs_per_sec_checkpointed"' BENCH_serve.json
grep -q '"streaming":' BENCH_serve.json
grep -q '"full_mode_peak_records":' BENCH_serve.json
grep -q '"streaming_peak_ring_occupancy":' BENCH_serve.json
grep -q '"streaming_dropped_total": 0' BENCH_serve.json
grep -q '"obs_scrape_under_load":' BENCH_serve.json
grep -q '"introspection":' BENCH_serve.json
grep -q '"observed":' BENCH_serve.json
# Recorded, not gated: the host's core count, the share of slices the
# waiting coordinator drains itself on one shard, and the throughput of
# one fused shard.
grep -q '"host_cores":' BENCH_serve.json
grep -q '"coordinator_slice_share_1w":' BENCH_serve.json
grep -q '"one_shard":' BENCH_serve.json
# Four gates, each printed with its value and PASS or FAIL; the step
# fails once, after the last, if any failed, so a gate that fails first
# cannot hide the others' outcomes.
gates_failed=0
# gate NAME STATUS MESSAGE: prints NAME's value in BENCH_serve.json (its
# last line, as the checks below read it) with PASS if STATUS is 0, or
# with FAIL and MESSAGE, counting the failure.
gate() {
    local value
    value=$(awk -F': ' -v key="\"$1\":" 'index($0, key) { v = $2 }
                END { gsub(/,/, "", v); print v }' BENCH_serve.json)
    if [ "$2" -eq 0 ]; then
        echo "gate $1 = $value: PASS"
    else
        echo "gate $1 = $value: FAIL ($3)"
        gates_failed=$((gates_failed + 1))
    fi
}
# Shard-runtime scaling gates: throughput must not regress as workers
# are added (3% adjacent tolerance, computed by the bench) and the
# 8-worker figure must clear 2.5x the 1-worker figure. The seed repo
# measured 0.82x here — the coordinator bottleneck this runtime kills.
status=0
grep -q '"scaling_monotone_1_to_8": true' BENCH_serve.json || status=1
gate scaling_monotone_1_to_8 "$status" "serve throughput no longer monotone in worker count"
status=0
grep -q '"scaling_meets_target": true' BENCH_serve.json || status=1
gate scaling_meets_target "$status" "8-worker scaling fell below the 2.5x floor"
# Profiled-overhead ceiling: attribution must stay within 1.55x of a
# plain run (regressed to 1.63x once; caught here since).
status=0
awk -F': ' '/"profiled":/ { gsub(/,/, "", $2); ok = ($2 + 0 <= 1.55) }
            END { exit !ok }' BENCH_serve.json || status=1
gate profiled "$status" "profiled overhead exceeds the 1.55x ceiling"
# Introspection-overhead ceiling: the live counters plus the armed
# decision audit must cost at most 1.10x over the sharded baseline.
status=0
awk -F': ' '/"introspection":/ { gsub(/,/, "", $2); ok = ($2 + 0 <= 1.10) }
            END { exit !ok }' BENCH_serve.json || status=1
gate introspection "$status" "introspection overhead exceeds the 1.10x ceiling"
if [ "$gates_failed" -gt 0 ]; then
    echo "$gates_failed of 4 serve-bench gates failed"
    exit 1
fi

echo "CI green."

//! Golden-file test pinning the Prometheus text exposition format.
//!
//! `render_prometheus()` output is an exported artifact (written by
//! `repro --metrics-out` and the `trace_demo` example), so its exact
//! byte layout is part of the public contract. If a legitimate format
//! change is made, regenerate `tests/golden/metrics.prom` from the
//! `expected` printed by this test on failure.

use vsmooth_stats::MetricsRegistry;

fn sample_registry() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.describe("droops_total", "Droop emergencies observed, per policy.");
    m.describe(
        "queue_wait_kcycles",
        "Admission-queue wait per completed job, kilocycles.",
    );
    // chip_utilization and jobs_completed_total are deliberately left
    // undescribed: HELP lines are opt-in per metric name.
    m.counter_with("droops_total", &[("policy", "Droop(online)")], 42);
    m.counter_with("droops_total", &[("policy", "Random")], 97);
    m.counter_add("jobs_completed_total", 19);
    m.gauge_set("chip_utilization", 0.8125);
    m.declare_buckets("queue_wait_kcycles", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    for v in [0.6, 1.2, 2.4, 4.8, 9.6, 19.2, f64::NAN] {
        m.observe("queue_wait_kcycles", v);
    }
    // The shard-introspection shapes the obs server renders: a HELP'd
    // labeled gauge family and a HELP'd plain gauge.
    m.describe(
        "serve_shard_slices",
        "Slices executed per shard, split by claim origin (kind=owned|stolen).",
    );
    m.describe(
        "serve_merge_lag_epochs",
        "Epochs decided by the scheduler but not yet merged.",
    );
    m.gauge_with(
        "serve_shard_slices",
        &[("shard", "0"), ("kind", "owned")],
        31.0,
    );
    m.gauge_with(
        "serve_shard_slices",
        &[("shard", "0"), ("kind", "stolen")],
        2.0,
    );
    m.gauge_set("serve_merge_lag_epochs", 1.0);
    m
}

#[test]
fn prometheus_render_matches_golden_file() {
    let got = sample_registry().snapshot().render_prometheus();
    let want = include_str!("golden/metrics.prom");
    assert_eq!(
        got, want,
        "render_prometheus drifted from tests/golden/metrics.prom;\n--- got ---\n{got}"
    );
}

#[test]
fn plain_render_is_stable_across_snapshots() {
    let m = sample_registry();
    assert_eq!(m.snapshot().render(), m.snapshot().render());
    assert_eq!(
        m.snapshot().render_prometheus(),
        m.snapshot().render_prometheus()
    );
}

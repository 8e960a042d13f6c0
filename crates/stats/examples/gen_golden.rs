//! Regenerates the Prometheus golden file used by
//! `tests/prometheus_golden.rs`:
//!
//! ```sh
//! cargo run -p vsmooth-stats --example gen_golden \
//!     > crates/stats/tests/golden/metrics.prom
//! ```
//!
//! Keep the registry contents below in sync with `sample_registry()`
//! in the test.

fn main() {
    let mut m = vsmooth_stats::MetricsRegistry::new();
    m.describe("droops_total", "Droop emergencies observed, per policy.");
    m.describe(
        "queue_wait_kcycles",
        "Admission-queue wait per completed job, kilocycles.",
    );
    m.counter_with("droops_total", &[("policy", "Droop(online)")], 42);
    m.counter_with("droops_total", &[("policy", "Random")], 97);
    m.counter_add("jobs_completed_total", 19);
    m.gauge_set("chip_utilization", 0.8125);
    m.declare_buckets("queue_wait_kcycles", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    for v in [0.6, 1.2, 2.4, 4.8, 9.6, 19.2, f64::NAN] {
        m.observe("queue_wait_kcycles", v);
    }
    print!("{}", m.snapshot().render_prometheus());
}

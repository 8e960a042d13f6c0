//! A lightweight metrics registry: labeled counters, gauges and
//! fixed-bucket histograms in one single-owner registry.
//!
//! The `vsmooth-serve` scheduling service records its operational
//! telemetry here — droops-per-1k-cycles, emergencies, queue wait,
//! chip utilization, jobs/sec — and renders a deterministic snapshot
//! at the end, either as a plain text block
//! ([`MetricsSnapshot::render`]) or in the Prometheus text exposition
//! format ([`MetricsSnapshot::render_prometheus`]).
//!
//! Every series is identified by a [`SeriesId`]: a metric name plus a
//! key-sorted label set, so `droops_total{policy="Droop(online)"}` and
//! `droops_total{policy="Random"}` are distinct series that always
//! render in the same order.
//!
//! Determinism contract: recording takes `&mut self`, so a registry has
//! exactly one writer and records in that writer's order. Gauges are
//! last-write-wins and histograms accumulate floating-point sums, so
//! for bit-identical reports across thread counts the writer must be a
//! deterministic point (e.g. a coordinator merging worker results in a
//! fixed order) — which is exactly how `vsmooth-serve` uses it.
//! Non-finite histogram observations are skipped (a NaN would poison
//! `min`/`max`/`sum` forever) and tallied in a per-series
//! dropped-samples counter instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Identifies one series: metric name plus key-sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key (the BTreeMap-ordered determinism
    /// contract: the same labels always produce the same id).
    pub labels: Vec<(String, String)>,
}

impl SeriesId {
    /// Builds an id, sorting the labels by key.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// An unlabeled id.
    pub fn plain(name: &str) -> Self {
        Self {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    /// Renders as `name` or `name{k="v",k2="v2"}`.
    pub fn render(&self) -> String {
        self.render_with_extra(&[])
    }

    /// Renders with extra label pairs appended after the own labels
    /// (used for `quantile="..."` decoration).
    fn render_with_extra(&self, extra: &[(&str, String)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return self.name.clone();
        }
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(&self.name);
        out.push('{');
        let mut first = true;
        for (k, v) in self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().map(|(k, v)| (*k, v.as_str())))
        {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// The default histogram bucket bounds: three steps per decade
/// (1, 2.5, 5) from 10⁻³ to 10⁶ — wide enough for percent depths,
/// kilocycle waits and cycle latencies alike.
pub(crate) fn default_buckets() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(28);
    let mut decade = 1e-3;
    while decade < 1e6 {
        for mult in [1.0, 2.5, 5.0] {
            bounds.push(decade * mult);
        }
        decade *= 10.0;
    }
    bounds.push(1e6);
    bounds
}

/// Streaming histogram state for one series.
#[derive(Debug, Clone, PartialEq)]
struct HistogramState {
    count: u64,
    dropped: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Ascending bucket upper bounds (`le` semantics).
    bounds: Vec<f64>,
    /// Per-bucket counts; one longer than `bounds` (overflow bucket).
    buckets: Vec<u64>,
}

impl HistogramState {
    fn with_bounds(bounds: Vec<f64>) -> Self {
        let buckets = vec![0; bounds.len() + 1];
        Self {
            count: 0,
            dropped: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            bounds,
            buckets,
        }
    }

    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            // A NaN would poison min/max/sum forever; an infinity would
            // poison sum. Count it and move on.
            self.dropped += 1;
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx] += 1;
    }

    /// Estimated quantile by linear interpolation inside the owning
    /// bucket, clamped to the observed `[min, max]`.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                let lo = lo.clamp(self.min, self.max);
                let hi = hi.clamp(self.min, self.max);
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            cum += c;
        }
        self.max
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            dropped: self.dropped,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A registry of named counters, gauges and histograms. Recording
/// takes `&mut self`: each registry has one owner, which the compiler
/// rather than a lock holds to a single writer.
///
/// # Examples
///
/// ```
/// use vsmooth_stats::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.counter_add("jobs_completed", 3);
/// m.counter_with("droops_total", &[("policy", "droop")], 7);
/// m.gauge_set("queue_depth", 7.0);
/// for v in [5.0, 12.5, 80.0] {
///     m.observe("queue_wait_kcycles", v);
/// }
/// let snap = m.snapshot();
/// assert_eq!(snap.counter("jobs_completed"), 3);
/// assert_eq!(snap.counter_labeled("droops_total", &[("policy", "droop")]), 7);
/// let h = snap.histogram("queue_wait_kcycles").unwrap();
/// assert!(h.p50 >= 5.0 && h.p99 <= 100.0);
/// assert!(snap.render_prometheus().contains("droops_total{policy=\"droop\"} 7"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<SeriesId, u64>,
    gauges: BTreeMap<SeriesId, f64>,
    histograms: BTreeMap<SeriesId, HistogramState>,
    /// Declared bucket bounds by metric name ([`default_buckets`] when
    /// undeclared). Declare before the first observation.
    bucket_bounds: BTreeMap<String, Vec<f64>>,
    /// Optional help text by metric name, rendered as `# HELP` lines.
    descriptions: BTreeMap<String, String>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named unlabeled counter (creating it at
    /// zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.counter_with(name, &[], delta);
    }

    /// Adds `delta` to the counter series `name{labels…}`.
    pub fn counter_with(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self
            .counters
            .entry(SeriesId::new(name, labels))
            .or_insert(0) += delta;
    }

    /// Sets the named unlabeled gauge (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauge_with(name, &[], value);
    }

    /// Sets the gauge series `name{labels…}` (last write wins).
    pub fn gauge_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(SeriesId::new(name, labels), value);
    }

    /// Declares the bucket bounds used by histogram series of `name`
    /// (must be called before the first observation to take effect;
    /// undeclared histograms use 1–2.5–5 steps per decade from 10⁻³ to
    /// 10⁶).
    pub fn declare_buckets(&mut self, name: &str, bounds: &[f64]) {
        let mut sorted = bounds.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite bucket bounds"));
        self.bucket_bounds.insert(name.to_string(), sorted);
    }

    /// Attaches help text to a metric name, emitted as a `# HELP` line
    /// before the metric's `# TYPE` line in the Prometheus render.
    /// Optional — undescribed metrics render exactly as before. Last
    /// write wins; the text applies to every labeled series of `name`.
    pub fn describe(&mut self, name: &str, help: &str) {
        self.descriptions.insert(name.to_string(), help.to_string());
    }

    /// Records one observation into the named unlabeled histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_with(name, &[], value);
    }

    /// Records one observation into the histogram series
    /// `name{labels…}`. Non-finite values are dropped (and counted).
    pub(crate) fn observe_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let bounds = &self.bucket_bounds;
        self.histograms
            .entry(SeriesId::new(name, labels))
            .or_insert_with(|| {
                let bounds = bounds.get(name).cloned();
                HistogramState::with_bounds(bounds.unwrap_or_else(default_buckets))
            })
            .observe(value);
    }

    /// A point-in-time snapshot with all series sorted by id.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        let gauges = self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
        let descriptions = self
            .descriptions
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            descriptions,
        }
    }
}

/// Summary of one histogram series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of (finite) observations.
    pub count: u64,
    /// Non-finite observations skipped.
    pub dropped: u64,
    /// Arithmetic mean of observations (0 when empty).
    pub mean: f64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Estimated median (bucket-interpolated).
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// An immutable, id-sorted view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values sorted by series id.
    pub counters: Vec<(SeriesId, u64)>,
    /// Gauge values sorted by series id.
    pub gauges: Vec<(SeriesId, f64)>,
    /// Histogram summaries sorted by series id.
    pub histograms: Vec<(SeriesId, HistogramSummary)>,
    /// Help text by metric name (sorted), from
    /// [`MetricsRegistry::describe`].
    pub descriptions: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// The named unlabeled counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_labeled(name, &[])
    }

    /// The value of counter series `name{labels…}` (0 if absent).
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = SeriesId::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == id)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The named unlabeled gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauge_labeled(name, &[])
    }

    /// The value of gauge series `name{labels…}`, if set.
    pub(crate) fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let id = SeriesId::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == id).map(|&(_, v)| v)
    }

    /// The named unlabeled histogram's summary, if any observations
    /// were made.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histogram_labeled(name, &[])
    }

    /// The summary of histogram series `name{labels…}`, if present.
    pub(crate) fn histogram_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSummary> {
        let id = SeriesId::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == id)
            .map(|&(_, v)| v)
    }

    /// Renders all series as a fixed-format text block (deterministic
    /// for identical snapshots).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, v) in &self.counters {
            let _ = writeln!(out, "counter   {:<40} {v}", id.render());
        }
        for (id, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {:<40} {v:.4}", id.render());
        }
        for (id, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {:<40} n={} dropped={} mean={:.4} min={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
                id.render(),
                h.count,
                h.dropped,
                h.mean,
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.max
            );
        }
        out
    }

    /// Renders in the Prometheus text exposition format: an optional
    /// `# HELP` line (for described metrics) and one `# TYPE` line per
    /// metric name, stable label ordering, and histogram series
    /// rendered as summaries with `quantile` labels plus
    /// `_sum`/`_count`/`_dropped` lines.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Option<&str> = None;
        let type_line = |out: &mut String, name: &str, kind: &str, last: &mut Option<&str>| {
            if *last != Some(name) {
                if let Ok(i) = self
                    .descriptions
                    .binary_search_by(|(k, _)| k.as_str().cmp(name))
                {
                    // HELP text must stay on one line: the exposition
                    // format escapes backslash and newline (only).
                    let help = self.descriptions[i]
                        .1
                        .replace('\\', "\\\\")
                        .replace('\n', "\\n");
                    let _ = writeln!(out, "# HELP {name} {help}");
                }
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
        };
        for (id, v) in &self.counters {
            type_line(&mut out, &id.name, "counter", &mut typed);
            typed = Some(&id.name);
            let _ = writeln!(out, "{} {v}", id.render());
        }
        typed = None;
        for (id, v) in &self.gauges {
            type_line(&mut out, &id.name, "gauge", &mut typed);
            typed = Some(&id.name);
            let _ = writeln!(out, "{} {v}", id.render());
        }
        typed = None;
        for (id, h) in &self.histograms {
            type_line(&mut out, &id.name, "summary", &mut typed);
            typed = Some(&id.name);
            for (q, value) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(
                    out,
                    "{} {value}",
                    id.render_with_extra(&[("quantile", q.to_string())])
                );
            }
            let suffixed = |suffix: &str| {
                let mut with = id.clone();
                with.name = format!("{}{suffix}", id.name);
                with.render()
            };
            let _ = writeln!(out, "{} {}", suffixed("_sum"), h.sum);
            let _ = writeln!(out, "{} {}", suffixed("_count"), h.count);
            let _ = writeln!(out, "{} {}", suffixed("_dropped"), h.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_exactly() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a", 1);
        m.counter_add("a", 2);
        m.counter_add("b", 5);
        let s = m.snapshot();
        assert_eq!(s.counter("a"), 3);
        assert_eq!(s.counter("b"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn labeled_series_are_distinct_and_key_sorted() {
        let mut m = MetricsRegistry::new();
        m.counter_with("droops_total", &[("policy", "droop")], 4);
        m.counter_with("droops_total", &[("policy", "random")], 9);
        // Label order at the call site must not matter.
        m.counter_with("x", &[("b", "2"), ("a", "1")], 1);
        m.counter_with("x", &[("a", "1"), ("b", "2")], 1);
        let s = m.snapshot();
        assert_eq!(s.counter_labeled("droops_total", &[("policy", "droop")]), 4);
        assert_eq!(
            s.counter_labeled("droops_total", &[("policy", "random")]),
            9
        );
        assert_eq!(s.counter_labeled("x", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(s.counter("droops_total"), 0, "unlabeled series is separate");
        assert!(s.render().contains("droops_total{policy=\"droop\"}"));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("depth", 3.0);
        m.gauge_set("depth", 9.0);
        assert_eq!(m.snapshot().gauge("depth"), Some(9.0));
        assert_eq!(m.snapshot().gauge("missing"), None);
    }

    #[test]
    fn histograms_track_count_mean_extremes() {
        let mut m = MetricsRegistry::new();
        for v in [1.0, 2.0, 6.0] {
            m.observe("wait", v);
        }
        let h = m.snapshot().histogram("wait").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.mean - 3.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 6.0);
    }

    #[test]
    fn non_finite_observations_are_dropped_not_poisonous() {
        let mut m = MetricsRegistry::new();
        m.observe("wait", 2.0);
        m.observe("wait", f64::NAN);
        m.observe("wait", f64::INFINITY);
        m.observe("wait", f64::NEG_INFINITY);
        m.observe("wait", 4.0);
        let h = m.snapshot().histogram("wait").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.dropped, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean - 3.0).abs() < 1e-12);
        assert!(h.sum.is_finite());
        assert!(h.p50.is_finite() && h.p99.is_finite());
        assert!(m.snapshot().render().contains("dropped=3"));
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut m = MetricsRegistry::new();
        for i in 1..=1_000 {
            m.observe("lat", i as f64);
        }
        let h = m.snapshot().histogram("lat").unwrap();
        assert!(h.p50 >= h.min && h.p50 <= h.p95, "p50 {}", h.p50);
        assert!(h.p95 <= h.p99 && h.p99 <= h.max);
        // Bucket interpolation: median of uniform 1..=1000 is near 500
        // (coarse default buckets put it in the (250, 500] bucket).
        assert!(h.p50 > 250.0 && h.p50 <= 505.0, "p50 {}", h.p50);
        assert!(h.p99 > 900.0, "p99 {}", h.p99);
    }

    #[test]
    fn declared_buckets_sharpen_quantiles() {
        let mut m = MetricsRegistry::new();
        let bounds: Vec<f64> = (0..=100).map(|i| i as f64 * 10.0).collect();
        m.declare_buckets("lat", &bounds);
        for i in 1..=1_000 {
            m.observe("lat", i as f64);
        }
        let h = m.snapshot().histogram("lat").unwrap();
        assert!((h.p50 - 500.0).abs() < 10.0, "p50 {}", h.p50);
        assert!((h.p99 - 990.0).abs() < 10.0, "p99 {}", h.p99);
    }

    #[test]
    fn single_observation_has_degenerate_quantiles() {
        let mut m = MetricsRegistry::new();
        m.observe("one", 42.0);
        let h = m.snapshot().histogram("one").unwrap();
        assert_eq!((h.p50, h.p95, h.p99), (42.0, 42.0, 42.0));
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z_last", 1);
        m.counter_add("a_first", 1);
        m.observe("h", 2.0);
        let r1 = m.snapshot().render();
        let r2 = m.snapshot().render();
        assert_eq!(r1, r2);
        assert!(r1.find("a_first").unwrap() < r1.find("z_last").unwrap());
    }

    #[test]
    fn prometheus_rendering_has_types_and_stable_labels() {
        let mut m = MetricsRegistry::new();
        m.counter_with("droops_total", &[("policy", "droop")], 4);
        m.counter_with("droops_total", &[("policy", "random")], 9);
        m.gauge_set("util", 0.5);
        m.observe("queue_wait_kcycles", 1.5);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("# TYPE droops_total counter"));
        assert_eq!(text.matches("# TYPE droops_total").count(), 1);
        assert!(text.contains("droops_total{policy=\"droop\"} 4"));
        assert!(text.contains("# TYPE util gauge"));
        assert!(text.contains("util 0.5"));
        assert!(text.contains("# TYPE queue_wait_kcycles summary"));
        assert!(text.contains("queue_wait_kcycles{quantile=\"0.5\"} 1.5"));
        assert!(text.contains("queue_wait_kcycles_count 1"));
        assert!(text.contains("queue_wait_kcycles_dropped 0"));
    }

    #[test]
    fn described_metrics_render_help_before_type() {
        let mut m = MetricsRegistry::new();
        m.describe("droops_total", "Droop emergencies per policy.");
        m.describe("queue_wait_kcycles", "Admission queue wait.");
        m.counter_with("droops_total", &[("policy", "droop")], 4);
        m.gauge_set("util", 0.5);
        m.observe("queue_wait_kcycles", 1.5);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains(
            "# HELP droops_total Droop emergencies per policy.\n# TYPE droops_total counter"
        ));
        assert!(text.contains(
            "# HELP queue_wait_kcycles Admission queue wait.\n# TYPE queue_wait_kcycles summary"
        ));
        // Undescribed metrics render exactly as before.
        assert!(!text.contains("# HELP util"));
        assert!(text.contains("# TYPE util gauge"));
        // One HELP per name, even with several labeled series.
        m.counter_with("droops_total", &[("policy", "random")], 9);
        let text = m.snapshot().render_prometheus();
        assert_eq!(text.matches("# HELP droops_total").count(), 1);
    }

    #[test]
    fn help_text_is_escaped_onto_one_line() {
        let mut m = MetricsRegistry::new();
        m.describe("c", "line1\nline2 \\ backslash");
        m.counter_add("c", 1);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("# HELP c line1\\nline2 \\\\ backslash\n"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn label_values_are_escaped_in_renders() {
        let mut m = MetricsRegistry::new();
        m.counter_with("c", &[("k", "a\"b\\c")], 1);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("c{k=\"a\\\"b\\\\c\"} 1"));
    }

    #[test]
    fn pathological_label_values_stay_on_one_exposition_line() {
        // Backslash, quote and newline together — the three characters
        // the Prometheus exposition format requires escaped. A raw
        // newline would split the series across lines and corrupt the
        // whole scrape.
        let mut m = MetricsRegistry::new();
        m.counter_with("c", &[("k", "line1\nline2\\end\"q\"")], 3);
        m.gauge_with("g", &[("k", "a\nb")], 1.5);
        m.observe_with("h", &[("k", "x\ny")], 2.0);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("c{k=\"line1\\nline2\\\\end\\\"q\\\"\"} 3"));
        assert!(text.contains("g{k=\"a\\nb\"} 1.5"));
        assert!(text.contains("h{k=\"x\\ny\",quantile=\"0.5\"} 2"));
        // Every rendered line is a comment, a `name value`, or a
        // `name{labels} value` — no line starts mid-label-value.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
        // The plain text renderer uses the same SeriesId rendering.
        assert!(m.snapshot().render().contains("c{k=\"line1\\nline2"));
    }
}

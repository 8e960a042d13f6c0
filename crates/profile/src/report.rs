//! Profile exporters: text, deterministic JSON, labeled metrics and
//! trace spans.

use crate::attribution::{DroopAttribution, N_EVENTS};
use crate::profiler::NoiseProfile;
use std::fmt::Write as _;
use vsmooth_chip::DroopWindow;
use vsmooth_stats::MetricsRegistry;
use vsmooth_trace::json::escape;
use vsmooth_trace::{ArgValue, Tracer};
use vsmooth_uarch::StallEvent;

/// One workload's (or phase's) profile, labeled.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// The label windows were recorded under (workload name, run id…).
    pub label: String,
    /// The aggregated profile.
    pub profile: NoiseProfile,
}

/// A complete attribution report, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Margin the captures triggered at, percent below nominal.
    pub margin_pct: f64,
    /// Attribution decay constant, cycles.
    pub decay_tau_cycles: f64,
    /// Depth-bin width, percent.
    pub depth_bin_pct: f64,
    /// Number of depth bins.
    pub depth_bins: usize,
    /// Droops scored across all labels.
    pub total_droops: u64,
    /// Windows captured (== `total_droops`; kept separate so callers
    /// can cross-check).
    pub total_windows: u64,
    /// Windows cut short by an end-of-run flush.
    pub truncated_windows: u64,
    /// Estimated dominant ringing period, cycles (`None` until the
    /// pooled autocorrelation shows a peak).
    pub resonance_period_cycles: Option<f64>,
    /// Per-label profiles, sorted by label.
    pub workloads: Vec<WorkloadProfile>,
}

impl ProfileReport {
    /// Renders a human-readable text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "droop attribution profile (margin {:.1}%)",
            self.margin_pct
        );
        let _ = writeln!(
            out,
            "  droops: {}  windows: {}  truncated: {}",
            self.total_droops, self.total_windows, self.truncated_windows
        );
        match self.resonance_period_cycles {
            Some(p) => {
                let _ = writeln!(out, "  estimated resonance period: {p:.1} cycles");
            }
            None => {
                let _ = writeln!(out, "  estimated resonance period: n/a");
            }
        }
        for w in &self.workloads {
            let p = &w.profile;
            let _ = writeln!(
                out,
                "  {}: {} droops, mean depth {:.2}%, max {:.2}%",
                w.label,
                p.droops,
                p.mean_depth_pct(),
                p.max_depth_pct
            );
            for (e, kind) in StallEvent::ALL.iter().enumerate() {
                if p.event_shares[e] > 0.0 || p.dominant_droops[e] > 0 {
                    let _ = writeln!(
                        out,
                        "    {:<4} share {:6.3}  dominant in {} droops  ({} events in windows)",
                        kind.label(),
                        p.event_shares[e],
                        p.dominant_droops[e],
                        p.window_events[e]
                    );
                }
            }
            if p.unattributed > 0.0 {
                let _ = writeln!(
                    out,
                    "    none share {:6.3}  dominant in {} droops",
                    p.unattributed, p.unattributed_droops
                );
            }
        }
        out
    }

    /// Serializes the report as a deterministic JSON artifact
    /// (`schema: vsmooth-profile-v1`). Floats render with fixed
    /// precision so equal reports are byte-equal.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"vsmooth-profile-v1\",");
        let _ = writeln!(out, "  \"margin_pct\": {:.4},", self.margin_pct);
        let _ = writeln!(out, "  \"decay_tau_cycles\": {:.4},", self.decay_tau_cycles);
        let _ = writeln!(out, "  \"depth_bin_pct\": {:.4},", self.depth_bin_pct);
        let _ = writeln!(out, "  \"depth_bins\": {},", self.depth_bins);
        let _ = writeln!(out, "  \"total_droops\": {},", self.total_droops);
        let _ = writeln!(out, "  \"total_windows\": {},", self.total_windows);
        let _ = writeln!(out, "  \"truncated_windows\": {},", self.truncated_windows);
        match self.resonance_period_cycles {
            Some(p) => {
                let _ = writeln!(out, "  \"resonance_period_cycles\": {p:.4},");
            }
            None => {
                let _ = writeln!(out, "  \"resonance_period_cycles\": null,");
            }
        }
        out.push_str("  \"events\": [");
        for (e, kind) in StallEvent::ALL.iter().enumerate() {
            if e > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", kind.label());
        }
        out.push_str("],\n");
        out.push_str("  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let p = &w.profile;
            let _ = writeln!(out, "      \"label\": \"{}\",", escape(&w.label));
            let _ = writeln!(out, "      \"droops\": {},", p.droops);
            let _ = writeln!(out, "      \"truncated_windows\": {},", p.truncated_windows);
            let _ = writeln!(out, "      \"mean_depth_pct\": {:.4},", p.mean_depth_pct());
            let _ = writeln!(out, "      \"max_depth_pct\": {:.4},", p.max_depth_pct);
            let _ = writeln!(
                out,
                "      \"event_shares\": {},",
                json_f64_array(&p.event_shares)
            );
            let _ = writeln!(out, "      \"unattributed\": {:.4},", p.unattributed);
            let _ = writeln!(
                out,
                "      \"dominant_droops\": {},",
                json_u64_array(&p.dominant_droops)
            );
            let _ = writeln!(
                out,
                "      \"unattributed_droops\": {},",
                p.unattributed_droops
            );
            out.push_str("      \"share_matrix\": [");
            for (e, row) in p.share_matrix.iter().enumerate() {
                if e > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_f64_array(row));
            }
            out.push_str("],\n");
            let _ = writeln!(
                out,
                "      \"window_events\": {}",
                json_u64_array(&p.window_events)
            );
            out.push_str("    }");
        }
        if !self.workloads.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Exports the report's integer aggregates as labeled series into
    /// `metrics`:
    ///
    /// * `droop_attribution_total{event=...}` — droops dominated by
    ///   each event kind (`event="none"` for unattributed droops);
    /// * `profile_windows_total` / `profile_droops_total` /
    ///   `profile_truncated_windows_total`.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        let mut dominant = [0u64; N_EVENTS];
        let mut unattributed = 0u64;
        for w in &self.workloads {
            for (e, &n) in w.profile.dominant_droops.iter().enumerate() {
                dominant[e] += n;
            }
            unattributed += w.profile.unattributed_droops;
        }
        for (e, kind) in StallEvent::ALL.iter().enumerate() {
            metrics.counter_with(
                "droop_attribution_total",
                &[("event", kind.label())],
                dominant[e],
            );
        }
        metrics.counter_with(
            "droop_attribution_total",
            &[("event", "none")],
            unattributed,
        );
        metrics.counter_add("profile_droops_total", self.total_droops);
        metrics.counter_add("profile_windows_total", self.total_windows);
        metrics.counter_add("profile_truncated_windows_total", self.truncated_windows);
    }
}

/// Emits one captured window as a `droop_window` span on a trace
/// timeline (`[window.start_cycle, window.end_cycle]` mapped to
/// `[ts, ts + dur)` by the caller-supplied base `ts`).
pub fn emit_window_span(
    tracer: &Tracer,
    pid: u32,
    tid: u64,
    ts: u64,
    window: &DroopWindow,
    att: &DroopAttribution,
) {
    tracer.complete(
        "droop_window",
        "profile",
        pid,
        tid,
        ts,
        window.len().max(1) as u64,
        vec![
            ("depth_pct", ArgValue::F64(window.depth_pct)),
            (
                "trigger_offset",
                ArgValue::U64(window.trigger_cycle - window.start_cycle),
            ),
            ("events", ArgValue::U64(window.events.len() as u64)),
            (
                "dominant",
                ArgValue::from(att.dominant.map_or("none", |e| e.label())),
            ),
        ],
    );
}

fn json_f64_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v:.4}");
    }
    out.push(']');
    out
}

fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profiler;
    use vsmooth_chip::WindowEvent;
    use vsmooth_uarch::PerfCounters;

    fn sample_window() -> DroopWindow {
        DroopWindow {
            trigger_cycle: 120,
            depth_pct: 2.9,
            start_cycle: 100,
            truncated: false,
            voltage_dev_pct: vec![0.0; 40],
            counter_deltas: vec![PerfCounters::new(); 2],
            events: vec![WindowEvent {
                cycle: 118,
                core: 0,
                event: StallEvent::L2Miss,
            }],
        }
    }

    fn sample_report() -> ProfileReport {
        let mut profiler = Profiler::new(2.5);
        profiler.record("a\"b\\c", &sample_window());
        profiler.report()
    }

    #[test]
    fn json_is_valid_and_escaped() {
        let report = sample_report();
        let json = report.to_json();
        let value = vsmooth_trace::parse_json(&json).expect("valid JSON");
        let schema = value
            .get("schema")
            .and_then(|v| v.as_str())
            .expect("schema field");
        assert_eq!(schema, "vsmooth-profile-v1");
        let workloads = value
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads array");
        assert_eq!(workloads.len(), 1);
        let label = workloads[0]
            .get("label")
            .and_then(|v| v.as_str())
            .expect("label");
        assert_eq!(label, "a\"b\\c");
    }

    #[test]
    fn json_is_deterministic() {
        let a = sample_report().to_json();
        let b = sample_report().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_export_counts_dominants() {
        let report = sample_report();
        let metrics = MetricsRegistry::new();
        report.export_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter_labeled("droop_attribution_total", &[("event", "L2")]),
            1
        );
        assert_eq!(
            snap.counter_labeled("droop_attribution_total", &[("event", "none")]),
            0
        );
        assert_eq!(snap.counter("profile_droops_total"), 1);
        assert_eq!(snap.counter("profile_windows_total"), 1);
    }

    #[test]
    fn render_mentions_every_active_event() {
        let report = sample_report();
        let text = report.render();
        assert!(text.contains("droop attribution profile"));
        assert!(text.contains("L2"));
        assert!(text.contains("1 droops"));
    }

    #[test]
    fn window_span_round_trips_through_tracer() {
        let tracer = Tracer::enabled();
        let window = sample_window();
        let att = crate::Profiler::new(2.5).record("482.sphinx3", &window);
        emit_window_span(&tracer, 10, 2, window.start_cycle, &window, &att);
        let json = tracer.to_chrome_json();
        let value = vsmooth_trace::parse_json(&json).expect("valid trace JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("droop_window")));
    }
}

//! The flight recorder: always-on bounded evidence rings and the
//! sealed postmortem bundle.
//!
//! While the monitor runs, recent droop crossings, slice records, and
//! window snapshots accumulate in fixed-capacity rings (oldest entries
//! evicted first, like an aircraft flight recorder). The moment an
//! alert fires, [`FlightRecorder::seal`] freezes the rings into a
//! [`PostmortemBundle`] — the evidence of *what the system was doing
//! right before it went wrong* — which serializes to deterministic
//! `vsmooth-postmortem-v1` JSON and can be re-validated offline with
//! [`validate_postmortem`], mirroring the Chrome-trace exporter's
//! validator.

use crate::slo::Alert;
use crate::window::WindowSnapshot;
use std::collections::VecDeque;
use std::sync::Arc;
use vsmooth_trace::json::{escape, json_f64};
use vsmooth_trace::{parse_json, BatchRing, DroopBatch, DroopEvent};

/// Schema tag stamped on every postmortem bundle.
pub(crate) const POSTMORTEM_SCHEMA: &str = "vsmooth-postmortem-v1";

/// Ring capacities for the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Recent droop crossings retained.
    pub droop_events: usize,
    /// Recent per-chip slice records retained.
    pub slices: usize,
    /// Recent window snapshots retained.
    pub snapshots: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            droop_events: 256,
            slices: 128,
            snapshots: 64,
        }
    }
}

/// One scheduling slice as the recorder remembers it.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceRecord {
    /// Virtual clock at slice start.
    pub start_cycle: u64,
    /// Chip the slice ran on.
    pub chip: usize,
    /// Co-scheduled workloads, `+`-joined in core order (shared with
    /// the slice's droop events).
    pub label: Arc<str>,
    /// Measured chip cycles in the slice.
    pub cycles: u64,
    /// Droop emergencies in the slice.
    pub droops: u64,
    /// Deepest excursion in the slice, percent below nominal.
    pub max_droop_pct: f64,
}

/// Bounded rings of recent evidence, always on while monitoring.
///
/// The droop ring holds shared per-slice batches, so the service's obs
/// ring can hold the same allocations; sealing expands the newest
/// crossings into events.
#[derive(Debug, Clone)]
pub(crate) struct FlightRecorder {
    cfg: RecorderConfig,
    droops: BatchRing<DroopBatch>,
    slices: VecDeque<SliceRecord>,
    snapshots: VecDeque<WindowSnapshot>,
}

impl FlightRecorder {
    /// An empty recorder with its slice and snapshot rings
    /// pre-allocated to their caps.
    pub(crate) fn new(cfg: RecorderConfig) -> Self {
        Self {
            cfg,
            droops: BatchRing::new(cfg.droop_events),
            slices: VecDeque::with_capacity(cfg.slices.max(1)),
            snapshots: VecDeque::with_capacity(cfg.snapshots.max(1)),
        }
    }

    /// Records one slice's droop crossings, evicting the oldest beyond
    /// capacity.
    pub(crate) fn record_droops(&mut self, batch: Arc<DroopBatch>) {
        self.droops.push(batch);
    }

    /// Records one slice, evicting the oldest at capacity.
    pub(crate) fn record_slice(&mut self, slice: SliceRecord) {
        if self.cfg.slices == 0 {
            return;
        }
        if self.slices.len() == self.cfg.slices {
            self.slices.pop_front();
        }
        self.slices.push_back(slice);
    }

    /// Records one window snapshot, evicting the oldest at capacity.
    pub(crate) fn record_snapshot(&mut self, snap: WindowSnapshot) {
        if self.cfg.snapshots == 0 {
            return;
        }
        if self.snapshots.len() == self.cfg.snapshots {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(snap);
    }

    /// Freezes the rings into a postmortem for a fired alert. The
    /// recorder keeps recording afterwards; the bundle owns copies.
    pub(crate) fn seal(&self, alert: &Alert) -> PostmortemBundle {
        PostmortemBundle {
            alert: alert.clone(),
            droop_events: self.droops.iter().collect(),
            slices: self.slices.iter().cloned().collect(),
            snapshots: self.snapshots.iter().cloned().collect(),
        }
    }
}

/// The sealed evidence attached to one fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemBundle {
    /// The alert that triggered sealing (firing-time copy: no
    /// `resolved_at_cycle` even if the live alert later resolves).
    pub alert: Alert,
    /// Droop events in the recorder at seal time, oldest first.
    pub droop_events: Vec<DroopEvent>,
    /// Slice records at seal time, oldest first.
    pub slices: Vec<SliceRecord>,
    /// Window snapshots at seal time, oldest first.
    pub snapshots: Vec<WindowSnapshot>,
}

fn window_json(out: &mut String, w: &WindowSnapshot) {
    out.push_str(&format!(
        "{{\"end_cycle\": {}, \"epochs\": {}, \"cycles\": {}, \"droops\": {}, \
         \"droop_rate_per_kilocycle\": {}, \"mean_margin_pct\": {}, \"min_margin_pct\": {}, \
         \"throttle_fraction\": {}, \"mean_queue_depth\": {}}}",
        w.end_cycle,
        w.epochs,
        w.cycles,
        w.droops,
        json_f64(w.droop_rate_per_kilocycle),
        json_f64(w.mean_margin_pct),
        json_f64(w.min_margin_pct),
        json_f64(w.throttle_fraction),
        json_f64(w.mean_queue_depth),
    ));
}

pub(crate) fn alert_json(out: &mut String, a: &Alert) {
    out.push_str(&format!(
        "{{\"rule\": \"{}\", \"severity\": \"{}\", \"fired_at_cycle\": {}, \"fired_at_kcycle\": {}, ",
        escape(&a.rule),
        a.severity.label(),
        a.fired_at_cycle,
        json_f64(a.fired_at_kcycle()),
    ));
    match a.resolved_at_cycle {
        Some(c) => out.push_str(&format!("\"resolved_at_cycle\": {c}, ")),
        None => out.push_str("\"resolved_at_cycle\": null, "),
    }
    out.push_str("\"window\": ");
    window_json(out, &a.window);
    out.push('}');
}

impl PostmortemBundle {
    /// Deterministic `vsmooth-postmortem-v1` JSON: fixed key order,
    /// floats at four decimal places, byte-identical for equal
    /// bundles.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\n  \"schema\": \"{POSTMORTEM_SCHEMA}\",\n  \"alert\": "
        ));
        alert_json(&mut out, &self.alert);
        out.push_str(",\n  \"droop_events\": [\n");
        for (i, e) in self.droop_events.iter().enumerate() {
            out.push_str("    ");
            e.push_json(&mut out);
            out.push_str(if i + 1 == self.droop_events.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"slices\": [\n");
        for (i, s) in self.slices.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"start_cycle\": {}, \"chip\": {}, \"label\": \"{}\", \"cycles\": {}, \
                 \"droops\": {}, \"max_droop_pct\": {}}}{}\n",
                s.start_cycle,
                s.chip,
                escape(&s.label),
                s.cycles,
                s.droops,
                json_f64(s.max_droop_pct),
                if i + 1 == self.slices.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"snapshots\": [\n");
        for (i, w) in self.snapshots.iter().enumerate() {
            out.push_str("    ");
            window_json(&mut out, w);
            out.push_str(if i + 1 == self.snapshots.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Shape counts returned by a successful postmortem validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostmortemShape {
    /// Droop events in the bundle.
    pub droop_events: usize,
    /// Slice records in the bundle.
    pub slices: usize,
    /// Window snapshots in the bundle.
    pub snapshots: usize,
}

/// Parses and structurally validates `vsmooth-postmortem-v1` JSON.
///
/// Checks the schema tag, the alert object (rule, severity, firing
/// time, attached window), and that every ring entry carries its
/// required fields — the same offline re-validation contract the
/// Chrome-trace exporter provides via `validate_chrome_trace`.
pub fn validate_postmortem(json: &str) -> Result<PostmortemShape, String> {
    let doc = parse_json(json)?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing schema tag")?;
    if schema != POSTMORTEM_SCHEMA {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let alert = doc.get("alert").ok_or("missing alert")?;
    alert
        .get("rule")
        .and_then(|v| v.as_str())
        .ok_or("alert missing rule")?;
    let sev = alert
        .get("severity")
        .and_then(|v| v.as_str())
        .ok_or("alert missing severity")?;
    if !matches!(sev, "info" | "warning" | "critical") {
        return Err(format!("unknown severity {sev:?}"));
    }
    alert
        .get("fired_at_cycle")
        .and_then(|v| v.as_f64())
        .ok_or("alert missing fired_at_cycle")?;
    let window = alert.get("window").ok_or("alert missing window")?;
    for key in [
        "end_cycle",
        "droops",
        "droop_rate_per_kilocycle",
        "throttle_fraction",
    ] {
        window
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("alert window missing {key}"))?;
    }
    let droops = doc
        .get("droop_events")
        .and_then(|v| v.as_array())
        .ok_or("missing droop_events array")?;
    for (i, e) in droops.iter().enumerate() {
        for key in ["chip", "cycle", "depth_pct"] {
            e.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("droop_events[{i}] missing {key}"))?;
        }
        e.get("workloads")
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("droop_events[{i}] missing workloads"))?;
    }
    let slices = doc
        .get("slices")
        .and_then(|v| v.as_array())
        .ok_or("missing slices array")?;
    for (i, s) in slices.iter().enumerate() {
        for key in ["start_cycle", "chip", "cycles", "droops"] {
            s.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("slices[{i}] missing {key}"))?;
        }
        s.get("label")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("slices[{i}] missing label"))?;
    }
    let snapshots = doc
        .get("snapshots")
        .and_then(|v| v.as_array())
        .ok_or("missing snapshots array")?;
    for (i, w) in snapshots.iter().enumerate() {
        for key in ["end_cycle", "cycles", "droops", "mean_margin_pct"] {
            w.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("snapshots[{i}] missing {key}"))?;
        }
    }
    Ok(PostmortemShape {
        droop_events: droops.len(),
        slices: slices.len(),
        snapshots: snapshots.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::Severity;

    fn droops(cycles: impl IntoIterator<Item = u64>) -> Arc<DroopBatch> {
        Arc::new(DroopBatch {
            chip: 0,
            workloads: ["482.sphinx3".into(), "482.sphinx3".into()].into(),
            label: "482.sphinx3+482.sphinx3".into(),
            phase: "epoch3".into(),
            crossings: cycles.into_iter().map(|c| (c, 2.9)).collect(),
        })
    }

    fn alert() -> Alert {
        Alert {
            rule: "droop_rate_anomaly".into(),
            severity: Severity::Warning,
            fired_at_cycle: 12_000,
            resolved_at_cycle: None,
            window: WindowSnapshot {
                end_cycle: 12_000,
                epochs: 4,
                cycles: 4_000,
                droops: 18,
                droop_rate_per_kilocycle: 4.5,
                mean_margin_pct: 1.2,
                min_margin_pct: -0.4,
                throttle_fraction: 0.45,
                mean_queue_depth: 1.5,
            },
        }
    }

    fn recorder_with_evidence() -> FlightRecorder {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        rec.record_droops(droops((0..5).map(|c| 10_000 + c * 100)));
        rec.record_slice(SliceRecord {
            start_cycle: 10_000,
            chip: 0,
            label: "482.sphinx3+482.sphinx3".into(),
            cycles: 1_000,
            droops: 5,
            max_droop_pct: 3.1,
        });
        rec.record_snapshot(alert().window);
        rec
    }

    #[test]
    fn rings_evict_oldest_at_capacity() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            droop_events: 3,
            slices: 2,
            snapshots: 2,
        });
        // The newest batch's two crossings plus the last of the batch
        // before it, which is cut inside.
        rec.record_droops(droops(0..4));
        rec.record_droops(droops(4..8));
        rec.record_droops(droops(8..10));
        assert_eq!(rec.droops.len(), 3);
        let bundle = rec.seal(&alert());
        assert_eq!(
            bundle
                .droop_events
                .iter()
                .map(|e| e.cycle)
                .collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn sealed_bundle_round_trips_the_validator() {
        let rec = recorder_with_evidence();
        let bundle = rec.seal(&alert());
        let json = bundle.to_json();
        let shape = validate_postmortem(&json).expect("valid bundle");
        assert_eq!(shape.droop_events, 5);
        assert_eq!(shape.slices, 1);
        assert_eq!(shape.snapshots, 1);
        assert!(json.contains(POSTMORTEM_SCHEMA));
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        let a = recorder_with_evidence().seal(&alert()).to_json();
        let b = recorder_with_evidence().seal(&alert()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_rings_still_validate() {
        let rec = FlightRecorder::new(RecorderConfig::default());
        let json = rec.seal(&alert()).to_json();
        let shape = validate_postmortem(&json).expect("empty bundle valid");
        assert_eq!(shape.droop_events, 0);
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_postmortem("{}").is_err());
        assert!(validate_postmortem("not json").is_err());
        let wrong_schema = "{\"schema\": \"vsmooth-profile-v1\"}";
        let err = validate_postmortem(wrong_schema).unwrap_err();
        assert!(err.contains("unexpected schema"), "{err}");
        // Valid schema but a droop event missing its cycle.
        let bad = format!(
            "{{\"schema\": \"{POSTMORTEM_SCHEMA}\", \
             \"alert\": {{\"rule\": \"r\", \"severity\": \"info\", \"fired_at_cycle\": 1, \
             \"window\": {{\"end_cycle\": 1, \"droops\": 0, \"droop_rate_per_kilocycle\": 0, \
             \"throttle_fraction\": 0}}}}, \
             \"droop_events\": [{{\"chip\": 0, \"depth_pct\": 1.0, \"workloads\": []}}], \
             \"slices\": [], \"snapshots\": []}}"
        );
        let err = validate_postmortem(&bad).unwrap_err();
        assert!(err.contains("missing cycle"), "{err}");
    }

    #[test]
    fn zero_capacity_rings_drop_everything() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            droop_events: 0,
            slices: 0,
            snapshots: 0,
        });
        rec.record_droops(droops([1]));
        rec.record_slice(SliceRecord {
            start_cycle: 0,
            chip: 0,
            label: "x".into(),
            cycles: 1,
            droops: 0,
            max_droop_pct: 0.0,
        });
        let bundle = rec.seal(&alert());
        assert!(bundle.droop_events.is_empty());
        assert!(bundle.slices.is_empty());
    }
}

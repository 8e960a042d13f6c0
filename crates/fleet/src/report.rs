//! Per-chip margin reports for fleet sweeps.
//!
//! The paper's economic argument (Sec. I) is that the 14 % worst-case
//! margin ships in every part but is almost never needed; smoothing
//! reclaims it as frequency or power. A fleet report quantifies that
//! per chip: each part's observed workload noise, its virus-probed
//! worst-case margin, and the *sheddable margin* — how much of the
//! shipped 14 % guardband that particular part could give back.

use crate::checkpoint::RunRecord;
use crate::spec::ChipVariant;
use std::fmt::Write as _;
use vsmooth_resilience::WorstCaseMargin;
use vsmooth_trace::json;

/// Schema tag of the JSON report artifact.
pub const REPORT_SCHEMA: &str = "vsmooth-fleet-v1";

/// The uniform worst-case margin the paper's part ships with
/// (Sec. II-C): the baseline every per-chip margin is compared to.
pub const SHIPPED_MARGIN_PCT: f64 = 14.0;

/// Aggregated results for one chip of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Stable chip identifier (`chip00`, …).
    pub id: String,
    /// Technology node, nanometers.
    pub node_nm: u32,
    /// Package decap retained, percent.
    pub decap_pct: u8,
    /// DVFS operating-point name.
    pub op_name: String,
    /// Per-part sensor/aging guardband, percent.
    pub guard_pct: f64,
    /// Workload runs executed on this chip.
    pub runs: usize,
    /// Total cycles simulated on this chip.
    pub cycles: u64,
    /// Total margin emergencies across its runs.
    pub droops: u64,
    /// Emergencies per thousand cycles.
    pub droop_rate_per_kcycle: f64,
    /// Deepest droop any workload produced, percent of nominal.
    pub worst_observed_droop_pct: f64,
    /// Deepest droop the virus probe produced, percent of nominal.
    pub probe_droop_pct: f64,
    /// This part's worst-case margin: probe depth plus its guardband.
    pub worst_case_margin_pct: f64,
    /// Guardband this part could shed versus the shipped 14 %.
    pub sheddable_margin_pct: f64,
}

impl ChipReport {
    /// Builds a chip's report from its variant, its completed run
    /// records and its worst-case-margin probe.
    pub fn build(variant: &ChipVariant, records: &[&RunRecord], probe: &WorstCaseMargin) -> Self {
        let runs = records.len();
        let cycles: u64 = records.iter().map(|r| r.cycles).sum();
        let droops: u64 = records.iter().map(|r| r.droops).sum();
        let worst_observed = records
            .iter()
            .map(|r| r.max_droop_pct)
            .fold(0.0_f64, f64::max);
        let worst_case = probe.deepest_droop_pct + variant.margin_guard_pct;
        Self {
            id: variant.id(),
            node_nm: variant.node.nanometers(),
            decap_pct: variant.decap.percent_retained(),
            op_name: variant.op.name.clone(),
            guard_pct: variant.margin_guard_pct,
            runs,
            cycles,
            droops,
            droop_rate_per_kcycle: if cycles == 0 {
                0.0
            } else {
                1000.0 * droops as f64 / cycles as f64
            },
            worst_observed_droop_pct: worst_observed,
            probe_droop_pct: probe.deepest_droop_pct,
            worst_case_margin_pct: worst_case,
            sheddable_margin_pct: (SHIPPED_MARGIN_PCT - worst_case).max(0.0),
        }
    }
}

/// Summary statistics of a per-chip quantity across the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDistribution {
    /// Smallest value.
    pub min: f64,
    /// Median (lower-median for even counts).
    pub p50: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest value.
    pub max: f64,
}

impl FleetDistribution {
    /// Computes the distribution over `values` (empty → all zeros).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0.0,
                p50: 0.0,
                mean: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN distribution values"));
        Self {
            min: sorted[0],
            p50: sorted[(sorted.len() - 1) / 2],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max: sorted[sorted.len() - 1],
        }
    }
}

/// The final artifact of a fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Total runs executed.
    pub total_runs: usize,
    /// Per-chip results, in chip order.
    pub chips: Vec<ChipReport>,
    /// Distribution of sheddable margin across the fleet.
    pub sheddable: FleetDistribution,
}

impl FleetReport {
    /// Assembles the report (chips sorted by id, distribution derived).
    pub fn new(seed: u64, total_runs: usize, mut chips: Vec<ChipReport>) -> Self {
        chips.sort_by(|a, b| a.id.cmp(&b.id));
        let sheddable: Vec<f64> = chips.iter().map(|c| c.sheddable_margin_pct).collect();
        Self {
            seed,
            total_runs,
            sheddable: FleetDistribution::of(&sheddable),
            chips,
        }
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet sweep: seed {} · {} chips · {} runs · shipped margin {:.1}%",
            self.seed,
            self.chips.len(),
            self.total_runs,
            SHIPPED_MARGIN_PCT
        );
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>6} {:>8} {:>6} {:>8} {:>10} {:>9} {:>9} {:>9}",
            "chip",
            "node",
            "decap",
            "op",
            "runs",
            "droops",
            "rate/kcyc",
            "worst%",
            "wc-margin",
            "sheddable"
        );
        for c in &self.chips {
            let _ = writeln!(
                out,
                "{:<8} {:>4}n {:>5}% {:>8} {:>6} {:>8} {:>10.4} {:>9.3} {:>9.3} {:>9.3}",
                c.id,
                c.node_nm,
                c.decap_pct,
                c.op_name,
                c.runs,
                c.droops,
                c.droop_rate_per_kcycle,
                c.worst_observed_droop_pct,
                c.worst_case_margin_pct,
                c.sheddable_margin_pct
            );
        }
        let _ = writeln!(
            out,
            "sheddable margin: min {:.3}% · p50 {:.3}% · mean {:.3}% · max {:.3}%",
            self.sheddable.min, self.sheddable.p50, self.sheddable.mean, self.sheddable.max
        );
        out
    }

    /// Serializes the `vsmooth-fleet-v1` JSON artifact. Fixed-precision
    /// formatting keeps the bytes deterministic for a given report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{REPORT_SCHEMA}\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"total_runs\": {},", self.total_runs);
        let _ = writeln!(out, "  \"shipped_margin_pct\": {SHIPPED_MARGIN_PCT:.1},");
        out.push_str("  \"chips\": [\n");
        let n = self.chips.len();
        for (i, c) in self.chips.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": \"{}\", \"node_nm\": {}, \"decap_pct\": {}, \"op\": \"{}\", \
                 \"guard_pct\": {:.4}, \"runs\": {}, \"cycles\": {}, \"droops\": {}, \
                 \"droop_rate_per_kcycle\": {:.4}, \"worst_observed_droop_pct\": {:.4}, \
                 \"probe_droop_pct\": {:.4}, \"worst_case_margin_pct\": {:.4}, \
                 \"sheddable_margin_pct\": {:.4}}}{comma}",
                json::escape(&c.id),
                c.node_nm,
                c.decap_pct,
                json::escape(&c.op_name),
                c.guard_pct,
                c.runs,
                c.cycles,
                c.droops,
                c.droop_rate_per_kcycle,
                c.worst_observed_droop_pct,
                c.probe_droop_pct,
                c.worst_case_margin_pct,
                c.sheddable_margin_pct
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"sheddable_margin_pct\": {{\"min\": {:.4}, \"p50\": {:.4}, \"mean\": {:.4}, \"max\": {:.4}}}",
            self.sheddable.min, self.sheddable.p50, self.sheddable.mean, self.sheddable.max
        );
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip(id: &str, sheddable_from_wc: f64) -> ChipReport {
        ChipReport {
            id: id.to_string(),
            node_nm: 45,
            decap_pct: 100,
            op_name: "nominal".to_string(),
            guard_pct: 1.0,
            runs: 2,
            cycles: 8000,
            droops: 4,
            droop_rate_per_kcycle: 0.5,
            worst_observed_droop_pct: 3.0,
            probe_droop_pct: sheddable_from_wc - 1.0,
            worst_case_margin_pct: sheddable_from_wc,
            sheddable_margin_pct: (SHIPPED_MARGIN_PCT - sheddable_from_wc).max(0.0),
        }
    }

    #[test]
    fn distribution_handles_odd_even_and_empty() {
        let d = FleetDistribution::of(&[3.0, 1.0, 2.0]);
        assert_eq!((d.min, d.p50, d.max), (1.0, 2.0, 3.0));
        assert!((d.mean - 2.0).abs() < 1e-12);
        let d = FleetDistribution::of(&[4.0, 1.0]);
        assert_eq!(d.p50, 1.0);
        let d = FleetDistribution::of(&[]);
        assert_eq!(d.mean, 0.0);
    }

    #[test]
    fn report_sorts_chips_and_is_deterministic() {
        let rep = FleetReport::new(9, 4, vec![chip("chip01", 9.0), chip("chip00", 7.0)]);
        assert_eq!(rep.chips[0].id, "chip00");
        assert!(rep.to_json().contains("\"schema\": \"vsmooth-fleet-v1\""));
        assert!(rep.render().contains("sheddable margin"));
        let again = FleetReport::new(9, 4, vec![chip("chip00", 7.0), chip("chip01", 9.0)]);
        assert_eq!(rep.to_json(), again.to_json());
        assert_eq!(rep.render(), again.render());
    }

    #[test]
    fn hostile_ids_and_op_names_stay_valid_json() {
        let mut c = chip("chip\"00\\", 7.0);
        c.op_name = "turbo\n\"x\"".to_string();
        let rep = FleetReport::new(9, 2, vec![c]);
        let doc = vsmooth_trace::parse_json(&rep.to_json()).expect("valid JSON");
        let row = &doc.get("chips").and_then(|c| c.as_array()).unwrap()[0];
        assert_eq!(row.get("id").and_then(|v| v.as_str()), Some("chip\"00\\"));
        assert_eq!(row.get("op").and_then(|v| v.as_str()), Some("turbo\n\"x\""));
    }
}

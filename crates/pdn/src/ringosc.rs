//! Ring-oscillator frequency-vs-voltage model (Fig. 2).
//!
//! Footnote 2 of the paper: Fig. 2 is "based on detailed circuit-level
//! simulations of an 11-stage ring oscillator that consists of
//! fanout-of-4 inverters from PTM technology nodes". We model the
//! inverter with the standard alpha-power law: the drive current scales
//! as `(V − Vth)^α` and the swing as `V`, so
//!
//! ```text
//! f(V) ∝ (V − Vth)^α / V
//! ```
//!
//! which captures the key effect the figure illustrates: the same
//! *percentage* margin costs more frequency at lower-voltage nodes
//! because the overdrive `V − Vth` shrinks faster than `V`.

use crate::technode::TechNode;

/// Alpha-power-law ring-oscillator model for one technology node.
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::{RingOscillator, TechNode};
///
/// let ro = RingOscillator::for_node(TechNode::N45);
/// // A 20% voltage margin costs roughly a quarter of peak frequency.
/// let pct = ro.peak_frequency_pct(20.0);
/// assert!(pct < 80.0 && pct > 65.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingOscillator {
    /// Number of inverter stages (11 in the paper's simulations).
    pub stages: u32,
    /// Nominal supply voltage in volts.
    pub vdd: f64,
    /// Threshold voltage in volts.
    pub vth: f64,
    /// Velocity-saturation exponent (α ≈ 1.3 for modern short-channel
    /// devices).
    pub alpha: f64,
}

impl RingOscillator {
    /// The PTM-like model for a given node. Threshold voltage scales
    /// down slowly relative to Vdd, which is what makes low-voltage
    /// nodes increasingly margin-sensitive.
    pub fn for_node(node: TechNode) -> Self {
        let vth = match node {
            TechNode::N45 => 0.40,
            TechNode::N32 => 0.37,
            TechNode::N22 => 0.34,
            TechNode::N16 => 0.31,
            TechNode::N11 => 0.29,
        };
        Self {
            stages: 11,
            vdd: node.vdd(),
            vth,
            alpha: 1.3,
        }
    }

    /// Oscillation frequency (arbitrary units) at supply `v`.
    ///
    /// Returns `0.0` at or below threshold (the oscillator stalls).
    pub fn frequency(&self, v: f64) -> f64 {
        if v <= self.vth {
            return 0.0;
        }
        (v - self.vth).powf(self.alpha) / (v * self.stages as f64)
    }

    /// Peak frequency as a percentage of the zero-margin frequency when
    /// operating `margin_pct` percent below nominal supply.
    ///
    /// This is the y-axis of Fig. 2.
    pub fn peak_frequency_pct(&self, margin_pct: f64) -> f64 {
        let v = self.vdd * (1.0 - margin_pct / 100.0);
        100.0 * self.frequency(v) / self.frequency(self.vdd)
    }
}

/// One series of Fig. 2: frequency retention across a margin sweep for a
/// node.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginFrequencySeries {
    /// Technology node.
    pub node: TechNode,
    /// `(margin %, peak frequency %)` points.
    pub points: Vec<(f64, f64)>,
}

/// Reproduces Fig. 2 for the four plotted nodes (45/32/22/16 nm) over
/// margins 0–50 %.
pub fn margin_frequency_sweep() -> Vec<MarginFrequencySeries> {
    [TechNode::N45, TechNode::N32, TechNode::N22, TechNode::N16]
        .into_iter()
        .map(|node| {
            let ro = RingOscillator::for_node(node);
            let points = (0..=50)
                .map(|m| {
                    let m = f64::from(m);
                    (m, ro.peak_frequency_pct(m))
                })
                .collect();
            MarginFrequencySeries { node, points }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_is_zero_at_threshold() {
        let ro = RingOscillator::for_node(TechNode::N45);
        assert_eq!(ro.frequency(ro.vth), 0.0);
        assert_eq!(ro.frequency(0.0), 0.0);
    }

    #[test]
    fn twenty_percent_margin_costs_about_a_quarter_at_45nm() {
        // The paper: "a 20% voltage margin in today's 45nm node
        // translates to ~25% loss in peak clock frequency".
        let ro = RingOscillator::for_node(TechNode::N45);
        let loss = 100.0 - ro.peak_frequency_pct(20.0);
        assert!(
            (18.0..32.0).contains(&loss),
            "loss at 20% margin = {loss:.1}%"
        );
    }

    #[test]
    fn doubled_margin_at_16nm_costs_over_half() {
        // "A doubling in voltage swing by 16nm implies more than 50%
        // loss in peak clock frequency."
        let ro = RingOscillator::for_node(TechNode::N16);
        let loss = 100.0 - ro.peak_frequency_pct(40.0);
        assert!(loss > 50.0, "loss at 40% margin on 16nm = {loss:.1}%");
    }

    #[test]
    fn lower_nodes_are_more_margin_sensitive() {
        // At any fixed margin, a smaller node retains less frequency.
        for m in [10.0, 20.0, 30.0] {
            let mut prev = f64::NEG_INFINITY;
            for node in [TechNode::N16, TechNode::N22, TechNode::N32, TechNode::N45] {
                let pct = RingOscillator::for_node(node).peak_frequency_pct(m);
                assert!(pct > prev, "{node} at {m}%: {pct}");
                prev = pct;
            }
        }
    }

    #[test]
    fn sweep_covers_four_nodes_and_full_margin_range() {
        let s = margin_frequency_sweep();
        assert_eq!(s.len(), 4);
        for series in &s {
            assert_eq!(series.points.len(), 51);
            assert!((series.points[0].1 - 100.0).abs() < 1e-9);
            // Monotone decreasing in margin.
            for w in series.points.windows(2) {
                assert!(w[1].1 <= w[0].1);
            }
        }
    }
}

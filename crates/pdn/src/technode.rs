//! Technology-node voltage-noise projection (Fig. 1).
//!
//! Footnote 1 of the paper: "Based on simulations of a Pentium 4 power
//! delivery package, assuming Vdd gradually scales according to ITRS
//! projections from 1V in 45nm to 0.6V in 11nm. To study package
//! response, current stimulus goes from 50A-100A in 45nm. Subsequent
//! stimuli in newer generations is inversely proportional to Vdd for the
//! same power budget."

use crate::ladder::LadderConfig;
use crate::transient::{simulate_current_waveform, CORE2_CLOCK_HZ};
use crate::PdnError;
use std::fmt;

/// A CMOS process technology node with its ITRS-projected supply voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechNode {
    /// 45 nm, Vdd = 1.0 V (the paper's "today").
    N45,
    /// 32 nm, Vdd = 0.9 V.
    N32,
    /// 22 nm, Vdd = 0.8 V.
    N22,
    /// 16 nm, Vdd = 0.7 V.
    N16,
    /// 11 nm, Vdd = 0.6 V.
    N11,
}

impl TechNode {
    /// All nodes in scaling order, 45 nm first.
    pub const ALL: [TechNode; 5] = [Self::N45, Self::N32, Self::N22, Self::N16, Self::N11];

    /// Feature size in nanometres.
    pub fn nanometers(self) -> u32 {
        match self {
            Self::N45 => 45,
            Self::N32 => 32,
            Self::N22 => 22,
            Self::N16 => 16,
            Self::N11 => 11,
        }
    }

    /// ITRS-projected supply voltage in volts.
    pub fn vdd(self) -> f64 {
        match self {
            Self::N45 => 1.0,
            Self::N32 => 0.9,
            Self::N22 => 0.8,
            Self::N16 => 0.7,
            Self::N11 => 0.6,
        }
    }

    /// Current-step amplitude for the package-response study: 50 A at
    /// 45 nm, growing inversely with Vdd for a constant power budget.
    pub(crate) fn current_step(self) -> f64 {
        50.0 * TechNode::N45.vdd() / self.vdd()
    }

    /// Analytic projected peak-to-peak swing relative to the 45 nm node,
    /// both normalized to their supply voltage.
    ///
    /// For a fixed (linear) package impedance `Z`, a constant power
    /// budget makes the stimulus `ΔI ∝ 1/Vdd`, so the *fractional* swing
    /// `Z·ΔI/Vdd` scales as `1/Vdd²` — doubling by 16 nm, which is the
    /// trend Fig. 1 plots.
    pub(crate) fn projected_relative_swing(self) -> f64 {
        let r = TechNode::N45.vdd() / self.vdd();
        r * r
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.nanometers())
    }
}

/// One point of the Fig. 1 projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSwing {
    /// Technology node.
    pub node: TechNode,
    /// Peak-to-peak swing relative to the 45 nm node (normalized to Vdd),
    /// obtained by transient simulation of the Pentium 4-like package.
    pub simulated: f64,
    /// The closed-form projection for comparison.
    pub projected: f64,
}

/// Reproduces Fig. 1 by simulating the Pentium 4-like package response
/// to each node's current step and normalizing swings to Vdd and to the
/// 45 nm result.
///
/// # Errors
///
/// Propagates PDN simulation errors.
pub fn node_swing_projection() -> Result<Vec<NodeSwing>, PdnError> {
    let dt = 1.0 / CORE2_CLOCK_HZ;
    let mut rows = Vec::with_capacity(TechNode::ALL.len());
    let mut base: Option<f64> = None;
    for node in TechNode::ALL {
        let cfg = LadderConfig::pentium4_package(node.vdd());
        // Step from a 50A-equivalent baseline up by the node's stimulus.
        let lo = node.current_step();
        let hi = 2.0 * node.current_step();
        let mut wave = vec![lo; 2_000];
        wave.extend(vec![hi; 60_000]);
        let res = simulate_current_waveform(&cfg, &wave, dt)?;
        let frac_swing = res.peak_to_peak() / node.vdd();
        let b = *base.get_or_insert(frac_swing);
        rows.push(NodeSwing {
            node,
            simulated: frac_swing / b,
            projected: node.projected_relative_swing(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdd_scales_down_with_node() {
        for w in TechNode::ALL.windows(2) {
            assert!(w[0].vdd() > w[1].vdd());
            assert!(w[0].current_step() < w[1].current_step());
        }
    }

    #[test]
    fn projected_swing_doubles_by_16nm() {
        // The headline claim under Fig. 1.
        let s = TechNode::N16.projected_relative_swing();
        assert!((1.9..2.2).contains(&s), "16nm relative swing = {s:.2}");
    }

    #[test]
    fn projection_reaches_nearly_3x_at_11nm() {
        let s = TechNode::N11.projected_relative_swing();
        assert!((2.5..3.0).contains(&s), "11nm relative swing = {s:.2}");
    }

    #[test]
    fn simulation_matches_analytic_projection() {
        let rows = node_swing_projection().unwrap();
        assert_eq!(rows.len(), 5);
        assert!((rows[0].simulated - 1.0).abs() < 1e-9);
        for r in rows {
            // LTI package => the simulation reproduces the 1/Vdd² law.
            assert!(
                (r.simulated - r.projected).abs() < 0.05 * r.projected,
                "{}: simulated={:.3} projected={:.3}",
                r.node,
                r.simulated,
                r.projected
            );
        }
    }

    #[test]
    fn display_formats_as_nanometers() {
        assert_eq!(TechNode::N45.to_string(), "45nm");
        assert_eq!(TechNode::N11.to_string(), "11nm");
    }
}

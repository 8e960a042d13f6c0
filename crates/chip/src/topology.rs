//! Split versus connected core supplies.
//!
//! Footnote 3 of the paper: "designers of the IBM POWER6 processor
//! tested split- versus connected-core supplies and found that voltage
//! swings are much larger when the cores operate independently" (and
//! Kim et al. show per-core on-chip regulators "can in fact worsen
//! voltage noise"). This module reproduces that comparison: the same
//! workload on one shared rail versus two private rails, each private
//! rail owning half of the delivery network.

use crate::chip::{Chip, ChipConfig};
use crate::ChipError;
use vsmooth_pdn::{LadderConfig, LadderStage};
use vsmooth_uarch::{Microbenchmark, StallEvent, StimulusSource};

/// Result of the split-vs-connected supply comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyComparison {
    /// The stimulated event on every core.
    pub event: StallEvent,
    /// Chip-wide peak-to-peak swing with the shared rail, percent.
    pub connected_swing_pct: f64,
    /// Per-rail peak-to-peak swing with private rails, percent.
    pub split_swing_pct: f64,
}

impl SupplyComparison {
    /// How much worse the split design swings (> 1 reproduces the
    /// POWER6 observation).
    pub fn split_penalty(&self) -> f64 {
        self.split_swing_pct / self.connected_swing_pct
    }
}

/// The delivery network one core owns when the rail is split: half the
/// capacitance of every bank, and double the series impedance (half the
/// pins, vias and regulator phases).
fn split_rail(pdn: &LadderConfig) -> Result<LadderConfig, ChipError> {
    let stages: Vec<LadderStage> = pdn
        .stages()
        .iter()
        .map(|s| LadderStage {
            series_r: s.series_r * 2.0,
            series_l: s.series_l * 2.0,
            shunt_c: s.shunt_c / 2.0,
            shunt_esr: s.shunt_esr * 2.0,
        })
        .collect();
    Ok(LadderConfig::new(
        format!("{}/split", pdn.name()),
        stages,
        pdn.nominal_voltage(),
    )?)
}

/// Measures the same per-core workload (the event's microbenchmark on
/// every core) under both supply topologies.
///
/// # Errors
///
/// Requires a two-core configuration; propagates chip errors.
pub fn split_vs_connected(
    cfg: &ChipConfig,
    event: StallEvent,
    cycles: u64,
) -> Result<SupplyComparison, ChipError> {
    if cfg.num_cores != 2 {
        return Err(ChipError::InvalidConfig(
            "split-supply study expects two cores",
        ));
    }
    // Connected: both cores on the shared rail.
    let connected = {
        let mut chip = Chip::new(cfg.clone())?;
        let mut m0 = Microbenchmark::new(event, 301);
        let mut m1 = Microbenchmark::new(event, 302);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut m0, &mut m1];
        chip.run(&mut sources, cycles, cycles)?.peak_to_peak_pct()
    };
    // Split: one core on a private rail with half the network (the
    // other rail is symmetric, so one measurement suffices).
    let split = {
        let mut rail_cfg = cfg.clone();
        rail_cfg.pdn = split_rail(&cfg.pdn)?;
        rail_cfg.num_cores = 1;
        let mut chip = Chip::new(rail_cfg)?;
        let mut m0 = Microbenchmark::new(event, 301);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut m0];
        chip.run(&mut sources, cycles, cycles)?.peak_to_peak_pct()
    };
    Ok(SupplyComparison {
        event,
        connected_swing_pct: connected,
        split_swing_pct: split,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;

    #[test]
    fn split_supplies_swing_more_than_connected() {
        // The POWER6 observation: independent rails lose the averaging
        // benefit of the shared grid and each sees a weaker network.
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        for event in [StallEvent::BranchMispredict, StallEvent::Exception] {
            let c = split_vs_connected(&cfg, event, 120_000).unwrap();
            assert!(
                c.split_penalty() > 1.0,
                "{event}: split {:.2}% vs connected {:.2}%",
                c.split_swing_pct,
                c.connected_swing_pct
            );
        }
    }

    #[test]
    fn split_rail_preserves_dc_behaviour() {
        // Halving C and doubling R per rail keeps the *per-core* DC
        // operating point identical: half the current through twice the
        // resistance.
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let rail = split_rail(&cfg.pdn).unwrap();
        assert!(
            (rail.total_series_resistance() - 2.0 * cfg.pdn.total_series_resistance()).abs()
                < 1e-12
        );
    }

    #[test]
    fn requires_two_cores() {
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.num_cores = 1;
        assert!(split_vs_connected(&cfg, StallEvent::L1Miss, 1_000).is_err());
    }
}

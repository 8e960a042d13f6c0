//! Worst-case-margin determination (Sec. II-C).
//!
//! The paper undervolts the processor while stress-testing it with
//! multiple copies of a power virus until it fails, finding a ~14 %
//! worst-case margin on the Core 2 Duo. In simulation the equivalent
//! is direct: run the dI/dt power virus on every core and measure the
//! deepest droop the package can produce — the margin must cover it.

use vsmooth_chip::{ChipError, ChipSource};
use vsmooth_uarch::{SquareWave, StimulusSource};

/// Result of the worst-case margin search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseMargin {
    /// Deepest droop produced by the power virus, percent of nominal.
    pub deepest_droop_pct: f64,
    /// The resulting worst-case operating margin (droop plus a small
    /// sensor/aging guard), percent of nominal.
    pub margin_pct: f64,
}

/// Virus pumping periods swept during margining. The stock package
/// resonates near 120 MHz (16 cycles); decap-removed packages resonate
/// lower (tens of MHz), and the board/bulk bands lower still.
const VIRUS_PERIODS: [u32; 6] = [8, 16, 32, 64, 104, 416];

/// Measures the worst-case margin by stressing every core with
/// resonance-pumping power viruses across a sweep of pumping periods,
/// mirroring the paper's undervolt-until-failure procedure: a supply
/// undervolted by more than the deepest virus droop fails, so the
/// margin is that depth plus a small sensor/aging guard.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn measure_worst_case_margin(
    cfg: &impl ChipSource,
    cycles: u64,
) -> Result<WorstCaseMargin, ChipError> {
    let mut deepest: f64 = 0.0;
    for period in VIRUS_PERIODS {
        let mut chip = cfg.build_chip()?;
        let mut viruses: Vec<SquareWave> = (0..cfg.chip_config().num_cores)
            .map(|_| SquareWave::power_virus_with_period(period))
            .collect();
        let mut sources: Vec<&mut dyn StimulusSource> = viruses
            .iter_mut()
            .map(|v| v as &mut dyn StimulusSource)
            .collect();
        let stats = chip.run(&mut sources, cycles, cycles)?;
        deepest = deepest.max(stats.max_droop_pct());
    }
    // One extra point of guardband for sensor error and aging, as
    // production margining does.
    Ok(WorstCaseMargin {
        deepest_droop_pct: deepest,
        margin_pct: deepest + 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::ChipConfig;
    use vsmooth_pdn::DecapConfig;

    #[test]
    fn core2_worst_case_margin_is_near_fourteen_percent() {
        // Sec. II-C finds ~14% on the real part by undervolting to
        // failure. That slack also absorbs thermal and process corners,
        // which this model does not simulate; the voltage-noise share
        // alone lands near 8-10%, so accept the 7-15% band here (the
        // analysis pipeline still uses the part's shipped 14% margin).
        let cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        let wc = measure_worst_case_margin(&cfg, 150_000).unwrap();
        assert!(
            (7.0..15.0).contains(&wc.margin_pct),
            "worst-case margin = {:.1}% (expected 7-15%)",
            wc.margin_pct
        );
    }

    #[test]
    fn less_package_capacitance_needs_bigger_margins() {
        let full =
            measure_worst_case_margin(&ChipConfig::core2_duo(DecapConfig::proc100()), 80_000)
                .unwrap();
        let cut = measure_worst_case_margin(&ChipConfig::core2_duo(DecapConfig::proc3()), 80_000)
            .unwrap();
        assert!(
            cut.deepest_droop_pct > full.deepest_droop_pct,
            "Proc3 {:.1}% should exceed Proc100 {:.1}%",
            cut.deepest_droop_pct,
            full.deepest_droop_pct
        );
    }
}

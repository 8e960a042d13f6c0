//! Package decoupling-capacitor configurations.
//!
//! Sec. II-B of the paper creates five additional "processors" by
//! physically breaking capacitors off the land side of a Core 2 Duo
//! package (Fig. 5): Proc100 (all caps), Proc75, Proc50, Proc25, Proc3
//! and Proc0. The land-side bank mixes 22 µF, 2.2 µF and 1 µF parts
//! (Fig. 5g); removal takes half of each kind at a time.

use std::fmt;

/// A package-decap retention level, identified the way the paper names
/// its altered processors (`Proc100` … `Proc0`).
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::DecapConfig;
///
/// let p25 = DecapConfig::proc25();
/// assert_eq!(p25.percent_retained(), 25);
/// assert!(p25.fraction_retained() > 0.2 && p25.fraction_retained() < 0.3);
/// assert!(DecapConfig::proc0().fraction_retained() > 0.0); // clamped, see docs
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecapConfig {
    percent: u8,
}

impl DecapConfig {
    /// Total land-side package capacitance when fully populated, in
    /// farads (≈ 200 µF for the Fig. 5g inventory).
    pub(crate) const TOTAL_PACKAGE_CAPACITANCE: f64 = 22.0e-6 * 8.0 + 2.2e-6 * 8.0 + 1.0e-6 * 6.0;

    /// Retains `percent` (0–100) of every capacitor kind, mirroring the
    /// paper's "remove half of each kind" methodology.
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    pub fn with_percent(percent: u8) -> Self {
        assert!(percent <= 100, "cannot retain more than 100% of capacitors");
        Self { percent }
    }

    /// All original capacitors in place (today's production system).
    pub fn proc100() -> Self {
        Self::with_percent(100)
    }

    /// 75 % of package capacitance retained.
    pub fn proc75() -> Self {
        Self::with_percent(75)
    }

    /// 50 % retained.
    pub fn proc50() -> Self {
        Self::with_percent(50)
    }

    /// 25 % retained — used throughout the paper as the nearer future
    /// node.
    pub fn proc25() -> Self {
        Self::with_percent(25)
    }

    /// 3 % retained — the paper's far-future node (Sec. IV uses it for
    /// all scheduling results).
    pub fn proc3() -> Self {
        Self::with_percent(3)
    }

    /// All package capacitors removed. The physical Proc0 failed
    /// stability testing (it cannot boot); the model clamps the retained
    /// fraction to 0.1 % so the network stays well-posed while producing
    /// the same multi-cycle deep droop.
    pub fn proc0() -> Self {
        Self::with_percent(0)
    }

    /// The paper's five decap-removal steps plus the unmodified package,
    /// in decreasing capacitance order (Fig. 5/6 sweep).
    pub fn sweep() -> Vec<Self> {
        vec![
            Self::proc100(),
            Self::proc75(),
            Self::proc50(),
            Self::proc25(),
            Self::proc3(),
            Self::proc0(),
        ]
    }

    /// Nominal retained percentage (the number in the `ProcN` name).
    pub fn percent_retained(&self) -> u8 {
        self.percent
    }

    /// Fraction of total package capacitance retained, clamped to at
    /// least 0.1 % so downstream electrical models remain well-posed.
    pub fn fraction_retained(&self) -> f64 {
        (f64::from(self.percent) / 100.0).max(0.001)
    }
}

impl Default for DecapConfig {
    fn default() -> Self {
        Self::proc100()
    }
}

impl fmt::Display for DecapConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proc{}", self.percent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotonically_decreasing() {
        let sweep = DecapConfig::sweep();
        assert_eq!(sweep.len(), 6);
        for w in sweep.windows(2) {
            assert!(
                w[0].fraction_retained() > w[1].fraction_retained() || w[1].percent_retained() == 0
            );
        }
    }

    #[test]
    fn proc0_is_clamped_but_empty() {
        let c = DecapConfig::proc0();
        assert_eq!(c.percent_retained(), 0);
        assert!(c.fraction_retained() > 0.0);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(DecapConfig::proc3().to_string(), "Proc3");
        assert_eq!(DecapConfig::proc100().to_string(), "Proc100");
    }

    #[test]
    #[should_panic(expected = "more than 100%")]
    fn over_100_percent_panics() {
        DecapConfig::with_percent(101);
    }
}

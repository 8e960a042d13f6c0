//! Simulation fidelity presets.
//!
//! The paper's measurement interval is 60 wall-clock seconds (~10¹¹
//! cycles) — far beyond what a cycle-level simulation should spend per
//! interval. One interval maps to a configurable number of simulated
//! cycles; the statistics of interest (droop rates, stall ratios,
//! sample distributions) converge well below a million cycles.

/// How many cycles to simulate per measurement interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Fast unit-test fidelity (20 k cycles/interval).
    Test,
    /// Benchmark-harness fidelity (120 k cycles/interval) — the default
    /// for regenerating the paper's figures.
    #[default]
    Bench,
    /// High fidelity (1 M cycles/interval) for final numbers.
    Full,
    /// Explicit cycle count per interval.
    Custom(u64),
}

impl Fidelity {
    /// Simulated cycles per measurement interval.
    pub fn cycles_per_interval(self) -> u64 {
        match self {
            Self::Test => 20_000,
            Self::Bench => 120_000,
            Self::Full => 1_000_000,
            Self::Custom(n) => n.max(1),
        }
    }

    /// Validates the fidelity before a run: `Custom(0)` asks for
    /// zero-cycle intervals, which would make every per-interval rate
    /// a division by zero.
    ///
    /// # Errors
    ///
    /// [`ChipError::InvalidConfig`](crate::ChipError::InvalidConfig)
    /// for `Custom(0)`.
    pub fn validate(self) -> Result<(), crate::ChipError> {
        match self {
            Self::Custom(0) => Err(crate::ChipError::InvalidConfig(
                "custom fidelity must be at least one cycle per interval",
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        assert!(Fidelity::Test.cycles_per_interval() < Fidelity::Bench.cycles_per_interval());
        assert!(Fidelity::Bench.cycles_per_interval() < Fidelity::Full.cycles_per_interval());
    }

    #[test]
    fn custom_is_clamped_to_one() {
        // The accessor itself stays total (the clamp keeps direct
        // callers safe); runs reject Custom(0) via validate() instead.
        assert_eq!(Fidelity::Custom(0).cycles_per_interval(), 1);
        assert_eq!(Fidelity::Custom(777).cycles_per_interval(), 777);
    }

    #[test]
    fn zero_custom_fidelity_fails_validation() {
        assert!(matches!(
            Fidelity::Custom(0).validate(),
            Err(crate::ChipError::InvalidConfig(_))
        ));
        assert!(Fidelity::Custom(1).validate().is_ok());
        assert!(Fidelity::Test.validate().is_ok());
        assert!(Fidelity::Bench.validate().is_ok());
        assert!(Fidelity::Full.validate().is_ok());
    }
}

//! Batched chip construction.
//!
//! Building a [`Chip`] from a [`ChipConfig`] is not free: the ladder's
//! continuous state-space must be assembled, bilinearly discretized at
//! the clock rate (a matrix inversion), and solved for the regulated
//! idle operating point. A measurement campaign builds thousands of
//! chips from the *same* configuration, so a [`ChipBatch`] performs
//! that setup once and stamps out ready-to-run chips by cloning the
//! settled template — byte-for-byte the chip [`Chip::new`] would have
//! produced, at a fraction of the cost.

use crate::chip::{Chip, ChipConfig};
use crate::ChipError;

/// A reusable chip template: one-time PDN setup, many cheap builds.
///
/// # Examples
///
/// ```
/// use vsmooth_chip::{ChipBatch, ChipConfig};
/// use vsmooth_pdn::DecapConfig;
///
/// let batch = ChipBatch::new(ChipConfig::core2_duo(DecapConfig::proc100()))?;
/// let chips: Vec<_> = (0..3).map(|_| batch.build()).collect();
/// assert!(chips.iter().all(|chip| chip.config() == batch.config()));
/// # Ok::<(), vsmooth_chip::ChipError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChipBatch {
    template: Chip,
}

impl ChipBatch {
    /// Runs the full [`Chip::new`] setup once and keeps the result as
    /// the stamping template.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::new`].
    pub fn new(cfg: ChipConfig) -> Result<Self, ChipError> {
        Ok(Self {
            template: Chip::new(cfg)?,
        })
    }

    /// The configuration every built chip shares.
    pub fn config(&self) -> &ChipConfig {
        self.template.config()
    }

    /// Stamps out one fresh chip at the settled idle operating point.
    pub fn build(&self) -> Chip {
        self.template.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_uarch::{SquareWave, StimulusSource};

    #[test]
    fn batched_chips_behave_like_fresh_ones() {
        let cfg = ChipConfig::core2_duo(DecapConfig::proc25());
        let batch = ChipBatch::new(cfg.clone()).unwrap();
        let run = |mut chip: Chip| {
            let mut v0 = SquareWave::power_virus();
            let mut v1 = SquareWave::power_virus();
            let mut s: Vec<&mut dyn StimulusSource> = vec![&mut v0, &mut v1];
            chip.run(&mut s, 30_000, 10_000).unwrap()
        };
        let fresh = run(Chip::new(cfg).unwrap());
        let stamped = run(batch.build());
        assert_eq!(fresh, stamped);
    }

    #[test]
    fn invalid_config_is_rejected_at_batch_creation() {
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.num_cores = 0;
        assert!(ChipBatch::new(cfg).is_err());
    }
}

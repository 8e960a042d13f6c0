//! Online (non-oracle) noise-aware scheduling — the extension the
//! paper's Sec. IV-A motivates but does not evaluate.
//!
//! "Such a high correlation between coarse-grained performance counter
//! data … and very fine-grained voltage noise measurements implies that
//! high-latency software solutions are applicable to voltage noise."
//! The estimator below is that software: it predicts a pair's droop
//! rate from nothing but its performance-counter stall ratio, then
//! drives the Droop policy from predictions instead of oracle
//! measurements.

use crate::batch::{greedy_batch, schedule_batch, BatchSchedule};
use crate::oracle::PairOracle;
use crate::policy::Policy;
use vsmooth_stats::{linear_fit, pearson, LinearFit};

/// A droop-rate predictor trained on performance-counter data only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallRatioPredictor {
    fit: LinearFit,
    correlation: f64,
}

impl StallRatioPredictor {
    /// Fits droops-per-kilocycle against the chip stall ratio across
    /// every pair in the oracle. Returns `None` if the oracle is too
    /// small or degenerate for a fit.
    pub fn train(oracle: &PairOracle) -> Option<Self> {
        let mut stalls = Vec::new();
        let mut droops = Vec::new();
        for i in 0..oracle.len() {
            for j in 0..oracle.len() {
                stalls.push(oracle.stats(i, j).stall_ratio());
                droops.push(oracle.droops(i, j));
            }
        }
        let fit = linear_fit(&stalls, &droops)?;
        Some(Self {
            fit,
            correlation: pearson(&stalls, &droops),
        })
    }

    /// Predicted droops per kilocycle at a given stall ratio.
    pub fn predict(&self, stall_ratio: f64) -> f64 {
        self.fit.predict(stall_ratio).max(0.0)
    }

    /// The training correlation (the paper reports 0.97 on single-core
    /// data; pair data is noisier).
    pub fn correlation(&self) -> f64 {
        self.correlation
    }
}

/// Result of comparing oracle-driven and counter-driven Droop
/// scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineComparison {
    /// Batch built from true droop measurements.
    pub oracle_batch: BatchSchedule,
    /// Batch built from stall-ratio predictions only.
    pub online_batch: BatchSchedule,
    /// Extra normalized droops the online policy admits over the oracle
    /// (0 = as good as the oracle).
    pub regret: f64,
}

/// Builds a Droop batch using only counter-predicted droop rates, and
/// compares it against the oracle-driven batch.
///
/// Returns `None` when the predictor cannot be trained.
pub fn compare_online_scheduling(oracle: &PairOracle) -> Option<OnlineComparison> {
    let predictor = StallRatioPredictor::train(oracle)?;
    // The oracle's greedy Droop batch, ranked by predicted droops
    // instead of measured ones.
    let online_batch = greedy_batch(oracle, Policy::Droop, |i, j| {
        -predictor.predict(oracle.stats(i, j).stall_ratio())
    });
    let oracle_batch = schedule_batch(oracle, Policy::Droop);
    let regret = online_batch.normalized_droops - oracle_batch.normalized_droops;
    Some(OnlineComparison {
        oracle_batch,
        online_batch,
        regret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::{ChipConfig, Fidelity};
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::spec2006;

    fn oracle() -> PairOracle {
        let chip = ChipConfig::core2_duo(DecapConfig::proc100());
        let pool: Vec<_> = spec2006().into_iter().take(4).collect();
        PairOracle::measure(&chip, Fidelity::Custom(1_000), &pool, 4).unwrap()
    }

    #[test]
    fn predictor_trains_and_predicts_nonnegative() {
        let o = oracle();
        let p = StallRatioPredictor::train(&o).unwrap();
        assert!(p.predict(0.0) >= 0.0);
        assert!(p.predict(0.9) >= 0.0);
        assert!(p.correlation().abs() <= 1.0);
    }

    #[test]
    fn online_scheduling_is_close_to_oracle() {
        let o = oracle();
        let cmp = compare_online_scheduling(&o).unwrap();
        assert_eq!(
            cmp.online_batch.pairs.len(),
            crate::batch::BATCH_COMBINATIONS
        );
        // The counter-driven scheduler should not be wildly worse than
        // the oracle (the whole premise of a software-visible proxy).
        assert!(
            cmp.regret < 0.5,
            "online regret {:.3} (oracle {:.3}, online {:.3})",
            cmp.regret,
            cmp.oracle_batch.normalized_droops,
            cmp.online_batch.normalized_droops
        );
    }
}

//! Oracle pair tables (Sec. IV-C).
//!
//! "The scheduling experiment is oracle-based, requiring knowledge of
//! all runs a priori. During a pre-run phase we gather all the data
//! necessary across 29×29 CPU2006 program combinations. For Droop, we
//! continue using the hypothetical 2.3% voltage margin, tracking the
//! number of emergency recoveries that occur during execution. For IPC,
//! we use VTune's ratio feature."

use crate::SchedError;
use vsmooth_chip::{fan_out, run_pair, ChipConfig, Fidelity, RunStats, PHASE_MARGIN_PCT};
use vsmooth_workload::{spec2006, Workload};

/// Measured statistics for every ordered pair of a benchmark list.
///
/// Index `(i, j)` is the run with program `i` on core 0 and program `j`
/// on core 1; the diagonal is SPECrate (a program co-scheduled with
/// itself).
#[derive(Debug, Clone, PartialEq)]
pub struct PairOracle {
    names: Vec<String>,
    /// Row-major `n × n` per-pair statistics.
    stats: Vec<RunStats>,
}

impl PairOracle {
    /// Measures the full pair matrix for `workloads` on `threads` OS
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error.
    pub fn measure(
        chip: &ChipConfig,
        fidelity: Fidelity,
        workloads: &[Workload],
        threads: usize,
    ) -> Result<Self, SchedError> {
        let n = workloads.len();
        if n == 0 {
            return Err(SchedError::EmptyPool);
        }
        let names: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
        let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        let stats = fan_out(pairs, threads, |(i, j)| {
            run_pair(chip, &workloads[i], &workloads[j], fidelity).map_err(|e| {
                SchedError::Measurement {
                    pair: format!("{}+{}", workloads[i].name(), workloads[j].name()),
                    source: e,
                }
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { names, stats })
    }

    /// Measures the full 29 × 29 SPEC CPU2006 matrix.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error.
    pub fn measure_cpu2006(
        chip: &ChipConfig,
        fidelity: Fidelity,
        threads: usize,
    ) -> Result<Self, SchedError> {
        Self::measure(chip, fidelity, &spec2006(), threads)
    }

    /// Builds the oracle from an already-measured campaign, reusing its
    /// pair runs instead of re-simulating 29 × 29 pairs.
    ///
    /// Returns `None` if the campaign does not contain a complete pair
    /// matrix for `names`.
    pub fn from_campaign(
        campaign: &vsmooth_resilience::CampaignResult,
        names: &[String],
    ) -> Option<Self> {
        let n = names.len();
        let mut stats = Vec::with_capacity(n * n);
        for a in names {
            for b in names {
                let id = vsmooth_resilience::RunId::Pair(a.clone(), b.clone());
                stats.push(campaign.get(&id)?.clone());
            }
        }
        Some(Self {
            names: names.to_vec(),
            stats,
        })
    }

    /// The benchmark names, in matrix order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the oracle is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Full statistics for pair `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn stats(&self, i: usize, j: usize) -> &RunStats {
        let n = self.names.len();
        assert!(i < n && j < n, "pair index out of range");
        &self.stats[i * n + j]
    }

    /// Droop events per kilocycle at the characterization margin for
    /// pair `(i, j)` — the Droop policy's oracle metric.
    pub fn droops(&self, i: usize, j: usize) -> f64 {
        self.stats(i, j).droops_per_kilocycle(PHASE_MARGIN_PCT)
    }

    /// Chip IPC for pair `(i, j)` — the IPC policy's oracle metric.
    pub fn ipc(&self, i: usize, j: usize) -> f64 {
        self.stats(i, j).ipc()
    }

    /// SPECrate droop rate for program `i` (the diagonal).
    pub(crate) fn specrate_droops(&self, i: usize) -> f64 {
        self.droops(i, i)
    }

    /// SPECrate IPC for program `i`.
    pub(crate) fn specrate_ipc(&self, i: usize) -> f64 {
        self.ipc(i, i)
    }

    /// Droop rate of pair `(i, j)` normalized to the mean of the two
    /// programs' SPECrate droop rates (the Fig. 18 normalization, which
    /// "removes any inherent … differences between benchmarks").
    pub fn normalized_droops(&self, i: usize, j: usize) -> f64 {
        let base = 0.5 * (self.specrate_droops(i) + self.specrate_droops(j));
        if base > 0.0 {
            self.droops(i, j) / base
        } else {
            1.0
        }
    }

    /// IPC of pair `(i, j)` normalized to the mean of the two programs'
    /// SPECrate IPCs.
    pub fn normalized_ipc(&self, i: usize, j: usize) -> f64 {
        let base = 0.5 * (self.specrate_ipc(i) + self.specrate_ipc(j));
        if base > 0.0 {
            self.ipc(i, j) / base
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;

    fn small_oracle() -> PairOracle {
        let chip = ChipConfig::core2_duo(DecapConfig::proc100());
        let pool: Vec<Workload> = spec2006().into_iter().take(3).collect();
        PairOracle::measure(&chip, Fidelity::Custom(800), &pool, 4).unwrap()
    }

    #[test]
    fn oracle_matrix_is_complete() {
        let o = small_oracle();
        assert_eq!(o.len(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert!(o.ipc(i, j) > 0.0, "pair ({i},{j}) has no IPC");
                assert!(o.stats(i, j).cycles > 0);
            }
        }
    }

    #[test]
    fn normalization_is_unity_on_the_diagonal() {
        let o = small_oracle();
        for i in 0..o.len() {
            assert!((o.normalized_ipc(i, i) - 1.0).abs() < 1e-9);
            let nd = o.normalized_droops(i, i);
            assert!((nd - 1.0).abs() < 1e-9 || nd == 1.0);
        }
    }

    #[test]
    fn empty_pool_is_rejected() {
        let chip = ChipConfig::core2_duo(DecapConfig::proc100());
        assert!(matches!(
            PairOracle::measure(&chip, Fidelity::Test, &[], 1),
            Err(SchedError::EmptyPool)
        ));
    }
}

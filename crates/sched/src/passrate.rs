//! Schedule pass-rate analysis (Tab. I and Fig. 19).
//!
//! A schedule "passes" when its modelled performance improvement at the
//! suite-wide optimal margin meets the expected improvement for that
//! recovery cost. As recovery costs grow, fewer SPECrate schedules pass
//! (Tab. I); a noise-aware thread scheduler recovers many of them
//! (Fig. 19).

use crate::oracle::PairOracle;
use crate::policy::Policy;
use vsmooth_chip::RunStats;
use vsmooth_resilience::model::{margin_sweeps, performance_improvement};

/// Tolerance on "meeting" the expected improvement: the expectation is
/// a suite average, so a schedule within 3 % of it has met the design
/// target for practical purposes.
pub(crate) const PASS_TOLERANCE: f64 = 0.97;

/// One row of Tab. I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecrateRow {
    /// Recovery cost in cycles.
    pub recovery_cost: u64,
    /// Optimal margin (percent) for this cost across the reference runs.
    pub optimal_margin_pct: f64,
    /// Expected (mean) fractional improvement at that margin.
    pub expected_improvement: f64,
    /// Number of SPECrate schedules that meet the expectation.
    pub passing: usize,
}

/// The Tab. I analysis: optimal margins and expected improvements from
/// a reference run set (the paper uses all 881 workloads), then the
/// count of SPECrate schedules that meet each expectation.
pub fn specrate_analysis(
    reference: &[&RunStats],
    oracle: &PairOracle,
    costs: &[u64],
) -> Vec<SpecrateRow> {
    let sweeps = margin_sweeps(reference, costs);
    sweeps
        .iter()
        .map(|sweep| {
            let (margin, expected) = sweep.optimal();
            let passing = (0..oracle.len())
                .filter(|&i| passes(oracle.stats(i, i), margin, sweep.recovery_cost, expected))
                .count();
            SpecrateRow {
                recovery_cost: sweep.recovery_cost,
                optimal_margin_pct: margin,
                expected_improvement: expected,
                passing,
            }
        })
        .collect()
}

/// Whether one run meets the expected improvement at `(margin, cost)`.
pub(crate) fn passes(stats: &RunStats, margin_pct: f64, cost: u64, expected: f64) -> bool {
    performance_improvement(stats, margin_pct, cost) >= PASS_TOLERANCE * expected
}

/// One point of Fig. 19: pass counts with policy-driven partner
/// selection instead of SPECrate self-pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledPassRow {
    /// Recovery cost in cycles.
    pub recovery_cost: u64,
    /// SPECrate baseline passes (Tab. I).
    pub specrate_passing: usize,
    /// Passes when each program runs with its policy-chosen partner.
    pub scheduled_passing: usize,
    /// Percent increase over the SPECrate baseline.
    pub increase_pct: f64,
}

/// For every benchmark, the partner the policy would co-schedule it
/// with (the best-scoring partner).
pub(crate) fn best_partners(oracle: &PairOracle, policy: Policy) -> Vec<usize> {
    (0..oracle.len())
        .map(|i| {
            (0..oracle.len())
                .max_by(|&a, &b| {
                    policy
                        .score(oracle, i, a)
                        .partial_cmp(&policy.score(oracle, i, b))
                        .expect("finite scores")
                })
                .expect("non-empty oracle")
        })
        .collect()
}

/// Reproduces Fig. 19 for one policy: pass counts across recovery costs
/// when each benchmark is co-scheduled with its policy-chosen partner.
pub fn scheduled_pass_counts(
    reference: &[&RunStats],
    oracle: &PairOracle,
    costs: &[u64],
    policy: Policy,
) -> Vec<ScheduledPassRow> {
    let base = specrate_analysis(reference, oracle, costs);
    let partners = best_partners(oracle, policy);
    base.into_iter()
        .map(|row| {
            let scheduled = (0..oracle.len())
                .filter(|&i| {
                    passes(
                        oracle.stats(i, partners[i]),
                        row.optimal_margin_pct,
                        row.recovery_cost,
                        row.expected_improvement,
                    )
                })
                .count();
            let increase = if row.passing > 0 {
                100.0 * (scheduled as f64 - row.passing as f64) / row.passing as f64
            } else if scheduled > 0 {
                100.0
            } else {
                0.0
            };
            ScheduledPassRow {
                recovery_cost: row.recovery_cost,
                specrate_passing: row.passing,
                scheduled_passing: scheduled,
                increase_pct: increase,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::{ChipConfig, Fidelity};
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::spec2006;

    fn oracle() -> PairOracle {
        // Proc3, like all of the paper's Sec. IV results.
        let chip = ChipConfig::core2_duo(DecapConfig::proc3());
        let pool: Vec<_> = spec2006().into_iter().take(4).collect();
        PairOracle::measure(&chip, Fidelity::Custom(800), &pool, 4).unwrap()
    }

    #[test]
    fn specrate_rows_cover_all_costs() {
        let o = oracle();
        let o_ref = &o;
        let refs: Vec<&RunStats> = (0..o.len())
            .flat_map(|i| (0..o_ref.len()).map(move |j| o_ref.stats(i, j)))
            .collect();
        let rows = specrate_analysis(&refs, &o, &[1, 1_000, 100_000]);
        assert_eq!(rows.len(), 3);
        // Optimal margins relax (grow) with recovery cost.
        for w in rows.windows(2) {
            assert!(w[1].optimal_margin_pct >= w[0].optimal_margin_pct - 1e-9);
            assert!(w[1].expected_improvement <= w[0].expected_improvement + 1e-9);
        }
        // Cheap recovery: nearly everything passes.
        assert!(
            rows[0].passing >= o.len() - 1,
            "passing = {}",
            rows[0].passing
        );
    }

    #[test]
    fn best_partners_are_valid_indices() {
        let o = oracle();
        for policy in [Policy::Droop, Policy::Ipc] {
            let p = best_partners(&o, policy);
            assert_eq!(p.len(), o.len());
            assert!(p.iter().all(|&j| j < o.len()));
        }
    }

    #[test]
    fn droop_partnering_never_reduces_pass_counts_much() {
        let o = oracle();
        let o_ref = &o;
        let refs: Vec<&RunStats> = (0..o.len())
            .flat_map(|i| (0..o_ref.len()).map(move |j| o_ref.stats(i, j)))
            .collect();
        let rows = scheduled_pass_counts(&refs, &o, &[1_000, 100_000], Policy::Droop);
        for r in rows {
            // Droop picks the quietest partner, so pass counts should be
            // at least close to the SPECrate baseline.
            assert!(
                r.scheduled_passing + 1 >= r.specrate_passing,
                "cost {}: scheduled {} vs specrate {}",
                r.recovery_cost,
                r.scheduled_passing,
                r.specrate_passing
            );
        }
    }
}

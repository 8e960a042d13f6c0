//! The typical-case design performance model (Sec. III-B).
//!
//! "For a given voltage margin, every emergency triggers a recovery,
//! which has some penalty in processor clock cycles. … These cycles are
//! then added to the actual number of program runtime cycles. … While
//! allowing emergencies penalizes performance to some extent, utilizing
//! an aggressive voltage margin boosts processor clock frequency.
//! Bowman et al. show that an improvement in operating voltage margin
//! by 10% of the nominal voltage translates to a 15% improvement in
//! clock frequency. We assume this 1.5× scaling factor."

use vsmooth_chip::RunStats;

/// Bowman et al. margin-to-frequency scaling: each percentage point of
/// margin removed buys 1.5 points of clock frequency.
pub(crate) const BOWMAN_SCALING: f64 = 1.5;

/// The Core 2 Duo's measured worst-case operating voltage margin
/// (Sec. II-C: "approximately 14% below the nominal supply voltage").
pub const WORST_CASE_MARGIN_PCT: f64 = 14.0;

/// The recovery-cost ladder studied throughout the paper (Fig. 8,
/// Fig. 10, Tab. I, Fig. 19): Razor-like (1), DeCoR-like (10),
/// checkpoint-prediction (100), and production checkpointing schemes
/// (1 000 – 100 000 cycles).
pub const RECOVERY_COSTS: [u64; 6] = [1, 10, 100, 1_000, 10_000, 100_000];

/// Relative clock-frequency gain from tightening the margin from the
/// worst case down to `margin_pct` (e.g. `0.15` for a 10-point cut).
///
/// # Examples
///
/// ```
/// use vsmooth_resilience::model::frequency_gain;
///
/// assert!((frequency_gain(4.0) - 0.15).abs() < 1e-12); // 14% -> 4%
/// assert_eq!(frequency_gain(14.0), 0.0);
/// ```
pub fn frequency_gain(margin_pct: f64) -> f64 {
    BOWMAN_SCALING * (WORST_CASE_MARGIN_PCT - margin_pct).max(0.0) / 100.0
}

/// Net performance improvement (fractional; 0.15 = 15 %) of running
/// with an aggressive margin and paying `recovery_cost` cycles per
/// emergency, relative to the conservative worst-case design.
///
/// Negative values are the paper's "dead zone": recovery penalties
/// exceed the frequency gains and the resilient design loses to the
/// baseline.
pub fn performance_improvement(stats: &RunStats, margin_pct: f64, recovery_cost: u64) -> f64 {
    if stats.cycles == 0 {
        return 0.0;
    }
    let emergencies = stats.emergencies(margin_pct);
    let overhead = (recovery_cost as f64 * emergencies as f64) / stats.cycles as f64;
    (1.0 + frequency_gain(margin_pct)) / (1.0 + overhead) - 1.0
}

/// The margin grid used for sweeps: 1 % to 14 % in quarter-point steps.
pub(crate) fn margin_grid() -> Vec<f64> {
    (4..=56).map(|q| q as f64 * 0.25).collect()
}

/// One `(margin, improvement)` series for a fixed recovery cost —
/// a line of Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginSweep {
    /// Recovery cost in cycles.
    pub recovery_cost: u64,
    /// `(margin %, mean fractional improvement)` points, ascending in
    /// margin.
    pub points: Vec<(f64, f64)>,
}

impl MarginSweep {
    /// The optimal (margin, improvement) — the single peak the paper
    /// requires for a one-design-fits-all margin setting.
    pub fn optimal(&self) -> (f64, f64) {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite improvements"))
            .unwrap_or((WORST_CASE_MARGIN_PCT, 0.0))
    }

    /// Margins whose mean improvement is negative (the "dead zone").
    pub fn dead_zone(&self) -> Vec<f64> {
        self.points
            .iter()
            .filter(|(_, imp)| *imp < 0.0)
            .map(|(m, _)| *m)
            .collect()
    }
}

/// Sweeps mean performance improvement across the margin grid for each
/// recovery cost, averaging over a set of measured runs (Fig. 8 uses
/// all 881).
pub fn margin_sweeps(runs: &[&RunStats], costs: &[u64]) -> Vec<MarginSweep> {
    let grid = margin_grid();
    costs
        .iter()
        .map(|&cost| {
            let points = grid
                .iter()
                .map(|&m| {
                    let mean = if runs.is_empty() {
                        0.0
                    } else {
                        runs.iter()
                            .map(|r| performance_improvement(r, m, cost))
                            .sum::<f64>()
                            / runs.len() as f64
                    };
                    (m, mean)
                })
                .collect();
            MarginSweep {
                recovery_cost: cost,
                points,
            }
        })
        .collect()
}

/// A Fig. 10 heatmap: improvement over (recovery cost × margin).
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementHeatmap {
    /// Recovery costs (row labels).
    pub costs: Vec<u64>,
    /// Margins in percent (column labels).
    pub margins: Vec<f64>,
    /// `cells[row][col]` = mean fractional improvement.
    pub cells: Vec<Vec<f64>>,
}

impl ImprovementHeatmap {
    /// Builds the heatmap from measured runs.
    pub fn compute(runs: &[&RunStats], costs: &[u64]) -> Self {
        let sweeps = margin_sweeps(runs, costs);
        let margins = margin_grid();
        let cells = sweeps
            .iter()
            .map(|s| s.points.iter().map(|&(_, imp)| imp).collect())
            .collect();
        Self {
            costs: costs.to_vec(),
            margins,
            cells,
        }
    }

    /// Total positive-improvement area (used to compare how the "pocket
    /// of improvement" shrinks from Proc100 to Proc3).
    pub fn positive_fraction(&self) -> f64 {
        let total: usize = self.cells.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let pos = self.cells.iter().flatten().filter(|&&v| v > 0.0).count();
        pos as f64 / total as f64
    }

    /// The best improvement anywhere in the map.
    pub fn max_improvement(&self) -> f64 {
        self.cells
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::sense::{CrossingGrid, VoltageSensor};

    /// A synthetic run: `n` droop events of the given depth across a
    /// fixed cycle count.
    fn synthetic_run(cycles: u64, droops: &[(f64, u64)]) -> RunStats {
        let mut sensor = VoltageSensor::new(1.0);
        let mut grid = CrossingGrid::droop_grid();
        sensor.record(1.0);
        for &(depth, n) in droops {
            for _ in 0..n {
                grid.observe(-depth);
                grid.observe(0.0);
                sensor.record(1.0 - depth / 100.0);
            }
        }
        RunStats {
            cycles,
            sensor,
            droops: grid,
            overshoots: CrossingGrid::overshoot_grid(),
            droops_per_interval: vec![],
            core_counters: vec![],
        }
    }

    #[test]
    fn frequency_gain_matches_bowman() {
        assert!((frequency_gain(4.0) - 0.15).abs() < 1e-12);
        assert!((frequency_gain(9.0) - 0.075).abs() < 1e-12);
        // No extra credit for margins beyond the worst case.
        assert_eq!(frequency_gain(20.0), 0.0);
    }

    #[test]
    fn no_emergencies_gives_pure_frequency_gain() {
        let run = synthetic_run(1_000_000, &[]);
        let imp = performance_improvement(&run, 4.0, 1_000);
        assert!((imp - 0.15).abs() < 1e-12);
    }

    #[test]
    fn recovery_overhead_reduces_improvement() {
        let run = synthetic_run(1_000_000, &[(5.0, 1_000)]);
        let cheap = performance_improvement(&run, 4.0, 1);
        let pricey = performance_improvement(&run, 4.0, 1_000);
        assert!(cheap > pricey);
        // 1000 emergencies x 1000 cycles on 1M cycles: overhead 1.0 =>
        // improvement collapses into the dead zone.
        assert!(pricey < 0.0, "pricey = {pricey}");
    }

    #[test]
    fn optimal_margin_is_interior_for_moderate_costs() {
        // Droops get exponentially rarer with depth, like real noise.
        let run = synthetic_run(
            10_000_000,
            &[
                (2.0, 100_000),
                (3.0, 10_000),
                (4.0, 1_000),
                (5.0, 100),
                (7.0, 10),
                (9.0, 1),
            ],
        );
        let sweeps = margin_sweeps(&[&run], &[1_000]);
        let (m, imp) = sweeps[0].optimal();
        assert!(m > 1.0 && m < WORST_CASE_MARGIN_PCT, "optimal margin {m}");
        assert!(imp > 0.0);
    }

    #[test]
    fn finer_recovery_allows_tighter_optimal_margins() {
        // Fig. 8: "Coarser-grained recovery mechanisms have more relaxed
        // optimal margins while finer-grained schemes have more
        // aggressive margins".
        let run = synthetic_run(
            10_000_000,
            &[
                (2.0, 200_000),
                (3.0, 40_000),
                (4.0, 8_000),
                (5.0, 1_600),
                (6.0, 320),
                (8.0, 32),
            ],
        );
        let sweeps = margin_sweeps(&[&run], &RECOVERY_COSTS);
        let optima: Vec<f64> = sweeps.iter().map(|s| s.optimal().0).collect();
        for w in optima.windows(2) {
            assert!(
                w[1] >= w[0],
                "optimal margins should relax with cost: {optima:?}"
            );
        }
        // And improvements shrink with cost.
        let imps: Vec<f64> = sweeps.iter().map(|s| s.optimal().1).collect();
        for w in imps.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "improvements should fall with cost: {imps:?}"
            );
        }
    }

    #[test]
    fn heatmap_dimensions_and_bounds() {
        let run = synthetic_run(1_000_000, &[(2.0, 1_000)]);
        let h = ImprovementHeatmap::compute(&[&run], &RECOVERY_COSTS);
        assert_eq!(h.cells.len(), RECOVERY_COSTS.len());
        assert_eq!(h.cells[0].len(), margin_grid().len());
        assert!(h.positive_fraction() > 0.0 && h.positive_fraction() <= 1.0);
        assert!(h.max_improvement() <= BOWMAN_SCALING * WORST_CASE_MARGIN_PCT / 100.0);
    }

    #[test]
    fn empty_run_set_is_safe() {
        let sweeps = margin_sweeps(&[], &[1]);
        assert!(sweeps[0].points.iter().all(|&(_, imp)| imp == 0.0));
    }
}

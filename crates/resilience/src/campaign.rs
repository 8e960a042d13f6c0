//! The 881-run measurement campaign (Sec. III-A).
//!
//! "The experiments include a spectrum of workload characteristics: 29
//! single-threaded SPEC CPU2006 workloads, 11 Parsec programs and
//! 29×29 multi-program workload combinations from CPU2006."
//! (29 + 11 + 841 = 881 runs.)
//!
//! Runs are independent, so the campaign fans out over OS threads and
//! merges results in deterministic order.

use crate::CampaignError;
use serde::{Deserialize, Serialize};
use std::fmt;
use vsmooth_chip::{fan_out, run_pair, run_workload, ChipBatch, ChipConfig, Fidelity, RunStats};
use vsmooth_workload::{parsec, spec2006, Workload};

/// Identifies one campaign run.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RunId {
    /// A single-threaded CPU2006 run (other core idles).
    Single(String),
    /// A multi-threaded PARSEC run (all cores busy).
    Multi(String),
    /// A multi-program pair: `.0` on core 0, `.1` on core 1.
    Pair(String, String),
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Single(n) => write!(f, "{n}"),
            Self::Multi(n) => write!(f, "{n} (MT)"),
            Self::Pair(a, b) => write!(f, "{a}+{b}"),
        }
    }
}

enum RunSpec {
    Single(Workload),
    Multi(Workload),
    Pair(Workload, Workload),
}

impl RunSpec {
    fn id(&self) -> RunId {
        match self {
            Self::Single(w) => RunId::Single(w.name().to_string()),
            Self::Multi(w) => RunId::Multi(w.name().to_string()),
            Self::Pair(a, b) => RunId::Pair(a.name().to_string(), b.name().to_string()),
        }
    }
}

/// A campaign specification: which runs to measure, on what chip, at
/// what fidelity.
pub struct CampaignSpec {
    chip: ChipConfig,
    fidelity: Fidelity,
    specs: Vec<RunSpec>,
}

impl CampaignSpec {
    /// The paper's full 881-run campaign: 29 singles, 11 multi-threaded,
    /// and the exhaustive 29 × 29 pairing sweep.
    pub fn full(chip: ChipConfig, fidelity: Fidelity) -> Self {
        let singles = spec2006();
        let mut specs: Vec<RunSpec> = Vec::with_capacity(881);
        specs.extend(singles.iter().cloned().map(RunSpec::Single));
        specs.extend(parsec().into_iter().map(RunSpec::Multi));
        for a in &singles {
            for b in &singles {
                specs.push(RunSpec::Pair(a.clone(), b.clone()));
            }
        }
        Self {
            chip,
            fidelity,
            specs,
        }
    }

    /// A reduced campaign over the first `n` CPU2006 benchmarks
    /// (n singles + n² pairs + up to `n` PARSEC programs) — same shape,
    /// test-sized.
    pub fn reduced(chip: ChipConfig, fidelity: Fidelity, n: usize) -> Self {
        let singles: Vec<Workload> = spec2006().into_iter().take(n).collect();
        let mut specs: Vec<RunSpec> = Vec::new();
        specs.extend(singles.iter().cloned().map(RunSpec::Single));
        specs.extend(parsec().into_iter().take(n).map(RunSpec::Multi));
        for a in &singles {
            for b in &singles {
                specs.push(RunSpec::Pair(a.clone(), b.clone()));
            }
        }
        Self {
            chip,
            fidelity,
            specs,
        }
    }

    /// The 29 SPECrate schedules: every benchmark paired with itself
    /// (the baseline of Sec. IV and Tab. I).
    pub fn specrate(chip: ChipConfig, fidelity: Fidelity) -> Self {
        let specs = spec2006()
            .into_iter()
            .map(|w| RunSpec::Pair(w.clone(), w))
            .collect();
        Self {
            chip,
            fidelity,
            specs,
        }
    }

    /// Only the 29 single-threaded runs (Figs. 14, 15).
    pub fn singles(chip: ChipConfig, fidelity: Fidelity) -> Self {
        let specs = spec2006().into_iter().map(RunSpec::Single).collect();
        Self {
            chip,
            fidelity,
            specs,
        }
    }

    /// Number of runs in the campaign.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the campaign is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Executes every run, fanning out over `threads` OS threads, and
    /// returns the runs in specification order.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptySpec`] for a campaign with no runs, else
    /// the first simulation error in specification order.
    pub fn run(self, threads: usize) -> Result<CampaignResult, CampaignError> {
        if self.specs.is_empty() {
            return Err(CampaignError::EmptySpec);
        }
        // One-time ladder/uarch setup shared by every run: workers stamp
        // chips from the batch instead of re-discretizing the PDN per run.
        let chip = &ChipBatch::new(self.chip).map_err(|e| CampaignError::Run {
            id: "chip batch setup".to_string(),
            source: e,
        })?;
        let fidelity = self.fidelity;
        let runs = fan_out(self.specs, threads, |spec| {
            let id = spec.id();
            let stats = match &spec {
                RunSpec::Single(w) | RunSpec::Multi(w) => run_workload(chip, w, fidelity),
                RunSpec::Pair(a, b) => run_pair(chip, a, b, fidelity),
            };
            match stats {
                Ok(stats) => Ok(CampaignRun { id, stats }),
                Err(source) => Err(CampaignError::Run {
                    id: id.to_string(),
                    source,
                }),
            }
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        Ok(CampaignResult { runs })
    }
}

/// One completed campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRun {
    /// Which run this is.
    pub id: RunId,
    /// Its measured statistics.
    pub stats: RunStats,
}

/// All completed runs of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    runs: Vec<CampaignRun>,
}

impl CampaignResult {
    /// The runs in deterministic (specification) order.
    pub fn runs(&self) -> &[CampaignRun] {
        &self.runs
    }

    /// Borrowed stats of every run (the shape the model sweeps expect).
    pub fn all_stats(&self) -> Vec<&RunStats> {
        self.runs.iter().map(|r| &r.stats).collect()
    }

    /// Looks up one run by id.
    pub fn get(&self, id: &RunId) -> Option<&RunStats> {
        self.runs.iter().find(|r| &r.id == id).map(|r| &r.stats)
    }

    /// Pools the voltage samples and droop events of every run into a
    /// single aggregate (used for the Fig. 7 all-runs distribution).
    ///
    /// Returns `None` for an empty campaign.
    pub fn pooled(&self) -> Option<RunStats> {
        let mut iter = self.runs.iter();
        let mut pooled = iter.next()?.stats.clone();
        for run in iter {
            pooled.merge_samples(&run.stats);
        }
        Some(pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;

    fn chip() -> ChipConfig {
        ChipConfig::core2_duo(DecapConfig::proc100())
    }

    #[test]
    fn full_campaign_has_881_runs() {
        let spec = CampaignSpec::full(chip(), Fidelity::Test);
        assert_eq!(spec.len(), 29 + 11 + 29 * 29);
        assert_eq!(spec.len(), 881);
    }

    #[test]
    fn specrate_campaign_pairs_each_benchmark_with_itself() {
        let spec = CampaignSpec::specrate(chip(), Fidelity::Test);
        assert_eq!(spec.len(), 29);
    }

    #[test]
    fn empty_campaign_is_a_typed_error() {
        let spec = CampaignSpec::reduced(chip(), Fidelity::Custom(500), 0);
        assert!(spec.is_empty());
        assert!(matches!(spec.run(2), Err(CampaignError::EmptySpec)));
    }

    #[test]
    fn reduced_campaign_runs_in_parallel_and_orders_results() {
        let spec = CampaignSpec::reduced(chip(), Fidelity::Custom(500), 3);
        let expected = spec.len();
        let result = spec.run(4).unwrap();
        assert_eq!(result.runs().len(), expected);
        // First three are singles in catalog order.
        assert!(matches!(&result.runs()[0].id, RunId::Single(n) if n == "473.astar"));
        assert!(matches!(&result.runs()[3].id, RunId::Multi(_)));
        // Pools combine every run's cycles.
        let pooled = result.pooled().unwrap();
        assert!(pooled.cycles > result.runs()[0].stats.cycles);
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let serial = CampaignSpec::reduced(chip(), Fidelity::Custom(400), 2)
            .run(1)
            .unwrap();
        let parallel = CampaignSpec::reduced(chip(), Fidelity::Custom(400), 2)
            .run(4)
            .unwrap();
        assert_eq!(serial.runs().len(), parallel.runs().len());
        for (a, b) in serial.runs().iter().zip(parallel.runs()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(
                a.stats.emergencies(2.3),
                b.stats.emergencies(2.3),
                "non-deterministic run {:?}",
                a.id
            );
        }
    }

    #[test]
    fn get_finds_runs_by_id() {
        let result = CampaignSpec::reduced(chip(), Fidelity::Custom(300), 2)
            .run(2)
            .unwrap();
        let id = RunId::Pair("473.astar".into(), "410.bwaves".into());
        assert!(result.get(&id).is_some());
        assert!(result.get(&RunId::Single("nope".into())).is_none());
    }
}

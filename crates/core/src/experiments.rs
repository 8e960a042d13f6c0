//! One runner per paper figure/table.
//!
//! The [`Lab`] owns the expensive shared measurements (the 881-run
//! campaigns on Proc100/Proc25/Proc3 and the 29 × 29 pair oracle) and
//! lazily computes them once; each `figNN`/`tabNN` method then derives
//! its figure's data. See `DESIGN.md` for the per-experiment index.

use serde::{Deserialize, Serialize};
use vsmooth_chip::{ChipConfig, Fidelity, RunStats, PHASE_MARGIN_PCT};
use vsmooth_pdn::DecapConfig;
use vsmooth_resilience::{CampaignResult, CampaignSpec, ImprovementHeatmap, MarginSweep, RunId};
use vsmooth_sched::{PairOracle, Policy};
use vsmooth_stats::{pearson, BoxplotStats, Cdf};
use vsmooth_workload::spec2006;

use crate::VsmoothError;

/// Scale and fidelity knobs for the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Cycles simulated per measurement interval.
    pub fidelity: Fidelity,
    /// OS threads for campaign fan-out.
    pub threads: usize,
    /// How many CPU2006 benchmarks to include (`None` = all 29; the
    /// campaign cost grows quadratically with this).
    pub benchmarks: Option<usize>,
    /// Number of random batch schedules for Fig. 18.
    pub random_batches: usize,
}

impl ExperimentConfig {
    /// Fast configuration for tests and smoke runs (≈ seconds).
    pub fn quick() -> Self {
        Self {
            fidelity: Fidelity::Custom(4_000),
            threads: default_threads(),
            benchmarks: Some(6),
            random_batches: 20,
        }
    }

    /// The configuration used by the benchmark harness: the full
    /// 881-run campaign at moderate fidelity (≈ minutes).
    pub fn bench() -> Self {
        Self {
            fidelity: Fidelity::Custom(30_000),
            threads: default_threads(),
            benchmarks: None,
            random_batches: 100,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Lazily-computed shared measurements plus the per-figure runners.
#[derive(Debug)]
pub struct Lab {
    cfg: ExperimentConfig,
    /// Every campaign measured so far, keyed by its decap configuration,
    /// in the order first asked for.
    campaigns: Vec<(DecapConfig, CampaignResult)>,
    oracle: Option<PairOracle>,
}

impl Lab {
    /// Creates a lab with nothing measured yet.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Self {
            cfg,
            campaigns: Vec::new(),
            oracle: None,
        }
    }

    /// The lab's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The benchmark names in play.
    pub fn benchmark_names(&self) -> Vec<String> {
        let all = spec2006();
        let n = self.cfg.benchmarks.unwrap_or(all.len()).min(all.len());
        all.iter().take(n).map(|w| w.name().to_string()).collect()
    }

    fn chip(&self, decap: DecapConfig) -> ChipConfig {
        ChipConfig::core2_duo(decap)
    }

    /// The (lazily measured) campaign for one decap configuration.
    ///
    /// # Errors
    ///
    /// Propagates campaign simulation errors.
    pub fn campaign(&mut self, decap: DecapConfig) -> Result<&CampaignResult, VsmoothError> {
        let slot = match self.campaigns.iter().position(|(d, _)| *d == decap) {
            Some(slot) => slot,
            None => {
                let chip = self.chip(decap.clone());
                let spec = match self.cfg.benchmarks {
                    Some(n) => CampaignSpec::reduced(chip, self.cfg.fidelity, n),
                    None => CampaignSpec::full(chip, self.cfg.fidelity),
                };
                self.campaigns.push((decap, spec.run(self.cfg.threads)?));
                self.campaigns.len() - 1
            }
        };
        Ok(&self.campaigns[slot].1)
    }

    /// The Proc3 campaign, which [`Lab::oracle`] has already measured.
    fn proc3_campaign(&self) -> &CampaignResult {
        let proc3 = DecapConfig::proc3();
        self.campaigns
            .iter()
            .find_map(|(d, c)| (*d == proc3).then_some(c))
            .expect("oracle construction measured the Proc3 campaign")
    }

    /// The (lazily built) Proc3 pair oracle, reusing the Proc3
    /// campaign's pair runs.
    ///
    /// # Errors
    ///
    /// Propagates campaign simulation errors.
    pub fn oracle(&mut self) -> Result<&PairOracle, VsmoothError> {
        if self.oracle.is_none() {
            let names = self.benchmark_names();
            let campaign = self.campaign(DecapConfig::proc3())?;
            let oracle = PairOracle::from_campaign(campaign, &names)
                .expect("campaign contains the full pair matrix");
            self.oracle = Some(oracle);
        }
        Ok(self.oracle.as_ref().expect("just inserted"))
    }

    // ------------------------------------------------------------------
    // Figures that need no campaign.
    // ------------------------------------------------------------------

    /// Fig. 1: projected voltage swings across technology nodes.
    ///
    /// # Errors
    ///
    /// Propagates PDN errors.
    pub fn fig01(&self) -> Result<Vec<vsmooth_pdn::NodeSwing>, VsmoothError> {
        Ok(vsmooth_pdn::node_swing_projection()?)
    }

    /// Fig. 2: peak frequency vs. margin per node.
    pub fn fig02(&self) -> Vec<vsmooth_pdn::MarginFrequencySeries> {
        vsmooth_pdn::margin_frequency_sweep()
    }

    /// Fig. 4: analytic impedance profiles (default and reduced caps)
    /// plus the software-loop empirical reconstruction.
    ///
    /// # Errors
    ///
    /// Propagates PDN/chip errors.
    pub fn fig04(&self) -> Result<Fig04, VsmoothError> {
        let full = vsmooth_pdn::ImpedanceProfile::compute(
            &vsmooth_pdn::LadderConfig::core2_duo(DecapConfig::proc100()),
            1e5,
            1e9,
            120,
        )?;
        let reduced = vsmooth_pdn::ImpedanceProfile::compute(
            &vsmooth_pdn::LadderConfig::core2_duo(DecapConfig::proc3()),
            1e5,
            1e9,
            120,
        )?;
        let chip = self.chip(DecapConfig::proc100());
        let empirical =
            vsmooth_chip::empirical_impedance(&chip, &[1860, 416, 104, 64, 32, 16, 8, 4])?;
        Ok(Fig04 {
            full,
            reduced,
            empirical,
        })
    }

    /// Fig. 5m–r: reset-response waveforms per decap configuration
    /// (down-sampled to `points` samples per waveform).
    ///
    /// # Errors
    ///
    /// Propagates PDN errors.
    pub fn fig05(&self, points: usize) -> Result<Vec<(DecapConfig, Vec<f64>)>, VsmoothError> {
        DecapConfig::sweep()
            .into_iter()
            .map(|d| {
                let res = vsmooth_pdn::reset_response(d.clone())?;
                let stride = (res.samples.len() / points.max(1)).max(1);
                let wave = res.samples.iter().step_by(stride).copied().collect();
                Ok((d, wave))
            })
            .collect()
    }

    /// Fig. 6: relative peak-to-peak reset swing across the decap sweep.
    ///
    /// # Errors
    ///
    /// Propagates PDN errors.
    pub fn fig06(&self) -> Result<Vec<vsmooth_pdn::DecapSwing>, VsmoothError> {
        Ok(vsmooth_pdn::decap_swing_sweep()?)
    }

    /// Fig. 11: the TLB-miss oscilloscope trace.
    ///
    /// # Errors
    ///
    /// Propagates chip errors.
    pub fn fig11(&self, cycles: u64) -> Result<Vec<f64>, VsmoothError> {
        Ok(vsmooth_chip::tlb_overshoot_trace(
            &self.chip(DecapConfig::proc100()),
            cycles,
        )?)
    }

    /// Fig. 12: single-core event swings relative to idle.
    ///
    /// # Errors
    ///
    /// Propagates chip errors.
    pub fn fig12(&self) -> Result<Vec<vsmooth_chip::EventSwing>, VsmoothError> {
        Ok(vsmooth_chip::single_core_event_swings(
            &self.chip(DecapConfig::proc100()),
        )?)
    }

    /// Fig. 13: the cross-core event interference matrix.
    ///
    /// # Errors
    ///
    /// Propagates chip errors.
    pub fn fig13(&self) -> Result<vsmooth_chip::InterferenceMatrix, VsmoothError> {
        Ok(vsmooth_chip::interference_matrix(
            &self.chip(DecapConfig::proc100()),
        )?)
    }

    /// Fig. 16: the astar × astar sliding-window experiment (on Proc3,
    /// like all of the paper's Sec. IV results).
    ///
    /// # Errors
    ///
    /// Propagates chip errors.
    pub fn fig16(&self) -> Result<vsmooth_sched::SlidingWindow, VsmoothError> {
        let astar = vsmooth_workload::by_name("473.astar").expect("astar in catalog");
        Ok(vsmooth_sched::sliding_window(
            &self.chip(DecapConfig::proc3()),
            &astar,
            &astar,
            self.cfg.fidelity,
        )?)
    }

    // ------------------------------------------------------------------
    // Campaign-backed figures.
    // ------------------------------------------------------------------

    /// Fig. 7: the cumulative voltage-sample distribution across all
    /// campaign runs on Proc100.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig07(&mut self) -> Result<SampleDistribution, VsmoothError> {
        let campaign = self.campaign(DecapConfig::proc100())?;
        Ok(SampleDistribution::from_campaign(
            campaign,
            DecapConfig::proc100(),
        ))
    }

    /// Fig. 8: mean performance improvement vs. margin per recovery
    /// cost on Proc100.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig08(&mut self) -> Result<Vec<MarginSweep>, VsmoothError> {
        let campaign = self.campaign(DecapConfig::proc100())?;
        Ok(vsmooth_resilience::margin_sweeps(
            &campaign.all_stats(),
            &vsmooth_resilience::RECOVERY_COSTS,
        ))
    }

    /// Fig. 9: sample distributions on the future nodes Proc25/Proc3.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig09(&mut self) -> Result<Vec<SampleDistribution>, VsmoothError> {
        let mut out = Vec::with_capacity(2);
        for decap in [DecapConfig::proc25(), DecapConfig::proc3()] {
            let campaign = self.campaign(decap.clone())?;
            out.push(SampleDistribution::from_campaign(campaign, decap));
        }
        Ok(out)
    }

    /// Fig. 10: improvement heatmaps for Proc100/Proc25/Proc3.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig10(&mut self) -> Result<Vec<(DecapConfig, ImprovementHeatmap)>, VsmoothError> {
        let mut out = Vec::with_capacity(3);
        for decap in [
            DecapConfig::proc100(),
            DecapConfig::proc25(),
            DecapConfig::proc3(),
        ] {
            let campaign = self.campaign(decap.clone())?;
            let map = ImprovementHeatmap::compute(
                &campaign.all_stats(),
                &vsmooth_resilience::RECOVERY_COSTS,
            );
            out.push((decap, map));
        }
        Ok(out)
    }

    /// Fig. 14: single-core droop timelines for the three phase
    /// archetypes (sphinx3 flat, gamess stepped, tonto oscillating).
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig14(&mut self) -> Result<Vec<(String, Vec<f64>)>, VsmoothError> {
        let fidelity = self.cfg.fidelity;
        let chip = self.chip(DecapConfig::proc100());
        let campaign = self.campaign(DecapConfig::proc100())?;
        let mut out = Vec::new();
        for name in ["482.sphinx3", "416.gamess", "465.tonto"] {
            // Reduced-scale campaigns may not include these three; they
            // are cheap to measure directly.
            let timeline = match campaign.get(&RunId::Single(name.to_string())) {
                Some(stats) => stats.droops_per_interval.clone(),
                None => {
                    let w = vsmooth_workload::by_name(name).expect("archetype in catalog");
                    vsmooth_chip::run_workload(&chip, &w, fidelity)?.droops_per_interval
                }
            };
            out.push((name.to_string(), timeline));
        }
        Ok(out)
    }

    /// Fig. 15: per-benchmark droop rates and stall ratios, plus their
    /// correlation (the paper reports 0.97).
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig15(&mut self) -> Result<StallCorrelation, VsmoothError> {
        let names = self.benchmark_names();
        let campaign = self.campaign(DecapConfig::proc100())?;
        let mut rows = Vec::new();
        for name in &names {
            if let Some(stats) = campaign.get(&RunId::Single(name.clone())) {
                rows.push(StallRow {
                    benchmark: name.clone(),
                    droops_per_kilocycle: stats.droops_per_kilocycle(PHASE_MARGIN_PCT),
                    stall_ratio: stats.stall_ratio(),
                });
            }
        }
        let d: Vec<f64> = rows.iter().map(|r| r.droops_per_kilocycle).collect();
        let s: Vec<f64> = rows.iter().map(|r| r.stall_ratio).collect();
        let correlation = pearson(&d, &s);
        Ok(StallCorrelation { rows, correlation })
    }

    /// Fig. 17: droop variance of every benchmark across all of its
    /// co-schedules, with single-core and SPECrate markers.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig17(&mut self) -> Result<Vec<DroopVarianceRow>, VsmoothError> {
        let names = self.benchmark_names();
        // Fig. 17 characterizes today's system.
        let campaign = self.campaign(DecapConfig::proc100())?;
        let mut out = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let single = campaign
                .get(&RunId::Single(name.clone()))
                .map(|s| s.droops_per_kilocycle(PHASE_MARGIN_PCT))
                .unwrap_or(0.0);
            let mut coscheduled = Vec::new();
            let mut specrate = 0.0;
            for (j, other) in names.iter().enumerate() {
                if let Some(s) = campaign.get(&RunId::Pair(name.clone(), other.clone())) {
                    let d = s.droops_per_kilocycle(PHASE_MARGIN_PCT);
                    coscheduled.push(d);
                    if i == j {
                        specrate = d;
                    }
                }
            }
            if let Some(boxplot) = BoxplotStats::from_samples(&coscheduled) {
                out.push(DroopVarianceRow {
                    benchmark: name.clone(),
                    boxplot,
                    single_core: single,
                    specrate,
                });
            }
        }
        Ok(out)
    }

    /// Fig. 18: the batch-scheduling policy scatter on Proc3.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig18(&mut self) -> Result<Vec<vsmooth_sched::BatchSchedule>, VsmoothError> {
        let batches = self.cfg.random_batches;
        let oracle = self.oracle()?;
        Ok(vsmooth_sched::policy_scatter(oracle, batches))
    }

    /// Fig. 19: percent increase in passing schedules over SPECrate for
    /// Droop and IPC scheduling, per recovery cost (Proc3).
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn fig19(&mut self) -> Result<Fig19, VsmoothError> {
        self.oracle()?;
        let reference = self.proc3_campaign().all_stats();
        let oracle = self.oracle.as_ref().expect("measured above");
        let droop = vsmooth_sched::scheduled_pass_counts(
            &reference,
            oracle,
            &vsmooth_resilience::RECOVERY_COSTS,
            Policy::Droop,
        );
        let ipc = vsmooth_sched::scheduled_pass_counts(
            &reference,
            oracle,
            &vsmooth_resilience::RECOVERY_COSTS,
            Policy::Ipc,
        );
        Ok(Fig19 { droop, ipc })
    }

    /// Tab. I: SPECrate typical-case analysis at optimal margins
    /// (Proc3).
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn tab01(&mut self) -> Result<Vec<vsmooth_sched::SpecrateRow>, VsmoothError> {
        self.oracle()?;
        let reference = self.proc3_campaign().all_stats();
        let oracle = self.oracle.as_ref().expect("measured above");
        Ok(vsmooth_sched::specrate_analysis(
            &reference,
            oracle,
            &vsmooth_resilience::RECOVERY_COSTS,
        ))
    }

    /// The online-service extension (beyond the paper's offline oracle
    /// study): runs the same synthetic submission stream through
    /// `vsmooth-serve` under each pairing policy — telemetry-driven
    /// Droop and IPC, the random control, and the SPECrate-style
    /// same-workload baseline — and returns one report per policy.
    ///
    /// # Errors
    ///
    /// Propagates service errors.
    pub fn serve_comparison(
        &self,
        seed: u64,
        jobs: usize,
    ) -> Result<Vec<vsmooth_serve::ServiceReport>, VsmoothError> {
        use vsmooth_sched::{OnlineDroop, OnlineIpc, PairPolicy, RandomPairing, SameWorkload};

        let (service, stream) = self.service(seed, jobs, None)?;
        let policies: [&dyn PairPolicy; 4] = [
            &OnlineDroop,
            &OnlineIpc,
            &RandomPairing { seed },
            &SameWorkload,
        ];
        policies
            .iter()
            .map(|p| {
                service
                    .run(&stream, *p, self.cfg.threads)
                    .map_err(VsmoothError::from)
            })
            .collect()
    }

    /// The observed service run behind `repro`'s artifact flags: the
    /// same submission stream as [`Lab::serve_comparison`] under the
    /// online droop policy, recorded into whatever `inst` arms (spans
    /// and droop events, droop attribution, live health monitoring).
    /// With `obs` set, the coordinator also publishes an
    /// [`ObsSnapshot`](vsmooth_obs::ObsSnapshot) into `obs.hub` every
    /// `obs.publish_every` epochs, so an
    /// [`ObsServer`](vsmooth_obs::ObsServer) holding the same hub can
    /// serve its endpoints while jobs execute. Neither changes the
    /// returned report.
    ///
    /// # Errors
    ///
    /// Propagates service errors.
    pub fn serve(
        &self,
        seed: u64,
        jobs: usize,
        obs: Option<vsmooth_obs::ObsConfig>,
        inst: &crate::Instruments,
    ) -> Result<crate::Observed<vsmooth_serve::ServiceReport>, VsmoothError> {
        let (service, stream) = self.service(seed, jobs, obs)?;
        service
            .run_with(&stream, &vsmooth_sched::OnlineDroop, self.cfg.threads, inst)
            .map_err(VsmoothError::from)
    }

    /// The service and submission stream every `serve*` runner shares.
    fn service(
        &self,
        seed: u64,
        jobs: usize,
        obs: Option<vsmooth_obs::ObsConfig>,
    ) -> Result<(vsmooth_serve::Service, Vec<vsmooth_serve::JobSpec>), VsmoothError> {
        use vsmooth_serve::{synthetic_jobs, Service, ServiceConfig};

        // A quantum well below the figure-regeneration interval keeps
        // the service re-pairing often enough for telemetry to matter.
        let slice = (self.cfg.fidelity.cycles_per_interval() / 8).clamp(500, 4_000);
        let mut cfg = ServiceConfig::new(self.chip(DecapConfig::proc100()));
        cfg.slice_cycles = slice;
        cfg.obs = obs;
        // Arrivals at roughly the drain rate: bursts back the queue up
        // (so pairing has choices) without making the finish time
        // packing-bound.
        Ok((Service::new(cfg)?, synthetic_jobs(seed, jobs, slice)))
    }

    /// A seeded heterogeneous fleet sweep (see [`crate::fleet`]): the
    /// default variation axes (three nodes, three decap banks, two DVFS
    /// points) at the lab's fidelity, fanned out over the lab's
    /// threads. Returns the per-chip margin report.
    ///
    /// # Errors
    ///
    /// Propagates fleet simulation errors.
    pub fn fleet_sweep(
        &self,
        seed: u64,
        chips: usize,
        runs_per_chip: usize,
    ) -> Result<vsmooth_fleet::FleetReport, VsmoothError> {
        let mut spec = vsmooth_fleet::FleetSpec::new(seed, chips, runs_per_chip);
        spec.fidelity = self.cfg.fidelity;
        let campaign = vsmooth_fleet::FleetCampaign::new(spec)?;
        campaign.run(self.cfg.threads).map_err(VsmoothError::from)
    }
}

/// Fig. 4 data: two analytic impedance profiles plus the empirical
/// software-loop reconstruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig04 {
    /// Default number of capacitors (Proc100).
    pub full: vsmooth_pdn::ImpedanceProfile,
    /// Reduced capacitors (Proc3).
    pub reduced: vsmooth_pdn::ImpedanceProfile,
    /// Points measured with the current-modulating software loop.
    pub empirical: Vec<vsmooth_chip::EmpiricalImpedancePoint>,
}

/// Fig. 7 / Fig. 9 data: the pooled sample distribution of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleDistribution {
    /// Which processor this distribution belongs to.
    pub decap: DecapConfig,
    /// Pooled CDF of percent deviations across all runs.
    pub cdf: Cdf,
    /// Deepest droop observed anywhere, percent.
    pub max_droop_pct: f64,
    /// Largest overshoot observed anywhere, percent.
    pub max_overshoot_pct: f64,
    /// Fraction of samples beyond the −4 % typical-case boundary.
    pub fraction_beyond_typical: f64,
    /// Number of pooled runs.
    pub runs: usize,
}

impl SampleDistribution {
    fn from_campaign(campaign: &CampaignResult, decap: DecapConfig) -> Self {
        let pooled: RunStats = campaign.pooled().expect("campaign is non-empty");
        Self {
            decap,
            cdf: pooled.cdf(),
            max_droop_pct: pooled.max_droop_pct(),
            max_overshoot_pct: pooled.max_overshoot_pct(),
            fraction_beyond_typical: pooled.fraction_below(4.0),
            runs: campaign.runs().len(),
        }
    }
}

/// One row of Fig. 15.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Droops per kilocycle at the 2.3 % characterization margin.
    pub droops_per_kilocycle: f64,
    /// Measured stall ratio.
    pub stall_ratio: f64,
}

/// Fig. 15 data: per-benchmark rows plus the headline correlation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallCorrelation {
    /// Per-benchmark measurements.
    pub rows: Vec<StallRow>,
    /// Pearson correlation between droop rate and stall ratio.
    pub correlation: f64,
}

/// One row of Fig. 17.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroopVarianceRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Droop-rate distribution across all co-schedules.
    pub boxplot: BoxplotStats,
    /// Single-core droop rate (circular marker in the paper).
    pub single_core: f64,
    /// SPECrate droop rate (triangular marker).
    pub specrate: f64,
}

/// Fig. 19 data for both policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig19 {
    /// Droop-policy pass counts per recovery cost.
    pub droop: Vec<vsmooth_sched::ScheduledPassRow>,
    /// IPC-policy pass counts per recovery cost.
    pub ipc: Vec<vsmooth_sched::ScheduledPassRow>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::Chip;
    use vsmooth_fleet::FleetSpec;

    /// The campaigns, the pair oracle and the fleet sweeps run on the
    /// fused kernel only while every chip they build is one it covers.
    /// A config change that would send them back to the reference loop
    /// (same bits, half the speed) fails here instead.
    #[test]
    fn lab_and_fleet_chips_run_on_the_fused_kernel() {
        let lab = Lab::new(ExperimentConfig::quick());
        let decaps = [
            DecapConfig::proc100(),
            DecapConfig::proc25(),
            DecapConfig::proc3(),
        ];
        let mut cfgs: Vec<ChipConfig> = decaps.into_iter().map(|d| lab.chip(d)).collect();
        // Six chips cover every node × decap × DVFS combination the
        // default spec cycles through.
        let spec = FleetSpec::new(7, 6, 1);
        for variant in spec.variants() {
            cfgs.push(variant.chip_config().expect("valid variant"));
        }
        for cfg in cfgs {
            let chip = Chip::new(cfg).expect("valid chip");
            assert!(chip.runs_fused(), "{:?}", chip.config());
        }
    }

    /// Any decap configuration has a campaign, not just the paper's
    /// Proc100, Proc25 and Proc3, and asking twice measures once.
    #[test]
    fn any_decap_campaign_is_measured_once_and_cached() {
        let mut lab = Lab::new(ExperimentConfig {
            fidelity: Fidelity::Custom(1_000),
            threads: 1,
            benchmarks: Some(2),
            ..ExperimentConfig::quick()
        });
        let first: *const CampaignResult = lab.campaign(DecapConfig::proc75()).expect("Proc75");
        let second: *const CampaignResult = lab.campaign(DecapConfig::proc75()).expect("cached");
        assert!(std::ptr::eq(first, second), "re-measured a cached campaign");
        assert_eq!(lab.campaigns.len(), 1);
    }
}

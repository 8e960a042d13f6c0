//! The 881-run measurement campaign (Sec. III-A).
//!
//! "The experiments include a spectrum of workload characteristics: 29
//! single-threaded SPEC CPU2006 workloads, 11 Parsec programs and
//! 29×29 multi-program workload combinations from CPU2006."
//! (29 + 11 + 841 = 881 runs.)
//!
//! Runs are independent, so the campaign fans out over OS threads and
//! merges results in deterministic order.

use crate::instruments::{Instruments, Observed};
use crate::CampaignError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use vsmooth_chip::sense::CrossingGrid;
use vsmooth_chip::{
    fan_out, run_pair_with, run_workload_with, Capture, ChipBatch, ChipConfig, Fidelity, RunStats,
    PHASE_MARGIN_PCT,
};
use vsmooth_monitor::{EpochSample, Monitor, SliceRecord};
use vsmooth_profile::{emit_window_span, Profiler};
use vsmooth_trace::{ArgValue, DroopEvent, Tracer, PID_CAMPAIGN, PID_MONITOR};
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

impl RunId {
    /// The workload names the run executes, core 0 first.
    fn workloads(&self) -> Vec<String> {
        match self {
            Self::Single(n) | Self::Multi(n) => vec![n.clone()],
            Self::Pair(a, b) => vec![a.clone(), b.clone()],
        }
    }

    /// A margin crossing of this run as a typed droop event.
    fn droop_event(&self, idx: usize, cycle: u64, depth_pct: f64) -> DroopEvent {
        DroopEvent {
            chip: idx,
            core: 0,
            cycle,
            depth_pct,
            workloads: self.workloads(),
            phase: "campaign".to_string(),
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

    /// Executes every run, fanning out over `threads` OS threads.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error encountered.
    pub fn run(self, threads: usize) -> Result<CampaignResult, CampaignError> {
        self.run_with(threads, &Instruments::new())
            .map(|o| o.report)
    }

    /// Like [`CampaignSpec::run`], recording into whatever `inst` arms.
    /// Workers only simulate; every record is made on the coordinator
    /// in specification order, so each artifact is identical for every
    /// thread count.
    ///
    /// * `metrics`: run/cycle/droop counters plus a
    ///   droops-per-kilocycle histogram, and the profile's and health
    ///   report's series when those are armed.
    /// * `tracer`: one span per run on the campaign timeline (tid =
    ///   specification index, spanning `[0, cycles)` of that run's
    ///   private clock), a typed [`DroopEvent`] per margin crossing, a
    ///   `droop_window` span per profiled window and the monitor's
    ///   alert instants.
    /// * `profile`: every crossing's triggered waveform window is
    ///   scored into a per-run profile labelled by [`RunId`].
    /// * `monitor`: each run is one monitoring epoch on a cumulative
    ///   virtual clock (its crossings the droop evidence, the run
    ///   itself a [`SliceRecord`]).
    ///
    /// # Errors
    ///
    /// Returns the first simulation error in specification order.
    pub fn run_with(
        self,
        threads: usize,
        inst: &Instruments,
    ) -> Result<Observed<CampaignResult>, CampaignError> {
        if self.specs.is_empty() {
            return Err(CampaignError::EmptySpec);
        }
        let off = Tracer::disabled();
        let tracer = inst.tracer.unwrap_or(&off);
        let metrics = inst.metrics;
        // Capture at the grid-quantized margin so per-event logs agree
        // exactly with `RunStats::emergencies(PHASE_MARGIN_PCT)`.
        let margin = CrossingGrid::droop_grid().quantized_margin(PHASE_MARGIN_PCT);
        let mut profiler = inst.profile.map(|cfg| Profiler::new(margin, cfg));
        let mut monitor = inst.monitor.clone().map(Monitor::new);
        let capture = match inst.profile {
            Some(cfg) => Capture::Windows(margin, cfg.window),
            None if tracer.wants_droop_events() || monitor.is_some() => Capture::Crossings(margin),
            None => Capture::None,
        };
        // One-time ladder/uarch setup shared by every run: workers stamp
        // chips from the batch instead of re-discretizing the PDN per run.
        let chip = &ChipBatch::new(self.chip.clone()).map_err(|e| CampaignError::Run {
            id: "chip batch setup".to_string(),
            source: e,
        })?;
        let fidelity = self.fidelity;
        let runs = fan_out(self.specs, threads, |spec| {
            let captured = match &spec {
                RunSpec::Single(w) | RunSpec::Multi(w) => {
                    run_workload_with(chip, w, fidelity, capture)
                }
                RunSpec::Pair(a, b) => run_pair_with(chip, a, b, fidelity, capture),
            };
            match captured {
                Ok(c) => {
                    if let Some(m) = metrics {
                        m.counter_add("campaign_runs_total", 1);
                        m.counter_add("campaign_cycles_total", c.stats.cycles);
                        m.counter_add(
                            "campaign_droops_total",
                            c.stats.emergencies(PHASE_MARGIN_PCT),
                        );
                    }
                    Ok((spec.id(), c))
                }
                Err(source) => Err(CampaignError::Run {
                    id: spec.id().to_string(),
                    source,
                }),
            }
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        if let Some(m) = metrics {
            // Histogram observations happen here, after the merge, so
            // their order (and thus the float accumulation) is the
            // specification order regardless of thread count.
            for (_, c) in &runs {
                m.observe(
                    "campaign_droops_per_kilocycle",
                    c.stats.droops_per_kilocycle(PHASE_MARGIN_PCT),
                );
            }
        }
        if tracer.is_enabled() {
            // Coordinator-side emission in specification order: the
            // trace byte stream is thread-count-independent.
            tracer.process_name(PID_CAMPAIGN, "campaign");
            for (idx, (id, c)) in runs.iter().enumerate() {
                tracer.complete(
                    id.to_string(),
                    "campaign",
                    PID_CAMPAIGN,
                    idx as u64,
                    0,
                    c.stats.cycles,
                    vec![(
                        "droops",
                        ArgValue::from(c.stats.emergencies(PHASE_MARGIN_PCT)),
                    )],
                );
                for crossing in &c.crossings {
                    tracer.droop(&id.droop_event(idx, crossing.cycle, crossing.depth_pct));
                }
            }
        }
        if let Some(mon) = monitor.as_mut() {
            // Coordinator-side feeding in specification order on a
            // cumulative virtual clock (runs laid end to end): the
            // health artifacts are thread-count-independent. Each run
            // is one monitoring epoch.
            let mut offset = 0u64;
            for (idx, (id, c)) in runs.iter().enumerate() {
                for crossing in &c.crossings {
                    let event = id.droop_event(idx, offset + crossing.cycle, crossing.depth_pct);
                    mon.on_droop(Arc::new(event));
                }
                let droops = c.stats.emergencies(PHASE_MARGIN_PCT);
                mon.on_slice(SliceRecord {
                    start_cycle: offset,
                    chip: idx,
                    label: id.to_string(),
                    cycles: c.stats.cycles,
                    droops,
                    max_droop_pct: c.stats.max_droop_pct(),
                });
                mon.on_epoch(EpochSample {
                    end_cycle: offset + c.stats.cycles,
                    cycles: c.stats.cycles,
                    droops,
                    min_margin_pct: PHASE_MARGIN_PCT - c.stats.max_droop_pct(),
                    mean_margin_pct: PHASE_MARGIN_PCT + c.stats.sensor.summary().mean(),
                    queue_depth: 0,
                    running_jobs: id.workloads().len(),
                });
                offset += c.stats.cycles;
            }
        }
        if let Some(p) = profiler.as_mut() {
            // Score windows strictly in specification order: the
            // profiler's internal float accumulation — and therefore
            // the JSON artifact — is thread-count-independent.
            for (idx, (id, c)) in runs.iter().enumerate() {
                let label = id.to_string();
                for window in &c.windows {
                    let att = p.record(&label, window);
                    if tracer.is_enabled() {
                        emit_window_span(
                            tracer,
                            PID_CAMPAIGN,
                            idx as u64,
                            window.start_cycle,
                            window,
                            &att,
                        );
                    }
                }
            }
        }
        let profile = profiler.map(|p| p.report());
        let health = monitor.map(|m| m.report());
        if let Some(m) = metrics {
            if tracer.is_streaming() {
                // Streaming-pipeline self-observation lands in the same
                // registry as the campaign counters; non-streaming runs
                // keep their exact historical snapshots.
                tracer.export_telemetry(m);
            }
            if let Some(p) = &profile {
                p.export_metrics(m);
            }
            if let Some(h) = &health {
                h.export_metrics(m);
            }
        }
        if let (Some(h), true) = (&health, tracer.is_enabled()) {
            tracer.process_name(PID_MONITOR, "monitor");
            h.emit_alert_instants(tracer);
        }
        let runs = runs
            .into_iter()
            .map(|(id, c)| CampaignRun { id, stats: c.stats })
            .collect();
        Ok(Observed {
            report: CampaignResult { runs },
            profile,
            health,
        })
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

    /// Per-run CDFs of voltage samples (each line of Fig. 7).
    pub fn per_run_cdfs(&self) -> Vec<(RunId, vsmooth_stats::Cdf)> {
        self.runs
            .iter()
            .map(|r| (r.id.clone(), r.stats.cdf()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_monitor::MonitorConfig;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_profile::ProfileConfig;
    use vsmooth_stats::MetricsRegistry;

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
    fn metrics_and_trace_are_identical_across_thread_counts() {
        let artifacts_at = |threads: usize| {
            let (metrics, tracer) = (MetricsRegistry::new(), Tracer::enabled());
            let spec = CampaignSpec::reduced(chip(), Fidelity::Custom(400), 2);
            let expected = spec.len() as u64;
            let inst = Instruments::new().with_metrics(&metrics).traced(&tracer);
            let result = spec.run_with(threads, &inst).unwrap().report;
            let snap = metrics.snapshot();
            assert_eq!(snap.counter("campaign_runs_total"), expected);
            let cycles: u64 = result.runs().iter().map(|r| r.stats.cycles).sum();
            assert_eq!(snap.counter("campaign_cycles_total"), cycles);
            let hist = snap.histogram("campaign_droops_per_kilocycle").unwrap();
            assert_eq!(hist.count, expected);
            let droops: u64 = result
                .runs()
                .iter()
                .map(|r| r.stats.emergencies(PHASE_MARGIN_PCT))
                .sum();
            assert_eq!(tracer.droops_total(), droops);
            let spans = tracer.records().iter().filter(|r| r.is_span()).count();
            assert_eq!(spans, result.runs().len());
            (snap.render(), tracer.to_chrome_json())
        };
        assert_eq!(artifacts_at(1), artifacts_at(4));
    }

    #[test]
    fn profiled_campaign_attributes_every_droop() {
        let tracer = Tracer::enabled();
        let metrics = MetricsRegistry::new();
        let spec = CampaignSpec::reduced(chip(), Fidelity::Custom(4_000), 2);
        let inst = Instruments::new()
            .traced(&tracer)
            .with_metrics(&metrics)
            .profiled(ProfileConfig::default());
        let observed = spec.run_with(2, &inst).unwrap();
        let (result, profile) = (observed.report, observed.profile.unwrap());
        // Acceptance: profile droop counts equal the RunStats emergency
        // counts, per run and in total.
        let total: u64 = result
            .runs()
            .iter()
            .map(|r| r.stats.emergencies(PHASE_MARGIN_PCT))
            .sum();
        assert!(total > 0, "reduced campaign should droop");
        assert_eq!(profile.total_droops, total);
        for run in result.runs() {
            let expected = run.stats.emergencies(PHASE_MARGIN_PCT);
            let label = run.id.to_string();
            let droops = profile
                .workloads
                .iter()
                .find(|w| w.label == label)
                .map_or(0, |w| w.profile.droops);
            assert_eq!(droops, expected, "droops for {label}");
        }
        // Exported counters land in the registry, and window spans on
        // the campaign timeline.
        assert_eq!(metrics.snapshot().counter("profile_droops_total"), total);
        assert!(tracer.to_chrome_json().contains("droop_window"));
    }

    /// The profile and health JSON of a run with `inst` armed.
    fn artifacts(threads: usize, inst: &Instruments) -> (Option<String>, Option<String>) {
        let observed = CampaignSpec::reduced(chip(), Fidelity::Custom(3_000), 2)
            .run_with(threads, inst)
            .unwrap();
        if let Some(health) = &observed.health {
            // One monitoring epoch per campaign run.
            assert_eq!(health.epochs, observed.report.runs().len() as u64);
        }
        (
            observed.profile.map(|p| p.to_json()),
            observed.health.map(|h| h.to_json()),
        )
    }

    #[test]
    fn profile_and_health_are_thread_count_independent_alone_or_together() {
        let profile_only = Instruments::new().profiled(ProfileConfig::default());
        let monitor_only = Instruments::new().monitored(MonitorConfig::default());
        let both = profile_only.clone().monitored(MonitorConfig::default());
        let reference = (artifacts(1, &profile_only).0, artifacts(1, &monitor_only).1);
        assert!(reference.0.as_ref().unwrap().contains("vsmooth-profile-v1"));
        assert!(reference.1.as_ref().unwrap().contains("vsmooth-health-v1"));
        assert_eq!(artifacts(4, &profile_only).0, reference.0);
        assert_eq!(artifacts(4, &monitor_only).1, reference.1);
        // One pass arming both yields each single-instrument artifact.
        for threads in [1, 4] {
            assert_eq!(artifacts(threads, &both), reference, "{threads} threads");
        }
    }

    #[test]
    fn monitored_campaign_fires_rules_and_exports_telemetry() {
        use vsmooth_monitor::{Severity, Signal, SloRule};
        let metrics = MetricsRegistry::new();
        let tracer = Tracer::enabled();
        // Hair-trigger rule: any windowed droop rate above zero fires.
        let cfg = MonitorConfig {
            rules: vec![SloRule {
                fire_after: 1,
                ..SloRule::threshold("any_droops", Severity::Info, Signal::DroopRate, true, 0.0)
            }],
            ..MonitorConfig::default()
        };
        let inst = Instruments::new()
            .traced(&tracer)
            .with_metrics(&metrics)
            .monitored(cfg);
        let observed = CampaignSpec::reduced(chip(), Fidelity::Custom(4_000), 2)
            .run_with(2, &inst)
            .unwrap();
        let (result, health) = (observed.report, observed.health.unwrap());
        assert_eq!(health.epochs, result.runs().len() as u64);
        assert!(
            health.alerts.iter().any(|a| a.rule == "any_droops"),
            "droopy campaign should trip the hair-trigger rule"
        );
        assert_eq!(health.postmortems.len(), health.alerts.len());
        // Postmortems carry campaign-phase droop evidence.
        assert!(health.postmortems[0]
            .droop_events
            .iter()
            .all(|e| e.phase == "campaign"));
        let snap = metrics.snapshot();
        assert!(
            snap.counter_labeled(
                "alerts_total",
                &[("rule", "any_droops"), ("severity", "info")],
            ) >= 1
        );
        // Alert instants land on the monitor timeline of the trace.
        assert!(tracer.to_chrome_json().contains("any_droops"));
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

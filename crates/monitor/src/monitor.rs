//! The [`Monitor`]: one object the service coordinator feeds.
//!
//! The coordinator calls [`Monitor::on_droop`] per captured droop
//! crossing, [`Monitor::on_slice`] per finished scheduling slice, and
//! [`Monitor::on_epoch`] once per epoch with the aggregated
//! [`EpochSample`]. `on_epoch` is where everything happens: the
//! sliding window advances, a [`WindowSnapshot`] is cut, every SLO
//! rule is evaluated in declaration order, and any rule that fires
//! seals a flight-recorder postmortem on the spot. Because all three
//! hooks run on the coordinator in chip-index order, monitor output is
//! byte-identical for any worker-thread count.

use crate::detector::CusumConfig;
use crate::recorder::{FlightRecorder, PostmortemBundle, RecorderConfig, SliceRecord};
use crate::report::{HealthReport, HealthStatus};
use crate::slo::{Alert, AlertPhase, RuleEvent, RuleState, Severity, Signal, SloRule};
use crate::window::{EpochSample, SlidingWindow, WindowSnapshot};
use std::sync::Arc;
use vsmooth_trace::DroopEvent;

/// Configuration for one [`Monitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Length of the main health window, in epochs.
    pub window_epochs: usize,
    /// Assumed per-droop recovery penalty (cycles) behind the
    /// throttle-fraction and recovery-overhead signals.
    pub recovery_cost_cycles: u64,
    /// SLO rules, evaluated in this order every epoch.
    pub rules: Vec<SloRule>,
    /// Flight-recorder ring capacities.
    pub recorder: RecorderConfig,
}

impl MonitorConfig {
    /// The standard rule set: CUSUM anomaly detection on the windowed
    /// droop rate, a two-window burn-rate rule on the droop-recovery
    /// overhead budget, and a hard floor on the worst voltage margin.
    pub(crate) fn default_rules() -> Vec<SloRule> {
        vec![
            SloRule::anomaly(
                "droop_rate_anomaly",
                Severity::Warning,
                Signal::DroopRate,
                CusumConfig::rising(0.5, 2.0),
            ),
            SloRule::burn_rate(
                "recovery_budget_burn",
                Severity::Critical,
                5.0,
                4,
                16,
                6.0,
                3.0,
            ),
            SloRule::threshold(
                "margin_exhausted",
                Severity::Critical,
                Signal::MinMargin,
                false,
                0.0,
            ),
        ]
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            window_epochs: 8,
            recovery_cost_cycles: 10_000,
            rules: Self::default_rules(),
            recorder: RecorderConfig::default(),
        }
    }
}

/// Live health monitor for one service run.
#[derive(Debug, Clone)]
pub struct Monitor {
    recovery_cost_cycles: u64,
    window: SlidingWindow,
    rules: Vec<RuleState>,
    recorder: FlightRecorder,
    alerts: Vec<Alert>,
    postmortems: Vec<PostmortemBundle>,
    epochs: u64,
    last: WindowSnapshot,
}

impl Monitor {
    /// A monitor with all state pre-allocated (rings, windows,
    /// per-rule detectors); the per-epoch hot path never allocates
    /// beyond evidence recording.
    pub fn new(cfg: MonitorConfig) -> Self {
        Self {
            recovery_cost_cycles: cfg.recovery_cost_cycles,
            window: SlidingWindow::new(cfg.window_epochs),
            rules: cfg.rules.into_iter().map(RuleState::new).collect(),
            recorder: FlightRecorder::new(cfg.recorder),
            alerts: Vec::new(),
            postmortems: Vec::new(),
            epochs: 0,
            last: WindowSnapshot::default(),
        }
    }

    /// Feeds one droop crossing into the flight recorder, which keeps
    /// the shared event (no copy) until a postmortem seals it.
    pub fn on_droop(&mut self, event: Arc<DroopEvent>) {
        self.recorder.record_droop(event);
    }

    /// Feeds one finished scheduling slice into the flight recorder.
    pub fn on_slice(&mut self, slice: SliceRecord) {
        self.recorder.record_slice(slice);
    }

    /// Closes one epoch: advances the window, snapshots, evaluates
    /// every rule in declaration order, and seals a postmortem for
    /// each rule that transitions to firing this epoch.
    pub fn on_epoch(&mut self, sample: EpochSample) {
        self.window.push(sample);
        let snap = self.window.snapshot(self.recovery_cost_cycles);
        self.recorder.record_snapshot(snap.clone());
        for rule in &mut self.rules {
            let ev = rule.evaluate(&sample, &snap, self.recovery_cost_cycles, &mut self.alerts);
            if ev == RuleEvent::Fired {
                let alert = self.alerts.last().expect("fired rule appended an alert");
                self.postmortems.push(self.recorder.seal(alert));
            }
        }
        self.last = snap;
        self.epochs += 1;
    }

    /// Epochs observed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Alerts fired so far (resolved ones keep their entry).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// A cheap live health view for scrape endpoints: rule phases,
    /// alert tallies, and the latest window — no alert or postmortem
    /// clones, so the coordinator can call it every epoch.
    pub fn status(&self) -> HealthStatus {
        HealthStatus {
            epochs: self.epochs,
            alerts_fired: self.alerts.len(),
            alerts_resolved: self
                .alerts
                .iter()
                .filter(|a| a.resolved_at_cycle.is_some())
                .count(),
            firing: self
                .rules
                .iter()
                .filter(|r| r.phase == AlertPhase::Firing)
                .map(|r| (r.rule.name.clone(), r.rule.severity))
                .collect(),
            last: self.last.clone(),
        }
    }

    /// Freezes the monitor into its final [`HealthReport`].
    pub fn report(&self) -> HealthReport {
        HealthReport {
            epochs: self.epochs,
            last: self.last.clone(),
            alerts: self.alerts.clone(),
            postmortems: self.postmortems.clone(),
            rule_phases: self
                .rules
                .iter()
                .map(|r| (r.rule.name.clone(), r.phase))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_sample(end_cycle: u64, droops: u64) -> EpochSample {
        EpochSample {
            end_cycle,
            cycles: 1_000,
            droops,
            min_margin_pct: if droops > 0 { -0.5 } else { 1.8 },
            mean_margin_pct: 2.0,
            queue_depth: 1,
            running_jobs: 2,
        }
    }

    fn degradation_monitor() -> Monitor {
        // Tight rules so a synthetic quiet→noisy transition fires fast.
        Monitor::new(MonitorConfig {
            window_epochs: 4,
            recovery_cost_cycles: 100,
            rules: vec![
                SloRule::anomaly(
                    "droop_rate_anomaly",
                    Severity::Warning,
                    Signal::DroopRate,
                    CusumConfig::rising(0.5, 2.0),
                ),
                SloRule::burn_rate("budget_burn", Severity::Critical, 5.0, 2, 8, 4.0, 2.0),
            ],
            recorder: RecorderConfig::default(),
        })
    }

    fn run_degradation(m: &mut Monitor) {
        for i in 0..10u64 {
            m.on_epoch(hot_sample(i * 1_000, 0));
        }
        for i in 10..20u64 {
            m.on_droop(Arc::new(DroopEvent {
                chip: 0,
                core: 0,
                cycle: i * 1_000,
                depth_pct: 2.8,
                workloads: vec!["482.sphinx3".into(); 2],
                phase: format!("epoch{i}"),
            }));
            m.on_epoch(hot_sample(i * 1_000, 6));
        }
    }

    #[test]
    fn regime_change_fires_both_rules_and_seals_postmortems() {
        let mut m = degradation_monitor();
        run_degradation(&mut m);
        let report = m.report();
        let fired: Vec<&str> = report.alerts.iter().map(|a| a.rule.as_str()).collect();
        assert!(fired.contains(&"droop_rate_anomaly"), "alerts: {fired:?}");
        assert!(fired.contains(&"budget_burn"), "alerts: {fired:?}");
        assert_eq!(report.postmortems.len(), report.alerts.len());
        // Postmortems carry the droop evidence recorded before sealing.
        let pm = &report.postmortems[0];
        assert!(!pm.droop_events.is_empty());
        assert!(!pm.snapshots.is_empty());
    }

    #[test]
    fn quiet_run_fires_nothing() {
        let mut m = Monitor::new(MonitorConfig::default());
        for i in 0..50u64 {
            m.on_epoch(hot_sample(i * 1_000, 0));
        }
        assert!(m.alerts().is_empty());
        assert_eq!(m.report().postmortems.len(), 0);
        assert_eq!(m.epochs(), 50);
    }

    #[test]
    fn monitor_is_deterministic() {
        let run = || {
            let mut m = degradation_monitor();
            run_degradation(&mut m);
            m.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn rule_phase_snapshot_reflects_active_alerts() {
        let mut m = degradation_monitor();
        run_degradation(&mut m);
        let report = m.report();
        let anomaly_phase = report
            .rule_phases
            .iter()
            .find(|(n, _)| n == "droop_rate_anomaly")
            .map(|(_, p)| *p)
            .unwrap();
        assert_eq!(anomaly_phase, crate::slo::AlertPhase::Firing);
    }
}

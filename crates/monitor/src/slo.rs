//! Declarative SLO rules and the alert state machine.
//!
//! A [`SloRule`] names a condition over [`WindowSnapshot`] signals —
//! a plain threshold, a multi-window error-budget burn rate, or a
//! CUSUM anomaly — plus hysteresis counts. The `RuleState` machine
//! walks pending → firing → resolved: a rule must breach for
//! `fire_after` consecutive evaluations before an [`Alert`] fires and
//! must then clear for `resolve_after` evaluations before it
//! resolves, so one noisy epoch neither pages nor flaps. Rules are
//! evaluated in declaration order against coordinator-ordered
//! snapshots, keeping alert sequences byte-identical across worker
//! counts.

use crate::detector::{CusumConfig, CusumDetector};
use crate::window::{EpochSample, SlidingWindow, WindowSnapshot};
use std::fmt;

/// How loudly an alert should page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a dashboard annotation.
    Info,
    /// Worth a ticket.
    Warning,
    /// Worth a page.
    Critical,
}

impl Severity {
    /// Stable lowercase label used in metrics and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Whether alerts at this severity page an operator. This is the
    /// single definition of "unhealthy" shared by `/healthz` (503),
    /// `ServiceReport`'s FIRING marker, and `monitor_demo`'s exit
    /// code: a run is unhealthy iff a paging-severity alert is firing.
    pub(crate) fn pages(&self) -> bool {
        matches!(self, Severity::Critical)
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A windowed health signal a rule can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Droop emergencies per 1 000 chip cycles.
    DroopRate,
    /// Cycle-weighted mean voltage margin, percent.
    MeanMargin,
    /// Worst voltage margin in the window, percent.
    MinMargin,
    /// Fraction of cycles spent in droop recovery.
    ThrottleFraction,
    /// Mean admission-queue depth.
    QueueDepth,
    /// Recovery overhead as percent of cycles (100 × throttle).
    RecoveryOverheadPct,
}

impl Signal {
    /// Stable lowercase label used in metrics and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Signal::DroopRate => "droop_rate",
            Signal::MeanMargin => "mean_margin",
            Signal::MinMargin => "min_margin",
            Signal::ThrottleFraction => "throttle_fraction",
            Signal::QueueDepth => "queue_depth",
            Signal::RecoveryOverheadPct => "recovery_overhead_pct",
        }
    }

    /// Reads this signal out of a window snapshot.
    pub fn of(&self, snap: &WindowSnapshot) -> f64 {
        match self {
            Signal::DroopRate => snap.droop_rate_per_kilocycle,
            Signal::MeanMargin => snap.mean_margin_pct,
            Signal::MinMargin => snap.min_margin_pct,
            Signal::ThrottleFraction => snap.throttle_fraction,
            Signal::QueueDepth => snap.mean_queue_depth,
            Signal::RecoveryOverheadPct => snap.recovery_overhead_pct(),
        }
    }
}

/// The condition a rule evaluates each epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Signal compared against a fixed limit.
    Threshold {
        /// Which windowed signal to read.
        signal: Signal,
        /// True = breach when the signal exceeds `limit`; false =
        /// breach when it falls below.
        above: bool,
        /// The limit to compare against.
        limit: f64,
    },
    /// Google-SRE-style multi-window burn rate on the droop-recovery
    /// overhead budget: breach only when BOTH the fast and the slow
    /// window burn the budget faster than their multipliers allow —
    /// fast for responsiveness, slow to ignore short blips.
    BurnRate {
        /// Error budget: allowed recovery overhead, percent of cycles.
        budget_pct: f64,
        /// Fast window length, epochs.
        fast_epochs: usize,
        /// Slow window length, epochs.
        slow_epochs: usize,
        /// Burn multiplier the fast window must exceed.
        fast_burn: f64,
        /// Burn multiplier the slow window must exceed.
        slow_burn: f64,
    },
    /// EWMA+CUSUM change detection on a windowed signal.
    Anomaly {
        /// Which windowed signal to watch.
        signal: Signal,
        /// Detector tuning.
        cusum: CusumConfig,
    },
}

/// One declarative alerting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Stable rule name (used as the metrics label and in JSON).
    pub name: String,
    /// How loudly to page when it fires.
    pub severity: Severity,
    /// The condition to evaluate.
    pub kind: RuleKind,
    /// Consecutive breached evaluations before the alert fires.
    pub fire_after: usize,
    /// Consecutive clear evaluations before a firing alert resolves.
    pub resolve_after: usize,
}

impl SloRule {
    /// A threshold rule with standard hysteresis (fire after 2,
    /// resolve after 3).
    pub fn threshold(
        name: &str,
        severity: Severity,
        signal: Signal,
        above: bool,
        limit: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            severity,
            kind: RuleKind::Threshold {
                signal,
                above,
                limit,
            },
            fire_after: 2,
            resolve_after: 3,
        }
    }

    /// A burn-rate rule over the recovery-overhead budget.
    pub fn burn_rate(
        name: &str,
        severity: Severity,
        budget_pct: f64,
        fast_epochs: usize,
        slow_epochs: usize,
        fast_burn: f64,
        slow_burn: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            severity,
            kind: RuleKind::BurnRate {
                budget_pct,
                fast_epochs,
                slow_epochs,
                fast_burn,
                slow_burn,
            },
            fire_after: 1,
            resolve_after: 3,
        }
    }

    /// A CUSUM anomaly rule with standard hysteresis.
    pub fn anomaly(name: &str, severity: Severity, signal: Signal, cusum: CusumConfig) -> Self {
        Self {
            name: name.to_string(),
            severity,
            kind: RuleKind::Anomaly { signal, cusum },
            fire_after: 1,
            resolve_after: 3,
        }
    }
}

/// Where a rule currently sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertPhase {
    /// Condition clear.
    Idle,
    /// Condition breached but not yet for `fire_after` evaluations.
    Pending,
    /// Alert active.
    Firing,
}

impl AlertPhase {
    /// Stable lowercase label used in renders.
    pub fn label(&self) -> &'static str {
        match self {
            AlertPhase::Idle => "idle",
            AlertPhase::Pending => "pending",
            AlertPhase::Firing => "firing",
        }
    }
}

/// A fired alert with the evidence window attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// Severity copied from the rule.
    pub severity: Severity,
    /// Virtual clock when the alert transitioned to firing.
    pub fired_at_cycle: u64,
    /// Virtual clock when it resolved, if it has.
    pub resolved_at_cycle: Option<u64>,
    /// The window snapshot that tipped the rule into firing.
    pub window: WindowSnapshot,
}

impl Alert {
    /// Firing time on the kcycle axis used by traces and reports.
    pub fn fired_at_kcycle(&self) -> f64 {
        self.fired_at_cycle as f64 / 1000.0
    }
}

/// Per-rule evaluation state (detector, burn windows, hysteresis
/// counters, lifecycle phase).
#[derive(Debug, Clone)]
pub(crate) struct RuleState {
    pub(crate) rule: SloRule,
    pub(crate) phase: AlertPhase,
    breach_streak: usize,
    clear_streak: usize,
    detector: Option<CusumDetector>,
    burn_fast: Option<SlidingWindow>,
    burn_slow: Option<SlidingWindow>,
    /// Index into the monitor's alert log while firing.
    active_alert: Option<usize>,
}

/// What one evaluation did, so the monitor can react (seal a
/// postmortem on `Fired`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RuleEvent {
    None,
    Fired,
    Resolved,
}

impl RuleState {
    pub(crate) fn new(rule: SloRule) -> Self {
        let detector = match &rule.kind {
            RuleKind::Anomaly { cusum, .. } => Some(CusumDetector::new(*cusum)),
            _ => None,
        };
        let (burn_fast, burn_slow) = match &rule.kind {
            RuleKind::BurnRate {
                fast_epochs,
                slow_epochs,
                ..
            } => (
                Some(SlidingWindow::new(*fast_epochs)),
                Some(SlidingWindow::new(*slow_epochs)),
            ),
            _ => (None, None),
        };
        Self {
            rule,
            phase: AlertPhase::Idle,
            breach_streak: 0,
            clear_streak: 0,
            detector,
            burn_fast,
            burn_slow,
            active_alert: None,
        }
    }

    /// Whether the condition is breached for this epoch's snapshot.
    fn breached(
        &mut self,
        sample: &EpochSample,
        snap: &WindowSnapshot,
        recovery_cost: u64,
    ) -> bool {
        match &self.rule.kind {
            RuleKind::Threshold {
                signal,
                above,
                limit,
            } => {
                let v = signal.of(snap);
                if *above {
                    v > *limit
                } else {
                    v < *limit
                }
            }
            RuleKind::BurnRate {
                budget_pct,
                fast_burn,
                slow_burn,
                ..
            } => {
                let fast = self.burn_fast.as_mut().expect("burn rule has fast window");
                let slow = self.burn_slow.as_mut().expect("burn rule has slow window");
                fast.push(*sample);
                slow.push(*sample);
                let fast_rate = fast.snapshot(recovery_cost).recovery_overhead_pct() / budget_pct;
                let slow_rate = slow.snapshot(recovery_cost).recovery_overhead_pct() / budget_pct;
                fast_rate > *fast_burn && slow_rate > *slow_burn
            }
            RuleKind::Anomaly { signal, .. } => {
                let v = signal.of(snap);
                self.detector
                    .as_mut()
                    .expect("anomaly rule has detector")
                    .update(v)
                    .breached
            }
        }
    }

    /// Runs one evaluation and advances the lifecycle. `alerts` is the
    /// monitor's append-only alert log; firing appends, resolving
    /// stamps `resolved_at_cycle` on the active entry.
    pub(crate) fn evaluate(
        &mut self,
        sample: &EpochSample,
        snap: &WindowSnapshot,
        recovery_cost: u64,
        alerts: &mut Vec<Alert>,
    ) -> RuleEvent {
        let breached = self.breached(sample, snap, recovery_cost);
        if breached {
            self.breach_streak += 1;
            self.clear_streak = 0;
        } else {
            self.clear_streak += 1;
            self.breach_streak = 0;
        }
        match self.phase {
            AlertPhase::Idle | AlertPhase::Pending => {
                if breached && self.breach_streak >= self.rule.fire_after.max(1) {
                    self.phase = AlertPhase::Firing;
                    alerts.push(Alert {
                        rule: self.rule.name.clone(),
                        severity: self.rule.severity,
                        fired_at_cycle: snap.end_cycle,
                        resolved_at_cycle: None,
                        window: snap.clone(),
                    });
                    self.active_alert = Some(alerts.len() - 1);
                    RuleEvent::Fired
                } else {
                    self.phase = if breached {
                        AlertPhase::Pending
                    } else {
                        AlertPhase::Idle
                    };
                    RuleEvent::None
                }
            }
            AlertPhase::Firing => {
                if !breached && self.clear_streak >= self.rule.resolve_after.max(1) {
                    self.phase = AlertPhase::Idle;
                    if let Some(idx) = self.active_alert.take() {
                        alerts[idx].resolved_at_cycle = Some(snap.end_cycle);
                    }
                    RuleEvent::Resolved
                } else {
                    RuleEvent::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(end_cycle: u64, droop_rate: f64) -> WindowSnapshot {
        WindowSnapshot {
            end_cycle,
            epochs: 1,
            cycles: 1_000,
            droops: droop_rate as u64,
            droop_rate_per_kilocycle: droop_rate,
            mean_margin_pct: 2.0,
            min_margin_pct: 1.0,
            throttle_fraction: 0.0,
            mean_queue_depth: 0.0,
        }
    }

    fn sample(end_cycle: u64, droops: u64) -> EpochSample {
        EpochSample {
            end_cycle,
            cycles: 1_000,
            droops,
            min_margin_pct: 1.0,
            mean_margin_pct: 2.0,
            queue_depth: 0,
            running_jobs: 1,
        }
    }

    #[test]
    fn threshold_rule_fires_after_hysteresis_and_resolves() {
        let rule = SloRule::threshold("rate_high", Severity::Warning, Signal::DroopRate, true, 5.0);
        let mut st = RuleState::new(rule);
        let mut alerts = Vec::new();
        // One breached epoch → pending, not firing.
        assert_eq!(
            st.evaluate(&sample(1_000, 9), &snap(1_000, 9.0), 0, &mut alerts),
            RuleEvent::None
        );
        assert_eq!(st.phase, AlertPhase::Pending);
        // Second consecutive breach → fires.
        assert_eq!(
            st.evaluate(&sample(2_000, 9), &snap(2_000, 9.0), 0, &mut alerts),
            RuleEvent::Fired
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].fired_at_cycle, 2_000);
        assert_eq!(alerts[0].resolved_at_cycle, None);
        // Needs resolve_after=3 clear epochs to resolve.
        for i in 0..2 {
            assert_eq!(
                st.evaluate(&sample(3_000 + i, 0), &snap(3_000 + i, 0.0), 0, &mut alerts),
                RuleEvent::None
            );
        }
        assert_eq!(
            st.evaluate(&sample(5_000, 0), &snap(5_000, 0.0), 0, &mut alerts),
            RuleEvent::Resolved
        );
        assert_eq!(alerts[0].resolved_at_cycle, Some(5_000));
        assert_eq!(st.phase, AlertPhase::Idle);
    }

    #[test]
    fn pending_resets_on_a_clear_epoch() {
        let rule = SloRule::threshold("rate_high", Severity::Info, Signal::DroopRate, true, 5.0);
        let mut st = RuleState::new(rule);
        let mut alerts = Vec::new();
        st.evaluate(&sample(1, 9), &snap(1, 9.0), 0, &mut alerts);
        st.evaluate(&sample(2, 0), &snap(2, 0.0), 0, &mut alerts);
        assert_eq!(st.phase, AlertPhase::Idle);
        // A single breach again only reaches pending: the streak reset.
        st.evaluate(&sample(3, 9), &snap(3, 9.0), 0, &mut alerts);
        assert_eq!(st.phase, AlertPhase::Pending);
        assert!(alerts.is_empty());
    }

    #[test]
    fn below_threshold_rule_watches_margins() {
        let rule = SloRule::threshold(
            "margin_low",
            Severity::Critical,
            Signal::MinMargin,
            false,
            0.5,
        );
        let mut st = RuleState::new(rule);
        let mut alerts = Vec::new();
        let mut bad = snap(1_000, 0.0);
        bad.min_margin_pct = -0.2;
        st.evaluate(&sample(1_000, 0), &bad, 0, &mut alerts);
        bad.end_cycle = 2_000;
        assert_eq!(
            st.evaluate(&sample(2_000, 0), &bad, 0, &mut alerts),
            RuleEvent::Fired
        );
        assert_eq!(alerts[0].severity, Severity::Critical);
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        // Budget 5%: with recovery cost 100 cycles and 1000-cycle
        // epochs, 5 droops/epoch = 50% overhead = burn rate 10.
        let rule = SloRule::burn_rate("budget_burn", Severity::Critical, 5.0, 2, 6, 8.0, 4.0);
        let mut st = RuleState::new(rule);
        let mut alerts = Vec::new();
        // Two hot epochs: fast window (cap 2) is fully hot → burn 10 >
        // 8, but the slow window still averages over few samples —
        // after 2 epochs slow burn is also 10 > 4, so it fires once
        // both windows contain only hot epochs. First epoch: both
        // windows hot already (single sample) → fires immediately
        // (fire_after = 1).
        let ev = st.evaluate(&sample(1_000, 5), &snap(1_000, 5.0), 100, &mut alerts);
        assert_eq!(ev, RuleEvent::Fired);
        // Quiet stretch: fast window clears quickly, slow window keeps
        // some history; resolves after resolve_after clear epochs once
        // fast burn drops.
        let mut resolved = false;
        for i in 2..12 {
            if st.evaluate(
                &sample(i * 1_000, 0),
                &snap(i * 1_000, 0.0),
                100,
                &mut alerts,
            ) == RuleEvent::Resolved
            {
                resolved = true;
                break;
            }
        }
        assert!(resolved);
    }

    #[test]
    fn burn_rate_ignores_a_blip_the_slow_window_absorbs() {
        // Slow window of 8 epochs with slow_burn 4: one hot epoch out
        // of 8 quiet ones keeps the slow burn below its multiplier.
        let rule = SloRule::burn_rate("budget_burn", Severity::Critical, 5.0, 1, 8, 8.0, 4.0);
        let mut st = RuleState::new(rule);
        let mut alerts = Vec::new();
        for i in 0..8 {
            st.evaluate(
                &sample(i * 1_000, 0),
                &snap(i * 1_000, 0.0),
                100,
                &mut alerts,
            );
        }
        // One hot epoch: fast burn 10 > 8 but slow burn = 50/8/5 ≈
        // 1.25 < 4 → no fire.
        let ev = st.evaluate(&sample(9_000, 5), &snap(9_000, 5.0), 100, &mut alerts);
        assert_eq!(ev, RuleEvent::None);
        assert!(alerts.is_empty());
    }

    #[test]
    fn anomaly_rule_fires_on_regime_change() {
        let rule = SloRule::anomaly(
            "droop_rate_anomaly",
            Severity::Warning,
            Signal::DroopRate,
            CusumConfig::rising(0.5, 2.0),
        );
        let mut st = RuleState::new(rule);
        let mut alerts = Vec::new();
        // Quiet baseline (warmup 4 + a few stable epochs).
        for i in 0..8 {
            let ev = st.evaluate(&sample(i * 1_000, 1), &snap(i * 1_000, 1.0), 0, &mut alerts);
            assert_eq!(ev, RuleEvent::None);
        }
        // Regime change: rate jumps 1 → 4; deviation 3 - drift 0.5 →
        // statistic grows 2.5/epoch, crossing threshold 2 on epoch 1.
        let mut fired = false;
        for i in 8..12 {
            if st.evaluate(&sample(i * 1_000, 4), &snap(i * 1_000, 4.0), 0, &mut alerts)
                == RuleEvent::Fired
            {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(alerts[0].rule, "droop_rate_anomaly");
    }

    #[test]
    fn severity_and_signal_labels_are_stable() {
        assert_eq!(Severity::Critical.label(), "critical");
        assert_eq!(format!("{}", Severity::Info), "info");
        assert_eq!(Signal::DroopRate.label(), "droop_rate");
        assert_eq!(Signal::RecoveryOverheadPct.label(), "recovery_overhead_pct");
        assert_eq!(AlertPhase::Firing.label(), "firing");
    }

    #[test]
    fn alert_kcycle_axis() {
        let a = Alert {
            rule: "r".into(),
            severity: Severity::Info,
            fired_at_cycle: 12_500,
            resolved_at_cycle: None,
            window: snap(12_500, 0.0),
        };
        assert!((a.fired_at_kcycle() - 12.5).abs() < 1e-12);
    }
}

//! Window aggregation: per-workload noise profiles and the resonance
//! estimate.

use crate::attribution::{attribute_with, event_index, DroopAttribution, N_EVENTS};
use crate::report::{ProfileReport, WorkloadProfile};
use std::collections::BTreeMap;
use vsmooth_chip::{DroopWindow, WindowConfig};
use vsmooth_uarch::PerfCounters;

/// Time constant (cycles) of the exponential decay that weighs lead-in
/// events: an event `dt` cycles before the crossing contributes
/// `exp(-dt / tau)`. Stall events couple into the paper's PDN within
/// one or two resonance periods.
const DECAY_TAU_CYCLES: f64 = 24.0;

/// Width of one droop-depth bin in the events × depth matrix, in
/// percent of depth past the margin.
const DEPTH_BIN_PCT: f64 = 0.5;

/// Number of depth bins (the last bin absorbs deeper droops).
const DEPTH_BINS: usize = 6;

/// Longest autocorrelation lag (cycles) searched for the resonance
/// period, comfortably covering the ~9–19-cycle analytic resonance.
const MAX_LAG: usize = 48;

/// Aggregated attribution for one workload (or phase) label.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseProfile {
    /// Droops (captured windows) recorded under this label.
    pub droops: u64,
    /// Windows whose tail was cut short by a flush.
    pub truncated_windows: u64,
    /// Sum of window depths, percent below nominal (mean = sum/droops).
    pub depth_sum_pct: f64,
    /// Deepest captured droop, percent below nominal.
    pub max_depth_pct: f64,
    /// Accumulated responsibility share per event kind (indexed like
    /// [`StallEvent::ALL`](vsmooth_uarch::StallEvent::ALL)); each droop
    /// contributes at most 1 in total.
    pub event_shares: [f64; N_EVENTS],
    /// Accumulated share not carried by any lead-in event.
    pub unattributed: f64,
    /// Droops whose dominant cause is each event kind.
    pub dominant_droops: [u64; N_EVENTS],
    /// Droops with an event-free lead-in.
    pub unattributed_droops: u64,
    /// Events × droop-depth share matrix: `share_matrix[e][bin]`
    /// accumulates event `e`'s shares of droops whose depth fell in
    /// bin `bin` (six 0.5 %-wide bins of depth past the margin, the last
    /// absorbing deeper droops).
    pub share_matrix: Vec<Vec<f64>>,
    /// Raw stall-event occurrences inside the windows, per kind —
    /// comparable against `counters` by construction.
    pub window_events: [u64; N_EVENTS],
    /// Windowed counter deltas merged over every captured window and
    /// core. Its per-event counts equal `window_events`.
    pub counters: PerfCounters,
}

impl NoiseProfile {
    fn new() -> Self {
        Self {
            share_matrix: vec![vec![0.0; DEPTH_BINS]; N_EVENTS],
            ..Self::default()
        }
    }

    /// Mean captured droop depth, percent below nominal.
    pub(crate) fn mean_depth_pct(&self) -> f64 {
        if self.droops == 0 {
            0.0
        } else {
            self.depth_sum_pct / self.droops as f64
        }
    }
}

/// Accumulates [`DroopWindow`]s into per-label [`NoiseProfile`]s plus
/// a pooled autocorrelation for the resonance-period estimate.
///
/// Feed windows in a deterministic order (the service's merge layer
/// does) and the resulting
/// [`ProfileReport`] — including its JSON rendering — is byte-stable.
#[derive(Debug, Clone)]
pub struct Profiler {
    margin_pct: f64,
    profiles: BTreeMap<String, NoiseProfile>,
    total_droops: u64,
    total_windows: u64,
    truncated_windows: u64,
    /// Pooled autocorrelation numerators over the differenced
    /// post-trigger ringing, per lag.
    acf: Vec<f64>,
    /// Sample-pair counts per lag.
    acf_counts: Vec<u64>,
    /// Memoized decay weights: `decay[dt] = exp(-dt / tau)` for every
    /// integer trigger distance a lead-in event can have. Scoring is
    /// per droop per event, and `exp` dominates it without this.
    decay: Vec<f64>,
    /// Reused first-difference buffer for [`Self::accumulate_acf`].
    diff_scratch: Vec<f64>,
    /// Reused per-window lag accumulators for [`Self::accumulate_acf`].
    lag_scratch: Vec<f64>,
    /// ACF-eligible windows seen / actually pooled, and the current
    /// decimation stride (see [`Self::accumulate_acf`]).
    acf_seen: u64,
    acf_pooled: u64,
    acf_stride: u64,
}

/// Pooled windows per decimation step: the stride doubles every time
/// this many more windows have been folded into the autocorrelation.
const ACF_POOL_BATCH: u64 = 512;

impl Profiler {
    /// A profiler for droops captured at `margin_pct` in windows of the
    /// default [`WindowConfig`] shape.
    pub fn new(margin_pct: f64) -> Self {
        let lags = MAX_LAG + 1;
        let decay = (0..WindowConfig::default().pre_cycles as u64)
            .map(|dt| (-(dt as f64) / DECAY_TAU_CYCLES).exp())
            .collect();
        Self {
            margin_pct,
            profiles: BTreeMap::new(),
            total_droops: 0,
            total_windows: 0,
            truncated_windows: 0,
            acf: vec![0.0; lags],
            acf_counts: vec![0; lags],
            decay,
            diff_scratch: Vec::new(),
            lag_scratch: Vec::new(),
            acf_seen: 0,
            acf_pooled: 0,
            acf_stride: 1,
        }
    }

    /// The capture margin this profiler scores against.
    pub fn margin_pct(&self) -> f64 {
        self.margin_pct
    }

    /// Windows recorded so far.
    pub fn total_windows(&self) -> u64 {
        self.total_windows
    }

    /// Scores `window` and folds it into the profile for `label`,
    /// returning the per-droop attribution (so callers can emit trace
    /// spans or per-job annotations without re-scoring).
    pub fn record(&mut self, label: &str, window: &DroopWindow) -> DroopAttribution {
        let decay = &self.decay;
        // Table lookup for the (bounded) distances capture produces,
        // the identical `exp` for anything farther out.
        let att = attribute_with(window, |dt| match decay.get(dt as usize) {
            Some(&w) => w,
            None => (-(dt as f64) / DECAY_TAU_CYCLES).exp(),
        });
        if !self.profiles.contains_key(label) {
            self.profiles.insert(label.to_string(), NoiseProfile::new());
        }
        let profile = self.profiles.get_mut(label).expect("just inserted");
        profile.droops += 1;
        if window.truncated {
            profile.truncated_windows += 1;
            self.truncated_windows += 1;
        }
        profile.depth_sum_pct += window.depth_pct;
        profile.max_depth_pct = profile.max_depth_pct.max(window.depth_pct);
        let bin = (((window.depth_pct - self.margin_pct) / DEPTH_BIN_PCT).max(0.0) as usize)
            .min(DEPTH_BINS - 1);
        for (e, &share) in att.shares.iter().enumerate() {
            profile.event_shares[e] += share;
            profile.share_matrix[e][bin] += share;
        }
        profile.unattributed += att.unattributed;
        match att.dominant {
            Some(e) => profile.dominant_droops[event_index(e)] += 1,
            None => profile.unattributed_droops += 1,
        }
        for ev in &window.events {
            profile.window_events[event_index(ev.event)] += 1;
        }
        for delta in &window.counter_deltas {
            profile.counters.merge(delta);
        }
        self.total_droops += 1;
        self.total_windows += 1;
        self.accumulate_acf(window);
        att
    }

    /// Folds the window's post-trigger ringing into the pooled
    /// autocorrelation. The first difference of the waveform is used so
    /// the exponential recovery baseline (and any slow regulator trend)
    /// drops out, leaving the resonance oscillation.
    ///
    /// Pooling is adaptively decimated: the estimate converges after a
    /// few hundred windows, so once [`ACF_POOL_BATCH`] windows are in
    /// the pool only every 2nd eligible window is folded, then every
    /// 4th, and so on. Sparse runs pool everything; droop storms pay a
    /// logarithmically bounded share of ACF work. The decision is a
    /// deterministic function of arrival order, keeping reports
    /// byte-stable.
    fn accumulate_acf(&mut self, window: &DroopWindow) {
        let start = (window.trigger_cycle - window.start_cycle) as usize;
        let post = &window.voltage_dev_pct[start..];
        if post.len() < 8 {
            return;
        }
        self.acf_seen += 1;
        if !(self.acf_seen - 1).is_multiple_of(self.acf_stride) {
            return;
        }
        self.acf_pooled += 1;
        if self.acf_pooled.is_multiple_of(ACF_POOL_BATCH) {
            self.acf_stride *= 2;
        }
        let mut d = std::mem::take(&mut self.diff_scratch);
        d.clear();
        d.extend(post.windows(2).map(|p| p[1] - p[0]));
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        for x in &mut d {
            *x -= mean;
        }
        let max_lag = MAX_LAG.min(d.len().saturating_sub(1));
        let n = d.len();
        let mut acc = std::mem::take(&mut self.lag_scratch);
        acc.clear();
        acc.resize(max_lag + 1, 0.0);
        // Sample-outer, lag-inner: for each lag the products still
        // accumulate in increasing sample order (bit-identical to a
        // per-lag sequential dot), but the inner loop walks contiguous
        // memory over independent accumulators, so it vectorizes.
        for i in 0..n {
            let di = d[i];
            let lmax = max_lag.min(n - 1 - i);
            for (a, &x) in acc[..=lmax].iter_mut().zip(&d[i..=i + lmax]) {
                *a += di * x;
            }
        }
        for (lag, (acf, count)) in self
            .acf
            .iter_mut()
            .zip(&mut self.acf_counts)
            .enumerate()
            .take(max_lag + 1)
        {
            *acf += acc[lag];
            *count += (n - lag) as u64;
        }
        self.lag_scratch = acc;
        self.diff_scratch = d;
    }

    /// The dominant ringing period, in cycles, estimated as the first
    /// local maximum (lag ≥ 2, positive correlation) of the pooled
    /// autocorrelation, refined by parabolic interpolation. `None`
    /// until enough windows show a periodicity.
    pub(crate) fn estimated_resonance_period_cycles(&self) -> Option<f64> {
        let r: Vec<f64> = self
            .acf
            .iter()
            .zip(&self.acf_counts)
            .map(|(&a, &n)| if n == 0 { 0.0 } else { a / n as f64 })
            .collect();
        let r0 = r[0];
        if r0 <= 0.0 || r0.is_nan() {
            return None;
        }
        for lag in 2..r.len() - 1 {
            if r[lag] > r[lag - 1] && r[lag] >= r[lag + 1] && r[lag] > 0.0 {
                let denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1];
                let delta = if denom < 0.0 {
                    (0.5 * (r[lag - 1] - r[lag + 1]) / denom).clamp(-0.5, 0.5)
                } else {
                    0.0
                };
                return Some(lag as f64 + delta);
            }
        }
        None
    }

    /// Snapshots everything into a serializable [`ProfileReport`].
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            margin_pct: self.margin_pct,
            decay_tau_cycles: DECAY_TAU_CYCLES,
            depth_bin_pct: DEPTH_BIN_PCT,
            depth_bins: DEPTH_BINS,
            total_droops: self.total_droops,
            total_windows: self.total_windows,
            truncated_windows: self.truncated_windows,
            resonance_period_cycles: self.estimated_resonance_period_cycles(),
            workloads: self
                .profiles
                .iter()
                .map(|(label, profile)| WorkloadProfile {
                    label: label.clone(),
                    profile: profile.clone(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::{Chip, ChipConfig, ChipSession};
    use vsmooth_pdn::{DecapConfig, ImpedanceProfile, LadderConfig};
    use vsmooth_uarch::{IdleLoop, StallEvent, StimulusSource};
    use vsmooth_workload::by_name;

    /// sphinx3 with an idle partner on Proc100 at 4 000 cycles per
    /// interval, profiled at 2.5 % on a reference session: its
    /// emergencies at that margin and every window, flushed at the end.
    fn sphinx_windows() -> (u64, Vec<DroopWindow>) {
        let chip = Chip::new(ChipConfig::core2_duo(DecapConfig::proc100())).unwrap();
        let sphinx = by_name("482.sphinx3").unwrap();
        let (mut stream, mut idle) = (sphinx.stream(0, 4_000), IdleLoop::default());
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut stream, &mut idle];
        let mut session = ChipSession::begin(chip, &mut sources, 4_000).unwrap();
        session.enable_profiling(2.5, WindowConfig::default());
        let cycles = u64::from(sphinx.total_intervals()) * 4_000;
        session.run_slice(&mut sources, cycles).unwrap();
        let windows = session.flush_droop_windows();
        (session.finish().unwrap().emergencies(2.5), windows)
    }

    #[test]
    fn profile_totals_are_consistent_with_windows() {
        let (emergencies, windows) = sphinx_windows();
        assert!(!windows.is_empty(), "sphinx3 should droop past 2.5%");
        let mut profiler = Profiler::new(2.5);
        for w in &windows {
            profiler.record("482.sphinx3", w);
        }
        let report = profiler.report();
        assert_eq!(report.total_droops, emergencies);
        assert_eq!(report.total_windows, windows.len() as u64);
        let profile = &report.workloads[0].profile;
        assert_eq!(profile.droops, windows.len() as u64);
        // Attribution is consistent with aggregates: every per-event
        // window count matches the merged counter deltas, and every
        // droop hands out exactly one unit of responsibility.
        for e in StallEvent::ALL {
            assert_eq!(
                profile.window_events[event_index(e)],
                profile.counters.event_count(e),
                "{} events vs counter delta",
                e.label()
            );
        }
        let total_share: f64 = profile.event_shares.iter().sum::<f64>() + profile.unattributed;
        assert!((total_share - profile.droops as f64).abs() < 1e-9);
        let dominants: u64 =
            profile.dominant_droops.iter().sum::<u64>() + profile.unattributed_droops;
        assert_eq!(dominants, profile.droops);
        // The depth matrix redistributes the same mass as the shares.
        for e in 0..N_EVENTS {
            let row: f64 = profile.share_matrix[e].iter().sum();
            assert!((row - profile.event_shares[e]).abs() < 1e-9);
        }
    }

    #[test]
    fn estimated_resonance_matches_analytic_ladder() {
        // Acceptance criterion: the autocorrelation estimate over
        // captured windows is within 10% of the analytic RLC resonance.
        let chip = ChipConfig::core2_duo(DecapConfig::proc100());
        let analytic = ImpedanceProfile::compute(
            &LadderConfig::core2_duo(DecapConfig::proc100()),
            1e5,
            1e9,
            960,
        )
        .unwrap()
        .resonance_period_cycles(chip.clock_hz);
        let (_, windows) = sphinx_windows();
        let mut profiler = Profiler::new(2.5);
        for w in &windows {
            profiler.record("482.sphinx3", w);
        }
        let estimated = profiler
            .estimated_resonance_period_cycles()
            .expect("ringing visible in captured windows");
        let rel = (estimated - analytic).abs() / analytic;
        assert!(
            rel < 0.10,
            "estimated {estimated:.2} vs analytic {analytic:.2} cycles ({:.1}% off)",
            100.0 * rel
        );
    }

    #[test]
    fn labels_aggregate_independently_and_sorted() {
        let (_, windows) = sphinx_windows();
        assert!(windows.len() >= 2);
        let mut profiler = Profiler::new(2.5);
        profiler.record("zeta", &windows[0]);
        profiler.record("alpha", &windows[1]);
        let report = profiler.report();
        let labels: Vec<&str> = report.workloads.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(labels, ["alpha", "zeta"]);
        assert_eq!(report.total_droops, 2);
    }
}

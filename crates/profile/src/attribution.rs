//! Per-droop responsibility scoring.
//!
//! "Specific microarchitectural events … cause large current swings"
//! (Sec. III-B): the closer a stall event fires to the margin
//! crossing, the likelier its current step excited the ringing that
//! crossed the margin. Each lead-in event is weighed by an exponential
//! decay in its distance to the trigger and the weights are normalized
//! per droop, so every droop distributes exactly one unit of
//! responsibility across event kinds (or to "unattributed" when the
//! lead-in was event-free — e.g. a pure activity step).

use vsmooth_chip::DroopWindow;
use vsmooth_uarch::StallEvent;

/// Number of stall-event kinds ([`StallEvent::ALL`]).
pub(crate) const N_EVENTS: usize = 5;

/// Position of `event` in [`StallEvent::ALL`] — the row index used by
/// every per-event array in this crate.
pub(crate) fn event_index(event: StallEvent) -> usize {
    StallEvent::ALL
        .iter()
        .position(|&e| e == event)
        .expect("event in ALL")
}

/// One droop's attribution: how responsibility for the crossing
/// distributes over stall-event kinds.
///
/// `shares` (indexed like [`StallEvent::ALL`]) plus `unattributed`
/// always sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroopAttribution {
    /// Session-absolute cycle of the crossing this scores.
    pub trigger_cycle: u64,
    /// Deepest excursion of the captured window, percent below nominal.
    pub depth_pct: f64,
    /// Normalized responsibility per event kind.
    pub shares: [f64; N_EVENTS],
    /// Responsibility not carried by any lead-in event.
    pub unattributed: f64,
    /// The highest-share event kind (ties break toward the earlier
    /// entry of [`StallEvent::ALL`]); `None` when unattributed.
    pub dominant: Option<StallEvent>,
}

/// Scores one captured window: the lead-in events (those at or before
/// the trigger) weighed by `weight_of` their cycle distance to the
/// trigger, normalized per droop. [`Profiler`](crate::Profiler) weighs
/// with an exponential decay at the τ its `vsmooth-profile-v1` JSON
/// records, memoizing `exp` over the bounded integer lead-in distances,
/// which dominates scoring cost on event-dense windows.
pub(crate) fn attribute_with(
    window: &DroopWindow,
    weight_of: impl Fn(u64) -> f64,
) -> DroopAttribution {
    let mut weights = [0.0f64; N_EVENTS];
    for ev in window.lead_in_events() {
        weights[event_index(ev.event)] += weight_of(window.trigger_cycle - ev.cycle);
    }
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        let mut shares = weights;
        for s in &mut shares {
            *s /= total;
        }
        let dominant = StallEvent::ALL
            .iter()
            .enumerate()
            .max_by(|(i, _), (j, _)| {
                shares[*i]
                    .partial_cmp(&shares[*j])
                    .expect("shares are finite")
                    // Ties break toward the earlier event.
                    .then(j.cmp(i))
            })
            .map(|(_, &e)| e);
        DroopAttribution {
            trigger_cycle: window.trigger_cycle,
            depth_pct: window.depth_pct,
            shares,
            unattributed: 0.0,
            dominant,
        }
    } else {
        DroopAttribution {
            trigger_cycle: window.trigger_cycle,
            depth_pct: window.depth_pct,
            shares: [0.0; N_EVENTS],
            unattributed: 1.0,
            dominant: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::WindowEvent;
    use vsmooth_uarch::PerfCounters;

    /// Scores `window` with an exponential decay of time constant
    /// `tau` cycles.
    fn attribute(window: &DroopWindow, tau: f64) -> DroopAttribution {
        attribute_with(window, |dt| (-(dt as f64) / tau).exp())
    }

    #[test]
    fn only_lead_in_events_are_blamed() {
        let window = DroopWindow {
            trigger_cycle: 100,
            depth_pct: 2.9,
            start_cycle: 90,
            truncated: false,
            voltage_dev_pct: vec![0.0; 20],
            counter_deltas: vec![PerfCounters::new(); 2],
            events: vec![
                WindowEvent {
                    cycle: 98,
                    core: 0,
                    event: StallEvent::L2Miss,
                },
                // After the trigger: it cannot have caused the crossing.
                WindowEvent {
                    cycle: 105,
                    core: 1,
                    event: StallEvent::L1Miss,
                },
            ],
        };
        let att = attribute(&window, 24.0);
        assert_eq!(att.dominant, Some(StallEvent::L2Miss));
        assert!((att.shares.iter().sum::<f64>() + att.unattributed - 1.0).abs() < 1e-12);
    }

    fn window_with(events: Vec<WindowEvent>) -> DroopWindow {
        DroopWindow {
            trigger_cycle: 200,
            depth_pct: 3.0,
            start_cycle: 150,
            truncated: false,
            voltage_dev_pct: vec![0.0; 60],
            counter_deltas: vec![PerfCounters::new(); 2],
            events,
        }
    }

    #[test]
    fn shares_and_unattributed_sum_to_one() {
        let w = window_with(vec![
            WindowEvent {
                cycle: 190,
                core: 0,
                event: StallEvent::L1Miss,
            },
            WindowEvent {
                cycle: 199,
                core: 1,
                event: StallEvent::TlbMiss,
            },
        ]);
        let att = attribute(&w, 24.0);
        let sum: f64 = att.shares.iter().sum::<f64>() + att.unattributed;
        assert!((sum - 1.0).abs() < 1e-12);
        // The closer TLB miss outweighs the earlier L1 miss.
        assert_eq!(att.dominant, Some(StallEvent::TlbMiss));
    }

    #[test]
    fn closer_events_weigh_more() {
        let near = attribute(
            &window_with(vec![
                WindowEvent {
                    cycle: 199,
                    core: 0,
                    event: StallEvent::L2Miss,
                },
                WindowEvent {
                    cycle: 160,
                    core: 0,
                    event: StallEvent::BranchMispredict,
                },
            ]),
            12.0,
        );
        assert!(near.shares[event_index(StallEvent::L2Miss)] > 0.9);
    }

    #[test]
    fn event_free_lead_in_is_unattributed() {
        // A post-trigger event must not be blamed.
        let w = window_with(vec![WindowEvent {
            cycle: 210,
            core: 0,
            event: StallEvent::Exception,
        }]);
        let att = attribute(&w, 24.0);
        assert_eq!(att.unattributed, 1.0);
        assert_eq!(att.dominant, None);
        assert!(att.shares.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn ties_break_toward_earlier_event_order() {
        let w = window_with(vec![
            WindowEvent {
                cycle: 195,
                core: 0,
                event: StallEvent::TlbMiss,
            },
            WindowEvent {
                cycle: 195,
                core: 1,
                event: StallEvent::L1Miss,
            },
        ]);
        let att = attribute(&w, 24.0);
        assert_eq!(att.dominant, Some(StallEvent::L1Miss));
    }
}

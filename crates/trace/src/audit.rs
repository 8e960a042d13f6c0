//! The scheduler decision audit vocabulary.
//!
//! The paper's §VI mitigation argument needs to know *which*
//! co-schedule decision caused a droop. A [`DecisionEvent`] is one
//! typed entry in that causal chain: the service's decision loop
//! records each admission, placement (with its reason code), grant
//! and overflow once, in its epoch script, and the merge layer derives
//! one event per admit/place/grant/shed/demote from that script at
//! replay time, folds them into a bounded ring, and exports the ring
//! as the `vsmooth-audit-v1` JSON artifact (and as trace instants on
//! the jobs timeline).
//!
//! The types live here — not in `vsmooth-serve` — because the obs
//! layer renders decision rings in `/decisions` responses and obs
//! must not depend on serve. Like every trace record, a decision
//! event carries only virtual-cycle timestamps and deterministic
//! fields, so audit artifacts are byte-identical at any shard count.
//! Which shard ran which chip is live execution state and has no
//! decision kind; the per-shard obs sections publish it instead.

use std::fmt;

/// Schema tag of the exported decision-audit JSON artifact.
pub const AUDIT_SCHEMA: &str = "vsmooth-audit-v1";

/// What kind of scheduling decision an audit entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// A job entered the admission queue.
    Admit,
    /// A job was placed onto a chip core.
    Place,
    /// A busy chip was granted its next execution quantum.
    Grant,
    /// A job was shed (rejected) at the bounded admission queue.
    Shed,
    /// A resident job lost its partner and continues solo.
    Demote,
}

impl DecisionKind {
    /// Stable lower-case label used in JSON artifacts and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Admit => "admit",
            Self::Place => "place",
            Self::Grant => "grant",
            Self::Shed => "shed",
            Self::Demote => "demote",
        }
    }
}

impl fmt::Display for DecisionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One scheduler decision, with enough context to reconstruct why the
/// co-schedule looked the way it did when a droop landed.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Scheduling epoch the decision was taken in.
    pub epoch: u64,
    /// Virtual cycle of the decision.
    pub cycle: u64,
    /// Decision kind.
    pub kind: DecisionKind,
    /// Job id the decision concerns, when it concerns one.
    pub job: Option<u64>,
    /// Chip index the decision concerns, when it concerns one.
    pub chip: Option<usize>,
    /// Core index the decision concerns, when it concerns one.
    pub core: Option<usize>,
    /// Reason code (e.g. `arrival`, `pair_resident`, `best_pair`,
    /// `solo`, `queue_overflow`, `quantum`, `partner_finished`).
    pub reason: &'static str,
}

impl DecisionEvent {
    /// Renders the event as one JSON object with fixed key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.push_json(&mut out);
        out
    }

    /// Appends the event's JSON object to `out`.
    pub fn push_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"epoch\":{},\"cycle\":{},\"kind\":\"{}\"",
            self.epoch,
            self.cycle,
            self.kind.label()
        );
        let opt = |out: &mut String, key: &str, v: Option<u64>| {
            match v {
                Some(v) => {
                    let _ = write!(out, ",\"{key}\":{v}");
                }
                None => {
                    let _ = write!(out, ",\"{key}\":null");
                }
            };
        };
        opt(out, "job", self.job);
        opt(out, "chip", self.chip.map(|c| c as u64));
        opt(out, "core", self.core.map(|c| c as u64));
        out.push_str(",\"reason\":\"");
        crate::json::escape_into(self.reason, out);
        out.push_str("\"}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(DecisionKind::Admit.label(), "admit");
        assert_eq!(DecisionKind::Demote.to_string(), "demote");
    }

    #[test]
    fn event_json_has_fixed_shape() {
        let ev = DecisionEvent {
            epoch: 3,
            cycle: 1_800,
            kind: DecisionKind::Place,
            job: Some(7),
            chip: Some(1),
            core: Some(0),
            reason: "best_pair",
        };
        assert_eq!(
            ev.to_json(),
            "{\"epoch\":3,\"cycle\":1800,\"kind\":\"place\",\"job\":7,\
             \"chip\":1,\"core\":0,\"reason\":\"best_pair\"}"
        );
        let shed = DecisionEvent {
            epoch: 0,
            cycle: 0,
            kind: DecisionKind::Shed,
            job: Some(9),
            chip: None,
            core: None,
            reason: "queue_overflow",
        };
        assert!(shed.to_json().contains("\"chip\":null,\"core\":null"));
    }
}

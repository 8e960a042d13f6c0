//! The scheduler decision audit log.
//!
//! With [`ServiceConfig::audit`](crate::ServiceConfig) armed, the
//! merge layer derives a typed [`DecisionEvent`] for every admit,
//! place, grant, shed and demote from the decision loop's epoch script
//! (`epoch_decisions`) and folds them into this bounded ring *at
//! replay time* — in `(epoch, chip)` order, like every other artifact
//! — so the ring's contents at any publish boundary are byte-identical
//! at any shard count. The decision loop records each decision once,
//! in its epoch record, and never builds an audit event itself. The
//! ring exports as the `vsmooth-audit-v1` JSON artifact on the
//! [`ServiceReport`](crate::ServiceReport), rides along in obs
//! snapshots for the `/decisions` endpoint, and (when tracing) lands
//! as `decision` instants on the jobs timeline.
//!
//! Which shard serves which chip is live execution state, so it never
//! appears here; it is published through the per-shard obs section
//! instead.

use std::collections::VecDeque;

use crate::control::EpochRec;
use vsmooth_trace::{DecisionEvent, DecisionKind, AUDIT_SCHEMA};

/// Arms the scheduler decision audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Bounded ring capacity, in decision events. The ring keeps the
    /// freshest `capacity` events; `total` keeps counting.
    pub capacity: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { capacity: 256 }
    }
}

/// The bounded decision ring the merge layer folds into.
#[derive(Debug, Clone)]
pub(crate) struct AuditLog {
    ring: VecDeque<DecisionEvent>,
    total: u64,
    capacity: usize,
}

impl AuditLog {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity.min(1024)),
            total: 0,
            capacity: capacity.max(1),
        }
    }

    /// Appends one event, evicting the oldest when full.
    pub(crate) fn push(&mut self, event: DecisionEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        self.total += 1;
    }

    /// The ring's current contents, oldest first.
    pub(crate) fn events(&self) -> Vec<DecisionEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Seals the ring into the exportable report.
    pub(crate) fn report(&self) -> AuditReport {
        AuditReport {
            events: self.events(),
            total: self.total,
            capacity: self.capacity,
        }
    }
}

/// Derives epoch `rec`'s decisions from its script entry, in the
/// order the decision loop took them: each admission, each placement,
/// then per busy chip its grant and the demotion a finishing core
/// leaves behind, and last the shed that ended the run. Demotions are
/// dated to the end of the quantum, `slice_cycles` after the grant.
pub(crate) fn epoch_decisions(rec: &EpochRec, slice_cycles: u64) -> Vec<DecisionEvent> {
    use DecisionKind::{Admit, Demote, Grant, Place, Shed};
    let (epoch, now) = (rec.index, rec.now);
    let at = |cycle, kind, job, chip, core, reason| DecisionEvent {
        epoch,
        cycle,
        kind,
        job,
        chip,
        core,
        reason,
    };
    let admits =
        (rec.admits.iter()).map(|j| at(j.arrival_cycle, Admit, Some(j.id), None, None, "arrival"));
    let places = (rec.places.iter()).map(|p| {
        at(
            now,
            Place,
            Some(p.spec.id),
            Some(p.chip),
            Some(p.core),
            p.reason,
        )
    });
    let grants = rec.busy.iter().flat_map(|b| {
        // A finishing core that leaves a running partner demotes that
        // partner to solo execution; at most one core per chip can.
        let demote = (0..2).find_map(|core| {
            let (done, partner) = (b.cores[core].as_ref()?, b.cores[1 - core].as_ref()?);
            let (job, chip) = (Some(partner.job), Some(b.chip));
            (done.finishes && !partner.finishes).then(|| {
                at(
                    now + slice_cycles,
                    Demote,
                    job,
                    chip,
                    Some(1 - core),
                    "partner_finished",
                )
            })
        });
        [
            Some(at(now, Grant, None, Some(b.chip), None, "quantum")),
            demote,
        ]
        .into_iter()
        .flatten()
    });
    let shed =
        (rec.overflow).map(|(_, job)| at(now, Shed, Some(job), None, None, "queue_overflow"));
    admits.chain(places).chain(grants).chain(shed).collect()
}

/// The exported decision audit: the final ring contents plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Ring contents at the end of the run, oldest first.
    pub events: Vec<DecisionEvent>,
    /// Decisions recorded over the whole run (≥ `events.len()`).
    pub total: u64,
    /// The configured ring capacity.
    pub capacity: usize,
}

impl AuditReport {
    /// Renders the `vsmooth-audit-v1` JSON artifact: fixed key order,
    /// one event object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{AUDIT_SCHEMA}\",\n"));
        out.push_str(&format!("  \"total\": {},\n", self.total));
        out.push_str(&format!("  \"capacity\": {},\n", self.capacity));
        out.push_str(&format!("  \"returned\": {},\n", self.events.len()));
        out.push_str("  \"events\": [\n");
        for (i, event) in self.events.iter().enumerate() {
            out.push_str("    ");
            event.push_json(&mut out);
            out.push_str(if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(epoch: u64) -> DecisionEvent {
        DecisionEvent {
            epoch,
            cycle: epoch * 600,
            kind: DecisionKind::Grant,
            job: None,
            chip: Some(0),
            core: None,
            reason: "quantum",
        }
    }

    #[test]
    fn decisions_derive_from_the_script_in_decision_order() {
        use crate::control::{BusyChip, CoreSlice, PlaceRec};
        use crate::job::JobSpec;
        let spec = |id, arrival_cycle| JobSpec {
            id,
            workload: "429.mcf".into(),
            arrival_cycle,
        };
        let slice = |job, finishes| {
            Some(CoreSlice {
                job,
                workload: "429.mcf".into(),
                finishes,
            })
        };
        let mut rec = EpochRec::new(4, 2_400);
        rec.admits.push(spec(5, 2_300));
        rec.places.push(PlaceRec {
            spec: spec(5, 2_300),
            chip: 1,
            core: 0,
            reason: "pair_resident",
        });
        rec.busy.push(BusyChip {
            chip: 1,
            cores: [slice(5, false), slice(3, true)],
        });
        let got: Vec<String> = epoch_decisions(&rec, 600)
            .iter()
            .map(DecisionEvent::to_json)
            .collect();
        assert_eq!(
            got,
            [
                r#"{"epoch":4,"cycle":2300,"kind":"admit","job":5,"chip":null,"core":null,"reason":"arrival"}"#,
                r#"{"epoch":4,"cycle":2400,"kind":"place","job":5,"chip":1,"core":0,"reason":"pair_resident"}"#,
                r#"{"epoch":4,"cycle":2400,"kind":"grant","job":null,"chip":1,"core":null,"reason":"quantum"}"#,
                r#"{"epoch":4,"cycle":3000,"kind":"demote","job":5,"chip":1,"core":0,"reason":"partner_finished"}"#,
            ]
        );
        // The shed closes its epoch, after the admissions before it.
        let mut rec = EpochRec::new(0, 0);
        rec.admits.push(spec(7, 0));
        rec.overflow = Some((1, 8));
        let kinds: Vec<_> = epoch_decisions(&rec, 600)
            .iter()
            .map(|d| (d.kind, d.job))
            .collect();
        assert_eq!(
            kinds,
            [
                (DecisionKind::Admit, Some(7)),
                (DecisionKind::Shed, Some(8))
            ]
        );
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_counting() {
        let mut log = AuditLog::new(2);
        for epoch in 0..5 {
            log.push(event(epoch));
        }
        let report = log.report();
        assert_eq!(report.total, 5);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].epoch, 3);
        assert_eq!(report.events[1].epoch, 4);
    }

    #[test]
    fn json_carries_the_schema_and_every_event() {
        let mut log = AuditLog::new(8);
        log.push(event(0));
        log.push(event(1));
        let json = log.report().to_json();
        assert!(json.contains("\"schema\": \"vsmooth-audit-v1\""));
        assert!(json.contains("\"total\": 2"));
        assert_eq!(json.matches("\"kind\":\"grant\"").count(), 2);
    }
}

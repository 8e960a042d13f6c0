//! The scheduler decision audit log.
//!
//! With [`ServiceConfig::audit`](crate::ServiceConfig) armed, the
//! decision loop records a typed [`DecisionEvent`] for every admit,
//! place, grant, shed and demote it takes, and the merge layer folds
//! those events into this bounded ring *at replay time* — in
//! `(epoch, chip)` order, like every other artifact — so the ring's
//! contents at any publish boundary are byte-identical at any shard
//! count. The ring exports as the `vsmooth-audit-v1` JSON artifact on
//! the [`ServiceReport`](crate::ServiceReport), rides along in obs
//! snapshots for the `/decisions` endpoint, and (when tracing) lands
//! as `decision` instants on the jobs timeline.
//!
//! Steals never appear here: which shard serves which token is live
//! execution state, published through the per-shard obs section
//! instead (see [`DecisionKind::Steal`](vsmooth_trace::DecisionKind)).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use vsmooth_trace::{DecisionEvent, AUDIT_SCHEMA};

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

/// The exported decision audit: the final ring contents plus totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    use vsmooth_trace::DecisionKind;

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

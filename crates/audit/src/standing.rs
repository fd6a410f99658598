//! Standing audit queries — long-lived subscriptions over the sealed
//! trail.
//!
//! Production auditors run the same compliance queries continuously;
//! re-planning and re-scanning the whole trail per poll is the exact
//! access pattern the epoch-sealed trail (§4.1) was built to amortize.
//! A standing query is registered **once**
//! ([`crate::cluster::DlaCluster::register_standing`]): the CNF is
//! parsed, normalized and validated up front, and from then on every
//! epoch seal evaluates the query against *only the just-sealed
//! epoch's glsn range* (the plan's
//! [`crate::plan::QueryPlan::glsn_clamp`], run by
//! [`crate::exec::execute_on`] over an ARQ-protected transport) and
//! pushes the incremental
//! [`StandingDelta`] to the subscriber. The accumulated union of
//! deltas equals a fresh [`crate::cluster::DlaCluster::query_shared`]
//! restricted to sealed epochs — proven byte-identical under chaos in
//! `standing_chaos.rs`.
//!
//! Registration after the fact is not a gap: the registry catches a
//! late subscriber up by evaluating every already-sealed epoch, so
//! subscribers converge on the same accumulated answer regardless of
//! when they joined.

use crate::normal::NormalizedQuery;
use dla_logstore::epoch::EpochId;
use dla_logstore::model::Glsn;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a registered standing query, unique per cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct StandingQueryId(pub u64);

impl fmt::Display for StandingQueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQ#{}", self.0)
    }
}

/// One incremental result pushed to a standing query's subscriber when
/// an epoch seals: the satisfying glsns *within that epoch*.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StandingDelta {
    /// The subscribed query.
    pub query: StandingQueryId,
    /// The epoch whose seal triggered this delta.
    pub epoch: EpochId,
    /// Satisfying glsns inside the epoch, sorted ascending. Empty
    /// deltas are delivered too — "nothing new matched" is itself an
    /// auditing signal.
    pub glsns: Vec<Glsn>,
}

/// One registered subscription.
struct StandingEntry {
    criteria: String,
    normalized: NormalizedQuery,
    /// Accumulated union of all delta glsns.
    matches: BTreeSet<Glsn>,
    /// Deltas emitted but not yet drained by the subscriber.
    pending: Vec<StandingDelta>,
    /// Epochs already folded in — the seal path and the registration
    /// catch-up are both idempotent against this set.
    evaluated: BTreeSet<EpochId>,
}

/// The cluster's registry of standing queries. Held by
/// [`crate::cluster::DlaCluster`]; all evaluation is driven from the
/// seal path there — this type only owns subscription state.
#[derive(Default)]
pub struct StandingRegistry {
    next: u64,
    entries: BTreeMap<StandingQueryId, StandingEntry>,
}

impl StandingRegistry {
    /// Registers a parsed-and-normalized query, returning its id.
    pub fn register(&mut self, criteria: &str, normalized: NormalizedQuery) -> StandingQueryId {
        let id = StandingQueryId(self.next);
        self.next += 1;
        self.entries.insert(
            id,
            StandingEntry {
                criteria: criteria.to_owned(),
                normalized,
                matches: BTreeSet::new(),
                pending: Vec::new(),
                evaluated: BTreeSet::new(),
            },
        );
        id
    }

    /// Ids of every registered query, ascending.
    #[must_use]
    pub fn ids(&self) -> Vec<StandingQueryId> {
        self.entries.keys().copied().collect()
    }

    /// Number of registered queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no query is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The original criteria text of `id`.
    #[must_use]
    pub fn criteria(&self, id: StandingQueryId) -> Option<&str> {
        self.entries.get(&id).map(|e| e.criteria.as_str())
    }

    /// The normalized form of `id` (cloned so the seal path can plan
    /// against it while holding `&mut` cluster state).
    #[must_use]
    pub fn normalized(&self, id: StandingQueryId) -> Option<NormalizedQuery> {
        self.entries.get(&id).map(|e| e.normalized.clone())
    }

    /// Whether `id` has already folded `epoch` in.
    #[must_use]
    pub fn evaluated(&self, id: StandingQueryId, epoch: EpochId) -> bool {
        self.entries
            .get(&id)
            .is_some_and(|e| e.evaluated.contains(&epoch))
    }

    /// Records `epoch`'s evaluation outcome for `id`: appends the
    /// pending delta and folds the glsns into the accumulated matches.
    pub fn push_delta(&mut self, id: StandingQueryId, epoch: EpochId, glsns: Vec<Glsn>) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        if !entry.evaluated.insert(epoch) {
            return;
        }
        entry.matches.extend(glsns.iter().copied());
        entry.pending.push(StandingDelta {
            query: id,
            epoch,
            glsns,
        });
    }

    /// Drains the deltas pushed since the last drain, in seal order.
    pub fn drain_deltas(&mut self, id: StandingQueryId) -> Vec<StandingDelta> {
        self.entries
            .get_mut(&id)
            .map(|e| std::mem::take(&mut e.pending))
            .unwrap_or_default()
    }

    /// The accumulated matches of `id` over every evaluated epoch,
    /// sorted ascending.
    #[must_use]
    pub fn matches(&self, id: StandingQueryId) -> Option<Vec<Glsn>> {
        self.entries
            .get(&id)
            .map(|e| e.matches.iter().copied().collect())
    }

    /// Epochs `id` has folded in, ascending.
    #[must_use]
    pub fn evaluated_epochs(&self, id: StandingQueryId) -> Vec<EpochId> {
        self.entries
            .get(&id)
            .map(|e| e.evaluated.iter().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalized(criteria: &str) -> NormalizedQuery {
        let schema = dla_logstore::schema::Schema::paper_example();
        let parsed = crate::parser::parse(criteria, &schema).unwrap();
        crate::normal::normalize(&parsed)
    }

    #[test]
    fn registry_accumulates_and_drains_deltas() {
        let mut reg = StandingRegistry::default();
        let id = reg.register("protocol = 'UDP'", normalized("protocol = 'UDP'"));
        assert_eq!(reg.criteria(id), Some("protocol = 'UDP'"));
        assert!(!reg.evaluated(id, EpochId(0)));

        reg.push_delta(id, EpochId(0), vec![Glsn(3), Glsn(1)]);
        reg.push_delta(id, EpochId(1), vec![Glsn(7)]);
        // Re-pushing an evaluated epoch is ignored (idempotent seals).
        reg.push_delta(id, EpochId(0), vec![Glsn(99)]);

        assert!(reg.evaluated(id, EpochId(0)));
        assert_eq!(reg.matches(id), Some(vec![Glsn(1), Glsn(3), Glsn(7)]));
        assert_eq!(reg.evaluated_epochs(id), vec![EpochId(0), EpochId(1)]);

        let deltas = reg.drain_deltas(id);
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].epoch, EpochId(0));
        assert_eq!(deltas[0].glsns, vec![Glsn(3), Glsn(1)]);
        assert!(reg.drain_deltas(id).is_empty(), "drained once");
        // Accumulated matches survive the drain.
        assert_eq!(reg.matches(id), Some(vec![Glsn(1), Glsn(3), Glsn(7)]));
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut reg = StandingRegistry::default();
        let a = reg.register("c1 > 5", normalized("c1 > 5"));
        let b = reg.register("c1 > 9", normalized("c1 > 9"));
        assert_ne!(a, b);
        assert_eq!(reg.ids(), vec![a, b]);
        assert_eq!(reg.len(), 2);
        assert_eq!(a.to_string(), "SQ#0");
    }
}

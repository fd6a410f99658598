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
//! restricted to sealed epochs — checked after every op of the
//! generated histories in `tests/history.rs`.
//!
//! A subscription is owed every sealed epoch after its last delta, and
//! one catch-up pays what is owed, epoch by epoch: at registration (a
//! late subscriber converges on the answer of one registered at
//! genesis), after each seal, and after any evaluation that failed. Its
//! deltas thus cover the sealed epochs up to some point with no hole.
//! A registration whose catch-up fails is forgotten again.

use crate::normal::NormalizedQuery;
use dla_logstore::epoch::EpochId;
use dla_logstore::model::Glsn;
use std::collections::BTreeMap;
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
    /// The sealed epoch the delta covers.
    pub epoch: EpochId,
    /// Satisfying glsns inside the epoch, sorted ascending. Empty
    /// deltas are delivered too — "nothing new matched" is itself an
    /// auditing signal.
    pub glsns: Vec<Glsn>,
}

/// What one subscription has been told.
struct Subscription {
    query: NormalizedQuery,
    /// Every delta, in epoch order: one for each sealed epoch up to
    /// some point, never a hole.
    deltas: Vec<StandingDelta>,
    /// How many of `deltas` the subscriber has drained.
    drained: usize,
}

impl Subscription {
    /// The first epoch it is owed: the one after its last delta.
    fn owed_from(&self) -> EpochId {
        (self.deltas.last()).map_or(EpochId(0), |d| EpochId(d.epoch.0 + 1))
    }
}

/// The cluster's ledger of standing queries and what each has been
/// told. Held by [`crate::cluster::DlaCluster`], which evaluates what
/// [`StandingRegistry::owed`] names and folds the answers back in.
#[derive(Default)]
pub(crate) struct StandingRegistry {
    next: u64,
    entries: BTreeMap<StandingQueryId, Subscription>,
}

impl StandingRegistry {
    /// Registers a normalized query, owed every sealed epoch.
    pub(crate) fn register(&mut self, query: NormalizedQuery) -> StandingQueryId {
        let id = StandingQueryId(self.next);
        self.next += 1;
        self.entries.insert(
            id,
            Subscription {
                query,
                deltas: Vec::new(),
                drained: 0,
            },
        );
        id
    }

    /// Forgets `id` and everything it was told. Ids are never reused.
    pub(crate) fn forget(&mut self, id: StandingQueryId) {
        self.entries.remove(&id);
    }

    /// The first epoch some query is owed; `None` with nothing
    /// registered.
    pub(crate) fn owed_from(&self) -> Option<EpochId> {
        self.entries.values().map(Subscription::owed_from).min()
    }

    /// What is owed, given the `sealed` epochs in order (those from
    /// [`StandingRegistry::owed_from`] on suffice): each query is owed
    /// every one after its last delta. Epoch-major, then by ascending
    /// id.
    pub(crate) fn owed(
        &self,
        sealed: impl Iterator<Item = EpochId>,
    ) -> Vec<(StandingQueryId, EpochId, &NormalizedQuery)> {
        let owed = sealed.flat_map(|epoch| {
            (self.entries.iter())
                .filter(move |(_, s)| s.owed_from() <= epoch)
                .map(move |(id, s)| (*id, epoch, &s.query))
        });
        owed.collect()
    }

    /// Folds in the answer `glsns` (sorted) of `id` over `epoch`, the
    /// first epoch [`StandingRegistry::owed`] named for it.
    pub(crate) fn fold(&mut self, id: StandingQueryId, epoch: EpochId, glsns: Vec<Glsn>) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.deltas.push(StandingDelta {
                query: id,
                epoch,
                glsns,
            });
        }
    }

    /// Every delta of `id`, in epoch order.
    pub(crate) fn deltas(&self, id: StandingQueryId) -> &[StandingDelta] {
        self.entries.get(&id).map_or(&[], |e| &e.deltas)
    }

    /// The deltas of `id` not drained before, in epoch order.
    pub(crate) fn drain(&mut self, id: StandingQueryId) -> Vec<StandingDelta> {
        let Some(entry) = self.entries.get_mut(&id) else {
            return Vec::new();
        };
        let fresh = entry.deltas[entry.drained..].to_vec();
        entry.drained = entry.deltas.len();
        fresh
    }

    /// The accumulated matches of `id`, sorted ascending: its deltas'
    /// glsns in turn, since the epochs are disjoint glsn ranges.
    pub(crate) fn matches(&self, id: StandingQueryId) -> Option<Vec<Glsn>> {
        let entry = self.entries.get(&id)?;
        let glsns = entry.deltas.iter().flat_map(|d| &d.glsns);
        Some(glsns.copied().collect())
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

    fn epochs(range: std::ops::Range<u64>) -> impl Iterator<Item = EpochId> {
        range.map(EpochId)
    }

    #[test]
    fn a_query_is_owed_every_sealed_epoch_after_its_last_delta() {
        let mut reg = StandingRegistry::default();
        let a = reg.register(normalized("protocol = 'UDP'"));
        reg.fold(a, EpochId(0), vec![Glsn(1), Glsn(3)]);
        let b = reg.register(normalized("c1 > 5"));
        let owed: Vec<_> = (reg.owed(epochs(0..2)).into_iter())
            .map(|(id, epoch, _)| (id, epoch))
            .collect();
        // Epoch-major, then by ascending id; `a` was told epoch 0.
        assert_eq!(owed, [(b, EpochId(0)), (a, EpochId(1)), (b, EpochId(1))]);
        assert_eq!(reg.owed_from(), Some(EpochId(0)));
        reg.fold(b, EpochId(0), vec![]);
        reg.fold(a, EpochId(1), vec![Glsn(7)]);
        reg.fold(b, EpochId(1), vec![Glsn(6)]);
        assert!(reg.owed(epochs(0..2)).is_empty());
        assert_eq!(reg.owed_from(), Some(EpochId(2)));
        assert_eq!(reg.matches(a), Some(vec![Glsn(1), Glsn(3), Glsn(7)]));
    }

    #[test]
    fn a_drain_moves_a_cursor_and_keeps_the_deltas() {
        let mut reg = StandingRegistry::default();
        let id = reg.register(normalized("protocol = 'UDP'"));
        reg.fold(id, EpochId(0), vec![Glsn(1)]);
        reg.fold(id, EpochId(1), vec![]);
        let drained = reg.drain(id);
        assert_eq!(
            drained.iter().map(|d| d.epoch).collect::<Vec<_>>(),
            [EpochId(0), EpochId(1)]
        );
        assert!(reg.drain(id).is_empty(), "drained once");
        reg.fold(id, EpochId(2), vec![Glsn(9)]);
        assert_eq!(reg.drain(id)[0].epoch, EpochId(2));
        assert_eq!(reg.deltas(id).len(), 3, "a drain deletes nothing");
        assert_eq!(reg.matches(id), Some(vec![Glsn(1), Glsn(9)]));
    }

    #[test]
    fn a_forgotten_query_is_owed_nothing_and_its_id_is_not_reused() {
        let mut reg = StandingRegistry::default();
        let a = reg.register(normalized("c1 > 5"));
        reg.forget(a);
        assert!(reg.owed(epochs(0..3)).is_empty());
        assert_eq!(reg.owed_from(), None);
        assert_eq!(reg.matches(a), None);
        let b = reg.register(normalized("c1 > 9"));
        assert_ne!(a, b);
        assert_eq!(b.to_string(), "SQ#1");
    }
}

//! What the auditor engine keeps of the answers revealed to it.
//!
//! A sealed epoch is immutable and committed, so the part of an answer
//! that lies inside one is the same every time it is asked for. The
//! auditor engine — the party the final `∩ₛ` reveals the conjunction to,
//! and the only party an answer reaches (paper §2, Fig. 3) — keeps each
//! revealed answer in a [`KeptResults`], per `(query, sealed epoch)`
//! under a [`QueryKey`] (`DlaCluster::kept`, read by `exec::execute_on`),
//! and the executor then runs the plan only over the epochs no entry
//! covers.
//!
//! The entries are the engine's own view and nothing more: memory only,
//! never journaled, never sent. An entry is stamped with the store
//! revision of every node it was computed from
//! ([`dla_logstore::store::FragmentStore::revision`]) and is dropped by
//! the first lookup that finds one of them moved.

use crate::normal::Clause;
use crate::plan::{QueryPlan, TimeWindow};
use dla_logstore::epoch::EpochId;
use dla_logstore::model::Glsn;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// `(query, sealed epoch)` answers the engine keeps; past it the query
/// touched longest ago loses its oldest epochs.
const MAX_ENTRIES: usize = 1024;

/// Sealed epochs one query keeps, the newest: a trail longer than the
/// cap must not let one query flush every other each time it is asked.
const MAX_PER_QUERY: usize = MAX_ENTRIES / 4;

/// One clause of a [`QueryKey`]: the normalized clause as planned over
/// one participating node set. The clause is compared as the structure
/// it is — every attribute, operator and constant, in the literal order
/// the steps were laid out in — never as text, which two clauses can
/// share (`id = "U2' OR id = 'U3"` prints like a disjunction of two);
/// the node set is the partition in force as far as this clause can
/// see it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ClauseKey {
    clause: Clause,
    nodes: Vec<usize>,
}

/// What a kept answer answers: a whole query as planned — every
/// clause in plan order, each with the node set it was planned on,
/// compared structurally — minus its single-literal `time θ const`
/// conjuncts ([`crate::plan::Subquery::time_bound`]).
/// Those bounds are not part of *what* was asked of an epoch but of
/// *whether the epoch may be served*: a sealed epoch whose every
/// deposit is timed inside all of them answers the bounded query and
/// the bound-less one alike, and any other epoch is asked in full, time
/// clause and all. So a window sliding over one rule hits on every
/// interior epoch.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryKey(Vec<ClauseKey>);

impl QueryKey {
    /// The key of `plan` and the time bounds left out of it, or `None`
    /// for a query that is nothing but time bounds: with no clause left
    /// an answer would be stamped with no store's revision.
    pub(crate) fn split(plan: &QueryPlan) -> Option<(Self, Vec<TimeWindow>)> {
        let mut clauses = Vec::new();
        let mut bounds = Vec::new();
        for subquery in &plan.subqueries {
            match subquery.time_bound() {
                Some(bound) => bounds.push(bound),
                None => clauses.push(ClauseKey {
                    clause: subquery.clause.clone(),
                    nodes: subquery.nodes().into_iter().collect(),
                }),
            }
        }
        (!clauses.is_empty()).then_some((QueryKey(clauses), bounds))
    }

    /// Every node a clause of the key was planned on, ascending: the
    /// stores an answer under this key was computed from.
    pub(crate) fn nodes(&self) -> BTreeSet<usize> {
        let nodes = self.0.iter().flat_map(|clause| &clause.nodes);
        nodes.copied().collect()
    }
}

/// One query's kept answers.
#[derive(Debug)]
struct Kept {
    /// Store revisions of the query's nodes, ascending, read before the
    /// run that produced the answers.
    revisions: Vec<u64>,
    touched: u64,
    epochs: BTreeMap<EpochId, Vec<Glsn>>,
}

/// The answers the auditor engine keeps, per query and sealed epoch.
#[derive(Debug, Default)]
pub struct KeptResults {
    /// No query is here without an epoch to its name.
    asked: HashMap<QueryKey, Kept>,
    clock: u64,
}

impl KeptResults {
    /// `(query, sealed epoch)` answers currently kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.asked.values().map(|k| k.epochs.len()).sum()
    }

    /// Whether nothing is kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.asked.is_empty()
    }

    /// Forgets everything: the next run of every query is a cold one.
    pub fn clear(&mut self) {
        self.asked.clear();
    }

    /// The per-epoch answers kept for `key`, if they were computed from
    /// the query's stores as they stand (`revisions`); answers from any
    /// other revision are dropped on the spot.
    pub(crate) fn lookup(
        &mut self,
        key: &QueryKey,
        revisions: &[u64],
    ) -> Option<&BTreeMap<EpochId, Vec<Glsn>>> {
        if self.asked.get(key)?.revisions != revisions {
            self.asked.remove(key);
            return None;
        }
        self.clock += 1;
        let kept = self.asked.get_mut(key)?;
        kept.touched = self.clock;
        Some(&kept.epochs)
    }

    /// Files `answers` — one per sealed epoch of a revealed answer —
    /// under `key` at `revisions`, replacing whatever another revision
    /// left there; no answers, no entry. The query keeps its newest
    /// [`MAX_PER_QUERY`] epochs; past [`MAX_ENTRIES`] the query touched
    /// longest ago loses its oldest epochs, and goes once it has none.
    pub(crate) fn file(
        &mut self,
        key: QueryKey,
        revisions: &[u64],
        answers: impl IntoIterator<Item = (EpochId, Vec<Glsn>)>,
    ) {
        let mut answers = answers.into_iter().peekable();
        if answers.peek().is_none() {
            return;
        }
        self.clock += 1;
        let kept = self.asked.entry(key).or_insert_with(|| Kept {
            revisions: revisions.to_vec(),
            touched: 0,
            epochs: BTreeMap::new(),
        });
        if kept.revisions != revisions {
            kept.revisions = revisions.to_vec();
            kept.epochs.clear();
        }
        kept.touched = self.clock;
        kept.epochs.extend(answers);
        while kept.epochs.len() > MAX_PER_QUERY {
            kept.epochs.pop_first();
        }
        let mut over = self.len().saturating_sub(MAX_ENTRIES);
        while over > 0 {
            let (key, oldest) = (self.asked.iter_mut())
                .min_by_key(|(_, kept)| kept.touched)
                .expect("over the cap means at least one query");
            while over > 0 && oldest.epochs.pop_first().is_some() {
                over -= 1;
            }
            if oldest.epochs.is_empty() {
                let key = key.clone();
                self.asked.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_logstore::schema::Schema;

    /// The key of a one-clause query planned over `nodes`.
    fn key(text: &str, nodes: &[usize]) -> QueryKey {
        let schema = Schema::paper_example();
        let normalized = crate::plan::compile(text, &schema).unwrap();
        let clause = normalized.clauses()[0].clone();
        let nodes = nodes.to_vec();
        QueryKey(vec![ClauseKey { clause, nodes }])
    }

    fn sets(epochs: std::ops::Range<u64>) -> impl Iterator<Item = (EpochId, Vec<Glsn>)> {
        epochs.map(|e| (EpochId(e), vec![Glsn(e)]))
    }

    #[test]
    fn a_lookup_needs_the_same_clause_nodes_and_revisions() {
        let mut kept = KeptResults::default();
        let filed = key("c1 > 40 OR id = 'U2'", &[0, 1]);
        kept.file(filed.clone(), &[3, 5], sets(0..2));
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.lookup(&filed, &[3, 5]).map(BTreeMap::len), Some(2));
        // Another constant, another literal order, another node set.
        for other in [
            key("c1 > 41 OR id = 'U2'", &[0, 1]),
            key("id = 'U2' OR c1 > 40", &[0, 1]),
            key("c1 > 40 OR id = 'U2'", &[0, 2]),
        ] {
            assert!(kept.lookup(&other, &[3, 5]).is_none(), "{other:?}");
        }
        // A participant's store moved: the entry is gone, not skipped.
        assert!(kept.lookup(&filed, &[3, 6]).is_none());
        assert!(kept.is_empty());
    }

    #[test]
    fn clauses_that_print_alike_are_kept_apart() {
        // One constant holding a quote and an ` OR `, against the two
        // literals it spells.
        let three = "c1 > 40 OR id = 'U2' OR id = 'U3'";
        let two = r#"c1 > 40 OR id = "U2' OR id = 'U3""#;
        let schema = Schema::paper_example();
        let text = |q| crate::plan::compile(q, &schema).unwrap().to_string();
        assert_eq!(text(three), text(two));

        let mut kept = KeptResults::default();
        kept.file(key(three, &[0, 1]), &[0, 0], sets(0..2));
        assert!(kept.lookup(&key(two, &[0, 1]), &[0, 0]).is_none());
        assert!(kept.lookup(&key(three, &[0, 1]), &[0, 0]).is_some());
    }

    #[test]
    fn filing_at_a_new_revision_replaces_the_query() {
        let mut kept = KeptResults::default();
        let filed = key("c1 > 40 OR id = 'U2'", &[0, 1]);
        kept.file(filed.clone(), &[0, 0], sets(0..4));
        kept.file(filed.clone(), &[0, 1], sets(4..5));
        let epochs = kept.lookup(&filed, &[0, 1]).unwrap();
        assert_eq!(epochs.keys().copied().collect::<Vec<_>>(), [EpochId(4)]);
    }

    #[test]
    fn filing_nothing_keeps_nothing() {
        // A window with no whole sealed epoch in it, asked under ever
        // new constants: no entry, so nothing the cap does not count.
        let mut kept = KeptResults::default();
        for c in 0..8 {
            let asked = key(&format!("c1 > {c} OR id = 'U1'"), &[0, 1]);
            kept.file(asked.clone(), &[0, 0], sets(0..0));
            assert!(kept.lookup(&asked, &[0, 0]).is_none());
        }
        assert!(kept.is_empty());
        assert_eq!(kept.len(), 0);
    }

    #[test]
    fn the_cap_takes_the_oldest_epochs_of_the_query_touched_longest_ago() {
        let mut kept = KeptResults::default();
        let share = MAX_PER_QUERY as u64;
        let queries: Vec<QueryKey> = (0..=MAX_ENTRIES / MAX_PER_QUERY)
            .map(|c| key(&format!("c1 > {c} OR id = 'U1'"), &[0, 1]))
            .collect();
        let (newcomer, filling) = queries.split_last().unwrap();
        for query in filling {
            kept.file(query.clone(), &[0, 0], sets(0..share));
        }
        assert_eq!(kept.len(), MAX_ENTRIES);
        // The first is used again, so the second is the one that pays,
        // and no more than the newcomer needs: its two oldest epochs.
        assert!(kept.lookup(&filling[0], &[0, 0]).is_some());
        kept.file(newcomer.clone(), &[0, 0], sets(0..2));
        let left = kept.lookup(&filling[1], &[0, 0]).unwrap();
        assert_eq!(left.keys().next(), Some(&EpochId(2)));
        assert_eq!(left.len() as u64, share - 2);
        // The third is now the one touched longest ago: it pays for the
        // rest of the newcomer, and goes with its last epoch.
        kept.file(newcomer.clone(), &[0, 0], sets(2..share));
        kept.file(filling[1].clone(), &[0, 0], sets(0..2));
        assert!(kept.lookup(&filling[2], &[0, 0]).is_none());
        for whole in [&filling[0], &filling[1], &filling[3], newcomer] {
            let left = kept.lookup(whole, &[0, 0]).map(BTreeMap::len);
            assert_eq!(left, Some(MAX_PER_QUERY));
        }
        assert_eq!(kept.len(), MAX_ENTRIES);
    }

    #[test]
    fn a_trail_longer_than_a_query_may_keep_costs_that_query_alone() {
        let mut kept = KeptResults::default();
        let (short, long) = (
            key("c1 > 1 OR id = 'U1'", &[0, 1]),
            key("c1 > 2 OR id = 'U1'", &[0, 1]),
        );
        let trail = 2 * MAX_ENTRIES as u64;
        kept.file(short.clone(), &[0, 0], sets(0..4));
        kept.file(long.clone(), &[0, 0], sets(0..trail));
        let newest = EpochId(trail - MAX_PER_QUERY as u64);
        // Asked again, the long query files what it lost and loses it
        // again; the other query is not what pays.
        for _ in 0..2 {
            let left = kept.lookup(&long, &[0, 0]).unwrap();
            assert_eq!(left.len(), MAX_PER_QUERY);
            assert_eq!(left.keys().next(), Some(&newest));
            assert_eq!(kept.lookup(&short, &[0, 0]).map(BTreeMap::len), Some(4));
            kept.file(long.clone(), &[0, 0], sets(0..newest.0));
        }
        assert_eq!(kept.len(), MAX_PER_QUERY + 4);
    }
}

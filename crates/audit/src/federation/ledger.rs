//! The root's history as one ledger: the global accumulator over the
//! published ring checkpoints and their cross-ring endorsements, the
//! global deposit order, and the standing deltas relayed to the
//! collector. [`RootLedger`] states each rule of it once and does no
//! I/O: each transition is an `admit` that reads the rings' own chains
//! and logs, then an apply that cannot fail.

use super::{FederatedCluster, FederatedStandingDelta, RootVerdict};
use crate::cluster::DlaCluster;
use crate::standing::StandingQueryId;
use crate::AuditError;
use dla_bigint::Ubig;
use dla_crypto::accumulator::{AccumulatorParams, RingCheckpoint, RingEndorsement};
use dla_logstore::epoch::EpochId;
use dla_logstore::model::Glsn;
use dla_net::wire::{Reader, Writer};
use std::collections::{BTreeMap, BTreeSet};

/// A standing delta as a ring relays it: ring-local glsns, under the
/// federation-level query id.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct RingDelta {
    query: StandingQueryId,
    ring: u64,
    epoch: EpochId,
    glsns: Vec<Glsn>,
}

impl RingDelta {
    /// `query ‖ ring ‖ epoch ‖ glsns`, big-endian.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.query.0)
            .put_u64(self.ring)
            .put_u64(self.epoch.0);
        w.put_list(&self.glsns, |w, g| {
            w.put_u64(g.0);
        });
        w.into_vec()
    }

    /// Decodes a [`RingDelta::encode`] blob; `None` on any mismatch.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let delta = RingDelta {
            query: StandingQueryId(r.get_u64().ok()?),
            ring: r.get_u64().ok()?,
            epoch: EpochId(r.get_u64().ok()?),
            glsns: r.get_list(|r| r.get_u64().map(Glsn)).ok()?,
        };
        r.finish().ok().map(|()| delta)
    }
}

/// One federation-level standing subscription: each ring's
/// registration id, and the deltas archived in relay order.
struct Subscription {
    ring_ids: Vec<StandingQueryId>,
    archive: Vec<FederatedStandingDelta>,
}

/// The root ledger: no transport, ring or clock. What a ring has had
/// archived is counted in the archive itself; no cursor can disagree.
pub(crate) struct RootLedger {
    params: AccumulatorParams,
    /// The global accumulator over `published`.
    acc: Ubig,
    /// Publications in fold order, and the endorsement of each.
    published: Vec<RingCheckpoint>,
    endorsements: Vec<RingEndorsement>,
    /// glsn → global deposit index; the index's length is the next one.
    record_index: BTreeMap<Glsn, u64>,
    standing: BTreeMap<StandingQueryId, Subscription>,
    next_standing: u64,
}

/// The one rule every archived entry obeys: `record`'s own ring's chain
/// holds it, and `endorsement` covers exactly it, by the next ring,
/// whose chain upholds it. Returns the two halves.
fn entry_holds(
    rings: &[DlaCluster],
    record: &RingCheckpoint,
    endorsement: &RingEndorsement,
) -> (bool, bool) {
    let chain = |ring: u64| rings.get(ring as usize).map(DlaCluster::checkpoint_chain);
    let own = chain(record.ring).is_some_and(|c| c.endorses(&record.checkpoint));
    let endorser = (record.ring + 1) % rings.len() as u64;
    let endorsed = endorsement.subject == *record
        && endorsement.endorser == endorser
        && chain(endorser).is_some_and(|c| c.upholds(endorsement));
    (own, endorsed)
}

impl RootLedger {
    /// An empty root.
    pub(crate) fn new() -> Self {
        let params = AccumulatorParams::fixed_512();
        RootLedger {
            acc: params.start().clone(),
            params,
            published: Vec::new(),
            endorsements: Vec::new(),
            record_index: BTreeMap::new(),
            standing: BTreeMap::new(),
            next_standing: 0,
        }
    }

    /// `ring`'s next checkpoint to publish, if its chain holds one.
    pub(crate) fn next_publication(
        &self,
        rings: &[DlaCluster],
        ring: usize,
    ) -> Option<RingCheckpoint> {
        let done = self
            .published
            .iter()
            .filter(|p| p.ring == ring as u64)
            .count();
        let checkpoint = rings[ring].checkpoint_chain().iter().nth(done)?.clone();
        Some(RingCheckpoint {
            ring: ring as u64,
            checkpoint,
        })
    }

    /// Refuses a publication from `ring` that is not its next
    /// checkpoint, or an entry that breaks the rule of [`entry_holds`].
    pub(crate) fn admit_publish(
        &self,
        rings: &[DlaCluster],
        ring: usize,
        entry: (&RingCheckpoint, &RingEndorsement),
    ) -> Result<(), AuditError> {
        let next = self.next_publication(rings, ring);
        if next.as_ref() == Some(entry.0) && entry_holds(rings, entry.0, entry.1) == (true, true) {
            return Ok(());
        }
        let refusal = format!("ring {ring}'s publication is not what the rings' chains hold");
        Err(AuditError::Integrity(refusal))
    }

    /// Folds an admitted publication into the global accumulator and
    /// archives it with its endorsement.
    pub(crate) fn publish(&mut self, record: RingCheckpoint, endorsement: RingEndorsement) {
        self.acc = self.params.fold(&self.acc, &record.root_item());
        self.published.push(record);
        self.endorsements.push(endorsement);
    }

    /// Gives each committed glsn not yet indexed the next deposit index.
    pub(crate) fn index(&mut self, glsns: impl IntoIterator<Item = Glsn>) {
        for glsn in glsns {
            let next = self.record_index.len() as u64;
            self.record_index.entry(glsn).or_insert(next);
        }
    }

    /// Maps glsns to their global deposit indices, sorted.
    pub(crate) fn identify(&self, glsns: &[Glsn]) -> Result<Vec<u64>, AuditError> {
        let index = |glsn: &Glsn| {
            let missing = || format!("glsn {glsn:?} has no federated deposit index");
            let index = self.record_index.get(glsn).copied();
            index.ok_or_else(|| AuditError::Integrity(missing()))
        };
        let mut records = glsns.iter().map(index).collect::<Result<Vec<u64>, _>>()?;
        records.sort_unstable();
        Ok(records)
    }

    /// Opens a subscription over the rings' registrations `ring_ids`.
    pub(crate) fn subscribe(&mut self, ring_ids: Vec<StandingQueryId>) -> StandingQueryId {
        let id = StandingQueryId(self.next_standing);
        self.next_standing += 1;
        let archive = Vec::new();
        self.standing.insert(id, Subscription { ring_ids, archive });
        id
    }

    /// Forgets subscription `id`; its id is not given out again.
    pub(crate) fn forget(&mut self, id: StandingQueryId) {
        self.standing.remove(&id);
    }

    /// The next delta `ring` owes, lowest subscription id first: the
    /// entry of its own standing log after the ones archived from it.
    pub(crate) fn owed(&self, rings: &[DlaCluster], ring: usize) -> Option<RingDelta> {
        self.standing.iter().find_map(|(&query, s)| {
            let done = s.archive.iter().filter(|d| d.ring == ring as u64).count();
            let delta = rings[ring].standing_log(s.ring_ids[ring]).get(done)?;
            Some(RingDelta {
                query,
                ring: ring as u64,
                epoch: delta.epoch,
                glsns: delta.glsns.clone(),
            })
        })
    }

    /// Refuses a delta from `ring` that is not the one it owes next —
    /// same subscription, ring, epoch and glsns — and resolves an
    /// admitted one to deposit indices.
    pub(crate) fn admit_relay(
        &self,
        rings: &[DlaCluster],
        ring: usize,
        delta: &RingDelta,
    ) -> Result<FederatedStandingDelta, AuditError> {
        if self.owed(rings, ring).as_ref() != Some(delta) {
            let refusal = format!("ring {ring}'s delta is not the one its log owes next");
            return Err(AuditError::Integrity(refusal));
        }
        Ok(FederatedStandingDelta {
            query: delta.query,
            ring: delta.ring,
            epoch: delta.epoch,
            records: self.identify(&delta.glsns)?,
        })
    }

    /// Archives a delta `admit_relay` resolved.
    pub(crate) fn relay(&mut self, delta: FederatedStandingDelta) {
        // `admit_relay` found the subscription.
        let subscription = self.standing.entry(delta.query);
        subscription.and_modify(|s| s.archive.push(delta));
    }
}

/// The root's reads, beside the ledger they read.
impl FederatedCluster {
    /// The global accumulator over published sub-ring checkpoints.
    #[must_use]
    pub fn root_accumulator(&self) -> &Ubig {
        &self.ledger.acc
    }

    /// Publications in fold order.
    #[must_use]
    pub fn published(&self) -> &[RingCheckpoint] {
        &self.ledger.published
    }

    /// Cross-ring endorsements, parallel to [`FederatedCluster::published`].
    #[must_use]
    pub fn endorsements(&self) -> &[RingEndorsement] {
        &self.ledger.endorsements
    }

    /// Total records deposited across the federation.
    #[must_use]
    pub fn records_deposited(&self) -> u64 {
        self.ledger.record_index.len() as u64
    }

    /// The deposit index of `glsn`, if it was logged through this
    /// federation.
    #[must_use]
    pub fn deposit_index(&self, glsn: Glsn) -> Option<u64> {
        self.ledger.record_index.get(&glsn).copied()
    }

    /// The root collector's archive of relayed deltas for `id`, in
    /// relay order.
    #[must_use]
    pub fn standing_deltas(&self, id: StandingQueryId) -> &[FederatedStandingDelta] {
        let subscription = self.ledger.standing.get(&id);
        subscription.map_or(&[], |s| s.archive.as_slice())
    }

    /// The accumulated federation-wide matches of `id`: the union of
    /// every relayed delta's records, sorted by global deposit index —
    /// directly comparable to [`super::FederatedQueryResult::records`].
    #[must_use]
    pub fn standing_matches(&self, id: StandingQueryId) -> Option<Vec<u64>> {
        let archive = &self.ledger.standing.get(&id)?.archive;
        let records: BTreeSet<u64> = archive.iter().flat_map(|d| d.records.clone()).collect();
        Some(records.into_iter().collect())
    }

    /// The root accumulator cross-check against a *presented* set of
    /// checkpoints: re-folds `presented` in order from `x₀` and
    /// compares with the collector's global accumulator. A tampered,
    /// dropped or extra checkpoint changes the fold (an order does not:
    /// the fold is quasi-commutative) — this is how an auditor holding
    /// only the root accumulator value detects a sub-ring rewriting its
    /// published history.
    #[must_use]
    pub fn verify_presented(&self, presented: &[RingCheckpoint]) -> bool {
        let items: Vec<Vec<u8>> = presented.iter().map(RingCheckpoint::root_item).collect();
        let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
        // Eq. 9 collapses the refold ladder into one fixed-base power
        // of x₀ — same value, one table walk per cross-check.
        self.ledger.params.accumulate_batch(&refs) == self.ledger.acc
    }

    /// The full root-ring cross-check, the root ledger's own: the
    /// archived publications refold to the global accumulator, and
    /// every archived entry still obeys the rule the collector admitted
    /// it by (`entry_holds`) against the rings' chains as they are now —
    /// its ring's own chain holds the publication, and the next ring's
    /// chain upholds the endorsement that covers exactly it.
    #[must_use]
    pub fn check_root(&self) -> RootVerdict {
        let (published, endorsements) = (&self.ledger.published, &self.ledger.endorsements);
        let entries = published.iter().zip(endorsements);
        let holds: Vec<(bool, bool)> = entries
            .map(|(p, e)| entry_holds(&self.rings, p, e))
            .collect();
        RootVerdict {
            fold_ok: self.verify_presented(published),
            chains_ok: holds.iter().all(|h| h.0),
            endorsements_ok: published.len() == endorsements.len() && holds.iter().all(|h| h.1),
        }
    }
}

//! The audit trail (§4.1) as one ledger: every deposit, the per-epoch
//! accumulators they fold into, and the hash chain checkpointing each
//! sealed epoch. [`Trail`] states each rule of it once and does no I/O;
//! [`crate::cluster::DlaCluster`] calls it around the journal and nodes.

use crate::integrity::TrailVerdict;
use crate::plan::TimeWindow;
use crate::AuditError;
use dla_bigint::Ubig;
use dla_crypto::accumulator::{AccumulatorParams, CheckpointChain};
use dla_crypto::schnorr::{SchnorrPublicKey, Signature};
use dla_logstore::epoch::{EpochId, EpochPolicy};
use dla_logstore::model::Glsn;
use dla_net::wire::{Reader, Writer};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::OnceLock;

/// The glsn extent of no deposit: inverted, so a scan sees nothing.
const EMPTY_EXTENT: (Glsn, Glsn) = (Glsn(1), Glsn(0));

/// Running per-epoch statistics kept by the trail: deposit count,
/// glsn/time extents (the epoch-pruning index), and the epoch's own
/// accumulator over its deposit items.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// The epoch.
    pub epoch: EpochId,
    /// Deposits assigned to this epoch.
    pub deposits: u64,
    /// Smallest glsn deposited (`Glsn(u64::MAX)` while empty).
    pub glsn_lo: Glsn,
    /// Largest glsn deposited (`Glsn(0)` while empty).
    pub glsn_hi: Glsn,
    /// Smallest `time` attribute among the epoch's records, if any
    /// carried one.
    pub time_lo: Option<u64>,
    /// Largest `time` attribute among the epoch's records.
    pub time_hi: Option<u64>,
    /// Deposits that carried a `time` attribute; when it equals
    /// `deposits`, `[time_lo, time_hi]` bounds *every* record.
    pub timed: u64,
    /// The fold of the epoch's trail items from `x₀`; checkpointed on
    /// seal.
    pub acc: Ubig,
    /// Whether the chain holds the epoch's checkpoint (no further
    /// deposit lands in it). Only `Trail::seal` sets it.
    pub sealed: bool,
}

impl EpochStats {
    /// Whether every deposit of the epoch carries a `time` inside
    /// `window` — what has to hold before anything remembered of the
    /// whole epoch (a cached partial, a kept answer) may stand in for a
    /// query bounded by `window`.
    #[must_use]
    pub fn timed_within(&self, window: &TimeWindow) -> bool {
        let extent = self.time_lo.zip(self.time_hi);
        self.timed == self.deposits && extent.is_some_and(|(lo, hi)| window.covers(lo, hi))
    }

    /// Whether a query confined to `window` has to look at the epoch:
    /// always for an unbounded window, else when its time extent meets
    /// it (a record without a time satisfies no time predicate, §5).
    #[must_use]
    pub fn touches(&self, window: &TimeWindow) -> bool {
        let extent = self.time_lo.zip(self.time_hi);
        window.is_unbounded() || extent.is_some_and(|(lo, hi)| window.intersects(lo, hi))
    }

    fn open(epoch: EpochId, acc0: Ubig) -> Self {
        EpochStats {
            epoch,
            deposits: 0,
            glsn_lo: Glsn(u64::MAX),
            glsn_hi: Glsn(0),
            time_lo: None,
            time_hi: None,
            timed: 0,
            acc: acc0,
            sealed: false,
        }
    }

    fn observe(&mut self, glsn: Glsn, time: Option<u64>) {
        self.deposits += 1;
        self.glsn_lo = self.glsn_lo.min(glsn);
        self.glsn_hi = self.glsn_hi.max(glsn);
        if let Some(t) = time {
            self.timed += 1;
            self.time_lo = Some(self.time_lo.map_or(t, |lo| lo.min(t)));
            self.time_hi = Some(self.time_hi.map_or(t, |hi| hi.max(t)));
        }
    }
}

/// The trail item folded into its epoch's accumulator for one
/// deposit: domain-tagged `glsn ‖ deposit` bytes.
pub(crate) fn trail_item(glsn: Glsn, deposit: &Ubig) -> Vec<u8> {
    let mut out = Vec::with_capacity(80);
    out.extend_from_slice(b"dla-trail-item");
    out.extend_from_slice(&glsn.0.to_be_bytes());
    out.extend_from_slice(&deposit.to_bytes_be());
    out
}

/// The trail ledger. It holds no journal, node, clock or transport.
pub struct Trail {
    params: AccumulatorParams,
    policy: EpochPolicy,
    /// One record per deposit: the value the nodes were handed, signed.
    deposits: BTreeMap<Glsn, DepositRecord>,
    /// Per-epoch stats: pruning index + running epoch accumulators.
    epochs: BTreeMap<EpochId, EpochStats>,
    /// Hash-linked checkpoints of sealed epochs' accumulator digests.
    chain: CheckpointChain,
    /// Epochs whose seal record is journaled but not yet applied: no
    /// batch closes them again, and `seal` takes them out.
    closed: BTreeSet<EpochId>,
    /// [`Trail::accumulator`], forgotten by every change to `deposits`.
    accumulator: OnceLock<Ubig>,
}

impl Trail {
    /// An empty trail under `params`, sharded into epochs by `policy`.
    pub(crate) fn new(params: AccumulatorParams, policy: EpochPolicy) -> Self {
        Trail {
            params,
            policy,
            deposits: BTreeMap::new(),
            epochs: BTreeMap::new(),
            chain: CheckpointChain::new(),
            closed: BTreeSet::new(),
            accumulator: OnceLock::new(),
        }
    }

    /// Whether `epoch` admits no deposit: sealed, or its seal journaled.
    fn is_closed(&self, epoch: EpochId) -> bool {
        self.closed.contains(&epoch) || self.epochs.get(&epoch).is_some_and(|s| s.sealed)
    }

    /// Refuses a batch that repeats a glsn — of the trail or its own —
    /// or deposits into a closed epoch.
    pub(crate) fn admit(&self, batch: &[DepositRecord]) -> Result<(), AuditError> {
        let mut seen = BTreeSet::new();
        for record in batch {
            let epoch = self.policy.epoch_of(record.glsn);
            if self.is_closed(epoch)
                || self.deposits.contains_key(&record.glsn)
                || !seen.insert(record.glsn)
            {
                return Err(AuditError::Config(format!(
                    "deposit {} repeats a glsn or lands in closed epoch {epoch}",
                    record.glsn
                )));
            }
        }
        Ok(())
    }

    /// The epochs `batch` closes: every one not yet closed below the
    /// largest observed, which is the open epoch (glsns are monotonic).
    pub(crate) fn closes(&self, batch: &[DepositRecord]) -> BTreeSet<EpochId> {
        let open = (self.epochs.values()).filter(|s| !s.sealed && !self.closed.contains(&s.epoch));
        let mut closing: BTreeSet<EpochId> = (open.map(|s| s.epoch))
            .chain(batch.iter().map(|d| self.policy.epoch_of(d.glsn)))
            .collect();
        closing.pop_last();
        closing
    }

    /// Absorbs a batch `admit` accepted, once the journal holds it and
    /// the seal records of `closing`: keeps its records, folds them into
    /// their epochs (one fold an epoch), and marks `closing` closed.
    pub(crate) fn absorb(&mut self, batch: Vec<DepositRecord>, closing: BTreeSet<EpochId>) {
        self.closed.extend(closing);
        self.accumulator.take();
        let mut groups: BTreeMap<EpochId, Vec<Vec<u8>>> = BTreeMap::new();
        for record in batch {
            let epoch = self.policy.epoch_of(record.glsn);
            self.stats_mut(epoch).observe(record.glsn, record.time);
            let item = trail_item(record.glsn, &record.deposit);
            groups.entry(epoch).or_default().push(item);
            self.deposits.insert(record.glsn, record);
        }
        for (epoch, items) in groups {
            let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
            let stats = self.epochs.get_mut(&epoch).expect("opened above");
            stats.acc = (self.params)
                .fold_batch(std::slice::from_ref(&stats.acc), &refs)
                .pop()
                .expect("one accumulator in, one out");
        }
    }

    /// Refuses to seal `epoch` at or below the last sealed one.
    pub(crate) fn check_seal(&self, epoch: EpochId) -> Result<(), AuditError> {
        if self.chain.iter().last().is_some_and(|c| c.epoch >= epoch.0) {
            return Err(AuditError::Config(format!(
                "epoch {epoch} sealed out of order"
            )));
        }
        Ok(())
    }

    /// The lowest closed epoch still to seal.
    pub(crate) fn next_to_seal(&self) -> Option<EpochId> {
        self.closed.first().copied()
    }

    /// Seals `epoch`, which `check_seal` passed, in one step: sets the
    /// flag and checkpoints its digest and item count with the nodes'
    /// `aggregates`. Returns the item count.
    pub(crate) fn seal(&mut self, epoch: EpochId, aggregates: [u8; 32]) -> u64 {
        self.closed.remove(&epoch);
        let stats = self.stats_mut(epoch);
        stats.sealed = true;
        let (items, digest) = (stats.deposits, stats.acc.clone());
        self.chain
            .seal_with_aggregates(epoch.0, items, digest, aggregates);
        items
    }

    /// The stats of `epoch`, opened at `x₀` on first touch.
    fn stats_mut(&mut self, epoch: EpochId) -> &mut EpochStats {
        let start = self.params.start();
        (self.epochs)
            .entry(epoch)
            .or_insert_with(|| EpochStats::open(epoch, start.clone()))
    }

    /// The accumulator parameters (§4.1).
    #[must_use]
    pub fn params(&self) -> &AccumulatorParams {
        &self.params
    }

    /// The epoch sharding policy in force.
    #[must_use]
    pub fn epoch_policy(&self) -> EpochPolicy {
        self.policy
    }

    /// The whole record of the deposit of `glsn`.
    pub(crate) fn record(&self, glsn: Glsn) -> Option<&DepositRecord> {
        self.deposits.get(&glsn)
    }

    /// Every glsn with a deposit, ascending.
    #[must_use]
    pub fn logged_glsns(&self) -> Vec<Glsn> {
        self.deposits.keys().copied().collect()
    }

    /// The glsns with a deposit above `floor` (all for `None`), ascending.
    pub(crate) fn logged_above(
        &self,
        floor: Option<Glsn>,
    ) -> impl DoubleEndedIterator<Item = Glsn> + '_ {
        let from = floor.map_or(Bound::Unbounded, Bound::Excluded);
        self.deposits
            .range((from, Bound::Unbounded))
            .map(|(&glsn, _)| glsn)
    }

    /// The number of deposits in the trail.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.deposits.len() as u64
    }

    /// Iterates the per-epoch stats in epoch order.
    pub fn epoch_stats(&self) -> impl Iterator<Item = &EpochStats> {
        self.epochs.values()
    }

    /// The stats of one epoch, once a deposit or a seal opened it.
    #[must_use]
    pub fn epoch_stat(&self, epoch: EpochId) -> Option<&EpochStats> {
        self.epochs.get(&epoch)
    }

    /// The sealed epochs — those the chain checkpoints — in order.
    pub fn sealed_epochs(&self) -> impl Iterator<Item = &EpochStats> {
        self.sealed_from(EpochId(0))
    }

    /// The sealed epochs from `from` on, in order.
    pub(crate) fn sealed_from(&self, from: EpochId) -> impl Iterator<Item = &EpochStats> {
        self.epochs
            .range(from..)
            .map(|(_, s)| s)
            .filter(|s| s.sealed)
    }

    /// The glsn extent of `epoch`'s deposits; inverted if it has none.
    #[must_use]
    pub fn extent(&self, epoch: EpochId) -> (Glsn, Glsn) {
        match self.epochs.get(&epoch) {
            Some(s) if s.deposits > 0 => (s.glsn_lo, s.glsn_hi),
            _ => EMPTY_EXTENT,
        }
    }

    /// The hash-linked chain of sealed-epoch checkpoints.
    #[must_use]
    pub fn checkpoint_chain(&self) -> &CheckpointChain {
        &self.chain
    }

    /// The whole-trail accumulator `x₀^{∏ yᵢ}` (Eq. 9), one power on the
    /// first read after a change. Nothing verifies against it.
    #[must_use]
    pub fn accumulator(&self) -> &Ubig {
        self.accumulator.get_or_init(|| {
            let items: Vec<Vec<u8>> = (self.deposits.values())
                .map(|record| trail_item(record.glsn, &record.deposit))
                .collect();
            self.params.accumulate(items.iter().map(Vec::as_slice))
        })
    }

    /// The glsn range a scan confined to `window` has to cover: the
    /// union of the extents of the epochs it touches; `None` for an
    /// unbounded window.
    #[must_use]
    pub fn glsn_window_for(&self, window: &TimeWindow) -> Option<(Glsn, Glsn)> {
        if window.is_unbounded() {
            return None;
        }
        let touched = self.epochs.values().filter(|s| s.touches(window));
        let union = (touched.map(|s| (s.glsn_lo, s.glsn_hi)))
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)));
        Some(union.unwrap_or(EMPTY_EXTENT))
    }

    /// Windowed verification: the checkpoint chain's links, then the
    /// epochs `window` touches refolded against their claims in **one**
    /// random-linear-combination batch (`x₀^{Σ rⱼEⱼ} = ∏ digestⱼ^{rⱼ}`),
    /// plus coverage for an unbounded window. The chain binds the rest.
    #[must_use]
    pub fn check_window(&self, window: &TimeWindow) -> TrailVerdict {
        let chain_ok = self.chain.verify_links();
        let mut ok = chain_ok;
        let mut epochs_checked = 0;
        let mut items_folded = 0u64;
        let mut claims: Vec<(Ubig, Ubig)> = Vec::new();
        for stats in self.epochs.values().filter(|s| s.touches(window)) {
            let extent =
                (stats.deposits > 0).then(|| self.deposits.range(stats.glsn_lo..=stats.glsn_hi));
            let items: Vec<Vec<u8>> = (extent.into_iter().flatten())
                .map(|(glsn, record)| trail_item(*glsn, &record.deposit))
                .collect();
            let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
            let exponent = self.params.batch_exponent(&refs);
            epochs_checked += 1;
            items_folded += refs.len() as u64;
            // An epoch's claim: a sealed one its checkpoint's digest and
            // item count, the open one its running accumulator.
            let digest = match self.chain.get(stats.epoch.0) {
                Some(cp) => {
                    ok &= cp.items == refs.len() as u64;
                    &cp.digest
                }
                None => &stats.acc,
            };
            claims.push((digest.clone(), exponent));
        }
        ok &= self.params.batch_verify(&claims);
        if window.is_unbounded() {
            ok &= items_folded == self.items();
        }
        TrailVerdict {
            ok,
            chain_ok,
            epochs_checked,
            items_folded,
        }
    }
}

/// One deposit as the cluster journal records it and the trail keeps
/// it: the accumulator value, the origin attestation over it (§4.1
/// non-repudiation: the user signed the value that binds every
/// fragment) and the record's time, if it carried one.
#[derive(Clone)]
pub(crate) struct DepositRecord {
    pub(crate) glsn: Glsn,
    pub(crate) deposit: Ubig,
    pub(crate) public: SchnorrPublicKey,
    pub(crate) signature: Signature,
    pub(crate) time: Option<u64>,
}

impl DepositRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.glsn.0)
            .put_bytes(&self.deposit.to_bytes_be())
            .put_bytes(&self.public.to_bytes())
            .put_bytes(&self.signature.e.to_bytes_be())
            .put_bytes(&self.signature.s.to_bytes_be());
        // Appended after the original fields so pre-epoch blobs stay
        // decodable.
        w.put_u8(u8::from(self.time.is_some()));
        if let Some(t) = self.time {
            w.put_u64(t);
        }
        w.finish().to_vec()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, AuditError> {
        let mut r = Reader::new(bytes);
        let parse = |e: dla_net::wire::WireError| AuditError::Config(format!("deposit blob: {e}"));
        let glsn = Glsn(r.get_u64().map_err(parse)?);
        // Each integer in its one encoding: distinct blobs never decode
        // to one record.
        let mut uint = || r.get_minimal_uint().map(Ubig::from_bytes_be).map_err(parse);
        let deposit = uint()?;
        let public = SchnorrPublicKey::from_element(uint()?);
        let e = uint()?;
        let s = uint()?;
        // Legacy blobs end here; current ones carry a time presence flag.
        let time = if r.remaining() == 0 {
            None
        } else {
            match r.get_u8().map_err(parse)? {
                0 => None,
                1 => Some(r.get_u64().map_err(parse)?),
                flag => {
                    return Err(AuditError::Config(format!(
                        "deposit blob: time flag {flag} is neither 0 nor 1"
                    )))
                }
            }
        };
        r.finish().map_err(parse)?;
        Ok(DepositRecord {
            glsn,
            deposit,
            public,
            signature: Signature { e, s },
            time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trail {
        /// Test hook: rewrites the stored deposit for `glsn` without
        /// touching accumulators or checkpoints — a compromised deposit
        /// map for the windowed-verification tests.
        pub(crate) fn tamper_deposit_for_tests(&mut self, glsn: Glsn, deposit: Ubig) {
            self.accumulator.take();
            let template = self.deposits.values().next().expect("a deposit").clone();
            self.deposits
                .entry(glsn)
                .or_insert(DepositRecord { glsn, ..template })
                .deposit = deposit;
        }

        /// Test hook: rewrites an unsealed epoch's running accumulator —
        /// the digest its claim is checked against — leaving the deposits
        /// it was folded from alone.
        pub(crate) fn forge_epoch_digest_for_tests(&mut self, epoch: EpochId, digest: Ubig) {
            self.epochs.get_mut(&epoch).expect("epoch observed").acc = digest;
        }
    }

    /// A deposit blob as the journal holds it, with `tail` in place of
    /// the time flag and time.
    fn deposit_blob(tail: &[u8]) -> Vec<u8> {
        let record = DepositRecord {
            glsn: Glsn(0x139aef),
            deposit: Ubig::from_u64(0xdead_beef),
            public: SchnorrPublicKey::from_element(Ubig::from_u64(5)),
            signature: Signature {
                e: Ubig::from_u64(7),
                s: Ubig::from_u64(11),
            },
            time: None,
        };
        let mut blob = record.encode();
        assert_eq!(blob.pop(), Some(0), "the encoding ends in its time flag");
        blob.extend_from_slice(tail);
        blob
    }

    #[test]
    fn a_deposit_blob_with_time_flag_0_carries_no_time() {
        let record = DepositRecord::decode(&deposit_blob(&[0])).unwrap();
        assert_eq!((record.glsn, record.time), (Glsn(0x139aef), None));
    }

    #[test]
    fn a_deposit_blob_with_time_flag_1_carries_its_time() {
        let mut tail = vec![1];
        tail.extend_from_slice(&42u64.to_be_bytes());
        let record = DepositRecord::decode(&deposit_blob(&tail)).unwrap();
        assert_eq!(record.time, Some(42));
        assert_eq!(
            DepositRecord::decode(&record.encode()).unwrap().time,
            Some(42)
        );
    }

    #[test]
    fn a_deposit_blob_with_any_other_time_flag_is_refused() {
        for flag in [2u8, 0x80, 0xff] {
            let err = DepositRecord::decode(&deposit_blob(&[flag])).err();
            assert!(matches!(err, Some(AuditError::Config(_))), "flag {flag}");
        }
    }

    #[test]
    fn a_deposit_blob_with_a_leading_zero_in_any_integer_is_refused() {
        // deposit_blob's four integers, the `padded` one behind a zero.
        let blob = |padded: Option<usize>| {
            let mut w = Writer::new();
            w.put_u64(0x139aef);
            for (i, int) in [0xdead_beef, 5, 7, 11].into_iter().enumerate() {
                let mut bytes = Ubig::from_u64(int).to_bytes_be();
                if padded == Some(i) {
                    bytes.insert(0, 0);
                }
                w.put_bytes(&bytes);
            }
            w.put_u8(0);
            w.finish().to_vec()
        };
        assert_eq!(blob(None), deposit_blob(&[0]));
        assert!(DepositRecord::decode(&blob(None)).is_ok());
        for i in 0..4 {
            let err = DepositRecord::decode(&blob(Some(i))).err();
            assert!(matches!(err, Some(AuditError::Config(_))), "integer {i}");
        }
    }

    #[test]
    fn a_legacy_deposit_blob_without_a_time_flag_still_decodes() {
        let record = DepositRecord::decode(&deposit_blob(&[])).unwrap();
        assert_eq!((record.glsn, record.time), (Glsn(0x139aef), None));
    }

    #[test]
    fn a_deposit_blob_with_time_flag_1_and_a_truncated_time_is_refused() {
        for cut in 0..8 {
            let mut tail = vec![1];
            tail.extend_from_slice(&42u64.to_be_bytes()[..cut]);
            let err = DepositRecord::decode(&deposit_blob(&tail)).err();
            assert!(
                matches!(err, Some(AuditError::Config(_))),
                "{cut} time bytes"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn deposit_blob_decoding_never_panics(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..160),
            cut in 0usize..=160,
        ) {
            let _ = DepositRecord::decode(&bytes);
            // And near-valid input: a real blob cut short or run on.
            let mut blob = deposit_blob(&[1, 0, 0, 0, 0, 0, 0, 0, 9]);
            blob.truncate(cut);
            let _ = DepositRecord::decode(&blob);
            blob.extend_from_slice(&bytes);
            let _ = DepositRecord::decode(&blob);
        }
    }
}

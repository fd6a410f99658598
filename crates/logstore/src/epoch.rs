//! Epoch sharding of the log trail.
//!
//! The paper's §4.1 integrity circulation folds the *entire* trail into
//! one accumulator, so verification is O(total trail) even for a narrow
//! audit window. Sharding the glsn space into fixed-length **epochs**
//! (cf. Crosby & Wallach's tamper-evident logging and the checkpoint
//! trees of Certificate Transparency) lets a sealed epoch be summarized
//! once — its accumulator digest chained to the previous seal — so a
//! windowed audit folds only the epochs it overlaps.
//!
//! The epoch of a record is a pure function of its glsn, fixed at
//! deposit time by the allocator: `epoch = (glsn - base) / length`.
//! Every node therefore agrees on epoch membership without any extra
//! coordination.

use crate::model::{AttrName, Glsn};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one epoch of the glsn space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EpochId(pub u64);

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Maps glsns to epochs: `epoch = (glsn - base) / length`. Glsns below
/// `base` (there are none in a well-formed trail — the allocator starts
/// at `base`) saturate into epoch 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochPolicy {
    base: u64,
    length: u64,
}

impl EpochPolicy {
    /// A policy carving the glsn space from `base` into epochs of
    /// `length` glsns. `length` is clamped to at least 1.
    #[must_use]
    pub fn new(base: Glsn, length: u64) -> Self {
        EpochPolicy {
            base: base.0,
            length: length.max(1),
        }
    }

    /// The default policy: epochs of 1024 glsns starting at the paper's
    /// first glsn (`0x139aef78`). Long enough that small workloads stay
    /// within the open epoch.
    #[must_use]
    pub fn paper_default() -> Self {
        EpochPolicy::new(Glsn(0x139a_ef78), 1024)
    }

    /// Epoch length in glsns.
    #[must_use]
    pub fn length(&self) -> u64 {
        self.length
    }

    /// First glsn of epoch 0.
    #[must_use]
    pub fn base(&self) -> Glsn {
        Glsn(self.base)
    }

    /// The epoch containing `glsn`.
    #[must_use]
    pub fn epoch_of(&self, glsn: Glsn) -> EpochId {
        EpochId(glsn.0.saturating_sub(self.base) / self.length)
    }

    /// The inclusive glsn range `[lo, hi]` covered by `epoch`.
    #[must_use]
    pub fn glsn_range(&self, epoch: EpochId) -> (Glsn, Glsn) {
        let lo = self
            .base
            .saturating_add(epoch.0.saturating_mul(self.length));
        let hi = lo.saturating_add(self.length - 1);
        (Glsn(lo), Glsn(hi))
    }
}

impl Default for EpochPolicy {
    fn default() -> Self {
        EpochPolicy::paper_default()
    }
}

/// A running (count, total) pair for one numeric attribute. `total`
/// is the sum of raw `Int`/`Fixed2` values (hundredths for fixed-point)
/// over the contributing fragments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NumericPartial {
    /// Fragments that carried the attribute.
    pub count: u64,
    /// Sum of the raw values.
    pub total: i64,
}

impl NumericPartial {
    /// Folds one more value in.
    pub fn observe(&mut self, value: i64) {
        self.count += 1;
        self.total = self.total.wrapping_add(value);
    }
}

/// One equality bucket's partial: how many of the epoch's fragments
/// carry `attr = value`, plus the sums of every *co-resident* numeric
/// attribute over exactly those fragments (co-resident: stored in the
/// same fragment, i.e. served by the same node — a cross-node sum still
/// goes through the secure-sum pipeline).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BucketPartial {
    /// Fragments matching the bucket's equality predicate.
    pub count: u64,
    /// Per numeric attribute, its sum over the matching fragments.
    pub sums: BTreeMap<AttrName, NumericPartial>,
}

/// Materialized aggregate partials for one epoch at one node, computed
/// from the node's own fragments at seal time: the per-predicate-bucket
/// counts and sums a windowed aggregate combines instead of rescanning
/// the epoch. Buckets are the text-valued equality predicates
/// (`attr = 'value'`) actually present in the data; numeric attributes
/// additionally contribute whole-epoch totals.
///
/// The journal records only *that* an epoch materialized (blob `0x14`,
/// the epoch id); [`crate::store::FragmentStore::restore`] recomputes
/// the values as it replays. The cluster folds a digest of every node's
/// partials into the epoch's sealed checkpoint so a cached answer is
/// integrity-checked, never trusted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochPartials {
    /// The epoch the partials summarize.
    pub epoch: EpochId,
    /// Fragments folded in (the node's own fragments in the epoch).
    pub fragments: u64,
    /// Whole-epoch totals per numeric attribute.
    pub totals: BTreeMap<AttrName, NumericPartial>,
    /// Equality buckets: `(attr, text value)` → partial.
    pub buckets: BTreeMap<(AttrName, String), BucketPartial>,
}

impl EpochPartials {
    /// Empty partials for `epoch`.
    #[must_use]
    pub fn empty(epoch: EpochId) -> Self {
        EpochPartials {
            epoch,
            fragments: 0,
            totals: BTreeMap::new(),
            buckets: BTreeMap::new(),
        }
    }

    /// The bucket partial for `attr = value`, if any fragment matched.
    #[must_use]
    pub fn bucket(&self, attr: &AttrName, value: &str) -> Option<&BucketPartial> {
        self.buckets.get(&(attr.clone(), value.to_owned()))
    }

    /// Canonical byte encoding (big-endian throughout):
    /// `epoch ‖ fragments ‖ totals ‖ buckets`, every map
    /// length-prefixed and iterated in key order so equal partials
    /// encode identically. Hashed into the epoch's aggregate commitment;
    /// nothing decodes it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        fn put_name(out: &mut Vec<u8>, name: &AttrName) {
            let bytes = name.as_str().as_bytes();
            out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
            out.extend_from_slice(bytes);
        }
        fn put_numeric(out: &mut Vec<u8>, p: &NumericPartial) {
            out.extend_from_slice(&p.count.to_be_bytes());
            out.extend_from_slice(&p.total.to_be_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&self.epoch.0.to_be_bytes());
        out.extend_from_slice(&self.fragments.to_be_bytes());
        out.extend_from_slice(&(self.totals.len() as u32).to_be_bytes());
        for (name, partial) in &self.totals {
            put_name(&mut out, name);
            put_numeric(&mut out, partial);
        }
        out.extend_from_slice(&(self.buckets.len() as u32).to_be_bytes());
        for ((name, value), bucket) in &self.buckets {
            put_name(&mut out, name);
            out.extend_from_slice(&(value.len() as u32).to_be_bytes());
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(&bucket.count.to_be_bytes());
            out.extend_from_slice(&(bucket.sums.len() as u32).to_be_bytes());
            for (sum_name, partial) in &bucket.sums {
                put_name(&mut out, sum_name);
                put_numeric(&mut out, partial);
            }
        }
        out
    }
}

/// Per-epoch bookkeeping a [`crate::store::FragmentStore`] maintains:
/// how many fragments landed in the epoch, the glsn extremes actually
/// observed, whether the epoch has been sealed (no further deposits
/// admitted; its accumulator digest is checkpointed cluster-side), and
/// — once sealed — the materialized aggregate partials cached for
/// windowed queries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochManifest {
    /// The epoch this manifest describes.
    pub epoch: EpochId,
    /// Fragments stored in this epoch (own fragments only).
    pub fragments: u64,
    /// Smallest glsn ever stored in the epoch (a delete does not shrink
    /// the extent).
    pub glsn_lo: Glsn,
    /// Largest glsn ever stored in the epoch.
    pub glsn_hi: Glsn,
    /// Whether the epoch is sealed. Sealing is recorded in the node's
    /// journal, so it survives [`crate::store::FragmentStore::restore`].
    pub sealed: bool,
    /// Materialized aggregate partials, populated at seal time
    /// ([`crate::store::FragmentStore::materialize_partials`]) and kept
    /// equal to `compute_partials` by every later write or delete, live
    /// and on replay. `None` until materialized.
    pub partials: Option<EpochPartials>,
}

impl EpochManifest {
    /// A manifest for a freshly opened epoch with one fragment at
    /// `glsn`.
    #[must_use]
    pub fn opened_at(epoch: EpochId, glsn: Glsn) -> Self {
        EpochManifest {
            epoch,
            fragments: 1,
            glsn_lo: glsn,
            glsn_hi: glsn,
            sealed: false,
            partials: None,
        }
    }

    /// Records one more fragment at `glsn`.
    pub fn observe(&mut self, glsn: Glsn) {
        self.fragments += 1;
        self.glsn_lo = self.glsn_lo.min(glsn);
        self.glsn_hi = self.glsn_hi.max(glsn);
    }
}

/// Ring-scoped glsn namespacing for the hierarchical federation: ring
/// `r` owns the half-open span `[base + r·span, base + (r+1)·span)`,
/// so every federated deposit carries a globally unique glsn and any
/// glsn maps back to its owning ring without coordination — the same
/// pure-function trick [`EpochPolicy`] plays one level down for
/// epochs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RingNamespace {
    base: u64,
    span: u64,
}

impl RingNamespace {
    /// A namespace carving the glsn space from `base` into per-ring
    /// spans of `span` glsns. `span` is clamped to at least 1.
    #[must_use]
    pub fn new(base: Glsn, span: u64) -> Self {
        RingNamespace {
            base: base.0,
            span: span.max(1),
        }
    }

    /// The default namespace: spans of 2³² glsns starting at the
    /// paper's first glsn — room for four billion deposits per ring
    /// before spans could collide.
    #[must_use]
    pub fn paper_default() -> Self {
        RingNamespace::new(Glsn(0x139a_ef78), 1 << 32)
    }

    /// Span width in glsns.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The first glsn of ring `ring`'s span (its allocator start and
    /// epoch-policy base).
    #[must_use]
    pub fn base_of(&self, ring: u64) -> Glsn {
        Glsn(self.base.saturating_add(ring.saturating_mul(self.span)))
    }

    /// The ring owning `glsn`, or `None` for glsns below the namespace
    /// base (none exist in a well-formed federated trail).
    #[must_use]
    pub fn ring_of(&self, glsn: Glsn) -> Option<u64> {
        glsn.0
            .checked_sub(self.base)
            .map(|offset| offset / self.span)
    }

    /// The epoch policy ring `ring` runs: epochs of `epoch_length`
    /// glsns carved from the ring's own span base, so each sub-ring's
    /// epoch numbering starts at 0 exactly as a standalone cluster's
    /// does.
    #[must_use]
    pub fn policy_for(&self, ring: u64, epoch_length: u64) -> EpochPolicy {
        EpochPolicy::new(self.base_of(ring), epoch_length)
    }
}

impl Default for RingNamespace {
    fn default() -> Self {
        RingNamespace::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_of_partitions_the_glsn_space() {
        let policy = EpochPolicy::new(Glsn(100), 10);
        assert_eq!(policy.epoch_of(Glsn(100)), EpochId(0));
        assert_eq!(policy.epoch_of(Glsn(109)), EpochId(0));
        assert_eq!(policy.epoch_of(Glsn(110)), EpochId(1));
        assert_eq!(policy.epoch_of(Glsn(345)), EpochId(24));
        // Below base saturates to epoch 0 rather than underflowing.
        assert_eq!(policy.epoch_of(Glsn(5)), EpochId(0));
    }

    #[test]
    fn glsn_range_is_inclusive_and_consistent_with_epoch_of() {
        let policy = EpochPolicy::new(Glsn(0x139a_ef78), 16);
        for e in [0u64, 1, 7, 100] {
            let (lo, hi) = policy.glsn_range(EpochId(e));
            assert_eq!(hi.0 - lo.0 + 1, 16);
            assert_eq!(policy.epoch_of(lo), EpochId(e));
            assert_eq!(policy.epoch_of(hi), EpochId(e));
            assert_eq!(policy.epoch_of(Glsn(hi.0 + 1)), EpochId(e + 1));
        }
    }

    #[test]
    fn zero_length_is_clamped() {
        let policy = EpochPolicy::new(Glsn(0), 0);
        assert_eq!(policy.length(), 1);
        assert_eq!(policy.epoch_of(Glsn(3)), EpochId(3));
    }

    #[test]
    fn ring_namespace_partitions_and_inverts() {
        let ns = RingNamespace::new(Glsn(1000), 100);
        assert_eq!(ns.base_of(0), Glsn(1000));
        assert_eq!(ns.base_of(3), Glsn(1300));
        assert_eq!(ns.ring_of(Glsn(1000)), Some(0));
        assert_eq!(ns.ring_of(Glsn(1099)), Some(0));
        assert_eq!(ns.ring_of(Glsn(1100)), Some(1));
        assert_eq!(ns.ring_of(Glsn(999)), None);
        // Per-ring epoch policies re-base so every ring's epochs count
        // from 0 over its own span.
        let policy = ns.policy_for(2, 10);
        assert_eq!(policy.base(), Glsn(1200));
        assert_eq!(policy.epoch_of(Glsn(1215)), EpochId(1));
        // Zero span is clamped; defaults line up with the paper base.
        assert_eq!(RingNamespace::new(Glsn(0), 0).span(), 1);
        assert_eq!(
            RingNamespace::default().base_of(0),
            EpochPolicy::paper_default().base()
        );
    }

    #[test]
    fn partials_encoding_is_canonical() {
        let mut partials = EpochPartials::empty(EpochId(7));
        partials.fragments = 3;
        partials
            .totals
            .entry(AttrName::new("c2"))
            .or_default()
            .observe(2345);
        partials
            .totals
            .entry(AttrName::new("c2"))
            .or_default()
            .observe(-11);
        let bucket = partials
            .buckets
            .entry((AttrName::new("id"), "U3".to_owned()))
            .or_default();
        bucket.count = 2;
        bucket
            .sums
            .entry(AttrName::new("c2"))
            .or_default()
            .observe(34511);

        let bytes = partials.encode();
        // The epoch id leads — the eight bytes a journal marker keeps.
        assert_eq!(bytes[..8], 7u64.to_be_bytes());
        // Equal partials encode identically (canonical map order), and
        // any difference shows.
        assert_eq!(bytes, partials.clone().encode());
        partials.fragments += 1;
        assert_ne!(bytes, partials.encode());
    }

    #[test]
    fn manifest_tracks_extremes() {
        let mut m = EpochManifest::opened_at(EpochId(2), Glsn(25));
        m.observe(Glsn(21));
        m.observe(Glsn(29));
        assert_eq!(m.fragments, 3);
        assert_eq!(m.glsn_lo, Glsn(21));
        assert_eq!(m.glsn_hi, Glsn(29));
        assert!(!m.sealed);
    }
}

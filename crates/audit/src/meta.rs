//! Cluster-level meta-audit trail: "who audits the auditor".
//!
//! The cluster journals its own privileged actions — deposits accepted,
//! users registered, re-replications performed, degraded-mode decisions
//! taken by the resilient executor — as [`MetaRecord`]s chained with the
//! system's SHA-256: `h_i = H(h_{i-1} ‖ encode(i, record_i))`, from
//! `h = H(GENESIS_TAG)`. Each link hashes the record *bound to its
//! position* ([`MetaRecord::encode_at`]), so an operator holding the
//! chain head can hand the journal to a third party and have
//! truncation, reordering or rewriting of the cluster's activity history
//! detected: a presented sequence that reproduces the head is the
//! genuine one unless SHA-256 collides.

use crate::AuditError;
use dla_crypto::sha256::{self, Digest, Sha256};

/// Domain-separation prefix hashed into the genesis head.
const GENESIS_TAG: &[u8] = b"dla-meta-audit-v1";

/// One cluster-level action in the meta-audit trail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaRecord {
    /// Position in the journal (assigned on append, starting at 0).
    pub seq: u64,
    /// Virtual time of the action in nanoseconds.
    pub at_ns: u64,
    /// Acting component ("cluster", "node3", "executor", ...).
    pub actor: String,
    /// Action class ("deposit", "rereplicate", "degraded-replan", ...).
    pub action: String,
    /// Free-form detail (glsn, survivor set, ...).
    pub detail: String,
}

impl MetaRecord {
    /// Canonical byte encoding of the record *at position `index`*.
    ///
    /// The index parameter — not `self.seq` — is bound into the
    /// preimage, so verification derives positions from the journal
    /// order it was handed, and a reordered journal cannot re-present
    /// consistent encodings.
    #[must_use]
    pub fn encode_at(&self, index: u64) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(32 + self.actor.len() + self.action.len() + self.detail.len());
        out.extend_from_slice(&index.to_be_bytes());
        out.extend_from_slice(&self.at_ns.to_be_bytes());
        for field in [&self.actor, &self.action, &self.detail] {
            out.extend_from_slice(&(field.len() as u32).to_be_bytes());
            out.extend_from_slice(field.as_bytes());
        }
        out
    }
}

/// The head after `record`, appended at `index` to a chain at `prev`.
fn link(prev: &Digest, record: &MetaRecord, index: u64) -> Digest {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&record.encode_at(index));
    h.finalize()
}

/// The head a chain of `records`, in the order given, ends at.
fn chain_head(records: &[MetaRecord]) -> Digest {
    let genesis = sha256::digest(GENESIS_TAG);
    (records.iter().enumerate()).fold(genesis, |head, (i, record)| link(&head, record, i as u64))
}

/// The cluster's tamper-evident activity journal: its records and the
/// SHA-256 chain head over them.
pub struct MetaAuditTrail {
    records: Vec<MetaRecord>,
    head: Digest,
}

impl std::fmt::Debug for MetaAuditTrail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaAuditTrail")
            .field("records", &self.records.len())
            .finish()
    }
}

impl Default for MetaAuditTrail {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaAuditTrail {
    /// Empty trail; the head is the genesis hash.
    #[must_use]
    pub fn new() -> Self {
        MetaAuditTrail {
            records: Vec::new(),
            head: chain_head(&[]),
        }
    }

    /// Journals one action at virtual time `at_ns`, advancing the hash
    /// chain.
    pub fn record(
        &mut self,
        at_ns: u64,
        actor: impl Into<String>,
        action: impl Into<String>,
        detail: impl Into<String>,
    ) -> &MetaRecord {
        let record = MetaRecord {
            seq: self.records.len() as u64,
            at_ns,
            actor: actor.into(),
            action: action.into(),
            detail: detail.into(),
        };
        self.head = link(&self.head, &record, record.seq);
        self.records.push(record);
        self.records.last().expect("just pushed")
    }

    /// All journaled actions in append order.
    #[must_use]
    pub fn records(&self) -> &[MetaRecord] {
        &self.records
    }

    /// Number of journaled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The SHA-256 chain head.
    #[must_use]
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// Verifies the trail's own records against its own head.
    ///
    /// # Errors
    ///
    /// As [`MetaAuditTrail::verify_presented`].
    pub fn verify(&self) -> Result<(), AuditError> {
        Self::verify_presented(self.records(), self.head())
    }

    /// Verifies a presented journal against an expected chain head:
    /// every record's `seq` must match its position and the recomputed
    /// head must equal `expected_head`.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Integrity`] when the journal was
    /// truncated, reordered or rewritten.
    pub fn verify_presented(
        records: &[MetaRecord],
        expected_head: &[u8],
    ) -> Result<(), AuditError> {
        let misplaced = records.iter().enumerate().find(|(i, r)| r.seq != *i as u64);
        if let Some((index, record)) = misplaced {
            return Err(AuditError::Integrity(format!(
                "meta-audit record at position {index} claims seq {}: journal reordered",
                record.seq
            )));
        }
        if chain_head(records) != expected_head {
            return Err(AuditError::Integrity(
                "meta-audit chain head mismatch: journal truncated or rewritten".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trail() -> MetaAuditTrail {
        let mut trail = MetaAuditTrail::new();
        trail.record(100, "cluster", "deposit", "glsn=G0");
        trail.record(250, "cluster", "deposit", "glsn=G1");
        trail.record(900, "executor", "degraded-replan", "dead={2}");
        trail.record(1400, "cluster", "rereplicate", "adopted=1 verified=2");
        trail
    }

    fn refusal(records: &[MetaRecord], head: &[u8]) -> String {
        MetaAuditTrail::verify_presented(records, head)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn untampered_trail_verifies() {
        let trail = sample_trail();
        trail.verify().expect("clean trail verifies");
        assert_eq!(trail.len(), 4);
        assert_eq!(trail.records()[2].action, "degraded-replan");
    }

    #[test]
    fn truncation_fails_the_chain_head() {
        let trail = sample_trail();
        let err = refusal(&trail.records()[..trail.len() - 1], trail.head());
        assert!(err.contains("chain head mismatch"), "{err}");
    }

    #[test]
    fn a_record_out_of_its_seq_fails_before_the_chain_is_hashed() {
        // A naive swap: the stored seqs betray the move.
        let trail = sample_trail();
        let mut swapped = trail.records().to_vec();
        swapped.swap(1, 2);
        let err = refusal(&swapped, trail.head());
        assert!(err.contains("position 1 claims seq 2"), "{err}");
    }

    #[test]
    fn reordering_fails_even_with_patched_seq() {
        // The seq fields are patched to look consistent; the position
        // bound into every link still refuses the swapped journal.
        let trail = sample_trail();
        let mut swapped = trail.records().to_vec();
        swapped.swap(0, 1);
        let (a, b) = (swapped[0].seq, swapped[1].seq);
        swapped[0].seq = b.min(a);
        swapped[1].seq = b.max(a);
        let err = refusal(&swapped, trail.head());
        assert!(err.contains("chain head mismatch"), "{err}");
    }

    #[test]
    fn rewrite_fails_the_chain_head() {
        let trail = sample_trail();
        let mut edited = trail.records().to_vec();
        edited[3].detail = "adopted=1 verified=99".into();
        let err = refusal(&edited, trail.head());
        assert!(err.contains("chain head mismatch"), "{err}");
    }

    #[test]
    fn empty_trail_verifies_against_the_genesis_head() {
        let trail = MetaAuditTrail::new();
        assert!(trail.is_empty());
        assert_eq!(trail.head(), sha256::digest(GENESIS_TAG));
        trail.verify().expect("empty trail verifies");
        let err = refusal(&[], sample_trail().head());
        assert!(err.contains("chain head mismatch"), "{err}");
    }

    #[test]
    fn encode_binds_position_not_stored_seq() {
        let r = MetaRecord {
            seq: 7,
            at_ns: 1,
            actor: "a".into(),
            action: "b".into(),
            detail: "c".into(),
        };
        assert_ne!(r.encode_at(0), r.encode_at(7));
    }
}

//! Tamper-evident meta-audit journal.
//!
//! The DLA cluster records its *own* actions — deposits accepted,
//! re-replications performed, degraded-mode decisions taken — as
//! [`MetaRecord`]s chained by a collision-resistant hash: each link is
//! `h_i = H(h_{i-1} ‖ encode(i, record_i))`, with the record's position
//! bound into the preimage. An operator holding the chain head can
//! therefore detect a truncated, reordered or rewritten activity log.
//!
//! The hash function is injected (`fn(&[u8]) -> Vec<u8>`) so this crate
//! stays dependency-free; the audit layer wires in its SHA-256, and the
//! chain is the trail's one commitment: a presented sequence that
//! reproduces the head is the journaled one unless the hash collides.
//! Verification recomputes link `i` from the record *at index `i`*, so
//! a reordered journal fails even with its `seq` fields patched.

use std::fmt;

/// Hash function used for chaining. Output length is up to the caller
/// (32 bytes for the SHA-256 used by the audit layer).
pub type ChainHasher = fn(&[u8]) -> Vec<u8>;

/// Domain-separation prefix hashed into the genesis head.
pub const GENESIS_TAG: &[u8] = b"dla-meta-audit-v1";

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

impl fmt::Display for MetaRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} t={}ns {} {}: {}",
            self.seq, self.at_ns, self.actor, self.action, self.detail
        )
    }
}

/// Verification failure for a presented journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaAuditError {
    /// A record's stored `seq` disagrees with its position — the
    /// journal was reordered or spliced.
    SequenceMismatch {
        /// Position of the offending record.
        index: usize,
        /// The `seq` the record claims.
        found: u64,
    },
    /// The recomputed chain head differs from the expected head — the
    /// journal was truncated, extended or rewritten.
    HeadMismatch,
}

impl fmt::Display for MetaAuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaAuditError::SequenceMismatch { index, found } => write!(
                f,
                "meta-audit record at position {index} claims seq {found}: journal reordered"
            ),
            MetaAuditError::HeadMismatch => {
                write!(
                    f,
                    "meta-audit chain head mismatch: journal truncated or rewritten"
                )
            }
        }
    }
}

impl std::error::Error for MetaAuditError {}

/// Append-only journal of [`MetaRecord`]s with an incrementally
/// maintained chain head.
pub struct MetaJournal {
    hasher: ChainHasher,
    records: Vec<MetaRecord>,
    head: Vec<u8>,
}

impl fmt::Debug for MetaJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetaJournal")
            .field("records", &self.records.len())
            .field("head", &self.head)
            .finish()
    }
}

impl MetaJournal {
    /// Empty journal; the head starts at `H(GENESIS_TAG)`.
    #[must_use]
    pub fn new(hasher: ChainHasher) -> Self {
        let head = hasher(GENESIS_TAG);
        MetaJournal {
            hasher,
            records: Vec::new(),
            head,
        }
    }

    /// Appends an action record, advances the chain head, and returns
    /// a reference to the stored record (with its assigned `seq`).
    pub fn append(
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
        self.head = Self::link(self.hasher, &self.head, &record, record.seq);
        self.records.push(record);
        self.records.last().expect("just pushed")
    }

    /// Current chain head.
    #[must_use]
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// All records in append order.
    #[must_use]
    pub fn records(&self) -> &[MetaRecord] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no action has been journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn link(hasher: ChainHasher, prev: &[u8], record: &MetaRecord, index: u64) -> Vec<u8> {
        let mut preimage = Vec::with_capacity(prev.len() + 64);
        preimage.extend_from_slice(prev);
        preimage.extend_from_slice(&record.encode_at(index));
        hasher(&preimage)
    }

    /// Recomputes the chain head for a presented record sequence.
    #[must_use]
    pub fn chain_head(records: &[MetaRecord], hasher: ChainHasher) -> Vec<u8> {
        let mut head = hasher(GENESIS_TAG);
        for (i, record) in records.iter().enumerate() {
            head = Self::link(hasher, &head, record, i as u64);
        }
        head
    }

    /// Verifies a presented journal against an expected chain head:
    /// every record's `seq` must match its position and the recomputed
    /// head must equal `expected_head`.
    pub fn verify(
        records: &[MetaRecord],
        expected_head: &[u8],
        hasher: ChainHasher,
    ) -> Result<(), MetaAuditError> {
        for (i, record) in records.iter().enumerate() {
            if record.seq != i as u64 {
                return Err(MetaAuditError::SequenceMismatch {
                    index: i,
                    found: record.seq,
                });
            }
        }
        if Self::chain_head(records, hasher) != expected_head {
            return Err(MetaAuditError::HeadMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny FNV-1a-style mixer — good enough for chain-shape tests;
    /// the audit layer substitutes real SHA-256.
    fn test_hash(data: &[u8]) -> Vec<u8> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h.to_be_bytes().to_vec()
    }

    fn sample_journal() -> MetaJournal {
        let mut j = MetaJournal::new(test_hash);
        j.append(10, "cluster", "deposit", "glsn=0.1.0");
        j.append(20, "cluster", "deposit", "glsn=1.4.1");
        j.append(35, "executor", "degraded-replan", "dead=[2]");
        j.append(50, "cluster", "rereplicate", "repaired=3");
        j
    }

    #[test]
    fn untampered_journal_verifies() {
        let j = sample_journal();
        assert_eq!(j.len(), 4);
        MetaJournal::verify(j.records(), j.head(), test_hash).expect("clean journal verifies");
    }

    #[test]
    fn truncation_is_detected() {
        let j = sample_journal();
        let truncated = &j.records()[..3];
        assert_eq!(
            MetaJournal::verify(truncated, j.head(), test_hash),
            Err(MetaAuditError::HeadMismatch)
        );
    }

    #[test]
    fn reordering_is_detected_even_with_rewritten_seq() {
        let j = sample_journal();
        let mut swapped = j.records().to_vec();
        swapped.swap(1, 2);
        // Naive swap: stored seqs betray the move.
        assert!(matches!(
            MetaJournal::verify(&swapped, j.head(), test_hash),
            Err(MetaAuditError::SequenceMismatch { index: 1, .. })
        ));
        // Cleverer attacker also rewrites the seq fields; the
        // position-bound chain still refuses.
        swapped[1].seq = 1;
        swapped[2].seq = 2;
        assert_eq!(
            MetaJournal::verify(&swapped, j.head(), test_hash),
            Err(MetaAuditError::HeadMismatch)
        );
    }

    #[test]
    fn record_rewrite_is_detected() {
        let j = sample_journal();
        let mut edited = j.records().to_vec();
        edited[3].detail = "repaired=0".to_string();
        assert_eq!(
            MetaJournal::verify(&edited, j.head(), test_hash),
            Err(MetaAuditError::HeadMismatch)
        );
    }

    #[test]
    fn empty_journal_head_is_genesis_hash() {
        let j = MetaJournal::new(test_hash);
        assert!(j.is_empty());
        assert_eq!(j.head(), test_hash(GENESIS_TAG).as_slice());
        MetaJournal::verify(&[], j.head(), test_hash).expect("empty journal verifies");
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

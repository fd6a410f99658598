//! Cluster-level meta-audit trail: "who audits the auditor".
//!
//! The cluster journals its own privileged actions — deposits accepted,
//! users registered, re-replications performed, degraded-mode decisions
//! taken by the resilient executor — in a [`MetaJournal`] chained with
//! the system's SHA-256. Each link hashes the previous head with the
//! record *bound to its position* ([`MetaRecord::encode_at`]), so an
//! operator holding the chain head can hand the journal to a third
//! party and have truncation, reordering or rewriting of the cluster's
//! activity history detected: a presented sequence that reproduces the
//! head is the genuine one unless SHA-256 collides.

use crate::AuditError;
use dla_crypto::sha256;
use dla_telemetry::{MetaJournal, MetaRecord};

/// SHA-256 adapter for the dependency-free journal's injected hasher.
fn sha256_chain(data: &[u8]) -> Vec<u8> {
    sha256::digest(data).to_vec()
}

/// The cluster's tamper-evident activity journal: a SHA-256 hash chain
/// over its records.
pub struct MetaAuditTrail {
    journal: MetaJournal,
}

impl std::fmt::Debug for MetaAuditTrail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaAuditTrail")
            .field("records", &self.journal.len())
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
            journal: MetaJournal::new(sha256_chain),
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
        self.journal.append(at_ns, actor, action, detail)
    }

    /// All journaled actions in append order.
    #[must_use]
    pub fn records(&self) -> &[MetaRecord] {
        self.journal.records()
    }

    /// Number of journaled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// True when nothing has been journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// The SHA-256 chain head.
    #[must_use]
    pub fn head(&self) -> &[u8] {
        self.journal.head()
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
        MetaJournal::verify(records, expected_head, sha256_chain)
            .map_err(|e| AuditError::Integrity(e.to_string()))
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
        trail.verify().expect("empty trail verifies");
        let err = refusal(&[], sample_trail().head());
        assert!(err.contains("chain head mismatch"), "{err}");
    }
}

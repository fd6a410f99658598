//! Cluster-level meta-audit trail: "who audits the auditor".
//!
//! The cluster journals its own privileged actions — deposits accepted,
//! users registered, re-replications performed, degraded-mode decisions
//! taken by the resilient executor — in a [`MetaJournal`] chained with
//! the system's SHA-256, and *additionally* folds every link into the
//! paper's one-way accumulator (§4.1), the same primitive users deposit
//! record digests with. An operator holding the `(chain head,
//! accumulated value)` pair can hand the journal to a third party and
//! have truncation, reordering or rewriting of the cluster's activity
//! history detected.
//!
//! The accumulator is quasi-commutative, so the fold alone would accept
//! a reordered journal; each item is therefore the digest of the record
//! *bound to its position* ([`MetaRecord::encode_at`]), making the
//! accumulated value order-sensitive.

use crate::AuditError;
use dla_bigint::Ubig;
use dla_crypto::accumulator::AccumulatorParams;
use dla_crypto::sha256;
use dla_telemetry::{MetaJournal, MetaRecord};

/// SHA-256 adapter for the dependency-free journal's injected hasher.
fn sha256_chain(data: &[u8]) -> Vec<u8> {
    sha256::digest(data).to_vec()
}

/// Position-bound accumulator item for the record at `index`.
fn item_at(record: &MetaRecord, index: u64) -> Vec<u8> {
    sha256_chain(&record.encode_at(index))
}

/// The cluster's tamper-evident activity journal: a SHA-256 hash chain
/// plus a one-way-accumulator digest of the same records.
pub struct MetaAuditTrail {
    journal: MetaJournal,
    params: AccumulatorParams,
    acc: Ubig,
}

impl std::fmt::Debug for MetaAuditTrail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaAuditTrail")
            .field("records", &self.journal.len())
            .finish()
    }
}

impl MetaAuditTrail {
    /// Empty trail over the cluster's accumulator parameters.
    #[must_use]
    pub fn new(params: AccumulatorParams) -> Self {
        let acc = params.accumulate(std::iter::empty());
        MetaAuditTrail {
            journal: MetaJournal::new(sha256_chain),
            params,
            acc,
        }
    }

    /// Journals one action at virtual time `at_ns`, advancing both the
    /// hash chain and the accumulated value.
    pub fn record(
        &mut self,
        at_ns: u64,
        actor: impl Into<String>,
        action: impl Into<String>,
        detail: impl Into<String>,
    ) -> &MetaRecord {
        let record = self.journal.append(at_ns, actor, action, detail);
        let seq = record.seq;
        let item = item_at(record, seq);
        self.acc = self.params.fold(&self.acc, &item);
        self.journal.records().last().expect("just appended")
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

    /// The accumulated value over all position-bound record digests.
    #[must_use]
    pub fn accumulator(&self) -> &Ubig {
        &self.acc
    }

    /// Verifies the trail's own records against its own commitments.
    ///
    /// # Errors
    ///
    /// As [`MetaAuditTrail::verify_presented`].
    pub fn verify(&self) -> Result<(), AuditError> {
        Self::verify_presented(self.records(), self.head(), &self.acc, &self.params)
    }

    /// Verifies a presented journal against an expected `(chain head,
    /// accumulated value)` commitment pair: the accumulator is refolded
    /// from the presented order — in one fixed-base power of `x₀`, the
    /// value [`MetaAuditTrail::record`] reaches one fold a record — and
    /// the hash chain recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Integrity`] when the refolded accumulator
    /// disagrees with `expected_acc` (truncated, reordered or rewritten
    /// journal) or the hash chain fails.
    pub fn verify_presented(
        records: &[MetaRecord],
        expected_head: &[u8],
        expected_acc: &Ubig,
        params: &AccumulatorParams,
    ) -> Result<(), AuditError> {
        // Eq. 9: the record-by-record fold from `x₀` is one power of it.
        let items: Vec<Vec<u8>> = (0u64..).zip(records).map(|(i, r)| item_at(r, i)).collect();
        let refolded = params.accumulate(items.iter().map(Vec::as_slice));
        if refolded != *expected_acc {
            return Err(AuditError::Integrity(
                "meta-audit accumulator mismatch: journal truncated, reordered or rewritten".into(),
            ));
        }
        MetaJournal::verify(records, expected_head, sha256_chain)
            .map_err(|e| AuditError::Integrity(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trail() -> MetaAuditTrail {
        let mut trail = MetaAuditTrail::new(AccumulatorParams::fixed_512());
        trail.record(100, "cluster", "deposit", "glsn=G0");
        trail.record(250, "cluster", "deposit", "glsn=G1");
        trail.record(900, "executor", "degraded-replan", "dead={2}");
        trail.record(1400, "cluster", "rereplicate", "adopted=1 verified=2");
        trail
    }

    #[test]
    fn untampered_trail_verifies() {
        let trail = sample_trail();
        trail.verify().expect("clean trail verifies");
        assert_eq!(trail.len(), 4);
        assert_eq!(trail.records()[2].action, "degraded-replan");
    }

    #[test]
    fn the_one_power_refold_is_the_record_by_record_value() {
        // Four records sit inside the `x₀` table, seventy walk a comb.
        for len in [0u64, 1, 4, 70] {
            let params = AccumulatorParams::fixed_512();
            let mut trail = MetaAuditTrail::new(params.clone());
            for i in 0..len {
                trail.record(10 * i, "cluster", "deposit", format!("glsn=G{i}"));
            }
            let by_record = (0u64..)
                .zip(trail.records())
                .fold(params.start().clone(), |acc, (i, r)| {
                    params.fold(&acc, &item_at(r, i))
                });
            assert_eq!(trail.accumulator(), &by_record, "{len} records");
            trail.verify().expect("the one-power refold agrees");
        }
    }

    #[test]
    fn truncation_fails_the_accumulator_check() {
        let trail = sample_trail();
        let err = MetaAuditTrail::verify_presented(
            &trail.records()[..trail.len() - 1],
            trail.head(),
            trail.accumulator(),
            &AccumulatorParams::fixed_512(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("accumulator mismatch"), "{err}");
    }

    #[test]
    fn reordering_fails_despite_quasi_commutativity() {
        // The raw accumulator is order-independent; position binding in
        // the items must still make a swapped journal refold to a
        // different value, even with the seq fields patched up.
        let trail = sample_trail();
        let mut swapped = trail.records().to_vec();
        swapped.swap(0, 1);
        let (a, b) = (swapped[0].seq, swapped[1].seq);
        swapped[0].seq = b.min(a);
        swapped[1].seq = b.max(a);
        let err = MetaAuditTrail::verify_presented(
            &swapped,
            trail.head(),
            trail.accumulator(),
            &AccumulatorParams::fixed_512(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("accumulator mismatch"), "{err}");
    }

    #[test]
    fn rewrite_fails_verification() {
        let trail = sample_trail();
        let mut edited = trail.records().to_vec();
        edited[3].detail = "adopted=1 verified=99".into();
        assert!(MetaAuditTrail::verify_presented(
            &edited,
            trail.head(),
            trail.accumulator(),
            &AccumulatorParams::fixed_512(),
        )
        .is_err());
    }

    #[test]
    fn empty_trail_verifies_and_commits_to_x0() {
        let trail = MetaAuditTrail::new(AccumulatorParams::fixed_512());
        assert!(trail.is_empty());
        trail.verify().expect("empty trail verifies");
    }
}

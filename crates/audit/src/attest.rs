//! Threshold-signature attestation of audit results (paper §2: "DLA
//! nodes use secure multiparty computations, **threshold signature**
//! and distributed majority agreement to provide trusted and reliable
//! auditing").
//!
//! A result (a glsn list, a count, an aggregate sum) is only as
//! trustworthy as the nodes that produced it — so a **majority** of
//! DLA nodes jointly sign the result digest with a (⌈n/2⌉+1, n)
//! threshold Schnorr key. No minority of compromised nodes can forge
//! an attestation, and any user can verify it against the cluster's
//! single public attestation key.

use crate::cluster::DlaCluster;
use crate::AuditError;
use dla_crypto::schnorr::{self, SchnorrGroup, SchnorrPublicKey, Signature};
use dla_crypto::threshold::{
    self, NonceCommitment, PartialSignature, SigningSession, ThresholdKey,
};
use dla_net::wire::Writer;
use dla_net::NodeId;
use rand::Rng;

/// The cluster-wide attestation apparatus: the dealt threshold key and
/// its public verification half.
pub struct Attestor {
    key: ThresholdKey,
}

impl std::fmt::Debug for Attestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Attestor(threshold {} of {})",
            self.key.threshold(),
            self.key.shares().len()
        )
    }
}

/// A verified, signed audit result.
#[derive(Debug, Clone)]
pub struct Attestation {
    /// The attested message (canonical result bytes).
    pub message: Vec<u8>,
    /// The combined threshold signature.
    pub signature: Signature,
    /// Which DLA nodes participated.
    pub signers: Vec<usize>,
}

impl Attestor {
    /// Deals a majority-threshold key over the cluster's nodes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] if dealing fails.
    pub fn deal<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, AuditError> {
        let k = n / 2 + 1;
        let key =
            ThresholdKey::deal(group, k, n, rng).map_err(|e| AuditError::Config(e.to_string()))?;
        Ok(Attestor { key })
    }

    /// The threshold (majority size).
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.key.threshold()
    }

    /// The public key attestations verify under.
    #[must_use]
    pub fn public(&self) -> &SchnorrPublicKey {
        self.key.public()
    }

    /// Runs the two-round signing protocol over the cluster network
    /// with the first `threshold` nodes as signers.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on network or signing failures.
    pub fn attest(
        &self,
        cluster: &mut DlaCluster,
        message: &[u8],
    ) -> Result<Attestation, AuditError> {
        let k = self.key.threshold();
        let group = self.key.group().clone();
        let signers: Vec<usize> = (0..k).collect();
        let coordinator = cluster.auditor_node();

        // Round 1: each signer commits to a nonce and sends the
        // commitment to the coordinator.
        let sessions: Vec<SigningSession> = signers
            .iter()
            .map(|&i| SigningSession::start(&group, &self.key.shares()[i], cluster.rng_mut()))
            .collect();
        let net = cluster.root_session();
        let mut commitments: Vec<NonceCommitment> = Vec::with_capacity(k);
        for (session, &i) in sessions.iter().zip(&signers) {
            let c = session.commitment();
            let mut w = Writer::new();
            w.put_u8(0x60)
                .put_u64(c.index)
                .put_bytes(&c.r.to_bytes_be());
            net.send(NodeId(i), coordinator, w.finish());
            let envelope = net.recv_from(coordinator, NodeId(i))?;
            let mut r = crate::open_frame(&envelope.payload, 0x60)?;
            let index = r.get_u64()?;
            let point = dla_bigint::Ubig::from_bytes_be(r.get_bytes()?);
            commitments.push(NonceCommitment { index, r: point });
        }

        // Coordinator broadcasts the commitment set; signers respond.
        let mut partials: Vec<PartialSignature> = Vec::with_capacity(k);
        for (session, &i) in sessions.into_iter().zip(&signers) {
            let mut w = Writer::new();
            w.put_u8(0x61).put_list(&commitments, |w, c| {
                w.put_u64(c.index);
                w.put_bytes(&c.r.to_bytes_be());
            });
            net.send(coordinator, NodeId(i), w.finish());
            net.recv_from(NodeId(i), coordinator)?;
            let partial = session
                .respond(&group, self.key.public(), &commitments, message)
                .map_err(|e| AuditError::Config(e.to_string()))?;
            let mut w = Writer::new();
            w.put_u8(0x62)
                .put_u64(partial.index)
                .put_bytes(&partial.s.to_bytes_be());
            net.send(NodeId(i), coordinator, w.finish());
            net.recv_from(coordinator, NodeId(i))?;
            partials.push(partial);
        }

        let signature =
            threshold::combine(&group, self.key.public(), &commitments, &partials, message)
                .map_err(|e| AuditError::Config(e.to_string()))?;
        Ok(Attestation {
            message: message.to_vec(),
            signature,
            signers,
        })
    }

    /// Verifies an attestation.
    #[must_use]
    pub fn verify(&self, attestation: &Attestation) -> bool {
        schnorr::verify(
            self.key.group(),
            self.key.public(),
            &attestation.message,
            &attestation.signature,
        )
    }
}

/// Canonical result bytes for a glsn list (what gets attested after a
/// query).
#[must_use]
pub fn result_message(query: &str, glsns: &[dla_logstore::model::Glsn]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"dla-audit-result");
    out.extend_from_slice(&(query.len() as u64).to_be_bytes());
    out.extend_from_slice(query.as_bytes());
    for g in glsns {
        out.extend_from_slice(&g.0.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use dla_logstore::model::Glsn;
    use dla_logstore::schema::Schema;
    use rand::SeedableRng;

    fn setup() -> (DlaCluster, Attestor) {
        let cluster =
            DlaCluster::new(ClusterConfig::new(4, Schema::paper_example()).with_seed(5)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let attestor = Attestor::deal(cluster.group(), 4, &mut rng).unwrap();
        (cluster, attestor)
    }

    #[test]
    fn majority_attestation_verifies() {
        let (mut cluster, attestor) = setup();
        assert_eq!(attestor.threshold(), 3);
        let msg = result_message("c1 > 5", &[Glsn(1), Glsn(2)]);
        let attestation = attestor.attest(&mut cluster, &msg).unwrap();
        assert!(attestor.verify(&attestation));
        assert_eq!(attestation.signers, vec![0, 1, 2]);
    }

    #[test]
    fn attestation_bound_to_result() {
        let (mut cluster, attestor) = setup();
        let msg = result_message("c1 > 5", &[Glsn(1)]);
        let mut attestation = attestor.attest(&mut cluster, &msg).unwrap();
        // Swap in a different result: verification fails.
        attestation.message = result_message("c1 > 5", &[Glsn(2)]);
        assert!(!attestor.verify(&attestation));
    }

    #[test]
    fn attestation_traffic_is_accounted() {
        let (mut cluster, attestor) = setup();
        let before = cluster.net().stats().messages_sent;
        let msg = result_message("q", &[]);
        let _ = attestor.attest(&mut cluster, &msg).unwrap();
        // 3 commitments + 3 broadcasts + 3 partials.
        assert_eq!(cluster.net().stats().messages_sent - before, 9);
    }

    #[test]
    fn result_message_is_injective() {
        assert_ne!(
            result_message("a", &[Glsn(1)]),
            result_message("a", &[Glsn(2)])
        );
        assert_ne!(result_message("a", &[]), result_message("b", &[]));
    }

    #[test]
    fn different_attestors_do_not_cross_verify() {
        let (mut cluster, attestor) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let other = Attestor::deal(cluster.group(), 4, &mut rng).unwrap();
        let msg = result_message("q", &[Glsn(9)]);
        let attestation = attestor.attest(&mut cluster, &msg).unwrap();
        assert!(!other.verify(&attestation));
    }
}

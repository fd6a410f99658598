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
//!
//! A dealer Shamir-shares the signing exponent `x` over `Z_q` among the
//! `n` DLA nodes; signing takes two rounds:
//! 1. each participating node `i` samples a nonce `k_i` and publishes
//!    `r_i = g^{k_i}`;
//! 2. everyone computes `r = Π r_i`, the challenge `e = H(r ‖ m ‖ y)`,
//!    and node `i` responds `s_i = k_i + λ_i·x_i·e (mod q)` where `λ_i`
//!    is the Lagrange coefficient of the signing subset;
//! 3. `s = Σ s_i (mod q)` and `(e, s)` verifies under the *group* public
//!    key with the plain [`dla_crypto::schnorr::verify`].

use dla_audit::cluster::DlaCluster;
use dla_audit::AuditError;
use dla_bigint::modular::{modinv, modmul, modsub};
use dla_bigint::Ubig;
use dla_crypto::schnorr::{self, SchnorrGroup, SchnorrKeyPair, SchnorrPublicKey, Signature};
use dla_crypto::CryptoError;
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session};
use rand::Rng;
use std::fmt;

/// One node's share of the group signing key.
#[derive(Clone)]
pub struct KeyShare {
    /// Public, distinct, nonzero evaluation point.
    pub index: u64,
    /// Secret polynomial evaluation `f(index) mod q`.
    share: Ubig,
}

impl fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyShare(index: {})", self.index)
    }
}

/// The dealt threshold key: the group public key attestations verify
/// under, plus one [`KeyShare`] per node.
#[derive(Debug, Clone)]
pub struct Attestor {
    group: SchnorrGroup,
    threshold: usize,
    public: SchnorrPublicKey,
    shares: Vec<KeyShare>,
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
    /// Deals a majority-threshold key over a cluster's `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] if `n` is zero.
    pub fn deal<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, AuditError> {
        Self::deal_threshold(group, n / 2 + 1, n, rng)
            .map_err(|e| AuditError::Config(e.to_string()))
    }

    /// Deals a fresh (k, n) threshold key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] unless
    /// `1 ≤ k ≤ n`.
    pub fn deal_threshold<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        k: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        if k == 0 || n == 0 || k > n {
            return Err(CryptoError::InvalidParameter("need 1 <= k <= n"));
        }
        let master = SchnorrKeyPair::generate(group, rng);
        let q = group.order();
        // Random degree-(k-1) polynomial over Z_q with f(0) = x.
        let mut coeffs = Vec::with_capacity(k);
        coeffs.push(master.secret().clone());
        for _ in 1..k {
            coeffs.push(Ubig::random_below(rng, q));
        }
        let shares = (1..=n as u64)
            .map(|index| {
                let x = Ubig::from_u64(index);
                // Horner evaluation mod q.
                let y = coeffs
                    .iter()
                    .rev()
                    .fold(Ubig::zero(), |acc, c| (&modmul(&acc, &x, q) + c) % q);
                KeyShare { index, share: y }
            })
            .collect();
        Ok(Attestor {
            group: group.clone(),
            threshold: k,
            public: master.public().clone(),
            shares,
        })
    }

    /// The group public key the combined signatures verify under.
    #[must_use]
    pub fn public(&self) -> &SchnorrPublicKey {
        &self.public
    }

    /// The threshold `k` (for [`Attestor::deal`], the majority size).
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The per-node shares (dealer hands these out, one per node).
    #[must_use]
    pub fn shares(&self) -> &[KeyShare] {
        &self.shares
    }

    /// The group.
    #[must_use]
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Runs the two-round signing protocol over the cluster network,
    /// the first `threshold` nodes in service signing with nonces drawn
    /// from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] if fewer than `threshold` nodes
    /// are in service, and [`AuditError`] on network or signing
    /// failures.
    pub fn attest<R: Rng + ?Sized>(
        &self,
        cluster: &DlaCluster,
        message: &[u8],
        rng: &mut R,
    ) -> Result<Attestation, AuditError> {
        let k = self.threshold;
        let retired = cluster.retired_nodes();
        let in_service = (0..self.shares.len()).filter(|i| !retired.contains(i));
        let signers: Vec<usize> = in_service.take(k).collect();
        if signers.len() < k {
            return Err(AuditError::Config(format!(
                "{} nodes in service, {k} must sign",
                signers.len()
            )));
        }
        let coordinator = cluster.auditor_node();

        // Round 1: each signer commits to a nonce and sends the
        // commitment to the coordinator.
        let sessions: Vec<SigningSession> = signers
            .iter()
            .map(|&i| SigningSession::start(&self.group, &self.shares[i], rng))
            .collect();
        let net = Session::root(cluster.shared_net());
        let mut commitments: Vec<NonceCommitment> = Vec::with_capacity(k);
        for (session, &i) in sessions.iter().zip(&signers) {
            let c = session.commitment();
            let mut w = Writer::new();
            w.put_u8(0x60)
                .put_u64(c.index)
                .put_bytes(&c.r.to_bytes_be());
            net.send(NodeId(i), coordinator, w.finish());
            let envelope = net.recv_from(coordinator, NodeId(i))?;
            commitments.push(open_commitment(&envelope.payload)?);
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
                .respond(&self.group, &self.public, &commitments, message)
                .map_err(|e| AuditError::Config(e.to_string()))?;
            let mut w = Writer::new();
            w.put_u8(0x62)
                .put_u64(partial.index)
                .put_bytes(&partial.s.to_bytes_be());
            net.send(NodeId(i), coordinator, w.finish());
            net.recv_from(coordinator, NodeId(i))?;
            partials.push(partial);
        }

        let signature = combine(&self.group, &self.public, &commitments, &partials, message)
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
            &self.group,
            &self.public,
            &attestation.message,
            &attestation.signature,
        )
    }
}

/// Round-1 output of one signer: the nonce commitment `r_i = g^{k_i}`
/// (public) and the nonce itself (kept by the signer).
#[derive(Debug, Clone)]
pub struct NonceCommitment {
    /// Signer's share index.
    pub index: u64,
    /// Public commitment `g^{k_i} mod p`.
    pub r: Ubig,
}

/// A signer's in-flight signing session (round-1 secret state).
pub struct SigningSession {
    share: KeyShare,
    nonce: Ubig,
    commitment: NonceCommitment,
}

impl fmt::Debug for SigningSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigningSession(index: {})", self.share.index)
    }
}

impl SigningSession {
    /// Round 1: commit to a fresh nonce.
    pub fn start<R: Rng + ?Sized>(group: &SchnorrGroup, share: &KeyShare, rng: &mut R) -> Self {
        let nonce = group.random_exponent(rng);
        let commitment = NonceCommitment {
            index: share.index,
            r: group.pow_g(&nonce),
        };
        SigningSession {
            share: share.clone(),
            nonce,
            commitment,
        }
    }

    /// The public round-1 commitment to broadcast.
    #[must_use]
    pub fn commitment(&self) -> &NonceCommitment {
        &self.commitment
    }

    /// Round 2: produce the partial response `s_i` given every signer's
    /// commitment and the message.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if this signer's index
    /// is missing from `signers` or indices repeat.
    pub fn respond(
        self,
        group: &SchnorrGroup,
        public: &SchnorrPublicKey,
        signers: &[NonceCommitment],
        message: &[u8],
    ) -> Result<PartialSignature, CryptoError> {
        let indices: Vec<u64> = signers.iter().map(|c| c.index).collect();
        let mut dedup = indices.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != indices.len() {
            return Err(CryptoError::InvalidParameter("duplicate signer index"));
        }
        if !indices.contains(&self.share.index) {
            return Err(CryptoError::InvalidParameter("signer not in the subset"));
        }
        let q = group.order();
        let e = combined_challenge(group, public, signers, message);
        let lambda = lagrange_at_zero(&indices, self.share.index, q)?;
        let s_i = (&self.nonce + &modmul(&modmul(&lambda, &self.share.share, q), &e, q)) % q;
        Ok(PartialSignature {
            index: self.share.index,
            s: s_i,
        })
    }
}

/// One signer's round-2 response.
#[derive(Debug, Clone)]
pub struct PartialSignature {
    /// Signer's share index.
    pub index: u64,
    /// Response scalar `s_i`.
    pub s: Ubig,
}

/// Computes the joint challenge `e = H(Π r_i ‖ m ‖ y)`.
fn combined_challenge(
    group: &SchnorrGroup,
    public: &SchnorrPublicKey,
    signers: &[NonceCommitment],
    message: &[u8],
) -> Ubig {
    let p = group.modulus();
    let r = signers
        .iter()
        .fold(Ubig::one(), |acc, c| modmul(&acc, &c.r, p));
    group.challenge(&[
        b"dla-schnorr",
        &r.to_bytes_be(),
        message,
        &public.to_bytes(),
    ])
}

/// Combines round-2 responses into a standard Schnorr [`Signature`].
///
/// # Errors
///
/// Returns [`CryptoError::InvalidParameter`] if the responses do not
/// match the commitments one-to-one.
pub fn combine(
    group: &SchnorrGroup,
    public: &SchnorrPublicKey,
    signers: &[NonceCommitment],
    partials: &[PartialSignature],
    message: &[u8],
) -> Result<Signature, CryptoError> {
    if signers.len() != partials.len() {
        return Err(CryptoError::InvalidParameter(
            "commitment/response count mismatch",
        ));
    }
    let q = group.order();
    let e = combined_challenge(group, public, signers, message);
    let s = partials
        .iter()
        .fold(Ubig::zero(), |acc, p| (&acc + &p.s) % q);
    Ok(Signature { e, s })
}

/// Lagrange coefficient `λ_i(0)` for signer `i` within `indices`, mod q.
fn lagrange_at_zero(indices: &[u64], i: u64, q: &Ubig) -> Result<Ubig, CryptoError> {
    let xi = Ubig::from_u64(i) % q;
    let mut num = Ubig::one();
    let mut den = Ubig::one();
    for &j in indices {
        if j == i {
            continue;
        }
        let xj = Ubig::from_u64(j) % q;
        // num *= (0 - xj) = q - xj ; den *= (xi - xj)
        num = modmul(&num, &modsub(&Ubig::zero(), &xj, q), q);
        den = modmul(&den, &modsub(&xi, &xj, q), q);
    }
    let inv = modinv(&den, q).ok_or(CryptoError::InvalidParameter(
        "degenerate signer subset (repeated indices mod q)",
    ))?;
    Ok(modmul(&num, &inv, q))
}

/// Reads a signer's round-1 frame: its index and nonce commitment, the
/// commitment in its one encoding, and nothing after it.
fn open_commitment(payload: &[u8]) -> Result<NonceCommitment, AuditError> {
    let mut r = Reader::open(payload, 0x60)?;
    let index = r.get_u64()?;
    let point = Ubig::from_bytes_be(r.get_minimal_uint()?);
    r.finish()?;
    Ok(NonceCommitment { index, r: point })
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
    use dla_audit::cluster::ClusterConfig;
    use dla_crypto::schnorr::verify;
    use dla_logstore::model::Glsn;
    use dla_logstore::schema::Schema;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    // The threshold key and its two signing rounds.

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(88)
    }

    fn sign_with(tk: &Attestor, subset: &[usize], message: &[u8], rng: &mut impl Rng) -> Signature {
        let group = tk.group().clone();
        let sessions: Vec<SigningSession> = subset
            .iter()
            .map(|&i| SigningSession::start(&group, &tk.shares()[i], rng))
            .collect();
        let commitments: Vec<NonceCommitment> =
            sessions.iter().map(|s| s.commitment().clone()).collect();
        let partials: Vec<PartialSignature> = sessions
            .into_iter()
            .map(|s| {
                s.respond(&group, tk.public(), &commitments, message)
                    .unwrap()
            })
            .collect();
        combine(&group, tk.public(), &commitments, &partials, message).unwrap()
    }

    #[test]
    fn k_of_n_signature_verifies() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 3, 5, &mut rng).unwrap();
        let sig = sign_with(&tk, &[0, 2, 4], b"audit result: 42", &mut rng);
        assert!(verify(&group, tk.public(), b"audit result: 42", &sig));
    }

    #[test]
    fn different_subsets_all_verify() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 2, 4, &mut rng).unwrap();
        for subset in [[0usize, 1], [1, 2], [2, 3], [0, 3]] {
            let sig = sign_with(&tk, &subset, b"m", &mut rng);
            assert!(verify(&group, tk.public(), b"m", &sig), "{subset:?}");
        }
    }

    #[test]
    fn fewer_than_k_signers_fail() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 3, 5, &mut rng).unwrap();
        // Two signers using 2-party Lagrange coefficients reconstruct the
        // wrong exponent for a degree-2 polynomial.
        let sig = sign_with(&tk, &[0, 1], b"m", &mut rng);
        assert!(!verify(&group, tk.public(), b"m", &sig));
    }

    #[test]
    fn signature_bound_to_message() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 2, 3, &mut rng).unwrap();
        let sig = sign_with(&tk, &[0, 1], b"original", &mut rng);
        assert!(!verify(&group, tk.public(), b"tampered", &sig));
    }

    #[test]
    fn deal_validates_parameters() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        assert!(Attestor::deal_threshold(&group, 0, 3, &mut rng).is_err());
        assert!(Attestor::deal_threshold(&group, 4, 3, &mut rng).is_err());
        assert!(Attestor::deal_threshold(&group, 3, 0, &mut rng).is_err());
        assert!(Attestor::deal_threshold(&group, 1, 1, &mut rng).is_ok());
    }

    #[test]
    fn respond_rejects_foreign_subset() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 2, 3, &mut rng).unwrap();
        let session = SigningSession::start(&group, &tk.shares()[0], &mut rng);
        let other = SigningSession::start(&group, &tk.shares()[1], &mut rng);
        // Subset without this signer's own index.
        let foreign = vec![other.commitment().clone()];
        assert!(session
            .respond(&group, tk.public(), &foreign, b"m")
            .is_err());
    }

    #[test]
    fn respond_rejects_duplicate_indices() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 2, 3, &mut rng).unwrap();
        let session = SigningSession::start(&group, &tk.shares()[0], &mut rng);
        let c = session.commitment().clone();
        let dup = vec![c.clone(), c];
        assert!(session.respond(&group, tk.public(), &dup, b"m").is_err());
    }

    #[test]
    fn one_of_one_threshold_is_plain_schnorr() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 1, 1, &mut rng).unwrap();
        let sig = sign_with(&tk, &[0], b"solo", &mut rng);
        assert!(verify(&group, tk.public(), b"solo", &sig));
    }

    #[test]
    fn key_share_debug_hides_secret() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let tk = Attestor::deal_threshold(&group, 2, 3, &mut rng).unwrap();
        let dbg = format!("{:?}", tk.shares()[0]);
        assert!(!dbg.contains(&tk.shares()[0].share.to_hex()));
    }

    // Attestation over a cluster.

    #[test]
    fn a_nonce_commitment_has_one_encoding() {
        let frame = |point: &[u8]| {
            let mut w = Writer::new();
            w.put_u8(0x60).put_u64(3).put_bytes(point);
            w.finish()
        };
        let c = open_commitment(&frame(&[0x05, 0x09])).unwrap();
        assert_eq!((c.index, c.r), (3, Ubig::from_u64(0x0509)));
        let padded = open_commitment(&frame(&[0x00, 0x05, 0x09]));
        assert!(matches!(padded, Err(AuditError::Wire(_))), "{padded:?}");
    }

    #[test]
    fn a_commitment_frame_with_a_trailing_byte_is_refused() {
        let mut w = Writer::new();
        w.put_u8(0x60).put_u64(3).put_bytes(&[0x05, 0x09]);
        let mut frame = w.finish().to_vec();
        assert!(open_commitment(&frame).is_ok());
        frame.push(0);
        let trailing = open_commitment(&frame);
        assert!(matches!(trailing, Err(AuditError::Wire(_))), "{trailing:?}");
    }

    fn setup() -> (DlaCluster, Attestor, rand::rngs::StdRng) {
        let cluster =
            DlaCluster::new(ClusterConfig::new(4, Schema::paper_example()).with_seed(5)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let attestor = Attestor::deal(cluster.group(), 4, &mut rng).unwrap();
        (cluster, attestor, rng)
    }

    #[test]
    fn majority_attestation_verifies() {
        let (cluster, attestor, mut rng) = setup();
        assert_eq!(attestor.threshold(), 3);
        let msg = result_message("c1 > 5", &[Glsn(1), Glsn(2)]);
        let attestation = attestor.attest(&cluster, &msg, &mut rng).unwrap();
        assert!(attestor.verify(&attestation));
        assert_eq!(attestation.signers, vec![0, 1, 2]);
    }

    #[test]
    fn a_retired_node_never_signs() {
        let config = ClusterConfig::new(4, Schema::paper_example()).with_seed(5);
        let mut cluster = DlaCluster::new(config.with_standby_replication()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let attestor = Attestor::deal(cluster.group(), 4, &mut rng).unwrap();
        cluster.rereplicate(&BTreeSet::from([0])).unwrap();
        let msg = result_message("c1 > 5", &[Glsn(1)]);
        let attestation = attestor.attest(&cluster, &msg, &mut rng).unwrap();
        assert!(attestor.verify(&attestation));
        assert_eq!(attestation.signers, vec![1, 2, 3]);
        // With two of four retired, no majority is left to sign.
        cluster.rereplicate(&BTreeSet::from([1])).unwrap();
        let refused = attestor.attest(&cluster, &msg, &mut rng);
        assert!(matches!(refused, Err(AuditError::Config(_))), "{refused:?}");
    }

    #[test]
    fn attestation_bound_to_result() {
        let (cluster, attestor, mut rng) = setup();
        let msg = result_message("c1 > 5", &[Glsn(1)]);
        let mut attestation = attestor.attest(&cluster, &msg, &mut rng).unwrap();
        // Swap in a different result: verification fails.
        attestation.message = result_message("c1 > 5", &[Glsn(2)]);
        assert!(!attestor.verify(&attestation));
    }

    #[test]
    fn attestation_traffic_is_accounted() {
        let (cluster, attestor, mut rng) = setup();
        let before = cluster.net().stats().messages_sent;
        let msg = result_message("q", &[]);
        let _ = attestor.attest(&cluster, &msg, &mut rng).unwrap();
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
        let (cluster, attestor, mut rng) = setup();
        let mut other_rng = rand::rngs::StdRng::seed_from_u64(7);
        let other = Attestor::deal(cluster.group(), 4, &mut other_rng).unwrap();
        let msg = result_message("q", &[Glsn(9)]);
        let attestation = attestor.attest(&cluster, &msg, &mut rng).unwrap();
        assert!(!other.verify(&attestation));
    }
}

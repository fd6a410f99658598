//! Anonymous-yet-accountable DLA membership: the undeniable evidence
//! chain (paper §4.2, Figures 6–7), with the Pedersen commitments and
//! e-coin tokens it is built from.
//!
//! The paper extends "the notion of e-coin to create undeniable
//! evidences even when nodes remain anonymous": a credential authority
//! grants each node one-time **logging/auditing tokens**, and joining
//! the DLA cluster takes a three-phase handshake between the current
//! chain tail `P_y` and the candidate `P_x`:
//!
//! 1. **PP** — `P_y` sends a policy proposal;
//! 2. **SC** — `P_x` answers with a service commitment;
//! 3. **RE** — both *spend* their one-time tokens on the new evidence
//!    piece and sign it with their pseudonym keys. The piece binds
//!    `(PP, SC)` into the chain (the "r-binding" of the paper's
//!    reference \[30\]), and the invite authority passes to `P_x`.
//!
//! `P_y` *can* physically invite again — nothing stops it — but doing
//! so spends its token a second time on a different context, and
//! [`EvidenceChain::detect_double_use`] then recovers its true identity
//! from the two responses ("Doing so will subject P_y to exposure of
//! its true identity and its misconduct").
//!
//! Construction (Okamoto-style double-spend detection): a Pedersen
//! commitment `C = g^m · h^r mod p`, with `h` a second generator of
//! unknown discrete log, is perfectly hiding and computationally
//! binding. Token issuance fixes `C = g^id · h^ρ` (identity commitment)
//! and `W = g^{w₁} · h^{w₂}` (nonce commitment), both CA-signed. A
//! spend on context `ctx` answers the Fiat–Shamir challenge
//! `c = H(ctx ‖ token)` with `s₁ = w₁ + id·c`, `s₂ = w₂ + ρ·c (mod q)`;
//! anyone verifies `g^{s₁} h^{s₂} = W · C^c`. Two spends with distinct
//! challenges solve for `id = (s₁ − s₁′)/(c − c′)`.

use dla_bigint::modular::{modexp, modinv, modmul, modsub};
use dla_bigint::Ubig;
use dla_crypto::schnorr::{self, SchnorrGroup, SchnorrKeyPair, SchnorrPublicKey, Signature};
use dla_crypto::sha256::{self, Digest};
use dla_crypto::CryptoError;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// Commitment parameters: the group plus a second generator `h` with
/// unknown discrete log relative to `g` (derived by hashing into the
/// quadratic-residue subgroup — "nothing up my sleeve").
#[derive(Clone, PartialEq, Eq)]
pub struct PedersenParams {
    group: SchnorrGroup,
    h: Ubig,
}

impl fmt::Debug for PedersenParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PedersenParams({:?})", self.group)
    }
}

impl PedersenParams {
    /// Derives parameters deterministically from a group.
    #[must_use]
    pub fn derive(group: &SchnorrGroup) -> Self {
        let p = group.modulus();
        let mut counter = 0u64;
        let h = loop {
            let d = sha256::digest_parts(&[
                b"dla-pedersen-h",
                &p.to_bytes_be(),
                &counter.to_be_bytes(),
            ]);
            let x = &Ubig::from_bytes_be(&d) % p;
            let candidate = modmul(&x, &x, p); // square into the QR subgroup
            if !candidate.is_zero() && !candidate.is_one() && candidate != *group.generator() {
                break candidate;
            }
            counter += 1;
        };
        PedersenParams {
            group: group.clone(),
            h,
        }
    }

    /// The underlying group.
    #[must_use]
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The second generator `h`.
    #[must_use]
    pub fn h(&self) -> &Ubig {
        &self.h
    }

    /// Commits to `m` with explicit randomness `r` (both mod `q`).
    #[must_use]
    pub fn commit_with(&self, m: &Ubig, r: &Ubig) -> Commitment {
        let p = self.group.modulus();
        let c = modmul(&self.group.pow_g(m), &modexp(&self.h, r, p), p);
        Commitment { c }
    }

    /// Commits to `m` with fresh randomness; returns the commitment and
    /// the opening randomness.
    pub fn commit<R: Rng + ?Sized>(&self, m: &Ubig, rng: &mut R) -> (Commitment, Ubig) {
        let r = self.group.random_exponent(rng);
        (self.commit_with(m, &r), r)
    }

    /// Verifies an opening `(m, r)` of `commitment`.
    #[must_use]
    pub fn verify(&self, commitment: &Commitment, m: &Ubig, r: &Ubig) -> bool {
        self.commit_with(m, r) == *commitment
    }
}

/// A Pedersen commitment value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Commitment {
    c: Ubig,
}

impl fmt::Debug for Commitment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.c.to_hex();
        write!(f, "Commitment({}…)", &hex[..hex.len().min(12)])
    }
}

impl Commitment {
    /// The committed group element.
    #[must_use]
    pub fn element(&self) -> &Ubig {
        &self.c
    }

    /// Canonical byte encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.c.to_bytes_be()
    }

    /// Reconstructs a commitment from a group element.
    #[must_use]
    pub fn from_element(c: Ubig) -> Self {
        Commitment { c }
    }
}

/// The public face of a token: serial, commitments, pseudonym key and
/// the CA's certifying signature.
#[derive(Clone, Debug)]
pub struct Token {
    /// Unique serial number assigned by the CA.
    pub serial: u64,
    /// Identity commitment `C = g^id · h^ρ`.
    pub id_commitment: Commitment,
    /// Nonce commitment `W = g^{w₁} · h^{w₂}`.
    pub nonce_commitment: Commitment,
    /// The holder's pseudonymous signing key.
    pub pseudonym: SchnorrPublicKey,
    /// CA signature over (serial ‖ C ‖ W ‖ pseudonym).
    pub ca_signature: Signature,
}

impl Token {
    /// Canonical bytes of the certified content.
    #[must_use]
    pub fn signed_content(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.serial.to_be_bytes());
        out.extend_from_slice(&self.id_commitment.to_bytes());
        out.extend_from_slice(&self.nonce_commitment.to_bytes());
        out.extend_from_slice(&self.pseudonym.to_bytes());
        out
    }

    /// Checks the CA certification ("g(t) =? 1" in Fig. 7).
    #[must_use]
    pub fn verify_certification(&self, group: &SchnorrGroup, ca: &SchnorrPublicKey) -> bool {
        schnorr::verify(group, ca, &self.signed_content(), &self.ca_signature)
    }
}

/// The holder's secret half of a token. One-time use.
pub struct TokenSecret {
    /// Matching public token.
    pub token: Token,
    identity: Ubig,
    rho: Ubig,
    w1: Ubig,
    w2: Ubig,
    /// Pseudonymous signing key pair.
    pub pseudonym_key: SchnorrKeyPair,
}

impl fmt::Debug for TokenSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TokenSecret(serial: {})", self.token.serial)
    }
}

/// A token spend: the challenge/response pair proving token ownership,
/// bound to a context (the evidence piece being created).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpendProof {
    /// Serial of the token spent.
    pub serial: u64,
    /// Fiat–Shamir challenge `c = H(ctx ‖ token)`.
    pub challenge: Ubig,
    /// Response `s₁ = w₁ + id·c mod q`.
    pub s1: Ubig,
    /// Response `s₂ = w₂ + ρ·c mod q`.
    pub s2: Ubig,
}

impl TokenSecret {
    /// Spends the token on `context`, producing the proof to embed in an
    /// evidence piece.
    ///
    /// Spending twice (on different contexts) is possible — nothing
    /// *prevents* it — but [`recover_identity`] then exposes the holder.
    #[must_use]
    pub fn spend(&self, params: &PedersenParams, context: &[u8]) -> SpendProof {
        let q = params.group().order();
        let challenge = spend_challenge(params, &self.token, context);
        let s1 = (&self.w1 + &modmul(&self.identity, &challenge, q)) % q;
        let s2 = (&self.w2 + &modmul(&self.rho, &challenge, q)) % q;
        SpendProof {
            serial: self.token.serial,
            challenge,
            s1,
            s2,
        }
    }
}

/// Derives the Fiat–Shamir spend challenge for a token on a context.
#[must_use]
pub fn spend_challenge(params: &PedersenParams, token: &Token, context: &[u8]) -> Ubig {
    params.group().challenge(&[
        b"dla-token-spend",
        &token.serial.to_be_bytes(),
        &token.signed_content(),
        context,
    ])
}

/// Verifies a spend proof against its token and context:
/// `g^{s₁} · h^{s₂} =? W · C^c`.
#[must_use]
pub fn verify_spend(
    params: &PedersenParams,
    token: &Token,
    context: &[u8],
    proof: &SpendProof,
) -> bool {
    if proof.serial != token.serial {
        return false;
    }
    let expected_c = spend_challenge(params, token, context);
    if proof.challenge != expected_c {
        return false;
    }
    let group = params.group();
    let p = group.modulus();
    let lhs = modmul(
        &group.pow_g(&proof.s1),
        &modexp(params.h(), &proof.s2, p),
        p,
    );
    let rhs = modmul(
        token.nonce_commitment.element(),
        &modexp(token.id_commitment.element(), &proof.challenge, p),
        p,
    );
    lhs == rhs
}

/// Recovers the true identity from two spends of the *same* token on
/// different contexts: `id = (s₁ − s₁′) / (c − c′) mod q`.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidParameter`] if the proofs are not two
/// distinct spends of one token.
pub fn recover_identity(
    params: &PedersenParams,
    a: &SpendProof,
    b: &SpendProof,
) -> Result<Ubig, CryptoError> {
    if a.serial != b.serial {
        return Err(CryptoError::InvalidParameter(
            "proofs spend different tokens",
        ));
    }
    if a.challenge == b.challenge {
        return Err(CryptoError::InvalidParameter(
            "identical challenges: same spend presented twice",
        ));
    }
    let q = params.group().order();
    let ds = modsub(&(&a.s1 % q), &(&b.s1 % q), q);
    let dc = modsub(&(&a.challenge % q), &(&b.challenge % q), q);
    let inv = modinv(&dc, q).ok_or(CryptoError::InvalidParameter(
        "challenge difference not invertible",
    ))?;
    Ok(modmul(&ds, &inv, q))
}

/// The credential authority of §4.2 plus its identity registry: it
/// issues one-time tokens binding a node's (secret) identity and
/// certifies them, and it knows who enrolled; peers only ever see
/// pseudonyms.
pub struct MembershipAuthority {
    params: PedersenParams,
    key: SchnorrKeyPair,
    next_serial: u64,
    registry: BTreeMap<String, String>, // identity-scalar hex → name
}

impl fmt::Debug for MembershipAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MembershipAuthority({} enrolled)", self.registry.len())
    }
}

/// A node's credential: two one-time tokens plus secrets. The **join
/// token** is spent when the node becomes a member; the **invite
/// token** is spent when it exercises its one invite. Spending either
/// twice exposes the holder's identity.
pub struct NodeCredential {
    /// The enrolled (true) name — known to the node and the CA only.
    pub name: String,
    join: TokenSecret,
    invite: TokenSecret,
}

impl fmt::Debug for NodeCredential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NodeCredential({}, join serial {}, invite serial {})",
            self.name, self.join.token.serial, self.invite.token.serial
        )
    }
}

impl NodeCredential {
    /// The public join token.
    #[must_use]
    pub fn join_token(&self) -> &Token {
        &self.join.token
    }

    /// The public invite token.
    #[must_use]
    pub fn invite_token(&self) -> &Token {
        &self.invite.token
    }
}

impl MembershipAuthority {
    /// Creates an authority over the given group, with a fresh signing
    /// key.
    pub fn new<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        MembershipAuthority {
            params: PedersenParams::derive(group),
            key: SchnorrKeyPair::generate(group, rng),
            next_serial: 1,
            registry: BTreeMap::new(),
        }
    }

    /// Enrolls a node: derives its identity scalar from its true name
    /// and issues a one-time logging/auditing token (Fig. 7's grant).
    pub fn enroll<R: Rng + ?Sized>(&mut self, name: &str, rng: &mut R) -> NodeCredential {
        let identity = self.identity_scalar(name);
        self.registry.insert(identity.to_hex(), name.to_owned());
        let join = self.issue(&identity, rng);
        let invite = self.issue(&identity, rng);
        NodeCredential {
            name: name.to_owned(),
            join,
            invite,
        }
    }

    /// Issues a one-time token to a node whose true identity is the
    /// scalar `identity` (e.g. a hash of its legal name / certificate).
    ///
    /// The CA sees the identity at issuance (it is the registrar) but
    /// the token itself only carries the hiding commitment, so DLA
    /// peers learn nothing — anonymity with accountability.
    fn issue<R: Rng + ?Sized>(&mut self, identity: &Ubig, rng: &mut R) -> TokenSecret {
        let group = self.params.group();
        let q = group.order();
        let identity = identity % q;
        let rho = group.random_exponent(rng);
        let w1 = group.random_exponent(rng);
        let w2 = group.random_exponent(rng);
        let id_commitment = self.params.commit_with(&identity, &rho);
        let nonce_commitment = self.params.commit_with(&w1, &w2);
        let pseudonym_key = SchnorrKeyPair::generate(group, rng);
        let serial = self.next_serial;
        self.next_serial += 1;

        let mut token = Token {
            serial,
            id_commitment,
            nonce_commitment,
            pseudonym: pseudonym_key.public().clone(),
            ca_signature: Signature {
                e: Ubig::zero(),
                s: Ubig::zero(),
            },
        };
        token.ca_signature = self.key.sign(&token.signed_content(), rng);

        TokenSecret {
            token,
            identity,
            rho,
            w1,
            w2,
            pseudonym_key,
        }
    }

    /// The deterministic identity scalar for a name.
    #[must_use]
    pub fn identity_scalar(&self, name: &str) -> Ubig {
        self.params
            .group()
            .challenge(&[b"dla-identity", name.as_bytes()])
    }

    /// Resolves an exposed identity scalar back to the enrolled name.
    #[must_use]
    pub fn identify(&self, identity: &Ubig) -> Option<&str> {
        self.registry.get(&identity.to_hex()).map(String::as_str)
    }

    /// The commitment parameters tokens verify against.
    #[must_use]
    pub fn params(&self) -> &PedersenParams {
        &self.params
    }

    /// The CA verification key.
    #[must_use]
    pub fn ca_public(&self) -> &SchnorrPublicKey {
        self.key.public()
    }
}

/// One party's contribution to an evidence piece.
#[derive(Debug, Clone)]
pub struct Participation {
    /// The party's (pseudonymous) token.
    pub token: Token,
    /// The token spend bound to this piece.
    pub spend: SpendProof,
    /// Pseudonym signature over the piece content.
    pub signature: Signature,
}

/// One link of the evidence chain (Fig. 6's `e_i`).
#[derive(Debug, Clone)]
pub struct EvidencePiece {
    /// Position in the chain (0 = genesis).
    pub seq: u64,
    /// Digest of the previous piece (zeros for genesis).
    pub prev_digest: Digest,
    /// The inviter's policy proposal (PP).
    pub policy_proposal: String,
    /// The joiner's service commitment (SC).
    pub service_commitment: String,
    /// The inviter's participation; `None` only for the genesis piece.
    pub inviter: Option<Participation>,
    /// The joiner's participation.
    pub joiner: Participation,
    /// This piece's digest (chains into the next piece).
    pub digest: Digest,
}

impl EvidencePiece {
    /// The byte context both parties spend and sign over.
    fn context(
        seq: u64,
        prev_digest: &Digest,
        pp: &str,
        sc: &str,
        joiner_pseudonym: &SchnorrPublicKey,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"dla-evidence");
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(prev_digest);
        out.extend_from_slice(&(pp.len() as u64).to_be_bytes());
        out.extend_from_slice(pp.as_bytes());
        out.extend_from_slice(&(sc.len() as u64).to_be_bytes());
        out.extend_from_slice(sc.as_bytes());
        out.extend_from_slice(&joiner_pseudonym.to_bytes());
        out
    }
}

/// The cluster's membership evidence chain.
pub struct EvidenceChain {
    params: PedersenParams,
    ca_public: SchnorrPublicKey,
    pieces: Vec<EvidencePiece>,
}

impl fmt::Debug for EvidenceChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EvidenceChain({} pieces)", self.pieces.len())
    }
}

/// An identity exposed by double token use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExposedIdentity {
    /// Serial of the doubly-spent token.
    pub serial: u64,
    /// The recovered identity scalar.
    pub identity: Ubig,
}

/// An evidence chain that does not verify: the first failing piece and
/// check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipError(pub String);

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "membership error: {}", self.0)
    }
}

impl std::error::Error for MembershipError {}

impl EvidenceChain {
    /// Founds the chain: the founder spends its token on the genesis
    /// piece (Fig. 6's `e₁`).
    pub fn found<R: Rng + ?Sized>(
        authority: &MembershipAuthority,
        founder: &NodeCredential,
        charter: &str,
        rng: &mut R,
    ) -> Self {
        let prev = [0u8; 32];
        let context = EvidencePiece::context(0, &prev, charter, "", &founder.join.token.pseudonym);
        let spend = founder.join.spend(&authority.params, &context);
        let signature = founder.join.pseudonym_key.sign(&context, rng);
        let digest = sha256::digest_parts(&[&context, &spend_bytes(&spend)]);
        EvidenceChain {
            params: authority.params.clone(),
            ca_public: authority.ca_public().clone(),
            pieces: vec![EvidencePiece {
                seq: 0,
                prev_digest: prev,
                policy_proposal: charter.to_owned(),
                service_commitment: String::new(),
                inviter: None,
                joiner: Participation {
                    token: founder.join.token.clone(),
                    spend,
                    signature,
                },
                digest,
            }],
        }
    }

    /// The pieces, genesis first.
    #[must_use]
    pub fn pieces(&self) -> &[EvidencePiece] {
        &self.pieces
    }

    /// **Adversarial test hook**: mutable piece access, modelling a
    /// party rewriting recorded evidence after the fact.
    pub fn pieces_mut(&mut self) -> &mut Vec<EvidencePiece> {
        &mut self.pieces
    }

    /// Number of members admitted (including the founder).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether the chain is empty (never; chains begin at genesis).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// The token serial currently authorized to invite (the tail
    /// joiner's).
    #[must_use]
    pub fn authorized_inviter(&self) -> u64 {
        self.pieces
            .last()
            .expect("chain begins at genesis")
            .joiner
            .token
            .serial
    }

    /// Runs the PP/SC/RE handshake appending a new piece. The inviter
    /// *should* be the current tail; an out-of-turn inviter is not
    /// rejected here (the deterrent is identity exposure, not
    /// prevention — see [`Self::detect_double_use`]).
    pub fn invite<R: Rng + ?Sized>(
        &mut self,
        inviter: &NodeCredential,
        joiner: &NodeCredential,
        policy_proposal: &str,
        service_commitment: &str,
        rng: &mut R,
    ) -> &EvidencePiece {
        let seq = self.pieces.len() as u64;
        let prev_digest = self.pieces.last().expect("genesis exists").digest;
        // Phase 1 (PP) and phase 2 (SC) fix the negotiated terms; phase
        // 3 (RE) binds them into the piece both parties spend over.
        let context = EvidencePiece::context(
            seq,
            &prev_digest,
            policy_proposal,
            service_commitment,
            &joiner.join.token.pseudonym,
        );
        let inviter_spend = inviter.invite.spend(&self.params, &context);
        let joiner_spend = joiner.join.spend(&self.params, &context);
        let inviter_sig = inviter.invite.pseudonym_key.sign(&context, rng);
        let joiner_sig = joiner.join.pseudonym_key.sign(&context, rng);
        let digest = sha256::digest_parts(&[
            &context,
            &spend_bytes(&inviter_spend),
            &spend_bytes(&joiner_spend),
        ]);
        self.pieces.push(EvidencePiece {
            seq,
            prev_digest,
            policy_proposal: policy_proposal.to_owned(),
            service_commitment: service_commitment.to_owned(),
            inviter: Some(Participation {
                token: inviter.invite.token.clone(),
                spend: inviter_spend,
                signature: inviter_sig,
            }),
            joiner: Participation {
                token: joiner.join.token.clone(),
                spend: joiner_spend,
                signature: joiner_sig,
            },
            digest,
        });
        self.pieces.last().expect("just pushed")
    }

    /// Verifies the whole chain: digest links, CA certifications, token
    /// spends and pseudonym signatures (the `f(e) =? 1` / `g(t) =? 1`
    /// checks of Fig. 7).
    ///
    /// # Errors
    ///
    /// Returns a [`MembershipError`] naming the first failing piece and
    /// check.
    pub fn verify(&self) -> Result<(), MembershipError> {
        let group = self.params.group();
        let mut prev = [0u8; 32];
        for piece in &self.pieces {
            let fail = |what: &str| Err(MembershipError(format!("piece {}: {what}", piece.seq)));
            if piece.prev_digest != prev {
                return fail("digest chain broken");
            }
            let context = EvidencePiece::context(
                piece.seq,
                &piece.prev_digest,
                &piece.policy_proposal,
                &piece.service_commitment,
                &piece.joiner.token.pseudonym,
            );
            let mut participants: Vec<&Participation> = vec![&piece.joiner];
            if let Some(inviter) = &piece.inviter {
                participants.push(inviter);
            }
            let mut digest_parts: Vec<Vec<u8>> = vec![context.clone()];
            for p in &participants {
                if !p.token.verify_certification(group, &self.ca_public) {
                    return fail("token not certified by the credential authority");
                }
                if !verify_spend(&self.params, &p.token, &context, &p.spend) {
                    return fail("token spend does not verify");
                }
                if p.spend.challenge != spend_challenge(&self.params, &p.token, &context) {
                    return fail("spend challenge mismatch");
                }
                if !schnorr::verify(group, &p.token.pseudonym, &context, &p.signature) {
                    return fail("pseudonym signature invalid");
                }
            }
            // Digest covers inviter (if any) then joiner, in creation
            // order: context, [inviter], joiner.
            if let Some(inviter) = &piece.inviter {
                digest_parts.push(spend_bytes(&inviter.spend));
            }
            digest_parts.push(spend_bytes(&piece.joiner.spend));
            let refs: Vec<&[u8]> = digest_parts.iter().map(Vec::as_slice).collect();
            if sha256::digest_parts(&refs) != piece.digest {
                return fail("piece digest mismatch");
            }
            prev = piece.digest;
        }
        Ok(())
    }

    /// Scans all spends for tokens used more than once and recovers the
    /// cheaters' identities.
    #[must_use]
    pub fn detect_double_use(&self) -> Vec<ExposedIdentity> {
        let mut by_serial: BTreeMap<u64, Vec<&SpendProof>> = BTreeMap::new();
        for piece in &self.pieces {
            by_serial
                .entry(piece.joiner.spend.serial)
                .or_default()
                .push(&piece.joiner.spend);
            if let Some(inviter) = &piece.inviter {
                by_serial
                    .entry(inviter.spend.serial)
                    .or_default()
                    .push(&inviter.spend);
            }
        }
        let mut exposed = Vec::new();
        for (serial, spends) in by_serial {
            for pair in spends.windows(2) {
                if pair[0].challenge != pair[1].challenge {
                    if let Ok(identity) = recover_identity(&self.params, pair[0], pair[1]) {
                        exposed.push(ExposedIdentity { serial, identity });
                        break;
                    }
                }
            }
        }
        exposed
    }
}

fn spend_bytes(spend: &SpendProof) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&spend.serial.to_be_bytes());
    out.extend_from_slice(&spend.challenge.to_bytes_be());
    out.extend_from_slice(&spend.s1.to_bytes_be());
    out.extend_from_slice(&spend.s2.to_bytes_be());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    // Pedersen commitments.

    fn pedersen() -> (PedersenParams, rand::rngs::StdRng) {
        (
            PedersenParams::derive(&SchnorrGroup::fixed_256()),
            rand::rngs::StdRng::seed_from_u64(99),
        )
    }

    #[test]
    fn commit_verify_round_trip() {
        let (params, mut rng) = pedersen();
        let m = Ubig::from_u64(123456);
        let (c, r) = params.commit(&m, &mut rng);
        assert!(params.verify(&c, &m, &r));
    }

    #[test]
    fn wrong_opening_rejected() {
        let (params, mut rng) = pedersen();
        let m = Ubig::from_u64(123456);
        let (c, r) = params.commit(&m, &mut rng);
        assert!(!params.verify(&c, &Ubig::from_u64(123457), &r));
        assert!(!params.verify(&c, &m, &(&r + &Ubig::one())));
    }

    #[test]
    fn hiding_same_message_different_commitments() {
        let (params, mut rng) = pedersen();
        let m = Ubig::from_u64(7);
        let (c1, _) = params.commit(&m, &mut rng);
        let (c2, _) = params.commit(&m, &mut rng);
        assert_ne!(c1, c2, "fresh randomness must hide the message");
    }

    #[test]
    fn homomorphic_addition() {
        // C(m1, r1) * C(m2, r2) = C(m1 + m2, r1 + r2)
        let (params, mut rng) = pedersen();
        let q = params.group().order().clone();
        let p = params.group().modulus().clone();
        let (m1, m2) = (Ubig::from_u64(10), Ubig::from_u64(32));
        let (c1, r1) = params.commit(&m1, &mut rng);
        let (c2, r2) = params.commit(&m2, &mut rng);
        let prod = Commitment::from_element(modmul(c1.element(), c2.element(), &p));
        assert!(params.verify(&prod, &((&m1 + &m2) % &q), &((&r1 + &r2) % &q)));
    }

    #[test]
    fn h_is_in_subgroup_and_independent() {
        let (params, _) = pedersen();
        let g = params.group();
        assert_eq!(
            modexp(params.h(), g.order(), g.modulus()),
            Ubig::one(),
            "h must lie in the order-q subgroup"
        );
        assert_ne!(params.h(), g.generator());
        assert!(!params.h().is_one());
    }

    #[test]
    fn derive_is_deterministic() {
        let g = SchnorrGroup::fixed_256();
        assert_eq!(PedersenParams::derive(&g), PedersenParams::derive(&g));
    }

    // Tokens: issuance, spends, double-spend exposure.

    fn ca() -> (PedersenParams, MembershipAuthority, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(111);
        let ca = MembershipAuthority::new(&SchnorrGroup::fixed_256(), &mut rng);
        (ca.params().clone(), ca, rng)
    }

    #[test]
    fn issued_token_is_certified() {
        let (params, mut ca, mut rng) = ca();
        let secret = ca.issue(&Ubig::from_u64(9001), &mut rng);
        assert!(secret
            .token
            .verify_certification(params.group(), ca.ca_public()));
    }

    #[test]
    fn forged_token_fails_certification() {
        let (params, mut ca, mut rng) = ca();
        let secret = ca.issue(&Ubig::from_u64(9001), &mut rng);
        let mut forged = secret.token.clone();
        forged.serial += 1;
        assert!(!forged.verify_certification(params.group(), ca.ca_public()));
    }

    #[test]
    fn spend_verifies_on_its_context() {
        let (params, mut ca, mut rng) = ca();
        let secret = ca.issue(&Ubig::from_u64(42), &mut rng);
        let proof = secret.spend(&params, b"invite node P_x into cluster 7");
        assert!(verify_spend(
            &params,
            &secret.token,
            b"invite node P_x into cluster 7",
            &proof
        ));
    }

    #[test]
    fn spend_bound_to_context() {
        let (params, mut ca, mut rng) = ca();
        let secret = ca.issue(&Ubig::from_u64(42), &mut rng);
        let proof = secret.spend(&params, b"context A");
        assert!(!verify_spend(&params, &secret.token, b"context B", &proof));
    }

    #[test]
    fn spend_bound_to_token() {
        let (params, mut ca, mut rng) = ca();
        let s1 = ca.issue(&Ubig::from_u64(1), &mut rng);
        let s2 = ca.issue(&Ubig::from_u64(2), &mut rng);
        let proof = s1.spend(&params, b"ctx");
        assert!(!verify_spend(&params, &s2.token, b"ctx", &proof));
    }

    #[test]
    fn tampered_response_rejected() {
        let (params, mut ca, mut rng) = ca();
        let secret = ca.issue(&Ubig::from_u64(42), &mut rng);
        let mut proof = secret.spend(&params, b"ctx");
        proof.s1 = (&proof.s1 + &Ubig::one()) % params.group().order();
        assert!(!verify_spend(&params, &secret.token, b"ctx", &proof));
    }

    #[test]
    fn double_spend_reveals_identity() {
        let (params, mut ca, mut rng) = ca();
        let identity = Ubig::from_u64(0xDEAD_BEEF);
        let secret = ca.issue(&identity, &mut rng);
        let p1 = secret.spend(&params, b"invite alpha");
        let p2 = secret.spend(&params, b"invite beta");
        let recovered = recover_identity(&params, &p1, &p2).unwrap();
        assert_eq!(recovered, identity);
    }

    #[test]
    fn single_spend_does_not_reveal_identity() {
        // The verification equation alone (one spend) is satisfied by the
        // committed values without exposing id: check the proof verifies
        // but recovery demands two distinct spends.
        let (params, mut ca, mut rng) = ca();
        let secret = ca.issue(&Ubig::from_u64(77), &mut rng);
        let p1 = secret.spend(&params, b"only once");
        assert!(recover_identity(&params, &p1, &p1).is_err());
    }

    #[test]
    fn recovery_rejects_mismatched_serials() {
        let (params, mut ca, mut rng) = ca();
        let sa = ca.issue(&Ubig::from_u64(1), &mut rng);
        let sb = ca.issue(&Ubig::from_u64(2), &mut rng);
        let pa = sa.spend(&params, b"x");
        let pb = sb.spend(&params, b"y");
        assert!(recover_identity(&params, &pa, &pb).is_err());
    }

    #[test]
    fn serials_are_unique_and_increasing() {
        let (_, mut ca, mut rng) = ca();
        let t1 = ca.issue(&Ubig::from_u64(1), &mut rng);
        let t2 = ca.issue(&Ubig::from_u64(1), &mut rng);
        assert!(t2.token.serial > t1.token.serial);
    }

    #[test]
    fn tokens_of_same_identity_are_unlinkable() {
        // Fresh rho per token: the identity commitments differ.
        let (_, mut ca, mut rng) = ca();
        let id = Ubig::from_u64(5);
        let t1 = ca.issue(&id, &mut rng);
        let t2 = ca.issue(&id, &mut rng);
        assert_ne!(t1.token.id_commitment, t2.token.id_commitment);
    }

    // The evidence chain.

    fn membership() -> (MembershipAuthority, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        let authority = MembershipAuthority::new(&SchnorrGroup::fixed_256(), &mut rng);
        (authority, rng)
    }

    #[test]
    fn honest_chain_verifies() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("node-zero.example.org", &mut rng);
        let p1 = authority.enroll("node-one.example.org", &mut rng);
        let p2 = authority.enroll("node-two.example.org", &mut rng);

        let mut chain = EvidenceChain::found(&authority, &p0, "DLA cluster charter", &mut rng);
        chain.invite(&p0, &p1, "store fragments; serve ∩_s", "agreed", &mut rng);
        chain.invite(&p1, &p2, "store fragments; serve Σ_s", "agreed", &mut rng);

        assert_eq!(chain.len(), 3);
        chain.verify().unwrap();
        assert!(chain.detect_double_use().is_empty());
        assert_eq!(chain.authorized_inviter(), p2.join_token().serial);
    }

    #[test]
    fn double_invite_exposes_true_identity() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("founder", &mut rng);
        let p1 = authority.enroll("cheater.example.org", &mut rng);
        let p2 = authority.enroll("victim-a", &mut rng);
        let p3 = authority.enroll("victim-b", &mut rng);

        let mut chain = EvidenceChain::found(&authority, &p0, "charter", &mut rng);
        chain.invite(&p0, &p1, "pp", "sc", &mut rng);
        // p1 invites p2 (legitimate — p1 is the tail)…
        chain.invite(&p1, &p2, "pp", "sc", &mut rng);
        // …then invites p3 too, after having passed authority on.
        chain.invite(&p1, &p3, "pp", "sc", &mut rng);

        chain.verify().unwrap(); // every piece is individually valid…
        let exposed = chain.detect_double_use();
        assert_eq!(exposed.len(), 1); // …but the cheater is exposed.
        assert_eq!(exposed[0].serial, p1.invite_token().serial);
        assert_eq!(
            authority.identify(&exposed[0].identity),
            Some("cheater.example.org")
        );
    }

    #[test]
    fn single_use_exposes_nobody() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("a", &mut rng);
        let p1 = authority.enroll("b", &mut rng);
        let mut chain = EvidenceChain::found(&authority, &p0, "charter", &mut rng);
        chain.invite(&p0, &p1, "pp", "sc", &mut rng);
        assert!(chain.detect_double_use().is_empty());
    }

    #[test]
    fn tampered_terms_break_verification() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("a", &mut rng);
        let p1 = authority.enroll("b", &mut rng);
        let mut chain = EvidenceChain::found(&authority, &p0, "charter", &mut rng);
        chain.invite(&p0, &p1, "the real terms", "sc", &mut rng);
        // Rewrite the negotiated policy after the fact.
        chain.pieces[1].policy_proposal = "sneaky new terms".into();
        assert!(chain.verify().is_err());
    }

    #[test]
    fn broken_digest_link_detected() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("a", &mut rng);
        let p1 = authority.enroll("b", &mut rng);
        let p2 = authority.enroll("c", &mut rng);
        let mut chain = EvidenceChain::found(&authority, &p0, "charter", &mut rng);
        chain.invite(&p0, &p1, "pp", "sc", &mut rng);
        chain.invite(&p1, &p2, "pp", "sc", &mut rng);
        // Excise the middle piece: the chain must not verify.
        chain.pieces.remove(1);
        let err = chain.verify().unwrap_err();
        assert!(err.to_string().contains("digest chain broken"));
    }

    #[test]
    fn foreign_token_rejected() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("a", &mut rng);
        let p1 = authority.enroll("b", &mut rng);
        // A second, unrelated authority.
        let mut other = MembershipAuthority::new(&SchnorrGroup::fixed_256(), &mut rng);
        let intruder = other.enroll("intruder", &mut rng);

        let mut chain = EvidenceChain::found(&authority, &p0, "charter", &mut rng);
        chain.invite(&p0, &p1, "pp", "sc", &mut rng);
        chain.invite(&p1, &intruder, "pp", "sc", &mut rng);
        let err = chain.verify().unwrap_err();
        assert!(err.to_string().contains("not certified"));
    }

    #[test]
    fn identity_scalars_are_stable_and_distinct() {
        let (authority, _) = membership();
        assert_eq!(
            authority.identity_scalar("x"),
            authority.identity_scalar("x")
        );
        assert_ne!(
            authority.identity_scalar("x"),
            authority.identity_scalar("y")
        );
        assert_eq!(authority.identify(&Ubig::from_u64(12345)), None);
    }

    #[test]
    fn anonymity_pieces_carry_no_names() {
        let (mut authority, mut rng) = membership();
        let p0 = authority.enroll("very-secret-corporation", &mut rng);
        let chain = EvidenceChain::found(&authority, &p0, "charter", &mut rng);
        // The serialized piece must not contain the enrolled name.
        let piece = &chain.pieces()[0];
        let blob = format!("{piece:?}");
        assert!(!blob.contains("very-secret-corporation"));
    }
}

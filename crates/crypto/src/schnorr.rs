//! Schnorr signatures over a safe-prime group.
//!
//! The paper's DLA cluster relies on tickets ("a digital signature or
//! Kerberos like ticket", §4), a credential authority granting
//! logging/auditing tokens (§4.2), and "threshold signature and
//! distributed majority agreement" (§2). All of these are built here on
//! Schnorr signatures in the order-`q` subgroup of `Z_p^*`, `p = 2q+1`
//! the same safe primes the commutative cipher uses — so the whole
//! system needs exactly one algebraic substrate.

use crate::sha256;
use dla_bigint::jacobi::jacobi;
use dla_bigint::modular::modmul;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{prime, FixedBase, Ubig};
use rand::Rng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The group `(p, q, g)`: safe prime `p = 2q + 1` and a generator `g`
/// of the order-`q` quadratic-residue subgroup.
#[derive(Clone)]
pub struct SchnorrGroup {
    p: Arc<Ubig>,
    q: Arc<Ubig>,
    g: Ubig,
    ctx: Arc<MontgomeryContext>,
    /// Fixed-base evaluator over `g`, built on first use and shared by
    /// every clone of the group: every key, nonce commitment and
    /// signature check raises `g`.
    fixed_g: Arc<OnceLock<FixedBase>>,
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.g == other.g
    }
}

impl Eq for SchnorrGroup {}

impl fmt::Debug for SchnorrGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchnorrGroup({} bits)", self.p.bit_len())
    }
}

impl SchnorrGroup {
    /// Generates a fresh group over a random `bits`-bit safe prime.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        let (p, q) = prime::gen_safe_prime(bits, rng);
        let g = prime::subgroup_generator(&p, rng);
        Self::from_parts(p, q, g)
    }

    fn from_parts(p: Ubig, q: Ubig, g: Ubig) -> Self {
        let ctx = MontgomeryContext::new(&p).expect("safe primes are odd");
        SchnorrGroup {
            p: Arc::new(p),
            q: Arc::new(q),
            g,
            ctx: Arc::new(ctx),
            fixed_g: Arc::new(OnceLock::new()),
        }
    }

    /// The standard 256-bit test group over
    /// [`crate::pohlig_hellman::SAFE_PRIME_256_HEX`] with `g = 4`
    /// (4 = 2² is a quadratic residue ≠ 1, hence has exact order `q`).
    #[must_use]
    pub fn fixed_256() -> Self {
        let p = Ubig::from_hex(crate::pohlig_hellman::SAFE_PRIME_256_HEX).expect("valid constant");
        let q = (&p - &Ubig::one()) >> 1;
        Self::from_parts(p, q, Ubig::from_u64(4))
    }

    /// The prime modulus `p`.
    #[must_use]
    pub fn modulus(&self) -> &Ubig {
        &self.p
    }

    /// The subgroup order `q`.
    #[must_use]
    pub fn order(&self) -> &Ubig {
        &self.q
    }

    /// The generator `g`.
    #[must_use]
    pub fn generator(&self) -> &Ubig {
        &self.g
    }

    /// `g^e mod p` through the cached fixed-base evaluator, whose first
    /// comb is built for exponents below `q`: a comb walk where
    /// `self.pow(self.generator(), e)` runs a ladder, bit for bit the
    /// same value.
    #[must_use]
    pub fn pow_g(&self, e: &Ubig) -> Ubig {
        self.fixed_g
            .get_or_init(|| FixedBase::new(&self.ctx, &self.g, self.q.bit_len()))
            .pow(e)
    }

    /// Whether `y` is a group element other than one: `1 < y < p` with
    /// Jacobi symbol `(y/p) = 1`. For a safe prime that symbol is `+1`
    /// exactly on the order-`q` subgroup, so no power is needed.
    fn is_nontrivial_element(&self, y: &Ubig) -> bool {
        !y.is_zero() && !y.is_one() && y < self.p.as_ref() && jacobi(y, &self.p) == 1
    }

    /// `base^e mod p` (cached Montgomery context).
    #[must_use]
    pub fn pow(&self, base: &Ubig, e: &Ubig) -> Ubig {
        self.ctx.modexp(base, e)
    }

    /// Samples a uniform exponent in `[1, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        Ubig::random_range(rng, &Ubig::one(), &self.q)
    }

    /// Hashes arbitrary parts into a challenge in `[0, q)`.
    #[must_use]
    pub fn challenge(&self, parts: &[&[u8]]) -> Ubig {
        let d = sha256::digest_parts(parts);
        // Extend to 512 bits of hash output so the mod-q bias is negligible.
        let d2 = sha256::digest_parts(&[b"dla-challenge-ext", &d]);
        let mut wide = Vec::with_capacity(64);
        wide.extend_from_slice(&d);
        wide.extend_from_slice(&d2);
        &Ubig::from_bytes_be(&wide) % self.q.as_ref()
    }
}

/// A Schnorr secret/public key pair.
#[derive(Clone)]
pub struct SchnorrKeyPair {
    group: SchnorrGroup,
    x: Ubig,
    public: SchnorrPublicKey,
}

impl fmt::Debug for SchnorrKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchnorrKeyPair(public: {:?})", self.public)
    }
}

/// A Schnorr public key `y = g^x mod p`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SchnorrPublicKey {
    y: Ubig,
}

impl fmt::Debug for SchnorrPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.y.to_hex();
        write!(f, "SchnorrPublicKey({}…)", &hex[..hex.len().min(12)])
    }
}

impl SchnorrPublicKey {
    /// The group element `y`.
    #[must_use]
    pub fn element(&self) -> &Ubig {
        &self.y
    }

    /// Canonical byte encoding (big-endian `y`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.y.to_bytes_be()
    }

    /// Constructs a public key from a group element.
    #[must_use]
    pub fn from_element(y: Ubig) -> Self {
        SchnorrPublicKey { y }
    }
}

/// A Schnorr signature `(e, s)` with
/// `e = H(g^k ‖ m ‖ y)` and `s = k + x·e (mod q)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Challenge scalar.
    pub e: Ubig,
    /// Response scalar.
    pub s: Ubig,
}

impl Signature {
    /// Canonical byte encoding, length-prefixed parts.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let eb = self.e.to_bytes_be();
        let sb = self.s.to_bytes_be();
        let mut out = Vec::with_capacity(eb.len() + sb.len() + 16);
        out.extend_from_slice(&(eb.len() as u64).to_be_bytes());
        out.extend_from_slice(&eb);
        out.extend_from_slice(&(sb.len() as u64).to_be_bytes());
        out.extend_from_slice(&sb);
        out
    }
}

impl SchnorrKeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let x = group.random_exponent(rng);
        Self::from_secret(group, x)
    }

    /// Derives the key pair from a given secret exponent.
    #[must_use]
    pub fn from_secret(group: &SchnorrGroup, x: Ubig) -> Self {
        let y = group.pow_g(&x);
        SchnorrKeyPair {
            group: group.clone(),
            x,
            public: SchnorrPublicKey { y },
        }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> &SchnorrPublicKey {
        &self.public
    }

    /// The group.
    #[must_use]
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The secret exponent (used by the threshold dealer; handle with
    /// care).
    #[must_use]
    pub fn secret(&self) -> &Ubig {
        &self.x
    }

    /// Signs a message.
    pub fn sign<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> Signature {
        let k = self.group.random_exponent(rng);
        self.sign_with_nonce(message, &k)
    }

    /// Signs with an explicit nonce — exposed so the evidence-chain
    /// double-use detection (identity recovery from two responses with
    /// the same nonce) can be demonstrated. Never reuse a nonce for two
    /// different messages unless exposure is the point.
    #[must_use]
    pub fn sign_with_nonce(&self, message: &[u8], k: &Ubig) -> Signature {
        let q = self.group.order();
        let r = self.group.pow_g(k);
        let e = self.group.challenge(&[
            b"dla-schnorr",
            &r.to_bytes_be(),
            message,
            &self.public.to_bytes(),
        ]);
        let s = (k + &modmul(&self.x, &e, q)) % q;
        Signature { e, s }
    }
}

/// Verifies a signature: recompute `r' = g^s · y^{−e}` and check the
/// challenge matches.
///
/// A public key outside the order-`q` subgroup, or the identity, is
/// refused before any power: keys arrive from journals and peers, and
/// under `y = 1` (secret 0) anyone signs anything (`s = k`,
/// `r = g^k`).
#[must_use]
pub fn verify(
    group: &SchnorrGroup,
    public: &SchnorrPublicKey,
    message: &[u8],
    sig: &Signature,
) -> bool {
    let (p, q) = (group.modulus(), group.order());
    if sig.e >= *q || sig.s >= *q || !group.is_nontrivial_element(public.element()) {
        return false;
    }
    // y^{-e} = y^{q - e} in the order-q subgroup.
    let neg_e = if sig.e.is_zero() {
        Ubig::zero()
    } else {
        q - &sig.e
    };
    let r = modmul(
        &group.pow_g(&sig.s),
        &group.pow(public.element(), &neg_e),
        p,
    );
    let e = group.challenge(&[
        b"dla-schnorr",
        &r.to_bytes_be(),
        message,
        &public.to_bytes(),
    ]);
    e == sig.e
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_bigint::modular::modexp;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn fixed_group_generator_has_order_q() {
        let g = SchnorrGroup::fixed_256();
        assert_eq!(modexp(g.generator(), g.order(), g.modulus()), Ubig::one());
        assert_ne!(*g.generator(), Ubig::one());
    }

    #[test]
    fn sign_verify_round_trip() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = key.sign(b"audit ticket for u1", &mut rng);
        assert!(verify(&group, key.public(), b"audit ticket for u1", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = key.sign(b"message A", &mut rng);
        assert!(!verify(&group, key.public(), b"message B", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key1 = SchnorrKeyPair::generate(&group, &mut rng);
        let key2 = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = key1.sign(b"m", &mut rng);
        assert!(!verify(&group, key2.public(), b"m", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = key.sign(b"m", &mut rng);
        let bad_s = Signature {
            e: sig.e.clone(),
            s: (&sig.s + &Ubig::one()) % group.order(),
        };
        assert!(!verify(&group, key.public(), b"m", &bad_s));
        let bad_e = Signature {
            e: (&sig.e + &Ubig::one()) % group.order(),
            s: sig.s.clone(),
        };
        assert!(!verify(&group, key.public(), b"m", &bad_e));
    }

    #[test]
    fn verify_rejects_out_of_range_scalars() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = key.sign(b"m", &mut rng);
        let oversized = Signature {
            e: sig.e.clone() + group.order(),
            s: sig.s,
        };
        assert!(!verify(&group, key.public(), b"m", &oversized));
    }

    #[test]
    fn verify_refuses_degenerate_public_keys() {
        let group = SchnorrGroup::fixed_256();
        let (p, q) = (group.modulus(), group.order());
        let message = b"deposit 139aef";
        // A signature nobody's secret made: `s = k`, `r = g^k`, found
        // for the first nonce where `y^{q−e} = 1` makes it check out.
        let challenge = |r: &Ubig, y: &Ubig| {
            group.challenge(&[b"dla-schnorr", &r.to_bytes_be(), message, &y.to_bytes_be()])
        };
        let forge = |y: &Ubig| {
            (1u64..200)
                .map(|k| Signature {
                    e: challenge(&group.pow_g(&Ubig::from_u64(k)), y),
                    s: Ubig::from_u64(k),
                })
                .find(|sig| group.pow(y, &(q - &sig.e)).is_one())
                .expect("half of all nonces do for y = p - 1")
        };
        for y in [Ubig::one(), p + &Ubig::one(), p - &Ubig::one()] {
            let sig = forge(&y);
            // What the group law says: `g^s · y^{−e} = g^k`, so the
            // challenge recomputes — the forgery is a real one.
            let r = modmul(&group.pow_g(&sig.s), &group.pow(&y, &(q - &sig.e)), p);
            assert_eq!(challenge(&r, &y), sig.e);
            let key = SchnorrPublicKey::from_element(y.clone());
            assert!(!verify(&group, &key, message, &sig), "y = {y}");
        }
        // Zero, the modulus and a non-residue (`−4`, `g = 4`) are no
        // group elements; a genuine key beside them still verifies.
        let genuine = SchnorrKeyPair::generate(&group, &mut rng());
        let sig = genuine.sign(message, &mut rng());
        assert!(verify(&group, genuine.public(), message, &sig));
        for y in [Ubig::zero(), p.clone(), p - &Ubig::from_u64(4)] {
            let key = SchnorrPublicKey::from_element(y.clone());
            assert!(!verify(&group, &key, message, &sig), "y = {y}");
        }
    }

    #[test]
    fn clones_of_a_group_share_one_comb() {
        let group = SchnorrGroup::fixed_256();
        let clone = group.clone();
        let mut rng = rng();
        assert!(group.pow_g(group.order()).is_one(), "g has order q");
        let recorder = dla_telemetry::Recorder::new();
        {
            let _install = recorder.install();
            let _ = clone.pow_g(&group.random_exponent(&mut rng));
        }
        assert_eq!(recorder.take().total_cost().fixed_base_builds, 0);
    }

    #[test]
    fn nonce_reuse_reveals_secret() {
        // The e-coin double-spend equation: two signatures with the same
        // nonce on different messages solve for x.
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let k = group.random_exponent(&mut rng);
        let s1 = key.sign_with_nonce(b"first", &k);
        let s2 = key.sign_with_nonce(b"second", &k);
        let q = group.order();
        // x = (s1 - s2) / (e1 - e2) mod q
        let ds = dla_bigint::modular::modsub(&s1.s, &s2.s, q);
        let de = dla_bigint::modular::modsub(&s1.e, &s2.e, q);
        let x = modmul(
            &ds,
            &dla_bigint::modular::modinv(&de, q).expect("distinct challenges"),
            q,
        );
        assert_eq!(&x, key.secret());
    }

    #[test]
    fn signatures_are_randomized() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let s1 = key.sign(b"m", &mut rng);
        let s2 = key.sign(b"m", &mut rng);
        assert_ne!(s1, s2, "fresh nonce per signature");
        assert!(verify(&group, key.public(), b"m", &s1));
        assert!(verify(&group, key.public(), b"m", &s2));
    }

    #[test]
    fn challenge_is_reduced_and_stable() {
        let group = SchnorrGroup::fixed_256();
        let c1 = group.challenge(&[b"a", b"b"]);
        let c2 = group.challenge(&[b"a", b"b"]);
        assert_eq!(c1, c2);
        assert!(c1 < *group.order());
        assert_ne!(c1, group.challenge(&[b"ab", b""]));
    }

    #[test]
    fn signature_bytes_are_injective() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng();
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let s1 = key.sign(b"m1", &mut rng);
        let s2 = key.sign(b"m2", &mut rng);
        assert_ne!(s1.to_bytes(), s2.to_bytes());
    }
}

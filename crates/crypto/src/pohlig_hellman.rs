//! Commutative encryption (paper §3, Eq. 6–7).
//!
//! A cipher is *commutative* when layered encryptions under different
//! keys can be removed in any order:
//! `E_a(E_b(M)) = E_b(E_a(M))`. The paper builds its secure set
//! intersection/union and equality protocols on exactly this property:
//! each DLA node wraps every travelling set element in its own key, and
//! after a full ring pass, equal plaintexts — and only equal plaintexts —
//! have equal n-fold ciphertexts regardless of encryption order.
//!
//! Two commutative ciphers are provided behind the [`CommutativeKey`]
//! trait:
//!
//! * [`PhKey`] — the Pohlig–Hellman exponentiation cipher the paper
//!   recommends (`C = M^e mod p`, `M = C^d mod p`, `e·d ≡ 1 mod p−1`)
//!   over a safe prime `p = 2q + 1`. Messages are first mapped into the
//!   order-`q` subgroup of quadratic residues (see
//!   [`CommutativeDomain::fingerprint`]) so ciphertexts do not even leak
//!   residuosity.
//! * [`XorKey`] — the XOR one-time-pad style cipher the paper mentions
//!   as the simplest commutative example. It is **not** secure for
//!   repeated use and exists as a baseline and for protocol tests.

use crate::sha256;
use crate::CryptoError;
use dla_bigint::jacobi::jacobi;
use dla_bigint::modular::modinv;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{prime, Ubig};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// How [`PhKey::encrypt_batch`]/[`PhKey::decrypt_batch`] walk a
/// travelling set: one thread, one shared exponent plan and Montgomery
/// scratch. There is no other mode and the argument carries no choice;
/// the type exists only because `benchmark/src/probes.rs` calls
/// `key.encrypt_batch(&batch, BatchMode::Serial)` and a PR may not edit
/// the benchmark it is judged on. The next PR free to touch
/// `benchmark/` drops the argument and this enum (ROADMAP item 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchMode {
    /// The only mode.
    #[default]
    Serial,
}

/// A precomputed 256-bit safe prime (p = 2q + 1, q prime), verified by
/// the test suite. Used for fast deterministic tests and benches.
pub const SAFE_PRIME_256_HEX: &str =
    "a9eeab19c760f86c872f1c471c52157db42be1aefe645387366720155ee9a6d3";

/// A precomputed 512-bit safe prime, verified by the test suite.
pub const SAFE_PRIME_512_HEX: &str =
    "d44ee432e3b498a302a56b9c3ac65bd13be10b6f1eb58a5990f86654a378253954208985ab6f45682d604624d5da8e9f5257e87a12fe06c053605f7c872d24ab";

/// The shared group parameters of a Pohlig–Hellman commutative cipher:
/// a safe prime `p = 2q + 1` agreed upon by every participant.
///
/// All parties in one protocol run must share the same domain — the
/// commutativity equation `E_{K_a}(E_{K_b}(M)) = E_{K_b}(E_{K_a}(M))`
/// only holds inside one group.
#[derive(Clone)]
pub struct CommutativeDomain {
    p: Arc<Ubig>,
    q: Arc<Ubig>,
    /// Cached Montgomery state for `p` (odd by construction), shared by
    /// every key over this domain.
    ctx: Arc<MontgomeryContext>,
    /// The group order `p − 1 = 2q` of `Z_p^*`: exponents reduce by it,
    /// key pairs invert modulo it.
    order: Arc<Ubig>,
}

impl PartialEq for CommutativeDomain {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p
    }
}

impl Eq for CommutativeDomain {}

impl fmt::Debug for CommutativeDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CommutativeDomain({} bits)", self.p.bit_len())
    }
}

impl CommutativeDomain {
    /// Generates a fresh domain from a random safe prime of `bits` bits.
    ///
    /// This is expensive (safe primes are sparse); prefer
    /// [`CommutativeDomain::fixed_256`]/[`fixed_512`](Self::fixed_512)
    /// in tests.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        let (p, q) = prime::gen_safe_prime(bits, rng);
        Self::from_parts(p, q)
    }

    fn from_parts(p: Ubig, q: Ubig) -> Self {
        let ctx = MontgomeryContext::new(&p).expect("safe primes are odd");
        let order = &p - &Ubig::one();
        CommutativeDomain {
            p: Arc::new(p),
            q: Arc::new(q),
            ctx: Arc::new(ctx),
            order: Arc::new(order),
        }
    }

    fn from_hex(hex: &str) -> Self {
        let p = Ubig::from_hex(hex).expect("valid constant");
        let q = (&p - &Ubig::one()) >> 1;
        Self::from_parts(p, q)
    }

    /// Builds a domain from a known safe prime.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if `p` is not a safe
    /// prime (checked probabilistically).
    pub fn from_safe_prime<R: Rng + ?Sized>(p: Ubig, rng: &mut R) -> Result<Self, CryptoError> {
        if !prime::is_prime(&p, rng) {
            return Err(CryptoError::InvalidParameter("p is not prime"));
        }
        let q = (&p - &Ubig::one()) >> 1;
        if !prime::is_prime(&q, rng) {
            return Err(CryptoError::InvalidParameter("(p-1)/2 is not prime"));
        }
        Ok(Self::from_parts(p, q))
    }

    /// The standard 256-bit test domain (see [`SAFE_PRIME_256_HEX`]).
    #[must_use]
    pub fn fixed_256() -> Self {
        Self::from_hex(SAFE_PRIME_256_HEX)
    }

    /// The standard 512-bit domain (see [`SAFE_PRIME_512_HEX`]).
    #[must_use]
    pub fn fixed_512() -> Self {
        Self::from_hex(SAFE_PRIME_512_HEX)
    }

    /// The prime modulus `p`.
    #[must_use]
    pub fn modulus(&self) -> &Ubig {
        &self.p
    }

    /// The subgroup order `q = (p − 1) / 2`.
    #[must_use]
    pub fn subgroup_order(&self) -> &Ubig {
        &self.q
    }

    /// `base^exp mod p` — the hot operation of every commutative-cipher
    /// protocol: sliding-window exponentiation on the cached context's
    /// fixed-width Montgomery kernel, with the exponent first reduced
    /// by the known group order.
    #[must_use]
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let reduced = self.reduce_exp(exp);
        self.ctx.modexp(base, reduced.as_ref().unwrap_or(exp))
    }

    /// Reduces an exponent by the known group order `p − 1 = 2q`
    /// (`Z_p^*` is cyclic of order `2q`, so `base^e = base^{e mod 2q}`
    /// for every unit). Returns `None` when the exponent is already
    /// below the order — the common case, detected by one comparison.
    /// A non-zero exponent that reduces to zero lands on `2q` instead,
    /// which keeps the non-unit edge case `0^e = 0` intact (reducing it
    /// to an actual zero exponent would flip the answer to `1`).
    fn reduce_exp(&self, exp: &Ubig) -> Option<Ubig> {
        let order = self.order.as_ref();
        if exp < order {
            return None;
        }
        let r = exp % order;
        Some(if r.is_zero() { order.clone() } else { r })
    }

    /// `base^exp mod p` for every base in `bases`, in order, sharing
    /// one exponent plan and one Montgomery scratch across the whole
    /// slice ([`MontgomeryContext::modexp_batch`]). Element `i` equals
    /// `self.pow(&bases[i], exp)` bit for bit.
    #[must_use]
    pub fn pow_batch(&self, bases: &[Ubig], exp: &Ubig) -> Vec<Ubig> {
        let reduced = self.reduce_exp(exp);
        self.ctx
            .modexp_batch(bases, reduced.as_ref().unwrap_or(exp))
    }

    /// Whether `x` is a quadratic residue mod `p`, by the binary Jacobi
    /// symbol `(x/p) ≟ 1` — O(bits²) word operations where the Euler
    /// criterion `x^q ≟ 1` would spend a full modexp.
    #[must_use]
    pub fn is_quadratic_residue(&self, x: &Ubig) -> bool {
        jacobi(x, &self.p) == 1
    }

    /// Maximum byte length [`CommutativeDomain::encode`] accepts for
    /// this domain: the modulus width minus 16 bits of headroom (8 for
    /// the QR-search pad byte, 8 to stay below `p`).
    #[must_use]
    pub fn max_encode_len(&self) -> usize {
        (self.p.bit_len().saturating_sub(16)) / 8
    }

    /// *Invertibly* encodes a short message as a quadratic residue:
    /// `candidate = (m ‖ pad)` for the first pad byte making the value a
    /// QR (probability ½ per try). Unlike [`fingerprint`](Self::fingerprint),
    /// the plaintext is recoverable with [`decode`](Self::decode) after
    /// all encryption layers are removed — which is how Figure 4's
    /// parties "decode the plaintext e by the use of their matched
    /// decoding keys", and how secure set union returns actual items.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if the message exceeds
    /// [`max_encode_len`](Self::max_encode_len).
    pub fn encode(&self, message: &[u8]) -> Result<Ubig, CryptoError> {
        if message.len() > self.max_encode_len() {
            return Err(CryptoError::InvalidParameter(
                "message too long for group encoding",
            ));
        }
        let base = Ubig::from_bytes_be(message) << 8;
        for pad in 0..=255u64 {
            let candidate = &base + &Ubig::from_u64(pad);
            if candidate.is_zero() || candidate.is_one() {
                continue;
            }
            if self.is_quadratic_residue(&candidate) {
                return Ok(candidate);
            }
        }
        // 256 consecutive non-residues has probability ~2^-256.
        Err(CryptoError::InvalidParameter(
            "no quadratic-residue padding found",
        ))
    }

    /// Inverts [`encode`](Self::encode): strips the pad byte and
    /// returns the message bytes.
    #[must_use]
    pub fn decode(&self, element: &Ubig) -> Vec<u8> {
        (element >> 8).to_bytes_be()
    }

    /// Maps arbitrary bytes to a group element in the order-`q`
    /// quadratic-residue subgroup: `fingerprint(m) = H(m)² mod p`.
    ///
    /// Distinct inputs map to distinct elements except with negligible
    /// probability (a SHA-256 collision or a `±` pair collision in the
    /// squaring, both ≪ 2^-100 for 256-bit-plus moduli) — this realizes
    /// the paper's Eq. 7 requirement.
    #[must_use]
    pub fn fingerprint(&self, message: &[u8]) -> Ubig {
        let mut counter = 0u64;
        loop {
            let h = sha256::digest_parts(&[message, &counter.to_be_bytes()]);
            let x = &Ubig::from_bytes_be(&h) % self.p.as_ref();
            let fp = self.ctx.modmul(&x, &x);
            // The subgroup's identity (1) and 0 would break bijectivity
            // guarantees; astronomically unlikely, but cheap to exclude.
            if !fp.is_zero() && !fp.is_one() {
                return fp;
            }
            counter += 1;
        }
    }
}

/// A commutative encryption key: layered encryptions under different
/// keys of the same scheme commute, and each layer is removable by its
/// own matching decryption.
pub trait CommutativeKey {
    /// Encrypts one group element.
    fn encrypt(&self, m: &Ubig) -> Ubig;
    /// Removes this key's encryption layer.
    fn decrypt(&self, c: &Ubig) -> Ubig;
}

/// A Pohlig–Hellman key pair `(e, d)` with `e·d ≡ 1 (mod p−1)`.
///
/// # Examples
///
/// ```
/// use dla_crypto::pohlig_hellman::{CommutativeDomain, CommutativeKey, PhKey};
///
/// let domain = CommutativeDomain::fixed_256();
/// let mut rng = rand::thread_rng();
/// let ka = PhKey::generate(&domain, &mut rng);
/// let kb = PhKey::generate(&domain, &mut rng);
/// let m = domain.fingerprint(b"transaction T1100265");
///
/// // Commutativity (paper Eq. 6): order of layers is irrelevant.
/// assert_eq!(ka.encrypt(&kb.encrypt(&m)), kb.encrypt(&ka.encrypt(&m)));
/// // Round trip.
/// assert_eq!(ka.decrypt(&ka.encrypt(&m)), m);
/// ```
#[derive(Clone)]
pub struct PhKey {
    domain: CommutativeDomain,
    e: Ubig,
    d: Ubig,
}

impl fmt::Debug for PhKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the exponents: they are the secret.
        write!(f, "PhKey({:?})", self.domain)
    }
}

impl PhKey {
    /// Generates a random key pair over `domain`.
    pub fn generate<R: Rng + ?Sized>(domain: &CommutativeDomain, rng: &mut R) -> Self {
        let order = domain.order.as_ref();
        loop {
            let e = Ubig::random_range(rng, &Ubig::from_u64(3), order);
            if let Some(d) = modinv(&e, order) {
                return PhKey {
                    domain: domain.clone(),
                    e,
                    d,
                };
            }
        }
    }

    /// Builds a key pair from a chosen encryption exponent.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if `e` is not coprime
    /// to `p − 1` (no decryption exponent exists).
    pub fn from_exponent(domain: &CommutativeDomain, e: Ubig) -> Result<Self, CryptoError> {
        let d = modinv(&e, &domain.order)
            .ok_or(CryptoError::InvalidParameter("exponent not coprime to p-1"))?;
        Ok(PhKey {
            domain: domain.clone(),
            e,
            d,
        })
    }

    /// The shared domain this key operates in.
    #[must_use]
    pub fn domain(&self) -> &CommutativeDomain {
        &self.domain
    }

    /// Encrypts a whole travelling set in order, sharing one exponent
    /// plan and Montgomery scratch across the slice. Element `i` of the
    /// result equals `self.encrypt(&ms[i])` bit for bit. (The second
    /// argument carries no choice — see [`BatchMode`].)
    #[must_use]
    pub fn encrypt_batch(&self, ms: &[Ubig], _mode: BatchMode) -> Vec<Ubig> {
        self.domain.pow_batch(ms, &self.e)
    }

    /// Removes this key's layer from a whole travelling set in order;
    /// the batched counterpart of [`CommutativeKey::decrypt`].
    #[must_use]
    pub fn decrypt_batch(&self, cs: &[Ubig], _mode: BatchMode) -> Vec<Ubig> {
        self.domain.pow_batch(cs, &self.d)
    }
}

impl CommutativeKey for PhKey {
    fn encrypt(&self, m: &Ubig) -> Ubig {
        self.domain.pow(m, &self.e)
    }

    fn decrypt(&self, c: &Ubig) -> Ubig {
        self.domain.pow(c, &self.d)
    }
}

/// Width of the [`XorKey`] message block in bytes.
pub const XOR_BLOCK_LEN: usize = 32;

/// The XOR commutative cipher the paper cites as the simplest example.
///
/// Operates on 256-bit blocks. Deterministic and linear — **insecure**
/// for any real workload; retained as the paper's pedagogical baseline
/// and for fast protocol plumbing tests.
#[derive(Clone)]
pub struct XorKey {
    mask: [u8; XOR_BLOCK_LEN],
}

impl fmt::Debug for XorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XorKey(256-bit mask)")
    }
}

impl XorKey {
    /// Generates a random 256-bit mask.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut mask = [0u8; XOR_BLOCK_LEN];
        rng.fill(&mut mask);
        XorKey { mask }
    }

    fn apply(&self, v: &Ubig) -> Ubig {
        let bytes = v.to_bytes_be();
        assert!(
            bytes.len() <= XOR_BLOCK_LEN,
            "XorKey message wider than {XOR_BLOCK_LEN} bytes"
        );
        let mut block = [0u8; XOR_BLOCK_LEN];
        block[XOR_BLOCK_LEN - bytes.len()..].copy_from_slice(&bytes);
        for (b, m) in block.iter_mut().zip(self.mask.iter()) {
            *b ^= m;
        }
        Ubig::from_bytes_be(&block)
    }
}

impl CommutativeKey for XorKey {
    /// # Panics
    ///
    /// Panics if the message exceeds 256 bits.
    fn encrypt(&self, m: &Ubig) -> Ubig {
        self.apply(m)
    }

    fn decrypt(&self, c: &Ubig) -> Ubig {
        self.apply(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_bigint::modular::{modexp, modexp_schoolbook};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(100)
    }

    #[test]
    fn fixed_domains_are_safe_primes() {
        let mut rng = rng();
        for domain in [
            CommutativeDomain::fixed_256(),
            CommutativeDomain::fixed_512(),
        ] {
            assert!(prime::is_prime(domain.modulus(), &mut rng));
            assert!(prime::is_prime(domain.subgroup_order(), &mut rng));
            assert_eq!(
                domain.modulus(),
                &((domain.subgroup_order() << 1) + Ubig::one())
            );
        }
        assert_eq!(CommutativeDomain::fixed_256().modulus().bit_len(), 256);
        assert_eq!(CommutativeDomain::fixed_512().modulus().bit_len(), 512);
    }

    #[test]
    fn ph_round_trip() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        for _ in 0..10 {
            let key = PhKey::generate(&domain, &mut rng);
            let m = domain.fingerprint(format!("msg {:?}", rng.gen::<u64>()).as_bytes());
            assert_eq!(key.decrypt(&key.encrypt(&m)), m);
        }
    }

    #[test]
    fn ph_commutes_pairwise() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let ka = PhKey::generate(&domain, &mut rng);
        let kb = PhKey::generate(&domain, &mut rng);
        let m = domain.fingerprint(b"element e");
        assert_eq!(ka.encrypt(&kb.encrypt(&m)), kb.encrypt(&ka.encrypt(&m)));
    }

    #[test]
    fn ph_commutes_under_all_three_party_permutations() {
        // The Figure 4 property: E132(e) = E321(e) = E213(e).
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let keys: Vec<PhKey> = (0..3).map(|_| PhKey::generate(&domain, &mut rng)).collect();
        let m = domain.fingerprint(b"e");
        let perms = [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let reference = keys[2].encrypt(&keys[1].encrypt(&keys[0].encrypt(&m)));
        for perm in perms {
            let mut c = m.clone();
            for &i in &perm {
                c = keys[i].encrypt(&c);
            }
            assert_eq!(c, reference, "permutation {perm:?}");
        }
    }

    #[test]
    fn ph_layers_removable_in_any_order() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let ka = PhKey::generate(&domain, &mut rng);
        let kb = PhKey::generate(&domain, &mut rng);
        let m = domain.fingerprint(b"payload");
        let c = ka.encrypt(&kb.encrypt(&m));
        // Remove outer-first and inner-first.
        assert_eq!(kb.decrypt(&ka.decrypt(&c)), m);
        assert_eq!(ka.decrypt(&kb.decrypt(&c)), m);
    }

    #[test]
    fn distinct_plaintexts_never_collide() {
        // Eq. 7: Pr[E(M1) = E(M2)] must be negligible; exponentiation by
        // an invertible e is a bijection, so it is exactly zero here.
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let key = PhKey::generate(&domain, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u32 {
            let m = domain.fingerprint(&i.to_be_bytes());
            let c = key.encrypt(&m);
            assert!(seen.insert(c.to_hex()), "ciphertext collision at {i}");
        }
    }

    #[test]
    fn fingerprint_lands_in_subgroup() {
        let domain = CommutativeDomain::fixed_256();
        for i in 0..20u32 {
            let fp = domain.fingerprint(&i.to_be_bytes());
            assert_eq!(
                modexp(&fp, domain.subgroup_order(), domain.modulus()),
                Ubig::one(),
                "fingerprint must have order dividing q"
            );
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_distinct() {
        let domain = CommutativeDomain::fixed_256();
        assert_eq!(domain.fingerprint(b"x"), domain.fingerprint(b"x"));
        assert_ne!(domain.fingerprint(b"x"), domain.fingerprint(b"y"));
    }

    #[test]
    fn from_exponent_rejects_non_coprime() {
        let domain = CommutativeDomain::fixed_256();
        // p - 1 = 2q, so e = 2 shares a factor with p - 1.
        assert!(PhKey::from_exponent(&domain, Ubig::two()).is_err());
        // e = q also shares a factor.
        assert!(PhKey::from_exponent(&domain, domain.subgroup_order().clone()).is_err());
        // Small odd e != q is coprime.
        let key = PhKey::from_exponent(&domain, Ubig::from_u64(65537)).unwrap();
        let m = domain.fingerprint(b"ok");
        assert_eq!(key.decrypt(&key.encrypt(&m)), m);
    }

    #[test]
    fn from_safe_prime_validates() {
        let mut rng = rng();
        // 23 = 2*11 + 1 is a safe prime.
        assert!(CommutativeDomain::from_safe_prime(Ubig::from_u64(23), &mut rng).is_ok());
        // 13 is prime but (13-1)/2 = 6 is not.
        assert!(CommutativeDomain::from_safe_prime(Ubig::from_u64(13), &mut rng).is_err());
        // 15 is not prime.
        assert!(CommutativeDomain::from_safe_prime(Ubig::from_u64(15), &mut rng).is_err());
    }

    #[test]
    fn xor_round_trip_and_commutativity() {
        let mut rng = rng();
        let ka = XorKey::generate(&mut rng);
        let kb = XorKey::generate(&mut rng);
        let m = Ubig::from_bytes_be(&sha256::digest(b"block"));
        assert_eq!(ka.decrypt(&ka.encrypt(&m)), m);
        assert_eq!(ka.encrypt(&kb.encrypt(&m)), kb.encrypt(&ka.encrypt(&m)));
    }

    #[test]
    #[should_panic(expected = "wider")]
    fn xor_rejects_oversized_messages() {
        let mut rng = rng();
        let k = XorKey::generate(&mut rng);
        let _ = k.encrypt(&(Ubig::one() << 300));
    }

    #[test]
    fn encode_decode_round_trip() {
        let domain = CommutativeDomain::fixed_256();
        for msg in [
            b"e".as_slice(),
            b"glsn=139aef78",
            b"",
            b"a slightly longer element xx",
        ] {
            let elem = domain.encode(msg).unwrap();
            let expect: Vec<u8> = msg.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(domain.decode(&elem), expect);
            // Element must be a quadratic residue (order divides q).
            assert!(modexp(&elem, domain.subgroup_order(), domain.modulus()).is_one());
        }
    }

    #[test]
    fn encode_then_encrypt_then_decrypt_recovers_message() {
        // The Figure 4 end-game: triple-encrypt an encoded element, peel
        // all three layers in a different order, decode the plaintext.
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let keys: Vec<PhKey> = (0..3).map(|_| PhKey::generate(&domain, &mut rng)).collect();
        let elem = domain.encode(b"e").unwrap();
        let c = keys[2].encrypt(&keys[0].encrypt(&keys[1].encrypt(&elem)));
        let back = keys[1].decrypt(&keys[2].decrypt(&keys[0].decrypt(&c)));
        assert_eq!(domain.decode(&back), b"e");
    }

    #[test]
    fn encode_rejects_oversized_message() {
        let domain = CommutativeDomain::fixed_256();
        assert_eq!(domain.max_encode_len(), 30);
        let big = vec![0xABu8; 31];
        assert!(domain.encode(&big).is_err());
        let ok = vec![0xABu8; 30];
        assert!(domain.encode(&ok).is_ok());
    }

    #[test]
    fn encode_is_injective_on_distinct_messages() {
        let domain = CommutativeDomain::fixed_256();
        let a = domain.encode(b"glsn-1").unwrap();
        let b = domain.encode(b"glsn-2").unwrap();
        assert_ne!(a, b);
        assert_ne!(domain.decode(&a), domain.decode(&b));
    }

    /// Encodings captured from the commit before the Jacobi probe was
    /// rewritten: the accepted pad byte — hence every ciphertext and
    /// wire byte downstream — did not move. 8-byte items are bare
    /// glsns, 24-byte items the equality join's `glsn ‖ H(v)[..16]`.
    #[test]
    fn encode_vectors_are_pinned() {
        let join = |glsn: u64, value: &str| {
            let mut item = glsn.to_be_bytes().to_vec();
            item.extend_from_slice(&sha256::digest(value.as_bytes())[..16]);
            item
        };
        let glsns = [
            0,
            1,
            2,
            7,
            1000,
            0x139a_ef78,
            u64::MAX,
            0x0123_4567_89ab_cdef,
        ];
        let joins = [
            join(1, "TCP"),
            join(2, "UDP"),
            join(0x139a_ef78, "U1"),
            join(u64::MAX, "a longer attribute value"),
        ];
        let pinned: [(CommutativeDomain, [&str; 8], [&str; 4]); 2] = [
            (
                CommutativeDomain::fixed_256(),
                [
                    "3",
                    "100",
                    "201",
                    "700",
                    "3e801",
                    "139aef7800",
                    "ffffffffffffffff02",
                    "123456789abcdef02",
                ],
                [
                    "12e9430507b92dee11e1a03bc534f670000",
                    "2dc4030f9688d6e67dfc4c5f8f7afcbdb00",
                    "139aef78316ca0efda6296d8f2c11d1e20890d2200",
                    "ffffffffffffffff641f3e36b2163a75256ff04ce0c96d2b01",
                ],
            ),
            (
                CommutativeDomain::fixed_512(),
                [
                    "3",
                    "100",
                    "201",
                    "700",
                    "3e800",
                    "139aef7801",
                    "ffffffffffffffff00",
                    "123456789abcdef00",
                ],
                [
                    "12e9430507b92dee11e1a03bc534f670003",
                    "2dc4030f9688d6e67dfc4c5f8f7afcbdb00",
                    "139aef78316ca0efda6296d8f2c11d1e20890d2201",
                    "ffffffffffffffff641f3e36b2163a75256ff04ce0c96d2b00",
                ],
            ),
        ];
        for (domain, glsn_hex, join_hex) in &pinned {
            for (glsn, hex) in glsns.iter().zip(glsn_hex) {
                let encoded = domain.encode(&glsn.to_be_bytes()).unwrap();
                assert_eq!(encoded.to_hex(), *hex, "{domain:?} glsn {glsn:#x}");
            }
            for (item, hex) in joins.iter().zip(join_hex) {
                assert_eq!(domain.encode(item).unwrap().to_hex(), *hex, "{domain:?}");
            }
        }
    }

    #[test]
    fn qr_tests_agree_and_encode_identically() {
        // The Euler criterion x^q ≟ 1 (mod p), on the schoolbook oracle,
        // is the definition the Jacobi probe must agree with.
        let domain = CommutativeDomain::fixed_256();
        let euler =
            |x: &Ubig| modexp_schoolbook(x, domain.subgroup_order(), domain.modulus()).is_one();
        let mut rng = rng();
        for _ in 0..30 {
            let x = Ubig::random_below(&mut rng, domain.modulus());
            if x.is_zero() {
                continue;
            }
            assert_eq!(
                domain.is_quadratic_residue(&x),
                euler(&x),
                "x={}",
                x.to_hex()
            );
        }
        // The pad search accepts the first byte the Euler criterion
        // would: every smaller pad is a non-residue, the chosen one is.
        for msg in [b"e".as_slice(), b"glsn=139aef78", b"", b"set element 19"] {
            let encoded = domain.encode(msg).unwrap();
            assert!(euler(&encoded));
            let mut skipped = Ubig::from_bytes_be(msg) << 8;
            while skipped < encoded {
                assert!(skipped.is_zero() || skipped.is_one() || !euler(&skipped));
                skipped = &skipped + &Ubig::one();
            }
        }
    }

    #[test]
    fn exp_algos_agree_on_ciphertexts() {
        // The production path against the slow rungs kept in dla-bigint
        // as oracles: division-based schoolbook and the generic-kernel
        // sliding window.
        let mut rng = rng();
        let domain = CommutativeDomain::fixed_256();
        let ctx = MontgomeryContext::new(domain.modulus()).unwrap();
        let key = PhKey::generate(&domain, &mut rng);
        let m = domain.fingerprint(b"ablation element");
        let c = key.encrypt(&m);
        assert_eq!(c, modexp_schoolbook(&m, &key.e, domain.modulus()));
        assert_eq!(c, ctx.modexp_generic(&m, &key.e));
        assert_eq!(c, ctx.modexp_binary(&m, &key.e));
        assert_eq!(key.decrypt(&c), m);
        assert_eq!(m, modexp_schoolbook(&c, &key.d, domain.modulus()));
        assert_eq!(m, ctx.modexp_generic(&c, &key.d));
    }

    #[test]
    fn batch_matches_element_at_a_time() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let key = PhKey::generate(&domain, &mut rng);
        let ms: Vec<Ubig> = (0..9u32)
            .map(|i| domain.fingerprint(&i.to_be_bytes()))
            .collect();
        let expected: Vec<Ubig> = ms.iter().map(|m| key.encrypt(m)).collect();
        assert_eq!(key.encrypt_batch(&ms, BatchMode::Serial), expected);
        assert_eq!(key.decrypt_batch(&expected, BatchMode::Serial), ms);
        assert!(key.encrypt_batch(&[], BatchMode::Serial).is_empty());
    }

    #[test]
    fn batch_telemetry_counts_one_modexp_per_element() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let key = PhKey::generate(&domain, &mut rng);
        let ms: Vec<Ubig> = (0..7u32)
            .map(|i| domain.fingerprint(&i.to_be_bytes()))
            .collect();
        let recorder = dla_telemetry::Recorder::new();
        {
            let _guard = recorder.install();
            let _ = key.encrypt_batch(&ms, BatchMode::Serial);
        }
        let cost = recorder.take().total_cost();
        assert_eq!(cost.modexp, ms.len() as u64);
        assert!(cost.mont_mul_steps > 0);
    }

    #[test]
    fn accel_reduces_exponents_by_group_order() {
        // base^e = base^(e mod 2q) for units; `pow` reduces, the
        // schoolbook and generic-window oracles never do — answers must
        // still match.
        let domain = CommutativeDomain::fixed_256();
        let ctx = MontgomeryContext::new(domain.modulus()).unwrap();
        let order = domain.modulus() - &Ubig::one();
        let mut rng = rng();
        let base = domain.fingerprint(b"reduction probe");
        for exp in [
            Ubig::zero(),
            Ubig::one(),
            order.clone(),
            &order - &Ubig::one(),
            &order + &Ubig::one(),
            &order << 1,
            &(&order * &Ubig::from_u64(7)) + &Ubig::from_u64(12345),
            Ubig::random_bits(&mut rng, 1000),
        ] {
            let got = domain.pow(&base, &exp);
            assert_eq!(got, ctx.modexp_generic(&base, &exp), "exp={}", exp.to_hex());
            assert_eq!(
                got,
                modexp_schoolbook(&base, &exp, domain.modulus()),
                "exp={}",
                exp.to_hex()
            );
        }
        // The zero guard: 0^e must stay 0 even when e ≡ 0 (mod 2q).
        assert_eq!(domain.pow(&Ubig::zero(), &order), Ubig::zero());
        assert_eq!(domain.pow(&Ubig::zero(), &(&order << 1)), Ubig::zero());
        assert_eq!(domain.pow(&Ubig::zero(), &Ubig::zero()), Ubig::one());
    }

    #[test]
    fn debug_never_leaks_secrets() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let key = PhKey::generate(&domain, &mut rng);
        let dbg = format!("{key:?}");
        assert!(!dbg.contains(&key.e.to_hex()));
        assert!(!dbg.contains(&key.d.to_hex()));
    }
}

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

/// Which exponentiation algorithm [`CommutativeDomain::pow`] routes
/// through. The default is the fastest path; the others exist so the
/// `exp_crypto_hotpath` ablation can measure each rung of the ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExpAlgo {
    /// Division-based schoolbook square-and-multiply (slowest rung).
    Schoolbook,
    /// Montgomery bit-at-a-time square-and-multiply (the pre-windowed
    /// baseline).
    Binary,
    /// Montgomery sliding-window with an odd-powers table on the
    /// generic slice kernel — the previous default, retained as an
    /// ablation rung and differential oracle.
    Windowed,
    /// Sliding-window exponentiation on the fixed-width Montgomery
    /// kernel (fully unrolled 4/8-limb CIOS), with exponents reduced by
    /// the known group order `p − 1 = 2q` first (default).
    #[default]
    Accel,
}

/// Which quadratic-residue test [`CommutativeDomain::encode`] probes
/// pad bytes with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QrTest {
    /// Euler criterion `x^q ≟ 1 (mod p)` — one full exponent-`q`
    /// modexp per probe (ablation baseline).
    Euler,
    /// Binary Jacobi symbol `(x/p) ≟ 1` — O(bits²) word operations,
    /// the same answer at a fraction of the cost (default).
    #[default]
    Jacobi,
}

/// How [`PhKey::encrypt_batch`]/[`PhKey::decrypt_batch`] distribute
/// work over a travelling set.
///
/// Both modes produce **bit-identical** ciphertext vectors (same
/// order, same values) and identical telemetry op totals; `Pooled`
/// only divides the wall-clock across scoped worker threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchMode {
    /// One thread, one shared Montgomery scratch (default;
    /// allocation-free per element).
    #[default]
    Serial,
    /// Scoped worker threads, each with its own scratch; the caller's
    /// telemetry recorder is propagated into every worker
    /// ([`dla_telemetry::Recorder::install`] pattern). Worker-side
    /// costs merge into the same recorder but are not attributed to
    /// the calling thread's innermost scope. Batches smaller than
    /// [`POOLED_MIN_BATCH`] run serially — spawning threads for a
    /// handful of exponentiations costs more than it saves.
    Pooled {
        /// Upper bound on worker threads (clamped to the element
        /// count; `0` and `1` degenerate to serial).
        threads: usize,
    },
}

/// Smallest travelling-set size [`BatchMode::Pooled`] actually fans
/// out for. Below this, thread spawn/join overhead exceeds the whole
/// batch's exponentiation work, so pooled requests degrade to the
/// serial shared-plan path (bit-identical results either way).
pub const POOLED_MIN_BATCH: usize = 32;

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
    exp_algo: ExpAlgo,
    qr_test: QrTest,
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
        CommutativeDomain {
            p: Arc::new(p),
            q: Arc::new(q),
            ctx: Arc::new(ctx),
            exp_algo: ExpAlgo::default(),
            qr_test: QrTest::default(),
        }
    }

    /// Selects the exponentiation algorithm (ablation knob; defaults to
    /// [`ExpAlgo::Accel`]). All choices compute identical values.
    #[must_use]
    pub fn with_exp_algo(mut self, algo: ExpAlgo) -> Self {
        self.exp_algo = algo;
        self
    }

    /// Selects the quadratic-residue test used by
    /// [`encode`](Self::encode) (ablation knob; defaults to
    /// [`QrTest::Jacobi`]). Both choices accept exactly the same pad
    /// bytes, so encodings are bit-identical either way.
    #[must_use]
    pub fn with_qr_test(mut self, qr: QrTest) -> Self {
        self.qr_test = qr;
        self
    }

    /// The active exponentiation algorithm.
    #[must_use]
    pub fn exp_algo(&self) -> ExpAlgo {
        self.exp_algo
    }

    /// The active quadratic-residue test.
    #[must_use]
    pub fn qr_test(&self) -> QrTest {
        self.qr_test
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
        let p = Ubig::from_hex(SAFE_PRIME_256_HEX).expect("valid constant");
        let q = (&p - &Ubig::one()) >> 1;
        Self::from_parts(p, q)
    }

    /// The standard 512-bit domain (see [`SAFE_PRIME_512_HEX`]).
    #[must_use]
    pub fn fixed_512() -> Self {
        let p = Ubig::from_hex(SAFE_PRIME_512_HEX).expect("valid constant");
        let q = (&p - &Ubig::one()) >> 1;
        Self::from_parts(p, q)
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
    /// protocol. Routed per [`with_exp_algo`](Self::with_exp_algo);
    /// the default goes through the cached Montgomery context's
    /// sliding-window exponentiation.
    #[must_use]
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        match self.exp_algo {
            ExpAlgo::Schoolbook => dla_bigint::modular::modexp_schoolbook(base, exp, &self.p),
            ExpAlgo::Binary => self.ctx.modexp_binary(base, exp),
            ExpAlgo::Windowed => self.ctx.modexp_generic(base, exp),
            ExpAlgo::Accel => match self.reduce_exp(exp) {
                Some(r) => self.ctx.modexp(base, &r),
                None => self.ctx.modexp(base, exp),
            },
        }
    }

    /// Reduces an exponent by the known group order `p − 1 = 2q`
    /// (`Z_p^*` is cyclic of order `2q`, so `base^e = base^{e mod 2q}`
    /// for every unit). Returns `None` when the exponent is already
    /// below the order — the common case, detected by one comparison.
    /// A non-zero exponent that reduces to zero lands on `2q` instead,
    /// which keeps the non-unit edge case `0^e = 0` intact (reducing it
    /// to an actual zero exponent would flip the answer to `1`).
    fn reduce_exp(&self, exp: &Ubig) -> Option<Ubig> {
        let order = self.p.as_ref() - &Ubig::one();
        if *exp < order {
            return None;
        }
        let r = exp % &order;
        Some(if r.is_zero() { order } else { r })
    }

    /// `base^exp mod p` for every base in `bases`, in order.
    ///
    /// The serial windowed path shares one exponent plan and one
    /// Montgomery scratch across the whole slice
    /// ([`MontgomeryContext::modexp_batch`]); `Pooled` splits the slice
    /// into contiguous chunks across scoped worker threads, each
    /// carrying the caller's telemetry recorder. Results and telemetry
    /// op totals are identical across all modes.
    #[must_use]
    pub fn pow_batch(&self, bases: &[Ubig], exp: &Ubig, mode: BatchMode) -> Vec<Ubig> {
        match mode {
            BatchMode::Serial => self.pow_batch_serial(bases, exp),
            BatchMode::Pooled { threads } => {
                let threads = threads.min(bases.len());
                if threads <= 1 || bases.len() < POOLED_MIN_BATCH {
                    return self.pow_batch_serial(bases, exp);
                }
                let recorder = dla_telemetry::current();
                let chunk = bases.len().div_ceil(threads);
                std::thread::scope(|s| {
                    let handles: Vec<_> = bases
                        .chunks(chunk)
                        .map(|part| {
                            let recorder = recorder.clone();
                            s.spawn(move || {
                                let _guard = recorder.as_ref().map(|r| r.install());
                                self.pow_batch_serial(part, exp)
                            })
                        })
                        .collect();
                    let mut out = Vec::with_capacity(bases.len());
                    for h in handles {
                        out.extend(h.join().expect("pow_batch worker panicked"));
                    }
                    out
                })
            }
        }
    }

    fn pow_batch_serial(&self, bases: &[Ubig], exp: &Ubig) -> Vec<Ubig> {
        match self.exp_algo {
            ExpAlgo::Windowed => self.ctx.modexp_batch_generic(bases, exp),
            ExpAlgo::Accel => {
                let reduced = self.reduce_exp(exp);
                self.ctx
                    .modexp_batch(bases, reduced.as_ref().unwrap_or(exp))
            }
            _ => bases.iter().map(|b| self.pow(b, exp)).collect(),
        }
    }

    /// Whether `x` is a quadratic residue mod `p`, by the configured
    /// [`QrTest`]. For the safe-prime moduli used here the two tests
    /// agree on every input in `1..p`.
    #[must_use]
    pub fn is_quadratic_residue(&self, x: &Ubig) -> bool {
        match self.qr_test {
            QrTest::Euler => self.pow(x, &self.q).is_one(),
            QrTest::Jacobi => jacobi(x, &self.p) == 1,
        }
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
            // QR test: Jacobi symbol by default; the Euler criterion
            // x^q ≟ 1 (mod p) under the ablation knob. Same accepted
            // pad bytes either way, so the encoding is stable.
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
        let p_minus_1 = domain.modulus() - &Ubig::one();
        loop {
            let e = Ubig::random_range(rng, &Ubig::from_u64(3), &p_minus_1);
            if let Some(d) = modinv(&e, &p_minus_1) {
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
        let p_minus_1 = domain.modulus() - &Ubig::one();
        let d = modinv(&e, &p_minus_1)
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
    /// plan and Montgomery scratch across the slice (and optionally a
    /// worker pool). Element `i` of the result equals
    /// `self.encrypt(&ms[i])` bit for bit in every [`BatchMode`].
    #[must_use]
    pub fn encrypt_batch(&self, ms: &[Ubig], mode: BatchMode) -> Vec<Ubig> {
        self.domain.pow_batch(ms, &self.e, mode)
    }

    /// Removes this key's layer from a whole travelling set in order;
    /// the batched counterpart of [`CommutativeKey::decrypt`].
    #[must_use]
    pub fn decrypt_batch(&self, cs: &[Ubig], mode: BatchMode) -> Vec<Ubig> {
        self.domain.pow_batch(cs, &self.d, mode)
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
    use dla_bigint::modular::modexp;
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
        let jacobi_domain = CommutativeDomain::fixed_256();
        let euler_domain = CommutativeDomain::fixed_256().with_qr_test(QrTest::Euler);
        let mut rng = rng();
        for _ in 0..30 {
            let x = Ubig::random_below(&mut rng, jacobi_domain.modulus());
            if x.is_zero() {
                continue;
            }
            assert_eq!(
                jacobi_domain.is_quadratic_residue(&x),
                euler_domain.is_quadratic_residue(&x),
                "x={}",
                x.to_hex()
            );
        }
        for msg in [b"e".as_slice(), b"glsn=139aef78", b"", b"set element 19"] {
            assert_eq!(
                jacobi_domain.encode(msg).unwrap(),
                euler_domain.encode(msg).unwrap(),
                "pad search must accept the same byte under both tests"
            );
        }
    }

    #[test]
    fn exp_algos_agree_on_ciphertexts() {
        let mut rng = rng();
        let base = CommutativeDomain::fixed_256();
        let key = PhKey::generate(&base, &mut rng);
        let m = base.fingerprint(b"ablation element");
        let reference = key.encrypt(&m);
        for algo in [
            ExpAlgo::Schoolbook,
            ExpAlgo::Binary,
            ExpAlgo::Windowed,
            ExpAlgo::Accel,
        ] {
            let domain = CommutativeDomain::fixed_256().with_exp_algo(algo);
            let alt = PhKey::from_exponent(&domain, key.e.clone()).unwrap();
            assert_eq!(alt.encrypt(&m), reference, "{algo:?}");
            assert_eq!(alt.decrypt(&reference), m, "{algo:?}");
        }
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
        for mode in [
            BatchMode::Serial,
            BatchMode::Pooled { threads: 3 },
            BatchMode::Pooled { threads: 16 },
            BatchMode::Pooled { threads: 0 },
        ] {
            assert_eq!(key.encrypt_batch(&ms, mode), expected, "{mode:?}");
        }
        let back = key.decrypt_batch(&expected, BatchMode::Pooled { threads: 4 });
        assert_eq!(back, ms);
        assert!(key
            .encrypt_batch(&[], BatchMode::Pooled { threads: 4 })
            .is_empty());
    }

    #[test]
    fn pooled_batch_telemetry_totals_match_serial() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let key = PhKey::generate(&domain, &mut rng);
        let ms: Vec<Ubig> = (0..7u32)
            .map(|i| domain.fingerprint(&i.to_be_bytes()))
            .collect();

        let count = |mode: BatchMode| {
            let recorder = dla_telemetry::Recorder::new();
            let out = {
                let _guard = recorder.install();
                key.encrypt_batch(&ms, mode)
            };
            let cost = recorder.take().total_cost();
            (out, cost.modexp, cost.mont_mul_steps)
        };
        let (serial_out, serial_exp, serial_steps) = count(BatchMode::Serial);
        let (pooled_out, pooled_exp, pooled_steps) = count(BatchMode::Pooled { threads: 3 });
        assert_eq!(serial_out, pooled_out);
        assert_eq!(serial_exp, pooled_exp);
        assert_eq!(serial_steps, pooled_steps);
        assert_eq!(serial_exp, ms.len() as u64);
        assert!(serial_steps > 0);
    }

    #[test]
    fn accel_reduces_exponents_by_group_order() {
        // base^e = base^(e mod 2q) for units; the Accel rung reduces,
        // the Windowed oracle never does — answers must still match.
        let accel = CommutativeDomain::fixed_256();
        let oracle = CommutativeDomain::fixed_256().with_exp_algo(ExpAlgo::Windowed);
        let order = accel.modulus() - &Ubig::one();
        let mut rng = rng();
        let base = accel.fingerprint(b"reduction probe");
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
            assert_eq!(
                accel.pow(&base, &exp),
                oracle.pow(&base, &exp),
                "exp={}",
                exp.to_hex()
            );
        }
        // The zero guard: 0^e must stay 0 even when e ≡ 0 (mod 2q).
        assert_eq!(accel.pow(&Ubig::zero(), &order), Ubig::zero());
        assert_eq!(accel.pow(&Ubig::zero(), &(&order << 1)), Ubig::zero());
        assert_eq!(accel.pow(&Ubig::zero(), &Ubig::zero()), Ubig::one());
    }

    #[test]
    fn pooled_below_threshold_degrades_to_serial() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        let key = PhKey::generate(&domain, &mut rng);
        const { assert!(POOLED_MIN_BATCH > 2) };
        let ms: Vec<Ubig> = (0..POOLED_MIN_BATCH as u32 - 1)
            .map(|i| domain.fingerprint(&i.to_be_bytes()))
            .collect();
        // Identical values and identical telemetry *scope attribution*:
        // a sub-threshold pooled batch never leaves the calling thread.
        let run = |mode: BatchMode| {
            let recorder = dla_telemetry::Recorder::new();
            let out = {
                let _guard = recorder.install();
                key.encrypt_batch(&ms, mode)
            };
            (out, recorder.take().total_cost())
        };
        let (serial_out, serial_cost) = run(BatchMode::Serial);
        let (pooled_out, pooled_cost) = run(BatchMode::Pooled { threads: 3 });
        assert_eq!(serial_out, pooled_out);
        assert_eq!(serial_cost, pooled_cost);
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

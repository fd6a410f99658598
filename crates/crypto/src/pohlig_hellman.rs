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
//! The cipher is [`PhKey`], the Pohlig–Hellman exponentiation cipher
//! the paper recommends (`C = M^e mod p`, `M = C^d mod p`,
//! `e·d ≡ 1 mod p−1`) over a safe prime `p = 2q + 1`. Messages are first
//! mapped into the order-`q` subgroup of quadratic residues (see
//! [`CommutativeDomain::fingerprint`]) so ciphertexts do not even leak
//! residuosity.
//!
//! A protocol carries each element as one `Copy` word array
//! `[u64; L]` — `L = 4` for a domain of up to 256 bits, `8` up to 512 —
//! from [`CommutativeDomain::encode_words`], through
//! [`PhKey::encrypt_words`]/[`PhKey::decrypt_words`], to
//! [`CommutativeDomain::decode_words`]; the [`Ubig`] entry points
//! convert around that one path.

use crate::sha256;
use crate::CryptoError;
use dla_bigint::jacobi::{jacobi_stream, jacobi_stream_scalar, jacobi_words, Feed};
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

/// The widest domain, in 64-bit words: an element travels as a
/// `[u64; 4]` up to 256 bits and a `[u64; 8]` up to 512.
pub const MAX_LIMBS: usize = 8;

/// [`CommutativeDomain::decode_words`] into `buf`, for a caller that
/// holds elements as one flat word vector: the message bytes of
/// `element` (at most [`MAX_LIMBS`] words, least significant first).
///
/// # Panics
///
/// Panics if `element` is empty or wider than [`MAX_LIMBS`] words.
pub fn decode_into<'b>(element: &[u64], buf: &'b mut [u8; 8 * MAX_LIMBS]) -> &'b [u8] {
    let bytes = &mut buf[..8 * element.len()];
    for (chunk, w) in bytes.chunks_exact_mut(8).zip(element.iter().rev()) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    let message = &bytes[..bytes.len() - 1];
    let zeros = message.iter().take_while(|&&b| b == 0).count();
    &message[zeros..]
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
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds `64 ·` [`MAX_LIMBS`].
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits <= 64 * MAX_LIMBS, "a domain is at most 512 bits");
        let (p, q) = prime::gen_safe_prime(bits, rng);
        Self::from_parts(p, q)
    }

    fn from_parts(p: Ubig, q: Ubig) -> Self {
        debug_assert!(p.limbs().len() <= MAX_LIMBS);
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
    /// prime (checked probabilistically) or is wider than [`MAX_LIMBS`]
    /// words.
    pub fn from_safe_prime<R: Rng + ?Sized>(p: Ubig, rng: &mut R) -> Result<Self, CryptoError> {
        if p.limbs().len() > MAX_LIMBS {
            return Err(CryptoError::InvalidParameter("p is wider than 512 bits"));
        }
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

    /// The number of 64-bit words of `p`, at most [`MAX_LIMBS`]: an
    /// element is carried in a `[u64; L]` with `L` at least this.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.ctx.limbs()
    }

    /// `p` in `L` little-endian words.
    ///
    /// # Panics
    ///
    /// Panics if `p` is wider than `L` words.
    #[must_use]
    pub fn modulus_words<const L: usize>(&self) -> [u64; L] {
        let mut words = [0; L];
        words[..self.limbs()].copy_from_slice(self.p.limbs());
        words
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

    /// [`Self::pow_batch`] on word elements, each below `p`, in `L ≥`
    /// [`Self::limbs`] words: the batch walk
    /// ([`MontgomeryContext::modexp_words`]) reads and writes them in
    /// place when `L` is the modulus width, and the low words of each
    /// otherwise.
    fn pow_words<const L: usize>(&self, bases: &[[u64; L]], exp: &Ubig) -> Vec<[u64; L]> {
        let reduced = self.reduce_exp(exp);
        let exp = reduced.as_ref().unwrap_or(exp);
        let mut out = vec![[0; L]; bases.len()];
        let k = self.limbs();
        if k == L {
            self.ctx
                .modexp_words(bases.as_flattened(), exp, out.as_flattened_mut());
            return out;
        }
        // A domain narrower than its word array (the test prime 23 in
        // four words) walks its own k words of each element.
        assert!(
            bases.iter().all(|b| b[k..].iter().all(|&w| w == 0)),
            "element wider than the domain"
        );
        let packed: Vec<u64> = bases.iter().flat_map(|b| &b[..k]).copied().collect();
        let mut walked = vec![0; packed.len()];
        self.ctx.modexp_words(&packed, exp, &mut walked);
        for (o, w) in out.iter_mut().zip(walked.chunks_exact(k)) {
            o[..k].copy_from_slice(w);
        }
        out
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
    /// The element of [`encode_words`](Self::encode_words), as a
    /// [`Ubig`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if the message exceeds
    /// [`max_encode_len`](Self::max_encode_len).
    pub fn encode(&self, message: &[u8]) -> Result<Ubig, CryptoError> {
        let words = if self.limbs() <= 4 {
            self.encode_words::<4>(message)?.to_vec()
        } else {
            self.encode_words::<8>(message)?.to_vec()
        };
        Ok(Ubig::from_limbs(words))
    }

    /// [`encode`](Self::encode) in `L` words: the candidate `m ‖ pad`
    /// is built in words and probed by the fixed-width Jacobi loop
    /// ([`jacobi_words`]), with no allocation per pad try.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if the message exceeds
    /// [`max_encode_len`](Self::max_encode_len).
    ///
    /// # Panics
    ///
    /// Panics if `p` is wider than `L` words or `L < 2`.
    pub fn encode_words<const L: usize>(&self, message: &[u8]) -> Result<[u64; L], CryptoError> {
        self.search(self.padded(message)?)
    }

    /// The first of `base`'s [`candidates`] that is a residue, one
    /// candidate at a time on [`jacobi_words`]' loop.
    fn search<const L: usize>(&self, base: [u64; L]) -> Result<[u64; L], CryptoError> {
        let p = self.modulus_words::<L>();
        let mut tried = 0;
        let found = candidates(base).find(|candidate| {
            tried += 1;
            jacobi_words(candidate, &p) == 1
        });
        dla_telemetry::record(dla_telemetry::CostKind::Jacobi, tried);
        found.ok_or(NO_RESIDUE)
    }

    /// [`encode_words`](Self::encode_words) of every message, in order,
    /// bit for bit: each item tries the same pads in the same order. On
    /// a domain of four words the items wider than two words search
    /// together on [`jacobi_stream`], eight candidates in flight where
    /// the CPU has AVX-512 (`DESIGN.md` §11); the rest — every glsn
    /// item — run [`jacobi_words`]' loop, faster on two words.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if a message exceeds
    /// [`max_encode_len`](Self::max_encode_len).
    ///
    /// # Panics
    ///
    /// Panics if `p` is wider than `L` words or `L < 2`.
    pub fn encode_batch_words<const L: usize>(
        &self,
        messages: &[&[u8]],
    ) -> Result<Vec<[u64; L]>, CryptoError> {
        self.search_batch(messages, jacobi_stream)
    }

    /// [`encode_batch_words`](Self::encode_batch_words) with the wide
    /// items' search on [`jacobi_stream_scalar`] whatever the CPU — the
    /// lane search's differential oracle.
    ///
    /// # Errors
    ///
    /// As [`encode_batch_words`](Self::encode_batch_words).
    ///
    /// # Panics
    ///
    /// As [`encode_batch_words`](Self::encode_batch_words).
    pub fn encode_batch_words_scalar<const L: usize>(
        &self,
        messages: &[&[u8]],
    ) -> Result<Vec<[u64; L]>, CryptoError> {
        self.search_batch(messages, jacobi_stream_scalar)
    }

    fn search_batch<const L: usize>(
        &self,
        messages: &[&[u8]],
        stream: fn(&[u64; 4], &mut Feed<'_>),
    ) -> Result<Vec<[u64; L]>, CryptoError> {
        let mut out = vec![[0; L]; messages.len()];
        // The items for the stream, which takes four words (a wider
        // array is an 8-limb domain): where each goes, and its pads.
        let mut wide = Vec::new();
        for (i, message) in messages.iter().enumerate() {
            let base = self.padded::<L>(message)?;
            if L == 4 && base[2..].iter().any(|&w| w != 0) {
                if wide.is_empty() {
                    wide.reserve_exact(messages.len() - i);
                }
                wide.push((i, candidates(base)));
            } else {
                out[i] = self.search(base)?;
            }
        }
        if wide.is_empty() {
            return Ok(out);
        }
        // Each item holds its place until its last candidate, written
        // to its slot of `out`, is a residue; then the place takes the
        // next item not yet started.
        let (mut pending, mut tried, mut exhausted) = (0..wide.len(), 0, false);
        stream(&self.modulus_words::<4>(), &mut |told| {
            let mut k = match told {
                Some((k, symbol)) if symbol != 1 => k,
                _ => pending.next()?,
            };
            loop {
                let (i, pads) = &mut wide[k];
                if let Some(candidate) = pads.next() {
                    tried += 1;
                    out[*i] = candidate;
                    return Some((k, std::array::from_fn(|w| candidate[w])));
                }
                exhausted = true;
                k = pending.next()?;
            }
        });
        dla_telemetry::record(dla_telemetry::CostKind::Jacobi, tried);
        if exhausted {
            return Err(NO_RESIDUE);
        }
        Ok(out)
    }

    /// `m ‖ 0x00`: the message one byte up, in `L` little-endian words.
    /// It fits: [`max_encode_len`](Self::max_encode_len) leaves the top
    /// 16 bits of `p` free.
    fn padded<const L: usize>(&self, message: &[u8]) -> Result<[u64; L], CryptoError> {
        if message.len() > self.max_encode_len() {
            return Err(CryptoError::InvalidParameter(
                "message too long for group encoding",
            ));
        }
        let mut base = [0u64; L];
        for (i, &byte) in message.iter().rev().enumerate() {
            let bit = 8 * (i + 1);
            base[bit / 64] |= u64::from(byte) << (bit % 64);
        }
        Ok(base)
    }

    /// Inverts [`encode`](Self::encode): strips the pad byte and
    /// returns the message bytes.
    #[must_use]
    pub fn decode(&self, element: &Ubig) -> Vec<u8> {
        (element >> 8).to_bytes_be()
    }

    /// [`decode`](Self::decode) of a word element: its big-endian bytes
    /// without the pad byte and without leading zeros.
    #[must_use]
    pub fn decode_words<const L: usize>(&self, element: &[u64; L]) -> Vec<u8> {
        decode_into(element, &mut [0; 8 * MAX_LIMBS]).to_vec()
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

/// Every pad search's error when no pad byte gives a residue: 256
/// consecutive non-residues, probability ~2⁻²⁵⁶.
const NO_RESIDUE: CryptoError = CryptoError::InvalidParameter("no quadratic-residue padding found");

/// The candidates `m ‖ pad` of the padded message `base`, pads 0 to 255
/// in order, without the values 0 and 1 of an empty message, which are
/// not in the subgroup's range of encodings.
fn candidates<const L: usize>(base: [u64; L]) -> impl Iterator<Item = [u64; L]> {
    let small = base[1..].iter().all(|&w| w == 0);
    (0..=255u64)
        .map(move |pad| {
            let mut candidate = base;
            candidate[0] |= pad;
            candidate
        })
        .filter(move |candidate| !small || candidate[0] > 1)
}

/// A Pohlig–Hellman key pair `(e, d)` with `e·d ≡ 1 (mod p−1)`:
/// layered encryptions under different keys of one domain commute, and
/// each layer is removable by its own key's decryption.
///
/// # Examples
///
/// ```
/// use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
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
            // p − 1 is even: an even draw has no inverse to pay for.
            if e.is_even() {
                continue;
            }
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

    /// Encrypts one group element.
    #[must_use]
    pub fn encrypt(&self, m: &Ubig) -> Ubig {
        self.domain.pow(m, &self.e)
    }

    /// Removes this key's encryption layer.
    #[must_use]
    pub fn decrypt(&self, c: &Ubig) -> Ubig {
        self.domain.pow(c, &self.d)
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
    /// the batched counterpart of [`PhKey::decrypt`].
    #[must_use]
    pub fn decrypt_batch(&self, cs: &[Ubig], _mode: BatchMode) -> Vec<Ubig> {
        self.domain.pow_batch(cs, &self.d)
    }

    /// [`encrypt_batch`](Self::encrypt_batch) on word elements, each
    /// below `p` in `L ≥` [`CommutativeDomain::limbs`] words: one
    /// allocation for the whole set.
    ///
    /// # Panics
    ///
    /// Panics if `p` is wider than `L` words.
    #[must_use]
    pub fn encrypt_words<const L: usize>(&self, ms: &[[u64; L]]) -> Vec<[u64; L]> {
        self.domain.pow_words(ms, &self.e)
    }

    /// [`decrypt_batch`](Self::decrypt_batch) on word elements.
    ///
    /// # Panics
    ///
    /// Panics if `p` is wider than `L` words.
    #[must_use]
    pub fn decrypt_words<const L: usize>(&self, cs: &[[u64; L]]) -> Vec<[u64; L]> {
        self.domain.pow_words(cs, &self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_bigint::jacobi::jacobi;
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

    /// The first three key pairs a seeded `StdRng` draws, as the
    /// Euclid-only `modinv` drew them before even draws were skipped and
    /// the binary inverse came in: the same draws accept the same keys.
    #[test]
    fn seeded_key_pairs_are_pinned() {
        let pins = [
            (
                CommutativeDomain::fixed_256(),
                [
                    ("12d8a9c8a3000b2a2123d6cf52074727b0523fbaff364aa8d3ec2f00c9314391", "8b48de072c2e7256439ef8f85511aa714297f44b73ab7b82313e5d447aba0c1d"),
                    ("3d806e446af5b9127508b05dd89d7adc3d22e327eb00c6b83d8f6f9c825ad88d", "63b14649d80ee06c6bad20119b5c253efbc2a3786e484ec669f922c575f78df1"),
                    ("5cd78a800d74d83a9d4e919cac4b5649164cfd43f9a962763ccf02bd0feafdad", "131322a73ddd6e1027f3a95714bd2722f9d40721f14c08cab725f365bf96fb25"),
                ],
            ),
            (
                CommutativeDomain::fixed_512(),
                [
                    ("2c398bced280bbbf21e43de597fd63c22c16d5a7c88f80676d11bfc3b520ae2b3d806e446af5b9127508b05dd89d7adc3d22e327eb00c6b83d8f6f9c825ad88d", "4f0f385c633c1f100f75e79ec6b62f88a0b6ab6a3946fb4a5ee607e7368cc64ef63e3887553e670d311756a6809a3e8034c5e5d603cbda4b925cc5502bd7ed0f"),
                    ("5355bae88012208b0e047bc7e86c20cb0d560b27d5df4424f30ab429f892f7a5e04a570155ddeb77806ac03d4391d1a1339f5cd12c7b4b8fee12a7af2e011ec5", "5bda9a8f8a622939f2730aabc7fa645b98b74a05e8b7254292eac8df6e669474325e2e38e807ffb65086b79a4057bb9da1ed324a15807fb962595b517fea6fd1"),
                    ("1bf40404b41315b65ebc4457e6fce867ba89db0906fc6744547e776b5310f6e2c2d47de6e406c1882620afc087bbe182102c533c703c807306ebac4e41f0c24d", "3140bf0b348252b8d6c3bf23680e45b6582265106c33a298b28dfd0098749a1ad0284a3566efe88f5bc7893adc90ee9204c35c2093c4cce50a79aecc19c7da35"),
                ],
            ),
        ];
        for (domain, keys) in pins {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2004);
            for (e, d) in keys {
                let key = PhKey::generate(&domain, &mut rng);
                assert_eq!((key.e.to_hex(), key.d.to_hex()), (e.into(), d.into()));
            }
        }
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
                // In eight words, which a 256-bit domain fills half of.
                let words = domain.encode_words::<8>(item).unwrap();
                assert_eq!(Ubig::from_limbs(words.to_vec()).to_hex(), *hex);
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
                jacobi(&x, domain.modulus()) == 1,
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

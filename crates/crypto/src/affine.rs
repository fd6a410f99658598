//! Randomized transformations for blind-TTP comparison protocols
//! (paper §3.2 "randomized mapping" and §3.3 secure sorting).
//!
//! Two parties (or all n) secretly agree on a transformation; each
//! applies it to its private value and sends only the transformed value
//! to a TTP. The TTP can then compare **equality** (§3.2) or **order**
//! (§3.3) of the transformed values without learning the plaintexts,
//! and reports only the comparison outcome.
//!
//! * [`AffineMasker`] — `W = (aY + b) mod p` with secret `a ≠ 0, b`:
//!   preserves equality, destroys order and magnitude. Used for `=_s`.
//! * [`MonotoneMasker`] — `W = a·Y + b` over plain integers with secret
//!   `a ≥ 1` plus a per-protocol random *jitter* smaller than `a`:
//!   strictly order-preserving, hides magnitudes and gaps. Used for
//!   `Max_s`, `Min_s`, `Rank_s`.

use crate::CryptoError;
use dla_bigint::F61;
use rand::Rng;

/// Equality-preserving random mask `Y ↦ (aY + b) mod p` (§3.2).
///
/// Both parties must construct it from the same shared randomness.
///
/// # Examples
///
/// ```
/// use dla_crypto::affine::AffineMasker;
/// use dla_bigint::F61;
///
/// let mut rng = rand::thread_rng();
/// let mask = AffineMasker::random(&mut rng);
/// let (x, y) = (F61::new(5000), F61::new(5000));
/// assert_eq!(mask.apply(x), mask.apply(y)); // equal stays equal
/// assert_ne!(mask.apply(x), mask.apply(F61::new(5001)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AffineMasker {
    a: F61,
    b: F61,
}

impl std::fmt::Debug for AffineMasker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AffineMasker(secret a, b)")
    }
}

impl AffineMasker {
    /// Samples a random mask (`a ≠ 0 mod p`, as the paper requires).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        AffineMasker {
            a: F61::random_nonzero(rng),
            b: F61::random(rng),
        }
    }

    /// Builds a mask from agreed constants.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if `a = 0` (the map
    /// would collapse all inputs onto `b`).
    pub fn new(a: F61, b: F61) -> Result<Self, CryptoError> {
        if a.is_zero() {
            return Err(CryptoError::InvalidParameter(
                "affine coefficient a is zero",
            ));
        }
        Ok(AffineMasker { a, b })
    }

    /// Applies the mask: `W = aY + b` in `F61`.
    #[must_use]
    pub fn apply(&self, y: F61) -> F61 {
        self.a * y + self.b
    }

    /// Inverts the mask (the agreeing parties can; the TTP cannot).
    #[must_use]
    pub fn invert(&self, w: F61) -> F61 {
        (w - self.b) * self.a.inverse().expect("a is nonzero by construction")
    }
}

/// Maximum plaintext magnitude accepted by [`MonotoneMasker`] — inputs
/// are audit statistics (counts, volumes), well below this.
pub const MONOTONE_MAX_INPUT: u64 = 1 << 40;

/// The slopes [`MonotoneMasker::random`] draws from; with an offset
/// below 2⁶⁴ they keep `a·y + b + jitter` below 2¹⁰¹ for every input up
/// to [`MONOTONE_MAX_INPUT`], so [`MonotoneMasker::apply`] never
/// overflows.
const MONOTONE_SLOPES: std::ops::Range<u64> = 1 << 20..1 << 60;

/// Order-preserving random mask `Y ↦ a·Y + b + jitter(Y)` over `u128`
/// (§3.3): the blind TTP ranks masked values; the ranking equals the
/// plaintext ranking.
///
/// The slope `a` is drawn from `[2^20, 2^60)` and the per-value jitter
/// from `[0, a/2)`, keyed by a secret, so equal gaps in the input do
/// not produce equal gaps in the output (the TTP cannot infer
/// differences) while strict monotonicity is preserved
/// (`jitter < a/2 ≤ a` means distinct inputs stay strictly ordered —
/// but equal inputs may map to *different* masked values, which is fine
/// for max/min/rank and is why equality checks use [`AffineMasker`]).
#[derive(Clone)]
pub struct MonotoneMasker {
    a: u128,
    b: u128,
    jitter_key: [u8; 16],
}

impl std::fmt::Debug for MonotoneMasker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MonotoneMasker(secret a, b, jitter)")
    }
}

impl MonotoneMasker {
    /// Samples a random order-preserving mask.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let a = u128::from(rng.gen_range(MONOTONE_SLOPES));
        let b = u128::from(rng.gen::<u64>());
        let mut jitter_key = [0u8; 16];
        rng.fill(&mut jitter_key);
        MonotoneMasker { a, b, jitter_key }
    }

    /// Applies the mask.
    ///
    /// # Panics
    ///
    /// Panics if `y > MONOTONE_MAX_INPUT` (masked values could overflow
    /// the ordering guarantee).
    #[must_use]
    pub fn apply(&self, y: u64) -> u128 {
        assert!(
            y <= MONOTONE_MAX_INPUT,
            "MonotoneMasker input {y} exceeds {MONOTONE_MAX_INPUT}"
        );
        let jitter = self.jitter_for(y);
        self.a * u128::from(y) + self.b + jitter
    }

    /// Serializes the mask for the (authenticated, TTP-invisible)
    /// agreement channel between parties.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&self.a.to_be_bytes());
        out.extend_from_slice(&self.b.to_be_bytes());
        out.extend_from_slice(&self.jitter_key);
        out
    }

    /// Deserializes a mask previously produced by
    /// [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] on a malformed buffer,
    /// or a slope or offset [`random`](Self::random) cannot draw.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let malformed = || CryptoError::InvalidParameter("monotone mask encoding must be 48 bytes");
        let (a, rest) = bytes.split_first_chunk::<16>().ok_or_else(malformed)?;
        let (b, jitter_key) = rest.split_first_chunk::<16>().ok_or_else(malformed)?;
        let jitter_key: [u8; 16] = jitter_key.try_into().map_err(|_| malformed())?;
        let (a, b) = (u128::from_be_bytes(*a), u128::from_be_bytes(*b));
        // A peer's mask is applied to this party's values: one that
        // `random` cannot draw (a zero slope among them) could collapse
        // the order or overflow `apply`.
        let slopes = u128::from(MONOTONE_SLOPES.start)..u128::from(MONOTONE_SLOPES.end);
        if !slopes.contains(&a) || b > u128::from(u64::MAX) {
            return Err(CryptoError::InvalidParameter(
                "monotone mask outside the ranges it is drawn from",
            ));
        }
        Ok(MonotoneMasker { a, b, jitter_key })
    }

    fn jitter_for(&self, y: u64) -> u128 {
        let d = crate::sha256::digest_parts(&[&self.jitter_key, &y.to_be_bytes()]);
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&d[..8]);
        u128::from(u64::from_be_bytes(raw)) % (self.a / 2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(66)
    }

    #[test]
    fn affine_preserves_equality_exactly() {
        let mut rng = rng();
        let mask = AffineMasker::random(&mut rng);
        for _ in 0..100 {
            let x = F61::random(&mut rng);
            let y = F61::random(&mut rng);
            assert_eq!(mask.apply(x) == mask.apply(y), x == y);
        }
    }

    #[test]
    fn affine_invert_round_trips() {
        let mut rng = rng();
        let mask = AffineMasker::random(&mut rng);
        for _ in 0..100 {
            let x = F61::random(&mut rng);
            assert_eq!(mask.invert(mask.apply(x)), x);
        }
    }

    #[test]
    fn affine_hides_plaintext() {
        // With random (a, b) the masked value is uniform: two different
        // masks of the same plaintext differ (w.h.p.).
        let mut rng = rng();
        let m1 = AffineMasker::random(&mut rng);
        let m2 = AffineMasker::random(&mut rng);
        let x = F61::new(42);
        assert_ne!(m1.apply(x), m2.apply(x));
        assert_ne!(m1.apply(x), x);
    }

    #[test]
    fn affine_rejects_zero_slope() {
        assert!(AffineMasker::new(F61::ZERO, F61::ONE).is_err());
        assert!(AffineMasker::new(F61::ONE, F61::ZERO).is_ok());
    }

    #[test]
    fn monotone_preserves_strict_order() {
        let mut rng = rng();
        for _ in 0..10 {
            let mask = MonotoneMasker::random(&mut rng);
            let mut values: Vec<u64> = (0..50).map(|_| rng.gen_range(0..1u64 << 32)).collect();
            values.sort_unstable();
            values.dedup();
            let masked: Vec<u128> = values.iter().map(|&v| mask.apply(v)).collect();
            for w in masked.windows(2) {
                assert!(w[0] < w[1], "order must be preserved");
            }
        }
    }

    #[test]
    fn monotone_hides_gaps() {
        // Equal input gaps must not produce equal output gaps.
        let mut rng = rng();
        let mask = MonotoneMasker::random(&mut rng);
        let g1 = mask.apply(200) - mask.apply(100);
        let g2 = mask.apply(300) - mask.apply(200);
        assert_ne!(g1, g2, "jitter must break gap equality");
    }

    #[test]
    fn monotone_adjacent_integers_stay_ordered() {
        let mut rng = rng();
        let mask = MonotoneMasker::random(&mut rng);
        for v in 0..1000u64 {
            assert!(mask.apply(v) < mask.apply(v + 1));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn monotone_rejects_oversized_input() {
        let mut rng = rng();
        let mask = MonotoneMasker::random(&mut rng);
        let _ = mask.apply(MONOTONE_MAX_INPUT + 1);
    }

    #[test]
    fn monotone_is_deterministic() {
        let mut rng = rng();
        let mask = MonotoneMasker::random(&mut rng);
        assert_eq!(mask.apply(12345), mask.apply(12345));
    }

    #[test]
    fn monotone_serialization_round_trips() {
        let mut rng = rng();
        let mask = MonotoneMasker::random(&mut rng);
        let restored = MonotoneMasker::from_bytes(&mask.to_bytes()).unwrap();
        for v in [0u64, 1, 99, 1 << 30] {
            assert_eq!(mask.apply(v), restored.apply(v));
        }
        assert!(MonotoneMasker::from_bytes(&[0u8; 10]).is_err());
        assert!(
            MonotoneMasker::from_bytes(&[0u8; 48]).is_err(),
            "zero slope rejected"
        );
    }

    /// A mask off the wire is applied to this party's own values, so one
    /// that `random` could not have drawn is refused where it is
    /// decoded, not met as an overflow in `apply`.
    #[test]
    fn a_mask_off_the_wire_outside_the_drawn_ranges_is_refused() {
        let honest = MonotoneMasker::random(&mut rng()).to_bytes();
        let with = |at: usize, field: u128| {
            let mut bytes = honest.clone();
            bytes[at..at + 16].copy_from_slice(&field.to_be_bytes());
            MonotoneMasker::from_bytes(&bytes)
        };
        assert!(with(0, 1 << 127).is_err(), "a slope above the drawn range");
        assert!(with(0, 1).is_err(), "a slope below it");
        assert!(with(16, u128::MAX).is_err(), "an offset above 2⁶⁴");
        assert!(with(0, 1 << 59).is_ok() && with(16, u128::from(u64::MAX)).is_ok());
        let mut long = honest.clone();
        long.push(0);
        assert!(MonotoneMasker::from_bytes(&long).is_err());
    }

    #[test]
    fn debug_output_hides_secrets() {
        let mut rng = rng();
        let a = AffineMasker::random(&mut rng);
        let m = MonotoneMasker::random(&mut rng);
        assert_eq!(format!("{a:?}"), "AffineMasker(secret a, b)");
        assert_eq!(format!("{m:?}"), "MonotoneMasker(secret a, b, jitter)");
    }
}

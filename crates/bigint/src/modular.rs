//! Modular arithmetic on [`Ubig`]: reduction, exponentiation, extended
//! GCD and inverses.
//!
//! These routines are the algebraic engine behind the Pohlig–Hellman
//! commutative cipher (`dla-crypto`): key pairs `(e, d)` satisfy
//! `e·d ≡ 1 (mod p−1)`, and both encryption and decryption are
//! [`modexp`] calls.

use crate::Ubig;

/// `(a - b) mod m` for already-reduced operands (`a, b < m`).
///
/// # Panics
///
/// Panics (debug) if either operand is not reduced.
#[must_use]
pub fn modsub(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    debug_assert!(a < m && b < m, "modsub: operands must be reduced");
    if a >= b {
        a - b
    } else {
        m - b + a
    }
}

/// `(a * b) mod m`. Operands need not be reduced.
#[must_use]
pub fn modmul(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    (a * b) % m
}

/// `base^exp mod m`.
///
/// Dispatches to Montgomery exponentiation
/// ([`crate::montgomery::MontgomeryContext`]) for odd multi-limb moduli
/// with non-trivial exponents — the hot path of every protocol — and
/// falls back to [`modexp_schoolbook`] otherwise.
///
/// # Panics
///
/// Panics if `m` is zero. `m == 1` yields zero.
#[must_use]
pub fn modexp(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero(), "modexp: zero modulus");
    if m.is_one() {
        return Ubig::zero();
    }
    // The Montgomery context costs two divisions to set up; worth it
    // once the square-and-multiply loop is long enough.
    if !m.is_even() && m.bit_len() >= 128 && exp.bit_len() >= 16 {
        if let Some(ctx) = crate::montgomery::MontgomeryContext::new(m) {
            return ctx.modexp(base, exp);
        }
    }
    modexp_schoolbook(base, exp, m)
}

/// `base^exp mod m` by left-to-right square-and-multiply with division
/// based reduction — the reference implementation the Montgomery path
/// is validated against (and the only path for even moduli).
///
/// # Panics
///
/// Panics if `m` is zero. `m == 1` yields zero.
#[must_use]
pub fn modexp_schoolbook(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    dla_telemetry::record(dla_telemetry::CostKind::ModExp, 1);
    assert!(!m.is_zero(), "modexp: zero modulus");
    if m.is_one() {
        return Ubig::zero();
    }
    let mut result = Ubig::one();
    let mut acc = base % m;
    let bits = exp.bit_len();
    for i in 0..bits {
        if exp.bit(i) {
            result = modmul(&result, &acc, m);
        }
        if i + 1 < bits {
            acc = modmul(&acc, &acc, m);
        }
    }
    result
}

/// Greatest common divisor by Euclid's algorithm.
#[must_use]
pub fn gcd(a: &Ubig, b: &Ubig) -> Ubig {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// A sign-and-magnitude signed big integer used internally by the
/// extended Euclidean algorithm. `negative` is never set for zero.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SignedUbig {
    mag: Ubig,
    negative: bool,
}

impl SignedUbig {
    fn from_ubig(mag: Ubig) -> Self {
        SignedUbig {
            mag,
            negative: false,
        }
    }

    fn sub(&self, other: &SignedUbig) -> SignedUbig {
        match (self.negative, other.negative) {
            (false, false) => {
                if self.mag >= other.mag {
                    SignedUbig {
                        mag: &self.mag - &other.mag,
                        negative: false,
                    }
                } else {
                    SignedUbig {
                        mag: &other.mag - &self.mag,
                        negative: true,
                    }
                }
            }
            (false, true) => SignedUbig {
                mag: &self.mag + &other.mag,
                negative: false,
            },
            (true, false) => {
                let mag = &self.mag + &other.mag;
                SignedUbig {
                    negative: !mag.is_zero(),
                    mag,
                }
            }
            (true, true) => other.negate().sub(&self.negate()).negate_if_nonzero(),
        }
    }

    fn negate(&self) -> SignedUbig {
        SignedUbig {
            mag: self.mag.clone(),
            negative: !self.negative && !self.mag.is_zero(),
        }
    }

    fn negate_if_nonzero(self) -> SignedUbig {
        SignedUbig {
            negative: !self.mag.is_zero() && self.negative,
            mag: self.mag,
        }
    }

    fn mul_ubig(&self, k: &Ubig) -> SignedUbig {
        let mag = &self.mag * k;
        SignedUbig {
            negative: self.negative && !mag.is_zero(),
            mag,
        }
    }
}

/// Extended GCD: returns `(g, x)` with `g = gcd(a, m)` and
/// `a·x ≡ g (mod m)`, `x` already reduced into `[0, m)`.
///
/// # Panics
///
/// Panics if `m` is zero.
#[must_use]
pub fn egcd_mod(a: &Ubig, m: &Ubig) -> (Ubig, Ubig) {
    assert!(!m.is_zero(), "egcd_mod: zero modulus");
    let mut r0 = m.clone();
    let mut r1 = a % m;
    let mut t0 = SignedUbig::from_ubig(Ubig::zero());
    let mut t1 = SignedUbig::from_ubig(Ubig::one());
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        let t2 = t0.sub(&t1.mul_ubig(&q));
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    // Reduce the Bezout coefficient into [0, m).
    let x = if t0.negative {
        let red = &t0.mag % m;
        if red.is_zero() {
            red
        } else {
            m - red
        }
    } else {
        &t0.mag % m
    };
    (r0, x)
}

/// Multiplicative inverse of `a` modulo `m`, if `gcd(a, m) = 1`.
///
/// # Examples
///
/// ```
/// use dla_bigint::{Ubig, modular};
///
/// let m = Ubig::from_u64(97);
/// let inv = modular::modinv(&Ubig::from_u64(35), &m).expect("coprime");
/// assert_eq!((inv * Ubig::from_u64(35)) % m, Ubig::one());
/// ```
#[must_use]
pub fn modinv(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    dla_telemetry::record(dla_telemetry::CostKind::ModInverse, 1);
    let (g, x) = egcd_mod(a, m);
    if g.is_one() {
        Some(x)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn modexp_small_cases() {
        let m = Ubig::from_u64(1000);
        assert_eq!(
            modexp(&Ubig::from_u64(2), &Ubig::from_u64(10), &m),
            Ubig::from_u64(24)
        );
        assert_eq!(modexp(&Ubig::from_u64(5), &Ubig::zero(), &m), Ubig::one());
        assert_eq!(modexp(&Ubig::zero(), &Ubig::from_u64(5), &m), Ubig::zero());
        assert_eq!(
            modexp(&Ubig::from_u64(7), &Ubig::one(), &m),
            Ubig::from_u64(7)
        );
    }

    #[test]
    fn modexp_modulus_one_is_zero() {
        assert_eq!(
            modexp(&Ubig::from_u64(12), &Ubig::from_u64(7), &Ubig::one()),
            Ubig::zero()
        );
    }

    #[test]
    fn modexp_matches_u128_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for _ in 0..100 {
            let b: u64 = rand::Rng::gen_range(&mut rng, 0..1u64 << 32);
            let e: u64 = rand::Rng::gen_range(&mut rng, 0..1000);
            let m: u64 = rand::Rng::gen_range(&mut rng, 2..1u64 << 31);
            let mut expect = 1u128;
            for _ in 0..e {
                expect = expect * u128::from(b) % u128::from(m);
            }
            assert_eq!(
                modexp(&Ubig::from_u64(b), &Ubig::from_u64(e), &Ubig::from_u64(m)),
                Ubig::from_u128(expect)
            );
        }
    }

    #[test]
    fn fermat_little_theorem_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = (Ubig::one() << 127) - Ubig::one();
        let pm1 = &p - &Ubig::one();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let a = Ubig::random_range(&mut rng, &Ubig::two(), &p);
            assert_eq!(modexp(&a, &pm1, &p), Ubig::one());
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            gcd(&Ubig::from_u64(48), &Ubig::from_u64(36)),
            Ubig::from_u64(12)
        );
        assert_eq!(gcd(&Ubig::zero(), &Ubig::from_u64(5)), Ubig::from_u64(5));
        assert_eq!(gcd(&Ubig::from_u64(5), &Ubig::zero()), Ubig::from_u64(5));
        assert_eq!(gcd(&Ubig::from_u64(17), &Ubig::from_u64(13)), Ubig::one());
    }

    #[test]
    fn modinv_round_trips() {
        let m = Ubig::from_u64(1_000_000_007);
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for _ in 0..100 {
            let a = Ubig::random_range(&mut rng, &Ubig::one(), &m);
            let inv = modinv(&a, &m).expect("prime modulus => invertible");
            assert_eq!(modmul(&a, &inv, &m), Ubig::one());
            assert!(inv < m);
        }
    }

    #[test]
    fn modinv_large_operands() {
        let p = (Ubig::one() << 127) - Ubig::one();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let a = Ubig::random_range(&mut rng, &Ubig::two(), &p);
            let inv = modinv(&a, &p).unwrap();
            assert_eq!(modmul(&a, &inv, &p), Ubig::one());
        }
    }

    #[test]
    fn modinv_detects_non_coprime() {
        assert_eq!(modinv(&Ubig::from_u64(6), &Ubig::from_u64(9)), None);
        assert_eq!(modinv(&Ubig::zero(), &Ubig::from_u64(9)), None);
    }

    #[test]
    fn modsub_wraps_correctly() {
        let m = Ubig::from_u64(10);
        assert_eq!(
            modsub(&Ubig::from_u64(3), &Ubig::from_u64(7), &m),
            Ubig::from_u64(6)
        );
        assert_eq!(
            modsub(&Ubig::from_u64(7), &Ubig::from_u64(3), &m),
            Ubig::from_u64(4)
        );
        assert_eq!(
            modsub(&Ubig::from_u64(4), &Ubig::from_u64(4), &m),
            Ubig::zero()
        );
    }

    #[test]
    fn egcd_bezout_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for _ in 0..50 {
            let m = Ubig::random_bits(&mut rng, 100);
            let a = Ubig::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let (g, x) = egcd_mod(&a, &m);
            // a*x mod m must equal g mod m.
            assert_eq!(modmul(&a, &x, &m), &g % &m);
            // g divides both.
            assert!((&a % &g).is_zero());
            assert!((&m % &g).is_zero());
        }
    }
}

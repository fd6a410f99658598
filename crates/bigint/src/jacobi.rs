//! The Jacobi symbol `(a/n)` by the binary algorithm.
//!
//! The commutative-cipher message encoding probes candidate values for
//! quadratic residuosity mod a safe prime `p` (see
//! `dla_crypto::pohlig_hellman::CommutativeDomain::encode`). The Euler
//! criterion answers that with a full exponent-`(p−1)/2` modexp —
//! hundreds of Montgomery multiplications *per pad-byte probe*. For a
//! prime modulus the Jacobi symbol gives the identical answer in
//! O(bits²) word operations: `(a/p) = 1 ⇔ a` is a quadratic residue
//! mod `p` (for `a` coprime to `p`), at roughly the cost of a single
//! gcd.
//!
//! The implementation is the classic reduction by quadratic
//! reciprocity — strip factors of two (flipping the sign when
//! `n ≡ ±3 mod 8`), swap (flipping when both are `≡ 3 mod 4`), reduce,
//! repeat — with the reduction done by subtraction and shifts on two
//! fixed-width limb buffers instead of a `%` per step: a probe of a
//! modulus up to `STACK_LIMBS` limbs touches no heap. Once the
//! smaller operand fits one limb the larger is reduced by a single
//! limb-remainder pass and the rest runs on plain `u64`s.

use crate::Ubig;

/// Moduli up to this many limbs (512 bits) are probed entirely on the
/// stack; wider ones run the same loop over heap buffers.
const STACK_LIMBS: usize = 8;

/// Computes the Jacobi symbol `(a/n)` for odd `n ≥ 1`: `1`, `-1`, or
/// `0` when `gcd(a, n) ≠ 1`.
///
/// For an odd *prime* `n` this equals the Legendre symbol, so
/// `jacobi(a, p) == 1` iff `a` is a quadratic residue mod `p` (and `0`
/// iff `p | a`) — the drop-in replacement for an Euler-criterion
/// modexp.
///
/// # Panics
///
/// Panics if `n` is even or zero.
///
/// # Examples
///
/// ```
/// use dla_bigint::{jacobi::jacobi, modular, Ubig};
///
/// let p = Ubig::from_u64(1_000_000_007);
/// let a = Ubig::from_u64(34);
/// let sq = modular::modmul(&a, &a, &p);
/// assert_eq!(jacobi(&sq, &p), 1); // squares are residues
/// assert_eq!(jacobi(&Ubig::zero(), &p), 0);
/// ```
#[must_use]
pub fn jacobi(a: &Ubig, n: &Ubig) -> i8 {
    assert!(
        !n.is_zero() && !n.is_even(),
        "jacobi: modulus must be odd and positive"
    );
    // Callers on the hot path pass a < n; only an unreduced numerator
    // pays for a division.
    let reduced;
    let a = if a < n {
        a
    } else {
        reduced = a % n;
        &reduced
    };
    let width = n.limbs().len();
    let mut stack = [0u64; 2 * STACK_LIMBS];
    let mut heap;
    let buffers = if width <= STACK_LIMBS {
        &mut stack[..2 * width]
    } else {
        heap = vec![0u64; 2 * width];
        &mut heap[..]
    };
    let (x, y) = buffers.split_at_mut(width);
    x[..a.limbs().len()].copy_from_slice(a.limbs());
    y.copy_from_slice(n.limbs());
    symbol(x, y)
}

/// `(a/n)` for `a < n`, `n` odd, both in equal-width little-endian
/// buffers that the loop consumes as scratch.
fn symbol<'b>(mut a: &'b mut [u64], mut n: &'b mut [u64]) -> i8 {
    let (mut alen, mut nlen) = (significant(a), significant(n));
    let mut t = 1i8;
    while alen > 1 || nlen > 1 {
        if alen == 0 {
            // gcd(a, n) is the multi-limb n, hence not 1.
            return 0;
        }
        // Strip factors of two; each one contributes (2/n), which is
        // -1 exactly when n ≡ 3 or 5 (mod 8).
        let tz = shr_to_odd(&mut a[..alen]);
        alen = significant(&a[..alen]);
        if tz % 2 == 1 && matches!(n[0] & 7, 3 | 5) {
            t = -t;
        }
        // Quadratic reciprocity: swapping odd a and n flips the sign
        // iff both are ≡ 3 (mod 4).
        if less(&a[..alen], &n[..nlen]) {
            if a[0] & n[0] & 3 == 3 {
                t = -t;
            }
            std::mem::swap(&mut a, &mut n);
            std::mem::swap(&mut alen, &mut nlen);
        }
        // Reduce a mod n: one remainder pass against a single-limb n,
        // otherwise a subtraction (a − n is even, so the next round
        // shifts at least one bit out).
        if nlen == 1 {
            a[0] = rem_limb(&a[..alen], n[0]);
            alen = usize::from(a[0] != 0);
        } else {
            sub_in_place(&mut a[..alen], &n[..nlen]);
            alen = significant(&a[..alen]);
        }
    }
    t * symbol_u64(a[0], n[0])
}

/// `(a/n)` for odd `n` in machine words.
fn symbol_u64(mut a: u64, mut n: u64) -> i8 {
    let mut t = 1i8;
    a %= n;
    while a != 0 {
        let tz = a.trailing_zeros();
        a >>= tz;
        if tz % 2 == 1 && matches!(n & 7, 3 | 5) {
            t = -t;
        }
        if a & n & 3 == 3 {
            t = -t;
        }
        std::mem::swap(&mut a, &mut n);
        a %= n;
    }
    if n == 1 {
        t
    } else {
        0
    }
}

/// Number of limbs up to and including the highest non-zero one.
fn significant(v: &[u64]) -> usize {
    let mut len = v.len();
    while len > 0 && v[len - 1] == 0 {
        len -= 1;
    }
    len
}

/// Shifts the non-zero `v` right until it is odd; returns the number
/// of bits shifted out.
fn shr_to_odd(v: &mut [u64]) -> usize {
    let mut shifted = 0;
    // Whole zero limbs first (rare: only a numerator with ≥ 64
    // trailing zero bits gets here).
    if v[0] == 0 {
        let skip = v
            .iter()
            .position(|&limb| limb != 0)
            .expect("shr_to_odd of zero");
        v.copy_within(skip.., 0);
        let len = v.len();
        v[len - skip..].fill(0);
        shifted = skip * 64;
    }
    let bits = v[0].trailing_zeros();
    if bits > 0 {
        for i in 0..v.len() - 1 {
            v[i] = (v[i] >> bits) | (v[i + 1] << (64 - bits));
        }
        let top = v.len() - 1;
        v[top] >>= bits;
    }
    shifted + bits as usize
}

/// `a < b` for values given without leading zero limbs.
fn less(a: &[u64], b: &[u64]) -> bool {
    if a.len() != b.len() {
        return a.len() < b.len();
    }
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a -= b` for `a ≥ b`.
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for i in 0..b.len() {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        a[i] = d;
        borrow = b1 || b2;
    }
    for limb in &mut a[b.len()..] {
        if !borrow {
            break;
        }
        (*limb, borrow) = limb.overflowing_sub(1);
    }
    debug_assert!(!borrow, "sub_in_place underflow");
}

/// `v mod d` for a single non-zero limb `d`.
fn rem_limb(v: &[u64], d: u64) -> u64 {
    v.iter().rev().fold(0u64, |rem, &limb| {
        (((u128::from(rem) << 64) | u128::from(limb)) % u128::from(d)) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The previous implementation — Euclid's reduction with one
    /// allocating `%` per step — kept as the differential oracle.
    fn jacobi_euclid(a: &Ubig, n: &Ubig) -> i8 {
        assert!(!n.is_zero() && !n.is_even());
        let mut a = a % n;
        let mut n = n.clone();
        let mut t = 1i8;
        while !a.is_zero() {
            let tz = (0..).find(|&i| a.bit(i)).expect("a is non-zero");
            if tz > 0 {
                a = a >> tz;
                if tz % 2 == 1 {
                    let n_mod_8 = n.limbs()[0] & 7;
                    if n_mod_8 == 3 || n_mod_8 == 5 {
                        t = -t;
                    }
                }
            }
            if (a.limbs()[0] & 3 == 3) && (n.limbs()[0] & 3 == 3) {
                t = -t;
            }
            std::mem::swap(&mut a, &mut n);
            a = &a % &n;
        }
        if n.is_one() {
            t
        } else {
            0
        }
    }

    /// Euler-criterion reference: for odd prime p,
    /// a^((p-1)/2) mod p ∈ {0, 1, p-1} ↦ {0, 1, -1}.
    fn euler(a: &Ubig, p: &Ubig) -> i8 {
        let e = (p - &Ubig::one()) >> 1;
        let r = modular::modexp(a, &e, p);
        if r.is_zero() {
            0
        } else if r.is_one() {
            1
        } else {
            -1
        }
    }

    fn random_odd(rng: &mut rand::rngs::StdRng, bits: usize) -> Ubig {
        let n = Ubig::random_bits(rng, bits);
        if n.is_even() {
            n + Ubig::one()
        } else {
            n
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// New ≡ old on random odd (mostly composite) moduli across
        /// the stack widths, the heap fallback and every numerator
        /// shape the loop branches on.
        #[test]
        fn matches_the_euclid_oracle_on_random_odd_moduli(
            bits in 64usize..=512,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for bits in [bits, bits + 512] {
                let n = random_odd(&mut rng, bits);
                let factor = random_odd(&mut rng, 1 + bits / 3);
                let n_with_factor = random_odd(&mut rng, 1 + bits / 2) * factor.clone();
                let numerators = [
                    Ubig::zero(),
                    Ubig::one(),
                    &n - &Ubig::one(),
                    n.clone(),
                    &(&n << 1) + &Ubig::one(),
                    Ubig::random_below(&mut rng, &n) << 1,
                    Ubig::random_below(&mut rng, &n),
                    Ubig::random_bits(&mut rng, 1 + bits / 4),
                    Ubig::from_u64(rand::Rng::gen(&mut rng)),
                    Ubig::from_u64(rand::Rng::gen(&mut rng)) << 64,
                ];
                for a in &numerators {
                    prop_assert_eq!(jacobi(a, &n), jacobi_euclid(a, &n), "a={} n={}", a, n);
                }
                // gcd(a, n) ≠ 1 ⇒ 0, from both implementations.
                let shared = factor.clone() * Ubig::from_u64(6);
                prop_assert_eq!(jacobi(&shared, &n_with_factor), 0);
                prop_assert_eq!(jacobi_euclid(&shared, &n_with_factor), 0);
            }
        }

        /// New ≡ Euler criterion on random primes of 64–512 bits.
        #[test]
        fn matches_the_euler_criterion_on_random_primes(
            bits in 64usize..=512,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = crate::prime::gen_prime(bits, &mut rng);
            for _ in 0..4 {
                let a = Ubig::random_below(&mut rng, &p);
                prop_assert_eq!(jacobi(&a, &p), euler(&a, &p), "a={} p={}", a, p);
            }
        }
    }

    #[test]
    fn unit_and_single_limb_moduli() {
        for a in [0u64, 1, 2, 97, u64::MAX] {
            assert_eq!(jacobi(&Ubig::from_u64(a), &Ubig::one()), 1);
        }
        // A multi-limb numerator against a one-limb modulus takes the
        // unreduced-numerator division, then the u64 tail.
        let n = Ubig::from_u64(0xffff_ffff_ffff_ffc5); // largest 64-bit prime
        let a = (Ubig::from_u64(12345) << 130) + Ubig::from_u64(9);
        assert_eq!(jacobi(&a, &n), euler(&a, &n));
    }

    #[test]
    fn matches_euler_criterion_on_small_primes() {
        for p in [3u64, 5, 7, 11, 13, 1_000_000_007] {
            let p = Ubig::from_u64(p);
            for a in 0..40u64 {
                let a = Ubig::from_u64(a);
                assert_eq!(jacobi(&a, &p), euler(&a, &p), "a={a} p={p}");
            }
        }
    }

    #[test]
    fn matches_euler_criterion_on_multi_limb_primes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        // Mersenne primes 2^89-1, 2^107-1, 2^127-1.
        for bits in [89u32, 107, 127] {
            let p = (Ubig::one() << bits as usize) - Ubig::one();
            for _ in 0..25 {
                let a = Ubig::random_below(&mut rng, &p);
                assert_eq!(jacobi(&a, &p), euler(&a, &p), "bits={bits}");
            }
        }
    }

    #[test]
    fn composite_modulus_detects_shared_factors() {
        // (a/n) = 0 iff gcd(a, n) > 1.
        let n = Ubig::from_u64(15);
        assert_eq!(jacobi(&Ubig::from_u64(3), &n), 0);
        assert_eq!(jacobi(&Ubig::from_u64(5), &n), 0);
        assert_eq!(jacobi(&Ubig::from_u64(2), &n), 1);
        assert_eq!(jacobi(&Ubig::from_u64(7), &n), -1);
    }

    #[test]
    fn multiplicativity_in_the_numerator() {
        let p = Ubig::from_u64(101);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = Ubig::random_range(&mut rng, &Ubig::one(), &p);
            let b = Ubig::random_range(&mut rng, &Ubig::one(), &p);
            let ab = modular::modmul(&a, &b, &p);
            assert_eq!(jacobi(&ab, &p), jacobi(&a, &p) * jacobi(&b, &p));
        }
    }

    #[test]
    fn unreduced_numerator_is_reduced_first() {
        let p = Ubig::from_u64(97);
        let a = Ubig::from_u64(5 + 97 * 12);
        assert_eq!(jacobi(&a, &p), jacobi(&Ubig::from_u64(5), &p));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_panics() {
        let _ = jacobi(&Ubig::from_u64(3), &Ubig::from_u64(8));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn zero_modulus_panics() {
        let _ = jacobi(&Ubig::from_u64(3), &Ubig::zero());
    }
}

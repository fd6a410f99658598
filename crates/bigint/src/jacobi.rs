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
//! `n ≡ ±3 mod 8`), then replace odd `a, n` by `(|a − n|, min(a, n))`
//! (flipping when a swap meets two values `≡ 3 mod 4`) — on two
//! fixed-width `[u64; L]` stack words for moduli of up to 8 limbs: one
//! subtraction a step, negated on a borrow, never a comparison or a
//! length. Once the modulus fits two limbs a wider numerator is reduced
//! by a single two-limb remainder pass and the loop goes on in two
//! words; once it fits one, a limb-remainder pass hands the rest to
//! plain `u64`s. Wider moduli take [`jacobi_euclid`].

use crate::{words, Ubig};

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
    match n.limbs().len() {
        0..=4 => symbol(words::load::<4>(a), words::load(n)),
        5..=8 => symbol(words::load::<8>(a), words::load(n)),
        _ => jacobi_euclid(a, n),
    }
}

/// [`jacobi`] on `L` little-endian words: `(a/n)` for odd `n` and
/// `a < n` — the loop [`jacobi`] runs, for a caller that already holds
/// its values in words (the message encoding's pad probe).
///
/// # Panics
///
/// Panics if `n` is even or `L < 2`.
#[must_use]
pub fn jacobi_words<const L: usize>(a: &[u64; L], n: &[u64; L]) -> i8 {
    assert!(L >= 2 && n[0] & 1 == 1, "jacobi: modulus must be odd");
    debug_assert!(a.iter().rev().lt(n.iter().rev()), "jacobi_words: a < n");
    symbol(*a, *n)
}

/// What [`jacobi_stream`] asks its caller. Called with `None`, it hands
/// out a numerator to start, as `(tag, a)`; called with
/// `Some((tag, symbol))`, it takes the symbol of the numerator it handed
/// out under `tag` and hands out the one to run in its place. `None`
/// from it leaves that place idle for the rest of the stream.
pub type Feed<'f> = dyn FnMut(Option<(usize, i8)>) -> Option<(usize, [u64; 4])> + 'f;

/// The Jacobi symbols `(a/n)` of a stream of numerators `a < n` in four
/// words, odd `n`, where a numerator may depend on the symbols before
/// it: the message encoding's pad search, which tries an item's next
/// pad only when its last one was not a residue. Eight numerators are
/// in flight at a time on the AVX-512 lane kernel where the CPU has it
/// (`DESIGN.md` §11), one at a time on [`jacobi_words`]' loop
/// elsewhere; the symbols are the same.
///
/// # Panics
///
/// Panics if `n` is even.
pub fn jacobi_stream(n: &[u64; 4], next: &mut Feed<'_>) {
    assert!(n[0] & 1 == 1, "jacobi: modulus must be odd");
    #[cfg(target_arch = "x86_64")]
    if crate::lanes::jacobi_lanes(n, next) {
        return;
    }
    jacobi_stream_scalar(n, next);
}

/// [`jacobi_stream`] one numerator at a time on [`jacobi_words`]' loop,
/// whatever the CPU — the lane kernel's differential oracle.
///
/// # Panics
///
/// Panics if `n` is even.
pub fn jacobi_stream_scalar(n: &[u64; 4], next: &mut Feed<'_>) {
    assert!(n[0] & 1 == 1, "jacobi: modulus must be odd");
    let mut told = None;
    while let Some((tag, a)) = next(told) {
        told = Some((tag, symbol(a, *n)));
    }
}

/// `(a/n)` for `a < n`, `n` odd, both in `L` words. The sign is kept
/// as a bit and every data-dependent choice is a mask, so a step costs
/// its word operations and no mispredicted branch.
fn symbol<const L: usize>(mut a: [u64; L], mut n: [u64; L]) -> i8 {
    // Bit 0 is set while the symbol so far is -1.
    let mut sign = 0u64;
    if !descend(&mut a, &mut n, &mut sign, 2) {
        return 0;
    }
    // The modulus fits two words. A numerator still wider (a short one
    // swaps on the first step) is reduced once here rather than stepped
    // down a bit at a time; the rest runs on two words, then one.
    let mut n2 = [n[0], n[1]];
    let mut a2 = if n[1] == 0 {
        [rem_limb(&a, n[0]), 0]
    } else if a[2..].iter().any(|&w| w != 0) {
        rem_two_limbs(&a, n2)
    } else {
        [a[0], a[1]]
    };
    if !descend(&mut a2, &mut n2, &mut sign, 1) {
        return 0;
    }
    let t = if sign & 1 == 1 { -1 } else { 1 };
    t * symbol_u64(rem_limb(&a2, n2[0]), n2[0])
}

/// Reduction steps on odd `n` while it is wider than `floor` words,
/// each flipping bit 0 of `sign` as the symbol does. Returns `false`
/// when `a` reaches zero first: then `gcd(a, n)` is the multi-limb `n`,
/// hence not 1, and the symbol is 0. (Returning the sign instead, in an
/// `Option`, measured 4–9 % slower on wide numerators.)
fn descend<const W: usize>(
    a: &mut [u64; W],
    n: &mut [u64; W],
    sign: &mut u64,
    floor: usize,
) -> bool {
    while n[floor..].iter().any(|&w| w != 0) {
        if *a == [0; W] {
            return false;
        }
        // Each factor of two contributes (2/n), which is -1 exactly
        // when n ≡ 3 or 5 (mod 8).
        let twos = u64::from(words::shr_to_odd(a));
        *sign ^= twos & ((n[0] >> 1) ^ (n[0] >> 2));
        // a − n is even, so the next step shifts at least one bit out.
        // On a borrow, a < n: quadratic reciprocity swaps them, which
        // flips the sign iff both are ≡ 3 (mod 4).
        let mut d = *a;
        let swap = u64::from(words::sub(&mut d, n)).wrapping_neg();
        *sign ^= swap & ((a[0] & n[0]) >> 1);
        *n = words::select(swap, a, n);
        words::neg_if(&mut d, swap);
        *a = d;
    }
    true
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

/// `v mod d` for a single non-zero limb `d`.
fn rem_limb(v: &[u64], d: u64) -> u64 {
    v.iter().rev().fold(0u64, |rem, &limb| {
        (((u128::from(rem) << 64) | u128::from(limb)) % u128::from(d)) as u64
    })
}

/// `v mod d` for a two-limb `d` (`d[1] ≠ 0`): one schoolbook quotient
/// digit a limb of `v`, on `v` and `d` shifted until `d`'s top bit is
/// set (Knuth's algorithm D with a two-digit divisor): the estimate
/// from the top digits is exact after at most two corrections.
fn rem_two_limbs(v: &[u64], d: [u64; 2]) -> [u64; 2] {
    let s = d[1].leading_zeros();
    let d = ((u128::from(d[1]) << 64) | u128::from(d[0])) << s;
    let (d1, d0) = ((d >> 64) as u64, d as u64);
    // The limbs of `v << s` from the top, the bits shifted out of `v`'s
    // top limb first. Two shifts, so that `s = 0` shifts in nothing.
    let hi = std::iter::once(&0).chain(v.iter().rev());
    let lo = v.iter().rev().chain(std::iter::once(&0));
    let limbs = hi
        .zip(lo)
        .map(|(&hi, &lo)| (hi << s) | ((lo >> 1) >> (63 - s)));
    // r < d throughout: each digit takes (r·2⁶⁴ + u) mod d.
    let r = limbs.fold(0u128, |r, u| {
        let mut q = (r / u128::from(d1)).min(u128::from(u64::MAX)) as u64;
        let mut rhat = r - u128::from(q) * u128::from(d1);
        while rhat >> 64 == 0 && u128::from(q) * u128::from(d0) > ((rhat << 64) | u128::from(u)) {
            q -= 1;
            rhat += u128::from(d1);
        }
        // The test above compares q·d with all of r·2⁶⁴ + u, so q is
        // the exact quotient digit and the difference is the remainder.
        let p_lo = u128::from(q) * u128::from(d0);
        let p_hi = u128::from(q) * u128::from(d1) + (p_lo >> 64);
        let (lo, borrow) = u.overflowing_sub(p_lo as u64);
        ((r - p_hi - u128::from(borrow)) << 64) | u128::from(lo)
    }) >> s;
    [r as u64, (r >> 64) as u64]
}

/// `(a/n)` by Euclid's reduction with one allocating `%` per step: the
/// path for moduli wider than 8 limbs, and the reference the
/// fixed-width loop is checked against.
///
/// # Panics
///
/// Panics if `n` is even or zero.
#[must_use]
pub fn jacobi_euclid(a: &Ubig, n: &Ubig) -> i8 {
    assert!(
        !n.is_zero() && !n.is_even(),
        "jacobi: modulus must be odd and positive"
    );
    let mut a = a % n;
    let mut n = n.clone();
    let mut t = 1i8;
    while !a.is_zero() {
        let tz = (0..).find(|&i| a.bit(i)).expect("a is non-zero");
        if tz > 0 {
            a = a >> tz;
            if tz % 2 == 1 && matches!(n.limbs()[0] & 7, 3 | 5) {
                t = -t;
            }
        }
        if a.limbs()[0] & n.limbs()[0] & 3 == 3 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular;
    use proptest::prelude::*;
    use rand::SeedableRng;

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
    fn two_limb_remainder_matches_division() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let mut divisors = vec![
            (Ubig::one() << 64) + Ubig::one(),
            (Ubig::one() << 128) - Ubig::one(),
            (Ubig::one() << 127) + Ubig::one(),
            (Ubig::one() << 65) - Ubig::one(),
        ];
        for bits in 65..=128 {
            divisors.push(Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1)));
        }
        for d in &divisors {
            let d2 = words::load::<2>(d);
            for v in [
                Ubig::zero(),
                d.clone(),
                d - &Ubig::one(),
                (Ubig::one() << 512) - Ubig::one(),
                d * &((Ubig::one() << 384) - Ubig::one()),
                Ubig::random_bits(&mut rng, 256),
                Ubig::random_bits(&mut rng, 512),
            ] {
                let got = rem_two_limbs(&words::load::<8>(&v), d2);
                assert_eq!(got, words::load::<2>(&(&v % d)), "v={v} d={d}");
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

//! Property-based tests for `dla-bigint`: ring axioms, division
//! identities, base conversions, modular-arithmetic laws, and the
//! differential oracles for the exponentiation/residue hot paths
//! (windowed vs binary vs schoolbook modexp; Jacobi vs Euler).

use dla_bigint::jacobi::jacobi;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{modular, prime, Ubig};
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: an arbitrary Ubig of up to `limbs` limbs.
fn ubig(limbs: usize) -> impl Strategy<Value = Ubig> {
    prop::collection::vec(any::<u64>(), 0..=limbs).prop_map(Ubig::from_limbs)
}

/// The evaluation `FixedBase` had above its radix table's capacity
/// before the comb: split the exponent every `split` bits, raise the
/// base to the low part through `fb`, and lift the high part's power by
/// `split` ladder squarings. Kept as the comb's differential oracle: it
/// asks `fb` only for powers of at most `split` bits, and does the rest
/// on `modexp`.
fn chunk_recursion(
    ctx: &MontgomeryContext,
    fb: &dla_bigint::FixedBase,
    exp: &Ubig,
    split: usize,
) -> Ubig {
    if exp.bit_len() <= split {
        return fb.pow(exp);
    }
    let low = fb.pow(&(exp % &(Ubig::one() << split)));
    let high = chunk_recursion(ctx, fb, &(exp >> split), split);
    ctx.modmul(&low, &ctx.modexp(&high, &(Ubig::one() << split)))
}

fn ubig_nonzero(limbs: usize) -> impl Strategy<Value = Ubig> {
    ubig(limbs).prop_map(|v| if v.is_zero() { Ubig::one() } else { v })
}

proptest! {
    #[test]
    fn add_commutative(a in ubig(6), b in ubig(6)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in ubig(5), b in ubig(5), c in ubig(5)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in ubig(5), b in ubig(5)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associative(a in ubig(3), b in ubig(3), c in ubig(3)) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes_over_add(a in ubig(4), b in ubig(4), c in ubig(4)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_then_sub_round_trips(a in ubig(6), b in ubig(6)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn div_rem_identity(a in ubig(8), b in ubig_nonzero(4)) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    // `div_rem` dispatches on the divisor's limb count: exactly one
    // limb takes the short-division path, two or more the Knuth
    // Algorithm D path (whose caller-checked preconditions are `a > b`
    // and `b.limbs.len() >= 2`). Pin each path separately with the
    // multiply-back identity.

    #[test]
    fn div_rem_single_limb_divisor_path(a in ubig(8), d in 1u64..=u64::MAX) {
        let b = Ubig::from_u64(d);
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_knuth_path_preconditions_hold(
        lo in ubig(3),
        b in prop::collection::vec(any::<u64>(), 2..=4)
            .prop_map(|mut v| {
                // Force a true multi-limb divisor: nonzero top limb.
                let last = v.last_mut().expect("len >= 2");
                if *last == 0 { *last = 1; }
                Ubig::from_limbs(v)
            }),
    ) {
        // Construct a dividend strictly above the divisor so the Knuth
        // branch (not the trivial Less/Equal early-outs) is exercised.
        let a = &(&b << 17) + &lo;
        prop_assert!(a > b);
        prop_assert!(b.bit_len() > 64, "divisor must span at least two limbs");
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert!(!q.is_zero());
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn decimal_round_trip(a in ubig(6)) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ubig>().unwrap(), a);
    }

    #[test]
    fn hex_round_trip(a in ubig(6)) {
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn bytes_round_trip(a in ubig(6)) {
        prop_assert_eq!(Ubig::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn shift_is_pow2_mul(a in ubig(4), n in 0usize..200) {
        prop_assert_eq!(&a << n, &a * &(Ubig::one() << n));
    }

    #[test]
    fn shr_discards_low_bits(a in ubig(4), n in 0usize..200) {
        let (expect, _) = a.div_rem(&(Ubig::one() << n));
        prop_assert_eq!(&a >> n, expect);
    }

    #[test]
    fn cmp_agrees_with_sub(a in ubig(5), b in ubig(5)) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }

    #[test]
    fn modexp_product_law(a in ubig(2), e1 in 0u64..200, e2 in 0u64..200, m in ubig_nonzero(2)) {
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let lhs = modular::modexp(&a, &Ubig::from_u64(e1 + e2), &m);
        let rhs = modular::modmul(
            &modular::modexp(&a, &Ubig::from_u64(e1), &m),
            &modular::modexp(&a, &Ubig::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in ubig_nonzero(3), m in ubig_nonzero(3)) {
        if let Some(inv) = modular::modinv(&a, &m) {
            if !m.is_one() {
                prop_assert_eq!(modular::modmul(&a, &inv, &m), Ubig::one() % &m);
            }
        } else {
            prop_assert!(!modular::gcd(&a, &m).is_one());
        }
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(4), b in ubig_nonzero(4)) {
        let g = modular::gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential oracle for the tentpole: the sliding-window
    /// Montgomery exponentiation agrees with the bit-at-a-time
    /// Montgomery baseline and the division-based schoolbook ladder on
    /// every window width 1..=6, across 65–512-bit odd moduli.
    #[test]
    fn windowed_binary_schoolbook_agree(
        base in ubig(8),
        exp in ubig(4),
        bits in 65usize..=512,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        let reference = modular::modexp_schoolbook(&base, &exp, &m);
        prop_assert_eq!(&ctx.modexp_binary(&base, &exp), &reference);
        for window in 1..=6 {
            prop_assert_eq!(&ctx.modexp_windowed(&base, &exp, window), &reference, "window={}", window);
        }
    }

    /// Edge exponents 0, 1, 2 and p−1 (Fermat) against a random odd
    /// prime modulus, for every window width.
    #[test]
    fn windowed_edge_exponents_match(
        base in ubig(6),
        bits in 65usize..=160,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            Ubig::two(),
            &p - &Ubig::one(),
        ];
        for exp in &edges {
            let reference = modular::modexp_schoolbook(&base, exp, &p);
            for window in 1..=6 {
                prop_assert_eq!(
                    &ctx.modexp_windowed(&base, exp, window),
                    &reference,
                    "window={} exp={}", window, exp
                );
            }
        }
    }

    /// The Jacobi symbol equals the Euler criterion on random odd
    /// primes — the identity the `encode` hot path rests on.
    #[test]
    fn jacobi_matches_euler_criterion(
        bits in 64usize..=192,
        seed in any::<u64>(),
        numerators in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let q = (&p - &Ubig::one()) >> 1;
        for _ in 0..3 {
            let a = Ubig::random_below(&mut rng, &p);
            let euler = modular::modexp(&a, &q, &p);
            let expect: i8 = if euler.is_zero() || a.is_zero() {
                0
            } else if euler.is_one() {
                1
            } else {
                -1
            };
            prop_assert_eq!(jacobi(&a, &p), expect);
        }
        // Unreduced numerators reduce first.
        for n in numerators {
            let a = Ubig::from_u64(n);
            let shifted = &a + &(&p << 2);
            prop_assert_eq!(jacobi(&a, &p), jacobi(&shifted, &p));
        }
    }

    /// Batch exponentiation is element-wise identical to one-at-a-time.
    #[test]
    fn batch_modexp_matches_pointwise(
        bases in prop::collection::vec(ubig(5), 0..8),
        exp in ubig(3),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(96, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let batched = ctx.modexp_batch(&bases, &exp);
        let pointwise: Vec<Ubig> = bases.iter().map(|b| ctx.modexp(b, &exp)).collect();
        prop_assert_eq!(batched, pointwise);
    }

    /// The accelerated fixed-width kernel path agrees with the generic
    /// PR 4 sliding-window oracle on the same inputs — the differential
    /// that keeps wire transcripts byte-identical.
    #[test]
    fn accel_modexp_matches_generic_oracle(
        base in ubig(8),
        exp in ubig(8),
        bits in 65usize..=512,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        prop_assert_eq!(ctx.modexp(&base, &exp), ctx.modexp_generic(&base, &exp));
    }

    /// `FixedBase::pow` ≡ `modexp` across 65–512-bit odd moduli, on the
    /// comb built up front and on one built on first use (the divisor
    /// deliberately undersizes some up-front combs).
    #[test]
    fn fixed_base_matches_modexp(
        base in ubig(8),
        exp in ubig(8),
        bits in 65usize..=512,
        up_front_divisor in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        let fb = dla_bigint::FixedBase::new(&ctx, &base, bits / up_front_divisor);
        prop_assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp));
    }

    /// Comb ≡ `modexp` ≡ the squaring-shifted chunk recursion the comb
    /// replaced, at every exponent length where the comb changes shape
    /// or route — empty, one bit, one column, around the length built
    /// up front (a comb of exactly that many columns: 1, 8, 12, 32, 71,
    /// 144, 2 056 — one to eight blocks, the last one narrower at 71),
    /// combs built with headroom for 64 to 133 columns (eight
    /// blocks, the last one narrower), the production makes (a
    /// 255-bit Schnorr exponent, a 1 020–1 152-bit deposit, a
    /// 16 441-bit epoch product with `batch_verify`'s randomizer), and
    /// past the longest comb — for a random base, zero and one; each
    /// evaluator meets a shorter exponent first, so the longer one
    /// arrives at a comb already built for another length.
    #[test]
    fn fixed_base_comb_matches_modexp_and_the_chunk_recursion(
        bits in 65usize..=512,
        up_front in prop::sample::select(vec![1usize, 64, 89, 255, 568, 1152, 16_441]),
        special_base in prop::sample::select(vec![None, Some(0u64), Some(1)]),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        let base = special_base.map_or_else(|| Ubig::random_below(&mut rng, &m), Ubig::from_u64);
        let fb = dla_bigint::FixedBase::new(&ctx, &base, up_front);
        let mut lengths = vec![
            0, 1, 8, 9, up_front.max(2) - 1, up_front, up_front + 1, 2 * up_front + 3,
            255, 512, 568, 1_064, 1_020, 1_152, 16_384 + 128, 16_441, 70_000,
        ];
        lengths.sort_unstable();
        // The oracle's chunks stay short of the up-front comb, and never
        // so short that 70 000 bits recurse too deep.
        let split = up_front.clamp(64, 1_152) - 1;
        // Shorter before longer, twice: the second pass finds combs
        // built by the first (and, past four lengths, dropped by it).
        for &len in lengths.iter().chain(&lengths) {
            let exp = match len {
                0 => Ubig::zero(),
                1 => Ubig::one(),
                len => Ubig::random_bits(&mut rng, len - 1) + (Ubig::one() << (len - 1)),
            };
            let value = fb.pow(&exp);
            prop_assert_eq!(&value, &ctx.modexp(&base, &exp), "len={}", len);
            prop_assert_eq!(&value, &chunk_recursion(&ctx, &fb, &exp, split), "len={}", len);
        }
    }

    /// `multi_exp` ≡ the product of independent ladders, across term
    /// counts that exercise both the Straus and Pippenger schedules.
    #[test]
    fn multi_exp_matches_product_of_ladders(
        k in 0usize..=80,
        bits in 65usize..=256,
        exp_limbs in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let terms: Vec<(Ubig, Ubig)> = (0..k)
            .map(|_| (
                Ubig::random_below(&mut rng, &p),
                Ubig::random_bits(&mut rng, exp_limbs * 64),
            ))
            .collect();
        let product = terms.iter().fold(&Ubig::one() % &p, |acc, (b, e)| {
            modular::modmul(&acc, &ctx.modexp(b, e), &p)
        });
        prop_assert_eq!(dla_bigint::multi_exp(&ctx, &terms), product);
    }

    /// Edge exponents 0, 1, p−1 (the group order) and p−1 ± 1 agree
    /// between the fixed-base table, the accelerated kernel, and the
    /// schoolbook reference.
    #[test]
    fn fixed_base_and_accel_edge_exponents_match(
        base in ubig(6),
        bits in 65usize..=160,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let order = &p - &Ubig::one();
        let fb = dla_bigint::FixedBase::new(&ctx, &base, bits);
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            &order - &Ubig::one(),
            order.clone(),
            &order + &Ubig::one(),
        ];
        for exp in &edges {
            let reference = modular::modexp_schoolbook(&base, exp, &p);
            prop_assert_eq!(&ctx.modexp(&base, exp), &reference, "accel exp={}", exp);
            prop_assert_eq!(&fb.pow(exp), &reference, "fixed-base exp={}", exp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f61_field_axioms(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        use dla_bigint::F61;
        let (a, b, c) = (F61::new(x), F61::new(y), F61::new(z));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, F61::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), F61::ONE);
        }
    }
}

/// The zero-divisor error path, pinned outside the property blocks: no
/// strategy ever generates a zero divisor, so assert the guard
/// directly.
#[test]
#[should_panic(expected = "division by zero")]
fn div_rem_zero_divisor_panics() {
    let _ = Ubig::from_u64(42).div_rem(&Ubig::zero());
}

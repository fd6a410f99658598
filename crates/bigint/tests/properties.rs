//! Property-based tests for `dla-bigint`: ring axioms, division
//! identities, base conversions, modular-arithmetic laws, and the
//! differential oracles for the exponentiation/residue hot paths
//! (windowed vs binary vs schoolbook modexp; Jacobi vs Euler).

use dla_bigint::jacobi::{
    jacobi, jacobi_euclid, jacobi_stream, jacobi_stream_scalar, jacobi_words, Feed,
};
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

fn odd(v: Ubig) -> Ubig {
    if v.is_even() {
        &v + &Ubig::one()
    } else {
        v
    }
}

/// An odd modulus of exactly four limbs (`bits` in 193..=256).
fn modulus_4_limbs(bits: usize, rng: &mut rand::rngs::StdRng) -> Ubig {
    odd(&Ubig::random_bits(rng, bits - 1) + &(Ubig::one() << (bits - 1)))
}

/// The lane kernel's batch walk, or `None` with a printed note on a CPU
/// that has none — the lane leg is then skipped, never faked.
fn lane_walk(ctx: &MontgomeryContext, bases: &[Ubig], exp: &Ubig) -> Option<Vec<Ubig>> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let out = ctx.modexp_batch_lanes(bases, exp);
    if out.is_none() {
        NOTE.call_once(|| eprintln!("note: no AVX-512 IFMA on this CPU; the lane leg is skipped"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lanes ≡ scalar on random 4-limb moduli, random bases (some of
    /// them ≥ n) and random exponents, over batch lengths that cross the
    /// 8-lane boundary and the dispatcher's cutoff; the dispatcher
    /// agrees with both.
    #[test]
    fn lane_walk_matches_the_scalar_walk(
        bases in prop::collection::vec(ubig(5), 1..=17),
        exp in ubig(4),
        bits in 193usize..=256,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = modulus_4_limbs(bits, &mut rng);
        let ctx = MontgomeryContext::new(&n).expect("modulus is odd");
        let scalar = ctx.modexp_batch_scalar(&bases, &exp);
        prop_assert_eq!(&ctx.modexp_batch(&bases, &exp), &scalar);
        prop_assert_eq!(
            &scalar[0],
            &modular::modexp_schoolbook(&bases[0], &exp, &n)
        );
        if let Some(lanes) = lane_walk(&ctx, &bases, &exp) {
            prop_assert_eq!(lanes, scalar);
        }
    }
}

/// Lanes ≡ scalar on the edge shapes: bases 0, 1, n−1, n and ≥ n;
/// exponents 0, 1, 2, below 2²⁴ (window 1) and full width; moduli at the
/// top and the bottom of the 4-limb range (2²⁵⁶ − 1 is the largest, the
/// lazy bound's tightest case) and a composite `a²·c` whose zero divisor
/// `a·c` squares to a lazy `n` that only the final subtraction turns
/// into 0; every batch length 1–17.
#[test]
fn lane_walk_matches_the_scalar_walk_on_edge_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(40);
    let a = odd(Ubig::random_bits(&mut rng, 100));
    let c = odd(Ubig::random_bits(&mut rng, 50));
    let moduli = [
        (Ubig::one() << 256) - Ubig::one(),
        modulus_4_limbs(256, &mut rng),
        modulus_4_limbs(193, &mut rng),
        &(&a * &a) * &c,
    ];
    for n in &moduli {
        let ctx = MontgomeryContext::new(n).expect("modulus is odd");
        let one = Ubig::one();
        let mut bases = vec![
            Ubig::zero(),
            one.clone(),
            n - &one,
            n.clone(),
            n + &one,
            n + n,
            Ubig::random_bits(&mut rng, 320),
            &a * &c,
        ];
        while bases.len() < 17 {
            bases.push(Ubig::random_below(&mut rng, n));
        }
        let exps = [
            Ubig::zero(),
            Ubig::one(),
            Ubig::two(),
            Ubig::from_u64(0xAB_CDEF),
            Ubig::random_below(&mut rng, n),
            n - &one,
        ];
        for exp in &exps {
            for len in 1..=bases.len() {
                let batch = &bases[..len];
                let scalar = ctx.modexp_batch_scalar(batch, exp);
                for (base, got) in batch.iter().zip(&scalar) {
                    assert_eq!(
                        got,
                        &modular::modexp(base, exp, n),
                        "scalar len={len} exp={exp}"
                    );
                }
                if let Some(lanes) = lane_walk(&ctx, batch, exp) {
                    assert_eq!(lanes, scalar, "lanes len={len} exp={exp} n={n}");
                }
            }
        }
    }
}

/// `ModExp` and `MontMulStep` read the same on both kernels and through
/// the dispatcher, at every batch length 1–17 and every window width —
/// so no counted figure can tell which kernel ran.
#[test]
fn lane_walk_records_the_scalar_walk_s_counts() {
    let capture = |f: &dyn Fn() -> Option<Vec<Ubig>>| {
        let recorder = dla_telemetry::Recorder::new();
        let out = {
            let _install = recorder.install();
            f()
        };
        let cost = recorder.take().total_cost();
        out.map(|out| (out, cost.modexp, cost.mont_mul_steps))
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let n = modulus_4_limbs(256, &mut rng);
    let ctx = MontgomeryContext::new(&n).expect("modulus is odd");
    let bases: Vec<Ubig> = (0..17).map(|_| Ubig::random_below(&mut rng, &n)).collect();
    for exp_bits in [1usize, 20, 60, 200, 256] {
        let exp = Ubig::random_bits(&mut rng, exp_bits);
        for len in 1..=bases.len() {
            let batch = &bases[..len];
            let scalar = capture(&|| Some(ctx.modexp_batch_scalar(batch, &exp)));
            let serial = capture(&|| Some(batch.iter().map(|b| ctx.modexp(b, &exp)).collect()));
            let dispatched = capture(&|| Some(ctx.modexp_batch(batch, &exp)));
            assert_eq!(scalar, serial, "len={len} bits={exp_bits}");
            assert_eq!(dispatched, scalar, "len={len} bits={exp_bits}");
            match capture(&|| lane_walk(&ctx, batch, &exp)) {
                Some(lanes) => assert_eq!(lanes, scalar.clone().unwrap(), "len={len}"),
                None => assert!(ctx.modexp_batch_lanes(batch, &exp).is_none()),
            }
        }
    }
}

/// The lane walk at 1–5 lane groups and at odd group counts: every
/// batch length whose last group is full, one short and one long, on a
/// full-width exponent and a window-1 one — so pairs of groups, a lone
/// last group and a lone first group all meet the scalar walk.
#[test]
fn lane_walk_in_pairs_matches_the_scalar_walk_at_every_group_count() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(54);
    let n = modulus_4_limbs(256, &mut rng);
    let ctx = MontgomeryContext::new(&n).expect("modulus is odd");
    let bases: Vec<Ubig> = (0..40).map(|_| Ubig::random_below(&mut rng, &n)).collect();
    for exp in [Ubig::random_below(&mut rng, &n), Ubig::from_u64(0x9_5A5A)] {
        for groups in 1..=5usize {
            for len in [8 * groups - 7, 8 * groups - 1, 8 * groups] {
                let batch = &bases[..len];
                let scalar = ctx.modexp_batch_scalar(batch, &exp);
                if let Some(lanes) = lane_walk(&ctx, batch, &exp) {
                    assert_eq!(lanes, scalar, "groups={groups} len={len}");
                }
            }
        }
    }
}

/// `v` in four little-endian words.
fn words4(v: &Ubig) -> [u64; 4] {
    let mut w = [0; 4];
    w[..v.limbs().len()].copy_from_slice(v.limbs());
    w
}

/// The symbols a Jacobi stream tells for `numerators`, in their order:
/// each place takes the next numerator of the list as soon as it is
/// free, and every numerator is told exactly once.
fn stream_symbols(stream: fn(&[u64; 4], &mut Feed<'_>), n: &Ubig, numerators: &[Ubig]) -> Vec<i8> {
    let mut told = vec![None; numerators.len()];
    let mut queue = numerators.iter().map(words4).enumerate();
    stream(&words4(n), &mut |done| {
        if let Some((tag, symbol)) = done {
            assert_eq!(
                told[tag].replace(symbol),
                None,
                "numerator {tag} told twice"
            );
        }
        queue.next()
    });
    told.into_iter()
        .map(|s| s.expect("every numerator is told"))
        .collect()
}

/// Numerators below `n` whose lanes finish many steps apart: 0, 1, 2,
/// `n − 1`, one-word values, values with 64–190 trailing zero bits (a
/// whole-word move), values sharing a factor of 3 with `n` when it has
/// one, and random ones — `count` of them.
fn stream_numerators(rng: &mut rand::rngs::StdRng, n: &Ubig, count: usize) -> Vec<Ubig> {
    let mut v = vec![Ubig::zero(), Ubig::one(), Ubig::two(), n - &Ubig::one()];
    while v.len() < count {
        let x = match v.len() % 5 {
            0 => Ubig::from_u64(rand::Rng::gen(rng)),
            1 => Ubig::random_bits(rng, 60) << (64 + v.len() % 127),
            2 => Ubig::from_u64(3) * (Ubig::random_below(rng, n) >> 2),
            _ => Ubig::random_below(rng, n),
        };
        v.push(&x % n);
    }
    v.truncate(count);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane Jacobi kernel ≡ `jacobi_words` ≡ `jacobi_euclid` on
    /// random 4-word numerators against a random 4-limb prime, a random
    /// odd modulus and `3·odd` (symbols of 0 where the factor is
    /// shared), over stream lengths that leave lanes idle at the start
    /// and at the end; and the scalar stream tells the same symbols.
    #[test]
    fn lane_jacobi_matches_the_scalar_loop_and_euclid(
        count in 1usize..=40,
        bits in 193usize..=256,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let h = odd(Ubig::random_bits(&mut rng, bits - 3) + (Ubig::one() << (bits - 3)));
        let moduli = [
            prime::gen_prime(bits, &mut rng),
            modulus_4_limbs(bits, &mut rng),
            &h * &Ubig::from_u64(3),
        ];
        for n in &moduli {
            let numerators = stream_numerators(&mut rng, n, count);
            let lanes = stream_symbols(jacobi_stream, n, &numerators);
            let scalar = stream_symbols(jacobi_stream_scalar, n, &numerators);
            prop_assert_eq!(&lanes, &scalar, "n={}", n);
            for (a, &symbol) in numerators.iter().zip(&lanes) {
                prop_assert_eq!(symbol, jacobi_words(&words4(a), &words4(n)), "a={} n={}", a, n);
                prop_assert_eq!(symbol, jacobi_euclid(a, n), "a={} n={}", a, n);
            }
        }
    }
}

/// An odd value of exactly `limbs` limbs.
fn odd_of_limbs(rng: &mut rand::rngs::StdRng, limbs: usize) -> Ubig {
    let bits = 64 * limbs;
    let v = Ubig::random_bits(rng, bits - 1) + (Ubig::one() << (bits - 1));
    if v.is_even() {
        v + Ubig::one()
    } else {
        v
    }
}

/// The numerators both differential oracles below are fed against `m`:
/// the edges, random values below `m`, one-limb values, values that
/// share the factor 3 with it, and values at or above `m`.
fn numerators(rng: &mut rand::rngs::StdRng, m: &Ubig) -> Vec<Ubig> {
    let below = Ubig::random_below(rng, m);
    let word = Ubig::from_u64(rand::Rng::gen(rng));
    let odd = if below.is_even() {
        &below + &Ubig::one()
    } else {
        below.clone()
    };
    vec![
        Ubig::zero(),
        Ubig::one(),
        m - &Ubig::one(),
        m.clone(),
        m + &Ubig::one(),
        m * &Ubig::from_u64(3) + Ubig::from_u64(5),
        below.clone(),
        &below << 1,
        odd,
        word.clone(),
        &word << 1,
        Ubig::from_u64(3) * (Ubig::random_below(rng, m) >> 2),
        Ubig::from_u64(9),
    ]
}

/// `egcd_mod`'s inverse: the reference for `modinv`.
fn inverse_by_euclid(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    let (g, x) = modular::egcd_mod(a, m);
    g.is_one().then_some(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fixed-width inverse ≡ `egcd_mod` on odd moduli, on `2·odd`
    /// moduli with even and odd numerators, on `3·odd` and `6·odd`
    /// moduli (numerators sharing the 3), and on `4·odd` moduli, which
    /// take Euclid's path — at 1–9 limbs, the widest beyond the
    /// fixed-width loop.
    #[test]
    fn fixed_width_inverse_matches_egcd(limbs in 1usize..=9, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let h = odd_of_limbs(&mut rng, limbs);
        let moduli = [h.clone(), &h << 1, &h << 2, &h * &Ubig::from_u64(3), &h * &Ubig::from_u64(6)];
        for m in &moduli {
            for a in numerators(&mut rng, m) {
                let x = modular::modinv(&a, m);
                prop_assert_eq!(&x, &inverse_by_euclid(&a, m), "a={} m={}", a, m);
                if let Some(x) = x {
                    prop_assert_eq!(modular::modmul(&a, &x, m), Ubig::one());
                }
            }
        }
    }

    /// The fixed-width Jacobi loop ≡ `jacobi_euclid` on odd moduli of
    /// 1–9 limbs (the widest is Euclid's own path), and on `3·odd`
    /// moduli against numerators that share the 3; and 1–2-limb
    /// numerators against 4- and 8-limb moduli, which swap on the first
    /// step and leave a two-limb modulus under a wide numerator.
    #[test]
    fn fixed_width_jacobi_matches_euclid(
        limbs in 1usize..=9,
        short_bits in 1usize..=128,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = odd_of_limbs(&mut rng, limbs);
        for n in [n.clone(), &n * &Ubig::from_u64(3)] {
            for a in numerators(&mut rng, &n) {
                prop_assert_eq!(jacobi(&a, &n), jacobi_euclid(&a, &n), "a={} n={}", a, n);
            }
        }
        for wide in [4, 8] {
            let n = odd_of_limbs(&mut rng, wide);
            let short = Ubig::random_bits(&mut rng, short_bits);
            let word = Ubig::from_u64(rand::Rng::gen(&mut rng));
            for (a, n) in [
                (short.clone(), n.clone()),
                (&word << 64, n.clone()),
                (&short * &Ubig::from_u64(3), &n * &Ubig::from_u64(3)),
            ] {
                prop_assert_eq!(jacobi(&a, &n), jacobi_euclid(&a, &n), "a={} n={}", a, n);
            }
        }
    }
}

/// The smallest moduli on every `modinv` path: 1, 2 (`2·1`), odd
/// primes and composites, `2·odd`, and `4·odd` and `8` (Euclid's).
#[test]
fn small_moduli_invert_as_euclid_does() {
    for m in [1u64, 2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 97, 194] {
        let m = Ubig::from_u64(m);
        for a in 0..40u64 {
            let a = Ubig::from_u64(a);
            assert_eq!(
                modular::modinv(&a, &m),
                inverse_by_euclid(&a, &m),
                "a={a} m={m}"
            );
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

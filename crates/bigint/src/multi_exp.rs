//! Multi-exponentiation: `∏ baseᵢ^{expᵢ} mod n` in one pass.
//!
//! Batched trail verification (§4.1) and cross-ring endorsement checks
//! reduce to a *product of powers* — and evaluating each power with its
//! own ladder wastes the dominant cost, the squaring chain, `k` times
//! over. Both classic multi-exponentiation schedules share **one**
//! chain across all terms:
//!
//! * **Straus interleaving** (small `k`): per-term radix-`2^w` tables,
//!   one shared left-to-right walk; each digit position costs `w`
//!   squarings total plus at most one multiply per term.
//! * **Pippenger bucketing** (large `k`): no per-term tables at all —
//!   at each window position the terms are thrown into `2^c − 1`
//!   digit-value buckets, and the running-product trick evaluates
//!   `∏ bucketᵥ^v` in `2·(2^c − 1)` multiplies regardless of `k`.
//!
//! [`multi_exp`] picks the schedule from the term count and returns a
//! result bit-identical to the product of independent
//! [`MontgomeryContext::modexp`] calls (pinned by the proptest
//! differential suite). Each term is accounted as one
//! `CostKind::MultiExpTerm`; the shared-chain work shows up as the
//! (much smaller) `MontMulStep` total.

use crate::montgomery::{Kernel, MontgomeryContext};
use crate::Ubig;

/// Term count at which Pippenger bucketing overtakes Straus tables.
const PIPPENGER_MIN: usize = 64;

/// `∏ baseᵢ^{expᵢ} mod n` over the modulus of `ctx`.
///
/// Zero-exponent terms contribute the identity; an empty product is
/// `1 mod n`. Bases are reduced mod `n` first, so a base that is a
/// multiple of the modulus annihilates the product exactly as the
/// independent-ladders evaluation would.
#[must_use]
pub fn multi_exp(ctx: &MontgomeryContext, terms: &[(Ubig, Ubig)]) -> Ubig {
    dla_telemetry::record(dla_telemetry::CostKind::MultiExpTerm, terms.len() as u64);
    let live: Vec<&(Ubig, Ubig)> = terms.iter().filter(|(_, e)| !e.is_zero()).collect();
    if live.is_empty() {
        return Ubig::one() % &ctx.modulus();
    }
    let mut kern = ctx.kernel();
    let (out, steps) = if live.len() >= PIPPENGER_MIN {
        pippenger(ctx, &mut kern, &live)
    } else {
        straus(ctx, &mut kern, &live)
    };
    dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
    out
}

/// `w`-bit digit `d` of `exp` (bits `d·w .. d·w + w`, little-endian).
fn digit(exp: &Ubig, d: usize, w: usize) -> usize {
    let mut v = 0usize;
    for b in 0..w {
        if exp.bit(d * w + b) {
            v |= 1 << b;
        }
    }
    v
}

/// Straus: per-term tables, one shared squaring chain.
fn straus(ctx: &MontgomeryContext, kern: &mut Kernel, terms: &[&(Ubig, Ubig)]) -> (Ubig, u64) {
    let max_bits = terms.iter().map(|(_, e)| e.bit_len()).max().unwrap_or(1);
    let w = match max_bits {
        0..=24 => 2,
        25..=80 => 3,
        _ => 4,
    };
    let mut steps = 0u64;

    // tables[i][v-1] = baseᵢ^v in Montgomery form, v ∈ 1..2^w.
    let tables: Vec<Vec<Vec<u64>>> = terms
        .iter()
        .map(|(base, _)| {
            let base_m = kern.to_mont(ctx, base);
            steps += 1;
            let mut table = Vec::with_capacity((1usize << w) - 1);
            table.push(base_m);
            for v in 2..(1usize << w) {
                let mut next = table[v - 2].clone();
                kern.mul_assign(ctx, &mut next, &table[0]);
                steps += 1;
                table.push(next);
            }
            table
        })
        .collect();

    let digits = max_bits.div_ceil(w);
    let mut acc: Option<Vec<u64>> = None;
    for d in (0..digits).rev() {
        if let Some(a) = &mut acc {
            for _ in 0..w {
                kern.sqr_assign(ctx, a);
                steps += 1;
            }
        }
        for (i, (_, exp)) in terms.iter().enumerate() {
            let v = digit(exp, d, w);
            if v == 0 {
                continue;
            }
            match &mut acc {
                None => acc = Some(tables[i][v - 1].clone()),
                Some(a) => {
                    kern.mul_assign(ctx, a, &tables[i][v - 1]);
                    steps += 1;
                }
            }
        }
    }

    let mut acc = acc.expect("a non-zero exponent has a non-zero digit");
    kern.redc_assign(ctx, &mut acc);
    steps += 1;
    (Ubig::from_limbs(acc), steps)
}

/// Pippenger: digit-value buckets, running-product combination.
fn pippenger(ctx: &MontgomeryContext, kern: &mut Kernel, terms: &[&(Ubig, Ubig)]) -> (Ubig, u64) {
    let max_bits = terms.iter().map(|(_, e)| e.bit_len()).max().unwrap_or(1);
    // Window grows logarithmically with the term count: buckets cost
    // 2·(2^c − 1) multiplies per window regardless of k.
    let lg = usize::BITS - terms.len().leading_zeros();
    let c = (2 * lg as usize / 3).clamp(3, 8);
    let mut steps = 0u64;

    let bases_m: Vec<Vec<u64>> = terms
        .iter()
        .map(|(base, _)| {
            steps += 1;
            kern.to_mont(ctx, base)
        })
        .collect();

    let digits = max_bits.div_ceil(c);
    let mut acc: Option<Vec<u64>> = None;
    let mut buckets: Vec<Option<Vec<u64>>> = vec![None; (1usize << c) - 1];
    for d in (0..digits).rev() {
        if let Some(a) = &mut acc {
            for _ in 0..c {
                kern.sqr_assign(ctx, a);
                steps += 1;
            }
        }
        buckets.iter_mut().for_each(|b| *b = None);
        for (i, (_, exp)) in terms.iter().enumerate() {
            let v = digit(exp, d, c);
            if v == 0 {
                continue;
            }
            match &mut buckets[v - 1] {
                None => buckets[v - 1] = Some(bases_m[i].clone()),
                Some(b) => {
                    kern.mul_assign(ctx, b, &bases_m[i]);
                    steps += 1;
                }
            }
        }
        // ∏ᵥ bucketᵥ^v via suffix running products: walking v from the
        // top, `running` accumulates ∏_{u ≥ v} bucketᵤ and the window
        // value accumulates Σ-weighted products without any powering.
        let mut running: Option<Vec<u64>> = None;
        let mut window: Option<Vec<u64>> = None;
        for v in (1..(1usize << c)).rev() {
            if let Some(b) = &buckets[v - 1] {
                match &mut running {
                    None => running = Some(b.clone()),
                    Some(r) => {
                        kern.mul_assign(ctx, r, b);
                        steps += 1;
                    }
                }
            }
            if let Some(r) = &running {
                match &mut window {
                    None => window = Some(r.clone()),
                    Some(wacc) => {
                        kern.mul_assign(ctx, wacc, r);
                        steps += 1;
                    }
                }
            }
        }
        if let Some(wacc) = window {
            match &mut acc {
                None => acc = Some(wacc),
                Some(a) => {
                    kern.mul_assign(ctx, a, &wacc);
                    steps += 1;
                }
            }
        }
    }

    let mut acc = acc.expect("a non-zero exponent has a non-zero digit");
    kern.redc_assign(ctx, &mut acc);
    steps += 1;
    (Ubig::from_limbs(acc), steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    fn oracle(ctx: &MontgomeryContext, terms: &[(Ubig, Ubig)]) -> Ubig {
        let n = ctx.modulus();
        terms.iter().fold(Ubig::one() % &n, |acc, (b, e)| {
            ctx.modmul(&acc, &ctx.modexp(b, e))
        })
    }

    #[test]
    fn straus_matches_product_of_ladders() {
        let mut rng = rng();
        for bits in [65usize, 256] {
            let mut n = Ubig::random_bits(&mut rng, bits);
            if n.is_even() {
                n = n + Ubig::one();
            }
            let ctx = MontgomeryContext::new(&n).unwrap();
            for k in [1usize, 2, 5, 17] {
                let terms: Vec<(Ubig, Ubig)> = (0..k)
                    .map(|_| {
                        (
                            Ubig::random_below(&mut rng, &n),
                            Ubig::random_bits(&mut rng, bits - 1),
                        )
                    })
                    .collect();
                assert_eq!(
                    multi_exp(&ctx, &terms),
                    oracle(&ctx, &terms),
                    "bits={bits} k={k}"
                );
            }
        }
    }

    #[test]
    fn pippenger_matches_product_of_ladders() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let terms: Vec<(Ubig, Ubig)> = (0..PIPPENGER_MIN + 9)
            .map(|_| {
                (
                    Ubig::random_below(&mut rng, &n),
                    Ubig::random_bits(&mut rng, 128),
                )
            })
            .collect();
        assert_eq!(multi_exp(&ctx, &terms), oracle(&ctx, &terms));
    }

    #[test]
    fn empty_and_zero_exponent_terms() {
        let n = Ubig::from_u64(1_000_003);
        let ctx = MontgomeryContext::new(&n).unwrap();
        assert_eq!(multi_exp(&ctx, &[]), Ubig::one());
        let terms = vec![
            (Ubig::from_u64(5), Ubig::zero()),
            (Ubig::from_u64(7), Ubig::zero()),
        ];
        assert_eq!(multi_exp(&ctx, &terms), Ubig::one());
        // Zero base with a live exponent annihilates the product.
        let terms = vec![
            (Ubig::from_u64(5), Ubig::from_u64(3)),
            (Ubig::zero(), Ubig::from_u64(2)),
        ];
        assert_eq!(multi_exp(&ctx, &terms), Ubig::zero());
    }

    #[test]
    fn shared_chain_does_fewer_steps_than_ladders() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let terms: Vec<(Ubig, Ubig)> = (0..8)
            .map(|_| {
                (
                    Ubig::random_below(&mut rng, &n),
                    Ubig::random_bits(&mut rng, 254),
                )
            })
            .collect();
        let capture = |f: &dyn Fn() -> Ubig| {
            let recorder = dla_telemetry::Recorder::new();
            let out = {
                let _install = recorder.install();
                f()
            };
            (out, recorder.take().total_cost())
        };
        let (a, multi) = capture(&|| multi_exp(&ctx, &terms));
        let (b, ladders) = capture(&|| oracle(&ctx, &terms));
        assert_eq!(a, b);
        assert_eq!(multi.multi_exp_terms, terms.len() as u64);
        assert!(
            multi.mont_mul_steps < ladders.mont_mul_steps,
            "shared chain {} must beat independent ladders {}",
            multi.mont_mul_steps,
            ladders.mont_mul_steps
        );
    }
}

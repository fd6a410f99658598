//! Fixed-base exponentiation tables.
//!
//! Several DLA hot paths raise *one* base to many different exponents:
//! the accumulator generator `x₀` absorbs every deposit of a trail
//! (§4.1), trail verification re-derives `x₀^{∏eᵢ}`, and batched
//! checkpoint verification evaluates `x₀^{Σ rⱼEⱼ}`. A sliding-window
//! ladder spends ~`bits` squarings per power because it rebuilds the
//! power-of-two chain of the base every time; for a base known in
//! advance that chain can be built **once**.
//!
//! [`FixedBase`] evaluates a power one of two ways, chosen by the
//! length of the exponent alone:
//!
//! * **Within the table's capacity** (one deposit's worth of bits): the
//!   radix-`2^w` decomposition table `rows[i][v] = base^(v·2^{w·i})` in
//!   Montgomery form. A power costs one table lookup per non-zero
//!   `w`-bit digit of the exponent — **zero squarings**.
//! * **Beyond it** (an epoch's worth of bits): a Lim–Lee comb. The
//!   exponent is cut into `TEETH = h` blocks of `a` bits; the comb
//!   holds the `2^h − 1` subset products of the teeth `base^{2^{a·i}}`,
//!   and a power walks the `a` columns: one squaring and at most one
//!   multiplication each — `2a = bits/4` steps where a ladder takes
//!   `~1.2 · bits`. The table is `2^h − 1` residues whatever `a` is
//!   (16 KB on a 512-bit modulus), but its *cost per power* is `2a`
//!   whatever the exponent is, so a comb is built on first use for the
//!   exponent length it is asked (`1/HEADROOM` above it) and serves
//!   only exponents it is at most `1/SLACK` too long for; at most
//!   `MAX_COMBS` are kept, least recently used dropped first.
//!
//! Combs stop at `MAX_COMB_BITS`. A longer exponent is cut into chunks
//! one comb-length long and evaluated by Horner's rule, every chunk
//! through that comb: the chunks' multiplications ride the table, the
//! squarings that lift one chunk above the next — one a bit — do not.
//! Correctness never depends on what was built before: every route is
//! bit-identical to [`MontgomeryContext::modexp`].
//!
//! Cost accounting: each constructed table — radix or comb — records
//! one `CostKind::FixedBaseTableBuild` plus the `MontMulStep`s the
//! build actually performed; each power records `CostKind::ModExp` and
//! its own (much smaller) `MontMulStep` count, so
//! `BENCH_cost_profile.json` can show the amortisation explicitly.

use crate::montgomery::{Kernel, MontgomeryContext};
use crate::Ubig;
use std::sync::{Arc, Mutex};

/// Comb teeth `h`: an exponent of `a · h` bits costs `a` squarings and
/// at most `a` multiplications over a table of `2^h − 1` residues.
const TEETH: usize = 8;

/// A comb is built `1/HEADROOM` longer than the exponent that asked for
/// it, so the next exponent of the same make (an epoch's product with
/// or without `batch_verify`'s 128-bit randomizer) still fits.
const HEADROOM: usize = 32;

/// A comb serves an exponent only while it is at most `1/SLACK` longer
/// than it: a comb's cost is set by its own length, not the exponent's.
const SLACK: usize = 4;

/// Combs kept per base, least recently used dropped first.
const MAX_COMBS: usize = 4;

/// Longest exponent evaluated in one comb walk; longer ones are cut
/// into chunks of this many bits.
const MAX_COMB_BITS: usize = 1 << 16;

/// Precomputed powers of one base modulo one odd modulus.
///
/// Build once with [`FixedBase::new`], then evaluate powers with
/// [`FixedBase::pow`] / [`FixedBase::pow_batch`]. Results are
/// bit-identical to [`MontgomeryContext::modexp`] on the same inputs
/// (the proptest differential suite pins this).
#[derive(Debug)]
pub struct FixedBase {
    ctx: MontgomeryContext,
    base: Ubig,
    /// Digit width `w` in bits.
    window: usize,
    /// `rows[i][v-1] = base^(v · 2^{w·i})` in Montgomery form,
    /// `v ∈ 1..2^w`.
    rows: Vec<Vec<Vec<u64>>>,
    /// Exponent bits the radix table covers: `w · rows.len()`.
    capacity_bits: usize,
    /// The combs built so far, most recently used last.
    combs: Mutex<Vec<Arc<Comb>>>,
}

/// Digit width for a given capacity: small tables for small exponent
/// ranges, wider digits once the build amortises. The build costs
/// `(2^w − 2 + w)` muls per `w` covered bits, lookups cost `1/w` muls
/// per bit — `w = 5` only repays its build for very large tables.
fn digit_width(capacity_bits: usize) -> usize {
    match capacity_bits {
        0..=64 => 3,
        65..=2048 => 4,
        _ => 5,
    }
}

/// A Lim–Lee comb over one base: the subset products of its teeth.
#[derive(Debug)]
struct Comb {
    /// Columns `a`: the comb spans exponents of up to `a · TEETH` bits.
    columns: usize,
    /// `table[m − 1] = ∏_{i ∈ m} base^{2^{a·i}}` in Montgomery form,
    /// for every non-empty tooth subset `m ∈ 1..2^TEETH`.
    table: Vec<Vec<u64>>,
}

impl Comb {
    /// Builds the comb of `columns` columns over `base` (Montgomery
    /// form): `columns · (TEETH − 1)` squarings for the teeth, one
    /// multiplication per subset of two or more.
    fn new(ctx: &MontgomeryContext, kern: &mut Kernel, base: &[u64], columns: usize) -> Self {
        let mut steps = 0u64;
        let mut table: Vec<Vec<u64>> = Vec::with_capacity((1 << TEETH) - 1);
        let mut tooth = base.to_vec();
        for mask in 1usize..1 << TEETH {
            let entry = if mask.is_power_of_two() {
                if mask > 1 {
                    for _ in 0..columns {
                        kern.sqr_assign(ctx, &mut tooth);
                    }
                    steps += columns as u64;
                }
                tooth.clone()
            } else {
                // Every subset below the newest tooth is already there.
                let newest = 1 << (usize::BITS - 1 - mask.leading_zeros());
                let mut product = table[(mask ^ newest) - 1].clone();
                kern.mul_assign(ctx, &mut product, &table[newest - 1]);
                steps += 1;
                product
            };
            table.push(entry);
        }
        dla_telemetry::record(dla_telemetry::CostKind::FixedBaseTableBuild, 1);
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
        Comb { columns, table }
    }

    /// `acc ← acc^{2^columns} · base^e`, `e` the `columns · TEETH` bits
    /// of `exp` from bit `offset` up and `None` standing for one: a
    /// squaring and at most one multiplication a column, from the top.
    fn walk(
        &self,
        ctx: &MontgomeryContext,
        kern: &mut Kernel,
        acc: &mut Option<Vec<u64>>,
        exp: &Ubig,
        offset: usize,
        steps: &mut u64,
    ) {
        for column in (0..self.columns).rev() {
            if let Some(a) = acc {
                kern.sqr_assign(ctx, a);
                *steps += 1;
            }
            let mask = (0..TEETH).fold(0usize, |mask, tooth| {
                mask | usize::from(exp.bit(offset + tooth * self.columns + column)) << tooth
            });
            if mask != 0 {
                mul_into(ctx, kern, acc, &self.table[mask - 1], steps);
            }
        }
    }
}

/// `acc ← acc · entry`, `None` standing for one (which costs no step).
fn mul_into(
    ctx: &MontgomeryContext,
    kern: &mut Kernel,
    acc: &mut Option<Vec<u64>>,
    entry: &[u64],
    steps: &mut u64,
) {
    match acc {
        None => *acc = Some(entry.to_vec()),
        Some(a) => {
            kern.mul_assign(ctx, a, entry);
            *steps += 1;
        }
    }
}

impl FixedBase {
    /// Builds the radix table for `base` mod the modulus of `ctx`,
    /// sized for exponents up to `capacity_bits` bits. Longer exponents
    /// evaluate through a comb built on first use.
    #[must_use]
    pub fn new(ctx: &MontgomeryContext, base: &Ubig, capacity_bits: usize) -> Self {
        let capacity_bits = capacity_bits.max(1);
        let w = digit_width(capacity_bits);
        let digits = capacity_bits.div_ceil(w);
        let mut kern = ctx.kernel();
        let mut steps = 1u64; // to_mont
        let mut cur = kern.to_mont(ctx, base);

        let mut rows = Vec::with_capacity(digits);
        for _ in 0..digits {
            // Row entries v = 1..2^w: repeated multiplication by cur.
            let mut row = Vec::with_capacity((1usize << w) - 1);
            row.push(cur.clone());
            for v in 2..(1usize << w) {
                let mut next = row[v - 2].clone();
                kern.mul_assign(ctx, &mut next, &cur);
                steps += 1;
                row.push(next);
            }
            rows.push(row);
            // cur ← cur^(2^w): the base for the next digit position.
            for _ in 0..w {
                kern.sqr_assign(ctx, &mut cur);
                steps += 1;
            }
        }

        dla_telemetry::record(dla_telemetry::CostKind::FixedBaseTableBuild, 1);
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
        FixedBase {
            ctx: ctx.clone(),
            base: base.clone(),
            window: w,
            rows,
            capacity_bits: digits * w,
            combs: Mutex::new(Vec::new()),
        }
    }

    /// The base the table was built for.
    #[must_use]
    pub fn base(&self) -> &Ubig {
        &self.base
    }

    /// Exponent bits the radix table covers (zero squarings a power).
    #[must_use]
    pub fn capacity_bits(&self) -> usize {
        self.capacity_bits
    }

    /// `base^exp mod n`, bit-identical to `ctx.modexp(base, exp)`.
    #[must_use]
    pub fn pow(&self, exp: &Ubig) -> Ubig {
        self.pow_batch(std::slice::from_ref(exp))
            .pop()
            .expect("one")
    }

    /// `base^exp mod n` for every exponent, sharing one kernel handle.
    #[must_use]
    pub fn pow_batch(&self, exps: &[Ubig]) -> Vec<Ubig> {
        if exps.is_empty() {
            return Vec::new();
        }
        dla_telemetry::record(dla_telemetry::CostKind::ModExp, exps.len() as u64);
        let mut kern = self.ctx.kernel();
        let mut total_steps = 0u64;
        let out = exps
            .iter()
            .map(|exp| self.pow_inner(exp, &mut kern, &mut total_steps))
            .collect();
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, total_steps);
        out
    }

    /// Evaluates one exponent: digit lookups within capacity, a comb
    /// walk beyond it — one walk a chunk, top chunk first, when the
    /// exponent outruns the comb.
    fn pow_inner(&self, exp: &Ubig, kern: &mut Kernel, steps: &mut u64) -> Ubig {
        let bits = exp.bit_len();
        let mut acc: Option<Vec<u64>> = None;
        if bits <= self.capacity_bits {
            self.lookups(exp, kern, &mut acc, steps);
        } else {
            let comb = self.comb_for(bits.div_ceil(TEETH).min(MAX_COMB_BITS / TEETH), kern);
            let span = comb.columns * TEETH;
            for chunk in (0..bits.div_ceil(span)).rev() {
                // Horner: the chunks above move up by one span. The
                // walk squares once a column; the rest is paid here.
                if let Some(a) = &mut acc {
                    for _ in comb.columns..span {
                        kern.sqr_assign(&self.ctx, a);
                    }
                    *steps += (span - comb.columns) as u64;
                }
                comb.walk(&self.ctx, kern, &mut acc, exp, chunk * span, steps);
            }
        }
        match acc {
            None => Ubig::one() % &self.ctx.modulus(),
            Some(mut acc) => {
                kern.redc_assign(&self.ctx, &mut acc);
                *steps += 1;
                Ubig::from_limbs(acc)
            }
        }
    }

    /// `acc ← base^exp` for `exp` within the radix table's capacity:
    /// one lookup a non-zero digit, no squarings.
    fn lookups(&self, exp: &Ubig, kern: &mut Kernel, acc: &mut Option<Vec<u64>>, steps: &mut u64) {
        let w = self.window;
        for (i, row) in self.rows.iter().enumerate() {
            let mut v = 0usize;
            for b in 0..w {
                if exp.bit(i * w + b) {
                    v |= 1 << b;
                }
            }
            if v != 0 {
                mul_into(&self.ctx, kern, acc, &row[v - 1], steps);
            }
        }
    }

    /// The comb for an exponent of `columns · TEETH` bits: the shortest
    /// one kept that covers it without being more than `1/SLACK` too
    /// long, else a new one `1/HEADROOM` longer than asked.
    fn comb_for(&self, columns: usize, kern: &mut Kernel) -> Arc<Comb> {
        let mut combs = self
            .combs
            .lock()
            .expect("no comb build panics while the list is held");
        let fits = |comb: &Arc<Comb>| (columns..=columns + columns / SLACK).contains(&comb.columns);
        let hit = (0..combs.len())
            .filter(|&i| fits(&combs[i]))
            .min_by_key(|&i| combs[i].columns);
        let comb = match hit {
            Some(i) => combs.remove(i),
            None => {
                if combs.len() == MAX_COMBS {
                    combs.remove(0);
                }
                let base = &self.rows[0][0];
                Arc::new(Comb::new(
                    &self.ctx,
                    kern,
                    base,
                    columns + columns / HEADROOM,
                ))
            }
        };
        combs.push(Arc::clone(&comb));
        comb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    /// Runs `f` under a fresh recorder: its value and what it cost.
    fn metered<T>(f: impl FnOnce() -> T) -> (T, dla_telemetry::CostVector) {
        let recorder = dla_telemetry::Recorder::new();
        let out = {
            let _install = recorder.install();
            f()
        };
        (out, recorder.take().total_cost())
    }

    #[test]
    fn pow_matches_modexp_within_capacity() {
        let mut rng = rng();
        for bits in [65usize, 256, 512] {
            let mut n = Ubig::random_bits(&mut rng, bits);
            if n.is_even() {
                n = n + Ubig::one();
            }
            let ctx = MontgomeryContext::new(&n).unwrap();
            let base = Ubig::random_below(&mut rng, &n);
            let fb = FixedBase::new(&ctx, &base, bits);
            for _ in 0..8 {
                let exp = Ubig::random_bits(&mut rng, bits - 1);
                assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp), "bits={bits}");
            }
        }
    }

    #[test]
    fn pow_matches_modexp_beyond_capacity() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        // Deliberately tiny capacity: every exponent walks a comb.
        let fb = FixedBase::new(&ctx, &base, 64);
        for exp_bits in [65usize, 200, 300, 1000] {
            let exp = Ubig::random_bits(&mut rng, exp_bits);
            assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp), "exp_bits={exp_bits}");
        }
    }

    #[test]
    fn edge_exponents() {
        let n = (Ubig::one() << 89) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::from_u64(123_456);
        let fb = FixedBase::new(&ctx, &base, 89);
        assert_eq!(fb.pow(&Ubig::zero()), Ubig::one());
        assert_eq!(fb.pow(&Ubig::one()), base);
        assert_eq!(
            fb.pow(&Ubig::from_u64(2)),
            ctx.modexp(&base, &Ubig::from_u64(2))
        );
        let exp = &n - &Ubig::one();
        assert_eq!(fb.pow(&exp), Ubig::one(), "Fermat");
    }

    #[test]
    fn zero_base() {
        let n = Ubig::from_u64(1_000_003);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let fb = FixedBase::new(&ctx, &Ubig::zero(), 64);
        assert_eq!(fb.pow(&Ubig::from_u64(7)), Ubig::zero());
        assert_eq!(fb.pow(&Ubig::zero()), Ubig::one());
    }

    #[test]
    fn batch_matches_serial_and_fewer_steps_than_ladder() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        let exps: Vec<Ubig> = (0..6).map(|_| Ubig::random_bits(&mut rng, 254)).collect();

        let (fb_out, fb_cost) = metered(|| {
            let fb = FixedBase::new(&ctx, &base, 256);
            fb.pow_batch(&exps)
        });
        let (ladder_out, ladder_cost) = metered(|| {
            exps.iter()
                .map(|e| ctx.modexp(&base, e))
                .collect::<Vec<_>>()
        });
        assert_eq!(fb_out, ladder_out);
        assert_eq!(fb_cost.fixed_base_builds, 1);
        assert_eq!(fb_cost.modexp, ladder_cost.modexp);
        assert!(
            fb_cost.mont_mul_steps < ladder_cost.mont_mul_steps,
            "table build + lookups ({}) must beat {} ladder steps",
            fb_cost.mont_mul_steps,
            ladder_cost.mont_mul_steps
        );
    }

    fn modulus_512() -> Ubig {
        let mut n = Ubig::random_bits(&mut rng(), 511) + (Ubig::one() << 511);
        if n.is_even() {
            n = n + Ubig::one();
        }
        n
    }

    #[test]
    fn an_epoch_long_exponent_is_one_comb_walk() {
        let mut rng = rng();
        let ctx = MontgomeryContext::new(&modulus_512()).unwrap();
        let base = Ubig::random_bits(&mut rng, 500);
        let fb = FixedBase::new(&ctx, &base, 1152);
        let bits = 64 * 256 + 128;
        let exp = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
        let columns = bits.div_ceil(TEETH);
        let columns = (columns + columns / HEADROOM) as u64;

        let (first, built) = metered(|| fb.pow(&exp));
        assert_eq!(first, ctx.modexp(&base, &exp));
        assert_eq!(built.fixed_base_builds, 1, "the comb is built on first use");
        let teeth_and_subsets = columns * (TEETH as u64 - 1) + (1 << TEETH) - 1 - TEETH as u64;
        assert!(built.mont_mul_steps <= teeth_and_subsets + 2 * columns);

        // Same length again, and one a randomizer shorter: table walks.
        for exp in [exp.clone(), &exp >> 128] {
            let (again, cost) = metered(|| fb.pow(&exp));
            assert_eq!(again, ctx.modexp(&base, &exp));
            assert_eq!(cost.fixed_base_builds, 0, "the comb is kept");
            assert!(
                cost.mont_mul_steps <= 2 * columns,
                "a squaring and a multiplication a column, {} > 2 x {columns}",
                cost.mont_mul_steps
            );
        }
    }

    #[test]
    fn a_comb_serves_only_exponents_near_its_own_length() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        let fb = FixedBase::new(&ctx, &base, 256);
        let mut builds = |bits: usize| {
            let exp = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
            let (value, cost) = metered(|| fb.pow(&exp));
            assert_eq!(value, ctx.modexp(&base, &exp), "bits={bits}");
            cost.fixed_base_builds
        };
        assert_eq!(builds(4000), 1);
        assert_eq!(builds(4100), 0, "inside the first comb's headroom");
        assert_eq!(builds(3400), 0, "the comb is under a quarter too long");
        assert_eq!(builds(8000), 1, "longer than any comb kept: its own");
        assert_eq!(builds(2000), 1, "the kept combs cost 2x and 4x this one's");
        assert_eq!(builds(4000), 0);
        assert_eq!(builds(200), 0, "in capacity: the radix table");
    }

    #[test]
    fn at_most_max_combs_are_kept_and_a_dropped_length_is_rebuilt() {
        let mut rng = rng();
        let n = (Ubig::one() << 89) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::from_u64(0xDEAD_BEEF);
        let fb = FixedBase::new(&ctx, &base, 89);
        let lengths: Vec<usize> = (0..MAX_COMBS + 2).map(|i| 300 << i).collect();
        for &bits in lengths.iter().chain(&lengths) {
            let exp = Ubig::random_bits(&mut rng, bits);
            assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp), "bits={bits}");
            assert!(fb.combs.lock().unwrap().len() <= MAX_COMBS);
        }
    }

    #[test]
    fn beyond_the_longest_comb_the_exponent_is_chunked_through_it() {
        let mut rng = rng();
        let n = (Ubig::one() << 89) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::from_u64(987_654_321);
        let fb = FixedBase::new(&ctx, &base, 89);
        for bits in [MAX_COMB_BITS + 1, 70_000, 3 * MAX_COMB_BITS + 17] {
            let exp = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
            let (value, cost) = metered(|| fb.pow(&exp));
            assert_eq!(value, ctx.modexp(&base, &exp), "bits={bits}");
            // The shift squarings stay; the multiplications are the comb's.
            let columns = MAX_COMB_BITS / TEETH + MAX_COMB_BITS / TEETH / HEADROOM;
            let chunks = bits.div_ceil(columns * TEETH);
            let build = cost.fixed_base_builds as usize * (columns * TEETH + (1 << TEETH));
            assert!(
                cost.mont_mul_steps as usize <= build + bits + chunks * columns + 1,
                "bits={bits}: {} steps",
                cost.mont_mul_steps
            );
        }
        assert_eq!(
            fb.combs.lock().unwrap().len(),
            1,
            "one comb serves them all"
        );
    }
}

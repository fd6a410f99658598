//! Fixed-base exponentiation on a two-dimensional Lim–Lee comb.
//!
//! Several DLA hot paths raise *one* base to many different exponents:
//! the accumulator generator `x₀` absorbs every deposit of a trail
//! (§4.1), trail verification re-derives `x₀^{∏eᵢ}`, batched
//! checkpoint verification evaluates `x₀^{Σ rⱼEⱼ}`, and every Schnorr
//! signature, key and check raises the group generator `g`. A
//! sliding-window ladder spends ~`bits` squarings per power because it
//! rebuilds the power-of-two chain of the base every time; for a base
//! known in advance that chain can be built **once**.
//!
//! [`FixedBase`] evaluates every power one way. The exponent is cut
//! into `TEETH = h` rows of `a` bits — the teeth `base^{2^{a·i}}` — and
//! every row into `v` blocks of `e = ⌈a/v⌉` columns (the last block may
//! be narrower). Block `j` of the comb holds the `2^h − 1` subset
//! products of the teeth raised to `2^{j·e}`, so a power walks the `e`
//! column heights from the top: one squaring a height and at most one
//! multiplication a block — **`e` squarings and at most `a`
//! multiplications for `a·h` bits**, where a ladder takes `~1.2 · a·h`.
//! A comb is `v · (2^h − 1)` residues whatever `a` is (130 KB at
//! `v = 8` on a 512-bit modulus). Its cost per power is set by its own
//! length, not the exponent's, so a comb is built for the exponent
//! length that asks (`1/HEADROOM` above it) and serves only exponents
//! it is at most `1/SLACK` too long for; at most `MAX_COMBS` are kept,
//! least recently used dropped first. [`FixedBase::new`] builds the
//! first one up front, for the length its caller names.
//!
//! Combs stop at `MAX_COMB_BITS`. A longer exponent is cut into chunks
//! one comb-length long and evaluated by Horner's rule, every chunk
//! through that comb: the chunks' multiplications ride the table, the
//! squarings that lift one chunk above the next — one a bit — do not.
//! Correctness never depends on what was built before: every route is
//! bit-identical to [`MontgomeryContext::modexp`].
//!
//! The walk is variable-time: which entries it reads and whether it
//! multiplies follow the exponent's bits, as the ladder's windows do.
//!
//! Cost accounting: each comb built records one
//! `CostKind::FixedBaseTableBuild` plus the `MontMulStep`s the build
//! actually performed; each power records `CostKind::ModExp` and its
//! own (much smaller) `MontMulStep` count, so `BENCH_cost_profile.json`
//! can show the amortisation explicitly.

use crate::montgomery::{Kernel, MontgomeryContext};
use crate::Ubig;
use std::sync::{Arc, Mutex};

/// Comb teeth `h`: an exponent of `a · h` bits is walked over `a`
/// columns.
const TEETH: usize = 8;

/// Non-empty tooth subsets: the residues one block holds.
const SUBSETS: usize = (1 << TEETH) - 1;

/// Most blocks `v` a comb is cut into.
const MAX_BLOCKS: usize = 8;

/// Fewest columns a block spans: a block costs 247 multiplications to
/// build and saves a power the squarings of the columns it takes off
/// the walk, so a short comb gets fewer blocks.
const MIN_BLOCK_COLUMNS: usize = 8;

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
    /// The base in Montgomery form: every comb's first tooth.
    mont: Vec<u64>,
    /// The combs built so far, most recently used last.
    combs: Mutex<Vec<Arc<Comb>>>,
}

/// Blocks `v` of a comb of `columns` columns.
fn blocks(columns: usize) -> usize {
    (columns / MIN_BLOCK_COLUMNS).clamp(1, MAX_BLOCKS)
}

/// A two-dimensional Lim–Lee comb over one base.
#[derive(Debug)]
struct Comb {
    /// Columns `a`: the comb spans exponents of up to `a · TEETH` bits.
    columns: usize,
    /// Blocks `v` each row of `a` columns is cut into.
    blocks: usize,
    /// Columns a block spans, `e = ⌈a/v⌉`: the squarings of one walk.
    width: usize,
    /// Limbs of one residue.
    limbs: usize,
    /// Block `j`'s entry for the non-empty tooth subset `m` is
    /// `∏_{i ∈ m} base^{2^{a·i + e·j}}` in Montgomery form, stored at
    /// residue `j · SUBSETS + m − 1`.
    table: Vec<u64>,
}

impl Comb {
    /// Builds the comb of `columns` columns over `base` (Montgomery
    /// form): `(TEETH − 1)·a + (v − 1)·e` squarings for the teeth of
    /// every block, one multiplication per subset of two or more.
    fn new(ctx: &MontgomeryContext, kern: &mut Kernel, base: &[u64], columns: usize) -> Self {
        let blocks = blocks(columns);
        let width = columns.div_ceil(blocks);
        debug_assert!((blocks - 1) * width < columns, "no block is empty");
        let limbs = base.len();
        let mut comb = Comb {
            columns,
            blocks,
            width,
            limbs,
            table: vec![0; blocks * SUBSETS * limbs],
        };
        let mut steps = 0u64;
        // The teeth, lowest first: `power = base^{2^height}`.
        let mut power = base.to_vec();
        let mut height = 0;
        for tooth in 0..TEETH {
            for block in 0..blocks {
                let target = tooth * columns + block * width;
                for _ in height..target {
                    kern.sqr_assign(ctx, &mut power);
                }
                steps += (target - height) as u64;
                height = target;
                comb.entry_mut(block, 1 << tooth).copy_from_slice(&power);
            }
        }
        // Every subset below its newest tooth is already there.
        let mut product = vec![0; limbs];
        for block in 0..blocks {
            for mask in (1usize..1 << TEETH).filter(|m| !m.is_power_of_two()) {
                let newest = 1 << (usize::BITS - 1 - mask.leading_zeros());
                product.copy_from_slice(comb.entry(block, mask ^ newest));
                kern.mul_assign(ctx, &mut product, comb.entry(block, newest));
                comb.entry_mut(block, mask).copy_from_slice(&product);
            }
            steps += (SUBSETS - TEETH) as u64;
        }
        dla_telemetry::record(dla_telemetry::CostKind::FixedBaseTableBuild, 1);
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
        comb
    }

    fn entry(&self, block: usize, mask: usize) -> &[u64] {
        let at = (block * SUBSETS + mask - 1) * self.limbs;
        &self.table[at..at + self.limbs]
    }

    fn entry_mut(&mut self, block: usize, mask: usize) -> &mut [u64] {
        let at = (block * SUBSETS + mask - 1) * self.limbs;
        &mut self.table[at..at + self.limbs]
    }

    /// `acc ← acc^{2^e} · base^x`, `x` the `columns · TEETH` bits of
    /// `exp` from bit `offset` up and `None` standing for one: a
    /// squaring a column height, from the top, and at most one
    /// multiplication a block at each.
    fn walk(
        &self,
        ctx: &MontgomeryContext,
        kern: &mut Kernel,
        acc: &mut Option<Vec<u64>>,
        exp: &Ubig,
        offset: usize,
        steps: &mut u64,
    ) {
        for height in (0..self.width).rev() {
            if let Some(a) = acc {
                kern.sqr_assign(ctx, a);
                *steps += 1;
            }
            for block in 0..self.blocks {
                let column = block * self.width + height;
                if column >= self.columns {
                    break; // the last block is narrower
                }
                let mask = (0..TEETH).fold(0usize, |mask, tooth| {
                    mask | usize::from(exp.bit(offset + tooth * self.columns + column)) << tooth
                });
                if mask != 0 {
                    mul_into(ctx, kern, acc, self.entry(block, mask), steps);
                }
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
    /// Prepares powers of `base` mod the modulus of `ctx`, building up
    /// front the comb for exponents of `bits` bits. Other lengths build
    /// their own comb on first use.
    #[must_use]
    pub fn new(ctx: &MontgomeryContext, base: &Ubig, bits: usize) -> Self {
        let mut kern = ctx.kernel();
        let mont = kern.to_mont(ctx, base);
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, 1);
        let columns = bits.div_ceil(TEETH).clamp(1, MAX_COMB_BITS / TEETH);
        let comb = Comb::new(ctx, &mut kern, &mont, columns);
        FixedBase {
            ctx: ctx.clone(),
            base: base.clone(),
            mont,
            combs: Mutex::new(vec![Arc::new(comb)]),
        }
    }

    /// The base the combs are built over.
    #[must_use]
    pub fn base(&self) -> &Ubig {
        &self.base
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

    /// Evaluates one exponent: one comb walk, or one a chunk, top chunk
    /// first, when the exponent outruns the longest comb.
    fn pow_inner(&self, exp: &Ubig, kern: &mut Kernel, steps: &mut u64) -> Ubig {
        let bits = exp.bit_len();
        let mut acc: Option<Vec<u64>> = None;
        if bits > 0 {
            let comb = self.comb_for(bits.div_ceil(TEETH).min(MAX_COMB_BITS / TEETH), kern);
            let span = comb.columns * TEETH;
            for chunk in (0..bits.div_ceil(span)).rev() {
                // Horner: the chunks above move up by one span. The
                // walk squares once a column height; the rest is paid
                // here.
                if let Some(a) = &mut acc {
                    for _ in comb.width..span {
                        kern.sqr_assign(&self.ctx, a);
                    }
                    *steps += (span - comb.width) as u64;
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
                Arc::new(Comb::new(
                    &self.ctx,
                    kern,
                    &self.mont,
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

    /// `(a, v, e)` of the comb built for `bits` with headroom.
    fn shape(bits: usize) -> (u64, u64, u64) {
        let columns = bits.div_ceil(TEETH);
        let columns = columns + columns / HEADROOM;
        let blocks = blocks(columns);
        (
            columns as u64,
            blocks as u64,
            columns.div_ceil(blocks) as u64,
        )
    }

    /// Steps to build an `(a, v, e)` comb: the teeth, then the subsets.
    fn build_steps((a, v, e): (u64, u64, u64)) -> u64 {
        (TEETH as u64 - 1) * a + (v - 1) * e + v * (SUBSETS - TEETH) as u64
    }

    #[test]
    fn pow_matches_modexp_on_the_comb_built_up_front() {
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
    fn pow_matches_modexp_on_combs_built_on_first_use() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        // Deliberately short: every exponent walks a comb of its own.
        let fb = FixedBase::new(&ctx, &base, 64);
        for exp_bits in [65usize, 200, 300, 1000] {
            let exp = Ubig::random_bits(&mut rng, exp_bits);
            assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp), "exp_bits={exp_bits}");
        }
    }

    #[test]
    fn a_short_last_block_and_every_block_count_match_modexp() {
        let mut rng = rng();
        let n = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        // 1 to 8 blocks, with `a` a multiple of `v` and not.
        for columns in [1usize, 7, 8, 9, 16, 17, 33, 63, 64, 65, 71, 100, 133] {
            let bits = columns * TEETH;
            let fb = FixedBase::new(&ctx, &base, bits);
            let comb = Arc::clone(&fb.combs.lock().unwrap()[0]);
            assert_eq!(comb.columns, columns);
            assert_eq!(comb.blocks, (columns / 8).clamp(1, 8));
            for len in [bits, bits - bits / 8, bits - 3] {
                let exp = Ubig::random_bits(&mut rng, len - 1) + (Ubig::one() << (len - 1));
                let (value, cost) = metered(|| fb.pow(&exp));
                assert_eq!(value, ctx.modexp(&base, &exp), "a={columns} len={len}");
                assert_eq!(cost.fixed_base_builds, 0, "a={columns} len={len}");
                assert!(
                    cost.mont_mul_steps <= (comb.width + columns + 1) as u64,
                    "a={columns} len={len}: {} > e + a + 1",
                    cost.mont_mul_steps
                );
            }
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
            "comb build + walks ({}) must beat {} ladder steps",
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
    fn a_deposit_long_exponent_walks_the_comb_built_up_front() {
        let mut rng = rng();
        let ctx = MontgomeryContext::new(&modulus_512()).unwrap();
        let base = Ubig::random_bits(&mut rng, 500);
        let (fb, built) = metered(|| FixedBase::new(&ctx, &base, 1152));
        let (a, v, e) = (144, 8, 18);
        assert_eq!(built.fixed_base_builds, 1);
        assert_eq!(built.mont_mul_steps, 1 + build_steps((a, v, e)));
        for bits in [1020, 1024, 1152] {
            let exp = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
            let (value, cost) = metered(|| fb.pow(&exp));
            assert_eq!(value, ctx.modexp(&base, &exp), "bits={bits}");
            assert_eq!(cost.fixed_base_builds, 0);
            assert!(
                cost.mont_mul_steps <= e + a + 1,
                "bits={bits}: {} > e + a + 1",
                cost.mont_mul_steps
            );
        }
    }

    #[test]
    fn an_epoch_long_exponent_is_one_comb_walk() {
        let mut rng = rng();
        let ctx = MontgomeryContext::new(&modulus_512()).unwrap();
        let base = Ubig::random_bits(&mut rng, 500);
        let fb = FixedBase::new(&ctx, &base, 1152);
        let bits = 64 * 256 + 128;
        let exp = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
        let (a, v, e) = shape(bits);
        assert_eq!(v, 8);

        let (first, built) = metered(|| fb.pow(&exp));
        assert_eq!(first, ctx.modexp(&base, &exp));
        assert_eq!(built.fixed_base_builds, 1, "the comb is built on first use");
        assert!(built.mont_mul_steps <= build_steps((a, v, e)) + e + a + 1);

        // Same length again, and one a randomizer shorter: table walks.
        for exp in [exp.clone(), &exp >> 128] {
            let (again, cost) = metered(|| fb.pow(&exp));
            assert_eq!(again, ctx.modexp(&base, &exp));
            assert_eq!(cost.fixed_base_builds, 0, "the comb is kept");
            assert!(
                cost.mont_mul_steps <= e + a + 1,
                "a squaring a column height and a multiplication a column, {} > {e} + {a} + 1",
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
        assert_eq!(builds(210), 0, "the comb built up front");
        assert_eq!(
            builds(200),
            1,
            "the up-front comb is over a quarter too long"
        );
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
        // Not 2^89 − 1: there 2 has order 88 modulo the group order, so
        // a Horner shift off by a multiple of 88 squarings (the
        // one-dimensional comb's `a` where the blocked one walks `e`:
        // 8 448 − 1 056) would go unseen.
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::from_u64(987_654_321);
        let fb = FixedBase::new(&ctx, &base, 89);
        let (a, v, e) = shape(MAX_COMB_BITS);
        let span = a * TEETH as u64;
        for bits in [MAX_COMB_BITS + 1, 70_000, 3 * MAX_COMB_BITS + 17] {
            let exp = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
            let (value, cost) = metered(|| fb.pow(&exp));
            assert_eq!(value, ctx.modexp(&base, &exp), "bits={bits}");
            // The shift squarings stay; the rest is a walk a chunk.
            let chunks = (bits as u64).div_ceil(span);
            let build = cost.fixed_base_builds * build_steps((a, v, e));
            let bound = build + (chunks - 1) * (span - e) + chunks * (e + a) + 1;
            assert!(
                cost.mont_mul_steps <= bound,
                "bits={bits}: {} > {bound} steps",
                cost.mont_mul_steps
            );
        }
        assert_eq!(
            fb.combs.lock().unwrap().len(),
            2,
            "one comb serves them all beside the one built up front"
        );
    }
}

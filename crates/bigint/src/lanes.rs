//! The 8-lane kernels: eight 256-bit residues at a time on AVX-512 —
//! the batch walk's Montgomery products on IFMA (`vpmadd52luq` /
//! `vpmadd52huq`), and the message encoding's Jacobi symbols.
//!
//! A batch walk applies one window plan to many bases (every ring relay
//! and decryption pass, `DESIGN.md` §11). The scalar kernel
//! ([`super::montgomery::FixedCtx`]) runs each Montgomery step as a
//! 4-limb CIOS in `u128` arithmetic; this one runs the same step for
//! eight bases at once, and each plan step for two lane groups at once:
//!
//! * **Radix 2⁵².** A residue is 5 limbs of 52 bits (`R = 2²⁶⁰`), and
//!   one `__m512i` holds one limb of eight bases. The 52×52-bit limb
//!   products land in 64-bit lanes with 12 bits of headroom, so the
//!   accumulators take every partial product unnormalised and carry
//!   once, at the end of a product.
//! * **Lazy reduction.** Operands and results live in `[0, 2n)`: for
//!   `a, b < 2n`, `(a·b + m·n) / R < 4n²/R + n < 2n` because
//!   `4n < 2²⁵⁸ < R`. No step compares or subtracts; the one
//!   conditional subtraction happens after the conversion out of
//!   Montgomery form, on the scalar words.
//! * **Shift-only conversion.** Radix 2⁶⁴ ↔ 2⁵² is bit slicing; the
//!   lane constants (`n`, `-n⁻¹ mod 2⁵²`, `2⁵²⁰ mod n`) are built once,
//!   in [`super::montgomery::MontgomeryContext::new`].
//! * **Two groups in flight.** A product is one long dependency chain;
//!   [`mont_mul_pair`] interleaves two groups' chains, so the IFMA
//!   units have independent work while one chain waits.
//!
//! [`jacobi_lanes`] runs `jacobi::symbol`'s binary step on eight
//! `[u64; 4]` numerators at once, one word of each per `__m512i`, and on
//! two such groups in flight; every per-lane choice is an AVX-512 mask,
//! and a lane whose symbol is known takes the next numerator its caller
//! hands it.
//!
//! A [`Lanes`] exists only where `is_x86_feature_detected!` reports
//! `avx512f` and `avx512ifma`, and [`jacobi_lanes`] runs only where it
//! reports `avx512f`, `avx512cd` (`vplzcntq`) and `avx512vbmi2`
//! (`vpshrdvq`) — those are the guards the `unsafe` blocks below name.
//! Elsewhere everything stays on the scalar kernels, which are also
//! these kernels' differential oracles (`tests/properties.rs`).

use std::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_cmplt_epu64_mask,
    _mm512_lzcnt_epi64, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_add_epi64,
    _mm512_mask_cmpeq_epi64_mask, _mm512_mask_mov_epi64, _mm512_mask_sub_epi64,
    _mm512_mask_ternarylogic_epi64, _mm512_mask_xor_epi64, _mm512_set1_epi64, _mm512_set_epi64,
    _mm512_setzero_si512, _mm512_shrdv_epi64, _mm512_srli_epi64, _mm512_srlv_epi64,
    _mm512_storeu_si512, _mm512_sub_epi64, _mm512_xor_si512,
};

use crate::jacobi::Feed;
use crate::montgomery::ExpOp;

/// Bases per lane group.
const LANES: usize = 8;

/// Limbs of a 256-bit residue in radix 2⁵².
const L: usize = 5;

const MASK52: u64 = (1 << 52) - 1;

/// One limb of eight residues per vector.
type Group = [__m512i; L];

/// The lane constants of one 4-limb modulus, built where the CPU has
/// AVX-512 IFMA and nowhere else.
#[derive(Clone, Debug)]
pub(crate) struct Lanes {
    /// The modulus, radix 2⁶⁴ (for the final conditional subtraction).
    n: [u64; 4],
    /// The modulus, radix 2⁵².
    n52: [u64; L],
    /// `-n⁻¹ mod 2⁵²`.
    k0: u64,
    /// `R² mod n = 2⁵²⁰ mod n`, radix 2⁵² (converts into lane
    /// Montgomery form).
    r2: [u64; L],
}

/// Whether this CPU runs the batch walk's lane kernel.
fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Whether this CPU runs the Jacobi lane kernel.
fn jacobi_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512cd")
        && is_x86_feature_detected!("avx512vbmi2")
}

/// Radix 2⁶⁴ → 2⁵² (the value must be below 2²⁶⁰; four words are).
fn split52(v: &[u64; 4]) -> [u64; L] {
    [
        v[0] & MASK52,
        (v[0] >> 52 | v[1] << 12) & MASK52,
        (v[1] >> 40 | v[2] << 24) & MASK52,
        (v[2] >> 28 | v[3] << 36) & MASK52,
        v[3] >> 16,
    ]
}

/// Radix 2⁵² → 2⁶⁴ for a normalised value below 2²⁵⁶.
fn join52(l: &[u64; L]) -> [u64; 4] {
    [
        l[0] | l[1] << 52,
        l[1] >> 12 | l[2] << 40,
        l[2] >> 24 | l[3] << 28,
        l[3] >> 36 | l[4] << 16,
    ]
}

/// `v mod n` for `v ≤ n` (one conditional subtraction).
fn reduce_once(v: [u64; 4], n: &[u64; 4]) -> [u64; 4] {
    if v.iter().rev().lt(n.iter().rev()) {
        return v;
    }
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (d1, o1) = v[i].overflowing_sub(n[i]);
        let (d2, o2) = d1.overflowing_sub(u64::from(borrow));
        out[i] = d2;
        borrow = o1 || o2;
    }
    out
}

impl Lanes {
    /// The lane constants for a 4-limb modulus `n` with
    /// `n0_inv = -n⁻¹ mod 2⁶⁴` and `r2_64 = 2⁵¹² mod n`, or `None` when
    /// the modulus is another width or this CPU lacks AVX-512 IFMA.
    pub(crate) fn new(n: &[u64], n0_inv: u64, r2_64: &[u64]) -> Option<Self> {
        let n64: [u64; 4] = n.try_into().ok()?;
        if !detected() {
            return None;
        }
        let modulus = crate::Ubig::from_limbs(n.to_vec());
        // 2⁵²⁰ mod n = (2⁵¹² mod n) · 2⁸ mod n: one short division.
        let r2 = &(crate::Ubig::from_limbs(r2_64.to_vec()) << 8) % &modulus;
        let mut r2_4 = [0u64; 4];
        r2_4[..r2.limbs().len()].copy_from_slice(r2.limbs());
        Some(Lanes {
            n: n64,
            n52: split52(&n64),
            // -n⁻¹ mod 2⁶⁴ reduced mod 2⁵² is -n⁻¹ mod 2⁵².
            k0: n0_inv & MASK52,
            r2: split52(&r2_4),
        })
    }

    /// Evaluates one window plan for a batch of bases, each already
    /// reduced below `n`, eight at a time: `⌈m/8⌉` zero-padded lane
    /// groups walk the plan in lockstep. Writes `base^exp mod n` per
    /// base to `out` and returns the step count the scalar batch walk
    /// reports for the same call (the padding lanes are not counted).
    pub(crate) fn run_plan_batch(
        &self,
        bases: &[[u64; 4]],
        plan: &[ExpOp],
        window: usize,
        out: &mut [[u64; 4]],
    ) -> u64 {
        // SAFETY: `self` exists, so `Lanes::new` saw `detected()` report
        // avx512f and avx512ifma on this CPU: the target features `walk`
        // is compiled for are present.
        unsafe { self.walk(bases, plan, window, out) }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn walk(&self, bases: &[[u64; 4]], plan: &[ExpOp], window: usize, out: &mut [[u64; 4]]) -> u64 {
        debug_assert!((1..=6).contains(&window));
        let m = bases.len() as u64;
        let c = Consts {
            n: self.n52.map(|v| splat(v)),
            k0: splat(self.k0),
        };
        let r2 = self.r2.map(|v| splat(v));
        let table_len = 1usize << (window - 1);
        let mut steps = 0u64;

        // Per-group odd-powers tables, flattened: group g's row starts
        // at g·table_len.
        let groups: Vec<Group> = bases.chunks(LANES).map(|chunk| transpose(chunk)).collect();
        let mut tables: Vec<Group> = Vec::with_capacity(groups.len() * table_len);
        for group in &groups {
            let base_m = mont_mul(group, &r2, &c);
            let row = tables.len();
            tables.push(base_m);
            if table_len > 1 {
                let sq = mont_mul(&base_m, &base_m, &c);
                for i in 1..table_len {
                    let next = mont_mul(&tables[row + i - 1], &sq, &c);
                    tables.push(next);
                }
            }
        }
        // to_mont, then the square and the table_len - 1 products.
        steps += m * (1 + if table_len > 1 { table_len as u64 } else { 0 });

        let mut accs: Vec<Group> = vec![[_mm512_setzero_si512(); L]; groups.len()];
        let mut started = false;
        for op in plan {
            match *op {
                ExpOp::Square => {
                    if started {
                        apply(&mut accs, |acc, _| *acc, &c);
                        steps += m;
                    }
                }
                ExpOp::Multiply(idx) => {
                    let entry = |g: usize| tables[g * table_len + idx];
                    if started {
                        apply(&mut accs, |_, g| entry(g), &c);
                        steps += m;
                    } else {
                        for (g, acc) in accs.iter_mut().enumerate() {
                            *acc = entry(g);
                        }
                    }
                    started = true;
                }
            }
        }
        debug_assert!(started || m == 0, "non-zero exponent always multiplies");

        // Out of Montgomery form: REDC(acc · 1) lies in [0, n], so one
        // conditional subtraction leaves it below n.
        let mut one = [_mm512_setzero_si512(); L];
        one[0] = splat(1);
        for (acc, chunk) in accs.iter().zip(out.chunks_mut(LANES)) {
            let limbs = mont_mul(acc, &one, &c).map(|v| store(v));
            for (lane, v) in chunk.iter_mut().enumerate() {
                *v = reduce_once(join52(&limbs.map(|l| l[lane])), &self.n);
            }
        }
        steps + m // redc
    }
}

/// The broadcast modulus limbs and `-n⁻¹ mod 2⁵²` of one walk.
struct Consts {
    n: [__m512i; L],
    k0: __m512i,
}

#[target_feature(enable = "avx512f")]
fn splat(v: u64) -> __m512i {
    _mm512_set1_epi64(v as i64)
}

/// Up to eight reduced bases, one limb of each per vector; missing
/// lanes are zero (and stay zero through every product).
#[target_feature(enable = "avx512f")]
fn transpose(chunk: &[[u64; 4]]) -> Group {
    let mut limbs = [[0u64; LANES]; L];
    for (lane, v) in chunk.iter().enumerate() {
        for (j, limb) in split52(v).into_iter().enumerate() {
            limbs[j][lane] = limb;
        }
    }
    limbs.map(|l| {
        _mm512_set_epi64(
            l[7] as i64,
            l[6] as i64,
            l[5] as i64,
            l[4] as i64,
            l[3] as i64,
            l[2] as i64,
            l[1] as i64,
            l[0] as i64,
        )
    })
}

/// The eight 64-bit lanes of a vector.
#[target_feature(enable = "avx512f")]
fn store(v: __m512i) -> [u64; LANES] {
    let mut out = [0u64; LANES];
    // SAFETY: `out` is 64 writable bytes and `storeu` takes any
    // alignment; avx512f is enabled on this function, which is only
    // reached from `Lanes::walk` and `jacobi_walk`, whose callers saw
    // `detected()` or `jacobi_detected()` report avx512f.
    unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), v) };
    out
}

/// `acc ← acc · operand(acc, g)` for every group `g`, two groups a
/// product ([`mont_mul_pair`]); a lone last group takes one of its own.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn apply(accs: &mut [Group], operand: impl Fn(&Group, usize) -> Group, c: &Consts) {
    let g = 2 * (accs.len() / 2);
    let mut pairs = accs.chunks_exact_mut(2);
    for (i, pair) in (&mut pairs).enumerate() {
        let [x, y] = pair else {
            unreachable!("chunks of two")
        };
        let (bx, by) = (operand(x, 2 * i), operand(y, 2 * i + 1));
        (*x, *y) = mont_mul_pair([x, y], [&bx, &by], c);
    }
    if let [last] = pairs.into_remainder() {
        *last = mont_mul(last, &operand(last, g), c);
    }
}

/// Eight Montgomery products `REDC(a·b) = a·b·2⁻²⁶⁰ mod n` at once, by
/// operand scanning in radix 2⁵². Inputs are normalised limbs of values
/// in `[0, 2n)`; so is the output.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mont_mul(a: &Group, b: &Group, c: &Consts) -> Group {
    let zero = _mm512_setzero_si512();
    let mut t = [zero; L + 1];
    for &ai in a {
        // t += a_i · b
        for j in 0..L {
            t[j] = _mm512_madd52lo_epu64(t[j], ai, b[j]);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, b[j]);
        }
        // m = t₀ · (-n⁻¹) mod 2⁵²; t += m · n clears t₀'s low 52 bits.
        let m = _mm512_madd52lo_epu64(zero, t[0], c.k0);
        for j in 0..L {
            t[j] = _mm512_madd52lo_epu64(t[j], m, c.n[j]);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, c.n[j]);
        }
        // t >>= 52: t₀'s carry moves into t₁, every limb one down.
        let carry = _mm512_srli_epi64::<52>(t[0]);
        t = [_mm512_add_epi64(t[1], carry), t[2], t[3], t[4], t[5], zero];
    }
    // Each limb took at most 20 partial products below 2⁵² (< 2⁵⁷):
    // one carry pass normalises them.
    let mask = _mm512_set1_epi64(MASK52 as i64);
    for j in 0..L - 1 {
        t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_srli_epi64::<52>(t[j]));
        t[j] = _mm512_and_si512(t[j], mask);
    }
    [t[0], t[1], t[2], t[3], t[4]]
}

/// [`mont_mul`] for two groups at once: the same operations, each of
/// the two dependency chains interleaved with the other's.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mont_mul_pair(a: [&Group; 2], b: [&Group; 2], c: &Consts) -> (Group, Group) {
    let zero = _mm512_setzero_si512();
    let mut t = [[zero; L + 1]; 2];
    for ai in (0..L).map(|i| [a[0][i], a[1][i]]) {
        for j in 0..L {
            for g in 0..2 {
                t[g][j] = _mm512_madd52lo_epu64(t[g][j], ai[g], b[g][j]);
                t[g][j + 1] = _mm512_madd52hi_epu64(t[g][j + 1], ai[g], b[g][j]);
            }
        }
        let m = [0, 1].map(|g| _mm512_madd52lo_epu64(zero, t[g][0], c.k0));
        for j in 0..L {
            for g in 0..2 {
                t[g][j] = _mm512_madd52lo_epu64(t[g][j], m[g], c.n[j]);
                t[g][j + 1] = _mm512_madd52hi_epu64(t[g][j + 1], m[g], c.n[j]);
            }
        }
        for t in &mut t {
            let carry = _mm512_srli_epi64::<52>(t[0]);
            *t = [_mm512_add_epi64(t[1], carry), t[2], t[3], t[4], t[5], zero];
        }
    }
    let mask = _mm512_set1_epi64(MASK52 as i64);
    for t in &mut t {
        for j in 0..L - 1 {
            t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_srli_epi64::<52>(t[j]));
            t[j] = _mm512_and_si512(t[j], mask);
        }
    }
    let [x, y] = t;
    (
        [x[0], x[1], x[2], x[3], x[4]],
        [y[0], y[1], y[2], y[3], y[4]],
    )
}

/// [`crate::jacobi::jacobi_stream`] sixteen numerators at a time, two
/// groups of eight whose steps are independent; returns
/// `false`, having called nothing, where the CPU lacks the lane
/// features.
pub(crate) fn jacobi_lanes(n: &[u64; 4], next: &mut Feed<'_>) -> bool {
    if !jacobi_detected() {
        return false;
    }
    // SAFETY: `jacobi_detected()` just reported avx512f, avx512cd and
    // avx512vbmi2 on this CPU: the target features `jacobi_walk` is
    // compiled for are present.
    unsafe { jacobi_walk(n, next) };
    true
}

/// One group of eight lanes of [`jacobi_walk`]: per lane the numerator `a` and
/// the modulus `m` it is reduced against (both shrink), bit 1 of `sign`
/// set while the symbol so far is -1, and the caller's tag.
struct JacobiState {
    a: [__m512i; 4],
    m: [__m512i; 4],
    sign: __m512i,
    tags: [usize; LANES],
    /// The lanes that hold a numerator whose symbol is not yet told.
    live: __mmask8,
    /// The live lanes whose numerator is not yet 0: the ones that step.
    act: __mmask8,
}

impl JacobiState {
    /// Starts `lane` on numerator `v` against `modulus`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(&mut self, lane: usize, (tag, v): (usize, [u64; 4]), modulus: &[__m512i; 4]) {
        let bit = 1 << lane;
        for i in 0..4 {
            self.a[i] = _mm512_mask_mov_epi64(self.a[i], bit, splat(v[i]));
            self.m[i] = _mm512_mask_mov_epi64(self.m[i], bit, modulus[i]);
        }
        self.sign = _mm512_mask_mov_epi64(self.sign, bit, _mm512_setzero_si512());
        self.tags[lane] = tag;
        self.live |= bit;
        if v != [0; 4] {
            self.act |= bit;
        }
    }
}

#[target_feature(enable = "avx512f,avx512cd,avx512vbmi2")]
fn jacobi_walk(n: &[u64; 4], next: &mut Feed<'_>) {
    debug_assert!(n[0] & 1 == 1, "odd modulus");
    let zero = _mm512_setzero_si512();
    let modulus = n.map(|w| splat(w));
    let mut groups = [0, 1].map(|_| JacobiState {
        a: [zero; 4],
        m: modulus,
        sign: zero,
        tags: [0; LANES],
        live: 0,
        act: 0,
    });
    'fill: for s in &mut groups {
        for lane in 0..LANES {
            let Some(first) = next(None) else { break 'fill };
            s.load(lane, first, &modulus);
        }
    }
    while groups.iter().any(|s| s.live != 0) {
        for s in &mut groups {
            let finished = s.live & !s.act;
            if finished != 0 {
                s.tell(finished, next, &modulus);
            }
        }
        for s in &mut groups {
            let done = jacobi_step(&mut s.a, &mut s.m, &mut s.sign, s.act);
            s.act &= !done;
        }
    }
}

impl JacobiState {
    /// Tells the symbols of the `finished` lanes (a = 0: the sign if the
    /// modulus reached 1, gcd 1, else 0) and loads what `next` hands
    /// out in their place.
    #[target_feature(enable = "avx512f")]
    fn tell(&mut self, finished: __mmask8, next: &mut Feed<'_>, modulus: &[__m512i; 4]) {
        let (ms, signs) = (self.m.map(|v| store(v)), store(self.sign));
        for lane in (0..LANES).filter(|&lane| finished >> lane & 1 == 1) {
            let unit = ms[0][lane] == 1 && (1..4).all(|i| ms[i][lane] == 0);
            let symbol = match (unit, signs[lane] & 2) {
                (false, _) => 0,
                (true, 0) => 1,
                (true, _) => -1,
            };
            self.live &= !(1 << lane);
            if let Some(following) = next(Some((self.tags[lane], symbol))) {
                self.load(lane, following, modulus);
            }
        }
    }
}

/// One step of `jacobi::descend` on the lanes of `act` (each with
/// a ≠ 0, m odd): strip a's twos, flipping the sign by `(2/m)` for each,
/// then `a ← |a − m|`, and on a borrow `m ← a` with the reciprocity
/// flip when both are ≡ 3 (mod 4). Returns the lanes whose `a` reached
/// 0. Lanes outside `act` keep their modulus and sign; their `a` is
/// not read again before a numerator is loaded there.
#[inline]
#[target_feature(enable = "avx512f,avx512cd,avx512vbmi2")]
fn jacobi_step(
    a: &mut [__m512i; 4],
    m: &mut [__m512i; 4],
    sign: &mut __m512i,
    act: __mmask8,
) -> __mmask8 {
    let (zero, one) = (_mm512_setzero_si512(), splat(1));
    // A lane whose low word is zero moves a whole word down: 64 twos,
    // an even count, leave the sign alone.
    loop {
        let z = _mm512_mask_cmpeq_epi64_mask(act, a[0], zero);
        if z == 0 {
            break;
        }
        a[0] = _mm512_mask_mov_epi64(a[0], z, a[1]);
        a[1] = _mm512_mask_mov_epi64(a[1], z, a[2]);
        a[2] = _mm512_mask_mov_epi64(a[2], z, a[3]);
        a[3] = _mm512_mask_mov_epi64(a[3], z, zero);
    }
    // The low word's trailing zeros: 63 − lzcnt of its lowest set bit.
    let low = _mm512_and_si512(a[0], _mm512_sub_epi64(zero, a[0]));
    let tz = _mm512_sub_epi64(splat(63), _mm512_lzcnt_epi64(low));
    for i in 0..3 {
        a[i] = _mm512_shrdv_epi64(a[i], a[i + 1], tz);
    }
    a[3] = _mm512_srlv_epi64(a[3], tz);
    // Flips gather in bit 1 (ternary 0x78: sign ^ (x & y)). (2/m) is -1
    // exactly when m ≡ 3 or 5 (mod 8): bits 1 and 2 of m differ.
    let m0 = m[0];
    let two = _mm512_xor_si512(m0, _mm512_srli_epi64::<1>(m0));
    let odd_twos = _mm512_add_epi64(tz, tz);
    *sign = _mm512_mask_ternarylogic_epi64::<0x78>(*sign, act, odd_twos, two);
    // d = a − m. The borrow out of a word: a borrow in and equal words,
    // or a word below.
    let mut borrow = [0; 5];
    for i in 0..4 {
        let below = _mm512_cmplt_epu64_mask(a[i], m[i]);
        borrow[i + 1] = below | _mm512_mask_cmpeq_epi64_mask(borrow[i], a[i], m[i]);
    }
    let d: [__m512i; 4] = std::array::from_fn(|i| {
        let diff = _mm512_sub_epi64(a[i], m[i]);
        _mm512_mask_sub_epi64(diff, borrow[i], diff, one)
    });
    // On a borrow a < m: reciprocity flips when both are ≡ 3 (mod 4),
    // m ← a, and a ← −d = !d + 1, the 1 carried up while d's lower
    // words are 0.
    let swap = borrow[4] & act;
    *sign = _mm512_mask_ternarylogic_epi64::<0x78>(*sign, swap, a[0], m0);
    let mut low_zero: __mmask8 = !0;
    for i in 0..4 {
        m[i] = _mm512_mask_mov_epi64(m[i], swap, a[i]);
        let flipped = _mm512_mask_xor_epi64(d[i], swap, d[i], splat(u64::MAX));
        a[i] = _mm512_mask_add_epi64(flipped, low_zero & swap, flipped, one);
        low_zero = _mm512_mask_cmpeq_epi64_mask(low_zero, d[i], zero);
    }
    low_zero & act
}

//! The 8-lane Montgomery kernel: eight 256-bit residues at a time on
//! AVX-512 IFMA (`vpmadd52luq` / `vpmadd52huq`).
//!
//! A batch walk applies one window plan to many bases (every ring relay
//! and decryption pass, `DESIGN.md` §11). The scalar kernel
//! ([`super::montgomery::FixedCtx`]) runs each Montgomery step as a
//! 4-limb CIOS in `u128` arithmetic; this one runs the same step for
//! eight bases at once:
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
//!
//! A [`Lanes`] exists only where `is_x86_feature_detected!` reported
//! `avx512f` and `avx512ifma` when it was built — that is the guard
//! every `unsafe` block below names. Elsewhere the context has none and
//! every batch stays on the scalar kernel, which is also this kernel's
//! differential oracle (`tests/properties.rs`).

use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
    _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_srli_epi64,
    _mm512_storeu_si512,
};

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

/// Whether this CPU runs the lane kernel.
fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
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
                        for acc in &mut accs {
                            *acc = mont_mul(acc, acc, &c);
                        }
                        steps += m;
                    }
                }
                ExpOp::Multiply(idx) => {
                    for (g, acc) in accs.iter_mut().enumerate() {
                        let entry = &tables[g * table_len + idx];
                        *acc = if started {
                            mont_mul(acc, entry, &c)
                        } else {
                            *entry
                        };
                    }
                    if started {
                        steps += m;
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
    // reached from `Lanes::walk`, whose caller holds a `Lanes` (built
    // after `detected()` reported avx512f and avx512ifma).
    unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), v) };
    out
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

//! Montgomery modular arithmetic.
//!
//! Every DLA protocol bottoms out in modular exponentiation over a
//! fixed odd modulus (the safe prime `p` or the RSA modulus `n`), so
//! exponentiation cost is the system's CPU budget. Montgomery REDC
//! replaces the per-step division of schoolbook reduction with two
//! multiplications and a shift, and this module layers three further
//! optimisations on top (see `DESIGN.md` §11):
//!
//! * **Scratch-buffer CIOS** — every multiplication step of an
//!   exponentiation runs through one reusable `Scratch` workspace,
//!   so a 256-bit [`MontgomeryContext::modexp`] performs no per-step
//!   heap allocations (the old path allocated one vector per
//!   `mont_mul`, ~380 for a 256-bit exponent).
//! * **Dedicated squaring** — `mont_sqr_assign` exploits the symmetry
//!   of `a·a` (half the limb products of a general multiply followed
//!   by one REDC pass); ~80 % of exponentiation steps are squarings.
//! * **Sliding-window exponentiation** — a 4–5-bit window with an
//!   odd-powers table cuts the number of general multiplies from
//!   ~`bits/2` to ~`bits/(w+1)`. One walk evaluates it: the batch walk
//!   (`FixedCtx::run_plan_batch` on a 4- or 8-limb modulus, the generic
//!   slice kernel elsewhere), and a single [`MontgomeryContext::modexp`]
//!   is a batch of one base. The generic windowed path
//!   ([`MontgomeryContext::modexp_generic`]), the bit-at-a-time
//!   [`MontgomeryContext::modexp_binary`] and the division-based
//!   [`crate::modular::modexp_schoolbook`] stay as differential-test
//!   oracles.
//!
//! [`crate::modular::modexp`] uses a [`MontgomeryContext`]
//! automatically whenever the modulus is odd and large enough to
//! benefit; the schoolbook path remains for even moduli.
//!
//! The production rung is timed by the `benchmark/` package's traced
//! pass (`bigint.modexp_256_us`, `bigint.modexp_512_us`,
//! `bigint.modmul_256_ns`); the slower rungs are oracles, checked for
//! equality and never timed.
//!
//! Real work is also *accounted*: besides the per-call
//! `CostKind::ModExp` record, every exponentiation reports its
//! multiplication/squaring step count as `CostKind::MontMulStep`, so
//! telemetry can distinguish a 3-bit from a 512-bit exponentiation.

#[cfg(target_arch = "x86_64")]
use crate::lanes::Lanes;
use crate::Ubig;

/// Precomputed per-modulus state for Montgomery reduction.
#[derive(Clone, Debug)]
pub struct MontgomeryContext {
    /// The modulus limbs, little-endian, length `k`.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n` where `R = 2^{64k}` (converts into Montgomery form).
    r2: Vec<u64>,
    /// `1` in Montgomery form (`R mod n`).
    one_mont: Vec<u64>,
    /// The 8-lane kernel's constants: present for a 4-limb modulus on
    /// a CPU with AVX-512 IFMA, absent everywhere else.
    #[cfg(target_arch = "x86_64")]
    lanes: Option<Lanes>,
}

/// The smallest batch the lane kernel takes: eight lanes cost the same
/// however many are filled, and one base runs below the scalar
/// kernel's speed, five well above it (EXPERIMENTS P35).
const LANE_MIN_BATCH: usize = 4;

/// Reusable workspace for a run of Montgomery operations: one CIOS
/// accumulator and one double-width squaring buffer. Thread one
/// `Scratch` through a whole exponentiation (or a whole batch) and no
/// step allocates.
pub(crate) struct Scratch {
    /// CIOS accumulator, `k + 2` limbs.
    t: Vec<u64>,
    /// Double-width product buffer for squaring, `2k + 1` limbs.
    wide: Vec<u64>,
}

/// One step of a precomputed window plan: the sequence of squarings
/// and odd-power multiplications that evaluates a fixed exponent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExpOp {
    /// `acc ← acc²`.
    Square,
    /// `acc ← acc · base^(2i+1)` (index into the odd-powers table).
    Multiply(usize),
}

/// Window width for a given exponent size: wide enough that the
/// odd-powers table pays for itself, never wider than 5 bits.
pub(crate) fn window_width(exp_bits: usize) -> usize {
    match exp_bits {
        0..=24 => 1,
        25..=80 => 3,
        81..=240 => 4,
        _ => 5,
    }
}

/// Decomposes `exp` into a left-to-right sliding-window plan with
/// `w`-bit windows anchored on odd values. Depends only on the
/// exponent, so one plan is shared across a whole batch.
pub(crate) fn window_plan(exp: &Ubig, w: usize) -> Vec<ExpOp> {
    let bits = exp.bit_len();
    let mut ops = Vec::with_capacity(bits + bits / w.max(1) + 1);
    let mut i = bits as isize - 1;
    while i >= 0 {
        if !exp.bit(i as usize) {
            ops.push(ExpOp::Square);
            i -= 1;
            continue;
        }
        // Longest window ending at an odd (set) low bit.
        let mut l = (i - (w as isize - 1)).max(0);
        while !exp.bit(l as usize) {
            l += 1;
        }
        for _ in l..=i {
            ops.push(ExpOp::Square);
        }
        let mut val = 0u64;
        for b in (l..=i).rev() {
            val = (val << 1) | u64::from(exp.bit(b as usize));
        }
        debug_assert_eq!(val & 1, 1, "window anchored on a set bit");
        ops.push(ExpOp::Multiply(((val - 1) / 2) as usize));
        i = l - 1;
    }
    ops
}

/// The fixed-width Montgomery kernel: the same CIOS/REDC arithmetic as
/// the generic slice path, monomorphised for a compile-time limb count
/// `K`. Every temporary lives in a stack array whose length the
/// compiler knows, so the inner loops unroll completely and carry no
/// bounds checks — on the 4-limb (256-bit) protocol moduli this is
/// worth ~2–3× over the `Vec`-indexed generic path. Its one window walk
/// is [`FixedCtx::run_plan_batch`], for one base or many. The generic
/// path is retained verbatim as the differential oracle
/// ([`MontgomeryContext::modexp_generic`]) and as the fallback for limb
/// counts the kernel is not built for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FixedCtx<const K: usize> {
    n: [u64; K],
    n0_inv: u64,
    r2: [u64; K],
}

impl<const K: usize> FixedCtx<K> {
    /// `a >= b` on fixed-width operands.
    #[inline]
    fn geq(a: &[u64; K], b: &[u64; K]) -> bool {
        for i in (0..K).rev() {
            match a[i].cmp(&b[i]) {
                std::cmp::Ordering::Greater => return true,
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Equal => {}
            }
        }
        true
    }

    /// `a -= b` with `hi` as the carried limb above `a` (post-REDC
    /// values are `< 2n`, so the borrow always cancels against `hi`).
    #[inline]
    fn sub_wide(a: &mut [u64; K], b: &[u64; K], hi: u64) {
        let mut borrow = 0u64;
        for i in 0..K {
            let (d1, o1) = a[i].overflowing_sub(b[i]);
            let (d2, o2) = d1.overflowing_sub(borrow);
            a[i] = d2;
            borrow = u64::from(o1) + u64::from(o2);
        }
        debug_assert_eq!(borrow, hi, "borrow must cancel the carried limb");
    }

    /// Montgomery product `REDC(a · b)` via CIOS, entirely in
    /// registers/stack.
    #[inline]
    pub(crate) fn mont_mul(&self, a: &[u64; K], b: &[u64; K]) -> [u64; K] {
        let mut t = [0u64; K];
        let mut t_k = 0u64;
        let mut t_k1: u64;
        for &a_limb in a {
            let ai = u128::from(a_limb);
            let mut carry: u128 = 0;
            for j in 0..K {
                let cur = u128::from(t[j]) + ai * u128::from(b[j]) + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t_k) + carry;
            t_k = cur as u64;
            t_k1 = (cur >> 64) as u64;

            let m = u128::from(t[0].wrapping_mul(self.n0_inv));
            let mut carry: u128 = (u128::from(t[0]) + m * u128::from(self.n[0])) >> 64;
            for j in 1..K {
                let cur = u128::from(t[j]) + m * u128::from(self.n[j]) + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t_k) + carry;
            t[K - 1] = cur as u64;
            t_k = t_k1 + ((cur >> 64) as u64);
        }
        if t_k != 0 || Self::geq(&t, &self.n) {
            Self::sub_wide(&mut t, &self.n, t_k);
        }
        t
    }

    /// Montgomery squaring `REDC(a²)`. Measured on the 4/8-limb
    /// protocol moduli, the fused single-pass CIOS multiply beats a
    /// dedicated half-products squaring (whose doubling pass and
    /// separated REDC cost two extra serial sweeps over the
    /// double-width buffer), so squaring simply reuses [`Self::mont_mul`].
    #[inline]
    pub(crate) fn mont_sqr(&self, a: &[u64; K]) -> [u64; K] {
        self.mont_mul(a, a)
    }

    /// Conversion out of Montgomery form: `REDC(a)`.
    #[inline]
    pub(crate) fn redc(&self, a: &[u64; K]) -> [u64; K] {
        let one = {
            let mut v = [0u64; K];
            v[0] = 1;
            v
        };
        self.mont_mul(a, &one)
    }

    /// Conversion into Montgomery form: `REDC(a · R²) = a·R mod n`.
    #[inline]
    #[allow(clippy::wrong_self_convention)]
    pub(crate) fn to_mont(&self, a: &[u64; K]) -> [u64; K] {
        self.mont_mul(a, &self.r2)
    }

    /// Snapshots a [`MontgomeryContext`] into fixed-width form, or
    /// `None` when the modulus is not exactly `K` limbs wide.
    pub(crate) fn from_ctx(ctx: &MontgomeryContext) -> Option<Self> {
        if ctx.n.len() != K {
            return None;
        }
        let mut n = [0u64; K];
        n.copy_from_slice(&ctx.n);
        let mut r2 = [0u64; K];
        r2.copy_from_slice(&ctx.r2);
        Some(FixedCtx {
            n,
            n0_inv: ctx.n0_inv,
            r2,
        })
    }

    /// Evaluates one window plan for a whole batch of bases
    /// *vertically*: every step of the plan is applied to all
    /// accumulators before advancing. Single-stream Montgomery
    /// multiplication is latency-bound on its carry chain; marching
    /// independent accumulators in lockstep gives the out-of-order core
    /// independent chains to overlap, which is worth another ~1.5× on
    /// top of the fixed-width win. This is the one window walk on a 4-
    /// or 8-limb modulus: [`MontgomeryContext::modexp`] is a batch of
    /// one, and the step count is per base, so `n` bases count exactly
    /// what `n` single powers would. Each base must be below `n`; the
    /// powers are written to `out`, one per base.
    pub(crate) fn run_plan_batch(
        &self,
        bases: &[[u64; K]],
        plan: &[ExpOp],
        window: usize,
        out: &mut [[u64; K]],
    ) -> u64 {
        debug_assert!((1..=6).contains(&window));
        let n = bases.len();
        let table_len = 1usize << (window - 1);
        let mut steps = 0u64;

        // Per-base odd-powers tables, flattened: row b starts at
        // b·table_len.
        let mut tables: Vec<[u64; K]> = Vec::with_capacity(n * table_len);
        for base in bases {
            let base_m = self.to_mont(base);
            steps += 1; // to_mont
            let row = tables.len();
            tables.push(base_m);
            if table_len > 1 {
                let sq = self.mont_sqr(&base_m);
                steps += 1;
                for i in 1..table_len {
                    let next = self.mont_mul(&tables[row + i - 1], &sq);
                    steps += 1;
                    tables.push(next);
                }
            }
        }

        // The accumulators are `out` itself.
        let mut started = false;
        for op in plan {
            match *op {
                ExpOp::Square => {
                    if started {
                        for acc in out.iter_mut() {
                            *acc = self.mont_sqr(acc);
                        }
                        steps += n as u64;
                    }
                }
                ExpOp::Multiply(idx) => {
                    for (b, acc) in out.iter_mut().enumerate() {
                        let entry = &tables[b * table_len + idx];
                        *acc = if started {
                            self.mont_mul(acc, entry)
                        } else {
                            *entry
                        };
                    }
                    if started {
                        steps += n as u64;
                    }
                    started = true;
                }
            }
        }
        debug_assert!(started || n == 0, "non-zero exponent always multiplies");
        for acc in out.iter_mut() {
            *acc = self.redc(acc);
        }
        steps + n as u64 // redc
    }
}

/// Uniform dispatch handle over the Montgomery kernels, for callers
/// that stream limb-slice operands of any modulus width (the
/// fixed-base tables and the multi-exponentiation kernel). Operands
/// are `k`-limb slices in Montgomery form; each operation routes to
/// the fixed-width kernel when one exists for this modulus, falling
/// back to the generic scratch path otherwise.
pub(crate) struct Kernel {
    f4: Option<FixedCtx<4>>,
    f8: Option<FixedCtx<8>>,
    s: Scratch,
}

impl Kernel {
    /// `a ← REDC(a · b)`.
    pub(crate) fn mul_assign(&mut self, ctx: &MontgomeryContext, a: &mut [u64], b: &[u64]) {
        if let Some(f) = &self.f4 {
            let mut aa = [0u64; 4];
            aa.copy_from_slice(a);
            let mut bb = [0u64; 4];
            bb.copy_from_slice(b);
            a.copy_from_slice(&f.mont_mul(&aa, &bb));
        } else if let Some(f) = &self.f8 {
            let mut aa = [0u64; 8];
            aa.copy_from_slice(a);
            let mut bb = [0u64; 8];
            bb.copy_from_slice(b);
            a.copy_from_slice(&f.mont_mul(&aa, &bb));
        } else {
            ctx.mont_mul_assign(a, b, &mut self.s);
        }
    }

    /// `a ← REDC(a²)`.
    pub(crate) fn sqr_assign(&mut self, ctx: &MontgomeryContext, a: &mut [u64]) {
        if let Some(f) = &self.f4 {
            let mut aa = [0u64; 4];
            aa.copy_from_slice(a);
            a.copy_from_slice(&f.mont_sqr(&aa));
        } else if let Some(f) = &self.f8 {
            let mut aa = [0u64; 8];
            aa.copy_from_slice(a);
            a.copy_from_slice(&f.mont_sqr(&aa));
        } else {
            ctx.mont_sqr_assign(a, &mut self.s);
        }
    }

    /// `a ← REDC(a)` (conversion out of Montgomery form).
    pub(crate) fn redc_assign(&mut self, ctx: &MontgomeryContext, a: &mut [u64]) {
        ctx.redc_assign(a, &mut self.s);
    }

    /// Converts `v` into a `k`-limb Montgomery-form operand.
    #[allow(clippy::wrong_self_convention)]
    pub(crate) fn to_mont(&mut self, ctx: &MontgomeryContext, v: &Ubig) -> Vec<u64> {
        let mut out = pad(&(v % &ctx.modulus()), ctx.k());
        let r2 = ctx.r2.clone();
        self.mul_assign(ctx, &mut out, &r2);
        out
    }
}

impl MontgomeryContext {
    /// Builds a context for an odd modulus `≥ 3`; returns `None`
    /// otherwise (Montgomery reduction requires `gcd(n, 2⁶⁴) = 1`).
    #[must_use]
    pub fn new(modulus: &Ubig) -> Option<Self> {
        if modulus.is_even() || *modulus < Ubig::from_u64(3) {
            return None;
        }
        let n = modulus.limbs().to_vec();
        let k = n.len();

        // -n[0]^{-1} mod 2^64 by Newton–Hensel lifting (5 iterations
        // double the valid bits each time: 5 -> 10 -> 20 -> 40 -> 80).
        let mut inv: u64 = n[0]; // valid to 5 bits already (odd n[0])
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();

        // R mod n and R^2 mod n via Ubig arithmetic (setup-time only).
        let r = Ubig::one() << (64 * k);
        let one_mont = pad(&(&r % modulus), k);
        let r2 = pad(&(&(&r * &r) % modulus), k);

        Some(MontgomeryContext {
            #[cfg(target_arch = "x86_64")]
            lanes: Lanes::new(&n, n0_inv, &r2),
            n,
            n0_inv,
            r2,
            one_mont,
        })
    }

    /// Number of limbs `k`.
    pub(crate) fn k(&self) -> usize {
        self.n.len()
    }

    /// The modulus this context reduces by.
    pub(crate) fn modulus(&self) -> Ubig {
        Ubig::from_limbs(self.n.clone())
    }

    /// A dispatch handle for streaming Montgomery operations (see
    /// [`Kernel`]).
    pub(crate) fn kernel(&self) -> Kernel {
        Kernel {
            f4: FixedCtx::from_ctx(self),
            f8: FixedCtx::from_ctx(self),
            s: self.scratch(),
        }
    }

    fn scratch(&self) -> Scratch {
        let k = self.k();
        Scratch {
            t: vec![0u64; k + 2],
            wide: vec![0u64; 2 * k + 1],
        }
    }

    /// Montgomery product `a ← REDC(a · b) = a·b·R⁻¹ mod n` via CIOS
    /// (coarsely integrated operand scanning) through the scratch
    /// accumulator — no allocation.
    fn mont_mul_assign(&self, a: &mut [u64], b: &[u64], s: &mut Scratch) {
        let k = self.k();
        let t = &mut s.t;
        t.iter_mut().for_each(|x| *x = 0);
        for &ai in a.iter() {
            // t += ai * b
            let mut carry: u128 = 0;
            for j in 0..k {
                let cur = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t[k]) + carry;
            t[k] = cur as u64;
            t[k + 1] = (cur >> 64) as u64;

            // m = t[0] * n0_inv mod 2^64 ; t += m * n ; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry: u128 = (u128::from(t[0]) + u128::from(m) * u128::from(self.n[0])) >> 64;
            for j in 1..k {
                let cur = u128::from(t[j]) + u128::from(m) * u128::from(self.n[j]) + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t[k]) + carry;
            t[k - 1] = cur as u64;
            t[k] = t[k + 1] + ((cur >> 64) as u64);
            t[k + 1] = 0;
        }

        // Conditional subtraction: t may be in [0, 2n).
        if t[k] != 0 || ge(&t[..k], &self.n) {
            sub_in_place(&mut t[..=k], &self.n);
        }
        a.copy_from_slice(&t[..k]);
    }

    /// Dedicated Montgomery squaring `a ← REDC(a²)`: the symmetric
    /// half of the limb products is computed once and doubled, then a
    /// single separated REDC pass reduces the double-width product.
    fn mont_sqr_assign(&self, a: &mut [u64], s: &mut Scratch) {
        let k = self.k();
        let w = &mut s.wide;
        w.iter_mut().for_each(|x| *x = 0);

        // Off-diagonal products a[i]·a[j] for i < j.
        for i in 0..k {
            let mut carry: u128 = 0;
            for j in (i + 1)..k {
                let cur = u128::from(w[i + j]) + u128::from(a[i]) * u128::from(a[j]) + carry;
                w[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Slot i + k is untouched by earlier iterations.
            w[i + k] = carry as u64;
        }

        // Double the off-diagonal sum and add the diagonal squares.
        let mut carry: u128 = 0;
        for slot in 0..2 * k {
            let mut cur = (u128::from(w[slot]) << 1) + carry;
            let d = u128::from(a[slot / 2]) * u128::from(a[slot / 2]);
            cur += if slot % 2 == 0 {
                d & u128::from(u64::MAX)
            } else {
                d >> 64
            };
            w[slot] = cur as u64;
            carry = cur >> 64;
        }
        debug_assert_eq!(carry, 0, "a² fits in 2k limbs for a < n");

        // Separated REDC of the 2k-limb product.
        w[2 * k] = 0;
        for i in 0..k {
            let m = w[i].wrapping_mul(self.n0_inv);
            let mut carry: u128 = 0;
            for j in 0..k {
                let cur = u128::from(w[i + j]) + u128::from(m) * u128::from(self.n[j]) + carry;
                w[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 && idx <= 2 * k {
                let cur = u128::from(w[idx]) + carry;
                w[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
            debug_assert_eq!(carry, 0, "REDC carry escapes the buffer");
        }
        if w[2 * k] != 0 || ge(&w[k..2 * k], &self.n) {
            sub_in_place(&mut w[k..=2 * k], &self.n);
        }
        a.copy_from_slice(&s.wide[k..2 * k]);
    }

    /// Montgomery reduction of a `k`-limb value: `a ← a·R⁻¹ mod n`
    /// (conversion out of Montgomery form; a half-cost `mont_mul` by
    /// one).
    fn redc_assign(&self, a: &mut [u64], s: &mut Scratch) {
        let k = self.k();
        let w = &mut s.wide;
        w.iter_mut().for_each(|x| *x = 0);
        w[..k].copy_from_slice(a);
        for i in 0..k {
            let m = w[i].wrapping_mul(self.n0_inv);
            let mut carry: u128 = 0;
            for j in 0..k {
                let cur = u128::from(w[i + j]) + u128::from(m) * u128::from(self.n[j]) + carry;
                w[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 && idx <= 2 * k {
                let cur = u128::from(w[idx]) + carry;
                w[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        if w[2 * k] != 0 || ge(&w[k..2 * k], &self.n) {
            sub_in_place(&mut w[k..=2 * k], &self.n);
        }
        a.copy_from_slice(&s.wide[k..2 * k]);
    }

    /// Montgomery product: `REDC(a · b) = a·b·R⁻¹ mod n` (allocating
    /// convenience used by setup paths and the binary baseline).
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut s = self.scratch();
        let mut out = a.to_vec();
        self.mont_mul_assign(&mut out, b, &mut s);
        out
    }

    /// Converts into Montgomery form: `a·R mod n`.
    fn to_mont(&self, a: &Ubig) -> Vec<u64> {
        let reduced = a % &self.modulus();
        self.mont_mul(&pad(&reduced, self.k()), &self.r2)
    }

    /// `base^exp mod n` by sliding-window exponentiation in Montgomery
    /// form — the default, fastest path: the batch walk with one base,
    /// always on the scalar kernel (one base runs the lane kernel below
    /// scalar speed). Window width adapts to the exponent size (up to 5
    /// bits; see `window_width`), and 4- and 8-limb moduli (the
    /// 256/512-bit protocol primes) walk the fully unrolled `FixedCtx`
    /// kernel.
    #[must_use]
    pub fn modexp(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let mut out = self.batch(std::slice::from_ref(base), exp, false);
        out.pop().expect("one base gives one power")
    }

    /// `base^exp mod n` on the generic slice kernel regardless of limb
    /// count — the PR 4 windowed path, retained verbatim as the
    /// differential oracle for the fixed-width kernels.
    #[must_use]
    pub fn modexp_generic(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.modexp_windowed(base, exp, window_width(exp.bit_len()))
    }

    /// `base^exp mod n` with an explicit window width in `1..=6` —
    /// exposed for differential tests; prefer
    /// [`Self::modexp`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is outside `1..=6`.
    #[must_use]
    pub fn modexp_windowed(&self, base: &Ubig, exp: &Ubig, window: usize) -> Ubig {
        assert!((1..=6).contains(&window), "window width must be in 1..=6");
        dla_telemetry::record(dla_telemetry::CostKind::ModExp, 1);
        if exp.is_zero() {
            return Ubig::one() % &self.modulus();
        }
        let plan = window_plan(exp, window);
        let mut s = self.scratch();
        let (mut base_words, mut out) = (vec![0u64; self.k()], vec![0u64; self.k()]);
        self.load(base, &mut base_words);
        let steps = self.run_plan(&base_words, &plan, window, &mut s, &mut out);
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
        Ubig::from_limbs(out)
    }

    /// Evaluates one precomputed window plan for one `k`-word base
    /// below `n`, reusing the caller's scratch, into the `k` words of
    /// `acc`. Returns the number of multiplication/squaring steps
    /// performed.
    fn run_plan(
        &self,
        base: &[u64],
        plan: &[ExpOp],
        window: usize,
        s: &mut Scratch,
        acc: &mut [u64],
    ) -> u64 {
        let mut steps = 0u64;
        // Convert into Montgomery form through the shared scratch.
        let mut base_m = base.to_vec();
        self.mont_mul_assign(&mut base_m, &self.r2, s);
        steps += 1;

        // Odd-powers table: table[i] = base^(2i+1) in Montgomery form.
        let table_len = 1usize << (window - 1);
        let mut table = Vec::with_capacity(table_len);
        table.push(base_m);
        if table_len > 1 {
            let mut sq = table[0].clone();
            self.mont_sqr_assign(&mut sq, s);
            steps += 1;
            for i in 1..table_len {
                let mut next = table[i - 1].clone();
                self.mont_mul_assign(&mut next, &sq, s);
                steps += 1;
                table.push(next);
            }
        }

        // Until the first multiply the accumulator is 1; skip its
        // squarings instead of squaring the identity.
        let mut started = false;
        for op in plan {
            match *op {
                ExpOp::Square => {
                    if started {
                        self.mont_sqr_assign(acc, s);
                        steps += 1;
                    }
                }
                ExpOp::Multiply(idx) => {
                    if started {
                        self.mont_mul_assign(acc, &table[idx], s);
                        steps += 1;
                    } else {
                        acc.copy_from_slice(&table[idx]);
                        started = true;
                    }
                }
            }
        }
        debug_assert!(started, "non-zero exponent always multiplies");
        self.redc_assign(acc, s);
        steps + 1 // conversion out of Montgomery form
    }

    /// `base^exp mod n` by the classic bit-at-a-time square-and-multiply,
    /// allocating per step — retained as the pre-windowed baseline and
    /// differential oracle.
    #[must_use]
    pub fn modexp_binary(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        dla_telemetry::record(dla_telemetry::CostKind::ModExp, 1);
        if exp.is_zero() {
            return Ubig::one() % &self.modulus();
        }
        let mut steps = 1u64; // to_mont
        let base_m = self.to_mont(base);
        let mut acc = self.one_mont.clone();
        for i in (0..exp.bit_len()).rev() {
            acc = self.mont_mul(&acc, &acc);
            steps += 1;
            if exp.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
                steps += 1;
            }
        }
        let mut one = vec![0u64; self.k()];
        one[0] = 1;
        let out = Ubig::from_limbs(self.mont_mul(&acc, &one));
        steps += 1;
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
        out
    }

    /// `base^exp mod n` for every base in `bases`, sharing one window
    /// plan and one scratch workspace across the whole batch: the
    /// conversion of each base into and out of words around
    /// [`Self::modexp_words`], on the kernel that call picks.
    ///
    /// Telemetry parity: records exactly the same `ModExp` and
    /// `MontMulStep` counts as element-at-a-time [`Self::modexp`]
    /// calls would, on either kernel, so batched and serial protocol
    /// runs stay cost-indistinguishable.
    #[must_use]
    pub fn modexp_batch(&self, bases: &[Ubig], exp: &Ubig) -> Vec<Ubig> {
        self.batch(bases, exp, bases.len() >= LANE_MIN_BATCH)
    }

    /// [`Self::modexp_batch`] on the scalar kernel whatever the CPU and
    /// the batch length — the lane kernel's differential oracle.
    #[must_use]
    pub fn modexp_batch_scalar(&self, bases: &[Ubig], exp: &Ubig) -> Vec<Ubig> {
        self.batch(bases, exp, false)
    }

    /// [`Self::modexp_batch`] on the lane kernel whatever the batch
    /// length, or `None` where there is none (a modulus other than 4
    /// limbs, a CPU without AVX-512 IFMA) — exposed for differential
    /// tests; prefer [`Self::modexp_batch`].
    #[must_use]
    pub fn modexp_batch_lanes(&self, bases: &[Ubig], exp: &Ubig) -> Option<Vec<Ubig>> {
        self.has_lanes().then(|| self.batch(bases, exp, true))
    }

    /// The number of 64-bit words `k` of the modulus: the width of one
    /// base in [`Self::modexp_words`].
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.k()
    }

    /// `base^exp mod n` for every base in `bases` — `k =`
    /// [`Self::limbs`] little-endian words per base, back to back —
    /// written in order to `out`, which is as long as `bases`. This is
    /// the one batch walk: one window plan for the whole batch, one
    /// allocation for its tables, none per base. On a 4-limb modulus a
    /// batch of at least four bases walks eight at a time on the
    /// AVX-512 IFMA lane kernel where the CPU has one (`DESIGN.md`
    /// §11); everything else walks the scalar kernel. A base at or
    /// above `n` is reduced first.
    ///
    /// # Panics
    ///
    /// Panics if `bases.len()` is not a multiple of `k` or `out` is not
    /// as long as `bases`.
    pub fn modexp_words(&self, bases: &[u64], exp: &Ubig, out: &mut [u64]) {
        let lanes = bases.len() >= LANE_MIN_BATCH * self.k();
        self.walk(bases, exp, lanes, out);
    }

    /// The Ubig batch: the bases in words, the walk, the powers back.
    fn batch(&self, bases: &[Ubig], exp: &Ubig, lanes: bool) -> Vec<Ubig> {
        let k = self.k();
        let mut words = vec![0u64; bases.len() * k];
        for (w, base) in words.chunks_exact_mut(k).zip(bases) {
            self.load(base, w);
        }
        let mut out = vec![0u64; words.len()];
        self.walk(&words, exp, lanes, &mut out);
        out.chunks_exact(k)
            .map(|w| Ubig::from_limbs(w.to_vec()))
            .collect()
    }

    /// `v mod n` into the `k` words `w`: a copy and a comparison, and a
    /// division only for a value at or above `n`.
    fn load(&self, v: &Ubig, w: &mut [u64]) {
        let limbs = v.limbs();
        if limbs.len() <= w.len() {
            w.fill(0);
            w[..limbs.len()].copy_from_slice(limbs);
            if !ge(w, &self.n) {
                return;
            }
        }
        let r = v % &self.modulus();
        w.fill(0);
        w[..r.limbs().len()].copy_from_slice(r.limbs());
    }

    /// The batch walk, on the lane kernel when `lanes` asks for it and
    /// this context has one.
    fn walk(&self, bases: &[u64], exp: &Ubig, lanes: bool, out: &mut [u64]) {
        let k = self.k();
        assert_eq!(bases.len() % k, 0, "bases are k words each");
        assert_eq!(out.len(), bases.len(), "one power per base");
        if bases.is_empty() {
            return;
        }
        dla_telemetry::record(dla_telemetry::CostKind::ModExp, (bases.len() / k) as u64);
        if exp.is_zero() {
            let one = pad(&(Ubig::one() % &self.modulus()), k);
            for w in out.chunks_exact_mut(k) {
                w.copy_from_slice(&one);
            }
            return;
        }
        // A base at or above n (never one a protocol sends) is reduced
        // in a copy; the rest walk from the caller's words.
        let mut reduced: Vec<u64>;
        let bases = if bases.chunks_exact(k).all(|b| !ge(b, &self.n)) {
            bases
        } else {
            reduced = bases.to_vec();
            for w in reduced.chunks_exact_mut(k) {
                self.load(&Ubig::from_limbs(w.to_vec()), w);
            }
            &reduced
        };
        let window = window_width(exp.bit_len());
        let plan = window_plan(exp, window);
        let steps = if let Some(f) = FixedCtx::<4>::from_ctx(self) {
            let (bases, out) = (bases.as_chunks().0, out.as_chunks_mut().0);
            match self.lane_walk(lanes, bases, &plan, window, out) {
                Some(steps) => steps,
                None => f.run_plan_batch(bases, &plan, window, out),
            }
        } else if let Some(f) = FixedCtx::<8>::from_ctx(self) {
            f.run_plan_batch(bases.as_chunks().0, &plan, window, out.as_chunks_mut().0)
        } else {
            let mut s = self.scratch();
            (bases.chunks_exact(k))
                .zip(out.chunks_exact_mut(k))
                .map(|(base, acc)| self.run_plan(base, &plan, window, &mut s, acc))
                .sum()
        };
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
    }

    #[cfg(target_arch = "x86_64")]
    fn has_lanes(&self) -> bool {
        self.lanes.is_some()
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn has_lanes(&self) -> bool {
        false
    }

    /// The batch walk on the lane kernel, or `None` when `lanes` is
    /// false or this context has no lane kernel.
    #[cfg(target_arch = "x86_64")]
    fn lane_walk(
        &self,
        lanes: bool,
        bases: &[[u64; 4]],
        plan: &[ExpOp],
        window: usize,
        out: &mut [[u64; 4]],
    ) -> Option<u64> {
        let kernel = self.lanes.as_ref().filter(|_| lanes)?;
        Some(kernel.run_plan_batch(bases, plan, window, out))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn lane_walk(
        &self,
        _lanes: bool,
        _bases: &[[u64; 4]],
        _plan: &[ExpOp],
        _window: usize,
        _out: &mut [[u64; 4]],
    ) -> Option<u64> {
        None
    }

    /// `a · b mod n` through Montgomery form. Two REDC passes on a
    /// borrowed scratch (multiply once to reach `a·b·R⁻¹`, multiply by
    /// `R²` to land on `a·b`) — down from the three passes plus two
    /// `to_mont` allocations of the old path.
    #[must_use]
    pub fn modmul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let modulus = self.modulus();
        let k = self.k();
        let mut s = self.scratch();
        let mut acc = pad(&(a % &modulus), k);
        let br = pad(&(b % &modulus), k);
        self.mont_mul_assign(&mut acc, &br, &mut s);
        self.mont_mul_assign(&mut acc, &self.r2, &mut s);
        Ubig::from_limbs(acc)
    }
}

fn pad(v: &Ubig, k: usize) -> Vec<u64> {
    let mut out = v.limbs().to_vec();
    out.resize(k, 0);
    out
}

/// `a >= b` on equal-length limb slices.
fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    true
}

/// `a -= b` on limb slices (`a` at least as long as `b`; no underflow).
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..b.len() {
        let (d1, o1) = a[i].overflowing_sub(b[i]);
        let (d2, o2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = u64::from(o1) + u64::from(o2);
    }
    let mut i = b.len();
    while borrow != 0 && i < a.len() {
        let (d, o) = a[i].overflowing_sub(borrow);
        a[i] = d;
        borrow = u64::from(o);
        i += 1;
    }
    debug_assert_eq!(borrow, 0, "montgomery subtraction underflow");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn rejects_even_and_tiny_moduli() {
        assert!(MontgomeryContext::new(&Ubig::from_u64(100)).is_none());
        assert!(MontgomeryContext::new(&Ubig::from_u64(2)).is_none());
        assert!(MontgomeryContext::new(&Ubig::from_u64(1)).is_none());
        assert!(MontgomeryContext::new(&Ubig::from_u64(0)).is_none());
        assert!(MontgomeryContext::new(&Ubig::from_u64(3)).is_some());
    }

    #[test]
    fn modexp_matches_schoolbook_small() {
        let mut rng = rng();
        for _ in 0..200 {
            let n = {
                let v: u64 = rand::Rng::gen_range(&mut rng, 3u64..1 << 32);
                Ubig::from_u64(v | 1)
            };
            let ctx = MontgomeryContext::new(&n).unwrap();
            let base = Ubig::random_below(&mut rng, &n);
            let exp = Ubig::from_u64(rand::Rng::gen_range(&mut rng, 0u64..1000));
            assert_eq!(
                ctx.modexp(&base, &exp),
                modular::modexp_schoolbook(&base, &exp, &n),
                "base={base} exp={exp} n={n}"
            );
        }
    }

    #[test]
    fn modexp_matches_schoolbook_multi_limb() {
        let mut rng = rng();
        for bits in [65usize, 127, 256, 511] {
            for _ in 0..10 {
                let mut n = Ubig::random_bits(&mut rng, bits);
                if n.is_even() {
                    n = n + Ubig::one();
                }
                let ctx = MontgomeryContext::new(&n).unwrap();
                let base = Ubig::random_below(&mut rng, &n);
                let exp = Ubig::random_bits(&mut rng, 64);
                assert_eq!(
                    ctx.modexp(&base, &exp),
                    modular::modexp_schoolbook(&base, &exp, &n),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn windowed_binary_and_schoolbook_agree_across_window_widths() {
        let mut rng = rng();
        for bits in [65usize, 200, 384] {
            let mut n = Ubig::random_bits(&mut rng, bits);
            if n.is_even() {
                n = n + Ubig::one();
            }
            let ctx = MontgomeryContext::new(&n).unwrap();
            for _ in 0..5 {
                let base = Ubig::random_below(&mut rng, &n);
                let exp = Ubig::random_bits(&mut rng, bits - 1);
                let oracle = modular::modexp_schoolbook(&base, &exp, &n);
                assert_eq!(ctx.modexp_binary(&base, &exp), oracle, "binary bits={bits}");
                for w in 1..=6 {
                    assert_eq!(
                        ctx.modexp_windowed(&base, &exp, w),
                        oracle,
                        "window={w} bits={bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_matches_element_at_a_time() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let exp = Ubig::random_bits(&mut rng, 254);
        let bases: Vec<Ubig> = (0..9).map(|_| Ubig::random_below(&mut rng, &n)).collect();
        let batched = ctx.modexp_batch(&bases, &exp);
        let serial: Vec<Ubig> = bases.iter().map(|b| ctx.modexp(b, &exp)).collect();
        assert_eq!(batched, serial);
        assert!(ctx.modexp_batch(&[], &exp).is_empty());
        // Zero exponent batch: all ones.
        let zeros = ctx.modexp_batch(&bases, &Ubig::zero());
        assert!(zeros.iter().all(Ubig::is_one));
    }

    #[test]
    fn windowed_reports_fewer_steps_than_binary() {
        // The telemetry fidelity contract: same answers, strictly less
        // accounted work on the windowed path.
        let mut rng = rng();
        let n = Ubig::from_hex("a9eeab19c760f86c872f1c471c52157db42be1aefe645387366720155ee9a6d3")
            .unwrap();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        let exp = Ubig::random_bits(&mut rng, 255);

        let steps_of = |f: &dyn Fn() -> Ubig| -> (Ubig, u64) {
            let recorder = dla_telemetry::Recorder::new();
            let out = {
                let _install = recorder.install();
                f()
            };
            (out, recorder.take().total_cost().mont_mul_steps)
        };
        let (a, binary_steps) = steps_of(&|| ctx.modexp_binary(&base, &exp));
        let (b, windowed_steps) = steps_of(&|| ctx.modexp(&base, &exp));
        assert_eq!(a, b);
        assert!(binary_steps > 0 && windowed_steps > 0);
        assert!(
            windowed_steps < binary_steps,
            "windowed {windowed_steps} must beat binary {binary_steps}"
        );
    }

    #[test]
    fn batch_telemetry_counts_match_serial_counts() {
        let mut rng = rng();
        let n = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let exp = Ubig::random_bits(&mut rng, 126);
        let bases: Vec<Ubig> = (0..5).map(|_| Ubig::random_below(&mut rng, &n)).collect();

        let capture = |f: &dyn Fn()| -> dla_telemetry::CostVector {
            let recorder = dla_telemetry::Recorder::new();
            {
                let _install = recorder.install();
                f();
            }
            recorder.take().total_cost()
        };
        let batched = capture(&|| {
            let _ = ctx.modexp_batch(&bases, &exp);
        });
        let serial = capture(&|| {
            for b in &bases {
                let _ = ctx.modexp(b, &exp);
            }
        });
        assert_eq!(batched.modexp, serial.modexp);
        assert_eq!(batched.mont_mul_steps, serial.mont_mul_steps);
    }

    #[test]
    fn modmul_matches_reference() {
        let mut rng = rng();
        let n = (Ubig::one() << 127) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        for _ in 0..50 {
            let a = Ubig::random_below(&mut rng, &n);
            let b = Ubig::random_below(&mut rng, &n);
            assert_eq!(ctx.modmul(&a, &b), modular::modmul(&a, &b, &n));
        }
        // Unreduced operands are reduced first.
        let big = Ubig::random_bits(&mut rng, 400);
        let other = Ubig::random_bits(&mut rng, 300);
        assert_eq!(ctx.modmul(&big, &other), modular::modmul(&big, &other, &n));
    }

    #[test]
    fn edge_exponents() {
        let n = (Ubig::one() << 89) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::from_u64(12345);
        assert_eq!(ctx.modexp(&base, &Ubig::zero()), Ubig::one());
        assert_eq!(ctx.modexp(&base, &Ubig::one()), base);
        assert_eq!(ctx.modexp(&Ubig::zero(), &Ubig::from_u64(5)), Ubig::zero());
        // Fermat: base^(n-1) = 1 for prime n.
        let exp = &n - &Ubig::one();
        assert_eq!(ctx.modexp(&base, &exp), Ubig::one());
        assert_eq!(ctx.modexp_binary(&base, &exp), Ubig::one());
    }

    #[test]
    fn unreduced_base_is_reduced_first() {
        let n = Ubig::from_u64(1_000_003);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let big_base = Ubig::from_u128(u128::MAX);
        assert_eq!(
            ctx.modexp(&big_base, &Ubig::from_u64(3)),
            modular::modexp_schoolbook(&big_base, &Ubig::from_u64(3), &n)
        );
    }

    #[test]
    fn n0_inv_property() {
        // n[0] * (-n0_inv) = 1 mod 2^64, i.e. n[0] * n0_inv = -1.
        for n in [3u64, 5, 0xFFFF_FFFF_FFFF_FFC5, 1_000_000_007] {
            let ctx = MontgomeryContext::new(&Ubig::from_u64(n)).unwrap();
            assert_eq!(n.wrapping_mul(ctx.n0_inv), u64::MAX, "n = {n}");
        }
    }

    #[test]
    fn batch_never_costs_more_steps_than_independent_calls() {
        // The batch path shares one window plan (and, on fixed-width
        // moduli, one vertical plan replay) across all bases — its
        // recorded `mont_mul_steps` must never exceed the sum of the
        // same calls made independently.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for bits in [96usize, 256, 512] {
            let mut n = Ubig::random_bits(&mut rng, bits);
            if n.is_even() {
                n = n + Ubig::one();
            }
            let ctx = MontgomeryContext::new(&n).unwrap();
            let exp = Ubig::random_bits(&mut rng, bits - 1);
            let bases: Vec<Ubig> = (0..9).map(|_| Ubig::random_below(&mut rng, &n)).collect();
            let capture = |f: &dyn Fn() -> Vec<Ubig>| {
                let recorder = dla_telemetry::Recorder::new();
                let out = {
                    let _install = recorder.install();
                    f()
                };
                (out, recorder.take().total_cost())
            };
            let (batched, batch_cost) = capture(&|| ctx.modexp_batch(&bases, &exp));
            let (pointwise, serial_cost) =
                capture(&|| bases.iter().map(|b| ctx.modexp(b, &exp)).collect());
            assert_eq!(batched, pointwise, "bits={bits}");
            assert_eq!(batch_cost.modexp, serial_cost.modexp, "bits={bits}");
            assert!(
                batch_cost.mont_mul_steps <= serial_cost.mont_mul_steps,
                "bits={bits}: batch {} steps must not exceed serial {}",
                batch_cost.mont_mul_steps,
                serial_cost.mont_mul_steps
            );
        }
    }

    #[test]
    fn window_plan_covers_edge_shapes() {
        // Exponent 1: a single multiply, no squarings required.
        let plan = window_plan(&Ubig::one(), 5);
        assert_eq!(plan, vec![ExpOp::Square, ExpOp::Multiply(0)]);
        // All-ones exponent packs maximal windows.
        let e = Ubig::from_u64(0b1_1111);
        let plan = window_plan(&e, 5);
        assert_eq!(
            plan.iter()
                .filter(|o| matches!(o, ExpOp::Multiply(_)))
                .count(),
            1
        );
        assert_eq!(plan.last(), Some(&ExpOp::Multiply(15)));
    }
}

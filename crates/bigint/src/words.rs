//! Fixed-width arithmetic on `[u64; L]` stack words, for the binary
//! inverse and Jacobi loops: a step never measures a length or
//! allocates.

use crate::Ubig;

/// `v`, which must fit, in `L` little-endian words.
pub(crate) fn load<const L: usize>(v: &Ubig) -> [u64; L] {
    let mut w = [0; L];
    w[..v.limbs().len()].copy_from_slice(v.limbs());
    w
}

/// `a −= b` modulo `2^(64L)`; returns the borrow out.
pub(crate) fn sub<const L: usize>(a: &mut [u64; L], b: &[u64; L]) -> bool {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
    borrow
}

/// `a += b` modulo `2^(64L)`; returns the carry out.
pub(crate) fn add<const L: usize>(a: &mut [u64; L], b: &[u64; L]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *x = s;
        carry = c1 | c2;
    }
    carry
}

/// `a` where `mask` is all ones, `b` where it is zero: a select
/// without a branch, for the data-dependent choices a step makes.
pub(crate) fn select<const L: usize>(mask: u64, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
    std::array::from_fn(|i| (a[i] & mask) | (b[i] & !mask))
}

/// Two's-complement negation `a ← 2^(64L) − a` where `mask` is all
/// ones — which turns the wrapped difference `u − v` of a borrowing
/// [`sub`] into `v − u` — and nothing where it is zero.
pub(crate) fn neg_if<const L: usize>(a: &mut [u64; L], mask: u64) {
    let mut carry = mask & 1;
    for x in a.iter_mut() {
        let (s, c) = (*x ^ mask).overflowing_add(carry);
        *x = s;
        carry = u64::from(c);
    }
}

/// Shifts the non-zero `a` right until it is odd; returns the number of
/// bits shifted out.
pub(crate) fn shr_to_odd<const L: usize>(a: &mut [u64; L]) -> u32 {
    let mut shifted = 0;
    if a[0] == 0 {
        // Rare: only a value with ≥ 64 trailing zero bits gets here.
        let words = a.iter().position(|&w| w != 0).expect("shr_to_odd of zero");
        a.copy_within(words.., 0);
        a[L - words..].fill(0);
        shifted = 64 * words as u32;
    }
    let bits = a[0].trailing_zeros();
    // Two shifts in, so that a zero `bits` shifts in nothing.
    for i in 0..L - 1 {
        a[i] = (a[i] >> bits) | ((a[i + 1] << 1) << (63 - bits));
    }
    a[L - 1] >>= bits;
    shifted + bits
}

/// `a ← (a + 2^(64L)·top) / 2` for even `a + 2^(64L)·top`.
pub(crate) fn halve<const L: usize>(a: &mut [u64; L], top: bool) {
    for i in 0..L - 1 {
        a[i] = (a[i] >> 1) | (a[i + 1] << 63);
    }
    a[L - 1] = (a[L - 1] >> 1) | (u64::from(top) << 63);
}

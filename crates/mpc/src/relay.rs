//! The commutative-cipher ring relay that `∩_s` (paper §3.1, Figure 4)
//! and `∪_s` (§3.4) share: the owner layer, the `n−1` relay rounds that
//! give every set all `n` layers, the collection round, the decryption
//! pass and the one set-frame codec. The protocol modules keep only
//! their collector steps.

use crate::MpcError;
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_net::topology::Ring;
use dla_net::wire::{Reader, WireError, Writer};
use dla_net::{Envelope, NodeId, Session};
use std::cmp::Ordering;
use std::collections::HashSet;

/// The frame a relay's sets travel in; the discriminant is its wire tag.
/// `∩_s` frames are `0x01 ‖ origin ‖ elements`, `∪_s` frames
/// `0x02 ‖ elements`. An element is a `[u64; L]` (DESIGN §11) and
/// travels as its minimal big-endian bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SetFrame {
    /// `∩_s`: the frame names the ring position whose set it carries.
    Intersection = 0x01,
    /// `∪_s`: no origin travels.
    Union = 0x02,
}

/// The origin an `∩_s` decryption-pass frame carries.
const PASS_ORIGIN: u64 = u64::MAX;

impl SetFrame {
    pub(crate) fn encode<const L: usize>(self, origin: u64, elements: &[[u64; L]]) -> bytes::Bytes {
        let mut w = Writer::with_capacity(1 + 8 + 8 + elements.len() * (8 + 8 * L));
        w.put_u8(self as u8);
        if self == SetFrame::Intersection {
            w.put_u64(origin);
        }
        let mut buf = [0; 8 * dla_crypto::pohlig_hellman::MAX_LIMBS];
        w.put_list(elements, |w, e| {
            w.put_bytes(minimal_be(e, &mut buf));
        });
        w.finish()
    }

    /// The origin (`∩_s` only) and the elements of a set frame. An
    /// element has one encoding: no leading zero byte, no wider than
    /// the domain's `L` words, and below its modulus — at or above it,
    /// it would act as its own reduction.
    pub(crate) fn decode<const L: usize>(
        self,
        payload: &[u8],
        modulus: &[u64; L],
    ) -> Result<(Option<u64>, Vec<[u64; L]>), MpcError> {
        let mut r = Reader::open(payload, self as u8)?;
        let origin = (self == SetFrame::Intersection)
            .then(|| r.get_u64())
            .transpose()?;
        let elements = r.get_list(|r| from_be(r.get_minimal_uint()?))?;
        r.finish()?;
        if elements.iter().any(|e| !below(e, modulus)) {
            return Err(MpcError::Wire("set element not below the modulus".into()));
        }
        Ok((origin, elements))
    }
}

/// `e`'s big-endian bytes without leading zeros, in `buf`.
fn minimal_be<'b, const L: usize>(e: &[u64; L], buf: &'b mut [u8]) -> &'b [u8] {
    let bytes = &mut buf[..8 * L];
    for (chunk, w) in bytes.chunks_exact_mut(8).zip(e.iter().rev()) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    let zeros = bytes.iter().take_while(|&&b| b == 0).count();
    &bytes[zeros..]
}

/// The element whose big-endian bytes are `bytes`, or an error when
/// they do not fit `L` words.
fn from_be<const L: usize>(bytes: &[u8]) -> Result<[u64; L], WireError> {
    if bytes.len() > 8 * L {
        return Err(WireError::new("set element wider than the domain"));
    }
    let mut e = [0; L];
    for (w, chunk) in e.iter_mut().zip(bytes.rchunks(8)) {
        let mut word = [0; 8];
        word[8 - chunk.len()..].copy_from_slice(chunk);
        *w = u64::from_be_bytes(word);
    }
    Ok(e)
}

/// `a < b` on little-endian words.
fn below<const L: usize>(a: &[u64; L], b: &[u64; L]) -> bool {
    a.iter().rev().lt(b.iter().rev())
}

/// The number of bytes of `e`'s minimal big-endian form.
fn byte_len<const L: usize>(e: &[u64; L]) -> usize {
    let bits = (e.iter().rposition(|&w| w != 0))
        .map_or(0, |top| 64 * (top + 1) - e[top].leading_zeros() as usize);
    bits.div_ceil(8)
}

/// `e >> (8 · bytes)`.
fn shr_bytes<const L: usize>(e: &[u64; L], bytes: usize) -> [u64; L] {
    let (words, bits) = (bytes / 8, 8 * (bytes % 8) as u32);
    std::array::from_fn(|i| {
        let lo = e.get(i + words).copied().unwrap_or(0);
        let hi = e.get(i + words + 1).copied().unwrap_or(0);
        // Two shifts, so that `bits = 0` shifts in nothing.
        (lo >> bits) | ((hi << 1) << (63 - bits))
    })
}

/// The order of elements' minimal big-endian bytes — the order a set of
/// those byte strings sorts in, which is the order the collectors list
/// their answers and ship a decryption pass in. Of two elements as wide
/// it is the numeric order; a shorter one compares with the longer
/// one's leading bytes, and goes first when they are equal.
fn wire_order<const L: usize>(a: &[u64; L], b: &[u64; L]) -> Ordering {
    let (la, lb) = (byte_len(a), byte_len(b));
    let numeric = |x: &[u64; L], y: &[u64; L]| x.iter().rev().cmp(y.iter().rev());
    match la.cmp(&lb) {
        Ordering::Equal => numeric(a, b),
        Ordering::Less => numeric(a, &shr_bytes(b, lb - la)).then(Ordering::Less),
        Ordering::Greater => numeric(&shr_bytes(a, la - lb), b).then(Ordering::Greater),
    }
}

/// `set` in [`wire_order`], without repeats.
fn sorted<const L: usize>(mut set: Vec<[u64; L]>) -> Vec<[u64; L]> {
    set.sort_unstable_by(wire_order);
    set.dedup();
    set
}

/// The `∩_s` collector: the elements every set holds, once each, in
/// [`wire_order`].
pub(crate) fn common<const L: usize>(sets: &[Vec<[u64; L]>]) -> Vec<[u64; L]> {
    let mut sets = sets.iter().map(|set| sorted(set.clone()));
    let mut common = sets.next().unwrap_or_default();
    for set in sets {
        common.retain(|e| holds(&set, e));
    }
    common
}

/// The `∪_s` collector: the elements of any set, once each, in
/// [`wire_order`] — without those of `held`, the collector's own set
/// when it is a ring position.
pub(crate) fn merged<const L: usize>(
    sets: &[Vec<[u64; L]>],
    held: Option<&[[u64; L]]>,
) -> Vec<[u64; L]> {
    let mut merged = sorted(sets.concat());
    if let Some(held) = held {
        let held = sorted(held.to_vec());
        merged.retain(|e| !holds(&held, e));
    }
    merged
}

/// Whether `e` is in `set`, which is [`sorted`].
pub(crate) fn holds<const L: usize>(set: &[[u64; L]], e: &[u64; L]) -> bool {
    set.binary_search_by(|x| wire_order(x, e)).is_ok()
}

/// One relay over `ring` towards `collector`, in `frame`s of `L`-word
/// elements.
pub(crate) struct Relay<'s, 'a, const L: usize> {
    pub(crate) net: &'s Session<'a>,
    pub(crate) ring: &'a Ring,
    /// The domain's modulus, which every element must be below.
    pub(crate) modulus: [u64; L],
    pub(crate) collector: NodeId,
    pub(crate) frame: SetFrame,
}

impl<const L: usize> Relay<'_, '_, L> {
    /// `set` from `from` to `to` in a round of its own, decoded on
    /// arrival.
    pub(crate) fn hand(
        &self,
        from: NodeId,
        to: NodeId,
        origin: u64,
        set: &[[u64; L]],
    ) -> Result<Vec<[u64; L]>, MpcError> {
        self.net.send(from, to, self.frame.encode(origin, set));
        let envelope = self.net.recv_from(to, from)?;
        let (_, set) = self.frame.decode(&envelope.payload, &self.modulus)?;
        Ok(set)
    }

    /// Each owner's layer on its set, the `n−1` relay rounds (set of
    /// origin `i` moves `i → i+1 → … → i+n−1`, all `n` sets one hop at
    /// a time) and the collection round, in which the final holders
    /// ship the fully-encrypted sets to the collector. Returns them in
    /// origin order. A ring-position collector's own set must come back
    /// in shape ([`check_own_set`]).
    ///
    /// `on_hop(origin, hop, envelope, set)` sees every set after every
    /// layer: hop 0 is the owner's (no envelope brought it), hop `h` the
    /// layer of ring position `origin + h`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn encrypt_and_collect(
        &self,
        keys: &[PhKey],
        encoded: &[Vec<[u64; L]>],
        on_hop: &mut dyn FnMut(usize, usize, Option<&Envelope>, &[[u64; L]]),
    ) -> Result<Vec<Vec<[u64; L]>>, MpcError> {
        let (ring, n) = (self.ring, self.ring.len());
        let mut sets: Vec<Vec<[u64; L]>> = Vec::with_capacity(n);
        for (origin, (key, plain)) in keys.iter().zip(encoded).enumerate() {
            let encrypted = key.encrypt_words(plain);
            on_hop(origin, 0, None, &encrypted);
            sets.push(encrypted);
        }

        for hop in 1..n {
            let relays = sets.iter().enumerate().map(|(origin, set)| {
                let from = ring.at((origin + hop - 1) % n);
                let to = ring.at((origin + hop) % n);
                (from, to, self.frame.encode(origin as u64, set))
            });
            for (origin, envelope) in self.net.round(relays)?.into_iter().enumerate() {
                let (carried, elements) = self.frame.decode(&envelope.payload, &self.modulus)?;
                if let Some(tag) = carried.filter(|&tag| tag != origin as u64) {
                    return Err(MpcError::Protocol(format!(
                        "relay for set {origin} carried origin tag {tag}"
                    )));
                }
                let holder = (origin + hop) % n;
                sets[origin] = keys[holder].encrypt_words(&elements);
                on_hop(origin, hop, Some(&envelope), &sets[origin]);
            }
        }

        let collector = self.collector;
        let own = ring.position(collector);
        let collection = sets.iter().enumerate().map(|(origin, set)| {
            let final_holder = ring.at((origin + n - 1) % n);
            (
                final_holder,
                collector,
                self.frame.encode(origin as u64, set),
            )
        });
        let mut returned = Vec::with_capacity(n);
        for (origin, envelope) in self.net.round(collection)?.into_iter().enumerate() {
            let (_, elements) = self.frame.decode(&envelope.payload, &self.modulus)?;
            if own == Some(origin) {
                check_own_set(&elements, encoded[origin].len())?;
            }
            returned.push(elements);
        }
        Ok(returned)
    }

    /// The decryption pass: `set` visits the ring `positions` in order,
    /// each taking its layer off, and goes back to the collector unless
    /// it is already there. Returns what the collector holds and the
    /// rounds the pass took.
    pub(crate) fn decryption_pass(
        &self,
        keys: &[PhKey],
        positions: &[usize],
        mut set: Vec<[u64; L]>,
    ) -> Result<(Vec<[u64; L]>, usize), MpcError> {
        let mut holder = self.collector;
        for &pos in positions {
            let node = self.ring.at(pos);
            let arrived = self.hand(holder, node, PASS_ORIGIN, &set)?;
            set = keys[pos].decrypt_words(&arrived);
            holder = node;
        }
        let mut rounds = positions.len();
        if holder != self.collector {
            set = self.hand(holder, self.collector, PASS_ORIGIN, &set)?;
            rounds += 1;
        }
        Ok((set, rounds))
    }
}

/// Each party's set encoded into the QR subgroup in canonical
/// (sorted-plaintext) order — the order it travels in — and
/// deduplicated on the *encoding*: items that differ only in leading
/// zero bytes encode alike, and a set travels as distinct elements.
pub(crate) fn encode_canonical<const L: usize>(
    domain: &CommutativeDomain,
    inputs: Vec<Vec<&[u8]>>,
) -> Result<Vec<Vec<[u64; L]>>, MpcError> {
    inputs
        .into_iter()
        .map(|mut canonical| {
            canonical.sort_unstable();
            canonical.dedup();
            let mut encoded = domain.encode_batch_words::<L>(&canonical)?;
            let mut seen = HashSet::with_capacity(encoded.len());
            encoded.retain(|&element| seen.insert(element));
            Ok(encoded)
        })
        .collect()
}

/// A ring-position collector's own set must come back from the ring
/// as `sent` distinct ciphertexts (the cipher is a bijection on
/// distinct plaintexts): a relay that dropped, added or duplicated an
/// element stops the run rather than shifting the answer. This is a
/// shape check only — a relay that *reorders* the set, or swaps in as
/// many other distinct values, passes it (see the `∩_s` module docs).
fn check_own_set<const L: usize>(returned: &[[u64; L]], sent: usize) -> Result<(), MpcError> {
    let mut distinct = returned.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if returned.len() == sent && distinct.len() == sent {
        Ok(())
    } else {
        Err(MpcError::Protocol(format!(
            "collector's own set left with {sent} elements and returned with {} ({} distinct)",
            returned.len(),
            distinct.len()
        )))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `v + k` (`add`) or `v − 1 − k` on words, wrapping.
    fn offset<const L: usize>(v: &[u64; L], k: u64, add: bool) -> [u64; L] {
        let mut out = *v;
        let mut carry = if add { k } else { k + 1 };
        for w in &mut out {
            let (x, c) = if add {
                w.overflowing_add(carry)
            } else {
                w.overflowing_sub(carry)
            };
            *w = x;
            carry = u64::from(c);
        }
        out
    }

    /// The bytes of one set element as a peer might send them: short
    /// strings that may lead with a zero byte, values just below and at
    /// or above `modulus`, and values below it behind one more leading
    /// byte — wider than the domain's `L` words.
    pub(crate) fn element_bytes<const L: usize>(
        modulus: [u64; L],
    ) -> impl Strategy<Value = Vec<u8>> {
        let near = move |k: u64, above: bool| {
            let mut buf = [0; 64];
            minimal_be(&offset(&modulus, k, above), &mut buf).to_vec()
        };
        prop_oneof![
            prop::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..6),
            (0u64..4, any::<bool>()).prop_map(move |(k, above)| near(k, above)),
            (1u8..=255, 0u64..4).prop_map(move |(lead, k)| {
                let below = offset(&modulus, k, false);
                let mut wide = vec![lead];
                wide.extend(below.iter().rev().flat_map(|w| w.to_be_bytes()));
                wide
            }),
        ]
    }

    /// Whether `elements` are each in their one encoding below `modulus`.
    pub(crate) fn canonical<const L: usize>(elements: &[Vec<u8>], modulus: &[u64; L]) -> bool {
        (elements.iter())
            .all(|e| e.first() != Some(&0) && from_be::<L>(e).is_ok_and(|w| below(&w, modulus)))
    }

    /// The mutant that keeps the low words of an over-wide element
    /// would read `1 ‖ X` as `X`: the decoder refuses it whatever `X`.
    #[test]
    fn a_set_element_wider_than_the_domain_is_refused() {
        let modulus = CommutativeDomain::fixed_256().modulus_words::<4>();
        let x = [7u64, 0, 0, 0];
        let mut w = Writer::new();
        let mut wide = vec![1u8];
        wide.extend(x.iter().rev().flat_map(|w| w.to_be_bytes()));
        w.put_u8(SetFrame::Union as u8).put_list(&[wide], |w, e| {
            w.put_bytes(e);
        });
        let err = SetFrame::Union.decode(&w.finish(), &modulus).unwrap_err();
        assert_eq!(
            err,
            WireError::new("set element wider than the domain").into()
        );
        let narrow = SetFrame::Union.encode(0, &[x]);
        assert_eq!(SetFrame::Union.decode(&narrow, &modulus).unwrap().1, [x]);
    }

    /// The mutant that drops the below-modulus check would take
    /// `p + k`, which fits the domain's words, as a second encoding of
    /// `k`: the decoder refuses it, and takes `p − 1`.
    #[test]
    fn a_set_element_at_or_above_the_modulus_is_refused() {
        let modulus = CommutativeDomain::fixed_256().modulus_words::<4>();
        let frame = |e: [u64; 4]| SetFrame::Union.encode(0, &[e]);
        for k in [0, 1, 7] {
            let err = SetFrame::Union.decode(&frame(offset(&modulus, k, true)), &modulus);
            let refused = MpcError::Wire("set element not below the modulus".into());
            assert_eq!(err.unwrap_err(), refused, "p + {k}");
        }
        let top = offset(&modulus, 0, false);
        assert_eq!(
            SetFrame::Union.decode(&frame(top), &modulus).unwrap().1,
            [top]
        );
    }

    #[test]
    fn wire_order_is_the_order_of_minimal_bytes() {
        let cases: [[u64; 4]; 7] = [
            [0; 4],
            [1, 0, 0, 0],
            [0x100, 0, 0, 0],
            [2, 0, 0, 0],
            [0x1ff, 0, 0, 0],
            [0, 1, 0, 0],
            [u64::MAX, 0, 0, 1],
        ];
        let bytes = |e: &[u64; 4]| minimal_be(e, &mut [0; 64]).to_vec();
        for a in &cases {
            for b in &cases {
                assert_eq!(wire_order(a, b), bytes(a).cmp(&bytes(b)), "{a:?} {b:?}");
            }
        }
    }
}

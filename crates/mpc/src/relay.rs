//! The commutative-cipher ring relay that `∩_s` (paper §3.1, Figure 4)
//! and `∪_s` (§3.4) share: the owner layer, the `n−1` relay rounds that
//! give every set all `n` layers, the collection round, the decryption
//! pass and the one set-frame codec. The protocol modules keep only
//! their collector steps.

use crate::MpcError;
use dla_crypto::pohlig_hellman::{decode_into, CommutativeDomain, PhKey, MAX_LIMBS};
use dla_net::topology::Ring;
use dla_net::wire::{Reader, Writer};
use dla_net::{Envelope, NodeId, Session};
use std::cmp::Ordering;
use std::collections::HashSet;

/// The frame a relay's sets travel in; the discriminant is its wire tag.
/// `∩_s` frames are `0x01 ‖ origin ‖ elements`, `∪_s` frames
/// `0x02 ‖ elements`. An element is a `[u64; L]` (DESIGN §11) and
/// travels as the modulus's `k` words, most significant first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SetFrame {
    /// `∩_s`: the frame names the ring position whose set it carries.
    Intersection = 0x01,
    /// `∪_s`: no origin travels.
    Union = 0x02,
}

/// The origin an `∩_s` decryption-pass frame carries.
const PASS_ORIGIN: u64 = u64::MAX;

/// The words an element below `modulus` needs: the modulus's own.
fn limbs<const L: usize>(modulus: &[u64; L]) -> usize {
    L - modulus.iter().rev().take_while(|&&w| w == 0).count()
}

impl SetFrame {
    pub(crate) fn encode<const L: usize>(
        self,
        modulus: &[u64; L],
        origin: u64,
        elements: &[[u64; L]],
    ) -> bytes::Bytes {
        let k = limbs(modulus);
        let mut w = Writer::with_capacity(1 + 8 + 8 + elements.len() * 8 * k);
        w.put_u8(self as u8);
        if self == SetFrame::Intersection {
            w.put_u64(origin);
        }
        w.put_list(elements, |w, e| {
            debug_assert!(
                numeric(e, modulus).is_lt(),
                "a set element is below the modulus"
            );
            for &word in e[..k].iter().rev() {
                w.put_u64(word);
            }
        });
        w.finish()
    }

    /// The origin (`∩_s` only) and the elements of a set frame. Each
    /// element must be below `modulus`: at or above it, it would act as
    /// its own reduction, a second encoding of a residue.
    pub(crate) fn decode<const L: usize>(
        self,
        modulus: &[u64; L],
        payload: &[u8],
    ) -> Result<(Option<u64>, Vec<[u64; L]>), MpcError> {
        let k = limbs(modulus);
        let mut r = Reader::open(payload, self as u8)?;
        let origin = (self == SetFrame::Intersection)
            .then(|| r.get_u64())
            .transpose()?;
        let elements = r.get_list(|r| {
            let mut e = [0; L];
            for word in e[..k].iter_mut().rev() {
                *word = r.get_u64()?;
            }
            Ok(e)
        })?;
        r.finish()?;
        if elements.iter().any(|e| numeric(e, modulus).is_ge()) {
            return Err(MpcError::Wire("set element not below the modulus".into()));
        }
        Ok((origin, elements))
    }
}

/// The numeric order of elements: most significant word first.
fn numeric<const L: usize>(a: &[u64; L], b: &[u64; L]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

/// `set` in [`numeric`] order, without repeats.
pub(crate) fn sorted<const L: usize>(mut set: Vec<[u64; L]>) -> Vec<[u64; L]> {
    set.sort_unstable_by(numeric);
    set.dedup();
    set
}

/// The `∩_s` collector: the elements every set holds, once each, in
/// [`numeric`] order.
pub(crate) fn common<const L: usize>(sets: &[Vec<[u64; L]>]) -> Vec<[u64; L]> {
    let mut sets = sets.iter().map(|set| sorted(set.clone()));
    let mut common = sets.next().unwrap_or_default();
    for set in sets {
        common.retain(|e| holds(&set, e));
    }
    common
}

/// The `∪_s` collector: the elements of any set, once each, in
/// [`numeric`] order — without those of `held`, the collector's own set
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
    set.binary_search_by(|x| numeric(x, e)).is_ok()
}

/// Set elements, `limbs` words each, back to back, decoded when asked.
#[derive(Debug, Clone)]
pub struct Items {
    pub(crate) words: Vec<u64>,
    pub(crate) limbs: usize,
}

impl Items {
    pub(crate) fn new<const L: usize>(elements: Vec<[u64; L]>) -> Self {
        let (words, limbs) = (elements.into_flattened(), L);
        Items { words, limbs }
    }

    pub(crate) fn len(&self) -> usize {
        self.words.len() / self.limbs
    }

    /// The items, sorted and distinct, decoded on each call — for
    /// tests, examples and figures.
    #[must_use]
    pub fn items(&self) -> Vec<Vec<u8>> {
        let mut buf = [0; 8 * MAX_LIMBS];
        let mut items: Vec<Vec<u8>> = (self.words.chunks_exact(self.limbs))
            .map(|e| decode_into(e, &mut buf).to_vec())
            .collect();
        items.sort();
        items.dedup();
        items
    }

    /// Each element's item right-aligned in `N` bytes, in element
    /// order, with no allocation per item.
    ///
    /// # Errors
    ///
    /// [`MpcError::Protocol`] if an item is wider than `N` bytes: the
    /// run went over garbled traffic, e.g. a frame a lying relay or
    /// decryptor rewrote.
    pub fn items_as<const N: usize>(&self) -> Result<Vec<[u8; N]>, MpcError> {
        let mut buf = [0; 8 * MAX_LIMBS];
        (self.words.chunks_exact(self.limbs))
            .map(|e| {
                let item = decode_into(e, &mut buf);
                let Some(start) = N.checked_sub(item.len()) else {
                    return Err(MpcError::Protocol(format!(
                        "revealed item is {} bytes, expected at most {N}",
                        item.len()
                    )));
                };
                let mut out = [0; N];
                out[start..].copy_from_slice(item);
                Ok(out)
            })
            .collect()
    }
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
        self.net
            .send(from, to, self.frame.encode(&self.modulus, origin, set));
        let envelope = self.net.recv_from(to, from)?;
        let (_, set) = self.frame.decode(&self.modulus, &envelope.payload)?;
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
                (
                    from,
                    to,
                    self.frame.encode(&self.modulus, origin as u64, set),
                )
            });
            for (origin, envelope) in self.net.round(relays)?.into_iter().enumerate() {
                let (carried, elements) = self.frame.decode(&self.modulus, &envelope.payload)?;
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
                self.frame.encode(&self.modulus, origin as u64, set),
            )
        });
        let mut returned = Vec::with_capacity(n);
        for (origin, envelope) in self.net.round(collection)?.into_iter().enumerate() {
            let (_, elements) = self.frame.decode(&self.modulus, &envelope.payload)?;
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
    let distinct = sorted(returned.to_vec());
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

    /// One set element as a peer might send it, in the `k` words of
    /// `modulus`: any value, values just below and at or above the
    /// modulus, and the top of the words.
    pub(crate) fn element_words<const L: usize>(
        modulus: [u64; L],
    ) -> impl Strategy<Value = [u64; L]> {
        let k = limbs(&modulus);
        let within = move |mut e: [u64; L]| {
            e[k..].fill(0);
            e
        };
        let any_words = prop::collection::vec(any::<u64>(), L..L + 1)
            .prop_map(move |words| within(words.try_into().expect("L words")));
        prop_oneof![
            any_words,
            (0u64..4, any::<bool>()).prop_map(move |(n, above)| within(offset(&modulus, n, above))),
            Just(within([u64::MAX; L])),
        ]
    }

    /// A set frame of `elements` as a peer might send it: any `k`-word
    /// values, below the modulus or not.
    pub(crate) fn raw_frame<const L: usize>(
        frame: SetFrame,
        modulus: &[u64; L],
        origin: u64,
        elements: &[[u64; L]],
    ) -> Vec<u8> {
        let k = limbs(modulus);
        let mut w = Writer::new();
        w.put_u8(frame as u8);
        if frame == SetFrame::Intersection {
            w.put_u64(origin);
        }
        w.put_list(elements, |w, e| {
            for &word in e[..k].iter().rev() {
                w.put_u64(word);
            }
        });
        w.into_vec()
    }

    /// Whether every one of `elements` is below `modulus`.
    pub(crate) fn canonical<const L: usize>(elements: &[[u64; L]], modulus: &[u64; L]) -> bool {
        elements.iter().all(|e| numeric(e, modulus).is_lt())
    }

    /// An element is its domain's words and nothing else: `k` words of
    /// 8 bytes each, most significant first, no length before them. One
    /// word more or one fewer is refused.
    #[test]
    fn a_set_element_is_exactly_its_domains_words() {
        let modulus = CommutativeDomain::fixed_256().modulus_words::<4>();
        let x = [7u64, 6, 5, 4];
        let frame = SetFrame::Union.encode(&modulus, 0, &[x]);
        let words: Vec<u8> = [4u64, 5, 6, 7]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect();
        assert_eq!(
            frame[..],
            [&[0x02][..], &1u64.to_be_bytes(), &words].concat()
        );
        assert_eq!(SetFrame::Union.decode(&modulus, &frame).unwrap().1, [x]);
        let truncated = MpcError::Wire("malformed wire message: truncated u64".into());
        let err = SetFrame::Union.decode(&modulus, &frame[..frame.len() - 8]);
        assert_eq!(err.unwrap_err(), truncated);
        let longer = [&frame[..], &[0; 8]].concat();
        let trailing = MpcError::Wire("malformed wire message: trailing bytes".into());
        assert_eq!(
            SetFrame::Union.decode(&modulus, &longer).unwrap_err(),
            trailing
        );
        // A one-word modulus in four words: elements travel in one word.
        let one = [23u64, 0, 0, 0];
        let frame = SetFrame::Intersection.encode(&one, 9, &[[5, 0, 0, 0]]);
        assert_eq!(frame.len(), 1 + 8 + 8 + 8);
        let (origin, set) = SetFrame::Intersection.decode(&one, &frame).unwrap();
        assert_eq!((origin, set), (Some(9), vec![[5, 0, 0, 0]]));
    }

    /// The mutant that drops the below-modulus check would take
    /// `p + k`, which fits the domain's words, as a second encoding of
    /// `k`: the decoder refuses it, and takes `p − 1`.
    #[test]
    fn a_set_element_at_or_above_the_modulus_is_refused() {
        let modulus = CommutativeDomain::fixed_256().modulus_words::<4>();
        let frame = |e: [u64; 4]| raw_frame(SetFrame::Union, &modulus, 0, &[e]);
        for k in [0, 1, 7] {
            let err = SetFrame::Union.decode(&modulus, &frame(offset(&modulus, k, true)));
            let refused = MpcError::Wire("set element not below the modulus".into());
            assert_eq!(err.unwrap_err(), refused, "p + {k}");
        }
        let top = offset(&modulus, 0, false);
        assert_eq!(
            SetFrame::Union.decode(&modulus, &frame(top)).unwrap().1,
            [top]
        );
    }

    /// The collectors list elements in the order of the numbers they
    /// are: the most significant word decides first.
    #[test]
    fn the_collectors_order_is_numeric() {
        let cases: [[u64; 4]; 7] = [
            [u64::MAX, 0, 0, 1],
            [0, 1, 0, 0],
            [0x1ff, 0, 0, 0],
            [0x100, 0, 0, 0],
            [2, 0, 0, 0],
            [1, 0, 0, 0],
            [0; 4],
        ];
        let set = merged(&[cases.to_vec(), cases[..3].to_vec()], None);
        let mut expect = cases.to_vec();
        expect.reverse();
        assert_eq!(set, expect);
        assert_eq!(
            common(&[cases.to_vec(), cases[2..4].to_vec()]),
            [cases[3], cases[2]]
        );
        for a in &cases {
            for b in &cases {
                let value = |e: &[u64; 4]| dla_bigint::Ubig::from_limbs(e.to_vec());
                assert_eq!(numeric(a, b), value(a).cmp(&value(b)), "{a:?} {b:?}");
            }
        }
    }
}

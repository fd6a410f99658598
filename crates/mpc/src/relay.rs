//! The commutative-cipher ring relay that `∩_s` (paper §3.1, Figure 4)
//! and `∪_s` (§3.4) share: the owner layer, the `n−1` relay rounds that
//! give every set all `n` layers, the collection round, the decryption
//! pass and the one set-frame codec. The protocol modules keep only
//! their collector steps.

use crate::MpcError;
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_net::topology::Ring;
use dla_net::wire::{Reader, Writer};
use dla_net::{Envelope, NodeId, Session};
use std::collections::BTreeSet;

/// The frame a relay's sets travel in; the discriminant is its wire tag.
/// `∩_s` frames are `0x01 ‖ origin ‖ elements`, `∪_s` frames
/// `0x02 ‖ elements`.
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
    pub(crate) fn encode(self, origin: u64, elements: &[Ubig]) -> bytes::Bytes {
        let mut w = Writer::new();
        w.put_u8(self as u8);
        if self == SetFrame::Intersection {
            w.put_u64(origin);
        }
        w.put_list(elements, |w, e| {
            w.put_bytes(&e.to_bytes_be());
        });
        w.finish()
    }

    /// The origin (`∩_s` only) and the elements of a set frame. An
    /// element has one encoding: no leading zero byte, and below the
    /// domain's modulus — at or above it, it would act as its own
    /// reduction.
    pub(crate) fn decode(
        self,
        payload: &[u8],
        modulus: &Ubig,
    ) -> Result<(Option<u64>, Vec<Ubig>), MpcError> {
        let mut r = Reader::open(payload, self as u8)?;
        let origin = (self == SetFrame::Intersection)
            .then(|| r.get_u64())
            .transpose()?;
        let elements = r.get_list(|r| r.get_minimal_uint().map(Ubig::from_bytes_be))?;
        r.finish()?;
        if elements.iter().any(|e| e >= modulus) {
            return Err(MpcError::Wire("set element not below the modulus".into()));
        }
        Ok((origin, elements))
    }
}

/// One relay over `ring` towards `collector`, in `frame`s.
pub(crate) struct Relay<'s, 'a> {
    pub(crate) net: &'s Session<'a>,
    pub(crate) ring: &'a Ring,
    /// The domain's modulus, which every element must be below.
    pub(crate) modulus: &'a Ubig,
    pub(crate) collector: NodeId,
    pub(crate) frame: SetFrame,
}

impl Relay<'_, '_> {
    /// `set` from `from` to `to` in a round of its own, decoded on
    /// arrival.
    pub(crate) fn hand(
        &self,
        from: NodeId,
        to: NodeId,
        origin: u64,
        set: &[Ubig],
    ) -> Result<Vec<Ubig>, MpcError> {
        self.net.send(from, to, self.frame.encode(origin, set));
        let envelope = self.net.recv_from(to, from)?;
        let (_, set) = self.frame.decode(&envelope.payload, self.modulus)?;
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
    pub(crate) fn encrypt_and_collect(
        &self,
        keys: &[PhKey],
        encoded: &[Vec<Ubig>],
        mut on_hop: impl FnMut(usize, usize, Option<&Envelope>, &[Ubig]),
    ) -> Result<Vec<Vec<Ubig>>, MpcError> {
        let (ring, n) = (self.ring, self.ring.len());
        let mut sets: Vec<Vec<Ubig>> = Vec::with_capacity(n);
        for (origin, (key, plain)) in keys.iter().zip(encoded).enumerate() {
            let encrypted = key.encrypt_batch(plain, Default::default());
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
                let (carried, elements) = self.frame.decode(&envelope.payload, self.modulus)?;
                if let Some(tag) = carried.filter(|&tag| tag != origin as u64) {
                    return Err(MpcError::Protocol(format!(
                        "relay for set {origin} carried origin tag {tag}"
                    )));
                }
                let holder = (origin + hop) % n;
                sets[origin] = keys[holder].encrypt_batch(&elements, Default::default());
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
            let (_, elements) = self.frame.decode(&envelope.payload, self.modulus)?;
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
        mut set: Vec<Ubig>,
    ) -> Result<(Vec<Ubig>, usize), MpcError> {
        let mut holder = self.collector;
        for &pos in positions {
            let node = self.ring.at(pos);
            let arrived = self.hand(holder, node, PASS_ORIGIN, &set)?;
            set = keys[pos].decrypt_batch(&arrived, Default::default());
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
pub(crate) fn encode_canonical(
    domain: &CommutativeDomain,
    inputs: &[Vec<Vec<u8>>],
) -> Result<Vec<Vec<Ubig>>, MpcError> {
    inputs
        .iter()
        .map(|raw| {
            let canonical: BTreeSet<&Vec<u8>> = raw.iter().collect();
            let mut seen = BTreeSet::new();
            let mut encoded = Vec::with_capacity(canonical.len());
            for item in canonical {
                let element = domain.encode(item)?;
                if seen.insert(element.clone()) {
                    encoded.push(element);
                }
            }
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
fn check_own_set(returned: &[Ubig], sent: usize) -> Result<(), MpcError> {
    let distinct: BTreeSet<&Ubig> = returned.iter().collect();
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

    /// The bytes of one set element as a peer might send them: short
    /// strings that may lead with a zero byte, and values just below
    /// and at or above `modulus`.
    pub(crate) fn element_bytes(modulus: &Ubig) -> impl Strategy<Value = Vec<u8>> {
        let modulus = modulus.clone();
        prop_oneof![
            prop::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..6),
            (0u64..4, any::<bool>()).prop_map(move |(k, above)| {
                let k = Ubig::from_u64(k);
                let v = if above {
                    &modulus + &k
                } else {
                    &(&modulus - &Ubig::one()) - &k
                };
                v.to_bytes_be()
            }),
        ]
    }

    /// Whether `elements` are each in their one encoding below `modulus`.
    pub(crate) fn canonical(elements: &[Vec<u8>], modulus: &Ubig) -> bool {
        (elements.iter()).all(|e| e.first() != Some(&0) && Ubig::from_bytes_be(e) < *modulus)
    }
}

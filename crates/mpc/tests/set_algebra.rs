//! `∩ₛ`/`∪ₛ` against plain `BTreeSet` algebra in every protocol shape —
//! ring sizes 1–5, collector inside or outside the ring, reveal on or
//! off, degenerate inputs — and a wire-level check of what the
//! owner-knowledge shortcuts put on the network.

use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::{SsiSession, UnionSession};
use dla_net::adversary::CapturedMessage;
use dla_net::topology::Ring;
use dla_net::wire::Reader;
use dla_net::{AdversaryNet, NetConfig, NodeId, ScriptedAdversary, Session, SharedNet, SimNet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

fn item(i: usize) -> Vec<u8> {
    format!("item-{i:02}").into_bytes()
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// One input set per party in one of five shapes; `Vec`s, so the
/// duplicate-laden shape really hands the protocol repeated items.
fn inputs_of(shape: usize, n: usize, rng: &mut StdRng) -> Vec<Vec<Vec<u8>>> {
    let subset = |rng: &mut StdRng| -> Vec<Vec<u8>> {
        let mut universe: Vec<usize> = (0..12).collect();
        shuffle(&mut universe, rng);
        let size = rng.gen_range(0..=6);
        universe[..size].iter().map(|&i| item(i)).collect()
    };
    match shape {
        // Independent random subsets of a small universe.
        0 => (0..n).map(|_| subset(rng)).collect(),
        // The same, with one party (or every party) empty.
        1 => {
            let empty = rng.gen_range(0..=n);
            (0..n)
                .map(|i| {
                    if i == empty || empty == n {
                        Vec::new()
                    } else {
                        subset(rng)
                    }
                })
                .collect()
        }
        // Pairwise disjoint.
        2 => (0..n).map(|i| vec![item(2 * i), item(2 * i + 1)]).collect(),
        // Identical.
        3 => vec![subset(rng); n],
        // Duplicate-laden: every item one to three times, shuffled.
        _ => (0..n)
            .map(|_| {
                let mut set: Vec<Vec<u8>> = subset(rng)
                    .into_iter()
                    .flat_map(|it| vec![it; rng.gen_range(1..=3)])
                    .collect();
                shuffle(&mut set, rng);
                set
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn sessions_equal_plain_set_algebra(
        n in 1usize..=5,
        shape in 0usize..5,
        inside in any::<bool>(),
        reveal in any::<bool>(),
        reversed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = inputs_of(shape, n, &mut rng);
        let plain: Vec<BTreeSet<Vec<u8>>> =
            inputs.iter().map(|s| s.iter().cloned().collect()).collect();
        let intersection: Vec<Vec<u8>> = plain[1..]
            .iter()
            .fold(plain[0].clone(), |acc, s| &acc & s)
            .into_iter()
            .collect();
        let union: Vec<Vec<u8>> =
            plain.iter().flatten().cloned().collect::<BTreeSet<_>>().into_iter().collect();

        let order: Vec<NodeId> = if reversed {
            (0..n).rev().map(NodeId).collect()
        } else {
            (0..n).map(NodeId).collect()
        };
        let ring = Ring::new(order);
        let collector = if inside { NodeId(rng.gen_range(0..n)) } else { NodeId(n) };
        let domain = CommutativeDomain::fixed_256();
        let link = SharedNet::new(SimNet::new(n + 1, NetConfig::ideal()));
        let (ssi_id, union_id) = {
            let mut net = link.lock();
            (net.open_session(), net.open_session())
        };

        let ssi = SsiSession::new(Session::new(&link, ssi_id), &ring, &domain, collector)
            .reveal(reveal)
            .run(&inputs, &mut rng)
            .unwrap();
        prop_assert_eq!(ssi.cardinality(), intersection.len());
        prop_assert_eq!(ssi.common_items.map(|c| c.items()), reveal.then_some(intersection));

        let joined = UnionSession::new(Session::new(&link, union_id), &ring, &domain, collector)
            .run(&inputs, &mut rng)
            .unwrap();
        prop_assert_eq!(joined.items.items(), union);
    }
}

/// Every plaintext encoding of every party, as it would look on the
/// wire, next to the node that owns it.
fn plaintext_needles(
    domain: &CommutativeDomain,
    ring: &Ring,
    inputs: &[Vec<Vec<u8>>],
) -> Vec<(NodeId, Vec<u8>)> {
    inputs
        .iter()
        .enumerate()
        .flat_map(|(pos, set)| {
            set.iter()
                .map(move |it| (ring.at(pos), domain.encode(it).unwrap().to_bytes_be()))
        })
        .collect()
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// An ideal `n`-node simulator under a tap that records every message
/// it carries.
fn capturing_net(n: usize) -> (AdversaryNet<SharedNet>, Arc<ScriptedAdversary>) {
    let net = AdversaryNet::new(SharedNet::new(SimNet::new(n, NetConfig::ideal())));
    let tap = Arc::new((0..n).fold(ScriptedAdversary::new(), ScriptedAdversary::curious));
    net.set_adversary(tap.clone());
    (net, tap)
}

#[test]
fn ring_collector_reveal_sends_nothing_after_collection_and_no_plaintext() {
    let n = 4;
    let ring = Ring::canonical(n);
    let domain = CommutativeDomain::fixed_256();
    let inputs: Vec<Vec<Vec<u8>>> = (0..n)
        .map(|i| vec![item(0), item(1), item(10 + i)])
        .collect();
    let needles = plaintext_needles(&domain, &ring, &inputs);
    for collector in (0..n).map(NodeId) {
        let (net, tap) = capturing_net(n);
        let mut rng = StdRng::seed_from_u64(77);
        let outcome = SsiSession::new(Session::root(&net), &ring, &domain, collector)
            .reveal(true)
            .run(&inputs, &mut rng)
            .unwrap();
        assert_eq!(
            outcome.common_items.unwrap().items(),
            vec![item(0), item(1)]
        );

        // n(n−1) relay hops, then the collection round — and nothing
        // after it: no node is asked to decrypt anything.
        let wire = tap.captured();
        assert_eq!(wire.len(), n * (n - 1) + n);
        for message in &wire[n * (n - 1)..] {
            assert_eq!(
                message.to, collector,
                "only the collector hears the collection round"
            );
        }
        // No plaintext encoding — anyone's — ever crosses the wire.
        for CapturedMessage {
            from, to, payload, ..
        } in &wire
        {
            for (owner, needle) in &needles {
                assert!(
                    !contains(payload, needle),
                    "{from}->{to} carries a plaintext of {owner}"
                );
            }
        }
    }
}

/// The group elements of a `∪ₛ` message on the 256-bit domain: four
/// words each.
fn union_elements(payload: &[u8]) -> BTreeSet<Vec<u64>> {
    let mut r = Reader::new(payload);
    assert_eq!(r.get_u8().unwrap(), 0x02);
    let elements = r
        .get_list(|r| (0..4).map(|_| r.get_u64()).collect())
        .unwrap();
    r.finish().unwrap();
    elements.into_iter().collect()
}

#[test]
fn ring_collector_union_shows_no_relay_a_plaintext_or_a_linkable_ciphertext() {
    // Every party shares item 0 with the collector and holds one item
    // the collector lacks. A relay that saw plaintexts in the pass, or
    // pass ciphertexts it could match against anything it handled
    // during the relay rounds, could sort its own items by whether the
    // collector holds them too.
    let domain = CommutativeDomain::fixed_256();
    for n in [2usize, 3, 4] {
        let ring = Ring::canonical(n);
        let inputs: Vec<Vec<Vec<u8>>> = (0..n).map(|i| vec![item(0), item(10 + i)]).collect();
        let needles = plaintext_needles(&domain, &ring, &inputs);
        for collector in (0..n).map(NodeId) {
            let (net, tap) = capturing_net(n);
            let mut rng = StdRng::seed_from_u64(78);
            let outcome = UnionSession::new(Session::root(&net), &ring, &domain, collector)
                .run(&inputs, &mut rng)
                .unwrap();
            assert_eq!(outcome.cardinality(), n + 1);

            // n(n−1) relay hops, n collection messages, then the pass:
            // n−1 relays and the hand-back to the collector.
            let wire = tap.captured();
            let (before, pass) = wire.split_at(n * (n - 1) + n);
            assert_eq!(pass.len(), n);
            assert_eq!(pass.last().unwrap().to, collector);

            // No plaintext encoding — anyone's — crosses the wire, the
            // pass included: its last layer comes off at the collector.
            for CapturedMessage {
                from, to, payload, ..
            } in &wire
            {
                for (owner, needle) in &needles {
                    assert!(
                        !contains(payload, needle),
                        "{from}->{to} carries a plaintext of {owner}"
                    );
                }
            }
            // The pass carries the n−1 elements the collector lacks.
            for message in pass {
                assert_eq!(union_elements(&message.payload).len(), n - 1);
            }
            // Per relay: nothing it sent or received in the pass equals
            // anything it sent or received before it.
            for relay in (0..n).map(NodeId).filter(|&node| node != collector) {
                let view = |messages: &[CapturedMessage]| -> BTreeSet<Vec<u64>> {
                    messages
                        .iter()
                        .filter(|m| m.from == relay || m.to == relay)
                        .flat_map(|m| union_elements(&m.payload))
                        .collect()
                };
                let (earlier, in_pass) = (view(before), view(pass));
                assert!(!in_pass.is_empty(), "every relay takes part in the pass");
                assert!(
                    earlier.is_disjoint(&in_pass),
                    "n={n}: {relay} can link the pass to the relay rounds"
                );
            }
        }
    }
}

#[test]
fn items_differing_in_leading_zeros_are_one_element() {
    // `encode` reads an item as a big-endian number, so [0,1] and [1]
    // are one group element: they travel (and count) as one, also in a
    // ring collector's own set, whose returned length is checked.
    let ring = Ring::canonical(2);
    let domain = CommutativeDomain::fixed_256();
    let inputs = vec![
        vec![vec![0x00, 0x01], vec![0x00, 0x02], vec![0x01]],
        vec![vec![0x01], vec![0x03]],
    ];
    let net = SharedNet::new(SimNet::new(2, NetConfig::ideal()));
    let session = Session::root(&net);
    let mut rng = StdRng::seed_from_u64(80);
    let ssi = SsiSession::new(session, &ring, &domain, NodeId(0))
        .reveal(true)
        .run(&inputs, &mut rng)
        .unwrap();
    assert_eq!(ssi.common_items.unwrap().items(), vec![vec![0x01]]);
    let union = UnionSession::new(session, &ring, &domain, NodeId(0))
        .run(&inputs, &mut rng)
        .unwrap();
    assert_eq!(
        union.items.items(),
        vec![vec![0x01], vec![0x02], vec![0x03]]
    );
}

#[test]
fn single_holder_reveal_is_one_message_between_holder_and_collector() {
    let ring = Ring::new(vec![NodeId(2)]);
    let domain = CommutativeDomain::fixed_256();
    let inputs = vec![vec![item(3), item(4)]];
    let (net, tap) = capturing_net(4);
    let mut rng = StdRng::seed_from_u64(79);
    let outcome = SsiSession::new(Session::root(&net), &ring, &domain, NodeId(3))
        .reveal(true)
        .run(&inputs, &mut rng)
        .unwrap();
    let revealed = outcome.common_items.as_ref().map(|c| c.items());
    assert_eq!(revealed, Some(vec![item(3), item(4)]));
    let wire = tap.captured();
    assert_eq!(wire.len(), 1);
    assert_eq!((wire[0].from, wire[0].to), (NodeId(2), NodeId(3)));
    // What the collector ends up holding is what it was sent.
    let shipped: Vec<Ubig> = inputs[0]
        .iter()
        .map(|it| domain.encode(it).unwrap())
        .collect();
    assert_eq!(outcome.common_encrypted(), shipped);
}

//! Secure set intersection `∩_s` (paper §3.1, Figure 4).
//!
//! Each DLA node holds a private set. Every set is encrypted by its
//! owner and relayed around the ring, each hop adding that node's
//! commutative-encryption layer; after `n−1` hops every set carries all
//! `n` layers. Because the cipher commutes, equal plaintexts — and only
//! equal plaintexts — produce equal fully-encrypted values
//! (`E132(e) = E321(e) = E213(e)` in Figure 4), so the collector can
//! intersect ciphertexts. Plaintexts of the intersection are recovered
//! by one decryption pass around the ring — unless a party already
//! holds them:
//!
//! * a collector that **is a ring position** owns one of the input
//!   sets, and every common element is in it. Relays encrypt element by
//!   element and **preserve order**, so element `j` of its own set,
//!   returned fully encrypted, is the ciphertext of its plaintext `j`:
//!   it reads the answer off its own list and no decryption pass runs.
//!   Its set coming back with a different length, or a repeated
//!   ciphertext, is a protocol error. Order preservation itself is a
//!   **trust assumption** the collector cannot check: a relay that
//!   permutes the set makes it report the right number of wrong items.
//!   `∩ₛ` is a protocol for honest-but-curious relays — the
//!   decryption pass trusts its decryptors the same way (the last one
//!   may hand back any plaintexts it likes);
//! * a **one-position ring with reveal** has nothing to intersect with
//!   and ends with the collector holding the holder's plaintexts, so
//!   the holder ships its encoded set in one message and no layer is
//!   ever applied.
//!
//! What leaks (allowed "secondary information", Definition 1): set
//! sizes, and to the collector the intersection cardinality; plaintext
//! values of *common* elements leak only to the collector and the
//! parties a reveal pass visits, which is the paper's "matter of choice
//! to decide which node(s) would receive" the result.

use crate::report::{Meter, ProtocolReport};
use crate::MpcError;
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_net::topology::Ring;
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session, SharedNet, SimNet};
use rand::Rng;
use std::collections::BTreeSet;

/// Result of a secure set intersection run.
#[derive(Debug, Clone)]
pub struct SsiOutcome {
    /// Fully-encrypted common elements (sorted, deduplicated). A
    /// one-position ring with reveal applies no layer: there these are
    /// the holder's encodings.
    pub common_encrypted: Vec<Ubig>,
    /// Decrypted common items (present only when `reveal` was
    /// requested).
    pub common_items: Option<Vec<Vec<u8>>>,
    /// Cost accounting.
    pub report: ProtocolReport,
}

impl SsiOutcome {
    /// The intersection cardinality (available without reveal).
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.common_encrypted.len()
    }
}

/// One step of the Figure 4 trace: which set sits where, wearing which
/// encryption layers.
#[derive(Debug, Clone)]
pub struct TraceHop {
    /// Ring position whose input set this is.
    pub origin: usize,
    /// Ring position currently holding the set.
    pub holder: usize,
    /// Ring positions whose keys have been applied, outermost last.
    pub layers: Vec<usize>,
    /// The encrypted elements, in the owner's canonical order.
    pub elements: Vec<Ubig>,
}

/// Runs `∩_s` over the ring; see the module docs for the protocol.
///
/// `inputs[i]` is the private set of the node at ring position `i`
/// (byte items; duplicates are removed). When `reveal` is true, the
/// intersection's plaintexts are recovered — by a decryption pass, or
/// from the collector's own set when it is a ring position — and
/// returned.
///
/// # Errors
///
/// Returns [`MpcError`] on network failures (dropped messages),
/// malformed payloads, or items longer than the domain's
/// encodable width.
///
/// # Panics
///
/// Panics if `inputs.len() != ring.len()`.
pub fn secure_set_intersection<R: Rng + ?Sized>(
    net: &mut SimNet,
    ring: &Ring,
    domain: &CommutativeDomain,
    inputs: &[Vec<Vec<u8>>],
    collector: NodeId,
    reveal: bool,
    rng: &mut R,
) -> Result<SsiOutcome, MpcError> {
    let link = SharedNet::new(net);
    let session = Session::root(&link);
    run(&session, ring, domain, inputs, collector, reveal, rng, None)
}

/// The session-parameterized form of `∩_s`: bind the protocol to any
/// [`Session`] so several rings can be in flight over one transport at
/// once.
///
/// ```
/// use dla_mpc::set_intersection::SsiSession;
/// use dla_net::topology::Ring;
/// use dla_net::{NetConfig, NodeId, Session, SharedNet, SimNet};
/// use dla_crypto::pohlig_hellman::CommutativeDomain;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut net = SimNet::new(3, NetConfig::ideal());
/// let session_id = net.open_session();
/// let link = SharedNet::new(&mut net);
/// let ring = Ring::canonical(3);
/// let domain = CommutativeDomain::fixed_256();
/// let mut rng = StdRng::seed_from_u64(7);
/// let inputs = vec![vec![b"e".to_vec()], vec![b"e".to_vec()], vec![b"e".to_vec()]];
/// let outcome = SsiSession::new(Session::new(&link, session_id), &ring, &domain, NodeId(0))
///     .run(&inputs, &mut rng)
///     .unwrap();
/// assert_eq!(outcome.cardinality(), 1);
/// ```
#[derive(Debug)]
pub struct SsiSession<'a> {
    session: Session<'a>,
    ring: &'a Ring,
    domain: &'a CommutativeDomain,
    collector: NodeId,
    reveal: bool,
}

impl<'a> SsiSession<'a> {
    /// Binds `∩_s` to `session`; the intersection is collected (without
    /// reveal) at `collector`.
    #[must_use]
    pub fn new(
        session: Session<'a>,
        ring: &'a Ring,
        domain: &'a CommutativeDomain,
        collector: NodeId,
    ) -> Self {
        SsiSession {
            session,
            ring,
            domain,
            collector,
            reveal: false,
        }
    }

    /// Requests the intersection's plaintexts at the collector.
    #[must_use]
    pub fn reveal(mut self, reveal: bool) -> Self {
        self.reveal = reveal;
        self
    }

    /// Runs the protocol over this session.
    ///
    /// # Errors
    ///
    /// As [`secure_set_intersection`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != ring.len()`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        inputs: &[Vec<Vec<u8>>],
        rng: &mut R,
    ) -> Result<SsiOutcome, MpcError> {
        run(
            &self.session,
            self.ring,
            self.domain,
            inputs,
            self.collector,
            self.reveal,
            rng,
            None,
        )
    }
}

/// Like [`secure_set_intersection`], additionally recording every hop
/// for the Figure 4 walkthrough.
///
/// # Errors
///
/// As [`secure_set_intersection`].
pub fn secure_set_intersection_traced<R: Rng + ?Sized>(
    net: &mut SimNet,
    ring: &Ring,
    domain: &CommutativeDomain,
    inputs: &[Vec<Vec<u8>>],
    collector: NodeId,
    reveal: bool,
    rng: &mut R,
) -> Result<(SsiOutcome, Vec<TraceHop>), MpcError> {
    let mut trace = Vec::new();
    let link = SharedNet::new(net);
    let session = Session::root(&link);
    let outcome = run(
        &session,
        ring,
        domain,
        inputs,
        collector,
        reveal,
        rng,
        Some(&mut trace),
    )?;
    Ok((outcome, trace))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run<R: Rng + ?Sized>(
    net: &Session<'_>,
    ring: &Ring,
    domain: &CommutativeDomain,
    inputs: &[Vec<Vec<u8>>],
    collector: NodeId,
    reveal: bool,
    rng: &mut R,
    mut trace: Option<&mut Vec<TraceHop>>,
) -> Result<SsiOutcome, MpcError> {
    let n = ring.len();
    assert_eq!(
        inputs.len(),
        n,
        "one input set per ring position is required"
    );
    let meter = Meter::start_session(net);
    let _telemetry = crate::report::SessionTelemetry::begin(net, "secure-set-intersection");

    let encoded = encode_canonical(domain, inputs)?;

    // One holder, reveal: the collector ends up with the holder's
    // plaintexts whatever happens in between, so they are all it is
    // sent.
    if n == 1 && reveal {
        let holder = ring.at(0);
        net.send(holder, collector, encode_set(0, &encoded[0]));
        let envelope = net.recv_from(collector, holder)?;
        let (_, elements) = decode_set(&envelope.payload)?;
        let mut items: Vec<Vec<u8>> = elements.iter().map(|e| domain.decode(e)).collect();
        items.sort();
        let report = meter.finish_session(net, "secure-set-intersection", n, 1);
        return Ok(SsiOutcome {
            common_encrypted: elements,
            common_items: Some(items),
            report,
        });
    }

    // Per-party key generation (local, no traffic), then each owner
    // applies its own layer.
    let keys: Vec<PhKey> = (0..n).map(|_| PhKey::generate(domain, rng)).collect();
    let mut sets: Vec<Vec<Ubig>> = Vec::with_capacity(n);
    for (i, plain) in encoded.iter().enumerate() {
        let encrypted = keys[i].encrypt_batch(plain, Default::default());
        if let Some(t) = trace.as_deref_mut() {
            t.push(TraceHop {
                origin: i,
                holder: i,
                layers: vec![i],
                elements: encrypted.clone(),
            });
        }
        sets.push(encrypted);
    }

    // n−1 relay rounds: set of origin i moves i → i+1 → … → i+n−1.
    let mut layer_history: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    #[allow(clippy::needless_range_loop)] // origin indexes sets/history in parallel
    for hop in 1..n {
        for origin in 0..n {
            let from = ring.at((origin + hop - 1) % n);
            let to = ring.at((origin + hop) % n);
            net.send(from, to, encode_set(origin as u64, &sets[origin]));
            let envelope = net.recv_from(to, from)?;
            if dla_telemetry::is_active() {
                dla_telemetry::event(
                    "relay-hop",
                    net.elapsed().as_nanos(),
                    &[
                        ("origin", &origin.to_string()),
                        ("from", &from.to_string()),
                        ("to", &to.to_string()),
                    ],
                );
            }
            let (origin_check, elements) = decode_set(&envelope.payload)?;
            if origin_check as usize != origin {
                return Err(MpcError::Protocol(format!(
                    "relay for set {origin} carried origin tag {origin_check}"
                )));
            }
            let holder_pos = (origin + hop) % n;
            let re_encrypted = keys[holder_pos].encrypt_batch(&elements, Default::default());
            layer_history[origin].push(holder_pos);
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceHop {
                    origin,
                    holder: holder_pos,
                    layers: layer_history[origin].clone(),
                    elements: re_encrypted.clone(),
                });
            }
            sets[origin] = re_encrypted;
        }
    }

    // Collection round: final holders ship the fully-encrypted sets to
    // the collector, which intersects ciphertext sets.
    let own = ring.position(collector);
    let mut returned: Vec<Vec<Ubig>> = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // origin indexes sets and ring positions together
    for origin in 0..n {
        let final_holder = ring.at((origin + n - 1) % n);
        net.send(
            final_holder,
            collector,
            encode_set(origin as u64, &sets[origin]),
        );
        let envelope = net.recv_from(collector, final_holder)?;
        let (_, elements) = decode_set(&envelope.payload)?;
        if own == Some(origin) {
            check_own_set(&elements, encoded[origin].len())?;
        }
        returned.push(elements);
    }
    let received: Vec<BTreeSet<Vec<u8>>> = returned
        .iter()
        .map(|set| set.iter().map(Ubig::to_bytes_be).collect())
        .collect();
    let mut common: BTreeSet<Vec<u8>> = received.first().cloned().unwrap_or_default();
    for set in &received[1..] {
        common = common.intersection(set).cloned().collect();
    }
    let common_encrypted: Vec<Ubig> = common.iter().map(|b| Ubig::from_bytes_be(b)).collect();

    // Optional reveal. A ring-position collector already holds every
    // common plaintext: the ones whose ciphertexts, at the same
    // positions of its own returned set, survived the intersection.
    // Anyone else needs one decryption pass around the ring.
    let mut rounds = (n - 1) + 1;
    let common_items = if !reveal {
        None
    } else if let Some(pos) = own {
        let mut items: Vec<Vec<u8>> = returned[pos]
            .iter()
            .zip(&encoded[pos])
            .filter(|(ciphertext, _)| common.contains(&ciphertext.to_bytes_be()))
            .map(|(_, plain)| domain.decode(plain))
            .collect();
        items.sort();
        Some(items)
    } else {
        let mut current = common_encrypted.clone();
        let mut holder = collector;
        #[allow(clippy::needless_range_loop)] // pos walks the ring and the key table together
        for pos in 0..n {
            let node = ring.at(pos);
            net.send(holder, node, encode_set(u64::MAX, &current));
            let envelope = net.recv_from(node, holder)?;
            let (_, elements) = decode_set(&envelope.payload)?;
            current = keys[pos].decrypt_batch(&elements, Default::default());
            holder = node;
        }
        net.send(holder, collector, encode_set(u64::MAX, &current));
        let envelope = net.recv_from(collector, holder)?;
        let (_, elements) = decode_set(&envelope.payload)?;
        rounds += n + 1;
        let mut items: Vec<Vec<u8>> = elements.iter().map(|e| domain.decode(e)).collect();
        items.sort();
        Some(items)
    };

    let report = meter.finish_session(net, "secure-set-intersection", n, rounds);
    Ok(SsiOutcome {
        common_encrypted,
        common_items,
        report,
    })
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
/// many other distinct values, passes it (see the module docs).
pub(crate) fn check_own_set(returned: &[Ubig], sent: usize) -> Result<(), MpcError> {
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

/// Wire tag of every SSI relay/collection message — the byte an
/// interposed adversary matches on to target ring ciphertext blobs
/// (see `dla_net::adversary`).
pub const SET_TAG: u8 = 0x01;

fn encode_set(origin: u64, elements: &[Ubig]) -> bytes::Bytes {
    let mut w = Writer::new();
    w.put_u8(SET_TAG)
        .put_u64(origin)
        .put_list(elements, |w, e| {
            w.put_bytes(&e.to_bytes_be());
        });
    w.finish()
}

fn decode_set(payload: &[u8]) -> Result<(u64, Vec<Ubig>), MpcError> {
    let mut r = Reader::new(payload);
    let tag = r.get_u8()?;
    if tag != SET_TAG {
        return Err(MpcError::Wire(format!("unexpected message tag {tag}")));
    }
    let origin = r.get_u64()?;
    let elements = r.get_list(|r| r.get_bytes().map(Ubig::from_bytes_be))?;
    r.finish()?;
    Ok((origin, elements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_net::NetConfig;
    use rand::SeedableRng;

    fn items(names: &[&str]) -> Vec<Vec<u8>> {
        names.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn setup(n: usize) -> (SimNet, Ring, CommutativeDomain, rand::rngs::StdRng) {
        (
            SimNet::new(n, NetConfig::ideal()),
            Ring::canonical(n),
            CommutativeDomain::fixed_256(),
            rand::rngs::StdRng::seed_from_u64(1000),
        )
    }

    #[test]
    fn figure4_example_intersects_to_e() {
        // S1={c,d,e}, S2={d,e,f}, S3={e,f,g} → {e}.
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![
            items(&["c", "d", "e"]),
            items(&["d", "e", "f"]),
            items(&["e", "f", "g"]),
        ];
        let outcome =
            secure_set_intersection(&mut net, &ring, &domain, &inputs, NodeId(0), true, &mut rng)
                .unwrap();
        assert_eq!(outcome.cardinality(), 1);
        assert_eq!(outcome.common_items.unwrap(), items(&["e"]));
    }

    #[test]
    fn empty_intersection() {
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![items(&["a"]), items(&["b"]), items(&["c"])];
        let outcome =
            secure_set_intersection(&mut net, &ring, &domain, &inputs, NodeId(1), true, &mut rng)
                .unwrap();
        assert_eq!(outcome.cardinality(), 0);
        assert_eq!(outcome.common_items.unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn identical_sets_intersect_fully() {
        let (mut net, ring, domain, mut rng) = setup(4);
        let set = items(&["x", "y", "z"]);
        let inputs = vec![set.clone(), set.clone(), set.clone(), set.clone()];
        let outcome =
            secure_set_intersection(&mut net, &ring, &domain, &inputs, NodeId(0), true, &mut rng)
                .unwrap();
        let mut expect = set;
        expect.sort();
        assert_eq!(outcome.common_items.unwrap(), expect);
    }

    #[test]
    fn duplicates_in_input_are_collapsed() {
        let (mut net, ring, domain, mut rng) = setup(2);
        let inputs = vec![items(&["a", "a", "b"]), items(&["a", "b", "b"])];
        let outcome =
            secure_set_intersection(&mut net, &ring, &domain, &inputs, NodeId(0), true, &mut rng)
                .unwrap();
        assert_eq!(outcome.common_items.unwrap(), items(&["a", "b"]));
    }

    #[test]
    fn cardinality_without_reveal_keeps_items_hidden() {
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![items(&["k1", "k2"]), items(&["k2", "k3"]), items(&["k2"])];
        let outcome = secure_set_intersection(
            &mut net,
            &ring,
            &domain,
            &inputs,
            NodeId(2),
            false,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.cardinality(), 1);
        assert!(outcome.common_items.is_none());
    }

    #[test]
    fn message_complexity_is_n_times_n_minus_1_plus_n() {
        // A ring-position collector reads the plaintexts off its own
        // set: reveal costs it no message and no round.
        for n in [2usize, 3, 5] {
            for reveal in [false, true] {
                let (mut net, ring, domain, mut rng) = setup(n);
                let inputs = vec![items(&["a", "b"]); n];
                let outcome = secure_set_intersection(
                    &mut net,
                    &ring,
                    &domain,
                    &inputs,
                    NodeId(0),
                    reveal,
                    &mut rng,
                )
                .unwrap();
                let report = &outcome.report;
                assert_eq!(report.messages as usize, n * (n - 1) + n, "n={n}");
                assert_eq!(report.rounds, n, "n={n} reveal={reveal}");
                assert_eq!(outcome.common_items.is_some(), reveal);
            }
        }
    }

    #[test]
    fn message_complexity_with_an_outside_collector_adds_the_reveal_pass() {
        for n in [1usize, 2, 4] {
            for reveal in [false, true] {
                let mut net = SimNet::new(n + 1, NetConfig::ideal());
                let (_, ring, domain, mut rng) = setup(n);
                let inputs = vec![items(&["a", "b"]); n];
                let outcome = secure_set_intersection(
                    &mut net,
                    &ring,
                    &domain,
                    &inputs,
                    NodeId(n),
                    reveal,
                    &mut rng,
                )
                .unwrap();
                // One holder with reveal: its encoded set, one message.
                let (messages, rounds) = match (n, reveal) {
                    (1, true) => (1, 1),
                    (_, true) => (n * (n - 1) + n + n + 1, n + n + 1),
                    (_, false) => (n * (n - 1) + n, n),
                };
                let report = &outcome.report;
                assert_eq!(report.messages as usize, messages, "n={n} reveal={reveal}");
                assert_eq!(report.rounds, rounds, "n={n} reveal={reveal}");
                if reveal {
                    assert_eq!(outcome.common_items.unwrap(), items(&["a", "b"]));
                }
            }
        }
    }

    #[test]
    fn trace_matches_figure4_structure() {
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![
            items(&["c", "d", "e"]),
            items(&["d", "e", "f"]),
            items(&["e", "f", "g"]),
        ];
        let (_, trace) = secure_set_intersection_traced(
            &mut net,
            &ring,
            &domain,
            &inputs,
            NodeId(0),
            false,
            &mut rng,
        )
        .unwrap();
        // 3 initial encryptions + 3 sets × 2 hops.
        assert_eq!(trace.len(), 9);
        // The final hop of set 0 wears all three layers.
        let final_hop = trace.iter().rfind(|h| h.origin == 0).unwrap();
        assert_eq!(final_hop.layers.len(), 3);
        assert_eq!(final_hop.holder, 2);
    }

    #[test]
    fn fully_encrypted_common_values_coincide_across_sets() {
        // The commutativity property at protocol level: the encrypted
        // representation of "e" is identical in all three received sets.
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![
            items(&["c", "d", "e"]),
            items(&["d", "e", "f"]),
            items(&["e", "f", "g"]),
        ];
        let (outcome, trace) = secure_set_intersection_traced(
            &mut net,
            &ring,
            &domain,
            &inputs,
            NodeId(0),
            false,
            &mut rng,
        )
        .unwrap();
        let finals: Vec<&TraceHop> = trace.iter().filter(|h| h.layers.len() == 3).collect();
        assert_eq!(finals.len(), 3);
        let common = &outcome.common_encrypted[0];
        for f in finals {
            assert!(
                f.elements.contains(common),
                "set {} lacks the common ciphertext",
                f.origin
            );
        }
    }

    #[test]
    fn dropped_message_surfaces_as_error() {
        let (mut net, ring, domain, mut rng) = setup(3);
        net.faults_mut()
            .inject_once(0, 1, dla_net::fault::FaultOutcome::Drop);
        let inputs = vec![items(&["a"]), items(&["a"]), items(&["a"])];
        let err = secure_set_intersection(
            &mut net,
            &ring,
            &domain,
            &inputs,
            NodeId(0),
            false,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, MpcError::Net(_)));
    }

    #[test]
    fn single_party_ring_returns_own_set() {
        let (mut net, ring, domain, mut rng) = setup(1);
        let inputs = vec![items(&["only", "only", "one"])];
        let outcome =
            secure_set_intersection(&mut net, &ring, &domain, &inputs, NodeId(0), true, &mut rng)
                .unwrap();
        assert_eq!(outcome.cardinality(), 2);
        assert_eq!(outcome.common_items.unwrap(), items(&["one", "only"]));
        assert_eq!((outcome.report.messages, outcome.report.rounds), (1, 1));
    }

    #[test]
    fn oversized_item_is_rejected() {
        let (mut net, ring, domain, mut rng) = setup(2);
        let inputs = vec![vec![vec![7u8; 40]], vec![vec![7u8; 40]]];
        assert!(secure_set_intersection(
            &mut net,
            &ring,
            &domain,
            &inputs,
            NodeId(0),
            false,
            &mut rng,
        )
        .is_err());
    }
}

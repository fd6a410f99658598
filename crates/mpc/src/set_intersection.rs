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
use dla_net::{NodeId, Session};
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
    /// Every encryption hop of the relay phase, in protocol order —
    /// the Figure 4 walkthrough. Empty unless the run was
    /// [`SsiSession::traced`].
    pub trace: Vec<TraceHop>,
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

/// One `∩_s` instance bound to a [`Session`], so several rings can be
/// in flight over one transport at once; see the module docs for the
/// protocol.
///
/// ```
/// use dla_mpc::set_intersection::SsiSession;
/// use dla_net::topology::Ring;
/// use dla_net::{NetConfig, NodeId, Session, SharedNet, SimNet};
/// use dla_crypto::pohlig_hellman::CommutativeDomain;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let net = SharedNet::new(SimNet::new(3, NetConfig::ideal()));
/// let session_id = net.lock().open_session();
/// let ring = Ring::canonical(3);
/// let domain = CommutativeDomain::fixed_256();
/// let mut rng = StdRng::seed_from_u64(7);
/// let inputs = vec![vec![b"e".to_vec()], vec![b"e".to_vec()], vec![b"e".to_vec()]];
/// let outcome = SsiSession::new(Session::new(&net, session_id), &ring, &domain, NodeId(0))
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
    trace: bool,
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
            trace: false,
        }
    }

    /// Requests the intersection's plaintexts at the collector —
    /// recovered by a decryption pass, or from the collector's own set
    /// when it is a ring position.
    #[must_use]
    pub fn reveal(mut self, reveal: bool) -> Self {
        self.reveal = reveal;
        self
    }

    /// Records every relay-phase hop into [`SsiOutcome::trace`] for the
    /// Figure 4 walkthrough.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Runs the protocol over this session. `inputs[i]` is the private
    /// set of the node at ring position `i` (byte items; duplicates are
    /// removed).
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
    pub fn run<R: Rng + ?Sized>(
        &self,
        inputs: &[Vec<Vec<u8>>],
        rng: &mut R,
    ) -> Result<SsiOutcome, MpcError> {
        let (net, ring, domain) = (&self.session, self.ring, self.domain);
        let (collector, reveal) = (self.collector, self.reveal);
        let n = ring.len();
        assert_eq!(
            inputs.len(),
            n,
            "one input set per ring position is required"
        );
        let meter = Meter::begin(net, "secure-set-intersection");

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
            return Ok(SsiOutcome {
                common_encrypted: elements,
                common_items: Some(items),
                trace: Vec::new(),
                report: meter.finish(n, 1),
            });
        }

        // Per-party key generation (local, no traffic), then each owner
        // applies its own layer.
        let keys: Vec<PhKey> = (0..n).map(|_| PhKey::generate(domain, rng)).collect();
        let mut trace = Vec::new();
        let mut sets: Vec<Vec<Ubig>> = Vec::with_capacity(n);
        for (i, plain) in encoded.iter().enumerate() {
            let encrypted = keys[i].encrypt_batch(plain, Default::default());
            if self.trace {
                trace.push(TraceHop {
                    origin: i,
                    holder: i,
                    layers: vec![i],
                    elements: encrypted.clone(),
                });
            }
            sets.push(encrypted);
        }

        // n−1 relay rounds: set of origin i moves i → i+1 → … → i+n−1,
        // all n sets one hop at a time.
        let mut layer_history: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for hop in 1..n {
            let relays = sets.iter().enumerate().map(|(origin, set)| {
                let from = ring.at((origin + hop - 1) % n);
                let to = ring.at((origin + hop) % n);
                (from, to, encode_set(origin as u64, set))
            });
            for (origin, envelope) in net.round(relays)?.into_iter().enumerate() {
                if dla_telemetry::is_active() {
                    dla_telemetry::event(
                        "relay-hop",
                        envelope.deliver_at.as_nanos(),
                        &[
                            ("origin", &origin.to_string()),
                            ("from", &envelope.from.to_string()),
                            ("to", &envelope.to.to_string()),
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
                if self.trace {
                    trace.push(TraceHop {
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
        let collection = sets.iter().enumerate().map(|(origin, set)| {
            let final_holder = ring.at((origin + n - 1) % n);
            (final_holder, collector, encode_set(origin as u64, set))
        });
        let mut returned: Vec<Vec<Ubig>> = Vec::with_capacity(n);
        for (origin, envelope) in net.round(collection)?.into_iter().enumerate() {
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

        Ok(SsiOutcome {
            common_encrypted,
            common_items,
            trace,
            report: meter.finish(n, rounds),
        })
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
    use dla_net::{NetConfig, SharedNet, SimNet};
    use rand::SeedableRng;

    fn items(names: &[&str]) -> Vec<Vec<u8>> {
        names.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    /// A network with room for the canonical `n`-ring and one outside
    /// collector (node `n`).
    fn setup(n: usize) -> (SharedNet, Ring, CommutativeDomain, rand::rngs::StdRng) {
        (
            SharedNet::new(SimNet::new(n + 1, NetConfig::ideal())),
            Ring::canonical(n),
            CommutativeDomain::fixed_256(),
            rand::rngs::StdRng::seed_from_u64(1000),
        )
    }

    /// `∩_s` of `inputs` over the canonical ring on a fresh network.
    fn intersect(
        inputs: &[Vec<Vec<u8>>],
        collector: NodeId,
        reveal: bool,
    ) -> Result<SsiOutcome, MpcError> {
        let (net, ring, domain, mut rng) = setup(inputs.len());
        SsiSession::new(Session::root(&net), &ring, &domain, collector)
            .reveal(reveal)
            .run(inputs, &mut rng)
    }

    fn figure4_inputs() -> Vec<Vec<Vec<u8>>> {
        // S1={c,d,e}, S2={d,e,f}, S3={e,f,g} → {e}.
        vec![
            items(&["c", "d", "e"]),
            items(&["d", "e", "f"]),
            items(&["e", "f", "g"]),
        ]
    }

    #[test]
    fn figure4_example_intersects_to_e() {
        let outcome = intersect(&figure4_inputs(), NodeId(0), true).unwrap();
        assert_eq!(outcome.cardinality(), 1);
        assert_eq!(outcome.common_items.unwrap(), items(&["e"]));
        assert!(outcome.trace.is_empty(), "no trace unless asked for");
    }

    #[test]
    fn empty_intersection() {
        let inputs = vec![items(&["a"]), items(&["b"]), items(&["c"])];
        let outcome = intersect(&inputs, NodeId(1), true).unwrap();
        assert_eq!(outcome.cardinality(), 0);
        assert_eq!(outcome.common_items.unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn identical_sets_intersect_fully() {
        let set = items(&["x", "y", "z"]);
        let inputs = vec![set.clone(), set.clone(), set.clone(), set.clone()];
        let outcome = intersect(&inputs, NodeId(0), true).unwrap();
        let mut expect = set;
        expect.sort();
        assert_eq!(outcome.common_items.unwrap(), expect);
    }

    #[test]
    fn duplicates_in_input_are_collapsed() {
        let inputs = vec![items(&["a", "a", "b"]), items(&["a", "b", "b"])];
        let outcome = intersect(&inputs, NodeId(0), true).unwrap();
        assert_eq!(outcome.common_items.unwrap(), items(&["a", "b"]));
    }

    #[test]
    fn cardinality_without_reveal_keeps_items_hidden() {
        let inputs = vec![items(&["k1", "k2"]), items(&["k2", "k3"]), items(&["k2"])];
        let outcome = intersect(&inputs, NodeId(2), false).unwrap();
        assert_eq!(outcome.cardinality(), 1);
        assert!(outcome.common_items.is_none());
    }

    #[test]
    fn message_complexity_is_n_times_n_minus_1_plus_n() {
        // A ring-position collector reads the plaintexts off its own
        // set: reveal costs it no message and no round.
        for n in [2usize, 3, 5] {
            for reveal in [false, true] {
                let inputs = vec![items(&["a", "b"]); n];
                let outcome = intersect(&inputs, NodeId(0), reveal).unwrap();
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
                let inputs = vec![items(&["a", "b"]); n];
                let outcome = intersect(&inputs, NodeId(n), reveal).unwrap();
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

    /// The Figure 4 sets, collected without reveal at node 0, traced.
    fn figure4_traced() -> SsiOutcome {
        let (net, ring, domain, mut rng) = setup(3);
        SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
            .traced()
            .run(&figure4_inputs(), &mut rng)
            .unwrap()
    }

    #[test]
    fn trace_matches_figure4_structure() {
        let trace = figure4_traced().trace;
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
        let outcome = figure4_traced();
        let finals: Vec<&TraceHop> = (outcome.trace.iter())
            .filter(|h| h.layers.len() == 3)
            .collect();
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
        let (net, ring, domain, mut rng) = setup(3);
        net.lock()
            .faults_mut()
            .inject_once(0, 1, dla_net::fault::FaultOutcome::Drop);
        let inputs = vec![items(&["a"]), items(&["a"]), items(&["a"])];
        let err = SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
            .run(&inputs, &mut rng)
            .unwrap_err();
        assert!(matches!(err, MpcError::Net(_)));
    }

    #[test]
    fn single_party_ring_returns_own_set() {
        let inputs = vec![items(&["only", "only", "one"])];
        let outcome = intersect(&inputs, NodeId(0), true).unwrap();
        assert_eq!(outcome.cardinality(), 2);
        assert_eq!(outcome.common_items.unwrap(), items(&["one", "only"]));
        assert_eq!((outcome.report.messages, outcome.report.rounds), (1, 1));
    }

    #[test]
    fn oversized_item_is_rejected() {
        let inputs = vec![vec![vec![7u8; 40]], vec![vec![7u8; 40]]];
        assert!(intersect(&inputs, NodeId(0), false).is_err());
    }
}

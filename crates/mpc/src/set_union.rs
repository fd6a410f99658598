//! Secure set union `∪_s` (paper §3.4).
//!
//! The ring relay of [`crate::set_intersection`] — one crate-private
//! relay serves both — with another collector step: every set acquires
//! all `n` encryption layers on its way around the ring, and the
//! collector keeps **one copy of any redundant entries** among the
//! fully-encrypted elements (equal plaintexts have equal n-fold
//! ciphertexts) and recovers the union's plaintexts with a decryption
//! pass — "without revealing the owner(s) of each of the items":
//! because deduplication and decryption happen on the merged list,
//! nobody learns which party contributed which element.
//!
//! Owners send their sets in canonical (sorted-plaintext) order and
//! relays encrypt element by element, preserving it; one layer of the
//! cipher already makes ciphertext order unrelated to plaintext order,
//! so positions link nothing for anyone but the owner.
//!
//! A collector that **is a ring position** already holds part of the
//! answer: its own set. It takes the ciphertexts of its own returned
//! set out of the merged list — matching by value, so this step does
//! not depend on relay order — and adds its own plaintexts locally.
//! Only the remaining `|∪| − |S_c|` elements are decrypted, a number
//! every relay could already compute from the sizes it saw, and they
//! travel **backwards** round the ring (`c−1, c−2, …, c+1`) with the
//! collector taking its own layer off last, at home. So no relay ever
//! holds a plaintext, and the only relay-phase ciphertexts a relay
//! could line up with what it sees in the pass — the ones wearing the
//! same layers — are the collector's own set, which is absent from the
//! pass by construction: nobody can tell which of its own items the
//! collector also holds. (Forwards from `c+1` would let that node
//! match the pass against the fully-encrypted set it delivered in the
//! collection round.) A collector outside the ring has no key: the
//! pass runs `0, 1, …, n−1` and hands it the plaintexts.

use crate::relay::{encode_canonical, merged, sorted, Items, Relay, SetFrame};
use crate::report::{Meter, ProtocolReport};
use crate::MpcError;
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_net::topology::Ring;
use dla_net::{NodeId, Session};
use rand::Rng;

/// Result of a secure set union run.
#[derive(Debug, Clone)]
pub struct UnionOutcome {
    /// The union's plaintext elements, distinct (ownership not
    /// attributable).
    pub items: Items,
    /// Cost accounting.
    pub report: ProtocolReport,
}

impl UnionOutcome {
    /// Union cardinality.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.items.len()
    }
}

/// A `∪_s` protocol instance bound to one transport session, so several
/// unions (or a union and any other protocol) can be in flight over the
/// same network at once.
#[derive(Clone, Copy, Debug)]
pub struct UnionSession<'a> {
    session: Session<'a>,
    ring: &'a Ring,
    domain: &'a CommutativeDomain,
    collector: NodeId,
}

impl<'a> UnionSession<'a> {
    /// Binds a union instance to `session`.
    #[must_use]
    pub fn new(
        session: Session<'a>,
        ring: &'a Ring,
        domain: &'a CommutativeDomain,
        collector: NodeId,
    ) -> Self {
        UnionSession {
            session,
            ring,
            domain,
            collector,
        }
    }

    /// Runs the union over this instance's session. `inputs[i]` is the
    /// private set of ring position `i`.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on network failure, malformed payloads or
    /// unencodable items.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != ring.len()`.
    pub fn run<I: AsRef<[u8]>, R: Rng + ?Sized>(
        &self,
        inputs: &[Vec<I>],
        rng: &mut R,
    ) -> Result<UnionOutcome, MpcError> {
        let items = inputs
            .iter()
            .map(|set| set.iter().map(AsRef::as_ref).collect());
        if self.domain.limbs() <= 4 {
            self.run_in::<4, R>(items.collect(), rng)
        } else {
            self.run_in::<8, R>(items.collect(), rng)
        }
    }

    /// [`Self::run`] with every element in `L` words. Not inlined: one
    /// copy per width, not one in each item type's `run`.
    #[inline(never)]
    fn run_in<const L: usize, R: Rng + ?Sized>(
        &self,
        inputs: Vec<Vec<&[u8]>>,
        rng: &mut R,
    ) -> Result<UnionOutcome, MpcError> {
        let (net, ring, domain, collector) =
            (&self.session, self.ring, self.domain, self.collector);
        let n = ring.len();
        assert_eq!(inputs.len(), n, "one input set per ring position");
        let meter = Meter::begin(net, "secure-set-union");

        let relay = Relay {
            net,
            ring,
            modulus: domain.modulus_words::<L>(),
            collector,
            frame: SetFrame::Union,
        };

        let keys: Vec<PhKey> = (0..n).map(|_| PhKey::generate(domain, rng)).collect();
        let encoded = encode_canonical::<L>(domain, inputs)?;
        let returned = relay.encrypt_and_collect(&keys, &encoded, &mut |_, _, _, _| {})?;

        // Deduplicate ("keeping only one copy of any redundant entries").
        // A collector in the ring sets its own returned ciphertexts
        // aside: it knows what they decrypt to.
        let own = ring.position(collector);
        let rest = merged(&returned, own.map(|pos| &returned[pos][..]));

        // Decryption pass. A ring collector sends the rest backwards round
        // the ring and removes its own layer last, locally; an outside
        // collector has the ring decrypt in order and return plaintexts.
        let pass: Vec<usize> = match own {
            Some(c) => (1..n).map(|k| (c + n - k) % n).collect(),
            None => (0..n).collect(),
        };
        let (mut current, pass_rounds) = relay.decryption_pass(&keys, &pass, rest)?;
        if let Some(c) = own {
            current = keys[c].decrypt_words(&current);
            current.extend_from_slice(&encoded[c]);
        }
        let items = Items::new(sorted(current));

        let report = meter.finish(n, (n - 1) + 1 + pass_rounds);
        Ok(UnionOutcome { items, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_encoding;
    use crate::relay::tests::{canonical, element_words, raw_frame};
    use dla_net::{NetConfig, SharedNet, SimNet};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn items(names: &[&str]) -> Vec<Vec<u8>> {
        names.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    /// `∪_s` of `inputs` over the canonical ring on a fresh network
    /// with room for one outside collector (node `inputs.len()`).
    fn unite(inputs: &[Vec<Vec<u8>>], collector: NodeId) -> Result<UnionOutcome, MpcError> {
        let n = inputs.len();
        let net = SharedNet::new(SimNet::new(n + 1, NetConfig::ideal()));
        let (ring, domain) = (Ring::canonical(n), CommutativeDomain::fixed_256());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2000);
        UnionSession::new(Session::root(&net), &ring, &domain, collector).run(inputs, &mut rng)
    }

    #[test]
    fn union_of_overlapping_sets() {
        let inputs = vec![
            items(&["c", "d", "e"]),
            items(&["d", "e", "f"]),
            items(&["e", "f", "g"]),
        ];
        let outcome = unite(&inputs, NodeId(0)).unwrap();
        assert_eq!(outcome.items.items(), items(&["c", "d", "e", "f", "g"]));
        assert_eq!(outcome.cardinality(), 5);
    }

    #[test]
    fn union_of_disjoint_sets_is_concatenation() {
        let inputs = vec![items(&["a", "b"]), items(&["c"])];
        let outcome = unite(&inputs, NodeId(1)).unwrap();
        assert_eq!(outcome.items.items(), items(&["a", "b", "c"]));
    }

    #[test]
    fn duplicates_across_parties_collapse() {
        let inputs = vec![items(&["x"]), items(&["x"]), items(&["x"]), items(&["x"])];
        let outcome = unite(&inputs, NodeId(0)).unwrap();
        assert_eq!(outcome.items.items(), items(&["x"]));
    }

    #[test]
    fn empty_inputs_yield_empty_union() {
        let outcome = unite(&[vec![], vec![], vec![]], NodeId(0)).unwrap();
        assert!(outcome.items.items().is_empty());
    }

    #[test]
    fn some_empty_some_not() {
        let outcome = unite(&[vec![], items(&["q"]), vec![]], NodeId(2)).unwrap();
        assert_eq!(outcome.items.items(), items(&["q"]));
    }

    #[test]
    fn message_count_matches_protocol_structure() {
        // n(n−1) relay + n collect messages, then the decrypt pass: n+1
        // messages for a collector outside the ring (node n); one fewer
        // for a ring position (node 0), which removes the last layer at
        // home — and none at all when it is the only position.
        for n in [1usize, 2, 4] {
            for collector in [NodeId(0), NodeId(n)] {
                let inputs: Vec<_> = (0..n).map(|i| items(&["a", &format!("p{i}")])).collect();
                let outcome = unite(&inputs, collector).unwrap();
                assert_eq!(outcome.cardinality(), n + 1, "n={n} at {collector}");
                let pass = match (collector == NodeId(n), n) {
                    (true, _) => n + 1,
                    (false, 1) => 0,
                    (false, _) => n,
                };
                assert_eq!(
                    outcome.report.messages as usize,
                    n * (n - 1) + n + pass,
                    "n={n} at {collector}"
                );
                assert_eq!(outcome.report.rounds, n + pass, "n={n} at {collector}");
            }
        }
    }

    #[test]
    fn ring_collector_decrypts_only_what_it_does_not_hold() {
        // The decrypt pass carries |∪| − |S_c| elements: with the
        // collector's set covering the union, nothing at all.
        let count_modexp = |inputs: &[Vec<Vec<u8>>]| {
            let recorder = dla_telemetry::Recorder::new();
            let outcome = {
                let _guard = recorder.install();
                unite(inputs, NodeId(0)).unwrap()
            };
            (outcome.items.items(), recorder.take().total_cost().modexp)
        };
        let (union, modexp) =
            count_modexp(&[items(&["a", "b", "c"]), items(&["b"]), items(&["c", "a"])]);
        assert_eq!(union, items(&["a", "b", "c"]));
        assert_eq!(modexp, 6 * 3, "relay encryptions only");
        let (union, modexp) = count_modexp(&[items(&["a"]), items(&["b", "c"])]);
        assert_eq!(union, items(&["a", "b", "c"]));
        assert_eq!(
            modexp,
            3 * 2 + 2 * 2,
            "two foreign elements through two layers"
        );
    }

    #[test]
    fn dropped_message_is_detected() {
        let net = SharedNet::new(SimNet::new(3, NetConfig::ideal()));
        net.lock()
            .faults_mut()
            .inject_once(1, 2, dla_net::fault::FaultOutcome::Drop);
        let (ring, domain) = (Ring::canonical(3), CommutativeDomain::fixed_256());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2000);
        let inputs = vec![items(&["a"]), items(&["b"]), items(&["c"])];
        let union = UnionSession::new(Session::root(&net), &ring, &domain, NodeId(0));
        assert!(union.run(&inputs, &mut rng).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A relay message decodes only from its one encoding: an
        /// element at or above the modulus is refused, and arbitrary
        /// bytes never panic.
        #[test]
        fn a_relay_payload_has_one_encoding(
            elements in prop::collection::vec(
                element_words(CommutativeDomain::fixed_256().modulus_words::<4>()),
                0..4,
            ),
            noise in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let modulus = CommutativeDomain::fixed_256().modulus_words::<4>();
            let frame = SetFrame::Union;
            let reencode =
                |b: &[u8]| frame.decode(&modulus, b).map(|(_, set)| frame.encode(&modulus, 0, &set));
            let canonical = canonical(&elements, &modulus);
            let payload = raw_frame(frame, &modulus, 0, &elements);
            prop_assert_eq!(one_encoding(&payload, reencode)?, canonical);
            one_encoding(&noise, reencode)?;
        }
    }
}

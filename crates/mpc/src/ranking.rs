//! Secure distributed sorting: `Max_s`, `Min_s`, `Rank_s` (paper §3.3).
//!
//! "If all n parties negotiate for a transformation, and let a blind
//! TTP process these transformed numbers, the cost of the three
//! operations will be significantly reduced."
//!
//! Protocol: the initiating party samples an order-preserving mask
//! (slope + offset + keyed jitter, see
//! [`dla_crypto::affine::MonotoneMasker`]) and seals it to the other
//! parties; every party sends only its *masked* value to the TTP; the
//! TTP sorts masked values — which sorts the plaintext values — and
//! broadcasts the ranking of party indices. Nobody (TTP included)
//! learns any plaintext; the TTP additionally cannot learn value *gaps*
//! thanks to the jitter. Ties are visible to the TTP (equal plaintexts
//! mask equally) — a permitted secondary-information leak under
//! Definition 1, and what makes `Rank_s` well-defined on ties.

use crate::report::{Meter, ProtocolReport};
use crate::MpcError;
use dla_crypto::affine::MonotoneMasker;
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session};
use rand::Rng;

/// Result of a secure-ranking run. `Max_s` and `Min_s` (§3.3) are
/// [`RankOutcome::max_party`] and [`RankOutcome::min_party`]: which
/// party holds the extremum — nobody learns any value, only the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankOutcome {
    /// Party indices sorted by their value, ascending (ties by party
    /// index).
    pub ascending: Vec<usize>,
    /// `ranks[i]` = 0-based rank of party `i` (0 = smallest; equal
    /// values share the smaller rank).
    pub ranks: Vec<usize>,
    /// Index of the party holding the maximum.
    pub max_party: usize,
    /// Index of the party holding the minimum.
    pub min_party: usize,
    /// Cost accounting.
    pub report: ProtocolReport,
}

/// A `Rank_s` protocol instance (and with it `Max_s`/`Min_s`) over
/// `parties` with the blind `ttp`, bound to one transport session so
/// several rankings (or a ranking and any other protocol) can be in
/// flight over the same network at once.
#[derive(Clone, Copy, Debug)]
pub struct RankingSession<'a> {
    session: Session<'a>,
    parties: &'a [NodeId],
    ttp: NodeId,
}

impl<'a> RankingSession<'a> {
    /// Binds a ranking instance to `session`.
    #[must_use]
    pub fn new(session: Session<'a>, parties: &'a [NodeId], ttp: NodeId) -> Self {
        RankingSession {
            session,
            parties,
            ttp,
        }
    }

    /// Runs `Rank_s` over this instance's session; `values[i]` is the
    /// private value of `parties[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on network failure or malformed messages.
    ///
    /// # Panics
    ///
    /// Panics if parties are empty, the TTP is among the parties, or any
    /// value exceeds [`dla_crypto::affine::MONOTONE_MAX_INPUT`].
    pub fn run<R: Rng + ?Sized>(
        &self,
        values: &[u64],
        rng: &mut R,
    ) -> Result<RankOutcome, MpcError> {
        let (net, parties, ttp) = (&self.session, self.parties, self.ttp);
        let n = parties.len();
        assert!(n >= 1, "need at least one party");
        assert_eq!(values.len(), n, "one value per party");
        assert!(!parties.contains(&ttp), "TTP must not be a party");
        let meter = Meter::begin(net, "secure-ranking");

        // Negotiation round: initiator seals the mask to each peer.
        let mask = MonotoneMasker::random(rng);
        let negotiation = parties[1..].iter().map(|&peer| {
            let mut w = Writer::new();
            w.put_u8(0x07).put_bytes(&mask.to_bytes());
            (parties[0], peer, w.finish())
        });
        for envelope in net.round(negotiation)? {
            let mut r = Reader::new(&envelope.payload);
            if r.get_u8()? != 0x07 {
                return Err(MpcError::Wire("unexpected negotiation tag".into()));
            }
            let _peer_mask = MonotoneMasker::from_bytes(r.get_bytes()?)?;
            r.finish()?;
        }

        // Submission round: masked values to the TTP.
        let submissions = parties.iter().enumerate().map(|(i, &party)| {
            let mut w = Writer::new();
            w.put_u8(0x08)
                .put_u64(i as u64)
                .put_u128(mask.apply(values[i]));
            (party, ttp, w.finish())
        });
        let mut masked: Vec<(u128, usize)> = Vec::with_capacity(n);
        for envelope in net.round(submissions)? {
            let mut r = Reader::new(&envelope.payload);
            if r.get_u8()? != 0x08 {
                return Err(MpcError::Wire("unexpected submission tag".into()));
            }
            let idx = r.get_u64()? as usize;
            let w = r.get_u128()?;
            r.finish()?;
            masked.push((w, idx));
        }

        // The blind TTP sorts masked values; order-preservation makes this
        // the plaintext ranking.
        masked.sort_unstable();
        let ascending: Vec<usize> = masked.iter().map(|&(_, i)| i).collect();
        let mut ranks = vec![0usize; n];
        for (pos, &(w, party)) in masked.iter().enumerate() {
            // Equal masked values (ties) share the smaller rank.
            if pos > 0 && masked[pos - 1].0 == w {
                ranks[party] = ranks[masked[pos - 1].1];
            } else {
                ranks[party] = pos;
            }
        }

        // Result broadcast.
        let broadcast = parties.iter().map(|&party| {
            let mut w = Writer::new();
            w.put_u8(0x09).put_list(&ascending, |w, &i| {
                w.put_u64(i as u64);
            });
            (ttp, party, w.finish())
        });
        for envelope in net.round(broadcast)? {
            let mut r = Reader::new(&envelope.payload);
            if r.get_u8()? != 0x09 {
                return Err(MpcError::Wire("unexpected result tag".into()));
            }
            let reported = r.get_list(|r| r.get_u64().map(|v| v as usize))?;
            r.finish()?;
            if reported != ascending {
                return Err(MpcError::Protocol("ranking broadcast mismatch".into()));
            }
        }

        let report = meter.finish(n, 3);
        Ok(RankOutcome {
            max_party: *ascending.last().expect("nonempty"),
            min_party: ascending[0],
            ascending,
            ranks,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_net::{NetConfig, SharedNet, SimNet};
    use rand::SeedableRng;

    fn setup(n: usize) -> (SharedNet, Vec<NodeId>, NodeId, rand::rngs::StdRng) {
        (
            SharedNet::new(SimNet::new(n + 1, NetConfig::ideal())),
            (0..n).map(NodeId).collect(),
            NodeId(n),
            rand::rngs::StdRng::seed_from_u64(5000),
        )
    }

    /// Ranks `values` over parties `0..n` with TTP `n` on a fresh
    /// network.
    fn rank(values: &[u64]) -> Result<RankOutcome, MpcError> {
        let (net, parties, ttp, mut rng) = setup(values.len());
        RankingSession::new(Session::root(&net), &parties, ttp).run(values, &mut rng)
    }

    #[test]
    fn ranks_distinct_values() {
        let outcome = rank(&[300, 100, 400, 200]).unwrap();
        assert_eq!(outcome.ascending, vec![1, 3, 0, 2]);
        assert_eq!(outcome.ranks, vec![2, 0, 3, 1]);
        assert_eq!(outcome.max_party, 2);
        assert_eq!(outcome.min_party, 1);
    }

    #[test]
    fn matches_plain_sort_on_random_inputs() {
        let (_, _, _, mut rng) = setup(1);
        for n in [2usize, 5, 9] {
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 32)).collect();
            let outcome = rank(&values).unwrap();
            let mut expect: Vec<usize> = (0..n).collect();
            expect.sort_by_key(|&i| (values[i], i));
            assert_eq!(outcome.ascending, expect);
        }
    }

    #[test]
    fn ties_share_rank() {
        let outcome = rank(&[7, 7, 3]).unwrap();
        assert_eq!(outcome.min_party, 2);
        assert_eq!(
            outcome.ranks[0], outcome.ranks[1],
            "equal values, equal rank"
        );
        assert_eq!(outcome.ranks[2], 0);
    }

    #[test]
    fn message_complexity_is_linear() {
        for n in [2usize, 4, 8] {
            let values: Vec<u64> = (0..n as u64).collect();
            let outcome = rank(&values).unwrap();
            // (n−1) negotiation + n submissions + n broadcasts.
            assert_eq!(outcome.report.messages as usize, 3 * n - 1, "n={n}");
        }
    }

    #[test]
    fn single_party_trivial() {
        let outcome = rank(&[42]).unwrap();
        assert_eq!(outcome.ascending, vec![0]);
        assert_eq!(outcome.max_party, 0);
    }

    #[test]
    #[should_panic(expected = "TTP must not be a party")]
    fn ttp_overlap_panics() {
        let (net, parties, _, mut rng) = setup(2);
        let _ =
            RankingSession::new(Session::root(&net), &parties, parties[0]).run(&[1, 2], &mut rng);
    }

    #[test]
    fn max_and_min_are_read_off_the_ranking() {
        let outcome = rank(&[30, 10, 40, 20]).unwrap();
        assert_eq!(outcome.max_party, 2);
        assert_eq!(outcome.min_party, 1);
    }

    #[test]
    fn robust_under_link_latency() {
        // Submissions from different parties interleave arbitrarily
        // under random latency; selective receive must keep the
        // protocol deterministic in outcome.
        use dla_net::latency::LatencyModel;
        for seed in 0..5u64 {
            let n = 5;
            let cfg = NetConfig::ideal()
                .with_latency(LatencyModel::lan())
                .with_seed(seed);
            let net = SharedNet::new(SimNet::new(n + 1, cfg));
            let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
            let values = [42u64, 7, 99, 7, 13];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let outcome = RankingSession::new(Session::root(&net), &parties, NodeId(n))
                .run(&values, &mut rng)
                .unwrap();
            assert_eq!(outcome.max_party, 2, "seed {seed}");
            assert_eq!(outcome.min_party, 1, "seed {seed}");
        }
    }

    #[test]
    fn dropped_submission_detected() {
        let (net, parties, ttp, mut rng) = setup(3);
        net.lock()
            .faults_mut()
            .inject_once(1, 3, dla_net::fault::FaultOutcome::Drop);
        let ranking = RankingSession::new(Session::root(&net), &parties, ttp);
        assert!(ranking.run(&[5, 6, 7], &mut rng).is_err());
    }
}

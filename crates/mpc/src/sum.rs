//! Secure sum `Σ_s` and publicly weighted sums (paper §3.5).
//!
//! Each node `P_i` hides its secret `a_i` as the free coefficient of a
//! random degree-(k−1) polynomial `f_i` and sends the share
//! `s_ij = f_i(x_j)` to node `P_j`. Every node publishes
//! `F(x_j) = Σ_i s_ij` — a share of `F = Σ_i f_i`, whose free
//! coefficient is exactly `Σ_i a_i`. Any `k` published points
//! reconstruct the total; fewer than `k` colluding nodes learn nothing
//! about any individual `a_i` (information-theoretic, as Shamir
//! guarantees).
//!
//! The weighted variant computes `Σ α_i·a_i` for public constants
//! `α_i` ("Let α₀, α₁ … denote publicly known constants"): node `j`
//! simply sums `α_i·s_ij`.

use crate::report::{Meter, ProtocolReport};
use crate::MpcError;
use dla_bigint::field::P61;
use dla_bigint::F61;
use dla_crypto::shamir::{self, SecretPolynomial, Share, SharePoints};
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session};
use rand::Rng;

/// Result of a secure-sum run.
#[derive(Debug, Clone)]
pub struct SumOutcome {
    /// The aggregate `Σ α_i·a_i` (α ≡ 1 for the unweighted protocol).
    pub total: F61,
    /// Cost accounting.
    pub report: ProtocolReport,
}

/// One `Σ_s` instance bound to a [`Session`], so a sum can run
/// concurrently with other protocol instances over one transport: the
/// `parties` deal shares with reconstruction threshold `k`, and the
/// `collector` (one of the parties or an auditor node) receives the
/// published shares and reconstructs.
#[derive(Debug)]
pub struct SumSession<'a> {
    session: Session<'a>,
    parties: &'a [NodeId],
    weights: Option<&'a [F61]>,
    k: usize,
    collector: NodeId,
}

impl<'a> SumSession<'a> {
    /// Binds the unweighted `Σ_s` to `session` with reconstruction
    /// threshold `k`; the `collector` receives the published shares.
    #[must_use]
    pub fn new(session: Session<'a>, parties: &'a [NodeId], k: usize, collector: NodeId) -> Self {
        SumSession {
            session,
            parties,
            weights: None,
            k,
            collector,
        }
    }

    /// Uses public `weights` (the `Σ α_i·a_i` variant).
    #[must_use]
    pub fn weighted(mut self, weights: &'a [F61]) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Runs the protocol over this session; `inputs[i]` is the secret
    /// of `parties[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on network failure, malformed messages, or
    /// inconsistent published shares (a corrupted or tampered message).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ parties.len()` and inputs (and weights,
    /// when given) match parties.
    pub fn run<R: Rng + ?Sized>(
        &self,
        inputs: &[F61],
        rng: &mut R,
    ) -> Result<SumOutcome, MpcError> {
        let (net, parties, k, collector) = (&self.session, self.parties, self.k, self.collector);
        let n = parties.len();
        assert!(n >= 1, "need at least one party");
        assert_eq!(inputs.len(), n, "one input per party");
        let ones;
        let weights = match self.weights {
            Some(w) => w,
            None => {
                ones = vec![F61::ONE; n];
                &ones
            }
        };
        assert_eq!(weights.len(), n, "one weight per party");
        assert!(k >= 1 && k <= n, "threshold must satisfy 1 <= k <= n");
        let meter = Meter::begin(net, "secure-sum");

        let points = SharePoints::canonical(n);

        // Round 1: each party deals shares of its secret to every peer —
        // all n(n−1) frames leave before any is opened.
        let polys: Vec<SecretPolynomial> = inputs
            .iter()
            .map(|&a| SecretPolynomial::random(a, k, rng))
            .collect();
        // received[j][i] = s_ij, the share party j holds of party i's secret.
        let mut received: Vec<Vec<F61>> = vec![vec![F61::ZERO; n]; n];
        for (i, poly) in polys.iter().enumerate() {
            received[i][i] = poly.share_at(points.point(i)).y;
        }
        let dealt = || (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
        let shares = dealt().map(|(i, j)| {
            let share = polys[i].share_at(points.point(j));
            (parties[i], parties[j], encode_share(i as u64, share.y))
        });
        for ((i, j), envelope) in dealt().zip(net.round(shares)?) {
            let (origin, y) = decode_share(&envelope.payload)?;
            if origin as usize != i {
                return Err(MpcError::Protocol(format!(
                    "share labeled from {origin} arrived on {i}'s channel"
                )));
            }
            received[j][i] = y;
        }

        // Round 2: each party publishes F(x_j) = Σ_i α_i·s_ij to the
        // collector.
        let publications = (0..n).map(|j| {
            let f_xj: F61 = (0..n).map(|i| weights[i] * received[j][i]).sum();
            (parties[j], collector, encode_share(j as u64, f_xj))
        });
        let mut published: Vec<Share> = Vec::with_capacity(n);
        for envelope in net.round(publications)? {
            let (idx, y) = decode_share(&envelope.payload)?;
            if idx as usize >= n {
                return Err(MpcError::Protocol(format!(
                    "published share carries out-of-range index {idx}"
                )));
            }
            published.push(Share {
                x: points.point(idx as usize),
                y,
            });
        }

        // Reconstruct from the first k shares, then verify the remaining
        // published shares lie on the same polynomial — a cheap integrity
        // check that catches corrupted/tampered messages.
        let total = shamir::reconstruct(&published[..k])?;
        for extra in &published[k..] {
            let predicted = shamir::reconstruct_at(&published[..k], extra.x)?;
            if predicted != extra.y {
                return Err(MpcError::Protocol(
                    "published shares are inconsistent: corrupted share detected".into(),
                ));
            }
        }

        let report = meter.finish(n, 2);
        Ok(SumOutcome { total, report })
    }
}

fn encode_share(origin: u64, y: F61) -> bytes::Bytes {
    let mut w = Writer::new();
    w.put_u8(0x03).put_u64(origin).put_u64(y.value());
    w.finish()
}

fn decode_share(payload: &[u8]) -> Result<(u64, F61), MpcError> {
    let mut r = Reader::open(payload, 0x03)?;
    let origin = r.get_u64()?;
    // A field element has one encoding: a value at or above the modulus
    // would reduce onto another share's bytes.
    let y = r.get_u64()?;
    if y >= P61 {
        return Err(MpcError::Wire(format!("share {y} is not reduced")));
    }
    r.finish()?;
    Ok((origin, F61::new(y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_encoding;
    use dla_net::{NetConfig, SharedNet, SimNet};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn setup(n: usize) -> (SharedNet, Vec<NodeId>, rand::rngs::StdRng) {
        (
            // One extra node to act as an off-party collector.
            SharedNet::new(SimNet::new(n + 1, NetConfig::ideal())),
            (0..n).map(NodeId).collect(),
            rand::rngs::StdRng::seed_from_u64(3000),
        )
    }

    /// The unweighted sum of `inputs` over parties `0..n` on a fresh
    /// network, threshold `k`, collected at `collector`.
    fn sum(inputs: &[u64], k: usize, collector: NodeId) -> Result<SumOutcome, MpcError> {
        let (net, parties, mut rng) = setup(inputs.len());
        let inputs: Vec<F61> = inputs.iter().copied().map(F61::new).collect();
        SumSession::new(Session::root(&net), &parties, k, collector).run(&inputs, &mut rng)
    }

    #[test]
    fn sums_correctly() {
        let outcome = sum(&[10, 20, 30, 40], 3, NodeId(4)).unwrap();
        assert_eq!(outcome.total, F61::new(100));
    }

    #[test]
    fn weighted_sum_matches_paper_extension() {
        let (net, parties, mut rng) = setup(3);
        let inputs = [5u64, 7, 9].map(F61::new);
        let weights = [2u64, 3, 10].map(F61::new);
        let outcome = SumSession::new(Session::root(&net), &parties, 2, NodeId(3))
            .weighted(&weights)
            .run(&inputs, &mut rng)
            .unwrap();
        assert_eq!(outcome.total, F61::new(2 * 5 + 3 * 7 + 10 * 9));
    }

    #[test]
    fn collector_can_be_a_party() {
        let outcome = sum(&[1, 2, 3], 2, NodeId(0)).unwrap();
        assert_eq!(outcome.total, F61::new(6));
    }

    #[test]
    fn wraps_in_the_field() {
        use dla_bigint::field::P61;
        let outcome = sum(&[P61 - 1, 5], 2, NodeId(2)).unwrap();
        assert_eq!(outcome.total, F61::new(4));
    }

    #[test]
    fn message_complexity_is_quadratic_share_round_plus_publish() {
        for n in [2usize, 3, 6] {
            let inputs: Vec<u64> = (0..n as u64).collect();
            let outcome = sum(&inputs, 2.min(n), NodeId(n)).unwrap();
            assert_eq!(outcome.report.messages as usize, n * (n - 1) + n, "n={n}");
            assert_eq!(outcome.report.rounds, 2);
        }
    }

    #[test]
    fn corrupted_share_detected_by_consistency_check() {
        let (net, parties, mut rng) = setup(4);
        // Corrupt a round-2 publish (party 3 -> collector 4).
        net.lock()
            .faults_mut()
            .inject_once(3, 4, dla_net::fault::FaultOutcome::Corrupt);
        let inputs = [1u64, 2, 3, 4].map(F61::new);
        // k=3 < n=4 so the 4th share is cross-checked.
        let result =
            SumSession::new(Session::root(&net), &parties, 3, NodeId(4)).run(&inputs, &mut rng);
        match result {
            Err(MpcError::Protocol(_)) => {} // inconsistent share or bad index
            Err(MpcError::Wire(_)) => {}     // corruption hit the wire framing
            // The transport's envelope checksum catches it first.
            Err(MpcError::Net(dla_net::NetError::Corrupt(_))) => {}
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn single_party_degenerate_sum() {
        let outcome = sum(&[42], 1, NodeId(1)).unwrap();
        assert_eq!(outcome.total, F61::new(42));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = sum(&[1, 2, 3], 4, NodeId(3));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || sum(&[11, 22, 33], 2, NodeId(3)).unwrap().total;
        assert_eq!(run(), run());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A share decodes only from its one encoding: an unreduced
        /// value is refused (it would reduce onto another share's
        /// bytes), and arbitrary bytes never panic.
        #[test]
        fn a_share_payload_has_one_encoding(
            origin in any::<u64>(),
            y in prop_oneof![0..P61, Just(P61), P61..=u64::MAX],
            noise in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let mut w = Writer::new();
            w.put_u8(0x03).put_u64(origin).put_u64(y);
            let reencode = |b: &[u8]| decode_share(b).map(|(o, y)| encode_share(o, y));
            prop_assert_eq!(one_encoding(&w.finish(), reencode)?, y < P61);
            one_encoding(&noise, reencode)?;
        }
    }
}

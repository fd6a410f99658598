//! Classical comparison baselines for the paper's efficiency claims.
//!
//! §3 argues that classical zero-disclosure multiparty computation
//! "\[has\] excessive computing and communication overheads" and that a
//! blind TTP plus relaxation makes auditing practical. To *measure*
//! that claim (the paper itself never does), this module implements:
//!
//! * [`plaintext_sum`] — the insecure lower bound: everyone mails its
//!   value to a collector.
//! * [`vss_sum`] — a classical-style verified secret-sharing sum:
//!   Feldman commitments to every polynomial coefficient, per-share
//!   verification by every receiver, and a full result broadcast so
//!   *every* participant learns `w` (the classical requirement the
//!   relaxed model drops). Communication O(n²·k) group elements and
//!   O(n²·k) modexps of verification compute.
//! * [`compare_gt`] / [`baseline_ranking`] — two-party secure
//!   comparison via the Lin–Tzeng 0/1-encoding reduction to set
//!   intersection, and the n-party ranking built from `n(n−1)/2`
//!   pairwise comparisons — the classical alternative to the blind-TTP
//!   `Rank_s` of §3.3.

use crate::report::{Meter, ProtocolReport};
use crate::set_intersection::SsiSession;
use crate::MpcError;
use dla_bigint::modular::{modexp, modmul};
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_crypto::schnorr::SchnorrGroup;
use dla_crypto::shamir_big::{self, BigPolynomial, BigShare};
use dla_net::topology::Ring;
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session};
use rand::Rng;

/// Result of a baseline sum run.
#[derive(Debug, Clone)]
pub struct BaselineSumOutcome {
    /// The aggregate.
    pub total: Ubig,
    /// Cost accounting.
    pub report: ProtocolReport,
}

/// The insecure reference: plaintext values to a collector, result
/// broadcast back.
///
/// # Errors
///
/// Returns [`MpcError`] on network failure.
///
/// # Panics
///
/// Panics if `parties` is empty or inputs mismatch.
pub fn plaintext_sum(
    net: &Session<'_>,
    parties: &[NodeId],
    inputs: &[u64],
    collector: NodeId,
) -> Result<BaselineSumOutcome, MpcError> {
    let n = parties.len();
    assert!(n >= 1, "need at least one party");
    assert_eq!(inputs.len(), n, "one input per party");
    let meter = Meter::begin(net, "plaintext-sum");

    for (i, &party) in parties.iter().enumerate() {
        let mut w = Writer::new();
        w.put_u8(0x10).put_u64(inputs[i]);
        net.send(party, collector, w.finish());
    }
    let mut total = 0u64;
    for &party in parties {
        let envelope = net.recv_from(collector, party)?;
        let mut r = Reader::new(&envelope.payload);
        if r.get_u8()? != 0x10 {
            return Err(MpcError::Wire("unexpected tag".into()));
        }
        total += r.get_u64()?;
        r.finish()?;
    }
    for &party in parties {
        let mut w = Writer::new();
        w.put_u8(0x11).put_u64(total);
        net.send(collector, party, w.finish());
        let _ = net.recv_from(party, collector)?;
    }

    Ok(BaselineSumOutcome {
        total: Ubig::from_u64(total),
        report: meter.finish(n, 2),
    })
}

/// Classical verified secret-sharing sum (Feldman VSS + broadcast).
///
/// Every receiver verifies every incoming share against the dealer's
/// coefficient commitments; every party receives every summed share
/// and reconstructs locally, so all n parties learn the result — the
/// zero-disclosure model's requirement.
///
/// # Errors
///
/// Returns [`MpcError`] on network failure, malformed messages, or a
/// share failing Feldman verification.
///
/// # Panics
///
/// Panics unless `1 ≤ k ≤ n` and inputs match parties.
pub fn vss_sum<R: Rng + ?Sized>(
    net: &Session<'_>,
    group: &SchnorrGroup,
    parties: &[NodeId],
    inputs: &[Ubig],
    k: usize,
    rng: &mut R,
) -> Result<BaselineSumOutcome, MpcError> {
    let n = parties.len();
    assert!(n >= 1, "need at least one party");
    assert_eq!(inputs.len(), n, "one input per party");
    assert!(k >= 1 && k <= n, "threshold must satisfy 1 <= k <= n");
    let meter = Meter::begin(net, "vss-sum");
    let (p, q) = (group.modulus(), group.order());

    // Deal: polynomials and Feldman coefficient commitments.
    let polys: Vec<BigPolynomial> = inputs
        .iter()
        .map(|a| BigPolynomial::random(a, k, q, rng))
        .collect();
    let commitments: Vec<Vec<Ubig>> = polys
        .iter()
        .map(|poly| poly.coefficients().iter().map(|c| group.pow_g(c)).collect())
        .collect();

    // Broadcast commitments + deliver shares; receivers verify.
    // received[j][i] = share of dealer i held by party j.
    let mut received: Vec<Vec<Ubig>> = vec![vec![Ubig::zero(); n]; n];
    for i in 0..n {
        for j in 0..n {
            let x_j = Ubig::from_u64(j as u64 + 1);
            let share = polys[i].eval(&x_j);
            if i != j {
                let mut w = Writer::new();
                w.put_u8(0x12)
                    .put_u64(i as u64)
                    .put_bytes(&share.to_bytes_be())
                    .put_list(&commitments[i], |w, c| {
                        w.put_bytes(&c.to_bytes_be());
                    });
                net.send(parties[i], parties[j], w.finish());
                let envelope = net.recv_from(parties[j], parties[i])?;
                let mut r = Reader::new(&envelope.payload);
                if r.get_u8()? != 0x12 {
                    return Err(MpcError::Wire("unexpected tag".into()));
                }
                let dealer = r.get_u64()? as usize;
                let y = Ubig::from_bytes_be(r.get_bytes()?);
                let comms = r.get_list(|r| r.get_bytes().map(Ubig::from_bytes_be))?;
                r.finish()?;

                // Feldman check: g^y = Π_t A_t^{x^t} (mod p).
                let mut rhs = Ubig::one();
                let mut x_pow = Ubig::one();
                for a_t in &comms {
                    rhs = modmul(&rhs, &modexp(a_t, &x_pow, p), p);
                    x_pow = modmul(&x_pow, &x_j, q);
                }
                if group.pow_g(&y) != rhs {
                    return Err(MpcError::Protocol(format!(
                        "Feldman verification failed for dealer {dealer}"
                    )));
                }
                received[j][dealer] = y;
            } else {
                received[j][i] = share;
            }
        }
    }

    // Sum shares and broadcast to everyone (all parties learn w).
    let summed: Vec<Ubig> = (0..n)
        .map(|j| {
            received[j]
                .iter()
                .fold(Ubig::zero(), |acc, y| (&acc + y) % q)
        })
        .collect();
    let mut all_shares: Vec<Vec<BigShare>> = vec![Vec::with_capacity(n); n];
    for j in 0..n {
        for l in 0..n {
            if l == j {
                all_shares[j].push(BigShare {
                    x: Ubig::from_u64(j as u64 + 1),
                    y: summed[j].clone(),
                });
                continue;
            }
            let mut w = Writer::new();
            w.put_u8(0x13)
                .put_u64(j as u64)
                .put_bytes(&summed[j].to_bytes_be());
            net.send(parties[j], parties[l], w.finish());
            let envelope = net.recv_from(parties[l], parties[j])?;
            let mut r = Reader::new(&envelope.payload);
            if r.get_u8()? != 0x13 {
                return Err(MpcError::Wire("unexpected tag".into()));
            }
            let idx = r.get_u64()?;
            let y = Ubig::from_bytes_be(r.get_bytes()?);
            r.finish()?;
            all_shares[l].push(BigShare {
                x: Ubig::from_u64(idx + 1),
                y,
            });
        }
    }

    // Every party reconstructs; all must agree.
    let mut totals: Vec<Ubig> = Vec::with_capacity(n);
    for shares in &all_shares {
        totals.push(shamir_big::reconstruct(&shares[..k], q)?);
    }
    let total = totals[0].clone();
    if totals.iter().any(|t| t != &total) {
        return Err(MpcError::Protocol(
            "parties reconstructed different totals".into(),
        ));
    }

    let report = meter.finish(n, 3);
    Ok(BaselineSumOutcome { total, report })
}

/// Bit width of the comparison domain for
/// [`compare_gt`]/[`baseline_ranking`].
pub const COMPARE_BITS: u32 = 32;

/// The Lin–Tzeng 1-encoding of `x`: for each 1-bit, the prefix ending
/// at that bit.
fn one_encoding(x: u64) -> Vec<Vec<u8>> {
    prefix_encoding(x, true)
}

/// The 0-encoding of `y`: for each 0-bit, the prefix with that bit
/// flipped to 1.
fn zero_encoding(y: u64) -> Vec<Vec<u8>> {
    prefix_encoding(y, false)
}

fn prefix_encoding(v: u64, ones: bool) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for i in (0..COMPARE_BITS).rev() {
        let bit = (v >> i) & 1;
        if (bit == 1) == ones {
            // Prefix of length (COMPARE_BITS - i), with the last bit
            // forced to 1 (it already is 1 for the 1-encoding; flipped
            // for the 0-encoding).
            let len = COMPARE_BITS - i;
            let prefix = (v >> i) | 1;
            let mut item = Vec::with_capacity(5);
            item.push(len as u8);
            item.extend_from_slice(&(prefix as u32).to_be_bytes());
            out.push(item);
        }
    }
    out
}

/// Two-party secure greater-than: decides `x_a > x_b` via
/// `T¹(x_a) ∩ T⁰(x_b) ≠ ∅` computed with commutative-cipher set
/// intersection. Only the cardinality (0 or ≥1) is revealed, to the
/// collector `party_a`.
///
/// # Errors
///
/// Returns [`MpcError`] on network or protocol failure.
///
/// # Panics
///
/// Panics if values exceed the [`COMPARE_BITS`]-bit domain.
pub fn compare_gt<R: Rng + ?Sized>(
    net: &Session<'_>,
    domain: &CommutativeDomain,
    party_a: NodeId,
    party_b: NodeId,
    x_a: u64,
    x_b: u64,
    rng: &mut R,
) -> Result<(bool, ProtocolReport), MpcError> {
    assert!(x_a < 1 << COMPARE_BITS, "x_a exceeds the comparison domain");
    assert!(x_b < 1 << COMPARE_BITS, "x_b exceeds the comparison domain");
    let ring = Ring::new(vec![party_a, party_b]);
    let inputs = vec![one_encoding(x_a), zero_encoding(x_b)];
    let outcome = SsiSession::new(*net, &ring, domain, party_a).run(&inputs, rng)?;
    Ok((outcome.cardinality() > 0, outcome.report))
}

/// Result of the pairwise-comparison ranking baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRankOutcome {
    /// Party indices sorted ascending by value (ties by party index).
    pub ascending: Vec<usize>,
    /// Index of the maximum holder.
    pub max_party: usize,
    /// Index of the minimum holder.
    pub min_party: usize,
    /// Aggregated cost over all pairwise comparisons.
    pub report: ProtocolReport,
}

/// Classical ranking: `n(n−1)/2` pairwise secure comparisons (each one
/// a full two-party set-intersection protocol). Contrast with the
/// 3-round, `3n−1`-message blind-TTP [`crate::ranking::RankingSession`].
///
/// # Errors
///
/// Returns [`MpcError`] on any pairwise-comparison failure.
///
/// # Panics
///
/// Panics if `parties` is empty or inputs mismatch.
pub fn baseline_ranking<R: Rng + ?Sized>(
    net: &Session<'_>,
    domain: &CommutativeDomain,
    parties: &[NodeId],
    values: &[u64],
    rng: &mut R,
) -> Result<BaselineRankOutcome, MpcError> {
    let n = parties.len();
    assert!(n >= 1, "need at least one party");
    assert_eq!(values.len(), n, "one value per party");
    let meter = Meter::begin(net, "baseline-pairwise-ranking");

    // wins[i] = number of parties j with values[j] < values[i]
    // (ties contribute to neither side; break by index afterwards).
    let mut greater = vec![vec![false; n]; n];
    let mut comparisons = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let (gt_ij, _) = compare_gt(
                net, domain, parties[i], parties[j], values[i], values[j], rng,
            )?;
            let (gt_ji, _) = compare_gt(
                net, domain, parties[j], parties[i], values[j], values[i], rng,
            )?;
            greater[i][j] = gt_ij;
            greater[j][i] = gt_ji;
            comparisons += 2;
        }
    }
    let mut ascending: Vec<usize> = (0..n).collect();
    ascending.sort_by_key(|&i| (greater[i].iter().filter(|&&g| g).count(), i));

    let report = meter.finish(n, comparisons);
    Ok(BaselineRankOutcome {
        max_party: *ascending.last().expect("nonempty"),
        min_party: ascending[0],
        ascending,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_net::{NetConfig, SharedNet, SimNet};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(6000)
    }

    fn net(n: usize) -> SharedNet {
        SharedNet::new(SimNet::new(n, NetConfig::ideal()))
    }

    #[test]
    fn plaintext_sum_works() {
        let net = net(4);
        let parties: Vec<NodeId> = (0..3).map(NodeId).collect();
        let outcome = plaintext_sum(&Session::root(&net), &parties, &[1, 2, 3], NodeId(3)).unwrap();
        assert_eq!(outcome.total, Ubig::from_u64(6));
        assert_eq!(outcome.report.messages, 6);
    }

    #[test]
    fn vss_sum_matches_plain_total() {
        let group = SchnorrGroup::fixed_256();
        let net = net(4);
        let parties: Vec<NodeId> = (0..4).map(NodeId).collect();
        let inputs: Vec<Ubig> = [100u64, 200, 300, 400].map(Ubig::from_u64).to_vec();
        let mut rng = rng();
        let outcome =
            vss_sum(&Session::root(&net), &group, &parties, &inputs, 2, &mut rng).unwrap();
        assert_eq!(outcome.total, Ubig::from_u64(1000));
    }

    #[test]
    fn vss_sum_costs_more_than_relaxed_sum() {
        let group = SchnorrGroup::fixed_256();
        let n = 4;
        let mut rng = rng();

        let net1 = net(n + 1);
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let inputs_big: Vec<Ubig> = (1..=n as u64).map(Ubig::from_u64).collect();
        let vss = vss_sum(
            &Session::root(&net1),
            &group,
            &parties,
            &inputs_big,
            3,
            &mut rng,
        )
        .unwrap();

        let net2 = net(n + 1);
        let inputs_f: Vec<dla_bigint::F61> = (1..=n as u64).map(dla_bigint::F61::new).collect();
        let relaxed = crate::SumSession::new(Session::root(&net2), &parties, 3, NodeId(n))
            .run(&inputs_f, &mut rng)
            .unwrap();

        assert!(vss.report.bytes > relaxed.report.bytes * 5);
        assert!(vss.report.messages > relaxed.report.messages);
        assert_eq!(vss.total, Ubig::from_u64(10));
        assert_eq!(relaxed.total, dla_bigint::F61::new(10));
    }

    #[test]
    fn vss_detects_corrupted_share() {
        // A line fault never reaches the Feldman check — the envelope
        // checksum stops it first — so the dealer itself lies: party 0
        // flips the last byte of its first share frame (a coefficient
        // commitment) and re-stamps the checksum.
        use dla_net::{ScriptedAdversary, Tamper, TamperRule};
        let group = SchnorrGroup::fixed_256();
        let net = net(3);
        let flip = Tamper::Flip {
            offset_from_end: 0,
            mask: 0xA5,
        };
        let dealer = ScriptedAdversary::new()
            .compromise(0)
            .rule(TamperRule::once_from(0, 0x12, flip));
        net.lock().set_adversary(std::sync::Arc::new(dealer));
        let parties: Vec<NodeId> = (0..3).map(NodeId).collect();
        let inputs: Vec<Ubig> = [5u64, 6, 7].map(Ubig::from_u64).to_vec();
        let mut rng = rng();
        let err =
            vss_sum(&Session::root(&net), &group, &parties, &inputs, 2, &mut rng).unwrap_err();
        match err {
            MpcError::Protocol(msg) => assert!(msg.contains("Feldman")),
            other => panic!("expected the Feldman check to fire, got {other:?}"),
        }
    }

    #[test]
    fn encodings_intersect_iff_greater() {
        // Pure Lin–Tzeng property, checked directly.
        let cases = [(5u64, 3u64), (3, 5), (7, 7), (0, 1), (1, 0), (100, 99)];
        for (x, y) in cases {
            let t1: std::collections::HashSet<Vec<u8>> = one_encoding(x).into_iter().collect();
            let t0: std::collections::HashSet<Vec<u8>> = zero_encoding(y).into_iter().collect();
            let intersects = t1.intersection(&t0).count() > 0;
            assert_eq!(intersects, x > y, "({x}, {y})");
        }
    }

    #[test]
    fn compare_gt_agrees_with_plain_gt() {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng();
        for (a, b) in [
            (10u64, 3u64),
            (3, 10),
            (4, 4),
            (0, 0),
            (1 << 31, (1 << 31) - 1),
        ] {
            let net = net(2);
            let session = Session::root(&net);
            let (gt, _) =
                compare_gt(&session, &domain, NodeId(0), NodeId(1), a, b, &mut rng).unwrap();
            assert_eq!(gt, a > b, "({a}, {b})");
        }
    }

    #[test]
    fn baseline_ranking_matches_plain_sort() {
        let domain = CommutativeDomain::fixed_256();
        let net = net(4);
        let parties: Vec<NodeId> = (0..4).map(NodeId).collect();
        let values = [300u64, 100, 400, 200];
        let mut rng = rng();
        let outcome =
            baseline_ranking(&Session::root(&net), &domain, &parties, &values, &mut rng).unwrap();
        assert_eq!(outcome.ascending, vec![1, 3, 0, 2]);
        assert_eq!(outcome.max_party, 2);
        assert_eq!(outcome.min_party, 1);
    }

    #[test]
    fn baseline_ranking_handles_ties_by_index() {
        let domain = CommutativeDomain::fixed_256();
        let net = net(3);
        let parties: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut rng = rng();
        let outcome = baseline_ranking(
            &Session::root(&net),
            &domain,
            &parties,
            &[5, 5, 1],
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.ascending, vec![2, 0, 1]);
    }

    #[test]
    fn baseline_ranking_costs_more_messages_than_blind_ttp() {
        let domain = CommutativeDomain::fixed_256();
        let n = 4;
        let values = [7u64, 3, 9, 1];
        let mut rng = rng();

        let net1 = net(n);
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let classical =
            baseline_ranking(&Session::root(&net1), &domain, &parties, &values, &mut rng).unwrap();

        let net2 = net(n + 1);
        let relaxed = crate::RankingSession::new(Session::root(&net2), &parties, NodeId(n))
            .run(&values, &mut rng)
            .unwrap();

        assert_eq!(classical.ascending, relaxed.ascending);
        assert!(classical.report.messages > relaxed.report.messages * 2);
        assert!(classical.report.bytes > relaxed.report.bytes);
    }
}

//! The round shape of the five protocols: a round's frames leave
//! together, so on fixed-latency links a run takes exactly
//! `rounds × latency` of simulator time; and a round that fails has
//! still been received whole, so the session is empty afterwards and
//! its next run is right.

use dla_bigint::F61;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::{
    EqualitySession, MpcError, ProtocolReport, RankingSession, SsiSession, SumSession, UnionSession,
};
use dla_net::latency::LatencyModel;
use dla_net::topology::Ring;
use dla_net::{
    AdversaryNet, NetConfig, NodeId, ScriptedAdversary, Session, SessionId, SharedNet, SimNet,
    SimTime, Tamper, TamperRule, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Parties (or ring positions) `0..N`; node `N` is the outside
/// collector or the blind TTP.
const N: usize = 4;

fn parties() -> Vec<NodeId> {
    (0..N).map(NodeId).collect()
}

fn items(names: &[&str]) -> Vec<Vec<u8>> {
    names.iter().map(|s| s.as_bytes().to_vec()).collect()
}

/// Four sets with `{e}` in common and `{a, …, h}` between them.
fn sets() -> Vec<Vec<Vec<u8>>> {
    vec![
        items(&["a", "b", "e"]),
        items(&["c", "e", "f"]),
        items(&["d", "e", "g"]),
        items(&["e", "h"]),
    ]
}

/// A different four, for the rerun: a frame left over from the failed
/// run would carry the first answer, not this one.
fn other_sets() -> Vec<Vec<Vec<u8>>> {
    vec![
        items(&["p", "q"]),
        items(&["q", "r", "p"]),
        items(&["p", "s", "q"]),
        items(&["q", "p", "t"]),
    ]
}

/// One protocol run on the root session of `net`, reduced to its
/// answer as a string: `variant` 0 is the run a fault is injected into,
/// 1 the rerun on other inputs.
type Run = fn(&dyn Transport, usize) -> Result<(String, ProtocolReport), MpcError>;

fn sum(net: &dyn Transport, variant: usize) -> Result<(String, ProtocolReport), MpcError> {
    let inputs = [[10u64, 20, 30, 40], [1, 2, 3, 4]][variant].map(F61::new);
    let mut rng = StdRng::seed_from_u64(31);
    // k = 3 < n: the fourth published share is cross-checked.
    SumSession::new(Session::root(net), &parties(), 3, NodeId(N))
        .run(&inputs, &mut rng)
        .map(|o| (o.total.value().to_string(), o.report))
}

fn equality(net: &dyn Transport, variant: usize) -> Result<(String, ProtocolReport), MpcError> {
    let (a, b) = [(7u64, 7u64), (7, 8)][variant];
    let mut rng = StdRng::seed_from_u64(32);
    EqualitySession::new(Session::root(net), NodeId(0), NodeId(1), NodeId(N))
        .run(F61::new(a), F61::new(b), &mut rng)
        .map(|o| (o.equal.to_string(), o.report))
}

fn ranking(net: &dyn Transport, variant: usize) -> Result<(String, ProtocolReport), MpcError> {
    let values = [[300u64, 100, 400, 200], [1, 2, 3, 4]][variant];
    let mut rng = StdRng::seed_from_u64(33);
    RankingSession::new(Session::root(net), &parties(), NodeId(N))
        .run(&values, &mut rng)
        .map(|o| (format!("{:?}", o.ascending), o.report))
}

fn ssi(
    net: &dyn Transport,
    variant: usize,
    collector: usize,
) -> Result<(String, ProtocolReport), MpcError> {
    let inputs = [sets(), other_sets()][variant].clone();
    let (ring, domain) = (Ring::canonical(N), CommutativeDomain::fixed_256());
    let mut rng = StdRng::seed_from_u64(34);
    SsiSession::new(Session::root(net), &ring, &domain, NodeId(collector))
        .reveal(true)
        .run(&inputs, &mut rng)
        .map(|o| (format!("{:?}", o.common_items.map(|c| c.items())), o.report))
}

fn union(
    net: &dyn Transport,
    variant: usize,
    collector: usize,
) -> Result<(String, ProtocolReport), MpcError> {
    let inputs = [sets(), other_sets()][variant].clone();
    let (ring, domain) = (Ring::canonical(N), CommutativeDomain::fixed_256());
    let mut rng = StdRng::seed_from_u64(35);
    UnionSession::new(Session::root(net), &ring, &domain, NodeId(collector))
        .run(&inputs, &mut rng)
        .map(|o| (format!("{:?}", o.items.items()), o.report))
}

#[test]
fn a_run_takes_exactly_its_rounds_on_fixed_latency_links() {
    let cases: [(&str, Run, usize); 7] = [
        ("sum", sum, 2),
        ("ranking", ranking, 3),
        ("equality", equality, 3),
        ("ssi, ring collector, reveal", |net, v| ssi(net, v, 0), N),
        (
            "ssi, outside collector, reveal",
            |net, v| ssi(net, v, N),
            2 * N + 1,
        ),
        ("union, ring collector", |net, v| union(net, v, 0), 2 * N),
        (
            "union, outside collector",
            |net, v| union(net, v, N),
            2 * N + 1,
        ),
    ];
    for (name, run, rounds) in cases {
        let latency = LatencyModel::Fixed(SimTime::from_millis(1));
        let net = SharedNet::new(SimNet::new(N + 1, NetConfig::ideal().with_latency(latency)));
        let (_, report) = run(&net, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.rounds, rounds, "{name}");
        assert_eq!(
            report.elapsed,
            SimTime::from_millis(rounds as u64),
            "{name}: elapsed is rounds × latency"
        );
    }
}

/// A frame of a pipelined round, as a rule can single it out:
/// `(from, to, tag, nth)` — the `nth` (from zero) frame `from → to`
/// carrying `tag`.
type Frame = (usize, usize, u8, u64);

/// The first and the last frame of every hop of an `N`-ring's relay
/// phase and of its collection round at `collector`. Position `p` only
/// ever relays to `p + 1`, once a hop; the final holder of origin `o`
/// is `o − 1`.
fn ring_rounds(tag: u8, collector: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    for hop in 0..(N as u64 - 1) {
        frames.push((0, 1, tag, hop));
        frames.push((N - 1, 0, tag, hop));
    }
    // Position N−1 relays to position 0 on every hop before it delivers
    // origin 0 there; to an outside collector the delivery is its first.
    let last_relays = if collector == 0 { N as u64 - 1 } else { 0 };
    frames.push((N - 1, collector, tag, last_relays));
    frames.push((N - 2, collector, tag, 0));
    frames
}

#[test]
fn a_failed_round_leaves_nothing_in_flight_and_the_rerun_is_right() {
    let cases: Vec<(&str, Run, Vec<Frame>)> = vec![
        (
            "sum",
            sum,
            // Dealing (first and last share), publication (first and last).
            vec![
                (0, 1, 0x03, 0),
                (N - 1, N - 2, 0x03, 0),
                (0, N, 0x03, 0),
                (N - 1, N, 0x03, 0),
            ],
        ),
        (
            "equality",
            equality,
            // Submission and result rounds (the agreement is one message).
            vec![
                (0, N, 0x05, 0),
                (1, N, 0x05, 0),
                (N, 0, 0x06, 0),
                (N, 1, 0x06, 0),
            ],
        ),
        (
            "ranking",
            ranking,
            // Negotiation, submission, broadcast.
            vec![
                (0, 1, 0x07, 0),
                (0, N - 1, 0x07, 0),
                (0, N, 0x08, 0),
                (N - 1, N, 0x08, 0),
                (N, 0, 0x09, 0),
                (N, N - 1, 0x09, 0),
            ],
        ),
        (
            "ssi, ring collector",
            |net, v| ssi(net, v, 0),
            ring_rounds(0x01, 0),
        ),
        (
            "ssi, outside collector",
            |net, v| ssi(net, v, N),
            ring_rounds(0x01, N),
        ),
        (
            "union, ring collector",
            |net, v| union(net, v, 0),
            ring_rounds(0x02, 0),
        ),
        (
            "union, outside collector",
            |net, v| union(net, v, N),
            ring_rounds(0x02, N),
        ),
    ];
    for (name, run, frames) in cases {
        let clean = |variant| {
            let net = SharedNet::new(SimNet::new(N + 1, NetConfig::ideal()));
            run(&net, variant).expect("clean run").0
        };
        let (first, second) = (clean(0), clean(1));
        assert_ne!(first, second, "{name}: the rerun has an answer of its own");

        for (from, to, tag, nth) in frames {
            // Truncated to its tag byte and re-stamped, the frame passes
            // the envelope checksum and fails to decode once the round
            // is in; swallowed, its receive fails while the rest of the
            // round is still queued.
            for tamper in [Tamper::Truncate(1), Tamper::Drop] {
                let what = format!("{name}: {tamper:?} on frame {nth} of {from}→{to}");
                let rule = TamperRule {
                    from: Some(from),
                    to: Some(to),
                    tag: Some(tag),
                    skip: nth,
                    fires: 1,
                    action: tamper,
                };
                let adversary = Arc::new(ScriptedAdversary::new().compromise(from).rule(rule));
                let net = AdversaryNet::new(SharedNet::new(SimNet::new(N + 1, NetConfig::ideal())));
                net.set_adversary(adversary.clone());

                let outcome = run(&net, 0);
                let report = adversary.report();
                assert_eq!(report.forged + report.dropped, 1, "{what}: the rule fires");
                assert!(outcome.is_err(), "{what}: gave {outcome:?}");
                for node in 0..=N {
                    assert_eq!(
                        net.inner().lock().pending_on(SessionId::ROOT, NodeId(node)),
                        0,
                        "{what}: inbox of {node}"
                    );
                }
                let (rerun, _) = run(&net, 1).unwrap_or_else(|e| panic!("{what}: rerun {e}"));
                assert_eq!(rerun, second, "{what}: rerun on the same session");
            }
        }
    }
}

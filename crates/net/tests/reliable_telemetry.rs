//! Retransmission telemetry: the [`ReliableStats`] counters (and their
//! mirror in the telemetry cost sink) must match the injected fault
//! plan exactly under a seeded drop schedule.

use bytes::Bytes;
use dla_net::fault::{FaultOutcome, FaultPlan};
use dla_net::latency::LatencyModel;
use dla_net::{
    NetConfig, NetError, NodeId, Reliable, ReliableConfig, ReliableStats, Session, SharedNet,
    SimNet,
};
use dla_telemetry::Recorder;

fn clean_net(seed: u64) -> SimNet {
    SimNet::new(
        3,
        NetConfig::ideal()
            .with_seed(seed)
            .with_latency(LatencyModel::lan()),
    )
}

/// One targeted drop per request/response round: every drop costs
/// exactly one retransmission (the cumulative ack carried back by the
/// response keeps the unacked window at a single frame), and nothing
/// times out.
#[test]
fn retransmit_count_matches_targeted_drop_schedule() {
    for drops in [1usize, 3, 7] {
        let net = clean_net(11);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        let session = Session::root(&reliable);
        for i in 0..drops {
            // Schedule the drop *before* the send so the data frame
            // (not the returning ack) is the casualty.
            link.lock()
                .faults_mut()
                .inject_once(0, 1, FaultOutcome::Drop);
            session.send(NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i as u8]));
            let m = session.recv(NodeId(1)).expect("recovered by retransmit");
            assert_eq!(m.payload[0], i as u8);
            // Response leg: receiving it makes node 0 digest the ack,
            // emptying its unacked window before the next round.
            session.send(NodeId(1), NodeId(0), Bytes::copy_from_slice(&[i as u8]));
            let _ = session.recv(NodeId(0)).expect("clean response leg");
        }
        let stats = reliable.stats();
        assert_eq!(
            stats,
            ReliableStats {
                retransmits: drops as u64,
                retransmit_rounds: drops as u64,
                timeouts: 0,
                duplicates_suppressed: 0,
            },
            "drop schedule of {drops} targeted drops"
        );
    }
}

/// A dead receiver link: the sender's frame is retransmitted once per
/// backoff round until the retry budget runs out, then exactly one
/// timeout is reported.
#[test]
fn timeout_counters_match_retry_budget_when_peer_is_dead() {
    let max_retries = 4u32;
    let mut faults = FaultPlan::none();
    faults.kill_node(0);
    let net = SimNet::new(
        3,
        NetConfig::ideal()
            .with_faults(faults)
            .with_seed(5)
            .with_latency(LatencyModel::lan()),
    );
    let link = SharedNet::new(net);
    let reliable = Reliable::with_config(
        &link,
        ReliableConfig::default().with_max_retries(max_retries),
    );
    let session = Session::root(&reliable);
    session.send(NodeId(0), NodeId(1), Bytes::from_static(b"void"));
    assert_eq!(
        session.recv(NodeId(1)).unwrap_err(),
        NetError::Timeout(NodeId(1))
    );
    let stats = reliable.stats();
    assert_eq!(stats.retransmits, u64::from(max_retries));
    assert_eq!(stats.retransmit_rounds, u64::from(max_retries));
    assert_eq!(stats.timeouts, 1);
}

/// A retransmission of a frame the receiver already has is suppressed
/// and counted: the frame's ack is dropped, so the sender's timer
/// re-sends it, and the receiver re-acks it instead of surfacing it
/// twice. (A fault-injected duplicate never reaches `Reliable`: the
/// simulator's receiving end discards it by its link number.)
#[test]
fn duplicate_suppression_is_counted() {
    let mut net = clean_net(7);
    net.faults_mut().inject_once(1, 0, FaultOutcome::Drop);
    let link = SharedNet::new(net);
    let reliable = Reliable::with_config(&link, ReliableConfig::default().with_max_retries(1));
    let session = Session::root(&reliable);
    session.send(NodeId(0), NodeId(1), Bytes::from_static(b"once"));
    assert_eq!(&session.recv(NodeId(1)).unwrap().payload[..], b"once");
    // Node 1's ack died, so node 0 still holds "once" unacked; the
    // response leg carries no ack for it.
    session.send(NodeId(1), NodeId(0), Bytes::from_static(b"ok"));
    let _ = session.recv(NodeId(0)).expect("clean response leg");
    // Node 1 starves once: node 0 retransmits "once", which node 1
    // suppresses, and the one retry is spent.
    assert_eq!(
        session.recv(NodeId(1)).unwrap_err(),
        NetError::Timeout(NodeId(1))
    );
    let stats = reliable.stats();
    assert_eq!(stats.retransmits, 1);
    assert_eq!(stats.duplicates_suppressed, 1);
    assert_eq!(stats.timeouts, 1);
}

/// The telemetry cost sink sees the same retransmit/timeout counts as
/// the wrapper's own counters.
#[test]
fn telemetry_sink_mirrors_reliable_stats() {
    let recorder = Recorder::new();
    let stats: ReliableStats;
    {
        let _install = recorder.install();
        let mut faults = FaultPlan::none();
        faults.kill_node(0);
        let net = SimNet::new(
            2,
            NetConfig::ideal()
                .with_faults(faults)
                .with_seed(9)
                .with_latency(LatencyModel::lan()),
        );
        let link = SharedNet::new(net);
        let reliable = Reliable::with_config(&link, ReliableConfig::default().with_max_retries(3));
        let session = Session::root(&reliable);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"x"));
        let _ = session.recv(NodeId(1)).unwrap_err();
        stats = reliable.stats();
    }
    let total = recorder.take().total_cost();
    assert_eq!(total.retransmits, stats.retransmits);
    assert_eq!(total.timeouts, stats.timeouts);
    assert!(total.retransmits > 0, "schedule actually exercised ARQ");
}

//! Transport equivalence (satellite of the process-per-node PR): the
//! same seeded workload — deposits plus the five MPC query protocols —
//! run once over a loopback TCP mesh of node serve loops and once over
//! the in-process channel transport must produce **byte-identical**
//! answers, and the trail must verify under both.
//!
//! This is the correctness argument for the socket deployment: moving
//! protocol traffic from crossbeam channels to length-prefixed TCP
//! frames between processes may change timing and transport counters,
//! but never a single answer byte.

use dla_audit::deploy::{build_cluster, run_workload, WorkloadSpec};
use dla_net::tcp::{serve, NodeConfig, TcpConfig, TcpNet};
use dla_net::{ChannelNet, SimTime, VirtualClock};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;

/// Runs the seeded workload over a freshly built cluster and a
/// loopback TCP mesh with one serve loop per cluster id.
fn socket_outcome(spec: &WorkloadSpec) -> dla_audit::deploy::WorkloadOutcome {
    let total = spec.network_size();
    let listeners: Vec<TcpListener> = (0..total)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let peers: Vec<Option<SocketAddr>> = listeners
        .iter()
        .map(|l| Some(l.local_addr().expect("local addr")))
        .collect();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let config = NodeConfig {
                id,
                peers: peers.clone(),
                role: if id < spec.nodes { "app" } else { "ttp" }.to_string(),
                key: 1000 + id as u64,
            };
            thread::spawn(move || serve(listener, config))
        })
        .collect();

    let net = TcpNet::connect(
        &peers,
        BTreeSet::new(),
        TcpConfig {
            timeout: SimTime::from_millis(10_000),
            ..TcpConfig::default()
        },
    )
    .expect("connect to loopback mesh");
    let cluster = build_cluster(spec).expect("cluster");
    let outcome = run_workload(&cluster, &net, spec).expect("socket workload");

    let reports = net.shutdown();
    assert_eq!(reports.len(), total, "every node farewells");
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }
    outcome
}

/// Runs the identical workload over the in-process channel transport.
fn channel_outcome(spec: &WorkloadSpec) -> dla_audit::deploy::WorkloadOutcome {
    let cluster = build_cluster(spec).expect("cluster");
    let net = ChannelNet::with_clock(
        spec.network_size(),
        SimTime::from_millis(10_000),
        Arc::new(VirtualClock::new()),
    );
    run_workload(&cluster, &net, spec).expect("channel workload")
}

#[test]
fn socket_and_channel_transports_agree_byte_for_byte() {
    let spec = WorkloadSpec::default();
    let socket = socket_outcome(&spec);
    let channel = channel_outcome(&spec);

    // Answers byte-identical, protocol by protocol.
    assert_eq!(socket.runs.len(), 5);
    for (s, c) in socket.runs.iter().zip(channel.runs.iter()) {
        assert_eq!(s.protocol, c.protocol);
        assert_eq!(
            s.answer, c.answer,
            "{} answers must not depend on the transport",
            s.protocol
        );
    }
    assert_eq!(socket.digest_hex(), channel.digest_hex());

    // Every deposit crossed each transport intact.
    assert_eq!(socket.deposits_shipped, spec.records);
    assert_eq!(channel.deposits_shipped, spec.records);

    // The trail verifies after the run on both sides.
    assert!(socket.trail.ok && socket.trail.chain_ok);
    assert!(channel.trail.ok && channel.trail.chain_ok);
}

#[test]
fn equivalence_holds_off_the_paper_partition() {
    // A 3-node cluster falls back to the round-robin partition;
    // equivalence must hold there too.
    let spec = WorkloadSpec {
        nodes: 3,
        records: 9,
        seed: 23,
    };
    let socket = socket_outcome(&spec);
    let channel = channel_outcome(&spec);
    assert_eq!(socket.digest_hex(), channel.digest_hex());
    assert!(socket.integrity_ok() && channel.integrity_ok());
}

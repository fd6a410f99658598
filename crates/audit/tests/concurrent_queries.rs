//! Stress test for the concurrent subquery scheduler: many auditors
//! issue many queries against a **shared** cluster simultaneously.
//! Every result must match the single-auditor reference, the
//! per-session traffic accounting must prove that protocol sessions
//! really were in flight at the same time, and each query must count
//! its own traffic and nobody else's.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::{execute_on, ExecMode};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::paper_table1;
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;
use dla_net::{ChannelNet, Transport};
use std::collections::BTreeSet;

/// A mix of paper-style queries: purely local, cross-node
/// disjunctions, attribute-attribute joins, and multi-clause
/// conjunctions (≥ 2 cross subqueries each in the last two).
const QUERIES: &[&str] = &[
    "protocol = 'UDP'",
    "id = 'U1' OR c1 > 80",
    "id != c3",
    "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00)",
    "(c1 > 10 OR c2 > 100.00) AND (id = 'U2' OR protocol = 'UDP') AND id != c3",
];

/// Runs `q` alone through the exclusive `&mut` front door: its answer
/// and the messages it sent.
fn single_auditor_query(cluster: &mut DlaCluster, q: &str) -> (BTreeSet<Glsn>, u64) {
    let result = cluster
        .query(q)
        .unwrap_or_else(|e| panic!("reference query {q:?} failed: {e}"));
    (result.glsns.into_iter().collect(), result.messages)
}

fn loaded(seed: u64) -> DlaCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed)
            .with_latency(LatencyModel::lan()),
    )
    .expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    cluster.log_records(&user, &paper_table1()).expect("logs");
    cluster
}

#[test]
fn many_auditors_many_queries_match_serial_reference() {
    const AUDITORS: usize = 4;
    const ROUNDS: usize = 6;

    // Single-auditor reference, on an identically seeded and loaded
    // cluster.
    let mut reference = loaded(33);
    let expected: Vec<(BTreeSet<Glsn>, u64)> = QUERIES
        .iter()
        .map(|q| single_auditor_query(&mut reference, q))
        .collect();

    // M auditor threads, each issuing N queries against the shared
    // cluster — every call multiplexes its subqueries over fresh
    // transport sessions.
    let cluster = loaded(33);
    let before = {
        let net = cluster.net();
        (net.stats().messages_sent, net.stats().bytes_sent)
    };
    // All auditors leave the gate together: a query is short enough
    // that one spawned after another could finish before it starts.
    let gate = std::sync::Barrier::new(AUDITORS);
    let outcomes = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..AUDITORS)
            .map(|a| {
                let (cluster, gate) = (&cluster, &gate);
                s.spawn(move || {
                    gate.wait();
                    let mut mine = Vec::with_capacity(ROUNDS);
                    for round in 0..ROUNDS {
                        let qi = (a + round * 2) % QUERIES.len();
                        let result = cluster
                            .query_shared(QUERIES[qi])
                            .unwrap_or_else(|e| panic!("shared query {qi} failed: {e}"));
                        let got: BTreeSet<Glsn> = result.glsns.into_iter().collect();
                        let sent = (result.messages, result.bytes);
                        mine.push((qi, got, sent, result.sessions));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("auditor thread panicked"))
            .collect::<Vec<_>>()
    })
    .expect("auditor scope");

    assert_eq!(outcomes.len(), AUDITORS * ROUNDS);
    let mut all_sessions = BTreeSet::new();
    let mut counted = (0, 0);
    for (qi, got, (messages, bytes), sessions) in outcomes {
        assert_eq!(
            got, expected[qi].0,
            "query {:?} diverged under concurrent auditors",
            QUERIES[qi]
        );
        // Its own traffic, as much as it sends alone, whatever ran
        // beside it.
        assert_eq!(messages, expected[qi].1, "query {:?}", QUERIES[qi]);
        counted = (counted.0 + messages, counted.1 + bytes);
        for sid in sessions {
            assert!(
                all_sessions.insert(sid),
                "session {sid:?} reused across queries"
            );
        }
    }

    // Per-session accounting: the multi-clause queries run their cross
    // subqueries in parallel sessions, so at least two sessions must
    // overlap in virtual time. The event-counter variant is a fact about
    // the OS scheduler: on one CPU a thread may finish its sessions
    // inside one time slice, so send events interleave for certain only
    // where threads run side by side.
    let net = cluster.net();
    let stats = net.stats();
    // Nothing else sent: the queries' own counts add up to the wire's.
    let sent = (stats.messages_sent - before.0, stats.bytes_sent - before.1);
    assert_eq!(counted, sent);
    assert!(
        stats.max_concurrent_sessions() >= 2,
        "expected overlapping sessions, got {}",
        stats.max_concurrent_sessions()
    );
    if std::thread::available_parallelism().map_or(1, std::num::NonZero::get) > 1 {
        assert!(stats.max_interleaved_sessions() >= 2);
    }
    // Every query burned at least one fresh session.
    assert!(all_sessions.len() >= AUDITORS * ROUNDS);
}

#[test]
fn shared_queries_from_one_thread_also_agree() {
    // query_shared on &self must agree with &mut self query() even
    // without any thread-level parallelism (pure session multiplexing).
    let mut reference = loaded(7);
    let cluster = loaded(7);
    for q in QUERIES {
        let (want, _) = single_auditor_query(&mut reference, q);
        let got: BTreeSet<Glsn> = cluster.query_shared(q).unwrap().glsns.into_iter().collect();
        assert_eq!(got, want, "query {q:?} diverged");
    }
}

#[test]
fn a_query_over_a_channel_net_counts_the_messages_it_sent_there() {
    // The executor's accounting is the transport's own sessions, not the
    // cluster's simulator, which carries none of this run's traffic.
    let cluster = loaded(5);
    let plan = cluster
        .compile("(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00)")
        .expect("compiles");
    assert!(plan.cross_count() >= 2);
    let wire = ChannelNet::new(cluster.shared_net().num_nodes());
    let before = wire.stats();
    let result = execute_on(&cluster, &wire, &plan, true, ExecMode::Concurrent, 9).expect("runs");
    let after = wire.stats();
    assert!(result.messages > 0);
    assert_eq!(result.messages, after.messages_sent - before.messages_sent);
    assert_eq!(result.bytes, after.bytes_sent - before.bytes_sent);
}

//! Stress test for the concurrent subquery scheduler: many auditors
//! issue many queries against a **shared** cluster simultaneously.
//! Every result must match the single-auditor reference, and
//! the per-session traffic accounting must prove that protocol
//! sessions really were in flight at the same time.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::paper_table1;
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;
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

/// Runs `q` alone through the exclusive `&mut` front door.
fn single_auditor_query(cluster: &mut DlaCluster, q: &str) -> BTreeSet<Glsn> {
    cluster
        .query(q)
        .unwrap_or_else(|e| panic!("reference query {q:?} failed: {e}"))
        .glsns
        .into_iter()
        .collect()
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
    let expected: Vec<BTreeSet<Glsn>> = QUERIES
        .iter()
        .map(|q| single_auditor_query(&mut reference, q))
        .collect();

    // M auditor threads, each issuing N queries against the shared
    // cluster — every call multiplexes its subqueries over fresh
    // transport sessions.
    let cluster = loaded(33);
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
                        mine.push((qi, got, result.sessions));
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
    for (qi, got, sessions) in outcomes {
        assert_eq!(
            got, expected[qi],
            "query {:?} diverged under concurrent auditors",
            QUERIES[qi]
        );
        for sid in sessions {
            assert!(
                all_sessions.insert(sid),
                "session {sid:?} reused across queries"
            );
        }
    }

    // Per-session accounting: the multi-clause queries run their cross
    // subqueries in parallel sessions, so at least two sessions must
    // overlap in virtual time; the event-counter variant must see
    // interleaving too.
    let net = cluster.net();
    let stats = net.stats();
    assert!(
        stats.max_concurrent_sessions() >= 2,
        "expected overlapping sessions, got {}",
        stats.max_concurrent_sessions()
    );
    assert!(stats.max_interleaved_sessions() >= 2);
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
        let want = single_auditor_query(&mut reference, q);
        let got: BTreeSet<Glsn> = cluster.query_shared(q).unwrap().glsns.into_iter().collect();
        assert_eq!(got, want, "query {q:?} diverged");
    }
}

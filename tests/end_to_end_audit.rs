//! End-to-end integration: the full Figure 2 pipeline — logging,
//! fragmentation, confidential queries, aggregates, retrieval and
//! attestation — spanning every crate in the workspace.

use confidential_audit::audit::aggregate;
use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::audit::integrity;
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::{self, paper_table1, WorkloadConfig};
use confidential_audit::logstore::model::{AttrValue, Glsn, LogRecord};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::{ScriptedAdversary, Transport};
use dla_bench::paper::attest::{result_message, Attestor};
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

fn paper_cluster(seed: u64) -> DlaCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed),
    )
    .expect("paper cluster builds")
}

#[test]
fn full_pipeline_on_paper_data() {
    let mut cluster = paper_cluster(1);
    let user = cluster.register_user("u0").unwrap();
    let glsns = cluster.log_records(&user, &paper_table1()).unwrap();

    // Storage invariant: no node holds a complete record.
    for node in cluster.nodes() {
        for frag in node.store().scan() {
            assert!(frag.values.len() < cluster.schema().len());
        }
    }

    // Query, aggregate, attest, retrieve.
    let result = cluster.query("protocol = 'UDP' AND c2 > 100.00").unwrap();
    assert_eq!(result.glsns, vec![glsns[1], glsns[2]]);

    let count = aggregate::count_matching(&mut cluster, "id = 'U1'").unwrap();
    assert_eq!(count.count, 2);

    let sum = aggregate::sum_matching(&mut cluster, "id = 'U2'", &"c2".into()).unwrap();
    assert_eq!(sum.total, 34511 + 4502);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let attestor = Attestor::deal(cluster.group(), cluster.num_nodes(), &mut rng).unwrap();
    let message = result_message("protocol = 'UDP' AND c2 > 100.00", &result.glsns);
    let attestation = attestor.attest(&cluster, &message, &mut rng).unwrap();
    assert!(attestor.verify(&attestation));

    let full = cluster.retrieve_record(&user, glsns[0]).unwrap();
    assert_eq!(full.len(), 7);

    // Integrity sweep stays green.
    let verdicts = integrity::check_all(&mut cluster, 2).unwrap();
    assert!(verdicts.iter().all(|v| v.ok));
}

#[test]
fn distributed_answers_match_reference_on_large_workload() {
    let schema = Schema::paper_example();
    let mut cluster = DlaCluster::new(ClusterConfig::new(5, schema.clone()).with_seed(3))
        .expect("cluster builds");
    let user = cluster.register_user("u").unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let records = gen::generate(
        &WorkloadConfig {
            records: 120,
            users: 6,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster.log_records(&user, &records).unwrap();

    for query in [
        "c1 > 50",
        "c1 > 25 AND c1 < 75",
        "protocol = 'UDP' OR c2 > 500.00",
        "NOT (id = 'U1' OR id = 'U2')",
        "(c1 > 60 OR c2 < 50.00) AND protocol = 'TCP'",
        "time > '20:30:00/05/12/2002' AND c1 <= 90",
        "id != c3",
        "c3 = 'bank' OR c3 = 'salary'",
    ] {
        let parsed = confidential_audit::audit::parser::parse(query, &schema).unwrap();
        let expect: BTreeSet<Glsn> = records
            .iter()
            .zip(&glsns)
            .filter(|(r, _)| {
                // Re-key the record under its assigned glsn for eval.
                let mut rr = LogRecord::new(Glsn(0));
                for (n, v) in r.iter() {
                    rr.insert(n.clone(), v.clone());
                }
                parsed.eval(&rr).unwrap()
            })
            .map(|(_, g)| *g)
            .collect();
        let got: BTreeSet<Glsn> = cluster.query(query).unwrap().glsns.into_iter().collect();
        assert_eq!(got, expect, "query {query}");
    }
}

#[test]
fn multiple_users_isolated_by_tickets() {
    let mut cluster = paper_cluster(5);
    let alice = cluster.register_user("alice").unwrap();
    let bob = cluster.register_user("bob").unwrap();
    let records = paper_table1();
    let alice_glsn = cluster.log_record(&alice, &records[0]).unwrap();
    let bob_glsn = cluster.log_record(&bob, &records[1]).unwrap();

    // Each owner reads its own record; cross-reads are denied by ACL.
    assert!(cluster.retrieve_record(&alice, alice_glsn).is_ok());
    assert!(cluster.retrieve_record(&bob, bob_glsn).is_ok());
    assert!(cluster.retrieve_record(&alice, bob_glsn).is_err());
    assert!(cluster.retrieve_record(&bob, alice_glsn).is_err());

    // But audit queries span both users' records (that is the point of
    // network-wide auditing).
    let result = cluster.query("protocol = 'UDP'").unwrap();
    assert_eq!(result.glsns.len(), 2);
}

#[test]
fn query_cost_scales_with_matches_not_store_size() {
    // Grow the store; a selective query's protocol bytes should stay
    // in the same ballpark (set elements = matches, not records).
    let selective = "id = 'U1' AND c1 > 95"; // rare
    let mut costs = Vec::new();
    for records in [50usize, 400] {
        let schema = Schema::paper_example();
        let mut cluster =
            DlaCluster::new(ClusterConfig::new(4, schema).with_seed(6)).expect("cluster builds");
        let user = cluster.register_user("u").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let data = gen::generate(
            &WorkloadConfig {
                records,
                ..WorkloadConfig::default()
            },
            &mut rng,
        );
        cluster.log_records(&user, &data).unwrap();
        let result = cluster.query(selective).unwrap();
        costs.push((result.glsns.len(), result.bytes));
    }
    // 8x more records must not cost anywhere near 8x the bytes unless
    // the match count grew proportionally.
    let (m0, b0) = costs[0];
    let (m1, b1) = costs[1];
    let match_growth = (m1.max(1)) as f64 / (m0.max(1)) as f64;
    let byte_growth = b1 as f64 / b0 as f64;
    assert!(
        byte_growth < match_growth.max(1.0) * 4.0,
        "bytes grew {byte_growth:.1}x while matches grew {match_growth:.1}x"
    );
}

#[test]
fn schema_partition_and_latency_are_configurable() {
    use confidential_audit::net::latency::LatencyModel;
    let schema = Schema::paper_example();
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(7, schema)
            .with_seed(8)
            .with_latency(LatencyModel::lan()),
    )
    .expect("one attribute per node");
    let user = cluster.register_user("u").unwrap();
    cluster.log_records(&user, &paper_table1()).unwrap();
    let result = cluster.query("c1 > 30 AND id = 'U1'").unwrap();
    assert_eq!(result.glsns.len(), 1);
    assert!(
        cluster.net().elapsed() > confidential_audit::net::SimTime::ZERO,
        "LAN model must accrue simulated latency"
    );
}

#[test]
fn empty_cluster_queries_cleanly() {
    let mut cluster = paper_cluster(9);
    let result = cluster.query("c1 > 0").unwrap();
    assert!(result.glsns.is_empty());
    let count = aggregate::count_matching(&mut cluster, "c1 > 0").unwrap();
    assert_eq!(count.count, 0);
}

#[test]
fn fixed2_and_time_predicates_work_end_to_end() {
    let mut cluster = paper_cluster(10);
    let user = cluster.register_user("u").unwrap();
    cluster.log_records(&user, &paper_table1()).unwrap();

    // Exact fixed-point boundary.
    let result = cluster.query("c2 >= 235.00 AND c2 <= 345.11").unwrap();
    assert_eq!(result.glsns.len(), 2);

    // Paper-format time window.
    let result = cluster
        .query("time >= '20:20:35/05/12/2002' AND time <= '20:23:38/05/12/2002'")
        .unwrap();
    assert_eq!(result.glsns.len(), 3);
}

#[test]
fn record_values_never_appear_in_protocol_traffic() {
    // Log a record with a distinctive value, then scan EVERY payload
    // the network carried during the query phase: the plaintext value
    // must never appear — only fingerprints and ciphertexts travel.
    let mut cluster = paper_cluster(11);
    let everyone = 0..cluster.shared_net().num_nodes();
    let tap = Arc::new(everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::curious));
    cluster.set_adversary(tap.clone());
    let user = cluster.register_user("u").unwrap();
    let secret_note = "ULTRA-SECRET-MERGER-MEMO";
    let record = LogRecord::new(Glsn(0))
        .with("time", AttrValue::Time(1_000_000))
        .with("id", AttrValue::text("U1"))
        .with("protocol", AttrValue::text("UDP"))
        .with("tid", AttrValue::text("T1"))
        .with("c1", AttrValue::Int(1))
        .with("c2", AttrValue::Fixed2(100))
        .with("c3", AttrValue::text(secret_note));
    cluster.log_record(&user, &record).unwrap();

    // The fragment shipping during log_record DID carry the value (the
    // user -> storing-node channel is inside the trust boundary), so
    // mark where the query-phase traffic begins.
    let logged_until = tap.captured().len();

    // Queries that *touch* c3's owner node in several ways.
    let _ = cluster.query("id = c3").unwrap();
    let _ = cluster.query("c1 > 0 AND tid = 'T1'").unwrap();
    let _ =
        confidential_audit::audit::aggregate::count_matching(&mut cluster, "c3 != 'x'").unwrap();

    let needle = secret_note.as_bytes();
    let wire = tap.captured();
    for (i, message) in wire.iter().enumerate().skip(logged_until) {
        assert!(
            !message.payload.windows(needle.len()).any(|w| w == needle),
            "payload #{i} ({} -> {}) leaks the plaintext note",
            message.from,
            message.to
        );
    }
    assert!(
        wire.len() > logged_until,
        "the queries must actually have generated traffic"
    );
}

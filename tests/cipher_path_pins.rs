//! Cross-commit pins for the one cipher path.
//!
//! Until PR 15 the repo carried alternative exponentiation rungs, a
//! second residue test and a pooled batch mode, and differential suites
//! proved they all emitted the same bytes. With the alternatives gone
//! those witnesses are gone too, so the bytes themselves are pinned:
//! every constant below was captured on the commit *before* the
//! collapse (`d880b75`) and must never move. A change that alters a
//! ciphertext, a pad byte, a message order or an answer shows up here.

use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::audit::deploy::{build_cluster, run_workload, WorkloadSpec};
use confidential_audit::crypto::sha256::{self, Sha256};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::{generate, WorkloadConfig};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::{ChannelNet, SimTime, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// SHA-256 over every captured payload `(from, to, len, bytes)` and
/// every answer glsn of the three-query scenario below.
const QUERY_TRANSCRIPT_SHA256: &str =
    "592f8ce6dac6be545c92fdd80ed22327d2b79663a4d0348c4bed5c69093f606b";

/// `run_workload(..).digest_hex()` for `WorkloadSpec::default()`.
const WORKLOAD_DEFAULT_DIGEST: &str =
    "64cd7659de68f1a17a7465b2f452393e989d4d31d92d447bde04e01665e1f312";

/// `run_workload(..).digest_hex()` for 3 nodes, 9 records, seed 23.
const WORKLOAD_3_9_23_DIGEST: &str =
    "d0358a208ca472dbe13714188a86ff25a296f28528fc3d5a73e302345faf0342";

/// 4 nodes on the paper partition, seed 53, two-record epochs, ten
/// generated records, three queries (conjunctive, equality join,
/// disjunctive) with every payload captured.
#[test]
fn query_wire_transcript_and_answers_are_pinned() {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(53)
        .with_epoch_length(2)
        .with_payload_capture();
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let records = generate(
        &WorkloadConfig {
            records: 10,
            ..WorkloadConfig::default()
        },
        &mut StdRng::seed_from_u64(53),
    );
    cluster.log_records(&user, &records).expect("logs");

    let mut hasher = Sha256::new();
    for criteria in [
        "tid = 'T1100267' and c2 > 100.00",
        "id = c3",
        "(id = 'U1' OR c1 > 0) AND protocol = 'UDP'",
    ] {
        let answer = cluster.query(criteria).expect("query");
        hasher.update(&(answer.glsns.len() as u64).to_be_bytes());
        for glsn in &answer.glsns {
            hasher.update(&glsn.0.to_be_bytes());
        }
    }
    let net = cluster.net();
    let payloads = net.captured_payloads();
    assert!(!payloads.is_empty(), "payload capture must be on");
    for (from, to, payload) in payloads.iter() {
        hasher.update(&(from.index() as u64).to_be_bytes());
        hasher.update(&(to.index() as u64).to_be_bytes());
        hasher.update(&(payload.len() as u64).to_be_bytes());
        hasher.update(payload);
    }
    assert_eq!(
        sha256::to_hex(&hasher.finalize()),
        QUERY_TRANSCRIPT_SHA256,
        "query traffic or answers moved off the pre-collapse bytes"
    );
}

fn channel_digest(spec: &WorkloadSpec) -> String {
    let cluster = build_cluster(spec).expect("cluster");
    let net = ChannelNet::with_clock(
        spec.network_size(),
        SimTime::from_millis(10_000),
        Arc::new(VirtualClock::new()),
    );
    let outcome = run_workload(&cluster, &net, spec).expect("channel workload");
    assert!(outcome.integrity_ok(), "the trail must verify");
    outcome.digest_hex()
}

/// The deployment workload (deposits plus all five MPC protocols) on
/// the in-process channel transport; `tests/socket_equivalence.rs`
/// ties the TCP mesh to the same digests.
#[test]
fn deploy_workload_digests_are_pinned() {
    assert_eq!(
        channel_digest(&WorkloadSpec::default()),
        WORKLOAD_DEFAULT_DIGEST
    );
    let spec = WorkloadSpec {
        nodes: 3,
        records: 9,
        seed: 23,
    };
    assert_eq!(channel_digest(&spec), WORKLOAD_3_9_23_DIGEST);
}

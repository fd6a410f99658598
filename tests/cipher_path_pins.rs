//! Cross-commit pins for the one cipher path.
//!
//! Until PR 15 the repo carried alternative exponentiation rungs, a
//! second residue test and a pooled batch mode, and differential suites
//! proved they all emitted the same bytes. With the alternatives gone
//! those witnesses are gone too, so the bytes themselves are pinned:
//! every constant below was captured on the commit *before* the
//! collapse (`d880b75`) and must never move (one re-capture, of the
//! raw transcript, is told at its constant). A change that alters a
//! ciphertext, a pad byte, a message order or an answer shows up here.
//! `QUERY_ELEMENTS_SHA256`, captured later, pins the same scenario's
//! set frames by the values they carry, so that a change to how a set
//! element is spelled on the wire shows which of the two it moved.

use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::audit::deploy::{build_cluster, run_workload, WorkloadSpec};
use confidential_audit::bigint::Ubig;
use confidential_audit::crypto::sha256::{self, Sha256};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::{generate, WorkloadConfig};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::mpc::set_intersection::SET_TAG;
use confidential_audit::net::adversary::CapturedMessage;
use confidential_audit::net::wire::Reader;
use confidential_audit::net::{ChannelNet, ScriptedAdversary, SimTime, Transport, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// SHA-256 over every payload `(from, to, len, bytes)` the wire carried
/// and every answer glsn of the three-query scenario below. Re-captured
/// once, when a set element began to travel as its domain's fixed-width
/// words and the collectors to list elements in numeric order: the
/// spelling moved, and [`QUERY_ELEMENTS_SHA256`] showed that nothing
/// the frames say did.
const QUERY_TRANSCRIPT_SHA256: &str =
    "b7037b0ff30eb61d9bcc454547179b2eb191098c0537c4db68d33ec0e7f4e134";

/// `run_workload(..).digest_hex()` for `WorkloadSpec::default()`.
const WORKLOAD_DEFAULT_DIGEST: &str =
    "64cd7659de68f1a17a7465b2f452393e989d4d31d92d447bde04e01665e1f312";

/// `run_workload(..).digest_hex()` for 3 nodes, 9 records, seed 23.
const WORKLOAD_3_9_23_DIGEST: &str =
    "d0358a208ca472dbe13714188a86ff25a296f28528fc3d5a73e302345faf0342";

/// SHA-256 over every message `(from, to)` the wire carried, with a
/// ∩ₛ/∪ₛ set frame as its tag, its origin (∩ₛ) and its elements'
/// values in numeric order, and any other frame as its payload, then
/// every answer glsn of the same scenario. It pins what the set frames
/// say, not how they spell it.
const QUERY_ELEMENTS_SHA256: &str =
    "d4823acba11d32e78f96ca2ddb05d0e58e02cfe4bb3e1957600f09227cb31ba7";

/// The wire and the answers of 4 nodes on the paper partition, seed
/// 53, two-record epochs, ten generated records, three queries
/// (conjunctive, equality join, disjunctive) under a tap that records
/// every message.
fn query_scenario() -> (Vec<CapturedMessage>, Vec<Vec<u64>>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(53)
        .with_epoch_length(2);
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let everyone = 0..cluster.shared_net().num_nodes();
    let tap = Arc::new(everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::curious));
    cluster.set_adversary(tap.clone());
    let user = cluster.register_user("u").expect("capacity");
    let records = generate(
        &WorkloadConfig {
            records: 10,
            ..WorkloadConfig::default()
        },
        &mut StdRng::seed_from_u64(53),
    );
    cluster.log_records(&user, &records).expect("logs");

    let answers = [
        "tid = 'T1100267' and c2 > 100.00",
        "id = c3",
        "(id = 'U1' OR c1 > 0) AND protocol = 'UDP'",
    ]
    .map(|criteria| {
        let answer = cluster.query(criteria).expect("query");
        answer.glsns.iter().map(|glsn| glsn.0).collect()
    });
    let wire = tap.captured();
    assert!(!wire.is_empty(), "the tap must see the wire");
    (wire, answers.into())
}

/// Each answer's length and glsns, into `hasher`.
fn hash_answers(hasher: &mut Sha256, answers: &[Vec<u64>]) {
    for answer in answers {
        hasher.update(&(answer.len() as u64).to_be_bytes());
        for glsn in answer {
            hasher.update(&glsn.to_be_bytes());
        }
    }
}

#[test]
fn query_wire_transcript_and_answers_are_pinned() {
    let (wire, answers) = query_scenario();
    let mut hasher = Sha256::new();
    hash_answers(&mut hasher, &answers);
    for message in &wire {
        hasher.update(&(message.from.index() as u64).to_be_bytes());
        hasher.update(&(message.to.index() as u64).to_be_bytes());
        hasher.update(&(message.payload.len() as u64).to_be_bytes());
        hasher.update(&message.payload);
    }
    assert_eq!(
        sha256::to_hex(&hasher.finalize()),
        QUERY_TRANSCRIPT_SHA256,
        "query traffic or answers moved off the pre-collapse bytes"
    );
}

/// The origin (∩ₛ only) and the element values of a set frame.
fn set_frame(payload: &[u8]) -> (Option<u64>, Vec<Ubig>) {
    let tag = payload[0];
    let mut r = Reader::open(payload, tag).expect("a tag");
    let origin = (tag == SET_TAG).then(|| r.get_u64().expect("an origin"));
    // Four big-endian words an element on the 256-bit domain.
    let element = |r: &mut Reader<'_>| {
        let words = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        Ok(Ubig::from_limbs(words.into_iter().rev().collect()))
    };
    let elements = r.get_list(element).expect("a set frame's elements");
    r.finish().expect("a set frame ends with its elements");
    (origin, elements)
}

#[test]
fn query_set_elements_and_answers_are_pinned() {
    const UNION_TAG: u8 = 0x02;
    let (wire, answers) = query_scenario();
    let mut hasher = Sha256::new();
    let mut sets = 0;
    for message in &wire {
        hasher.update(&(message.from.index() as u64).to_be_bytes());
        hasher.update(&(message.to.index() as u64).to_be_bytes());
        let tag = message.payload[0];
        if tag != SET_TAG && tag != UNION_TAG {
            hasher.update(&(message.payload.len() as u64).to_be_bytes());
            hasher.update(&message.payload);
            continue;
        }
        sets += 1;
        let (origin, mut elements) = set_frame(&message.payload);
        hasher.update(&[tag]);
        if let Some(origin) = origin {
            hasher.update(&origin.to_be_bytes());
        }
        elements.sort();
        hasher.update(&(elements.len() as u64).to_be_bytes());
        for e in &elements {
            let bytes = e.to_bytes_be();
            hasher.update(&(bytes.len() as u64).to_be_bytes());
            hasher.update(&bytes);
        }
    }
    assert!(sets > 0, "the queries relay sets");
    hash_answers(&mut hasher, &answers);
    assert_eq!(
        sha256::to_hex(&hasher.finalize()),
        QUERY_ELEMENTS_SHA256,
        "a set element, a message order or an answer moved"
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

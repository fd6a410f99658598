//! Chaos equivalence for the hierarchical federation: a 4-ring
//! federation, a 1-ring federation and the centralized whole-record
//! reference must return exactly the same answer — identified by
//! global deposit index, the topology-independent record identity —
//! for arbitrary criteria, over networks that drop and duplicate 5%
//! of messages inside every sub-ring. A second test checks the root
//! accumulator cross-check still closes after chaotic queries: lossy
//! transports may cost retransmissions, but they must never move a
//! sealed checkpoint.

use dla_audit::exec::ResilientPolicy;
use dla_audit::federation::{FederatedCluster, FederationConfig};
use dla_audit::query::{CmpOp, Criteria, Predicate};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use proptest::prelude::*;
use rand::SeedableRng;

const DROP: f64 = 0.05;
const DUPLICATE: f64 = 0.05;
const RECORDS: usize = 18;
const USERS: usize = 8;
/// Small enough that busy rings seal epochs mid-workload.
const EPOCH_LEN: u64 = 3;

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(vec![
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ])
}

/// Predicates over the attributes whose constants render back into
/// parseable query syntax (`Display` for `Time` is the paper's civil
/// format, which the parser does not take — so no time literals here;
/// the time-window path has its own chaos suite in `epoch_chaos`).
/// Equality literals on `id` matter most: they are what the federated
/// router pins clauses with.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (arb_op(), 1i64..100).prop_map(|(op, c)| Predicate::with_const(
            "c1",
            op,
            AttrValue::Int(c)
        )),
        (arb_op(), 1u64..=USERS as u64).prop_map(|(op, u)| Predicate::with_const(
            "id",
            op,
            AttrValue::text(&format!("U{u}"))
        )),
        prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne]).prop_map(|op| Predicate::with_const(
            "protocol",
            op,
            AttrValue::text("UDP")
        )),
    ]
}

fn arb_criteria() -> impl Strategy<Value = Criteria> {
    arb_predicate()
        .prop_map(Criteria::pred)
        .prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                inner.prop_map(Criteria::not),
            ]
        })
}

/// The deterministic workload both topologies deposit, in the same
/// global order — so deposit indices agree ring count notwithstanding.
fn workload(seed: u64) -> Vec<LogRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    generate(
        &WorkloadConfig {
            records: RECORDS,
            users: USERS,
            ..WorkloadConfig::default()
        },
        &mut rng,
    )
}

/// Builds an `rings`-ring federation loaded with `records`, then turns
/// every sub-ring's network hostile: messages drop and duplicate with
/// 5% probability.
fn chaotic_federation(rings: usize, seed: u64, records: &[LogRecord]) -> FederatedCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut fed = FederatedCluster::new(
        FederationConfig::new(rings, 4, schema)
            .with_partition(partition)
            .with_seed(seed)
            .with_epoch_length(EPOCH_LEN)
            .with_max_users(USERS),
    )
    .expect("federation builds");
    for u in 1..=USERS {
        fed.register_user(&format!("U{u}")).expect("capacity");
    }
    for record in records {
        let Some(AttrValue::Text(id)) = record.get(&"id".into()) else {
            unreachable!("generated records carry an id");
        };
        fed.log_records(id, std::slice::from_ref(record))
            .expect("logs");
    }
    for ring in 0..fed.num_rings() {
        let cluster = fed.ring_mut(ring);
        let mut net = cluster.net();
        let faults = net.faults_mut();
        faults.drop_probability = DROP;
        faults.duplicate_probability = DUPLICATE;
    }
    fed
}

/// Global deposit indices of the records `criteria` matches — the
/// centralized reference every topology must reproduce.
fn centralized_reference(criteria: &Criteria, records: &[LogRecord]) -> Vec<u64> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            let mut keyed = LogRecord::new(Glsn(0));
            for (n, v) in r.iter() {
                keyed.insert(n.clone(), v.clone());
            }
            criteria.eval(&keyed).unwrap()
        })
        .map(|(i, _)| i as u64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: a 4-ring federation and a 1-ring
    /// federation, each over independently lossy in-ring networks,
    /// both answer with exactly the centralized reference's record
    /// set — byte-identical answer digests included.
    #[test]
    fn federated_matches_single_ring_and_centralized_under_loss(
        criteria in arb_criteria(),
        seed in 0u64..1_000,
    ) {
        let records = workload(seed);
        let mut one = chaotic_federation(1, seed, &records);
        let mut four = chaotic_federation(4, seed ^ 0x00f4_c4a0, &records);
        let src = criteria.to_string();
        let policy = ResilientPolicy::default();

        let a = one
            .query_resilient(&src, &policy)
            .unwrap_or_else(|e| panic!("1-ring query {src} failed: {e}"));
        let b = four
            .query_resilient(&src, &policy)
            .unwrap_or_else(|e| panic!("4-ring query {src} failed: {e}"));
        let expect = centralized_reference(&criteria, &records);

        prop_assert_eq!(&a.records, &b.records, "topologies diverged on {}", src);
        prop_assert_eq!(a.answer_digest(), b.answer_digest(), "digests diverged on {}", src);
        prop_assert_eq!(&a.records, &expect, "federation diverged from reference on {}", src);
        prop_assert_eq!(a.cardinality, expect.len());
    }
}

/// Lossy networks must never move sealed history: after chaotic
/// resilient queries, checkpoint publication and the root accumulator
/// cross-check still close, and both federations publish the same
/// total number of sealed epochs (the workload, not the noise,
/// decides what seals).
#[test]
fn root_cross_check_closes_after_chaotic_queries() {
    let records = workload(424_242);
    let mut one = chaotic_federation(1, 9, &records);
    let mut four = chaotic_federation(4, 10, &records);
    let policy = ResilientPolicy::default();
    for fed in [&mut one, &mut four] {
        fed.query_resilient("protocol = 'UDP' OR c1 > 10", &policy)
            .expect("chaotic query completes");
        // The seal path already pushed every sealed checkpoint to the
        // root; the catch-up sweep must find nothing left over.
        let swept = fed.publish_checkpoints().expect("publication completes");
        assert_eq!(
            swept, 0,
            "push-at-seal left {swept} checkpoints for catch-up"
        );
        assert!(!fed.published().is_empty(), "tiny epochs must have sealed");
        assert!(fed.check_root().ok(), "root cross-check must close");
        assert!(fed.verify_presented(fed.published()));
    }
    let sealed = |fed: &FederatedCluster| {
        fed.published()
            .iter()
            .map(|p| p.checkpoint.items)
            .sum::<u64>()
    };
    assert_eq!(sealed(&one), sealed(&four), "sealed item totals diverged");
}

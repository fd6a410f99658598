//! Chaos re-run of the executor-equivalence property: with the
//! reliable (ARQ) transport layer on, a network that randomly drops
//! and duplicates up to 5% of messages must not change a single query
//! answer — the concurrent scheduler, plain and under whole-query
//! retry, agrees with centralized whole-record semantics exactly as on
//! a clean network.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::{ExecMode, ResilientPolicy};
use dla_audit::query::{CmpOp, Criteria, Predicate};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_net::Reliable;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;

const DROP: f64 = 0.05;
const DUPLICATE: f64 = 0.05;

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

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (arb_op(), 1i64..100).prop_map(|(op, c)| Predicate::with_const(
            "c1",
            op,
            AttrValue::Int(c)
        )),
        (arb_op(), 100i64..100_000).prop_map(|(op, c)| Predicate::with_const(
            "c2",
            op,
            AttrValue::Fixed2(c)
        )),
        (arb_op(), 1u64..6).prop_map(|(op, u)| Predicate::with_const(
            "id",
            op,
            AttrValue::text(&format!("U{u}"))
        )),
        prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne])
            .prop_map(|op| { Predicate::with_const("protocol", op, AttrValue::text("UDP")) }),
        prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne])
            .prop_map(|op| Predicate::with_attr("id", op, "c3")),
    ]
}

fn arb_criteria() -> impl Strategy<Value = Criteria> {
    arb_predicate().prop_map(Criteria::pred).prop_recursive(
        3,  // depth
        12, // nodes
        2,  // per collection
        |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                inner.prop_map(Criteria::not),
            ]
        },
    )
}

/// Builds a loaded cluster, then turns the network hostile: messages
/// drop and duplicate with 5% probability each from here on.
fn chaotic_cluster(seed: u64) -> (DlaCluster, Vec<LogRecord>, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed),
    )
    .expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let records = generate(
        &WorkloadConfig {
            records: 12,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster.log_records(&user, &records).expect("logs");
    {
        let mut net = cluster.net();
        let faults = net.faults_mut();
        faults.drop_probability = DROP;
        faults.duplicate_probability = DUPLICATE;
    }
    (cluster, records, glsns)
}

fn centralized_reference(
    criteria: &Criteria,
    records: &[LogRecord],
    glsns: &[Glsn],
) -> BTreeSet<Glsn> {
    records
        .iter()
        .zip(glsns)
        .filter(|(r, _)| {
            let mut keyed = LogRecord::new(Glsn(0));
            for (n, v) in r.iter() {
                keyed.insert(n.clone(), v.clone());
            }
            criteria.eval(&keyed).unwrap()
        })
        .map(|(_, g)| *g)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline chaos property: the resilient executor over a lossy
    /// network returns exactly the centralized-reference glsn set.
    #[test]
    fn lossy_executor_matches_whole_record_semantics(
        criteria in arb_criteria(),
        seed in 0u64..1_000,
    ) {
        let (mut cluster, records, glsns) = chaotic_cluster(seed);
        let expect = centralized_reference(&criteria, &records, &glsns);
        let policy = ResilientPolicy::default();
        let normalized = dla_audit::normal::normalize(&criteria);
        let outcome = dla_audit::exec::execute_resilient(&mut cluster, &normalized, &policy)
            .unwrap_or_else(|e| panic!("resilient query {criteria} failed: {e}"));
        let got: BTreeSet<Glsn> = outcome.result.glsns.into_iter().collect();
        prop_assert_eq!(got, expect, "criteria {} diverged under loss", criteria);
    }

    /// Scheduling equivalence survives chaos: one concurrent run of the
    /// plan over `Reliable` on a lossy network returns the centralized
    /// reference — what the retired serial executor was compared to —
    /// with every subquery in its own session.
    #[test]
    fn serial_and_concurrent_agree_under_loss(
        criteria in arb_criteria(),
        seed in 0u64..1_000,
    ) {
        let (cluster, records, glsns) = chaotic_cluster(seed);
        let expect = centralized_reference(&criteria, &records, &glsns);

        let normalized = dla_audit::normal::normalize(&criteria);
        let plan = dla_audit::plan::plan(&normalized, cluster.partition())
            .unwrap_or_else(|e| panic!("plan {criteria} failed: {e}"));

        let reliable = Reliable::new(cluster.shared_net());
        let concurrent = dla_audit::exec::execute_on(
            &cluster,
            &reliable,
            &plan,
            true,
            ExecMode::Concurrent,
            seed ^ 0xC0C0,
        )
        .unwrap_or_else(|e| panic!("concurrent {criteria} failed: {e}"));

        let concurrent_set: BTreeSet<Glsn> = concurrent.glsns.iter().copied().collect();
        prop_assert_eq!(&concurrent_set, &expect, "concurrent diverged on {}", criteria);
        prop_assert_eq!(concurrent.cardinality, expect.len());
        prop_assert_eq!(concurrent.sessions.len(), plan.subqueries.len());
    }
}

//! The decisive correctness property of the whole system: for *any*
//! well-typed criteria tree, the distributed confidential executor
//! returns exactly the records that plain whole-record evaluation
//! (the centralized Figure 1 semantics) returns.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::query::{CmpOp, Criteria, Predicate};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_net::{ScriptedAdversary, Transport};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// Predicates likely to select non-trivial subsets of the generated
/// workload (values drawn from the generator's ranges).
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

fn loaded_cluster(seed: u64) -> (DlaCluster, Vec<LogRecord>, Vec<Glsn>) {
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
            records: 15,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster.log_records(&user, &records).expect("logs");
    (cluster, records, glsns)
}

/// Plain whole-record evaluation: the centralized Figure 1 semantics.
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn distributed_executor_matches_whole_record_semantics(
        criteria in arb_criteria(),
        seed in 0u64..1_000,
    ) {
        let (mut cluster, records, glsns) = loaded_cluster(seed);
        let expect = centralized_reference(&criteria, &records, &glsns);
        let got: BTreeSet<Glsn> = cluster
            .query_criteria(&criteria)
            .unwrap_or_else(|e| panic!("query {criteria} failed: {e}"))
            .glsns
            .into_iter()
            .collect();
        prop_assert_eq!(got, expect, "criteria {} diverged", criteria);
    }

    /// The concurrent subquery scheduler is an optimisation, not a
    /// semantics change: for any randomized plan, executed through the
    /// explicit plan → `execute` path, it must return the glsn set of
    /// whole-record evaluation — the reference the retired serial
    /// executor was itself held to.
    #[test]
    fn concurrent_scheduler_matches_serial_on_random_plans(
        criteria in arb_criteria(),
        seed in 0u64..1_000,
    ) {
        let (mut cluster, records, glsns) = loaded_cluster(seed);
        let expect = centralized_reference(&criteria, &records, &glsns);

        let normalized = dla_audit::normal::normalize(&criteria);
        let plan = dla_audit::plan::plan(&normalized, cluster.partition())
            .unwrap_or_else(|e| panic!("plan {criteria} failed: {e}"));
        let concurrent = dla_audit::exec::execute(&mut cluster, &plan, true)
            .unwrap_or_else(|e| panic!("concurrent {criteria} failed: {e}"));

        let concurrent_set: BTreeSet<Glsn> = concurrent.glsns.iter().copied().collect();
        prop_assert_eq!(&concurrent_set, &expect, "criteria {} diverged", criteria);
        prop_assert_eq!(concurrent.cardinality, expect.len());
        // The run multiplexed each subquery over a fresh session.
        prop_assert_eq!(concurrent.sessions.len(), plan.subqueries.len());
    }
}

#[test]
fn concurrent_execution_never_leaks_plaintext_values() {
    // The seed corpus's leak check, re-run under the concurrent
    // scheduler: capture every payload the network carries while
    // multi-session queries are in flight and scan for a distinctive
    // plaintext. Session multiplexing must not widen the trust
    // boundary — only fingerprints and ciphertexts travel.
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(11),
    )
    .expect("cluster builds");
    let everyone = 0..cluster.shared_net().num_nodes();
    let tap = Arc::new(everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::curious));
    cluster.set_adversary(tap.clone());
    let user = cluster.register_user("u").expect("capacity");
    let secret_note = "ULTRA-SECRET-MERGER-MEMO";
    let record = LogRecord::new(Glsn(0))
        .with("time", AttrValue::Time(1_000_000))
        .with("id", AttrValue::text("U1"))
        .with("protocol", AttrValue::text("UDP"))
        .with("tid", AttrValue::text("T1"))
        .with("c1", AttrValue::Int(1))
        .with("c2", AttrValue::Fixed2(100))
        .with("c3", AttrValue::text(secret_note));
    cluster.log_record(&user, &record).expect("log");

    // log_record legitimately ships the fragment to its storing node;
    // the query-phase traffic begins after this mark.
    let logged_until = tap.captured().len();

    // Multi-subquery queries through the concurrent scheduler (the
    // query_shared path), touching c3's owner node in several ways.
    let _ = cluster.query_shared("id = c3").expect("join query");
    let _ = cluster
        .query_shared("(id = 'U1' OR c1 > 0) AND (protocol = 'UDP' OR c2 < 400.00) AND id != c3")
        .expect("cross query");

    let needle = secret_note.as_bytes();
    let captured = tap.captured();
    for (i, message) in captured.iter().enumerate().skip(logged_until) {
        assert!(
            !message.payload.windows(needle.len()).any(|w| w == needle),
            "payload #{i} ({} -> {}) leaks the plaintext note",
            message.from,
            message.to
        );
    }
    assert!(
        captured.len() > logged_until,
        "the queries must actually have generated traffic"
    );
}

//! Chaos equivalence for the epoch-sharded trail: with epoch pruning
//! active (tiny epochs → time-windowed queries touch a strict subset
//! of fragments) the executor must return exactly the same answers as
//! an effectively unsharded cluster (one giant epoch covering the
//! whole trail) and the centralized whole-record reference — over a
//! network that drops and duplicates 5% of messages. A second test
//! drives the epoch-seal records through a journal replay: restore
//! must reproduce the checkpoint chain and keep pruned answers stable.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::ResilientPolicy;
use dla_audit::query::{CmpOp, Criteria, Predicate};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;

const DROP: f64 = 0.05;
const DUPLICATE: f64 = 0.05;
const RECORDS: usize = 12;
/// Small enough that 12 records span several epochs.
const SHARDED_EPOCH_LEN: u64 = 3;
/// Large enough that every record lands in epoch 0 — pruning is a
/// no-op, i.e. the unsharded baseline.
const UNSHARDED_EPOCH_LEN: u64 = 1 << 40;

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

/// A `time θ const` literal whose constant brackets, splits, or misses
/// the generated timestamp range (start_time + 12 … start_time + 1440)
/// — so pruning windows come out full, partial, and empty.
fn arb_time_predicate() -> impl Strategy<Value = Predicate> {
    let base = WorkloadConfig::default().start_time;
    (arb_op(), 0u64..1500)
        .prop_map(move |(op, dt)| Predicate::with_const("time", op, AttrValue::Time(base + dt)))
}

fn arb_value_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (arb_op(), 1i64..100).prop_map(|(op, c)| Predicate::with_const(
            "c1",
            op,
            AttrValue::Int(c)
        )),
        (arb_op(), 1u64..6).prop_map(|(op, u)| Predicate::with_const(
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

/// Criteria that always carry at least one time literal conjoined at
/// the top level, so the planner derives a bounded window and the
/// epoch-pruned scan path actually activates.
fn arb_windowed_criteria() -> impl Strategy<Value = Criteria> {
    let inner = prop_oneof![
        arb_value_predicate().prop_map(Criteria::pred),
        arb_time_predicate().prop_map(Criteria::pred),
    ]
    .prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Criteria::not),
        ]
    });
    (arb_time_predicate(), inner).prop_map(|(t, c)| Criteria::pred(t).and(c))
}

/// Builds a loaded cluster with the given epoch length, then turns the
/// network hostile: messages drop and duplicate with 5% probability.
fn chaotic_cluster(seed: u64, epoch_length: u64) -> (DlaCluster, Vec<LogRecord>, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed)
            .with_epoch_length(epoch_length),
    )
    .expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let records = generate(
        &WorkloadConfig {
            records: RECORDS,
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

fn resilient_answer(cluster: &mut DlaCluster, criteria: &Criteria, label: &str) -> BTreeSet<Glsn> {
    let normalized = dla_audit::normal::normalize(criteria);
    let outcome =
        dla_audit::exec::execute_resilient(cluster, &normalized, &ResilientPolicy::default())
            .unwrap_or_else(|e| panic!("{label} query {criteria} failed: {e}"));
    outcome.result.glsns.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: sharded (epoch-pruned) and unsharded
    /// executions of the same windowed query over independently lossy
    /// networks both return exactly the centralized-reference glsn set.
    #[test]
    fn epoch_pruned_matches_unsharded_under_loss(
        criteria in arb_windowed_criteria(),
        seed in 0u64..1_000,
    ) {
        let (mut sharded, records, glsns) = chaotic_cluster(seed, SHARDED_EPOCH_LEN);
        let (mut unsharded, _, _) = chaotic_cluster(seed, UNSHARDED_EPOCH_LEN);
        // Sanity: the tiny epoch length really shards the trail.
        prop_assert!(sharded.epoch_stats().count() > 1);
        prop_assert_eq!(unsharded.epoch_stats().count(), 1);

        let expect = centralized_reference(&criteria, &records, &glsns);
        let pruned = resilient_answer(&mut sharded, &criteria, "sharded");
        let full = resilient_answer(&mut unsharded, &criteria, "unsharded");
        prop_assert_eq!(&pruned, &full, "sharded vs unsharded diverged on {}", criteria);
        prop_assert_eq!(&pruned, &expect, "sharded diverged from reference on {}", criteria);
    }
}

/// Epoch seals replay through restore: rebuild a journaled sharded
/// cluster, check the checkpoint chain reproduces bit-for-bit, and
/// re-ask a windowed query on the restored trail under the same lossy
/// network — the pruned answer must not move.
#[test]
fn epoch_seals_survive_chaotic_restore() {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "dla-epoch-chaos-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(7)
                .with_epoch_length(SHARDED_EPOCH_LEN)
                .with_journal_dir(&dir),
        )
        .expect("cluster builds")
    };

    let mut cluster = build();
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let records = generate(
        &WorkloadConfig {
            records: RECORDS,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster.log_records(&user, &records).expect("logs");

    let base = WorkloadConfig::default().start_time;
    let criteria = Criteria::pred(Predicate::with_const(
        "time",
        CmpOp::Le,
        AttrValue::Time(base + 400),
    ))
    .and(Criteria::pred(Predicate::with_const(
        "protocol",
        CmpOp::Eq,
        AttrValue::text("UDP"),
    )));
    let expect = centralized_reference(&criteria, &records, &glsns);

    let chaos = |c: &mut DlaCluster| {
        let mut net = c.net();
        let faults = net.faults_mut();
        faults.drop_probability = DROP;
        faults.duplicate_probability = DUPLICATE;
    };
    chaos(&mut cluster);
    let before = resilient_answer(&mut cluster, &criteria, "pre-restore");
    assert_eq!(before, expect, "pre-restore answer diverged");
    let chain_before = cluster.checkpoint_chain().clone();
    let sealed_before: Vec<_> = cluster
        .epoch_stats()
        .filter(|s| s.sealed)
        .map(|s| s.epoch)
        .collect();
    assert!(!sealed_before.is_empty(), "tiny epochs must have sealed");
    drop(cluster);

    let mut restored = build();
    assert_eq!(restored.checkpoint_chain(), &chain_before);
    assert!(restored.checkpoint_chain().verify_links());
    for epoch in &sealed_before {
        assert!(
            restored.epoch_stat(*epoch).is_some_and(|s| s.sealed),
            "epoch {epoch:?} lost its seal across restore"
        );
    }
    chaos(&mut restored);
    let after = resilient_answer(&mut restored, &criteria, "post-restore");
    assert_eq!(after, expect, "post-restore answer diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

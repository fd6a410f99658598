//! Chaos equivalence for standing queries: the union of the
//! incremental per-epoch deltas a subscription accumulates must equal
//! a fresh whole-trail query restricted to sealed epochs, which must
//! equal the centralized whole-record reference over the same glsns —
//! with every standing evaluation running over a network that drops
//! and duplicates 5% of its messages. A second test replays a
//! journaled trail through restore and checks that re-registered
//! subscriptions and cached windowed aggregates reproduce the
//! pre-crash answers (restore recomputes partials from surviving
//! fragments, so a lost journal tail can never leave a stale cache).

use dla_audit::aggregate::{windowed_bucket_aggregate, AggregatePath};
use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::plan::TimeWindow;
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
const RECORDS: usize = 14;
/// Small enough that the workload spans several sealed epochs.
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

/// Predicates whose constants render back into parseable query syntax
/// (standing queries register from source text).
fn arb_predicate() -> impl Strategy<Value = Predicate> {
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

/// Builds a loaded epoch-sharded cluster, then turns the network
/// hostile — everything a standing subscription does afterwards
/// (catch-up and seal-driven evaluation alike) crosses the lossy net.
fn chaotic_cluster(seed: u64) -> (DlaCluster, Vec<LogRecord>, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed)
            .with_epoch_length(EPOCH_LEN),
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

/// The glsns belonging to sealed epochs — the domain a standing
/// subscription has covered so far.
fn sealed_glsns(cluster: &DlaCluster) -> BTreeSet<Glsn> {
    cluster
        .epoch_stats()
        .filter(|s| s.sealed && s.deposits > 0)
        .flat_map(|s| (s.glsn_lo.0..=s.glsn_hi.0).map(Glsn))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: over a lossy network, the accumulated
    /// standing deltas equal a fresh shared-path query restricted to
    /// sealed epochs, and both equal the centralized reference.
    #[test]
    fn standing_deltas_match_fresh_query_and_centralized_under_loss(
        criteria in arb_criteria(),
        seed in 0u64..1_000,
    ) {
        let (mut cluster, records, glsns) = chaotic_cluster(seed);
        prop_assert!(
            cluster.epoch_stats().any(|s| s.sealed),
            "tiny epochs must have sealed"
        );
        let sealed = sealed_glsns(&cluster);
        let src = criteria.to_string();

        // Registration catches up over every sealed epoch, one ARQ
        // evaluation per epoch, across the hostile net.
        let id = cluster
            .register_standing(&src)
            .unwrap_or_else(|e| panic!("register {src} failed: {e}"));
        let accumulated: BTreeSet<Glsn> = cluster
            .standing_matches(id)
            .expect("registered query has matches")
            .into_iter()
            .collect();

        // Each delta stays inside its epoch's glsn range, and the
        // evaluated epochs are exactly the sealed ones.
        let deltas = cluster.standing_deltas(id);
        for delta in &deltas {
            let stat = cluster.trail().epoch_stat(delta.epoch).expect("evaluated epoch has stats");
            prop_assert!(stat.sealed);
            for glsn in &delta.glsns {
                prop_assert!(
                    (stat.glsn_lo..=stat.glsn_hi).contains(glsn),
                    "delta glsn {glsn:?} escaped epoch {:?}", delta.epoch
                );
            }
        }
        let evaluated: BTreeSet<_> = deltas.iter().map(|d| d.epoch).collect();
        let expected_epochs: BTreeSet<_> = cluster
            .epoch_stats()
            .filter(|s| s.sealed)
            .map(|s| s.epoch)
            .collect();
        prop_assert_eq!(evaluated, expected_epochs, "criteria {}", &src);

        // Fresh shared-path answer, restricted to sealed epochs.
        let fresh: BTreeSet<Glsn> = cluster
            .query_shared(&src)
            .unwrap_or_else(|e| panic!("fresh query {src} failed: {e}"))
            .glsns
            .into_iter()
            .filter(|g| sealed.contains(g))
            .collect();
        // Centralized whole-record reference, same restriction.
        let reference: BTreeSet<Glsn> = centralized_reference(&criteria, &records, &glsns)
            .into_iter()
            .filter(|g| sealed.contains(g))
            .collect();

        prop_assert_eq!(&accumulated, &fresh, "deltas vs fresh diverged on {}", &src);
        prop_assert_eq!(&accumulated, &reference, "deltas vs reference diverged on {}", &src);
    }
}

/// Seal-driven delivery: subscribe first, deposit afterwards, and
/// every sealed epoch pushes its delta with no poll in between — the
/// late subscriber converges on the same answer through catch-up.
#[test]
fn seals_push_deltas_incrementally_and_late_subscribers_converge() {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(17)
            .with_epoch_length(EPOCH_LEN),
    )
    .expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let early = cluster
        .register_standing("protocol = 'UDP'")
        .expect("registers");
    assert!(
        cluster.standing_deltas(early).is_empty(),
        "nothing sealed yet"
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let records = generate(
        &WorkloadConfig {
            records: RECORDS,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let mut sealed_seen = 0usize;
    for record in &records {
        cluster
            .log_records(&user, std::slice::from_ref(record))
            .expect("logs");
        let sealed_now = cluster.epoch_stats().filter(|s| s.sealed).count();
        let deltas = cluster.standing_deltas(early);
        assert_eq!(
            deltas.len(),
            sealed_now - sealed_seen,
            "each seal pushes exactly one delta, unpolled"
        );
        sealed_seen = sealed_now;
    }
    assert!(sealed_seen > 0, "the workload must seal epochs");

    let late = cluster
        .register_standing("protocol = 'UDP'")
        .expect("registers");
    assert_eq!(
        cluster.standing_matches(early),
        cluster.standing_matches(late),
        "catch-up must converge with seal-driven delivery"
    );
}

/// Crash-tail recovery: a journaled trail restores with the same
/// checkpoint chain (aggregate commitments included), re-registered
/// subscriptions rebuild the same accumulated answer, and cached
/// windowed aggregates still agree with a fragment rescan — because
/// restore recomputes partials from surviving fragments instead of
/// trusting the journaled copies.
#[test]
fn restore_rebuilds_standing_answers_and_cached_aggregates() {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "dla-standing-chaos-{}-{:?}",
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
                .with_seed(23)
                .with_epoch_length(EPOCH_LEN)
                .with_journal_dir(&dir),
        )
        .expect("cluster builds")
    };

    let mut cluster = build();
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let records = generate(
        &WorkloadConfig {
            records: RECORDS,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    cluster.log_records(&user, &records).expect("logs");

    let id = cluster
        .register_standing("protocol = 'UDP'")
        .expect("registers");
    let matches_before = cluster.standing_matches(id).expect("matches");
    let chain_before = cluster.checkpoint_chain().clone();
    let cached_before = windowed_bucket_aggregate(
        &cluster,
        &"protocol".into(),
        "UDP",
        Some(&"c1".into()),
        &TimeWindow::unbounded(),
        AggregatePath::Cached,
    )
    .expect("cached aggregate");
    assert!(cached_before.epochs_cached > 0, "seals must cache partials");
    drop(cluster);

    let restored = build();
    // Restore re-seals with recomputed partials: the aggregate
    // commitments inside the links must reproduce bit-for-bit.
    assert_eq!(restored.checkpoint_chain(), &chain_before);
    assert!(restored.checkpoint_chain().verify_links());
    // Cached and rescan answers agree on the restored trail, and match
    // the pre-crash cached answer.
    let cached_after = windowed_bucket_aggregate(
        &restored,
        &"protocol".into(),
        "UDP",
        Some(&"c1".into()),
        &TimeWindow::unbounded(),
        AggregatePath::Cached,
    )
    .expect("cached aggregate after restore");
    let rescan_after = windowed_bucket_aggregate(
        &restored,
        &"protocol".into(),
        "UDP",
        Some(&"c1".into()),
        &TimeWindow::unbounded(),
        AggregatePath::Rescan,
    )
    .expect("rescan aggregate after restore");
    assert_eq!(
        (cached_after.count, cached_after.sum),
        (rescan_after.count, rescan_after.sum),
        "stale partials would split the paths here"
    );
    assert_eq!(
        (cached_after.count, cached_after.sum),
        (cached_before.count, cached_before.sum)
    );

    // Standing registrations are in-memory by design: re-register and
    // let catch-up rebuild the accumulated answer over the restored
    // sealed epochs.
    let mut restored = restored;
    let re_id = restored
        .register_standing("protocol = 'UDP'")
        .expect("re-registers");
    assert_eq!(
        restored.standing_matches(re_id).expect("matches"),
        matches_before,
        "catch-up after restore must rebuild the pre-crash answer"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

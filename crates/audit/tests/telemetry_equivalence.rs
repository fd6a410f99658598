//! The telemetry off switch, proven end to end: a cluster with **no**
//! recorder installed must be observably identical to an instrumented
//! one — the same query answers, the same message and byte counts, the
//! same virtual elapsed time. Telemetry may watch the system; it must
//! never steer it. And what it watches is billed in full: a warm
//! query's every operation lands in one of its spans.
//!
//! Also exercises the cluster-level meta-audit trail: ordinary
//! operation journals deposits/registrations, the trail verifies
//! untampered, and a truncated, reordered, rewritten or empty
//! presentation fails the hash chain.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::meta::MetaAuditTrail;
use dla_logstore::fragment::Partition;
use dla_logstore::gen::paper_table1;
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;
use dla_net::SimTime;
use dla_telemetry::{CostVector, Recorder};

const QUERIES: &[&str] = &[
    "protocol = 'UDP'",
    "id = 'U1' OR c1 > 80",
    "id != c3",
    "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00)",
];

/// Everything externally observable about one query run.
#[derive(Debug, PartialEq)]
struct Observation {
    glsns: Vec<Glsn>,
    cardinality: usize,
    messages: u64,
    bytes: u64,
    elapsed: SimTime,
}

fn loaded(seed: u64) -> DlaCluster {
    loaded_with(seed, |config| config)
}

fn loaded_with(seed: u64, configure: impl FnOnce(ClusterConfig) -> ClusterConfig) -> DlaCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(configure(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed)
            .with_latency(LatencyModel::lan()),
    ))
    .expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    cluster.log_records(&user, &paper_table1()).expect("logs");
    cluster
}

fn run_all(cluster: &mut DlaCluster) -> Vec<Observation> {
    QUERIES
        .iter()
        .map(|q| {
            let r = cluster
                .query(q)
                .unwrap_or_else(|e| panic!("query {q:?} failed: {e}"));
            Observation {
                glsns: r.glsns,
                cardinality: r.cardinality,
                messages: r.messages,
                bytes: r.bytes,
                elapsed: r.elapsed,
            }
        })
        .collect()
}

/// Disabled telemetry changes no answer and adds zero messages.
#[test]
fn uninstrumented_run_is_identical_to_instrumented_run() {
    // Reference: no recorder anywhere near this cluster.
    let mut plain = loaded(77);
    let baseline = run_all(&mut plain);

    // Same seed, same workload, recorder installed for the whole run.
    let mut watched = loaded(77);
    let recorder = Recorder::new();
    let observed = {
        let _install = recorder.install();
        run_all(&mut watched)
    };
    let trace = recorder.take();

    assert_eq!(baseline, observed, "telemetry perturbed the system");

    // Guard against a vacuous pass: the instrumented run really did
    // record a full trace while leaving the observations untouched.
    assert!(!trace.spans.is_empty(), "no spans captured");
    assert!(
        trace.spans.iter().any(|s| !s.costs.is_zero()),
        "no span was charged a cost"
    );
    let total = trace.total_cost();
    assert!(total.msgs_sent > 0, "no traffic attributed");
    let baseline_msgs: u64 = baseline.iter().map(|o| o.messages).sum();
    assert_eq!(
        total.msgs_sent, baseline_msgs,
        "attributed traffic disagrees with the meters"
    );
}

/// A warm query's bill is whole: every operation it records, the
/// sealed epochs the engine serves from what it kept included, is
/// charged to one of its spans, and the bill by span name sums to the
/// trace's total.
#[test]
fn a_warm_query_is_billed_in_full_to_its_spans() {
    let mut cluster = loaded_with(79, |config| config.with_epoch_length(2));
    // Cold: the revealed answers of the sealed epochs are kept.
    run_all(&mut cluster);
    let recorder = Recorder::new();
    {
        let _install = recorder.install();
        run_all(&mut cluster);
    }
    let trace = recorder.take();
    let total = trace.total_cost();
    assert!(total.answer_hits > 0, "no sealed epoch was served warm");
    assert!(
        trace.unattributed.is_zero(),
        "recorded outside every span: {}",
        trace.unattributed
    );
    let mut billed = trace.unattributed;
    for costs in trace.cost_by_label().values() {
        billed.merge(costs);
    }
    assert_eq!(billed, total);
}

/// What `door` records outside every span, and in all.
fn unbilled(door: impl FnOnce()) -> (CostVector, CostVector) {
    let recorder = Recorder::new();
    {
        let _install = recorder.install();
        door();
    }
    let trace = recorder.take();
    (trace.unattributed, trace.total_cost())
}

/// A deposit and each door that asks an owner for one number are
/// billed in full: the deposit to its `deposit` span, each owner ask to
/// a span named after the ask.
#[test]
fn a_deposit_and_every_owner_ask_are_billed_to_their_spans() {
    use dla_audit::aggregate::sum_matching;
    use dla_audit::correlate::{detect, CorrelationRule};
    use dla_audit::transaction::{verify_transaction, Rule, TransactionSpec};
    use dla_logstore::model::TransactionId;

    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(80)
        .with_latency(LatencyModel::lan());
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let billed = |door: &str, (unattributed, total): (CostVector, CostVector)| {
        assert!(total.msgs_sent > 0, "{door} was traced");
        assert!(unattributed.is_zero(), "{door}: {unattributed}");
    };
    billed(
        "deposit",
        unbilled(|| {
            cluster.log_records(&user, &paper_table1()).expect("logs");
        }),
    );
    billed(
        "sum_matching",
        unbilled(|| {
            sum_matching(&mut cluster, "c1 >= 0", &"c1".into()).expect("sums");
        }),
    );
    let spec = TransactionSpec::new("order")
        .with_rule(Rule::MaxDuration { seconds: 400 })
        .with_rule(Rule::MinDistinctExecutors { count: 2 });
    let tid = TransactionId::new("T1100265");
    billed(
        "verify_transaction",
        unbilled(|| {
            let report = verify_transaction(&mut cluster, &tid, &spec).expect("verifies");
            assert!(report.conforms(), "{report}");
        }),
    );
    let rule = CorrelationRule {
        name: "burst".into(),
        event_criteria: "c1 >= 0".into(),
        window_seconds: 120,
        min_events: 1,
        min_sources: 1,
    };
    billed(
        "detect",
        unbilled(|| {
            assert!(!detect(&mut cluster, &rule).expect("detects").is_empty());
        }),
    );
}

/// Ordinary cluster operation populates the meta-audit trail, and the
/// trail's chain head catches truncation, reordering and rewriting.
#[test]
fn cluster_meta_audit_trail_verifies_and_detects_tampering() {
    let mut cluster = loaded(78);
    run_all(&mut cluster);

    let trail = cluster.meta_audit();
    // register_user + one deposit per Table 1 record.
    assert_eq!(trail.len(), 1 + paper_table1().len());
    assert_eq!(trail.records()[0].action, "register-user");
    assert!(trail.records()[1..].iter().all(|r| r.action == "deposit"));
    trail.verify().expect("untampered trail verifies");

    // Truncated presentation: drop the newest record.
    let err = MetaAuditTrail::verify_presented(&trail.records()[..trail.len() - 1], trail.head())
        .unwrap_err();
    assert!(err.to_string().contains("chain head mismatch"), "{err}");

    // Reordered presentation, seq fields patched to look consistent.
    let mut swapped = trail.records().to_vec();
    swapped.swap(1, 2);
    let (a, b) = (swapped[1].seq, swapped[2].seq);
    swapped[1].seq = a.min(b);
    swapped[2].seq = a.max(b);
    let err = MetaAuditTrail::verify_presented(&swapped, trail.head()).unwrap_err();
    assert!(err.to_string().contains("chain head mismatch"), "{err}");

    // Rewritten presentation, and an empty one.
    let mut edited = trail.records().to_vec();
    edited[1].detail.push_str(" (rewritten)");
    let err = MetaAuditTrail::verify_presented(&edited, trail.head()).unwrap_err();
    assert!(err.to_string().contains("chain head mismatch"), "{err}");
    let err = MetaAuditTrail::verify_presented(&[], trail.head()).unwrap_err();
    assert!(err.to_string().contains("chain head mismatch"), "{err}");
}

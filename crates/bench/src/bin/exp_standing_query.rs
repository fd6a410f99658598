//! Experiment P16: standing queries and per-epoch materialized
//! aggregates. Grows the log trail while holding the audited time
//! window fixed, and shows that
//!
//! * a windowed bucket aggregate answered from the partials cached at
//!   seal time touches a near-constant number of fragments (only the
//!   window's boundary epochs are scanned; covered epochs combine
//!   O(1) cached partials), while the full-rescan baseline touches
//!   every fragment ever logged — with byte-identical answers on both
//!   paths in every row,
//! * a standing subscription's accumulated per-epoch deltas equal a
//!   fresh whole-trail query restricted to sealed epochs — the
//!   subscriber never re-scans history it has already been pushed,
//! * the same holds on a federated topology, where deltas relay
//!   through the root ring with no driver poll,
//! * a rule is asked of a sealed epoch once: the second auditor to
//!   subscribe to a cross-node rule, and an ad-hoc query of it, are
//!   served the sealed epochs from what the auditor engine kept of the
//!   first subscriber's deltas — over sealed history without a message
//!   — while another query that shares the rule's clause asks it cold,
//!   in exact modexp / message / byte counts.
//!
//! Counts and answer equalities only — what a cached window or a
//! standing delta costs on the wall clock is measured by
//! `benchmark/run.sh` (`mixed_audit`).
//!
//! Run with: `cargo run -p dla-bench --bin exp_standing_query --release`
//! (writes `BENCH_standing_query.json`).

use dla_audit::aggregate::{windowed_bucket_aggregate, AggregatePath};
use dla_audit::cluster::DlaCluster;
use dla_audit::federation::{FederatedCluster, FederationConfig};
use dla_audit::plan::TimeWindow;
use dla_bench::{
    answered_once_cost, asked_once_cost, assert_warm_within_cold, metered, render_rows,
    write_snapshot, Json,
};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::WorkloadConfig;
use dla_logstore::model::{format_paper_time, AttrValue, Glsn};
use dla_logstore::schema::Schema;
use dla_telemetry::CostVector;
use std::collections::BTreeSet;

const SEED: u64 = 13;
const EPOCH_LEN: u64 = 8;
/// The audited window: the first WINDOW_SECS seconds of the workload,
/// held fixed while the trail grows underneath it.
const WINDOW_SECS: u64 = 720;
const STANDING_CRITERIA: &str = "protocol = 'UDP'";
/// A rule whose one clause spans two nodes, united by a secure set
/// union.
const SHARED_RULE: &str = "c1 > 40 OR id = 'U2'";
const SHARED_RECORDS: usize = 256;

struct Row {
    records: usize,
    epochs: usize,
    sealed_epochs: usize,
    epochs_cached: usize,
    cached_fragments: u64,
    rescan_fragments: u64,
    cached_count: u64,
    cached_sum: i64,
    identical: bool,
    standing_matches: usize,
    standing_identical: bool,
}

fn loaded_cluster(records: usize) -> DlaCluster {
    // Same seed for every trail length: the generated prefix is
    // identical, so the fixed window always covers the same records.
    let config = dla_bench::paper_config(SEED).with_epoch_length(EPOCH_LEN);
    dla_bench::loaded_cluster(config, records, SEED).0
}

/// The glsns of sealed epochs — the domain a standing subscription has
/// covered.
fn sealed_glsns(cluster: &DlaCluster) -> BTreeSet<Glsn> {
    cluster
        .epoch_stats()
        .filter(|s| s.sealed && s.deposits > 0)
        .flat_map(|s| (s.glsn_lo.0..=s.glsn_hi.0).map(Glsn))
        .collect()
}

fn run_row(records: usize) -> Row {
    let mut cluster = loaded_cluster(records);
    let base = WorkloadConfig::default().start_time;
    let window = TimeWindow {
        lo: Some(base),
        hi: Some(base + WINDOW_SECS),
    };
    let attr = "protocol".into();
    let sum_attr = "c1".into();

    let aggregate = |path| {
        windowed_bucket_aggregate(&cluster, &attr, "UDP", Some(&sum_attr), &window, path)
            .expect("windowed aggregate")
    };
    let cached = aggregate(AggregatePath::Cached);
    let rescan = aggregate(AggregatePath::Rescan);
    let identical = cached.count == rescan.count && cached.sum == rescan.sum;

    // The standing leg: register once (catch-up evaluates every sealed
    // epoch), then compare against a fresh whole-trail query restricted
    // to sealed epochs.
    let id = cluster
        .register_standing(STANDING_CRITERIA)
        .expect("registers");
    let accumulated: Vec<Glsn> = cluster.standing_matches(id).expect("matches");
    let sealed = sealed_glsns(&cluster);
    let mut fresh_sorted: Vec<Glsn> = cluster
        .query_shared(STANDING_CRITERIA)
        .expect("fresh query")
        .glsns
        .into_iter()
        .filter(|g| sealed.contains(g))
        .collect();
    fresh_sorted.sort_unstable();
    let standing_identical = accumulated == fresh_sorted;

    Row {
        records,
        epochs: cluster.epoch_stats().count(),
        sealed_epochs: cluster.epoch_stats().filter(|s| s.sealed).count(),
        epochs_cached: cached.epochs_cached,
        cached_fragments: cached.fragments_scanned,
        rescan_fragments: rescan.fragments_scanned,
        cached_count: cached.count,
        cached_sum: cached.sum.unwrap_or(0),
        identical,
        standing_matches: accumulated.len(),
        standing_identical,
    }
}

/// What [`run_shared_rule`] found.
struct SharedRule {
    sealed_epochs: u64,
    matches: usize,
    /// One row per asker, in asking order.
    askers: Vec<Json>,
}

/// One rule, asked by a first subscriber, a second one and three ad-hoc
/// queries — of the rule, of the rule over sealed history, of another
/// query that shares its clause — against the first and the last of
/// those on a cluster nobody has asked.
fn run_shared_rule(records: usize) -> SharedRule {
    let mut cluster = loaded_cluster(records);
    let sealed = sealed_glsns(&cluster);
    let epochs = cluster.epoch_stats().filter(|s| s.sealed).count() as u64;
    let sealed_only = |glsns: Vec<Glsn>| -> Vec<Glsn> {
        glsns.into_iter().filter(|g| sealed.contains(g)).collect()
    };

    let mut subscribe = || {
        let (id, cost) = metered(|| cluster.register_standing(SHARED_RULE).expect("registers"));
        (cluster.standing_matches(id).expect("matches"), cost)
    };
    let (first, first_cost) = subscribe();
    let (second, second_cost) = subscribe();
    let ask = |cluster: &DlaCluster, query: &str| {
        let (result, cost) = metered(|| cluster.query_shared(query));
        (result.expect("query runs").glsns, cost)
    };
    let (adhoc, adhoc_cost) = ask(&cluster, SHARED_RULE);
    let (fresh, fresh_cost) = ask(&loaded_cluster(records), SHARED_RULE);
    let sealed_until = (cluster.epoch_stats().filter(|s| s.sealed))
        .filter_map(|s| s.time_hi)
        .max()
        .expect("sealed epochs are timed");
    let history = format!(
        "time <= '{}' AND ({SHARED_RULE})",
        format_paper_time(sealed_until)
    );
    let (past, past_cost) = ask(&cluster, &history);
    let sharing_query = format!("({SHARED_RULE}) AND protocol = 'UDP'");
    let (sharing, sharing_cost) = ask(&cluster, &sharing_query);
    let (_, sharing_fresh_cost) = ask(&loaded_cluster(records), &sharing_query);

    assert_eq!(second, first, "both subscribers hold one answer");
    assert_eq!(adhoc, fresh, "the warm ad-hoc answer is the cold one");
    assert_eq!(first, sealed_only(fresh), "deltas cover the sealed epochs");
    assert_eq!(past, first, "sealed history is what the deltas said");
    assert!(sharing.iter().all(|g| adhoc.contains(g)));
    assert_warm_within_cold("second subscriber", &first_cost, &second_cost);
    assert_warm_within_cold("ad-hoc after standing", &fresh_cost, &adhoc_cost);
    // The engine was told the rule's answer per sealed epoch by the
    // first subscriber's deltas.
    for (what, cost) in [
        ("second subscriber", &second_cost),
        ("ad-hoc", &adhoc_cost),
        ("ad-hoc over sealed history", &past_cost),
    ] {
        assert_eq!(cost.answer_hits, epochs, "{what}: every sealed epoch kept");
    }
    for (what, cost) in [("second subscriber", &second_cost), ("history", &past_cost)] {
        assert_eq!(cost.msgs_sent, 0, "{what}: nothing left to ask");
    }
    // Nobody keeps the rule's clause apart from the rule: a query that
    // shares it is asked of every epoch, as on a cluster nobody asked
    // (the bytes differ by the keys' leading zero bytes alone).
    assert_eq!(sharing_cost.answer_hits, 0);
    let counts = |c: &CostVector| (c.modexp, c.msgs_sent);
    assert_eq!(counts(&sharing_cost), counts(&sharing_fresh_cost));
    let asker = |who: &str, cost| {
        let mut fields = vec![("asker", who.into())];
        fields.extend(asked_once_cost(cost));
        fields.extend(answered_once_cost(cost, epochs));
        Json::Object(fields)
    };
    SharedRule {
        sealed_epochs: epochs,
        matches: adhoc.len(),
        askers: vec![
            asker("first subscriber", &first_cost),
            asker("second subscriber", &second_cost),
            asker("ad-hoc query, nobody asked before", &fresh_cost),
            asker("ad-hoc query, after the subscribers", &adhoc_cost),
            asker(
                "ad-hoc query over sealed history, after the subscribers",
                &past_cost,
            ),
            asker(
                "ad-hoc query sharing the rule's clause, after the subscribers",
                &sharing_cost,
            ),
        ],
    }
}

/// The federated leg: a federation whose sub-ring seals push standing
/// deltas through the root ring with no driver poll. Returns (records
/// relayed, whether the accumulated answer equals the fresh federated
/// answer restricted to sealed epochs, checkpoints pushed at seal).
fn run_federated(records: usize) -> (usize, bool, usize) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let users = 8usize;
    let mut fed = FederatedCluster::new(
        FederationConfig::new(3, 4, schema)
            .with_partition(partition)
            .with_seed(SEED)
            .with_epoch_length(4)
            .with_max_users(users),
    )
    .expect("federation builds");
    let id = fed
        .register_standing(STANDING_CRITERIA)
        .expect("registers before any deposit");
    let workload = dla_bench::workload(records, users, SEED);
    for u in 1..=users {
        fed.register_user(&format!("U{u}")).expect("capacity");
    }
    for record in &workload {
        let Some(AttrValue::Text(user)) = record.get(&"id".into()) else {
            unreachable!("generated records carry an id");
        };
        fed.log_records(user, std::slice::from_ref(record))
            .expect("logs");
    }
    // Sealed deposit indices across the federation.
    let mut sealed: BTreeSet<u64> = BTreeSet::new();
    for ring in fed.rings() {
        for glsn in sealed_glsns(ring) {
            if let Some(index) = fed.deposit_index(glsn) {
                sealed.insert(index);
            }
        }
    }
    let accumulated = fed.standing_matches(id).expect("matches");
    let fresh: Vec<u64> = fed
        .query(STANDING_CRITERIA)
        .expect("fresh federated query")
        .records
        .into_iter()
        .filter(|index| sealed.contains(index))
        .collect();
    let identical = accumulated == fresh;
    (accumulated.len(), identical, fed.published().len())
}

impl Row {
    fn json(&self) -> Json {
        Json::Object(vec![
            ("records", self.records.into()),
            ("epochs", self.epochs.into()),
            ("sealed_epochs", self.sealed_epochs.into()),
            ("epochs_cached", self.epochs_cached.into()),
            ("cached_fragments", self.cached_fragments.into()),
            ("rescan_fragments", self.rescan_fragments.into()),
            ("cached_count", self.cached_count.into()),
            ("cached_sum", self.cached_sum.into()),
            ("identical", self.identical.into()),
            ("standing_matches", self.standing_matches.into()),
            ("standing_identical", self.standing_identical.into()),
        ])
    }
}

fn main() {
    dla_bench::refuse_args();
    let rows: Vec<Row> = [64usize, 128, 256].map(run_row).into();

    // Gates. (1) Cached and rescan answers are identical in every row,
    // and so are the standing-delta and fresh-query answers.
    for r in &rows {
        assert!(
            r.identical,
            "cached aggregate diverged from rescan at {} records",
            r.records
        );
        assert!(
            r.standing_identical,
            "standing deltas diverged from the fresh query at {} records",
            r.records
        );
    }
    // (2) The cached path's scan work does not move as the trail
    // grows — only the window's boundary epochs are ever scanned —
    // while the rescan baseline touches every fragment.
    let cached_fragments = rows[0].cached_fragments;
    for r in &rows {
        assert_eq!(
            r.cached_fragments, cached_fragments,
            "cached fragments scanned must stay constant as the trail grows"
        );
        assert!(r.epochs_cached > 0, "the window must hit cached epochs");
        assert_eq!(
            r.rescan_fragments, r.records as u64,
            "the rescan baseline touches every fragment at the owner"
        );
    }
    // (3) At the longest trail the rescan does strictly more scan work.
    let last = rows.last().expect("at least one row");
    assert!(
        last.rescan_fragments > last.cached_fragments,
        "rescan ({}) must scan strictly more fragments than cached ({})",
        last.rescan_fragments,
        last.cached_fragments
    );

    // (4) The federated topology reproduces the same equivalence, with
    // seal-time pushes only (no publish/poll call anywhere).
    let (fed_matches, fed_identical, fed_published) = run_federated(48);
    assert!(
        fed_identical,
        "federated standing deltas diverged from the fresh federated query"
    );
    assert!(
        fed_published > 0,
        "sub-ring seals must push checkpoints to the root with no poll"
    );

    // (5) A sealed epoch is asked once, whoever asks: the gates are in
    // `run_shared_rule`.
    let shared_rule = run_shared_rule(SHARED_RECORDS);

    let table: Vec<Json> = rows.iter().map(Row::json).collect();
    println!(
        "{}",
        render_rows(
            &format!(
                "P16 - STANDING QUERIES + MATERIALIZED AGGREGATES (epoch={EPOCH_LEN}, \
                 window={WINDOW_SECS}s)"
            ),
            &table
        )
    );
    println!(
        "cached windowed aggregate scans {} fragments at every trail length (rescan: {} at {} \
         records); cached/rescan and standing/fresh answers identical in every row; federated \
         standing relay archived {} records over {} pushed checkpoints.",
        cached_fragments, last.rescan_fragments, last.records, fed_matches, fed_published
    );

    println!(
        "\n{}",
        render_rows(
            &format!(
                "P16b - ONE RULE, ASKED ONCE PER SEALED EPOCH ({SHARED_RULE}; {SHARED_RECORDS} \
                 records, epoch={EPOCH_LEN})"
            ),
            &shared_rule.askers
        )
    );
    println!(
        "the first subscriber's catch-up runs one union per sealed epoch; the second \
         subscriber's and the ad-hoc query's sealed epochs come from what the auditor engine \
         kept of it (over sealed history nothing is sent), and another query sharing the \
         clause is served its sealed epochs by the clause's holder."
    );

    write_snapshot(
        "standing_query",
        vec![
            ("epoch_length", EPOCH_LEN.into()),
            ("window_secs", WINDOW_SECS.into()),
            ("cached_fragments", cached_fragments.into()),
            ("federated_matches", fed_matches.into()),
            ("federated_identical", fed_identical.into()),
            ("federated_published", fed_published.into()),
            ("rows", Json::Array(table)),
            (
                "shared_rule",
                Json::Object(vec![
                    ("rule", SHARED_RULE.into()),
                    ("records", SHARED_RECORDS.into()),
                    ("sealed_epochs", shared_rule.sealed_epochs.into()),
                    ("matches", shared_rule.matches.into()),
                    ("askers", Json::Array(shared_rule.askers)),
                ]),
            ),
        ],
    );
}

//! Experiment P14: hierarchical federation scaling. Sweeps the
//! sub-ring count (1 → 8) over one fixed many-user workload and shows
//! that
//!
//! * ingest scales: rings absorb deposits in parallel, so the
//!   virtual-time makespan shrinks and deposits/sec grows roughly
//!   linearly with the ring count (gated at ≥ 2x for 4 rings vs 1),
//! * answers are topology-independent: the federated answer digest
//!   (sorted global record indices) is byte-identical at every ring
//!   count, for both broadcast and router-pinned queries,
//! * the root ring catches tampering: a sub-ring presenting a
//!   rewritten checkpoint digest fails the root accumulator
//!   cross-check.
//!
//! The two queries are priced in exact messages and exponentiations,
//! summed over the rings each touches. They are different queries, not
//! two routings of one (EXPERIMENTS.md P14): the broadcast query is one
//! literal its owner scans locally, the routed query joins two holders
//! with a secure set intersection over the home ring's records.
//!
//! Run with: `cargo run -p dla-bench --bin exp_federation --release`
//! (writes `BENCH_federation.json`; prints the sweep as the markdown
//! table EXPERIMENTS.md P14 quotes).

use dla_audit::federation::{FederatedCluster, FederationConfig};
use dla_bench::{metered, render_markdown_rows, write_snapshot, Json};
use dla_crypto::sha256::to_hex;
use dla_logstore::fragment::Partition;
use dla_logstore::model::{AttrValue, LogRecord};
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;
use dla_telemetry::CostVector;

const SEED: u64 = 14;
const EPOCH_LEN: u64 = 8;
const RECORDS: usize = 288;
const USERS: usize = 64;
/// The broadcast query: no partition pin, every ring answers.
const BROADCAST: &str = "protocol = 'UDP'";
/// The routed query: an `id` equality pins it to one home ring.
const ROUTED: &str = "id = 'U5' AND c1 > 10";

struct Row {
    rings: usize,
    makespan_ns: u64,
    deposits_per_sec: f64,
    broadcast_cost: CostVector,
    routed_cost: CostVector,
    rings_routed: usize,
    count: u64,
    broadcast_digest: String,
    routed_digest: String,
    published: usize,
    root_ok: bool,
    tamper_detected: bool,
}

/// Builds an `rings`-ring federation and deposits the shared workload
/// record by record in global order (so deposit indices agree across
/// ring counts).
fn loaded_federation(rings: usize, workload: &[LogRecord]) -> FederatedCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut fed = FederatedCluster::new(
        FederationConfig::new(rings, 4, schema)
            .with_partition(partition)
            .with_seed(SEED)
            .with_epoch_length(EPOCH_LEN)
            .with_latency(LatencyModel::lan())
            .with_max_users(USERS),
    )
    .expect("federation builds");
    for u in 1..=USERS {
        fed.register_user(&format!("U{u}")).expect("capacity");
    }
    for record in workload {
        let Some(AttrValue::Text(id)) = record.get(&"id".into()) else {
            unreachable!("generated records carry an id");
        };
        fed.log_records(id, std::slice::from_ref(record))
            .expect("logs");
    }
    fed
}

fn run_row(rings: usize, workload: &[LogRecord]) -> Row {
    let mut fed = loaded_federation(rings, workload);
    let makespan_ns = fed.ingest_makespan_ns();
    assert!(makespan_ns > 0, "deposits must advance the virtual clock");
    let deposits_per_sec = workload.len() as f64 / (makespan_ns as f64 / 1e9);

    let (broadcast, broadcast_cost) = metered(|| fed.query(BROADCAST).expect("broadcast runs"));
    let (routed, routed_cost) = metered(|| fed.query(ROUTED).expect("routed query runs"));
    let count = fed.count(BROADCAST).expect("federated count runs").count;

    // The seal path pushes checkpoints as they happen; the sweep is a
    // no-op and `published()` holds the full archive.
    let swept = fed.publish_checkpoints().expect("publication runs");
    assert_eq!(swept, 0, "push-at-seal must leave nothing for catch-up");
    let published = fed.published().len();
    let root_ok = fed.check_root().ok();
    let mut tampered = fed.published().to_vec();
    tampered[0].checkpoint.items += 1;
    let tamper_detected = !fed.verify_presented(&tampered);

    Row {
        rings,
        makespan_ns,
        deposits_per_sec,
        broadcast_cost,
        routed_cost,
        rings_routed: routed.rings_queried.len(),
        count,
        broadcast_digest: to_hex(&broadcast.answer_digest()),
        routed_digest: to_hex(&routed.answer_digest()),
        published,
        root_ok,
        tamper_detected,
    }
}

impl Row {
    fn json(&self) -> Json {
        Json::Object(vec![
            ("rings", self.rings.into()),
            ("makespan_ns", self.makespan_ns.into()),
            ("deposits_per_sec", Json::Fixed(self.deposits_per_sec, 1)),
            ("broadcast_messages", self.broadcast_cost.msgs_sent.into()),
            ("broadcast_modexp", self.broadcast_cost.modexp.into()),
            ("routed_messages", self.routed_cost.msgs_sent.into()),
            ("routed_modexp", self.routed_cost.modexp.into()),
            ("rings_routed", self.rings_routed.into()),
            ("count", self.count.into()),
            ("broadcast_digest", self.broadcast_digest.as_str().into()),
            ("routed_digest", self.routed_digest.as_str().into()),
            ("published", self.published.into()),
            ("root_ok", self.root_ok.into()),
            ("tamper_detected", self.tamper_detected.into()),
        ])
    }
}

fn main() {
    dla_bench::refuse_args();
    let workload = dla_bench::workload(RECORDS, USERS, SEED);
    let rows: Vec<Row> = [1usize, 2, 4, 8]
        .map(|rings| run_row(rings, &workload))
        .into();

    // Gates. (1) Answers are byte-identical at every ring count.
    let broadcast_digest = rows[0].broadcast_digest.clone();
    let routed_digest = rows[0].routed_digest.clone();
    assert_eq!(broadcast_digest.len(), 64, "answer digests are SHA-256");
    for r in &rows {
        assert_eq!(
            r.broadcast_digest, broadcast_digest,
            "broadcast answer digest diverged at {} rings",
            r.rings
        );
        assert_eq!(
            r.routed_digest, routed_digest,
            "routed answer digest diverged at {} rings",
            r.rings
        );
        assert_eq!(r.count, rows[0].count, "federated count diverged");
    }
    // (2) Ingest scales: 4 rings absorb the same workload in well
    // under half the 1-ring makespan.
    let one = rows.iter().find(|r| r.rings == 1).expect("1-ring row");
    let four = rows.iter().find(|r| r.rings == 4).expect("4-ring row");
    let speedup = one.makespan_ns as f64 / four.makespan_ns as f64;
    assert!(
        speedup >= 2.0,
        "4-ring ingest speedup {speedup:.2}x is below the 2x gate"
    );
    // (3) The router pins the `id` query to one ring; the root
    // accumulator cross-check closes honestly and catches tampering.
    for r in &rows {
        assert_eq!(r.rings_routed, 1, "routed query must touch one ring");
        assert!(r.published > 0, "every ring count must seal epochs");
        assert!(
            r.root_ok,
            "root cross-check must close at {} rings",
            r.rings
        );
        assert!(r.tamper_detected, "tampered checkpoint must be caught");
    }

    let table: Vec<Json> = rows.iter().map(Row::json).collect();
    // A markdown table: EXPERIMENTS.md P14 quotes it verbatim, and
    // ci.sh diffs the quote against this stdout.
    println!(
        "P14 - FEDERATION SCALING ({RECORDS} records, {USERS} users)\n\n{}",
        render_markdown_rows(&table)
    );
    println!(
        "4-ring ingest speedup {speedup:.2}x over 1 ring; answer digests byte-identical at every \
         ring count; every tampered checkpoint caught by the root accumulator cross-check."
    );

    write_snapshot(
        "federation",
        vec![
            ("records", RECORDS.into()),
            ("users", USERS.into()),
            ("epoch_length", EPOCH_LEN.into()),
            ("speedup_4x_vs_1", Json::Fixed(speedup, 3)),
            ("broadcast_digest", broadcast_digest.as_str().into()),
            ("routed_digest", routed_digest.as_str().into()),
            ("digests_identical", true.into()),
            ("tamper_detected", true.into()),
            ("rows", Json::Array(table)),
        ],
    );
}

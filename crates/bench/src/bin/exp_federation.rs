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
//! Run with: `cargo run -p dla-bench --bin exp_federation --release`
//! (writes `BENCH_federation.json`; `--quick` is the CI-sized
//! configuration, which asserts the same gate and writes nothing).

use dla_audit::federation::{FederatedCluster, FederationConfig};
use dla_bench::{render_table, write_snapshot};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{AttrValue, LogRecord};
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;
use rand::SeedableRng;
use std::time::Instant;

const SEED: u64 = 14;
const EPOCH_LEN: u64 = 8;
/// The broadcast query: no partition pin, every ring answers.
const BROADCAST: &str = "protocol = 'UDP'";
/// The routed query: an `id` equality pins it to one home ring.
const ROUTED: &str = "id = 'U5' AND c1 > 10";

struct Row {
    rings: usize,
    makespan_ns: u64,
    deposits_per_sec: f64,
    broadcast_ms: f64,
    routed_ms: f64,
    rings_routed: usize,
    count_ms: f64,
    count: u64,
    broadcast_digest: String,
    routed_digest: String,
    published: usize,
    root_ok: bool,
    tamper_detected: bool,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fixed_workload(records: usize, users: usize) -> Vec<LogRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    generate(
        &WorkloadConfig {
            records,
            users,
            ..WorkloadConfig::default()
        },
        &mut rng,
    )
}

/// Builds an `rings`-ring federation and deposits the shared workload
/// record by record in global order (so deposit indices agree across
/// ring counts).
fn loaded_federation(rings: usize, users: usize, workload: &[LogRecord]) -> FederatedCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut fed = FederatedCluster::new(
        FederationConfig::new(rings, 4, schema)
            .with_partition(partition)
            .with_seed(SEED)
            .with_epoch_length(EPOCH_LEN)
            .with_latency(LatencyModel::lan())
            .with_max_users(users),
    )
    .expect("federation builds");
    for u in 1..=users {
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

fn run_row(rings: usize, users: usize, workload: &[LogRecord], iters: usize) -> Row {
    let mut fed = loaded_federation(rings, users, workload);
    let makespan_ns = fed.ingest_makespan_ns();
    assert!(makespan_ns > 0, "deposits must advance the virtual clock");
    let deposits_per_sec = workload.len() as f64 / (makespan_ns as f64 / 1e9);

    let mut broadcast_ms = f64::INFINITY;
    let mut routed_ms = f64::INFINITY;
    let mut count_ms = f64::INFINITY;
    let mut broadcast_digest = String::new();
    let mut routed_digest = String::new();
    let mut rings_routed = 0;
    let mut count = 0;
    for _ in 0..iters {
        let started = Instant::now();
        let b = fed.query(BROADCAST).expect("broadcast query runs");
        broadcast_ms = broadcast_ms.min(started.elapsed().as_secs_f64() * 1000.0);
        let started = Instant::now();
        let r = fed.query(ROUTED).expect("routed query runs");
        routed_ms = routed_ms.min(started.elapsed().as_secs_f64() * 1000.0);
        let started = Instant::now();
        let c = fed.count(BROADCAST).expect("federated count runs");
        count_ms = count_ms.min(started.elapsed().as_secs_f64() * 1000.0);
        broadcast_digest = hex(&b.answer_digest());
        routed_digest = hex(&r.answer_digest());
        rings_routed = r.rings_queried.len();
        count = c.count;
    }

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
        broadcast_ms,
        routed_ms,
        rings_routed,
        count_ms,
        count,
        broadcast_digest,
        routed_digest,
        published,
        root_ok,
        tamper_detected,
    }
}

fn json_row(r: &Row) -> String {
    format!(
        concat!(
            "    {{\"rings\": {}, \"makespan_ns\": {}, \"deposits_per_sec\": {:.1}, ",
            "\"broadcast_query_ms\": {:.3}, \"routed_query_ms\": {:.3}, ",
            "\"rings_routed\": {}, \"count_ms\": {:.3}, \"count\": {}, ",
            "\"broadcast_digest\": \"{}\", \"routed_digest\": \"{}\", ",
            "\"published\": {}, \"root_ok\": {}, \"tamper_detected\": {}}}"
        ),
        r.rings,
        r.makespan_ns,
        r.deposits_per_sec,
        r.broadcast_ms,
        r.routed_ms,
        r.rings_routed,
        r.count_ms,
        r.count,
        r.broadcast_digest,
        r.routed_digest,
        r.published,
        r.root_ok,
        r.tamper_detected,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ring_counts, records, users, iters): (&[usize], usize, usize, usize) = if quick {
        (&[1, 2, 4], 144, 48, 1)
    } else {
        (&[1, 2, 4, 8], 288, 64, 3)
    };

    let workload = fixed_workload(records, users);
    let rows: Vec<Row> = ring_counts
        .iter()
        .map(|&r| run_row(r, users, &workload, iters))
        .collect();

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

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.rings.to_string(),
                format!("{:.2}", r.makespan_ns as f64 / 1e6),
                format!("{:.0}", r.deposits_per_sec),
                format!("{:.2}", r.broadcast_ms),
                format!("{:.2}", r.routed_ms),
                format!("{:.2}", r.count_ms),
                r.published.to_string(),
                if r.tamper_detected { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "P14 - FEDERATION SCALING ({records} records, {users} users{})",
                if quick { ", quick" } else { "" }
            ),
            &[
                "rings",
                "makespan ms",
                "dep/s",
                "bcast ms",
                "routed ms",
                "count ms",
                "seals",
                "tamper?",
            ],
            &table
        )
    );
    println!(
        "4-ring ingest speedup {speedup:.2}x over 1 ring; answer digests byte-identical at every \
         ring count; every tampered checkpoint caught by the root accumulator cross-check."
    );

    let entries: Vec<String> = rows.iter().map(json_row).collect();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"federation\",\n  \"quick\": {},\n",
            "  \"records\": {},\n  \"users\": {},\n  \"epoch_length\": {},\n",
            "  \"speedup_4x_vs_1\": {:.3},\n",
            "  \"broadcast_digest\": \"{}\",\n  \"routed_digest\": \"{}\",\n",
            "  \"digests_identical\": true,\n  \"tamper_detected\": true,\n",
            "  \"rows\": [\n{}\n  ]\n}}\n"
        ),
        quick,
        records,
        users,
        EPOCH_LEN,
        speedup,
        broadcast_digest,
        routed_digest,
        entries.join(",\n")
    );
    write_snapshot("federation", quick, &json);
}

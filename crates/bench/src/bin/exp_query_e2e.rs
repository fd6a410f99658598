//! Experiment P5: end-to-end distributed query processing vs. the
//! centralized baseline (Fig. 1 vs Fig. 2) across workload sizes, plus
//! a latency-model ablation (ideal vs LAN vs WAN links) using the
//! simulator's virtual clocks, the concurrent scheduler's exact
//! figures, and — on a 16-epoch trail — what each query shape costs
//! cold and what it costs once the auditor engine keeps the answers of
//! the sealed epochs.
//!
//! Run with: `cargo run -p dla-bench --bin exp_query_e2e --release`
//! (writes `BENCH_query_e2e.json`: virtual time, counts and sessions —
//! a query's wall-clock trajectory is `benchmark/run.sh`'s
//! `query_scan`).

use dla_audit::centralized::CentralizedAuditor;
use dla_audit::cluster::ClusterConfig;
use dla_audit::exec::{execute, execute_on, ExecMode};
use dla_bench::{
    answered_once_cost, asked_once_cost, assert_warm_within_cold, fmt_bytes, loaded_cluster,
    metered, paper_config, render_rows, render_table, workload, write_snapshot, Json,
};
use dla_logstore::gen::WorkloadConfig;
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;

const QUERY: &str = "(id = 'U1' OR c1 > 80) AND c2 < 500.00 AND protocol = 'UDP'";

/// Four cross-node clauses (each spans two DLA nodes under the paper
/// partition), so the concurrent scheduler has four independent
/// sessions to overlap.
const SCHED_QUERY: &str = "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
     AND (tid = 'T2' OR c2 > 100.00) AND id != c3";

/// The three shapes `benchmark/run.sh` times, on its trail: 1 024
/// records in epochs of 64, fifteen of the sixteen sealed.
const SHAPES: [(&str, &str); 3] = [
    ("and2", "c1 > 30 AND id = 'U1'"),
    ("or2", "c1 > 40 OR id = 'U2'"),
    ("cnf4", SCHED_QUERY),
];
const TRAIL_RECORDS: usize = 1024;
const TRAIL_EPOCH: u64 = 64;

/// `and2` asked again costs the open epoch's share of its two scans'
/// sets — 71 of the trail's 913 + 134 elements sit in this trail's open
/// epoch, twice each — not the 2 094 of a conjunction over the whole
/// trail. (An average epoch holds 65.4, which is where ISSUE 23's
/// "≤ 140" came from.)
const AND2_WARM_MODEXP: u64 = 2 * 71;

/// Each shape asked twice of one cluster: cold, then with the answer of
/// every sealed epoch kept by the auditor engine.
fn asked_once_rows() -> Vec<Json> {
    let config = paper_config(12).with_epoch_length(TRAIL_EPOCH);
    let (cluster, _, _) = loaded_cluster(config, TRAIL_RECORDS, 12);
    let sealed = cluster.epoch_stats().filter(|s| s.sealed).count() as u64;
    assert_eq!(sealed, TRAIL_RECORDS as u64 / TRAIL_EPOCH - 1);
    SHAPES
        .iter()
        .map(|(shape, query)| {
            // One seed for both askings: the same keys, so what differs
            // is only what was not sent.
            let plan = cluster.compile(query).expect("compiles");
            let run = || {
                let net = cluster.shared_net();
                let (result, cost) =
                    metered(|| execute_on(&cluster, net, &plan, true, ExecMode::Concurrent, 12));
                (result.expect("query runs"), cost)
            };
            let (cold, cold_cost) = run();
            let (warm, warm_cost) = run();
            assert_eq!(
                warm.glsns, cold.glsns,
                "{shape}: warm answer is the cold answer"
            );
            assert_warm_within_cold(shape, &cold_cost, &warm_cost);
            assert!(warm_cost.bytes_sent < cold_cost.bytes_sent, "{shape}");
            assert_eq!(warm_cost.answer_hits, sealed, "{shape}: all kept");
            if *shape == "and2" {
                assert!(warm_cost.modexp <= AND2_WARM_MODEXP, "{warm_cost}");
            }
            let mut warm_fields = asked_once_cost(&warm_cost);
            warm_fields.extend(answered_once_cost(&warm_cost, sealed));
            Json::Object(vec![
                ("shape", (*shape).into()),
                ("cross_subqueries", cold.plan.cross_count().into()),
                ("matches", cold.glsns.len().into()),
                ("cold", Json::Object(asked_once_cost(&cold_cost))),
                ("warm", Json::Object(warm_fields)),
            ])
        })
        .collect()
}

/// One scheduler measurement of [`SCHED_QUERY`].
#[derive(Debug, PartialEq, Eq)]
struct SchedulerRun {
    virtual_ns: u64,
    messages: u64,
    bytes: u64,
    subqueries: usize,
    sessions: usize,
    max_concurrent_sessions: usize,
    matches: usize,
}

fn scheduler_run() -> SchedulerRun {
    let config = paper_config(7).with_latency(LatencyModel::lan());
    let (mut cluster, _, _) = loaded_cluster(config, 100, 7);

    let plan = cluster.compile(SCHED_QUERY).expect("compiles");
    cluster.net().reset_accounting();

    let result = execute(&mut cluster, &plan, true).expect("query runs");
    let net = cluster.net();
    SchedulerRun {
        virtual_ns: result.elapsed.as_nanos(),
        messages: result.messages,
        bytes: result.bytes,
        subqueries: plan.subqueries.len(),
        sessions: result.sessions.len(),
        max_concurrent_sessions: net.stats().max_concurrent_sessions(),
        matches: result.glsns.len(),
    }
}

fn main() {
    dla_bench::refuse_args();

    // Part 1: cost vs workload size, distributed vs centralized.
    let mut rows = Vec::new();
    for records in [10usize, 50, 200, 500] {
        let (mut cluster, _, _) = dla_bench::workload_cluster(4, records, 42);
        let before_msgs = cluster.net().stats().messages_sent;
        let before_bytes = cluster.net().stats().bytes_sent;
        let (dla_result, dla_cost) = metered(|| cluster.query(QUERY).expect("query runs"));
        let dla_msgs = cluster.net().stats().messages_sent - before_msgs;
        let dla_bytes = cluster.net().stats().bytes_sent - before_bytes;

        let mut auditor = CentralizedAuditor::new(Schema::paper_example(), 2);
        let user = auditor.register_user().expect("capacity");
        // The records `workload_cluster(4, records, 42)` logged above.
        for r in &workload(records, WorkloadConfig::default().users, 42) {
            auditor.log_record(user, r).expect("logs");
        }
        let (central_result, central_cost) =
            metered(|| auditor.query_text(QUERY).expect("query runs"));

        assert_eq!(dla_result.glsns.len(), central_result.len(), "same answers");
        rows.push(vec![
            records.to_string(),
            dla_result.glsns.len().to_string(),
            format!(
                "{} modexp / {dla_msgs} msgs / {}",
                dla_cost.modexp,
                fmt_bytes(dla_bytes)
            ),
            format!("{} modexp / 0 msgs", central_cost.modexp),
        ]);
    }
    println!(
        "{}",
        render_table(
            "P5a - END-TO-END QUERY: DLA cluster vs centralized auditor",
            &["records", "matches", "distributed cost", "centralized cost"],
            &rows
        )
    );
    println!("query: {QUERY}");
    println!("shape: identical answers; the DLA cluster pays protocol messages and");
    println!("commutative encryption for auditor blindness. Cost grows with the\nmatch count (set elements), not the store size.\n");

    // Part 2: simulated network latency ablation.
    let mut rows = Vec::new();
    for (label, latency) in [
        ("ideal", LatencyModel::Zero),
        ("LAN", LatencyModel::lan()),
        ("WAN", LatencyModel::wan()),
    ] {
        let config = ClusterConfig::new(4, Schema::paper_example())
            .with_seed(7)
            .with_latency(latency);
        let (mut cluster, _, _) = loaded_cluster(config, 100, 7);
        let before = cluster.net().elapsed();
        let result = cluster.query(QUERY).expect("query runs");
        let simulated = cluster.net().elapsed() - before;
        rows.push(vec![
            label.to_owned(),
            result.messages.to_string(),
            format!("{simulated}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "P5b - SIMULATED NETWORK LATENCY ABLATION (100 records, 4 nodes)",
            &["link model", "messages", "simulated protocol latency"],
            &rows
        )
    );
    println!("shape: ring protocols serialize hops, so WAN round-trips dominate");
    println!("end-to-end latency — the cluster belongs on one administrative LAN.");

    // Part 3: the concurrent subquery scheduler on a plan with four
    // independent cross-node subqueries (LAN latency, 4 nodes). The
    // figures are virtual time and counts, so they are exact: the gate
    // is the run the last serial-vs-concurrent comparison recorded
    // (EXPERIMENTS.md P5c, closed).
    let run = scheduler_run();
    let concurrent = Json::Object(vec![
        ("virtual_latency_ns", run.virtual_ns.into()),
        ("messages", run.messages.into()),
        ("bytes", run.bytes.into()),
        ("sessions", run.sessions.into()),
        (
            "max_concurrent_sessions",
            run.max_concurrent_sessions.into(),
        ),
    ]);
    println!(
        "\n{}",
        render_rows(
            "P5c - SUBQUERY SCHEDULING: concurrent sessions (LAN, 4 nodes)",
            std::slice::from_ref(&concurrent)
        )
    );
    println!("query: {SCHED_QUERY}");
    println!(
        "shape: {} independent subqueries overlap, so the plan's makespan is the\n\
         max, not the sum, of the subquery latencies.",
        run.subqueries
    );
    assert_eq!(
        run,
        SchedulerRun {
            virtual_ns: 809_187,
            messages: 27,
            bytes: 60_811,
            subqueries: 4,
            sessions: 4,
            max_concurrent_sessions: 4,
            matches: 45,
        },
        "the scheduler run moved off its recorded figures (virtual_ns was 1 129 480 while \
         the ring hops of a round were sent one after another; a round now leaves together)"
    );

    // Part 4: a sealed epoch is asked once. The gates (warm answer =
    // cold answer, warm cost within cold cost and fewer bytes, every
    // sealed epoch served by the engine on the second asking, `and2`
    // warm within its bound) are in `asked_once_rows`.
    let asked_once = asked_once_rows();
    println!(
        "\n{}",
        render_rows(
            &format!(
                "P5d - A SEALED EPOCH IS ASKED ONCE ({TRAIL_RECORDS} records, epochs of \
                 {TRAIL_EPOCH}, 4 nodes)"
            ),
            &asked_once
        )
    );
    println!(
        "shape: the auditor engine keeps the answer it was handed per sealed epoch, so the\n\
         second asking runs the plan — subqueries and conjunction — over the open epoch alone:\n\
         the same messages, over a sixteenth of the records."
    );

    write_snapshot(
        "query_e2e",
        vec![
            ("query", SCHED_QUERY.into()),
            ("nodes", 4u64.into()),
            ("records", 100u64.into()),
            ("latency_model", "lan".into()),
            ("subqueries", run.subqueries.into()),
            ("matches", run.matches.into()),
            ("concurrent", concurrent),
            (
                "asked_once",
                Json::Object(vec![
                    ("records", TRAIL_RECORDS.into()),
                    ("epoch_length", TRAIL_EPOCH.into()),
                    ("shapes", Json::Array(asked_once)),
                ]),
            ),
        ],
    );
}

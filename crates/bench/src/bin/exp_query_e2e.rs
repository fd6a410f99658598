//! Experiment P5: end-to-end distributed query processing vs. the
//! centralized baseline (Fig. 1 vs Fig. 2) across workload sizes, plus
//! a latency-model ablation (ideal vs LAN vs WAN links) using the
//! simulator's virtual clocks.
//!
//! Run with: `cargo run -p dla-bench --bin exp_query_e2e --release`
//! (writes `BENCH_query_e2e.json`: virtual time, counts and sessions —
//! a query's wall-clock trajectory is `benchmark/run.sh`'s
//! `query_scan`).

use dla_audit::centralized::CentralizedAuditor;
use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::{execute_with_options, ExecMode};
use dla_bench::{fmt_bytes, render_table, timed, write_snapshot};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;
use rand::SeedableRng;

const QUERY: &str = "(id = 'U1' OR c1 > 80) AND c2 < 500.00 AND protocol = 'UDP'";

/// Four cross-node clauses (each spans two DLA nodes under the paper
/// partition), so the concurrent scheduler has four independent
/// sessions to overlap.
const SCHED_QUERY: &str = "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
     AND (tid = 'T2' OR c2 > 100.00) AND id != c3";

/// One serial-vs-concurrent measurement of [`SCHED_QUERY`].
struct SchedulerRun {
    virtual_ns: u64,
    messages: u64,
    bytes: u64,
    subqueries: usize,
    sessions: usize,
    max_concurrent_sessions: usize,
    matches: usize,
}

fn scheduler_run(mode: ExecMode) -> SchedulerRun {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(7)
            .with_latency(LatencyModel::lan()),
    )
    .expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let data = generate(
        &WorkloadConfig {
            records: 100,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    cluster.log_records(&user, &data).expect("logs");

    let parsed = dla_audit::parser::parse(SCHED_QUERY, cluster.schema()).expect("parses");
    let normalized = dla_audit::normal::normalize(&parsed);
    let plan = dla_audit::plan::plan(&normalized, cluster.partition()).expect("plans");
    cluster.net().reset_accounting();

    let result = execute_with_options(&mut cluster, &plan, true, mode).expect("query runs");
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
    // Part 1: cost vs workload size, distributed vs centralized.
    let mut rows = Vec::new();
    for records in [10usize, 50, 200, 500] {
        let (mut cluster, _, _) = dla_bench::workload_cluster(4, records, 42);
        let before_msgs = cluster.net().stats().messages_sent;
        let before_bytes = cluster.net().stats().bytes_sent;
        let (dla_result, dla_ms) = timed(|| cluster.query(QUERY).expect("query runs"));
        let dla_msgs = cluster.net().stats().messages_sent - before_msgs;
        let dla_bytes = cluster.net().stats().bytes_sent - before_bytes;

        let schema = Schema::paper_example();
        let mut auditor = CentralizedAuditor::new(schema, 2);
        let user = auditor.register_user().expect("capacity");
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let data = generate(
            &WorkloadConfig {
                records,
                ..WorkloadConfig::default()
            },
            &mut rng,
        );
        for r in &data {
            auditor.log_record(user, r).expect("logs");
        }
        let (central_result, central_ms) = timed(|| auditor.query_text(QUERY).expect("query runs"));

        assert_eq!(dla_result.glsns.len(), central_result.len(), "same answers");
        rows.push(vec![
            records.to_string(),
            dla_result.glsns.len().to_string(),
            format!(
                "{dla_ms:.1} ms / {dla_msgs} msgs / {}",
                fmt_bytes(dla_bytes)
            ),
            format!("{central_ms:.2} ms / 0 msgs"),
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
        let schema = Schema::paper_example();
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_seed(7)
                .with_latency(latency),
        )
        .expect("cluster builds");
        let user = cluster.register_user("u").expect("capacity");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data = generate(
            &WorkloadConfig {
                records: 100,
                ..WorkloadConfig::default()
            },
            &mut rng,
        );
        cluster.log_records(&user, &data).expect("logs");
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

    // Part 3: serial vs concurrent subquery scheduling on a plan with
    // four independent cross-node subqueries (LAN latency, 4 nodes).
    let serial = scheduler_run(ExecMode::Serial);
    let concurrent = scheduler_run(ExecMode::Concurrent);
    assert_eq!(serial.matches, concurrent.matches, "same answers");
    let speedup = serial.virtual_ns as f64 / concurrent.virtual_ns.max(1) as f64;
    let rows = vec![
        vec![
            "serial".to_owned(),
            format!("{:.3} ms", serial.virtual_ns as f64 / 1e6),
            serial.messages.to_string(),
            fmt_bytes(serial.bytes),
            serial.max_concurrent_sessions.to_string(),
        ],
        vec![
            "concurrent".to_owned(),
            format!("{:.3} ms", concurrent.virtual_ns as f64 / 1e6),
            concurrent.messages.to_string(),
            fmt_bytes(concurrent.bytes),
            concurrent.max_concurrent_sessions.to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            "P5c - SUBQUERY SCHEDULING: serial vs concurrent sessions (LAN, 4 nodes)",
            &[
                "scheduler",
                "virtual latency",
                "messages",
                "bytes",
                "max sessions in flight",
            ],
            &rows
        )
    );
    println!("query: {SCHED_QUERY}");
    println!(
        "shape: {} independent subqueries overlap in {} sessions, so the plan's",
        concurrent.subqueries, concurrent.sessions
    );
    println!("makespan drops from the sum to the max of subquery latencies ({speedup:.2}x).");

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"query_e2e\",\n",
            "  \"query\": \"{query}\",\n",
            "  \"nodes\": 4,\n",
            "  \"records\": 100,\n",
            "  \"latency_model\": \"lan\",\n",
            "  \"subqueries\": {subqueries},\n",
            "  \"matches\": {matches},\n",
            "  \"serial\": {{\n",
            "    \"virtual_latency_ns\": {s_ns},\n",
            "    \"messages\": {s_msgs},\n",
            "    \"bytes\": {s_bytes},\n",
            "    \"sessions\": {s_sessions},\n",
            "    \"max_concurrent_sessions\": {s_conc}\n",
            "  }},\n",
            "  \"concurrent\": {{\n",
            "    \"virtual_latency_ns\": {c_ns},\n",
            "    \"messages\": {c_msgs},\n",
            "    \"bytes\": {c_bytes},\n",
            "    \"sessions\": {c_sessions},\n",
            "    \"max_concurrent_sessions\": {c_conc}\n",
            "  }},\n",
            "  \"virtual_speedup\": {speedup:.4}\n",
            "}}\n",
        ),
        query = SCHED_QUERY,
        subqueries = concurrent.subqueries,
        matches = concurrent.matches,
        s_ns = serial.virtual_ns,
        s_msgs = serial.messages,
        s_bytes = serial.bytes,
        s_sessions = serial.sessions,
        s_conc = serial.max_concurrent_sessions,
        c_ns = concurrent.virtual_ns,
        c_msgs = concurrent.messages,
        c_bytes = concurrent.bytes,
        c_sessions = concurrent.sessions,
        c_conc = concurrent.max_concurrent_sessions,
        speedup = speedup,
    );
    assert!(
        concurrent.virtual_ns < serial.virtual_ns,
        "concurrent scheduling must beat serial virtual latency on this plan"
    );
    assert!(
        concurrent.max_concurrent_sessions >= 2,
        "at least two sessions must have been in flight simultaneously"
    );
    write_snapshot("query_e2e", false, &json);
}

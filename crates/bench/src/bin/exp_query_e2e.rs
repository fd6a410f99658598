//! Experiment P5: end-to-end distributed query processing vs. the
//! centralized baseline (Fig. 1 vs Fig. 2) across workload sizes, plus
//! a latency-model ablation (ideal vs LAN vs WAN links) using the
//! simulator's virtual clocks.
//!
//! Run with: `cargo run -p dla-bench --bin exp_query_e2e --release`
//! (writes `BENCH_query_e2e.json`: virtual time, counts and sessions —
//! a query's wall-clock trajectory is `benchmark/run.sh`'s
//! `query_scan`; `--quick`, the CI form, runs and asserts the same and
//! writes nothing).

use dla_audit::centralized::CentralizedAuditor;
use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::execute;
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
    // The whole run takes well under a second, so `--quick` changes
    // only whether the snapshot is written.
    let quick = std::env::args().any(|a| a == "--quick");

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

    // Part 3: the concurrent subquery scheduler on a plan with four
    // independent cross-node subqueries (LAN latency, 4 nodes). The
    // figures are virtual time and counts, so they are exact: the gate
    // is the run the last serial-vs-concurrent comparison recorded
    // (EXPERIMENTS.md P5c, closed).
    let run = scheduler_run();
    println!("\nP5c - SUBQUERY SCHEDULING: concurrent sessions (LAN, 4 nodes)");
    println!("query: {SCHED_QUERY}");
    println!(
        "{:.3} ms virtual latency, {} messages, {}, {} sessions ({} in flight at once)",
        run.virtual_ns as f64 / 1e6,
        run.messages,
        fmt_bytes(run.bytes),
        run.sessions,
        run.max_concurrent_sessions
    );
    println!(
        "shape: {} independent subqueries overlap, so the plan's makespan is the\n\
         max, not the sum, of the subquery latencies.",
        run.subqueries
    );
    assert_eq!(
        run,
        SchedulerRun {
            virtual_ns: 1_129_480,
            messages: 27,
            bytes: 60_811,
            subqueries: 4,
            sessions: 4,
            max_concurrent_sessions: 4,
            matches: 45,
        },
        "the scheduler run moved off its recorded figures"
    );

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
            "  \"concurrent\": {{\n",
            "    \"virtual_latency_ns\": {ns},\n",
            "    \"messages\": {msgs},\n",
            "    \"bytes\": {bytes},\n",
            "    \"sessions\": {sessions},\n",
            "    \"max_concurrent_sessions\": {conc}\n",
            "  }}\n",
            "}}\n",
        ),
        query = SCHED_QUERY,
        subqueries = run.subqueries,
        matches = run.matches,
        ns = run.virtual_ns,
        msgs = run.messages,
        bytes = run.bytes,
        sessions = run.sessions,
        conc = run.max_concurrent_sessions,
    );
    write_snapshot("query_e2e", quick, &json);
}

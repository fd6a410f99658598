//! Telemetry: trace a confidential query and export it for
//! `chrome://tracing` / Perfetto.
//!
//! Installs a [`Recorder`], runs paper queries on the 4-node cluster,
//! and writes two artifacts:
//!
//! * `telemetry_trace.json` — Chrome trace-event format; open it in
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see query,
//!   phase, subquery and protocol spans on the *virtual* timeline
//!   (microseconds of simulated network time, not wall time). A query
//!   runs on the thread that asks it, so span ids and the merge order
//!   are the same every run: the file is committed, and a run that
//!   writes other bytes shows in `git diff`.
//! * a cost breakdown by span name printed to stdout (a protocol's
//!   span is named after the protocol; each span is billed its own
//!   operations, not its children's).
//!
//! Run with: `cargo run --example telemetry_trace`

use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::latency::LatencyModel;
use confidential_audit::telemetry::{chrome_trace_json, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(2002)
            .with_latency(LatencyModel::lan()),
    )?;
    let user = cluster.register_user("u0")?;

    // Capture everything from here on: logging traffic, the audit
    // queries, and the cluster's meta-audit events.
    let recorder = Recorder::new();
    let trace = {
        let _install = recorder.install();
        cluster.log_records(&user, &paper_table1())?;
        let queries = [
            "protocol = 'UDP' AND c2 > 100.00",
            "c1 > 40 OR id = 'U2'",
            "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
             AND (tid = 'T2' OR c2 > 100.00) AND id != c3",
        ];
        for query in queries {
            let result = cluster.query(query)?;
            println!("Q: {query} -> {} match(es)", result.glsns.len());
        }
        recorder.take()
    };

    println!(
        "\ncaptured {} spans, {} events",
        trace.spans.len(),
        trace.events.len()
    );
    println!("\ncost by span name:");
    for (label, costs) in trace.cost_by_label() {
        println!("  {label}: {costs}");
    }
    let total = trace.total_cost();
    println!("\ntotal: {total}");

    let path = "telemetry_trace.json";
    std::fs::write(path, chrome_trace_json(&trace))?;
    println!("\nwrote {path} - load it in chrome://tracing or ui.perfetto.dev");
    Ok(())
}

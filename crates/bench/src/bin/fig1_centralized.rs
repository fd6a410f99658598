//! Experiment F1: the Figure 1 centralized auditing baseline — one
//! auditor, plaintext repository, full visibility — with its cost and
//! exposure profile, side by side with the DLA cluster on the same
//! workload.
//!
//! Run with: `cargo run -p dla-bench --bin fig1_centralized --release`

use dla_audit::centralized::CentralizedAuditor;
use dla_bench::{fmt_bytes, metered, render_table};
use dla_logstore::gen::WorkloadConfig;
use dla_logstore::schema::Schema;

fn main() {
    dla_bench::refuse_args();
    let schema = Schema::paper_example();
    // The records `workload_cluster(4, 100, 10)` logs below.
    let records = dla_bench::workload(100, WorkloadConfig::default().users, 10);
    let queries = [
        "c1 > 50",
        "protocol = 'TCP' AND c2 > 100.00",
        "(id = 'U1' OR id = 'U2') AND c1 < 20",
    ];

    // Centralized (Fig. 1).
    let mut auditor = CentralizedAuditor::new(schema.clone(), 2);
    let user = auditor.register_user().expect("capacity");
    for r in &records {
        auditor.log_record(user, r).expect("logging succeeds");
    }
    let log_msgs = auditor.net().stats().messages_sent;
    let log_bytes = auditor.net().stats().bytes_sent;
    let mut central_rows = Vec::new();
    for q in queries {
        let (result, cost) = metered(|| auditor.query_text(q).expect("query succeeds"));
        central_rows.push(vec![
            q.to_owned(),
            result.len().to_string(),
            cost.modexp.to_string(),
            "0".into(),
            "auditor sees ALL attributes of ALL records".into(),
        ]);
    }

    // Distributed (Fig. 2) on the same workload.
    let (mut cluster, _cluster_user, _glsns) = dla_bench::workload_cluster(4, 100, 10);
    let dla_log_msgs = cluster.net().stats().messages_sent;
    let dla_log_bytes = cluster.net().stats().bytes_sent;
    let mut dla_rows = Vec::new();
    for q in queries {
        let (result, cost) = metered(|| cluster.query(q).expect("query succeeds"));
        dla_rows.push(vec![
            q.to_owned(),
            result.glsns.len().to_string(),
            cost.modexp.to_string(),
            result.messages.to_string(),
            format!("C_auditing = {:.2}", result.auditing_confidentiality),
        ]);
    }

    println!(
        "{}",
        render_table(
            "FIGURE 1 BASELINE - CENTRALIZED AUDITING (100-record workload)",
            &["query", "matches", "modexp", "msgs", "exposure"],
            &central_rows
        )
    );
    println!(
        "logging: {log_msgs} messages, {} plaintext\n",
        fmt_bytes(log_bytes)
    );
    println!(
        "{}",
        render_table(
            "FIGURE 2 SYSTEM - DLA CLUSTER, SAME WORKLOAD",
            &["query", "matches", "modexp", "msgs", "exposure"],
            &dla_rows
        )
    );
    println!(
        "logging: {dla_log_msgs} messages, {} (fragmented + deposits)",
        fmt_bytes(dla_log_bytes)
    );
    println!("\nshape: the centralized auditor is cheaper but sees everything;");
    println!("the DLA cluster pays messages/crypto to keep every node partially blind.");
}

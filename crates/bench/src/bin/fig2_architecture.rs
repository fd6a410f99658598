//! Experiment F2: the Figure 2 architecture in action — distributed
//! logging of transaction events across the DLA subsystem, showing
//! fragment placement, deposits, and the auditor-engine query path.
//!
//! Run with: `cargo run -p dla-bench --bin fig2_architecture`

use dla_bench::{fmt_bytes, render_table};

fn main() {
    dla_bench::refuse_args();
    let (mut cluster, user, glsns) = dla_bench::paper_cluster(2);

    println!("application subsystem: u0 (ticket {})", user.ticket.id);
    println!(
        "DLA subsystem: {} nodes + auditor engine (net id {}) + blind TTP (net id {})\n",
        cluster.num_nodes(),
        cluster.auditor_node(),
        cluster.ttp_node()
    );

    // Fragment placement map.
    let rows: Vec<Vec<String>> = cluster
        .nodes()
        .iter()
        .map(|node| {
            let attrs: Vec<String> = node
                .supported_attributes()
                .iter()
                .map(ToString::to_string)
                .collect();
            vec![
                format!("P{}", node.id()),
                attrs.join(", "),
                node.store().len().to_string(),
                "yes".into(), // deposit replicated at every node
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "DISTRIBUTED LOGGING (Fig. 2): placement after logging Table 1",
            &["node", "supported attributes A_i", "fragments", "deposits"],
            &rows
        )
    );

    let (log_msgs, log_bytes) = {
        let net = cluster.net();
        (net.stats().messages_sent, net.stats().bytes_sent)
    };
    println!(
        "logging traffic: {log_msgs} messages, {}",
        fmt_bytes(log_bytes)
    );

    // The auditing path: query -> subqueries -> secure intersection ->
    // auditing result of T.
    let query = "tid = 'T1100265' AND c2 > 40.00";
    let result = cluster.query(query).expect("query succeeds");
    println!("\nauditing query Q: {query}");
    println!("plan:\n{}", result.plan);
    let hex: Vec<String> = result.glsns.iter().map(ToString::to_string).collect();
    println!("\nauditing result of T (glsn-keyed): [{}]", hex.join(", "));
    for report in &result.reports {
        println!("  {report}");
    }
    assert!(glsns.iter().any(|g| result.glsns.contains(g)));
}

//! Quickstart: build the paper's Figure 2 system end to end.
//!
//! Spins up the 4-node DLA cluster over the Table 1 schema, registers
//! application users, logs the five Table 1 records (fragmented so no
//! node ever sees a whole record), runs confidential audit queries and
//! aggregates, and attests a result with a majority threshold
//! signature.
//!
//! Run with: `cargo run --example quickstart`

use confidential_audit::audit::aggregate;
use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::schema::Schema;
use dla_bench::paper::attest::{result_message, Attestor};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The cluster: 4 DLA nodes, attributes split per Tables 2–5.
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(2002),
    )?;
    println!("cluster: {} DLA nodes", cluster.num_nodes());
    for node in cluster.nodes() {
        let attrs: Vec<&str> = node
            .supported_attributes()
            .iter()
            .map(|a| a.as_str())
            .collect();
        println!("  P{} serves {{{}}}", node.id(), attrs.join(", "));
    }

    // 2. Users log the Table 1 events.
    let user = cluster.register_user("u0")?;
    let glsns = cluster.log_records(&user, &paper_table1())?;
    println!(
        "\nlogged {} records; every node holds exactly one fragment of each",
        glsns.len()
    );
    let (log_msgs, log_bytes) = {
        let net = cluster.net();
        (net.stats().messages_sent, net.stats().bytes_sent)
    };
    println!("logging traffic: {log_msgs} messages, {log_bytes} bytes");

    // 3. Confidential queries: the auditor engine receives only the
    //    satisfying glsns, computed by secure set intersection.
    for query in [
        "protocol = 'UDP' AND c2 > 100.00",
        "time > '20:20:00/05/12/2002'",
        "c1 > 40 OR id = 'U2'",
    ] {
        let result = cluster.query(query)?;
        let hex: Vec<String> = result.glsns.iter().map(|g| g.to_string()).collect();
        println!(
            "\nQ: {query}\n   -> {} match(es): [{}]  (C_auditing = {:.2}, {} msgs, {} bytes)",
            result.glsns.len(),
            hex.join(", "),
            result.auditing_confidentiality,
            result.messages,
            result.bytes
        );
    }

    // 4. Confidential aggregates — counts and volume totals without
    //    revealing which records matched.
    let count = aggregate::count_matching(&mut cluster, "protocol = 'UDP'")?;
    println!(
        "\nnumber of UDP transactions (count-only, no reveal): {}",
        count.count
    );
    let volume = aggregate::sum_matching(&mut cluster, "protocol = 'UDP'", &"c2".into())?;
    println!(
        "total UDP volume (secure sum over the cluster): {}.{:02}",
        volume.total / 100,
        volume.total % 100
    );

    // 5. Attestation: a majority of DLA nodes threshold-sign the result.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let attestor = Attestor::deal(cluster.group(), cluster.num_nodes(), &mut rng)?;
    let result = cluster.query("c1 > 40")?;
    let message = result_message("c1 > 40", &result.glsns);
    let attestation = attestor.attest(&cluster, &message, &mut rng)?;
    println!(
        "\nresult attested by nodes {:?} ({}-of-{} threshold): verification = {}",
        attestation.signers,
        attestor.threshold(),
        cluster.num_nodes(),
        attestor.verify(&attestation)
    );

    // 6. The owner can still reassemble its own record via its ticket.
    let full = cluster.retrieve_record(&user, glsns[0])?;
    println!(
        "\nowner-retrieved record {}: {} attributes",
        glsns[0],
        full.len()
    );
    Ok(())
}

//! Fault tolerance & degraded-mode auditing: a DLA node dies
//! mid-service, and the cluster keeps answering queries correctly.
//!
//! Standby replication ships each fragment to its ring successor at
//! logging time. When the health monitor declares a node dead, the
//! successor promotes its standby copies, an accumulator circulation
//! over the survivor set proves the repaired copies match the
//! original deposits, and queries re-plan over the effective
//! partition — all behind a reliable (ARQ) session layer that also
//! absorbs plain message loss.
//!
//! Run with: `cargo run --example fault_recovery`

use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::audit::exec::ResilientPolicy;
use confidential_audit::audit::health::HealthMonitor;
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::schema::Schema;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(21)
            .with_standby_replication(),
    )?;
    let user = cluster.register_user("u0")?;
    let glsns = cluster.log_records(&user, &paper_table1())?;
    println!(
        "logged {} records; each node also holds {} standby fragments for its ring predecessor\n",
        glsns.len(),
        cluster.node(0).store().standby_count()
    );

    // Baseline answer on a healthy cluster. The criteria touch `tid`
    // and `c3`, both stored on node P2.
    let query = "tid = 'T1100267' and c2 > 100.00";
    let reference = cluster.query(query)?;
    println!("healthy cluster: {query:?} -> {:?}", reference.glsns);

    // P2 crashes: from now on every message to or from it is lost.
    println!("\nP2 crashes …");
    cluster.net().faults_mut().kill_node(2);

    // The heartbeat detector needs a few silent rounds before it moves
    // P2 from Suspected to Dead (no flapping on one lost ping).
    let mut monitor = HealthMonitor::new(&cluster);
    monitor.settle(&cluster)?;
    println!(
        "health monitor after settling: survivors = {:?}, dead = {:?}",
        monitor.survivors(),
        monitor.dead()
    );
    assert_eq!(monitor.dead().into_iter().collect::<Vec<_>>(), vec![2]);

    // The same query now self-heals: the resilient executor times out,
    // probes the cluster, re-replicates P2's fragments from standbys
    // (verified against the §4.1 deposits) and re-plans over the
    // survivors.
    let outcome = cluster.query_resilient(query, &ResilientPolicy::default())?;
    println!(
        "\ndegraded-mode query: {:?} after {} attempts, {} re-plan(s), excluded {:?}",
        outcome.result.glsns, outcome.attempts, outcome.replans, outcome.excluded
    );
    for repair in &outcome.repairs {
        for adoption in &repair.adoptions {
            println!(
                "  P{} adopted {} fragments from dead P{}",
                adoption.adopter, adoption.promoted, adoption.dead
            );
        }
        println!(
            "  accumulator check over survivors: {}/{} records verified",
            repair.verified.len(),
            repair.verified.len() + repair.failed.len()
        );
        assert!(repair.is_fully_verified());
    }
    assert_eq!(outcome.result.glsns, reference.glsns);
    println!("\nanswer matches the healthy-cluster reference — no audit gap");
    Ok(())
}

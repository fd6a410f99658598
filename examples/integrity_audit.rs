//! Distributed integrity checking with the one-way accumulator (§4.1).
//!
//! Users deposit `A(x₀, Log_0 … Log_{n−1})` at logging time; any node
//! can later circulate an accumulation around the ring and compare.
//! Order independence (Eq. 9) means any node can initiate; a single
//! tampered fragment anywhere flips the verdict, while fragment
//! *contents* never travel. Also runs the ticket/ACL consistency check
//! built on secure set intersection.
//!
//! Run with: `cargo run --example integrity_audit`

use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::audit::integrity;
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::model::AttrValue;
use confidential_audit::logstore::schema::Schema;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(8),
    )?;
    let user = cluster.register_user("u0")?;
    let glsns = cluster.log_records(&user, &paper_table1())?;
    println!("logged {} records with accumulator deposits\n", glsns.len());

    // Clean sweep from every possible initiator.
    for initiator in 0..cluster.num_nodes() {
        let verdicts = integrity::check_all(&mut cluster, initiator)?;
        let ok = verdicts.iter().filter(|v| v.ok).count();
        println!(
            "initiator P{initiator}: {ok}/{} records verified ({} msgs per record)",
            verdicts.len(),
            verdicts[0].messages
        );
        assert_eq!(ok, verdicts.len());
    }

    // A compromised node silently rewrites a stored amount (the §4.1
    // threat: "its access control tables and log records could be
    // modified").
    println!(
        "\nP1 silently changes record {}'s c2 from 235.00 to 1.00 …",
        glsns[2]
    );
    cluster
        .node(1)
        .store_mut()
        .tamper(glsns[2], &"c2".into(), AttrValue::Fixed2(100));

    let verdicts = integrity::check_all(&mut cluster, 0)?;
    for v in &verdicts {
        println!(
            "  record {}: {}",
            v.glsn,
            if v.ok {
                "OK"
            } else {
                "TAMPERED (accumulator mismatch)"
            }
        );
    }
    let bad: Vec<_> = verdicts.iter().filter(|v| !v.ok).collect();
    assert_eq!(bad.len(), 1);
    assert_eq!(bad[0].glsn, glsns[2]);

    // ACL consistency: a rogue node grants itself an extra glsn under
    // the user's ticket; the ∩_s-based check exposes the divergence.
    println!("\nACL consistency for ticket {} (clean):", user.ticket.id);
    let clean = integrity::check_acl_consistency(&mut cluster, &user.ticket.id)?;
    println!(
        "  sizes = {:?}, agreed = {}, consistent = {}",
        clean.sizes, clean.agreed, clean.consistent
    );
    assert!(clean.consistent);

    let ticket = user.ticket.clone();
    cluster
        .node(3)
        .store_mut()
        .acl_mut_for_tests()
        .authorize(&ticket, confidential_audit::logstore::model::Glsn(0xBEEF));
    let dirty = integrity::check_acl_consistency(&mut cluster, &ticket.id)?;
    println!("after P3 grants itself glsn beef:");
    println!(
        "  sizes = {:?}, agreed = {}, consistent = {}",
        dirty.sizes, dirty.agreed, dirty.consistent
    );
    assert!(!dirty.consistent);
    Ok(())
}

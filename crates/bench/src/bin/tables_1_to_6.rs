//! Experiments T1–T6: regenerate the paper's Tables 1–6 exactly — the
//! global event log, the four per-node fragment tables (the Tables 2–5
//! partition applied to Table 1, paper glsns preserved) and the
//! three-ticket access-control table of Table 6.
//!
//! Run with: `cargo run -p dla-bench --bin tables_1_to_6`

use dla_bench::render_table;
use dla_logstore::acl::{AccessControlTable, OperationSet, TicketAuthority};
use dla_logstore::fragment::{fragment, Partition};
use dla_logstore::gen::paper_table1;
use dla_logstore::model::AttrName;
use dla_logstore::schema::Schema;
use rand::SeedableRng;

fn main() {
    dla_bench::refuse_args();
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let records = paper_table1();

    // Table 1: the global event log.
    let headers = ["glsn", "Time", "id", "protocol", "Tid", "C1", "C2", "C3"];
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let mut row = vec![r.glsn.to_string()];
            for attr in ["time", "id", "protocol", "tid", "c1", "c2", "c3"] {
                row.push(
                    r.get(&AttrName::new(attr))
                        .map_or(String::new(), ToString::to_string),
                );
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            "TABLE 1 - AN EXAMPLE OF THE GLOBAL EVENT LOG",
            &headers,
            &rows
        )
    );

    // Tables 2-5: fragments per DLA node, paper glsns preserved.
    let fragments: Vec<Vec<_>> = records.iter().map(|r| fragment(r, &partition)).collect();
    for node in 0..partition.num_nodes() {
        let attrs = partition.attrs_of(node);
        let mut headers: Vec<String> = vec!["glsn".into()];
        headers.extend(attrs.iter().map(ToString::to_string));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = fragments
            .iter()
            .map(|frags| {
                let frag = &frags[node];
                let mut row = vec![frag.glsn.to_string()];
                for attr in attrs {
                    row.push(
                        frag.values
                            .get(attr)
                            .map_or(String::new(), ToString::to_string),
                    );
                }
                row
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "TABLE {} - EVENT LOG FRAGMENTS STORED IN DLA NODE P{node}",
                    node + 2
                ),
                &header_refs,
                &rows
            )
        );
    }

    // Table 6: the paper's three tickets — T1 covers rows 1 and 3,
    // T2 rows 2 and 4, T3 row 5.
    let group = dla_crypto::schnorr::SchnorrGroup::fixed_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut authority = TicketAuthority::new(&group, &mut rng);
    let holder = dla_crypto::schnorr::SchnorrKeyPair::generate(&group, &mut rng);
    let mut acl = AccessControlTable::new();
    let assignment = [vec![0usize, 2], vec![1, 3], vec![4]];
    for rows_of_ticket in &assignment {
        let ticket = authority.issue(holder.public(), OperationSet::read_write(), &mut rng);
        for &row in rows_of_ticket {
            acl.authorize(&ticket, records[row].glsn);
        }
    }
    let rows: Vec<Vec<String>> = acl
        .iter()
        .map(|(ticket, ops, glsns)| {
            let list: Vec<String> = glsns.iter().map(ToString::to_string).collect();
            vec![ticket.to_string(), ops.to_string(), list.join(", ")]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "TABLE 6 - ACCESS CONTROL TABLE",
            &["Ticket ID", "Type", "glsn"],
            &rows
        )
    );
}

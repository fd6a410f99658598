//! Experiments M10–M13 (§5, Eqs. 10–13): parameter sweeps of the
//! confidentiality metrics — the paper's only quantitative "results".
//!
//! Run with: `cargo run -p dla-bench --bin exp_metrics`

use dla_audit::metrics;
use dla_audit::normal::normalize;
use dla_audit::parser::parse;
use dla_audit::plan::plan;
use dla_bench::render_table;
use dla_logstore::fragment::Partition;
use dla_logstore::gen::paper_table1;
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::{AttrDef, Schema};

fn main() {
    dla_bench::refuse_args();
    sweep_store_confidentiality();
    sweep_auditing_confidentiality();
    sweep_dla_confidentiality();
}

/// Eq. 10: C_store = v·u/w as the undefined-attribute count v and the
/// covering-node count u vary.
fn sweep_store_confidentiality() {
    // Build schemas with w = 8 attributes, v of them undefined.
    let mut rows = Vec::new();
    for v in 0..=8usize {
        let mut defs = Vec::new();
        for i in 0..8 {
            if i < v {
                defs.push(AttrDef::undefined(
                    &format!("c{i}"),
                    dla_logstore::model::AttrType::Int,
                ));
            } else {
                defs.push(AttrDef::known(
                    &format!("k{i}"),
                    dla_logstore::model::AttrType::Int,
                ));
            }
        }
        let schema = Schema::new(defs).expect("valid schema");
        let mut record = LogRecord::new(Glsn(1));
        for def in schema.iter() {
            record.insert(def.name().clone(), AttrValue::Int(1));
        }
        let mut row = vec![format!("v = {v}")];
        for u in [1usize, 2, 4, 8] {
            let partition = Partition::round_robin(&schema, u).expect("valid partition");
            let c = metrics::store_confidentiality(&record, &schema, &partition);
            row.push(format!("{c:.3}"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            "EQ. 10 - C_store(Log) = v*u/w sweep (w = 8 attributes)",
            &["undefined attrs", "u=1 node", "u=2", "u=4", "u=8"],
            &rows
        )
    );
    println!("shape: rises linearly in both v (private attributes) and u (fragmentation width).\n");
}

/// Eq. 11: C_auditing = (t+q)/(s+q) across query shapes.
fn sweep_auditing_confidentiality() {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let queries = [
        ("1 local pred", "c1 > 5"),
        ("2 local conjuncts", "c1 > 5 AND id = 'U1'"),
        (
            "4 local conjuncts",
            "c1 > 5 AND id = 'U1' AND tid = 'T1' AND c2 > 1.00",
        ),
        ("1 cross clause (2 atoms)", "c1 > 5 OR id = 'U1'"),
        (
            "1 cross clause (3 atoms)",
            "c1 > 5 OR id = 'U1' OR tid = 'T1'",
        ),
        ("cross + local", "(c1 > 5 OR id = 'U1') AND c2 < 9.00"),
        (
            "2 cross clauses",
            "(c1 > 5 OR id = 'U1') AND (tid = 'T1' OR time > '20:00:00/05/12/2002')",
        ),
        ("cross join", "id = c3"),
    ];
    let mut rows = Vec::new();
    for (label, q) in queries {
        let planned =
            plan(&normalize(&parse(q, &schema).expect("parses")), &partition).expect("plans");
        rows.push(vec![
            label.to_owned(),
            planned.atom_count.to_string(),
            planned.cross_atom_count.to_string(),
            planned.conjunct_count.to_string(),
            format!("{:.3}", metrics::auditing_confidentiality(&planned)),
        ]);
    }
    println!(
        "{}",
        render_table(
            "EQ. 11 - C_auditing(Q) = (t+q)/(s+q) by query shape (paper partition)",
            &["query shape", "s", "t", "q", "C_auditing"],
            &rows
        )
    );
    println!("shape: local-only queries score 0 (one node sees the whole subquery);");
    println!("fully-cross queries score 1 (every predicate needs collaboration).\n");
}

/// Eqs. 12–13: C_query and the workload average C_DLA across
/// fragmentation widths.
fn sweep_dla_confidentiality() {
    let schema = Schema::paper_example();
    let record = paper_table1().remove(0);
    let queries = [
        "c1 > 5",
        "c1 > 5 AND id = 'U1'",
        "c1 > 5 OR id = 'U1'",
        "(c1 > 5 OR id = 'U1') AND c2 < 9.00",
        "id = c3",
    ];
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 7] {
        let partition = Partition::round_robin(&schema, n).expect("valid partition");
        let workload: Vec<_> = queries
            .iter()
            .map(|q| {
                (
                    plan(&normalize(&parse(q, &schema).expect("parses")), &partition)
                        .expect("plans"),
                    record.clone(),
                )
            })
            .collect();
        let cdla = metrics::dla_confidentiality(&workload, &schema, &partition);
        let cq: Vec<String> = workload
            .iter()
            .map(|(p, r)| {
                format!(
                    "{:.2}",
                    metrics::query_confidentiality(p, r, &schema, &partition)
                )
            })
            .collect();
        rows.push(vec![n.to_string(), cq.join(" / "), format!("{cdla:.3}")]);
    }
    println!(
        "{}",
        render_table(
            "EQS. 12-13 - C_query per query / C_DLA average vs cluster size",
            &["nodes", "C_query (5 queries)", "C_DLA"],
            &rows
        )
    );
    println!("shape: wider fragmentation raises store confidentiality AND turns");
    println!("previously-local clauses into cross clauses, compounding C_DLA.");
}

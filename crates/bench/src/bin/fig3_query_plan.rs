//! Experiment F3: distributed confidential query processing (Fig. 3) —
//! normalization of Q into subqueries SQ_i, classification into pure
//! internal (local) vs. cross auditing predicates, and the final
//! glsn-keyed secure set intersection.
//!
//! Run with: `cargo run -p dla-bench --bin fig3_query_plan`

use dla_audit::normal::normalize;
use dla_audit::parser::parse;
use dla_audit::plan::{plan, SubqueryKind};
use dla_bench::render_table;
use dla_logstore::fragment::Partition;
use dla_logstore::schema::Schema;

fn main() {
    dla_bench::refuse_args();
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);

    // A Figure 3 shaped query: Q = SQ0 ∧ SQ1 ∧ SQ2 ∧ SQ3 with a mix of
    // internal and cross subqueries.
    let q = "time > '20:18:00/05/12/2002' \
             AND (id = 'U1' OR c1 > 40) \
             AND (tid = 'T1100265' OR c3 = 'bank') \
             AND c2 < 400.00";
    println!("auditing query Q from u_j:\n  {q}\n");

    let parsed = parse(q, &schema).expect("query parses");
    let normalized = normalize(&parsed);
    println!(
        "normalized conjunctive form Q_N ({} subqueries):",
        normalized.len()
    );
    for (i, clause) in normalized.clauses().iter().enumerate() {
        println!("  SQ{i} = {clause}");
    }

    let planned = plan(&normalized, &partition).expect("planning succeeds");
    let rows: Vec<Vec<String>> = planned
        .subqueries
        .iter()
        .enumerate()
        .map(|(i, sq)| {
            let (kind, nodes) = match &sq.kind {
                SubqueryKind::Local { node } => ("pure internal".to_owned(), format!("P{node}")),
                SubqueryKind::Cross { nodes } => (
                    "cross (relaxed secure computing)".to_owned(),
                    nodes
                        .iter()
                        .map(|n| format!("P{n}"))
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            };
            vec![format!("SQ{i}"), sq.clause.to_string(), kind, nodes]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            "FIGURE 3 - SUBQUERY PLACEMENT",
            &["SQ", "predicate", "kind", "DLA nodes"],
            &rows
        )
    );
    println!(
        "metric inputs: s = {} atomic predicates, t = {} cross, q = {} conjunctions",
        planned.atom_count, planned.cross_atom_count, planned.conjunct_count
    );

    // Execute on the loaded paper cluster and show the conjunction step.
    let (mut cluster, _, _) = dla_bench::paper_cluster(3);
    let result = cluster.query(q).expect("query executes");
    println!(
        "\nexecuted: {} subquery protocols + final ∩_s on glsn; result = {:?}",
        result.reports.len() - 1,
        result
            .glsns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    for report in &result.reports {
        println!("  {report}");
    }
}

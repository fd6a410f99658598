//! Property tests for the query pipeline: display/parse round-trips,
//! normalization soundness and planner totality over randomly generated
//! criteria trees.

use dla_audit::normal::normalize;
use dla_audit::parser::parse;
use dla_audit::plan::plan;
use dla_audit::query::{CmpOp, Criteria, Predicate};
use dla_logstore::fragment::Partition;
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(vec![
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ])
}

/// Predicates over the paper schema, restricted to types whose Display
/// output re-parses (Int, Fixed2, Text — Time renders in the paper's
/// clock format which is only accepted quoted).
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (arb_op(), -500i64..500).prop_map(|(op, c)| Predicate::with_const(
            "c1",
            op,
            AttrValue::Int(c)
        )),
        (arb_op(), 0i64..100_000).prop_map(|(op, c)| Predicate::with_const(
            "c2",
            op,
            AttrValue::Fixed2(c)
        )),
        (arb_op(), "[a-z][a-z0-9]{0,6}").prop_map(|(op, s)| Predicate::with_const(
            "id",
            op,
            AttrValue::text(&s)
        )),
        (arb_op(), "[a-z]{1,6}").prop_map(|(op, s)| Predicate::with_const(
            "c3",
            op,
            AttrValue::text(&s)
        )),
        arb_op().prop_map(|op| Predicate::with_attr("id", op, "c3")),
        prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne])
            .prop_map(|op| Predicate::with_attr("tid", op, "protocol")),
    ]
}

fn arb_criteria() -> impl Strategy<Value = Criteria> {
    arb_predicate().prop_map(Criteria::pred).prop_recursive(
        4,  // depth
        24, // total nodes
        3,  // items per collection
        |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                inner.prop_map(Criteria::not),
            ]
        },
    )
}

fn record(c1: i64, c2: i64, id: &str, c3: &str, protocol: &str) -> LogRecord {
    LogRecord::new(Glsn(1))
        .with("c1", AttrValue::Int(c1))
        .with("c2", AttrValue::Fixed2(c2))
        .with("id", AttrValue::text(id))
        .with("c3", AttrValue::text(c3))
        .with("protocol", AttrValue::text(protocol))
        .with("tid", AttrValue::text("T1"))
        .with("time", AttrValue::Time(0))
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        -500i64..500,
        0i64..100_000,
        "[a-z][a-z0-9]{0,6}",
        "[a-z]{1,6}",
        prop::sample::select(vec!["UDP", "TCP"]),
    )
        .prop_map(|(c1, c2, id, c3, protocol)| record(c1, c2, &id, &c3, protocol))
}

fn round_trips(criteria: &Criteria) -> Result<(), TestCaseError> {
    let schema = Schema::paper_example();
    let rendered = criteria.to_string();
    let reparsed = parse(&rendered, &schema)
        .unwrap_or_else(|e| panic!("{rendered:?} failed to re-parse: {e}"));
    prop_assert_eq!(&reparsed, criteria);
    Ok(())
}

fn normalizes_soundly(criteria: &Criteria, record: &LogRecord) -> Result<(), TestCaseError> {
    let normalized = normalize(criteria);
    prop_assert_eq!(
        criteria.eval(record).unwrap(),
        normalized.eval(record).unwrap(),
        "criteria {} diverged from its normal form",
        criteria
    );
    Ok(())
}

fn plans(criteria: &Criteria) -> Result<(), TestCaseError> {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    // Every generated predicate is schema-valid, so planning must
    // succeed and cover every clause.
    let normalized = normalize(criteria);
    let planned = plan(&normalized, &partition).expect("plans");
    prop_assert_eq!(planned.subqueries.len(), normalized.len());
    prop_assert!(planned.atom_count >= normalized.len());
    prop_assert!(planned.cross_atom_count <= planned.atom_count);
    Ok(())
}

fn invents_no_attribute(criteria: &Criteria) -> Result<(), TestCaseError> {
    // Normalization may duplicate predicates (distribution) but never
    // invents new attribute references.
    let normalized = normalize(criteria);
    let mut norm_attrs = std::collections::BTreeSet::new();
    for clause in normalized.clauses() {
        norm_attrs.extend(clause.attributes());
    }
    let mut orig_attrs = std::collections::BTreeSet::new();
    collect_attrs(criteria, &mut orig_attrs);
    prop_assert!(norm_attrs.is_subset(&orig_attrs));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_parse_round_trips(criteria in arb_criteria()) {
        round_trips(&criteria)?;
    }

    #[test]
    fn normalization_is_sound(criteria in arb_criteria(), record in arb_record()) {
        normalizes_soundly(&criteria, &record)?;
    }

    #[test]
    fn planner_is_total_over_well_typed_criteria(criteria in arb_criteria()) {
        plans(&criteria)?;
    }

    #[test]
    fn atom_count_never_shrinks_semantics(criteria in arb_criteria()) {
        invents_no_attribute(&criteria)?;
    }
}

/// The one case upstream proptest once saved for this file,
/// `c1 < 0 AND (c1 < 0 AND c1 < -1)`, as a fixed input of all four
/// properties (the shim reads no regression file), at records on both
/// sides of both constants.
#[test]
fn the_saved_case_holds_every_property() {
    let c1 = |c| Criteria::pred(Predicate::with_const("c1", CmpOp::Lt, AttrValue::Int(c)));
    let saved = c1(0).and(c1(0).and(c1(-1)));
    round_trips(&saved).unwrap();
    for c in [-2, -1, 0, 1] {
        normalizes_soundly(&saved, &record(c, 0, "u", "x", "UDP")).unwrap();
    }
    plans(&saved).unwrap();
    invents_no_attribute(&saved).unwrap();
}

fn collect_attrs(
    criteria: &Criteria,
    out: &mut std::collections::BTreeSet<dla_logstore::model::AttrName>,
) {
    match criteria {
        Criteria::Pred(p) => out.extend(p.attributes().into_iter().cloned()),
        Criteria::And(a, b) | Criteria::Or(a, b) => {
            collect_attrs(a, out);
            collect_attrs(b, out);
        }
        Criteria::Not(inner) => collect_attrs(inner, out),
    }
}

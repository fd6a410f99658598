//! Normalization of auditing criteria to the paper's conjunctive form
//! (§2): `(SQ₁) ∧ … ∧ (SQ_m)`, where each subquery `SQ_i` can be
//! "independently processed by a DLA node" (local) or by a small group
//! of nodes (cross).
//!
//! Pipeline: negations are pushed onto predicates (operator flipping —
//! `¬(a < b) ≡ a ≥ b` — so no `¬` survives), then `∨` is distributed
//! over `∧`, yielding a conjunction of disjunctive clauses. Each clause
//! becomes one subquery.

use crate::query::{Criteria, Predicate};
use dla_logstore::model::{AttrName, LogRecord};
use std::collections::BTreeSet;
use std::fmt;

/// One subquery `SQ_i`: a disjunction of atomic predicates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Clause {
    literals: Vec<Predicate>,
}

impl Clause {
    /// The disjoined predicates.
    #[must_use]
    pub fn literals(&self) -> &[Predicate] {
        &self.literals
    }

    /// All attributes referenced by the clause.
    #[must_use]
    pub fn attributes(&self) -> BTreeSet<AttrName> {
        self.literals
            .iter()
            .flat_map(|p| p.attributes().into_iter().cloned())
            .collect()
    }

    /// Whether any literal compares two attributes.
    #[must_use]
    pub fn has_attr_attr(&self) -> bool {
        self.literals.iter().any(Predicate::is_attr_attr)
    }

    /// Evaluates the disjunction on a complete record.
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation failures.
    pub fn eval(&self, record: &LogRecord) -> Result<bool, crate::query::EvalError> {
        for literal in &self.literals {
            if literal.eval(record)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " OR ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

/// The conjunctive normal form `Q_N = SQ₁ ∧ … ∧ SQ_m`.
#[derive(Clone, PartialEq, Debug)]
pub struct NormalizedQuery {
    clauses: Vec<Clause>,
}

impl NormalizedQuery {
    /// The subqueries.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of conjuncts (`q + 1` in the paper's Eq. 11 indexing;
    /// we expose the plain count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether there are no clauses (only for degenerate input).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Total number of atomic predicates across clauses (the `s` of
    /// Eq. 11, counted post-normalization).
    #[must_use]
    pub fn atom_count(&self) -> usize {
        self.clauses.iter().map(|c| c.literals.len()).sum()
    }

    /// Evaluates the conjunction on a complete record — must agree with
    /// the original criteria's [`Criteria::eval`].
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation failures.
    pub fn eval(&self, record: &LogRecord) -> Result<bool, crate::query::EvalError> {
        for clause in &self.clauses {
            if !clause.eval(record)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl fmt::Display for NormalizedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Negation-normal-form intermediate: `¬` already eliminated.
#[derive(Clone, Debug)]
enum Nnf {
    Pred(Predicate),
    And(Box<Nnf>, Box<Nnf>),
    Or(Box<Nnf>, Box<Nnf>),
}

fn to_nnf(criteria: &Criteria, negated: bool) -> Nnf {
    match criteria {
        Criteria::Pred(p) => {
            let mut p = p.clone();
            if negated {
                p.op = p.op.negate();
            }
            Nnf::Pred(p)
        }
        Criteria::Not(inner) => to_nnf(inner, !negated),
        Criteria::And(a, b) => {
            let (na, nb) = (Box::new(to_nnf(a, negated)), Box::new(to_nnf(b, negated)));
            if negated {
                Nnf::Or(na, nb) // De Morgan
            } else {
                Nnf::And(na, nb)
            }
        }
        Criteria::Or(a, b) => {
            let (na, nb) = (Box::new(to_nnf(a, negated)), Box::new(to_nnf(b, negated)));
            if negated {
                Nnf::And(na, nb) // De Morgan
            } else {
                Nnf::Or(na, nb)
            }
        }
    }
}

/// CNF as a list of clauses, each a list of literals.
fn to_cnf(nnf: &Nnf) -> Vec<Vec<Predicate>> {
    match nnf {
        Nnf::Pred(p) => vec![vec![p.clone()]],
        Nnf::And(a, b) => {
            let mut clauses = to_cnf(a);
            clauses.extend(to_cnf(b));
            clauses
        }
        Nnf::Or(a, b) => {
            // Distribute: (A₁∧…∧A_m) ∨ (B₁∧…∧B_k) = ∧_{i,j} (A_i ∨ B_j).
            let left = to_cnf(a);
            let right = to_cnf(b);
            let mut clauses = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    let mut merged = l.clone();
                    merged.extend(r.iter().cloned());
                    clauses.push(merged);
                }
            }
            clauses
        }
    }
}

/// Normalizes criteria to conjunctive form.
///
/// Duplicate literals within a clause and duplicate clauses are
/// removed (they change neither semantics nor the paper's metric
/// definitions materially, but keep plans small).
#[must_use]
pub fn normalize(criteria: &Criteria) -> NormalizedQuery {
    let nnf = to_nnf(criteria, false);
    let mut clauses: Vec<Clause> = Vec::new();
    for mut literals in to_cnf(&nnf) {
        // Dedup literals (order-insensitive).
        let mut seen: Vec<Predicate> = Vec::new();
        literals.retain(|p| {
            if seen.contains(p) {
                false
            } else {
                seen.push(p.clone());
                true
            }
        });
        let clause = Clause { literals };
        if !clauses.contains(&clause) {
            clauses.push(clause);
        }
    }
    NormalizedQuery { clauses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use dla_logstore::gen::{generate, WorkloadConfig};
    use dla_logstore::schema::Schema;
    use rand::SeedableRng;

    fn norm(src: &str) -> NormalizedQuery {
        normalize(&parse(src, &Schema::paper_example()).unwrap())
    }

    #[test]
    fn single_predicate_is_one_clause() {
        let n = norm("c1 > 5");
        assert_eq!(n.len(), 1);
        assert_eq!(n.atom_count(), 1);
        assert_eq!(n.to_string(), "(c1 > 5)");
    }

    #[test]
    fn conjunction_splits_into_clauses() {
        let n = norm("c1 > 5 AND id = 'U1' AND c2 < 10.00");
        assert_eq!(n.len(), 3);
        assert_eq!(n.atom_count(), 3);
    }

    #[test]
    fn disjunction_stays_one_clause() {
        let n = norm("c1 > 5 OR id = 'U1'");
        assert_eq!(n.len(), 1);
        assert_eq!(n.clauses()[0].literals().len(), 2);
    }

    #[test]
    fn distribution_of_or_over_and() {
        // a OR (b AND c) → (a OR b) AND (a OR c)
        let n = norm("c1 > 5 OR (id = 'U1' AND c2 < 10.00)");
        assert_eq!(n.len(), 2);
        assert_eq!(
            n.to_string(),
            "(c1 > 5 OR id = 'U1') AND (c1 > 5 OR c2 < 10.00)"
        );
    }

    #[test]
    fn negation_flips_operators() {
        let n = norm("NOT c1 > 5");
        assert_eq!(n.to_string(), "(c1 <= 5)");
        let n = norm("NOT (c1 > 5 AND id = 'U1')");
        assert_eq!(n.to_string(), "(c1 <= 5 OR id != 'U1')");
        let n = norm("NOT (c1 > 5 OR id = 'U1')");
        assert_eq!(n.to_string(), "(c1 <= 5) AND (id != 'U1')");
        let n = norm("NOT NOT c1 > 5");
        assert_eq!(n.to_string(), "(c1 > 5)");
    }

    #[test]
    fn duplicates_are_removed() {
        let n = norm("c1 > 5 AND c1 > 5");
        assert_eq!(n.len(), 1);
        let n = norm("c1 > 5 OR c1 > 5");
        assert_eq!(n.clauses()[0].literals().len(), 1);
    }

    #[test]
    fn clause_attribute_collection() {
        let n = norm("c1 > 5 OR id = c3");
        let attrs = n.clauses()[0].attributes();
        assert!(attrs.contains(&"c1".into()));
        assert!(attrs.contains(&"id".into()));
        assert!(attrs.contains(&"c3".into()));
        assert!(n.clauses()[0].has_attr_attr());
        assert!(!norm("c1 > 5").clauses()[0].has_attr_attr());
    }

    #[test]
    fn normalized_form_preserves_semantics_on_random_workload() {
        let schema = Schema::paper_example();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let records = generate(
            &WorkloadConfig {
                records: 200,
                ..WorkloadConfig::default()
            },
            &mut rng,
        );
        let queries = [
            "c1 > 50",
            "c1 > 50 AND protocol = 'TCP'",
            "NOT (c1 > 50 OR protocol = 'TCP')",
            "(id = 'U1' OR id = 'U2') AND c2 >= 100.00",
            "NOT (NOT c1 > 10 AND NOT (protocol = 'UDP' OR c2 < 50.00))",
            "c1 > 20 OR (c1 <= 20 AND protocol = 'TCP') OR id = 'U3'",
        ];
        for src in queries {
            let q = parse(src, &schema).unwrap();
            let n = normalize(&q);
            for r in &records {
                assert_eq!(
                    q.eval(r).unwrap(),
                    n.eval(r).unwrap(),
                    "query {src} diverged on {r:?}"
                );
            }
        }
    }

    #[test]
    fn deeply_nested_negations() {
        let n = norm("NOT (NOT (NOT c1 > 5))");
        assert_eq!(n.to_string(), "(c1 <= 5)");
    }
}

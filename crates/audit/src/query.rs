//! Auditing criteria (paper §2): predicates `A θ (B|c)` composed with
//! `∧`, `∨`, `¬`.
//!
//! "The auditing predicate whose terms are of the form A θ (B|c), where
//! A, B are audit trail attributes …; c is a constant, and θ is one of
//! the arithmetic comparison operators <, >, =, ≠, ≤, ≥. Furthermore,
//! the auditing predicate does not contain any quantifiers."

use dla_logstore::model::{AttrName, AttrValue, LogRecord};
use dla_logstore::schema::Schema;
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator `θ`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The logical negation (`¬(a < b) ≡ a >= b` …), used when pushing
    /// `¬` into predicates during normalization.
    #[must_use]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// Applies the operator to an ordering.
    #[must_use]
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// The right-hand side of a predicate: another attribute (`B`) or a
/// constant (`c`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Another audit-trail attribute.
    Attr(AttrName),
    /// A constant.
    Const(AttrValue),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::Const(v) => match v {
                AttrValue::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
        }
    }
}

/// An atomic auditing predicate `A θ (B|c)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Predicate {
    /// Left attribute `A`.
    pub lhs: AttrName,
    /// Operator `θ`.
    pub op: CmpOp,
    /// Right side `B` or `c`.
    pub rhs: Operand,
}

impl Predicate {
    /// Builds `A θ c`.
    #[must_use]
    pub fn with_const(lhs: impl Into<AttrName>, op: CmpOp, c: AttrValue) -> Self {
        Predicate {
            lhs: lhs.into(),
            op,
            rhs: Operand::Const(c),
        }
    }

    /// Builds `A θ B`.
    #[must_use]
    pub fn with_attr(lhs: impl Into<AttrName>, op: CmpOp, rhs: impl Into<AttrName>) -> Self {
        Predicate {
            lhs: lhs.into(),
            op,
            rhs: Operand::Attr(rhs.into()),
        }
    }

    /// Whether the predicate compares two attributes (`A θ B`).
    #[must_use]
    pub fn is_attr_attr(&self) -> bool {
        matches!(self.rhs, Operand::Attr(_))
    }

    /// The attributes referenced.
    #[must_use]
    pub fn attributes(&self) -> Vec<&AttrName> {
        match &self.rhs {
            Operand::Attr(b) => vec![&self.lhs, b],
            Operand::Const(_) => vec![&self.lhs],
        }
    }

    /// Evaluates against a complete record.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if a referenced attribute is missing from
    /// the record or the two sides have incomparable types.
    pub fn eval(&self, record: &LogRecord) -> Result<bool, EvalError> {
        let lhs = record
            .get(&self.lhs)
            .ok_or_else(|| EvalError::MissingAttribute(self.lhs.clone()))?;
        let rhs_value = match &self.rhs {
            Operand::Const(c) => c,
            Operand::Attr(b) => record
                .get(b)
                .ok_or_else(|| EvalError::MissingAttribute(b.clone()))?,
        };
        let ord = lhs
            .try_cmp(rhs_value)
            .ok_or_else(|| EvalError::TypeMismatch {
                lhs: self.lhs.clone(),
                detail: format!("{lhs:?} vs {rhs_value:?}"),
            })?;
        Ok(self.op.test(ord))
    }

    /// Type-checks against a schema.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for unknown attributes or incomparable
    /// operand types.
    pub fn check(&self, schema: &Schema) -> Result<(), EvalError> {
        let lhs_def = schema
            .get(&self.lhs)
            .ok_or_else(|| EvalError::MissingAttribute(self.lhs.clone()))?;
        match &self.rhs {
            Operand::Attr(b) => {
                let rhs_def = schema
                    .get(b)
                    .ok_or_else(|| EvalError::MissingAttribute(b.clone()))?;
                if lhs_def.attr_type() != rhs_def.attr_type() {
                    return Err(EvalError::TypeMismatch {
                        lhs: self.lhs.clone(),
                        detail: format!("{} vs {}", lhs_def.attr_type(), rhs_def.attr_type()),
                    });
                }
            }
            Operand::Const(c) => {
                if lhs_def.attr_type() != c.attr_type() {
                    return Err(EvalError::TypeMismatch {
                        lhs: self.lhs.clone(),
                        detail: format!("{} vs {}", lhs_def.attr_type(), c.attr_type()),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// An auditing criterion: predicates under `∧`, `∨`, `¬`.
#[derive(Clone, PartialEq, Debug)]
pub enum Criteria {
    /// An atomic predicate.
    Pred(Predicate),
    /// Conjunction.
    And(Box<Criteria>, Box<Criteria>),
    /// Disjunction.
    Or(Box<Criteria>, Box<Criteria>),
    /// Negation.
    Not(Box<Criteria>),
}

impl Criteria {
    /// Wraps a predicate.
    #[must_use]
    pub fn pred(p: Predicate) -> Self {
        Criteria::Pred(p)
    }

    /// `self ∧ other`.
    #[must_use]
    pub fn and(self, other: Criteria) -> Self {
        Criteria::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    #[must_use]
    pub fn or(self, other: Criteria) -> Self {
        Criteria::Or(Box::new(self), Box::new(other))
    }

    /// `¬self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Criteria::Not(Box::new(self))
    }

    /// Evaluates against a complete record (the reference semantics the
    /// distributed executor must match).
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation failures.
    pub fn eval(&self, record: &LogRecord) -> Result<bool, EvalError> {
        match self {
            Criteria::Pred(p) => p.eval(record),
            Criteria::And(a, b) => Ok(a.eval(record)? && b.eval(record)?),
            Criteria::Or(a, b) => Ok(a.eval(record)? || b.eval(record)?),
            Criteria::Not(inner) => Ok(!inner.eval(record)?),
        }
    }

    /// Type-checks every predicate.
    ///
    /// # Errors
    ///
    /// Propagates predicate check failures.
    pub fn check(&self, schema: &Schema) -> Result<(), EvalError> {
        match self {
            Criteria::Pred(p) => p.check(schema),
            Criteria::And(a, b) | Criteria::Or(a, b) => {
                a.check(schema)?;
                b.check(schema)
            }
            Criteria::Not(inner) => inner.check(schema),
        }
    }

    /// Number of atomic predicates (the `s` of Eq. 11).
    #[must_use]
    pub fn atom_count(&self) -> usize {
        match self {
            Criteria::Pred(_) => 1,
            Criteria::And(a, b) | Criteria::Or(a, b) => a.atom_count() + b.atom_count(),
            Criteria::Not(inner) => inner.atom_count(),
        }
    }
}

impl fmt::Display for Criteria {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Criteria::Pred(p) => write!(f, "{p}"),
            Criteria::And(a, b) => write!(f, "({a} AND {b})"),
            Criteria::Or(a, b) => write!(f, "({a} OR {b})"),
            Criteria::Not(inner) => write!(f, "(NOT {inner})"),
        }
    }
}

/// Errors from evaluating or type-checking criteria.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A referenced attribute is absent (from the record or schema).
    MissingAttribute(AttrName),
    /// Operand types cannot be compared.
    TypeMismatch {
        /// The predicate's left attribute.
        lhs: AttrName,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingAttribute(a) => write!(f, "attribute {a} not available"),
            EvalError::TypeMismatch { lhs, detail } => {
                write!(f, "type mismatch at {lhs}: {detail}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_logstore::model::Glsn;

    fn record() -> LogRecord {
        LogRecord::new(Glsn(1))
            .with("id", AttrValue::text("U1"))
            .with("c1", AttrValue::Int(20))
            .with("c2", AttrValue::Fixed2(2345))
            .with("protocol", AttrValue::text("UDP"))
    }

    #[test]
    fn const_predicates_evaluate() {
        let r = record();
        assert!(Predicate::with_const("c1", CmpOp::Eq, AttrValue::Int(20))
            .eval(&r)
            .unwrap());
        assert!(Predicate::with_const("c1", CmpOp::Lt, AttrValue::Int(21))
            .eval(&r)
            .unwrap());
        assert!(!Predicate::with_const("c1", CmpOp::Gt, AttrValue::Int(20))
            .eval(&r)
            .unwrap());
        assert!(
            Predicate::with_const("id", CmpOp::Ne, AttrValue::text("U2"))
                .eval(&r)
                .unwrap()
        );
        assert!(Predicate::with_const("c1", CmpOp::Ge, AttrValue::Int(20))
            .eval(&r)
            .unwrap());
        assert!(Predicate::with_const("c1", CmpOp::Le, AttrValue::Int(19))
            .eval(&r)
            .map(|b| !b)
            .unwrap());
    }

    #[test]
    fn attr_attr_predicates_evaluate() {
        let r = LogRecord::new(Glsn(1))
            .with("c1", AttrValue::Int(20))
            .with("c4", AttrValue::Int(30));
        assert!(Predicate::with_attr("c1", CmpOp::Lt, "c4")
            .eval(&r)
            .unwrap());
        assert!(!Predicate::with_attr("c1", CmpOp::Eq, "c4")
            .eval(&r)
            .unwrap());
    }

    #[test]
    fn missing_attribute_is_an_error() {
        let r = record();
        let err = Predicate::with_const("salary", CmpOp::Eq, AttrValue::Int(1))
            .eval(&r)
            .unwrap_err();
        assert!(matches!(err, EvalError::MissingAttribute(_)));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let r = record();
        let err = Predicate::with_const("id", CmpOp::Eq, AttrValue::Int(1))
            .eval(&r)
            .unwrap_err();
        assert!(matches!(err, EvalError::TypeMismatch { .. }));
    }

    #[test]
    fn connectives_follow_boolean_semantics() {
        let r = record();
        let p_true = Criteria::pred(Predicate::with_const("c1", CmpOp::Eq, AttrValue::Int(20)));
        let p_false = Criteria::pred(Predicate::with_const("c1", CmpOp::Eq, AttrValue::Int(99)));
        assert!(p_true.clone().and(p_true.clone()).eval(&r).unwrap());
        assert!(!p_true.clone().and(p_false.clone()).eval(&r).unwrap());
        assert!(p_true.clone().or(p_false.clone()).eval(&r).unwrap());
        assert!(!p_false.clone().or(p_false.clone()).eval(&r).unwrap());
        assert!(p_false.clone().not().eval(&r).unwrap());
        assert!(!p_true.not().eval(&r).unwrap());
        let _ = p_false;
    }

    #[test]
    fn op_negation_is_involutive_and_correct() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.negate().negate(), op);
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(op.test(ord), !op.negate().test(ord), "{op} {ord:?}");
            }
        }
    }

    #[test]
    fn schema_check_catches_unknown_and_mistyped() {
        let schema = Schema::paper_example();
        assert!(Predicate::with_const("c1", CmpOp::Gt, AttrValue::Int(5))
            .check(&schema)
            .is_ok());
        assert!(Predicate::with_const("nope", CmpOp::Gt, AttrValue::Int(5))
            .check(&schema)
            .is_err());
        assert!(Predicate::with_const("c1", CmpOp::Gt, AttrValue::text("x"))
            .check(&schema)
            .is_err());
        assert!(
            Predicate::with_attr("c1", CmpOp::Lt, "c2")
                .check(&schema)
                .is_err(),
            "int vs fixed2"
        );
        assert!(
            Predicate::with_attr("id", CmpOp::Eq, "c3")
                .check(&schema)
                .is_ok(),
            "text vs text"
        );
    }

    #[test]
    fn atom_count_counts_predicates() {
        let p = Criteria::pred(Predicate::with_const("c1", CmpOp::Gt, AttrValue::Int(1)));
        let q = p.clone().and(p.clone().or(p.clone()).not());
        assert_eq!(q.atom_count(), 3);
    }

    #[test]
    fn display_round_readable() {
        let p = Predicate::with_const("c1", CmpOp::Ge, AttrValue::Int(20));
        assert_eq!(p.to_string(), "c1 >= 20");
        let q = Criteria::pred(p).not();
        assert_eq!(q.to_string(), "(NOT c1 >= 20)");
        let t = Predicate::with_const("id", CmpOp::Eq, AttrValue::text("U1"));
        assert_eq!(t.to_string(), "id = 'U1'");
        let ab = Predicate::with_attr("c1", CmpOp::Lt, "c4");
        assert_eq!(ab.to_string(), "c1 < c4");
    }
}

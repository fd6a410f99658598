//! Attribute schemas: the universe `I` of audit-trail attributes and
//! their types, including the distinction between *well-known* and
//! *undefined* attributes that drives the paper's store-confidentiality
//! metric (§5).

use crate::model::{AttrName, AttrType, LogRecord};
use crate::LogError;
use std::fmt;

/// One schema column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrDef {
    name: AttrName,
    attr_type: AttrType,
    undefined: bool,
}

impl AttrDef {
    /// A well-known attribute (`time`, `id`, `protocol`, …) whose
    /// semantics any DLA node understands.
    #[must_use]
    pub fn known(name: &str, attr_type: AttrType) -> Self {
        AttrDef {
            name: AttrName::new(name),
            attr_type,
            undefined: false,
        }
    }

    /// An *undefined* attribute (`C1, C2, …`): "an abstract attribute
    /// that is only meaningful to the application subsystem by private
    /// agreements" (§5). Undefined attributes raise store
    /// confidentiality.
    #[must_use]
    pub fn undefined(name: &str, attr_type: AttrType) -> Self {
        AttrDef {
            name: AttrName::new(name),
            attr_type,
            undefined: true,
        }
    }

    /// The attribute name.
    #[must_use]
    pub fn name(&self) -> &AttrName {
        &self.name
    }

    /// The attribute type.
    #[must_use]
    pub fn attr_type(&self) -> AttrType {
        self.attr_type
    }

    /// Whether the attribute is undefined (application-private).
    #[must_use]
    pub fn is_undefined(&self) -> bool {
        self.undefined
    }
}

/// The ordered attribute universe `I` for one application subsystem.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schema {
    attrs: Vec<AttrDef>,
}

impl Schema {
    /// Builds a schema from definitions.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Schema`] on duplicate names or an empty list.
    pub fn new(attrs: Vec<AttrDef>) -> Result<Self, LogError> {
        if attrs.is_empty() {
            return Err(LogError::Schema("schema has no attributes".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &attrs {
            if !seen.insert(a.name.clone()) {
                return Err(LogError::Schema(format!("duplicate attribute {}", a.name)));
            }
        }
        Ok(Schema { attrs })
    }

    /// The paper's Table 1 schema: `time`, `id`, `protocol`, `tid`
    /// (well-known) plus undefined `C1` (int), `C2` (fixed-point),
    /// `C3` (text).
    #[must_use]
    pub fn paper_example() -> Self {
        Schema::new(vec![
            AttrDef::known("time", AttrType::Time),
            AttrDef::known("id", AttrType::Text),
            AttrDef::known("protocol", AttrType::Text),
            AttrDef::known("tid", AttrType::Text),
            AttrDef::undefined("c1", AttrType::Int),
            AttrDef::undefined("c2", AttrType::Fixed2),
            AttrDef::undefined("c3", AttrType::Text),
        ])
        .expect("static schema is valid")
    }

    /// Number of attributes (`|I|`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema is empty (never, for constructed schemas).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Number of undefined attributes.
    #[must_use]
    pub fn undefined_count(&self) -> usize {
        self.attrs.iter().filter(|a| a.undefined).count()
    }

    /// Iterates the definitions in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &AttrDef> {
        self.attrs.iter()
    }

    /// Looks up a definition by name.
    #[must_use]
    pub fn get(&self, name: &AttrName) -> Option<&AttrDef> {
        self.attrs.iter().find(|a| &a.name == name)
    }

    /// Whether the schema defines `name`.
    #[must_use]
    pub fn contains(&self, name: &AttrName) -> bool {
        self.get(name).is_some()
    }

    /// All attribute names in schema order.
    #[must_use]
    pub fn names(&self) -> Vec<AttrName> {
        self.attrs.iter().map(|a| a.name.clone()).collect()
    }

    /// Validates a record against the schema: every attribute must be
    /// defined and carry the declared type. Missing attributes are
    /// permitted (fragments are partial by design).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Schema`] naming the offending attribute.
    pub fn validate(&self, record: &LogRecord) -> Result<(), LogError> {
        for (name, value) in record.iter() {
            let def = self
                .get(name)
                .ok_or_else(|| LogError::Schema(format!("attribute {name} not in schema")))?;
            if def.attr_type != value.attr_type() {
                return Err(LogError::Schema(format!(
                    "attribute {name}: expected {}, got {}",
                    def.attr_type,
                    value.attr_type()
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema[")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}:{}{}",
                a.name,
                a.attr_type,
                if a.undefined { "?" } else { "" }
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttrValue, Glsn};

    #[test]
    fn paper_schema_shape() {
        let s = Schema::paper_example();
        assert_eq!(s.len(), 7);
        assert_eq!(s.undefined_count(), 3);
        assert!(s.contains(&"time".into()));
        assert!(s.contains(&"c2".into()));
        assert!(!s.contains(&"salary".into()));
        assert_eq!(s.get(&"c2".into()).unwrap().attr_type(), AttrType::Fixed2);
        assert!(s.get(&"c1".into()).unwrap().is_undefined());
        assert!(!s.get(&"id".into()).unwrap().is_undefined());
    }

    #[test]
    fn duplicate_names_rejected() {
        let result = Schema::new(vec![
            AttrDef::known("x", AttrType::Int),
            AttrDef::undefined("X", AttrType::Text), // case-insensitive dup
        ]);
        assert!(result.is_err());
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn validate_accepts_conforming_records() {
        let s = Schema::paper_example();
        let rec = LogRecord::new(Glsn(1))
            .with("id", AttrValue::text("U1"))
            .with("c1", AttrValue::Int(20))
            .with("c2", AttrValue::Fixed2(2345));
        assert!(s.validate(&rec).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_attribute() {
        let s = Schema::paper_example();
        let rec = LogRecord::new(Glsn(1)).with("salary", AttrValue::Int(1));
        let err = s.validate(&rec).unwrap_err();
        assert!(err.to_string().contains("salary"));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = Schema::paper_example();
        let rec = LogRecord::new(Glsn(1)).with("c1", AttrValue::text("twenty"));
        let err = s.validate(&rec).unwrap_err();
        assert!(err.to_string().contains("expected int"));
    }

    #[test]
    fn partial_records_are_fine() {
        // Fragments only carry a subset — validation must allow that.
        let s = Schema::paper_example();
        let rec = LogRecord::new(Glsn(1)).with("time", AttrValue::Time(0));
        assert!(s.validate(&rec).is_ok());
    }

    #[test]
    fn display_marks_undefined_attributes() {
        let s = Schema::paper_example();
        let text = s.to_string();
        assert!(text.contains("c1:int?"));
        assert!(text.contains("time:time"));
    }
}

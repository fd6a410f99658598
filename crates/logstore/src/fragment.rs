//! Log fragmentation across DLA nodes (paper §4, Tables 2–5).
//!
//! A global record `Log = {glsn, L}` is split into `n` fragments
//! `Log_i = {glsn, L_i}` with `L_i ⊆ A_i` (the attributes node `P_i`
//! supports), `⋃ A_i = I` and `A_i ∩ A_j = ∅` — so the DLA cluster as a
//! whole holds the complete record while no single node can reconstruct
//! it. The `glsn` travels with every fragment as the join key.

use crate::model::{AttrName, Glsn, LogRecord};
use crate::schema::Schema;
use crate::LogError;
use std::collections::BTreeMap;
use std::fmt;

/// The attribute-to-node assignment `A_0 … A_{n−1}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    assignments: Vec<Vec<AttrName>>,
}

impl Partition {
    /// Builds a partition; validates the paper's invariants against
    /// `schema`: every attribute assigned exactly once, every node
    /// nonempty-capable (empty nodes are allowed but flagged only if
    /// all are empty).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Partition`] if an attribute is unknown,
    /// assigned twice, or left unassigned.
    pub fn new(schema: &Schema, assignments: Vec<Vec<AttrName>>) -> Result<Self, LogError> {
        if assignments.is_empty() {
            return Err(LogError::Partition("no DLA nodes in partition".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for (node, attrs) in assignments.iter().enumerate() {
            for attr in attrs {
                if !schema.contains(attr) {
                    return Err(LogError::Partition(format!(
                        "node {node}: attribute {attr} not in schema"
                    )));
                }
                if !seen.insert(attr.clone()) {
                    return Err(LogError::Partition(format!(
                        "attribute {attr} assigned to more than one node"
                    )));
                }
            }
        }
        for name in schema.names() {
            if !seen.contains(&name) {
                return Err(LogError::Partition(format!(
                    "attribute {name} not assigned to any node"
                )));
            }
        }
        Ok(Partition { assignments })
    }

    /// Round-robin assignment of the schema's attributes to `n` nodes —
    /// the "evenly spread" strategy of §2.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Partition`] if `n` is zero.
    pub fn round_robin(schema: &Schema, n: usize) -> Result<Self, LogError> {
        if n == 0 {
            return Err(LogError::Partition("no DLA nodes in partition".into()));
        }
        let mut assignments = vec![Vec::new(); n];
        for (i, name) in schema.names().into_iter().enumerate() {
            assignments[i % n].push(name);
        }
        Partition::new(schema, assignments)
    }

    /// The paper's Tables 2–5 assignment over
    /// [`Schema::paper_example`]: `P0 = {time}`, `P1 = {id, c2}`,
    /// `P2 = {tid, c3}`, `P3 = {protocol, c1}`.
    #[must_use]
    pub fn paper_example(schema: &Schema) -> Self {
        Partition::new(
            schema,
            vec![
                vec!["time".into()],
                vec!["id".into(), "c2".into()],
                vec!["tid".into(), "c3".into()],
                vec!["protocol".into(), "c1".into()],
            ],
        )
        .expect("paper partition is valid for the paper schema")
    }

    /// Number of DLA nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.assignments.len()
    }

    /// Attributes supported by node `i` (its `A_i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn attrs_of(&self, i: usize) -> &[AttrName] {
        &self.assignments[i]
    }

    /// Which node supports `attr`, if any.
    #[must_use]
    pub fn node_of(&self, attr: &AttrName) -> Option<usize> {
        self.assignments
            .iter()
            .position(|attrs| attrs.contains(attr))
    }

    /// Reassigns every attribute of `from_node` to `to_node` — the
    /// degraded-mode partition used after a DLA node dies and a
    /// survivor adopts its fragments. The node count is unchanged (the
    /// dead node keeps an empty slot), so node indices stay aligned
    /// with the cluster's network layout.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Partition`] if either index is out of range
    /// or the two are equal.
    pub fn reassign(&self, from_node: usize, to_node: usize) -> Result<Partition, LogError> {
        if from_node >= self.assignments.len() || to_node >= self.assignments.len() {
            return Err(LogError::Partition(format!(
                "reassign {from_node}->{to_node} out of range (n = {})",
                self.assignments.len()
            )));
        }
        if from_node == to_node {
            return Err(LogError::Partition(format!(
                "reassign {from_node}->{to_node}: nodes must differ"
            )));
        }
        let mut assignments = self.assignments.clone();
        let moved = std::mem::take(&mut assignments[from_node]);
        assignments[to_node].extend(moved);
        Ok(Partition { assignments })
    }

    /// The minimum number of nodes whose attribute sets cover all
    /// attributes present in `record` — the `u` of the §5 store
    /// confidentiality metric. With disjoint assignments this is simply
    /// the number of distinct owning nodes.
    #[must_use]
    pub fn covering_nodes(&self, record: &LogRecord) -> usize {
        let mut nodes = std::collections::HashSet::new();
        for (name, _) in record.iter() {
            if let Some(node) = self.node_of(name) {
                nodes.insert(node);
            }
        }
        nodes.len()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, attrs) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "P{i}={{")?;
            for (j, a) in attrs.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// One node's fragment of a global record: `Log_i = {glsn, L_i}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fragment {
    /// The owning DLA node index.
    pub node: usize,
    /// The join key shared by all fragments of one record.
    pub glsn: Glsn,
    /// The attribute subset stored at this node.
    pub values: LogRecord,
}

impl Fragment {
    /// Canonical bytes (node + record), the accumulator folding unit of
    /// §4.1.
    #[must_use]
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.node as u64).to_be_bytes());
        out.extend_from_slice(&self.values.to_canonical_bytes());
        out
    }

    /// Decodes a fragment previously produced by
    /// [`to_canonical_bytes`](Self::to_canonical_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] on malformed input.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, LogError> {
        let Some((node_bytes, record_bytes)) = bytes.split_first_chunk::<8>() else {
            return Err(LogError::Store("truncated fragment encoding".into()));
        };
        let node = u64::from_be_bytes(*node_bytes) as usize;
        let values = LogRecord::from_canonical_bytes(record_bytes).map_err(LogError::Store)?;
        Ok(Fragment {
            node,
            glsn: values.glsn,
            values,
        })
    }
}

/// Splits a global record into per-node fragments. Nodes whose
/// attribute set does not intersect the record still receive an empty
/// fragment (they participate in integrity checking).
#[must_use]
pub fn fragment(record: &LogRecord, partition: &Partition) -> Vec<Fragment> {
    (0..partition.num_nodes())
        .map(|node| {
            let mut values = LogRecord::new(record.glsn);
            for attr in partition.attrs_of(node) {
                if let Some(v) = record.get(attr) {
                    values.insert(attr.clone(), v.clone());
                }
            }
            Fragment {
                node,
                glsn: record.glsn,
                values,
            }
        })
        .collect()
}

/// Reassembles a global record from fragments.
///
/// # Errors
///
/// Returns [`LogError::Partition`] if fragments disagree on the glsn,
/// repeat an attribute, or the list is empty.
pub fn reassemble(fragments: &[Fragment]) -> Result<LogRecord, LogError> {
    let first = fragments
        .first()
        .ok_or_else(|| LogError::Partition("no fragments to reassemble".into()))?;
    let glsn = first.glsn;
    let mut merged: BTreeMap<AttrName, crate::model::AttrValue> = BTreeMap::new();
    for frag in fragments {
        if frag.glsn != glsn {
            return Err(LogError::Partition(format!(
                "fragment glsn mismatch: {} vs {glsn}",
                frag.glsn
            )));
        }
        for (name, value) in frag.values.iter() {
            if merged.insert(name.clone(), value.clone()).is_some() {
                return Err(LogError::Partition(format!(
                    "attribute {name} appears in multiple fragments"
                )));
            }
        }
    }
    let mut record = LogRecord::new(glsn);
    for (name, value) in merged {
        record.insert(name, value);
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AttrValue;

    fn paper_record() -> LogRecord {
        LogRecord::new(Glsn(0x139a_ef78))
            .with("time", AttrValue::Time(1_021_234_715))
            .with("id", AttrValue::text("U1"))
            .with("protocol", AttrValue::text("UDP"))
            .with("tid", AttrValue::text("T1100265"))
            .with("c1", AttrValue::Int(20))
            .with("c2", AttrValue::Fixed2(2345))
            .with("c3", AttrValue::text("signature"))
    }

    #[test]
    fn paper_partition_matches_tables_2_to_5() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.attrs_of(0), &[AttrName::new("time")]);
        assert_eq!(p.node_of(&"id".into()), Some(1));
        assert_eq!(p.node_of(&"c2".into()), Some(1));
        assert_eq!(p.node_of(&"tid".into()), Some(2));
        assert_eq!(p.node_of(&"c3".into()), Some(2));
        assert_eq!(p.node_of(&"protocol".into()), Some(3));
        assert_eq!(p.node_of(&"c1".into()), Some(3));
    }

    #[test]
    fn fragment_then_reassemble_is_identity() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let record = paper_record();
        let frags = fragment(&record, &p);
        assert_eq!(frags.len(), 4);
        assert_eq!(reassemble(&frags).unwrap(), record);
    }

    #[test]
    fn no_fragment_holds_everything() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let record = paper_record();
        for frag in fragment(&record, &p) {
            assert!(
                frag.values.len() < record.len(),
                "node {} would see the whole record",
                frag.node
            );
        }
    }

    #[test]
    fn round_robin_covers_schema() {
        let schema = Schema::paper_example();
        for n in 1..=7 {
            let p = Partition::round_robin(&schema, n).unwrap();
            assert_eq!(p.num_nodes(), n);
            for name in schema.names() {
                assert!(p.node_of(&name).is_some(), "{name} unassigned at n={n}");
            }
        }
    }

    #[test]
    fn partition_rejects_double_assignment() {
        let schema = Schema::paper_example();
        let bad = Partition::new(
            &schema,
            vec![
                vec!["time".into(), "id".into()],
                vec![
                    "id".into(),
                    "protocol".into(),
                    "tid".into(),
                    "c1".into(),
                    "c2".into(),
                    "c3".into(),
                ],
            ],
        );
        assert!(bad.unwrap_err().to_string().contains("more than one node"));
    }

    #[test]
    fn partition_rejects_missing_attribute() {
        let schema = Schema::paper_example();
        let bad = Partition::new(&schema, vec![vec!["time".into()]]);
        assert!(bad.unwrap_err().to_string().contains("not assigned"));
    }

    #[test]
    fn partition_rejects_unknown_attribute() {
        let schema = Schema::paper_example();
        let mut full: Vec<AttrName> = schema.names();
        full.push("salary".into());
        let bad = Partition::new(&schema, vec![full]);
        assert!(bad.unwrap_err().to_string().contains("not in schema"));
    }

    #[test]
    fn covering_nodes_counts_distinct_owners() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let full = paper_record();
        assert_eq!(p.covering_nodes(&full), 4);
        let partial = LogRecord::new(Glsn(1))
            .with("id", AttrValue::text("U1"))
            .with("c2", AttrValue::Fixed2(1));
        assert_eq!(p.covering_nodes(&partial), 1, "both live on P1");
    }

    #[test]
    fn reassemble_rejects_glsn_mismatch() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let mut frags = fragment(&paper_record(), &p);
        frags[1].glsn = Glsn(999);
        assert!(reassemble(&frags).is_err());
    }

    #[test]
    fn reassemble_rejects_duplicate_attribute() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let mut frags = fragment(&paper_record(), &p);
        // Duplicate P1's fragment (same attrs twice).
        let dup = frags[1].clone();
        frags.push(dup);
        assert!(reassemble(&frags).is_err());
    }

    #[test]
    fn empty_fragments_for_uncovered_nodes() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let record = LogRecord::new(Glsn(5)).with("time", AttrValue::Time(0));
        let frags = fragment(&record, &p);
        assert_eq!(frags[0].values.len(), 1);
        assert!(frags[1].values.is_empty());
        assert!(frags[2].values.is_empty());
        assert!(frags[3].values.is_empty());
    }

    #[test]
    fn reassign_moves_attributes_and_keeps_node_count() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let degraded = p.reassign(1, 2).unwrap();
        assert_eq!(degraded.num_nodes(), 4, "dead node keeps its slot");
        assert!(degraded.attrs_of(1).is_empty());
        assert_eq!(degraded.node_of(&"id".into()), Some(2));
        assert_eq!(degraded.node_of(&"c2".into()), Some(2));
        assert_eq!(degraded.node_of(&"tid".into()), Some(2));
        // Untouched assignments survive.
        assert_eq!(degraded.node_of(&"time".into()), Some(0));
        // A degraded partition can still fragment/reassemble records.
        let frags = fragment(&paper_record(), &degraded);
        assert!(frags[1].values.is_empty());
        assert_eq!(reassemble(&frags).unwrap(), paper_record());
    }

    #[test]
    fn reassign_rejects_bad_indices() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        assert!(p.reassign(1, 9).is_err());
        assert!(p.reassign(9, 1).is_err());
        assert!(p.reassign(2, 2).is_err());
    }

    #[test]
    fn fragment_canonical_bytes_bind_node_identity() {
        let schema = Schema::paper_example();
        let p = Partition::paper_example(&schema);
        let frags = fragment(&paper_record(), &p);
        let mut a = frags[0].clone();
        a.node = 2;
        assert_ne!(a.to_canonical_bytes(), frags[0].to_canonical_bytes());
    }
}

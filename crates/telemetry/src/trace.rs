//! Trace data model: hierarchical spans over virtual time, each with
//! the costs recorded while it was the innermost open span, and
//! structured events.
//!
//! Instances are produced by the per-thread collectors in the crate
//! root and merged into one [`Trace`] per [`Recorder`](crate::Recorder).
//! All timestamps are virtual nanoseconds (the same unit as the
//! simulator's `SimTime`); the tracer never reads a wall clock.

use crate::cost::CostVector;
use std::collections::BTreeMap;

/// One completed span: a named interval of virtual time with a parent
/// link (0 = root) forming the query → phase → session → hop hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span id, or 0 for a root span.
    pub parent: u64,
    /// Coarse grouping used by exporters ("query", "phase", "protocol", "hop", ...).
    pub category: &'static str,
    /// Human-readable name.
    pub name: String,
    /// Session the span was attributed to (0 = none/root): given to a
    /// [`session_span`](crate::session_span), inherited from the parent
    /// otherwise.
    pub session: u64,
    /// Virtual start time in nanoseconds.
    pub start_ns: u64,
    /// Virtual end time in nanoseconds (>= `start_ns`).
    pub end_ns: u64,
    /// The span's exclusive cost: operations recorded while it was the
    /// innermost open span on its thread (a child span's are the
    /// child's).
    pub costs: CostVector,
}

/// One structured point event, attached to the innermost open span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Id of the enclosing span (0 = none).
    pub span: u64,
    /// Event name.
    pub name: String,
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// Structured key/value payload.
    pub kvs: Vec<(String, String)>,
}

/// A merged trace: everything one recorder captured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Completed spans, in flush order.
    pub spans: Vec<SpanRecord>,
    /// Point events, in flush order.
    pub events: Vec<EventRecord>,
    /// Costs recorded outside every span.
    pub unattributed: CostVector,
}

impl Trace {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty() && self.unattributed.is_zero()
    }

    /// Appends every record of `other`.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.events.extend(other.events);
        self.unattributed.merge(&other.unattributed);
    }

    /// Sums span costs by span name (a protocol's span is named after
    /// the protocol).
    #[must_use]
    pub fn cost_by_label(&self) -> BTreeMap<String, CostVector> {
        let mut out: BTreeMap<String, CostVector> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.name.clone()).or_default().merge(&span.costs);
        }
        out
    }

    /// Sums span costs by session id.
    #[must_use]
    pub fn cost_by_session(&self) -> BTreeMap<u64, CostVector> {
        let mut out: BTreeMap<u64, CostVector> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.session).or_default().merge(&span.costs);
        }
        out
    }

    /// Sums every cost record: each span's and the unattributed bucket.
    #[must_use]
    pub fn total_cost(&self) -> CostVector {
        let mut total = self.unattributed;
        for span in &self.spans {
            total.merge(&span.costs);
        }
        total
    }

    /// Sorts spans and events into a deterministic order
    /// (by start time, then id) regardless of which thread flushed
    /// first.
    pub fn normalize(&mut self) {
        self.spans.sort_by_key(|s| (s.start_ns, s.session, s.id));
        self.events
            .sort_by(|a, b| (a.at_ns, a.span, &a.name).cmp(&(b.at_ns, b.span, &b.name)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostKind;

    fn span(id: u64, name: &str, session: u64, modexp: u64) -> SpanRecord {
        let mut costs = CostVector::default();
        costs.add(CostKind::ModExp, modexp);
        SpanRecord {
            id,
            parent: 0,
            category: "protocol",
            name: name.to_string(),
            session,
            start_ns: 0,
            end_ns: 0,
            costs,
        }
    }

    #[test]
    fn aggregation_sums_duplicate_keys() {
        let trace = Trace {
            spans: vec![
                span(1, "ssi", 1, 4),
                span(2, "ssi", 2, 6),
                span(3, "sum", 1, 1),
            ],
            ..Trace::default()
        };
        let by_label = trace.cost_by_label();
        assert_eq!(by_label["ssi"].modexp, 10);
        assert_eq!(by_label["sum"].modexp, 1);
        let by_session = trace.cost_by_session();
        assert_eq!(by_session[&1].modexp, 5);
        assert_eq!(by_session[&2].modexp, 6);
        assert_eq!(trace.total_cost().modexp, 11);
    }

    #[test]
    fn total_cost_includes_unattributed() {
        let mut trace = Trace::default();
        trace.unattributed.add(CostKind::MsgSent, 3);
        trace.spans.push(span(1, "eq", 9, 2));
        let total = trace.total_cost();
        assert_eq!(total.msgs_sent, 3);
        assert_eq!(total.modexp, 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn normalize_orders_spans_by_start_time() {
        let mk = |id, start| SpanRecord {
            id,
            parent: 0,
            category: "phase",
            name: format!("s{id}"),
            session: 0,
            start_ns: start,
            end_ns: start + 1,
            costs: CostVector::default(),
        };
        let mut trace = Trace {
            spans: vec![mk(2, 500), mk(1, 100), mk(3, 100)],
            ..Trace::default()
        };
        trace.normalize();
        let ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }
}

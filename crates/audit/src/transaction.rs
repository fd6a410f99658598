//! Transaction specifications and confidential conformance checking
//! (paper §2, Eq. 1–5 and §4.2).
//!
//! A transaction `T = {R_T, E_T, L_T, tsn, ttn}` carries a rule set
//! `R_T = {r_j(T)}` — "correlation, fairness, non-repudiation, atomic,
//! consistency checking, irregular pattern detection". This module
//! expresses those rules ([`Rule`]) and verifies them **without pulling
//! raw logs to the auditor**: counts run as no-reveal queries, volume
//! bounds as §3.5 secure sums, and time-span / participation rules
//! disclose only the single scalar each rule needs (span, distinct
//! count) from the owning node — secondary information in the sense of
//! Definition 1.

use crate::aggregate;
use crate::cluster::DlaCluster;
use crate::query::{CmpOp, Criteria, Predicate};
use crate::AuditError;
use dla_logstore::model::{AttrName, AttrValue, Glsn, TransactionId};
use dla_net::wire::{Reader, Writer};
use dla_net::NodeId;
use std::collections::BTreeSet;
use std::fmt;

/// One conformance rule `r_j(T)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Rule {
    /// Atomicity/completeness: the number of logged events satisfies
    /// `count θ expected` (e.g. an order transaction must have exactly
    /// 3 events).
    EventCount {
        /// Comparison operator.
        op: CmpOp,
        /// Expected event count.
        expected: u64,
    },
    /// Volume bound: `Σ attr θ limit` over the transaction's records
    /// (irregular-pattern detection: a payment series must not exceed
    /// its authorization).
    TotalVolume {
        /// The numeric attribute to total.
        attr: AttrName,
        /// Comparison operator.
        op: CmpOp,
        /// The bound, in the attribute's native unit.
        limit: u64,
    },
    /// Timeliness: all events within `seconds` of the first
    /// (consistency checking).
    MaxDuration {
        /// Maximum allowed span in seconds.
        seconds: u64,
    },
    /// Participation whitelist: every event executed by one of `ids`
    /// (non-repudiation of the counterparty set).
    AllowedExecutors {
        /// Permitted executor ids.
        ids: Vec<String>,
    },
    /// Correlation/fairness: at least `count` distinct executors took
    /// part (a two-party exchange must show both sides' events).
    MinDistinctExecutors {
        /// Minimum number of distinct executors.
        count: usize,
    },
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::EventCount { op, expected } => write!(f, "event count {op} {expected}"),
            Rule::TotalVolume { attr, op, limit } => {
                write!(f, "total {attr} {op} {limit}")
            }
            Rule::MaxDuration { seconds } => write!(f, "all events within {seconds}s"),
            Rule::AllowedExecutors { ids } => {
                write!(f, "executors within {{{}}}", ids.join(", "))
            }
            Rule::MinDistinctExecutors { count } => {
                write!(f, "at least {count} distinct executors")
            }
        }
    }
}

/// A transaction type specification: `ttn` plus its rule set `R_T`.
#[derive(Clone, Debug, PartialEq)]
pub struct TransactionSpec {
    /// The transaction type number/name (`ttn`).
    pub ttn: String,
    /// The rules `R_T`.
    pub rules: Vec<Rule>,
}

impl TransactionSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(ttn: &str) -> Self {
        TransactionSpec {
            ttn: ttn.to_owned(),
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// The verdict for one rule.
#[derive(Clone, Debug)]
pub struct RuleVerdict {
    /// The rule checked.
    pub rule: Rule,
    /// Whether the audit trail conforms.
    pub ok: bool,
    /// Human-readable detail (the disclosed scalar, never raw logs).
    pub detail: String,
}

/// The full conformance report for one transaction.
#[derive(Clone, Debug)]
pub struct TransactionReport {
    /// The audited transaction.
    pub tid: TransactionId,
    /// Per-rule verdicts.
    pub verdicts: Vec<RuleVerdict>,
}

impl TransactionReport {
    /// Whether every rule passed.
    #[must_use]
    pub fn conforms(&self) -> bool {
        self.verdicts.iter().all(|v| v.ok)
    }
}

impl fmt::Display for TransactionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transaction {}: {}",
            self.tid,
            if self.conforms() {
                "CONFORMS"
            } else {
                "VIOLATION"
            }
        )?;
        for v in &self.verdicts {
            writeln!(
                f,
                "  [{}] {} — {}",
                if v.ok { "ok" } else { "FAIL" },
                v.rule,
                v.detail
            )?;
        }
        Ok(())
    }
}

/// Verifies a transaction against its specification using only
/// confidential primitives.
///
/// # Errors
///
/// Returns [`AuditError`] if the schema lacks a `tid` attribute, a
/// rule references an unknown/mistyped attribute, or a protocol fails.
pub fn verify_transaction(
    cluster: &mut DlaCluster,
    tid: &TransactionId,
    spec: &TransactionSpec,
) -> Result<TransactionReport, AuditError> {
    let tid_attr = AttrName::new("tid");
    if !cluster.schema().contains(&tid_attr) {
        return Err(AuditError::Planning(
            "schema has no tid attribute to audit transactions by".into(),
        ));
    }
    let tid_criteria = format!("tid = '{}'", tid.as_str());
    let mut verdicts = Vec::with_capacity(spec.rules.len());
    for rule in &spec.rules {
        let verdict = match rule {
            Rule::EventCount { op, expected } => {
                let outcome = aggregate::count_matching(cluster, &tid_criteria)?;
                let ok = op.test((outcome.count as u64).cmp(expected));
                RuleVerdict {
                    rule: rule.clone(),
                    ok,
                    detail: format!("counted {} events", outcome.count),
                }
            }
            Rule::TotalVolume { attr, op, limit } => {
                let outcome = aggregate::sum_matching(cluster, &tid_criteria, attr)?;
                let ok = op.test(outcome.total.cmp(limit));
                RuleVerdict {
                    rule: rule.clone(),
                    ok,
                    detail: format!("total = {}", outcome.total),
                }
            }
            Rule::MaxDuration { seconds } => {
                let span = time_span(cluster, &tid_criteria)?;
                let ok = span.is_none_or(|s| s <= *seconds);
                RuleVerdict {
                    rule: rule.clone(),
                    ok,
                    detail: match span {
                        Some(s) => format!("span = {s}s"),
                        None => "no events".into(),
                    },
                }
            }
            Rule::AllowedExecutors { ids } => {
                // Count events whose executor is NOT in the whitelist:
                // tid = T AND id != a AND id != b …
                let mut criteria = Criteria::pred(Predicate::with_const(
                    "tid",
                    CmpOp::Eq,
                    AttrValue::text(tid.as_str()),
                ));
                for id in ids {
                    criteria = criteria.and(Criteria::pred(Predicate::with_const(
                        "id",
                        CmpOp::Ne,
                        AttrValue::text(id),
                    )));
                }
                let plan =
                    cluster.plan(&crate::plan::compile_criteria(&criteria, cluster.schema())?)?;
                let result = crate::exec::execute(cluster, &plan, false)?;
                RuleVerdict {
                    rule: rule.clone(),
                    ok: result.cardinality == 0,
                    detail: format!("{} events by non-whitelisted executors", result.cardinality),
                }
            }
            Rule::MinDistinctExecutors { count } => {
                let distinct = distinct_values(cluster, &tid_criteria, &AttrName::new("id"))?;
                RuleVerdict {
                    rule: rule.clone(),
                    ok: distinct >= *count,
                    detail: format!("{distinct} distinct executors"),
                }
            }
        };
        verdicts.push(verdict);
    }
    Ok(TransactionReport {
        tid: tid.clone(),
        verdicts,
    })
}

/// The span (max − min, seconds) of the `time` attribute over the
/// matching records — computed at the time-owner node; only the span
/// crosses the network.
fn time_span(cluster: &mut DlaCluster, criteria: &str) -> Result<Option<u64>, AuditError> {
    scalar_from_owner(cluster, criteria, &AttrName::new("time"), 0x72, |values| {
        let times: Vec<u64> = values
            .iter()
            .filter_map(|v| match v {
                AttrValue::Time(t) => Some(*t),
                _ => None,
            })
            .collect();
        match (times.iter().min(), times.iter().max()) {
            (Some(min), Some(max)) => Some(max - min),
            _ => None,
        }
    })
}

/// The number of distinct values of `attr` over the matching records —
/// computed at the owner; only the count crosses the network.
fn distinct_values(
    cluster: &mut DlaCluster,
    criteria: &str,
    attr: &AttrName,
) -> Result<usize, AuditError> {
    let distinct = scalar_from_owner(cluster, criteria, attr, 0x73, |values| {
        let set: BTreeSet<Vec<u8>> = values.iter().map(AttrValue::to_canonical_bytes).collect();
        Some(set.len() as u64)
    })?;
    Ok(distinct.unwrap_or(0) as usize)
}

/// Shared machinery: run the criteria (glsns to the auditor), then
/// delegate to [`owner_scalar_over_glsns`].
fn scalar_from_owner(
    cluster: &mut DlaCluster,
    criteria: &str,
    attr: &AttrName,
    tag: u8,
    compute: impl FnOnce(&[AttrValue]) -> Option<u64>,
) -> Result<Option<u64>, AuditError> {
    let result = cluster.query(criteria)?;
    owner_scalar_over_glsns(cluster, &result.glsns, attr, tag, compute)
}

/// Ships a glsn list from the auditor to `attr`'s owner, lets the owner
/// compute one scalar over its local values for those glsns, and
/// returns only that scalar — the building block of every
/// "disclose one number, not the data" rule.
pub(crate) fn owner_scalar_over_glsns(
    cluster: &mut DlaCluster,
    result_glsns: &[Glsn],
    attr: &AttrName,
    tag: u8,
    compute: impl FnOnce(&[AttrValue]) -> Option<u64>,
) -> Result<Option<u64>, AuditError> {
    // Auditor -> owner: the glsn list; the owner computes the scalar
    // over its local values.
    let (owner, values) = cluster.values_at_owner(tag, attr, result_glsns)?;
    let values: Vec<AttrValue> = values.into_iter().map(|(_, v)| v).collect();
    let scalar = compute(&values);
    let auditor = cluster.auditor_node();

    // Owner -> auditor: the scalar only.
    let mut w = Writer::new();
    w.put_u8(tag).put_u64(scalar.map_or(u64::MAX, |s| s));
    let wire = cluster.root_session();
    wire.send(NodeId(owner), auditor, w.finish());
    let envelope = wire.recv_from(auditor, NodeId(owner))?;
    let raw = Reader::open(&envelope.payload, tag)?.get_u64()?;
    Ok(if raw == u64::MAX { None } else { Some(raw) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AppUser, ClusterConfig};
    use dla_logstore::fragment::Partition;
    use dla_logstore::gen::paper_table1;
    use dla_logstore::schema::Schema;

    fn loaded() -> (DlaCluster, AppUser) {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(64),
        )
        .unwrap();
        let user = cluster.register_user("u").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap();
        (cluster, user)
    }

    // Table 1: T1100265 has 3 events (rows 1, 2, 4) by U1, U2, U2;
    // c2 total 23.45 + 345.11 + 45.02 = 413.58; times 20:18:35,
    // 20:20:35, 20:23:38 → span 303 s.
    fn t265() -> TransactionId {
        TransactionId::new("T1100265")
    }

    #[test]
    fn conforming_transaction_passes_all_rules() {
        let (mut cluster, _) = loaded();
        let spec = TransactionSpec::new("order")
            .with_rule(Rule::EventCount {
                op: CmpOp::Eq,
                expected: 3,
            })
            .with_rule(Rule::TotalVolume {
                attr: "c2".into(),
                op: CmpOp::Le,
                limit: 50_000,
            })
            .with_rule(Rule::MaxDuration { seconds: 400 })
            .with_rule(Rule::AllowedExecutors {
                ids: vec!["U1".into(), "U2".into()],
            })
            .with_rule(Rule::MinDistinctExecutors { count: 2 });
        let report = verify_transaction(&mut cluster, &t265(), &spec).unwrap();
        assert!(report.conforms(), "{report}");
        assert_eq!(report.verdicts.len(), 5);
    }

    #[test]
    fn event_count_violation_detected() {
        let (mut cluster, _) = loaded();
        let spec = TransactionSpec::new("order").with_rule(Rule::EventCount {
            op: CmpOp::Eq,
            expected: 4,
        });
        let report = verify_transaction(&mut cluster, &t265(), &spec).unwrap();
        assert!(!report.conforms());
        assert!(report.verdicts[0].detail.contains("3 events"));
    }

    #[test]
    fn volume_bound_violation_detected() {
        let (mut cluster, _) = loaded();
        let spec = TransactionSpec::new("order").with_rule(Rule::TotalVolume {
            attr: "c2".into(),
            op: CmpOp::Le,
            limit: 40_000, // 413.58 > 400.00
        });
        let report = verify_transaction(&mut cluster, &t265(), &spec).unwrap();
        assert!(!report.conforms());
        assert!(report.verdicts[0].detail.contains("41358"));
    }

    #[test]
    fn duration_rule_uses_only_the_span() {
        let (mut cluster, _) = loaded();
        // Span of T1100265 is 303 s: 300 fails, 303 passes.
        let tight = TransactionSpec::new("t").with_rule(Rule::MaxDuration { seconds: 300 });
        let loose = TransactionSpec::new("t").with_rule(Rule::MaxDuration { seconds: 303 });
        assert!(!verify_transaction(&mut cluster, &t265(), &tight)
            .unwrap()
            .conforms());
        assert!(verify_transaction(&mut cluster, &t265(), &loose)
            .unwrap()
            .conforms());
    }

    #[test]
    fn executor_whitelist_enforced() {
        let (mut cluster, _) = loaded();
        // T1100267 is executed by U1 and U3.
        let tid = TransactionId::new("T1100267");
        let good = TransactionSpec::new("t").with_rule(Rule::AllowedExecutors {
            ids: vec!["U1".into(), "U3".into()],
        });
        assert!(verify_transaction(&mut cluster, &tid, &good)
            .unwrap()
            .conforms());
        let bad = TransactionSpec::new("t").with_rule(Rule::AllowedExecutors {
            ids: vec!["U1".into()],
        });
        let report = verify_transaction(&mut cluster, &tid, &bad).unwrap();
        assert!(!report.conforms());
        assert!(report.verdicts[0].detail.contains("1 events"));
    }

    #[test]
    fn distinct_executor_floor() {
        let (mut cluster, _) = loaded();
        let spec3 = TransactionSpec::new("t").with_rule(Rule::MinDistinctExecutors { count: 3 });
        let report = verify_transaction(&mut cluster, &t265(), &spec3).unwrap();
        assert!(!report.conforms(), "only U1 and U2 participate");
        let spec2 = TransactionSpec::new("t").with_rule(Rule::MinDistinctExecutors { count: 2 });
        assert!(verify_transaction(&mut cluster, &t265(), &spec2)
            .unwrap()
            .conforms());
    }

    #[test]
    fn unknown_transaction_yields_empty_but_valid_report() {
        let (mut cluster, _) = loaded();
        let spec = TransactionSpec::new("t")
            .with_rule(Rule::EventCount {
                op: CmpOp::Eq,
                expected: 0,
            })
            .with_rule(Rule::MaxDuration { seconds: 1 });
        let report =
            verify_transaction(&mut cluster, &TransactionId::new("T9999999"), &spec).unwrap();
        assert!(
            report.conforms(),
            "zero events satisfy count=0 and any duration"
        );
    }

    #[test]
    fn report_display_summarizes() {
        let (mut cluster, _) = loaded();
        let spec = TransactionSpec::new("t").with_rule(Rule::EventCount {
            op: CmpOp::Ge,
            expected: 1,
        });
        let report = verify_transaction(&mut cluster, &t265(), &spec).unwrap();
        let text = report.to_string();
        assert!(text.contains("CONFORMS"));
        assert!(text.contains("[ok]"));
    }

    #[test]
    fn rule_display_readable() {
        assert_eq!(
            Rule::EventCount {
                op: CmpOp::Eq,
                expected: 3
            }
            .to_string(),
            "event count = 3"
        );
        assert_eq!(
            Rule::MaxDuration { seconds: 60 }.to_string(),
            "all events within 60s"
        );
    }
}

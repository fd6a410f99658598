//! Distributed event correlation (paper §1: "distributed event
//! correlation for intrusion detection"; §4.2: "distributed security
//! breaching is usually an aggregated effect of distributed events,
//! each of which alone may appear to be harmless").
//!
//! A [`CorrelationRule`] describes the aggregated effect to look for:
//! within any tumbling time window of `window_seconds`, at least
//! `min_events` matching events coming from at least `min_sources`
//! distinct sources. Detection is confidential:
//!
//! 1. the matching glsn set is computed by the ordinary distributed
//!    query pipeline;
//! 2. the **time owner** buckets those glsns into windows locally and
//!    discloses only per-bucket counts (coarse timing — permitted
//!    secondary information);
//! 3. for buckets over the count threshold, the **id owner** discloses
//!    only the distinct-source count.
//!
//! No timestamp, source id or attribute value ever reaches the
//! auditor.

use crate::cluster::DlaCluster;
use crate::transaction::owner_scalar_over_glsns;
use crate::AuditError;
use dla_logstore::model::{AttrName, AttrValue, Glsn};
use dla_net::wire::Writer;
use dla_net::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// What to correlate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelationRule {
    /// Rule name (for alert reporting).
    pub name: String,
    /// Which events participate (any parseable criteria).
    pub event_criteria: String,
    /// Tumbling-window width in seconds.
    pub window_seconds: u64,
    /// Minimum matching events within one window.
    pub min_events: usize,
    /// Minimum distinct sources (`id` values) within that window.
    pub min_sources: usize,
}

/// One triggered window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelationAlert {
    /// The triggering rule's name.
    pub rule: String,
    /// Window start (epoch seconds, inclusive).
    pub window_start: u64,
    /// Window end (epoch seconds, exclusive).
    pub window_end: u64,
    /// Matching events inside the window.
    pub events: usize,
    /// Distinct sources inside the window.
    pub sources: usize,
    /// The correlated records (glsns are public identifiers).
    pub glsns: Vec<Glsn>,
}

impl fmt::Display for CorrelationAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] window {}..{}: {} events from {} sources ({} records)",
            self.rule,
            self.window_start,
            self.window_end,
            self.events,
            self.sources,
            self.glsns.len()
        )
    }
}

/// Runs a correlation rule over the cluster.
///
/// # Errors
///
/// Returns [`AuditError`] on parse/plan/protocol failures, or if the
/// schema lacks `time`/`id` attributes.
///
/// # Panics
///
/// Panics if `window_seconds` is zero.
pub fn detect(
    cluster: &mut DlaCluster,
    rule: &CorrelationRule,
) -> Result<Vec<CorrelationAlert>, AuditError> {
    assert!(rule.window_seconds > 0, "window must be positive");
    let time_attr = AttrName::new("time");
    let id_attr = AttrName::new("id");
    for attr in [&time_attr, &id_attr] {
        if !cluster.schema().contains(attr) {
            return Err(AuditError::Planning(format!(
                "correlation needs a {attr} attribute in the schema"
            )));
        }
    }

    // Step 1: the matching glsns (distributed query, revealed to the
    // auditor engine — glsns only).
    let result = cluster.query(&rule.event_criteria)?;
    if result.glsns.is_empty() {
        return Ok(Vec::new());
    }

    // Step 2: the time owner buckets the glsns into tumbling windows
    // and returns (bucket index, glsns) — indices are coarse timing.
    let buckets = window_buckets(cluster, &result.glsns, rule.window_seconds)?;

    // Step 3: per threshold-crossing bucket, the id owner reports the
    // distinct-source count.
    let mut alerts = Vec::new();
    for (bucket, glsns) in buckets {
        if glsns.len() < rule.min_events {
            continue;
        }
        let sources = owner_scalar_over_glsns(cluster, &glsns, &id_attr, 0x74, |values| {
            let set: std::collections::BTreeSet<Vec<u8>> =
                values.iter().map(AttrValue::to_canonical_bytes).collect();
            Some(set.len() as u64)
        })?
        .unwrap_or(0) as usize;
        if sources < rule.min_sources {
            continue;
        }
        alerts.push(CorrelationAlert {
            rule: rule.name.clone(),
            window_start: bucket * rule.window_seconds,
            window_end: (bucket + 1) * rule.window_seconds,
            events: glsns.len(),
            sources,
            glsns,
        });
    }
    Ok(alerts)
}

/// Auditor ↔ time-owner exchange: ships the glsn list, receives
/// `(bucket index, glsn)` pairs computed at the owner.
fn window_buckets(
    cluster: &mut DlaCluster,
    glsns: &[Glsn],
    window_seconds: u64,
) -> Result<BTreeMap<u64, Vec<Glsn>>, AuditError> {
    // Auditor -> time owner: the glsn list, bucketed at the owner.
    let (owner, times) = cluster.values_at_owner(0x75, &AttrName::new("time"), glsns)?;
    let pairs: Vec<(u64, Glsn)> = times
        .into_iter()
        .filter_map(|(g, value)| match value {
            AttrValue::Time(t) => Some((t / window_seconds, g)),
            _ => None,
        })
        .collect();
    let auditor = cluster.auditor_node();

    // Owner -> auditor: the bucketed pairs.
    let mut w = Writer::new();
    w.put_u8(0x75).put_list(&pairs, |w, &(bucket, g)| {
        w.put_u64(bucket);
        w.put_u64(g.0);
    });
    let wire = cluster.root_session();
    wire.send(NodeId(owner), auditor, w.finish());
    let envelope = wire.recv_from(auditor, NodeId(owner))?;
    let mut r = crate::open_frame(&envelope.payload, 0x75)?;
    let received = r.get_list(|r| {
        let bucket = r.get_u64()?;
        let g = r.get_u64().map(Glsn)?;
        Ok((bucket, g))
    })?;

    let mut out: BTreeMap<u64, Vec<Glsn>> = BTreeMap::new();
    for (bucket, glsn) in received {
        out.entry(bucket).or_default().push(glsn);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AppUser, ClusterConfig};
    use dla_logstore::model::LogRecord;
    use dla_logstore::schema::{AttrDef, Schema};

    fn auth_schema() -> Schema {
        Schema::new(vec![
            AttrDef::known("time", dla_logstore::model::AttrType::Time),
            AttrDef::known("id", dla_logstore::model::AttrType::Text),
            AttrDef::known("tid", dla_logstore::model::AttrType::Text),
            AttrDef::undefined("c1", dla_logstore::model::AttrType::Int),
        ])
        .expect("valid schema")
    }

    fn cluster() -> (DlaCluster, AppUser) {
        let mut cluster =
            DlaCluster::new(ClusterConfig::new(4, auth_schema()).with_seed(91)).unwrap();
        let user = cluster.register_user("u").unwrap();
        (cluster, user)
    }

    fn log_event(cluster: &mut DlaCluster, user: &AppUser, t: u64, org: &str, fails: i64) {
        let record = LogRecord::new(Glsn(0))
            .with("time", AttrValue::Time(t))
            .with("id", AttrValue::text(org))
            .with("tid", AttrValue::text("acct-13"))
            .with("c1", AttrValue::Int(fails));
        cluster.log_record(user, &record).unwrap();
    }

    fn rule() -> CorrelationRule {
        CorrelationRule {
            name: "low-and-slow".into(),
            event_criteria: "c1 >= 4".into(),
            window_seconds: 300,
            min_events: 3,
            min_sources: 3,
        }
    }

    #[test]
    fn correlated_burst_triggers_one_alert() {
        let (mut cluster, user) = cluster();
        // Background noise in other windows.
        for w in 0..5u64 {
            log_event(&mut cluster, &user, w * 300 + 10, "OrgA", 1);
        }
        // The correlated burst: 3 orgs in window [1500, 1800).
        for org in ["OrgA", "OrgB", "OrgC"] {
            log_event(&mut cluster, &user, 1600, org, 5);
        }
        let alerts = detect(&mut cluster, &rule()).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window_start, 1500);
        assert_eq!(alerts[0].window_end, 1800);
        assert_eq!(alerts[0].events, 3);
        assert_eq!(alerts[0].sources, 3);
        assert_eq!(alerts[0].glsns.len(), 3);
    }

    #[test]
    fn single_source_burst_does_not_trigger() {
        let (mut cluster, user) = cluster();
        // 4 events, but all from one org.
        for i in 0..4 {
            log_event(&mut cluster, &user, 1600 + i, "OrgA", 6);
        }
        let alerts = detect(&mut cluster, &rule()).unwrap();
        assert!(alerts.is_empty(), "one source must not correlate");
    }

    #[test]
    fn spread_out_events_do_not_trigger() {
        let (mut cluster, user) = cluster();
        // 3 orgs, but in different windows.
        log_event(&mut cluster, &user, 100, "OrgA", 5);
        log_event(&mut cluster, &user, 700, "OrgB", 5);
        log_event(&mut cluster, &user, 1300, "OrgC", 5);
        let alerts = detect(&mut cluster, &rule()).unwrap();
        assert!(alerts.is_empty());
    }

    #[test]
    fn multiple_windows_can_trigger() {
        let (mut cluster, user) = cluster();
        for window in [2u64, 7] {
            for org in ["OrgA", "OrgB", "OrgC", "OrgD"] {
                log_event(&mut cluster, &user, window * 300 + 50, org, 9);
            }
        }
        let alerts = detect(&mut cluster, &rule()).unwrap();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].window_start, 600);
        assert_eq!(alerts[1].window_start, 2100);
        assert!(alerts.iter().all(|a| a.sources == 4));
    }

    #[test]
    fn no_matching_events_is_quiet() {
        let (mut cluster, user) = cluster();
        log_event(&mut cluster, &user, 100, "OrgA", 1); // below c1 >= 4
        let alerts = detect(&mut cluster, &rule()).unwrap();
        assert!(alerts.is_empty());
    }

    #[test]
    fn schema_without_id_rejected() {
        let schema = Schema::new(vec![
            AttrDef::known("time", dla_logstore::model::AttrType::Time),
            AttrDef::known("c1", dla_logstore::model::AttrType::Int),
        ])
        .unwrap();
        let mut cluster = DlaCluster::new(ClusterConfig::new(2, schema).with_seed(1)).unwrap();
        let err = detect(&mut cluster, &rule()).unwrap_err();
        assert!(err.to_string().contains("id"));
    }

    #[test]
    fn alert_display_is_informative() {
        let alert = CorrelationAlert {
            rule: "r".into(),
            window_start: 0,
            window_end: 300,
            events: 3,
            sources: 3,
            glsns: vec![Glsn(1)],
        };
        let text = alert.to_string();
        assert!(text.contains("3 events from 3 sources"));
    }
}

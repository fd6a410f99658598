//! Confidential aggregate auditing (paper §1: "the auditor can
//! retrieve certain aggregated system information e.g., number of
//! transactions, total of volumes … without having to access the full
//! log data").
//!
//! * [`count_matching`] — how many records satisfy a criterion. The
//!   query pipeline runs **without the final reveal**, so the auditor
//!   learns a number, not which records.
//! * [`sum_matching`] — the total of a numeric attribute over the
//!   matching records. The attribute's owner node computes its partial
//!   total locally, and the cluster runs the §3.5 secure-sum protocol
//!   (every node contributes; non-owners contribute 0) so the auditor
//!   receives only the reconstructed aggregate — it cannot tell which
//!   node(s) contributed, and no per-record value ever leaves its
//!   owner.
//! * [`windowed_bucket_aggregate`] — count/sum over one predicate
//!   bucket (`attr = 'value'`) restricted to a time window, answered
//!   from the per-epoch partials materialized at seal time: a window
//!   query combines O(epochs-in-window) precomputed partials instead
//!   of rescanning fragments, falling back to an epoch-local scan only
//!   where the cache cannot prove coverage. Cached partials are
//!   integrity-checked against the aggregate commitment folded into
//!   each epoch's checkpoint link before they are believed.

use crate::cluster::{epoch_aggregates_digest, served, DlaCluster};
use crate::exec;
use crate::plan::TimeWindow;
use crate::AuditError;
use dla_bigint::F61;
use dla_logstore::epoch::EpochId;
use dla_logstore::model::{AttrName, AttrValue};
use dla_mpc::report::ProtocolReport;
use dla_mpc::SumSession;
use dla_net::NodeId;

/// Result of a confidential count.
#[derive(Debug)]
pub struct CountOutcome {
    /// Number of satisfying records.
    pub count: usize,
    /// Protocol cost reports.
    pub reports: Vec<ProtocolReport>,
}

/// Counts records satisfying `criteria` without revealing which.
///
/// # Errors
///
/// Returns [`AuditError`] on parse/plan/protocol failures.
pub fn count_matching(
    cluster: &mut DlaCluster,
    criteria: &str,
) -> Result<CountOutcome, AuditError> {
    let plan = cluster.compile(criteria)?;
    let result = exec::execute(cluster, &plan, false)?;
    debug_assert!(result.glsns.is_empty(), "count must not reveal glsns");
    Ok(CountOutcome {
        count: result.cardinality,
        reports: result.reports,
    })
}

/// Result of a confidential aggregate sum.
#[derive(Debug)]
pub struct SumOutcome {
    /// The aggregate, in the attribute's native unit (hundredths for
    /// fixed-point attributes).
    pub total: u64,
    /// Number of contributing records.
    pub count: usize,
    /// Protocol cost reports.
    pub reports: Vec<ProtocolReport>,
}

/// Sums `attr` over all records satisfying `criteria`.
///
/// Only non-negative `Int` and `Fixed2` attributes can be aggregated
/// (they are the paper's counts and volumes).
///
/// # Errors
///
/// Returns [`AuditError`] on parse/plan/protocol failures, if `attr`
/// is not numeric, or a value is negative.
pub fn sum_matching(
    cluster: &mut DlaCluster,
    criteria: &str,
    attr: &AttrName,
) -> Result<SumOutcome, AuditError> {
    // Phase 1: the matching glsn set, revealed to the auditor engine.
    let result = cluster.query(criteria)?;
    let mut reports = result.reports;
    let glsns = result.glsns;

    // Phase 2: the auditor ships the glsn list to the owner, which
    // computes its partial total locally.
    let (owner, values) = cluster.values_at_owner(0x70, attr, &glsns)?;
    let mut partial: u64 = 0;
    for (_, value) in values {
        match value {
            AttrValue::Int(v) | AttrValue::Fixed2(v) if v >= 0 => partial += v as u64,
            AttrValue::Int(_) | AttrValue::Fixed2(_) => {
                return Err(AuditError::Planning(format!(
                    "negative value in aggregate over {attr}"
                )));
            }
            _ => {
                return Err(AuditError::Planning(format!(
                    "attribute {attr} is not numeric"
                )));
            }
        }
    }

    // Phase 3: the §3.5 secure sum over all serving nodes (owner
    // contributes its partial, everyone else 0), reconstructed by the
    // auditor.
    let parties: Vec<NodeId> = cluster.placement().in_service().map(NodeId).collect();
    let inputs: Vec<F61> = parties
        .iter()
        .map(|p| F61::new(if p.0 == owner { partial } else { 0 }))
        .collect();
    let k = parties.len() / 2 + 1;
    let auditor = cluster.auditor_node();
    let (wire, rng) = cluster.root_session_and_rng();
    let sum = SumSession::new(wire, &parties, k, auditor).run(&inputs, rng)?;
    reports.push(sum.report.clone());

    Ok(SumOutcome {
        total: sum.total.value(),
        count: glsns.len(),
        reports,
    })
}

/// Which machinery answers a [`windowed_bucket_aggregate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AggregatePath {
    /// Combine sealed epochs' materialized partials where coverage is
    /// provable, scanning only the epochs the cache cannot answer.
    #[default]
    Cached,
    /// Ignore the cache entirely: scan the owner's whole trail. The
    /// baseline the cached path must agree with byte for byte.
    Rescan,
}

/// Result of a [`windowed_bucket_aggregate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowedAggregate {
    /// Records in the bucket inside the window.
    pub count: u64,
    /// Sum of the requested numeric attribute over those records
    /// (`None` when no sum attribute was requested).
    pub sum: Option<i64>,
    /// Epochs answered from cached partials.
    pub epochs_cached: usize,
    /// Epochs answered by scanning fragments.
    pub epochs_scanned: usize,
    /// Fragments visited by scanning (the work the cache avoids).
    pub fragments_scanned: u64,
}

/// Counts (and optionally sums over) the records whose `attr` equals
/// the text `value`, restricted to `window` over the `time` attribute.
/// Records without a `time` are excluded whenever the window is
/// bounded, mirroring strict predicate evaluation.
///
/// Under [`AggregatePath::Cached`] each sealed epoch whose observed
/// time extent the window fully covers — and whose every deposit
/// carried a time — is answered from its materialized
/// [`dla_logstore::epoch::EpochPartials`], after re-deriving the
/// cluster-wide aggregate commitment and checking it against the
/// epoch's checkpoint. Everything else (open epochs, boundary-straddled
/// epochs) is scanned fragment by fragment, so both paths return
/// identical answers by construction — the bench and chaos suites
/// assert it empirically.
///
/// # Errors
///
/// Returns [`AuditError::Planning`] if `attr` is unserved, or if
/// `sum_attr` is not co-located with `attr` (per-record pairing happens
/// at the owner); [`AuditError::Integrity`] if a cached partial fails
/// its checkpoint commitment.
pub fn windowed_bucket_aggregate(
    cluster: &DlaCluster,
    attr: &AttrName,
    value: &str,
    sum_attr: Option<&AttrName>,
    window: &TimeWindow,
    path: AggregatePath,
) -> Result<WindowedAggregate, AuditError> {
    // Resolved against the partition in force: once the node `attr` was
    // deposited at is retired, its adopter serves the adopted copies.
    let placement = cluster.placement();
    let (home, owner) = placement.owner_of(attr)?;
    if let Some(sa) = sum_attr {
        let (_, sum_owner) = placement.owner_of(sa)?;
        if sum_owner != owner {
            return Err(AuditError::Planning(format!(
                "sum attribute {sa} (node {sum_owner}) is not co-located with \
                 bucket attribute {attr} (node {owner}); partial aggregation \
                 pairs them per record at the owner"
            )));
        }
    }
    let time_attr = AttrName::new("time");
    let time_owner = placement.owner_of(&time_attr).ok();

    let mut out = WindowedAggregate {
        count: 0,
        sum: sum_attr.map(|_| 0),
        epochs_cached: 0,
        epochs_scanned: 0,
        fragments_scanned: 0,
    };
    if window.is_empty() {
        return Ok(out);
    }

    // The record's time lives at its own owner node, not necessarily
    // beside the bucket attribute.
    let record_time = |glsn| -> Option<u64> {
        let (time_home, time_owner) = time_owner?;
        let store = cluster.node(time_owner).store();
        match served(&store, time_home, glsn)?.values.get(&time_attr) {
            Some(AttrValue::Time(t)) => Some(*t),
            _ => None,
        }
    };
    let bounded = !window.is_unbounded();

    // One epoch's contribution by scanning the owner's fragments over
    // the epoch's nominal glsn range, the range its partials fold. The
    // scan walks own and adopted fragments alike; whichever of them
    // carry another node's attributes match nothing here.
    let scan_epoch = |epoch: EpochId, out: &mut WindowedAggregate| {
        let (lo, hi) = cluster.trail().epoch_policy().glsn_range(epoch);
        let store = cluster.node(owner).store();
        for frag in store.scan_window(lo, hi) {
            out.fragments_scanned += 1;
            if frag.values.get(attr) != Some(&AttrValue::text(value)) {
                continue;
            }
            if bounded {
                let Some(t) = record_time(frag.glsn) else {
                    continue;
                };
                if !window.covers(t, t) {
                    continue;
                }
            }
            out.count += 1;
            if let (Some(sa), Some(total)) = (sum_attr, out.sum.as_mut()) {
                if let Some(AttrValue::Int(v) | AttrValue::Fixed2(v)) = frag.values.get(sa) {
                    *total = total.wrapping_add(*v);
                }
            }
        }
        out.epochs_scanned += 1;
    };

    match path {
        AggregatePath::Rescan => {
            // The linear baseline: every observed epoch is scanned.
            for stats in cluster.epoch_stats() {
                scan_epoch(stats.epoch, &mut out);
            }
        }
        AggregatePath::Cached => {
            // An adopter folded no partials for the fragments it
            // adopted: the retired home's summaries went with it.
            let summarized = owner == home;
            // An epoch the window does not touch contributes nothing.
            for stats in cluster.epoch_stats().filter(|s| s.touches(window)) {
                let covered = !bounded || stats.timed_within(window);
                // Cached leg, for a sealed epoch: the commitment folded
                // into its checkpoint link endorses exactly these
                // partials; verify before believing them.
                let store = cluster.node(owner).store();
                let cached = store.epoch_partials(stats.epoch);
                let Some(partials) = cached.filter(|_| summarized && stats.sealed && covered)
                else {
                    drop(store);
                    scan_epoch(stats.epoch, &mut out);
                    continue;
                };
                let (count, sum) = match partials.bucket(attr, value) {
                    Some(bucket) => (
                        bucket.count,
                        sum_attr.map(|sa| bucket.sums.get(sa).map_or(0, |p| p.total)),
                    ),
                    None => (0, sum_attr.map(|_| 0)),
                };
                drop(store);
                let derived = epoch_aggregates_digest(cluster.nodes(), stats.epoch);
                let committed = cluster.checkpoint_chain().get(stats.epoch.0);
                if committed.map(|c| c.aggregates) != Some(derived) {
                    return Err(AuditError::Integrity(format!(
                        "epoch {} cached partials do not match the checkpointed \
                         aggregate commitment",
                        stats.epoch
                    )));
                }
                out.count += count;
                if let (Some(total), Some(s)) = (out.sum.as_mut(), sum) {
                    *total = total.wrapping_add(s);
                }
                out.epochs_cached += 1;
                dla_telemetry::record(dla_telemetry::CostKind::PartialCombine, 1);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use dla_logstore::fragment::Partition;
    use dla_logstore::gen::paper_table1;
    use dla_logstore::schema::Schema;

    fn loaded() -> DlaCluster {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(77),
        )
        .unwrap();
        let user = cluster.register_user("u").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap();
        cluster
    }

    #[test]
    fn count_without_reveal() {
        let mut cluster = loaded();
        let outcome = count_matching(&mut cluster, "protocol = 'UDP'").unwrap();
        assert_eq!(outcome.count, 3);
        let outcome = count_matching(&mut cluster, "c1 > 1000").unwrap();
        assert_eq!(outcome.count, 0);
    }

    #[test]
    fn sum_of_volumes_matches_table1() {
        let mut cluster = loaded();
        // Total volume (c2) over UDP transactions: 23.45+345.11+235.00.
        let outcome = sum_matching(&mut cluster, "protocol = 'UDP'", &"c2".into()).unwrap();
        assert_eq!(outcome.total, 2345 + 34511 + 23500);
        assert_eq!(outcome.count, 3);
    }

    #[test]
    fn sum_of_counts() {
        let mut cluster = loaded();
        // Sum of c1 over everything: 20+34+45+18+53 = 170.
        let outcome = sum_matching(&mut cluster, "c1 >= 0", &"c1".into()).unwrap();
        assert_eq!(outcome.total, 170);
        assert_eq!(outcome.count, 5);
    }

    #[test]
    fn sum_over_empty_match_is_zero() {
        let mut cluster = loaded();
        let outcome = sum_matching(&mut cluster, "c1 > 1000", &"c1".into()).unwrap();
        assert_eq!(outcome.total, 0);
        assert_eq!(outcome.count, 0);
    }

    #[test]
    fn sum_rejects_text_attribute() {
        let mut cluster = loaded();
        let err = sum_matching(&mut cluster, "c1 > 0", &"c3".into()).unwrap_err();
        assert!(err.to_string().contains("not numeric"));
    }

    #[test]
    fn sum_rejects_unknown_attribute() {
        let mut cluster = loaded();
        assert!(sum_matching(&mut cluster, "c1 > 0", &"nope".into()).is_err());
    }

    #[test]
    fn aggregate_uses_secure_sum_protocol() {
        let mut cluster = loaded();
        let outcome = sum_matching(&mut cluster, "c1 > 0", &"c1".into()).unwrap();
        assert!(outcome.reports.iter().any(|r| r.protocol == "secure-sum"));
    }

    fn epoch_config(epoch_length: u64) -> ClusterConfig {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(42)
            .with_epoch_length(epoch_length)
    }

    fn load(
        config: ClusterConfig,
        records: usize,
    ) -> (DlaCluster, Vec<dla_logstore::model::LogRecord>) {
        use rand::SeedableRng;
        let mut cluster = DlaCluster::new(config).unwrap();
        let user = cluster.register_user("u").unwrap();
        let workload = dla_logstore::gen::generate(
            &dla_logstore::gen::WorkloadConfig {
                records,
                ..Default::default()
            },
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        cluster.log_records(&user, &workload).unwrap();
        (cluster, workload)
    }

    fn epoch_loaded(
        epoch_length: u64,
        records: usize,
    ) -> (DlaCluster, Vec<dla_logstore::model::LogRecord>) {
        load(epoch_config(epoch_length), records)
    }

    fn record_time(record: &dla_logstore::model::LogRecord) -> u64 {
        match record.get(&"time".into()) {
            Some(AttrValue::Time(t)) => *t,
            other => panic!("workload records carry a time, got {other:?}"),
        }
    }

    #[test]
    fn windowed_bucket_aggregate_cached_equals_rescan() {
        let (cluster, workload) = epoch_loaded(4, 24);
        let times: Vec<u64> = workload.iter().map(record_time).collect();
        let window = TimeWindow {
            lo: Some(times[3]),
            hi: Some(times[19]),
        };
        let attr: AttrName = "protocol".into();
        let sum_attr: AttrName = "c1".into();
        for value in ["UDP", "TCP"] {
            let cached = windowed_bucket_aggregate(
                &cluster,
                &attr,
                value,
                Some(&sum_attr),
                &window,
                AggregatePath::Cached,
            )
            .unwrap();
            let rescan = windowed_bucket_aggregate(
                &cluster,
                &attr,
                value,
                Some(&sum_attr),
                &window,
                AggregatePath::Rescan,
            )
            .unwrap();
            assert_eq!((cached.count, cached.sum), (rescan.count, rescan.sum));
            assert!(
                cached.epochs_cached > 0,
                "a fully-covered sealed epoch must be answered from cache"
            );
            assert!(
                cached.fragments_scanned < rescan.fragments_scanned,
                "cache must reduce scan work: {} vs {}",
                cached.fragments_scanned,
                rescan.fragments_scanned
            );
            // Reference: count by hand from the workload.
            let expected: u64 = workload
                .iter()
                .filter(|r| {
                    r.get(&attr) == Some(&AttrValue::text(value))
                        && (times[3]..=times[19]).contains(&record_time(r))
                })
                .count() as u64;
            assert_eq!(cached.count, expected);
        }
    }

    #[test]
    fn windowed_bucket_aggregate_unbounded_counts_everything() {
        let (cluster, workload) = epoch_loaded(4, 12);
        let attr: AttrName = "id".into();
        let sum_attr: AttrName = "c2".into();
        let value = match workload[0].get(&attr) {
            Some(AttrValue::Text(s)) => s.clone(),
            other => panic!("id is text, got {other:?}"),
        };
        let cached = windowed_bucket_aggregate(
            &cluster,
            &attr,
            &value,
            Some(&sum_attr),
            &TimeWindow::unbounded(),
            AggregatePath::Cached,
        )
        .unwrap();
        let rescan = windowed_bucket_aggregate(
            &cluster,
            &attr,
            &value,
            Some(&sum_attr),
            &TimeWindow::unbounded(),
            AggregatePath::Rescan,
        )
        .unwrap();
        assert_eq!((cached.count, cached.sum), (rescan.count, rescan.sum));
        let expected: i64 = workload
            .iter()
            .filter(|r| r.get(&attr) == Some(&AttrValue::text(&value)))
            .map(|r| match r.get(&sum_attr) {
                Some(AttrValue::Fixed2(v) | AttrValue::Int(v)) => *v,
                other => panic!("c2 is numeric, got {other:?}"),
            })
            .sum();
        assert_eq!(cached.sum, Some(expected));
    }

    #[test]
    fn windowed_bucket_aggregate_reads_the_adopter_once_the_owner_is_retired() {
        let (attr, sum_attr): (AttrName, AttrName) = ("protocol".into(), "c1".into());
        // Retire the bucket attribute's owner; on a second cluster, the
        // time owner.
        for retiring in [&attr, &AttrName::new("time")] {
            let (mut cluster, workload) = load(epoch_config(4).with_standby_replication(), 24);
            let times: Vec<u64> = workload.iter().map(record_time).collect();

            let owner = cluster.partition().node_of(retiring).unwrap();
            let report = cluster.rereplicate(&[owner].into()).unwrap();
            assert!(report.is_fully_verified());
            // What the retired store still holds is rewritten, so an
            // answer read from it is a wrong one.
            {
                let mut store = cluster.node(owner).store_mut();
                let glsns: Vec<_> = store.scan().map(|f| f.glsn).collect();
                for glsn in glsns {
                    store.tamper(glsn, &attr, AttrValue::text("gone"));
                    store.tamper(glsn, &"time".into(), AttrValue::Time(0));
                }
            }

            for window in [
                TimeWindow::unbounded(),
                TimeWindow {
                    lo: Some(times[3]),
                    hi: Some(times[19]),
                },
            ] {
                let oracle = workload.iter().filter(|r| {
                    r.get(&attr) == Some(&AttrValue::text("UDP"))
                        && window.covers(record_time(r), record_time(r))
                });
                let sum = |r: &dla_logstore::model::LogRecord| match r.get(&sum_attr) {
                    Some(AttrValue::Int(v)) => *v,
                    other => panic!("c1 is an integer, got {other:?}"),
                };
                let expected = (oracle.clone().count() as u64, Some(oracle.map(sum).sum()));
                assert!(expected.0 > 0);
                for path in [AggregatePath::Cached, AggregatePath::Rescan] {
                    let got = windowed_bucket_aggregate(
                        &cluster,
                        &attr,
                        "UDP",
                        Some(&sum_attr),
                        &window,
                        path,
                    )
                    .unwrap();
                    assert_eq!(
                        (got.count, got.sum),
                        expected,
                        "{path:?} over {window}, {retiring} retired"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_bucket_aggregate_rejects_non_colocated_sum() {
        let (cluster, _) = epoch_loaded(4, 8);
        // protocol lives on P3, c2 on P1.
        let err = windowed_bucket_aggregate(
            &cluster,
            &"protocol".into(),
            "UDP",
            Some(&"c2".into()),
            &TimeWindow::unbounded(),
            AggregatePath::Cached,
        )
        .unwrap_err();
        assert!(err.to_string().contains("co-located"), "{err}");
    }

    #[test]
    fn tampered_cached_partials_fail_the_checkpoint_commitment() {
        let (cluster, _) = epoch_loaded(4, 16);
        let owner = cluster.partition().node_of(&"protocol".into()).unwrap();
        // Tamper the cached partials of a sealed epoch directly in the
        // owner's manifest.
        {
            let mut store = cluster.node(owner).store_mut();
            let epoch = store
                .epoch_manifests()
                .find(|m| m.sealed && m.partials.is_some())
                .map(|m| m.epoch)
                .expect("a sealed epoch with partials");
            let mut partials = store.epoch_partials(epoch).unwrap().clone();
            partials.fragments += 1;
            assert!(store.tamper_partials(epoch, partials));
        }
        let err = windowed_bucket_aggregate(
            &cluster,
            &"protocol".into(),
            "UDP",
            None,
            &TimeWindow::unbounded(),
            AggregatePath::Cached,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("aggregate commitment"),
            "cached partials must be integrity-checked: {err}"
        );
    }
}

//! Distributed integrity cross-checking (paper §4.1).
//!
//! When a user logs a record it deposits
//! `A(x₀, Log_0, …, Log_{n−1})` — the one-way accumulator over all
//! fragments — at every DLA node. Any node can later initiate a check:
//! it folds its own stored fragment into `x₀` and circulates the
//! intermediate value (labelled by `glsn`) around the ring; each node
//! folds in its own fragment and forwards. Quasi-commutativity (Eq. 9)
//! makes the final value independent of the visit order, so it must
//! equal the deposit — unless some node's fragment was modified, which
//! the initiator detects immediately. "This scheme allows DLA nodes to
//! check the integrity of the records while keeping them private": only
//! accumulator values travel, never fragment contents.
//!
//! There is one circulation, [`check_record_among`], over whichever
//! nodes are alive (each survivor also folds the fragments it adopted
//! from retired ones); [`check_record`] is its every-node-alive case.
//!
//! The per-ticket ACL consistency check (also §4.1) runs the secure
//! set intersection primitive over each node's authorization set.

use crate::cluster::DlaCluster;
use crate::AuditError;
use dla_bigint::Ubig;
use dla_logstore::acl::TicketId;
use dla_logstore::model::Glsn;
use dla_mpc::SsiSession;
use dla_net::topology::Ring;
use dla_net::wire::Writer;
use dla_net::{NodeId, Session};
use std::collections::BTreeSet;

/// The verdict of one record's integrity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityVerdict {
    /// The record checked.
    pub glsn: Glsn,
    /// Whether the circulated accumulator matched the deposit.
    pub ok: bool,
    /// The node that initiated the check.
    pub initiator: usize,
    /// Messages spent on the circulation.
    pub messages: u64,
}

/// Circulates the accumulator for `glsn` around the full ring starting
/// at `initiator`: the survivor walk of [`check_record_among`] with
/// every node alive.
///
/// # Errors
///
/// Returns [`AuditError`] if no deposit exists for `glsn` or the
/// network fails.
///
/// # Panics
///
/// Panics if `initiator` is not a DLA node index.
pub fn check_record(
    cluster: &mut DlaCluster,
    glsn: Glsn,
    initiator: usize,
) -> Result<IntegrityVerdict, AuditError> {
    let everyone = (0..cluster.num_nodes()).collect();
    check_record_among(cluster, glsn, initiator, &everyone)
}

/// Folds one survivor's contribution: its own fragment plus any adopted
/// fragments it can represent for the still-unrepresented dead nodes.
/// Each dead node is folded at most once across the whole circulation.
fn fold_survivor(
    cluster: &DlaCluster,
    node: usize,
    glsn: Glsn,
    params: &dla_crypto::accumulator::AccumulatorParams,
    acc: &Ubig,
    unrepresented: &mut BTreeSet<usize>,
) -> Ubig {
    let store = cluster.node(node).store();
    let mut acc = match store.get_local(glsn) {
        Some(frag) => params.fold(acc, &frag.to_canonical_bytes()),
        // A missing fragment folds a distinguished marker so the check
        // fails loudly rather than silently skipping the node.
        None => params.fold(acc, format!("missing:{node}:{glsn}").as_bytes()),
    };
    let covered: Vec<usize> = unrepresented
        .iter()
        .copied()
        .filter(|&dead| store.get_adopted(dead, glsn).is_some())
        .collect();
    for dead in covered {
        let frag = store.get_adopted(dead, glsn).expect("just checked");
        acc = params.fold(&acc, &frag.to_canonical_bytes());
        unrepresented.remove(&dead);
    }
    acc
}

/// Sends one circulation frame (`tag ‖ glsn ‖ acc`) from `from` to `to`
/// and receives it there: the accumulator value as it arrived. A frame
/// that arrives under another glsn's label is a protocol error, not a
/// tamper verdict.
fn circulate(
    wire: &Session<'_>,
    tag: u8,
    glsn: Glsn,
    acc: &Ubig,
    from: usize,
    to: usize,
) -> Result<Ubig, AuditError> {
    let mut w = Writer::new();
    w.put_u8(tag).put_u64(glsn.0).put_bytes(&acc.to_bytes_be());
    wire.send(NodeId(from), NodeId(to), w.finish());
    let envelope = wire.recv_from(NodeId(to), NodeId(from))?;
    let mut r = crate::open_frame(&envelope.payload, tag)?;
    let label = r.get_u64()?;
    if label != glsn.0 {
        return Err(AuditError::Integrity(format!(
            "circulation for {glsn} arrived labelled {label:x}"
        )));
    }
    Ok(Ubig::from_bytes_be(r.get_bytes()?))
}

/// Circulates the accumulator for `glsn` over the `alive` survivor set
/// only — the one circulation body. Each survivor folds its own
/// fragment plus the adopted fragments it re-hosts for dead nodes;
/// quasi-commutativity makes the final value equal the original deposit
/// **iff every dead node's fragment is represented by a faithful
/// adopted copy** — this is the proof that a re-replicated fragment
/// matches what was originally logged. A dead node nobody re-hosts
/// folds a `missing:` marker, so the check fails loudly instead of
/// silently shrinking the record.
///
/// # Errors
///
/// Returns [`AuditError`] if no deposit exists for `glsn` or the
/// network fails.
///
/// # Panics
///
/// Panics if `initiator` is not in `alive` or `alive` contains a
/// non-DLA node index.
pub fn check_record_among(
    cluster: &mut DlaCluster,
    glsn: Glsn,
    initiator: usize,
    alive: &BTreeSet<usize>,
) -> Result<IntegrityVerdict, AuditError> {
    let n = cluster.num_nodes();
    assert!(
        alive.contains(&initiator),
        "initiator must be a surviving DLA node"
    );
    assert!(
        alive.iter().all(|&i| i < n),
        "alive set must contain DLA node indices"
    );
    let deposit = cluster
        .deposit(glsn)
        .ok_or_else(|| AuditError::Integrity(format!("no deposit for glsn {glsn}")))?
        .clone();
    let params = cluster.accumulator_params().clone();
    let wire = cluster.root_session();
    let (start_messages, _) = wire.counters();
    let mut unrepresented: BTreeSet<usize> = (0..n).filter(|i| !alive.contains(i)).collect();

    // Visit survivors in ring order starting at the initiator.
    let route = alive
        .range(initiator + 1..)
        .chain(alive.range(..initiator))
        .copied();

    let mut acc = fold_survivor(
        cluster,
        initiator,
        glsn,
        &params,
        params.start(),
        &mut unrepresented,
    );
    let mut holder = initiator;
    for next in route {
        let received = circulate(&wire, 0x40, glsn, &acc, holder, next)?;
        acc = fold_survivor(cluster, next, glsn, &params, &received, &mut unrepresented);
        holder = next;
    }

    // Dead nodes nobody re-hosts fold their missing markers (order does
    // not matter — quasi-commutativity), guaranteeing a mismatch.
    for dead in unrepresented {
        acc = params.fold(&acc, format!("missing:{dead}:{glsn}").as_bytes());
    }

    // Return to the initiator for the final comparison (skipped when
    // the initiator is the only survivor).
    if holder != initiator {
        acc = circulate(&wire, 0x41, glsn, &acc, holder, initiator)?;
    }

    Ok(IntegrityVerdict {
        glsn,
        ok: acc == deposit,
        initiator,
        messages: wire.counters().0 - start_messages,
    })
}

/// Checks every logged record from `initiator`.
///
/// # Errors
///
/// Propagates [`check_record`] failures.
pub fn check_all(
    cluster: &mut DlaCluster,
    initiator: usize,
) -> Result<Vec<IntegrityVerdict>, AuditError> {
    cluster
        .logged_glsns()
        .into_iter()
        .map(|glsn| check_record(cluster, glsn, initiator))
        .collect()
}

/// The verdict of a trail-level accumulator verification
/// ([`check_trail`] / [`check_window`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailVerdict {
    /// Whether every verified digest matched its commitment.
    pub ok: bool,
    /// Whether the sealed-checkpoint hash chain verified link by link.
    pub chain_ok: bool,
    /// Epochs whose accumulators were re-derived and compared.
    pub epochs_checked: usize,
    /// Deposit items folded during verification — the work metric the
    /// epoch-sharding experiment compares windowed vs full.
    pub items_folded: u64,
}

/// Full-trail verification: [`check_window`] over the unbounded window
/// — every epoch against its commitment, plus coverage. Every deposit
/// lands in exactly one epoch, whose digest and item count the verified
/// chain holds (the open epoch's, its running accumulator), so a
/// rewritten, added or removed deposit breaks its epoch's claim or the
/// count; coverage catches a deposit beyond every epoch's extent, which
/// no epoch would refold.
#[must_use]
pub fn check_trail(cluster: &DlaCluster) -> TrailVerdict {
    check_window(cluster, &crate::plan::TimeWindow::unbounded())
}

/// Windowed verification over the epoch-sharded trail: verifies the
/// sealed-checkpoint hash chain end to end (O(#epochs) hashing, no
/// folds), then re-derives the accumulator of **only** the epochs whose
/// observed time range intersects `window` — sealed epochs against
/// their checkpointed digests, the open epoch against the running
/// accumulator. An unbounded window verifies every epoch and also
/// requires that they refolded every deposit in the map (coverage).
///
/// Cost is proportional to the deposits inside the queried window, not
/// the trail length — the point of epoch sharding: each selected epoch
/// reads its own glsn extent out of the deposit map. Every claim —
/// a sealed epoch's `digestⱼ = x₀^{Eⱼ}` and the open epoch's
/// `acc = x₀^{E}` alike — is checked in **one**
/// random-linear-combination batch (`x₀^{Σ rⱼEⱼ} = ∏ digestⱼ^{rⱼ}` via
/// the fixed-base evaluator and multi-exponentiation): one big
/// fixed-base power a check, not one per epoch and not a second for the
/// open epoch — and that power, one epoch plus one randomizer long
/// however many epochs the window holds, is one comb walk: a quarter of
/// its bits in Montgomery steps. Soundness: epochs outside the window
/// are still bound by the hash chain, so a rewritten sealed epoch is
/// caught by `chain_ok` even when its items are never refolded.
#[must_use]
pub fn check_window(cluster: &DlaCluster, window: &crate::plan::TimeWindow) -> TrailVerdict {
    let params = cluster.accumulator_params();
    let chain = cluster.checkpoint_chain();
    let chain_ok = chain.verify_links();

    let selected = cluster.epoch_stats().filter(|s| s.touches(window));

    let mut ok = chain_ok;
    let mut epochs_checked = 0;
    let mut items_folded = 0u64;
    let mut claims: Vec<(Ubig, Ubig)> = Vec::new();
    for stats in selected {
        let items: Vec<Vec<u8>> = cluster
            .deposits_in(stats.glsn_lo, stats.glsn_hi)
            .map(|(glsn, deposit)| crate::cluster::trail_item(glsn, deposit))
            .collect();
        let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
        let exponent = params.batch_exponent(&refs);
        epochs_checked += 1;
        items_folded += refs.len() as u64;
        let digest = match chain.get(stats.epoch.0) {
            Some(cp) => {
                ok &= cp.items == refs.len() as u64;
                &cp.digest
            }
            // The open epoch has no sealed digest: its claim is the
            // running accumulator.
            None => &stats.acc,
        };
        claims.push((digest.clone(), exponent));
    }
    ok &= params.batch_verify(&claims);
    if window.is_unbounded() {
        ok &= items_folded == cluster.trail_items();
    }

    TrailVerdict {
        ok,
        chain_ok,
        epochs_checked,
        items_folded,
    }
}

/// The federated extension of [`TrailVerdict`]: a sub-ring's local
/// verdict plus the root-ring cross-checks that bind the ring's sealed
/// history to the rest of the federation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederatedTrailVerdict {
    /// The sub-ring's own verdict (local accumulator + chain).
    pub local: TrailVerdict,
    /// The root-ring cross-check
    /// ([`crate::federation::FederatedCluster::check_root`]): the
    /// global fold, per-ring chain endorsements and cross-ring
    /// endorsement records all verified.
    pub root: crate::federation::RootVerdict,
}

impl FederatedTrailVerdict {
    /// Whether both the local and the root-ring checks passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.local.ok && self.local.chain_ok && self.root.ok()
    }
}

/// Federated [`check_trail`]: every-epoch verification of sub-ring
/// `ring` **plus** the root accumulator cross-check. A sub-ring that
/// rewrites a deposit fails the local leg; one that rewrites a *sealed,
/// published* epoch (consistently, journal and all) passes its own
/// check but fails the root leg — the published checkpoint no longer
/// matches its chain and the global fold cannot be reproduced from the
/// rings' current heads.
#[must_use]
pub fn check_federated_trail(
    federation: &crate::federation::FederatedCluster,
    ring: usize,
) -> FederatedTrailVerdict {
    FederatedTrailVerdict {
        local: check_trail(federation.ring(ring)),
        root: federation.check_root(),
    }
}

/// Federated [`check_window`]: windowed verification of sub-ring
/// `ring` against both its local chain and the root accumulator. The
/// windowed leg folds only the epochs intersecting `window` (the
/// epoch-sharding cost bound survives federation); the root leg is
/// O(published checkpoints) regardless of the window.
#[must_use]
pub fn check_federated_window(
    federation: &crate::federation::FederatedCluster,
    ring: usize,
    window: &crate::plan::TimeWindow,
) -> FederatedTrailVerdict {
    FederatedTrailVerdict {
        local: check_window(federation.ring(ring), window),
        root: federation.check_root(),
    }
}

/// The result of a cross-node ACL consistency check for one ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclConsistency {
    /// The ticket checked.
    pub ticket: TicketId,
    /// Whether every node agrees on the ticket's authorization set.
    pub consistent: bool,
    /// The agreed set size (intersection cardinality).
    pub agreed: usize,
    /// Per-node authorization set sizes (the secondary information the
    /// relaxed model permits to leak).
    pub sizes: Vec<usize>,
}

/// Verifies that all DLA nodes hold identical authorization sets for
/// `ticket` (§4.1: "one could use secure set intersection to check the
/// consistency of each ticket's authorization set"). The sets are
/// identical iff the intersection cardinality equals every individual
/// set size.
///
/// # Errors
///
/// Returns [`AuditError`] on protocol failure.
pub fn check_acl_consistency(
    cluster: &mut DlaCluster,
    ticket: &TicketId,
) -> Result<AclConsistency, AuditError> {
    let n = cluster.num_nodes();
    let inputs: Vec<Vec<Vec<u8>>> = (0..n)
        .map(|i| {
            cluster
                .node(i)
                .store()
                .acl()
                .glsns_of(ticket)
                .iter()
                .map(|g| g.0.to_be_bytes().to_vec())
                .collect()
        })
        .collect();
    let sizes: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let ring = Ring::canonical(n);
    let auditor = cluster.auditor_node();
    let domain = cluster.domain().clone();
    let (wire, rng) = cluster.root_session_and_rng();
    let outcome = SsiSession::new(wire, &ring, &domain, auditor).run(&inputs, rng)?;
    let agreed = outcome.cardinality();
    Ok(AclConsistency {
        ticket: ticket.clone(),
        consistent: sizes.iter().all(|&s| s == agreed),
        agreed,
        sizes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AppUser, ClusterConfig};
    use dla_logstore::fragment::Partition;
    use dla_logstore::gen::paper_table1;
    use dla_logstore::model::AttrValue;
    use dla_logstore::schema::Schema;

    fn loaded() -> (DlaCluster, AppUser, Vec<Glsn>) {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(31),
        )
        .unwrap();
        let user = cluster.register_user("u0").unwrap();
        let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
        (cluster, user, glsns)
    }

    #[test]
    fn untampered_records_pass_from_any_initiator() {
        let (mut cluster, _, glsns) = loaded();
        for initiator in 0..4 {
            let verdict = check_record(&mut cluster, glsns[0], initiator).unwrap();
            assert!(verdict.ok, "initiator {initiator}");
            assert_eq!(verdict.messages, 4, "n messages per circulation");
        }
    }

    #[test]
    fn check_all_passes_on_clean_cluster() {
        let (mut cluster, _, _) = loaded();
        let verdicts = check_all(&mut cluster, 0).unwrap();
        assert_eq!(verdicts.len(), 5);
        assert!(verdicts.iter().all(|v| v.ok));
    }

    #[test]
    fn tampered_value_detected() {
        let (mut cluster, _, glsns) = loaded();
        // A compromised P1 alters a stored c2 amount.
        assert!(cluster.node_mut(1).store_mut().tamper(
            glsns[2],
            &"c2".into(),
            AttrValue::Fixed2(1)
        ));
        let verdict = check_record(&mut cluster, glsns[2], 0).unwrap();
        assert!(!verdict.ok, "tampering must be detected");
        // Other records unaffected.
        assert!(check_record(&mut cluster, glsns[0], 0).unwrap().ok);
    }

    #[test]
    fn tampering_detected_even_by_the_tamperer_node_as_initiator() {
        let (mut cluster, _, glsns) = loaded();
        cluster
            .node_mut(3)
            .store_mut()
            .tamper(glsns[1], &"c1".into(), AttrValue::Int(999));
        let verdict = check_record(&mut cluster, glsns[1], 3).unwrap();
        assert!(!verdict.ok);
    }

    #[test]
    fn deleted_fragment_detected() {
        let (mut cluster, user, glsns) = loaded();
        // Delete needs a D-capable path; simulate loss via tamper-free
        // removal through the test hook: re-create store without glsn.
        // Simplest: tamper is value-level, so emulate deletion by
        // checking a glsn that one node never stored — log a record,
        // then wipe its store entry via delete with an all-ops ticket.
        let _ = user;
        // Direct internal manipulation: take the fragment out.
        let frag = cluster
            .node(2)
            .store()
            .get_local(glsns[4])
            .cloned()
            .unwrap();
        assert_eq!(frag.glsn, glsns[4]);
        // No public delete without ticket; emulate a crashed node by
        // tampering all values (equivalent detection path).
        cluster
            .node_mut(2)
            .store_mut()
            .tamper(glsns[4], &"tid".into(), AttrValue::text("gone"));
        assert!(!check_record(&mut cluster, glsns[4], 1).unwrap().ok);
    }

    #[test]
    fn unknown_glsn_is_an_error() {
        let (mut cluster, _, _) = loaded();
        assert!(check_record(&mut cluster, Glsn(0xdead), 0).is_err());
    }

    #[test]
    fn acl_consistency_on_clean_cluster() {
        let (mut cluster, user, _) = loaded();
        let result = check_acl_consistency(&mut cluster, &user.ticket.id).unwrap();
        assert!(result.consistent);
        assert_eq!(result.agreed, 5);
        assert_eq!(result.sizes, vec![5, 5, 5, 5]);
    }

    #[test]
    fn acl_inconsistency_detected() {
        let (mut cluster, user, _) = loaded();
        // A compromised node grants itself an extra glsn under the
        // user's ticket.
        let ticket = user.ticket.clone();
        let rogue = Glsn(0xEEEE);
        cluster
            .node_mut(2)
            .store_mut()
            .acl_mut_for_tests()
            .authorize(&ticket, rogue);
        let result = check_acl_consistency(&mut cluster, &ticket.id).unwrap();
        assert!(!result.consistent);
        assert_eq!(result.agreed, 5);
        assert_eq!(result.sizes, vec![5, 5, 6, 5]);
    }

    #[test]
    fn acl_check_for_unknown_ticket_is_vacuously_consistent() {
        let (mut cluster, _, _) = loaded();
        let result = check_acl_consistency(&mut cluster, &TicketId::new("T999")).unwrap();
        assert!(result.consistent);
        assert_eq!(result.agreed, 0);
    }

    fn survivors(alive: &[usize]) -> std::collections::BTreeSet<usize> {
        alive.iter().copied().collect()
    }

    #[test]
    fn survivor_check_fails_when_a_dead_node_is_not_rehosted() {
        let (mut cluster, _, glsns) = loaded();
        // Node 2 is gone and nobody adopted its fragments: the missing
        // marker folds in and the deposit cannot be reproduced.
        let verdict =
            check_record_among(&mut cluster, glsns[0], 0, &survivors(&[0, 1, 3])).unwrap();
        assert!(!verdict.ok);
    }

    #[test]
    fn survivor_check_passes_once_fragments_are_rehosted() {
        let (mut cluster, _, glsns) = loaded();
        for &glsn in &glsns {
            let frag = cluster.node(2).store().get_local(glsn).cloned().unwrap();
            cluster.node_mut(3).store_mut().adopt(frag).unwrap();
        }
        for &glsn in &glsns {
            let verdict =
                check_record_among(&mut cluster, glsn, 0, &survivors(&[0, 1, 3])).unwrap();
            assert!(verdict.ok, "repaired copy must reproduce the deposit");
            // Two forward hops plus the return to the initiator.
            assert_eq!(verdict.messages, 3);
        }
        // The full-ring check over all four nodes still passes: adopted
        // fragments never double-fold when the owner is alive.
        assert!(check_record(&mut cluster, glsns[0], 0).unwrap().ok);
    }

    #[test]
    fn survivor_check_detects_a_tampered_adopted_copy() {
        let (mut cluster, _, glsns) = loaded();
        let mut frag = cluster
            .node(2)
            .store()
            .get_local(glsns[1])
            .cloned()
            .unwrap();
        frag.values.insert("tid".into(), AttrValue::text("forged"));
        cluster.node_mut(3).store_mut().adopt(frag).unwrap();
        let verdict =
            check_record_among(&mut cluster, glsns[1], 0, &survivors(&[0, 1, 3])).unwrap();
        assert!(!verdict.ok, "a forged adopted fragment must not verify");
    }

    #[test]
    fn survivor_check_with_full_membership_matches_check_record() {
        let (mut cluster, _, glsns) = loaded();
        let verdict =
            check_record_among(&mut cluster, glsns[0], 1, &survivors(&[0, 1, 2, 3])).unwrap();
        assert!(verdict.ok);
        assert_eq!(verdict.messages, 4);
    }

    fn epoch_loaded() -> (DlaCluster, Vec<Glsn>) {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(31)
                .with_epoch_length(2),
        )
        .unwrap();
        let user = cluster.register_user("u0").unwrap();
        let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
        (cluster, glsns)
    }

    #[test]
    fn full_trail_check_passes_and_folds_everything() {
        let (cluster, glsns) = epoch_loaded();
        let verdict = check_trail(&cluster);
        assert!(verdict.ok && verdict.chain_ok);
        assert_eq!(verdict.items_folded, glsns.len() as u64);
        assert_eq!(verdict.epochs_checked, 3);
    }

    #[test]
    fn a_deposit_beyond_every_epoch_s_extent_fails_the_trail_check() {
        // One glsn past the open epoch's observed extent, and one in an
        // epoch no deposit opened: no epoch's refold reads either.
        for offset in [1, 10] {
            let (mut cluster, glsns) = epoch_loaded();
            let last = *glsns.last().unwrap();
            cluster.tamper_deposit_for_tests(Glsn(last.0 + offset), Ubig::from_u64(12345));
            let verdict = check_trail(&cluster);
            assert!(!verdict.ok, "+{offset}: an unfolded deposit must fail");
            assert!(verdict.chain_ok, "no sealed epoch was touched");
            assert_eq!(verdict.items_folded, glsns.len() as u64, "no epoch read it");
            // A window that selects epochs vouches for those alone.
            assert!(check_window(&cluster, &window_of(&cluster, 0)).ok);
        }
    }

    #[test]
    fn windowed_check_folds_only_overlapping_epochs() {
        let (cluster, _) = epoch_loaded();
        // Window covering only epoch 0's two records.
        let e0 = cluster.epoch_stat(dla_logstore::epoch::EpochId(0)).unwrap();
        let window = crate::plan::TimeWindow {
            lo: Some(e0.time_lo.unwrap()),
            hi: Some(e0.time_hi.unwrap()),
        };
        let verdict = check_window(&cluster, &window);
        assert!(verdict.ok);
        assert!(verdict.chain_ok);
        assert_eq!(verdict.epochs_checked, 1);
        assert_eq!(verdict.items_folded, 2, "only epoch 0's items refolded");
        // Unbounded windows verify every epoch and every item.
        let full = check_window(&cluster, &crate::plan::TimeWindow::unbounded());
        assert!(full.ok);
        assert_eq!(full.epochs_checked, 3);
        assert_eq!(full.items_folded, 5);
    }

    #[test]
    fn windowed_check_detects_deposit_tampering_inside_the_window() {
        let (mut cluster, glsns) = epoch_loaded();
        // Rewrite the deposit map entry for a record in epoch 0 — the
        // refold no longer matches the sealed checkpoint digest.
        cluster.tamper_deposit_for_tests(glsns[0], Ubig::from_u64(12345));
        let e0 = cluster.epoch_stat(dla_logstore::epoch::EpochId(0)).unwrap();
        let window = crate::plan::TimeWindow {
            lo: Some(e0.time_lo.unwrap()),
            hi: Some(e0.time_hi.unwrap()),
        };
        let verdict = check_window(&cluster, &window);
        assert!(!verdict.ok, "tampered deposit must break the checkpoint");
        assert!(verdict.chain_ok, "the chain itself is untouched");
    }

    #[test]
    fn windowed_check_detects_deposit_tampering_in_the_open_epoch() {
        let (mut cluster, glsns) = epoch_loaded();
        // Five records in epochs of two: the last one sits alone in the
        // open epoch, whose only commitment is the running accumulator.
        let last = *glsns.last().unwrap();
        let open = cluster.epoch_policy().epoch_of(last);
        assert!(cluster.checkpoint_chain().get(open.0).is_none());
        let stats = cluster.epoch_stat(open).unwrap();
        let window = crate::plan::TimeWindow {
            lo: stats.time_lo,
            hi: None,
        };
        let clean = check_window(&cluster, &window);
        assert!(clean.ok);
        assert_eq!((clean.epochs_checked, clean.items_folded), (1, 1));
        cluster.tamper_deposit_for_tests(last, Ubig::from_u64(12345));
        for window in [window, crate::plan::TimeWindow::unbounded()] {
            let verdict = check_window(&cluster, &window);
            assert!(!verdict.ok, "{window}: the open epoch's claim must fail");
            assert!(verdict.chain_ok, "no sealed epoch was touched");
        }
    }

    /// `records` generated deposits on a cluster whose epochs hold
    /// sixty-four — the benchmark's length, where an epoch's exponent is
    /// sixteen thousand bits and every claim below walks a comb, not
    /// the `x₀` table the two-record epochs above stay inside.
    fn epoch64_loaded(records: usize) -> (DlaCluster, Vec<Glsn>) {
        use rand::SeedableRng;
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(31)
                .with_epoch_length(64),
        )
        .unwrap();
        let user = cluster.register_user("u0").unwrap();
        let workload = dla_logstore::gen::WorkloadConfig {
            records,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let log = dla_logstore::gen::generate(&workload, &mut rng);
        let glsns = cluster.log_records(&user, &log).unwrap();
        (cluster, glsns)
    }

    fn window_of(cluster: &DlaCluster, epoch: u64) -> crate::plan::TimeWindow {
        let stats = cluster
            .epoch_stat(dla_logstore::epoch::EpochId(epoch))
            .unwrap();
        crate::plan::TimeWindow {
            lo: stats.time_lo,
            hi: stats.time_hi,
        }
    }

    #[test]
    fn a_tampered_deposit_fails_the_window_at_sixty_four_record_epochs() {
        // Two sealed epochs and an open one of sixty-three.
        let (mut cluster, glsns) = epoch64_loaded(2 * 64 + 63);
        let unbounded = crate::plan::TimeWindow::unbounded();
        let clean = check_window(&cluster, &unbounded);
        assert!(clean.ok && clean.chain_ok);
        assert_eq!((clean.epochs_checked, clean.items_folded), (3, 191));
        assert!(check_trail(&cluster).ok);

        cluster.tamper_deposit_for_tests(glsns[64 + 17], Ubig::from_u64(12345));
        for window in [window_of(&cluster, 1), unbounded] {
            let verdict = check_window(&cluster, &window);
            assert!(!verdict.ok, "{window}: epoch 1's checkpoint must not match");
            assert!(verdict.chain_ok, "the chain itself is untouched");
        }
        // Time ranges of neighbouring epochs may touch; a window strictly
        // inside epoch 0 selects it alone, and it is clean.
        let inside = crate::plan::TimeWindow {
            lo: window_of(&cluster, 0).lo,
            hi: window_of(&cluster, 0).lo,
        };
        assert!(check_window(&cluster, &inside).ok);
        assert!(!check_trail(&cluster).ok);
    }

    #[test]
    fn a_forged_digest_fails_the_window_at_sixty_four_record_epochs() {
        let (mut cluster, _) = epoch64_loaded(64 + 63);
        let params = cluster.accumulator_params().clone();
        // Every deposit stays as logged; the open epoch's commitment is
        // swapped for another well-formed accumulator value.
        let open = dla_logstore::epoch::EpochId(1);
        let genuine = cluster.epoch_stat(open).unwrap().acc.clone();
        cluster.forge_epoch_digest_for_tests(open, params.fold(&genuine, b"one more"));
        for window in [window_of(&cluster, 1), crate::plan::TimeWindow::unbounded()] {
            let verdict = check_window(&cluster, &window);
            assert!(
                !verdict.ok,
                "{window}: the forged claim must fail the batch"
            );
            assert!(verdict.chain_ok, "no sealed epoch was touched");
        }
        cluster.forge_epoch_digest_for_tests(open, genuine);
        assert!(check_window(&cluster, &crate::plan::TimeWindow::unbounded()).ok);
    }

    #[test]
    fn an_open_epoch_of_one_sixty_three_and_sixty_four_deposits_checks_and_catches() {
        for deposits in [1usize, 63, 64] {
            let (mut cluster, glsns) = epoch64_loaded(deposits);
            assert!(cluster.checkpoint_chain().is_empty(), "nothing sealed yet");
            let unbounded = crate::plan::TimeWindow::unbounded();
            let clean = check_window(&cluster, &unbounded);
            assert!(clean.ok, "{deposits} deposits");
            assert_eq!(
                (clean.epochs_checked, clean.items_folded),
                (1, deposits as u64)
            );
            cluster.tamper_deposit_for_tests(*glsns.last().unwrap(), Ubig::from_u64(12345));
            assert!(
                !check_window(&cluster, &unbounded).ok,
                "{deposits} deposits: the running accumulator must not match"
            );
        }
    }
}

//! Adversarial integration tests: compromised nodes, tampered
//! fragments, diverging ACLs, membership cheating and lossy networks.

use confidential_audit::audit::adversary::{
    run_attack, run_coalition, run_honest, AttackClass, DetectorMatrix,
};
use confidential_audit::audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use confidential_audit::audit::{aggregate, integrity, AuditError};
use confidential_audit::crypto::schnorr::SchnorrGroup;
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::model::{AttrValue, Glsn};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::fault::FaultOutcome;
use confidential_audit::net::{NetError, ScriptedAdversary, Transport};
use dla_bench::paper::evidence::{EvidenceChain, MembershipAuthority};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn paper_cluster(seed: u64) -> DlaCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed),
    )
    .expect("cluster builds")
}

/// The paper cluster with Table 1 logged by one user.
fn loaded_cluster(seed: u64) -> (DlaCluster, AppUser, Vec<Glsn>) {
    let mut cluster = paper_cluster(seed);
    let user = cluster.register_user("u").unwrap();
    let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
    (cluster, user, glsns)
}

/// Whether `e` bottoms out in a frame the envelope checksum refused —
/// the one loud name a line fault may have.
fn is_line_fault(e: &AuditError) -> bool {
    let mut innermost: &dyn std::error::Error = e;
    while let Some(source) = innermost.source() {
        innermost = source;
    }
    matches!(
        innermost.downcast_ref::<NetError>(),
        Some(NetError::Corrupt(_))
    )
}

/// Installs a tap on `cluster`'s wire that records every message.
fn tap(cluster: &DlaCluster) -> Arc<ScriptedAdversary> {
    let everyone = 0..cluster.shared_net().num_nodes();
    let tap = Arc::new(everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::curious));
    cluster.set_adversary(tap.clone());
    tap
}

/// Queues one flipped byte for the next `from -> to` message.
fn corrupt_next(cluster: &DlaCluster, from: usize, to: usize) {
    let mut net = cluster.net();
    net.faults_mut()
        .inject_once(from, to, FaultOutcome::Corrupt);
}

/// The Σ c1 aggregate over every record: `(total, count)`, 170 over 5.
fn total_c1(cluster: &mut DlaCluster) -> Result<(u64, usize), AuditError> {
    let sum = aggregate::sum_matching(cluster, "c1 >= 0", &"c1".into())?;
    Ok((sum.total, sum.count))
}

/// One transaction scalar rule: what the id owner's distinct-executor
/// count for T1100265 (U1, U2, U2) is reported as.
fn distinct_executors(cluster: &mut DlaCluster) -> Result<String, AuditError> {
    use confidential_audit::audit::transaction::{verify_transaction, Rule, TransactionSpec};
    use confidential_audit::logstore::model::TransactionId;
    let spec = TransactionSpec::new("order").with_rule(Rule::MinDistinctExecutors { count: 2 });
    let report = verify_transaction(cluster, &TransactionId::new("T1100265"), &spec)?;
    Ok(report.verdicts[0].detail.clone())
}

/// One correlation rule over every record in two-minute windows, so
/// the time owner's bucket indices decide the alerts.
fn bursts(
    cluster: &mut DlaCluster,
) -> Result<Vec<confidential_audit::audit::correlate::CorrelationAlert>, AuditError> {
    use confidential_audit::audit::correlate::{detect, CorrelationRule};
    let rule = CorrelationRule {
        name: "burst".into(),
        event_criteria: "c1 >= 0".into(),
        window_seconds: 120,
        min_events: 1,
        min_sources: 1,
    };
    detect(cluster, &rule)
}

/// The elements of a ∩ₛ/∪ₛ set frame on the 256-bit domain, each as
/// the four big-endian words it travels in, most significant first.
type Words = [u64; 4];

/// A set frame: `tag`, the origin of a ∩ₛ frame, then the elements.
fn set_frame(tag: u8, origin: Option<u64>, elements: &[Words]) -> bytes::Bytes {
    let mut w = confidential_audit::net::wire::Writer::new();
    w.put_u8(tag);
    if let Some(origin) = origin {
        w.put_u64(origin);
    }
    w.put_list(elements, |w, e| {
        for &word in e {
            w.put_u64(word);
        }
    });
    w.finish()
}

/// The tag, the origin (∩ₛ, tag 0x01) and the elements of a set frame.
fn set_elements(payload: &[u8]) -> (u8, Option<u64>, Vec<Words>) {
    let mut r = confidential_audit::net::wire::Reader::new(payload);
    let tag = r.get_u8().unwrap();
    let origin = (tag == 0x01).then(|| r.get_u64().unwrap());
    let word = |r: &mut confidential_audit::net::wire::Reader<'_>| -> Result<Words, _> {
        Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
    };
    let elements = r.get_list(word).unwrap();
    r.finish().unwrap();
    (tag, origin, elements)
}

#[test]
fn every_single_node_compromise_is_detected() {
    // For each node and each attribute it stores, tamper and verify the
    // accumulator circulation catches it from every initiator.
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    for victim_node in 0..4usize {
        for attr in partition.attrs_of(victim_node) {
            let mut cluster = paper_cluster(100 + victim_node as u64);
            let user = cluster.register_user("u").unwrap();
            let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
            let target = glsns[2];
            let def = schema.get(attr).unwrap();
            let forged = match def.attr_type() {
                confidential_audit::logstore::model::AttrType::Int => AttrValue::Int(-1),
                confidential_audit::logstore::model::AttrType::Fixed2 => AttrValue::Fixed2(-1),
                confidential_audit::logstore::model::AttrType::Time => AttrValue::Time(0),
                confidential_audit::logstore::model::AttrType::Text => AttrValue::text("forged"),
            };
            assert!(cluster
                .node(victim_node)
                .store_mut()
                .tamper(target, attr, forged));
            for initiator in 0..4 {
                let verdict = integrity::check_record(&mut cluster, target, initiator).unwrap();
                assert!(
                    !verdict.ok,
                    "tamper at P{victim_node}.{attr} missed by initiator P{initiator}"
                );
            }
        }
    }
}

#[test]
fn tampering_cannot_hide_from_untampered_records() {
    let mut cluster = paper_cluster(7);
    let user = cluster.register_user("u").unwrap();
    let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
    cluster
        .node(2)
        .store_mut()
        .tamper(glsns[1], &"c3".into(), AttrValue::text("innocent"));
    let verdicts = integrity::check_all(&mut cluster, 0).unwrap();
    let bad: Vec<Glsn> = verdicts.iter().filter(|v| !v.ok).map(|v| v.glsn).collect();
    assert_eq!(bad, vec![glsns[1]], "exactly the tampered record flags");
}

#[test]
fn acl_divergence_detected_without_revealing_sets() {
    let mut cluster = paper_cluster(8);
    let user = cluster.register_user("u").unwrap();
    cluster.log_records(&user, &paper_table1()).unwrap();
    let ticket = user.ticket.clone();

    // Rogue node drops one authorization (denial of service on reads).
    // Emulate by authorizing an extra glsn at a *different* node so the
    // sets diverge in the other direction too.
    cluster
        .node(0)
        .store_mut()
        .acl_mut_for_tests()
        .authorize(&ticket, Glsn(0xAAAA));
    cluster
        .node(3)
        .store_mut()
        .acl_mut_for_tests()
        .authorize(&ticket, Glsn(0xBBBB));

    let outcome = integrity::check_acl_consistency(&mut cluster, &ticket.id).unwrap();
    assert!(!outcome.consistent);
    assert_eq!(outcome.agreed, 5, "the honest core is still agreed on");
    assert_eq!(outcome.sizes, vec![6, 5, 5, 6]);
}

#[test]
fn membership_cheater_exposed_even_in_long_chains() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(200);
    let group = SchnorrGroup::fixed_256();
    let mut authority = MembershipAuthority::new(&group, &mut rng);
    let creds: Vec<_> = (0..8)
        .map(|i| authority.enroll(&format!("org-{i}"), &mut rng))
        .collect();
    let mut chain = EvidenceChain::found(&authority, &creds[0], "charter", &mut rng);
    for i in 1..8 {
        chain.invite(&creds[i - 1], &creds[i], "pp", "sc", &mut rng);
    }
    chain.verify().unwrap();
    assert!(chain.detect_double_use().is_empty());

    // Node 3 cheats deep in the chain.
    let late = authority.enroll("late", &mut rng);
    chain.invite(&creds[3], &late, "pp2", "sc2", &mut rng);
    let exposed = chain.detect_double_use();
    assert_eq!(exposed.len(), 1);
    assert_eq!(authority.identify(&exposed[0].identity), Some("org-3"));
}

#[test]
fn multiple_cheaters_all_exposed() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(201);
    let group = SchnorrGroup::fixed_256();
    let mut authority = MembershipAuthority::new(&group, &mut rng);
    let a = authority.enroll("honest-a", &mut rng);
    let b = authority.enroll("cheater-b", &mut rng);
    let c = authority.enroll("cheater-c", &mut rng);
    let (d, e, f) = (
        authority.enroll("d", &mut rng),
        authority.enroll("e", &mut rng),
        authority.enroll("f", &mut rng),
    );
    let mut chain = EvidenceChain::found(&authority, &a, "charter", &mut rng);
    chain.invite(&a, &b, "pp", "sc", &mut rng);
    chain.invite(&b, &c, "pp", "sc", &mut rng);
    chain.invite(&b, &d, "pp", "sc", &mut rng); // b double-invites
    chain.invite(&c, &e, "pp", "sc", &mut rng);
    chain.invite(&c, &f, "pp", "sc", &mut rng); // c double-invites
    let mut names: Vec<&str> = chain
        .detect_double_use()
        .iter()
        .filter_map(|x| authority.identify(&x.identity))
        .collect();
    names.sort_unstable();
    assert_eq!(names, vec!["cheater-b", "cheater-c"]);
}

#[test]
fn dropped_messages_fail_loudly_not_wrongly() {
    // A lossy network must never produce a *wrong* audit answer — only
    // an explicit error (fail-stop).
    let mut rng = rand::rngs::StdRng::seed_from_u64(300);
    let mut correct = 0;
    let mut failed = 0;
    for trial in 0..20 {
        let mut cluster = paper_cluster(400 + trial);
        let user = cluster.register_user("u").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap();
        // 2% loss on the query-phase traffic.
        cluster.net().faults_mut().drop_probability = 0.02;
        let _ = &mut rng;
        match cluster.query("protocol = 'UDP' AND c2 > 100.00") {
            Ok(result) => {
                assert_eq!(result.glsns.len(), 2, "trial {trial} returned wrong data");
                correct += 1;
            }
            Err(_) => failed += 1,
        }
    }
    assert!(correct + failed == 20);
    assert!(correct > 0, "some trials should survive 2% loss");
}

#[test]
fn corrupted_share_cannot_skew_an_aggregate() {
    // Every directed link the aggregate sends on — query phase, owner
    // leg, share dealing and the round-2 publishes to the auditor —
    // read off a clean run's per-link ledger.
    let (mut clean, ..) = loaded_cluster(12);
    let before = clean.net().stats().clone();
    let total = aggregate::sum_matching(&mut clean, "c1 >= 0", &"c1".into()).unwrap();
    assert_eq!(total.total, 170);
    let links: Vec<(usize, usize)> = (clean.net().stats().links())
        .filter(|&((from, to), sent)| sent.messages > before.link(from, to).messages)
        .map(|(link, _)| link)
        .collect();
    assert!(links.contains(&(3, 4)) && links.contains(&(4, 3)));

    for (from, to) in links {
        let (mut cluster, ..) = loaded_cluster(12);
        corrupt_next(&cluster, from, to);
        if let Ok(outcome) = aggregate::sum_matching(&mut cluster, "c1 >= 0", &"c1".into()) {
            // Undetected corruption must not skew the sum; an Err means the
            // protocol detected and refused, which is equally acceptable.
            assert_eq!(
                outcome.total, 170,
                "undetected corruption on {from}->{to} skewed the sum"
            );
        }
        let net = cluster.net();
        assert_eq!(net.stats().messages_corrupted, 1, "{from}->{to} was hit");
    }
}

/// One flipped byte on the `from -> to` link, for **every** seed in
/// `0..24` so no byte position is lucky: `op` either gives the clean
/// run's answer or refuses with the line fault's own name — never
/// another answer.
fn line_fault_sweep<T: PartialEq + std::fmt::Debug>(
    from: usize,
    to: usize,
    op: impl Fn(&mut DlaCluster) -> Result<T, AuditError>,
) -> T {
    let clean = op(&mut loaded_cluster(0).0).expect("clean run answers");
    for seed in 0..24 {
        let (mut cluster, ..) = loaded_cluster(seed);
        corrupt_next(&cluster, from, to);
        match op(&mut cluster) {
            Ok(answer) => assert_eq!(answer, clean, "seed {seed}: a line fault became an answer"),
            Err(e) => assert!(is_line_fault(&e), "seed {seed}: {e}"),
        }
        let net = cluster.net();
        assert_eq!(net.stats().messages_corrupted, 1, "seed {seed}: link hit");
    }
    clean
}

#[test]
fn a_line_fault_on_the_owner_request_never_becomes_a_total() {
    // Auditor (net id 4) -> c1's owner: the glsn list to total over.
    assert_eq!(line_fault_sweep(4, 3, total_c1), (170, 5));
}

#[test]
fn a_line_fault_on_a_scalar_reply_never_becomes_a_verdict() {
    // id's owner -> auditor: the distinct-executor count.
    let clean = line_fault_sweep(1, 4, distinct_executors);
    assert_eq!(clean, "2 distinct executors");
}

#[test]
fn a_line_fault_on_the_bucket_reply_never_becomes_an_alert() {
    // time's owner -> auditor: the (bucket, glsn) pairs.
    let clean = line_fault_sweep(0, 4, bursts);
    assert!(clean.len() > 1, "several windows, so bucket indices matter");
}

#[test]
fn a_line_fault_on_a_circulation_hop_is_not_a_tamper_verdict() {
    for seed in 0..8 {
        let (mut cluster, _, glsns) = loaded_cluster(seed);
        // The three forward hops and the return to the initiator.
        for (from, to) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            corrupt_next(&cluster, from, to);
            match integrity::check_record(&mut cluster, glsns[1], 0) {
                Err(e) => assert!(is_line_fault(&e), "seed {seed} hop {from}->{to}: {e}"),
                Ok(verdict) => panic!("seed {seed} hop {from}->{to} completed: {verdict:?}"),
            }
            assert!(
                integrity::check_record(&mut cluster, glsns[1], 0)
                    .unwrap()
                    .ok
            );
        }
    }
}

#[test]
fn a_deposit_corrupted_in_flight_is_refused_and_rolled_back() {
    let (mut cluster, user, _) = loaded_cluster(21);
    let record = paper_table1().remove(0);
    let held = |cluster: &DlaCluster| -> Vec<usize> {
        (cluster.nodes().iter())
            .map(|node| node.store().len())
            .collect()
    };
    let before = held(&cluster);
    // Each fragment frame in turn: the ones shipped ahead of the
    // corrupted one are already stored when the deposit is refused.
    for node in 0..cluster.num_nodes() {
        corrupt_next(&cluster, user.node.0, node);
        let err = cluster.log_record(&user, &record).unwrap_err();
        assert!(is_line_fault(&err), "fragment frame to P{node}: {err}");
        assert_eq!(held(&cluster), before, "fragment frame to P{node}");
    }
    let glsn = cluster.log_record(&user, &record).unwrap();
    assert_eq!(held(&cluster), vec![6; 4]);
    assert!(integrity::check_record(&mut cluster, glsn, 0).unwrap().ok);
}

#[test]
fn the_resilient_ladder_retries_a_flipped_byte_like_a_dropped_frame() {
    use confidential_audit::audit::exec::ResilientPolicy;
    // No ARQ underneath: only the whole-query retry can recover.
    let policy = ResilientPolicy {
        reliable: None,
        ..ResilientPolicy::default()
    };
    for fault in [FaultOutcome::Drop, FaultOutcome::Corrupt] {
        let (mut cluster, _, glsns) = loaded_cluster(33);
        // The c1 owner's relay hop to the id owner in the final ∩ₛ.
        cluster.net().faults_mut().inject_once(3, 1, fault);
        let outcome = cluster
            .query_resilient("c1 > 30 AND id = 'U1'", &policy)
            .unwrap_or_else(|e| panic!("{fault:?} was terminal: {e}"));
        assert_eq!(outcome.result.glsns, vec![glsns[2]], "{fault:?}");
        assert!(outcome.attempts > 1, "{fault:?} must have cost an attempt");
        assert_eq!(cluster.net().faults_mut().pending_targeted(), 0);
    }
}

#[test]
fn a_well_formed_frame_with_a_foreign_tag_is_an_error_on_every_cluster_leg() {
    use confidential_audit::audit::adversary::{gossip_heads, CHECK_HOP_TAG, HEAD_GOSSIP_TAG};
    use confidential_audit::net::adversary::{ScriptedAdversary, Tamper, TamperRule};
    use confidential_audit::net::wire::Writer;
    use dla_bench::paper::attest::Attestor;
    use std::sync::Arc;

    // One driver per leg family; the sender named beside it swaps its
    // first frame of the named tag for an intact frame of no message
    // kind the receiver is waiting for.
    type Leg = fn(&mut DlaCluster, &AppUser, Glsn) -> Result<(), AuditError>;
    let legs: [(&str, usize, u8, Leg); 10] = [
        ("fragment shipping", 6, 0x20, |c, user, _| {
            c.log_record(user, &paper_table1()[0]).map(drop)
        }),
        ("standby copy", 0, 0x23, |c, user, _| {
            c.log_record(user, &paper_table1()[0]).map(drop)
        }),
        ("deposit broadcast", 6, 0x21, |c, user, _| {
            c.log_record(user, &paper_table1()[0]).map(drop)
        }),
        ("retrieve request", 6, 0x22, |c, user, glsn| {
            c.retrieve_record(user, glsn).map(drop)
        }),
        ("owner request", 4, 0x70, |c, _, _| total_c1(c).map(drop)),
        ("scalar reply", 1, 0x73, |c, _, _| {
            distinct_executors(c).map(drop)
        }),
        ("bucket reply", 0, 0x75, |c, _, _| bursts(c).map(drop)),
        ("accumulator circulation", 1, CHECK_HOP_TAG, |c, _, glsn| {
            integrity::check_record(c, glsn, 0).map(drop)
        }),
        ("attestation", 0, 0x60, |c, _, _| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let attestor = Attestor::deal(&c.group().clone(), c.num_nodes(), &mut rng)?;
            attestor.attest(c, b"result", &mut rng).map(drop)
        }),
        ("head gossip", 2, HEAD_GOSSIP_TAG, |c, _, _| {
            let sealed = c.checkpoint_chain().iter().next().expect("epoch 0 sealed");
            gossip_heads(c, sealed.epoch).map(drop)
        }),
    ];
    let mut foreign = Writer::new();
    foreign.put_u8(0x7f).put_u64(0);
    let foreign = foreign.finish();

    for (leg, liar, tag, drive) in legs {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        // Two-record epochs, so Table 1 leaves sealed heads to gossip.
        let config = ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(5)
            .with_epoch_length(2);
        // Node 0 ships its standby copies to node 1 on this one.
        let config = match tag {
            0x23 => config.with_standby_replication(),
            _ => config,
        };
        let mut cluster = DlaCluster::new(config).unwrap();
        let user = cluster.register_user("u").unwrap();
        assert_eq!(user.node.0, 6);
        let glsns = cluster.log_records(&user, &paper_table1()).unwrap();

        let swap = Tamper::Replace(foreign.clone());
        let adversary = Arc::new(
            ScriptedAdversary::new()
                .compromise(liar)
                .rule(TamperRule::once_from(liar, tag, swap)),
        );
        cluster.set_adversary(adversary.clone());
        let outcome = drive(&mut cluster, &user, glsns[0]);
        assert_eq!(adversary.report().forged, 1, "{leg}: the swap must fire");
        assert!(
            matches!(outcome, Err(AuditError::Wire(_))),
            "{leg}: a foreign tag gave {outcome:?}"
        );
    }
}

/// The glsn a cluster allocates next, given the ones it has logged.
fn next_glsn(glsns: &[Glsn]) -> Glsn {
    Glsn(glsns.last().expect("a logged record").0 + 1)
}

#[test]
fn a_fragment_rewritten_in_flight_is_what_the_node_stores_and_the_circulation_catches_it() {
    use confidential_audit::logstore::fragment::fragment;
    use confidential_audit::logstore::model::LogRecord;
    use confidential_audit::net::adversary::{Tamper, TamperRule};
    use confidential_audit::net::wire::Writer;

    let (mut cluster, user, glsns) = loaded_cluster(41);
    let glsn = next_glsn(&glsns);
    let record = paper_table1().remove(0);
    let mut stamped = LogRecord::new(glsn);
    for (name, value) in record.iter() {
        stamped.insert(name.clone(), value.clone());
    }
    // The fragment P3 should receive, with c1 rewritten: an intact frame
    // for the glsn being deposited.
    let mut forged = fragment(&stamped, cluster.partition()).remove(3);
    forged.values.insert("c1".into(), AttrValue::Int(999));
    let mut w = Writer::new();
    w.put_u8(0x20)
        .put_u64(glsn.0)
        .put_bytes(&forged.to_canonical_bytes());
    let rule = TamperRule {
        to: Some(3),
        ..TamperRule::once_from(user.node.0, 0x20, Tamper::Replace(w.finish()))
    };
    let adversary = Arc::new(ScriptedAdversary::new().compromise(user.node.0).rule(rule));
    cluster.set_adversary(adversary.clone());

    assert_eq!(cluster.log_record(&user, &record).unwrap(), glsn);
    assert_eq!(adversary.report().forged, 1);
    cluster.clear_adversary();
    assert_eq!(cluster.node(3).store().get_local(glsn), Some(&forged));
    assert!(!integrity::check_record(&mut cluster, glsn, 0).unwrap().ok);
    assert!(
        integrity::check_record(&mut cluster, glsns[0], 0)
            .unwrap()
            .ok
    );
}

#[test]
fn a_deposit_frame_carrying_another_deposit_fails_the_deposit_and_leaves_nothing_behind() {
    use confidential_audit::net::adversary::{Tamper, TamperRule};
    use confidential_audit::net::wire::Writer;

    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(43)
        .with_standby_replication();
    let mut cluster = DlaCluster::new(config).unwrap();
    let owner = cluster.register_user("u0").unwrap();
    let glsns = cluster.log_records(&owner, &paper_table1()).unwrap();
    let user = cluster.register_user("u1").unwrap();

    // The deposit frame of the glsn being deposited, carrying the first
    // record's deposit instead.
    let mut w = Writer::new();
    w.put_u8(0x21)
        .put_u64(next_glsn(&glsns).0)
        .put_bytes(&cluster.deposit(glsns[0]).unwrap().to_bytes_be())
        .put_bytes(b"a signature");
    let rule = TamperRule::once_from(user.node.0, 0x21, Tamper::Replace(w.finish()));
    let adversary = Arc::new(ScriptedAdversary::new().compromise(user.node.0).rule(rule));
    cluster.set_adversary(adversary.clone());

    let outcome = cluster.log_record(&user, &paper_table1()[0]);
    assert!(
        matches!(outcome, Err(AuditError::Integrity(_))),
        "{outcome:?}"
    );
    assert_eq!(adversary.report().forged, 1);
    for node in cluster.nodes() {
        assert_eq!(node.store().len(), glsns.len(), "node {}", node.id());
        assert_eq!(node.store().standby_count(), glsns.len());
        assert!(node.store().acl().glsns_of(&user.ticket.id).is_empty());
    }
    assert_eq!(cluster.logged_glsns(), glsns);
}

#[test]
fn a_relay_reshaping_the_collectors_own_set_fail_stops_the_run() {
    // A ring-position collector reads ∩ₛ answers off its own set as
    // returned by the ring, and ∪ₛ sets those ciphertexts aside. A
    // relay that drops, adds, duplicates or truncates an element on
    // the collector-origin hop must stop the run rather than shift or
    // shrink the answer. (A same-length reordering is not caught: see
    // the next test.)
    use confidential_audit::crypto::pohlig_hellman::CommutativeDomain;
    use confidential_audit::mpc::set_intersection::SET_TAG;
    use confidential_audit::mpc::{MpcError, SsiSession, UnionSession};
    use confidential_audit::net::adversary::{Adversary, ScriptedAdversary, Tamper, TamperRule};
    use confidential_audit::net::topology::Ring;
    use confidential_audit::net::{AdversaryNet, NetConfig, NodeId, Session, SharedNet, SimNet};
    const UNION_TAG: u8 = 0x02;

    let domain = CommutativeDomain::fixed_256();
    let ring = Ring::canonical(3);
    let set =
        |names: &[&str]| -> Vec<Vec<u8>> { names.iter().map(|s| s.as_bytes().to_vec()).collect() };
    let inputs = vec![
        set(&["c", "d", "e"]),
        set(&["d", "e", "f"]),
        set(&["e", "f", "g"]),
    ];
    // A well-formed set message of arbitrary group elements.
    let forged = |tag: u8, values: &[u64]| {
        let elements: Vec<Words> = values.iter().map(|&v| [0, 0, 0, v]).collect();
        set_frame(tag, (tag == SET_TAG).then_some(0), &elements)
    };
    // Node 1's second message to node 2 is the relay hop of the set
    // that left the collector (node 0); `None` is the honest control.
    let run = |tag: u8, action: Option<Tamper>| {
        let mut adversary = ScriptedAdversary::new().compromise(1);
        if let Some(action) = action {
            adversary = adversary.rule(TamperRule {
                from: Some(1),
                to: Some(2),
                tag: Some(tag),
                skip: 1,
                fires: 1,
                action,
            });
        }
        let adversary = Arc::new(adversary);
        let net = AdversaryNet::new(SharedNet::new(SimNet::new(3, NetConfig::ideal())));
        net.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
        let session = Session::root(&net);
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let answer = if tag == SET_TAG {
            SsiSession::new(session, &ring, &domain, NodeId(0))
                .reveal(true)
                .run(&inputs, &mut rng)
                .map(|o| o.common_items.expect("reveal was requested").items())
        } else {
            UnionSession::new(session, &ring, &domain, NodeId(0))
                .run(&inputs, &mut rng)
                .map(|o| o.items.items())
        };
        (answer, adversary.report().forged)
    };

    for (tag, honest) in [
        (SET_TAG, set(&["e"])),
        (UNION_TAG, set(&["c", "d", "e", "f", "g"])),
    ] {
        let (answer, forged_count) = run(tag, None);
        assert_eq!(answer.unwrap(), honest);
        assert_eq!(forged_count, 0);
        // One element dropped, one added, one duplicated in place.
        for values in [&[4, 9][..], &[4, 9, 16, 25], &[4, 9, 9]] {
            let (answer, forged_count) = run(tag, Some(Tamper::Replace(forged(tag, values))));
            assert_eq!(forged_count, 1, "the rule must hit the relay hop");
            assert!(
                matches!(answer, Err(MpcError::Protocol(_))),
                "tag {tag:#x}: own set of 3 replaced by {values:?} gave {answer:?}"
            );
        }
        let (answer, forged_count) = run(tag, Some(Tamper::Truncate(11)));
        assert_eq!(forged_count, 1);
        assert!(
            answer.is_err(),
            "tag {tag:#x}: truncated blob gave {answer:?}"
        );
    }
}

#[test]
fn a_collected_element_at_or_above_the_modulus_fail_stops_the_run() {
    // A ring element has one encoding. The final holder of the
    // collector's own set ships `X + p` in place of one of its elements
    // `X`: the same residue, a number no layer produced, and a set that
    // still has the right shape. With `X + p` below 2²⁵⁶ it is as wide
    // as an honest element, so only the below-p check stands in its
    // way: the set-frame decoder refuses it, for ∩ₛ and ∪ₛ alike.
    use confidential_audit::bigint::Ubig;
    use confidential_audit::crypto::pohlig_hellman::CommutativeDomain;
    use confidential_audit::mpc::set_intersection::SET_TAG;
    use confidential_audit::mpc::{MpcError, SsiSession, UnionSession};
    use confidential_audit::net::adversary::{Adversary, ScriptedAdversary, Tamper, TamperRule};
    use confidential_audit::net::topology::Ring;
    use confidential_audit::net::{AdversaryNet, NetConfig, NodeId, Session, SharedNet, SimNet};
    const UNION_TAG: u8 = 0x02;

    let domain = CommutativeDomain::fixed_256();
    let ring = Ring::canonical(3);
    let set =
        |names: &[&str]| -> Vec<Vec<u8>> { names.iter().map(|s| s.as_bytes().to_vec()).collect() };
    let inputs = vec![
        set(&["c", "d", "e"]),
        set(&["d", "e", "f"]),
        set(&["e", "f", "g"]),
    ];
    // Node 2's third message to node 0 is the collection frame of the
    // collector's own set (the first two are relay hops). One run at
    // collector node 0, keys drawn from `seed`, under a tap that records
    // the wire, with `action`, if any, on that frame.
    let run = |tag: u8, seed: u64, action: Option<Tamper>| {
        let net = AdversaryNet::new(SharedNet::new(SimNet::new(3, NetConfig::ideal())));
        let mut adversary = (0..3).fold(ScriptedAdversary::new(), ScriptedAdversary::curious);
        if let Some(action) = action {
            adversary = adversary.compromise(2).rule(TamperRule {
                from: Some(2),
                to: Some(0),
                tag: Some(tag),
                skip: 2,
                fires: 1,
                action,
            });
        }
        let adversary = Arc::new(adversary);
        net.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
        let session = Session::root(&net);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let answer = if tag == SET_TAG {
            SsiSession::new(session, &ring, &domain, NodeId(0))
                .reveal(true)
                .run(&inputs, &mut rng)
                .map(|o| o.common_items.expect("reveal was requested").items())
        } else {
            UnionSession::new(session, &ring, &domain, NodeId(0))
                .run(&inputs, &mut rng)
                .map(|o| o.items.items())
        };
        let collected = (adversary.captured().into_iter())
            .filter(|m| (m.from, m.to) == (NodeId(2), NodeId(0)))
            .nth(2)
            .expect("the collection frame of the collector's set")
            .payload;
        (answer, collected, adversary.report().forged)
    };
    let value = |e: &Words| Ubig::from_limbs(e.iter().rev().copied().collect());
    let words = |v: &Ubig| -> Words {
        let mut e = [0; 4];
        e[..v.limbs().len()].copy_from_slice(v.limbs());
        e.reverse();
        e
    };

    for (tag, honest) in [
        (SET_TAG, set(&["e"])),
        (UNION_TAG, set(&["c", "d", "e", "f", "g"])),
    ] {
        // p ≈ 0.66·2²⁵⁶, so about half of all ciphertexts X have X + p
        // below 2²⁵⁶: the first key seed whose collected set holds one.
        let (seed, origin, mut elements, at) = (51..67)
            .find_map(|seed| {
                let (answer, collected, _) = run(tag, seed, None);
                assert_eq!(answer.unwrap(), honest);
                let (_, origin, elements) = set_elements(&collected);
                assert_eq!(elements.len(), 3);
                let wide = |x: &Words| (&value(x) + domain.modulus()).bit_len() <= 256;
                let at = elements.iter().position(wide)?;
                Some((seed, origin, elements, at))
            })
            .expect("an element X with X + p below 2^256 in 16 seeds");
        elements[at] = words(&(&value(&elements[at]) + domain.modulus()));
        let forged = set_frame(tag, origin, &elements);
        let (answer, _, forged) = run(tag, seed, Some(Tamper::Replace(forged)));
        assert_eq!(forged, 1, "the rule must hit the collection frame");
        assert!(
            matches!(&answer, Err(MpcError::Wire(why)) if why.contains("modulus")),
            "tag {tag:#x}: X + p in the collector's own set gave {answer:?}"
        );
    }
}

#[test]
fn a_relay_reordering_the_collectors_own_set_is_an_undetected_lie() {
    // Pins the trust assumption of the ring-collector ∩ₛ reveal:
    // relays preserve element order. One that permutes the collector's
    // own set passes the shape check, and the collector reports the
    // right number of wrong items — the same class of lie as a
    // decryptor of the reveal pass handing back plaintexts of its
    // choosing. ∪ₛ matches by value and does not care.
    use confidential_audit::crypto::pohlig_hellman::CommutativeDomain;
    use confidential_audit::mpc::set_intersection::SET_TAG;
    use confidential_audit::mpc::{SsiSession, UnionSession};
    use confidential_audit::net::adversary::{Adversary, ScriptedAdversary, Tamper, TamperRule};
    use confidential_audit::net::topology::Ring;
    use confidential_audit::net::{AdversaryNet, NetConfig, NodeId, Session, SharedNet, SimNet};
    const UNION_TAG: u8 = 0x02;

    let domain = CommutativeDomain::fixed_256();
    let ring = Ring::canonical(3);
    let set =
        |names: &[&str]| -> Vec<Vec<u8>> { names.iter().map(|s| s.as_bytes().to_vec()).collect() };
    let inputs = vec![
        set(&["c", "d", "e"]),
        set(&["d", "e", "f"]),
        set(&["e", "f", "g"]),
    ];
    // One seeded run at collector node 0 under a tap that records the
    // wire; `action`, if any, hits node 1's second message to node 2 —
    // the relay hop of the collector's set. Returns the answer and that
    // hop as it crossed the wire.
    let run = |tag: u8, action: Option<Tamper>| {
        let net = AdversaryNet::new(SharedNet::new(SimNet::new(3, NetConfig::ideal())));
        let mut adversary = (0..3).fold(ScriptedAdversary::new(), ScriptedAdversary::curious);
        if let Some(action) = action {
            adversary = adversary.compromise(1).rule(TamperRule {
                from: Some(1),
                to: Some(2),
                tag: Some(tag),
                skip: 1,
                fires: 1,
                action,
            });
        }
        let adversary = Arc::new(adversary);
        net.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
        let session = Session::root(&net);
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let answer = if tag == SET_TAG {
            SsiSession::new(session, &ring, &domain, NodeId(0))
                .reveal(true)
                .run(&inputs, &mut rng)
                .map(|o| o.common_items.expect("reveal was requested").items())
        } else {
            UnionSession::new(session, &ring, &domain, NodeId(0))
                .run(&inputs, &mut rng)
                .map(|o| o.items.items())
        };
        let hop = (adversary.captured().into_iter())
            .filter(|m| (m.from, m.to) == (NodeId(1), NodeId(2)))
            .nth(1)
            .expect("the collector-origin relay hop")
            .payload;
        (answer.unwrap(), hop)
    };

    for (tag, honest, lied) in [
        (SET_TAG, set(&["e"]), set(&["c"])),
        (
            UNION_TAG,
            set(&["c", "d", "e", "f", "g"]),
            set(&["c", "d", "e", "f", "g"]),
        ),
    ] {
        let (answer, hop) = run(tag, None);
        assert_eq!(answer, honest);
        // The same message with its first and last element exchanged:
        // position 0 (plaintext c) now wears e's ciphertext.
        let (_, origin, mut elements) = set_elements(&hop);
        assert_eq!(elements.len(), 3);
        elements.swap(0, 2);
        let (answer, _) = run(
            tag,
            Some(Tamper::Replace(set_frame(tag, origin, &elements))),
        );
        assert_eq!(answer, lied, "tag {tag:#x}");
    }
}

#[test]
fn an_undetected_lie_told_once_about_a_sealed_epoch_is_served_until_evicted() {
    // The lie above, told inside a query. The auditor engine keeps the
    // answer it was revealed per sealed epoch and does not ask again, so
    // the reordering relay's wrong items — carried from the clause's set
    // through the conjunction into the answer — outlive the relay's one
    // lie: honest reruns serve them. Whoever makes the reorder
    // detectable has this to cover too. A lie that *is* detected ends
    // the run in `Err`, and an `Err` run files nothing.
    use confidential_audit::logstore::model::{AttrType, LogRecord};
    use confidential_audit::logstore::schema::AttrDef;
    use confidential_audit::mpc::set_intersection::SET_TAG;
    use confidential_audit::net::adversary::{Tamper, TamperRule};
    use confidential_audit::net::NodeId;

    // `a` at P0, `b` at P1, epochs of four: `a = b` is an equality join
    // collected at P0, and the first two epochs are sealed.
    let cluster = || {
        let schema = Schema::new(vec![
            AttrDef::known("a", AttrType::Int),
            AttrDef::known("b", AttrType::Int),
        ])
        .unwrap();
        let partition = Partition::round_robin(&schema, 2).unwrap();
        let config = ClusterConfig::new(2, schema)
            .with_partition(partition)
            .with_seed(5)
            .with_epoch_length(4);
        let mut cluster = DlaCluster::new(config).unwrap();
        let user = cluster.register_user("u").unwrap();
        let rows = [
            (1, 1),
            (2, 3),
            (4, 4),
            (5, 6),
            (7, 7),
            (8, 9),
            (10, 10),
            (11, 12),
            (13, 13),
            (14, 15),
        ];
        for (a, b) in rows {
            let record = LogRecord::new(Glsn(0))
                .with("a", AttrValue::Int(a))
                .with("b", AttrValue::Int(b));
            cluster.log_record(&user, &record).unwrap();
        }
        cluster
    };
    // P1's second set message to P0 relays the collector's own set.
    let relay_hop = |action: Tamper| {
        let rule = TamperRule {
            from: Some(1),
            to: Some(0),
            tag: Some(SET_TAG),
            skip: 1,
            fires: 1,
            action,
        };
        Arc::new(ScriptedAdversary::new().compromise(1).rule(rule))
    };
    let kept = |cluster: &DlaCluster| cluster.kept().len();

    let mut honest = cluster();
    let wire = tap(&honest);
    let truth = honest.query("a = b").unwrap().glsns;
    assert_eq!(truth.len(), 5);
    assert_eq!(kept(&honest), 2);
    let hop = (wire.captured().into_iter())
        .filter(|m| (m.from, m.to) == (NodeId(1), NodeId(0)))
        .nth(1)
        .expect("the relay hop of the collector's set")
        .payload;
    let (tag, origin, elements) = set_elements(&hop);
    assert_eq!((tag, origin, elements.len()), (SET_TAG, Some(0), 10));
    let forged = |elements: &[Words]| Tamper::Replace(set_frame(tag, origin, elements));

    // The first two records change places: (2, 3) now wears (1, 1)'s
    // ciphertext, and the collector reports it equal.
    let mut swapped = elements.clone();
    swapped.swap(0, 1);
    let mut lied_to = cluster();
    let adversary = relay_hop(forged(&swapped));
    lied_to.set_adversary(adversary.clone());
    let lie = lied_to.query("a = b").unwrap().glsns;
    assert_eq!(adversary.report().forged, 1);
    assert_eq!(lie.len(), truth.len());
    assert_ne!(lie, truth);
    lied_to.clear_adversary();
    assert_eq!(
        lied_to.query("a = b").unwrap().glsns,
        lie,
        "the lie is sticky"
    );

    // An element dropped: the shape check fail-stops the run, nothing
    // is filed, and the honest rerun is a cold one.
    let mut refused = cluster();
    let adversary = relay_hop(forged(&elements[1..]));
    refused.set_adversary(adversary.clone());
    assert!(refused.query("a = b").is_err());
    assert_eq!(adversary.report().forged, 1);
    assert_eq!(kept(&refused), 0);
    refused.clear_adversary();
    assert_eq!(refused.query("a = b").unwrap().glsns, truth);
}

#[test]
fn a_lying_decryptor_s_answer_about_a_sealed_epoch_is_served_by_the_engine_until_dropped() {
    // The conjunction's reveal pass ends with its last decryptor
    // handing the auditor engine the plaintexts, and the engine cannot
    // check them (`set_intersection.rs`, module doc): it may be handed
    // anything. That lie used to last one query. The engine now files
    // what it is handed per sealed epoch, so honest reruns serve the
    // lie over the sealed part of the trail — until a store revision
    // moves, a node retires, the entry is evicted or the cluster
    // restarts. The open epoch is asked every time and comes back true.
    use confidential_audit::logstore::model::{AttrType, LogRecord};
    use confidential_audit::logstore::schema::AttrDef;
    use confidential_audit::mpc::set_intersection::SET_TAG;
    use confidential_audit::net::adversary::{Tamper, TamperRule};
    use confidential_audit::net::NodeId;

    // `a` at P0, `b` at P1, epochs of four: two sealed, one open.
    let cluster = || {
        let schema = Schema::new(vec![
            AttrDef::known("a", AttrType::Int),
            AttrDef::known("b", AttrType::Int),
        ])
        .unwrap();
        let partition = Partition::round_robin(&schema, 2).unwrap();
        let config = ClusterConfig::new(2, schema)
            .with_partition(partition)
            .with_seed(5)
            .with_epoch_length(4);
        let mut cluster = DlaCluster::new(config).unwrap();
        let user = cluster.register_user("u").unwrap();
        for i in 0..10 {
            let record = LogRecord::new(Glsn(0))
                .with("a", AttrValue::Int(i))
                .with("b", AttrValue::Int(9 - i));
            cluster.log_record(&user, &record).unwrap();
        }
        cluster
    };
    // Two local clauses, so the conjunction's ring is P0 → P1 and P1
    // ends the reveal pass: its second set message to the engine (the
    // first is its leg of the collection round) carries the plaintexts.
    let narrow = "a > 2 AND b > 2";
    let wide = "a >= 0 AND b >= 0";
    let last_word = |cluster: &DlaCluster, wire: &ScriptedAdversary| {
        let auditor = cluster.auditor_node();
        let said = wire.captured().into_iter();
        let mut to_engine = said.filter(|m| (m.from, m.to) == (NodeId(1), auditor));
        to_engine
            .nth(1)
            .expect("a reveal pass ran")
            .payload
            .to_vec()
    };

    let honest = cluster();
    let truth = honest.query_shared(narrow).unwrap().glsns;
    assert_eq!(truth.len(), 4);
    let everything = cluster();
    let wire = tap(&everything);
    let all = everything.query_shared(wide).unwrap().glsns;
    assert_eq!(all.len(), 10);
    let plaintexts_of_everything = last_word(&everything, &wire);

    let lied_to = cluster();
    let rule = TamperRule {
        from: Some(1),
        to: Some(lied_to.auditor_node().0),
        tag: Some(SET_TAG),
        skip: 1,
        fires: 1,
        action: Tamper::Replace(plaintexts_of_everything.into()),
    };
    let adversary = Arc::new(ScriptedAdversary::new().compromise(1).rule(rule));
    lied_to.set_adversary(adversary.clone());
    let lie = lied_to.query_shared(narrow).unwrap().glsns;
    assert_eq!(adversary.report().forged, 1);
    assert_eq!(lie, all, "the engine believes what it is handed");
    lied_to.clear_adversary();

    // Honest from here on: the two sealed epochs are served as the liar
    // left them, the open one is asked and answered truly.
    let open_from = lied_to.epoch_stats().find(|s| !s.sealed).unwrap().glsn_lo;
    let sticky: Vec<Glsn> = (all.iter().filter(|g| **g < open_from))
        .chain(truth.iter().filter(|g| **g >= open_from))
        .copied()
        .collect();
    assert_ne!(sticky, truth);
    for _ in 0..2 {
        assert_eq!(lied_to.query_shared(narrow).unwrap().glsns, sticky);
    }
    // A store of the query's moves — here a rewrite that changes no
    // value — and the lie goes with the entry.
    let rewritten = lied_to
        .node(0)
        .store_mut()
        .tamper(all[0], &"a".into(), AttrValue::Int(0));
    assert!(rewritten);
    assert_eq!(lied_to.query_shared(narrow).unwrap().glsns, truth);
    assert_eq!(lied_to.query_shared(narrow).unwrap().glsns, truth);
}

/// The expected detector matrix per attack class: which of the §4.1
/// mechanisms is responsible for catching each lie.
fn expected_detectors(class: AttackClass) -> DetectorMatrix {
    match class {
        // In-flight accumulator lie: only the circulation comparison
        // sees it; stores, journal and chain stay clean.
        AttackClass::RelayRoundLie => DetectorMatrix {
            accumulator: true,
            ..DetectorMatrix::default()
        },
        // Structurally broken SSI blob: the protocol fail-stops before
        // any verdict machinery is reached.
        AttackClass::MalformedCiphertext => DetectorMatrix {
            protocol: true,
            ..DetectorMatrix::default()
        },
        // A forged head is caught three independent ways: peer
        // cross-check / local endorsement (chain), digest re-derivation
        // (accumulator), and the doctored journal backing the lie
        // (meta-journal).
        AttackClass::CheckpointEquivocation => DetectorMatrix {
            accumulator: true,
            meta_journal: true,
            checkpoint_chain: true,
            protocol: false,
        },
        // Rewritten stored fragment: the circulated accumulator
        // diverges from the deposit; deposits themselves are untouched
        // so trail/journal/chain stay green.
        AttackClass::FragmentTamper => DetectorMatrix {
            accumulator: true,
            ..DetectorMatrix::default()
        },
    }
}

#[test]
fn every_attack_class_is_detected_by_exactly_the_expected_machinery() {
    for class in AttackClass::ALL {
        for seed in [31, 32, 33] {
            let report = run_attack(class, seed).expect("scenario runs");
            assert_eq!(
                report.detected,
                expected_detectors(class),
                "{} under seed {seed}",
                class.key()
            );
            assert!(report.detected.any(), "{} went undetected", class.key());
            assert!(
                report.messages_to_detect > 0,
                "{} detection cost not measured",
                class.key()
            );
        }
    }
}

#[test]
fn wire_attacks_are_transient_but_state_tampering_persists() {
    for class in AttackClass::ALL {
        let report = run_attack(class, 64).unwrap();
        let expect_clean = !matches!(class, AttackClass::FragmentTamper);
        assert_eq!(
            report.residual_clean,
            expect_clean,
            "{}: residual state",
            class.key()
        );
    }
}

#[test]
fn honest_runs_raise_no_alarms() {
    for seed in [41, 42, 43] {
        let report = run_honest(seed).expect("honest run completes");
        assert!(
            !report.detected.any(),
            "false alarm on honest run (seed {seed}): {:?}",
            report.detected
        );
        assert!(report.verifications >= 8, "all detector suites ran");
    }
}

#[test]
fn attack_reports_replay_deterministically() {
    for class in AttackClass::ALL {
        let a = run_attack(class, 99).unwrap();
        let b = run_attack(class, 99).unwrap();
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.verifications, b.verifications);
        assert_eq!(a.messages_to_detect, b.messages_to_detect);
        assert_eq!(a.virtual_ns_to_detect, b.virtual_ns_to_detect);
        assert_eq!(a.forged_messages, b.forged_messages);
    }
}

#[test]
fn sub_threshold_coalitions_capture_no_foreign_plaintext() {
    let patterns: [&[usize]; 5] = [&[], &[1], &[1, 2], &[1, 3], &[1, 2, 3]];
    for coalition in patterns {
        let report = run_coalition(51, coalition).expect("coalition run completes");
        assert_eq!(
            report.foreign_plaintext_hits, 0,
            "coalition {coalition:?} saw foreign plaintext"
        );
        assert!(
            report.needles_scanned > 0,
            "leak scan must have needles to look for"
        );
        if !coalition.is_empty() {
            assert!(report.captured_messages > 0, "curious nodes see traffic");
        }
        assert!(
            (report.c_store - report.c_store_formula).abs() < 1e-9,
            "coalition {coalition:?}: measured C_store {} vs formula {}",
            report.c_store,
            report.c_store_formula
        );
    }
    // A full coalition is not sub-threshold and must be refused.
    assert!(run_coalition(51, &[0, 1, 2, 3]).is_err());
}

#[test]
fn collusion_degrades_the_paper_metrics_as_predicted() {
    let baseline = run_coalition(52, &[]).unwrap();
    // No collusion reproduces the pinned §5 values.
    assert!((baseline.c_store - 12.0 / 7.0).abs() < 1e-9);
    assert!((baseline.c_auditing - 2.0 / 5.0).abs() < 1e-9);
    assert!((baseline.c_query - 24.0 / 35.0).abs() < 1e-9);
    assert!((baseline.c_dla - 6.0 / 5.0).abs() < 1e-9);

    // Colluding nodes merge storage domains: u drops and every metric
    // degrades monotonically with coalition size.
    let two = run_coalition(52, &[1, 3]).unwrap();
    assert_eq!(two.observed_domains, 3);
    assert!(two.c_store < baseline.c_store);
    assert!(two.c_dla < baseline.c_dla);

    let three = run_coalition(52, &[1, 2, 3]).unwrap();
    assert_eq!(three.observed_domains, 2);
    assert!(three.c_store < two.c_store);
    assert!(three.c_dla < two.c_dla);
}

#[test]
fn random_fault_storm_never_yields_wrong_integrity_verdicts() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(500);
    let (mut completed, mut refused) = (0, 0);
    for _ in 0..10 {
        let (mut cluster, _, glsns) = loaded_cluster(rng.gen());
        cluster.net().faults_mut().corrupt_probability = 0.05;
        for &glsn in &glsns {
            // With clean stores a completed check passes; a circulation
            // hit by a line fault is refused as a network error, never
            // completed into a tamper verdict.
            match integrity::check_record(&mut cluster, glsn, 0) {
                Ok(verdict) => {
                    assert!(verdict.ok, "line fault reported as tampering");
                    completed += 1;
                }
                Err(AuditError::Net(_)) => refused += 1,
                Err(e) => panic!("a line fault must be a network error, got {e}"),
            }
        }
        // Turn faults off: everything must verify again.
        cluster.net().faults_mut().corrupt_probability = 0.0;
        for &glsn in &glsns {
            assert!(integrity::check_record(&mut cluster, glsn, 0).unwrap().ok);
        }
    }
    assert!(
        completed > 0 && refused > 0,
        "the storm must both spare and hit circulations ({completed} completed, {refused} refused)"
    );
}

#[test]
fn every_cluster_leg_crosses_the_one_tap() {
    // A watch-everything observer sees exactly what the simulator
    // counted: no cluster leg — deposit, standby copy, query, accumulator
    // circulation, re-replication, the standing query a seal runs — goes
    // around the tap.
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(17)
            .with_epoch_length(2)
            .with_standby_replication(),
    )
    .unwrap();
    let wire = tap(&cluster);
    let user = cluster.register_user("u").unwrap();
    let standing = cluster.register_standing("c1 > 30 AND id = 'U1'").unwrap();
    let records = paper_table1();
    let glsns = cluster.log_records(&user, &records[..3]).unwrap();
    cluster
        .query("c1 > 30 AND id = 'U1' AND protocol = 'TCP'")
        .unwrap();
    assert!(
        integrity::check_record(&mut cluster, glsns[0], 0)
            .unwrap()
            .ok
    );
    let repair = cluster.rereplicate(&[2].into()).unwrap();
    assert!(repair.is_fully_verified());
    cluster.log_records(&user, &records[3..]).unwrap();
    assert_eq!(
        cluster.standing_deltas(standing).len(),
        2,
        "two seals ran it"
    );

    let sent = cluster.net().stats().messages_sent;
    assert!(sent > 0);
    assert_eq!(wire.captured().len() as u64, sent);
    assert_eq!(wire.report().observed as u64, sent);
}

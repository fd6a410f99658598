//! Crash-recovery integration: a journal-backed DLA cluster restarts
//! with its fragments, ACLs, deposits, origin signatures and ticket
//! counter intact — queries, integrity circulations and non-repudiation
//! checks all keep working on the recovered state — and a crash at *any*
//! journal write recovers to a committed prefix of the uncrashed run
//! (the crash-point sweep at the bottom).

use confidential_audit::audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use confidential_audit::audit::deploy::SSI_QUERY;
use confidential_audit::audit::{integrity, AuditError};
use confidential_audit::logstore::epoch::EpochId;
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::{generate, paper_table1, WorkloadConfig};
use confidential_audit::logstore::journal::{failpoint, Journal, JournalEntry};
use confidential_audit::logstore::model::{AttrValue, Glsn, LogRecord};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::logstore::store::FragmentStore;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "dla-cluster-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ClusterConfig {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(99)
        .with_journal_dir(dir.to_path_buf())
}

#[test]
fn cluster_state_survives_restart() {
    let dir = temp_dir("restart");
    let glsns = {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap()
        // cluster dropped here: the "crash".
    };

    let mut recovered = DlaCluster::new(config(&dir)).unwrap();
    // Fragments and deposits are back.
    for node in recovered.nodes() {
        assert_eq!(node.store().len(), 5);
        assert!(node.store().is_durable());
    }
    for &glsn in &glsns {
        assert!(recovered.deposit(glsn).is_some());
        assert!(recovered.verify_origin(glsn).unwrap(), "origin for {glsn}");
    }

    // Queries run against recovered fragments.
    let result = recovered.query("protocol = 'UDP' AND c2 > 100.00").unwrap();
    assert_eq!(result.glsns, vec![glsns[1], glsns[2]]);

    // Integrity circulation still matches the recovered deposits.
    let verdicts = integrity::check_all(&mut recovered, 0).unwrap();
    assert_eq!(verdicts.len(), 5);
    assert!(verdicts.iter().all(|v| v.ok));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampering_before_restart_is_still_detected_after() {
    let dir = temp_dir("tamper");
    let target = {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
        glsns[2]
    };
    // Corrupt node 1's journal *on disk* between runs: rewrite a stored
    // amount by appending a forged fragment entry for the same glsn.
    {
        let cluster = DlaCluster::new(config(&dir)).unwrap();
        cluster
            .node(1)
            .store_mut()
            .tamper(target, &"c2".into(), AttrValue::Fixed2(1));
        // The in-memory tamper is not journaled (a real compromise would
        // rewrite the file); emulate the on-disk variant through the
        // journal API directly.
        let path = dir.join("node-1.journal");
        let (mut journal, _) = Journal::open(&path).unwrap();
        let forged = cluster.node(1).store().get_local(target).unwrap().clone();
        journal.append(&JournalEntry::Fragment(forged)).unwrap();
    }

    // Recovery itself refuses the forgery: a *conflicting* fragment
    // entry for a live glsn is a duplicated deposit, rejected at replay
    // rather than silently keep-latest rewritten (and only caught later
    // by the accumulator circulation, as it used to be).
    let err = DlaCluster::new(config(&dir)).unwrap_err();
    assert!(
        err.to_string().contains("duplicate glsn"),
        "on-disk tampering must be detected during recovery, got: {err}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ticket_ids_never_collide_across_restarts() {
    let dir = temp_dir("tickets");
    let first_id = {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &paper_table1()[..1]).unwrap();
        user.ticket.id.clone()
    };

    let mut recovered = DlaCluster::new(config(&dir)).unwrap();
    let new_user = recovered.register_user("u1").unwrap();
    assert_ne!(
        new_user.ticket.id, first_id,
        "a post-restart ticket must not reuse a recovered ACL's ticket id"
    );
    // And the new user cannot read the old user's record.
    let old_glsn = recovered.logged_glsns()[0];
    assert!(recovered.retrieve_record(&new_user, old_glsn).is_err());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The user capacity bounds a cluster's whole life: the count is the
/// journaled ticket counter, and a user registered after a restart gets
/// an endpoint and a ticket id of its own.
#[test]
fn a_restart_remembers_its_users() {
    let dir = temp_dir("users");
    let before: Vec<AppUser> = {
        let mut cluster = DlaCluster::new(config(&dir).with_max_users(2)).unwrap();
        let users = ["u0", "u1"].map(|name| cluster.register_user(name).unwrap());
        cluster
            .log_records(&users[0], &paper_table1()[..1])
            .unwrap();
        users.into()
    };
    let mut recovered = DlaCluster::new(config(&dir).with_max_users(2)).unwrap();
    let refused = recovered.register_user("u2").unwrap_err().to_string();
    assert!(refused.contains("capacity 2 exhausted"), "{refused}");
    drop(recovered);

    let mut raised = DlaCluster::new(config(&dir).with_max_users(3)).unwrap();
    let after = raised.register_user("u2").unwrap();
    for user in &before {
        assert_ne!(
            after.node, user.node,
            "{} and u2 share an endpoint",
            user.name
        );
        assert_ne!(after.ticket.id, user.ticket.id);
    }
    assert!(raised.register_user("u3").is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first user of every incarnation used to be the first user of the
/// first one again: the restart reseeded the cluster's randomness.
#[test]
fn a_restart_never_issues_a_key_twice() {
    let dir = temp_dir("keys");
    let mut keys = Vec::new();
    for _ in 0..3 {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        keys.push(cluster.register_user("u").unwrap().key().public().clone());
    }
    assert!(keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Registration is admit, journal the counter, issue: a counter that
/// never reached the journal issued nothing, so the next registration
/// gets the slot, the ticket and the endpoint the failed one would have.
#[test]
fn a_registration_whose_write_fails_leaves_nothing_behind() {
    let dir = temp_dir("registration");
    let mut cluster = DlaCluster::new(config(&dir).with_max_users(2)).unwrap();
    let first = cluster.register_user("u0").unwrap();
    failpoint::arm(1, |_| 0);
    let failed = cluster.register_user("u1");
    failpoint::disarm();
    assert!(failed.is_err());
    let second = cluster.register_user("u1").unwrap();
    assert_eq!(second.ticket.id.as_str(), "T2");
    assert_eq!(second.node.0, first.node.0 + 1);
    assert!(cluster.register_user("u2").is_err(), "capacity 2 is spent");
    drop(cluster);
    // The restart counts the two users the journal holds.
    let mut recovered = DlaCluster::new(config(&dir).with_max_users(3)).unwrap();
    assert_eq!(
        recovered.register_user("u2").unwrap().ticket.id.as_str(),
        "T3"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shared query's keys are drawn from the incarnation's stream: the
/// same query after a restart puts other bytes on the wire, and answers
/// the same.
#[test]
fn a_shared_query_after_a_restart_draws_fresh_keys() {
    use confidential_audit::net::{ScriptedAdversary, Transport};
    let dir = temp_dir("shared-query");
    let overheard = |cluster: &DlaCluster| {
        let everyone = 0..cluster.shared_net().num_nodes();
        let tap = everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::curious);
        let tap = std::sync::Arc::new(tap);
        cluster.set_adversary(tap.clone());
        let answer = cluster.query_shared(SSI_QUERY).unwrap().glsns;
        cluster.clear_adversary();
        let payloads: Vec<_> = tap.captured().into_iter().map(|m| m.payload).collect();
        assert!(!payloads.is_empty());
        (answer, payloads)
    };
    let (answer, payloads) = {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap();
        overheard(&cluster)
    };
    let (again, replayed) = overheard(&DlaCluster::new(config(&dir)).unwrap());
    assert_eq!(again, answer);
    assert!(!answer.is_empty());
    assert_ne!(replayed, payloads, "the restart replayed the query's keys");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_tail_and_duplicated_writes_recover_cleanly() {
    let dir = temp_dir("dup-tail");
    {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap();
    }

    // A retransmitting writer on a lossy network appends the same
    // fragment twice; then the process dies mid-frame, leaving a torn
    // tail whose length prefix promises more bytes than exist.
    let path = dir.join("node-0.journal");
    {
        let (mut journal, entries) = Journal::open(&path).unwrap();
        let dup = entries
            .iter()
            .rev()
            .find_map(|e| match e {
                JournalEntry::Fragment(f) => Some(f.clone()),
                _ => None,
            })
            .expect("node 0 journal holds fragments");
        journal
            .append(&JournalEntry::Fragment(dup.clone()))
            .unwrap();
        journal.append(&JournalEntry::Fragment(dup)).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    let intact_len = bytes.len();
    bytes.extend_from_slice(&[0x00, 0x00, 0x01, 0x00, 0xAB, 0xCD]);
    std::fs::write(&path, &bytes).unwrap();

    // Replay drops the torn tail; the byte-identical retry appends are
    // idempotent and collapse back to one fragment per glsn (only a
    // *conflicting* rewrite is a duplicated deposit).
    let store = FragmentStore::restore(0, &path).expect("identical re-appends are idempotent");
    assert_eq!(
        store.len(),
        5,
        "duplicated appends must collapse to one live fragment per glsn"
    );
    drop(store);
    assert!(
        std::fs::metadata(&path).unwrap().len() <= intact_len as u64,
        "the torn tail must not survive recovery"
    );

    // The full cluster restarts on the repaired journal and still
    // passes the accumulator circulation against its deposits.
    let mut recovered = DlaCluster::new(config(&dir)).unwrap();
    assert_eq!(recovered.node(0).store().len(), 5);
    let verdicts = integrity::check_all(&mut recovered, 0).unwrap();
    assert!(verdicts.iter().all(|v| v.ok));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn glsn_allocation_resumes_past_recovered_records() {
    let dir = temp_dir("glsn");
    let old = {
        let mut cluster = DlaCluster::new(config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &paper_table1()[..3]).unwrap()
    };

    let mut recovered = DlaCluster::new(config(&dir)).unwrap();
    let user = recovered.register_user("u1").unwrap();
    let fresh = recovered.log_record(&user, &paper_table1()[3]).unwrap();
    assert!(
        fresh > *old.last().unwrap(),
        "fresh glsn {fresh} must exceed recovered maximum {}",
        old.last().unwrap()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal whose last deposit holds the top glsn: the first deposit
/// after a restart is refused as an error, and the trail stays whole.
#[test]
fn a_restart_at_the_top_glsn_refuses_the_next_deposit() {
    let dir = temp_dir("top-glsn");
    let config = || config(&dir).with_glsn_base(Glsn(u64::MAX - 1));
    let top = {
        let mut cluster = DlaCluster::new(config()).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_record(&user, &paper_table1()[0]).unwrap()
    };
    assert_eq!(top, Glsn(u64::MAX - 1));
    let mut cluster = DlaCluster::new(config()).unwrap();
    let user = cluster.register_user("u1").unwrap();
    let refused = cluster.log_record(&user, &paper_table1()[1]);
    assert!(matches!(refused, Err(AuditError::Log(_))), "{refused:?}");
    assert_eq!(cluster.logged_glsns(), vec![top]);
    assert!(integrity::check_trail(&cluster).ok);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- Crash recovery: the commit point, the reconciliation, the sweep ---

/// The crash workloads' cluster: paper partition, 2-glsn epochs so seals
/// come often, standby replication on.
fn crash_config(dir: &Path) -> ClusterConfig {
    config(dir).with_epoch_length(2).with_standby_replication()
}

fn crash_records() -> Vec<LogRecord> {
    let workload = WorkloadConfig {
        records: 8,
        ..WorkloadConfig::default()
    };
    generate(&workload, &mut rand::rngs::StdRng::seed_from_u64(18))
}

/// Logs `records[from..]`, alternating `log_record` with three-record
/// `log_records` batches; `acked` collects the glsns of every call that
/// returned `Ok`.
fn log_from(
    cluster: &mut DlaCluster,
    user: &AppUser,
    records: &[LogRecord],
    from: usize,
    acked: &mut Vec<Glsn>,
) -> Result<(), AuditError> {
    let mut next = from;
    while next < records.len() {
        if next.is_multiple_of(4) {
            acked.push(cluster.log_record(user, &records[next])?);
            next += 1;
        } else {
            let end = (next + 3).min(records.len());
            acked.extend(cluster.log_records(user, &records[next..end])?);
            next = end;
        }
    }
    Ok(())
}

/// The whole life of a cluster up to its last deposit: open, register a
/// user and one standing query, log everything. Dies — dropping the
/// cluster — at the first failed journal write.
fn crash_workload(
    dir: &Path,
    records: &[LogRecord],
    acked: &mut Vec<Glsn>,
) -> Result<DlaCluster, AuditError> {
    let mut cluster = DlaCluster::new(crash_config(dir))?;
    let user = cluster.register_user("u0")?;
    cluster.register_standing(SSI_QUERY)?;
    log_from(&mut cluster, &user, records, 0, acked)?;
    Ok(cluster)
}

/// Runs [`crash_workload`] with the `k`-th journal append torn to
/// `keep(len)` bytes (and the process dead from there on).
fn crash_at(dir: &Path, records: &[LogRecord], k: u64, keep: fn(usize) -> usize) -> Vec<Glsn> {
    let mut acked = Vec::new();
    failpoint::arm(k, keep);
    let outcome = crash_workload(dir, records, &mut acked);
    failpoint::disarm();
    assert!(outcome.is_err(), "append {k} was armed to fail");
    acked
}

/// What must hold of any cluster restarted from `dir`, whatever write
/// the crash interrupted: its nodes hold exactly the committed records,
/// every verdict is green, and logging carries on.
fn assert_recovers(dir: &Path, records: &[LogRecord], acked: &[Glsn]) -> DlaCluster {
    let mut cluster = DlaCluster::new(crash_config(dir)).expect("restart succeeds");
    let logged = cluster.logged_glsns();
    assert!(
        logged.starts_with(acked),
        "{acked:?} acked, {logged:?} kept"
    );
    for node in cluster.nodes() {
        let store = node.store();
        assert_eq!(store.len(), logged.len(), "node {}", node.id());
        assert_eq!(store.standby_count(), logged.len(), "node {}", node.id());
        assert!(store.scan_all().all(|f| logged.contains(&f.glsn)));
    }
    assert!(integrity::check_trail(&cluster).ok);
    let verdicts = integrity::check_all(&mut cluster, 0).unwrap();
    assert!(verdicts.len() == logged.len() && verdicts.iter().all(|v| v.ok));

    // The committed records answer the fixed conjunctive query exactly
    // as plain evaluation says — no glsn outside `logged` among them.
    let schema = Schema::paper_example();
    let criteria = confidential_audit::audit::parser::parse(SSI_QUERY, &schema).unwrap();
    let expected: Vec<Glsn> = (logged.iter().zip(records))
        .filter(|(_, record)| criteria.eval(record).unwrap())
        .map(|(glsn, _)| *glsn)
        .collect();
    assert_eq!(cluster.query(SSI_QUERY).unwrap().glsns, expected);

    // Logging carries on from the committed prefix…
    let user = cluster.register_user("u1").unwrap();
    let mut resumed = Vec::new();
    log_from(&mut cluster, &user, records, logged.len(), &mut resumed).unwrap();
    assert_eq!(cluster.logged_glsns().len(), records.len());
    // …and one more restart comes back to where this one was dropped.
    let dropped = ledger_of(&cluster);
    drop(cluster);
    let cluster = DlaCluster::new(crash_config(dir)).expect("second restart succeeds");
    assert_eq!(ledger_of(&cluster), dropped);
    cluster
}

/// Trail accumulator, every epoch's running fold (the open epoch's
/// included), chain head, per-node fragment counts.
fn ledger_of(cluster: &DlaCluster) -> impl PartialEq + std::fmt::Debug {
    (
        cluster.trail_accumulator().clone(),
        cluster
            .epoch_stats()
            .map(|s| (s.epoch, s.acc.clone(), s.deposits, s.sealed))
            .collect::<Vec<_>>(),
        cluster.checkpoint_chain().head_link(),
        cluster
            .nodes()
            .iter()
            .map(|node| node.store().len())
            .collect::<Vec<_>>(),
    )
}

/// An epoch is sealed exactly when the chain holds its checkpoint, and
/// every node's store reports each checkpointed epoch sealed.
fn assert_sealed_is_checkpointed(cluster: &DlaCluster) {
    let sealed: Vec<u64> = (cluster.epoch_stats())
        .filter(|s| s.sealed)
        .map(|s| s.epoch.0)
        .collect();
    let chained: Vec<u64> = cluster.checkpoint_chain().iter().map(|c| c.epoch).collect();
    assert_eq!(sealed, chained, "sealed epochs against the chain's");
    for node in cluster.nodes() {
        for &epoch in &chained {
            let store = node.store();
            assert!(
                store.is_sealed(EpochId(epoch)),
                "node {} epoch {epoch}",
                node.id()
            );
        }
    }
}

/// How many journal appends [`crash_workload`] makes over `records`.
fn appends_of(records: &[LogRecord]) -> u64 {
    let dir = temp_dir("count");
    failpoint::arm(u64::MAX, |len| len);
    crash_workload(&dir, records, &mut Vec::new()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    failpoint::disarm()
}

/// Finding (i): node 0 journals its fragment, then the process dies
/// before anything else of the deposit is written.
#[test]
fn an_orphan_fragment_is_rolled_back_on_restart() {
    let dir = temp_dir("orphan");
    let records = crash_records();
    // The fifth deposit's first append is node 0's write; die in its
    // second — node 0's standby copy at node 1.
    let acked = crash_at(&dir, &records, appends_of(&records[..4]) + 2, |_| 0);
    assert_eq!(acked.len(), 4);
    let orphan = Glsn(acked[3].0 + 1);
    let node0 = FragmentStore::restore(0, &dir.join("node-0.journal")).unwrap();
    assert!(
        node0.get_local(orphan).is_some(),
        "the crash left an orphan"
    );
    drop(node0);
    {
        let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
        let ticket = cluster
            .node(1)
            .store()
            .acl()
            .iter()
            .next()
            .unwrap()
            .0
            .clone();
        let replicas = integrity::check_acl_consistency(&mut cluster, &ticket).unwrap();
        assert!(replicas.consistent, "{replicas:?}");
    }
    let cluster = assert_recovers(&dir, &records, &acked);
    assert!(cluster.deposit(orphan).is_some(), "the glsn was used again");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The seal window: the batch that rolls epoch 0 over dies at its
/// cluster append (nothing committed, so no node may have sealed), and
/// right after it (committed, so restart finishes the seal).
#[test]
fn a_crash_around_the_seal_neither_wedges_nor_loses_it() {
    let records = crash_records();
    // Deposits 2–4 ship as one batch: 3 × 8 node appends after the
    // first deposit, then the cluster append that commits them and the
    // seal of epoch 0.
    let commit = appends_of(&records[..1]) + 3 * 8 + 1;
    for (k, committed, tag) in [(commit, 1, "seal-before"), (commit + 1, 4, "seal-after")] {
        let dir = temp_dir(tag);
        let acked = crash_at(&dir, &records, k, |_| 0);
        assert_eq!(acked.len(), 1, "the batch's call never returned");
        let cluster = DlaCluster::new(crash_config(&dir)).unwrap();
        assert_eq!(cluster.logged_glsns().len(), committed);
        let sealed = cluster.checkpoint_chain().len();
        assert_eq!(sealed, usize::from(committed == 4));
        for node in cluster.nodes() {
            assert_eq!(node.store().is_sealed(EpochId(0)), committed == 4);
        }
        assert_sealed_is_checkpointed(&cluster);
        drop(cluster);
        assert_sealed_is_checkpointed(&assert_recovers(&dir, &records, &acked));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The state the parent's commit order could leave behind: nodes sealed
/// an epoch whose cluster record (and last deposits) never landed.
#[test]
fn a_node_seal_the_cluster_never_recorded_does_not_wedge_allocation() {
    let dir = temp_dir("node-seal");
    let records = crash_records();
    {
        let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_record(&user, &records[0]).unwrap();
        for node in cluster.nodes() {
            node.store_mut().seal_epoch(EpochId(0)).unwrap();
        }
    }
    let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
    let user = cluster.register_user("u1").unwrap();
    let next = cluster.log_record(&user, &records[1]).unwrap();
    assert_eq!(cluster.trail().epoch_policy().epoch_of(next), EpochId(1));
    assert!(integrity::check_trail(&cluster).ok);
    assert!(integrity::check_all(&mut cluster, 0)
        .unwrap()
        .iter()
        .all(|v| v.ok));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal write that fails once, in a cluster that lives on: fail
/// the `k`-th write of logging for every `k`, once writing nothing and
/// once keeping all but its last byte, keep logging until the cluster
/// stops, restart. A node append torn that way is cut back before the
/// node's next write; a torn cluster append stops the cluster. A seal
/// whose record the journal holds is finished by the next batch, never
/// journaled again, so the restart replays every seal once.
#[test]
fn a_write_that_fails_once_leaves_a_journal_that_restarts() {
    let records = crash_records();
    let keeps: [fn(usize) -> usize; 2] = [|_| 0, |len| len - 1];
    for keep in keeps {
        for k in 1.. {
            let dir = temp_dir("fails-once");
            let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
            let user = cluster.register_user("u0").unwrap();
            cluster.register_standing(SSI_QUERY).unwrap();
            let (mut acked, mut failed) = (Vec::new(), false);
            failpoint::arm(k, keep);
            for record in &records {
                if cluster.stopped().is_some() {
                    break;
                }
                match cluster.log_record(&user, record) {
                    Ok(glsn) => acked.push(glsn),
                    Err(e) => {
                        assert!(!failed, "k={k}: logging carries on, yet {e}");
                        failpoint::disarm();
                        failed = true;
                    }
                }
            }
            failpoint::disarm();
            drop(cluster);
            if !failed {
                std::fs::remove_dir_all(&dir).unwrap();
                break;
            }
            let cluster = DlaCluster::new(crash_config(&dir))
                .unwrap_or_else(|e| panic!("k={k}: restart fails: {e}"));
            let logged = cluster.logged_glsns();
            assert!(acked.iter().all(|g| logged.contains(g)), "k={k}");
            assert_sealed_is_checkpointed(&cluster);
            assert!(integrity::check_trail(&cluster).ok, "k={k}");
            drop(cluster);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Fail-stop: a refused cluster append that left bytes behind may have
/// committed a prefix that only a restart can tell, so the live cluster
/// refuses every write, loudly, until one, and reads on. The restart
/// keeps the torn append's whole frames and takes writes again.
#[test]
fn a_torn_cluster_append_stops_every_write_until_a_restart() {
    let dir = temp_dir("fail-stop");
    let records = crash_records();
    let mut cluster = DlaCluster::new(config(&dir)).unwrap();
    let user = cluster.register_user("u0").unwrap();
    failpoint::arm(u64::MAX, |len| len);
    let first = cluster.log_record(&user, &records[0]).unwrap();
    // A deposit's node writes come first and the cluster's append last:
    // a batch of two makes twice the node writes, then the append.
    let append = 2 * failpoint::disarm() - 1;
    failpoint::arm(append, |len| len - 1);
    let torn = cluster.log_records(&user, &records[1..3]);
    assert_eq!(failpoint::disarm(), append);
    assert!(torn.is_err() && cluster.stopped().is_some());
    let refused = |r: Result<(), AuditError>| matches!(r, Err(AuditError::Log(why)) if why.contains("stopped"));
    assert!(refused(cluster.log_record(&user, &records[3]).map(drop)));
    assert!(refused(cluster.register_user("u1").map(drop)));
    assert!(refused(cluster.register_standing(SSI_QUERY).map(drop)));
    assert_eq!(cluster.logged_glsns(), vec![first]);
    assert!(cluster.query(SSI_QUERY).is_ok() && integrity::check_trail(&cluster).ok);
    drop(cluster);
    let mut cluster = DlaCluster::new(config(&dir)).unwrap();
    assert!(cluster.stopped().is_none());
    assert_eq!(
        cluster.logged_glsns().len(),
        2,
        "the torn batch's first frame"
    );
    let user = cluster.register_user("u1").unwrap();
    cluster.log_record(&user, &records[3]).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ROADMAP item 4: die at the k-th journal write for **every** k of the
/// workload — once losing the whole append, once keeping all but its
/// last byte (a batch then commits a prefix) — and recover.
#[test]
fn crash_point_sweep_recovers_at_every_journal_write() {
    let records = crash_records();
    let dir = temp_dir("sweep-reference");
    let mut glsns = Vec::new();
    failpoint::arm(u64::MAX, |len| len);
    let reference = crash_workload(&dir, &records, &mut glsns).unwrap();
    let writes = failpoint::disarm();
    println!("crash-point sweep: W = {writes} journal writes");
    assert!(reference.checkpoint_chain().len() >= 2);

    for k in 1..=writes {
        for keep in [(|_| 0) as fn(usize) -> usize, |len| len - 1] {
            let dir = temp_dir("sweep");
            let acked = crash_at(&dir, &records, k, keep);
            let recovered = DlaCluster::new(crash_config(&dir)).expect("restart succeeds");
            let logged = recovered.logged_glsns();
            assert!(glsns.starts_with(&logged), "k={k}: {logged:?}");
            let (chain, full) = (recovered.checkpoint_chain(), reference.checkpoint_chain());
            assert!(
                chain.len() <= full.len() && chain.iter().zip(full.iter()).all(|(a, b)| a == b)
            );
            assert_sealed_is_checkpointed(&recovered);
            drop(recovered);
            // Resumed to the end, the trail is the uncrashed one.
            let resumed = assert_recovers(&dir, &records, &acked);
            assert_sealed_is_checkpointed(&resumed);
            assert_eq!(resumed.logged_glsns(), glsns, "k={k}");
            assert_eq!(ledger_of(&resumed), ledger_of(&reference), "k={k}");
            assert_eq!(resumed.checkpoint_chain(), reference.checkpoint_chain());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    drop(reference);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A CRC-valid cluster blob of the wrong length is a bug or a forgery;
/// restart names the tag and the length instead of skipping it.
fn assert_malformed_blob_is_loud(tag: u8) {
    let dir = temp_dir(&format!("malformed-{tag}"));
    {
        let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &crash_records()[..3]).unwrap();
    }
    let (mut journal, _) = Journal::open(&dir.join("cluster.journal")).unwrap();
    let bytes = vec![0, 0, 0, 0, 0, 0, 1];
    journal.append(&JournalEntry::Blob { tag, bytes }).unwrap();
    drop(journal);
    let said = DlaCluster::new(crash_config(&dir)).unwrap_err().to_string();
    assert!(
        said.contains(&format!("{tag:#04x}")) && said.contains("7 bytes"),
        "{said}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A dropped counter would re-issue ticket ids a recovered ACL knows.
#[test]
fn a_malformed_ticket_counter_fails_the_restart() {
    assert_malformed_blob_is_loud(0x02);
}

/// A dropped seal record would re-open a sealed epoch.
#[test]
fn a_malformed_epoch_seal_fails_the_restart() {
    assert_malformed_blob_is_loud(0x03);
}

/// A dropped restart record would hand the next incarnation an earlier
/// one's stream.
#[test]
fn a_malformed_restart_record_fails_the_restart() {
    assert_malformed_blob_is_loud(0x04);
}

/// A cluster record replayed twice is as loud: the old replay folded a
/// repeated deposit away silently and panicked on a repeated seal.
#[test]
fn a_repeated_deposit_or_seal_record_fails_the_restart() {
    for (tag, says) in [(0x01, "repeats a glsn"), (0x03, "out of order")] {
        let dir = temp_dir(&format!("repeated-{tag}"));
        {
            let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
            let user = cluster.register_user("u0").unwrap();
            cluster.log_records(&user, &crash_records()[..3]).unwrap();
        }
        let (mut journal, entries) = Journal::open(&dir.join("cluster.journal")).unwrap();
        let is_tagged =
            |e: &&JournalEntry| matches!(e, JournalEntry::Blob { tag: t, .. } if *t == tag);
        journal
            .append(entries.iter().find(is_tagged).unwrap())
            .unwrap();
        drop(journal);
        let said = DlaCluster::new(crash_config(&dir)).unwrap_err().to_string();
        assert!(said.contains(says), "{said}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Journals written before the `0x14` marker shrank carry the full
/// partials encoding; they restore to the same ledger as the marker
/// form, standby and adopted copies included.
#[test]
fn journals_with_the_full_partials_payload_still_restore() {
    let dir = temp_dir("old-partials");
    let dropped = {
        let mut cluster = DlaCluster::new(crash_config(&dir)).unwrap();
        let user = cluster.register_user("u0").unwrap();
        cluster.log_records(&user, &crash_records()).unwrap();
        cluster.rereplicate(&[2].into_iter().collect()).unwrap();
        assert_eq!(cluster.node(3).store().adopted_count(), 8);
        ledger_of(&cluster)
    };
    // Rewrite every node journal the way the previous format spelled it.
    let mut rewritten = 0;
    for node in 0..4 {
        let path = dir.join(format!("node-{node}.journal"));
        let store = FragmentStore::restore(node, &path).unwrap();
        let (_, entries) = Journal::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (mut journal, _) = Journal::open(&path).unwrap();
        for mut entry in entries {
            if let JournalEntry::EpochMaterialized(epoch) = entry {
                let bytes = store.compute_partials(epoch).encode();
                assert!(bytes.len() > 8);
                entry = JournalEntry::Blob { tag: 0x14, bytes };
                rewritten += 1;
            }
            journal.append(&entry).unwrap();
        }
    }
    assert_eq!(rewritten, 4 * 3, "three seals at four nodes");
    let cluster = DlaCluster::new(crash_config(&dir)).unwrap();
    assert_eq!(ledger_of(&cluster), dropped);
    assert!(integrity::check_trail(&cluster).ok);
    assert_eq!(cluster.node(3).store().adopted_count(), 8);
    std::fs::remove_dir_all(&dir).unwrap();
}

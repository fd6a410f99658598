//! `warm ≡ cold`: the auditor engine keeps, per sealed epoch, the
//! answers revealed to it, and a query asks the rings only about epochs
//! nothing is kept for. Whatever is kept, an answer is the answer of a
//! cluster that kept nothing — and the centralized auditor's — after
//! every kind of step that can change one, and a warm run's wire
//! traffic is the traffic of the missing runs alone.

use confidential_audit::audit::aggregate::count_matching;
use confidential_audit::audit::centralized::CentralizedAuditor;
use confidential_audit::audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use confidential_audit::audit::exec::{execute_on, run_seed, ExecMode, QueryResult};
use confidential_audit::audit::plan::QueryPlan;
use confidential_audit::audit::{parser, plan};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::{generate, WorkloadConfig};
use confidential_audit::logstore::model::{format_paper_time, AttrValue, Glsn, LogRecord};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::{Envelope, NetError, NodeId, SessionId, SimTime, Transport};
use confidential_audit::telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

const EPOCH: u64 = 64;
/// One cross clause over `{P1, P3}`, united at P1 by a secure set
/// union.
const OR2: &str = "c1 > 40 OR id = 'U2'";
/// One cross clause whose only step is an equality join landing on P1.
const JOIN: &str = "id != c3";
/// Two local clauses, at P3 and P1: the conjunction is all it sends.
const AND2: &str = "c1 > 30 AND id = 'U1'";

/// Two clusters walked through one history — `warm` keeps what its
/// engine is handed, `cold` is made to forget before every question —
/// beside the centralized auditor fed the same deposits.
struct World {
    warm: DlaCluster,
    cold: DlaCluster,
    configs: (ClusterConfig, ClusterConfig),
    users: (AppUser, AppUser),
    oracle: CentralizedAuditor,
    oracle_user: NodeId,
    logged: BTreeMap<Glsn, LogRecord>,
    /// What the oracle was not told: a tampered record as the cluster
    /// now holds it, `None` for a tombstoned one.
    overlay: BTreeMap<Glsn, Option<LogRecord>>,
}

fn config(standby: bool, capture: bool, journals: Option<PathBuf>) -> ClusterConfig {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(7)
        .with_epoch_length(EPOCH);
    if standby {
        config = config.with_standby_replication();
    }
    if capture {
        config = config.with_payload_capture();
    }
    if let Some(dir) = journals {
        config = config.with_journal_dir(dir);
    }
    config
}

fn workload(records: usize) -> Vec<LogRecord> {
    let config = WorkloadConfig {
        records,
        ..WorkloadConfig::default()
    };
    generate(&config, &mut StdRng::seed_from_u64(3))
}

fn time_of(record: &LogRecord) -> u64 {
    match record.get(&"time".into()) {
        Some(AttrValue::Time(t)) => *t,
        other => panic!("generated records carry a time, got {other:?}"),
    }
}

/// Sealed epochs the engine served to whatever ran under `recorder`.
fn hits(recorder: &Recorder) -> u64 {
    recorder.take().total_cost().answer_hits
}

impl World {
    fn new(standby: bool, capture: bool) -> World {
        World::with_configs(
            config(standby, capture, None),
            config(standby, capture, None),
        )
    }

    /// A world whose clusters journal under `dir`, so that it can be
    /// restarted ([`World::restart`]).
    fn durable(dir: &std::path::Path) -> World {
        let _ = std::fs::remove_dir_all(dir);
        World::with_configs(
            config(true, false, Some(dir.join("warm"))),
            config(true, false, Some(dir.join("cold"))),
        )
    }

    fn with_configs(warm_config: ClusterConfig, cold_config: ClusterConfig) -> World {
        let mut warm = DlaCluster::new(warm_config.clone()).expect("cluster builds");
        let mut cold = DlaCluster::new(cold_config.clone()).expect("cluster builds");
        let users = (
            warm.register_user("u").expect("capacity"),
            cold.register_user("u").expect("capacity"),
        );
        let mut oracle = CentralizedAuditor::new(Schema::paper_example(), 1);
        let oracle_user = oracle.register_user().expect("capacity");
        World {
            warm,
            cold,
            configs: (warm_config, cold_config),
            users,
            oracle,
            oracle_user,
            logged: BTreeMap::new(),
            overlay: BTreeMap::new(),
        }
    }

    /// Drops both clusters and opens them again on their journals. What
    /// a `tamper` wrote was never journaled, so it is gone; a tombstone
    /// was, and stays.
    fn restart(self) -> World {
        let World {
            warm,
            cold,
            configs,
            mut overlay,
            ..
        } = self;
        drop((warm, cold));
        overlay.retain(|_, held| held.is_none());
        World {
            warm: DlaCluster::new(configs.0.clone()).expect("warm restarts"),
            cold: DlaCluster::new(configs.1.clone()).expect("cold restarts"),
            configs,
            overlay,
            ..self
        }
    }

    fn deposit(&mut self, records: &[LogRecord]) {
        let glsns = self.warm.log_records(&self.users.0, records).expect("logs");
        let twin = self.cold.log_records(&self.users.1, records).expect("logs");
        assert_eq!(glsns, twin);
        for (record, glsn) in records.iter().zip(glsns) {
            let mirrored = self.oracle.log_record(self.oracle_user, record);
            assert_eq!(mirrored.expect("oracle logs"), glsn);
            let mut stamped = LogRecord::new(glsn);
            for (name, value) in record.iter() {
                stamped.insert(name.clone(), value.clone());
            }
            self.logged.insert(glsn, stamped);
        }
    }

    /// The glsns of sealed epochs.
    fn sealed(&self) -> BTreeSet<Glsn> {
        let sealed = self.warm.epoch_stats().filter(|s| s.sealed);
        sealed
            .flat_map(|s| (s.glsn_lo.0..=s.glsn_hi.0).map(Glsn))
            .collect()
    }

    fn sealed_epochs(&self) -> u64 {
        self.warm.epoch_stats().filter(|s| s.sealed).count() as u64
    }

    /// The centralized auditor's answer, corrected for the two things it
    /// was not told.
    fn expected(&mut self, text: &str) -> Vec<Glsn> {
        let criteria = parser::parse(text, &Schema::paper_example()).expect("parses");
        let mut answer: BTreeSet<Glsn> = (self.oracle.query(&criteria).expect("oracle answers"))
            .into_iter()
            .collect();
        for (glsn, held) in &self.overlay {
            answer.remove(glsn);
            if held
                .as_ref()
                .is_some_and(|r| criteria.eval(r).expect("evaluates"))
            {
                answer.insert(*glsn);
            }
        }
        answer.into_iter().collect()
    }

    /// What whole-record evaluation of the normalized query says of the
    /// log as deposited, a missing attribute making its literal false —
    /// the oracle for records the strict centralized auditor refuses.
    fn lenient(&self, text: &str) -> Vec<Glsn> {
        let normalized = plan::compile(text, &Schema::paper_example()).expect("compiles");
        let matches = |record: &LogRecord| {
            normalized.clauses().iter().all(|clause| {
                let mut literals = clause.literals().iter();
                literals.any(|literal| literal.eval(record).unwrap_or(false))
            })
        };
        let logged = self.logged.iter().filter(|(_, record)| matches(record));
        logged.map(|(glsn, _)| *glsn).collect()
    }

    /// Makes `cluster` forget everything its engine keeps.
    fn forget(cluster: &DlaCluster) {
        cluster.kept().clear();
    }

    /// Asks both clusters; returns the warm answer and how many sealed
    /// epochs the warm cluster served from what it kept.
    fn ask_both(&mut self, text: &str) -> (Vec<Glsn>, u64) {
        let recorder = Recorder::new();
        let warm = {
            let _on = recorder.install();
            self.warm.query_shared(text).expect("warm query runs").glsns
        };
        World::forget(&self.cold);
        let cold = self.cold.query_shared(text).expect("cold query runs").glsns;
        assert_eq!(warm, cold, "warm and cold answers to {text}");
        (warm, hits(&recorder))
    }

    /// [`World::ask_both`], with the answer held against the oracle's.
    fn ask(&mut self, text: &str) -> u64 {
        let expected = self.expected(text);
        let (answer, hits) = self.ask_both(text);
        assert_eq!(answer, expected, "answer to {text} against the oracle");
        hits
    }

    /// The stores of both clusters, node by node.
    fn at_every_store(&self, op: impl Fn(&DlaCluster, usize)) {
        for cluster in [&self.warm, &self.cold] {
            (0..cluster.num_nodes()).for_each(|node| op(cluster, node));
        }
    }
}

fn random_atom(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8) {
        0 => format!("c1 > {}", rng.gen_range(10..90)),
        1 => format!("c1 <= {}", rng.gen_range(10..90)),
        2 => format!("id = 'U{}'", rng.gen_range(1..=5)),
        3 => format!("protocol = '{}'", ["TCP", "UDP"][rng.gen_range(0..2usize)]),
        4 => format!("c2 < {}.00", rng.gen_range(100..900)),
        5 => format!("tid = 'T{:07}'", 1_100_000 + rng.gen_range(1..=20)),
        6 => "id != c3".to_owned(),
        _ => "tid != c3".to_owned(),
    }
}

fn random_cnf(rng: &mut StdRng) -> String {
    let clause = |rng: &mut StdRng| {
        let atoms: Vec<String> = (0..rng.gen_range(1..=3))
            .map(|_| random_atom(rng))
            .collect();
        format!("({})", atoms.join(" OR "))
    };
    let clauses: Vec<String> = (0..rng.gen_range(1..=3)).map(|_| clause(rng)).collect();
    clauses.join(" AND ")
}

/// `criteria` unbounded, from a record's time on, or between two.
fn windowed(rng: &mut StdRng, times: &[u64], criteria: &str) -> String {
    let shape = rng.gen_range(0..3);
    let mut pick = || times[rng.gen_range(0..times.len())];
    match shape {
        0 => criteria.to_owned(),
        1 => format!("time >= '{}' AND ({criteria})", format_paper_time(pick())),
        _ => {
            let (a, b) = (pick(), pick());
            let (from, to) = (format_paper_time(a.min(b)), format_paper_time(a.max(b)));
            format!("time >= '{from}' AND time <= '{to}' AND ({criteria})")
        }
    }
}

enum Step {
    Deposit,
    Standing,
    Tamper,
    Tombstone,
    Restart,
    Rereplicate,
}

#[test]
fn warm_answers_are_cold_answers_and_the_oracles_after_every_kind_of_step() {
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let dir = std::env::temp_dir().join(format!("dla-warm-cold-{}", std::process::id()));
    let mut world = World::durable(&dir);
    let log = workload(720);
    let mut pool: Vec<String> = (0..5).map(|_| random_cnf(&mut rng)).collect();
    pool.push(OR2.to_owned());
    pool.push(AND2.to_owned());
    let mut fed = 0;
    let mut hits = 0;
    let mut standing = None;

    use Step::*;
    for step in [
        Deposit,
        Deposit,
        Standing,
        Deposit,
        Tamper,
        Deposit,
        Tombstone,
        Deposit,
        Restart,
        Standing,
        Deposit,
        Deposit,
        Rereplicate,
    ] {
        match step {
            Deposit => {
                // Sometimes inside the open epoch, sometimes across a seal
                // or two.
                let batch: usize = rng.gen_range(10..100);
                world.deposit(&log[fed..fed + batch]);
                fed += batch;
            }
            Standing => {
                World::forget(&world.cold);
                let id = world.warm.register_standing(OR2).expect("registers");
                assert_eq!(world.cold.register_standing(OR2).expect("registers"), id);
                standing = Some(id);
            }
            Tamper => {
                // A sealed record the fixed clause does not match, until
                // its holder rewrites it.
                let sealed = world.sealed();
                let misses = |r: &&LogRecord| {
                    sealed.contains(&r.glsn)
                        && matches!(r.get(&"c1".into()), Some(AttrValue::Int(v)) if *v <= 40)
                        && r.get(&"id".into()) != Some(&AttrValue::text("U2"))
                };
                let mut victim = world
                    .logged
                    .values()
                    .find(misses)
                    .expect("a victim")
                    .clone();
                victim.insert("c1".into(), AttrValue::Int(99));
                world.at_every_store(|cluster, node| {
                    let mut store = cluster.node(node).store_mut();
                    store.tamper(victim.glsn, &"c1".into(), AttrValue::Int(99));
                });
                world.overlay.insert(victim.glsn, Some(victim));
            }
            Tombstone => {
                // A sealed record the fixed clause matches, until every
                // node forgets it.
                let sealed = world.sealed();
                let victim = (world.expected(OR2).into_iter())
                    .find(|g| sealed.contains(g) && !world.overlay.contains_key(g))
                    .expect("a victim");
                world.at_every_store(|cluster, node| {
                    let mut store = cluster.node(node).store_mut();
                    let gone = store.forget_uncommitted(|g| g != victim).expect("forgets");
                    assert_eq!(gone, [victim].into());
                });
                world.overlay.insert(victim, None);
            }
            Restart => {
                // The engine's memory is not journaled, and neither is
                // the standing registry: both clusters come back cold.
                world = world.restart();
                assert!(world.warm.kept().is_empty());
                standing = None;
            }
            Rereplicate => {
                // P2 serves `tid` and `c3`; P3 adopts them.
                for cluster in [&mut world.warm, &mut world.cold] {
                    let report = cluster.rereplicate(&[2].into()).expect("repairs");
                    assert_eq!(report.adoptions[0].adopter, 3);
                }
                assert!(
                    world.warm.kept().is_empty(),
                    "a retirement drops what was kept"
                );
            }
        }

        // The fixed clause over the whole trail, then the pool under
        // random windows.
        hits += world.ask(OR2);
        let times: Vec<u64> = log[..fed].iter().map(time_of).collect();
        for _ in 0..4 {
            let criteria = pool[rng.gen_range(0..pool.len())].clone();
            hits += world.ask(&windowed(&mut rng, &times, &criteria));
        }
        if let Some(id) = standing {
            let pushed = world.warm.standing_matches(id);
            assert_eq!(pushed, world.cold.standing_matches(id));
            // Deltas are history: what a sealed epoch held when it
            // sealed. Until something rewrites history that is the
            // oracle's answer over the sealed epochs.
            if world.overlay.is_empty() {
                let sealed = world.sealed();
                let mut expected = world.expected(OR2);
                expected.retain(|g| sealed.contains(g));
                assert_eq!(pushed, Some(expected));
            }
        }
    }
    assert!(fed > 5 * EPOCH as usize, "the trail sealed several epochs");
    assert!(hits > 20, "the run must exercise warm lookups, saw {hits}");
    drop(world);
    std::fs::remove_dir_all(&dir).expect("journals removed");
}

#[test]
fn a_set_is_kept_where_it_was_received_per_constant_order_and_partition_in_force() {
    // The engine, where an answer is revealed, keeps it under the query
    // as planned: every clause compared as the structure it is, on the
    // nodes it was planned on. No standby copies: retiring a node loses
    // what it held, so a query planned on it and the same query planned
    // on its adopter have different answers.
    let mut world = World::new(false, false);
    world.deposit(&workload(200));
    let sealed = world.sealed_epochs() as usize;
    assert_eq!(sealed, 3);
    let kept = |cluster: &DlaCluster| cluster.kept().len();

    assert_eq!(world.ask(OR2), 0);
    assert_eq!(kept(&world.warm), sealed);
    assert_eq!(world.ask(OR2) as usize, sealed);
    // Another constant; the same literals in another order.
    assert_eq!(world.ask("c1 > 41 OR id = 'U2'"), 0);
    assert_eq!(world.ask("id = 'U2' OR c1 > 40"), 0);
    assert_eq!(kept(&world.warm), 3 * sealed);
    // Two clauses over the same nodes that print alike — one constant
    // spelling ` OR ` and the quotes of two — are two queries.
    let three = "c1 > 40 OR id = 'U2' OR id = 'U3'";
    let two = r#"c1 > 40 OR id = "U2' OR id = 'U3""#;
    let printed = |text| {
        let normalized = plan::compile(text, &Schema::paper_example());
        normalized.expect("compiles").to_string()
    };
    assert_eq!(printed(three), printed(two));
    assert_eq!(world.ask(three), 0);
    assert_eq!(world.ask(two), 0);
    assert_ne!(world.expected(three), world.expected(two));
    assert_eq!(kept(&world.warm), 5 * sealed);

    // `id` at P1, `tid` at P2, asked before and after P2 retires into
    // P3: same text, same store revisions, another node set.
    let moved = "id = 'U2' OR tid = 'T1100005'";
    assert_eq!(world.ask(moved), 0);
    assert_eq!(world.ask(moved) as usize, sealed);
    for cluster in [&mut world.warm, &mut world.cold] {
        let report = cluster.rereplicate(&[2].into()).expect("retires");
        assert!(!report.is_fully_verified(), "nothing was there to adopt");
    }
    assert_eq!(kept(&world.warm), 0, "a retirement drops what was kept");
    // Asked as the configured partition lays it out (P2's store is still
    // there to be read) …
    let schema = Schema::paper_example();
    let normalized = plan::compile(moved, &schema).expect("compiles");
    let configured = plan::plan(&normalized, world.warm.partition()).expect("plans");
    let on_the_retired = execute_on(
        &world.warm,
        world.warm.shared_net(),
        &configured,
        true,
        ExecMode::Concurrent,
        1,
    )
    .expect("runs");
    assert_eq!(kept(&world.warm), sealed);
    // … is not the query the partition in force asks.
    let (in_force, hits) = world.ask_both(moved);
    assert_eq!(hits, 0);
    assert!(in_force.len() < on_the_retired.glsns.len());
}

/// One run of `plan` on `cluster`'s own network, with the sealed epochs
/// it was served.
fn run(cluster: &DlaCluster, plan: &QueryPlan, reveal: bool, seed: u64) -> (QueryResult, u64) {
    let recorder = Recorder::new();
    let result = {
        let _on = recorder.install();
        let on = cluster.shared_net();
        execute_on(cluster, on, plan, reveal, ExecMode::Concurrent, seed).expect("runs")
    };
    (result, hits(&recorder))
}

#[test]
fn the_engine_keeps_an_answer_per_query_and_a_count_only_run_goes_around_it() {
    let mut world = World::new(false, false);
    world.deposit(&workload(200));
    let sealed = world.sealed_epochs();
    assert_eq!(sealed, 3);
    let expected = world.expected(AND2);
    let plan = world.warm.compile(AND2).expect("compiles");

    // A count first: whole, cold, and nothing is filed.
    let (count, hits) = run(&world.warm, &plan, false, 1);
    assert_eq!((count.cardinality, hits), (expected.len(), 0));
    assert!(count.glsns.is_empty());
    assert!(world.warm.kept().is_empty(), "a count files nothing");

    // The answer, revealed: asked of every epoch, filed per sealed one.
    let (cold, hits) = run(&world.warm, &plan, true, 2);
    assert_eq!((&cold.glsns, hits), (&expected, 0));
    assert_eq!(world.warm.kept().len() as u64, sealed);

    // A count again: the engine holds every sealed epoch of this query
    // and the count is still asked whole — the bytes of the first.
    let (again, hits) = run(&world.warm, &plan, false, 1);
    assert_eq!((again.cardinality, hits), (expected.len(), 0));
    assert_eq!((again.messages, again.bytes), (count.messages, count.bytes));
    assert_eq!(world.warm.kept().len() as u64, sealed);

    // The answer again: only the open epoch is asked.
    let (warm, hits) = run(&world.warm, &plan, true, 3);
    assert_eq!(warm.glsns, expected);
    assert_eq!(hits, sealed);
    assert!(
        warm.bytes < cold.bytes / 2,
        "{} of {}",
        warm.bytes,
        cold.bytes
    );
    assert_eq!(warm.cardinality, expected.len());

    // Another constant is another query; so is a clause more.
    for other in [
        "c1 > 31 AND id = 'U1'",
        "c1 > 30 AND id = 'U1' AND c2 < 900.00",
    ] {
        assert_eq!(world.ask(other), 0, "{other}");
    }
    assert_eq!(world.warm.kept().len() as u64, 3 * sealed);

    // A tombstone at one node of the two the query was planned on: the
    // first lookup that sees its revision moved drops the entry.
    let victim = expected[0];
    world.at_every_store(|cluster, node| {
        let mut store = cluster.node(node).store_mut();
        store.forget_uncommitted(|g| g != victim).expect("forgets");
    });
    world.overlay.insert(victim, None);
    assert_eq!(world.ask(AND2), 0);
    assert_eq!(world.ask(AND2), sealed);
}

/// The workload with a timestamp every ten seconds, except that the
/// last record of epoch 1 and the first of epoch 2 share theirs, and one
/// record of epoch 3 has none.
fn stamped_log(records: usize) -> (Vec<LogRecord>, impl Fn(usize) -> String) {
    let epoch = EPOCH as usize;
    let (tie, untimed) = (2 * epoch, 3 * epoch + 5);
    let time = move |i: usize| 1_021_234_000 + 10 * if i == tie { i - 1 } else { i } as u64;
    let log = (workload(records).iter().enumerate())
        .map(|(i, record)| {
            let mut stamped = LogRecord::new(Glsn(0));
            for (name, value) in record.iter().filter(|(name, _)| name.as_str() != "time") {
                stamped.insert(name.clone(), value.clone());
            }
            if i != untimed {
                stamped.insert("time".into(), AttrValue::Time(time(i)));
            }
            stamped
        })
        .collect();
    (log, move |i| format_paper_time(time(i)))
}

#[test]
fn a_sliding_window_is_served_the_epochs_it_covers_and_asks_a_boundary_epoch_in_full() {
    let epoch = EPOCH as usize;
    // Five sealed epochs and an open one.
    let (log, at) = stamped_log(5 * epoch + 30);
    for criteria in [AND2, OR2] {
        // (window, sealed epochs the engine serves once it holds all
        // five under the bound-less query): epoch 3 has a record without
        // a time and is never served to a bounded window.
        let windows = [
            // From an epoch's first timestamp: that epoch is covered.
            (format!("time >= '{}'", at(epoch)), 3),
            // From the middle of epoch 1: asked in full.
            (format!("time >= '{}'", at(epoch + 20)), 2),
            // From the timestamp epoch 1's last record shares with
            // epoch 2's first: epoch 1 is cut, epoch 2 is whole …
            (format!("time >= '{}'", at(2 * epoch)), 2),
            // … and strictly after it, epoch 1 is out and epoch 2 is cut.
            (format!("time > '{}'", at(2 * epoch)), 1),
            // Both ends: epochs 1 and 2 whole, 3 whole but for its
            // untimed record, 4 cut.
            (
                format!(
                    "time >= '{}' AND time <= '{}'",
                    at(epoch),
                    at(4 * epoch + 9)
                ),
                2,
            ),
            (format!("time <= '{}'", at(2 * epoch - 1)), 2),
            (format!("time < '{}'", at(2 * epoch - 1)), 1),
        ];

        // The bound-less query first: every bounded window after it is
        // served the epochs it covers and nothing of the ones it cuts.
        let mut world = World::new(false, false);
        world.deposit(&log);
        assert_eq!(world.sealed_epochs(), 5);
        assert_eq!(world.ask_both(criteria), (world.lenient(criteria), 0));
        for (window, served) in &windows {
            let text = format!("{window} AND ({criteria})");
            let (answer, hits) = world.ask_both(&text);
            assert_eq!(answer, world.lenient(&text), "{text}");
            assert_eq!(hits, *served, "{text}");
        }

        // A bounded window first: the epoch it cuts is not filed under
        // the bound-less query, the ones it covers are.
        for (window, served) in &windows {
            World::forget(&world.warm);
            let text = format!("{window} AND ({criteria})");
            let (answer, hits) = world.ask_both(&text);
            assert_eq!(answer, world.lenient(&text), "{text}");
            assert_eq!(hits, 0, "{text}");
            let (answer, hits) = world.ask_both(criteria);
            assert_eq!(answer, world.lenient(criteria), "after {text}");
            assert_eq!(hits, *served, "after {text}");
        }
    }
}

#[test]
fn a_standing_rules_deltas_answer_an_ad_hoc_ask_of_that_rule_over_sealed_history() {
    let mut world = World::new(false, false);
    let log = workload(300);
    world.deposit(&log[..200]);
    for rule in [AND2, OR2] {
        let id = world.warm.register_standing(rule).expect("registers");
        assert_eq!(world.cold.register_standing(rule).expect("registers"), id);
    }
    let mut fed = 200;
    for more in [0, 60] {
        // The second time round an epoch has sealed since, and its
        // deltas were evaluated by the seal itself.
        world.deposit(&log[fed..fed + more]);
        fed += more;
        let sealed = world.sealed_epochs();
        assert_eq!(sealed, fed as u64 / EPOCH);
        let last_sealed = &log[(sealed * EPOCH) as usize - 1];
        for rule in [AND2, OR2] {
            // Over sealed history: no message at all.
            let upto = format_paper_time(time_of(last_sealed));
            let history = format!("time <= '{upto}' AND ({rule})");
            let expected = world.expected(&history);
            let asked = world.warm.query_shared(&history).expect("runs");
            assert_eq!(asked.glsns, expected, "{history}");
            assert_eq!((asked.messages, asked.bytes), (0, 0), "{history}");
            assert!(asked.sessions.is_empty() && asked.reports.is_empty());
            // Over everything: the open epoch alone is asked.
            assert_eq!(world.ask(rule), sealed, "{rule}");
        }
    }
}

/// The cluster's own network, except that the first message anybody
/// sends finds a store rewritten first.
struct RewritesAtTheFirstSend<'a> {
    cluster: &'a DlaCluster,
    victim: Glsn,
    done: AtomicBool,
}

impl Transport for RewritesAtTheFirstSend<'_> {
    fn num_nodes(&self) -> usize {
        self.cluster.shared_net().num_nodes()
    }
    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: bytes::Bytes) {
        if !self.done.swap(true, Ordering::SeqCst) {
            for node in self.cluster.nodes() {
                let c1 = AttrValue::Int(99);
                node.store_mut().tamper(self.victim, &"c1".into(), c1);
            }
        }
        self.cluster.shared_net().send(session, from, to, payload);
    }
    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.cluster.shared_net().recv(session, node)
    }
    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.cluster.shared_net().recv_from(session, node, from)
    }
    fn charge(&self, session: SessionId, node: NodeId, cost: SimTime) {
        self.cluster.shared_net().charge(session, node, cost);
    }
    fn counters(&self, session: SessionId) -> (u64, u64) {
        self.cluster.shared_net().counters(session)
    }
    fn elapsed(&self, session: SessionId) -> SimTime {
        Transport::elapsed(self.cluster.shared_net(), session)
    }
}

#[test]
fn a_store_that_moves_while_a_query_runs_leaves_an_answer_nobody_is_served() {
    let mut world = World::new(false, false);
    world.deposit(&workload(200));
    // A sealed record of U1's the query misses until `c1` is rewritten.
    let sealed = world.sealed();
    let victim = world
        .logged
        .values()
        .find(|r| {
            sealed.contains(&r.glsn)
                && matches!(r.get(&"c1".into()), Some(AttrValue::Int(v)) if *v <= 30)
                && r.get(&"id".into()) == Some(&AttrValue::text("U1"))
        })
        .expect("a victim")
        .clone();
    let before = world.expected(AND2);
    let mut rewritten = victim.clone();
    rewritten.insert("c1".into(), AttrValue::Int(99));
    world.overlay.insert(victim.glsn, Some(rewritten));
    let after = world.expected(AND2);
    assert_ne!(before, after);

    // Both clauses are local scans, done before the conjunction sends
    // its first message: the run answers from the stores as they were
    // and files that answer under the revisions it read before scanning.
    let plan = world.warm.compile(AND2).expect("compiles");
    let wire = RewritesAtTheFirstSend {
        cluster: &world.warm,
        victim: victim.glsn,
        done: AtomicBool::new(false),
    };
    let during = execute_on(&world.warm, &wire, &plan, true, ExecMode::Concurrent, 5);
    assert_eq!(during.expect("runs").glsns, before);
    assert_eq!(world.warm.kept().len() as u64, world.sealed_epochs());
    // The next asking finds the revisions moved and asks again.
    for node in world.cold.nodes() {
        let c1 = AttrValue::Int(99);
        node.store_mut().tamper(victim.glsn, &"c1".into(), c1);
    }
    assert_eq!(world.ask(AND2), 0);
    assert_eq!(world.ask(AND2), world.sealed_epochs());
}

/// The payloads `run` put on the wire.
fn captured(
    cluster: &DlaCluster,
    run: impl FnOnce() -> QueryResult,
) -> (QueryResult, Vec<Vec<u8>>) {
    let before = cluster.net().captured_payloads().len();
    let result = run();
    let net = cluster.net();
    let payloads = net.captured_payloads()[before..]
        .iter()
        .map(|(_, _, bytes)| bytes.to_vec())
        .collect();
    (result, payloads)
}

#[test]
fn a_warm_run_puts_only_the_missing_range_on_the_wire() {
    let run = |cluster: &DlaCluster, plan: &QueryPlan, seed| {
        let on = cluster.shared_net();
        execute_on(cluster, on, plan, true, ExecMode::Concurrent, seed).expect("runs")
    };
    for (seed, criteria) in [(11, OR2), (12, JOIN), (13, AND2)] {
        let mut world = World::new(false, true);
        let log = workload(330);
        world.deposit(&log[..150]);
        assert_eq!(world.ask(criteria), 0);
        world.deposit(&log[150..250]);
        let base = world.warm.epoch_policy().base().0;
        let unbounded = world.warm.compile(criteria).expect("compiles");

        // Epochs 0 and 1 were sealed and asked; 2 has sealed since, 3 is
        // open. Asked again, the whole transcript, conjunction and all,
        // is a cold cluster's over the epochs the engine was not told.
        let recorder = Recorder::new();
        let (warm, warm_wire) = captured(&world.warm, || {
            let _on = recorder.install();
            run(&world.warm, &unbounded, seed)
        });
        assert_eq!(hits(&recorder), 2);
        assert_eq!(warm.glsns, world.expected(criteria));
        let mut missing = unbounded.clone();
        missing.glsn_clamp = Some((Glsn(base + 2 * EPOCH), Glsn(u64::MAX)));
        World::forget(&world.cold);
        let (cold, cold_wire) = captured(&world.cold, || run(&world.cold, &missing, seed));
        assert_eq!(warm_wire, cold_wire, "{criteria}");
        assert_eq!(warm.reports, cold.reports);

        // The whole trail costs a cold cluster more than that.
        World::forget(&world.cold);
        let (whole, _) = captured(&world.cold, || run(&world.cold, &unbounded, seed));
        assert!(warm.bytes < whole.bytes, "{criteria}");
        assert_eq!(whole.glsns, warm.glsns);

        // A window of sealed epochs all kept: nothing is run at all.
        let upto = format_paper_time(time_of(&log[2 * EPOCH as usize - 1]));
        let bounded = format!("time <= '{upto}' AND ({criteria})");
        let plan = world.warm.compile(&bounded).expect("compiles");
        let (all_kept, wire) = captured(&world.warm, || run(&world.warm, &plan, seed));
        assert!(all_kept.reports.is_empty() && wire.is_empty(), "{bounded}");
        assert_eq!(all_kept.glsns, world.expected(&bounded));

        // Epochs 1 and 3 asked on their own, by their time extents, of
        // a cluster that kept nothing: the whole trail is then three
        // runs — epoch 0, epoch 2, epoch 4 on — each a cold run of the
        // plan over that range under its own seed.
        world.deposit(&log[250..]);
        World::forget(&world.warm);
        for epoch in [1, 3] {
            let (first, last) = (epoch * EPOCH as usize, (epoch + 1) * EPOCH as usize - 1);
            let (from, to) = (time_of(&log[first]), time_of(&log[last]));
            let (from, to) = (format_paper_time(from), format_paper_time(to));
            let one = format!("time >= '{from}' AND time <= '{to}' AND ({criteria})");
            assert_eq!(world.ask(&one), 0, "{one}");
        }
        let recorder = Recorder::new();
        let (warm, warm_wire) = captured(&world.warm, || {
            let _on = recorder.install();
            run(&world.warm, &unbounded, seed)
        });
        assert_eq!(hits(&recorder), 2);
        assert_eq!(warm.glsns, world.expected(criteria));
        let epoch_start = |e: u64| base + e * EPOCH;
        let mut cold_wire = Vec::new();
        let mut cold_reports = Vec::new();
        for (i, (lo, hi)) in [
            (epoch_start(0), epoch_start(1) - 1),
            (epoch_start(2), epoch_start(3) - 1),
            (epoch_start(4), u64::MAX),
        ]
        .into_iter()
        .enumerate()
        {
            missing.glsn_clamp = Some((Glsn(lo), Glsn(hi)));
            World::forget(&world.cold);
            let seed = run_seed(seed, i);
            let (cold, wire) = captured(&world.cold, || run(&world.cold, &missing, seed));
            cold_wire.extend(wire);
            cold_reports.extend(cold.reports);
        }
        assert_eq!(warm_wire, cold_wire, "{criteria}");
        assert_eq!(warm.reports, cold_reports);
    }
}

#[test]
fn a_masked_comparison_shows_its_ttp_a_sealed_epoch_once() {
    use confidential_audit::logstore::model::AttrType;
    use confidential_audit::logstore::schema::AttrDef;
    // `a` at P0, `b` at P1, epochs of four: `a < b` is compared by the
    // blind TTP (net id 3), ten masked pairs a side.
    let schema = Schema::new(vec![
        AttrDef::known("a", AttrType::Int),
        AttrDef::known("b", AttrType::Int),
    ])
    .expect("schema");
    let partition = Partition::round_robin(&schema, 2).expect("partition");
    let config = ClusterConfig::new(2, schema)
        .with_partition(partition)
        .with_seed(9)
        .with_epoch_length(4)
        .with_payload_capture();
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    for (a, b) in [
        (1, 2),
        (5, 3),
        (4, 4),
        (2, 9),
        (7, 1),
        (3, 8),
        (6, 6),
        (0, 5),
        (9, 2),
        (1, 7),
    ] {
        let record = LogRecord::new(Glsn(0))
            .with("a", AttrValue::Int(a))
            .with("b", AttrValue::Int(b));
        cluster.log_record(&user, &record).expect("logs");
    }
    let ttp = cluster.ttp_node();
    let shown_to_ttp = |cluster: &DlaCluster| {
        let before = cluster.net().captured_payloads().len();
        let answer = cluster.query_shared("a < b").expect("query runs").glsns;
        let net = cluster.net();
        let seen = net.captured_payloads()[before..].iter();
        let bytes: usize = seen
            .filter(|(_, to, _)| *to == ttp)
            .map(|(_, _, b)| b.len())
            .sum();
        (answer, bytes)
    };
    let (cold, cold_bytes) = shown_to_ttp(&cluster);
    assert_eq!(cold.len(), 5);
    // Two lists of (glsn, masked ordinal): 24 bytes a pair, ten pairs
    // cold, the open epoch's two warm — every time after the first.
    for _ in 0..2 {
        let (warm, warm_bytes) = shown_to_ttp(&cluster);
        assert_eq!(warm, cold);
        assert_eq!(cold_bytes - warm_bytes, 2 * 8 * 24);
    }
}

#[test]
fn two_counts_of_a_cross_clause_in_a_row_are_two_cold_runs() {
    // Nothing remembers on the `reveal = false` path: the engine is owed
    // one count, and no other party keeps a clause's set. So the second
    // count of a cross clause over sealed history sends what the first
    // sent — exactly so under the first's keys: the cold twin draws its
    // seeds in the same order, and its first count is of another query.
    let mut world = World::new(false, false);
    world.deposit(&workload(200));
    assert_eq!(world.sealed_epochs(), 3);
    let expected = world.expected(OR2).len();
    let count = |cluster: &mut DlaCluster, criteria: &str| {
        let before = cluster.net().stats().clone();
        let recorder = Recorder::new();
        let counted = {
            let _on = recorder.install();
            count_matching(cluster, criteria).expect("counts").count
        };
        assert_eq!(hits(&recorder), 0, "{criteria}");
        let after = cluster.net().stats().clone();
        let sent = after.messages_sent - before.messages_sent;
        (counted, sent, after.bytes_sent - before.bytes_sent)
    };

    let first = count(&mut world.warm, OR2);
    let second = count(&mut world.warm, OR2);
    assert_eq!((first.0, second.0), (expected, expected));
    assert_eq!(first.1, second.1, "messages");
    count(&mut world.cold, AND2);
    assert_eq!(second, count(&mut world.cold, OR2));
    assert!(world.warm.kept().is_empty(), "a count files nothing");
}

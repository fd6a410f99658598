//! `warm ≡ cold`: a holder keeps, per sealed epoch, the clause sets the
//! cross subqueries delivered to it, and a query asks the ring only
//! about epochs nothing is kept for. Whatever is kept, an answer is the
//! answer of a cluster that kept nothing — and the centralized
//! auditor's — after every kind of step that can change one, and a warm
//! run's wire traffic is the traffic of the missing range alone.

use confidential_audit::audit::centralized::CentralizedAuditor;
use confidential_audit::audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use confidential_audit::audit::exec::{execute_on, ExecMode, QueryResult};
use confidential_audit::audit::{parser, plan};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::{generate, WorkloadConfig};
use confidential_audit::logstore::model::{format_paper_time, AttrValue, Glsn, LogRecord};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::NodeId;
use confidential_audit::telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const EPOCH: u64 = 64;
/// One cross clause over `{P1, P3}`, delivered to P1 by a secure set
/// union.
const OR2: &str = "c1 > 40 OR id = 'U2'";
/// One cross clause whose only step is an equality join landing on P1.
const JOIN: &str = "id != c3";

/// Two clusters walked through one history — `warm` keeps what its
/// holders are handed, `cold` is made to forget before every question —
/// beside the centralized auditor fed the same deposits.
struct World {
    warm: DlaCluster,
    cold: DlaCluster,
    users: (AppUser, AppUser),
    oracle: CentralizedAuditor,
    oracle_user: NodeId,
    logged: BTreeMap<Glsn, LogRecord>,
    /// What the oracle was not told: a tampered record as the cluster
    /// now holds it, `None` for a tombstoned one.
    overlay: BTreeMap<Glsn, Option<LogRecord>>,
}

fn cluster(standby: bool, capture: bool) -> (DlaCluster, AppUser) {
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
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    (cluster, user)
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

impl World {
    fn new(standby: bool, capture: bool) -> World {
        let (warm, warm_user) = cluster(standby, capture);
        let (cold, cold_user) = cluster(standby, capture);
        let mut oracle = CentralizedAuditor::new(Schema::paper_example(), 1);
        let oracle_user = oracle.register_user().expect("capacity");
        World {
            warm,
            cold,
            users: (warm_user, cold_user),
            oracle,
            oracle_user,
            logged: BTreeMap::new(),
            overlay: BTreeMap::new(),
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

    fn forget(&self) {
        self.cold.nodes().iter().for_each(|n| n.kept().clear());
    }

    /// Asks both clusters; returns the warm answer and how many sealed
    /// epochs its holders served from what they kept.
    fn ask_both(&mut self, text: &str) -> (Vec<Glsn>, u64) {
        let recorder = Recorder::new();
        let warm = {
            let _on = recorder.install();
            self.warm.query_shared(text).expect("warm query runs").glsns
        };
        self.forget();
        let cold = self.cold.query_shared(text).expect("cold query runs").glsns;
        assert_eq!(warm, cold, "warm and cold answers to {text}");
        (warm, recorder.take().total_cost().sealed_epoch_hits)
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
    Rereplicate,
}

#[test]
fn warm_answers_are_cold_answers_and_the_oracles_after_every_kind_of_step() {
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let mut world = World::new(true, false);
    let log = workload(640);
    let mut pool: Vec<String> = (0..5).map(|_| random_cnf(&mut rng)).collect();
    pool.push(OR2.to_owned());
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
                world.forget();
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
            Rereplicate => {
                // P2 serves `tid` and `c3`; P3 adopts them.
                for cluster in [&mut world.warm, &mut world.cold] {
                    let report = cluster.rereplicate(&[2].into()).expect("repairs");
                    assert_eq!(report.adoptions[0].adopter, 3);
                }
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
    assert!(
        hits > 20,
        "the run must exercise warm lookups, saw {hits} epoch hits"
    );
}

#[test]
fn a_set_is_kept_where_it_was_received_per_constant_order_and_partition_in_force() {
    // No standby copies: retiring a node loses what it held, so a clause
    // planned on it and the same clause planned on its adopter have
    // different answers.
    let mut world = World::new(false, false);
    world.deposit(&workload(200));
    let sealed = world.warm.epoch_stats().filter(|s| s.sealed).count();
    assert_eq!(sealed, 3);
    let kept = |cluster: &DlaCluster| -> Vec<usize> {
        (cluster.nodes().iter())
            .map(|node| node.kept().len())
            .collect()
    };

    assert_eq!(world.ask(OR2), 0);
    assert_eq!(
        kept(&world.warm),
        [0, sealed, 0, 0],
        "kept by the holder alone"
    );
    assert_eq!(world.ask(OR2) as usize, sealed);
    // Another constant; the same literals in another order.
    assert_eq!(world.ask("c1 > 41 OR id = 'U2'"), 0);
    assert_eq!(world.ask("id = 'U2' OR c1 > 40"), 0);
    assert_eq!(kept(&world.warm), [0, 3 * sealed, 0, 0]);
    // Two clauses over the same nodes that print alike — one constant
    // spelling ` OR ` and the quotes of two — are two clauses.
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
    assert_eq!(kept(&world.warm), [0, 5 * sealed, 0, 0]);
    // An equality join lands on one node: that node holds it.
    assert_eq!(world.ask(JOIN), 0);
    assert_eq!(world.ask(JOIN) as usize, sealed);
    assert_eq!(kept(&world.warm), [0, 6 * sealed, 0, 0]);

    // `id` at P1, `tid` at P2: held by P1 before and after P2 retires
    // into P3 — same text, same holder, same store revisions, another
    // node set.
    let moved = "id = 'U2' OR tid = 'T1100005'";
    assert_eq!(world.ask(moved), 0);
    assert_eq!(world.ask(moved) as usize, sealed);
    for cluster in [&mut world.warm, &mut world.cold] {
        let report = cluster.rereplicate(&[2].into()).expect("retires");
        assert!(!report.is_fully_verified(), "nothing was there to adopt");
    }
    assert_eq!(
        kept(&world.warm),
        [0; 4],
        "a retirement drops what was kept"
    );
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
    assert_eq!(kept(&world.warm), [0, sealed, 0, 0]);
    // … is not the clause the partition in force asks.
    let (in_force, hits) = world.ask_both(moved);
    assert_eq!(hits, 0);
    assert!(in_force.len() < on_the_retired.glsns.len());
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
    for (seed, criteria) in [(11, OR2), (12, JOIN)] {
        let mut world = World::new(false, true);
        let log = workload(250);
        world.deposit(&log[..150]);
        assert_eq!(world.ask(criteria), 0);
        world.deposit(&log[150..]);
        let base = world.warm.epoch_policy().base().0;

        // Epochs 0 and 1 were sealed and asked; 2 has sealed since, 3 is
        // open. The warm run asks from epoch 2 on.
        let unbounded = world.warm.compile(criteria).expect("compiles");
        let run = |cluster: &DlaCluster, plan| {
            let on = cluster.shared_net();
            execute_on(cluster, on, plan, true, ExecMode::Concurrent, seed).expect("runs")
        };
        let recorder = Recorder::new();
        let (warm, warm_wire) = captured(&world.warm, || {
            let _on = recorder.install();
            run(&world.warm, &unbounded)
        });
        assert_eq!(recorder.take().total_cost().sealed_epoch_hits, 2);
        assert_eq!(warm.glsns, world.expected(criteria));

        // A cluster that kept nothing, asked about that range alone,
        // sends the same bytes up to the conjunction (which carries the
        // holder's whole set, kept epochs included, as it always did).
        let mut missing = unbounded.clone();
        missing.glsn_clamp = Some((Glsn(base + 2 * EPOCH), Glsn(u64::MAX)));
        world.forget();
        let (cold, cold_wire) = captured(&world.cold, || run(&world.cold, &missing));
        let (conjunction, subquery) = warm.reports.split_last().expect("the conjunction ran");
        assert_eq!(conjunction.protocol, "secure-set-intersection");
        let sent = subquery.iter().map(|r| r.messages as usize).sum::<usize>();
        assert!(sent > 0);
        assert_eq!(warm_wire[..sent], cold_wire[..sent], "{criteria}");
        assert_eq!(
            warm.reports[..subquery.len()],
            cold.reports[..subquery.len()]
        );

        // The whole trail costs a cold cluster more than that.
        world.forget();
        let (whole, _) = captured(&world.cold, || run(&world.cold, &unbounded));
        let bytes = |r: &QueryResult| {
            r.reports[..subquery.len()]
                .iter()
                .map(|r| r.bytes)
                .sum::<u64>()
        };
        assert!(bytes(&warm) < bytes(&whole), "{criteria}");
        assert_eq!(whole.glsns, warm.glsns);

        // A window of sealed epochs all kept: the clause's ring is not
        // run at all.
        let upto = format_paper_time(time_of(&log[2 * EPOCH as usize - 1]));
        let bounded = format!("time <= '{upto}' AND ({criteria})");
        let plan = world.warm.compile(&bounded).expect("compiles");
        let (all_kept, _) = captured(&world.warm, || run(&world.warm, &plan));
        assert_eq!(all_kept.reports.len(), 1, "only the conjunction: {bounded}");
        assert_eq!(all_kept.glsns, world.expected(&bounded));
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
    let mut shown_to_ttp = || {
        let before = cluster.net().captured_payloads().len();
        let answer = cluster.query("a < b").expect("query runs").glsns;
        let net = cluster.net();
        let seen = net.captured_payloads()[before..].iter();
        let bytes: usize = seen
            .filter(|(_, to, _)| *to == ttp)
            .map(|(_, _, b)| b.len())
            .sum();
        (answer, bytes)
    };
    let (cold, cold_bytes) = shown_to_ttp();
    let (warm, warm_bytes) = shown_to_ttp();
    assert_eq!(cold.len(), 5);
    assert_eq!(warm, cold);
    // Two lists of (glsn, masked ordinal): 24 bytes a pair, ten pairs
    // cold, the open epoch's two warm.
    assert_eq!(cold_bytes - warm_bytes, 2 * 8 * 24);
}

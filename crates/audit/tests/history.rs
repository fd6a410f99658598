//! One generated-history checker for every feature's seams. A history
//! is a seeded list of ops over the public API: deposit a batch (which
//! seals by the epoch policy), ask through every front door (the owner
//! asks of `verify_transaction` and `correlate::detect` among them),
//! aggregate a time window on both paths, register a standing query,
//! retire a node,
//! turn loss on or off, install or clear a lie, fail one journal write
//! and live on, crash at a journal write and restart. It runs on a
//! journaled `DlaCluster`, or on a 1-ring and an R-ring
//! `FederatedCluster` side by side (no crash or retire there). After
//! every op the named invariants are checked against one reference, a
//! `CentralizedAuditor` over the committed deposits, by deposit index,
//! and against the system's own meta-audit trail.
//! A failing history is shrunk by dropping ops one at a time while the
//! same invariant fails, and printed as the `History` literal that the
//! seam rows at the bottom replay.

use dla_audit::aggregate::AggregatePath::{Cached, Rescan};
use dla_audit::aggregate::{count_matching, sum_matching, windowed_bucket_aggregate};
use dla_audit::centralized::CentralizedAuditor;
use dla_audit::cluster::{AppUser, ClusterConfig, DlaCluster, DlaNode};
use dla_audit::correlate::{detect, CorrelationRule};
use dla_audit::exec::{execute_on, ExecMode, ResilientPolicy};
use dla_audit::federation::{FederatedCluster, FederatedStandingDelta, FederationConfig};
use dla_audit::integrity::check_window;
use dla_audit::plan::TimeWindow;
use dla_audit::query::CmpOp;
use dla_audit::standing::StandingQueryId;
use dla_audit::transaction::{verify_transaction, Rule, TransactionSpec};
use dla_bigint::jacobi::jacobi;
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_crypto::sha256;
use dla_logstore::epoch::EpochId;
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::journal::failpoint;
use dla_logstore::model::{AttrValue, Glsn, LogRecord, TransactionId};
use dla_logstore::schema::Schema;
use dla_net::adversary::{Adversary, ScriptedAdversary, Tamper, TamperRule};
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, SessionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const NODES: usize = 4;
const USERS: usize = 4;
const POOL: usize = 40;
const CASES: u64 = 48;
const OPS: usize = 14;

const ANSWERS: &str = "answers_match_reference";
const AGGREGATES: &str = "aggregates_match_reference";
const STANDING: &str = "standing_is_a_fresh_query_over_sealed_epochs";
const SEALED: &str = "sealed_is_checkpointed";
const RESTART: &str = "restart_is_a_committed_prefix";
const FEDERATED: &str = "federated_is_single_ring";
const META: &str = "meta_trail_names_each_committed_deposit_once";
const RESIDUE: &str = "set_elements_are_residues";
/// The coverage kind of a set element the `Residue` tap sent as X + p.
const FIRED: &str = "Residue fired";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Door {
    Criteria,
    Shared,
    Resilient,
    Reliable,
    Count,
    Sum,
    /// `correlate::detect` over the query's matches and
    /// `verify_transaction` of one deposited tid: the owner asks (a
    /// cluster's; a federation is not asked through this door).
    Owners,
}
use Door::*;
const DOORS: [Door; 7] = [Criteria, Shared, Resilient, Reliable, Count, Sum, Owners];

/// The tumbling window `Owners` correlates in, in seconds.
const WINDOW: u64 = 120;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Tap {
    /// Drop every `Reliable` DATA frame (`0x01`): standing evaluations
    /// and ARQ'd asks fail, bare deposits pass.
    DropData,
    /// Drop one deposit broadcast (`0x21`) after skipping this many.
    DropDeposit(u64),
    /// Send one element X of every ∩ₛ/∪ₛ set frame (`0x01`/`0x02`) as
    /// X + p: the same residue in an encoding no layer produces.
    Residue,
    /// Replace every owner ask the auditor sends (`0x70`, `0x72`,
    /// `0x73`, `0x75`) with a frame of no ask.
    Request,
    /// Clear every ring's lie.
    Clear,
}
use Tap::*;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Deposit the next n records of the pool.
    Deposit(usize),
    Ask(Door, &'static str),
    /// Aggregate [lo, hi] on both paths; ask the adjoining windows
    /// `time <= hi` / `time > hi` and `time < lo` / `time >= lo`.
    Window(u64, u64),
    Register(&'static str),
    Retire(usize),
    Loss(bool),
    /// A lie on ring `.1` (a cluster is ring 0).
    Lie(Tap, usize),
    /// Fail the k-th journal write of a deposit of n records, keeping
    /// all but its last byte; live on. A node's journal cuts the tear
    /// back at its next write; at the cluster's append the cluster stops
    /// taking writes until a restart.
    Fail(u64, usize),
    /// Die at the k-th journal write of a deposit of n records (torn:
    /// keeping all but its last byte), then restart.
    Crash(u64, bool, usize),
}
use Op::*;

/// `rings`: 0 for a journaled cluster, R for a 1-ring and an R-ring
/// federation.
#[derive(Clone, Debug)]
struct History {
    seed: u64,
    epoch: u64,
    rings: usize,
    ops: Vec<Op>,
}

/// How often each op kind ran and each invariant was evaluated.
type Coverage = BTreeMap<String, u64>;

thread_local! {
    static COVERED: std::cell::RefCell<Coverage> = Default::default();
    /// Set elements the `Residue` tap sent as X + p on this thread (a
    /// query runs on the thread that asks it, and so do its sends).
    static RESIDUES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// The first set element a [`Watch`] on this thread found outside
    /// the residues, and the frame that carried it.
    static NON_RESIDUE: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

fn cover(kind: &str) {
    COVERED.with_borrow_mut(|c| *c.entry(kind.to_string()).or_default() += 1);
}

/// Checks invariant `$name`, counting the evaluation.
macro_rules! ensure {
    ($name:expr, $ok:expr, $($why:tt)+) => {{
        cover($name);
        if !$ok {
            return Err(format!("{}: {}", $name, format!($($why)+)));
        }
    }};
}

/// A door's answer, or its own error as `Ok(Err(..))`: a broken
/// invariant is the outer `Err`.
macro_rules! door {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => return Ok(Err(e.to_string())),
        }
    };
}

enum Target {
    /// The cluster, its user and the config that restarts it.
    Cluster(Box<(DlaCluster, AppUser, ClusterConfig)>),
    Fed(Box<FederatedCluster>),
}

impl Target {
    fn rings(&self) -> Vec<&DlaCluster> {
        match self {
            Target::Cluster(j) => vec![&j.0],
            Target::Fed(fed) => fed.rings().iter().collect(),
        }
    }
}

/// What a standing query was told: (ring, epoch, deposit indices).
type Told = Vec<(u64, EpochId, Vec<usize>)>;

/// One system under test, and what it may still owe.
struct System {
    target: Target,
    subs: Vec<(StandingQueryId, &'static str, Told)>,
    /// The id the next registration takes.
    next_sub: u64,
    /// A failure since the last full catch-up may still be owed.
    owed: bool,
}

/// A door's answer in deposit indices.
struct Answer {
    /// The set, if the door reveals one.
    set: Option<BTreeSet<usize>>,
    count: usize,
    /// The sum of `c1`, if asked.
    sum: Option<u64>,
    /// A federation's answer digest.
    digest: Option<[u8; 32]>,
}

/// Where each deposit index lives in a system: (ring, epoch, glsn).
type Placement = Vec<(u64, EpochId, Glsn)>;

fn index_of(placed: &Placement) -> BTreeMap<Glsn, usize> {
    placed.iter().enumerate().map(|(i, p)| (p.2, i)).collect()
}

/// The run's state beside the systems.
#[derive(Default)]
struct Flags {
    lie: bool,
    /// The installed `Request` tap, whose forgeries no ask may survive.
    request: Option<Arc<ScriptedAdversary>>,
    loss: bool,
    retired: bool,
    /// A journal write failed, and the chain was this long after it: a
    /// node whose seal write failed lags the chain until the next seal
    /// that succeeds, which makes the chain longer.
    torn: Option<usize>,
    /// The pool indices of a batch whose cluster append was refused and
    /// stopped the cluster: a restart commits a prefix of them.
    doubt: Vec<usize>,
    /// Ops applied so far.
    step: usize,
    /// The next pool record to deposit.
    next: usize,
}

struct Run {
    pool: Vec<LogRecord>,
    /// Pool index of each committed deposit, in deposit order.
    deposited: Vec<usize>,
    central: CentralizedAuditor,
    systems: Vec<System>,
    dir: std::path::PathBuf,
    flags: Flags,
}

impl Drop for Run {
    fn drop(&mut self) {
        failpoint::disarm();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn attr<'a>(record: &'a LogRecord, name: &str) -> Option<&'a AttrValue> {
    record.get(&name.into())
}

fn time_of(record: &LogRecord) -> u64 {
    let Some(AttrValue::Time(t)) = attr(record, "time") else {
        unreachable!("generated records carry a time")
    };
    *t
}

fn tap(rule: Tap) -> Arc<ScriptedAdversary> {
    let every = |tag: u8, action: Tamper| TamperRule {
        from: None,
        to: None,
        tag: Some(tag),
        skip: 0,
        fires: u64::MAX,
        action,
    };
    let rules = match rule {
        DropDeposit(skip) => vec![TamperRule {
            skip,
            fires: 1,
            ..every(0x21, Tamper::Drop)
        }],
        Residue => vec![
            every(0x01, Tamper::Rewrite(plus_p)),
            every(0x02, Tamper::Rewrite(plus_p)),
        ],
        Request => {
            let mut foreign = Writer::new();
            foreign.put_u8(0x7f).put_u64(0);
            let foreign = Tamper::Replace(foreign.finish());
            let ask = |tag| every(tag, foreign.clone());
            vec![ask(0x70), ask(0x72), ask(0x73), ask(0x75)]
        }
        _ => vec![every(0x01, Tamper::Drop)],
    };
    // The DLA nodes, and the auditor engine (node NODES) for `Request`.
    let liars = if rule == Request {
        NODES..=NODES
    } else {
        0..=NODES - 1
    };
    let tap = liars.fold(ScriptedAdversary::new(), ScriptedAdversary::compromise);
    Arc::new(rules.into_iter().fold(tap, ScriptedAdversary::rule))
}

/// See [`Run::lies`].
fn lies(request: &Option<Arc<ScriptedAdversary>>) -> (usize, u64) {
    let forged = request.as_ref().map_or(0, |tap| tap.report().forged);
    (forged, RESIDUES.get())
}

/// The tag, the origin (∩ₛ) and the elements of a ∩ₛ/∪ₛ set frame on
/// `domain`, each element `k` big-endian words on the wire; `None` for
/// any other payload.
fn set_frame(domain: &CommutativeDomain, payload: &[u8]) -> Option<(u8, Option<u64>, Vec<Ubig>)> {
    let tag = *payload.first().filter(|&&tag| tag == 0x01 || tag == 0x02)?;
    let mut r = Reader::open(payload, tag).ok()?;
    let origin = (tag == 0x01).then(|| r.get_u64()).transpose().ok()?;
    let element = |r: &mut Reader<'_>| {
        let mut words = (0..domain.limbs())
            .map(|_| r.get_u64())
            .collect::<Result<Vec<u64>, _>>()?;
        words.reverse();
        Ok(Ubig::from_limbs(words))
    };
    let set = r.get_list(element).ok()?;
    r.finish().ok()?;
    Some((tag, origin, set))
}

/// `payload` with the first element X of its set frame for which
/// X + p still fits the domain's `k` words sent as X + p; any other
/// payload unchanged.
fn plus_p(payload: &[u8]) -> bytes::Bytes {
    let frame = || -> Option<bytes::Bytes> {
        let domain = CommutativeDomain::fixed_256();
        let (p, k) = (domain.modulus(), domain.limbs());
        let (tag, origin, mut set) = set_frame(&domain, payload)?;
        let x = set.iter_mut().find(|x| (&**x + p).bit_len() <= 64 * k)?;
        *x = &*x + p;
        RESIDUES.set(RESIDUES.get() + 1);
        cover(FIRED);
        let mut w = Writer::new();
        w.put_u8(tag);
        if let Some(origin) = origin {
            w.put_u64(origin);
        }
        w.put_list(&set, |w, x| {
            let mut words = x.limbs().to_vec();
            words.resize(k, 0);
            for &word in words.iter().rev() {
                w.put_u64(word);
            }
        });
        Some(w.finish())
    };
    frame().unwrap_or_else(|| bytes::Bytes::copy_from_slice(payload))
}

/// The tap every ring wears: an installed lie's verdict on each send,
/// and a look at every ∩ₛ/∪ₛ set frame no lie rewrote, bare or inside
/// a `Reliable` DATA frame — each of its elements must be a quadratic
/// residue mod p (Jacobi symbol 1), as every encoding and every layer
/// of the cipher leaves it.
#[derive(Debug)]
struct Watch {
    lie: Option<Arc<ScriptedAdversary>>,
    domain: CommutativeDomain,
}

impl Watch {
    fn look(&self, payload: &[u8]) {
        if let Some((tag, _, set)) = set_frame(&self.domain, payload) {
            let p = self.domain.modulus();
            if let Some(x) = set.iter().find(|x| jacobi(x, p) != 1) {
                let why = format!(
                    "a {tag:#04x} frame carries {} (Jacobi {})",
                    x.to_hex(),
                    jacobi(x, p)
                );
                NON_RESIDUE.with_borrow_mut(|first| first.get_or_insert(why).len());
            }
            return;
        }
        // A `Reliable` DATA frame: 0x01, its sequence number, the
        // checksum of what it carries, then that payload.
        let mut r = Reader::new(payload);
        let data = (r.get_u8().ok() == Some(0x01))
            .then(|| (r.get_u64().ok(), r.get_u64().ok(), r.get_bytes().ok()));
        if let Some((Some(_), Some(_), Some(inner))) = data {
            if r.finish().is_ok() {
                self.look(inner);
            }
        }
    }
}

impl Adversary for Watch {
    fn tamper(&self, session: SessionId, from: NodeId, to: NodeId, payload: &[u8]) -> Tamper {
        let verdict =
            (self.lie.as_ref()).map_or(Tamper::Pass, |lie| lie.tamper(session, from, to, payload));
        let unchanged = match &verdict {
            Tamper::Pass => true,
            action => (action.apply(&bytes::Bytes::copy_from_slice(payload)))
                .is_some_and(|sent| sent[..] == *payload),
        };
        if unchanged {
            self.look(payload);
        }
        verdict
    }

    fn observe(&self, session: SessionId, from: NodeId, to: NodeId, payload: &[u8]) {
        if let Some(lie) = &self.lie {
            lie.observe(session, from, to, payload);
        }
    }

    fn compromised(&self, node: NodeId) -> bool {
        self.lie.as_ref().is_some_and(|lie| lie.compromised(node))
    }
}

/// Puts a [`Watch`] on `ring`, with `lie` if any.
fn watch(ring: &DlaCluster, lie: Option<Arc<ScriptedAdversary>>) {
    let domain = ring.domain().clone();
    ring.set_adversary(Arc::new(Watch { lie, domain }));
}

/// Loss on `c`: drops and duplicates, on every door alike.
fn set_loss(c: &DlaCluster, on: bool) {
    let mut net = c.net();
    let faults = net.faults_mut();
    faults.drop_probability = if on { 0.05 } else { 0.0 };
    faults.duplicate_probability = if on { 0.05 } else { 0.0 };
}

/// What a restart must leave unchanged: accumulator, epoch folds, chain
/// head, per-node counts.
fn ledger_of(c: &DlaCluster) -> String {
    let epochs: Vec<_> = c.epoch_stats().map(|s| (&s.acc, s.sealed)).collect();
    let counts: Vec<_> = c.nodes().iter().map(|n| n.store().len()).collect();
    let head = c.checkpoint_chain().head_link();
    format!("{:?}", (c.trail_accumulator(), epochs, head, counts))
}

/// The digest a centralized evaluation gives `answer`, as
/// `FederatedQueryResult::answer_digest` defines it.
fn central_digest(answer: &BTreeSet<usize>) -> [u8; 32] {
    let indices: Vec<u8> = answer
        .iter()
        .flat_map(|&i| (i as u64).to_be_bytes())
        .collect();
    sha256::digest_parts(&[b"dla-federated-answer", &indices])
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn literal(rng: &mut StdRng, times: &[u64]) -> String {
    let op = pick(rng, &["<", "<=", ">", ">=", "=", "!="]);
    let eq = pick(rng, &["=", "!="]);
    let c1 = rng.gen_range(1..100);
    let c2 = rng.gen_range(100..100_000);
    let u = rng.gen_range(1..=USERS);
    match rng.gen_range(0..6) {
        0 => format!("c1 {op} {c1}"),
        1 => format!("c2 {op} {}.{:02}", c2 / 100, c2 % 100),
        2 => format!("id {op} 'U{u}'"),
        3 => format!("protocol {eq} 'UDP'"),
        4 => format!("id {eq} c3"),
        _ if times.is_empty() => format!("c1 {op} 50"),
        _ => format!("time {op} {}", pick(rng, times)),
    }
}

fn query(rng: &mut StdRng, times: &[u64]) -> &'static str {
    let mut q = literal(rng, times);
    for _ in 0..rng.gen_range(0..3) {
        let joint = pick(rng, &["AND", "OR"]);
        let not = pick(rng, &["", "", "", "NOT "]);
        q = format!("({q}) {joint} {not}{}", literal(rng, times));
    }
    Box::leak(q.into_boxed_str())
}

impl Run {
    fn new(h: &History) -> Result<Run, String> {
        failpoint::disarm();
        let workload = WorkloadConfig {
            records: POOL,
            users: USERS,
            ..WorkloadConfig::default()
        };
        let pool = generate(&workload, &mut StdRng::seed_from_u64(h.seed));
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let err = |e: dla_audit::AuditError| e.to_string();
        let thread = std::thread::current().id();
        let name = format!("dla-history-{}-{thread:?}-{}", std::process::id(), h.seed);
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut systems = Vec::new();
        if h.rings == 0 {
            let config = ClusterConfig::new(NODES, schema.clone())
                .with_partition(partition.clone())
                .with_seed(h.seed)
                .with_epoch_length(h.epoch)
                .with_standby_replication()
                .with_journal_dir(&dir);
            let mut c = DlaCluster::new(config.clone()).map_err(err)?;
            let user = c.register_user("u").map_err(err)?;
            systems.push(System {
                target: Target::Cluster(Box::new((c, user, config))),
                subs: Vec::new(),
                next_sub: 0,
                owed: false,
            });
        } else {
            for rings in [1, h.rings] {
                let config = FederationConfig::new(rings, NODES, schema.clone())
                    .with_partition(partition.clone())
                    .with_seed(h.seed)
                    .with_epoch_length(h.epoch)
                    .with_max_users(USERS);
                let mut fed = FederatedCluster::new(config).map_err(err)?;
                for u in 1..=USERS {
                    fed.register_user(&format!("U{u}")).map_err(err)?;
                }
                systems.push(System {
                    target: Target::Fed(Box::new(fed)),
                    subs: Vec::new(),
                    next_sub: 0,
                    owed: false,
                });
            }
        }
        for system in &systems {
            for ring in system.target.rings() {
                watch(ring, None);
            }
        }
        NON_RESIDUE.take();
        let mut central = CentralizedAuditor::new(schema, 1);
        central.register_user().map_err(err)?;
        Ok(Run {
            pool,
            deposited: Vec::new(),
            central,
            systems,
            dir,
            flags: Flags::default(),
        })
    }

    /// The reference answer to `q`, in deposit indices.
    fn reference(&mut self, q: &str) -> Result<BTreeSet<usize>, String> {
        let matched = self.central.query_text(q).map_err(|e| e.to_string())?;
        let order: Vec<Glsn> = self.central.read_everything().map(|(g, _)| *g).collect();
        let index = |g| order.binary_search(g).ok();
        Ok(matched.iter().filter_map(index).collect())
    }

    fn placement(&self, s: usize) -> Result<Placement, String> {
        let mut placed = vec![None; self.deposited.len()];
        let target = &self.systems[s].target;
        for (r, ring) in target.rings().into_iter().enumerate() {
            let policy = ring.trail().epoch_policy();
            for (k, g) in ring.logged_glsns().into_iter().enumerate() {
                let index = match target {
                    Target::Cluster(..) => Some(k),
                    Target::Fed(fed) => fed.deposit_index(g).map(|i| i as usize),
                };
                let slot = index.and_then(|i| placed.get_mut(i));
                let slot = slot.ok_or(format!("{ANSWERS}: {g} has no deposit index"))?;
                *slot = Some((r as u64, policy.epoch_of(g), g));
            }
        }
        let placed = placed.into_iter().collect::<Option<_>>();
        placed.ok_or(format!("{ANSWERS}: a committed deposit is in no ring"))
    }

    /// Whether an op's `Err` has an excuse: a lie, or loss on a door
    /// that is not `loss_proof`.
    fn excused(&self, loss_proof: bool) -> bool {
        self.flags.lie || (self.flags.loss && !loss_proof)
    }

    fn c1_total(&self, records: &BTreeSet<usize>) -> u64 {
        let c1 = |i: &usize| match attr(&self.pool[self.deposited[*i]], "c1") {
            Some(AttrValue::Int(v)) => *v as u64,
            _ => 0,
        };
        records.iter().map(c1).sum()
    }

    /// The next op, drawn against the state so far: time constants are
    /// deposited times ±1 and sealed epochs' last times.
    fn next_op(&self, rng: &mut StdRng, rings: usize) -> Op {
        let deposited = self.deposited.iter().map(|&i| time_of(&self.pool[i]));
        let mut times: Vec<u64> = deposited.flat_map(|t| [t - 1, t, t + 1]).collect();
        for ring in self.systems[0].target.rings() {
            times.extend(ring.trail().sealed_epochs().filter_map(|s| s.time_hi));
        }
        let n = rng.gen_range(1..=3);
        let cluster = rings == 0;
        // A batch of n makes 8n + 1 journal writes (the nodes', then the
        // cluster's), 8 more if it seals: half the failures hit a seal.
        let legs = 8 * n as u64 + 1;
        let leg = rng.gen_range(1..=legs);
        let seal = legs + rng.gen_range(1..=8u64);
        let k = pick(rng, &[leg, seal]);
        let q = query(rng, &times);
        let f = &self.flags;
        loop {
            return match rng.gen_range(0..21) {
                0..=4 => Deposit(n),
                // Under a `Request` lie, only the owner doors have an ask
                // to forge.
                5..=9 if f.request.is_some() => Ask(pick(rng, &[Sum, Owners]), q),
                5..=9 => Ask(pick(rng, &DOORS[..if cluster { 7 } else { 6 }]), q),
                10 if !times.is_empty() => {
                    let a = pick(rng, &times);
                    let b = pick(rng, &times);
                    Window(a.min(b), a.max(b))
                }
                11 | 12 => Register(q),
                13 => Loss(!f.loss),
                14 | 15 => {
                    let tap = match rng.gen_range(0..5) {
                        _ if f.lie => Clear,
                        0 if cluster => DropDeposit(rng.gen_range(0..4)),
                        1 => Residue,
                        2 if cluster => Request,
                        _ => DropData,
                    };
                    Lie(tap, rng.gen_range(0..rings.max(1)))
                }
                // A restart forgets retirements (DESIGN §9): no crash after one.
                16 | 17 if cluster && !f.retired => Fail(k, n),
                18 | 19 if cluster && !f.retired => Crash(k, rng.gen_bool(0.5), n),
                20 if cluster && !f.retired => Retire(rng.gen_range(0..NODES)),
                _ => continue,
            };
        }
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        let kind = format!("{op:?}");
        let cut = if let Ask(..) = op { ',' } else { '(' };
        cover(kind.split(cut).next().unwrap_or_default());
        if let Lie(tap, _) = op {
            cover(format!("{tap:?}").split('(').next().unwrap_or_default());
        }
        self.flags.step += 1;
        let lied = self.flags.lie;
        if let Loss(on) = op {
            self.flags.loss = *on;
        }
        for system in &self.systems {
            for ring in system.target.rings() {
                set_loss(ring, self.flags.loss);
            }
        }
        let batch: Vec<usize> = match op {
            Deposit(n) | Fail(_, n) | Crash(_, _, n) => (self.flags.next..POOL).take(*n).collect(),
            _ => Vec::new(),
        };
        if let Some(last) = batch.last() {
            self.flags.next = last + 1;
        }
        for s in 0..self.systems.len() {
            self.apply_to(s, op, &batch)?;
        }
        match op {
            Lie(tap, _) => self.flags.lie = *tap != Clear,
            Retire(_) => self.flags.retired = true,
            Fail(..) => {
                let rings = self.systems[0].target.rings();
                self.flags.torn = rings.first().map(|r| r.checkpoint_chain().iter().count());
            }
            Crash(..) => {
                self.flags.request = None;
                self.flags.lie = false;
                self.flags.loss = false;
                self.flags.torn = None;
            }
            _ => {}
        }
        for s in 0..self.systems.len() {
            self.systems[s].owed |= lied;
            self.check_state(s)?;
        }
        if let [one, many] = &self.systems[..] {
            let (Target::Fed(one), Target::Fed(many)) = (&one.target, &many.target) else {
                unreachable!("two systems are two federations")
            };
            let same = one.records_deposited() == many.records_deposited();
            ensure!(
                FEDERATED,
                same,
                "the topologies committed different deposits"
            );
        }
        Ok(())
    }

    /// Applies `op` to system `s`; the op's own answers are checked here.
    fn apply_to(&mut self, s: usize, op: &Op, batch: &[usize]) -> Result<(), String> {
        match (op, &mut self.systems[s].target) {
            (Deposit(_) | Fail(..) | Crash(..), Target::Cluster(..)) => self.deposit(s, op, batch),
            (Deposit(_), Target::Fed(fed)) => {
                // On a loss-free net, so that both topologies commit the
                // same records; only a lie excuses an error.
                for ring in fed.rings() {
                    set_loss(ring, false);
                }
                let mut failed = false;
                for &i in batch {
                    let record = &self.pool[i];
                    let Some(AttrValue::Text(user)) = attr(record, "id") else {
                        unreachable!("generated records carry an id")
                    };
                    if let Err(e) = fed.log_records(user, std::slice::from_ref(record)) {
                        ensure!(ANSWERS, self.flags.lie, "deposit: {e}");
                        failed = true;
                    }
                }
                self.systems[s].owed |= failed;
                self.commit(s, batch)
            }
            (Ask(Owners, q), Target::Cluster(..)) => self.owners(s, q),
            (Ask(Owners, _), Target::Fed(..)) => Ok(()),
            (Ask(door, q), _) => self.ask(s, *door, q).map(drop),
            (Window(lo, hi), _) => self.window(s, *lo, *hi),
            (Register(q), _) => self.register(s, q),
            (Retire(node), Target::Cluster(j)) => {
                let retired = j.0.rereplicate(&BTreeSet::from([*node]));
                let excused = self.excused(false);
                ensure!(ANSWERS, retired.is_ok() || excused, "{retired:?}");
                Ok(())
            }
            (Lie(Clear, _), target) => {
                for ring in target.rings() {
                    watch(ring, None);
                }
                self.flags.request = None;
                Ok(())
            }
            (Lie(rule, r), target) => {
                let rings = target.rings();
                let tap = tap(*rule);
                watch(rings[r % rings.len()], Some(tap.clone()));
                if *rule == Request {
                    self.flags.request = Some(tap);
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Logs `records` into the reference, once every system has them.
    fn commit(&mut self, s: usize, records: &[usize]) -> Result<(), String> {
        if s + 1 < self.systems.len() {
            return Ok(());
        }
        for &i in records {
            let logged = self.central.log_record(dla_net::NodeId(1), &self.pool[i]);
            logged.map_err(|e| e.to_string())?;
            self.deposited.push(i);
        }
        Ok(())
    }

    /// A cluster deposit: commits a prefix of the batch, all of it on `Ok`.
    fn deposit(&mut self, s: usize, op: &Op, batch: &[usize]) -> Result<(), String> {
        let Target::Cluster(j) = &mut self.systems[s].target else {
            unreachable!("a cluster deposits here")
        };
        let (c, user, _) = &mut **j;
        let records: Vec<LogRecord> = batch.iter().map(|&i| self.pool[i].clone()).collect();
        let before = c.logged_glsns();
        let links = c.checkpoint_chain().len();
        let stopped = c.stopped().is_some();
        // A batch of n makes 8n node writes, then the cluster's append.
        let f = &self.flags;
        let append = 8 * batch.len() as u64 + 1;
        let at_append = matches!(op, Fail(k, _) if *k == append && !f.loss && !f.lie);
        match op {
            Fail(k, _) | Crash(k, true, _) => failpoint::arm(*k, |len| len - 1),
            Crash(k, false, _) => failpoint::arm(*k, |_| 0),
            _ => {}
        }
        let logged = c.log_records(user, &records);
        failpoint::disarm();
        if let Crash(..) = op {
            return self.restart(s, &before, links, logged, batch);
        }
        let now = c.logged_glsns();
        let m = now.len().saturating_sub(before.len());
        let prefix = m <= batch.len() && now.starts_with(&before);
        ensure!(ANSWERS, prefix, "{before:?} then {now:?}");
        ensure!(ANSWERS, !stopped || m == 0, "a stopped cluster took {m}");
        match c.stopped() {
            Some(_) if !stopped => self.flags.doubt = batch[m..].to_vec(),
            None if at_append => ensure!(ANSWERS, false, "a refused append did not stop"),
            _ => {}
        }
        let sealed = c.checkpoint_chain().len() > links;
        let owed = &mut self.systems[s].owed;
        match &logged {
            Ok(acked) => {
                ensure!(ANSWERS, acked[..] == now[before.len()..], "{acked:?}");
                *owed &= !sealed || self.flags.lie;
            }
            Err(e) => {
                let excused =
                    self.flags.lie || self.flags.loss || stopped || matches!(op, Fail(..));
                ensure!(ANSWERS, excused, "deposit: {e}");
                *owed = true;
            }
        }
        self.commit(s, &batch[..m])
    }

    /// Registers `q`; only a lie or a stopped cluster excuses a refusal,
    /// which must leave nothing behind.
    fn register(&mut self, s: usize, q: &'static str) -> Result<(), String> {
        let lie = self.flags.lie;
        let system = &mut self.systems[s];
        let id = StandingQueryId(system.next_sub);
        let mut stopped = false;
        let (registered, known) = match &mut system.target {
            Target::Cluster(j) => {
                stopped = j.0.stopped().is_some();
                (j.0.register_standing(q), j.0.standing_matches(id).is_some())
            }
            Target::Fed(fed) => (fed.register_standing(q), fed.standing_matches(id).is_some()),
        };
        // A cluster's ids are never reused, but a stopped cluster takes
        // none; a federation's refusal takes none.
        let cluster = matches!(system.target, Target::Cluster(..));
        if cluster && !stopped || registered.is_ok() {
            system.next_sub += 1;
        }
        match registered {
            Ok(got) => {
                ensure!(STANDING, got == id, "{got} for {id}");
                system.subs.push((id, q, Vec::new()));
                system.owed &= lie;
            }
            Err(e) => {
                ensure!(STANDING, lie || stopped, "register {q}: {e}");
                ensure!(STANDING, !known, "refused {id} still answers");
                system.owed = true;
            }
        }
        Ok(())
    }

    /// Dies at the op's failed write, then restarts twice.
    fn restart(
        &mut self,
        s: usize,
        before: &[Glsn],
        links: usize,
        logged: Result<Vec<Glsn>, dla_audit::AuditError>,
        batch: &[usize],
    ) -> Result<(), String> {
        let old = self.systems.remove(s);
        let Target::Cluster(j) = old.target else {
            unreachable!("only a cluster crashes")
        };
        let (c, user, config) = *j;
        let chain_of = |c: &DlaCluster| c.checkpoint_chain().iter().cloned().collect::<Vec<_>>();
        let at_drop = chain_of(&c);
        drop(c);
        let restart = || DlaCluster::new(config.clone()).map_err(|e| format!("{RESTART}: {e}"));
        let ledger = ledger_of(&restart()?);
        let c = restart()?;
        watch(&c, None);
        ensure!(
            RESTART,
            ledger_of(&c) == ledger,
            "a second restart moved the ledger"
        );
        let now = c.logged_glsns();
        // What a refused append left in doubt comes before the batch.
        let pending = [std::mem::take(&mut self.flags.doubt), batch.to_vec()].concat();
        let kept = now.starts_with(before) && now.len() <= before.len() + pending.len();
        ensure!(RESTART, kept, "{before:?} acked, {now:?} kept");
        if let Ok(acked) = &logged {
            ensure!(RESTART, now[before.len()..] == acked[..], "{acked:?} acked");
        }
        let chain = chain_of(&c);
        // A crash after the op's last write is a clean restart.
        let prefix = chain.len() >= links && chain.iter().zip(&at_drop).all(|(a, b)| a == b);
        let agree = prefix && (logged.is_err() || chain == at_drop);
        ensure!(RESTART, agree, "{links} links, then {}", chain.len());
        // The standing registry is not durable: each subscription
        // registers again, and its catch-up pays every sealed epoch.
        let restarted = System {
            target: Target::Cluster(Box::new((c, user, config))),
            subs: Vec::new(),
            next_sub: 0,
            owed: false,
        };
        self.systems.insert(s, restarted);
        for (_, q, _) in old.subs {
            self.register(s, q)?;
        }
        self.commit(s, &pending[..now.len() - before.len()])
    }

    /// Asks `q` through `door` of system `s`.
    fn answer(&mut self, s: usize, door: Door, q: &str) -> Result<Result<Answer, String>, String> {
        let placed = self.placement(s)?;
        let index = index_of(&placed);
        let indices = |glsns: &[Glsn]| -> Result<BTreeSet<usize>, String> {
            let at = |g: &Glsn| {
                let unknown = || format!("{ANSWERS}: {g} is no committed deposit");
                index.get(g).copied().ok_or_else(unknown)
            };
            glsns.iter().map(at).collect()
        };
        let c1 = &"c1".into();
        let policy = &ResilientPolicy::default();
        let reply = |set, count, sum| Answer {
            set,
            count,
            sum,
            digest: None,
        };
        let fed = match &mut self.systems[s].target {
            Target::Fed(fed) => fed,
            Target::Cluster(j) => {
                let c = &mut j.0;
                let r = match door {
                    Criteria => c.query_criteria(&door!(dla_audit::parser::parse(q, c.schema()))),
                    Shared => c.query_shared(q),
                    Resilient => c.query_resilient(q, policy).map(|o| o.result),
                    Reliable => c.compile(q).and_then(|plan| {
                        // A cold run: nothing the engine kept is served.
                        c.kept().clear();
                        let reliable = dla_net::Reliable::new(c.shared_net());
                        let seed = self.flags.step as u64;
                        execute_on(c, &reliable, &plan, true, ExecMode::Concurrent, seed)
                    }),
                    Count => {
                        let count = door!(count_matching(c, q)).count;
                        return Ok(Ok(reply(None, count, None)));
                    }
                    Sum => {
                        let sum = door!(sum_matching(c, q, c1));
                        return Ok(Ok(reply(None, sum.count, Some(sum.total))));
                    }
                    Owners => unreachable!("asked in `owners`"),
                };
                let r = door!(r);
                // One session per subquery, on the cold run.
                let sessions = (r.sessions.len(), r.plan.subqueries.len());
                let one_each = door != Reliable || sessions.0 == sessions.1;
                ensure!(ANSWERS, one_each, "{sessions:?} sessions");
                return Ok(Ok(reply(Some(indices(&r.glsns)?), r.cardinality, None)));
            }
        };
        let r = match door {
            Criteria | Shared => fed.query(q),
            Resilient | Reliable => fed.query_resilient(q, policy),
            Count => {
                let count = door!(fed.count(q)).count as usize;
                return Ok(Ok(reply(None, count, None)));
            }
            Sum => {
                let sum = door!(fed.sum(q, c1));
                return Ok(Ok(reply(None, sum.count, Some(sum.total))));
            }
            Owners => unreachable!("a federation is not asked through `Owners`"),
        };
        let r = door!(r);
        let records = r.records.iter().map(|&i| i as usize).collect();
        Ok(Ok(Answer {
            set: Some(records),
            count: r.cardinality,
            sum: None,
            digest: Some(r.answer_digest()),
        }))
    }

    /// Asks `q` and checks the answer; returns the set a door revealed.
    fn ask(&mut self, s: usize, door: Door, q: &str) -> Result<Option<BTreeSet<usize>>, String> {
        let expect = self.reference(q)?;
        let excused = self.excused(matches!(door, Resilient | Reliable));
        let lies = self.lies();
        let answer = self.answer(s, door, q)?;
        let refused = self.lies() == lies || answer.is_err();
        ensure!(ANSWERS, refused, "{door:?} {q}: answered over a lie");
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                ensure!(ANSWERS, excused, "{door:?} {q}: {e}");
                return Ok(None);
            }
        };
        let Answer {
            set,
            count,
            sum,
            digest,
        } = answer;
        let name = if set.is_some() { ANSWERS } else { AGGREGATES };
        let right_set = set.as_ref().is_none_or(|set| *set == expect);
        let right_sum = sum.is_none_or(|sum| sum == self.c1_total(&expect));
        let right = right_set && count == expect.len() && right_sum;
        ensure!(name, right, "{door:?} {q}: {set:?} {count} {sum:?}");
        // Each topology's digest is the centralized answer's.
        if let Some(digest) = digest {
            let central = digest == central_digest(&expect);
            ensure!(
                FEDERATED,
                central,
                "{door:?} {q}: not the centralized digest"
            );
        }
        Ok(set)
    }

    /// The lies told so far: owner asks the `Request` tap replaced and
    /// set elements the `Residue` tap sent as X + p. A call that met
    /// one must fail — an owner answers the frame it was sent, not the
    /// ask the auditor meant, and a set element has one encoding.
    fn lies(&self) -> (usize, u64) {
        lies(&self.flags.request)
    }

    /// The `Owners` door on cluster `s`: `correlate::detect` over the
    /// matches of `q`, in windows of [`WINDOW`] with at least two
    /// events from two sources, and `verify_transaction` of the tid of
    /// the first match (or deposit) with every rule drawn from the
    /// reference — each against what the records say.
    fn owners(&mut self, s: usize, q: &str) -> Result<(), String> {
        let expect = self.reference(q)?;
        let excused = self.excused(false);
        let placed = self.placement(s)?;
        let index = index_of(&placed);
        let record = |i: &usize| &self.pool[self.deposited[*i]];
        let text = |r: &LogRecord, name| match attr(r, name) {
            Some(AttrValue::Text(v)) => v.clone(),
            _ => unreachable!("generated records carry {name}"),
        };
        // The reference alerts: (window, events, sources, records).
        let mut windows: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for i in &expect {
            windows
                .entry(time_of(record(i)) / WINDOW)
                .or_default()
                .push(*i);
        }
        let alerts: Vec<(u64, usize, usize, BTreeSet<usize>)> = windows
            .into_iter()
            .map(|(w, members)| {
                let ids: BTreeSet<String> = members.iter().map(|i| text(record(i), "id")).collect();
                (
                    w * WINDOW,
                    members.len(),
                    ids.len(),
                    members.into_iter().collect(),
                )
            })
            .filter(|a| a.1 >= 2 && a.2 >= 2)
            .collect();
        // The tid's records and the spec whose every rule they meet.
        let first = expect
            .first()
            .or_else(|| (!self.deposited.is_empty()).then_some(&0));
        let tid = first.map(|i| text(record(i), "tid"));
        let of_tid: Vec<&LogRecord> = (0..self.deposited.len())
            .map(|i| record(&i))
            .filter(|r| tid.as_ref().is_some_and(|t| text(r, "tid") == *t))
            .collect();
        let times: Vec<u64> = of_tid.iter().map(|r| time_of(r)).collect();
        let span = times
            .iter()
            .max()
            .zip(times.iter().min())
            .map_or(0, |(hi, lo)| hi - lo);
        let ids: BTreeSet<String> = of_tid.iter().map(|r| text(r, "id")).collect();
        let total: u64 = (of_tid.iter())
            .map(|r| match attr(r, "c1") {
                Some(AttrValue::Int(v)) => *v as u64,
                _ => 0,
            })
            .sum();
        let spec = TransactionSpec::new("history")
            .with_rule(Rule::EventCount {
                op: CmpOp::Eq,
                expected: of_tid.len() as u64,
            })
            .with_rule(Rule::TotalVolume {
                attr: "c1".into(),
                op: CmpOp::Le,
                limit: total,
            })
            .with_rule(Rule::MaxDuration { seconds: span })
            .with_rule(Rule::MinDistinctExecutors { count: ids.len() })
            .with_rule(Rule::AllowedExecutors {
                ids: ids.into_iter().collect(),
            });
        let rule = CorrelationRule {
            name: "history".into(),
            event_criteria: q.into(),
            window_seconds: WINDOW,
            min_events: 2,
            min_sources: 2,
        };
        let Target::Cluster(j) = &mut self.systems[s].target else {
            unreachable!("a federation has no owner door here")
        };
        let c = &mut j.0;
        let request = self.flags.request.clone();
        let before = lies(&request);
        let detected = detect(c, &rule);
        let between = lies(&request);
        let verified = tid.map(|tid| verify_transaction(c, &TransactionId::new(&tid), &spec));
        let after = lies(&request);
        let answered = (
            detected.is_ok(),
            verified.as_ref().is_some_and(Result::is_ok),
        );
        ensure!(
            ANSWERS,
            !(between != before && answered.0),
            "detect answered over a lie"
        );
        ensure!(
            ANSWERS,
            !(after != between && answered.1),
            "verify answered over a lie"
        );
        match detected {
            Ok(got) => {
                let got: Vec<_> = (got.iter())
                    .map(|a| {
                        let records = a.glsns.iter().map(|g| index.get(g).copied());
                        let records: Option<BTreeSet<usize>> = records.collect();
                        (
                            a.window_start,
                            a.events,
                            a.sources,
                            records.unwrap_or_default(),
                        )
                    })
                    .collect();
                ensure!(
                    ANSWERS,
                    got == alerts,
                    "detect {q}: {got:?}, expected {alerts:?}"
                );
            }
            Err(e) => ensure!(ANSWERS, excused, "detect {q}: {e}"),
        }
        if let Some(verified) = verified {
            match verified {
                Ok(report) => {
                    let failed: Vec<_> = report.verdicts.iter().filter(|v| !v.ok).collect();
                    ensure!(ANSWERS, failed.is_empty(), "verify: {failed:?}");
                }
                Err(e) => ensure!(ANSWERS, excused, "verify: {e}"),
            }
        }
        Ok(())
    }

    /// Both aggregate paths over [lo, hi] against the records, and two
    /// pairs of adjoining windows, each of which partitions the trail.
    fn window(&mut self, s: usize, lo: u64, hi: u64) -> Result<(), String> {
        let excused = self.excused(false);
        let mut window = TimeWindow::unbounded();
        window.lo = Some(lo);
        window.hi = Some(hi);
        let bucket = &"protocol".into();
        let c1 = Some(&"c1".into());
        for value in ["UDP", "TCP"] {
            let inside: BTreeSet<usize> = (0..self.deposited.len())
                .filter(|&i| {
                    let r = &self.pool[self.deposited[i]];
                    let t = time_of(r);
                    attr(r, "protocol") == Some(&AttrValue::text(value)) && window.covers(t, t)
                })
                .collect();
            let mut paths = vec![(inside.len() as u64, self.c1_total(&inside) as i64)];
            for path in [Cached, Rescan] {
                let mut total = (0, 0);
                for ring in self.systems[s].target.rings() {
                    match windowed_bucket_aggregate(ring, bucket, value, c1, &window, path) {
                        Ok(a) => total = (total.0 + a.count, total.1 + a.sum.unwrap_or(0)),
                        Err(e) => {
                            ensure!(AGGREGATES, excused, "{path:?} {value}: {e}");
                            return Ok(());
                        }
                    }
                }
                paths.push(total);
            }
            let same = paths.windows(2).all(|w| w[0] == w[1]);
            ensure!(AGGREGATES, same, "{value} [{lo}, {hi}]: {paths:?}");
        }
        for (below, above, t) in [("<=", ">", hi), ("<", ">=", lo)] {
            let below = self.ask(s, Criteria, &format!("time {below} {t}"))?;
            let above = self.ask(s, Criteria, &format!("time {above} {t}"))?;
            if let (Some(b), Some(a)) = (below, above) {
                let parts = b.is_disjoint(&a) && b.len() + a.len() == self.deposited.len();
                ensure!(ANSWERS, parts, "at {t}: {b:?} and {a:?}");
            }
        }
        Ok(())
    }

    /// The invariants on state, after every op.
    fn check_state(&mut self, s: usize) -> Result<(), String> {
        let found = NON_RESIDUE.take();
        ensure!(RESIDUE, found.is_none(), "{}", found.unwrap_or_default());
        let lie = self.flags.lie;
        let owed = self.systems[s].owed || lie;
        let placed = self.placement(s)?;
        let mut sealed: Vec<Vec<EpochId>> = Vec::new();
        for ring in self.systems[s].target.rings() {
            let epochs: Vec<EpochId> = ring.trail().sealed_epochs().map(|e| e.epoch).collect();
            let chain = ring.checkpoint_chain().iter();
            let chained: Vec<EpochId> = chain.map(|c| EpochId(c.epoch)).collect();
            let at = |n: &DlaNode| chained.iter().all(|&e| n.store().is_sealed(e));
            let lags = self.flags.torn == Some(chained.len());
            let ok = epochs == chained && (lags || ring.nodes().iter().all(at));
            ensure!(SEALED, ok, "{epochs:?}, {chained:?}");
            let verdict = check_window(ring, &TimeWindow::unbounded());
            ensure!(SEALED, lie || verdict.ok && verdict.chain_ok, "{verdict:?}");
            sealed.push(epochs);
            // The meta trail holds, and each of its deposit records since
            // the last restart names a deposit the trail holds, once.
            let meta = ring.meta_audit();
            ensure!(META, meta.verify().is_ok(), "{:?}", meta.verify());
            let mut named = BTreeSet::new();
            for record in meta.records().iter().filter(|r| r.action == "deposit") {
                let hex = record.detail.strip_prefix("glsn=");
                let glsn = hex.and_then(|d| u64::from_str_radix(d.split(' ').next()?, 16).ok());
                let once = glsn.is_some_and(|g| ring.deposit(Glsn(g)).is_some() && named.insert(g));
                ensure!(META, once, "{}", record.detail);
            }
        }
        if let Target::Fed(fed) = &mut self.systems[s].target {
            let root = fed.check_root().ok() && fed.verify_presented(fed.published());
            ensure!(FEDERATED, root, "the root does not check");
            if !lie {
                let swept = fed.publish_checkpoints().map_err(|e| e.to_string())?;
                ensure!(FEDERATED, swept == 0 || owed, "{swept} left to sweep");
            }
            let published: u64 = fed.published().iter().map(|p| p.checkpoint.items).sum();
            let chains = fed.rings().iter().flat_map(|r| r.checkpoint_chain().iter());
            let items: u64 = chains.map(|c| c.items).sum();
            ensure!(
                FEDERATED,
                lie || published == items,
                "{published} of {items}"
            );
        }
        let index = index_of(&placed);
        let indexed = |g: &Glsn| index.get(g).copied().unwrap_or(usize::MAX);
        let mut subs = std::mem::take(&mut self.systems[s].subs);
        let mut told_of: BTreeMap<&str, Vec<Vec<usize>>> = BTreeMap::new();
        for (id, q, told) in &mut subs {
            let matches: Option<Vec<usize>> = match &mut self.systems[s].target {
                Target::Cluster(j) => {
                    let c = &mut j.0;
                    let records = |d: &[Glsn]| d.iter().map(indexed).collect();
                    for delta in c.standing_deltas(*id) {
                        told.push((0, delta.epoch, records(&delta.glsns)));
                    }
                    c.standing_matches(*id).map(|m| records(&m))
                }
                Target::Fed(fed) => {
                    let records = |d: &[u64]| d.iter().map(|&i| i as usize).collect();
                    let told_at =
                        |d: &FederatedStandingDelta| (d.ring, d.epoch, records(&d.records));
                    *told = fed.standing_deltas(*id).iter().map(told_at).collect();
                    fed.standing_matches(*id).map(|m| records(&m))
                }
            };
            let expect = self.reference(q)?;
            for (r, sealed) in sealed.iter().enumerate() {
                let of_ring = told.iter().filter(|t| t.0 == r as u64);
                let epochs: Vec<EpochId> = of_ring.map(|t| t.1).collect();
                let paid = sealed.starts_with(&epochs) && (owed || epochs.len() == sealed.len());
                ensure!(STANDING, paid, "{id} told {r}: {epochs:?} of {sealed:?}");
            }
            for (r, epoch, records) in told.iter() {
                let at = |i: &&usize| (placed[**i].0, placed[**i].1) == (*r, *epoch);
                let fresh: Vec<usize> = expect.iter().filter(at).copied().collect();
                ensure!(STANDING, *records == fresh, "{id} {q} {epoch}: {records:?}");
            }
            let union: BTreeSet<usize> = told.iter().flat_map(|t| t.2.iter().copied()).collect();
            let union = Some(union.into_iter().collect());
            ensure!(STANDING, matches == union, "{id} matches {matches:?}");
            let all = told.iter().flat_map(|t| t.2.clone()).collect();
            told_of.entry(q).or_default().push(all);
        }
        self.systems[s].subs = subs;
        for told in told_of.values() {
            let late_is_early = owed || told.windows(2).all(|w| w[0] == w[1]);
            ensure!(STANDING, late_is_early, "one query told {told:?}");
        }
        Ok(())
    }
}

/// Runs `f`, a panic inside it an `Err` like any broken invariant.
fn catch(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    caught.unwrap_or_else(|p| Err(format!("panic: {:?}", p.downcast_ref::<String>())))
}

fn replay(h: &History) -> Result<(), String> {
    catch(|| {
        let mut run = Run::new(h)?;
        for op in &h.ops {
            run.apply(op).map_err(|e| format!("{e}\n  at {op:?}"))?;
        }
        Ok(())
    })
}

/// Generates and runs history `seed`, op by op.
fn explore(seed: u64) -> Result<(), (History, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rings = [0, 0, 2, 0, 0, 3][seed as usize % 6];
    let mut h = History {
        seed,
        epoch: pick(&mut rng, &[2, 3, 1 << 40]),
        rings,
        ops: Vec::new(),
    };
    let outcome = catch(|| {
        let mut run = Run::new(&h)?;
        for _ in 0..OPS {
            let op = run.next_op(&mut rng, rings);
            h.ops.push(op);
            run.apply(&op)?;
        }
        Ok(())
    });
    outcome.map_err(|e| (h, e))
}

/// Drops ops one at a time while the same invariant still fails, then
/// panics with the shrunk history as a replayable literal.
fn refute(mut h: History, mut why: String) -> ! {
    let name = why.split(':').next().unwrap_or_default().to_string();
    let mut shrinking = true;
    while shrinking {
        shrinking = false;
        for i in (0..h.ops.len()).rev() {
            let mut smaller = h.clone();
            smaller.ops.remove(i);
            if let Err(e) = replay(&smaller) {
                if e.starts_with(&name) {
                    h = smaller;
                    why = e;
                    shrinking = true;
                }
            }
        }
    }
    let ops = format!("{:?}", h.ops);
    let (seed, epoch, rings) = (h.seed, h.epoch, h.rings);
    panic!(
        "{why}\nshrunk: History {{ seed: {seed}, epoch: {epoch}, rings: {rings}, ops: vec!{ops} }}"
    )
}

#[test]
fn generated_histories_hold_every_invariant() {
    let worker = |w: u64| {
        move || {
            for seed in (w..CASES).step_by(2) {
                if let Err((h, why)) = explore(seed) {
                    refute(h, why);
                }
            }
            COVERED.take()
        }
    };
    let mut covered = Coverage::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2).map(|w| scope.spawn(worker(w))).collect();
        for w in workers {
            let some = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (kind, n) in some {
                *covered.entry(kind).or_default() += n;
            }
        }
    });
    let doors = DOORS.map(|d| format!("Ask({d:?}"));
    let ops = [
        "Deposit",
        "Window",
        "Register",
        "Retire",
        "Loss",
        "Lie",
        "Fail",
        "Crash",
        "DropData",
        "DropDeposit",
        "Residue",
        FIRED,
        "Request",
    ];
    let invariants = [
        ANSWERS, AGGREGATES, STANDING, SEALED, RESTART, FEDERATED, META, RESIDUE,
    ];
    let kinds = doors
        .iter()
        .map(String::as_str)
        .chain(ops)
        .chain(invariants);
    for kind in kinds {
        let ran = covered.get(kind).is_some_and(|&n| n > 0);
        assert!(ran, "{kind} never ran: {covered:?}");
    }
}

/// The seam rows: each is the shrunk history the checker printed for a
/// defect put back on purpose, named after the regression test that pins
/// it, or for a defect it found, which is fixed.
#[test]
fn seam_rows_hold() {
    let rows = [
        (
            "a_deposit_after_a_retirement_lands_where_queries_read",
            History {
                seed: 1,
                epoch: 1 << 40,
                rings: 0,
                ops: vec![
                    Retire(0),
                    Deposit(2),
                    Ask(Reliable, "(time <= 1021233806) AND c1 <= 49"),
                ],
            },
        ),
        (
            "a_write_that_fails_once_leaves_a_journal_that_restarts",
            History {
                seed: 25,
                epoch: 2,
                rings: 0,
                ops: vec![Deposit(3), Fail(19, 2), Crash(12, true, 1)],
            },
        ),
        (
            "a_standing_delta_that_fails_at_a_seal_is_paid_at_the_next_one",
            History {
                seed: 15,
                epoch: 2,
                rings: 0,
                ops: vec![Deposit(2), Deposit(3), Register("c2 = 314.40")],
            },
        ),
        (
            "a_refused_registration_leaves_nothing_behind",
            History {
                seed: 13,
                epoch: 2,
                rings: 0,
                ops: vec![
                    Lie(DropData, 0),
                    Deposit(3),
                    Register("(c2 < 729.89) OR c2 != 579.94"),
                ],
            },
        ),
        (
            "a_delta_that_fails_at_a_ring_seal_is_relayed_after_the_next_one",
            History {
                seed: 26,
                epoch: 2,
                rings: 2,
                ops: vec![
                    Register("(protocol = 'UDP') OR c1 != 66"),
                    Lie(DropData, 0),
                    Deposit(3),
                ],
            },
        ),
        (
            "a_node_whose_seal_write_failed_is_sealed_by_the_next_seal",
            History {
                seed: 1,
                epoch: 2,
                rings: 0,
                ops: vec![Deposit(1), Fail(22, 2), Deposit(2)],
            },
        ),
        (
            "a_deposit_whose_rollback_write_fails_is_never_answered",
            History {
                seed: 13,
                epoch: 2,
                rings: 0,
                ops: vec![Fail(8, 1), Ask(Resilient, "id != c3")],
            },
        ),
        (
            "a_replayed_seal_never_counts_an_uncommitted_fragment",
            History {
                seed: 31,
                epoch: 2,
                rings: 0,
                ops: vec![Fail(3, 3), Crash(28, false, 2)],
            },
        ),
        (
            "a_refused_cluster_append_stops_every_write_until_a_restart",
            History {
                seed: 1,
                epoch: 2,
                rings: 0,
                ops: vec![
                    Deposit(1),
                    Fail(17, 2),
                    Register("c1 > 30"),
                    Deposit(1),
                    Ask(Criteria, "c1 > 30"),
                    Crash(9, false, 1),
                    Deposit(1),
                ],
            },
        ),
        (
            "a_torn_node_append_is_cut_back_before_the_next_write",
            History {
                seed: 1,
                epoch: 1 << 40,
                rings: 0,
                ops: vec![Fail(2, 2), Crash(9, true, 1)],
            },
        ),
        (
            "a_duplicate_left_by_one_ask_poisons_the_next_on_a_clean_net",
            History {
                seed: 26,
                epoch: 2,
                rings: 2,
                ops: vec![
                    Loss(true),
                    Ask(
                        Resilient,
                        "((protocol != 'UDP') OR c2 < 338.40) AND NOT c1 >= 73",
                    ),
                    Ask(Sum, "(id != c3) AND protocol = 'UDP'"),
                    Loss(false),
                    Ask(Sum, "protocol = 'UDP'"),
                ],
            },
        ),
        (
            "an_adopter_compares_its_own_and_adopted_attributes",
            History {
                seed: 24,
                epoch: 1 << 40,
                rings: 0,
                ops: vec![
                    Deposit(1),
                    Retire(1),
                    Ask(Criteria, "((id != c3) AND time < 1021233762) OR id = c3"),
                ],
            },
        ),
        (
            "a_repair_without_a_copy_retires_nothing",
            History {
                seed: 858,
                epoch: 3,
                rings: 0,
                ops: vec![
                    Deposit(3),
                    Loss(true),
                    Lie(DropData, 0),
                    Ask(Resilient, "(c2 != 646.67) OR id != c3"),
                    Lie(Clear, 0),
                    Ask(Count, "(protocol = 'UDP') AND NOT id < 'U3'"),
                ],
            },
        ),
        (
            "a_federated_repair_without_a_copy_retires_nothing",
            History {
                seed: 725,
                epoch: 3,
                rings: 3,
                ops: vec![
                    Loss(true),
                    Lie(DropData, 1),
                    Deposit(3),
                    Ask(Reliable, "c2 < 187.79"),
                    Window(1021233688, 1021233952),
                ],
            },
        ),
    ];
    let mut broken = Vec::new();
    for (name, h) in rows {
        if let Err(why) = replay(&h) {
            broken.push(format!("{name}: {why}\n{h:?}"));
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

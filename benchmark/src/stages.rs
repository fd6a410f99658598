//! The measured stages every workload is built from — ingest, store
//! acks, restore, queries, MPC sessions, integrity checks — each
//! timing one closed-loop client op by op and checking every answer
//! against an oracle computed outside the timed span.
//!
//! An op *fails* when it returns an error or its answer differs from
//! the oracle; a failed op contributes no latency sample.

use crate::mesh::{node_key, NODES};
use crate::stats::{classify_deposit, DepositKind};
use dla_audit::centralized::CentralizedAuditor;
use dla_audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use dla_audit::exec::{execute_on, ExecMode};
use dla_audit::integrity::{check_trail, check_window};
use dla_audit::plan::TimeWindow;
use dla_bigint::field::P61;
use dla_bigint::{Ubig, F61};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{format_paper_time, AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_mpc::{EqualitySession, RankingSession, SumSession};
use dla_net::tcp::TcpNet;
use dla_net::wire::crc32;
use dla_net::{ChannelNet, NodeId, Session, SessionId, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Glsns per trail epoch, everywhere in the benchmark.
pub const EPOCH_LEN: u64 = 64;

/// The three query shapes, in equal shares: the mixed median falls in
/// the middle class and the tail in the top class, so both repeat.
pub const SHAPES: [(&str, &str); 3] = [
    ("and2", "c1 > 30 AND id = 'U1'"),
    ("or2", "c1 > 40 OR id = 'U2'"),
    (
        "cnf4",
        "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
         AND (tid = 'T2' OR c2 > 100.00) AND id != c3",
    ),
];

/// The three session kinds, in equal shares.
pub const SESSION_KINDS: [&str; 3] = ["sum", "equality", "ranking"];

/// Session ids of the harness's own MPC sessions: far above the small
/// ids the query executor allocates on the cluster's network.
const SESSION_BASE: u64 = 0x4000_0000;

/// The generated log: the only thing the program sees of the seed.
pub fn records(seed: u64, count: usize) -> Vec<LogRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(
        &WorkloadConfig {
            records: count,
            ..WorkloadConfig::default()
        },
        &mut rng,
    )
}

fn record_time(record: &LogRecord) -> u64 {
    match record.get(&"time".into()) {
        Some(AttrValue::Time(t)) => *t,
        other => panic!("generated records carry a time, found {other:?}"),
    }
}

/// Nanoseconds since the harness clock's origin, for span timestamps.
fn now_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Origin of the harness clock (first use).
static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Runs `f` inside a harness-side wall-clock span named `name` when a
/// telemetry recorder is installed (the traced pass); a plain call
/// otherwise (a `format_args!` name is then never rendered). Spans nest
/// by call order; the category tells them from the program's own
/// virtual-time spans.
pub fn span<R>(name: impl std::fmt::Display, f: impl FnOnce() -> R) -> R {
    if !dla_telemetry::is_active() {
        return f();
    }
    let origin = *ORIGIN.get_or_init(Instant::now);
    let guard = dla_telemetry::span(HARNESS_SPANS, &name.to_string(), now_ns(origin));
    let out = f();
    guard.end(now_ns(origin));
    out
}

/// Category of the harness's spans.
pub const HARNESS_SPANS: &str = "harness";

/// The transport a stage's protocol traffic rides.
#[derive(Clone, Copy)]
pub enum Wire<'a> {
    Channel(&'a ChannelNet),
    Tcp(&'a TcpNet),
}

impl<'a> Wire<'a> {
    pub fn transport(self) -> &'a (dyn Transport + Sync) {
        match self {
            Wire::Channel(net) => net,
            Wire::Tcp(net) => net,
        }
    }

    /// `(messages, payload bytes)` handed to the transport so far.
    pub fn sent(self) -> (u64, u64) {
        let stats = match self {
            Wire::Channel(net) => net.stats(),
            Wire::Tcp(net) => net.stats(),
        };
        (stats.messages_sent, stats.bytes_sent)
    }
}

/// Everything a run measured, op class by op class.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of each deposit that sealed no epoch.
    pub deposit_ms: Vec<f64>,
    /// Latency of every deposit of the stream in order, seal samples
    /// included: what `deposits_per_s` is taken over.
    pub deposit_stream_ms: Vec<f64>,
    /// Latency of each deposit during which an epoch sealed.
    pub seal_ms: Vec<f64>,
    /// `(shape index, latency)` of each query.
    pub query_ms: Vec<(usize, f64)>,
    /// Payload bytes the query stage handed to its transport.
    pub query_wire_bytes: u64,
    /// Messages the query stage handed to its transport.
    pub query_messages: u64,
    /// `(kind index, latency)` of each MPC session.
    pub session_ms: Vec<(usize, f64)>,
    /// Latency of each `check_window`.
    pub audit_ms: Vec<f64>,
    /// Seconds to reopen a cluster from its journals.
    pub restore_s: Vec<f64>,
    /// Records each restore replayed.
    pub restored_records: u64,
    /// Bytes all journals grew by, over the deposits that grew them.
    pub journal_bytes: u64,
    pub journal_deposits: u64,
    /// Bytes the node journals alone grew by (fragment + ACL frames).
    pub node_journal_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Samples {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Files a deposit stream: the plain samples feed the percentiles,
    /// the throughput counts the seals that interrupted them as well.
    pub fn file_deposits(&mut self, ingested: &Ingested) {
        self.deposit_ms.extend_from_slice(&ingested.plain_ms);
        self.deposit_stream_ms.extend_from_slice(&ingested.all_ms);
    }

    /// Seconds spent inside timed ops (the closed loop's busy time; the
    /// harness's own bookkeeping and untimed loads are not in it).
    pub fn op_seconds(&self) -> f64 {
        let ms: f64 = self
            .deposit_stream_ms
            .iter()
            .chain(self.query_ms.iter().map(|(_, ms)| ms))
            .chain(self.session_ms.iter().map(|(_, ms)| ms))
            .chain(&self.audit_ms)
            .sum();
        ms / 1e3 + self.restore_s.iter().sum::<f64>()
    }

    /// Counts one attempted check that is not an op with a latency.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(what());
        }
    }
}

/// The benchmark's cluster shape: 4 DLA nodes, the paper's schema and
/// partition, 64-glsn epochs; journal-backed when `journal_dir` is set.
pub fn cluster_config(seed: u64, journal_dir: Option<PathBuf>) -> ClusterConfig {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(NODES, schema)
        .with_partition(partition)
        .with_seed(seed)
        .with_epoch_length(EPOCH_LEN);
    match journal_dir {
        Some(dir) => config.with_journal_dir(dir),
        None => config,
    }
}

/// A cluster, the user depositing into it, and the centralized oracle
/// that is fed the same records in the same order.
pub struct Trail {
    pub cluster: DlaCluster,
    pub user: AppUser,
    pub oracle: CentralizedAuditor,
    oracle_user: NodeId,
    /// `time` of every logged record, in glsn order.
    pub times: Vec<u64>,
    config: ClusterConfig,
}

impl Trail {
    pub fn new(config: ClusterConfig) -> Result<Trail, String> {
        let mut cluster = span("audit.cluster_new", || DlaCluster::new(config.clone()))
            .map_err(|e| e.to_string())?;
        let user = cluster.register_user("bench").map_err(|e| e.to_string())?;
        let mut oracle = CentralizedAuditor::new(config.schema.clone(), 1);
        let oracle_user = oracle.register_user().map_err(|e| e.to_string())?;
        Ok(Trail {
            cluster,
            user,
            oracle,
            oracle_user,
            times: Vec::new(),
            config,
        })
    }

    fn mirror(&mut self, record: &LogRecord, glsn: Glsn) -> Result<(), String> {
        let mirrored = self
            .oracle
            .log_record(self.oracle_user, record)
            .map_err(|e| e.to_string())?;
        self.times.push(record_time(record));
        if mirrored == glsn {
            Ok(())
        } else {
            Err(format!("cluster assigned {glsn}, oracle {mirrored}"))
        }
    }

    /// Loads `records` through the batched pipeline (set-up, untimed).
    pub fn preload(&mut self, records: &[LogRecord]) -> Result<(), String> {
        let glsns = span("audit.log_records", || {
            self.cluster.log_records(&self.user, records)
        })
        .map_err(|e| e.to_string())?;
        for (record, glsn) in records.iter().zip(glsns) {
            self.mirror(record, glsn)?;
        }
        Ok(())
    }

    /// Lower time bound of the window holding the last `count` records.
    pub fn window_over_last(&self, count: usize) -> TimeWindow {
        let from = self.times.len().saturating_sub(count);
        TimeWindow {
            lo: self.times.get(from).copied(),
            hi: None,
        }
    }

    /// Drops the cluster and opens a new one on the same journals (the
    /// depositing user and the oracle carry over).
    pub fn reopen(self) -> Result<Trail, String> {
        let Trail {
            cluster,
            user,
            oracle,
            oracle_user,
            times,
            config,
        } = self;
        drop(cluster);
        let cluster =
            span("audit.restore", || DlaCluster::new(config.clone())).map_err(|e| e.to_string())?;
        Ok(Trail {
            cluster,
            user,
            oracle,
            oracle_user,
            times,
            config,
        })
    }
}

/// The deposit item the integrity trail folds for `glsn`, as
/// `dla_audit::cluster::trail_item` (crate-private there) builds it.
pub fn trail_item(glsn: Glsn, deposit: &Ubig) -> Vec<u8> {
    let mut out = Vec::with_capacity(80);
    out.extend_from_slice(b"dla-trail-item");
    out.extend_from_slice(&glsn.0.to_be_bytes());
    out.extend_from_slice(&deposit.to_bytes_be());
    out
}

/// What each `dla-node` must have stored, kept beside the store-path
/// acks: per node the count, byte total and running CRC chain (seeded
/// with the node's identity key) its farewell report has to show.
#[derive(Debug)]
pub struct StoreLedger {
    pub count: [u64; NODES],
    pub bytes: [u64; NODES],
    pub digest: [u64; NODES],
}

impl StoreLedger {
    pub fn new() -> StoreLedger {
        StoreLedger {
            count: [0; NODES],
            bytes: [0; NODES],
            digest: std::array::from_fn(node_key),
        }
    }

    /// Ships `payload` to `owner` and checks the ack against the ledger.
    pub fn deposit(
        &mut self,
        net: &TcpNet,
        owner: usize,
        glsn: u64,
        payload: &[u8],
    ) -> Result<(), String> {
        let mut chained = self.digest[owner].to_be_bytes().to_vec();
        chained.extend_from_slice(payload);
        self.digest[owner] = u64::from(crc32(&chained));
        self.count[owner] += 1;
        self.bytes[owner] += payload.len() as u64;
        let ack = span("net.tcp_deposit", || {
            net.deposit(NodeId(owner), glsn, payload)
        })
        .map_err(|e| e.to_string())?;
        if ack == (self.count[owner], self.digest[owner]) {
            Ok(())
        } else {
            Err(format!(
                "node {owner} acked {ack:?}, expected ({}, {})",
                self.count[owner], self.digest[owner]
            ))
        }
    }

    /// Checks the farewell reports of a finished mesh.
    pub fn check_reports(&self, reports: &[dla_net::NodeReport], samples: &mut Samples) {
        for node in 0..NODES {
            let found = reports.iter().find(|r| r.id == node);
            let ok = found.is_some_and(|r| {
                (r.stored, r.stored_bytes, r.digest)
                    == (self.count[node], self.bytes[node], self.digest[node])
            });
            samples.check(ok, || {
                format!("node {node} farewell {found:?} does not match the ledger")
            });
        }
    }
}

/// Latencies of one ingest stage, for the caller to file.
#[derive(Debug, Default)]
pub struct Ingested {
    pub plain_ms: Vec<f64>,
    pub seal_ms: Vec<f64>,
    /// Both kinds, in deposit order.
    pub all_ms: Vec<f64>,
}

/// Deposits `records` one `log_record` call at a time; with `ship`, the
/// same timed op also sends the deposit's trail item to its owner
/// process over the mesh's store path and waits for the ack.
pub fn ingest(
    trail: &mut Trail,
    records: &[LogRecord],
    mut ship: Option<(&TcpNet, &mut StoreLedger)>,
    samples: &mut Samples,
) -> Ingested {
    let mut out = Ingested::default();
    for record in records {
        samples.attempt();
        let chain_before = trail.cluster.checkpoint_chain().len();
        let started = Instant::now();
        let result = span("deposit", || {
            let glsn = span("audit.log_record", || {
                trail.cluster.log_record(&trail.user, record)
            })
            .map_err(|e| e.to_string())?;
            if let Some((net, ledger)) = ship.as_mut() {
                let deposit = trail.cluster.deposit(glsn).ok_or("deposit not recorded")?;
                let item = trail_item(glsn, deposit);
                ledger.deposit(net, (glsn.0 % NODES as u64) as usize, glsn.0, &item)?;
            }
            Ok::<Glsn, String>(glsn)
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result.and_then(|glsn| trail.mirror(record, glsn)) {
            Ok(()) => {
                let chain_after = trail.cluster.checkpoint_chain().len();
                out.all_ms.push(ms);
                match classify_deposit(chain_before, chain_after) {
                    DepositKind::Plain => out.plain_ms.push(ms),
                    DepositKind::Seal => out.seal_ms.push(ms),
                }
            }
            Err(e) => samples.fail(format!("deposit: {e}")),
        }
    }
    out
}

/// Runs `load` on the journal-backed `trail` and files how many bytes
/// its journals grew by over the `deposits` deposits `load` makes.
pub fn filing_journal_growth<R>(
    trail: &mut Trail,
    deposits: usize,
    samples: &mut Samples,
    load: impl FnOnce(&mut Trail) -> R,
) -> R {
    let dir = trail
        .config
        .journal_dir
        .clone()
        .expect("journal growth needs a journal directory");
    let cluster_journal = dir.join("cluster.journal");
    let size = |path: &std::path::Path| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let (all_before, cluster_before) = (crate::env::dir_bytes(&dir), size(&cluster_journal));
    let out = load(trail);
    let (all_after, cluster_after) = (crate::env::dir_bytes(&dir), size(&cluster_journal));
    samples.journal_bytes += all_after - all_before;
    samples.journal_deposits += deposits as u64;
    samples.node_journal_bytes += (all_after - all_before) - (cluster_after - cluster_before);
    out
}

/// Ships trail items of `trail` through the mesh's store path, one ack
/// at a time: items `indices` of an endless cycle over the logged
/// deposits, each under a fresh glsn so every frame is distinct. The
/// mesh's only arithmetic is a CRC: framing and sockets are the whole
/// cost.
pub fn store_acks(
    trail: &Trail,
    net: &TcpNet,
    ledger: &mut StoreLedger,
    indices: std::ops::Range<usize>,
    samples: &mut Samples,
) -> Ingested {
    let items: Vec<Vec<u8>> = trail
        .cluster
        .logged_glsns()
        .into_iter()
        .map(|glsn| trail_item(glsn, trail.cluster.deposit(glsn).expect("logged")))
        .collect();
    let base = trail.cluster.logged_glsns().last().map_or(0, |g| g.0) + 1;
    let mut acks = Vec::with_capacity(indices.len());
    for i in indices {
        samples.attempt();
        let glsn = base + i as u64;
        let item = &items[i % items.len()];
        let started = Instant::now();
        let result = span("deposit", || {
            ledger.deposit(net, (glsn % NODES as u64) as usize, glsn, item)
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(()) => acks.push(ms),
            Err(e) => samples.fail(format!("store ack {i}: {e}")),
        }
    }
    Ingested {
        plain_ms: acks.clone(),
        seal_ms: Vec::new(),
        all_ms: acks,
    }
}

/// Drops `trail`'s cluster and reopens it from its journals, timing the
/// reopen (`restore_s` is the quietest of a run's reopens); the
/// restored cluster must carry the same trail accumulator, item count,
/// records and sealed checkpoints, and pass `check_trail`.
pub fn restore(trail: Trail, samples: &mut Samples) -> Result<Trail, String> {
    let cluster = &trail.cluster;
    let accumulator = cluster.trail_accumulator().clone();
    let (items, logged, sealed) = (
        cluster.trail_items(),
        cluster.logged_glsns(),
        cluster.checkpoint_chain().len(),
    );
    samples.attempt();
    let started = Instant::now();
    let reopened = trail.reopen();
    let seconds = started.elapsed().as_secs_f64();
    let trail = reopened.inspect_err(|e| samples.fail(format!("restore: {e}")))?;
    let cluster = &trail.cluster;
    let same = *cluster.trail_accumulator() == accumulator
        && cluster.trail_items() == items
        && cluster.logged_glsns() == logged
        && cluster.checkpoint_chain().len() == sealed;
    if same {
        samples.restore_s.push(seconds);
        samples.restored_records = items;
    } else {
        samples.fail("restored cluster differs from the one that was dropped".into());
    }
    let verdict = span("audit.check_trail", || check_trail(cluster));
    samples.check(verdict.ok, || {
        format!("check_trail after restore: {verdict:?}")
    });
    Ok(trail)
}

/// The query text for `shape`, confined to `window` when it is bounded.
pub fn query_text(shape: &str, window: &TimeWindow) -> String {
    match window.lo {
        Some(lo) => format!("time >= '{}' AND ({shape})", format_paper_time(lo)),
        None => shape.to_string(),
    }
}

/// The query shapes `shapes` of round `round` (all three make a whole
/// round) through `parse → normalize → plan → execute_on` over `wire`,
/// each answer compared with the centralized oracle's.
pub fn query_round(
    trail: &mut Trail,
    wire: Wire<'_>,
    window: &TimeWindow,
    round: u64,
    shapes: std::ops::Range<usize>,
    samples: &mut Samples,
) {
    let (messages_before, bytes_before) = wire.sent();
    for (index, (name, shape)) in SHAPES
        .iter()
        .enumerate()
        .take(shapes.end)
        .skip(shapes.start)
    {
        samples.attempt();
        let text = query_text(shape, window);
        let seed = trail.cluster.seed() ^ (round * 3 + index as u64).wrapping_mul(0x9E37_79B9);
        let cluster = &trail.cluster;
        let started = Instant::now();
        let result = span(format_args!("query.{name}"), || {
            let parsed = span("audit.parse", || {
                dla_audit::parser::parse(&text, cluster.schema())
            })
            .map_err(|e| e.to_string())?;
            parsed.check(cluster.schema()).map_err(|e| e.to_string())?;
            let normalized = span("audit.normalize", || dla_audit::normal::normalize(&parsed));
            let plan = span("audit.plan", || {
                dla_audit::plan::plan(&normalized, cluster.partition())
            })
            .map_err(|e| e.to_string())?;
            span("audit.execute_on", || {
                execute_on(
                    cluster,
                    wire.transport(),
                    &plan,
                    true,
                    ExecMode::Concurrent,
                    seed,
                )
            })
            .map_err(|e| e.to_string())
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let expected = trail.oracle.query_text(&text).map_err(|e| e.to_string());
        match (result, expected) {
            (Ok(answer), Ok(expected)) if answer.glsns == expected => {
                samples.query_ms.push((index, ms));
            }
            (Ok(answer), Ok(expected)) => samples.fail(format!(
                "query {name}: {} glsns, oracle has {}",
                answer.glsns.len(),
                expected.len()
            )),
            (Err(e), _) | (_, Err(e)) => samples.fail(format!("query {name}: {e}")),
        }
    }
    let (messages_after, bytes_after) = wire.sent();
    samples.query_messages += messages_after - messages_before;
    samples.query_wire_bytes += bytes_after - bytes_before;
}

/// One round of the three session kinds over `wire` — secure sum,
/// blind equality, ranking — each checked against plain arithmetic.
pub fn session_round(wire: Wire<'_>, round: u64, rng: &mut StdRng, samples: &mut Samples) {
    let parties: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let (auditor, ttp) = (NodeId(NODES), NodeId(NODES + 1));
    let transport = wire.transport();
    let session = |kind: u64| Session::new(transport, SessionId(SESSION_BASE + round * 3 + kind));
    let timed = |kind: usize, samples: &mut Samples, f: &mut dyn FnMut() -> Result<(), String>| {
        samples.attempt();
        let started = Instant::now();
        let result = span(format_args!("session.{}", SESSION_KINDS[kind]), &mut *f);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(()) => samples.session_ms.push((kind, ms)),
            Err(e) => samples.fail(format!("session {}: {e}", SESSION_KINDS[kind])),
        }
    };

    let inputs: Vec<u64> = (0..NODES).map(|_| rng.gen_range(0..1_000_000)).collect();
    let mut protocol_rng = StdRng::seed_from_u64(rng.gen());
    timed(0, samples, &mut || {
        let shares: Vec<F61> = inputs.iter().map(|&v| F61::new(v)).collect();
        let outcome = SumSession::new(session(0), &parties, NODES, auditor)
            .run(&shares, &mut protocol_rng)
            .map_err(|e| e.to_string())?;
        let plain = inputs.iter().sum::<u64>() % P61;
        (outcome.total.value() == plain)
            .then_some(())
            .ok_or_else(|| format!("sum {} != {plain}", outcome.total.value()))
    });

    let a = rng.gen_range(0..97u64);
    let b = if round.is_multiple_of(2) {
        a
    } else {
        rng.gen_range(0..97u64)
    };
    timed(1, samples, &mut || {
        let outcome = EqualitySession::new(session(1), parties[0], parties[1], ttp)
            .run(F61::new(a), F61::new(b), &mut protocol_rng)
            .map_err(|e| e.to_string())?;
        (outcome.equal == (a == b))
            .then_some(())
            .ok_or_else(|| format!("equality({a}, {b}) answered {}", outcome.equal))
    });

    let values: Vec<u64> = (0..NODES).map(|_| rng.gen_range(0..10_000)).collect();
    timed(2, samples, &mut || {
        let outcome = RankingSession::new(session(2), &parties, ttp)
            .run(&values, &mut protocol_rng)
            .map_err(|e| e.to_string())?;
        let mut plain: Vec<usize> = (0..NODES).collect();
        plain.sort_by_key(|&i| (values[i], i));
        (outcome.ascending == plain)
            .then_some(())
            .ok_or_else(|| format!("ranking {:?} != {plain:?}", outcome.ascending))
    });
}

/// One timed `check_window` over `window`; the verdict must pass.
pub fn audit_check(trail: &Trail, window: &TimeWindow, samples: &mut Samples) {
    samples.attempt();
    let started = Instant::now();
    let verdict = span("audit.check_window", || {
        check_window(&trail.cluster, window)
    });
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if verdict.ok && verdict.chain_ok && verdict.items_folded > 0 {
        samples.audit_ms.push(ms);
    } else {
        samples.fail(format!("check_window: {verdict:?}"));
    }
}

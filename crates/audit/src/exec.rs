//! The distributed confidential query executor (paper §2, Figure 3).
//!
//! Each planned subquery produces a set of satisfying glsns:
//!
//! * **local** subqueries by a single node scanning its own fragments;
//! * **cross** subqueries by the involved nodes collaborating — local
//!   scans for constant predicates, a commutative-encryption equality
//!   join for `A = B` across nodes, blind-TTP masked comparison for
//!   `A < B` and friends, and a secure set *union* to take the clause's
//!   disjunction without revealing which node matched what.
//!
//! Finally, "the conjunction of SQ_i is processed by a secure set
//! intersection with glsn as the set element", and only the resulting
//! glsn list reaches the auditor engine.
//!
//! # Scheduling
//!
//! Subqueries are mutually independent (Fig. 3's SQ0..SQ3 touch
//! disjoint protocol state), so the executor runs each one in its own
//! **transport session** ([`dla_net::Session`]): a scheduler drives the
//! sessions from scoped worker threads over the given transport, and
//! per-session virtual clocks make the query's network makespan the
//! *maximum* of the subquery latencies instead of their sum. Protocol
//! results are independent of scheduling and randomness, so the
//! reference every suite compares against is plain whole-record
//! evaluation ([`crate::query::Criteria::eval`],
//! [`crate::centralized::CentralizedAuditor`]).
//!
//! # A sealed epoch is asked once
//!
//! A sealed epoch is immutable and committed, so the part of an answer
//! that lies in one is the same every time. The auditor engine — the
//! party the final `∩ₛ` reveals to — keeps every revealed answer per
//! `(query, sealed epoch)` ([`crate::kept`]), and [`execute_on`] runs
//! the plan, subqueries and conjunction alike, only over the glsn runs
//! of epochs it cannot serve. Nothing at all is sent when it can serve
//! them all. A `reveal = false` run neither reads nor files: it is owed
//! one count, and a per-epoch split of it would tell the engine more.
//!
//! # Entry points
//!
//! There is one executor body, [`execute_on`]; [`execute`] draws the
//! query seed from the cluster's exclusive RNG and calls it over the
//! cluster's own network, and [`execute_resilient`] wraps it in the
//! retry / degrade ladder. What a run may touch rides in its
//! arguments — the transport, the plan (its `time_window` and
//! `glsn_clamp`), the reveal flag, the seed — never in which function
//! was called.

use crate::cluster::DlaCluster;
use crate::kept::QueryKey;
use crate::plan::{LiteralStep, QueryPlan, Subquery, SubqueryKind};
use crate::query::{EvalError, Predicate};
use crate::AuditError;
use dla_crypto::affine::{MonotoneMasker, MONOTONE_MAX_INPUT};
use dla_crypto::sha256;
use dla_logstore::epoch::EpochId;
use dla_logstore::model::{AttrValue, Glsn};
use dla_mpc::report::ProtocolReport;
use dla_mpc::{SsiSession, UnionSession};
use dla_net::topology::Ring;
use dla_net::wire::Writer;
use dla_net::{NodeId, Reliable, ReliableConfig, Session, SessionId, SimTime, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// How the executor schedules independent subqueries: each in its own
/// session on its own worker thread, joined at the ∧-combiner. The
/// one-at-a-time `Serial` mode was retired; the enum and the
/// [`execute_on`] argument that carries it stay only because
/// `benchmark/` (frozen) names `ExecMode::Concurrent`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The only scheduler.
    Concurrent,
}

/// The outcome of a distributed query.
#[derive(Debug)]
pub struct QueryResult {
    /// Satisfying glsns, sorted ascending (empty when the query ran
    /// without reveal).
    pub glsns: Vec<Glsn>,
    /// Number of satisfying records (known even without reveal).
    pub cardinality: usize,
    /// The plan that was executed.
    pub plan: QueryPlan,
    /// Reports of the MPC sub-protocol runs.
    pub reports: Vec<ProtocolReport>,
    /// `C_auditing` of the executed plan (Eq. 11).
    pub auditing_confidentiality: f64,
    /// Total messages attributable to this query.
    pub messages: u64,
    /// Total payload bytes attributable to this query.
    pub bytes: u64,
    /// Simulated network makespan of the query: the maximum of the
    /// subquery latencies plus the ∧-combiner.
    pub elapsed: SimTime,
    /// The transport sessions the subqueries ran on, in plan order.
    pub sessions: Vec<SessionId>,
}

type GlsnSet = BTreeSet<Glsn>;

/// Deterministic per-subquery RNG seed: independent of thread
/// interleaving, so a query's transcript is a function of its seed.
fn subquery_seed(query_seed: u64, index: u64) -> u64 {
    let mut x = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    query_seed ^ rand::splitmix64(&mut x)
}

/// Recovers a glsn from a revealed set element. Group decoding strips
/// leading zero bytes, so the element is right-aligned into its
/// original `total_len` before the 8-byte glsn prefix is read. An
/// over-long element means the protocol ran over garbled traffic (e.g.
/// a mis-sequenced duplicate on an unprotected lossy link) and is
/// surfaced as a protocol error instead of a panic.
fn glsn_from_item(bytes: &[u8], total_len: usize) -> Result<Glsn, AuditError> {
    if bytes.len() > total_len {
        return Err(AuditError::Mpc(dla_mpc::MpcError::Protocol(format!(
            "revealed set element is {} bytes, expected at most {total_len}",
            bytes.len()
        ))));
    }
    let mut buf = vec![0u8; total_len];
    buf[total_len - bytes.len()..].copy_from_slice(bytes);
    Ok(Glsn(u64::from_be_bytes(
        buf[..8].try_into().expect("8 bytes"),
    )))
}

/// Executes a plan on the cluster's own network, drawing the query
/// seed from the cluster's exclusive RNG. With `reveal = false` the
/// auditor learns only the **cardinality** of the result (the
/// confidential "number of transactions" aggregate) and
/// `QueryResult::glsns` stays empty.
///
/// # Errors
///
/// Returns [`AuditError`] on protocol failures, type errors during
/// scanning, or unsupported cross-node operations (text ordering).
pub fn execute(
    cluster: &mut DlaCluster,
    plan: &QueryPlan,
    reveal: bool,
) -> Result<QueryResult, AuditError> {
    use rand::Rng;
    let query_seed: u64 = cluster.rng_mut().gen();
    execute_on(
        cluster,
        cluster.shared_net(),
        plan,
        reveal,
        ExecMode::Concurrent,
        query_seed,
    )
}

/// Intersection of two optional inclusive glsn windows (`None` = no
/// restriction). May produce an inverted (empty) range — scans treat
/// that as the empty sentinel.
#[must_use]
fn intersect_glsn_windows(
    a: Option<(Glsn, Glsn)>,
    b: Option<(Glsn, Glsn)>,
) -> Option<(Glsn, Glsn)> {
    match (a, b) {
        (None, w) | (w, None) => w,
        (Some((al, ah)), Some((bl, bh))) => Some((al.max(bl), ah.min(bh))),
    }
}

/// Seed of the `run`-th cold run [`execute_on`] makes for one query:
/// the first is the query's own, so a query that is served nothing has
/// the transcript it always had. Public so that a warm transcript can be
/// replayed as the cold runs it is made of.
#[must_use]
pub fn run_seed(query_seed: u64, run: usize) -> u64 {
    match run {
        0 => query_seed,
        // Counted down from the combiner's index, away from the
        // subqueries' (which count up from zero).
        _ => subquery_seed(query_seed, u64::MAX - run as u64),
    }
}

/// The executor: runs a plan against `&DlaCluster` over an explicit
/// transport, deriving all randomness from `query_seed`, so multiple
/// auditors can execute queries from separate threads simultaneously.
/// Session management (allocation, clock sync, accounting) always runs
/// on the cluster's own network; `transport` only carries the protocol
/// traffic — pass [`DlaCluster::shared_net`] itself, a
/// [`dla_net::Reliable`] wrapper around it to run with ARQ protection
/// on a lossy network, or a socket mesh.
///
/// With `reveal = true` the auditor engine remembers what it is told
/// ([`DlaCluster::kept`]): the revealed answer is filed per sealed
/// epoch under the query ([`QueryKey`]) and, asked again, the plan runs
/// (`run_window`, the one body) only over the maximal glsn runs of
/// epochs no entry serves — the whole window the first time, the open
/// epoch at least, nothing at all when the window is all sealed and
/// kept. An entry is read or filed only for a sealed epoch whose
/// deposits all lie inside the run's glsn window and — when the query
/// carries `time θ const` conjuncts, which the key leaves out — are all
/// timed inside every one of them; any other epoch is asked in full.
/// Only an `Ok` run files.
///
/// # Errors
///
/// As [`execute`], plus [`dla_net::NetError::Timeout`] (wrapped in
/// [`AuditError`]) when the reliable layer exhausts its retries.
///
/// # Panics
///
/// Panics if a subquery worker thread panics.
pub fn execute_on(
    cluster: &DlaCluster,
    transport: &(dyn Transport + Sync),
    plan: &QueryPlan,
    reveal: bool,
    _mode: ExecMode,
    query_seed: u64,
) -> Result<QueryResult, AuditError> {
    let start_ns = cluster.shared_net().lock().elapsed().as_nanos();
    let query_span = dla_telemetry::span("query", "execute", start_ns);

    // Epoch pruning: if the plan proves a time window, restrict every
    // node scan to the glsn range of the epochs that window overlaps.
    // Conjunct-derived bounds hold for every answer record, so pruning
    // cannot change the result — only how much trail is touched. The
    // plan's own clamp (a standing query's one sealed epoch) narrows it
    // further.
    let window =
        intersect_glsn_windows(cluster.glsn_window_for(&plan.time_window), plan.glsn_clamp);
    let policy = cluster.epoch_policy();
    let mut result = QueryResult {
        glsns: Vec::new(),
        cardinality: 0,
        plan: plan.clone(),
        reports: Vec::new(),
        auditing_confidentiality: crate::metrics::auditing_confidentiality(plan),
        messages: 0,
        bytes: 0,
        elapsed: SimTime::ZERO,
        sessions: Vec::new(),
    };

    // What the engine already holds of this query, the glsn runs it
    // does not, and the sealed epochs among them it will file. A count
    // is owed whole (a per-epoch split of it is more than the one
    // number), and a query of nothing but time bounds has no store to
    // stamp an answer with: both run as they always did.
    let mut runs = vec![window];
    let mut served: Vec<Glsn> = Vec::new();
    let mut filing = None;
    if let Some((key, bounds)) = reveal.then(|| QueryKey::split(plan)).flatten() {
        // Read before any scan: a store that moves while the rings run
        // leaves an entry no later lookup can match.
        let revisions: Vec<u64> = (key.nodes().iter())
            .map(|&n| cluster.node(n).store().revision())
            .collect();
        // Sealed, non-empty epochs whose every deposit lies inside the
        // window and is timed inside every bound: the only ones an answer
        // is kept for, or filed under.
        let inside = |lo, hi| window.is_none_or(|(from, to)| from <= lo && hi <= to);
        let mut missing: BTreeMap<EpochId, Vec<Glsn>> = (cluster.epoch_stats())
            .filter(|s| s.sealed && s.deposits > 0 && inside(s.glsn_lo, s.glsn_hi))
            .filter(|s| bounds.iter().all(|bound| s.timed_within(bound)))
            .map(|s| (s.epoch, Vec::new()))
            .collect();
        if let Some(kept) = cluster.kept().lookup(&key, &revisions) {
            // The window minus the glsn range of every epoch served;
            // with none served, the window exactly as it was handed in.
            let (mut from, hi) = window.unwrap_or((policy.base(), Glsn(u64::MAX)));
            let mut gaps = Vec::new();
            let eligible = missing.len();
            missing.retain(|epoch, _| {
                let Some(glsns) = kept.get(epoch) else {
                    return true;
                };
                served.extend(glsns);
                let (start, end) = policy.glsn_range(*epoch);
                if from < start {
                    gaps.push(Some((from, Glsn(start.0 - 1))));
                }
                from = Glsn(end.0.saturating_add(1));
                false
            });
            let hits = eligible - missing.len();
            if hits > 0 {
                dla_telemetry::record(dla_telemetry::CostKind::AnswerHit, hits as u64);
                if from <= hi {
                    gaps.push(Some((from, hi)));
                }
                runs = gaps;
            }
        }
        filing = Some((key, revisions, missing));
    }

    for (run, &sub_window) in runs.iter().enumerate() {
        let seed = run_seed(query_seed, run);
        run_window(
            cluster,
            transport,
            plan,
            reveal,
            seed,
            sub_window,
            &mut result,
        )?;
    }
    if let Some((key, revisions, mut missing)) = filing {
        for &glsn in &result.glsns {
            if let Some(glsns) = missing.get_mut(&policy.epoch_of(glsn)) {
                glsns.push(glsn);
            }
        }
        cluster.kept().file(key, &revisions, missing);
    }
    result.cardinality += served.len();
    result.glsns.extend(served);
    result.glsns.sort_unstable();
    query_span.end(start_ns + result.elapsed.as_nanos());
    Ok(result)
}

/// One cold run of `plan` over `window`, appended to `into`: every
/// subquery in a session of its own, then the conjunction as a secure
/// set intersection revealed to the auditor engine.
fn run_window(
    cluster: &DlaCluster,
    transport: &(dyn Transport + Sync),
    plan: &QueryPlan,
    reveal: bool,
    query_seed: u64,
    window: Option<(Glsn, Glsn)>,
    into: &mut QueryResult,
) -> Result<(), AuditError> {
    let net = cluster.shared_net();
    let (start_messages, start_bytes, start_elapsed) = {
        let n = net.lock();
        (n.stats().messages_sent, n.stats().bytes_sent, n.elapsed())
    };
    let subq_span = dla_telemetry::span("phase", "subqueries", start_elapsed.as_nanos());

    // Phase 1: independent subqueries — the scheduler. Sessions are
    // allocated deterministically *before* spawning so ids (and so
    // per-session RNG streams and accounting) do not depend on thread
    // interleaving.
    let sessions: Vec<SessionId> = {
        let mut n = net.lock();
        plan.subqueries.iter().map(|_| n.open_session()).collect()
    };
    // Workers do not inherit the spawner's telemetry destination: hand
    // the current recorder (if any) into each thread and install it
    // there.
    let recorder = dla_telemetry::current();
    let outcomes = crossbeam::scope(|s| {
        let handles: Vec<_> = plan
            .subqueries
            .iter()
            .zip(&sessions)
            .enumerate()
            .map(|(i, (subquery, &sid))| {
                let recorder = recorder.clone();
                s.spawn(move || {
                    let _telemetry = recorder.map(|r| r.install());
                    let mut rng = StdRng::seed_from_u64(subquery_seed(query_seed, i as u64));
                    let session = Session::new(transport, sid);
                    run_subquery(cluster, &session, subquery, &mut rng, window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("subquery worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("subquery scheduler scope");
    let per_subquery = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;

    // ∧-join barrier: the conjunction can only start once every
    // subquery session has delivered, so open the combiner session and
    // advance it to the latest subquery finish. The transport may keep
    // its own timeline (a wall-clock socket mesh reports real elapsed
    // time; the cluster's SharedNet reports the same virtual clocks
    // read below) — fold its view in as well, reading it *before*
    // taking the SimNet lock because on SharedNet both sides are the
    // same non-reentrant mutex.
    let transport_join = sessions
        .iter()
        .map(|&sid| transport.elapsed(sid))
        .max()
        .unwrap_or_default();
    let (combine_session, join_ns) = {
        let mut n = net.lock();
        let join_at = sessions
            .iter()
            .map(|&sid| n.session_elapsed(sid))
            .max()
            .unwrap_or(start_elapsed)
            .max(transport_join);
        let combine_session = n.open_session();
        n.sync_session(combine_session, join_at);
        (
            combine_session,
            n.session_elapsed(combine_session).as_nanos(),
        )
    };
    subq_span.end(join_ns);
    let combine_span = dla_telemetry::span("phase", "combine", join_ns);

    let mut holder_sets: BTreeMap<usize, Vec<GlsnSet>> = BTreeMap::new();
    for (holder, set, mut subreports) in per_subquery {
        holder_sets.entry(holder).or_default().push(set);
        into.reports.append(&mut subreports);
    }

    // Phase 2: each holder intersects its own subquery results locally;
    // the cross-holder conjunction runs as a secure set intersection
    // with glsn as the element, revealed to the auditor engine.
    let mut holders: Vec<usize> = holder_sets.keys().copied().collect();
    holders.sort_unstable();
    let inputs: Vec<Vec<Vec<u8>>> = holders
        .iter()
        .map(|h| {
            let sets = &holder_sets[h];
            let mut iter = sets.iter();
            let first = iter.next().cloned().unwrap_or_default();
            let local: GlsnSet = iter.fold(first, |acc, s| &acc & s);
            local.iter().map(|g| g.0.to_be_bytes().to_vec()).collect()
        })
        .collect();

    let ring = Ring::new(holders.iter().map(|&h| NodeId(h)).collect());
    let mut rng = StdRng::seed_from_u64(subquery_seed(query_seed, u64::MAX));
    let session = Session::new(transport, combine_session);
    let outcome = SsiSession::new(session, &ring, cluster.domain(), cluster.auditor_node())
        .reveal(reveal)
        .run(&inputs, &mut rng)?;
    into.reports.push(outcome.report.clone());

    into.cardinality += outcome.cardinality();
    for bytes in outcome.common_items.iter().flatten() {
        into.glsns.push(glsn_from_item(bytes, 8)?);
    }

    let end = {
        let mut n = net.lock();
        // Fold the query's finish time back into the root timeline so
        // cluster-level elapsed time reflects completed queries.
        let end = n.session_elapsed(combine_session);
        n.sync_session(SessionId::ROOT, end);
        into.messages += n.stats().messages_sent - start_messages;
        into.bytes += n.stats().bytes_sent - start_bytes;
        end
    };
    into.elapsed += end - start_elapsed;
    into.sessions.extend(sessions);
    combine_span.end(end.as_nanos());
    Ok(())
}

/// Tuning for [`execute_resilient`]'s retry / degrade ladder.
#[derive(Debug, Clone)]
pub struct ResilientPolicy {
    /// ARQ configuration for the reliable transport wrapper, or `None`
    /// to run unprotected (the ladder then only retries whole queries).
    pub reliable: Option<ReliableConfig>,
    /// Whole-query attempts before the last network error is terminal.
    pub max_attempts: u32,
}

impl Default for ResilientPolicy {
    fn default() -> Self {
        ResilientPolicy {
            reliable: Some(ReliableConfig::default()),
            max_attempts: 4,
        }
    }
}

/// What [`execute_resilient`] did to get an answer.
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The successful query result.
    pub result: QueryResult,
    /// Whole-query attempts used (1 = first try succeeded).
    pub attempts: u32,
    /// How many attempts triggered a re-plan over the survivor set.
    pub replans: u32,
    /// Nodes retired from service by the time the query succeeded.
    pub excluded: BTreeSet<usize>,
    /// Re-replication reports produced along the way.
    pub repairs: Vec<crate::cluster::RereplicationReport>,
}

/// A network error worth retrying: a reliable-layer timeout, a dropped
/// message surfacing as an empty inbox, or a frame refused for its
/// checksum — a flipped byte is as transient as a lost frame.
fn retryable(e: &AuditError) -> bool {
    use dla_net::NetError;
    let net = match e {
        AuditError::Net(n) => n,
        AuditError::Mpc(dla_mpc::MpcError::Net(n)) => n,
        _ => return false,
    };
    matches!(
        net,
        NetError::Timeout(_) | NetError::EmptyInbox(_) | NetError::Corrupt(_)
    )
}

/// The fault-tolerant executor ladder. Each attempt plans the query
/// against the cluster's **effective partition**
/// ([`DlaCluster::plan`]) and runs it with reveal — through a
/// [`Reliable`] ARQ wrapper when the policy asks for one. On a
/// retryable network failure the ladder probes cluster health; nodes
/// the detector declares dead are
/// re-replicated ([`DlaCluster::rereplicate`]) and the query re-planned
/// over the survivor set, otherwise the failure is treated as transient
/// and the attempt simply repeated (the reliable layer has already
/// charged its backoff in virtual time).
///
/// # Errors
///
/// Returns the terminal error once `policy.max_attempts` attempts are
/// exhausted, or immediately for non-network failures. A repair that
/// fails its survivor-set accumulator check aborts the ladder with
/// [`AuditError::Integrity`]: the lost fragments are unrecoverable, and
/// answering without them would be silently wrong.
pub fn execute_resilient(
    cluster: &mut DlaCluster,
    normalized: &crate::normal::NormalizedQuery,
    policy: &ResilientPolicy,
) -> Result<ResilientOutcome, AuditError> {
    use rand::Rng;
    let mut monitor = crate::health::HealthMonitor::new(cluster);
    for node in cluster.retired_nodes() {
        monitor.mark_dead(node);
    }
    let mut repairs = Vec::new();
    let mut replans = 0;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let plan = cluster.plan(normalized)?;
        let query_seed: u64 = cluster.rng_mut().gen();
        let run = {
            let net = cluster.shared_net();
            let reliable = policy
                .reliable
                .map(|config| Reliable::with_config(net, config));
            let transport: &(dyn Transport + Sync) = match &reliable {
                Some(reliable) => reliable,
                None => net,
            };
            execute_on(
                cluster,
                transport,
                &plan,
                true,
                ExecMode::Concurrent,
                query_seed,
            )
        };
        match run {
            Ok(result) => {
                return Ok(ResilientOutcome {
                    result,
                    attempts: attempt,
                    replans,
                    excluded: cluster.retired_nodes(),
                    repairs,
                });
            }
            Err(e) if retryable(&e) && attempt < policy.max_attempts => {
                monitor.settle(cluster)?;
                let newly_dead: BTreeSet<usize> = monitor
                    .dead()
                    .difference(&cluster.retired_nodes())
                    .copied()
                    .collect();
                if !newly_dead.is_empty() {
                    // Degraded-mode decision: the executor chooses to
                    // retire nodes and re-plan over the survivor set —
                    // exactly the kind of privileged call the
                    // meta-audit trail exists to make undeniable.
                    cluster.meta_log(
                        "executor",
                        "degraded-replan",
                        format!("attempt={attempt} dead={newly_dead:?}"),
                    );
                    let report = cluster.rereplicate(&newly_dead)?;
                    // A repair the accumulator cannot verify means the
                    // survivors do NOT hold the deposited fragments —
                    // answering from them would be silently wrong.
                    if !report.is_fully_verified() {
                        return Err(AuditError::Integrity(format!(
                            "re-replication after losing {newly_dead:?} left {} record(s) \
                             unverified against their accumulator deposits",
                            report.failed.len()
                        )));
                    }
                    repairs.push(report);
                    replans += 1;
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs one subquery on `session`; returns (holder node, glsn set,
/// protocol reports).
fn run_subquery(
    cluster: &DlaCluster,
    session: &Session<'_>,
    subquery: &Subquery,
    rng: &mut StdRng,
    window: Option<(Glsn, Glsn)>,
) -> Result<(usize, GlsnSet, Vec<ProtocolReport>), AuditError> {
    let _scope = dla_telemetry::scope("subquery", session.id().0);
    let kind = match &subquery.kind {
        SubqueryKind::Local { .. } => "local",
        SubqueryKind::Cross { .. } => "cross",
    };
    let span = dla_telemetry::span("subquery", kind, session.elapsed().as_nanos());
    let result = match &subquery.kind {
        SubqueryKind::Local { node } => {
            let set = scan_clause_local(cluster, *node, subquery, window)?;
            Ok((*node, set, Vec::new()))
        }
        SubqueryKind::Cross { nodes } => {
            let holder = holder_of(subquery, nodes);
            run_cross_steps(cluster, session, subquery, holder, rng, window)
                .map(|(set, reports)| (holder, set, reports))
        }
    };
    span.end(session.elapsed().as_nanos());
    result
}

/// Iterates a store's fragments, pruned to the epoch-derived glsn
/// window when one applies.
fn scan_pruned<'a>(
    store: &'a dla_logstore::store::FragmentStore,
    window: Option<(Glsn, Glsn)>,
) -> Box<dyn Iterator<Item = &'a dla_logstore::fragment::Fragment> + 'a> {
    match window {
        Some((lo, hi)) => Box::new(store.scan_window(lo, hi)),
        None => Box::new(store.scan_all()),
    }
}

/// A node evaluates a whole clause against its own fragments.
fn scan_clause_local(
    cluster: &DlaCluster,
    node: usize,
    subquery: &Subquery,
    window: Option<(Glsn, Glsn)>,
) -> Result<GlsnSet, AuditError> {
    let store = cluster.node(node).store();
    let mut out = GlsnSet::new();
    for frag in scan_pruned(&store, window) {
        let mut matched = false;
        for literal in subquery.clause.literals() {
            if eval_literal_lenient(literal, &frag.values)? {
                matched = true;
                break;
            }
        }
        if matched {
            out.insert(frag.glsn);
        }
    }
    Ok(out)
}

/// Evaluates a literal on a (possibly partial) fragment: a missing
/// attribute makes the literal false rather than an error — fragments
/// are partial by design.
fn eval_literal_lenient(
    literal: &Predicate,
    record: &dla_logstore::model::LogRecord,
) -> Result<bool, AuditError> {
    match literal.eval(record) {
        Ok(b) => Ok(b),
        Err(EvalError::MissingAttribute(_)) => Ok(false),
        Err(e @ EvalError::TypeMismatch { .. }) => Err(AuditError::Parse(e.to_string())),
    }
}

/// One node's glsn set for a single constant literal.
fn scan_literal(
    cluster: &DlaCluster,
    node: usize,
    literal: &Predicate,
    window: Option<(Glsn, Glsn)>,
) -> Result<GlsnSet, AuditError> {
    let store = cluster.node(node).store();
    let mut out = GlsnSet::new();
    for frag in scan_pruned(&store, window) {
        if eval_literal_lenient(literal, &frag.values)? {
            out.insert(frag.glsn);
        }
    }
    Ok(out)
}

/// glsns for which `node` stores a value of `attr`.
fn presence_set(
    cluster: &DlaCluster,
    node: usize,
    attr: &dla_logstore::model::AttrName,
    window: Option<(Glsn, Glsn)>,
) -> GlsnSet {
    let store = cluster.node(node).store();
    scan_pruned(&store, window)
        .filter(|f| f.values.get(attr).is_some())
        .map(|f| f.glsn)
        .collect()
}

/// (glsn, value) pairs a node stores for `attr`.
fn value_pairs(
    cluster: &DlaCluster,
    node: usize,
    attr: &dla_logstore::model::AttrName,
    window: Option<(Glsn, Glsn)>,
) -> Vec<(Glsn, AttrValue)> {
    let store = cluster.node(node).store();
    scan_pruned(&store, window)
        .filter_map(|f| f.values.get(attr).map(|v| (f.glsn, v.clone())))
        .collect()
}

/// The node a cross subquery's clause set is delivered to: the one
/// node every step lands its literal set on
/// ([`LiteralStep::lands_on`]) when there is only one (nothing is left
/// to unite), else the first participant, where the secure set union
/// collects.
fn holder_of(subquery: &Subquery, nodes: &BTreeSet<usize>) -> usize {
    let contributing: BTreeSet<usize> = subquery.steps.iter().map(LiteralStep::lands_on).collect();
    match contributing.len() {
        1 => contributing.into_iter().next().expect("one entry"),
        _ => *nodes.iter().next().expect("cross subquery has nodes"),
    }
}

/// The steps of a cross subquery over `window`: local scans for
/// constant literals, an equality join or a masked comparison for
/// `A θ B` across nodes, then a secure set union to `holder` when more
/// than one node holds a literal set.
fn run_cross_steps(
    cluster: &DlaCluster,
    session: &Session<'_>,
    subquery: &Subquery,
    holder: usize,
    rng: &mut StdRng,
    window: Option<(Glsn, Glsn)>,
) -> Result<(GlsnSet, Vec<ProtocolReport>), AuditError> {
    let mut reports = Vec::new();
    // literal-set accumulation per participating node.
    let mut per_node: BTreeMap<usize, GlsnSet> = BTreeMap::new();

    for step in &subquery.steps {
        let set = match step {
            LiteralStep::LocalScan { node, literal } => scan_literal(
                cluster,
                *node,
                &subquery.clause.literals()[*literal],
                window,
            )?,
            LiteralStep::CrossEqualityJoin {
                left_node,
                right_node,
                literal,
                negated,
            } => {
                let (set, mut r) = equality_join(
                    cluster,
                    session,
                    *left_node,
                    *right_node,
                    &subquery.clause.literals()[*literal],
                    *negated,
                    rng,
                    window,
                )?;
                reports.append(&mut r);
                set
            }
            LiteralStep::CrossMaskedCompare {
                left_node,
                right_node,
                literal,
            } => masked_compare(
                cluster,
                session,
                *left_node,
                *right_node,
                &subquery.clause.literals()[*literal],
                rng,
                window,
            )?,
        };
        per_node.entry(step.lands_on()).or_default().extend(set);
    }

    // Single contributing node: the holder already has the clause set.
    if per_node.len() == 1 {
        let set = per_node.into_values().next().expect("one entry");
        return Ok((set, reports));
    }

    // Disjunction across nodes: secure set union over the contributing
    // nodes, delivered to the holder.
    let mut contributing: Vec<usize> = per_node.keys().copied().collect();
    contributing.sort_unstable();
    let inputs: Vec<Vec<Vec<u8>>> = contributing
        .iter()
        .map(|n| {
            per_node[n]
                .iter()
                .map(|g| g.0.to_be_bytes().to_vec())
                .collect()
        })
        .collect();
    let ring = Ring::new(contributing.iter().map(|&n| NodeId(n)).collect());
    let outcome =
        UnionSession::new(*session, &ring, cluster.domain(), NodeId(holder)).run(&inputs, rng)?;
    reports.push(outcome.report.clone());
    let set: GlsnSet = outcome
        .items
        .iter()
        .map(|bytes| glsn_from_item(bytes, 8))
        .collect::<Result<_, _>>()?;
    Ok((set, reports))
}

/// Cross-node equality join: glsns where `left.attr == right.attr`,
/// computed as a secure set intersection on `glsn ‖ H(value)` items.
/// For `≠`, the complement within the joint presence set (obtained by
/// a second, values-free intersection).
#[allow(clippy::too_many_arguments)]
fn equality_join(
    cluster: &DlaCluster,
    session: &Session<'_>,
    left_node: usize,
    right_node: usize,
    literal: &Predicate,
    negated: bool,
    rng: &mut StdRng,
    window: Option<(Glsn, Glsn)>,
) -> Result<(GlsnSet, Vec<ProtocolReport>), AuditError> {
    let crate::query::Operand::Attr(rhs_attr) = &literal.rhs else {
        return Err(AuditError::Planning(
            "equality join on a constant predicate".into(),
        ));
    };
    let mut reports = Vec::new();

    let item = |glsn: Glsn, value: &AttrValue| {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&glsn.0.to_be_bytes());
        out.extend_from_slice(&sha256::digest(&value.to_canonical_bytes())[..16]);
        out
    };
    let left_items: Vec<Vec<u8>> = value_pairs(cluster, left_node, &literal.lhs, window)
        .iter()
        .map(|(g, v)| item(*g, v))
        .collect();
    let right_items: Vec<Vec<u8>> = value_pairs(cluster, right_node, rhs_attr, window)
        .iter()
        .map(|(g, v)| item(*g, v))
        .collect();

    let ring = Ring::new(vec![NodeId(left_node), NodeId(right_node)]);
    let outcome = SsiSession::new(*session, &ring, cluster.domain(), NodeId(left_node))
        .reveal(true)
        .run(&[left_items, right_items], rng)?;
    reports.push(outcome.report.clone());
    let equal: GlsnSet = outcome
        .common_items
        .unwrap_or_default()
        .iter()
        .map(|b| glsn_from_item(b, 24))
        .collect::<Result<_, _>>()?;

    if !negated {
        return Ok((equal, reports));
    }

    // ≠: joint presence minus the equal set.
    let left_presence: Vec<Vec<u8>> = presence_set(cluster, left_node, &literal.lhs, window)
        .iter()
        .map(|g| g.0.to_be_bytes().to_vec())
        .collect();
    let right_presence: Vec<Vec<u8>> = presence_set(cluster, right_node, rhs_attr, window)
        .iter()
        .map(|g| g.0.to_be_bytes().to_vec())
        .collect();
    let ring = Ring::new(vec![NodeId(left_node), NodeId(right_node)]);
    let presence = SsiSession::new(*session, &ring, cluster.domain(), NodeId(left_node))
        .reveal(true)
        .run(&[left_presence, right_presence], rng)?;
    reports.push(presence.report.clone());
    let joint: GlsnSet = presence
        .common_items
        .unwrap_or_default()
        .iter()
        .map(|b| glsn_from_item(b, 8))
        .collect::<Result<_, _>>()?;
    Ok((&joint - &equal, reports))
}

/// Maps a comparable attribute value onto the masker's ordinal domain,
/// order-preservingly.
fn to_ordinal(value: &AttrValue) -> Result<u64, AuditError> {
    const BIAS: i64 = 1 << 38;
    match value {
        AttrValue::Int(v) | AttrValue::Fixed2(v) => {
            if v.unsigned_abs() >= (1 << 38) {
                return Err(AuditError::Planning(format!(
                    "value {v} outside the maskable comparison domain"
                )));
            }
            Ok((v + BIAS) as u64)
        }
        AttrValue::Time(t) => {
            if *t > MONOTONE_MAX_INPUT {
                return Err(AuditError::Planning(format!(
                    "timestamp {t} outside the maskable comparison domain"
                )));
            }
            Ok(*t)
        }
        AttrValue::Text(_) => Err(AuditError::Planning(
            "ordering comparison of text attributes across nodes is unsupported".into(),
        )),
    }
}

/// Cross-node ordering comparison via order-preserving masking and the
/// cluster's blind TTP (§3.3 machinery applied per glsn).
fn masked_compare(
    cluster: &DlaCluster,
    session: &Session<'_>,
    left_node: usize,
    right_node: usize,
    literal: &Predicate,
    rng: &mut StdRng,
    window: Option<(Glsn, Glsn)>,
) -> Result<GlsnSet, AuditError> {
    let crate::query::Operand::Attr(rhs_attr) = &literal.rhs else {
        return Err(AuditError::Planning(
            "masked compare on a constant predicate".into(),
        ));
    };
    let op = literal.op;
    let left_pairs = value_pairs(cluster, left_node, &literal.lhs, window);
    let right_pairs = value_pairs(cluster, right_node, rhs_attr, window);
    let ttp = cluster.ttp_node();
    let (left_id, right_id) = (NodeId(left_node), NodeId(right_node));

    // Mask agreement between the two owners (sealed from the TTP).
    let mask = MonotoneMasker::random(rng);
    let mut w = Writer::new();
    w.put_u8(0x30).put_bytes(&mask.to_bytes());
    session.send(left_id, right_id, w.finish());
    let envelope = session.recv_from(right_id, left_id)?;
    let mut r = crate::open_frame(&envelope.payload, 0x30)?;
    let right_mask =
        MonotoneMasker::from_bytes(r.get_bytes()?).map_err(|e| AuditError::Wire(e.to_string()))?;

    // Both sides submit (glsn, masked ordinal) lists to the TTP: one
    // round, so a refused first frame does not strand the second in
    // the TTP's inbox for the session's next run to read.
    let submission = |mask: &MonotoneMasker, pairs: &[(Glsn, AttrValue)]| {
        let ordinals: Vec<(u64, u128)> = pairs
            .iter()
            .map(|(g, v)| Ok((g.0, mask.apply(to_ordinal(v)?))))
            .collect::<Result<_, AuditError>>()?;
        let mut w = Writer::new();
        w.put_u8(0x31).put_list(&ordinals, |w, &(g, m)| {
            w.put_u64(g);
            w.put_u128(m);
        });
        Ok::<_, AuditError>(w.finish())
    };
    let submissions = session.round([
        (left_id, ttp, submission(&mask, &left_pairs)?),
        (right_id, ttp, submission(&right_mask, &right_pairs)?),
    ])?;
    let mut tables: Vec<BTreeMap<u64, u128>> = Vec::with_capacity(2);
    for envelope in &submissions {
        let mut r = crate::open_frame(&envelope.payload, 0x31)?;
        let list = r.get_list(|r| {
            let g = r.get_u64()?;
            let m = r.get_u128()?;
            Ok((g, m))
        })?;
        tables.push(list.into_iter().collect());
    }

    // The blind TTP compares per glsn and returns satisfying glsns to
    // the left owner.
    let right_table = tables.pop().expect("two tables");
    let left_table = tables.pop().expect("two tables");
    let satisfying: Vec<u64> = left_table
        .iter()
        .filter_map(|(g, wl)| {
            right_table.get(g).and_then(|wr| {
                let ord = wl.cmp(wr);
                op.test(ord).then_some(*g)
            })
        })
        .collect();
    let mut w = Writer::new();
    w.put_u8(0x32).put_list(&satisfying, |w, &g| {
        w.put_u64(g);
    });
    session.send(ttp, left_id, w.finish());
    let envelope = session.recv_from(left_id, ttp)?;
    let mut r = crate::open_frame(&envelope.payload, 0x32)?;
    let glsns = r.get_list(|r| r.get_u64().map(Glsn))?;
    Ok(glsns.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AppUser, ClusterConfig};
    use dla_logstore::fragment::Partition;
    use dla_logstore::gen::paper_table1;
    use dla_logstore::model::LogRecord;
    use dla_logstore::schema::Schema;
    use dla_net::latency::LatencyModel;

    /// Builds the paper cluster preloaded with Table 1.
    fn loaded_cluster() -> (DlaCluster, AppUser, Vec<Glsn>) {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(99),
        )
        .unwrap();
        let user = cluster.register_user("u0").unwrap();
        let glsns = cluster.log_records(&user, &paper_table1()).unwrap();
        (cluster, user, glsns)
    }

    /// Reference evaluation: run the criteria on the full records and
    /// return the matching Table 1 row indices.
    fn reference(query: &str) -> Vec<usize> {
        let schema = Schema::paper_example();
        let q = crate::parser::parse(query, &schema).unwrap();
        paper_table1()
            .iter()
            .enumerate()
            .filter(|(_, r)| q.eval(r).unwrap())
            .map(|(i, _)| i)
            .collect()
    }

    fn run(query: &str) -> (Vec<usize>, QueryResult) {
        let (mut cluster, _user, glsns) = loaded_cluster();
        let result = cluster.query(query).unwrap();
        let indices: Vec<usize> = result
            .glsns
            .iter()
            .map(|g| glsns.iter().position(|x| x == g).expect("known glsn"))
            .collect();
        (indices, result)
    }

    #[test]
    fn local_single_predicate() {
        let (matched, result) = run("c1 > 30");
        assert_eq!(matched, reference("c1 > 30"));
        assert_eq!(result.plan.local_count(), 1);
    }

    #[test]
    fn local_conjunction_across_nodes() {
        // Two local subqueries on different nodes, conjoined by SSI.
        let (matched, result) = run("c1 > 30 AND id = 'U1'");
        assert_eq!(matched, reference("c1 > 30 AND id = 'U1'"));
        assert_eq!(result.plan.subqueries.len(), 2);
    }

    #[test]
    fn cross_disjunction() {
        let q = "c1 > 40 OR id = 'U2'";
        let (matched, result) = run(q);
        assert_eq!(matched, reference(q));
        assert_eq!(result.plan.cross_count(), 1);
    }

    #[test]
    fn same_node_disjunction_stays_local() {
        let q = "id = 'U3' OR c2 > 300.00";
        let (matched, result) = run(q);
        assert_eq!(matched, reference(q));
        assert_eq!(result.plan.local_count(), 1);
    }

    #[test]
    fn time_range_query() {
        let q = "time > '20:20:00/05/12/2002' AND time < '20:24:00/05/12/2002'";
        let (matched, _) = run(q);
        assert_eq!(matched, reference(q));
        assert_eq!(matched.len(), 3); // rows 2, 3, 4
    }

    #[test]
    fn cross_equality_join_attr_attr() {
        // id (P1) vs c3 (P2) — never equal in Table 1.
        let (matched, _) = run("id = c3");
        assert!(matched.is_empty());
    }

    #[test]
    fn cross_inequality_join() {
        // id != c3 holds for every Table 1 row (values always differ).
        let (matched, _) = run("id != c3");
        assert_eq!(matched.len(), 5);
    }

    #[test]
    fn negation_and_nesting() {
        let q = "NOT (protocol = 'UDP' OR c1 >= 45)";
        let (matched, _) = run(q);
        assert_eq!(matched, reference(q));
        assert_eq!(matched.len(), 1); // only row 4 (TCP, c1=18)
    }

    #[test]
    fn empty_result_set() {
        let (matched, _) = run("c1 > 1000");
        assert!(matched.is_empty());
    }

    #[test]
    fn full_match() {
        let (matched, _) = run("c1 > 0");
        assert_eq!(matched.len(), 5);
    }

    #[test]
    fn query_accounts_network_traffic() {
        let (_, result) = run("c1 > 30 AND id = 'U1'");
        assert!(result.messages > 0);
        assert!(result.bytes > 0);
        assert!(!result.reports.is_empty());
    }

    #[test]
    fn scheduler_agrees_with_reference_on_paper_queries() {
        for q in [
            "c1 > 30",
            "c1 > 30 AND id = 'U1'",
            "c1 > 40 OR id = 'U2'",
            "id != c3",
            "NOT (protocol = 'UDP' OR c1 >= 45)",
        ] {
            let (matched, result) = run(q);
            assert_eq!(matched, reference(q), "query {q}");
            assert_eq!(result.cardinality, matched.len(), "query {q}");
            // One session per subquery (local ones send nothing on
            // theirs), each tracked distinctly from the root.
            assert_eq!(result.sessions.len(), result.plan.subqueries.len());
            assert!(result.sessions.iter().all(|&sid| sid != SessionId::ROOT));
        }
    }

    #[test]
    fn concurrent_makespan_not_worse_under_latency() {
        // With per-link latency, the query's makespan is the longest
        // subquery plus the ∧-combiner — strictly less than the sum of
        // the subquery sessions' own latencies once several cross
        // subqueries overlap.
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(11)
                .with_latency(LatencyModel::lan()),
        )
        .unwrap();
        let user = cluster.register_user("u").unwrap();
        cluster.log_records(&user, &paper_table1()).unwrap();
        let plan = cluster
            .compile(
                "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
                 AND (tid = 'T1100265' OR c2 > 100.00)",
            )
            .unwrap();
        assert!(plan.cross_count() >= 2);
        let start = cluster.net().elapsed();
        let result = execute(&mut cluster, &plan, true).unwrap();
        let net = cluster.net();
        let sum = result
            .sessions
            .iter()
            .map(|&sid| net.session_elapsed(sid) - start)
            .fold(SimTime::ZERO, |a, b| a + b);
        assert!(
            result.elapsed < sum,
            "makespan {} must undercut the summed subquery latencies {sum}",
            result.elapsed
        );
    }

    /// A two-node cluster over two same-typed attributes — `a` on node
    /// 0, `b` on node 1 — so an ordering predicate between them has to
    /// cross nodes; one record per `(a, b)` row.
    fn int_pair_cluster(
        seed: u64,
        latency: LatencyModel,
        rows: &[(i64, i64)],
    ) -> (DlaCluster, Vec<Glsn>) {
        use dla_logstore::model::AttrType;
        use dla_logstore::schema::AttrDef;
        let schema = Schema::new(vec![
            AttrDef::known("a", AttrType::Int),
            AttrDef::known("b", AttrType::Int),
        ])
        .unwrap();
        let partition = Partition::round_robin(&schema, 2).unwrap();
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(2, schema)
                .with_partition(partition)
                .with_seed(seed)
                .with_latency(latency),
        )
        .unwrap();
        let user = cluster.register_user("u").unwrap();
        let glsns = rows
            .iter()
            .map(|&(a, b)| {
                let record = LogRecord::new(Glsn(0))
                    .with("a", AttrValue::Int(a))
                    .with("b", AttrValue::Int(b));
                cluster.log_record(&user, &record).unwrap()
            })
            .collect();
        (cluster, glsns)
    }

    #[test]
    fn masked_compare_across_nodes() {
        let data = [(10i64, 20i64), (30, 5), (7, 7), (-3, 2)];
        let (mut cluster, glsns) = int_pair_cluster(7, LatencyModel::Zero, &data);
        let result = cluster.query("a < b").unwrap();
        let matched: Vec<usize> = result
            .glsns
            .iter()
            .map(|g| glsns.iter().position(|x| x == g).unwrap())
            .collect();
        assert_eq!(matched, vec![0, 3]);

        let result = cluster.query("a >= b").unwrap();
        let matched: Vec<usize> = result
            .glsns
            .iter()
            .map(|g| glsns.iter().position(|x| x == g).unwrap())
            .collect();
        assert_eq!(matched, vec![1, 2]);
    }

    #[test]
    fn cross_protocols_robust_under_link_latency() {
        // Attr-attr comparison sends from two owners to the TTP whose
        // arrivals interleave under latency; selective receive keeps
        // the answer deterministic.
        for seed in 0..3u64 {
            let rows = [(1i64, 2i64), (5, 3), (4, 4)];
            let (mut cluster, _) = int_pair_cluster(seed, LatencyModel::lan(), &rows);
            let result = cluster.query("a < b").unwrap();
            assert_eq!(result.glsns.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn masked_compare_refuses_a_foreign_tag_on_every_leg() {
        use dla_net::adversary::{ScriptedAdversary, Tamper, TamperRule};
        // Mask agreement from the left owner, either owner's
        // submission, the blind TTP's (net id 3) reply: each swapped
        // for an intact frame of another kind.
        let mut foreign = Writer::new();
        foreign.put_u8(0x7f).put_u64(0);
        let foreign = foreign.finish();
        for (liar, tag) in [(0, 0x30), (0, 0x31), (1, 0x31), (3, 0x32)] {
            let (mut cluster, _) = int_pair_cluster(7, LatencyModel::Zero, &[(1, 2), (5, 3)]);
            let swap = TamperRule::once_from(liar, tag, Tamper::Replace(foreign.clone()));
            let adversary =
                std::sync::Arc::new(ScriptedAdversary::new().compromise(liar).rule(swap));
            cluster.set_adversary(adversary.clone());
            let outcome = cluster.query("a < b");
            assert_eq!(adversary.report().forged, 1, "tag {tag:#x}: the swap fires");
            assert!(
                matches!(outcome, Err(AuditError::Wire(_))),
                "tag {tag:#x} swapped gave {outcome:?}"
            );
            // The refused run drained what it sent: nothing waits in
            // any session for a later run to mistake for its own.
            let mut net = cluster.net();
            let sessions = net.open_session().0;
            for session in (0..sessions).map(SessionId) {
                for node in (0..net.num_nodes()).map(NodeId) {
                    let pending = net.pending_on(session, node);
                    assert_eq!(pending, 0, "tag {tag:#x}: {session:?} at {node}");
                }
            }
        }
    }

    #[test]
    fn distributed_matches_centralized_on_random_workload() {
        use dla_logstore::gen::{generate, WorkloadConfig};
        use rand::SeedableRng;
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema.clone())
                .with_partition(partition)
                .with_seed(123),
        )
        .unwrap();
        let user = cluster.register_user("u").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let records = generate(
            &WorkloadConfig {
                records: 40,
                ..WorkloadConfig::default()
            },
            &mut rng,
        );
        let glsns = cluster.log_records(&user, &records).unwrap();
        for q in [
            "c1 > 50",
            "c1 > 50 AND protocol = 'TCP'",
            "(id = 'U1' OR c1 > 80) AND c2 < 500.00",
            "NOT (protocol = 'UDP' OR c1 < 20)",
            "id != c3",
        ] {
            let parsed = crate::parser::parse(q, &schema).unwrap();
            let expect: BTreeSet<Glsn> = records
                .iter()
                .zip(&glsns)
                .filter(|(r, _)| {
                    let mut rr = LogRecord::new(Glsn(0));
                    for (n, v) in r.iter() {
                        rr.insert(n.clone(), v.clone());
                    }
                    parsed.eval(&rr).unwrap()
                })
                .map(|(_, g)| *g)
                .collect();
            let got: BTreeSet<Glsn> = cluster.query(q).unwrap().glsns.into_iter().collect();
            assert_eq!(got, expect, "query {q}");
        }
    }

    #[test]
    fn ordinal_mapping_preserves_order_and_bounds() {
        let vals = [AttrValue::Int(-100), AttrValue::Int(0), AttrValue::Int(100)];
        let ords: Vec<u64> = vals.iter().map(|v| to_ordinal(v).unwrap()).collect();
        assert!(ords[0] < ords[1] && ords[1] < ords[2]);
        assert!(to_ordinal(&AttrValue::Int(1 << 39)).is_err());
        assert!(to_ordinal(&AttrValue::text("x")).is_err());
        assert!(to_ordinal(&AttrValue::Time(1_021_234_715)).is_ok());
    }
}

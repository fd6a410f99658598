//! The deployment workload: one seeded deposits-plus-queries exercise
//! that runs over **any** [`Transport`] — the in-process
//! [`dla_net::ChannelNet`], a loopback [`dla_net::TcpNet`] mesh of node
//! processes, or the cluster's own simulator — and reduces everything
//! observable to a deterministic answer digest.
//!
//! Transport equivalence is the deployment story's correctness
//! argument: the same seeded workload must produce **byte-identical**
//! answers whether protocol messages ride crossbeam channels between
//! threads or length-prefixed TCP frames between processes. The
//! `dla-cluster` launcher and the `socket_equivalence` integration test
//! run exactly this harness and compare
//! [`WorkloadOutcome::digest_hex`]; `tests/cipher_path_pins.rs` pins
//! the digest itself. The wall-clock benchmark (`benchmark/`) has its
//! own workloads and takes only [`fragments`] from here, to check that
//! its store path ships what the launcher ships.
//!
//! The exercise covers the five MPC protocol families end to end:
//! secure set intersection and set union through the full query
//! executor (conjunctive and disjunctive plans), plus direct secure
//! sum, blind equality and privacy-preserving ranking sessions.

use crate::cluster::{trail_item, ClusterConfig, DlaCluster};
use crate::exec::ExecMode;
use crate::integrity::{check_trail, TrailVerdict};
use crate::AuditError;
use dla_bigint::F61;
use dla_crypto::sha256;
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::schema::Schema;
use dla_mpc::{EqualitySession, RankingSession, SumSession};
use dla_net::{NodeId, Session, SessionId, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Session id for the deposit-shipping phase. Direct-protocol sessions
/// count up from here; all are far above the small ids the query
/// executor allocates on the cluster's simulator.
const DEPOSIT_SESSION: SessionId = SessionId(0x00DE_0001);
const SUM_SESSION: SessionId = SessionId(0x00DE_0002);
const EQUALITY_SESSION: SessionId = SessionId(0x00DE_0003);
const RANKING_SESSION: SessionId = SessionId(0x00DE_0004);

/// The conjunctive query (drives secure set intersection).
pub const SSI_QUERY: &str = "c1 > 30 AND id = 'U1'";
/// The disjunctive query (drives secure set union).
pub const UNION_QUERY: &str = "c1 > 40 OR id = 'U2'";

/// Shape of the seeded workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// DLA nodes.
    pub nodes: usize,
    /// Records deposited before querying.
    pub records: usize,
    /// Master seed (cluster keys, workload generation, protocol
    /// randomness all derive from it).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            nodes: 4,
            records: 12,
            seed: 7,
        }
    }
}

impl WorkloadSpec {
    /// Network size an external transport must provide for this spec:
    /// the DLA nodes, the auditor, the blind-TTP helper, and one user
    /// endpoint (the depositor).
    #[must_use]
    pub fn network_size(&self) -> usize {
        self.nodes + 3
    }
}

/// One protocol family's result within a workload run.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// Protocol family name ("ssi", "union", "sum", "equality",
    /// "ranking").
    pub protocol: &'static str,
    /// Canonical answer rendering — identical across transports by
    /// construction; what the equivalence digest folds.
    pub answer: String,
}

/// Everything a workload run produced.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Per-protocol answers, in execution order.
    pub runs: Vec<ProtocolRun>,
    /// SHA-256 over the shipped deposit items and every answer line.
    pub digest: sha256::Digest,
    /// Deposit fragments shipped over the transport.
    pub deposits_shipped: usize,
    /// Whole-trail integrity verdict after the run
    /// ([`crate::integrity::check_trail`]).
    pub trail: TrailVerdict,
}

impl WorkloadOutcome {
    /// The equivalence digest, hex-encoded.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        self.digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Whether the integrity verdict passed.
    #[must_use]
    pub fn integrity_ok(&self) -> bool {
        self.trail.ok
    }
}

/// The trail fragments a deployment ships to node processes: for each
/// logged glsn, `(glsn, owner index, trail item bytes)` with ownership
/// by `glsn % nodes`. The `dla-cluster` launcher pushes these through
/// the socket transport's store path so node-side deposit digests can
/// be audited against the farewell reports.
#[must_use]
pub fn fragments(cluster: &DlaCluster, nodes: usize) -> Vec<(u64, usize, Vec<u8>)> {
    cluster
        .logged_glsns()
        .into_iter()
        .map(|glsn| {
            let deposit = cluster.deposit(glsn).expect("logged glsns have deposits");
            (glsn.0, (glsn.0 as usize) % nodes, trail_item(glsn, deposit))
        })
        .collect()
}

/// Builds and loads the cluster for `spec`: paper schema (the paper's
/// partition when `nodes == 4`, round-robin otherwise), a short epoch
/// length so several epochs seal and the checkpoint chain is
/// non-trivial, and `spec.records` generated records logged by one
/// registered user.
///
/// # Errors
///
/// Propagates cluster construction and logging failures.
pub fn build_cluster(spec: &WorkloadSpec) -> Result<DlaCluster, AuditError> {
    let schema = Schema::paper_example();
    let mut config = ClusterConfig::new(spec.nodes, schema.clone())
        .with_seed(spec.seed)
        .with_epoch_length(4);
    if spec.nodes == 4 {
        config = config.with_partition(Partition::paper_example(&schema));
    }
    let mut cluster = DlaCluster::new(config)?;
    let user = cluster.register_user("deploy")?;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let records = generate(
        &WorkloadConfig {
            records: spec.records,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    cluster.log_records(&user, &records)?;
    Ok(cluster)
}

/// Runs the full workload over `transport`: ships every deposit's
/// trail item from the user endpoint to its owner node, executes the
/// five protocol families, checks trail integrity, and folds the whole
/// trace into the equivalence digest.
///
/// The cluster must have been built by [`build_cluster`] with the same
/// `spec` (the protocols derive their inputs from the deposits and the
/// seed). `transport` carries all protocol traffic; session management
/// stays on the cluster's own network.
///
/// # Errors
///
/// Propagates protocol failures and transport timeouts.
///
/// # Panics
///
/// Panics if a subquery worker thread panics (see
/// [`crate::exec::execute_on`]).
pub fn run_workload(
    cluster: &DlaCluster,
    transport: &(dyn Transport + Sync),
    spec: &WorkloadSpec,
) -> Result<WorkloadOutcome, AuditError> {
    let mut hasher_input: Vec<u8> = Vec::new();
    let mut runs = Vec::new();

    // Phase 1: ship each deposit's trail item from the user endpoint to
    // the node owning its glsn, over a dedicated session. On a socket
    // transport every item genuinely crosses the process mesh; the
    // receiving side (driven centrally, like the protocols) checks the
    // bytes arrived intact.
    let depositor = NodeId(spec.nodes + 2);
    let session = Session::new(transport, DEPOSIT_SESSION);
    let mut shipped = 0usize;
    for glsn in cluster.logged_glsns() {
        let deposit = cluster.deposit(glsn).expect("logged glsns have deposits");
        let item = trail_item(glsn, deposit);
        let owner = NodeId((glsn.0 as usize) % spec.nodes);
        session.send(depositor, owner, bytes::Bytes::from(item.clone()));
        let received = session
            .recv_from(owner, depositor)
            .map_err(AuditError::from)?;
        if received.payload.as_ref() != item.as_slice() {
            return Err(AuditError::Integrity(format!(
                "deposit for {glsn:?} arrived mangled at {owner}"
            )));
        }
        hasher_input.extend_from_slice(&item);
        shipped += 1;
    }

    // Phase 2: the five protocol families.
    let parties: Vec<NodeId> = (0..spec.nodes).map(NodeId).collect();
    let auditor = cluster.auditor_node();
    let ttp = cluster.ttp_node();
    let mut answered = |protocol, answer| runs.push(ProtocolRun { protocol, answer });

    // Secure set intersection, through the conjunctive query plan.
    let result = run_query(cluster, transport, SSI_QUERY, spec.seed ^ 0x5551)?;
    answered("ssi", format!("{result:?}"));

    // Secure set union, through the disjunctive query plan.
    let result = run_query(cluster, transport, UNION_QUERY, spec.seed ^ 0x0101)?;
    answered("union", format!("{result:?}"));

    // Secure sum: each node contributes a value derived from the seed.
    let inputs: Vec<F61> = (0..spec.nodes as u64)
        .map(|i| F61::new(spec.seed.wrapping_mul(31).wrapping_add(7 * i) % 1_000))
        .collect();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x50D);
    let session = Session::new(transport, SUM_SESSION);
    let outcome = SumSession::new(session, &parties, spec.nodes, auditor)
        .run(&inputs, &mut rng)
        .map_err(AuditError::from)?;
    answered("sum", format!("{}", outcome.total.value()));

    // Blind equality between the first two nodes via the TTP helper.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xE0);
    let session = Session::new(transport, EQUALITY_SESSION);
    let outcome = EqualitySession::new(session, parties[0], parties[1 % spec.nodes], ttp)
        .run(
            F61::new(spec.seed % 97),
            F61::new((spec.seed + 1) % 97),
            &mut rng,
        )
        .map_err(AuditError::from)?;
    answered("equality", format!("{}", outcome.equal));

    // Privacy-preserving ranking of per-node values via the TTP.
    let values: Vec<u64> = (0..spec.nodes as u64)
        .map(|i| spec.seed.wrapping_mul(i + 3) % 10_000)
        .collect();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x4A4B);
    let session = Session::new(transport, RANKING_SESSION);
    let outcome = RankingSession::new(session, &parties, ttp)
        .run(&values, &mut rng)
        .map_err(AuditError::from)?;
    answered("ranking", format!("{:?}", outcome.ascending));

    // Phase 3: integrity check over everything deposited.
    let trail = check_trail(cluster);

    for run in &runs {
        hasher_input.extend_from_slice(run.protocol.as_bytes());
        hasher_input.push(b'=');
        hasher_input.extend_from_slice(run.answer.as_bytes());
        hasher_input.push(b'\n');
    }
    let digest = sha256::digest(&hasher_input);

    Ok(WorkloadOutcome {
        runs,
        digest,
        deposits_shipped: shipped,
        trail,
    })
}

/// Compiles and executes one query over `transport` with a fixed
/// `query_seed`, returning the sorted answer glsns (the deterministic,
/// transport-independent rendering base).
fn run_query(
    cluster: &DlaCluster,
    transport: &(dyn Transport + Sync),
    criteria: &str,
    query_seed: u64,
) -> Result<Vec<u64>, AuditError> {
    let plan = cluster.compile(criteria)?;
    let result = crate::exec::execute_on(
        cluster,
        transport,
        &plan,
        true,
        ExecMode::Concurrent,
        query_seed,
    )?;
    Ok(result.glsns.iter().map(|g| g.0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_net::{ChannelNet, SimTime, VirtualClock};
    use std::sync::Arc;

    fn channel_net(spec: &WorkloadSpec) -> ChannelNet {
        ChannelNet::with_clock(
            spec.network_size(),
            SimTime::from_millis(2_000),
            Arc::new(VirtualClock::new()),
        )
    }

    #[test]
    fn workload_runs_over_channel_net() {
        let spec = WorkloadSpec::default();
        let cluster = build_cluster(&spec).expect("cluster");
        let net = channel_net(&spec);
        let outcome = run_workload(&cluster, &net, &spec).expect("workload");
        assert_eq!(outcome.deposits_shipped, spec.records);
        assert_eq!(outcome.runs.len(), 5);
        assert!(outcome.integrity_ok(), "the trail must verify");
        assert!(outcome.runs.iter().all(|r| !r.answer.is_empty()));
        assert_eq!(outcome.digest_hex().len(), 64);
    }

    #[test]
    fn same_spec_same_digest_fresh_everything() {
        let spec = WorkloadSpec {
            records: 8,
            seed: 21,
            ..WorkloadSpec::default()
        };
        let a = {
            let cluster = build_cluster(&spec).expect("cluster");
            run_workload(&cluster, &channel_net(&spec), &spec).expect("run a")
        };
        let b = {
            let cluster = build_cluster(&spec).expect("cluster");
            run_workload(&cluster, &channel_net(&spec), &spec).expect("run b")
        };
        assert_eq!(a.digest_hex(), b.digest_hex(), "workload is deterministic");
        let answers_a: Vec<_> = a.runs.iter().map(|r| r.answer.clone()).collect();
        let answers_b: Vec<_> = b.runs.iter().map(|r| r.answer.clone()).collect();
        assert_eq!(answers_a, answers_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let spec_a = WorkloadSpec {
            seed: 1,
            ..WorkloadSpec::default()
        };
        let spec_b = WorkloadSpec {
            seed: 2,
            ..WorkloadSpec::default()
        };
        let a = {
            let cluster = build_cluster(&spec_a).expect("cluster");
            run_workload(&cluster, &channel_net(&spec_a), &spec_a).expect("run")
        };
        let b = {
            let cluster = build_cluster(&spec_b).expect("cluster");
            run_workload(&cluster, &channel_net(&spec_b), &spec_b).expect("run")
        };
        assert_ne!(a.digest_hex(), b.digest_hex());
    }
}

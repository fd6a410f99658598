//! The DLA cluster (paper §2, Figure 2): `n` TTP nodes storing log
//! fragments, an auditor engine, application users logging through
//! tickets, and the simulated network tying them together.

use crate::kept::KeptResults;
use crate::AuditError;
use dla_bigint::Ubig;
use dla_crypto::accumulator::{AccumulatorParams, CheckpointChain};
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_crypto::schnorr::{SchnorrGroup, SchnorrKeyPair};
use dla_logstore::acl::{OperationSet, Ticket, TicketAuthority};
use dla_logstore::epoch::{EpochId, EpochPolicy};
use dla_logstore::fragment::{fragment, Fragment, Partition};
use dla_logstore::journal::{Journal, JournalEntry};
use dla_logstore::model::{AttrName, AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_logstore::store::{FragmentStore, GlsnAllocator};
use dla_logstore::LogError;
use dla_net::latency::LatencyModel;
use dla_net::wire::{Reader, Writer};
use dla_net::{NetConfig, NodeId, Session, SharedNet, SimNet};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Configuration for [`DlaCluster::new`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of DLA nodes.
    pub nodes: usize,
    /// The attribute universe.
    pub schema: Schema,
    /// Attribute-to-node assignment; defaults to round-robin.
    pub partition: Option<Partition>,
    /// RNG seed (key generation, masks, network sampling).
    pub seed: u64,
    /// Link latency model.
    pub latency: LatencyModel,
    /// Maximum number of application users that can register.
    pub max_users: usize,
    /// Capture every network payload for leak-inspection tests.
    pub capture_payloads: bool,
    /// Directory for per-node + cluster journals; enables crash-safe
    /// durability and [`DlaCluster`] restart recovery.
    pub journal_dir: Option<std::path::PathBuf>,
    /// Ship every fragment to its owner's ring successor as a standby
    /// copy at log time, enabling [`DlaCluster::rereplicate`] after a
    /// node loss. Off by default (costs one extra message per fragment).
    pub standby_replication: bool,
    /// Glsns per trail epoch (the sharding grain). Deposits are
    /// assigned to epochs at allocation time; when the open epoch rolls
    /// forward, earlier epochs are sealed and their accumulator digests
    /// checkpointed. Defaults to 1024.
    pub epoch_length: u64,
    /// First glsn this cluster allocates (and its epoch policy's base).
    /// Defaults to the paper's first glsn; a federated sub-ring sets
    /// its [`dla_logstore::epoch::RingNamespace`] span base here so
    /// every ring draws from a disjoint glsn range.
    pub glsn_base: Option<Glsn>,
}

impl ClusterConfig {
    /// A cluster of `nodes` DLA nodes over `schema`.
    #[must_use]
    pub fn new(nodes: usize, schema: Schema) -> Self {
        ClusterConfig {
            nodes,
            schema,
            partition: None,
            seed: 0,
            latency: LatencyModel::Zero,
            max_users: 8,
            capture_payloads: false,
            journal_dir: None,
            standby_replication: false,
            epoch_length: 1024,
            glsn_base: None,
        }
    }

    /// Sets the first glsn the cluster allocates and bases its epochs
    /// at — the knob a federation turns to give each sub-ring its own
    /// glsn span (see [`dla_logstore::epoch::RingNamespace`]).
    #[must_use]
    pub fn with_glsn_base(mut self, base: Glsn) -> Self {
        self.glsn_base = Some(base);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets an explicit partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Sets the user capacity.
    #[must_use]
    pub fn with_max_users(mut self, max_users: usize) -> Self {
        self.max_users = max_users;
        self
    }

    /// Enables network payload capture (leak-inspection tests).
    #[must_use]
    pub fn with_payload_capture(mut self) -> Self {
        self.capture_payloads = true;
        self
    }

    /// Enables journal-backed durability under `dir`: every node's
    /// fragments/ACL plus the cluster's deposits, origin signatures and
    /// ticket counter survive a restart (rebuild with the same config
    /// and directory).
    #[must_use]
    pub fn with_journal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Enables standby fragment replication: at log time each fragment
    /// is also shipped to the owning node's ring successor
    /// (`(node + 1) % n`), where it waits journaled-but-inactive until
    /// [`DlaCluster::rereplicate`] promotes it after a node loss.
    #[must_use]
    pub fn with_standby_replication(mut self) -> Self {
        self.standby_replication = true;
        self
    }

    /// Sets the epoch length (glsns per trail epoch). Small values make
    /// epochs roll (and seal) quickly — useful for tests; production
    /// defaults to 1024.
    #[must_use]
    pub fn with_epoch_length(mut self, epoch_length: u64) -> Self {
        self.epoch_length = epoch_length;
        self
    }
}

/// Running per-epoch statistics kept by the cluster: deposit count,
/// glsn/time extents (the epoch-pruning index), and the epoch's own
/// accumulator over its deposit items.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// The epoch.
    pub epoch: EpochId,
    /// Deposits assigned to this epoch.
    pub deposits: u64,
    /// Smallest glsn deposited (`Glsn(u64::MAX)` while empty).
    pub glsn_lo: Glsn,
    /// Largest glsn deposited (`Glsn(0)` while empty).
    pub glsn_hi: Glsn,
    /// Smallest `time` attribute among the epoch's records, if any
    /// carried one.
    pub time_lo: Option<u64>,
    /// Largest `time` attribute among the epoch's records.
    pub time_hi: Option<u64>,
    /// Deposits that carried a `time` attribute. When equal to
    /// `deposits`, `[time_lo, time_hi]` bounds *every* record in the
    /// epoch — the precondition for answering a time-windowed aggregate
    /// from cached partials without consulting the fragments.
    pub timed: u64,
    /// The epoch accumulator: fold of `trail_item(glsn, deposit)` for
    /// every deposit in the epoch, from `x₀`. Checkpointed on seal.
    pub acc: Ubig,
    /// Whether the epoch has been sealed (digest checkpointed; no
    /// further deposits accepted).
    pub sealed: bool,
}

impl EpochStats {
    /// Whether every deposit of the epoch carries a `time` inside
    /// `window`, by the extents noted at deposit — what has to hold
    /// before anything remembered of the whole epoch (a cached aggregate
    /// partial, a kept answer) may stand in for a query bounded by
    /// `window`.
    #[must_use]
    pub fn timed_within(&self, window: &crate::plan::TimeWindow) -> bool {
        let extent = self.time_lo.zip(self.time_hi);
        self.timed == self.deposits && extent.is_some_and(|(lo, hi)| window.covers(lo, hi))
    }

    /// Whether a query confined to `window` has to look at the epoch:
    /// always for an unbounded window, else when the time extent noted
    /// at deposit meets it. An epoch that saw no `time` is outside every
    /// bounded window — a record without a time cannot satisfy a time
    /// predicate under the lenient §5 evaluation.
    #[must_use]
    pub fn touches(&self, window: &crate::plan::TimeWindow) -> bool {
        let extent = self.time_lo.zip(self.time_hi);
        window.is_unbounded() || extent.is_some_and(|(lo, hi)| window.intersects(lo, hi))
    }

    fn open(epoch: EpochId, acc0: Ubig) -> Self {
        EpochStats {
            epoch,
            deposits: 0,
            glsn_lo: Glsn(u64::MAX),
            glsn_hi: Glsn(0),
            time_lo: None,
            time_hi: None,
            timed: 0,
            acc: acc0,
            sealed: false,
        }
    }

    fn observe(&mut self, glsn: Glsn, time: Option<u64>) {
        self.deposits += 1;
        self.glsn_lo = self.glsn_lo.min(glsn);
        self.glsn_hi = self.glsn_hi.max(glsn);
        if let Some(t) = time {
            self.timed += 1;
            self.time_lo = Some(self.time_lo.map_or(t, |lo| lo.min(t)));
            self.time_hi = Some(self.time_hi.map_or(t, |hi| hi.max(t)));
        }
    }
}

/// Commitment to the cluster-wide materialized aggregates of `epoch`:
/// a domain-tagged hash over every node's canonical
/// [`dla_logstore::epoch::EpochPartials`] encoding, in node order.
/// Folded into the epoch's checkpoint link
/// ([`CheckpointChain::seal_with_aggregates`]) so a cached partial
/// consulted by a windowed aggregate query is integrity-checked
/// against the published chain, never trusted. Nodes that never
/// materialized contribute their live recompute — a pure function of
/// their fragments, so the commitment is reproducible on restore.
#[must_use]
pub fn epoch_aggregates_digest(nodes: &[DlaNode], epoch: EpochId) -> [u8; 32] {
    let epoch_be = epoch.0.to_be_bytes();
    let encodings: Vec<Vec<u8>> = nodes
        .iter()
        .map(|node| {
            let store = node.store();
            store.epoch_partials(epoch).map_or_else(
                || store.compute_partials(epoch).encode(),
                dla_logstore::epoch::EpochPartials::encode,
            )
        })
        .collect();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(encodings.len() + 2);
    parts.push(b"dla-epoch-aggregates");
    parts.push(&epoch_be);
    for encoding in &encodings {
        parts.push(encoding);
    }
    dla_crypto::sha256::digest_parts(&parts)
}

/// The fragment `store` serves of `glsn` for the attributes deposited
/// at `home`: its own, or the copy it adopted from a retired `home`.
pub(crate) fn served(store: &FragmentStore, home: usize, glsn: Glsn) -> Option<&Fragment> {
    if store.node() == home {
        store.get_local(glsn)
    } else {
        store.get_adopted(home, glsn)
    }
}

/// The trail item folded into its epoch's accumulator for one
/// deposit: domain-tagged `glsn ‖ deposit` bytes.
pub(crate) fn trail_item(glsn: Glsn, deposit: &Ubig) -> Vec<u8> {
    let mut out = Vec::with_capacity(80);
    out.extend_from_slice(b"dla-trail-item");
    out.extend_from_slice(&glsn.0.to_be_bytes());
    out.extend_from_slice(&deposit.to_bytes_be());
    out
}

/// One dead node's fragments finding a new home during
/// [`DlaCluster::rereplicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAdoption {
    /// The node declared dead.
    pub dead: usize,
    /// The surviving ring successor that promoted its standbys.
    pub adopter: usize,
    /// How many standby fragments were promoted to served copies.
    pub promoted: usize,
}

/// Outcome of [`DlaCluster::rereplicate`]: which nodes were adopted by
/// whom, and the per-record accumulator verdicts over the survivor set.
#[derive(Debug, Clone)]
pub struct RereplicationReport {
    /// Adoptions performed, in retirement order.
    pub adoptions: Vec<NodeAdoption>,
    /// Records whose survivor-set circulation reproduced the deposit.
    pub verified: Vec<Glsn>,
    /// Records the survivors could **not** prove intact (standby copy
    /// missing, lost with its holder, or tampered).
    pub failed: Vec<Glsn>,
}

impl RereplicationReport {
    /// Whether every logged record survived the repair provably intact.
    #[must_use]
    pub fn is_fully_verified(&self) -> bool {
        self.failed.is_empty()
    }
}

/// One DLA node: its fragment store and the attributes it serves.
///
/// The store sits behind a read/write lock so concurrent subquery
/// sessions can scan different (or the same) nodes from worker threads
/// while mutation (logging, tampering test hooks) takes the write lock.
pub struct DlaNode {
    id: usize,
    attrs: Vec<AttrName>,
    store: RwLock<FragmentStore>,
}

impl fmt::Debug for DlaNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DlaNode(P{}, attrs: {:?}, fragments: {})",
            self.id,
            self.attrs.iter().map(AttrName::as_str).collect::<Vec<_>>(),
            self.store.read().len()
        )
    }
}

impl DlaNode {
    /// The node index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The attributes this node serves (`A_i`).
    #[must_use]
    pub fn supported_attributes(&self) -> &[AttrName] {
        &self.attrs
    }

    /// Read access to the node's fragment store.
    pub fn store(&self) -> RwLockReadGuard<'_, FragmentStore> {
        self.store.read()
    }

    /// Write access to the store (protocol machinery and test hooks).
    pub fn store_mut(&self) -> RwLockWriteGuard<'_, FragmentStore> {
        self.store.write()
    }
}

/// A registered application user (`u_j ∈ U`).
#[derive(Debug)]
pub struct AppUser {
    /// Display name.
    pub name: String,
    /// The user's network endpoint.
    pub node: NodeId,
    /// The user's ticket for logging/querying.
    pub ticket: Ticket,
    key: SchnorrKeyPair,
}

impl AppUser {
    /// The user's signing key (ticket holder key).
    #[must_use]
    pub fn key(&self) -> &SchnorrKeyPair {
        &self.key
    }
}

/// The assembled DLA cluster.
pub struct DlaCluster {
    schema: Schema,
    /// The configured attribute partition; the one in force is
    /// [`DlaCluster::effective_partition`].
    partition: Partition,
    group: SchnorrGroup,
    domain: CommutativeDomain,
    acc_params: AccumulatorParams,
    nodes: Vec<DlaNode>,
    net: SharedNet,
    seed: u64,
    query_counter: AtomicU64,
    allocator: GlsnAllocator,
    authority: TicketAuthority,
    /// User-deposited accumulator values, replicated at every node
    /// (stored once here since replicas are identical by construction;
    /// integrity checking re-derives per-node views from fragments).
    deposits: BTreeMap<Glsn, Ubig>,
    /// Per-record origin attestations: the logging user's public key
    /// and its signature over (glsn ‖ deposit). Combined with the §4.1
    /// integrity circulation this gives **non-repudiation**: the user
    /// signed the accumulator value, and the accumulator binds every
    /// fragment.
    origins: BTreeMap<
        Glsn,
        (
            dla_crypto::schnorr::SchnorrPublicKey,
            dla_crypto::schnorr::Signature,
        ),
    >,
    cluster_journal: Option<Journal>,
    users: usize,
    max_users: usize,
    rng: StdRng,
    standby_replication: bool,
    /// Retirement log: `(dead node, adopter)` in declaration order.
    /// The adopter serves the dead node's attributes from promoted
    /// standby fragments; [`DlaCluster::effective_partition`] replays
    /// this log over the configured partition.
    retired: Vec<(usize, usize)>,
    /// Tamper-evident journal of the cluster's own privileged actions
    /// (deposits, user registrations, re-replications, degraded-mode
    /// decisions).
    meta: crate::meta::MetaAuditTrail,
    /// The epoch sharding policy shared with every node store.
    epoch_policy: EpochPolicy,
    /// Per-epoch stats: pruning index + running epoch accumulators.
    epoch_stats: BTreeMap<EpochId, EpochStats>,
    /// Hash-linked checkpoints of sealed epochs' accumulator digests.
    chain: CheckpointChain,
    /// [`DlaCluster::trail_accumulator`], derived from `deposits` on
    /// first read and forgotten by every change to them.
    trail_acc: OnceLock<Ubig>,
    /// Registered standing queries, evaluated incrementally at every
    /// epoch seal (see [`crate::standing`]).
    standing: crate::standing::StandingRegistry,
    /// What the auditor engine keeps of the answers revealed to it, per
    /// sealed epoch ([`crate::kept`]) — the cluster's one memory of
    /// answers. Behind a lock of its own: shared queries
    /// ([`DlaCluster::query_shared`]) look up and file from many threads.
    kept: Mutex<KeptResults>,
}

impl fmt::Debug for DlaCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DlaCluster({} nodes, {} users, {} records)",
            self.nodes.len(),
            self.users,
            self.deposits.len()
        )
    }
}

impl DlaCluster {
    /// Builds a cluster.
    ///
    /// Network layout: indices `0..n` are DLA nodes, `n` is the auditor
    /// engine, `n+1` a dedicated blind-TTP helper, and `n+2..` user
    /// endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] if the partition is invalid for the
    /// schema or `nodes == 0`.
    pub fn new(config: ClusterConfig) -> Result<Self, AuditError> {
        if config.nodes == 0 {
            return Err(AuditError::Config("cluster needs at least one node".into()));
        }
        let partition = match config.partition {
            Some(p) => {
                if p.num_nodes() != config.nodes {
                    return Err(AuditError::Config(format!(
                        "partition covers {} nodes but cluster has {}",
                        p.num_nodes(),
                        config.nodes
                    )));
                }
                p
            }
            None => Partition::round_robin(&config.schema, config.nodes)
                .map_err(|e| AuditError::Config(e.to_string()))?,
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let group = SchnorrGroup::fixed_256();
        let glsn_base = config
            .glsn_base
            .unwrap_or_else(|| EpochPolicy::paper_default().base());
        let epoch_policy = EpochPolicy::new(glsn_base, config.epoch_length);
        let nodes: Vec<DlaNode> = (0..config.nodes)
            .map(|i| {
                let store = match &config.journal_dir {
                    Some(dir) => {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| AuditError::Config(format!("journal dir: {e}")))?;
                        FragmentStore::restore_with_policy(
                            i,
                            &dir.join(format!("node-{i}.journal")),
                            epoch_policy,
                        )
                        .map_err(|e| AuditError::Config(e.to_string()))?
                    }
                    None => FragmentStore::with_policy(i, epoch_policy),
                };
                Ok(DlaNode {
                    id: i,
                    attrs: partition.attrs_of(i).to_vec(),
                    store: RwLock::new(store),
                })
            })
            .collect::<Result<_, AuditError>>()?;
        let mut net_config = NetConfig::ideal()
            .with_latency(config.latency)
            .with_seed(config.seed);
        net_config.capture_payloads = config.capture_payloads;
        let net = SimNet::new(config.nodes + 2 + config.max_users, net_config);

        let authority = TicketAuthority::new(&group, &mut rng);
        let acc_params = AccumulatorParams::fixed_512();
        // The ledger starts empty; whatever history there is arrives by
        // replaying the cluster journal through the same transitions
        // that wrote it.
        let mut cluster = DlaCluster {
            meta: crate::meta::MetaAuditTrail::new(),
            trail_acc: OnceLock::new(),
            schema: config.schema,
            partition,
            group,
            domain: CommutativeDomain::fixed_256(),
            acc_params,
            nodes,
            net: SharedNet::new(net),
            seed: config.seed,
            query_counter: AtomicU64::new(0),
            allocator: GlsnAllocator::starting_at(glsn_base),
            authority,
            deposits: BTreeMap::new(),
            origins: BTreeMap::new(),
            cluster_journal: None,
            users: 0,
            max_users: config.max_users,
            rng,
            standby_replication: config.standby_replication,
            retired: Vec::new(),
            epoch_policy,
            epoch_stats: BTreeMap::new(),
            chain: CheckpointChain::new(),
            standing: crate::standing::StandingRegistry::default(),
            kept: Mutex::default(),
        };
        if let Some(dir) = &config.journal_dir {
            cluster.recover(&dir.join("cluster.journal"))?;
        }
        Ok(cluster)
    }

    /// Restart recovery: replays `cluster.journal` through
    /// [`DlaCluster::absorb`] and [`DlaCluster::seal`] in journal order,
    /// then reconciles the node journals — already replayed by their
    /// stores — against the one commit rule: **a deposit exists iff its
    /// `BLOB_DEPOSIT` is in the cluster journal**. Fragments, standby
    /// copies and ACL grants of any other glsn are the debris of a
    /// deposit that crashed before it committed and are rolled back
    /// (journaled, so replaying twice lands in the same place). A seal
    /// record the nodes had not caught up with is re-applied to them by
    /// `seal` itself.
    fn recover(&mut self, path: &std::path::Path) -> Result<(), AuditError> {
        let (journal, entries) =
            Journal::open(path).map_err(|e| AuditError::Config(e.to_string()))?;
        let be_u64 = |tag: u8, bytes: &[u8]| match bytes.try_into() {
            Ok(raw) => Ok(u64::from_be_bytes(raw)),
            Err(_) => Err(AuditError::Config(format!(
                "cluster journal blob {tag:#04x} carries {} bytes, expected 8",
                bytes.len()
            ))),
        };
        let mut batch = Vec::new();
        for entry in entries {
            let JournalEntry::Blob { tag, bytes } = entry else {
                continue;
            };
            match tag {
                BLOB_DEPOSIT => batch.push(DepositRecord::decode(&bytes)?),
                BLOB_TICKET_COUNTER => self.authority.resume_from(be_u64(tag, &bytes)?),
                BLOB_EPOCH_SEAL => {
                    self.absorb(std::mem::take(&mut batch))?;
                    self.seal(EpochId(be_u64(tag, &bytes)?))?;
                }
                _ => {}
            }
        }
        self.absorb(batch)?;
        self.cluster_journal = Some(journal);

        self.roll_back_uncommitted()?;
        // Allocation resumes past the last committed deposit — and past
        // every epoch any node has sealed, which admits no deposit.
        let sealed = |node: &DlaNode| {
            let store = node.store();
            let sealed = store.epoch_manifests().filter(|m| m.sealed);
            sealed
                .map(|m| self.epoch_policy.glsn_range(m.epoch).1)
                .max()
        };
        let last = (self.deposits.keys().next_back().copied())
            .max(self.nodes.iter().filter_map(sealed).max());
        if let Some(last) = last {
            self.allocator = GlsnAllocator::starting_at(Glsn(last.0.saturating_add(1)));
        }
        // A crash can commit deposits and tear the seal records behind
        // them: finish the rollover the batch had begun.
        self.flush_deposit_batch(Vec::new())
    }

    /// Enforces the commit rule on the node stores: whatever a node
    /// holds of a glsn without a deposit record — fragment, standby
    /// copy, ACL grant — is forgotten, through the store's own journaled
    /// transition.
    fn roll_back_uncommitted(&mut self) -> Result<(), AuditError> {
        let mut rolled_back = BTreeSet::new();
        for node in &self.nodes {
            let orphans = node
                .store_mut()
                .forget_uncommitted(|glsn| self.deposits.contains_key(&glsn))
                .map_err(|e| AuditError::Log(e.to_string()))?;
            rolled_back.extend(orphans);
        }
        if !rolled_back.is_empty() {
            self.meta_log("cluster", "rollback", format!("glsns={rolled_back:?}"));
        }
        Ok(())
    }

    /// Ledger transition — absorb committed deposits: index them, note
    /// their origins and fold their trail items into their epoch's
    /// accumulator, one fold per touched epoch. Called with a batch the
    /// cluster journal has just taken and with the deposits replayed
    /// from it.
    fn absorb(&mut self, batch: Vec<DepositRecord>) -> Result<(), AuditError> {
        let acc_params = &self.acc_params;
        self.trail_acc.take();
        let mut groups: BTreeMap<EpochId, Vec<Vec<u8>>> = BTreeMap::new();
        for record in batch {
            let epoch = self.epoch_policy.epoch_of(record.glsn);
            let stats = self
                .epoch_stats
                .entry(epoch)
                .or_insert_with(|| EpochStats::open(epoch, acc_params.start().clone()));
            if stats.sealed || self.deposits.contains_key(&record.glsn) {
                return Err(AuditError::Config(format!(
                    "deposit {} repeats a glsn or lands in sealed epoch {epoch}",
                    record.glsn
                )));
            }
            stats.observe(record.glsn, record.time);
            groups
                .entry(epoch)
                .or_default()
                .push(trail_item(record.glsn, &record.deposit));
            self.deposits.insert(record.glsn, record.deposit);
            self.origins
                .insert(record.glsn, (record.public, record.signature));
        }
        for (epoch, items) in groups {
            let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
            let stats = self.epoch_stats.get_mut(&epoch).expect("opened above");
            stats.acc = acc_params
                .fold_batch(std::slice::from_ref(&stats.acc), &refs)
                .pop()
                .expect("one accumulator in, one out");
        }
        Ok(())
    }

    /// Ledger transition — seal `epoch`: every node materializes its
    /// aggregate partials, the accumulator digest *and* the aggregate
    /// commitment are checkpointed on the hash chain, and every node's
    /// manifest is marked sealed (each journaled per node, each
    /// idempotent — a replayed seal only writes what a node is missing).
    /// Returns the epoch's deposit count.
    fn seal(&mut self, epoch: EpochId) -> Result<u64, AuditError> {
        if self.chain.iter().last().is_some_and(|c| c.epoch >= epoch.0) {
            return Err(AuditError::Config(format!(
                "epoch {epoch} sealed out of order"
            )));
        }
        let acc0 = self.acc_params.start();
        let stats = self
            .epoch_stats
            .entry(epoch)
            .or_insert_with(|| EpochStats::open(epoch, acc0.clone()));
        stats.sealed = true;
        let (items, digest) = (stats.deposits, stats.acc.clone());
        // Cache the epoch's count/sum partials before sealing, so the
        // commitment below endorses exactly what windowed aggregate
        // queries will combine.
        let at_nodes = |op: fn(&mut FragmentStore, EpochId) -> Result<(), LogError>| {
            self.nodes
                .iter()
                .try_for_each(|node| op(&mut node.store_mut(), epoch))
                .map_err(|e| AuditError::Log(e.to_string()))
        };
        at_nodes(FragmentStore::materialize_partials)?;
        let aggregates = epoch_aggregates_digest(&self.nodes, epoch);
        self.chain
            .seal_with_aggregates(epoch.0, items, digest, aggregates);
        at_nodes(FragmentStore::seal_epoch)?;
        Ok(items)
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The attribute partition.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The DLA nodes.
    #[must_use]
    pub fn nodes(&self) -> &[DlaNode] {
        &self.nodes
    }

    /// One DLA node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &DlaNode {
        &self.nodes[i]
    }

    /// Mutable node access (test hooks, protocol internals). Node
    /// stores use interior mutability, so most callers only need
    /// [`DlaNode::store_mut`] on a shared reference; this remains for
    /// exclusive access.
    pub fn node_mut(&mut self, i: usize) -> &mut DlaNode {
        &mut self.nodes[i]
    }

    /// Number of DLA nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The auditor engine's network id.
    #[must_use]
    pub fn auditor_node(&self) -> NodeId {
        NodeId(self.nodes.len())
    }

    /// The dedicated blind-TTP helper's network id.
    #[must_use]
    pub fn ttp_node(&self) -> NodeId {
        NodeId(self.nodes.len() + 1)
    }

    /// The network id of DLA node `i`.
    #[must_use]
    pub fn dla_node_id(&self, i: usize) -> NodeId {
        NodeId(i)
    }

    /// The commutative-encryption domain shared by the cluster.
    #[must_use]
    pub fn domain(&self) -> &CommutativeDomain {
        &self.domain
    }

    /// The Schnorr group (tickets, signatures).
    #[must_use]
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The accumulator parameters (§4.1).
    #[must_use]
    pub fn accumulator_params(&self) -> &AccumulatorParams {
        &self.acc_params
    }

    /// Locks the network for inspection and scripting: stats, clocks,
    /// fault plans, captured payloads, fresh session ids. The guard
    /// dereferences to [`SimNet`]; the cluster's own messages move
    /// through a [`Session`], never through this guard.
    ///
    /// The lock is not reentrant: bind the guard once rather than
    /// calling `net()` twice within a single expression (the second
    /// call would block on the lock the first still holds).
    pub fn net(&self) -> MutexGuard<'_, SimNet> {
        self.net.lock()
    }

    /// The session-multiplexed shared transport the cluster runs over.
    #[must_use]
    pub fn shared_net(&self) -> &SharedNet {
        &self.net
    }

    /// Installs a Byzantine [`dla_net::adversary::Adversary`] on the
    /// cluster's network: selected nodes start lying on the wire (their
    /// forgeries re-stamped with valid checksums). See
    /// [`crate::adversary`] for the scenario runner built on this.
    pub fn set_adversary(&self, adversary: std::sync::Arc<dyn dla_net::adversary::Adversary>) {
        self.net.lock().set_adversary(adversary);
    }

    /// Removes any installed adversary; the cluster is honest again.
    pub fn clear_adversary(&self) {
        self.net.lock().clear_adversary();
    }

    /// The root session over the cluster's network: the one door every
    /// cluster leg that is not a concurrent subquery — deposits, owner
    /// exchanges, accumulator circulations, attestations — sends and
    /// receives through, so a frame corrupted in flight is refused
    /// ([`dla_net::NetError::Corrupt`]) instead of decoded.
    pub(crate) fn root_session(&self) -> Session<'_> {
        Session::root(&self.net)
    }

    /// [`DlaCluster::root_session`] with the cluster RNG beside it, for
    /// the protocols that draw randomness while they send.
    pub(crate) fn root_session_and_rng(&mut self) -> (Session<'_>, &mut StdRng) {
        (Session::root(&self.net), &mut self.rng)
    }

    /// The cluster RNG (seeding derived per-session generators).
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The configured base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The tamper-evident journal of the cluster's own actions
    /// (deposits, registrations, re-replications, degraded-mode
    /// decisions). Verify it with [`crate::meta::MetaAuditTrail::verify`].
    #[must_use]
    pub fn meta_audit(&self) -> &crate::meta::MetaAuditTrail {
        &self.meta
    }

    /// Journals one privileged cluster action at the current virtual
    /// time, mirroring it as a telemetry event when a recorder is
    /// active.
    pub(crate) fn meta_log(&mut self, actor: &str, action: &str, detail: String) {
        let at_ns = self.net.lock().elapsed().as_nanos();
        if dla_telemetry::is_active() {
            dla_telemetry::event(
                "meta-audit",
                at_ns,
                &[("actor", actor), ("action", action), ("detail", &detail)],
            );
        }
        self.meta.record(at_ns, actor, action, detail);
    }

    /// The deposited accumulator value for a glsn.
    #[must_use]
    pub fn deposit(&self, glsn: Glsn) -> Option<&Ubig> {
        self.deposits.get(&glsn)
    }

    /// The deposits of the glsns `lo..=hi`, ascending (none for an
    /// inverted range).
    pub fn deposits_in(&self, lo: Glsn, hi: Glsn) -> impl Iterator<Item = (Glsn, &Ubig)> {
        let range = (lo <= hi).then(|| self.deposits.range(lo..=hi));
        range.into_iter().flatten().map(|(glsn, d)| (*glsn, d))
    }

    /// All glsns with deposits (i.e. every record logged).
    #[must_use]
    pub fn logged_glsns(&self) -> Vec<Glsn> {
        self.deposits.keys().copied().collect()
    }

    /// The epoch sharding policy in force.
    #[must_use]
    pub fn epoch_policy(&self) -> EpochPolicy {
        self.epoch_policy
    }

    /// The hash-linked chain of sealed-epoch checkpoints.
    #[must_use]
    pub fn checkpoint_chain(&self) -> &CheckpointChain {
        &self.chain
    }

    /// The answers the auditor engine keeps per sealed epoch from the
    /// queries revealed to it ([`crate::exec::execute_on`] with
    /// `reveal = true`). Memory only: never journaled, never sent;
    /// `clear()` makes the next asking of every query a cold one.
    pub fn kept(&self) -> MutexGuard<'_, KeptResults> {
        self.kept.lock()
    }

    /// Iterates the per-epoch stats in epoch order.
    pub fn epoch_stats(&self) -> impl Iterator<Item = &EpochStats> {
        self.epoch_stats.values()
    }

    /// The stats for one epoch, if any deposit landed in it.
    #[must_use]
    pub fn epoch_stat(&self, epoch: EpochId) -> Option<&EpochStats> {
        self.epoch_stats.get(&epoch)
    }

    /// The whole-trail accumulator `x₀^{∏ yᵢ}` over every deposit item:
    /// a view of the deposit map, one power on the first read after a
    /// change (Eq. 9: the value a running fold would hold). Nothing
    /// verifies against it; [`crate::integrity::check_trail`] checks
    /// the epochs.
    #[must_use]
    pub fn trail_accumulator(&self) -> &Ubig {
        self.trail_acc.get_or_init(|| {
            let items: Vec<Vec<u8>> = (self.deposits.iter())
                .map(|(glsn, deposit)| trail_item(*glsn, deposit))
                .collect();
            self.acc_params.accumulate(items.iter().map(Vec::as_slice))
        })
    }

    /// The number of deposits in the trail.
    #[must_use]
    pub fn trail_items(&self) -> u64 {
        self.deposits.len() as u64
    }

    /// Test hook: rewrites the stored deposit for `glsn` without
    /// touching accumulators or checkpoints — a compromised deposit
    /// map for the windowed-verification tests.
    #[cfg(test)]
    pub(crate) fn tamper_deposit_for_tests(&mut self, glsn: Glsn, deposit: Ubig) {
        self.trail_acc.take();
        self.deposits.insert(glsn, deposit);
    }

    /// Test hook: rewrites an unsealed epoch's running accumulator —
    /// the digest its claim is checked against — leaving the deposits
    /// it was folded from alone.
    #[cfg(test)]
    pub(crate) fn forge_epoch_digest_for_tests(&mut self, epoch: EpochId, digest: Ubig) {
        self.epoch_stats
            .get_mut(&epoch)
            .expect("epoch observed")
            .acc = digest;
    }

    /// The glsn range scans need to cover for a query confined to
    /// `window`: the union of glsn extents over the epochs it touches
    /// ([`EpochStats::touches`]), so skipping the others never drops an
    /// answer.
    ///
    /// `None` means "no pruning" (window unbounded). When no epoch is
    /// touched, the inverted sentinel `(Glsn(1), Glsn(0))` is returned:
    /// scans see an empty range.
    #[must_use]
    pub fn glsn_window_for(&self, window: &crate::plan::TimeWindow) -> Option<(Glsn, Glsn)> {
        if window.is_unbounded() {
            return None;
        }
        let mut out: Option<(Glsn, Glsn)> = None;
        for stats in self.epoch_stats.values().filter(|s| s.touches(window)) {
            out = Some(match out {
                None => (stats.glsn_lo, stats.glsn_hi),
                Some((lo, hi)) => (lo.min(stats.glsn_lo), hi.max(stats.glsn_hi)),
            });
        }
        Some(out.unwrap_or((Glsn(1), Glsn(0))))
    }

    /// Registers an application user: generates a key pair and issues a
    /// read/write ticket.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] when user capacity is exhausted.
    pub fn register_user(&mut self, name: &str) -> Result<AppUser, AuditError> {
        if self.users >= self.max_users {
            return Err(AuditError::Config(format!(
                "user capacity {} exhausted",
                self.max_users
            )));
        }
        let node = NodeId(self.nodes.len() + 2 + self.users);
        self.users += 1;
        let key = SchnorrKeyPair::generate(&self.group, &mut self.rng);
        let ticket = self
            .authority
            .issue(key.public(), OperationSet::read_write(), &mut self.rng);
        if let Some(journal) = &mut self.cluster_journal {
            journal
                .append(&JournalEntry::Blob {
                    tag: BLOB_TICKET_COUNTER,
                    bytes: self.authority.issued().to_be_bytes().to_vec(),
                })
                .map_err(|e| AuditError::Config(e.to_string()))?;
        }
        self.meta_log(
            "cluster",
            "register-user",
            format!("name={name} node={node}"),
        );
        Ok(AppUser {
            name: name.to_owned(),
            node,
            ticket,
            key,
        })
    }

    /// Logs one record on behalf of `user` (Fig. 2's distributed
    /// logging): a fresh glsn is assigned, the record fragmented, each
    /// fragment shipped to its DLA node over the network, and the
    /// record's one-way-accumulator value deposited at every node.
    ///
    /// The record's own `glsn` field is ignored and replaced.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on schema violations or storage failures.
    pub fn log_record(&mut self, user: &AppUser, record: &LogRecord) -> Result<Glsn, AuditError> {
        let glsns = self.log_records(user, std::slice::from_ref(record))?;
        Ok(glsns[0])
    }

    /// The shipping leg of one deposit: everything with per-record
    /// network behavior (fragment shipping, standby copies, deposit
    /// broadcast, origin signature). The deposit is not committed here:
    /// [`DlaCluster::flush_deposit_batch`] journals and absorbs the
    /// returned record.
    fn ship_one(
        &mut self,
        user: &AppUser,
        record: &LogRecord,
    ) -> Result<DepositRecord, AuditError> {
        self.schema
            .validate(record)
            .map_err(|e| AuditError::Log(e.to_string()))?;
        let glsn = self.allocator.allocate();
        let mut stamped = LogRecord::new(glsn);
        for (name, value) in record.iter() {
            stamped.insert(name.clone(), value.clone());
        }
        let fragments = fragment(&stamped, &self.partition);

        // The user computes the deposit over all fragments (§4.1:
        // "it also computes the one-way accumulator of all fragments").
        let deposit = self.acc_params.accumulate(
            fragments
                .iter()
                .map(Fragment::to_canonical_bytes)
                .collect::<Vec<_>>()
                .iter()
                .map(Vec::as_slice),
        );

        // Ship each fragment to its node.
        let wire = self.root_session();
        let standby_to = |node: usize| (node + 1) % self.nodes.len();
        let ship_standby = self.standby_replication && self.nodes.len() >= 2;
        for frag in fragments {
            let node = frag.node;
            let standby = ship_standby.then(|| frag.clone());
            let mut w = Writer::new();
            w.put_u8(0x20)
                .put_u64(glsn.0)
                .put_bytes(&frag.to_canonical_bytes());
            wire.send(user.node, NodeId(node), w.finish());
            let envelope = wire.recv_from(NodeId(node), user.node)?;
            crate::open_frame(&envelope.payload, 0x20)?;
            // The wire carries canonical bytes for accounting realism;
            // the store ingests the structured fragment directly (a
            // full codec for records adds nothing to the protocols
            // under study) — once the frame has arrived intact.
            self.nodes[node]
                .store_mut()
                .write(&user.ticket, frag)
                .map_err(|e| AuditError::Log(e.to_string()))?;
            // The owner forwards a standby copy to its ring successor,
            // which journals it inactive until promotion.
            if let Some(standby) = standby {
                let successor = standby_to(node);
                let mut w = Writer::new();
                w.put_u8(0x23)
                    .put_u64(glsn.0)
                    .put_bytes(&standby.to_canonical_bytes());
                wire.send(NodeId(node), NodeId(successor), w.finish());
                wire.recv_from(NodeId(successor), NodeId(node))?;
                self.nodes[successor]
                    .store_mut()
                    .store_standby(standby)
                    .map_err(|e| AuditError::Log(e.to_string()))?;
            }
        }

        // The user signs (glsn ‖ deposit): non-repudiation of the whole
        // record, since the deposit binds every fragment (§4.1).
        let origin_sig = user
            .key()
            .sign(&origin_message(glsn, &deposit), &mut self.rng);

        // Deposit + origin signature broadcast to every node.
        let wire = self.root_session();
        for node in 0..self.nodes.len() {
            let mut w = Writer::new();
            w.put_u8(0x21)
                .put_u64(glsn.0)
                .put_bytes(&deposit.to_bytes_be())
                .put_bytes(&origin_sig.to_bytes());
            wire.send(user.node, NodeId(node), w.finish());
            wire.recv_from(NodeId(node), user.node)?;
        }
        let time = stamped.get(&AttrName::new("time")).and_then(|v| match v {
            AttrValue::Time(t) => Some(*t),
            _ => None,
        });
        self.meta_log(
            "cluster",
            "deposit",
            format!("glsn={glsn} user={}", user.name),
        );
        Ok(DepositRecord {
            glsn,
            deposit,
            public: user.key().public().clone(),
            signature: origin_sig,
            time,
        })
    }

    /// The amortized tail of a deposit batch, in commit order: a single
    /// cluster-journal `append_batch` (one fsync for the whole batch) of
    /// the deposit records and of the seal records they trigger — the
    /// **commit point** — then [`DlaCluster::absorb`] (one accumulator
    /// fold per touched epoch) and the epoch rollover. Nothing a node
    /// journals for a seal precedes the record that commits it.
    fn flush_deposit_batch(&mut self, batch: Vec<DepositRecord>) -> Result<(), AuditError> {
        if !batch.is_empty() {
            dla_telemetry::record(dla_telemetry::CostKind::DepositBatch, 1);
        }
        // Rollover: the open epoch is the largest observed; every
        // unsealed epoch strictly below it can no longer grow (glsns
        // are monotonic), so checkpoint each one now.
        let unsealed = self.epoch_stats.values().filter(|s| !s.sealed);
        let mut to_seal: BTreeSet<EpochId> = unsealed
            .map(|s| s.epoch)
            .chain(batch.iter().map(|d| self.epoch_policy.epoch_of(d.glsn)))
            .collect();
        to_seal.pop_last();
        if let Some(journal) = &mut self.cluster_journal {
            let blob = |tag, bytes| JournalEntry::Blob { tag, bytes };
            let blobs: Vec<JournalEntry> = (batch.iter())
                .map(|d| blob(BLOB_DEPOSIT, d.encode()))
                .chain(
                    to_seal
                        .iter()
                        .map(|e| blob(BLOB_EPOCH_SEAL, e.0.to_be_bytes().to_vec())),
                )
                .collect();
            journal
                .append_batch(&blobs)
                .map_err(|e| AuditError::Log(e.to_string()))?;
        }
        self.absorb(batch)?;
        for epoch in to_seal {
            let items = self.seal(epoch)?;
            let nodes = self.nodes.len() as u64;
            dla_telemetry::record(dla_telemetry::CostKind::PartialMaterialize, nodes);
            dla_telemetry::record(dla_telemetry::CostKind::EpochSeal, 1);
            self.meta_log(
                "cluster",
                "epoch-seal",
                format!("epoch={epoch} items={items}"),
            );
            for id in self.standing.ids() {
                self.emit_standing_delta_for(id, epoch)?;
            }
        }
        Ok(())
    }

    /// Registers a standing query (see [`crate::standing`]): the
    /// criteria is compiled and validated against the partition in
    /// force **once**; every subsequent epoch seal
    /// evaluates it over just the sealed epoch's glsn range and pushes
    /// a [`crate::standing::StandingDelta`]. Already-sealed epochs are
    /// caught up immediately, so a late subscriber converges to the
    /// same accumulated answer as one registered at genesis.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on parse/plan failures, or if a catch-up
    /// evaluation fails.
    pub fn register_standing(
        &mut self,
        criteria: &str,
    ) -> Result<crate::standing::StandingQueryId, AuditError> {
        let normalized = crate::plan::compile(criteria, &self.schema)?;
        // Fail registration, not some later seal, on an unplannable
        // query.
        self.plan(&normalized)?;
        let id = self.standing.register(criteria, normalized);
        self.meta_log(
            "cluster",
            "standing-register",
            format!("query={id} criteria={criteria}"),
        );
        let sealed: Vec<EpochId> = self
            .epoch_stats
            .iter()
            .filter(|(_, s)| s.sealed)
            .map(|(e, _)| *e)
            .collect();
        for epoch in sealed {
            self.emit_standing_delta_for(id, epoch)?;
        }
        Ok(id)
    }

    /// Drains the deltas pushed to `id` since the last drain (seal
    /// order). Empty deltas are delivered too.
    pub fn standing_deltas(
        &mut self,
        id: crate::standing::StandingQueryId,
    ) -> Vec<crate::standing::StandingDelta> {
        self.standing.drain_deltas(id)
    }

    /// The accumulated matches of standing query `id` over every
    /// sealed epoch, sorted ascending. `None` for an unknown id.
    #[must_use]
    pub fn standing_matches(&self, id: crate::standing::StandingQueryId) -> Option<Vec<Glsn>> {
        self.standing.matches(id)
    }

    /// Evaluates standing query `id` over exactly `epoch`'s glsn range
    /// and pushes the resulting delta. Idempotent per (query, epoch).
    /// Runs under the cluster's ARQ configuration so seals during lossy
    /// operation still deliver deltas.
    fn emit_standing_delta_for(
        &mut self,
        id: crate::standing::StandingQueryId,
        epoch: EpochId,
    ) -> Result<(), AuditError> {
        if self.standing.evaluated(id, epoch) {
            return Ok(());
        }
        let clamp = {
            let stats = self
                .epoch_stats
                .get(&epoch)
                .expect("delta for an observed epoch");
            if stats.deposits == 0 {
                (Glsn(1), Glsn(0))
            } else {
                (stats.glsn_lo, stats.glsn_hi)
            }
        };
        let normalized = self
            .standing
            .normalized(id)
            .expect("delta for a registered query");
        let mut plan = self.plan(&normalized)?;
        plan.glsn_clamp = Some(clamp);
        // Deterministic per (cluster, query, epoch): re-evaluations and
        // restarted clusters replay identical protocol transcripts.
        let seed_digest = dla_crypto::sha256::digest_parts(&[
            b"dla-standing-seed",
            &self.seed.to_be_bytes(),
            &id.0.to_be_bytes(),
            &epoch.0.to_be_bytes(),
        ]);
        let query_seed = u64::from_be_bytes(seed_digest[..8].try_into().expect("sliced to 8"));
        let result = {
            let reliable = dla_net::Reliable::new(self.shared_net());
            crate::exec::execute_on(
                self,
                &reliable,
                &plan,
                true,
                crate::exec::ExecMode::Concurrent,
                query_seed,
            )?
        };
        let matched = result.glsns.len();
        self.standing.push_delta(id, epoch, result.glsns);
        dla_telemetry::record(dla_telemetry::CostKind::StandingDelta, 1);
        self.meta_log(
            "cluster",
            "standing-delta",
            format!("query={id} epoch={epoch} matches={matched}"),
        );
        Ok(())
    }

    /// Verifies the **non-repudiation** of a record: the logging user's
    /// signature over the deposited accumulator value. A `true` verdict
    /// plus a passing [`crate::integrity::check_record`] circulation
    /// means the user undeniably vouched for exactly the stored
    /// fragments.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Integrity`] if no origin record exists for
    /// `glsn`.
    pub fn verify_origin(&self, glsn: Glsn) -> Result<bool, AuditError> {
        let (public, signature) = self.origins.get(&glsn).ok_or_else(|| {
            AuditError::Integrity(format!("no origin attestation for glsn {glsn}"))
        })?;
        let deposit = self
            .deposits
            .get(&glsn)
            .ok_or_else(|| AuditError::Integrity(format!("no deposit for glsn {glsn}")))?;
        Ok(dla_crypto::schnorr::verify(
            &self.group,
            public,
            &origin_message(glsn, deposit),
            signature,
        ))
    }

    /// Logs a batch of records through the batched deposit pipeline:
    /// per-record network behavior is identical to logging one at a
    /// time, but journal fsyncs and accumulator folds are amortized —
    /// one `append_batch` and one fold per touched epoch for the whole
    /// call.
    ///
    /// # Errors
    ///
    /// As [`DlaCluster::log_record`]; stops at the first failure: the
    /// records already shipped are still committed and flushed, and
    /// whatever the failed one left at some nodes is rolled back.
    pub fn log_records(
        &mut self,
        user: &AppUser,
        records: &[LogRecord],
    ) -> Result<Vec<Glsn>, AuditError> {
        let mut batch = Vec::with_capacity(records.len());
        let mut failure = None;
        for record in records {
            match self.ship_one(user, record) {
                Ok(shipped) => batch.push(shipped),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let glsns = batch.iter().map(|d| d.glsn).collect();
        self.flush_deposit_batch(batch)?;
        match failure {
            // The record that failed may have reached some nodes.
            Some(e) => self.roll_back_uncommitted().and(Err(e)),
            None => Ok(glsns),
        }
    }

    /// The partition half of the query front door: plans a compiled
    /// query ([`crate::plan::compile`]) against the
    /// [`DlaCluster::effective_partition`], so no subquery is ever
    /// placed on a retired node. Every auditor operation — ad-hoc,
    /// shared, resilient and standing queries, aggregates, correlation,
    /// transaction rules — plans through here.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Planning`] for an empty query or an
    /// attribute no node serves.
    pub fn plan(
        &self,
        normalized: &crate::normal::NormalizedQuery,
    ) -> Result<crate::plan::QueryPlan, AuditError> {
        crate::plan::plan(normalized, &self.effective_partition())
    }

    /// The whole front door for query text: parse, type-check,
    /// normalize ([`crate::plan::compile`]), then [`DlaCluster::plan`].
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on parse/type/plan failures.
    pub fn compile(&self, criteria: &str) -> Result<crate::plan::QueryPlan, AuditError> {
        self.plan(&crate::plan::compile(criteria, &self.schema)?)
    }

    /// Compiles and executes an auditing query, returning the
    /// satisfying glsns (computed distributively; see [`crate::exec`]).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on parse/plan/protocol failures.
    pub fn query(&mut self, criteria: &str) -> Result<crate::exec::QueryResult, AuditError> {
        let plan = self.compile(criteria)?;
        crate::exec::execute(self, &plan, true)
    }

    /// Plans and executes an already-built criteria tree.
    ///
    /// # Errors
    ///
    /// As [`DlaCluster::query`].
    pub fn query_criteria(
        &mut self,
        criteria: &crate::query::Criteria,
    ) -> Result<crate::exec::QueryResult, AuditError> {
        let plan = self.plan(&crate::plan::compile_criteria(criteria, &self.schema)?)?;
        crate::exec::execute(self, &plan, true)
    }

    /// Like [`DlaCluster::query`], but on a **shared** reference, so
    /// many auditors can issue queries from separate threads at once.
    /// Every subquery (and the final conjunction) runs in its own
    /// transport session; per-query randomness derives from the cluster
    /// seed and an atomic query counter instead of the exclusive RNG.
    ///
    /// # Errors
    ///
    /// As [`DlaCluster::query`].
    pub fn query_shared(&self, criteria: &str) -> Result<crate::exec::QueryResult, AuditError> {
        let plan = self.compile(criteria)?;
        let drawn = self.query_counter.fetch_add(1, Ordering::Relaxed);
        let mut index = drawn.wrapping_add(0xA5A5_5A5A);
        let query_seed = self.seed ^ rand::splitmix64(&mut index);
        crate::exec::execute_on(
            self,
            self.shared_net(),
            &plan,
            true,
            crate::exec::ExecMode::Concurrent,
            query_seed,
        )
    }

    /// Like [`DlaCluster::query`], but executed through the
    /// fault-tolerant ladder: ARQ-protected transport, whole-query
    /// retry with virtual-time backoff, failure detection, and
    /// degraded-mode re-planning over the survivor set (see
    /// [`crate::exec::execute_resilient`]).
    ///
    /// # Errors
    ///
    /// As [`DlaCluster::query`], plus a terminal network error once
    /// `policy.max_attempts` whole-query attempts are exhausted.
    pub fn query_resilient(
        &mut self,
        criteria: &str,
        policy: &crate::exec::ResilientPolicy,
    ) -> Result<crate::exec::ResilientOutcome, AuditError> {
        let normalized = crate::plan::compile(criteria, &self.schema)?;
        crate::exec::execute_resilient(self, &normalized, policy)
    }

    /// Whether standby fragment replication is enabled.
    #[must_use]
    pub fn standby_replication(&self) -> bool {
        self.standby_replication
    }

    /// Indices of nodes retired from service (declared dead and
    /// re-replicated away from).
    #[must_use]
    pub fn retired_nodes(&self) -> BTreeSet<usize> {
        self.retired.iter().map(|&(dead, _)| dead).collect()
    }

    /// The partition queries should currently be planned against: the
    /// configured partition with every retired node's attributes
    /// reassigned to its adopter, in retirement order.
    #[must_use]
    pub fn effective_partition(&self) -> Partition {
        let mut partition = self.partition.clone();
        for &(dead, adopter) in &self.retired {
            partition = partition
                .reassign(dead, adopter)
                .expect("retirement log records valid distinct node indices");
        }
        partition
    }

    /// The owner leg of every "disclose one number, not the data"
    /// operation: ships `glsns` under `tag` from the auditor to the node
    /// serving `attr` under the [`DlaCluster::effective_partition`] —
    /// the adopter, once the node it was deposited at is retired — and
    /// returns that node with the `(glsn, value)` pairs it holds for the
    /// list as it decoded it.
    pub(crate) fn values_at_owner(
        &self,
        tag: u8,
        attr: &AttrName,
        glsns: &[Glsn],
    ) -> Result<(usize, Vec<(Glsn, AttrValue)>), AuditError> {
        let (home, owner) = self.owner_of(attr)?;
        let auditor = self.auditor_node();
        let mut w = Writer::new();
        w.put_u8(tag).put_list(glsns, |w, g| {
            w.put_u64(g.0);
        });
        let wire = self.root_session();
        wire.send(auditor, NodeId(owner), w.finish());
        let envelope = wire.recv_from(NodeId(owner), auditor)?;
        let mut r = crate::open_frame(&envelope.payload, tag)?;
        let requested = r.get_list(|r| r.get_u64().map(Glsn))?;
        let store = self.nodes[owner].store();
        let values = requested
            .into_iter()
            .filter_map(|g| Some((g, served(&store, home, g)?.values.get(attr)?.clone())))
            .collect();
        Ok((owner, values))
    }

    /// Where `attr` was deposited — its home under the configured
    /// partition — and the node serving it under the
    /// [`DlaCluster::effective_partition`]: the home itself, or its
    /// adopter once the home is retired.
    pub(crate) fn owner_of(&self, attr: &AttrName) -> Result<(usize, usize), AuditError> {
        let node_of = |partition: &Partition| {
            partition.node_of(attr).ok_or_else(|| {
                AuditError::Planning(format!("attribute {attr} is not served by any node"))
            })
        };
        Ok((
            node_of(&self.partition)?,
            node_of(&self.effective_partition())?,
        ))
    }

    /// The first surviving node clockwise from `dead`, skipping nodes
    /// in `also_dead` and already-retired nodes.
    fn adopter_of(&self, dead: usize, also_dead: &BTreeSet<usize>) -> Option<usize> {
        let n = self.nodes.len();
        let retired = self.retired_nodes();
        (1..n)
            .map(|k| (dead + k) % n)
            .find(|i| !also_dead.contains(i) && !retired.contains(i))
    }

    /// Re-replicates lost fragments after the nodes in `dead` are
    /// declared dead: each dead node's ring successor (first surviving
    /// one) promotes its standby copies to served **adopted** fragments,
    /// and every logged record is then re-verified by circulating the
    /// one-way accumulator over the survivor set
    /// ([`crate::integrity::check_record_among`]). A passing check
    /// proves the repaired copies are exactly the fragments the logging
    /// user deposited — re-replication cannot silently substitute data.
    ///
    /// Verification circulations retry a few times per record so that
    /// injected message loss does not masquerade as a failed repair.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] if no survivor remains to adopt,
    /// or a store/network error from promotion and verification.
    pub fn rereplicate(
        &mut self,
        dead: &BTreeSet<usize>,
    ) -> Result<RereplicationReport, AuditError> {
        let n = self.nodes.len();
        if let Some(&bad) = dead.iter().find(|&&d| d >= n) {
            return Err(AuditError::Config(format!(
                "cannot retire node {bad}: cluster has {n} nodes"
            )));
        }
        let mut adoptions = Vec::new();
        for &d in dead {
            if self.retired_nodes().contains(&d) {
                continue;
            }
            let adopter = self
                .adopter_of(d, dead)
                .ok_or_else(|| AuditError::Config("no surviving node left to adopt".into()))?;
            let promoted = self.nodes[adopter]
                .store_mut()
                .promote_standby(d)
                .map_err(|e| AuditError::Log(e.to_string()))?;
            adoptions.push(NodeAdoption {
                dead: d,
                adopter,
                promoted: promoted.len(),
            });
            self.retired.push((d, adopter));
        }
        // The partition in force moved: what the engine kept was
        // planned, and partly computed, on the nodes just retired.
        if !adoptions.is_empty() {
            self.kept().clear();
        }

        let retired = self.retired_nodes();
        let survivors: BTreeSet<usize> = (0..n).filter(|i| !retired.contains(i)).collect();
        let initiator = *survivors
            .iter()
            .next()
            .ok_or_else(|| AuditError::Config("no surviving node left to verify".into()))?;
        let mut verified = Vec::new();
        let mut failed = Vec::new();
        for glsn in self.logged_glsns() {
            let mut verdict = None;
            for _ in 0..5 {
                match crate::integrity::check_record_among(self, glsn, initiator, &survivors) {
                    Ok(v) => {
                        verdict = Some(v.ok);
                        break;
                    }
                    // Injected loss can eat a circulation hop; a fresh
                    // circulation is stateless, so just run it again.
                    Err(AuditError::Net(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            match verdict {
                Some(true) => verified.push(glsn),
                _ => failed.push(glsn),
            }
        }
        self.meta_log(
            "cluster",
            "rereplicate",
            format!(
                "dead={dead:?} adoptions={} verified={} failed={}",
                adoptions.len(),
                verified.len(),
                failed.len()
            ),
        );
        Ok(RereplicationReport {
            adoptions,
            verified,
            failed,
        })
    }

    /// Retrieves and reassembles a full record for its owner: each
    /// node's fragment is fetched under the user's ticket (ACL
    /// enforced per node).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Log`] if any node denies access or the
    /// glsn is unknown.
    pub fn retrieve_record(&mut self, user: &AppUser, glsn: Glsn) -> Result<LogRecord, AuditError> {
        let mut frags = Vec::with_capacity(self.nodes.len());
        for node in 0..self.nodes.len() {
            // Request over the network (accounted)…
            let mut w = Writer::new();
            w.put_u8(0x22).put_u64(glsn.0);
            let wire = self.root_session();
            wire.send(user.node, NodeId(node), w.finish());
            wire.recv_from(NodeId(node), user.node)?;
            // …and serve under the ACL.
            let frag = self.nodes[node]
                .store()
                .read(&user.ticket, glsn)
                .map_err(|e| AuditError::Log(e.to_string()))?
                .clone();
            frags.push(frag);
        }
        dla_logstore::fragment::reassemble(&frags).map_err(|e| AuditError::Log(e.to_string()))
    }
}

/// Cluster-journal blob tags.
const BLOB_DEPOSIT: u8 = 0x01;
const BLOB_TICKET_COUNTER: u8 = 0x02;
const BLOB_EPOCH_SEAL: u8 = 0x03;

/// One deposit as the cluster journal records it (`BLOB_DEPOSIT`): the
/// accumulator value, the origin attestation over it and the record's
/// time, if it carried one (feeds the per-epoch time index).
struct DepositRecord {
    glsn: Glsn,
    deposit: Ubig,
    public: dla_crypto::schnorr::SchnorrPublicKey,
    signature: dla_crypto::schnorr::Signature,
    time: Option<u64>,
}

impl DepositRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.glsn.0)
            .put_bytes(&self.deposit.to_bytes_be())
            .put_bytes(&self.public.to_bytes())
            .put_bytes(&self.signature.e.to_bytes_be())
            .put_bytes(&self.signature.s.to_bytes_be());
        // Appended after the original fields so pre-epoch blobs stay
        // decodable.
        w.put_u8(u8::from(self.time.is_some()));
        if let Some(t) = self.time {
            w.put_u64(t);
        }
        w.finish().to_vec()
    }

    fn decode(bytes: &[u8]) -> Result<Self, AuditError> {
        let mut r = Reader::new(bytes);
        let parse = |e: dla_net::wire::WireError| AuditError::Config(format!("deposit blob: {e}"));
        let glsn = Glsn(r.get_u64().map_err(parse)?);
        let deposit = Ubig::from_bytes_be(r.get_bytes().map_err(parse)?);
        let public = dla_crypto::schnorr::SchnorrPublicKey::from_element(Ubig::from_bytes_be(
            r.get_bytes().map_err(parse)?,
        ));
        let e = Ubig::from_bytes_be(r.get_bytes().map_err(parse)?);
        let s = Ubig::from_bytes_be(r.get_bytes().map_err(parse)?);
        // Legacy blobs end here; current ones carry a time presence flag.
        let time = if r.remaining() == 0 {
            None
        } else {
            match r.get_u8().map_err(parse)? {
                0 => None,
                1 => Some(r.get_u64().map_err(parse)?),
                flag => {
                    return Err(AuditError::Config(format!(
                        "deposit blob: time flag {flag} is neither 0 nor 1"
                    )))
                }
            }
        };
        r.finish().map_err(parse)?;
        Ok(DepositRecord {
            glsn,
            deposit,
            public,
            signature: dla_crypto::schnorr::Signature { e, s },
            time,
        })
    }
}

/// Canonical bytes the logging user signs for non-repudiation.
fn origin_message(glsn: Glsn, deposit: &Ubig) -> Vec<u8> {
    let mut out = Vec::with_capacity(80);
    out.extend_from_slice(b"dla-origin");
    out.extend_from_slice(&glsn.0.to_be_bytes());
    out.extend_from_slice(&deposit.to_bytes_be());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_logstore::gen::paper_table1;

    fn cluster() -> DlaCluster {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(42),
        )
        .unwrap()
    }

    #[test]
    fn construction_assigns_attributes() {
        let c = cluster();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.node(0).supported_attributes(), &[AttrName::new("time")]);
        assert_eq!(c.node(1).supported_attributes().len(), 2);
        // No node supports the full universe.
        for node in c.nodes() {
            assert!(node.supported_attributes().len() < c.schema().len());
        }
    }

    #[test]
    fn default_partition_is_round_robin() {
        let c = DlaCluster::new(ClusterConfig::new(3, Schema::paper_example())).unwrap();
        assert_eq!(c.partition().num_nodes(), 3);
    }

    #[test]
    fn mismatched_partition_rejected() {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema); // 4 nodes
        let err =
            DlaCluster::new(ClusterConfig::new(3, schema).with_partition(partition)).unwrap_err();
        assert!(err.to_string().contains("partition covers 4"));
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(DlaCluster::new(ClusterConfig::new(0, Schema::paper_example())).is_err());
    }

    #[test]
    fn logging_fragments_across_all_nodes() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let glsns = c.log_records(&user, &paper_table1()).unwrap();
        assert_eq!(glsns.len(), 5);
        for node in c.nodes() {
            assert_eq!(node.store().len(), 5, "every node holds 5 fragments");
        }
        // Deposits recorded for every record.
        for glsn in glsns {
            assert!(c.deposit(glsn).is_some());
        }
    }

    #[test]
    fn logging_generates_network_traffic() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let before = c.net().stats().messages_sent;
        c.log_record(&user, &paper_table1()[0]).unwrap();
        // 4 fragments + 4 deposit messages.
        assert_eq!(c.net().stats().messages_sent - before, 8);
    }

    #[test]
    fn glsns_are_fresh_regardless_of_input() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let records = paper_table1();
        let g1 = c.log_record(&user, &records[0]).unwrap();
        let g2 = c.log_record(&user, &records[0]).unwrap();
        assert_ne!(g1, g2);
    }

    #[test]
    fn schema_violation_rejected_at_logging() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let bad = LogRecord::new(Glsn(0)).with("salary", dla_logstore::model::AttrValue::Int(1));
        assert!(c.log_record(&user, &bad).is_err());
    }

    #[test]
    fn a_ship_that_fails_midway_leaves_nothing_behind() {
        let (mut c, glsns) = standby_cluster();
        let user = c.register_user("u1").unwrap();
        // Node 2 stops answering: the record reaches nodes 0 and 1 (and
        // their standby holders) before the ship fails.
        c.net().faults_mut().kill_node(2);
        assert!(c.log_record(&user, &paper_table1()[0]).is_err());
        for node in c.nodes() {
            assert_eq!(node.store().len(), glsns.len(), "node {}", node.id());
            assert_eq!(node.store().standby_count(), glsns.len());
            assert!(node.store().acl().glsns_of(&user.ticket.id).is_empty());
        }
        assert_eq!(c.logged_glsns(), glsns);
    }

    #[test]
    fn owner_retrieves_full_record() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let record = paper_table1().remove(0);
        let glsn = c.log_record(&user, &record).unwrap();
        let fetched = c.retrieve_record(&user, glsn).unwrap();
        assert_eq!(fetched.len(), record.len());
        assert_eq!(fetched.get(&"c2".into()), record.get(&"c2".into()));
    }

    #[test]
    fn stranger_cannot_retrieve_foreign_record() {
        let mut c = cluster();
        let owner = c.register_user("owner").unwrap();
        let stranger = c.register_user("stranger").unwrap();
        let glsn = c.log_record(&owner, &paper_table1()[0]).unwrap();
        assert!(c.retrieve_record(&stranger, glsn).is_err());
    }

    #[test]
    fn user_capacity_enforced() {
        let schema = Schema::paper_example();
        let mut c = DlaCluster::new(ClusterConfig::new(2, schema).with_max_users(1)).unwrap();
        assert!(c.register_user("a").is_ok());
        assert!(c.register_user("b").is_err());
    }

    #[test]
    fn origin_signature_verifies_for_logged_records() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let glsns = c.log_records(&user, &paper_table1()).unwrap();
        for glsn in glsns {
            assert!(c.verify_origin(glsn).unwrap(), "non-repudiation for {glsn}");
        }
        assert!(c.verify_origin(Glsn(0xdead)).is_err());
    }

    #[test]
    fn origin_is_bound_to_the_user() {
        // The signature verifies only under the logging user's key; a
        // forged deposit breaks it.
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let glsn = c.log_record(&user, &paper_table1()[0]).unwrap();
        assert!(c.verify_origin(glsn).unwrap());
        // Tamper with the stored deposit: the signature no longer matches.
        let forged = Ubig::from_u64(12345);
        c.deposits.insert(glsn, forged);
        assert!(!c.verify_origin(glsn).unwrap());
    }

    #[test]
    fn special_node_ids_are_disjoint() {
        let c = cluster();
        assert_eq!(c.auditor_node(), NodeId(4));
        assert_eq!(c.ttp_node(), NodeId(5));
        assert_ne!(c.auditor_node(), c.dla_node_id(3));
    }

    fn standby_cluster() -> (DlaCluster, Vec<Glsn>) {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut c = DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(42)
                .with_standby_replication(),
        )
        .unwrap();
        let user = c.register_user("u0").unwrap();
        let glsns = c.log_records(&user, &paper_table1()).unwrap();
        (c, glsns)
    }

    #[test]
    fn standby_replication_populates_ring_successors() {
        let (c, glsns) = standby_cluster();
        assert_eq!(glsns.len(), 5);
        for node in 0..4 {
            // Each node holds a standby copy of its predecessor's
            // fragment for every record.
            assert_eq!(c.node(node).store().standby_count(), 5, "node {node}");
        }
    }

    #[test]
    fn rereplicate_promotes_standbys_and_verifies_them() {
        let (mut c, glsns) = standby_cluster();
        let report = c.rereplicate(&[2].into_iter().collect()).unwrap();
        assert_eq!(
            report.adoptions,
            vec![NodeAdoption {
                dead: 2,
                adopter: 3,
                promoted: 5
            }]
        );
        assert!(report.is_fully_verified());
        assert_eq!(report.verified.len(), glsns.len());
        assert_eq!(c.retired_nodes(), [2].into_iter().collect());
        // The effective partition routes node 2's attributes to node 3.
        let effective = c.effective_partition();
        assert!(effective.attrs_of(2).is_empty());
        assert!(effective
            .attrs_of(3)
            .contains(&dla_logstore::model::AttrName::new("tid")));
    }

    #[test]
    fn rereplicate_without_standbys_fails_the_accumulator_check() {
        let mut c = cluster();
        let user = c.register_user("u0").unwrap();
        let glsns = c.log_records(&user, &paper_table1()).unwrap();
        let report = c.rereplicate(&[2].into_iter().collect()).unwrap();
        assert!(!report.is_fully_verified());
        assert_eq!(report.failed.len(), glsns.len());
    }

    #[test]
    fn rereplicate_skips_dead_successor_when_picking_the_adopter() {
        let (mut c, _) = standby_cluster();
        let report = c.rereplicate(&[2, 3].into_iter().collect()).unwrap();
        let adopters: Vec<usize> = report.adoptions.iter().map(|a| a.adopter).collect();
        // Node 2's successor (3) is dead too, so node 0 adopts; node
        // 3's successor is node 0 as well.
        assert_eq!(adopters, vec![0, 0]);
        // Node 2's standbys lived on dead node 3, so its fragments are
        // unrecoverable and the accumulator check says so.
        assert!(!report.is_fully_verified());
    }

    #[test]
    fn query_resilient_detects_kills_and_replans() {
        let (mut c, _) = standby_cluster();
        let reference = c.query("tid = 'T1100267' and c2 > 100.00").unwrap().glsns;
        // Kill node 2 at the network level without telling the cluster:
        // the ladder has to notice via timeout + health probes.
        c.net().faults_mut().kill_node(2);
        let policy = crate::exec::ResilientPolicy::default();
        let outcome = c
            .query_resilient("tid = 'T1100267' and c2 > 100.00", &policy)
            .unwrap();
        assert_eq!(outcome.result.glsns, reference);
        assert!(outcome.attempts > 1, "first attempt must have timed out");
        assert_eq!(outcome.replans, 1);
        assert_eq!(outcome.excluded, [2].into_iter().collect());
        assert!(outcome.repairs[0].is_fully_verified());
    }

    #[test]
    fn a_retired_node_is_never_planned_on_again() {
        use crate::plan::SubqueryKind;
        let q = "tid = 'T1100267' and c2 > 100.00";
        let (mut c, _) = standby_cluster();
        let reference = c.query(q).unwrap().glsns;
        assert!(!reference.is_empty());
        c.rereplicate(&[2].into_iter().collect()).unwrap();

        let avoids_node_2 = |result: &crate::exec::QueryResult| {
            result.plan.subqueries.iter().all(|sq| match &sq.kind {
                SubqueryKind::Local { node } => *node != 2,
                SubqueryKind::Cross { nodes } => !nodes.contains(&2),
            })
        };
        // Retired and then dead on the wire: every front door plans
        // around node 2 and answers from the adopter's promoted copies.
        for killed in [false, true] {
            if killed {
                c.net().faults_mut().kill_node(2);
            }
            let exclusive = c.query(q).unwrap();
            assert!(avoids_node_2(&exclusive), "query, killed={killed}");
            assert_eq!(exclusive.glsns, reference);
            let shared = c.query_shared(q).unwrap();
            assert!(avoids_node_2(&shared), "query_shared, killed={killed}");
            assert_eq!(shared.glsns, reference);
            let counted = crate::aggregate::count_matching(&mut c, q).unwrap();
            assert_eq!(counted.count, reference.len(), "count, killed={killed}");
            // The ladder has nothing left to detect: first attempt.
            let policy = crate::exec::ResilientPolicy::default();
            let outcome = c.query_resilient(q, &policy).unwrap();
            assert_eq!(outcome.result.glsns, reference);
            assert_eq!(outcome.attempts, 1);
            assert_eq!(outcome.excluded, [2].into_iter().collect());
        }
    }

    #[test]
    fn a_retired_owner_is_never_asked_for_its_values_again() {
        let (q, c2) = ("c1 > 0", AttrName::new("c2"));
        let (mut c, _) = standby_cluster();
        let reference = crate::aggregate::sum_matching(&mut c, q, &c2).unwrap();
        assert!(reference.total > 0);
        // c2 was deposited at node 1; node 2 adopts it.
        c.rereplicate(&[1].into_iter().collect()).unwrap();
        c.net().faults_mut().kill_node(1);
        let repaired = crate::aggregate::sum_matching(&mut c, q, &c2).unwrap();
        assert_eq!(
            (repaired.total, repaired.count),
            (reference.total, reference.count)
        );
    }

    fn epoch_cluster(epoch_length: u64) -> DlaCluster {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(42)
                .with_epoch_length(epoch_length),
        )
        .unwrap()
    }

    #[test]
    fn epochs_roll_and_seal_as_glsns_advance() {
        let mut c = epoch_cluster(2);
        let user = c.register_user("u0").unwrap();
        c.log_records(&user, &paper_table1()).unwrap();
        // 5 records, 2 per epoch: epochs 0 and 1 sealed, epoch 2 open.
        let stats: Vec<&EpochStats> = c.epoch_stats().collect();
        assert_eq!(stats.len(), 3);
        assert!(stats[0].sealed && stats[1].sealed && !stats[2].sealed);
        assert_eq!(stats[0].deposits, 2);
        assert_eq!(stats[2].deposits, 1);
        assert!(stats[0].time_lo.is_some());
        assert_eq!(c.checkpoint_chain().len(), 2);
        assert!(c.checkpoint_chain().verify_links());
        assert_eq!(c.trail_items(), 5);
        // Node manifests agree on sealing.
        for node in c.nodes() {
            assert!(node.store().is_sealed(EpochId(0)));
            assert!(!node.store().is_sealed(EpochId(2)));
        }
        // The sealed checkpoint digest is the epoch accumulator.
        let cp = c.checkpoint_chain().get(0).unwrap();
        assert_eq!(cp.digest, c.epoch_stat(EpochId(0)).unwrap().acc);
        assert_eq!(cp.items, 2);
    }

    #[test]
    fn batched_and_single_logging_agree_on_trail_state() {
        let records = paper_table1();
        let mut batched = epoch_cluster(2);
        let user = batched.register_user("u0").unwrap();
        batched.log_records(&user, &records).unwrap();
        let mut single = epoch_cluster(2);
        let user = single.register_user("u0").unwrap();
        for r in &records {
            single.log_record(&user, r).unwrap();
        }
        assert_eq!(batched.trail_accumulator(), single.trail_accumulator());
        // The derived view is the running fold it replaced (Eq. 9).
        let params = single.accumulator_params();
        let folded = (single.logged_glsns().into_iter()).fold(params.start().clone(), |acc, g| {
            params.fold(&acc, &trail_item(g, single.deposit(g).unwrap()))
        });
        assert_eq!(single.trail_accumulator(), &folded);
        assert_eq!(
            batched.checkpoint_chain().head_link(),
            single.checkpoint_chain().head_link()
        );
        assert_eq!(batched.logged_glsns(), single.logged_glsns());
        // Every epoch's running fold, the open one's included: the
        // trail's one running commitment.
        let ledger = |c: &DlaCluster| -> Vec<(EpochId, Ubig, u64, bool)> {
            c.epoch_stats()
                .map(|s| (s.epoch, s.acc.clone(), s.deposits, s.sealed))
                .collect()
        };
        assert_eq!(ledger(&batched), ledger(&single));
        assert!(ledger(&single)
            .last()
            .is_some_and(|(_, _, n, sealed)| *n == 1 && !sealed));
    }

    #[test]
    fn a_deposit_folds_its_record_and_its_epoch_and_a_seal_folds_nothing() {
        let mut c = epoch_cluster(2);
        let user = c.register_user("u0").unwrap();
        let records = paper_table1();
        c.log_record(&user, &records[0]).unwrap();
        let mut metered = |record| {
            let recorder = dla_telemetry::Recorder::new();
            {
                let _install = recorder.install();
                c.log_record(&user, record).unwrap();
            }
            recorder.take().total_cost()
        };
        // Into the running epoch 0: four fragments into the deposit, one
        // item into the epoch's accumulator.
        let running = metered(&records[1]);
        assert_eq!((running.acc_fold, running.epoch_seals), (5, 0));
        // Opening epoch 1 seals epoch 0; the seal adds no fold.
        let sealing = metered(&records[2]);
        assert_eq!((sealing.acc_fold, sealing.epoch_seals), (5, 1));
    }

    #[test]
    fn glsn_window_restricts_to_intersecting_epochs() {
        let mut c = epoch_cluster(2);
        let user = c.register_user("u0").unwrap();
        let glsns = c.log_records(&user, &paper_table1()).unwrap();
        // Epoch 0 holds Table 1's first two records (20:18:35, 20:20:35).
        let e0 = c.epoch_stat(EpochId(0)).unwrap();
        let window = crate::plan::TimeWindow {
            lo: Some(e0.time_lo.unwrap()),
            hi: Some(e0.time_hi.unwrap()),
        };
        let (lo, hi) = c.glsn_window_for(&window).unwrap();
        assert_eq!((lo, hi), (glsns[0], glsns[1]));
        // Unbounded → no pruning; disjoint → empty sentinel.
        assert!(c
            .glsn_window_for(&crate::plan::TimeWindow::unbounded())
            .is_none());
        let disjoint = crate::plan::TimeWindow {
            lo: Some(1),
            hi: Some(2),
        };
        let (lo, hi) = c.glsn_window_for(&disjoint).unwrap();
        assert!(lo > hi, "disjoint window yields the empty sentinel");
    }

    #[test]
    fn epoch_state_survives_restart() {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "dla-cluster-epoch-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            let schema = Schema::paper_example();
            let partition = Partition::paper_example(&schema);
            DlaCluster::new(
                ClusterConfig::new(4, schema)
                    .with_partition(partition)
                    .with_seed(42)
                    .with_epoch_length(2)
                    .with_journal_dir(&dir),
            )
            .unwrap()
        };
        let mut c = build();
        let user = c.register_user("u0").unwrap();
        c.log_records(&user, &paper_table1()).unwrap();
        let chain_before = c.checkpoint_chain().clone();
        let trail_before = c.trail_accumulator().clone();
        let stats_before: Vec<(EpochId, u64, bool)> = c
            .epoch_stats()
            .map(|s| (s.epoch, s.deposits, s.sealed))
            .collect();
        drop(c);

        let c = build();
        assert_eq!(c.checkpoint_chain(), &chain_before);
        assert!(c.checkpoint_chain().verify_links());
        assert_eq!(c.trail_accumulator(), &trail_before);
        assert_eq!(c.trail_items(), 5);
        let stats_after: Vec<(EpochId, u64, bool)> = c
            .epoch_stats()
            .map(|s| (s.epoch, s.deposits, s.sealed))
            .collect();
        assert_eq!(stats_after, stats_before);
        // The rebuilt time index still prunes.
        let e0 = c.epoch_stat(EpochId(0)).unwrap();
        assert!(e0.time_lo.is_some());
        for node in c.nodes() {
            assert!(node.store().is_sealed(EpochId(0)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A deposit blob as the journal holds it, with `tail` in place of
    /// the time flag and time.
    fn deposit_blob(tail: &[u8]) -> Vec<u8> {
        let record = DepositRecord {
            glsn: Glsn(0x139aef),
            deposit: Ubig::from_u64(0xdead_beef),
            public: dla_crypto::schnorr::SchnorrPublicKey::from_element(Ubig::from_u64(5)),
            signature: dla_crypto::schnorr::Signature {
                e: Ubig::from_u64(7),
                s: Ubig::from_u64(11),
            },
            time: None,
        };
        let mut blob = record.encode();
        assert_eq!(blob.pop(), Some(0), "the encoding ends in its time flag");
        blob.extend_from_slice(tail);
        blob
    }

    #[test]
    fn a_deposit_blob_with_time_flag_0_carries_no_time() {
        let record = DepositRecord::decode(&deposit_blob(&[0])).unwrap();
        assert_eq!((record.glsn, record.time), (Glsn(0x139aef), None));
    }

    #[test]
    fn a_deposit_blob_with_time_flag_1_carries_its_time() {
        let mut tail = vec![1];
        tail.extend_from_slice(&42u64.to_be_bytes());
        let record = DepositRecord::decode(&deposit_blob(&tail)).unwrap();
        assert_eq!(record.time, Some(42));
        assert_eq!(
            DepositRecord::decode(&record.encode()).unwrap().time,
            Some(42)
        );
    }

    #[test]
    fn a_deposit_blob_with_any_other_time_flag_is_refused() {
        for flag in [2u8, 0x80, 0xff] {
            let err = DepositRecord::decode(&deposit_blob(&[flag])).err();
            assert!(matches!(err, Some(AuditError::Config(_))), "flag {flag}");
        }
    }

    #[test]
    fn a_legacy_deposit_blob_without_a_time_flag_still_decodes() {
        let record = DepositRecord::decode(&deposit_blob(&[])).unwrap();
        assert_eq!((record.glsn, record.time), (Glsn(0x139aef), None));
    }

    #[test]
    fn a_deposit_blob_with_time_flag_1_and_a_truncated_time_is_refused() {
        for cut in 0..8 {
            let mut tail = vec![1];
            tail.extend_from_slice(&42u64.to_be_bytes()[..cut]);
            let err = DepositRecord::decode(&deposit_blob(&tail)).err();
            assert!(
                matches!(err, Some(AuditError::Config(_))),
                "{cut} time bytes"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn deposit_blob_decoding_never_panics(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..160),
            cut in 0usize..=160,
        ) {
            let _ = DepositRecord::decode(&bytes);
            // And near-valid input: a real blob cut short or run on.
            let mut blob = deposit_blob(&[1, 0, 0, 0, 0, 0, 0, 0, 9]);
            blob.truncate(cut);
            let _ = DepositRecord::decode(&blob);
            blob.extend_from_slice(&bytes);
            let _ = DepositRecord::decode(&blob);
        }
    }
}

//! The DLA cluster (paper §2, Figure 2): `n` TTP nodes storing log
//! fragments, an auditor engine, application users logging through
//! tickets, and the simulated network tying them together.

use crate::kept::KeptResults;
use crate::randomness::Randomness;
use crate::standing::{StandingDelta, StandingQueryId, StandingRegistry};
use crate::trail::{DepositRecord, EpochStats, Trail};
pub use crate::users::AppUser;
use crate::users::UserRegistry;
use crate::AuditError;
use dla_bigint::Ubig;
use dla_crypto::accumulator::{AccumulatorParams, CheckpointChain};
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_crypto::schnorr::SchnorrGroup;
use dla_logstore::acl::Ticket;
use dla_logstore::epoch::{EpochId, EpochPolicy};
use dla_logstore::fragment::{fragment, Fragment, Partition};
use dla_logstore::journal::{Journal, JournalEntry};
use dla_logstore::model::{AttrName, AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_logstore::store::{FragmentStore, GlsnAllocator};
use dla_logstore::LogError;
use dla_net::latency::LatencyModel;
use dla_net::wire::{Reader, Writer};
use dla_net::{AdversaryNet, NetConfig, NodeId, Session, SharedNet, SimNet};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::fmt;

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
    /// Maximum number of application users that can register over the
    /// cluster's whole life, restarts included.
    pub max_users: usize,
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
/// The store sits behind a read/write lock so auditors querying one
/// shared cluster from their own threads ([`DlaCluster::query_shared`])
/// can scan the same nodes at once, while mutation (logging, tampering
/// test hooks) takes the write lock.
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

    /// Stores the fragment of `glsn` that reached this node (frame
    /// `0x20`): under `ticket` when it names this node, as an adopted
    /// copy of a retired home's otherwise.
    pub(crate) fn take_fragment(
        &self,
        payload: &[u8],
        glsn: Glsn,
        ticket: &Ticket,
    ) -> Result<(), AuditError> {
        let fragment = open_fragment(payload, 0x20, glsn)?;
        let mut store = self.store_mut();
        let stored = if fragment.node == self.id {
            store.write(ticket, fragment)
        } else {
            store.adopt(fragment)
        };
        stored.map_err(|e| AuditError::Log(e.to_string()))
    }

    /// Journals the standby copy of a fragment of `glsn` that reached
    /// this node (frame `0x23`), inactive until promotion.
    pub(crate) fn take_standby(&self, payload: &[u8], glsn: Glsn) -> Result<(), AuditError> {
        let fragment = open_fragment(payload, 0x23, glsn)?;
        (self.store_mut().store_standby(fragment)).map_err(|e| AuditError::Log(e.to_string()))
    }

    /// Opens the deposit broadcast of `glsn` (frame `0x21`) and refuses
    /// another record's glsn or deposit. It keeps nothing: the cluster
    /// holds the one copy of every deposit record.
    pub(crate) fn take_deposit(
        &self,
        payload: &[u8],
        glsn: Glsn,
        deposit: &Ubig,
    ) -> Result<(), AuditError> {
        let mut r = Reader::open(payload, 0x21)?;
        let label = Glsn(r.get_u64()?);
        let carried = Ubig::from_bytes_be(r.get_minimal_uint()?);
        r.get_bytes()?;
        r.finish()?;
        if label != glsn || &carried != deposit {
            return Err(AuditError::Integrity(format!(
                "P{} was handed a deposit labelled {label} that is not the one of {glsn}",
                self.id
            )));
        }
        Ok(())
    }

    /// Answers a retrieve request (frame `0x22`: glsn) with the fragment
    /// of the glsn it names, read under `ticket`.
    pub(crate) fn serve_fragment(
        &self,
        payload: &[u8],
        ticket: &Ticket,
    ) -> Result<Fragment, AuditError> {
        let mut r = Reader::open(payload, 0x22)?;
        let glsn = Glsn(r.get_u64()?);
        r.finish()?;
        let fragment = self.store().read(ticket, glsn).cloned();
        fragment.map_err(|e| AuditError::Log(e.to_string()))
    }
}

/// The assembled DLA cluster.
pub struct DlaCluster {
    schema: Schema,
    /// Where each attribute is deposited and where it is served now.
    placement: Placement,
    group: SchnorrGroup,
    domain: CommutativeDomain,
    nodes: Vec<DlaNode>,
    /// The simulator behind the wire tap every cluster leg sends
    /// through ([`DlaCluster::set_adversary`]).
    net: AdversaryNet<SharedNet>,
    randomness: Randomness,
    allocator: GlsnAllocator,
    /// Every user issued a ticket, and the endpoint each one got.
    users: UserRegistry,
    /// Every deposit, its epoch and the sealed epochs' checkpoints.
    trail: Trail,
    /// Epochs the chain holds that some node has not marked sealed (its
    /// seal write failed): every seal retries them first.
    lagging: BTreeSet<EpochId>,
    cluster_journal: Option<Journal>,
    /// Why the cluster stopped taking writes ([`DlaCluster::stopped`]).
    stopped: Option<String>,
    standby_replication: bool,
    /// Tamper-evident journal of the cluster's own privileged actions
    /// (deposits, user registrations, re-replications, degraded-mode
    /// decisions).
    meta: crate::meta::MetaAuditTrail,
    /// Registered standing queries, evaluated incrementally at every
    /// epoch seal (see [`crate::standing`]).
    standing: StandingRegistry,
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
            self.users.count(),
            self.trail.items()
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
        let mut randomness = Randomness::new(config.seed, 0);
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
        let net_config = NetConfig::ideal()
            .with_latency(config.latency)
            .with_seed(config.seed);
        // The authority key is the configured seed's first draw, so the
        // tickets of every incarnation verify under it.
        let users = UserRegistry::new(&group, randomness.rng(), config.max_users, config.nodes);
        let net = SimNet::new(users.endpoint(config.max_users as u64).0, net_config);
        // The ledger starts empty; whatever history there is arrives by
        // replaying the cluster journal through the same transitions
        // that wrote it.
        let mut cluster = DlaCluster {
            meta: crate::meta::MetaAuditTrail::new(),
            schema: config.schema,
            group,
            domain: CommutativeDomain::fixed_256(),
            nodes,
            net: AdversaryNet::new(SharedNet::new(net)),
            randomness,
            allocator: GlsnAllocator::starting_at(glsn_base),
            users,
            trail: Trail::new(AccumulatorParams::fixed_512(), epoch_policy),
            lagging: BTreeSet::new(),
            cluster_journal: None,
            stopped: None,
            standby_replication: config.standby_replication,
            standing: StandingRegistry::default(),
            kept: Mutex::default(),
            placement: Placement {
                in_force: partition.clone(),
                configured: partition,
                retired: Vec::new(),
                uncopied: BTreeSet::new(),
            },
        };
        if let Some(dir) = &config.journal_dir {
            cluster.recover(&dir.join("cluster.journal"))?;
        }
        Ok(cluster)
    }

    /// Restart recovery: enforces the one commit rule — **a deposit
    /// exists iff its `BLOB_DEPOSIT` is in the cluster journal**;
    /// whatever a node holds of any other glsn is rolled back
    /// (journaled) — then replays `cluster.journal` through the live
    /// transitions, each run of deposits between two seal records as one
    /// batch, and journals the restart itself.
    fn recover(&mut self, path: &std::path::Path) -> Result<(), AuditError> {
        let (journal, entries) =
            Journal::open(path).map_err(|e| AuditError::Config(e.to_string()))?;
        let (lived, mut incarnation) = (!entries.is_empty(), 0);
        let be_u64 = |tag: u8, bytes: &[u8]| match bytes.try_into() {
            Ok(raw) => Ok(u64::from_be_bytes(raw)),
            Err(_) => Err(AuditError::Config(format!(
                "cluster journal blob {tag:#04x} carries {} bytes, expected 8",
                bytes.len()
            ))),
        };
        // The commit rule first, so that no replayed seal counts what a
        // node holds of a deposit that never committed in its partials.
        let committed = (entries.iter())
            .filter_map(|entry| match entry {
                JournalEntry::Blob { tag, bytes } if *tag == BLOB_DEPOSIT => Some(bytes),
                _ => None,
            })
            .map(|bytes| DepositRecord::decode(bytes).map(|d| d.glsn))
            .collect::<Result<BTreeSet<Glsn>, _>>()?;
        self.roll_back_uncommitted(|_, glsn| committed.contains(&glsn))?;
        let mut batch = Vec::new();
        for entry in entries {
            let JournalEntry::Blob { tag, bytes } = entry else {
                continue;
            };
            match tag {
                BLOB_DEPOSIT => batch.push(DepositRecord::decode(&bytes)?),
                BLOB_TICKET_COUNTER => self.users.resume(be_u64(tag, &bytes)?),
                BLOB_RESTART if be_u64(tag, &bytes)? == incarnation + 1 => incarnation += 1,
                BLOB_RESTART => return Err(AuditError::Config("restart out of order".into())),
                BLOB_EPOCH_SEAL => {
                    let (replayed, epoch) =
                        (std::mem::take(&mut batch), EpochId(be_u64(tag, &bytes)?));
                    self.trail.admit(&replayed)?;
                    self.trail.absorb(replayed, BTreeSet::from([epoch]));
                    self.seal(epoch)?;
                }
                _ => {}
            }
        }
        self.trail.admit(&batch)?;
        self.trail.absorb(batch, BTreeSet::new());
        self.cluster_journal = Some(journal);
        // A restart is a transition, journaled before anything draws:
        // each incarnation draws from a stream of its own.
        if lived {
            self.journal([u64_record(BLOB_RESTART, incarnation + 1)])?;
            self.randomness = Randomness::new(self.randomness.seed(), incarnation + 1);
        }

        // Allocation resumes past the last committed deposit — and past
        // every epoch any node has sealed, which admits no deposit.
        let policy = self.trail.epoch_policy();
        let sealed = |node: &DlaNode| {
            let store = node.store();
            let sealed = store.epoch_manifests().filter(|m| m.sealed);
            sealed.map(|m| policy.glsn_range(m.epoch).1).max()
        };
        let last = (self.trail.logged_above(None).next_back())
            .max(self.nodes.iter().filter_map(sealed).max());
        if let Some(last) = last {
            self.allocator = GlsnAllocator::starting_at(Glsn(last.0.saturating_add(1)));
        }
        // A crash can commit deposits and tear the seal records behind
        // them: finish the rollover the batch had begun.
        self.flush_deposit_batch("", Vec::new())
    }

    /// Enforces the commit rule on the node stores: whatever a node
    /// holds of a glsn `committed` rejects (it has no deposit record) —
    /// fragment, standby copy, ACL grant — is forgotten, through the
    /// store's own journaled transition. Every node forgets, whichever
    /// journal refuses its tombstone.
    fn roll_back_uncommitted(
        &mut self,
        committed: impl Fn(&Trail, Glsn) -> bool,
    ) -> Result<(), AuditError> {
        let (mut rolled_back, mut refused) = (BTreeSet::new(), None);
        let trail = &self.trail;
        for node in &self.nodes {
            match node
                .store_mut()
                .forget_uncommitted(|glsn| committed(trail, glsn))
            {
                Ok(orphans) => rolled_back.extend(orphans),
                Err(e) => _ = refused.get_or_insert(AuditError::Log(e.to_string())),
            }
        }
        if !rolled_back.is_empty() {
            self.meta_log("cluster", "rollback", format!("glsns={rolled_back:?}"));
        }
        refused.map_or(Ok(()), Err)
    }

    /// Seals `epoch` around [`Trail::seal`]: every node materializes its
    /// partials before, and marks its manifest sealed after (each
    /// journaled and idempotent per node). A node whose mark failed
    /// lags the chain; the mark is retried, on every node, at each
    /// later seal until it lands. Returns the deposit count.
    fn seal(&mut self, epoch: EpochId) -> Result<u64, AuditError> {
        self.trail.check_seal(epoch)?;
        // Cache the epoch's count/sum partials before sealing, so the
        // commitment below endorses exactly what windowed aggregate
        // queries will combine.
        let at_nodes = |op: fn(&mut FragmentStore, EpochId) -> Result<(), LogError>, epoch| {
            self.nodes
                .iter()
                .try_for_each(|node| op(&mut node.store_mut(), epoch))
                .map_err(|e| AuditError::Log(e.to_string()))
        };
        at_nodes(FragmentStore::materialize_partials, epoch)?;
        let aggregates = epoch_aggregates_digest(&self.nodes, epoch);
        let items = self.trail.seal(epoch, aggregates);
        self.lagging.insert(epoch);
        while let Some(&lagging) = self.lagging.first() {
            at_nodes(FragmentStore::seal_epoch, lagging)?;
            self.lagging.remove(&lagging);
        }
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
        &self.placement.configured
    }

    /// Where each attribute is deposited and where it is served now.
    pub(crate) fn placement(&self) -> &Placement {
        &self.placement
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
        self.trail.params()
    }

    /// Locks the simulator for inspection and scripting: stats, clocks,
    /// fault plans, fresh session ids. The guard dereferences to
    /// [`SimNet`]; the cluster's own messages move through a
    /// [`Session`] on [`DlaCluster::shared_net`], never through this
    /// guard.
    ///
    /// The lock is not reentrant: bind the guard once rather than
    /// calling `net()` twice within a single expression (the second
    /// call would block on the lock the first still holds).
    pub fn net(&self) -> MutexGuard<'_, SimNet> {
        self.net.inner().lock()
    }

    /// The session-multiplexed transport the cluster runs over: the
    /// simulator behind the wire tap, so whatever sends through it — a
    /// cluster leg, a query's sessions, a [`dla_net::Reliable`] wrapper
    /// around it — is seen by the installed adversary.
    #[must_use]
    pub fn shared_net(&self) -> &AdversaryNet<SharedNet> {
        &self.net
    }

    /// Installs a [`dla_net::adversary::Adversary`] on the cluster's
    /// wire tap: selected nodes start lying on the wire (their
    /// forgeries re-stamped with valid checksums), and curious ones
    /// record what they see. See [`crate::adversary`] for the scenario
    /// runner built on this.
    pub fn set_adversary(&self, adversary: std::sync::Arc<dyn dla_net::adversary::Adversary>) {
        self.net.set_adversary(adversary);
    }

    /// Removes any installed adversary; the cluster is honest again.
    pub fn clear_adversary(&self) {
        self.net.clear_adversary();
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
        (Session::root(&self.net), self.randomness.rng())
    }

    /// The cluster RNG (seeding derived per-session generators).
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        self.randomness.rng()
    }

    /// The configured base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.randomness.seed()
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
        let at_ns = self.net().elapsed().as_nanos();
        if dla_telemetry::is_active() {
            dla_telemetry::event(
                "meta-audit",
                at_ns,
                &[("actor", actor), ("action", action), ("detail", &detail)],
            );
        }
        self.meta.record(at_ns, actor, action, detail);
    }

    /// The audit trail ([`Trail`]).
    #[must_use]
    pub fn trail(&self) -> &Trail {
        &self.trail
    }

    /// The deposited accumulator value for a glsn.
    #[must_use]
    pub fn deposit(&self, glsn: Glsn) -> Option<&Ubig> {
        self.trail.record(glsn).map(|record| &record.deposit)
    }

    /// All glsns with deposits ([`Trail::logged_glsns`]).
    #[must_use]
    pub fn logged_glsns(&self) -> Vec<Glsn> {
        self.trail.logged_glsns()
    }

    /// The checkpoints of the sealed epochs ([`Trail::checkpoint_chain`]).
    #[must_use]
    pub fn checkpoint_chain(&self) -> &CheckpointChain {
        self.trail.checkpoint_chain()
    }

    /// The per-epoch stats in epoch order ([`Trail::epoch_stats`]).
    pub fn epoch_stats(&self) -> impl Iterator<Item = &EpochStats> {
        self.trail.epoch_stats()
    }

    /// The whole-trail accumulator ([`Trail::accumulator`]).
    #[must_use]
    pub fn trail_accumulator(&self) -> &Ubig {
        self.trail.accumulator()
    }

    /// The number of deposits in the trail ([`Trail::items`]).
    #[must_use]
    pub fn trail_items(&self) -> u64 {
        self.trail.items()
    }

    /// The answers the auditor engine keeps per sealed epoch from the
    /// queries revealed to it ([`crate::exec::execute_on`] with
    /// `reveal = true`). Memory only: never journaled, never sent;
    /// `clear()` makes the next asking of every query a cold one.
    pub fn kept(&self) -> MutexGuard<'_, KeptResults> {
        self.kept.lock()
    }

    /// Registers an application user: journals the ticket counter, then
    /// generates a key pair and issues a read/write ticket.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] when the user capacity — a bound
    /// on the cluster's whole life, restarts included — is exhausted,
    /// and [`AuditError::Log`] when the counter cannot be journaled or
    /// the cluster has stopped ([`DlaCluster::stopped`]); nothing is issued.
    pub fn register_user(&mut self, name: &str) -> Result<AppUser, AuditError> {
        let issued = self.users.admit()?;
        self.journal([u64_record(BLOB_TICKET_COUNTER, issued)])?;
        let user = self.users.issue(name, &self.group, self.randomness.rng());
        let detail = format!("name={name} node={}", user.node);
        self.meta_log("cluster", "register-user", detail);
        Ok(user)
    }

    /// Appends `(tag, bytes)` cluster records in one write, if journaled.
    /// A refused append that left the file as it was committed nothing;
    /// one that left bytes behind stops the cluster ([`Self::writable`]).
    fn journal(
        &mut self,
        blobs: impl IntoIterator<Item = (u8, Vec<u8>)>,
    ) -> Result<(), AuditError> {
        self.writable()?;
        let Some(journal) = &mut self.cluster_journal else {
            return Ok(());
        };
        let blobs: Vec<_> = (blobs.into_iter())
            .map(|(tag, bytes)| JournalEntry::Blob { tag, bytes })
            .collect();
        let refused = journal.append_batch(&blobs).map_err(|e| e.to_string());
        if let (Err(why), false) = (&refused, journal.intact()) {
            self.stopped = Some(why.clone());
            self.meta_log("cluster", "fail-stop", why.clone());
        }
        refused.map_err(AuditError::Log)
    }

    /// Why the cluster stopped taking writes, if a refused cluster
    /// append left bytes behind: until a restart it only reads.
    #[must_use]
    pub fn stopped(&self) -> Option<&str> {
        self.stopped.as_deref()
    }

    /// Fail-stop: a refused append that left bytes behind may be durable
    /// in part, which only a restart decides, so until then every write is
    /// refused: the live cluster never builds on what a restart may drop.
    fn writable(&self) -> Result<(), AuditError> {
        let refused = |why| AuditError::Log(format!("refused until a restart: stopped at {why}"));
        (self.stopped.as_ref()).map_or(Ok(()), |why| Err(refused(why)))
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
    /// Returns [`AuditError`] on schema violations or storage failures,
    /// and on every write once the cluster has stopped ([`DlaCluster::stopped`]).
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
        let glsn = (self.allocator.allocate()).map_err(|e| AuditError::Log(e.to_string()))?;
        let mut stamped = LogRecord::new(glsn);
        for (name, value) in record.iter() {
            stamped.insert(name.clone(), value.clone());
        }
        // Each fragment is encoded once: the user computes the deposit
        // over these bytes (§4.1: "it also computes the one-way
        // accumulator of all fragments"), and these bytes travel.
        let encoded: Vec<(usize, Vec<u8>)> = fragment(&stamped, &self.placement.configured)
            .iter()
            .map(|frag| (frag.node, frag.to_canonical_bytes()))
            .collect();
        let deposit = (self.trail.params()).accumulate(encoded.iter().map(|(_, bytes)| &bytes[..]));

        // Ship each fragment to the node serving its home: the home
        // itself, or the adopter of a retired one, which holds it as an
        // adopted copy beside those it promoted — so the deposit, the
        // integrity circulation and every reader of a home stay as they
        // are, and no fragment goes to a node no query plans on. Each
        // receiver stores what reached it.
        let wire = self.root_session();
        let ship_standby = self.standby_replication && self.nodes.len() >= 2;
        for (home, bytes) in &encoded {
            let node = self.placement.server_of(*home);
            // A live owner's ring successor is the node that would adopt
            // it, so a retired successor's adopter holds the standby.
            let successor = self.placement.server_of((home + 1) % self.nodes.len());
            let mut w = Writer::new();
            w.put_u8(0x20).put_u64(glsn.0).put_bytes(bytes);
            wire.send(user.node, NodeId(node), w.finish());
            let envelope = wire.recv_from(NodeId(node), user.node)?;
            self.nodes[node].take_fragment(&envelope.payload, glsn, &user.ticket)?;
            // The owner forwards a standby copy to its ring successor,
            // which journals it inactive until promotion.
            if ship_standby && node == *home && successor != *home {
                let mut w = Writer::new();
                w.put_u8(0x23).put_u64(glsn.0).put_bytes(bytes);
                wire.send(NodeId(node), NodeId(successor), w.finish());
                let envelope = wire.recv_from(NodeId(successor), NodeId(node))?;
                self.nodes[successor].take_standby(&envelope.payload, glsn)?;
            }
        }

        // The user signs (glsn ‖ deposit): non-repudiation of the whole
        // record, since the deposit binds every fragment (§4.1).
        let origin_sig = user
            .key()
            .sign(&origin_message(glsn, &deposit), self.randomness.rng());

        // Deposit + origin signature broadcast to every node in service.
        let mut w = Writer::new();
        w.put_u8(0x21)
            .put_u64(glsn.0)
            .put_bytes(&deposit.to_bytes_be())
            .put_bytes(&origin_sig.to_bytes());
        let broadcast = w.finish();
        let wire = self.root_session();
        for node in self.placement.in_service() {
            wire.send(user.node, NodeId(node), broadcast.clone());
            let envelope = wire.recv_from(NodeId(node), user.node)?;
            self.nodes[node].take_deposit(&envelope.payload, glsn, &deposit)?;
        }
        let time = stamped.get(&AttrName::new("time")).and_then(|v| match v {
            AttrValue::Time(t) => Some(*t),
            _ => None,
        });
        Ok(DepositRecord {
            glsn,
            deposit,
            public: user.key().public().clone(),
            signature: origin_sig,
            time,
        })
    }

    /// The amortized tail of a deposit batch `user` shipped: the trail
    /// admits it, one cluster-journal `append_batch` (one fsync) of its
    /// deposit records and the seal records of the epochs it closes — the
    /// **commit point** — then the trail absorbs it, the meta trail
    /// records each deposit, and every closed epoch seals. A deposit is
    /// on the meta trail only once it is committed.
    ///
    /// An append that fails leaves the commit point ambiguous: a prefix
    /// of its records, or all of them, may be durable all the same. The
    /// nodes forget the batch in memory only, the cluster stops
    /// ([`DlaCluster::writable`]), and the next restart decides by the
    /// deposit records the journal holds.
    fn flush_deposit_batch(
        &mut self,
        user: &str,
        batch: Vec<DepositRecord>,
    ) -> Result<(), AuditError> {
        if !batch.is_empty() {
            dla_telemetry::record(dla_telemetry::CostKind::DepositBatch, 1);
        }
        self.trail.admit(&batch)?;
        let closing = self.trail.closes(&batch);
        let deposits = batch.iter().map(|d| (BLOB_DEPOSIT, d.encode()));
        let seals = closing.iter().map(|e| u64_record(BLOB_EPOCH_SEAL, e.0));
        if let Err(e) = self.journal(deposits.chain(seals)) {
            for node in &self.nodes {
                node.store_mut()
                    .forget_in_memory(batch.iter().map(|d| d.glsn));
            }
            return Err(e);
        }
        let glsns: Vec<Glsn> = batch.iter().map(|d| d.glsn).collect();
        self.trail.absorb(batch, closing);
        for glsn in glsns {
            self.meta_log("cluster", "deposit", format!("glsn={glsn} user={user}"));
        }
        // Every closed epoch seals, one whose seal failed after its
        // record was journaled included: that record is never repeated.
        while let Some(epoch) = self.trail.next_to_seal() {
            let items = self.seal(epoch)?;
            let nodes = self.nodes.len() as u64;
            dla_telemetry::record(dla_telemetry::CostKind::PartialMaterialize, nodes);
            dla_telemetry::record(dla_telemetry::CostKind::EpochSeal, 1);
            self.meta_log(
                "cluster",
                "epoch-seal",
                format!("epoch={epoch} items={items}"),
            );
            self.catch_up_standing()?;
        }
        Ok(())
    }

    /// Registers a standing query (see [`crate::standing`]): the
    /// criteria is compiled and validated against the partition in
    /// force **once**; every subsequent epoch seal
    /// evaluates it over just the sealed epoch's glsn range and pushes
    /// a [`StandingDelta`]. Already-sealed epochs are
    /// caught up immediately, so a late subscriber converges to the
    /// same accumulated answer as one registered at genesis.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on parse/plan failures, or if the
    /// catch-up fails; the registration is then forgotten again. A
    /// stopped cluster ([`DlaCluster::stopped`]) registers nothing.
    pub fn register_standing(&mut self, criteria: &str) -> Result<StandingQueryId, AuditError> {
        self.writable()?;
        let normalized = crate::plan::compile(criteria, &self.schema)?;
        // Fail registration, not some later seal, on an unplannable
        // query.
        self.plan(&normalized)?;
        let id = self.standing.register(normalized);
        self.meta_log(
            "cluster",
            "standing-register",
            format!("query={id} criteria={criteria}"),
        );
        let caught_up = self.catch_up_standing();
        if caught_up.is_err() {
            self.forget_standing(id);
        }
        caught_up.map(|()| id)
    }

    /// Forgets standing query `id` and everything it was told; the
    /// meta-audit trail records the forget.
    pub(crate) fn forget_standing(&mut self, id: StandingQueryId) {
        self.standing.forget(id);
        self.meta_log("cluster", "standing-forget", format!("query={id}"));
    }

    /// Drains the deltas pushed to `id` since the last drain (seal
    /// order). Empty deltas are delivered too.
    pub fn standing_deltas(&mut self, id: StandingQueryId) -> Vec<StandingDelta> {
        self.standing.drain(id)
    }

    /// Every delta of `id`, in epoch order, drained or not.
    pub(crate) fn standing_log(&self, id: StandingQueryId) -> &[StandingDelta] {
        self.standing.deltas(id)
    }

    /// The accumulated matches of standing query `id` over every
    /// sealed epoch, sorted ascending. `None` for an unknown id.
    #[must_use]
    pub fn standing_matches(&self, id: StandingQueryId) -> Option<Vec<Glsn>> {
        self.standing.matches(id)
    }

    /// The one place a standing query is evaluated: pays every owed
    /// (query, sealed epoch) pair, epoch-major and then by ascending
    /// id, each over exactly that epoch's glsn range. Runs under the
    /// cluster's ARQ configuration so seals during lossy operation
    /// still deliver deltas. A pair that fails stays owed, and so do
    /// the ones after it: the next call pays them.
    fn catch_up_standing(&mut self) -> Result<(), AuditError> {
        let from = self.standing.owed_from().into_iter();
        let sealed = from.flat_map(|from| self.trail.sealed_from(from).map(|s| s.epoch));
        let owed = (self.standing.owed(sealed).into_iter())
            .map(|(id, epoch, query)| Ok((id, epoch, self.plan(query)?)))
            .collect::<Result<Vec<_>, AuditError>>()?;
        for (id, epoch, mut plan) in owed {
            plan.glsn_clamp = Some(self.trail.extent(epoch));
            let query_seed = self.randomness.standing_seed(id, epoch);
            let reliable = dla_net::Reliable::new(self.shared_net());
            let concurrent = crate::exec::ExecMode::Concurrent;
            let result =
                crate::exec::execute_on(self, &reliable, &plan, true, concurrent, query_seed)?;
            let matched = result.glsns.len();
            self.standing.fold(id, epoch, result.glsns);
            dla_telemetry::record(dla_telemetry::CostKind::StandingDelta, 1);
            self.meta_log(
                "cluster",
                "standing-delta",
                format!("query={id} epoch={epoch} matches={matched}"),
            );
        }
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
    /// Returns [`AuditError::Integrity`] if no deposit exists for
    /// `glsn`.
    pub fn verify_origin(&self, glsn: Glsn) -> Result<bool, AuditError> {
        let record = (self.trail)
            .record(glsn)
            .ok_or_else(|| AuditError::Integrity(format!("no deposit for glsn {glsn}")))?;
        Ok(dla_crypto::schnorr::verify(
            &self.group,
            &record.public,
            &origin_message(glsn, &record.deposit),
            &record.signature,
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
        self.writable()?;
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
        let flushed = self.flush_deposit_batch(&user.name, batch);
        match flushed.err().or(failure) {
            // The record that failed may have reached some nodes, and so
            // may a batch the trail refused or one whose seal failed
            // after it committed: none of those glsns has, or will have,
            // a deposit record. A batch whose append failed is forgotten
            // already, in memory only.
            Some(e) => {
                let committed = |trail: &Trail, glsn| trail.record(glsn).is_some();
                self.roll_back_uncommitted(committed).and(Err(e))
            }
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
        crate::plan::plan(normalized, &self.placement.in_force)
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
    /// transport session; per-query randomness derives from the
    /// incarnation's stream and an atomic query counter instead of the
    /// exclusive RNG.
    ///
    /// # Errors
    ///
    /// As [`DlaCluster::query`].
    pub fn query_shared(&self, criteria: &str) -> Result<crate::exec::QueryResult, AuditError> {
        let plan = self.compile(criteria)?;
        let query_seed = self.randomness.shared_query_seed();
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
        self.placement
            .retired
            .iter()
            .map(|&(dead, _)| dead)
            .collect()
    }

    /// The partition queries should currently be planned against: the
    /// configured partition with every retired node's attributes
    /// reassigned to its adopter, in retirement order.
    #[must_use]
    pub fn effective_partition(&self) -> &Partition {
        &self.placement.in_force
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
        let (home, owner) = self.placement.owner_of(attr)?;
        let auditor = self.auditor_node();
        let mut w = Writer::new();
        w.put_u8(tag).put_list(glsns, |w, g| {
            w.put_u64(g.0);
        });
        let wire = self.root_session();
        wire.send(auditor, NodeId(owner), w.finish());
        let envelope = wire.recv_from(NodeId(owner), auditor)?;
        let mut r = Reader::open(&envelope.payload, tag)?;
        let requested = r.get_list(|r| r.get_u64().map(Glsn))?;
        let store = self.nodes[owner].store();
        let values = requested
            .into_iter()
            .filter_map(|g| Some((g, served(&store, home, g)?.values.get(attr)?.clone())))
            .collect();
        Ok((owner, values))
    }

    /// The nodes of `dead`, not yet retired, whose retirement would
    /// leave some deposit without a surviving copy of their share
    /// ([`Placement::has_copy`]); none while nothing is deposited. A
    /// [`DlaCluster::rereplicate`] of them reports those records failed.
    pub(crate) fn uncopied(&self, dead: &BTreeSet<usize>) -> Vec<usize> {
        if self.trail.logged_above(None).next().is_none() {
            return Vec::new();
        }
        (dead.iter().copied())
            .filter(|&d| !self.placement.is_retired(d))
            .filter(|&d| !(self.standby_replication && self.placement.has_copy(d, dead)))
            .collect()
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
        let deposited = self.trail.logged_above(None).next().is_some();
        let mut adoptions = Vec::new();
        for &d in dead {
            if self.placement.is_retired(d) {
                continue;
            }
            let adopter = (self.placement)
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
            self.placement.retire(d, adopter, deposited);
        }
        // The partition in force moved: what the engine kept was
        // planned, and partly computed, on the nodes just retired.
        if !adoptions.is_empty() {
            self.kept().clear();
        }

        let survivors: BTreeSet<usize> = self.placement.in_service().collect();
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
        let mut w = Writer::new();
        w.put_u8(0x22).put_u64(glsn.0);
        let request = w.finish();
        let wire = self.root_session();
        let frags = (self.nodes.iter())
            .map(|node| {
                wire.send(user.node, NodeId(node.id), request.clone());
                let envelope = wire.recv_from(NodeId(node.id), user.node)?;
                node.serve_fragment(&envelope.payload, &user.ticket)
            })
            .collect::<Result<Vec<_>, AuditError>>()?;
        dla_logstore::fragment::reassemble(&frags).map_err(|e| AuditError::Log(e.to_string()))
    }
}

/// Where every attribute is served: the configured partition (each
/// attribute's *home*), the retirement log `(dead node, adopter)` in
/// declaration order, and the partition in force — the configured one
/// with the log replayed over it. [`Placement::retire`] moves both.
pub(crate) struct Placement {
    configured: Partition,
    in_force: Partition,
    retired: Vec<(usize, usize)>,
    /// The nodes some of whose standby copies retired with the node
    /// holding them.
    uncopied: BTreeSet<usize>,
}

impl Placement {
    /// Retires `dead`: `adopter` serves its attributes from now on. When
    /// the trail holds a deposit, the standbys `dead` held for the nodes
    /// shipping theirs to it retire with it.
    fn retire(&mut self, dead: usize, adopter: usize, deposited: bool) {
        if deposited {
            let n = self.configured.num_nodes();
            let shippers = self
                .in_service()
                .filter(|&p| self.server_of((p + 1) % n) == dead);
            let shippers: Vec<usize> = shippers.collect();
            self.uncopied.extend(shippers);
        }
        self.in_force = (self.in_force.reassign(dead, adopter))
            .expect("an adopter is a live node other than the one it adopts");
        self.retired.push((dead, adopter));
    }

    /// Whether a survivor of `dead` holds a copy of every deposit's
    /// share that node `d` serves, by the rule a deposit ships its
    /// standbys by: a home's standby goes to the server of its ring
    /// successor, which is the node [`Placement::adopter_of`] picks
    /// unless it dies too; what a node serves as an adopter has no
    /// standby; and no copy of `d`'s went with a retired node.
    fn has_copy(&self, d: usize, dead: &BTreeSet<usize>) -> bool {
        let n = self.configured.num_nodes();
        let adopts = self
            .retired
            .iter()
            .any(|&(home, _)| self.server_of(home) == d);
        let holder = self.server_of((d + 1) % n);
        !adopts && !self.uncopied.contains(&d) && self.adopter_of(d, dead) == Some(holder)
    }

    fn is_retired(&self, node: usize) -> bool {
        self.retired.iter().any(|&(dead, _)| dead == node)
    }

    /// The nodes in service — every node not retired, ascending: the
    /// receivers of a deposit broadcast, the parties of a secure sum,
    /// the survivors a repair verifies among.
    pub(crate) fn in_service(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.configured.num_nodes()).filter(|&node| !self.is_retired(node))
    }

    /// The node serving what was deposited at `home`: `home` itself, or
    /// its adopter once it is retired, followed down the retirement log
    /// (an adopter that retires later hands on what it adopted).
    fn server_of(&self, home: usize) -> usize {
        self.retired.iter().fold(
            home,
            |node, &(dead, adopter)| if dead == node { adopter } else { node },
        )
    }

    /// Where `attr` was deposited — its home under the configured
    /// partition — and the node serving it under the partition in
    /// force: the home itself, or its adopter once the home is retired.
    pub(crate) fn owner_of(&self, attr: &AttrName) -> Result<(usize, usize), AuditError> {
        let home = self.configured.node_of(attr).ok_or_else(|| {
            AuditError::Planning(format!("attribute {attr} is not served by any node"))
        })?;
        Ok((home, self.server_of(home)))
    }

    /// The first node clockwise from `dead` that is in service and not
    /// in `also_dead`.
    fn adopter_of(&self, dead: usize, also_dead: &BTreeSet<usize>) -> Option<usize> {
        let n = self.configured.num_nodes();
        (1..n)
            .map(|k| (dead + k) % n)
            .find(|&i| !also_dead.contains(&i) && !self.is_retired(i))
    }
}

/// Decodes the fragment of `glsn` a ship or standby frame carries; one
/// labelled with another glsn is as garbled as a truncated one.
fn open_fragment(payload: &[u8], tag: u8, glsn: Glsn) -> Result<Fragment, AuditError> {
    let mut r = Reader::open(payload, tag)?;
    let label = Glsn(r.get_u64()?);
    let fragment = Fragment::from_canonical_bytes(r.get_bytes()?)
        .map_err(|e| AuditError::Wire(e.to_string()))?;
    r.finish()?;
    if label != glsn || fragment.glsn != glsn {
        return Err(AuditError::Wire(format!(
            "a fragment of {glsn} arrived labelled {label}, decoding to {}",
            fragment.glsn
        )));
    }
    Ok(fragment)
}

/// Cluster-journal blob tags.
const BLOB_DEPOSIT: u8 = 0x01;
const BLOB_TICKET_COUNTER: u8 = 0x02;
const BLOB_EPOCH_SEAL: u8 = 0x03;
const BLOB_RESTART: u8 = 0x04;

/// A cluster record carrying one 8-byte big-endian number.
fn u64_record(tag: u8, value: u64) -> (u8, Vec<u8>) {
    (tag, value.to_be_bytes().to_vec())
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
pub(crate) mod tests {
    use super::*;
    use dla_logstore::gen::paper_table1;

    impl DlaCluster {
        /// The trail, writable, for its tamper hooks.
        pub(crate) fn trail_mut(&mut self) -> &mut Trail {
            &mut self.trail
        }
    }

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
    fn running_out_of_glsns_refuses_the_deposit_and_the_cluster_carries_on() {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let config = ClusterConfig::new(4, schema.clone())
            .with_partition(partition)
            .with_seed(42)
            .with_glsn_base(Glsn(u64::MAX - 1));
        let mut c = DlaCluster::new(config).unwrap();
        let user = c.register_user("u0").unwrap();
        let records = paper_table1();
        let top = c.log_record(&user, &records[0]).unwrap();
        assert_eq!(top, Glsn(u64::MAX - 1));
        for record in &records[1..3] {
            let refused = c.log_record(&user, record);
            assert!(matches!(refused, Err(AuditError::Log(_))), "{refused:?}");
        }
        assert_eq!(c.logged_glsns(), vec![top]);
        for node in c.nodes() {
            assert_eq!(node.store().len(), 1, "node {}", node.id());
        }
        // The one record logged still answers, and the trail checks.
        let q = "c2 > 100.00";
        let matches = crate::parser::parse(q, &schema)
            .unwrap()
            .eval(&records[0])
            .unwrap();
        assert_eq!(
            c.query(q).unwrap().glsns,
            if matches { vec![top] } else { vec![] }
        );
        assert!(crate::integrity::check_trail(&c).ok);
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
        c.trail_mut()
            .tamper_deposit_for_tests(glsn, Ubig::from_u64(12345));
        assert!(!c.verify_origin(glsn).unwrap());
    }

    #[test]
    fn special_node_ids_are_disjoint() {
        let c = cluster();
        assert_eq!(c.auditor_node(), NodeId(4));
        assert_eq!(c.ttp_node(), NodeId(5));
        assert_ne!(c.auditor_node(), c.dla_node_id(3));
    }

    fn empty_standby_cluster() -> DlaCluster {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        DlaCluster::new(
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_seed(42)
                .with_standby_replication(),
        )
        .unwrap()
    }

    fn standby_cluster() -> (DlaCluster, Vec<Glsn>) {
        let mut c = empty_standby_cluster();
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

    /// `uncopied` names a node exactly when retiring it leaves a record
    /// the repair cannot verify.
    #[test]
    fn uncopied_names_a_node_exactly_when_its_repair_cannot_verify() {
        let dead = |d: &[usize]| d.iter().copied().collect::<BTreeSet<usize>>();
        let user = |c: &mut DlaCluster| c.register_user("u0").unwrap();
        // No standbys: nothing is copied, once a deposit exists.
        let mut c = cluster();
        assert!(c.uncopied(&dead(&[2])).is_empty());
        let u = user(&mut c);
        c.log_records(&u, &paper_table1()).unwrap();
        assert_eq!(c.uncopied(&dead(&[2])), [2]);
        // Node 2's standbys live on node 3: losing both loses them, and
        // node 3's live on node 0.
        let (c, _) = standby_cluster();
        assert!(c.uncopied(&dead(&[2])).is_empty());
        assert_eq!(c.uncopied(&dead(&[2, 3])), [2]);
        // Node 3 retires before any deposit: node 2's standbys all go to
        // node 0, which adopts node 2 in turn.
        let mut c = empty_standby_cluster();
        c.rereplicate(&dead(&[3])).unwrap();
        let u = user(&mut c);
        c.log_records(&u, &paper_table1()).unwrap();
        assert!(c.uncopied(&dead(&[2])).is_empty());
        let report = c.rereplicate(&dead(&[2])).unwrap();
        assert_eq!(report.adoptions[0].adopter, 0);
        assert!(report.is_fully_verified());
        // Node 3 retires after deposits: node 2's copies went with it.
        let (mut c, _) = standby_cluster();
        c.rereplicate(&dead(&[3])).unwrap();
        assert_eq!(c.uncopied(&dead(&[2])), [2]);
        assert!(!c.rereplicate(&dead(&[2])).unwrap().is_fully_verified());
        // Node 3 adopts node 2: what it adopted has no standby.
        let (mut c, _) = standby_cluster();
        c.rereplicate(&dead(&[2])).unwrap();
        assert_eq!(c.uncopied(&dead(&[3])), [3]);
        assert!(!c.rereplicate(&dead(&[3])).unwrap().is_fully_verified());
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
    fn a_deposit_after_a_retirement_lands_where_queries_read() {
        let q = "protocol = 'UDP'";
        let (mut c, _) = standby_cluster();
        let user = c.register_user("u1").unwrap();
        let mut udp = paper_table1()[0].clone();
        udp.insert("protocol".into(), AttrValue::text("UDP"));
        let owner = c.partition().node_of(&"protocol".into()).unwrap();
        let mut expected = crate::aggregate::count_matching(&mut c, q).unwrap().count;
        c.rereplicate(&[owner].into_iter().collect()).unwrap();
        // Retired and still up, then retired and dead on the wire: the
        // records reach the adopter, and the count sees every one.
        for killed in [false, true] {
            if killed {
                c.net().faults_mut().kill_node(owner);
            }
            for _ in 0..3 {
                c.log_record(&user, &udp).unwrap();
            }
            expected += 3;
            let counted = crate::aggregate::count_matching(&mut c, q).unwrap();
            assert_eq!(counted.count, expected, "killed={killed}");
        }
        // The adopted copies are the deposited fragments: every record,
        // before the retirement and after it, verifies among survivors.
        let report = c.rereplicate(&[owner].into_iter().collect()).unwrap();
        assert!(report.is_fully_verified());
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
        assert_eq!(cp.digest, c.trail().epoch_stat(EpochId(0)).unwrap().acc);
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
            params.fold(
                &acc,
                &crate::trail::trail_item(g, single.deposit(g).unwrap()),
            )
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
        let e0 = c.trail().epoch_stat(EpochId(0)).unwrap();
        let window = crate::plan::TimeWindow {
            lo: Some(e0.time_lo.unwrap()),
            hi: Some(e0.time_hi.unwrap()),
        };
        let (lo, hi) = c.trail().glsn_window_for(&window).unwrap();
        assert_eq!((lo, hi), (glsns[0], glsns[1]));
        // Unbounded → no pruning; disjoint → empty sentinel.
        assert!(c
            .trail()
            .glsn_window_for(&crate::plan::TimeWindow::unbounded())
            .is_none());
        let disjoint = crate::plan::TimeWindow {
            lo: Some(1),
            hi: Some(2),
        };
        let (lo, hi) = c.trail().glsn_window_for(&disjoint).unwrap();
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
        let e0 = c.trail().epoch_stat(EpochId(0)).unwrap();
        assert!(e0.time_lo.is_some());
        for node in c.nodes() {
            assert!(node.store().is_sealed(EpochId(0)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cluster append that fails leaves its commit point ambiguous:
    /// the live cluster forgets the batch in memory and journals no
    /// rollback, and the restart commits whatever deposit records the
    /// journal kept, fragments and all.
    #[test]
    fn a_refused_append_is_forgotten_live_and_decided_by_the_restart() {
        use dla_logstore::journal::failpoint;
        let mut dir = std::env::temp_dir();
        dir.push(format!("dla-cluster-ambiguous-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            let schema = Schema::paper_example();
            let partition = Partition::paper_example(&schema);
            let config = ClusterConfig::new(4, schema).with_partition(partition);
            DlaCluster::new(config.with_journal_dir(&dir)).unwrap()
        };
        let mut c = build();
        let user = c.register_user("u0").unwrap();
        // Two records make 4 node writes each, then the cluster append,
        // which keeps all but the last byte: the first record's frame.
        failpoint::arm(9, |len| len - 1);
        assert!(c.log_records(&user, &paper_table1()[..2]).is_err());
        assert_eq!(failpoint::disarm(), 9, "no rollback was journaled");
        assert!(c.logged_glsns().is_empty());
        assert!(c.nodes().iter().all(|node| node.store().is_empty()));
        assert_meta_deposits_are_logged(&c);
        drop(c);
        let c = build();
        assert_eq!(c.logged_glsns().len(), 1);
        assert!(c.nodes().iter().all(|node| node.store().len() == 1));
        let whole = crate::plan::TimeWindow::unbounded();
        assert!(crate::integrity::check_window(&c, &whole).ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The meta trail names a deposit exactly when the trail holds it:
    /// one `deposit` record per logged glsn, in glsn order.
    fn assert_meta_deposits_are_logged(c: &DlaCluster) {
        let named: Vec<&str> = (c.meta_audit().records().iter())
            .filter(|r| r.action == "deposit")
            .map(|r| r.detail.split(' ').next().unwrap_or_default())
            .collect();
        let logged: Vec<String> = (c.logged_glsns().iter())
            .map(|g| format!("glsn={g}"))
            .collect();
        assert_eq!(named, logged, "the meta trail's deposits");
    }

    /// An append refused whole commits nothing and stops nothing: the
    /// cluster lives on, and the meta trail records no deposit for the
    /// glsns the refused batch had shipped.
    #[test]
    fn a_deposit_is_on_the_meta_trail_only_once_it_commits() {
        use dla_logstore::journal::failpoint;
        let mut dir = std::env::temp_dir();
        dir.push(format!("dla-cluster-meta-deposit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let config = ClusterConfig::new(4, schema).with_partition(partition);
        let mut c = DlaCluster::new(config.with_journal_dir(&dir)).unwrap();
        let user = c.register_user("u0").unwrap();
        let table = paper_table1();
        failpoint::arm(9, |_| 0);
        assert!(c.log_records(&user, &table[..2]).is_err());
        failpoint::disarm();
        assert!(c.stopped().is_none());
        assert!(c.logged_glsns().is_empty());
        assert_meta_deposits_are_logged(&c);
        c.log_records(&user, &table[2..4]).unwrap();
        assert_eq!(c.logged_glsns().len(), 2);
        assert_meta_deposits_are_logged(&c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two origin signatures under one key and one nonce give the key
    /// away: `s = k + x·e`, so `x = (s₀ − s₁)/(e₀ − e₁) mod q`. A restart
    /// that replayed the first life's draws handed its first user the
    /// first life's key, and its first deposit that life's nonce.
    #[test]
    fn a_restart_never_signs_with_a_nonce_twice() {
        use dla_bigint::modular::{modinv, modmul, modsub};
        use dla_crypto::schnorr::SchnorrKeyPair;
        let mut dir = std::env::temp_dir();
        dir.push(format!("dla-cluster-nonce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            let schema = Schema::paper_example();
            let partition = Partition::paper_example(&schema);
            ClusterConfig::new(4, schema)
                .with_partition(partition)
                .with_journal_dir(&dir)
        };
        let records = paper_table1();
        let signed = |record: &LogRecord| {
            let mut c = DlaCluster::new(config()).unwrap();
            let user = c.register_user("u").unwrap();
            let glsn = c.log_record(&user, record).unwrap();
            assert!(c.verify_origin(glsn).unwrap());
            c.trail().record(glsn).unwrap().clone()
        };
        let (first, second) = (signed(&records[0]), signed(&records[1]));
        let group = SchnorrGroup::fixed_256();
        let q = group.order();
        let (s, e) = (&first.signature, &second.signature);
        let slope = modinv(&modsub(&s.e, &e.e, q), q).unwrap();
        let x = modmul(&modsub(&s.s, &e.s, q), &slope, q);
        let solved = SchnorrKeyPair::from_secret(&group, x);
        assert_ne!(
            solved.public(),
            &first.public,
            "the first user's key leaked"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fails every standing evaluation and nothing else: the tap drops
    /// `Reliable`'s DATA frames (`0x01`), and only standing evaluations
    /// travel wrapped — deposits go bare as `0x20`/`0x21`/`0x23`.
    pub(crate) fn fail_standing_evaluations(cluster: &DlaCluster) {
        use dla_net::adversary::{ScriptedAdversary, Tamper, TamperRule};
        use dla_net::Transport;
        let data = TamperRule {
            from: None,
            to: None,
            tag: Some(0x01),
            skip: 0,
            fires: u64::MAX,
            action: Tamper::Drop,
        };
        let everyone = 0..cluster.shared_net().num_nodes();
        let tap = everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::compromise);
        cluster.set_adversary(std::sync::Arc::new(tap.rule(data)));
    }

    /// The glsns of the sealed epochs.
    fn sealed_glsns(c: &DlaCluster) -> Vec<Glsn> {
        let sealed = c.trail().sealed_epochs();
        sealed
            .flat_map(|s| (s.glsn_lo.0..=s.glsn_hi.0).map(Glsn))
            .collect()
    }

    #[test]
    fn a_standing_delta_that_fails_at_a_seal_is_paid_at_the_next_one() {
        let mut c = epoch_cluster(2);
        let user = c.register_user("u0").unwrap();
        let id = c.register_standing("protocol = 'UDP'").unwrap();
        let table = paper_table1();
        c.log_records(&user, &table[..1]).unwrap();

        // Glsn 3 opens epoch 1 and seals epoch 0, whose delta fails.
        fail_standing_evaluations(&c);
        assert!(c.log_records(&user, &table[1..3]).is_err());
        assert_eq!(c.trail_items(), 3, "the records are committed");
        assert_eq!(sealed_glsns(&c).len(), 2, "and epoch 0 is sealed");

        c.clear_adversary();
        c.log_records(&user, &table[3..5]).unwrap();
        let told: Vec<EpochId> = c.standing_deltas(id).iter().map(|d| d.epoch).collect();
        assert_eq!(told, [EpochId(0), EpochId(1)]);
        let sealed = sealed_glsns(&c);
        let fresh = c.query_shared("protocol = 'UDP'").unwrap().glsns;
        let expected: Vec<Glsn> = fresh.into_iter().filter(|g| sealed.contains(g)).collect();
        assert_eq!(c.standing_matches(id), Some(expected));
    }

    #[test]
    fn a_refused_registration_leaves_nothing_behind() {
        let mut c = epoch_cluster(2);
        let user = c.register_user("u0").unwrap();
        let table = paper_table1();
        c.log_records(&user, &table[..3]).unwrap();

        fail_standing_evaluations(&c);
        assert!(c.register_standing("protocol = 'UDP'").is_err());
        let refused = format!("query={}", StandingQueryId(0));
        let forget = c.meta_audit().records().last().unwrap();
        assert_eq!(
            (forget.action.as_str(), &forget.detail),
            ("standing-forget", &refused)
        );
        let after = c.meta_audit().records().len();
        c.clear_adversary();
        c.log_records(&user, &table[3..5]).unwrap();
        assert_eq!(
            c.trail().sealed_epochs().count(),
            2,
            "a later seal happened"
        );
        let later = &c.meta_audit().records()[after..];
        assert!(
            !(later.iter()).any(|r| r.action == "standing-delta" && r.detail.contains(&refused)),
            "a refused registration is never evaluated again"
        );
        assert_eq!(c.standing_matches(StandingQueryId(0)), None);
    }
}

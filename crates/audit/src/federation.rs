//! Hierarchical DLA federation: sub-rings under a root accumulator
//! ring.
//!
//! One ring of `n` TTP nodes absorbs every application node's deposits,
//! so ingest throughput is flat no matter how many DLA nodes exist. A
//! [`FederatedCluster`] scales ingest by partitioning application users
//! across `R` **sub-rings** by a stable user-id hash
//! ([`FederatedCluster::home_ring`]); each sub-ring is a full
//! [`DlaCluster`] — its own epoch trail, `CheckpointChain` and
//! meta-journal, drawing glsns from a disjoint span of the global
//! sequence ([`RingNamespace`]) so any glsn maps back to its owning
//! ring without coordination.
//!
//! Above the sub-rings sits the **root ring**: one representative node
//! per sub-ring plus a root collector, connected by their own
//! simulated transport. When a sub-ring seals an epoch, its
//! representative publishes the [`RingCheckpoint`] to the collector,
//! which folds it into a **global §4.1 accumulator** — the same
//! one-way-accumulator primitive the sub-rings apply to deposits,
//! applied recursively one level up. The *next* ring cross-publishes a
//! [`RingEndorsement`] pinned to its own chain head, so no single ring
//! can rewrite its history: a rewrite would have to recall
//! endorsements held by every other ring **and** invert the root fold.
//! The root's history is one I/O-free ledger (`ledger::RootLedger`,
//! DESIGN §15): the collector archives a publication, an endorsement
//! or a standing delta only when the sending ring's own chain and log
//! stand behind it, by the same rule [`FederatedCluster::check_root`]
//! re-checks.
//!
//! Federated queries reuse the existing machinery recursively:
//!
//! * **SSI/union relay** ([`FederatedCluster::query`]): the CNF query
//!   is routed to only the rings whose partition can match (equality
//!   literals on the partition attribute pin a clause to the named
//!   users' home rings — the same conservative-extraction shape as
//!   `plan::extract_time_window`), each target ring runs its ordinary
//!   distributed pipeline, and the per-ring answers union.
//! * **count/sum** ([`FederatedCluster::count`],
//!   [`FederatedCluster::sum`]): each routed ring computes its partial
//!   with the in-ring protocols, then the partials combine via the
//!   existing §3.5 secure-sum **over the root ring** — the collector
//!   learns only the federation-wide aggregate, not which ring
//!   contributed what.
//!
//! Federated integrity checking lives in [`crate::integrity`]
//! (`check_federated_trail` / `check_federated_window`): a sub-ring
//! window verifies against both its local chain and the root
//! accumulator cross-check ([`FederatedCluster::check_root`]).
//!
//! Answers are compared across topologies by **record identity**, not
//! glsn: the federation assigns every deposited record a global index
//! in deposit order, and [`FederatedQueryResult::answer_digest`]
//! hashes the sorted indices — byte-identical between a federated run,
//! a single-ring run, and the centralized reference.

mod ledger;

use crate::aggregate;
use crate::cluster::{AppUser, ClusterConfig, DlaCluster};
use crate::randomness;
use crate::standing::StandingQueryId;
use crate::AuditError;
use dla_bigint::F61;
use dla_crypto::accumulator::{RingCheckpoint, RingEndorsement};
use dla_crypto::sha256;
use dla_logstore::epoch::{EpochId, RingNamespace};
use dla_logstore::fragment::Partition;
use dla_logstore::model::{AttrName, AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_mpc::SumSession;
use dla_net::latency::LatencyModel;
use dla_net::wire::{Reader, Writer};
use dla_net::{AdversaryNet, NetConfig, NodeId, Session, SharedNet, SimNet};
use ledger::{RingDelta, RootLedger};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Wire tag of a sub-ring checkpoint publication on the root ring.
pub const FED_PUBLISH_TAG: u8 = 0x60;
/// Wire tag of a cross-ring endorsement on the root ring.
pub const FED_ENDORSE_TAG: u8 = 0x61;
/// Wire tag of a standing-query delta relayed to the root collector.
pub const FED_DELTA_TAG: u8 = 0x62;

/// Configuration of a [`FederatedCluster`].
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Number of sub-rings.
    pub rings: usize,
    /// DLA nodes per sub-ring.
    pub nodes_per_ring: usize,
    /// The attribute universe (shared by every ring).
    pub schema: Schema,
    /// Attribute-to-node assignment within each ring; defaults to
    /// round-robin.
    pub partition: Option<Partition>,
    /// Federation seed; each ring derives its own stream from it.
    pub seed: u64,
    /// Glsns per trail epoch within each ring.
    pub epoch_length: u64,
    /// Link latency model (sub-rings and root ring alike).
    pub latency: LatencyModel,
    /// User capacity per ring.
    pub max_users_per_ring: usize,
    /// The attribute whose hashed value assigns users to rings.
    pub partition_attr: AttrName,
}

impl FederationConfig {
    /// A federation of `rings` sub-rings of `nodes_per_ring` DLA nodes
    /// each, over `schema`, partitioned by the `id` attribute.
    #[must_use]
    pub fn new(rings: usize, nodes_per_ring: usize, schema: Schema) -> Self {
        FederationConfig {
            rings,
            nodes_per_ring,
            schema,
            partition: None,
            seed: 0,
            epoch_length: 1024,
            latency: LatencyModel::Zero,
            max_users_per_ring: 8,
            partition_attr: "id".into(),
        }
    }

    /// Sets the federation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit per-ring partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Sets the per-ring epoch length.
    #[must_use]
    pub fn with_epoch_length(mut self, epoch_length: u64) -> Self {
        self.epoch_length = epoch_length;
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the per-ring user capacity.
    #[must_use]
    pub fn with_max_users(mut self, max_users: usize) -> Self {
        self.max_users_per_ring = max_users;
        self
    }
}

/// The root-ring cross-check verdict — see
/// [`FederatedCluster::check_root`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootVerdict {
    /// Re-folding every published checkpoint reproduces the root
    /// accumulator.
    pub fold_ok: bool,
    /// Every published checkpoint is still endorsed by its own ring's
    /// chain (no ring has rewritten a sealed epoch it published).
    pub chains_ok: bool,
    /// Every cross-ring endorsement verifies, is upheld by its
    /// endorser's chain, and matches the published record it covers.
    pub endorsements_ok: bool,
}

impl RootVerdict {
    /// Whether every cross-check passed.
    #[must_use]
    pub fn ok(self) -> bool {
        self.fold_ok && self.chains_ok && self.endorsements_ok
    }
}

/// The union answer of a federated query.
#[derive(Clone, Debug)]
pub struct FederatedQueryResult {
    /// Satisfying glsns across all queried rings, sorted ascending
    /// (globally unique thanks to [`RingNamespace`] spans).
    pub glsns: Vec<Glsn>,
    /// The satisfying records' global deposit indices, sorted — the
    /// topology-independent answer identity.
    pub records: Vec<u64>,
    /// Number of satisfying records.
    pub cardinality: usize,
    /// Rings the planner routed the query to.
    pub rings_queried: Vec<usize>,
}

impl FederatedQueryResult {
    /// A digest of the answer by record identity: SHA-256 over the
    /// sorted global indices, big-endian. Byte-identical across
    /// federated, single-ring and centralized evaluation of the same
    /// workload.
    #[must_use]
    pub fn answer_digest(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(8 * self.records.len());
        for index in &self.records {
            bytes.extend_from_slice(&index.to_be_bytes());
        }
        sha256::digest_parts(&[b"dla-federated-answer", &bytes])
    }
}

/// A federated confidential count.
#[derive(Clone, Debug)]
pub struct FederatedCount {
    /// The federation-wide count, reconstructed by the root collector
    /// from the secure sum of per-ring partials.
    pub count: u64,
    /// Rings that computed a (possibly zero) partial in-ring.
    pub rings_queried: Vec<usize>,
}

/// A federated confidential aggregate sum.
#[derive(Clone, Debug)]
pub struct FederatedSum {
    /// The federation-wide total, in the attribute's native unit.
    pub total: u64,
    /// Contributing records across all rings.
    pub count: usize,
    /// Rings that computed a partial in-ring.
    pub rings_queried: Vec<usize>,
}

/// One standing-query increment as archived by the root collector: a
/// sub-ring sealed an epoch, evaluated the subscribed query against
/// that epoch alone, and relayed the satisfying records upward —
/// identified by global deposit index, the topology-independent record
/// identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederatedStandingDelta {
    /// The federation-level subscription.
    pub query: StandingQueryId,
    /// The sub-ring whose seal produced this delta.
    pub ring: u64,
    /// The sealed epoch within that ring.
    pub epoch: EpochId,
    /// Satisfying global deposit indices, sorted ascending. Empty
    /// deltas are archived too.
    pub records: Vec<u64>,
}

/// A federation of DLA sub-rings under a root accumulator ring.
pub struct FederatedCluster {
    rings: Vec<DlaCluster>,
    /// Root-ring transport, behind its own wire tap: node `r` is ring
    /// `r`'s representative, node `rings.len()` the root collector.
    root_net: AdversaryNet<SharedNet>,
    root_rng: StdRng,
    /// The root's history: publications, deposit order, relayed deltas.
    ledger: RootLedger,
    /// Registered users; each one's ring is its [`FederatedCluster::home_ring`].
    users: BTreeMap<String, AppUser>,
    partition_attr: AttrName,
    schema: Schema,
}

impl FederatedCluster {
    /// Builds the federation: `config.rings` sub-rings, each a full
    /// [`DlaCluster`] on its own glsn span, plus the root ring's
    /// transport.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] for an empty federation or any
    /// per-ring construction failure.
    pub fn new(config: FederationConfig) -> Result<Self, AuditError> {
        if config.rings == 0 {
            return Err(AuditError::Config(
                "federation needs at least one ring".into(),
            ));
        }
        if config.rings as u64 > 1 << 16 {
            return Err(AuditError::Config(format!(
                "{} rings exceed the 16-bit ring-id space",
                config.rings
            )));
        }
        let rings = (0..config.rings)
            .map(|r| {
                let mut ring_config =
                    ClusterConfig::new(config.nodes_per_ring, config.schema.clone())
                        .with_seed(randomness::ring_seed(config.seed, r))
                        .with_epoch_length(config.epoch_length)
                        .with_latency(config.latency.clone())
                        .with_max_users(config.max_users_per_ring)
                        .with_glsn_base(RingNamespace::paper_default().base_of(r as u64));
                if let Some(partition) = &config.partition {
                    ring_config = ring_config.with_partition(partition.clone());
                }
                DlaCluster::new(ring_config)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let root_net = AdversaryNet::new(SharedNet::new(SimNet::new(
            config.rings + 1,
            NetConfig::ideal()
                .with_latency(config.latency.clone())
                .with_seed(randomness::root_net_seed(config.seed)),
        )));
        Ok(FederatedCluster {
            ledger: RootLedger::new(),
            rings,
            root_net,
            root_rng: StdRng::seed_from_u64(randomness::root_rng_seed(config.seed)),
            users: BTreeMap::new(),
            partition_attr: config.partition_attr,
            schema: config.schema,
        })
    }

    /// Number of sub-rings.
    #[must_use]
    pub fn num_rings(&self) -> usize {
        self.rings.len()
    }

    /// The sub-ring clusters.
    #[must_use]
    pub fn rings(&self) -> &[DlaCluster] {
        &self.rings
    }

    /// Sub-ring `ring`.
    #[must_use]
    pub fn ring(&self, ring: usize) -> &DlaCluster {
        &self.rings[ring]
    }

    /// The root collector's node id on the root ring.
    #[must_use]
    pub fn root_node(&self) -> NodeId {
        NodeId(self.rings.len())
    }

    /// The stable home ring of user `name`: the first 8 bytes of a
    /// domain-separated SHA-256 of the name, mod the ring count. Pure,
    /// so every party (router, planner, verifier) agrees without
    /// coordination.
    #[must_use]
    pub fn home_ring(&self, name: &str) -> usize {
        let word = randomness::digest_u64(&[b"dla-federation-user", name.as_bytes()]);
        (word % self.rings.len() as u64) as usize
    }

    /// Registers `name` in its home ring and returns the ring index.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] if the name is already registered
    /// or the home ring's user capacity is exhausted.
    pub fn register_user(&mut self, name: &str) -> Result<usize, AuditError> {
        if self.users.contains_key(name) {
            return Err(AuditError::Config(format!(
                "user {name} is already registered"
            )));
        }
        let ring = self.home_ring(name);
        let user = self.rings[ring].register_user(name)?;
        self.users.insert(name.to_string(), user);
        Ok(ring)
    }

    /// Deposits `records` for registered user `name` into the user's
    /// home ring, assigning each record its global deposit index.
    ///
    /// The router's contract is that a record's partition attribute
    /// carries the depositing user's id — that is what makes
    /// equality-literal ring routing sound — so a record naming a
    /// *different* id is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] for an unregistered user,
    /// [`AuditError::Log`] for a record violating the routing contract
    /// or any in-ring logging failure.
    pub fn log_records(
        &mut self,
        name: &str,
        records: &[LogRecord],
    ) -> Result<Vec<Glsn>, AuditError> {
        let user = self
            .users
            .get(name)
            .ok_or_else(|| AuditError::Config(format!("user {name} is not registered")))?;
        for record in records {
            if let Some(AttrValue::Text(id)) = record.get(&self.partition_attr) {
                if id != name {
                    return Err(AuditError::Log(format!(
                        "record claims {}='{id}' but is deposited by user {name} \
                         (federated routing requires them to agree)",
                        self.partition_attr
                    )));
                }
            }
        }
        let ring = self.home_ring(name);
        let last = self.rings[ring].trail().logged_above(None).next_back();
        let logged = self.rings[ring].log_records(user, records);
        // What the batch committed is indexed even when the call fails
        // after the commit (a seal's standing delta), or the owed delta
        // that names those records could never relay.
        self.ledger
            .index(self.rings[ring].trail().logged_above(last));
        let glsns = logged?;
        // Push-at-seal: any epoch this deposit just sealed reaches the
        // root fold immediately — the root accumulator never waits for
        // a driver to poll `publish_checkpoints`. Standing deltas the
        // seal emitted ride up on the same trigger.
        self.publish_ring(ring)?;
        self.relay_standing_ring(ring)?;
        Ok(glsns)
    }

    /// The one leg to the root collector: ring `from`'s representative
    /// ships `body` under `tag`, and the collector decodes what arrives,
    /// refusing a frame corrupted in flight, of another kind, or that
    /// does not decode.
    fn to_collector<T>(
        &self,
        from: usize,
        tag: u8,
        body: &[u8],
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<T, AuditError> {
        let (wire, root) = (Session::root(&self.root_net), self.root_node());
        let mut w = Writer::new();
        w.put_u8(tag).put_bytes(body);
        wire.send(NodeId(from), root, w.finish());
        let envelope = wire.recv_from(root, NodeId(from))?;
        let mut r = Reader::open(&envelope.payload, tag)?;
        let decoded = decode(r.get_bytes()?);
        r.finish()?;
        decoded.ok_or_else(|| {
            AuditError::Integrity(format!("malformed frame {tag:#04x} from ring {from}"))
        })
    }

    /// Publishes `ring`'s not-yet-published sealed checkpoints: its
    /// representative ships each to the collector, the *next* ring
    /// ships an endorsement pinned to its own chain head, and the
    /// collector folds and archives the pair once the root ledger
    /// admits it. Returns how many were published. Called from the seal
    /// path ([`FederatedCluster::log_records`]).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on root-ring transport failure or a
    /// publication or endorsement the rings' chains do not stand behind;
    /// nothing of it is archived, and the next call ships it again.
    pub fn publish_ring(&mut self, ring: usize) -> Result<usize, AuditError> {
        let mut newly_published = 0usize;
        while let Some(record) = self.ledger.next_publication(&self.rings, ring) {
            // Representative → collector: the publication.
            let body = record.encode();
            let presented =
                self.to_collector(ring, FED_PUBLISH_TAG, &body, RingCheckpoint::decode)?;
            // Cross-publication: the next ring endorses the checkpoint
            // against its own chain head and ships the record.
            let endorser = (ring + 1) % self.rings.len();
            let chain = self.rings[endorser].checkpoint_chain();
            let body = chain.endorse_foreign(endorser as u64, record).encode();
            let endorsement =
                self.to_collector(endorser, FED_ENDORSE_TAG, &body, RingEndorsement::decode)?;
            // The collector archives the pair only if the chains stand
            // behind it, then folds it into the global accumulator.
            self.ledger
                .admit_publish(&self.rings, ring, (&presented, &endorsement))?;
            self.ledger.publish(presented, endorsement);
            newly_published += 1;
        }
        Ok(newly_published)
    }

    /// Catch-up sweep: publishes every not-yet-published sealed
    /// checkpoint and relays every owed standing delta across all
    /// rings. With the seal path pushing, this normally finds nothing —
    /// it is the recovery path after a root-ring leg failed or was
    /// refused. Returns how many checkpoints the sweep published.
    ///
    /// # Errors
    ///
    /// As [`FederatedCluster::publish_ring`].
    pub fn publish_checkpoints(&mut self) -> Result<usize, AuditError> {
        let mut newly_published = 0usize;
        for ring in 0..self.rings.len() {
            newly_published += self.publish_ring(ring)?;
            self.relay_standing_ring(ring)?;
        }
        Ok(newly_published)
    }

    /// Registers a standing query federation-wide: the criteria are
    /// registered in **every** sub-ring (each validates, catches up
    /// over its already-sealed epochs, and will evaluate every future
    /// seal), and the catch-up deltas are relayed to the root collector
    /// immediately. From then on each sub-ring seal pushes its delta up
    /// through the root ring with no driver poll.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Parse`]/[`AuditError::Planning`] if any
    /// ring rejects the criteria, or any catch-up or relay failure; the
    /// registration is then forgotten in every ring and at the
    /// collector.
    pub fn register_standing(&mut self, criteria: &str) -> Result<StandingQueryId, AuditError> {
        let mut ring_ids = Vec::with_capacity(self.rings.len());
        let registered = (self.rings.iter_mut())
            .try_for_each(|ring| ring.register_standing(criteria).map(|id| ring_ids.push(id)));
        // The id is taken only once every ring has registered.
        let relayed = registered.and_then(|()| {
            let id = self.ledger.subscribe(ring_ids.clone());
            let relay = (0..self.rings.len()).try_for_each(|ring| self.relay_standing_ring(ring));
            relay.map(|()| id).inspect_err(|_| self.ledger.forget(id))
        });
        if relayed.is_err() {
            for (ring, &ring_id) in self.rings.iter_mut().zip(&ring_ids) {
                ring.forget_standing(ring_id);
            }
        }
        relayed
    }

    /// Relays the standing deltas `ring` owes the collector
    /// ([`FED_DELTA_TAG`]); the collector archives each once the root
    /// ledger admits it as the next entry of the ring's own log. What is
    /// owed is counted from the archive, so a relay that fails or is
    /// refused resumes where it stopped.
    fn relay_standing_ring(&mut self, ring: usize) -> Result<(), AuditError> {
        while let Some(owed) = self.ledger.owed(&self.rings, ring) {
            let presented =
                self.to_collector(ring, FED_DELTA_TAG, &owed.encode(), RingDelta::decode)?;
            let delta = self.ledger.admit_relay(&self.rings, ring, &presented)?;
            self.ledger.relay(delta);
        }
        Ok(())
    }

    /// Which rings `criteria` can match: every ring, unless a CNF
    /// conjunct pins the partition attribute. A clause contributes a
    /// restriction only when **every** literal is
    /// `partition_attr = 'name'` (then the clause can only match those
    /// users' home rings — union within the clause); restrictions
    /// intersect across conjuncts. Conservative in exactly the way
    /// `plan::extract_time_window` is: a clause the analysis cannot
    /// bound restricts nothing.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Parse`] if the criteria do not parse or
    /// type-check against the federation schema.
    pub fn route(&self, criteria: &str) -> Result<BTreeSet<usize>, AuditError> {
        let normalized = crate::plan::compile(criteria, &self.schema)?;
        let mut candidate: BTreeSet<usize> = (0..self.rings.len()).collect();
        for clause in normalized.clauses() {
            let mut clause_rings = BTreeSet::new();
            let mut covered = !clause.literals().is_empty();
            for literal in clause.literals() {
                match (&literal.op, &literal.rhs) {
                    (
                        crate::query::CmpOp::Eq,
                        crate::query::Operand::Const(AttrValue::Text(name)),
                    ) if literal.lhs == self.partition_attr => {
                        clause_rings.insert(self.home_ring(name));
                    }
                    _ => {
                        covered = false;
                        break;
                    }
                }
            }
            if covered {
                candidate = candidate.intersection(&clause_rings).copied().collect();
            }
        }
        Ok(candidate)
    }

    /// The routed-union body shared by [`FederatedCluster::query`] and
    /// [`FederatedCluster::query_resilient`]: route, run `in_ring` on
    /// each target ring, union the per-ring glsns into one sorted
    /// result.
    fn routed_union(
        &mut self,
        criteria: &str,
        mut in_ring: impl FnMut(&mut DlaCluster) -> Result<Vec<Glsn>, AuditError>,
    ) -> Result<FederatedQueryResult, AuditError> {
        let targets = self.route(criteria)?;
        let mut glsns: Vec<Glsn> = Vec::new();
        for &ring in &targets {
            glsns.extend(in_ring(&mut self.rings[ring])?);
        }
        glsns.sort_unstable();
        let records = self.ledger.identify(&glsns)?;
        Ok(FederatedQueryResult {
            cardinality: glsns.len(),
            glsns,
            records,
            rings_queried: targets.into_iter().collect(),
        })
    }

    /// Runs `criteria` across the federation: the planner routes the
    /// query to only the rings whose partition can match
    /// ([`FederatedCluster::route`]), each target ring runs its
    /// ordinary distributed SSI/union pipeline, and the per-ring
    /// answers union into one sorted result.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on parse/plan/protocol failure in any
    /// target ring.
    pub fn query(&mut self, criteria: &str) -> Result<FederatedQueryResult, AuditError> {
        self.routed_union(criteria, |ring| Ok(ring.query(criteria)?.glsns))
    }

    /// As [`FederatedCluster::query`], but every routed ring executes
    /// under the retransmission/health machinery of
    /// [`crate::exec::execute_resilient`] — the federated path for
    /// lossy or adversarial transports. Answers are identical to the
    /// plain path whenever both complete.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] when any target ring exhausts its retry
    /// budget or fails to parse/plan the criteria.
    pub fn query_resilient(
        &mut self,
        criteria: &str,
        policy: &crate::exec::ResilientPolicy,
    ) -> Result<FederatedQueryResult, AuditError> {
        self.routed_union(criteria, |ring| {
            Ok(ring.query_resilient(criteria, policy)?.result.glsns)
        })
    }

    /// Counts records satisfying `criteria` across the federation
    /// without revealing which. Routed rings compute their partial with
    /// the in-ring no-reveal pipeline; the partials then combine via
    /// the §3.5 secure sum **over the root ring** (every
    /// representative contributes — non-routed rings contribute zero —
    /// and the collector reconstructs only the total).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on any in-ring failure or a root-ring
    /// secure-sum failure.
    pub fn count(&mut self, criteria: &str) -> Result<FederatedCount, AuditError> {
        let targets = self.route(criteria)?;
        let mut partials = vec![0u64; self.rings.len()];
        for &ring in &targets {
            partials[ring] =
                aggregate::count_matching(&mut self.rings[ring], criteria)?.count as u64;
        }
        let total = self.root_combine(&partials)?;
        Ok(FederatedCount {
            count: total,
            rings_queried: targets.into_iter().collect(),
        })
    }

    /// Sums `attr` over all records satisfying `criteria` across the
    /// federation: in-ring [`aggregate::sum_matching`] partials (each
    /// already a secure sum within its ring), combined via the root
    /// ring's secure sum.
    ///
    /// # Errors
    ///
    /// As [`FederatedCluster::count`], plus the in-ring numeric-
    /// attribute restrictions of [`aggregate::sum_matching`].
    pub fn sum(&mut self, criteria: &str, attr: &AttrName) -> Result<FederatedSum, AuditError> {
        let targets = self.route(criteria)?;
        let mut partials = vec![0u64; self.rings.len()];
        let mut count = 0usize;
        for &ring in &targets {
            let outcome = aggregate::sum_matching(&mut self.rings[ring], criteria, attr)?;
            partials[ring] = outcome.total;
            count += outcome.count;
        }
        let total = self.root_combine(&partials)?;
        Ok(FederatedSum {
            total,
            count,
            rings_queried: targets.into_iter().collect(),
        })
    }

    /// Combines per-ring partials with the existing secure-sum protocol
    /// over the root ring: parties are the ring representatives,
    /// collector is the root node.
    fn root_combine(&mut self, partials: &[u64]) -> Result<u64, AuditError> {
        let parties: Vec<NodeId> = (0..self.rings.len()).map(NodeId).collect();
        let inputs: Vec<F61> = partials.iter().map(|&p| F61::new(p)).collect();
        let k = (self.rings.len() / 2 + 1).min(self.rings.len());
        let collector = self.root_node();
        let outcome = SumSession::new(Session::root(&self.root_net), &parties, k, collector)
            .run(&inputs, &mut self.root_rng)?;
        Ok(outcome.total.value())
    }

    /// The federation's bandwidth-bound ingest makespan in virtual
    /// nanoseconds. A sub-ring's transport is one shared pipe: draining
    /// its deposit traffic costs its serialization time (the LAN
    /// profile's 125 bytes/µs) plus a fixed per-message handling
    /// overhead. Rings drain in parallel, so the federation is done
    /// when its busiest ring is — the max over per-ring drain times.
    /// (The propagation clocks of [`SimNet::makespan`] measure *delay*,
    /// which is deposit-count-independent for one-way traffic; ingest
    /// throughput is pipe-bound, which is what this models.)
    #[must_use]
    pub fn ingest_makespan_ns(&self) -> u64 {
        const BYTES_PER_US: u64 = 125;
        const PER_MESSAGE_NS: u64 = 2_000;
        self.rings
            .iter()
            .map(|ring| {
                let net = ring.net();
                let stats = net.stats();
                stats.bytes_sent * 1_000 / BYTES_PER_US + stats.messages_sent * PER_MESSAGE_NS
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity;
    use dla_logstore::gen::{self, paper_table1};

    /// Builds an `rings`-ring federation loaded with the paper's Table
    /// 1, each record deposited by the user its `id` names, in table
    /// order (so global record indices agree across topologies).
    fn seeded_federation(rings: usize, seed: u64) -> FederatedCluster {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut fed = FederatedCluster::new(
            FederationConfig::new(rings, 4, schema)
                .with_partition(partition)
                .with_seed(seed)
                .with_epoch_length(2)
                .with_latency(LatencyModel::lan()),
        )
        .unwrap();
        let records = paper_table1();
        let mut seen = BTreeSet::new();
        for record in &records {
            let Some(AttrValue::Text(id)) = record.get(&"id".into()) else {
                panic!("table 1 records carry an id");
            };
            if seen.insert(id.clone()) {
                fed.register_user(id).unwrap();
            }
        }
        for record in &records {
            let Some(AttrValue::Text(id)) = record.get(&"id".into()) else {
                unreachable!();
            };
            fed.log_records(id, std::slice::from_ref(record)).unwrap();
        }
        fed
    }

    /// Builds an `rings`-ring federation loaded with a synthetic
    /// many-user workload (same stream regardless of ring count, so
    /// global record indices agree across topologies). More users than
    /// Table 1's three means the id hash actually spreads deposits
    /// over the rings, and enough records per ring seal epochs at
    /// epoch length 2.
    fn synthetic_federation(
        rings: usize,
        seed: u64,
        users: usize,
        records: usize,
    ) -> FederatedCluster {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut fed = FederatedCluster::new(
            FederationConfig::new(rings, 4, schema)
                .with_partition(partition)
                .with_seed(seed)
                .with_epoch_length(2)
                .with_latency(LatencyModel::lan())
                .with_max_users(users),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let workload = gen::generate(
            &gen::WorkloadConfig {
                records,
                users,
                ..gen::WorkloadConfig::default()
            },
            &mut rng,
        );
        for u in 1..=users {
            fed.register_user(&format!("U{u}")).unwrap();
        }
        for record in &workload {
            let Some(AttrValue::Text(id)) = record.get(&"id".into()) else {
                unreachable!("generated records carry an id");
            };
            fed.log_records(id, std::slice::from_ref(record)).unwrap();
        }
        fed
    }

    #[test]
    fn routing_pins_equality_clauses_conservatively() {
        let fed = seeded_federation(4, 11);
        let all: BTreeSet<usize> = (0..4).collect();
        // A non-partition predicate restricts nothing.
        assert_eq!(fed.route("c1 > 30").unwrap(), all);
        // A pinned conjunct restricts to the named user's home ring.
        let u1 = fed.home_ring("U1");
        assert_eq!(
            fed.route("id = 'U1'").unwrap(),
            [u1].into_iter().collect::<BTreeSet<_>>()
        );
        // Union within a clause of pinned literals.
        let mut u12: BTreeSet<usize> = BTreeSet::new();
        u12.insert(u1);
        u12.insert(fed.home_ring("U2"));
        assert_eq!(fed.route("id = 'U1' OR id = 'U2'").unwrap(), u12);
        // A clause mixing in an unpinnable literal restricts nothing.
        assert_eq!(fed.route("id = 'U1' OR c1 > 5").unwrap(), all);
        // Conjuncts intersect: both pins must hold.
        let conjunct = fed.route("id = 'U1' AND id = 'U2'").unwrap();
        assert_eq!(
            conjunct,
            u12.iter()
                .copied()
                .filter(|r| *r == u1 && *r == fed.home_ring("U2"))
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn federated_answers_match_single_ring_by_record_identity() {
        let mut one = seeded_federation(1, 21);
        let mut four = seeded_federation(4, 22);
        for criteria in [
            "protocol = 'UDP'",
            "id = 'U1'",
            "c1 > 30 AND id = 'U1' AND protocol = 'TCP'",
            "c1 > 40 OR id = 'U2'",
        ] {
            let a = one.query(criteria).unwrap();
            let b = four.query(criteria).unwrap();
            assert_eq!(a.records, b.records, "criteria {criteria}");
            assert_eq!(a.answer_digest(), b.answer_digest(), "criteria {criteria}");
            assert_eq!(a.cardinality, b.cardinality);
        }
        // The routed query touches fewer rings than the broadcast one.
        let routed = four.query("id = 'U1'").unwrap();
        assert_eq!(routed.rings_queried.len(), 1);
        let broad = four.query("protocol = 'UDP'").unwrap();
        assert_eq!(broad.rings_queried.len(), 4);
    }

    #[test]
    fn federated_aggregates_combine_over_the_root_ring() {
        let mut one = seeded_federation(1, 31);
        let mut four = seeded_federation(4, 32);
        let count_one = one.count("protocol = 'UDP'").unwrap();
        let count_four = four.count("protocol = 'UDP'").unwrap();
        assert_eq!(count_one.count, 3, "table 1 has three UDP records");
        assert_eq!(count_four.count, 3);
        // Total UDP volume: 23.45 + 345.11 + 235.00 in hundredths.
        let sum_one = one.sum("protocol = 'UDP'", &"c2".into()).unwrap();
        let sum_four = four.sum("protocol = 'UDP'", &"c2".into()).unwrap();
        assert_eq!(sum_one.total, 2345 + 34511 + 23500);
        assert_eq!(sum_four.total, sum_one.total);
        assert_eq!(sum_four.count, sum_one.count);
    }

    #[test]
    fn root_accumulator_cross_check_detects_a_tampered_checkpoint() {
        let mut fed = synthetic_federation(3, 41, 12, 36);
        // The seal path already pushed every sealed checkpoint, so the
        // catch-up sweep finds nothing new.
        assert_eq!(fed.publish_checkpoints().unwrap(), 0);
        let published = fed.published().len();
        assert!(published > 0, "epoch length 2 must seal something");
        assert_eq!(fed.endorsements().len(), published);
        assert!(fed.check_root().ok());
        assert!(fed.verify_presented(fed.published()));

        // A sub-ring presenting a rewritten checkpoint digest fails the
        // root accumulator cross-check...
        let mut tampered = fed.published().to_vec();
        tampered[0].checkpoint.items += 1;
        assert!(!fed.verify_presented(&tampered));
        // ...as does withholding a publication.
        assert!(!fed.verify_presented(&fed.published()[1..]));
        // A mere reordering still refolds to the same root — the §4.1
        // accumulator is quasi-commutative, so presentation order is
        // irrelevant by design; per-record binding comes from the
        // endorsement cross-check, not the fold.
        if published >= 2 {
            let mut reordered = fed.published().to_vec();
            reordered.swap(0, 1);
            assert!(fed.verify_presented(&reordered));
        }
    }

    #[test]
    fn federated_integrity_verdicts_cover_local_and_root_legs() {
        let mut fed = seeded_federation(2, 51);
        fed.publish_checkpoints().unwrap();
        for ring in 0..fed.num_rings() {
            let verdict = integrity::check_federated_trail(&fed, ring);
            assert!(verdict.ok(), "ring {ring}: {verdict:?}");
            let windowed = integrity::check_federated_window(
                &fed,
                ring,
                &crate::plan::TimeWindow::unbounded(),
            );
            assert!(windowed.ok(), "ring {ring}: {windowed:?}");
        }
    }

    #[test]
    fn routing_contract_rejects_mismatched_ids_and_unknown_users() {
        let mut fed = seeded_federation(2, 61);
        let records = paper_table1();
        // Record 0 names U1; depositing it as U2 violates the contract.
        assert!(matches!(
            fed.log_records("U2", std::slice::from_ref(&records[0])),
            Err(AuditError::Log(_))
        ));
        assert!(matches!(
            fed.log_records("nobody", &records[..1]),
            Err(AuditError::Config(_))
        ));
        assert!(matches!(
            fed.register_user("U1"),
            Err(AuditError::Config(_))
        ));
    }

    #[test]
    fn seals_reach_the_root_fold_without_a_driver_poll() {
        let fed = synthetic_federation(3, 81, 12, 36);
        // No publish_checkpoints() call anywhere above: the deposits
        // that sealed epochs pushed their checkpoints themselves.
        assert!(
            !fed.published().is_empty(),
            "sealed checkpoints must reach the root with no driver poll"
        );
        assert_eq!(fed.published().len(), fed.endorsements().len());
        assert!(fed.check_root().ok());
        // Every ring's full chain is already published.
        for (ring, cluster) in fed.rings().iter().enumerate() {
            assert_eq!(
                fed.published()
                    .iter()
                    .filter(|p| p.ring as usize == ring)
                    .count(),
                cluster.checkpoint_chain().len(),
                "ring {ring} has unpublished sealed epochs"
            );
        }
    }

    #[test]
    fn the_root_collector_refuses_a_garbled_publication_and_catches_up_after() {
        use dla_net::adversary::{ScriptedAdversary, Tamper, TamperRule};
        use dla_net::fault::FaultOutcome;
        // U1's next two deposits seal an epoch of its home ring, whose
        // representative then publishes the head on the root ring.
        let table = paper_table1();
        let by_u1 = [table[0].clone(), table[2].clone()];
        let seal_one_more = |fed: &mut FederatedCluster| fed.log_records("U1", &by_u1);
        let mut fed = seeded_federation(2, 61);
        let home = fed.home_ring("U1");

        // An intact frame of another kind in the publication's place.
        let mut foreign = Writer::new();
        foreign
            .put_u8(FED_ENDORSE_TAG)
            .put_bytes(b"not a publication");
        let swap = TamperRule::once_from(home, FED_PUBLISH_TAG, Tamper::Replace(foreign.finish()));
        let liar = ScriptedAdversary::new().compromise(home).rule(swap);
        fed.root_net.set_adversary(std::sync::Arc::new(liar));
        let err = seal_one_more(&mut fed).unwrap_err();
        assert!(matches!(err, AuditError::Wire(_)), "foreign tag gave {err}");
        fed.root_net.clear_adversary();
        assert_eq!(fed.publish_checkpoints().unwrap(), 1, "catch-up sweep");

        // A byte flipped on the line is refused under its own name.
        let root = fed.root_node().0;
        (fed.root_net.inner().lock().faults_mut()).inject_once(home, root, FaultOutcome::Corrupt);
        let err = seal_one_more(&mut fed).unwrap_err();
        assert!(
            matches!(err, AuditError::Net(dla_net::NetError::Corrupt(_))),
            "line fault gave {err}"
        );
        assert_eq!(fed.publish_checkpoints().unwrap(), 1, "catch-up sweep");
        assert!(fed.check_root().ok());
    }

    #[test]
    fn standing_deltas_relay_to_the_root_collector() {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let mut fed = FederatedCluster::new(
            FederationConfig::new(3, 4, schema)
                .with_partition(partition)
                .with_seed(91)
                .with_epoch_length(2)
                .with_max_users(12),
        )
        .unwrap();
        // Subscribe *before* any deposit: deltas must arrive purely
        // from the seal path.
        let early = fed.register_standing("protocol = 'UDP'").unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        let workload = gen::generate(
            &gen::WorkloadConfig {
                records: 36,
                users: 12,
                ..gen::WorkloadConfig::default()
            },
            &mut rng,
        );
        for u in 1..=12 {
            fed.register_user(&format!("U{u}")).unwrap();
        }
        for record in &workload {
            let Some(AttrValue::Text(id)) = record.get(&"id".into()) else {
                unreachable!("generated records carry an id");
            };
            fed.log_records(id, std::slice::from_ref(record)).unwrap();
        }
        let deltas = fed.standing_deltas(early);
        assert!(
            !deltas.is_empty(),
            "sealed epochs must have relayed deltas with no driver poll"
        );
        // A late subscriber converges on the same accumulated answer
        // via per-ring catch-up.
        let late = fed.register_standing("protocol = 'UDP'").unwrap();
        assert_ne!(early, late);
        assert_eq!(fed.standing_matches(early), fed.standing_matches(late));
        // The accumulated matches are a subset of the fresh federated
        // answer (standing covers sealed epochs only; the fresh query
        // also sees the open tail).
        let accumulated = fed.standing_matches(early).unwrap();
        let fresh: BTreeSet<u64> = fed
            .query("protocol = 'UDP'")
            .unwrap()
            .records
            .into_iter()
            .collect();
        assert!(!accumulated.is_empty(), "the workload contains UDP records");
        for index in &accumulated {
            assert!(
                fresh.contains(index),
                "delta record {index} not in fresh answer"
            );
        }
    }

    #[test]
    fn ingest_parallelism_shrinks_the_makespan() {
        let one = synthetic_federation(1, 71, 16, 48);
        let four = synthetic_federation(4, 71, 16, 48);
        assert_eq!(one.records_deposited(), four.records_deposited());
        assert!(one.ingest_makespan_ns() > 0);
        assert!(
            four.ingest_makespan_ns() < one.ingest_makespan_ns(),
            "4 rings ({} ns) should beat 1 ring ({} ns)",
            four.ingest_makespan_ns(),
            one.ingest_makespan_ns()
        );
    }

    /// Logs `count` copies of a Table 1 record of a user homed in
    /// `ring`; with epochs of 2, every other one seals an epoch.
    fn log_in_ring(
        fed: &mut FederatedCluster,
        ring: usize,
        count: usize,
    ) -> Result<(), AuditError> {
        for record in paper_table1() {
            let Some(AttrValue::Text(id)) = record.get(&"id".into()).cloned() else {
                unreachable!("table 1 records carry an id");
            };
            if fed.home_ring(&id) == ring {
                return fed.log_records(&id, &vec![record; count]).map(drop);
            }
        }
        unreachable!("table 1 has a user homed in every ring of two")
    }

    /// The global indices of the records in sealed epochs.
    fn sealed_records(fed: &FederatedCluster) -> Vec<u64> {
        let sealed = fed
            .rings()
            .iter()
            .flat_map(|ring| ring.trail().sealed_epochs());
        let glsns = sealed.flat_map(|s| (s.glsn_lo.0..=s.glsn_hi.0).map(Glsn));
        let records: BTreeSet<u64> = glsns.filter_map(|g| fed.deposit_index(g)).collect();
        records.into_iter().collect()
    }

    #[test]
    fn a_refused_federated_registration_is_forgotten_in_every_ring() {
        let mut fed = seeded_federation(2, 71);
        log_in_ring(&mut fed, 1, 2).unwrap();
        assert!(fed.ring(1).trail().sealed_epochs().count() > 0);

        // Ring 0 registers; ring 1's catch-up fails.
        crate::cluster::tests::fail_standing_evaluations(fed.ring(1));
        assert!(fed.register_standing("protocol = 'UDP'").is_err());
        fed.ring(1).clear_adversary();
        let after: Vec<usize> = (fed.rings().iter()).map(|r| r.meta_audit().len()).collect();
        for ring in 0..2 {
            log_in_ring(&mut fed, ring, 4).unwrap();
        }
        for (ring, from) in fed.rings().iter().zip(after) {
            let later = &ring.meta_audit().records()[from..];
            assert!(later.iter().any(|r| r.action == "epoch-seal"));
            assert!(
                !later.iter().any(|r| r.action == "standing-delta"),
                "a seal evaluated the refused query"
            );
        }
        assert_eq!(fed.standing_matches(StandingQueryId(0)), None);
        // Neither a refusal in a ring nor a parse error takes an id.
        assert!(fed.register_standing("protocol =").is_err());
        assert_eq!(
            fed.register_standing("protocol = 'UDP'").unwrap(),
            StandingQueryId(0)
        );
    }

    #[test]
    fn a_delta_that_fails_at_a_ring_seal_is_relayed_after_the_next_one() {
        let mut fed = seeded_federation(2, 79);
        let id = fed.register_standing("protocol = 'UDP'").unwrap();
        let ring = 1;
        let sealed_before = fed.ring(ring).trail().sealed_epochs().count();

        // The batch seals an epoch of matching records; its delta fails.
        crate::cluster::tests::fail_standing_evaluations(fed.ring(ring));
        assert!(log_in_ring(&mut fed, ring, 4).is_err());
        assert!(fed.ring(ring).trail().sealed_epochs().count() > sealed_before);
        fed.ring(ring).clear_adversary();
        log_in_ring(&mut fed, ring, 2).unwrap();
        fed.publish_checkpoints().unwrap();

        let fresh = fed.query("protocol = 'UDP'").unwrap().records;
        let sealed = sealed_records(&fed);
        let expected: Vec<u64> = fresh.into_iter().filter(|r| sealed.contains(r)).collect();
        assert!(!expected.is_empty());
        assert_eq!(fed.standing_matches(id), Some(expected));
    }

    #[test]
    fn a_relay_that_fails_part_way_loses_no_delta() {
        use dla_net::adversary::{ScriptedAdversary, Tamper, TamperRule};
        let mut fed = seeded_federation(2, 73);
        let id = fed.register_standing("protocol = 'UDP'").unwrap();
        let ring = 1;
        let told = fed.standing_deltas(id).len();

        // One batch seals two epochs; the second delta's frame arrives
        // truncated.
        let truncate = TamperRule {
            skip: 1,
            ..TamperRule::once_from(ring, FED_DELTA_TAG, Tamper::Truncate(9))
        };
        let liar = ScriptedAdversary::new().compromise(ring).rule(truncate);
        fed.root_net.set_adversary(std::sync::Arc::new(liar));
        let sealed_before = fed.ring(ring).trail().sealed_epochs().count();
        assert!(log_in_ring(&mut fed, ring, 4).is_err());
        assert_eq!(
            fed.ring(ring).trail().sealed_epochs().count(),
            sealed_before + 2
        );
        fed.root_net.clear_adversary();
        fed.publish_checkpoints().unwrap();

        let archive = fed.standing_deltas(id);
        assert_eq!(archive.len(), told + 2);
        let mut epochs: Vec<(u64, EpochId)> = archive.iter().map(|d| (d.ring, d.epoch)).collect();
        epochs.sort_unstable();
        epochs.dedup();
        assert_eq!(epochs.len(), archive.len(), "each epoch archived once");
        let fresh = fed.query("protocol = 'UDP'").unwrap().records;
        let sealed = sealed_records(&fed);
        let expected: Vec<u64> = fresh.into_iter().filter(|r| sealed.contains(r)).collect();
        assert_eq!(fed.standing_matches(id), Some(expected));
    }

    /// Installs `rule` on the root ring, with its sender compromised.
    fn root_liar(fed: &FederatedCluster, from: usize, rule: dla_net::adversary::TamperRule) {
        let liar = dla_net::adversary::ScriptedAdversary::new()
            .compromise(from)
            .rule(rule);
        fed.root_net.set_adversary(std::sync::Arc::new(liar));
    }

    /// Every sealed epoch of every ring, as (ring, epoch), sorted.
    fn sealed_epochs(fed: &FederatedCluster) -> Vec<(u64, EpochId)> {
        let rings = fed.rings().iter().enumerate();
        let sealed = rings.flat_map(|(r, ring)| ring.trail().sealed_epochs().map(move |s| (r, s)));
        sealed.map(|(r, s)| (r as u64, s.epoch)).collect()
    }

    #[test]
    fn a_replayed_endorsement_is_refused_and_the_sweep_publishes_the_true_one() {
        use dla_net::adversary::{Tamper, TamperRule};
        let table = paper_table1();
        let mut fed = seeded_federation(2, 61);
        let published = fed.published().len();
        assert!(published > 0);
        // U1's next two deposits seal an epoch of its home ring; the
        // next ring's endorsement of it is swapped for the first one
        // the collector ever archived, seal intact.
        let endorser = (fed.home_ring("U1") + 1) % 2;
        let mut replay = Writer::new();
        replay
            .put_u8(FED_ENDORSE_TAG)
            .put_bytes(&fed.endorsements()[0].encode());
        let swap =
            TamperRule::once_from(endorser, FED_ENDORSE_TAG, Tamper::Replace(replay.finish()));
        root_liar(&fed, endorser, swap);
        let err = fed.log_records("U1", &[table[0].clone(), table[2].clone()]);
        assert!(matches!(err, Err(AuditError::Integrity(_))), "{err:?}");
        assert_eq!(fed.published().len(), published, "nothing archived");
        fed.root_net.clear_adversary();
        assert!(fed.check_root().ok());
        assert_eq!(fed.publish_checkpoints().unwrap(), 1, "catch-up sweep");
        assert!(fed.check_root().ok());
        assert_eq!(fed.published().len(), fed.endorsements().len());
    }

    #[test]
    fn a_flipped_delta_glsn_is_refused_and_the_relay_resumes() {
        use dla_net::adversary::{Tamper, TamperRule};
        let mut fed = seeded_federation(2, 73);
        let id = fed.register_standing("protocol = 'UDP'").unwrap();
        // The batch seals two epochs of ring 1; the last byte of the
        // first delta's frame — the low byte of its last glsn — flips.
        let flip = Tamper::Flip {
            offset_from_end: 0,
            mask: 1,
        };
        root_liar(&fed, 1, TamperRule::once_from(1, FED_DELTA_TAG, flip));
        let err = log_in_ring(&mut fed, 1, 4);
        assert!(matches!(err, Err(AuditError::Integrity(_))), "{err:?}");
        fed.root_net.clear_adversary();
        fed.publish_checkpoints().unwrap();

        let fresh = fed.query("protocol = 'UDP'").unwrap().records;
        let sealed = sealed_records(&fed);
        let expected: Vec<u64> = fresh.into_iter().filter(|r| sealed.contains(r)).collect();
        assert_eq!(fed.standing_matches(id), Some(expected));
    }

    #[test]
    fn a_delta_frame_naming_another_ring_and_epoch_is_refused() {
        use dla_net::adversary::{ScriptedAdversary, Tamper, TamperRule};
        let mut fed = seeded_federation(2, 73);
        // Record ring 0's delta frames as the registration relays them.
        let watcher = std::sync::Arc::new(ScriptedAdversary::new().curious(0));
        fed.root_net.set_adversary(watcher.clone());
        let id = fed.register_standing("protocol = 'UDP'").unwrap();
        let ring0 = (watcher.captured().into_iter())
            .find(|m| m.from == NodeId(0) && m.payload.first() == Some(&FED_DELTA_TAG))
            .expect("ring 0 relays a delta on registration");
        // Ring 1 sends that well-formed frame in place of its own.
        let swap = TamperRule::once_from(1, FED_DELTA_TAG, Tamper::Replace(ring0.payload));
        root_liar(&fed, 1, swap);
        let err = log_in_ring(&mut fed, 1, 4);
        assert!(matches!(err, Err(AuditError::Integrity(_))), "{err:?}");
        fed.root_net.clear_adversary();
        fed.publish_checkpoints().unwrap();

        // Every sealed epoch is archived, and once.
        let deltas = fed.standing_deltas(id);
        let mut archived: Vec<(u64, EpochId)> = deltas.iter().map(|d| (d.ring, d.epoch)).collect();
        archived.sort_unstable();
        assert_eq!(archived, sealed_epochs(&fed));
    }
}

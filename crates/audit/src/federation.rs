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

use crate::aggregate;
use crate::cluster::{AppUser, ClusterConfig, DlaCluster};
use crate::standing::StandingQueryId;
use crate::AuditError;
use dla_bigint::{Ubig, F61};
use dla_crypto::accumulator::{AccumulatorParams, RingCheckpoint, RingEndorsement};
use dla_crypto::sha256;
use dla_logstore::epoch::{EpochId, RingNamespace};
use dla_logstore::fragment::Partition;
use dla_logstore::model::{AttrName, AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_mpc::SumSession;
use dla_net::latency::LatencyModel;
use dla_net::wire::Writer;
use dla_net::{Envelope, NetConfig, NodeId, Session, SharedNet, SimNet};
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

/// A registered federated user: which ring is home, and the in-ring
/// registration.
#[derive(Debug)]
struct FederatedUser {
    ring: usize,
    user: AppUser,
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

/// One federation-level standing subscription: the same criteria
/// registered in every sub-ring, plus the collector's archive of
/// relayed deltas.
struct FederatedStanding {
    /// Per-ring registration ids, indexed by ring.
    ring_ids: Vec<StandingQueryId>,
    /// Deltas in relay order.
    archive: Vec<FederatedStandingDelta>,
}

/// A federation of DLA sub-rings under a root accumulator ring.
pub struct FederatedCluster {
    rings: Vec<DlaCluster>,
    /// Root-ring transport: node `r` is ring `r`'s representative,
    /// node `rings.len()` the root collector.
    root_net: SharedNet,
    root_rng: StdRng,
    acc_params: AccumulatorParams,
    /// The global accumulator over published sub-ring checkpoints.
    root_acc: Ubig,
    /// Publications in fold order.
    published: Vec<RingCheckpoint>,
    /// Cross-ring endorsements, parallel to `published`.
    endorsements: Vec<RingEndorsement>,
    /// Sealed checkpoints already published, per ring.
    published_per_ring: Vec<usize>,
    users: BTreeMap<String, FederatedUser>,
    /// Federation-level standing subscriptions.
    standing: BTreeMap<StandingQueryId, FederatedStanding>,
    next_standing: u64,
    /// Global record identity: glsn → deposit index, in deposit order.
    record_index: BTreeMap<Glsn, u64>,
    next_record: u64,
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
                let mut seed_state = config.seed ^ (r as u64 + 1);
                let ring_seed = rand::splitmix64(&mut seed_state);
                let mut ring_config =
                    ClusterConfig::new(config.nodes_per_ring, config.schema.clone())
                        .with_seed(ring_seed)
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
        let mut root_seed_state = config.seed ^ 0xfed0_0001;
        let root_seed = rand::splitmix64(&mut root_seed_state);
        let root_net = SharedNet::new(SimNet::new(
            config.rings + 1,
            NetConfig::ideal()
                .with_latency(config.latency.clone())
                .with_seed(root_seed),
        ));
        let acc_params = AccumulatorParams::fixed_512();
        let root_acc = acc_params.start().clone();
        Ok(FederatedCluster {
            published_per_ring: vec![0; rings.len()],
            rings,
            root_net,
            root_rng: StdRng::seed_from_u64(root_seed ^ 0x5eed),
            acc_params,
            root_acc,
            published: Vec::new(),
            endorsements: Vec::new(),
            users: BTreeMap::new(),
            standing: BTreeMap::new(),
            next_standing: 0,
            record_index: BTreeMap::new(),
            next_record: 0,
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

    /// Mutable access to sub-ring `ring`.
    pub fn ring_mut(&mut self, ring: usize) -> &mut DlaCluster {
        &mut self.rings[ring]
    }

    /// The root collector's node id on the root ring.
    #[must_use]
    pub fn root_node(&self) -> NodeId {
        NodeId(self.rings.len())
    }

    /// The global accumulator over published sub-ring checkpoints.
    #[must_use]
    pub fn root_accumulator(&self) -> &Ubig {
        &self.root_acc
    }

    /// Publications in fold order.
    #[must_use]
    pub fn published(&self) -> &[RingCheckpoint] {
        &self.published
    }

    /// Cross-ring endorsements, parallel to [`FederatedCluster::published`].
    #[must_use]
    pub fn endorsements(&self) -> &[RingEndorsement] {
        &self.endorsements
    }

    /// The stable home ring of user `name`: the first 8 bytes of a
    /// domain-separated SHA-256 of the name, mod the ring count. Pure,
    /// so every party (router, planner, verifier) agrees without
    /// coordination.
    #[must_use]
    pub fn home_ring(&self, name: &str) -> usize {
        let h = sha256::digest_parts(&[b"dla-federation-user", name.as_bytes()]);
        let word = u64::from_be_bytes(h[..8].try_into().expect("sha256 is 32 bytes"));
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
        self.users
            .insert(name.to_string(), FederatedUser { ring, user });
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
        let federated = self
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
        let ring = federated.ring;
        let glsns = self.rings[ring].log_records(&federated.user, records)?;
        for &glsn in &glsns {
            self.record_index.insert(glsn, self.next_record);
            self.next_record += 1;
        }
        // Push-at-seal: any epoch this deposit just sealed reaches the
        // root fold immediately — the root accumulator never waits for
        // a driver to poll `publish_checkpoints`. Standing deltas the
        // seal emitted ride up on the same trigger.
        self.publish_ring(ring)?;
        self.relay_standing_ring(ring)?;
        Ok(glsns)
    }

    /// One leg to the root collector, over the root ring's root
    /// session: `from` ships `frame` and the collector receives it —
    /// or refuses it, if it was corrupted in flight.
    fn root_exchange(&self, from: NodeId, frame: bytes::Bytes) -> Result<Envelope, AuditError> {
        let wire = Session::root(&self.root_net);
        let root = self.root_node();
        wire.send(from, root, frame);
        Ok(wire.recv_from(root, from)?)
    }

    /// Publishes `ring`'s not-yet-published sealed checkpoints to the
    /// root ring: the ring's representative ships each sealed head to
    /// the collector, the collector folds it into the global
    /// accumulator, and the *next* ring cross-publishes an endorsement
    /// pinned to its own chain head. Returns how many checkpoints were
    /// published. Called from the seal path ([`FederatedCluster::log_records`]);
    /// idempotent until new seals land.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError`] on root-ring transport failure or a
    /// malformed/unverifiable publication (which would indicate a
    /// Byzantine representative).
    pub fn publish_ring(&mut self, ring: usize) -> Result<usize, AuditError> {
        let num_rings = self.rings.len();
        let mut newly_published = 0usize;
        {
            loop {
                let next = self.published_per_ring[ring];
                let Some(checkpoint) = self.rings[ring]
                    .checkpoint_chain()
                    .iter()
                    .nth(next)
                    .cloned()
                else {
                    break;
                };
                let record = RingCheckpoint {
                    ring: ring as u64,
                    checkpoint,
                };

                // Representative → collector: the publication frame.
                let mut w = Writer::new();
                w.put_u8(FED_PUBLISH_TAG).put_bytes(&record.encode());
                let envelope = self.root_exchange(NodeId(ring), w.finish())?;
                let mut r = crate::open_frame(&envelope.payload, FED_PUBLISH_TAG)?;
                let presented = RingCheckpoint::decode(r.get_bytes()?).ok_or_else(|| {
                    AuditError::Integrity("malformed ring-checkpoint publication".into())
                })?;
                if presented != record {
                    return Err(AuditError::Integrity(
                        "ring-checkpoint publication altered in flight".into(),
                    ));
                }

                // Cross-publication: the next ring endorses against its
                // own chain head and ships the record to the collector.
                let endorser = (ring + 1) % num_rings;
                let endorsement = self.rings[endorser]
                    .checkpoint_chain()
                    .endorse_foreign(endorser as u64, presented.clone());
                let mut w = Writer::new();
                w.put_u8(FED_ENDORSE_TAG).put_bytes(&endorsement.encode());
                let envelope = self.root_exchange(NodeId(endorser), w.finish())?;
                let mut r = crate::open_frame(&envelope.payload, FED_ENDORSE_TAG)?;
                let received = RingEndorsement::decode(r.get_bytes()?)
                    .ok_or_else(|| AuditError::Integrity("malformed ring endorsement".into()))?;
                if !received.verify() {
                    return Err(AuditError::Integrity(
                        "ring endorsement failed its seal check".into(),
                    ));
                }

                // The collector folds the publication into the global
                // accumulator and archives both records.
                self.root_acc = self.acc_params.fold(&self.root_acc, &presented.root_item());
                self.published.push(presented);
                self.endorsements.push(received);
                self.published_per_ring[ring] = next + 1;
                newly_published += 1;
            }
        }
        Ok(newly_published)
    }

    /// Catch-up sweep: publishes every not-yet-published sealed
    /// checkpoint across all rings. With the seal path pushing
    /// ([`FederatedCluster::publish_ring`] fires on every deposit that
    /// seals), this normally finds nothing — it exists for rings sealed
    /// out-of-band (e.g. direct [`FederatedCluster::ring_mut`] access)
    /// and as the recovery path after a representative outage. Returns
    /// how many checkpoints the sweep published.
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
    /// ring rejects the criteria, or any relay failure.
    pub fn register_standing(&mut self, criteria: &str) -> Result<StandingQueryId, AuditError> {
        let ring_ids = (0..self.rings.len())
            .map(|ring| self.rings[ring].register_standing(criteria))
            .collect::<Result<Vec<_>, _>>()?;
        let id = StandingQueryId(self.next_standing);
        self.next_standing += 1;
        self.standing.insert(
            id,
            FederatedStanding {
                ring_ids,
                archive: Vec::new(),
            },
        );
        for ring in 0..self.rings.len() {
            self.relay_standing_ring(ring)?;
        }
        Ok(id)
    }

    /// The root collector's archive of relayed deltas for `id`, in
    /// relay order.
    #[must_use]
    pub fn standing_deltas(&self, id: StandingQueryId) -> &[FederatedStandingDelta] {
        self.standing.get(&id).map_or(&[], |s| s.archive.as_slice())
    }

    /// The accumulated federation-wide matches of `id`: the union of
    /// every relayed delta's records, sorted by global deposit index —
    /// directly comparable to [`FederatedQueryResult::records`].
    #[must_use]
    pub fn standing_matches(&self, id: StandingQueryId) -> Option<Vec<u64>> {
        let entry = self.standing.get(&id)?;
        let mut records: BTreeSet<u64> = BTreeSet::new();
        for delta in &entry.archive {
            records.extend(delta.records.iter().copied());
        }
        Some(records.into_iter().collect())
    }

    /// Relays `ring`'s pending standing deltas to the root collector:
    /// the representative frames each delta ([`FED_DELTA_TAG`]), the
    /// collector decodes it, resolves the ring-local glsns to global
    /// deposit indices, and archives the result.
    fn relay_standing_ring(&mut self, ring: usize) -> Result<(), AuditError> {
        let subscriptions: Vec<(StandingQueryId, StandingQueryId)> = self
            .standing
            .iter()
            .map(|(id, entry)| (*id, entry.ring_ids[ring]))
            .collect();
        for (fed_id, ring_id) in subscriptions {
            for delta in self.rings[ring].standing_deltas(ring_id) {
                let mut w = Writer::new();
                w.put_u8(FED_DELTA_TAG)
                    .put_u64(fed_id.0)
                    .put_u64(ring as u64)
                    .put_u64(delta.epoch.0)
                    .put_list(&delta.glsns, |w, g| {
                        w.put_u64(g.0);
                    });
                let envelope = self.root_exchange(NodeId(ring), w.finish())?;
                let mut r = crate::open_frame(&envelope.payload, FED_DELTA_TAG)?;
                let query = StandingQueryId(r.get_u64()?);
                let from_ring = r.get_u64()?;
                let epoch = EpochId(r.get_u64()?);
                let glsns = r.get_list(|r| r.get_u64().map(Glsn))?;
                let mut records = Vec::with_capacity(glsns.len());
                for glsn in glsns {
                    let index = self.record_index.get(&glsn).ok_or_else(|| {
                        AuditError::Integrity(format!(
                            "standing delta names glsn {glsn:?} with no federated deposit index"
                        ))
                    })?;
                    records.push(*index);
                }
                records.sort_unstable();
                let entry = self.standing.get_mut(&query).ok_or_else(|| {
                    AuditError::Integrity(format!("standing delta for unknown query {query}"))
                })?;
                entry.archive.push(FederatedStandingDelta {
                    query,
                    ring: from_ring,
                    epoch,
                    records,
                });
            }
        }
        Ok(())
    }

    /// The root accumulator cross-check against a *presented* set of
    /// checkpoints: re-folds `presented` in order from `x₀` and
    /// compares with the collector's global accumulator. A tampered,
    /// dropped, reordered or extra checkpoint changes the fold — this
    /// is how an auditor holding only the root accumulator value
    /// detects a sub-ring rewriting its published history.
    #[must_use]
    pub fn verify_presented(&self, presented: &[RingCheckpoint]) -> bool {
        let items: Vec<Vec<u8>> = presented.iter().map(RingCheckpoint::root_item).collect();
        let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
        // Eq. 9 collapses the refold ladder into one fixed-base power
        // of x₀ — same value, one table walk per cross-check.
        self.acc_params.accumulate_batch(&refs) == self.root_acc
    }

    /// The full root-ring cross-check: the archived publications refold
    /// to the global accumulator, every publication still matches its
    /// ring's own chain, and every endorsement is upheld by its
    /// endorser's chain.
    #[must_use]
    pub fn check_root(&self) -> RootVerdict {
        let fold_ok = self.verify_presented(&self.published);
        let chains_ok = self.published.iter().all(|record| {
            (record.ring as usize) < self.rings.len()
                && self.rings[record.ring as usize]
                    .checkpoint_chain()
                    .endorses(&record.checkpoint)
        });
        let endorsements_ok = self.published.len() == self.endorsements.len()
            && self
                .endorsements
                .iter()
                .zip(&self.published)
                .all(|(endorsement, record)| {
                    endorsement.subject == *record
                        && (endorsement.endorser as usize) < self.rings.len()
                        && self.rings[endorsement.endorser as usize]
                            .checkpoint_chain()
                            .upholds(endorsement)
                });
        RootVerdict {
            fold_ok,
            chains_ok,
            endorsements_ok,
        }
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
        let records = self.identify(&glsns)?;
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

    /// Maps glsns to their global deposit indices (sorted by glsn).
    fn identify(&self, glsns: &[Glsn]) -> Result<Vec<u64>, AuditError> {
        let mut records = Vec::with_capacity(glsns.len());
        for glsn in glsns {
            let index = self.record_index.get(glsn).ok_or_else(|| {
                AuditError::Integrity(format!("glsn {glsn:?} has no federated deposit index"))
            })?;
            records.push(*index);
        }
        records.sort_unstable();
        Ok(records)
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

    /// Total records deposited across the federation.
    #[must_use]
    pub fn records_deposited(&self) -> u64 {
        self.next_record
    }

    /// The deposit index of `glsn`, if it was logged through this
    /// federation.
    #[must_use]
    pub fn deposit_index(&self, glsn: Glsn) -> Option<u64> {
        self.record_index.get(&glsn).copied()
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
        fed.root_net.lock().set_adversary(std::sync::Arc::new(liar));
        let err = seal_one_more(&mut fed).unwrap_err();
        assert!(matches!(err, AuditError::Wire(_)), "foreign tag gave {err}");
        fed.root_net.lock().clear_adversary();
        assert_eq!(fed.publish_checkpoints().unwrap(), 1, "catch-up sweep");

        // A byte flipped on the line is refused under its own name.
        let root = fed.root_node().0;
        (fed.root_net.lock().faults_mut()).inject_once(home, root, FaultOutcome::Corrupt);
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
}

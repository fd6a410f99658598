//! Per-node fragment storage and the cluster-wide glsn allocator.
//!
//! The journal is the definition of a durable store's state: every
//! durable transition is one [`JournalEntry`], checked against history
//! by `admits` and carried out by `apply` — the only code that changes
//! the store's maps. A public mutator is *validate the request →
//! `commit` (check, journal, apply)*, and [`FragmentStore::restore`] is
//! *open the journal → settle the epoch policy → commit every entry in
//! order*, so a restored store is observably equal to the one that was
//! dropped and refuses every history the live path would have refused.

use crate::acl::{AccessControlTable, Operation, OperationSet, Ticket, TicketId};
use crate::epoch::{EpochId, EpochManifest, EpochPartials, EpochPolicy};
use crate::fragment::Fragment;
use crate::journal::{Journal, JournalEntry};
use crate::model::{AttrName, AttrValue, Glsn};
use crate::LogError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocates monotonically increasing, cluster-unique glsns ("uniquely
/// assigned by DLA cluster", §4). Thread-safe so concurrent application
/// nodes can log in parallel.
#[derive(Debug)]
pub struct GlsnAllocator {
    next: AtomicU64,
}

impl GlsnAllocator {
    /// Starts allocation at `first` (the paper's examples start at
    /// `0x139aef78`).
    #[must_use]
    pub fn starting_at(first: Glsn) -> Self {
        GlsnAllocator {
            next: AtomicU64::new(first.0),
        }
    }

    /// Allocates the next glsn.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] once the glsn space is exhausted (the
    /// counter would pass `u64::MAX`), and on every call after: a
    /// wrapping counter would silently reissue glsn 0 and break the §4
    /// "uniquely assigned" invariant, which every accumulator deposit
    /// depends on. The counter stays at `u64::MAX`, so the refusal is
    /// before anything of a deposit has been written.
    pub fn allocate(&self) -> Result<Glsn, LogError> {
        let next = |v: u64| v.checked_add(1);
        match (self.next).fetch_update(Ordering::Relaxed, Ordering::Relaxed, next) {
            Ok(prev) => Ok(Glsn(prev)),
            Err(_) => Err(LogError::Store(
                "glsn space exhausted: allocator reached u64::MAX and cannot \
                 issue another unique glsn"
                    .into(),
            )),
        }
    }
}

impl Default for GlsnAllocator {
    fn default() -> Self {
        GlsnAllocator::starting_at(Glsn(0x139a_ef78))
    }
}

/// One DLA node's fragment store plus its replica of the access-control
/// table. Optionally backed by a durable [`Journal`]: every transition
/// is then logged (fsynced) before it applies, and
/// [`FragmentStore::restore`] replays the log after a restart.
///
/// Beyond its own fragments the store can hold two recovery-oriented
/// collections, both keyed by `(origin node, glsn)`:
///
/// * **standby** — warm copies of another node's fragments shipped at
///   log time (ring-successor replication). Never served to queries.
/// * **adopted** — standbys promoted after their owner was declared
///   dead. Served alongside own fragments by
///   [`FragmentStore::scan_all`], and folded into §4.1 integrity
///   circulations on the dead node's behalf. Adopted fragments keep
///   their original `node` field, so their canonical bytes — and hence
///   the accumulator — are unchanged by the move.
#[derive(Default)]
pub struct FragmentStore {
    node: usize,
    fragments: BTreeMap<Glsn, Fragment>,
    standby: BTreeMap<(usize, Glsn), Fragment>,
    adopted: BTreeMap<(usize, Glsn), Fragment>,
    acl: AccessControlTable,
    journal: Option<Journal>,
    epoch_policy: EpochPolicy,
    epochs: BTreeMap<EpochId, EpochManifest>,
    revision: u64,
}

impl fmt::Debug for FragmentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FragmentStore(node: {}, fragments: {})",
            self.node,
            self.fragments.len()
        )
    }
}

impl FragmentStore {
    /// Creates the store for DLA node `node` with the default epoch
    /// policy.
    #[must_use]
    pub fn new(node: usize) -> Self {
        FragmentStore::with_policy(node, EpochPolicy::default())
    }

    /// Creates the store for DLA node `node` sharding its trail per
    /// `policy`.
    #[must_use]
    pub fn with_policy(node: usize, policy: EpochPolicy) -> Self {
        FragmentStore {
            node,
            epoch_policy: policy,
            ..FragmentStore::default()
        }
    }

    /// Creates a durable store journaling to `path` (which may already
    /// contain a previous run's entries — they are replayed). The epoch
    /// policy is read back from the journal's
    /// [`JournalEntry::EpochPolicy`] record; only a genuinely fresh (or
    /// pre-policy legacy) journal falls back to the default policy,
    /// which is then persisted.
    ///
    /// # Errors
    ///
    /// As [`FragmentStore::restore_with_policy`].
    pub fn restore(node: usize, path: &Path) -> Result<Self, LogError> {
        FragmentStore::replay(node, path, None)
    }

    /// [`FragmentStore::restore`] with an explicit epoch policy.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] on I/O failure or journal corruption,
    /// if the journal already records a *different* epoch policy
    /// (re-sharding an existing trail would silently re-bucket history),
    /// or if it holds a history the live path refuses — a fragment
    /// behind its epoch's seal, a fragment of another node;
    /// [`LogError::DuplicateGlsn`] if it contains a conflicting rewrite
    /// of a live fragment or of a standby/adopted copy.
    pub fn restore_with_policy(
        node: usize,
        path: &Path,
        policy: EpochPolicy,
    ) -> Result<Self, LogError> {
        FragmentStore::replay(node, path, Some(policy))
    }

    fn replay(node: usize, path: &Path, requested: Option<EpochPolicy>) -> Result<Self, LogError> {
        let (mut journal, entries) = Journal::open(path)?;
        // The policy decides which epoch every other entry lands in, so
        // it is the one thing settled before the first entry applies.
        let persisted = entries.iter().rev().find_map(|entry| match entry {
            JournalEntry::EpochPolicy(policy) => Some(*policy),
            _ => None,
        });
        let policy = match (persisted, requested) {
            (Some(p), Some(r)) if p != r => {
                return Err(LogError::Store(format!(
                    "journal {} was sharded with epoch policy {p:?} but restore requested {r:?}",
                    path.display()
                )));
            }
            (Some(p), _) => p,
            (None, requested) => {
                let policy = requested.unwrap_or_default();
                journal.append(&JournalEntry::EpochPolicy(policy))?;
                policy
            }
        };
        // Replay runs on a store that has no journal yet: `commit`
        // re-walks the recorded history without re-recording it.
        let mut store = FragmentStore::with_policy(node, policy);
        for entry in entries {
            store.commit([entry])?;
        }
        store.journal = Some(journal);
        Ok(store)
    }

    /// One durable step, live or replayed: every entry is checked
    /// against history, then journaled (when durable, in one append),
    /// and only then applied. `Ok(false)`: history already reflects the
    /// step — nothing was journaled or changed.
    fn commit<const N: usize>(&mut self, entries: [JournalEntry; N]) -> Result<bool, LogError> {
        for entry in &entries {
            if !self.admits(entry)? {
                return Ok(false);
            }
        }
        if let Some(journal) = &mut self.journal {
            journal.append_batch(&entries)?;
        }
        entries.into_iter().for_each(|entry| self.apply(entry));
        Ok(true)
    }

    /// The history invariants, each spelled once: whether `entry` may
    /// follow what the store already holds. `Ok(false)` for an
    /// idempotent repeat (a byte-identical re-append, a second seal).
    fn admits(&self, entry: &JournalEntry) -> Result<bool, LogError> {
        let unless_same = |held: Option<&Fragment>, new: &Fragment, node| match held {
            None => Ok(true),
            Some(held) if held == new => Ok(false),
            // Letting the later copy win would let a replayed or
            // duplicated deposit rewrite history without tripping the
            // accumulator.
            Some(_) => Err(LogError::DuplicateGlsn {
                glsn: new.glsn,
                node,
            }),
        };
        match entry {
            JournalEntry::Fragment(new) => {
                if new.node != self.node {
                    return Err(LogError::Store(format!(
                        "fragment for node {} written to node {}",
                        new.node, self.node
                    )));
                }
                if !unless_same(self.fragments.get(&new.glsn), new, self.node)? {
                    return Ok(false);
                }
                let epoch = self.epoch_policy.epoch_of(new.glsn);
                if self.is_sealed(epoch) {
                    return Err(LogError::Store(format!(
                        "epoch {epoch} is sealed at node {}: glsn {} cannot be deposited",
                        self.node, new.glsn
                    )));
                }
                Ok(true)
            }
            JournalEntry::Standby(new) | JournalEntry::Adopted(new) => {
                let (held, role) = match entry {
                    JournalEntry::Standby(_) => (&self.standby, "hold a standby of"),
                    _ => (&self.adopted, "adopt"),
                };
                if new.node == self.node {
                    return Err(LogError::Store(format!(
                        "node {} cannot {role} its own fragment",
                        self.node
                    )));
                }
                unless_same(held.get(&(new.node, new.glsn)), new, new.node)
            }
            JournalEntry::EpochSeal(epoch) => Ok(!self.is_sealed(*epoch)),
            JournalEntry::EpochMaterialized(epoch) => Ok(self.epoch_partials(*epoch).is_none()),
            _ => Ok(true),
        }
    }

    /// The one state transition: the single place `fragments`,
    /// `standby`, `adopted`, `acl` and `epochs` change, live and on
    /// replay alike (entries the store keeps no state for — the policy
    /// record, foreign blobs — change nothing). Afterwards
    /// `epoch_partials(e)` is `None` or equals `compute_partials(e)`.
    fn apply(&mut self, entry: JournalEntry) {
        let policy = self.epoch_policy;
        // The epoch whose cached partials the entry made stale (or asked
        // for): recomputed once, below.
        let mut refresh = None;
        match entry {
            JournalEntry::Fragment(fragment) => {
                let (glsn, epoch) = (fragment.glsn, policy.epoch_of(fragment.glsn));
                let manifest = self
                    .epochs
                    .entry(epoch)
                    .and_modify(|m| m.observe(glsn))
                    .or_insert_with(|| EpochManifest::opened_at(epoch, glsn));
                refresh = manifest.partials.is_some().then_some(epoch);
                self.fragments.insert(glsn, fragment);
            }
            JournalEntry::AclGrant { ticket, ops, glsn } => {
                let ops = OperationSet::from_byte(ops);
                self.acl.authorize_parts(TicketId::new(&ticket), ops, glsn);
            }
            JournalEntry::Tombstone(glsn) => {
                self.revision += 1;
                self.acl.forget(glsn);
                self.standby.retain(|&(_, held), _| held != glsn);
                self.adopted.retain(|&(_, held), _| held != glsn);
                if self.fragments.remove(&glsn).is_some() {
                    let epoch = policy.epoch_of(glsn);
                    if let Some(m) = self.epochs.get_mut(&epoch) {
                        m.fragments = m.fragments.saturating_sub(1);
                        refresh = m.partials.is_some().then_some(epoch);
                    }
                }
            }
            JournalEntry::Standby(fragment) => {
                self.standby
                    .insert((fragment.node, fragment.glsn), fragment);
            }
            JournalEntry::Adopted(fragment) => {
                self.revision += 1;
                // A promoted standby is no longer a standby.
                self.standby.remove(&(fragment.node, fragment.glsn));
                self.adopted
                    .insert((fragment.node, fragment.glsn), fragment);
            }
            JournalEntry::EpochSeal(epoch) | JournalEntry::EpochMaterialized(epoch) => {
                let manifest = self
                    .epochs
                    .entry(epoch)
                    .or_insert_with(|| empty_manifest(&policy, epoch));
                match entry {
                    JournalEntry::EpochSeal(_) => manifest.sealed = true,
                    _ => refresh = Some(epoch),
                }
            }
            JournalEntry::EpochPolicy(_) | JournalEntry::Blob { .. } => {}
        }
        if let Some(epoch) = refresh {
            let partials = self.compute_partials(epoch);
            let manifest = self.epochs.entry(epoch);
            manifest
                .or_insert_with(|| empty_manifest(&policy, epoch))
                .partials = Some(partials);
        }
    }

    /// Counts the transitions that can change what a scan of a
    /// **sealed** epoch returns: a tombstone, an adoption, the
    /// [`FragmentStore::tamper`] hook. Deposits never do — a sealed
    /// epoch admits none — so a set derived from sealed epochs at one
    /// revision still describes them while the revision stands. Not
    /// journaled: a restored store counts what its replay applies, and
    /// nothing derived from the old count outlives the process.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Whether the store is journal-backed.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// The owning node index.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Writes a fragment under a ticket: the glsn is registered in the
    /// ACL and the fragment stored. A durable store journals both
    /// frames in one append — one fsync per write.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::AccessDenied`] if the ticket does not permit
    /// writes, [`LogError::Store`] if the fragment belongs to another
    /// node or its epoch is sealed, [`LogError::DuplicateGlsn`] if the
    /// glsn is already present.
    pub fn write(&mut self, ticket: &Ticket, fragment: Fragment) -> Result<(), LogError> {
        if !ticket.ops.allows(Operation::Write) {
            return Err(LogError::AccessDenied(format!(
                "ticket {} does not permit W",
                ticket.id
            )));
        }
        let duplicate = LogError::DuplicateGlsn {
            glsn: fragment.glsn,
            node: self.node,
        };
        let grant = JournalEntry::AclGrant {
            ticket: ticket.id.as_str().to_owned(),
            ops: ticket.ops.to_byte(),
            glsn: fragment.glsn,
        };
        // Replay forgives a byte-identical re-append; a live caller
        // writing a glsn twice is told so.
        match self.commit([JournalEntry::Fragment(fragment), grant])? {
            true => Ok(()),
            false => Err(duplicate),
        }
    }

    /// Reads a fragment under a ticket.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::AccessDenied`] per the ACL, or
    /// [`LogError::Store`] if the glsn is absent.
    pub fn read(&self, ticket: &Ticket, glsn: Glsn) -> Result<&Fragment, LogError> {
        self.acl.check(ticket, Operation::Read, glsn)?;
        self.stored(glsn)
    }

    fn stored(&self, glsn: Glsn) -> Result<&Fragment, LogError> {
        self.fragments
            .get(&glsn)
            .ok_or_else(|| LogError::Store(format!("glsn {glsn} not stored at node {}", self.node)))
    }

    /// Deletes a glsn under a ticket: the fragment (returned), any
    /// standby or adopted copy held of it and its ACL grants. The
    /// epoch's manifest keeps the glsn extent it has observed; only its
    /// fragment count drops.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::AccessDenied`] per the ACL, or
    /// [`LogError::Store`] if the glsn is absent.
    pub fn delete(&mut self, ticket: &Ticket, glsn: Glsn) -> Result<Fragment, LogError> {
        self.acl.check(ticket, Operation::Delete, glsn)?;
        let fragment = self.stored(glsn)?.clone();
        self.commit([JournalEntry::Tombstone(glsn)])?;
        Ok(fragment)
    }

    /// Node-internal access for protocol machinery (integrity checking,
    /// local predicate evaluation). "P_i has full access to its own
    /// stored log fragments" (§4).
    #[must_use]
    pub fn get_local(&self, glsn: Glsn) -> Option<&Fragment> {
        self.fragments.get(&glsn)
    }

    /// Iterates all fragments in glsn order.
    pub fn scan(&self) -> impl Iterator<Item = &Fragment> {
        self.fragments.values()
    }

    /// Iterates own fragments **plus adopted ones** — the degraded-mode
    /// scan surface. With nothing adopted this is exactly
    /// [`FragmentStore::scan`].
    pub fn scan_all(&self) -> impl Iterator<Item = &Fragment> {
        self.fragments.values().chain(self.adopted.values())
    }

    /// [`FragmentStore::scan_all`] restricted to the inclusive glsn
    /// window `[lo, hi]` — the epoch-pruned scan surface. Own fragments
    /// come from a BTreeMap range (no full-trail walk); adopted ones
    /// are filtered.
    pub fn scan_window(&self, lo: Glsn, hi: Glsn) -> impl Iterator<Item = &Fragment> {
        let adopted = self
            .adopted
            .values()
            .filter(move |f| f.glsn >= lo && f.glsn <= hi);
        // An inverted window (lo > hi) is the planner's "provably no
        // answers" sentinel — BTreeMap::range would panic on it.
        let stored = if lo <= hi {
            Some(self.fragments.range(lo..=hi))
        } else {
            None
        };
        stored.into_iter().flatten().map(|(_, f)| f).chain(adopted)
    }

    /// The store's epoch policy.
    #[must_use]
    pub fn epoch_policy(&self) -> EpochPolicy {
        self.epoch_policy
    }

    /// The manifest for `epoch`, if any deposit or seal touched it.
    #[must_use]
    pub fn epoch_manifest(&self, epoch: EpochId) -> Option<&EpochManifest> {
        self.epochs.get(&epoch)
    }

    /// Iterates the per-epoch manifests in epoch order.
    pub fn epoch_manifests(&self) -> impl Iterator<Item = &EpochManifest> {
        self.epochs.values()
    }

    /// Whether `epoch` has been sealed on this node.
    #[must_use]
    pub fn is_sealed(&self, epoch: EpochId) -> bool {
        self.epochs.get(&epoch).is_some_and(|m| m.sealed)
    }

    /// Seals `epoch`: no further deposits are admitted into it. The
    /// seal is journaled (when durable), so it survives
    /// [`FragmentStore::restore`]. Idempotent — re-sealing a sealed
    /// epoch is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] if journaling fails.
    pub fn seal_epoch(&mut self, epoch: EpochId) -> Result<(), LogError> {
        self.commit([JournalEntry::EpochSeal(epoch)]).map(drop)
    }

    /// Deterministically folds the node's own fragments in the epoch's
    /// nominal glsn range into count/sum partials per predicate bucket:
    /// every `Text` attribute value forms a bucket counting matching
    /// fragments and summing each co-resident numeric attribute, and
    /// epoch-wide numeric totals ride along. A pure function of the
    /// stored own fragments — adopted copies belong to their dead
    /// owner's summary, which the checkpoint chain committed at seal
    /// time, so an adoption never rewrites a sealed epoch's partials.
    #[must_use]
    pub fn compute_partials(&self, epoch: EpochId) -> EpochPartials {
        let (lo, hi) = self.epoch_policy.glsn_range(epoch);
        let mut partials = EpochPartials::empty(epoch);
        for frag in self.fragments.range(lo..=hi).map(|(_, f)| f) {
            partials.fragments += 1;
            let numerics: Vec<(&AttrName, i64)> = frag
                .values
                .iter()
                .filter_map(|(name, value)| match value {
                    AttrValue::Int(raw) | AttrValue::Fixed2(raw) => Some((name, *raw)),
                    _ => None,
                })
                .collect();
            for (name, raw) in &numerics {
                partials
                    .totals
                    .entry((*name).clone())
                    .or_default()
                    .observe(*raw);
            }
            for (name, value) in frag.values.iter() {
                if let AttrValue::Text(text) = value {
                    let bucket = partials
                        .buckets
                        .entry((name.clone(), text.clone()))
                        .or_default();
                    bucket.count += 1;
                    for (num_name, raw) in &numerics {
                        bucket
                            .sums
                            .entry((*num_name).clone())
                            .or_default()
                            .observe(*raw);
                    }
                }
            }
        }
        partials
    }

    /// Materializes the epoch's aggregate partials into its manifest
    /// (a durable store journals the fact, not the values), so windowed
    /// aggregate queries combine cached partials instead of rescanning
    /// fragments. Called at seal time; idempotent. Once materialized,
    /// the cache follows every later write or delete in the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] if journaling fails.
    pub fn materialize_partials(&mut self, epoch: EpochId) -> Result<(), LogError> {
        self.commit([JournalEntry::EpochMaterialized(epoch)])
            .map(drop)
    }

    /// The cached aggregate partials for `epoch`, if materialized.
    #[must_use]
    pub fn epoch_partials(&self, epoch: EpochId) -> Option<&EpochPartials> {
        self.epochs.get(&epoch).and_then(|m| m.partials.as_ref())
    }

    /// Stores a warm standby copy of another node's fragment (ring
    /// replication at log time). Idempotent per (origin, glsn) for
    /// byte-identical re-ships.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] if the fragment belongs to this node
    /// (a node is not its own standby) or journaling fails, and
    /// [`LogError::DuplicateGlsn`] if a *different* fragment is already
    /// held for the same (origin, glsn).
    pub fn store_standby(&mut self, fragment: Fragment) -> Result<(), LogError> {
        self.commit([JournalEntry::Standby(fragment)]).map(drop)
    }

    /// Adopts a fragment on behalf of a dead node: it keeps its
    /// original `node` field (preserving the accumulator's canonical
    /// bytes) and is served by [`FragmentStore::scan_all`] from now on.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] if the fragment belongs to this node
    /// or journaling fails, and [`LogError::DuplicateGlsn`] if a
    /// *different* fragment was already adopted for the same
    /// (origin, glsn).
    pub fn adopt(&mut self, fragment: Fragment) -> Result<(), LogError> {
        self.commit([JournalEntry::Adopted(fragment)]).map(drop)
    }

    /// Promotes every standby copy held for `dead_node` to adopted
    /// status, returning the promoted fragments.
    ///
    /// # Errors
    ///
    /// As [`FragmentStore::adopt`].
    pub fn promote_standby(&mut self, dead_node: usize) -> Result<Vec<Fragment>, LogError> {
        let promoted: Vec<Fragment> = self
            .standby
            .range((dead_node, Glsn(0))..=(dead_node, Glsn(u64::MAX)))
            .map(|(_, fragment)| fragment.clone())
            .collect();
        for fragment in &promoted {
            self.adopt(fragment.clone())?;
        }
        Ok(promoted)
    }

    /// Rolls back every glsn `committed` rejects — own fragment,
    /// standby and adopted copies, ACL grants — with a journaled
    /// tombstone each, so the next restart replays the same decision. A
    /// restarting cluster passes "has a deposit record": the pieces of a
    /// deposit that crashed before it committed are not history.
    /// Returns the glsns forgotten.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] if journaling fails.
    pub fn forget_uncommitted(
        &mut self,
        committed: impl Fn(Glsn) -> bool,
    ) -> Result<BTreeSet<Glsn>, LogError> {
        let copies = self.standby.keys().chain(self.adopted.keys());
        let granted = self.acl.iter().flat_map(|(_, _, glsns)| glsns);
        let orphans: BTreeSet<Glsn> = (self.fragments.keys())
            .chain(copies.map(|(_, glsn)| glsn))
            .chain(granted)
            .copied()
            .filter(|glsn| !committed(*glsn))
            .collect();
        let mut refused = None;
        for glsn in &orphans {
            // A tombstone the journal refuses is applied all the same:
            // the next restart decides the same, the glsn having no
            // deposit record, and a store that lives on must not serve
            // a record that never committed.
            if let Err(e) = self.commit([JournalEntry::Tombstone(*glsn)]) {
                self.apply(JournalEntry::Tombstone(*glsn));
                refused.get_or_insert(e);
            }
        }
        refused.map_or(Ok(orphans), Err)
    }

    /// Forgets `glsns` in memory only — own fragment, standby and
    /// adopted copies, ACL grants — journaling nothing, so the next
    /// restart decides as the journal says: for a deposit whose commit
    /// point is ambiguous, its record written or not.
    pub fn forget_in_memory(&mut self, glsns: impl IntoIterator<Item = Glsn>) {
        for glsn in glsns {
            self.apply(JournalEntry::Tombstone(glsn));
        }
    }

    /// An adopted fragment originally owned by `node`, if held here.
    #[must_use]
    pub fn get_adopted(&self, node: usize, glsn: Glsn) -> Option<&Fragment> {
        self.adopted.get(&(node, glsn))
    }

    /// Number of standby copies held.
    #[must_use]
    pub fn standby_count(&self) -> usize {
        self.standby.len()
    }

    /// Number of adopted fragments held.
    #[must_use]
    pub fn adopted_count(&self) -> usize {
        self.adopted.len()
    }

    /// Number of stored fragments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// The node's ACL replica.
    #[must_use]
    pub fn acl(&self) -> &AccessControlTable {
        &self.acl
    }

    /// **Adversarial test hook**: mutable ACL access, modelling a
    /// compromised node rewriting its access-control table (§4.1).
    pub fn acl_mut_for_tests(&mut self) -> &mut AccessControlTable {
        &mut self.acl
    }

    /// **Adversarial test hook**: silently modifies a stored value, as a
    /// compromised node would (§4.1: "when a DLA node is compromised,
    /// its access control tables and log records could be modified").
    /// Returns `true` if the glsn/attribute existed.
    pub fn tamper(&mut self, glsn: Glsn, attr: &AttrName, value: AttrValue) -> bool {
        match self.fragments.get_mut(&glsn) {
            Some(frag) if frag.values.get(attr).is_some() => {
                frag.values.insert(attr.clone(), value);
                self.revision += 1;
                true
            }
            _ => false,
        }
    }

    /// **Adversarial test hook**: overwrites the cached aggregate
    /// partials of `epoch`, as a compromised node lying about its
    /// materialized summaries would. Returns `true` if the epoch had a
    /// manifest to corrupt.
    pub fn tamper_partials(&mut self, epoch: EpochId, partials: EpochPartials) -> bool {
        match self.epochs.get_mut(&epoch) {
            Some(manifest) => {
                manifest.partials = Some(partials);
                true
            }
            None => false,
        }
    }
}

/// A manifest for an epoch sealed before any deposit touched it: zero
/// fragments, bounds set to the policy's nominal range.
fn empty_manifest(policy: &EpochPolicy, epoch: EpochId) -> EpochManifest {
    let (lo, hi) = policy.glsn_range(epoch);
    EpochManifest {
        epoch,
        fragments: 0,
        glsn_lo: lo,
        glsn_hi: hi,
        sealed: false,
        partials: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{OperationSet, TicketAuthority};
    use crate::fragment::{fragment, Partition};
    use crate::model::LogRecord;
    use crate::schema::Schema;
    use dla_crypto::schnorr::{SchnorrGroup, SchnorrKeyPair};
    use rand::SeedableRng;

    fn ticket(ops: OperationSet) -> Ticket {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        let mut authority = TicketAuthority::new(&group, &mut rng);
        let user = SchnorrKeyPair::generate(&group, &mut rng);
        authority.issue(user.public(), ops, &mut rng)
    }

    fn sample_fragments(glsn: u64) -> Vec<Fragment> {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let record = LogRecord::new(Glsn(glsn))
            .with("time", AttrValue::Time(100))
            .with("id", AttrValue::text("U1"))
            .with("protocol", AttrValue::text("UDP"))
            .with("tid", AttrValue::text("T1"))
            .with("c1", AttrValue::Int(20))
            .with("c2", AttrValue::Fixed2(2345))
            .with("c3", AttrValue::text("sig"));
        fragment(&record, &partition)
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "dla-store-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn glsn_allocator_is_monotonic_and_unique() {
        let alloc = GlsnAllocator::default();
        let a = alloc.allocate().unwrap();
        let b = alloc.allocate().unwrap();
        assert_eq!(a, Glsn(0x139a_ef78));
        assert_eq!(b, Glsn(0x139a_ef79));
        assert!(b > a);
    }

    #[test]
    fn glsn_allocator_is_thread_safe() {
        let alloc = std::sync::Arc::new(GlsnAllocator::starting_at(Glsn(0)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let alloc = std::sync::Arc::clone(&alloc);
                std::thread::spawn(move || {
                    (0..250)
                        .map(|_| alloc.allocate().unwrap().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "no duplicate glsns under concurrency");
    }

    #[test]
    fn write_then_read_round_trips() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(1);
        let frag = sample_fragments(7).remove(1);
        store.write(&t, frag.clone()).unwrap();
        assert_eq!(store.read(&t, Glsn(7)).unwrap(), &frag);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn write_rejects_wrong_node() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(0);
        let frag_for_p1 = sample_fragments(7).remove(1);
        let err = store.write(&t, frag_for_p1).unwrap_err();
        assert!(err.to_string().contains("node 1 written to node 0"));
    }

    #[test]
    fn write_rejects_duplicate_glsn() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(1);
        let frag = sample_fragments(7).remove(1);
        store.write(&t, frag.clone()).unwrap();
        let err = store.write(&t, frag).unwrap_err();
        assert_eq!(
            err,
            LogError::DuplicateGlsn {
                glsn: Glsn(7),
                node: 1
            }
        );
    }

    #[test]
    fn allocator_refuses_at_glsn_exhaustion() {
        let alloc = GlsnAllocator::starting_at(Glsn(u64::MAX - 1));
        assert_eq!(alloc.allocate(), Ok(Glsn(u64::MAX - 1)));
        // The allocator stops at MAX, not wrapped: it keeps refusing
        // rather than silently reissuing glsn 0.
        for _ in 0..2 {
            match alloc.allocate() {
                Err(LogError::Store(msg)) => {
                    assert!(msg.contains("glsn space exhausted"), "refusal said: {msg}");
                }
                other => panic!("allocating past u64::MAX must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn restore_rejects_duplicated_deposit_in_journal() {
        // Regression for the silent-overwrite bug: a journal carrying
        // two Fragment entries for one glsn (a duplicated deposit) used
        // to materialize keep-latest; restore must now refuse.
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-dup-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let frag = sample_fragments(7).remove(1);
        let mut tampered = frag.clone();
        tampered
            .values
            .insert(AttrName::new("c2"), AttrValue::Fixed2(666_666));
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.append(&JournalEntry::Fragment(frag)).unwrap();
            journal.append(&JournalEntry::Fragment(tampered)).unwrap();
        }
        let err = FragmentStore::restore(1, &path).unwrap_err();
        assert!(
            matches!(err, LogError::DuplicateGlsn { glsn: Glsn(7), .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn standby_is_idempotent_but_rejects_conflicting_copy() {
        let mut store = FragmentStore::new(1);
        let frag = sample_fragments(7).remove(0);
        store.store_standby(frag.clone()).unwrap();
        // Byte-identical re-ship: fine.
        store.store_standby(frag.clone()).unwrap();
        assert_eq!(store.standby_count(), 1);
        // Conflicting content for the same (origin, glsn): refused.
        let mut conflicting = frag;
        conflicting
            .values
            .insert(AttrName::new("time"), AttrValue::Time(424_242));
        let err = store.store_standby(conflicting.clone()).unwrap_err();
        assert!(matches!(err, LogError::DuplicateGlsn { .. }), "{err}");
        // Same audit on the adopted map.
        store.promote_standby(0).unwrap();
        let err = store.adopt(conflicting).unwrap_err();
        assert!(matches!(err, LogError::DuplicateGlsn { .. }), "{err}");
    }

    #[test]
    fn epoch_manifests_track_deposits() {
        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        let mut store = FragmentStore::with_policy(1, policy);
        for glsn in [1u64, 3, 5, 6] {
            store.write(&t, sample_fragments(glsn).remove(1)).unwrap();
        }
        let e0 = store.epoch_manifest(EpochId(0)).unwrap();
        assert_eq!(
            (e0.fragments, e0.glsn_lo, e0.glsn_hi),
            (2, Glsn(1), Glsn(3))
        );
        let e1 = store.epoch_manifest(EpochId(1)).unwrap();
        assert_eq!(
            (e1.fragments, e1.glsn_lo, e1.glsn_hi),
            (2, Glsn(5), Glsn(6))
        );
        assert_eq!(store.epoch_manifests().count(), 2);
    }

    #[test]
    fn sealed_epoch_rejects_deposits() {
        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        let mut store = FragmentStore::with_policy(1, policy);
        store.write(&t, sample_fragments(1).remove(1)).unwrap();
        store.seal_epoch(EpochId(0)).unwrap();
        store.seal_epoch(EpochId(0)).unwrap(); // idempotent
        assert!(store.is_sealed(EpochId(0)));
        let err = store.write(&t, sample_fragments(2).remove(1)).unwrap_err();
        assert!(err.to_string().contains("sealed"), "{err}");
        // The next epoch is still open.
        store.write(&t, sample_fragments(5).remove(1)).unwrap();
    }

    #[test]
    fn scan_window_prunes_to_range() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(1);
        for glsn in [2u64, 4, 6, 8] {
            store.write(&t, sample_fragments(glsn).remove(1)).unwrap();
        }
        // An adopted fragment inside and one outside the window.
        store.store_standby(sample_fragments(5).remove(0)).unwrap();
        store.store_standby(sample_fragments(9).remove(0)).unwrap();
        store.promote_standby(0).unwrap();

        let mut seen: Vec<u64> = store
            .scan_window(Glsn(4), Glsn(7))
            .map(|f| f.glsn.0)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![4, 5, 6]);
        // Full-range window matches scan_all.
        assert_eq!(
            store.scan_window(Glsn(0), Glsn(u64::MAX)).count(),
            store.scan_all().count()
        );
        // Inverted window = the planner's empty sentinel, not a panic.
        assert_eq!(store.scan_window(Glsn(1), Glsn(0)).count(), 0);
    }

    #[test]
    fn epoch_seals_survive_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-seal-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            store.write(&t, sample_fragments(1).remove(1)).unwrap();
            store.write(&t, sample_fragments(5).remove(1)).unwrap();
            store.seal_epoch(EpochId(0)).unwrap();
        }
        let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
        assert!(store.is_sealed(EpochId(0)), "seal must survive restart");
        assert!(!store.is_sealed(EpochId(1)));
        let m0 = store.epoch_manifest(EpochId(0)).unwrap();
        assert_eq!((m0.fragments, m0.glsn_lo), (1, Glsn(1)));
        let err = store.write(&t, sample_fragments(2).remove(1)).unwrap_err();
        assert!(err.to_string().contains("sealed"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn restore_reads_back_the_persisted_epoch_policy() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-policy-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        assert_ne!(
            policy,
            EpochPolicy::default(),
            "test needs a non-default policy"
        );
        {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            store.write(&t, sample_fragments(1).remove(1)).unwrap();
            store.write(&t, sample_fragments(5).remove(1)).unwrap();
            store.seal_epoch(EpochId(0)).unwrap();
        }
        // A plain restore (no policy argument) must come back under the
        // journaled policy, not the default: glsn 5 sits in epoch 1 of
        // the length-4 policy but would land elsewhere under the
        // default's 0x139aef78 base.
        let store = FragmentStore::restore(1, &path).unwrap();
        assert_eq!(store.epoch_policy(), policy);
        assert!(store.is_sealed(EpochId(0)));
        let m1 = store.epoch_manifest(EpochId(1)).unwrap();
        assert_eq!((m1.fragments, m1.glsn_lo), (1, Glsn(5)));

        // Restoring under a conflicting policy is refused outright.
        let err =
            FragmentStore::restore_with_policy(1, &path, EpochPolicy::new(Glsn(0), 8)).unwrap_err();
        assert!(err.to_string().contains("epoch policy"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn materialized_partials_survive_restart_and_match_recompute() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-partials-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        let expected = {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            store.write(&t, sample_fragments(1).remove(1)).unwrap();
            store.write(&t, sample_fragments(2).remove(1)).unwrap();
            store.materialize_partials(EpochId(0)).unwrap();
            store.seal_epoch(EpochId(0)).unwrap();
            // Idempotent: a second call must not re-journal.
            store.materialize_partials(EpochId(0)).unwrap();
            store.epoch_partials(EpochId(0)).unwrap().clone()
        };
        assert_eq!(expected.fragments, 2);

        let store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
        let restored = store.epoch_partials(EpochId(0)).expect("partials restored");
        assert_eq!(*restored, expected);
        assert_eq!(*restored, store.compute_partials(EpochId(0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_partials_are_rebuilt_after_crash_tail_recovery() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-partials-stale-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            store.write(&t, sample_fragments(1).remove(1)).unwrap();
            // Materialize early, then keep depositing into the still-open
            // epoch: the journaled 0x14 snapshot is now stale relative to
            // the fragment tail.
            store.materialize_partials(EpochId(0)).unwrap();
            store.write(&t, sample_fragments(2).remove(1)).unwrap();
            // The live cache follows the write: it is never stale.
            let live = store.epoch_partials(EpochId(0)).expect("materialized");
            assert_eq!(live.fragments, 2);
            assert_eq!(*live, store.compute_partials(EpochId(0)));
        }
        let store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
        let restored = store.epoch_partials(EpochId(0)).expect("partials restored");
        assert_eq!(
            restored.fragments, 2,
            "restore must rebuild partials from surviving fragments, \
             not replay the stale journaled snapshot"
        );
        assert_eq!(*restored, store.compute_partials(EpochId(0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fragment_behind_a_seal_fails_restore() {
        let path = temp_journal("behind-seal");
        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            store.write(&t, sample_fragments(1).remove(1)).unwrap();
            store.materialize_partials(EpochId(0)).unwrap();
            store.seal_epoch(EpochId(0)).unwrap();
        }
        // A sealed epoch grows on disk: the live path refuses this
        // write, so a journal that holds it is not this store's history.
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            let late = JournalEntry::Fragment(sample_fragments(2).remove(1));
            journal.append(&late).unwrap();
        }
        let err = FragmentStore::restore_with_policy(1, &path, policy).unwrap_err();
        assert!(err.to_string().contains("epoch e0 is sealed"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Everything a caller can observe of a store, for restore ≡ live.
    fn observed(store: &FragmentStore) -> impl PartialEq + fmt::Debug {
        let acl: Vec<_> = store
            .acl()
            .iter()
            .map(|(id, ops, glsns)| (id.clone(), *ops, glsns.clone()))
            .collect();
        (
            store.scan_all().cloned().collect::<Vec<_>>(),
            store.epoch_manifests().cloned().collect::<Vec<_>>(),
            acl,
            store.standby_count(),
        )
    }

    #[test]
    fn manifests_agree_after_a_delete() {
        let path = temp_journal("manifest-delete");
        let t = ticket(OperationSet::all());
        let policy = EpochPolicy::new(Glsn(0), 4);
        let live = {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            for glsn in 1..=3 {
                store.write(&t, sample_fragments(glsn).remove(1)).unwrap();
            }
            store.materialize_partials(EpochId(0)).unwrap();
            store.delete(&t, Glsn(3)).unwrap();
            let e0 = store.epoch_manifest(EpochId(0)).unwrap();
            // The extent is what the epoch has observed; the count and
            // the cached partials are what it holds now.
            assert_eq!(
                (e0.fragments, e0.glsn_lo, e0.glsn_hi),
                (2, Glsn(1), Glsn(3))
            );
            assert_eq!(e0.partials, Some(store.compute_partials(EpochId(0))));
            observed(&store)
        };
        let restored = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
        assert_eq!(observed(&restored), live);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forgetting_uncommitted_glsns_survives_restart() {
        let path = temp_journal("forget");
        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        let committed = |glsn: Glsn| glsn <= Glsn(2);
        let live = {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            for glsn in 1..=3 {
                store.write(&t, sample_fragments(glsn).remove(1)).unwrap();
                store
                    .store_standby(sample_fragments(glsn).remove(0))
                    .unwrap();
            }
            store.store_standby(sample_fragments(4).remove(0)).unwrap();
            let forgotten = store.forget_uncommitted(committed).unwrap();
            assert!(forgotten.into_iter().eq([Glsn(3), Glsn(4)]));
            assert_eq!((store.len(), store.standby_count()), (2, 2));
            assert_eq!(store.acl().glsns_of(&t.id).len(), 2);
            assert!(store.forget_uncommitted(committed).unwrap().is_empty());
            // The glsn is free again: the retried deposit lands.
            store.write(&t, sample_fragments(3).remove(1)).unwrap();
            observed(&store)
        };
        let restored = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
        assert_eq!(observed(&restored), live);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forged_partials_blob_cannot_poison_restore() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-partials-forged-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::read_write());
        let policy = EpochPolicy::new(Glsn(0), 4);
        {
            let mut store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
            store.write(&t, sample_fragments(1).remove(1)).unwrap();
            store.materialize_partials(EpochId(0)).unwrap();
            store.seal_epoch(EpochId(0)).unwrap();
        }
        // A compromised node appends a 0x14 blob claiming a wildly
        // different aggregate for the sealed epoch.
        {
            let mut forged = EpochPartials::empty(EpochId(0));
            forged.fragments = 99;
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal
                .append(&JournalEntry::Blob {
                    tag: 0x14,
                    bytes: forged.encode(),
                })
                .unwrap();
        }
        let store = FragmentStore::restore_with_policy(1, &path, policy).unwrap();
        let restored = store.epoch_partials(EpochId(0)).expect("partials restored");
        assert_eq!(restored.fragments, 1, "forged snapshot must be ignored");
        assert_eq!(*restored, store.compute_partials(EpochId(0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_requires_authorized_ticket() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut authority = TicketAuthority::new(&group, &mut rng);
        let user = SchnorrKeyPair::generate(&group, &mut rng);
        let writer = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let stranger = authority.issue(user.public(), OperationSet::all(), &mut rng);

        let mut store = FragmentStore::new(1);
        store.write(&writer, sample_fragments(7).remove(1)).unwrap();
        // A different ticket (no glsns authorized under it) is denied.
        assert!(store.read(&stranger, Glsn(7)).is_err());
    }

    #[test]
    fn write_only_ticket_cannot_read() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut authority = TicketAuthority::new(&group, &mut rng);
        let user = SchnorrKeyPair::generate(&group, &mut rng);
        let wo = authority.issue(
            user.public(),
            OperationSet::none().with(Operation::Write),
            &mut rng,
        );
        let mut store = FragmentStore::new(1);
        store.write(&wo, sample_fragments(7).remove(1)).unwrap();
        let err = store.read(&wo, Glsn(7)).unwrap_err();
        assert!(err.to_string().contains("does not permit R"));
    }

    #[test]
    fn delete_requires_delete_right() {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut authority = TicketAuthority::new(&group, &mut rng);
        let user = SchnorrKeyPair::generate(&group, &mut rng);
        let rw = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let all = authority.issue(user.public(), OperationSet::all(), &mut rng);

        let mut store = FragmentStore::new(1);
        store.write(&rw, sample_fragments(7).remove(1)).unwrap();
        assert!(store.delete(&rw, Glsn(7)).is_err(), "W/R cannot delete");

        let mut store2 = FragmentStore::new(1);
        store2.write(&all, sample_fragments(8).remove(1)).unwrap();
        assert!(store2.delete(&all, Glsn(8)).is_ok());
        assert!(store2.is_empty());
    }

    #[test]
    fn tamper_changes_stored_value() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(1);
        store.write(&t, sample_fragments(7).remove(1)).unwrap();
        assert!(store.tamper(Glsn(7), &"c2".into(), AttrValue::Fixed2(999_999)));
        assert_eq!(
            store.get_local(Glsn(7)).unwrap().values.get(&"c2".into()),
            Some(&AttrValue::Fixed2(999_999))
        );
        // Tampering a missing attribute or glsn reports false.
        assert!(!store.tamper(Glsn(7), &"time".into(), AttrValue::Time(0)));
        assert!(!store.tamper(Glsn(99), &"c2".into(), AttrValue::Fixed2(0)));
    }

    #[test]
    fn revision_counts_what_can_change_a_scan_of_a_sealed_epoch() {
        let t = ticket(OperationSet::all());
        let mut store = FragmentStore::new(1);
        // Deposits, standby copies and seals leave a sealed scan alone.
        store.write(&t, sample_fragments(7).remove(1)).unwrap();
        store.write(&t, sample_fragments(8).remove(1)).unwrap();
        store.store_standby(sample_fragments(7).remove(0)).unwrap();
        store
            .seal_epoch(store.epoch_policy().epoch_of(Glsn(7)))
            .unwrap();
        assert_eq!(store.revision(), 0);
        // A tamper that lands, an adoption and a tombstone do not.
        assert!(!store.tamper(Glsn(99), &"c2".into(), AttrValue::Fixed2(0)));
        assert_eq!(store.revision(), 0);
        assert!(store.tamper(Glsn(7), &"c2".into(), AttrValue::Fixed2(1)));
        assert_eq!(store.revision(), 1);
        assert_eq!(store.promote_standby(0).unwrap().len(), 1);
        assert_eq!(store.revision(), 2);
        store.delete(&t, Glsn(8)).unwrap();
        assert_eq!(store.revision(), 3);
    }

    #[test]
    fn durable_store_survives_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::read_write());
        {
            let mut store = FragmentStore::restore(1, &path).unwrap();
            assert!(store.is_durable());
            assert!(store.is_empty());
            for glsn in [3u64, 7] {
                store.write(&t, sample_fragments(glsn).remove(1)).unwrap();
            }
        }
        // "Restart": restore from the journal; data and ACL survive.
        let store = FragmentStore::restore(1, &path).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.read(&t, Glsn(3)).is_ok());
        assert!(store.read(&t, Glsn(7)).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_delete_survives_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-del-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let t = ticket(OperationSet::all());
        {
            let mut store = FragmentStore::restore(1, &path).unwrap();
            store.write(&t, sample_fragments(9).remove(1)).unwrap();
            store.delete(&t, Glsn(9)).unwrap();
        }
        let store = FragmentStore::restore(1, &path).unwrap();
        assert!(store.is_empty(), "tombstone must survive restart");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn standby_promotes_to_adopted_and_is_scanned() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(1);
        store.write(&t, sample_fragments(7).remove(1)).unwrap();
        // Hold standby copies for node 0's fragments.
        store.store_standby(sample_fragments(7).remove(0)).unwrap();
        store.store_standby(sample_fragments(8).remove(0)).unwrap();
        assert_eq!(store.standby_count(), 2);
        assert_eq!(store.adopted_count(), 0);
        // Standbys are invisible to scans.
        assert_eq!(store.scan_all().count(), 1);

        let promoted = store.promote_standby(0).unwrap();
        assert_eq!(promoted.len(), 2);
        assert_eq!(store.standby_count(), 0);
        assert_eq!(store.adopted_count(), 2);
        // Adopted fragments keep their origin node id (accumulator
        // canonical bytes unchanged) and appear in scan_all.
        let adopted = store.get_adopted(0, Glsn(7)).unwrap();
        assert_eq!(adopted.node, 0);
        assert_eq!(store.scan_all().count(), 3);
        assert_eq!(store.scan().count(), 1, "own fragments unchanged");
    }

    #[test]
    fn standby_rejects_own_fragment() {
        let mut store = FragmentStore::new(1);
        let own = sample_fragments(7).remove(1);
        assert!(store.store_standby(own.clone()).is_err());
        assert!(store.adopt(own).is_err());
    }

    #[test]
    fn standby_and_adopted_survive_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dla-store-standby-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        {
            let mut store = FragmentStore::restore(1, &path).unwrap();
            store.store_standby(sample_fragments(7).remove(0)).unwrap();
            store.store_standby(sample_fragments(8).remove(0)).unwrap();
            let _ = store.promote_standby(0).unwrap();
            store.store_standby(sample_fragments(9).remove(2)).unwrap();
        }
        let store = FragmentStore::restore(1, &path).unwrap();
        assert_eq!(store.adopted_count(), 2, "promotions survive restart");
        assert_eq!(store.standby_count(), 1, "pending standby survives");
        assert!(store.get_adopted(0, Glsn(7)).is_some());
        assert!(store.get_adopted(0, Glsn(8)).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_is_glsn_ordered() {
        let t = ticket(OperationSet::read_write());
        let mut store = FragmentStore::new(1);
        for glsn in [9u64, 3, 7] {
            store.write(&t, sample_fragments(glsn).remove(1)).unwrap();
        }
        let order: Vec<u64> = store.scan().map(|f| f.glsn.0).collect();
        assert_eq!(order, vec![3, 7, 9]);
    }
}

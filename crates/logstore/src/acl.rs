//! Tickets and access control (paper §4, Table 6).
//!
//! "Before a user `u_j ∈ U` can log (write) a message in a DLA cluster,
//! it must obtain a ticket… Each audit node maintains the same access
//! control table for every glsn. Each assigned glsn is authorized by
//! some ticket."
//!
//! Tickets here are Schnorr-signed capability statements issued by the
//! DLA cluster's authority key (a Kerberos-like TGS is out of scope and
//! would add nothing to the protocols under study).

use crate::model::Glsn;
use crate::LogError;
use dla_crypto::schnorr::{self, SchnorrGroup, SchnorrKeyPair, SchnorrPublicKey, Signature};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A ticket identifier (`T1`, `T2`, … in Table 6).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TicketId(String);

impl TicketId {
    /// Creates a ticket id.
    #[must_use]
    pub fn new(id: &str) -> Self {
        TicketId(id.to_owned())
    }

    /// The id string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TicketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The operations a ticket can authorize (read/query, write/log,
/// delete — §4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operation {
    /// Read/query stored fragments.
    Read,
    /// Write/log new fragments.
    Write,
    /// Delete fragments.
    Delete,
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Operation::Read => "R",
            Operation::Write => "W",
            Operation::Delete => "D",
        };
        write!(f, "{s}")
    }
}

/// A set of permitted operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OperationSet {
    read: bool,
    write: bool,
    delete: bool,
}

impl OperationSet {
    /// The empty set.
    #[must_use]
    pub fn none() -> Self {
        OperationSet::default()
    }

    /// Read + write (the Table 6 `W/R` type).
    #[must_use]
    pub fn read_write() -> Self {
        OperationSet {
            read: true,
            write: true,
            delete: false,
        }
    }

    /// All operations.
    #[must_use]
    pub fn all() -> Self {
        OperationSet {
            read: true,
            write: true,
            delete: true,
        }
    }

    /// Adds an operation.
    #[must_use]
    pub fn with(mut self, op: Operation) -> Self {
        match op {
            Operation::Read => self.read = true,
            Operation::Write => self.write = true,
            Operation::Delete => self.delete = true,
        }
        self
    }

    /// Whether `op` is permitted.
    #[must_use]
    pub fn allows(&self, op: Operation) -> bool {
        match op {
            Operation::Read => self.read,
            Operation::Write => self.write,
            Operation::Delete => self.delete,
        }
    }

    /// Canonical encoding byte for signing.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        u8::from(self.read) | (u8::from(self.write) << 1) | (u8::from(self.delete) << 2)
    }

    /// Inverts [`to_byte`](Self::to_byte) (journal recovery).
    #[must_use]
    pub fn from_byte(byte: u8) -> Self {
        OperationSet {
            read: byte & 1 != 0,
            write: byte & 2 != 0,
            delete: byte & 4 != 0,
        }
    }
}

impl fmt::Display for OperationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.write {
            parts.push("W");
        }
        if self.read {
            parts.push("R");
        }
        if self.delete {
            parts.push("D");
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join("/"))
        }
    }
}

/// A signed ticket: (id, holder key, operations) certified by the DLA
/// authority.
#[derive(Clone, Debug)]
pub struct Ticket {
    /// Ticket identifier.
    pub id: TicketId,
    /// The holder's public key (presented on use).
    pub holder: SchnorrPublicKey,
    /// Authorized operations.
    pub ops: OperationSet,
    /// Authority signature over (id ‖ holder ‖ ops).
    pub signature: Signature,
}

impl Ticket {
    fn signed_content(id: &TicketId, holder: &SchnorrPublicKey, ops: OperationSet) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"dla-ticket");
        out.extend_from_slice(id.as_str().as_bytes());
        out.push(0);
        out.extend_from_slice(&holder.to_bytes());
        out.push(ops.to_byte());
        out
    }

    /// Verifies the authority certification.
    #[must_use]
    pub fn verify(&self, group: &SchnorrGroup, authority: &SchnorrPublicKey) -> bool {
        schnorr::verify(
            group,
            authority,
            &Self::signed_content(&self.id, &self.holder, self.ops),
            &self.signature,
        )
    }
}

/// The DLA cluster's ticket-granting authority.
pub struct TicketAuthority {
    key: SchnorrKeyPair,
    issued: u64,
}

impl fmt::Debug for TicketAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TicketAuthority(issued: {})", self.issued)
    }
}

impl TicketAuthority {
    /// Creates an authority with a fresh key.
    pub fn new<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        TicketAuthority {
            key: SchnorrKeyPair::generate(group, rng),
            issued: 0,
        }
    }

    /// The verification key every DLA node holds.
    #[must_use]
    pub fn public(&self) -> &SchnorrPublicKey {
        self.key.public()
    }

    /// Number of tickets issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Advances the id counter past a recovered high-water mark so
    /// ticket ids issued after a restart never collide with pre-restart
    /// ids still present in recovered access-control tables.
    pub fn resume_from(&mut self, issued: u64) {
        self.issued = self.issued.max(issued);
    }

    /// Issues a ticket to `holder` with the given operations.
    pub fn issue<R: Rng + ?Sized>(
        &mut self,
        holder: &SchnorrPublicKey,
        ops: OperationSet,
        rng: &mut R,
    ) -> Ticket {
        self.issued += 1;
        let id = TicketId::new(&format!("T{}", self.issued));
        let signature = self
            .key
            .sign(&Ticket::signed_content(&id, holder, ops), rng);
        Ticket {
            id,
            holder: holder.clone(),
            ops,
            signature,
        }
    }
}

/// The per-glsn access-control table every DLA node replicates
/// (Table 6): `ticket id → (operations, authorized glsns)`.
#[derive(Clone, Debug, Default)]
pub struct AccessControlTable {
    entries: BTreeMap<TicketId, (OperationSet, BTreeSet<Glsn>)>,
}

impl AccessControlTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        AccessControlTable::default()
    }

    /// Records that `glsn` was assigned under `ticket`.
    pub fn authorize(&mut self, ticket: &Ticket, glsn: Glsn) {
        self.authorize_parts(ticket.id.clone(), ticket.ops, glsn);
    }

    /// Raw authorization record (journal recovery, where the original
    /// ticket object is not materialized).
    pub fn authorize_parts(&mut self, id: TicketId, ops: OperationSet, glsn: Glsn) {
        let entry = self
            .entries
            .entry(id)
            .or_insert_with(|| (ops, BTreeSet::new()));
        entry.1.insert(glsn);
    }

    /// Drops `glsn` from every ticket's authorization set (and a ticket
    /// left with none), as if it had never been granted — the ACL half
    /// of rolling back a deposit that never committed.
    pub fn forget(&mut self, glsn: Glsn) {
        self.entries.retain(|_, (_, glsns)| {
            glsns.remove(&glsn);
            !glsns.is_empty()
        });
    }

    /// Checks whether `ticket` may perform `op` on `glsn`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::AccessDenied`] describing the failure.
    pub fn check(&self, ticket: &Ticket, op: Operation, glsn: Glsn) -> Result<(), LogError> {
        let Some((ops, glsns)) = self.entries.get(&ticket.id) else {
            return Err(LogError::AccessDenied(format!(
                "ticket {} unknown to the access table",
                ticket.id
            )));
        };
        if !ops.allows(op) {
            return Err(LogError::AccessDenied(format!(
                "ticket {} does not permit {op}",
                ticket.id
            )));
        }
        if !glsns.contains(&glsn) {
            return Err(LogError::AccessDenied(format!(
                "ticket {} not authorized for glsn {glsn}",
                ticket.id
            )));
        }
        Ok(())
    }

    /// The glsn set authorized under a ticket id — the per-ticket
    /// authorization sets whose cross-node consistency §4.1 checks with
    /// secure set intersection.
    #[must_use]
    pub fn glsns_of(&self, id: &TicketId) -> BTreeSet<Glsn> {
        self.entries
            .get(id)
            .map(|(_, g)| g.clone())
            .unwrap_or_default()
    }

    /// Iterates entries in ticket order (Table 6 layout).
    pub fn iter(&self) -> impl Iterator<Item = (&TicketId, &OperationSet, &BTreeSet<Glsn>)> + '_ {
        self.entries.iter().map(|(id, (ops, g))| (id, ops, g))
    }

    /// Number of tickets known to the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (
        SchnorrGroup,
        TicketAuthority,
        SchnorrKeyPair,
        rand::rngs::StdRng,
    ) {
        let group = SchnorrGroup::fixed_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let authority = TicketAuthority::new(&group, &mut rng);
        let user = SchnorrKeyPair::generate(&group, &mut rng);
        (group, authority, user, rng)
    }

    #[test]
    fn issued_tickets_verify() {
        let (group, mut authority, user, mut rng) = setup();
        let t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        assert!(t.verify(&group, authority.public()));
        assert_eq!(t.id.as_str(), "T1");
    }

    #[test]
    fn tampered_ticket_rejected() {
        let (group, mut authority, user, mut rng) = setup();
        let mut t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        t.ops = OperationSet::all(); // privilege escalation attempt
        assert!(!t.verify(&group, authority.public()));
    }

    #[test]
    fn ticket_ids_increment() {
        let (_, mut authority, user, mut rng) = setup();
        let t1 = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let t2 = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        assert_eq!(t1.id.as_str(), "T1");
        assert_eq!(t2.id.as_str(), "T2");
    }

    #[test]
    fn operation_set_semantics() {
        let rw = OperationSet::read_write();
        assert!(rw.allows(Operation::Read));
        assert!(rw.allows(Operation::Write));
        assert!(!rw.allows(Operation::Delete));
        assert_eq!(rw.to_string(), "W/R");
        assert_eq!(OperationSet::none().to_string(), "-");
        assert_eq!(OperationSet::all().to_string(), "W/R/D");
        let custom = OperationSet::none().with(Operation::Delete);
        assert!(custom.allows(Operation::Delete));
        assert!(!custom.allows(Operation::Read));
    }

    #[test]
    fn operation_set_bytes_distinct() {
        let sets = [
            OperationSet::none(),
            OperationSet::read_write(),
            OperationSet::all(),
            OperationSet::none().with(Operation::Read),
            OperationSet::none().with(Operation::Write),
            OperationSet::none().with(Operation::Delete),
        ];
        let bytes: std::collections::HashSet<u8> = sets.iter().map(|s| s.to_byte()).collect();
        assert_eq!(bytes.len(), sets.len());
    }

    #[test]
    fn acl_authorize_then_check() {
        let (_, mut authority, user, mut rng) = setup();
        let t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let mut acl = AccessControlTable::new();
        acl.authorize(&t, Glsn(0x139a_ef78));
        acl.authorize(&t, Glsn(0x139a_ef80));
        assert!(acl.check(&t, Operation::Read, Glsn(0x139a_ef78)).is_ok());
        assert!(acl.check(&t, Operation::Write, Glsn(0x139a_ef80)).is_ok());
    }

    #[test]
    fn acl_denies_unknown_ticket() {
        let (_, mut authority, user, mut rng) = setup();
        let t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let acl = AccessControlTable::new();
        let err = acl.check(&t, Operation::Read, Glsn(1)).unwrap_err();
        assert!(err.to_string().contains("unknown"));
    }

    #[test]
    fn acl_denies_wrong_operation() {
        let (_, mut authority, user, mut rng) = setup();
        let t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let mut acl = AccessControlTable::new();
        acl.authorize(&t, Glsn(1));
        let err = acl.check(&t, Operation::Delete, Glsn(1)).unwrap_err();
        assert!(err.to_string().contains("does not permit D"));
    }

    #[test]
    fn acl_denies_foreign_glsn() {
        let (_, mut authority, user, mut rng) = setup();
        let t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let mut acl = AccessControlTable::new();
        acl.authorize(&t, Glsn(1));
        let err = acl.check(&t, Operation::Read, Glsn(2)).unwrap_err();
        assert!(err.to_string().contains("not authorized for glsn"));
    }

    #[test]
    fn forget_drops_the_glsn_and_an_emptied_ticket() {
        let (_, mut authority, user, mut rng) = setup();
        let t1 = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let t2 = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let mut acl = AccessControlTable::new();
        acl.authorize(&t1, Glsn(1));
        acl.authorize(&t1, Glsn(2));
        acl.authorize(&t2, Glsn(2));
        acl.forget(Glsn(2));
        assert!(acl.check(&t1, Operation::Read, Glsn(1)).is_ok());
        assert!(acl.check(&t1, Operation::Read, Glsn(2)).is_err());
        // A ticket left with nothing is gone, as on a replica that never
        // saw the grant.
        assert_eq!(acl.len(), 1);
    }

    #[test]
    fn glsns_of_returns_authorization_set() {
        let (_, mut authority, user, mut rng) = setup();
        let t = authority.issue(user.public(), OperationSet::read_write(), &mut rng);
        let mut acl = AccessControlTable::new();
        acl.authorize(&t, Glsn(2));
        acl.authorize(&t, Glsn(1));
        let set = acl.glsns_of(&t.id);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![Glsn(1), Glsn(2)]);
        assert!(acl.glsns_of(&TicketId::new("T99")).is_empty());
    }
}

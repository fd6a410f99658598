//! Who was issued what: the user registry owns the ticket authority,
//! the capacity and the endpoint rule, and does no I/O.
//! [`crate::cluster::DlaCluster::register_user`] journals the ticket
//! counter between [`UserRegistry::admit`] and [`UserRegistry::issue`].

use crate::AuditError;
use dla_crypto::schnorr::{SchnorrGroup, SchnorrKeyPair};
use dla_logstore::acl::{OperationSet, Ticket, TicketAuthority};
use dla_net::NodeId;
use rand::rngs::StdRng;

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

/// The user registry. Its count is the authority's ticket counter, so
/// the capacity bounds the cluster's whole life, restarts included.
pub(crate) struct UserRegistry {
    authority: TicketAuthority,
    capacity: u64,
    nodes: usize,
}

impl UserRegistry {
    /// A registry for `capacity` users of `nodes` nodes, its authority
    /// key drawn from `rng`.
    pub(crate) fn new(
        group: &SchnorrGroup,
        rng: &mut StdRng,
        capacity: usize,
        nodes: usize,
    ) -> Self {
        let authority = TicketAuthority::new(group, rng);
        let capacity = capacity as u64;
        UserRegistry {
            authority,
            capacity,
            nodes,
        }
    }

    /// The endpoint of ticket number `index` (from 0): past the nodes,
    /// the auditor engine and the blind TTP. That of the capacity is the
    /// network's size.
    pub(crate) fn endpoint(&self, index: u64) -> NodeId {
        NodeId(self.nodes + 2 + index as usize)
    }

    /// The ticket counter the next registration journals, or a refusal
    /// once the capacity is spent.
    pub(crate) fn admit(&self) -> Result<u64, AuditError> {
        let issued = self.authority.issued();
        if issued >= self.capacity {
            let capacity = self.capacity;
            return Err(AuditError::Config(format!(
                "user capacity {capacity} exhausted"
            )));
        }
        Ok(issued + 1)
    }

    /// Issues the user `admit` passed, once the journal holds its
    /// counter: draws its key and its read/write ticket.
    pub(crate) fn issue(&mut self, name: &str, group: &SchnorrGroup, rng: &mut StdRng) -> AppUser {
        let node = self.endpoint(self.authority.issued());
        let key = SchnorrKeyPair::generate(group, rng);
        let ticket = (self.authority).issue(key.public(), OperationSet::read_write(), rng);
        let name = name.to_owned();
        AppUser {
            name,
            node,
            ticket,
            key,
        }
    }

    /// Replays a journaled ticket counter; a lower one never rewinds it.
    pub(crate) fn resume(&mut self, issued: u64) {
        self.authority.resume_from(issued);
    }

    /// How many users were ever issued.
    pub(crate) fn count(&self) -> u64 {
        self.authority.issued()
    }
}

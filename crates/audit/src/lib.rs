#![deny(rust_2018_idioms)]

//! The DLA cluster core: confidential logging and auditing for
//! distributed systems.
//!
//! This crate assembles the substrates (`dla-crypto`, `dla-net`,
//! `dla-logstore`, `dla-mpc`) into the system the paper proposes:
//!
//! * [`cluster`] — the TTP cluster itself: fragment-storing nodes,
//!   ticketed users, the auditor engine (Fig. 2).
//! * [`query`], [`parser`], [`normal`], [`plan`], [`exec`] — the
//!   confidential query pipeline: criteria → conjunctive form → local
//!   vs. cross subqueries → relaxed-secure-computation execution with
//!   the final glsn-keyed secure set intersection (Fig. 3). One front
//!   door ([`plan::compile`] then [`cluster::DlaCluster::plan`]) and
//!   one executor ([`exec::execute_on`]) serve every auditor operation;
//!   [`kept`] is what the auditor engine remembers of the answers
//!   revealed to it, so a sealed epoch is asked once.
//! * [`integrity`] — one-way-accumulator integrity circulation and
//!   ACL consistency checking (§4.1).
//! * [`membership`] — the anonymous-but-accountable evidence chain
//!   with double-use identity exposure (§4.2, Figs. 6–7).
//! * [`metrics`] — the confidentiality metrics `C_store`,
//!   `C_auditing`, `C_query`, `C_DLA` (§5, Eqs. 10–13).
//! * [`meta`] — the tamper-evident meta-audit trail of the cluster's
//!   own actions (a position-bound SHA-256 hash chain).
//! * [`centralized`] — the Figure 1 single-auditor baseline.
//!
//! # Examples
//!
//! ```
//! use dla_audit::cluster::{ClusterConfig, DlaCluster};
//! use dla_logstore::fragment::Partition;
//! use dla_logstore::gen::paper_table1;
//! use dla_logstore::schema::Schema;
//!
//! # fn main() -> Result<(), dla_audit::AuditError> {
//! let schema = Schema::paper_example();
//! let partition = Partition::paper_example(&schema);
//! let mut cluster = DlaCluster::new(
//!     ClusterConfig::new(4, schema).with_partition(partition).with_seed(1),
//! )?;
//! let user = cluster.register_user("u0")?;
//! cluster.log_records(&user, &paper_table1())?;
//!
//! // A confidential audit: which transactions moved more than 100.00?
//! let result = cluster.query("c2 > 100.00")?;
//! assert_eq!(result.glsns.len(), 3);
//! # Ok(())
//! # }
//! ```

use std::fmt;

pub mod adversary;
pub mod aggregate;
pub mod attest;
pub mod centralized;
pub mod cluster;
pub mod correlate;
pub mod deploy;
pub mod exec;
pub mod federation;
pub mod health;
pub mod integrity;
pub mod kept;
pub mod membership;
pub mod meta;
pub mod metrics;
pub mod normal;
pub mod parser;
pub mod plan;
pub mod query;
pub mod standing;
pub mod transaction;

/// Errors surfaced by the auditing core.
#[derive(Debug)]
#[non_exhaustive]
pub enum AuditError {
    /// Invalid cluster configuration.
    Config(String),
    /// Query parsing or type-checking failure.
    Parse(String),
    /// Query planning failure.
    Planning(String),
    /// Logging/storage failure.
    Log(String),
    /// Integrity-check failure (protocol level, not a tamper verdict).
    Integrity(String),
    /// Membership/evidence-chain verification failure.
    Membership(String),
    /// An MPC sub-protocol failed.
    Mpc(dla_mpc::MpcError),
    /// A network operation failed.
    Net(dla_net::NetError),
    /// A peer's frame arrived intact but does not decode as the message
    /// the exchange expects: truncated, trailing bytes, or another
    /// message's tag.
    Wire(String),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Config(msg) => write!(f, "configuration error: {msg}"),
            AuditError::Parse(msg) => write!(f, "query error: {msg}"),
            AuditError::Planning(msg) => write!(f, "planning error: {msg}"),
            AuditError::Log(msg) => write!(f, "logging error: {msg}"),
            AuditError::Integrity(msg) => write!(f, "integrity error: {msg}"),
            AuditError::Membership(msg) => write!(f, "membership error: {msg}"),
            AuditError::Mpc(e) => write!(f, "secure-computation error: {e}"),
            AuditError::Net(e) => write!(f, "network error: {e}"),
            AuditError::Wire(msg) => write!(f, "wire error: {msg}"),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Mpc(e) => Some(e),
            AuditError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dla_mpc::MpcError> for AuditError {
    fn from(e: dla_mpc::MpcError) -> Self {
        AuditError::Mpc(e)
    }
}

impl From<dla_net::NetError> for AuditError {
    fn from(e: dla_net::NetError) -> Self {
        AuditError::Net(e)
    }
}

impl From<dla_net::wire::WireError> for AuditError {
    fn from(e: dla_net::wire::WireError) -> Self {
        AuditError::Wire(e.to_string())
    }
}

/// Opens a frame received from a peer: a reader positioned behind the
/// leading tag byte, which must be the one this leg of the exchange
/// expects — a well-formed frame of another message kind is as garbled
/// an answer as a truncated one.
pub(crate) fn open_frame(
    payload: &[u8],
    expected: u8,
) -> Result<dla_net::wire::Reader<'_>, AuditError> {
    let mut r = dla_net::wire::Reader::new(payload);
    let tag = r.get_u8()?;
    if tag != expected {
        return Err(AuditError::Wire(format!(
            "expected frame tag {expected:#04x}, found {tag:#04x}"
        )));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_variants() {
        assert!(AuditError::Config("x".into())
            .to_string()
            .starts_with("configuration error"));
        assert!(AuditError::Membership("y".into())
            .to_string()
            .contains("membership"));
        let e: AuditError = dla_net::NetError::EmptyInbox(dla_net::NodeId(0)).into();
        assert!(e.to_string().contains("network error"));
    }

    #[test]
    fn a_frame_opens_only_against_its_own_tag() {
        let mut r = open_frame(&[0x70, 0x00], 0x70).unwrap();
        assert_eq!(r.get_u8().unwrap(), 0);
        for (frame, tag) in [(&[0x71u8, 0x00][..], 0x70), (&[][..], 0x70)] {
            let err = open_frame(frame, tag).unwrap_err();
            assert!(matches!(err, AuditError::Wire(_)), "{err}");
        }
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error;
        let e: AuditError = dla_mpc::MpcError::Protocol("p".into()).into();
        assert!(e.source().is_some());
        assert!(AuditError::Parse("p".into()).source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AuditError>();
    }
}

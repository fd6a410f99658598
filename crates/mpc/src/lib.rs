#![deny(rust_2018_idioms)]

//! Relaxed secure multiparty computation (paper §3).
//!
//! The paper's Definition 1 *relaxes* classical zero-disclosure MPC:
//! only selected observers receive the result `w`, a (blind) TTP may
//! coordinate, and *secondary* information about the inputs (set sizes,
//! packet counts) may leak — the data itself may not. Under that
//! relaxation, every auditing operator the DLA cluster needs becomes a
//! handful of ring relays or a single TTP round:
//!
//! | Operator | Module | Mechanism |
//! |---|---|---|
//! | `∩_s` secure set intersection | [`set_intersection`] | commutative-cipher ring relay (Fig. 4) |
//! | `∪_s` secure set union | [`set_union`] | commutative-cipher relay + dedup + ring decrypt |
//! | `Σ_s` secure (weighted) sum | [`sum`] | additive Shamir shares (§3.5) |
//! | `=_s` secure equality | [`equality`] | randomized affine mapping + blind TTP (§3.2) |
//! | `Max_s`/`Min_s`/`Rank_s` | [`ranking`] | order-preserving masking + blind TTP (§3.3) |
//!
//! [`baseline`] implements the **classical** comparators the paper
//! argues against (Feldman-VSS verified sharing with result broadcast;
//! pairwise two-party comparison tournaments built on the Lin–Tzeng
//! reduction) plus an insecure plaintext reference, so the cost gap the
//! paper claims is measurable — see `dla-bench`.
//!
//! Every protocol is a *session struct* — its fields are the protocol's
//! parameters, its `run` is the protocol body — bound to a
//! [`dla_net::Session`], the one door to the wire: the same code runs
//! over the virtual-time simulator ([`dla_net::SharedNet`]), OS threads
//! ([`dla_net::ChannelNet`]) and sockets ([`dla_net::TcpNet`]), a frame
//! corrupted in flight is refused by the session before a protocol sees
//! it, and every message and byte is accounted per session; see
//! [`report::ProtocolReport`].

use std::fmt;

pub mod baseline;
pub mod equality;
pub mod ranking;
pub mod report;
pub mod set_intersection;
pub mod set_union;
pub mod sum;

pub use equality::EqualitySession;
pub use ranking::RankingSession;
pub use report::ProtocolReport;
pub use set_intersection::SsiSession;
pub use set_union::UnionSession;
pub use sum::SumSession;

/// Errors surfaced by MPC protocol runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpcError {
    /// Network failure (usually a dropped message in a deterministic
    /// protocol script).
    Net(dla_net::NetError),
    /// Cryptographic parameter/verification failure.
    Crypto(dla_crypto::CryptoError),
    /// A malformed protocol message.
    Wire(String),
    /// A protocol invariant was violated (wrong sender, inconsistent
    /// shares, failed verification…).
    Protocol(String),
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::Net(e) => write!(f, "network error: {e}"),
            MpcError::Crypto(e) => write!(f, "crypto error: {e}"),
            MpcError::Wire(msg) => write!(f, "wire error: {msg}"),
            MpcError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for MpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpcError::Net(e) => Some(e),
            MpcError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dla_net::NetError> for MpcError {
    fn from(e: dla_net::NetError) -> Self {
        MpcError::Net(e)
    }
}

impl From<dla_crypto::CryptoError> for MpcError {
    fn from(e: dla_crypto::CryptoError) -> Self {
        MpcError::Crypto(e)
    }
}

impl From<dla_net::wire::WireError> for MpcError {
    fn from(e: dla_net::wire::WireError) -> Self {
        MpcError::Wire(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let net: MpcError = dla_net::NetError::EmptyInbox(dla_net::NodeId(1)).into();
        assert!(net.to_string().contains("network error"));
        let crypto: MpcError = dla_crypto::CryptoError::InvalidParameter("x").into();
        assert!(crypto.to_string().contains("crypto error"));
        let proto = MpcError::Protocol("bad round".into());
        assert_eq!(proto.to_string(), "protocol error: bad round");
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let e: MpcError = dla_net::NetError::EmptyInbox(dla_net::NodeId(0)).into();
        assert!(e.source().is_some());
        assert!(MpcError::Wire("w".into()).source().is_none());
    }
}

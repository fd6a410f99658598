#![deny(rust_2018_idioms)]

//! Cluster networking for the DLA system: three transports behind one
//! trait.
//!
//! The paper assumes "message routing is handled by the lower network
//! layer" (§3.1); this crate *is* that layer. Protocol code talks to a
//! [`session::Session`] on a [`session::Transport`], and there are
//! exactly three ways a message can move:
//!
//! * [`sim::SimNet`] behind [`session::SharedNet`] — a deterministic
//!   virtual-time simulator with latency models
//!   ([`latency::LatencyModel`]), fault injection
//!   ([`fault::FaultPlan`]) and complete traffic accounting
//!   ([`stats::TrafficStats`]). All protocol experiments run on it.
//! * [`session::ChannelNet`] — a crossbeam-channel transport for
//!   running nodes as real OS threads; every message crosses the wire
//!   codec.
//! * [`tcp::TcpNet`] — a socket transport for running nodes as separate
//!   OS *processes* over loopback (or a real network), driven by the
//!   pluggable [`time::Clock`] runtime.
//!
//! Two decorators wrap any of them: [`reliable::Reliable`] (ARQ) and
//! [`adversary::AdversaryNet`] (Byzantine interposition). Beside them,
//! [`topology::Ring`] is the relay route of the commutative-encryption
//! protocols and [`wire`] the length-prefixed binary message format.
//!
//! # Examples
//!
//! ```
//! use dla_net::sim::{NetConfig, SimNet};
//! use dla_net::topology::Ring;
//! use dla_net::NodeId;
//! use bytes::Bytes;
//!
//! // Pass a token once around a 4-node ring and measure traffic.
//! let mut net = SimNet::new(4, NetConfig::ideal());
//! let ring = Ring::canonical(4);
//! let mut holder = NodeId(0);
//! net.send(holder, ring.next(holder), Bytes::from_static(b"token"));
//! for _ in 0..4 {
//!     let next = ring.next(holder);
//!     let msg = net.recv(next)?;
//!     holder = next;
//!     net.send(holder, ring.next(holder), msg.payload);
//! }
//! assert_eq!(net.stats().messages_sent, 5);
//! # Ok::<(), dla_net::NetError>(())
//! ```

use std::fmt;

pub mod adversary;
pub mod fault;
pub mod latency;
pub mod reliable;
pub mod session;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod wire;

pub use adversary::{Adversary, AdversaryNet, ScriptedAdversary, Tamper, TamperRule};
pub use reliable::{Reliable, ReliableConfig, ReliableStats};
pub use session::{ChannelNet, Session, SharedNet, Transport};
pub use sim::{Envelope, NetConfig, SimNet};
pub use tcp::{NodeConfig, NodeReport, TcpConfig, TcpNet};
pub use time::{Clock, SimTime, VirtualClock, WallClock};

/// Identifies one protocol session multiplexed over a network.
///
/// Every message carries a session id (it is part of the wire format —
/// see [`Envelope::encode`]) so several protocol instances can be in
/// flight over one transport at the same time: inboxes, virtual clocks
/// and traffic accounting are all partitioned by session. Session
/// [`SessionId::ROOT`] is where one-at-a-time traffic runs (see
/// [`Session::root`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The session of a transport's one-at-a-time traffic: what
    /// [`Session::root`] binds, and what [`SimNet`]'s session-less
    /// `send`/`recv` conveniences address.
    pub const ROOT: SessionId = SessionId(0);
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Identifies a node in a network (index into the node table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Errors surfaced by the network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// `recv` found no pending message (in deterministic protocols this
    /// means a message was dropped by fault injection).
    EmptyInbox(NodeId),
    /// `recv_from` found a message from an unexpected peer.
    UnexpectedSender {
        /// The receiving node.
        node: NodeId,
        /// Who the protocol expected.
        expected: NodeId,
        /// Who actually sent the earliest pending message.
        actual: NodeId,
    },
    /// A blocking `recv` on a threaded transport gave up waiting.
    Timeout(NodeId),
    /// A received message failed its payload checksum — corrupted in
    /// flight. The garbage is consumed (dropped), never delivered.
    Corrupt(NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::EmptyInbox(node) => write!(f, "no pending message at {node}"),
            NetError::UnexpectedSender {
                node,
                expected,
                actual,
            } => write!(
                f,
                "{node} expected a message from {expected} but found one from {actual}"
            ),
            NetError::Timeout(node) => write!(f, "recv timed out at {node}"),
            NetError::Corrupt(node) => {
                write!(f, "{node} received a message that failed its checksum")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversions() {
        let n = NodeId::from(3);
        assert_eq!(n.to_string(), "P3");
        assert_eq!(n.index(), 3);
    }

    #[test]
    fn net_error_display() {
        assert_eq!(
            NetError::EmptyInbox(NodeId(2)).to_string(),
            "no pending message at P2"
        );
        let e = NetError::UnexpectedSender {
            node: NodeId(0),
            expected: NodeId(1),
            actual: NodeId(2),
        };
        assert!(e.to_string().contains("expected a message from P1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}

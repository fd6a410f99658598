#![deny(rust_2018_idioms)]

//! # confidential-audit
//!
//! A full Rust reproduction of *On the Confidential Auditing of
//! Distributed Computing Systems* (Shen, Liu, Zhao — Texas A&M TR
//! 2003-8-2 / ICDCS 2004): a cluster-based trusted-third-party (TTP)
//! architecture for **distributed logging and auditing (DLA)** in which
//! no single node ever holds a complete log record, yet auditors can
//! evaluate aggregate queries through *relaxed secure multiparty
//! computation*.
//!
//! This facade crate re-exports the individual subsystem crates:
//!
//! * [`bigint`] — hand-rolled arbitrary-precision modular arithmetic.
//! * [`crypto`] — commutative (Pohlig–Hellman) encryption, one-way
//!   accumulators, Shamir secret sharing and Schnorr signatures.
//! * [`net`] — the simulated cluster message network.
//! * [`logstore`] — the event-log model, fragmentation and access control.
//! * [`mpc`] — relaxed secure multiparty primitives.
//! * [`audit`] — the DLA cluster core: query processing, integrity
//!   checking and confidentiality metrics.
//! * [`telemetry`] — virtual-time span tracing, crypto/network cost
//!   accounting and the tamper-evident meta-audit journal.
//!
//! # Quickstart
//!
//! ```
//! use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
//! use confidential_audit::logstore::schema::Schema;
//!
//! // Build a 4-node DLA cluster over the paper's Table 1 schema and
//! // verify that no node supports every attribute.
//! let schema = Schema::paper_example();
//! let cluster = DlaCluster::new(ClusterConfig::new(4, schema).with_seed(7))?;
//! for node in cluster.nodes() {
//!     assert!(node.supported_attributes().len() < cluster.schema().len());
//! }
//! # Ok::<(), confidential_audit::audit::AuditError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! experiment harness regenerating every table and figure of the paper.
//! The paper's mechanisms no deployment runs yet — the evidence chain,
//! threshold attestation and the classical baselines — live there too,
//! in `dla_bench::paper`, beside the figures that use them.

pub use dla_audit as audit;
pub use dla_bigint as bigint;
pub use dla_crypto as crypto;
pub use dla_logstore as logstore;
pub use dla_mpc as mpc;
pub use dla_net as net;
pub use dla_telemetry as telemetry;

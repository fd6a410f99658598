//! The 7-process loopback `dla-node` mesh (4 DLA nodes, auditor,
//! blind-TTP helper, user endpoint) and the coordinator's `TcpNet`.
//! Dropping a [`Mesh`] kills every child that is still running, so a
//! panic or a failed check never leaves a `dla-node` behind.

use dla_deploy::{locate_node_bin, ChildNode, PeerTable};
use dla_net::tcp::{TcpConfig, TcpNet};
use dla_net::{NodeReport, SimTime};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// DLA nodes in every cluster of the benchmark.
pub const NODES: usize = 4;
/// Network size: the DLA nodes, the auditor, the TTP, one user.
pub const NETWORK: usize = NODES + 3;

/// Identity key `dla-node` `id` is launched with (seeds its digest).
pub fn node_key(id: usize) -> u64 {
    1000 + id as u64
}

pub struct Mesh {
    children: Children,
    /// The coordinator's transport; every hop crosses the processes.
    pub net: TcpNet,
    /// Milliseconds each `ChildNode::spawn` took.
    pub spawn_ms: Vec<f64>,
    /// Milliseconds `TcpNet::connect` took.
    pub connect_ms: f64,
}

impl Mesh {
    /// Spawns the processes and connects to them. Fails (never falls
    /// back to threads) when the `dla-node` binary cannot be found.
    pub fn launch() -> Result<Mesh, String> {
        let bin = locate_node_bin().ok_or(
            "cannot locate the dla-node binary: run through benchmark/run.sh, \
             or set DLA_NODE_BIN",
        )?;
        // Children are owned by the guard from the first spawn on, so
        // an error half way tears the earlier ones down; the mesh then
        // keeps the guard.
        let mut guard = Children(Vec::new());
        let mut spawn_ms = Vec::new();
        for id in 0..NETWORK {
            let role = match id {
                i if i < NODES => "app",
                i if i == NODES => "auditor",
                i if i == NODES + 1 => "ttp",
                _ => "user",
            };
            let started = Instant::now();
            let child = ChildNode::spawn(&bin, id, role, node_key(id))
                .map_err(|e| format!("spawning node {id}: {e}"))?;
            spawn_ms.push(started.elapsed().as_secs_f64() * 1e3);
            guard.0.push(child);
        }
        let table = PeerTable(guard.0.iter().map(|c| Some(c.addr)).collect());
        for child in &mut guard.0 {
            child
                .send_peers(&table)
                .map_err(|e| format!("sending peer table to node {}: {e}", child.id))?;
        }
        let started = Instant::now();
        let net = TcpNet::connect(
            &table.0,
            BTreeSet::new(),
            TcpConfig {
                timeout: SimTime::from_millis(10_000),
                ..TcpConfig::default()
            },
        )
        .map_err(|e| format!("connecting to the mesh: {e}"))?;
        let connect_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(Mesh {
            children: guard,
            net,
            spawn_ms,
            connect_ms,
        })
    }

    /// Clean teardown: SHUTDOWN/BYE on every connection, then each
    /// child's printed `REPORT` must equal its farewell. Returns the
    /// reports by node id.
    pub fn finish(mut self) -> Result<Vec<NodeReport>, String> {
        let byes = self.net.shutdown();
        if byes.len() != NETWORK {
            return Err(format!(
                "expected {NETWORK} BYE reports, got {}",
                byes.len()
            ));
        }
        let mut failures = Vec::new();
        for child in std::mem::take(&mut self.children.0) {
            let id = child.id;
            match child.finish(Duration::from_secs(10)) {
                Ok(report) if byes.contains(&report) => {}
                Ok(report) => failures.push(format!(
                    "node {id}: printed report {report:?} differs from its farewell"
                )),
                Err(e) => failures.push(format!("node {id}: {e}")),
            }
        }
        if failures.is_empty() {
            Ok(byes)
        } else {
            Err(failures.join("; "))
        }
    }
}

/// Kills (and reaps) whatever children it still holds when dropped.
struct Children(Vec<ChildNode>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            child.kill();
        }
    }
}

//! Cluster health: heartbeat probing with a suspicion-based failure
//! detector.
//!
//! The auditor periodically pings every DLA node on a dedicated
//! session. A node that answers is `Alive`; consecutive missed probes
//! accumulate suspicion until the node is declared `Dead`. Death is
//! sticky — once declared, the node is excluded from probing and the
//! survivor set, and recovery flows through re-replication
//! ([`crate::cluster::DlaCluster::rereplicate`]) rather than silent
//! rejoin.

use std::collections::BTreeSet;

use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session, SessionId, SimTime, Transport};

use crate::cluster::DlaCluster;
use crate::AuditError;

/// Heartbeat request tag (auditor → DLA node).
pub const TAG_PING: u8 = 0x50;
/// Heartbeat response tag (DLA node → auditor).
pub const TAG_PONG: u8 = 0x51;

/// Consecutive missed probes before a node is declared dead.
pub const SUSPICION_THRESHOLD: u32 = 3;
/// Virtual time the auditor waits out for each missed probe.
pub const PROBE_TIMEOUT: SimTime = SimTime::from_micros(500);

/// Detector verdict for one DLA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Responded to the most recent probe.
    Alive,
    /// Missed `misses` consecutive probes but is not yet declared dead.
    Suspected {
        /// Consecutive missed probes so far.
        misses: u32,
    },
    /// Missed [`SUSPICION_THRESHOLD`] consecutive probes
    /// (or was declared dead explicitly). Terminal.
    Dead,
}

/// Heartbeat-driven failure detector over a cluster's DLA nodes.
///
/// Probes run on a dedicated network session so heartbeat traffic and
/// its virtual-time cost never mix with query or audit accounting.
#[derive(Debug)]
pub struct HealthMonitor {
    session: SessionId,
    statuses: Vec<NodeStatus>,
    rounds: u64,
}

impl HealthMonitor {
    /// Opens a dedicated heartbeat session on `cluster`'s network.
    #[must_use]
    pub fn new(cluster: &DlaCluster) -> Self {
        let session = cluster.net().open_session();
        HealthMonitor {
            session,
            statuses: vec![NodeStatus::Alive; cluster.num_nodes()],
            rounds: 0,
        }
    }

    /// The dedicated heartbeat session id.
    #[must_use]
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Detector state for `node`.
    #[must_use]
    pub fn status(&self, node: usize) -> NodeStatus {
        self.statuses[node]
    }

    /// Whether `node` has been declared dead.
    #[must_use]
    pub fn is_dead(&self, node: usize) -> bool {
        self.statuses[node] == NodeStatus::Dead
    }

    /// Indices of nodes not declared dead.
    #[must_use]
    pub fn survivors(&self) -> BTreeSet<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != NodeStatus::Dead)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of nodes declared dead.
    #[must_use]
    pub fn dead(&self) -> BTreeSet<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeStatus::Dead)
            .map(|(i, _)| i)
            .collect()
    }

    /// Declares `node` dead without probing (operator knowledge, or a
    /// timeout observed on another session).
    pub fn mark_dead(&mut self, node: usize) {
        self.statuses[node] = NodeStatus::Dead;
    }

    /// Runs one heartbeat round: pings every not-yet-dead DLA node and
    /// updates its status from the outcome.
    ///
    /// # Errors
    ///
    /// Currently infallible in simulation; the `Result` reserves room
    /// for transports whose sends can fail.
    pub fn probe_round(&mut self, cluster: &DlaCluster) -> Result<(), AuditError> {
        self.rounds += 1;
        let auditor = cluster.auditor_node();
        let net: &dyn Transport = cluster.shared_net();
        let session = Session::new(net, self.session);
        for node in 0..self.statuses.len() {
            if self.statuses[node] == NodeStatus::Dead {
                continue;
            }
            let mut w = Writer::new();
            w.put_u8(TAG_PING).put_u64(self.rounds);
            session.send(auditor, NodeId(node), w.finish());
            if self.pong(&session, auditor, NodeId(node)) {
                self.transition(node, NodeStatus::Alive, &session);
            } else {
                // Model the auditor waiting out the probe deadline.
                session.charge(auditor, PROBE_TIMEOUT);
                let next = match self.statuses[node] {
                    NodeStatus::Alive => NodeStatus::Suspected { misses: 1 },
                    NodeStatus::Suspected { misses } => {
                        if misses + 1 >= SUSPICION_THRESHOLD {
                            NodeStatus::Dead
                        } else {
                            NodeStatus::Suspected { misses: misses + 1 }
                        }
                    }
                    NodeStatus::Dead => NodeStatus::Dead,
                };
                self.transition(node, next, &session);
            }
        }
        Ok(())
    }

    /// Applies a detector verdict, emitting a telemetry event on every
    /// status *change* so traces show suspicion building up and deaths
    /// being declared on the virtual timeline.
    fn transition(&mut self, node: usize, next: NodeStatus, session: &Session<'_>) {
        if dla_telemetry::is_active() && next != self.statuses[node] {
            let name = match next {
                NodeStatus::Alive => "health-alive",
                NodeStatus::Suspected { .. } => "health-suspect",
                NodeStatus::Dead => "health-dead",
            };
            dla_telemetry::event(
                name,
                session.elapsed().as_nanos(),
                &[
                    ("node", &node.to_string()),
                    ("round", &self.rounds.to_string()),
                ],
            );
        }
        self.statuses[node] = next;
    }

    /// Runs `rounds` consecutive heartbeat rounds.
    ///
    /// # Errors
    ///
    /// Propagates the first [`probe_round`](Self::probe_round) failure.
    pub fn probe_rounds(&mut self, cluster: &DlaCluster, rounds: u32) -> Result<(), AuditError> {
        for _ in 0..rounds {
            self.probe_round(cluster)?;
        }
        Ok(())
    }

    /// Probes until every currently suspected node is resolved to
    /// `Alive` or `Dead` (at most `suspicion_threshold` extra rounds).
    ///
    /// # Errors
    ///
    /// Propagates the first [`probe_round`](Self::probe_round) failure.
    pub fn settle(&mut self, cluster: &DlaCluster) -> Result<(), AuditError> {
        self.probe_rounds(cluster, SUSPICION_THRESHOLD)
    }

    /// Drives the probed node's half of the heartbeat: if the ping got
    /// through, the node answers and the auditor collects the pong.
    fn pong(&self, session: &Session<'_>, auditor: NodeId, node: NodeId) -> bool {
        let Ok(ping) = session.recv_from(node, auditor) else {
            return false;
        };
        let Some(round) = read_beat(&ping.payload, TAG_PING) else {
            return false;
        };
        let mut w = Writer::new();
        w.put_u8(TAG_PONG).put_u64(round);
        session.send(node, auditor, w.finish());
        match session.recv_from(auditor, node) {
            Ok(pong) => read_beat(&pong.payload, TAG_PONG) == Some(round),
            Err(_) => false,
        }
    }
}

/// The round a ping or pong frame (`tag ‖ round`, nothing after it)
/// carries, if `payload` is exactly one.
fn read_beat(payload: &[u8], tag: u8) -> Option<u64> {
    let mut r = Reader::new(payload);
    let (Ok(found), Ok(round), Ok(())) = (r.get_u8(), r.get_u64(), r.finish()) else {
        return None;
    };
    (found == tag).then_some(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use dla_logstore::schema::Schema;

    #[test]
    fn a_heartbeat_is_its_tag_and_round_and_nothing_more() {
        for tag in [TAG_PING, TAG_PONG] {
            let mut w = Writer::new();
            w.put_u8(tag).put_u64(9);
            let honest = w.finish().to_vec();
            assert_eq!(read_beat(&honest, tag), Some(9));
            let other = if tag == TAG_PING { TAG_PONG } else { TAG_PING };
            assert_eq!(read_beat(&honest, other), None, "wrong tag");
            let mut trailing = honest.clone();
            trailing.push(0);
            assert_eq!(read_beat(&trailing, tag), None, "trailing byte");
            assert_eq!(read_beat(&honest[..8], tag), None, "truncated");
        }
    }

    fn cluster() -> DlaCluster {
        DlaCluster::new(ClusterConfig::new(4, Schema::paper_example()).with_seed(7)).unwrap()
    }

    #[test]
    fn healthy_cluster_stays_alive() {
        let cluster = cluster();
        let mut monitor = HealthMonitor::new(&cluster);
        monitor.probe_rounds(&cluster, 5).unwrap();
        assert_eq!(monitor.survivors(), (0..4).collect());
        assert!(monitor.dead().is_empty());
        assert!((0..4).all(|i| monitor.status(i) == NodeStatus::Alive));
    }

    #[test]
    fn killed_node_is_suspected_then_declared_dead() {
        let cluster = cluster();
        cluster.net().faults_mut().kill_node(2);
        let mut monitor = HealthMonitor::new(&cluster);
        monitor.probe_round(&cluster).unwrap();
        assert_eq!(monitor.status(2), NodeStatus::Suspected { misses: 1 });
        monitor.probe_round(&cluster).unwrap();
        assert_eq!(monitor.status(2), NodeStatus::Suspected { misses: 2 });
        monitor.probe_round(&cluster).unwrap();
        assert_eq!(monitor.status(2), NodeStatus::Dead);
        assert_eq!(monitor.survivors(), [0, 1, 3].into_iter().collect());
        assert_eq!(monitor.dead(), [2].into_iter().collect());
    }

    #[test]
    fn suspicion_clears_when_the_node_answers_again() {
        let cluster = cluster();
        cluster.net().faults_mut().kill_node(1);
        let mut monitor = HealthMonitor::new(&cluster);
        monitor.probe_rounds(&cluster, 2).unwrap();
        assert_eq!(monitor.status(1), NodeStatus::Suspected { misses: 2 });
        cluster.net().faults_mut().revive_node(1);
        monitor.probe_round(&cluster).unwrap();
        assert_eq!(monitor.status(1), NodeStatus::Alive);
    }

    #[test]
    fn death_is_sticky_even_after_revival() {
        let cluster = cluster();
        cluster.net().faults_mut().kill_node(3);
        let mut monitor = HealthMonitor::new(&cluster);
        monitor.settle(&cluster).unwrap();
        assert!(monitor.is_dead(3));
        cluster.net().faults_mut().revive_node(3);
        monitor.probe_round(&cluster).unwrap();
        assert!(monitor.is_dead(3), "declared death must not silently clear");
    }

    #[test]
    fn heartbeats_run_on_their_own_session() {
        let cluster = cluster();
        let mut monitor = HealthMonitor::new(&cluster);
        assert_ne!(monitor.session(), SessionId::ROOT);
        let before = cluster.net().stats().messages_sent;
        monitor.probe_round(&cluster).unwrap();
        assert!(cluster.net().stats().messages_sent > before);
        // Root-session accounting is untouched by heartbeat traffic.
        let (root_msgs, _) = Session::root(cluster.shared_net()).counters();
        assert_eq!(root_msgs, 0);
    }

    #[test]
    fn mark_dead_takes_effect_immediately() {
        let cluster = cluster();
        let mut monitor = HealthMonitor::new(&cluster);
        monitor.mark_dead(0);
        assert_eq!(monitor.survivors(), [1, 2, 3].into_iter().collect());
        monitor.probe_round(&cluster).unwrap();
        assert!(monitor.is_dead(0));
    }
}

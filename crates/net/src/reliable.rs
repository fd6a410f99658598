//! Reliable delivery over any [`Transport`] ([`Reliable`]).
//!
//! The simulator's fault plan can drop or corrupt messages (a duplicate
//! it also makes is discarded by its own receiving end); unprotected
//! protocol code then either consumes garbage or starves on an empty
//! inbox forever. `Reliable` wraps a transport with the classic ARQ
//! toolkit so every protocol written against [`Session`] gets fault
//! tolerance without changing a line:
//!
//! * **Checksums** — corrupted envelopes (stale [`Envelope::checksum`])
//!   and corrupted data frames (inner CRC) are discarded at receive and
//!   recovered by retransmission.
//! * **Sequence numbers** — per `(session, from, to)` link; a
//!   retransmission of a frame already delivered is suppressed and
//!   re-acked, gaps are reassembled in order from an early-frame stash
//!   (per-link FIFO delivery makes gaps short-lived).
//! * **Ack/retransmit** — cumulative acks; when a receiver starves, the
//!   senders' unacked frames for it are retransmitted after an
//!   exponential backoff with deterministic jitter, charged to the
//!   sender's virtual clock like a real retransmission timer.
//! * **Bounded waiting** — after `max_retries` fruitless rounds `recv`
//!   returns [`NetError::Timeout`] instead of hanging, giving the layers
//!   above a failure signal they can act on (retry, re-plan, declare a
//!   node dead).
//!
//! Because `Reliable` itself implements [`Transport`], it composes with
//! all three transports (the simulator behind `SharedNet`,
//! `ChannelNet`, `TcpNet`) and with [`Session`] unchanged.
//!
//! [`Session`]: crate::Session

use crate::sim::Envelope;
use crate::time::SimTime;
use crate::wire::{crc32, Reader, Writer};
use crate::{NetError, NodeId, SessionId, Transport};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};

const FRAME_DATA: u8 = 0x01;
const FRAME_ACK: u8 = 0x02;

/// Tuning for a [`Reliable`] wrapper.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Initial retransmission timeout (doubles per fruitless round).
    pub base_timeout: SimTime,
    /// Fruitless receive rounds before `recv` gives up with
    /// [`NetError::Timeout`].
    pub max_retries: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            base_timeout: SimTime::from_millis(5),
            max_retries: 10,
            seed: 0,
        }
    }
}

impl ReliableConfig {
    /// Sets the retry budget.
    #[must_use]
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff charged before retransmission round `attempt`
    /// (1-based): `base · 2^(attempt−1)` plus a deterministic jitter in
    /// `[0, base/2)` derived from the seed, session, node and attempt —
    /// reproducible, yet decorrelated across links.
    #[must_use]
    pub fn backoff(&self, session: SessionId, node: NodeId, attempt: u32) -> SimTime {
        let shift = (attempt.saturating_sub(1)).min(10);
        let base = self.base_timeout.as_nanos() << shift;
        let mut x = self
            .seed
            .wrapping_add(session.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((node.0 as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(u64::from(attempt));
        let jitter_span = (self.base_timeout.as_nanos() / 2).max(1);
        let jitter = rand::splitmix64(&mut x) % jitter_span;
        SimTime::from_nanos(base + jitter)
    }
}

/// Sender side of one `(session, from, to)` link.
#[derive(Debug, Default)]
struct SendLink {
    next_seq: u64,
    /// Frames sent but not yet cumulatively acked, by sequence number.
    unacked: BTreeMap<u64, Bytes>,
}

/// Receiver side of one `(session, from, to)` link.
#[derive(Debug, Default)]
struct RecvLink {
    /// Next in-order sequence number expected.
    expected: u64,
    /// Frames that arrived ahead of a gap, waiting for it to fill.
    early: BTreeMap<u64, Bytes>,
}

#[derive(Debug, Default)]
struct ReliableState {
    send_links: BTreeMap<(SessionId, usize, usize), SendLink>,
    recv_links: BTreeMap<(SessionId, usize, usize), RecvLink>,
    /// In-order payloads ready for delivery, per (session, receiver).
    ready: BTreeMap<(SessionId, usize), VecDeque<Envelope>>,
    stats: ReliableStats,
}

/// Recovery-activity counters for one [`Reliable`] wrapper — the ARQ
/// analogue of [`crate::stats::TrafficStats`]. Always maintained (the
/// increments are branch-free field bumps under the state lock already
/// held); also mirrored into the telemetry cost sink when one is
/// installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Data frames retransmitted after a receiver starved.
    pub retransmits: u64,
    /// Backoff rounds in which at least one frame was retransmitted.
    pub retransmit_rounds: u64,
    /// Receives that gave up with [`NetError::Timeout`] after
    /// exhausting the retry budget.
    pub timeouts: u64,
    /// Retransmitted data frames suppressed (already-delivered
    /// sequence numbers re-acked instead of re-surfaced).
    pub duplicates_suppressed: u64,
}

/// A reliability layer over any [`Transport`]; itself a [`Transport`].
///
/// Generic over the inner transport (defaulting to a trait object) so
/// `Sync` propagates: a `Reliable<'_, ChannelNet>` can be shared
/// between threads exactly like the `ChannelNet` it wraps.
pub struct Reliable<'a, T: Transport + ?Sized = dyn Transport + 'a> {
    inner: &'a T,
    config: ReliableConfig,
    state: Mutex<ReliableState>,
}

impl<T: Transport + ?Sized> std::fmt::Debug for Reliable<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Reliable({:?})", self.config)
    }
}

impl<'a, T: Transport + ?Sized> Reliable<'a, T> {
    /// Wraps `inner` with default tuning.
    #[must_use]
    pub fn new(inner: &'a T) -> Self {
        Reliable::with_config(inner, ReliableConfig::default())
    }

    /// Wraps `inner` with explicit tuning.
    #[must_use]
    pub fn with_config(inner: &'a T, config: ReliableConfig) -> Self {
        Reliable {
            inner,
            config,
            state: Mutex::new(ReliableState::default()),
        }
    }

    /// The wrapper's tuning.
    #[must_use]
    pub fn config(&self) -> ReliableConfig {
        self.config
    }

    /// Snapshot of the recovery-activity counters.
    #[must_use]
    pub fn stats(&self) -> ReliableStats {
        self.state.lock().stats
    }

    fn data_frame(seq: u64, payload: &[u8]) -> Bytes {
        let mut w = Writer::new();
        w.put_u8(FRAME_DATA)
            .put_u64(seq)
            .put_u64(u64::from(crc32(payload)))
            .put_bytes(payload);
        w.finish()
    }

    fn ack_frame(seq: u64) -> Bytes {
        let mut w = Writer::new();
        w.put_u8(FRAME_ACK).put_u64(seq);
        w.finish()
    }

    /// Digests one raw envelope from the inner transport: acks shrink
    /// the unacked window, in-order data is moved (with everything it
    /// unblocks from the early stash) to the ready queue and acked,
    /// frames it already has are re-acked, corrupt ones dropped. Returns
    /// `true` if the envelope carried anything new.
    fn process(&self, env: &Envelope, node: NodeId) -> bool {
        if !env.is_intact() {
            return false;
        }
        let mut r = Reader::new(&env.payload);
        let Ok(kind) = r.get_u8() else { return false };
        match kind {
            FRAME_ACK => {
                let Ok(seq) = r.get_u64() else { return false };
                let mut state = self.state.lock();
                if let Some(link) = state.send_links.get_mut(&(env.session, node.0, env.from.0)) {
                    // Cumulative: everything up to `seq` has arrived.
                    link.unacked = link.unacked.split_off(&(seq + 1));
                }
                false
            }
            FRAME_DATA => {
                let (Ok(seq), Ok(check), Ok(payload)) = (r.get_u64(), r.get_u64(), r.get_bytes())
                else {
                    return false;
                };
                if u64::from(crc32(payload)) != check {
                    return false;
                }
                let key = (env.session, env.from.0, node.0);
                let mut state = self.state.lock();
                let link = state.recv_links.entry(key).or_default();
                if seq < link.expected {
                    // A retransmission of something we already have:
                    // refresh the ack in case ours died.
                    let ack = link.expected - 1;
                    state.stats.duplicates_suppressed += 1;
                    drop(state);
                    self.inner
                        .send(env.session, node, env.from, Self::ack_frame(ack));
                    return false;
                }
                if seq > link.expected {
                    link.early.insert(seq, Bytes::copy_from_slice(payload));
                    return true;
                }
                // In order: deliver it plus everything it unblocks.
                let mut batch = vec![Bytes::copy_from_slice(payload)];
                link.expected += 1;
                while let Some(next) = link.early.remove(&link.expected) {
                    batch.push(next);
                    link.expected += 1;
                }
                let ack = link.expected - 1;
                let queue = state.ready.entry((env.session, node.0)).or_default();
                for data in batch {
                    queue.push_back(Envelope::new(
                        env.session,
                        env.from,
                        node,
                        data,
                        env.sent_at,
                        env.deliver_at,
                    ));
                }
                drop(state);
                self.inner
                    .send(env.session, node, env.from, Self::ack_frame(ack));
                true
            }
            _ => false,
        }
    }

    /// Retransmits every unacked frame destined for `node` in
    /// `session`, charging each sender the backoff for this `attempt`
    /// (its retransmission timer just expired).
    fn retransmit_to(&self, session: SessionId, node: NodeId, attempt: u32) {
        let resend: Vec<(usize, Vec<Bytes>)> = {
            let state = self.state.lock();
            state
                .send_links
                .range((session, 0, 0)..=(session, usize::MAX, usize::MAX))
                .filter(|(&(_, _, to), link)| to == node.0 && !link.unacked.is_empty())
                .map(|(&(_, from, _), link)| (from, link.unacked.values().cloned().collect()))
                .collect()
        };
        if !resend.is_empty() {
            let frames: u64 = resend.iter().map(|(_, f)| f.len() as u64).sum();
            let mut state = self.state.lock();
            state.stats.retransmit_rounds += 1;
            state.stats.retransmits += frames;
            drop(state);
            dla_telemetry::record(dla_telemetry::CostKind::Retransmit, frames);
        }
        for (from, frames) in resend {
            let backoff = self.config.backoff(session, node, attempt);
            self.inner.charge(session, NodeId(from), backoff);
            for frame in frames {
                self.inner.send(session, NodeId(from), node, frame);
            }
        }
    }

    fn pop_ready(
        &self,
        session: SessionId,
        node: NodeId,
        want: Option<NodeId>,
    ) -> Option<Envelope> {
        let mut state = self.state.lock();
        let queue = state.ready.get_mut(&(session, node.0))?;
        match want {
            None => queue.pop_front(),
            Some(from) => {
                let pos = queue.iter().position(|e| e.from == from)?;
                queue.remove(pos)
            }
        }
    }

    fn recv_filtered(
        &self,
        session: SessionId,
        node: NodeId,
        want: Option<NodeId>,
    ) -> Result<Envelope, NetError> {
        let mut attempts = 0u32;
        loop {
            if let Some(env) = self.pop_ready(session, node, want) {
                return Ok(env);
            }
            match self.inner.recv(session, node) {
                Ok(env) => {
                    if self.process(&env, node) {
                        attempts = 0;
                    }
                }
                Err(NetError::EmptyInbox(_) | NetError::Timeout(_)) => {
                    attempts += 1;
                    if attempts > self.config.max_retries {
                        self.state.lock().stats.timeouts += 1;
                        dla_telemetry::record(dla_telemetry::CostKind::Timeout, 1);
                        return Err(NetError::Timeout(node));
                    }
                    self.retransmit_to(session, node, attempts);
                }
                Err(other) => return Err(other),
            }
        }
    }
}

impl<T: Transport + ?Sized> Transport for Reliable<'_, T> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        let frame = {
            let mut state = self.state.lock();
            let link = state.send_links.entry((session, from.0, to.0)).or_default();
            let seq = link.next_seq;
            link.next_seq += 1;
            let frame = Self::data_frame(seq, &payload);
            link.unacked.insert(seq, frame.clone());
            frame
        };
        self.inner.send(session, from, to, frame);
    }

    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.recv_filtered(session, node, None)
    }

    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.recv_filtered(session, node, Some(from))
    }

    fn charge(&self, session: SessionId, node: NodeId, cost: SimTime) {
        self.inner.charge(session, node, cost);
    }

    fn counters(&self, session: SessionId) -> (u64, u64) {
        self.inner.counters(session)
    }

    fn elapsed(&self, session: SessionId) -> SimTime {
        self.inner.elapsed(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultOutcome, FaultPlan};
    use crate::sim::{NetConfig, SimNet};
    use crate::{ChannelNet, Session, SharedNet};
    use std::time::Duration;

    fn lossy_net(drop: f64, dup: f64, corrupt: f64, seed: u64) -> SimNet {
        let mut faults = FaultPlan::none();
        faults.drop_probability = drop;
        faults.duplicate_probability = dup;
        faults.corrupt_probability = corrupt;
        SimNet::new(
            3,
            NetConfig::ideal()
                .with_faults(faults)
                .with_seed(seed)
                .with_latency(crate::latency::LatencyModel::lan()),
        )
    }

    /// Ships `count` numbered messages 0→1 and checks exactly-once,
    /// in-order delivery.
    fn ship(session: &Session<'_>, count: u8) {
        for i in 0..count {
            session.send(NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i]));
        }
        for i in 0..count {
            let m = session.recv(NodeId(1)).expect("reliable recv");
            assert_eq!(m.payload[0], i, "exactly-once, in-order");
            assert_eq!(m.from, NodeId(0));
        }
    }

    #[test]
    fn clean_link_round_trips() {
        let net = lossy_net(0.0, 0.0, 0.0, 1);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        ship(&Session::root(&reliable), 20);
    }

    #[test]
    fn survives_drops_duplicates_and_corruption() {
        for seed in 0..5 {
            let net = lossy_net(0.15, 0.1, 0.1, seed);
            let link = SharedNet::new(net);
            let reliable = Reliable::new(&link);
            ship(&Session::root(&reliable), 30);
        }
    }

    #[test]
    fn a_targeted_duplicate_surfaces_once() {
        let mut net = lossy_net(0.0, 0.0, 0.0, 1);
        net.faults_mut().inject_once(0, 1, FaultOutcome::Duplicate);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        let session = Session::root(&reliable);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"once"));
        assert_eq!(&session.recv(NodeId(1)).unwrap().payload[..], b"once");
        // The duplicate must not surface as a second delivery.
        assert_eq!(
            session.recv(NodeId(1)).unwrap_err(),
            NetError::Timeout(NodeId(1))
        );
    }

    #[test]
    fn recovers_targeted_corruption_by_retransmit() {
        let mut net = lossy_net(0.0, 0.0, 0.0, 1);
        net.faults_mut().inject_once(0, 1, FaultOutcome::Corrupt);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        let session = Session::root(&reliable);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"precious"));
        let m = session.recv(NodeId(1)).unwrap();
        assert_eq!(&m.payload[..], b"precious", "garbage never surfaces");
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let net = lossy_net(0.0, 0.0, 0.0, 1);
        let link = SharedNet::new(net);
        let reliable = Reliable::with_config(&link, ReliableConfig::default().with_max_retries(3));
        let session = Session::root(&reliable);
        // Nothing was ever sent: bounded retries, then Timeout.
        assert_eq!(
            session.recv(NodeId(1)).unwrap_err(),
            NetError::Timeout(NodeId(1))
        );
    }

    #[test]
    fn timeout_when_peer_is_dead() {
        let mut net = lossy_net(0.0, 0.0, 0.0, 1);
        net.faults_mut().kill_node(0);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        let session = Session::root(&reliable);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"lost cause"));
        assert_eq!(
            session.recv(NodeId(1)).unwrap_err(),
            NetError::Timeout(NodeId(1))
        );
    }

    #[test]
    fn backoff_grows_and_jitter_is_deterministic() {
        let cfg = ReliableConfig::default().with_seed(7);
        let b1 = cfg.backoff(SessionId(1), NodeId(0), 1);
        let b2 = cfg.backoff(SessionId(1), NodeId(0), 2);
        let b3 = cfg.backoff(SessionId(1), NodeId(0), 3);
        assert!(b2 > b1 && b3 > b2, "exponential growth");
        assert_eq!(b1, cfg.backoff(SessionId(1), NodeId(0), 1), "deterministic");
        assert_ne!(
            cfg.backoff(SessionId(1), NodeId(0), 1),
            cfg.backoff(SessionId(2), NodeId(0), 1),
            "jitter decorrelated across sessions"
        );
    }

    #[test]
    fn retransmission_charges_virtual_time() {
        let mut net = lossy_net(0.0, 0.0, 0.0, 1);
        net.faults_mut().inject_once(0, 1, FaultOutcome::Drop);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        let session = Session::root(&reliable);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"x"));
        let _ = session.recv(NodeId(1)).unwrap();
        assert!(
            session.elapsed() >= ReliableConfig::default().base_timeout,
            "the retransmission timer shows up in virtual time"
        );
    }

    #[test]
    fn selective_receive_keeps_other_senders_queued() {
        let net = lossy_net(0.0, 0.0, 0.0, 1);
        let link = SharedNet::new(net);
        let reliable = Reliable::new(&link);
        let session = Session::root(&reliable);
        session.send(NodeId(2), NodeId(1), Bytes::from_static(b"from-2"));
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"from-0"));
        let m = session.recv_from(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(&m.payload[..], b"from-0");
        let m = session.recv_from(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(&m.payload[..], b"from-2");
    }

    #[test]
    fn works_over_shared_net_sessions() {
        let shared = SharedNet::new(lossy_net(0.1, 0.1, 0.05, 3));
        let (s1, s2) = {
            let mut net = shared.lock();
            (net.open_session(), net.open_session())
        };
        std::thread::scope(|scope| {
            for sid in [s1, s2] {
                let shared = &shared;
                scope.spawn(move || {
                    let reliable = Reliable::new(shared);
                    ship(&Session::new(&reliable, sid), 25);
                });
            }
        });
    }

    #[test]
    fn works_over_channel_net() {
        let net = ChannelNet::with_timeout(2, Duration::from_millis(20));
        let reliable = Reliable::new(&net);
        std::thread::scope(|scope| {
            let reliable = &reliable;
            scope.spawn(move || {
                let session = Session::new(reliable, SessionId(4));
                let m = session.recv(NodeId(1)).unwrap();
                assert_eq!(&m.payload[..], b"ping");
                session.send(NodeId(1), NodeId(0), Bytes::from_static(b"pong"));
            });
            let session = Session::new(reliable, SessionId(4));
            session.send(NodeId(0), NodeId(1), Bytes::from_static(b"ping"));
            let reply = session.recv_from(NodeId(0), NodeId(1)).unwrap();
            assert_eq!(&reply.payload[..], b"pong");
        });
    }

    #[test]
    fn reliable_is_object_safe() {
        fn take(_: &dyn Transport) {}
        let net = lossy_net(0.0, 0.0, 0.0, 1);
        let link = SharedNet::new(net);
        take(&Reliable::new(&link));
    }
}

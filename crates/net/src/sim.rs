//! The deterministic simulated network ([`SimNet`]).
//!
//! Protocol code sends byte payloads between nodes; the simulator
//! applies a latency model to per-node virtual clocks, injects faults,
//! and accounts every message and byte. Determinism (given a seed)
//! makes protocol tests reproducible and lets benches report *simulated*
//! network latency alongside measured CPU time.
//!
//! The network is **session-multiplexed**: every message belongs to a
//! [`SessionId`], and inboxes, virtual clocks, latency/fault RNG
//! streams and delivery ordering are all partitioned per session. That
//! means several protocol instances can interleave over one `SimNet`
//! without perturbing each other's delivery schedule — the property the
//! concurrent subquery scheduler in `dla-audit` relies on. Every call
//! names its session; one-at-a-time traffic runs on [`SessionId::ROOT`],
//! whose timeline is [`SimNet::elapsed`].
//!
//! The simulator is honest: it models a *benign* network (latency,
//! drops, duplicates, bit rot with a stale checksum) and nothing else.
//! Its receiving end, like TCP's, discards a duplicate's second copy by
//! its number on the (session, from, to) link, so a session sees each
//! frame at most once, in link order.
//! A node that lies on the wire, and an observer that records what
//! crosses it, belong to the crate's one wire tap, which wraps the
//! simulator (behind [`crate::SharedNet`]) exactly as it wraps the
//! socket and channel transports (see the [crate docs](crate)).

use crate::fault::{FaultOutcome, FaultPlan};
use crate::latency::LatencyModel;
use crate::stats::TrafficStats;
use crate::time::SimTime;
use crate::wire::{crc32, Reader, WireError, Writer};
use crate::{NetError, NodeId, SessionId};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap};

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Protocol session this message belongs to.
    pub session: SessionId,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload (possibly corrupted by fault injection).
    pub payload: Bytes,
    /// CRC-32 of the payload **as the sender handed it over** — in-flight
    /// corruption leaves the checksum stale, so receivers can tell.
    pub checksum: u32,
    /// Virtual time the sender handed it to the network.
    pub sent_at: SimTime,
    /// Virtual time it became available at the receiver.
    pub deliver_at: SimTime,
}

impl Envelope {
    /// Builds an envelope, stamping the payload checksum.
    #[must_use]
    pub fn new(
        session: SessionId,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
        sent_at: SimTime,
        deliver_at: SimTime,
    ) -> Self {
        let checksum = crc32(&payload);
        Envelope {
            session,
            from,
            to,
            payload,
            checksum,
            sent_at,
            deliver_at,
        }
    }

    /// Whether the payload still matches the checksum stamped at send
    /// time. `false` means the message was corrupted in flight.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        crc32(&self.payload) == self.checksum
    }
    /// Serializes the envelope — session id first, so a receiving
    /// endpoint can demultiplex before it even looks at the payload.
    /// This is the wire format of the threaded [`crate::ChannelNet`]
    /// transport.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.finish()
    }

    /// Length of the [`Envelope::encode`] bytes: six `u64` header
    /// fields, then the payload behind its `u64` length.
    #[must_use]
    pub(crate) fn encoded_len(&self) -> usize {
        7 * 8 + self.payload.len()
    }

    /// Appends the [`Envelope::encode`] bytes to a message under
    /// construction (the socket transport writes them straight behind
    /// its frame header).
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.session.0)
            .put_u64(self.from.0 as u64)
            .put_u64(self.to.0 as u64)
            .put_u64(self.sent_at.as_nanos())
            .put_u64(self.deliver_at.as_nanos())
            .put_u64(u64::from(self.checksum))
            .put_bytes(&self.payload);
    }

    /// Inverse of [`Envelope::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or trailing bytes, or when the
    /// payload does not match the embedded checksum (a corrupted frame
    /// is rejected here rather than delivered as silent garbage).
    pub fn decode(data: &[u8]) -> Result<Envelope, WireError> {
        let mut r = Reader::new(data);
        let session = SessionId(r.get_u64()?);
        let from = NodeId(r.get_u64()? as usize);
        let to = NodeId(r.get_u64()? as usize);
        let sent_at = SimTime::from_nanos(r.get_u64()?);
        let deliver_at = SimTime::from_nanos(r.get_u64()?);
        let checksum = r.get_u64()? as u32;
        let payload = Bytes::copy_from_slice(r.get_bytes()?);
        r.finish()?;
        if crc32(&payload) != checksum {
            return Err(WireError::checksum_mismatch());
        }
        Ok(Envelope {
            session,
            from,
            to,
            payload,
            checksum,
            sent_at,
            deliver_at,
        })
    }
}

/// Heap entry ordered by delivery time (earliest first), tie-broken by
/// sequence number for determinism.
#[derive(Debug)]
struct Pending {
    deliver_at: SimTime,
    seq: u64,
    /// The send's number on its link; a duplicate copy shares it.
    number: u64,
    envelope: Envelope,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// Configuration for a [`SimNet`].
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    /// Link latency model.
    pub latency: LatencyModel,
    /// Fault injection plan.
    pub faults: FaultPlan,
    /// RNG seed (latency sampling and fault rolls).
    pub seed: u64,
}

impl NetConfig {
    /// Zero-latency, fault-free, seed 0 — pure message counting.
    #[must_use]
    pub fn ideal() -> Self {
        NetConfig::default()
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One directed link of one session.
#[derive(Debug, Default)]
struct Link {
    /// Latest delivery time scheduled: later sends never overtake it.
    floor: SimTime,
    /// Sends numbered so far.
    sent: u64,
    /// The number of the last frame delivered.
    delivered: u64,
}

/// Per-session simulator state: inboxes, clocks, an independent RNG
/// stream, and the per-link state that keeps each session's links FIFO
/// and free of duplicates.
#[derive(Debug)]
struct SessionState {
    clocks: Vec<SimTime>,
    inboxes: Vec<BinaryHeap<Pending>>,
    rng: StdRng,
    /// Independent stream for fault rolls, derived from the cluster
    /// seed + session id (see [`crate::fault::fault_rng`]). Keeping it
    /// separate from the latency stream means changing fault
    /// probabilities never perturbs the delivery schedule of the
    /// messages that do get through.
    fault_rng: StdRng,
    /// Per (from, to).
    links: BTreeMap<(usize, usize), Link>,
}

impl SessionState {
    fn new(n: usize, clocks: Vec<SimTime>, seed: u64, session: SessionId) -> Self {
        // Give every session its own deterministic RNG stream so the
        // latency/fault rolls of one session are independent of how
        // many messages other sessions have sent.
        let mut x = session.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let stream = rand::splitmix64(&mut x);
        SessionState {
            clocks,
            inboxes: (0..n).map(|_| BinaryHeap::new()).collect(),
            rng: StdRng::seed_from_u64(seed ^ stream),
            fault_rng: crate::fault::fault_rng(seed, session),
            links: BTreeMap::new(),
        }
    }
}

/// A simulated message network over `n` nodes.
///
/// # Examples
///
/// ```
/// use dla_net::sim::{NetConfig, SimNet};
/// use dla_net::{NodeId, SessionId};
/// use bytes::Bytes;
///
/// let mut net = SimNet::new(3, NetConfig::ideal());
/// let root = SessionId::ROOT;
/// net.send_on(root, NodeId(0), NodeId(2), Bytes::from_static(b"ping"));
/// let msg = net.recv_on(root, NodeId(2))?;
/// assert_eq!(&msg.payload[..], b"ping");
/// assert_eq!(msg.from, NodeId(0));
/// # Ok::<(), dla_net::NetError>(())
/// ```
#[derive(Debug)]
pub struct SimNet {
    latency: LatencyModel,
    faults: FaultPlan,
    stats: TrafficStats,
    num_nodes: usize,
    seed: u64,
    sessions: BTreeMap<SessionId, SessionState>,
    next_session: u64,
    seq: u64,
}

impl SimNet {
    /// Creates a network of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, config: NetConfig) -> Self {
        assert!(n > 0, "network needs at least one node");
        let mut sessions = BTreeMap::new();
        sessions.insert(
            SessionId::ROOT,
            SessionState::new(n, vec![SimTime::ZERO; n], config.seed, SessionId::ROOT),
        );
        SimNet {
            latency: config.latency,
            faults: config.faults,
            stats: TrafficStats::new(),
            num_nodes: n,
            seed: config.seed,
            sessions,
            next_session: 1,
            seq: 0,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Allocates a fresh session id. The new session's node clocks
    /// start at the root session's current values ("the new protocol
    /// instance starts now").
    pub fn open_session(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.ensure_session(id);
        id
    }

    /// Lazily materializes state for `session`, inheriting the root
    /// session's current clocks.
    fn ensure_session(&mut self, session: SessionId) {
        if !self.sessions.contains_key(&session) {
            let clocks = self.sessions[&SessionId::ROOT].clocks.clone();
            self.next_session = self.next_session.max(session.0 + 1);
            self.sessions.insert(
                session,
                SessionState::new(self.num_nodes, clocks, self.seed, session),
            );
        }
    }

    /// Sends `payload` from `from` to `to` on `session`: accounting,
    /// numbering, checksum stamping, fault roll and delivery. The send
    /// is always accounted, whatever the fault plan decides, and
    /// numbered before the roll, so a duplicate shares its number. The
    /// checksum is stamped over the payload as handed over, so
    /// in-flight corruption leaves it stale.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn send_on(&mut self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        self.check(from);
        self.check(to);
        self.ensure_session(session);
        let state = self.sessions.get_mut(&session).expect("session exists");
        let sent_at = state.clocks[from.0];
        self.stats
            .record_send(session, from.0, to.0, payload.len(), sent_at);
        let checksum = crc32(&payload);
        let link = state.links.entry((from.0, to.0)).or_default();
        link.sent += 1;
        let number = link.sent;
        let outcome = self.faults.decide(from.0, to.0, &mut state.fault_rng);
        match outcome {
            FaultOutcome::Drop => {
                self.stats.messages_dropped += 1;
            }
            FaultOutcome::Deliver => {
                self.enqueue(session, from, to, number, payload, checksum);
            }
            FaultOutcome::Duplicate => {
                self.stats.messages_duplicated += 1;
                self.enqueue(session, from, to, number, payload.clone(), checksum);
                self.enqueue(session, from, to, number, payload, checksum);
            }
            FaultOutcome::Corrupt => {
                self.stats.messages_corrupted += 1;
                let mut bytes = payload.to_vec();
                if !bytes.is_empty() {
                    let state = self.sessions.get_mut(&session).expect("session exists");
                    let idx = state.fault_rng.gen_range(0..bytes.len());
                    bytes[idx] ^= 0xA5;
                }
                self.enqueue(session, from, to, number, Bytes::from(bytes), checksum);
            }
        }
    }

    fn enqueue(
        &mut self,
        session: SessionId,
        from: NodeId,
        to: NodeId,
        number: u64,
        payload: Bytes,
        checksum: u32,
    ) {
        self.seq += 1;
        let seq = self.seq;
        let latency = &self.latency;
        let state = self.sessions.get_mut(&session).expect("session exists");
        let sent_at = state.clocks[from.0];
        let sampled = sent_at + latency.sample(payload.len(), &mut state.rng);
        // Per-session, per-link FIFO: a later send on the same link is
        // never delivered before an earlier one, even when the latency
        // model samples a shorter delay for it.
        let link = state.links.entry((from.0, to.0)).or_default();
        let deliver_at = sampled.max(link.floor);
        link.floor = deliver_at;
        state.inboxes[to.0].push(Pending {
            deliver_at,
            seq,
            number,
            envelope: Envelope {
                session,
                from,
                to,
                payload,
                checksum,
                sent_at,
                deliver_at,
            },
        });
    }

    /// Receives the earliest pending message of `session` at `node`,
    /// advancing the node's clock in that session to the delivery time.
    /// Only messages belonging to `session` are visible, so interleaved
    /// sessions never steal each other's messages.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyInbox`] if nothing is pending in this
    /// session — in a deterministic protocol, a message was dropped.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn recv_on(&mut self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.take(session, node, None)
    }

    /// Selective receive: delivers the earliest pending message **from
    /// `from`** within `session`, leaving messages from other senders
    /// queued (they may have arrived earlier — concurrent protocol
    /// steps interleave freely under non-zero link latency).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyInbox`] when nothing at all is pending
    /// and [`NetError::UnexpectedSender`] when messages are pending but
    /// none from `from` (nothing is consumed in either case).
    pub fn recv_from_on(
        &mut self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.take(session, node, Some(from))
    }

    /// Pops (in delivery order) until a frame from `from` (any if
    /// `None`) is found, discarding every frame whose link already
    /// delivered its number and stashing other senders' for re-insertion.
    fn take(
        &mut self,
        session: SessionId,
        node: NodeId,
        from: Option<NodeId>,
    ) -> Result<Envelope, NetError> {
        self.check(node);
        self.ensure_session(session);
        let state = self.sessions.get_mut(&session).expect("session exists");
        let mut stash = Vec::new();
        let mut found = None;
        while let Some(pending) = state.inboxes[node.0].pop() {
            let sender = pending.envelope.from;
            let link = state.links.entry((sender.0, node.0)).or_default();
            if pending.number <= link.delivered {
                self.stats.messages_discarded += 1;
            } else if from.is_none_or(|from| from == sender) {
                link.delivered = pending.number;
                found = Some(pending);
                break;
            } else {
                stash.push(pending);
            }
        }
        // The first stashed entry (if any) was the earliest overall.
        let actual_head = stash.first().map(|p| p.envelope.from);
        state.inboxes[node.0].extend(stash);
        match (found, from, actual_head) {
            (Some(pending), ..) => {
                state.clocks[node.0] = state.clocks[node.0].max(pending.deliver_at);
                self.stats
                    .record_delivery(session, pending.envelope.payload.len());
                Ok(pending.envelope)
            }
            (None, Some(expected), Some(actual)) => Err(NetError::UnexpectedSender {
                node,
                expected,
                actual,
            }),
            _ => Err(NetError::EmptyInbox(node)),
        }
    }

    /// Number of messages waiting at `node` within `session`.
    #[must_use]
    pub fn pending_on(&self, session: SessionId, node: NodeId) -> usize {
        self.sessions
            .get(&session)
            .map_or(0, |s| s.inboxes[node.0].len())
    }

    /// Charges local computation time to a node's clock in `session`
    /// (e.g. to model an encryption pass).
    pub fn charge_on(&mut self, session: SessionId, node: NodeId, cost: SimTime) {
        self.check(node);
        self.ensure_session(session);
        let state = self.sessions.get_mut(&session).expect("session exists");
        state.clocks[node.0] += cost;
    }

    /// A node's current virtual clock within `session` (zero if the
    /// session has no state yet).
    #[must_use]
    pub fn clock_on(&self, session: SessionId, node: NodeId) -> SimTime {
        self.sessions
            .get(&session)
            .map_or(SimTime::ZERO, |s| s.clocks[node.0])
    }

    /// The root-session makespan so far: the latest root clock over all
    /// nodes.
    #[must_use]
    pub fn elapsed(&self) -> SimTime {
        self.session_elapsed(SessionId::ROOT)
    }

    /// The makespan of one session: the latest clock over all nodes in
    /// that session.
    #[must_use]
    pub fn session_elapsed(&self, session: SessionId) -> SimTime {
        self.sessions.get(&session).map_or(SimTime::ZERO, |s| {
            s.clocks.iter().copied().fold(SimTime::ZERO, SimTime::max)
        })
    }

    /// The overall makespan: the latest clock over all nodes in all
    /// sessions.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.sessions
            .keys()
            .map(|&s| self.session_elapsed(s))
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Advances every clock of `session` to at least `at`. This is the
    /// scheduler's synchronization primitive: a session that logically
    /// starts after a join point is synced to the joined makespan, and
    /// at a join the successor session is synced to the max elapsed
    /// time of its predecessors.
    pub fn sync_session(&mut self, session: SessionId, at: SimTime) {
        self.ensure_session(session);
        let state = self.sessions.get_mut(&session).expect("session exists");
        for clock in &mut state.clocks {
            *clock = (*clock).max(at);
        }
    }

    /// Traffic counters.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets counters, clocks and per-link delivery floors in every
    /// session, keeping topology/config and send numbers (for phases).
    pub fn reset_accounting(&mut self) {
        self.stats.reset();
        for state in self.sessions.values_mut() {
            for c in &mut state.clocks {
                *c = SimTime::ZERO;
            }
            for link in state.links.values_mut() {
                link.floor = SimTime::ZERO;
            }
        }
    }

    /// Mutable access to the fault plan (to inject targeted faults
    /// mid-test).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.0 < self.num_nodes,
            "node {node} out of range (n = {})",
            self.num_nodes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: SessionId = SessionId::ROOT;

    fn net(n: usize) -> SimNet {
        SimNet::new(n, NetConfig::ideal())
    }

    #[test]
    fn send_recv_round_trip() {
        let mut net = net(2);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"hello"));
        let msg = net.recv_on(R, NodeId(1)).unwrap();
        assert_eq!(&msg.payload[..], b"hello");
        assert_eq!(msg.from, NodeId(0));
        assert_eq!(msg.to, NodeId(1));
        assert_eq!(msg.session, SessionId::ROOT);
    }

    #[test]
    fn empty_inbox_is_an_error() {
        let mut net = net(2);
        assert_eq!(
            net.recv_on(R, NodeId(0)),
            Err(NetError::EmptyInbox(NodeId(0)))
        );
    }

    #[test]
    fn messages_delivered_in_time_order() {
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Uniform {
            min: SimTime::from_micros(1),
            max: SimTime::from_micros(100),
            bytes_per_us: 0,
        });
        let mut net = SimNet::new(3, cfg);
        for i in 0..20u8 {
            net.send_on(R, NodeId(0), NodeId(2), Bytes::copy_from_slice(&[i]));
        }
        let mut last = SimTime::ZERO;
        for _ in 0..20 {
            let m = net.recv_on(R, NodeId(2)).unwrap();
            assert!(m.deliver_at >= last);
            last = m.deliver_at;
        }
    }

    #[test]
    fn clocks_advance_on_recv() {
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Fixed(SimTime::from_millis(5)));
        let mut net = SimNet::new(2, cfg);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"x"));
        assert_eq!(net.clock_on(R, NodeId(1)), SimTime::ZERO);
        let _ = net.recv_on(R, NodeId(1)).unwrap();
        assert_eq!(net.clock_on(R, NodeId(1)), SimTime::from_millis(5));
        assert_eq!(net.elapsed(), SimTime::from_millis(5));
    }

    #[test]
    fn latency_chains_across_hops() {
        // 0 -> 1 -> 2 with 5ms fixed latency: node 2's clock ends at 10ms.
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Fixed(SimTime::from_millis(5)));
        let mut net = SimNet::new(3, cfg);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"x"));
        let m = net.recv_on(R, NodeId(1)).unwrap();
        net.send_on(R, NodeId(1), NodeId(2), m.payload);
        let _ = net.recv_on(R, NodeId(2)).unwrap();
        assert_eq!(net.clock_on(R, NodeId(2)), SimTime::from_millis(10));
    }

    #[test]
    fn charge_adds_compute_cost() {
        let mut net = net(1);
        net.charge_on(R, NodeId(0), SimTime::from_micros(250));
        assert_eq!(net.clock_on(R, NodeId(0)), SimTime::from_micros(250));
    }

    #[test]
    fn stats_account_sends_and_drops() {
        let mut net = net(2);
        net.faults_mut()
            .inject_once(0, 1, crate::fault::FaultOutcome::Drop);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"lost"));
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"kept"));
        assert_eq!(net.stats().messages_sent, 2);
        assert_eq!(net.stats().messages_dropped, 1);
        assert_eq!(net.stats().bytes_sent, 8);
        let m = net.recv_on(R, NodeId(1)).unwrap();
        assert_eq!(&m.payload[..], b"kept");
        assert!(net.recv_on(R, NodeId(1)).is_err());
    }

    #[test]
    fn a_duplicate_is_discarded_by_its_link_number() {
        let mut net = net(3);
        net.faults_mut()
            .inject_once(0, 1, crate::fault::FaultOutcome::Duplicate);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"dup"));
        assert_eq!(net.pending_on(R, NodeId(1)), 2, "two copies in flight");
        assert_eq!(&net.recv_on(R, NodeId(1)).unwrap().payload[..], b"dup");
        assert_eq!(
            net.recv_on(R, NodeId(1)),
            Err(NetError::EmptyInbox(NodeId(1)))
        );
        assert_eq!(net.stats().messages_delivered, 1);
        assert_eq!(net.stats().messages_discarded, 1);
        // A selective receive discards the same way, and an inbox that
        // held only a duplicate is empty, not a foreign sender's.
        net.faults_mut()
            .inject_once(2, 1, crate::fault::FaultOutcome::Duplicate);
        net.send_on(R, NodeId(2), NodeId(1), Bytes::from_static(b"two"));
        assert!(net.recv_from_on(R, NodeId(1), NodeId(2)).is_ok());
        assert_eq!(
            net.recv_from_on(R, NodeId(1), NodeId(0)),
            Err(NetError::EmptyInbox(NodeId(1)))
        );
        assert_eq!(net.stats().messages_discarded, 2);
    }

    #[test]
    fn corruption_flips_a_byte() {
        let mut net = net(2);
        net.faults_mut()
            .inject_once(0, 1, crate::fault::FaultOutcome::Corrupt);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"payload"));
        let m = net.recv_on(R, NodeId(1)).unwrap();
        assert_ne!(&m.payload[..], b"payload");
        assert_eq!(m.payload.len(), 7);
        assert_eq!(net.stats().messages_corrupted, 1);
        // The checksum was stamped before corruption: receivers can tell.
        assert!(!m.is_intact());
    }

    #[test]
    fn intact_deliveries_pass_the_checksum() {
        let mut net = net(2);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"clean"));
        assert!(net.recv_on(R, NodeId(1)).unwrap().is_intact());
    }

    #[test]
    fn fault_rolls_do_not_perturb_the_latency_schedule() {
        // Satellite regression: delivered messages keep the exact same
        // delivery times whether or not fault rolls happen, because the
        // fault RNG is a separate per-session stream.
        let cfg = |faults: FaultPlan| {
            NetConfig::ideal()
                .with_latency(LatencyModel::lan())
                .with_seed(42)
                .with_faults(faults)
        };
        let run = |mut net: SimNet| {
            for i in 0..20u8 {
                net.send_on(R, NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i]));
            }
            let mut times = Vec::new();
            while let Ok(m) = net.recv_on(R, NodeId(1)) {
                times.push((m.payload[0], m.deliver_at));
            }
            times
        };
        let clean = run(SimNet::new(2, cfg(FaultPlan::none())));
        let mut corrupting = FaultPlan::none();
        corrupting.corrupt_probability = 1.0;
        let corrupted = run(SimNet::new(2, cfg(corrupting)));
        // Same count, same schedule — only the payload bytes differ.
        let clean_times: Vec<_> = clean.iter().map(|&(_, t)| t).collect();
        let corrupted_times: Vec<_> = corrupted.iter().map(|&(_, t)| t).collect();
        assert_eq!(clean_times, corrupted_times);
    }

    #[test]
    fn recv_from_enforces_sender() {
        let mut net = net(3);
        net.send_on(R, NodeId(0), NodeId(2), Bytes::from_static(b"a"));
        let err = net.recv_from_on(R, NodeId(2), NodeId(1)).unwrap_err();
        assert!(matches!(err, NetError::UnexpectedSender { .. }));
        // Message was not consumed.
        assert_eq!(net.pending_on(R, NodeId(2)), 1);
        assert!(net.recv_from_on(R, NodeId(2), NodeId(0)).is_ok());
    }

    #[test]
    fn recv_from_is_selective_across_interleaved_senders() {
        // Under nonzero latency, a message from node 1 may be delivered
        // before node 0's; selective receive must still hand back node
        // 0's message without disturbing the queue order of the rest.
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Uniform {
            min: SimTime::from_micros(1),
            max: SimTime::from_micros(500),
            bytes_per_us: 0,
        });
        let mut net = SimNet::new(3, cfg);
        for round in 0..10u8 {
            net.send_on(R, NodeId(0), NodeId(2), Bytes::copy_from_slice(&[round]));
            net.send_on(
                R,
                NodeId(1),
                NodeId(2),
                Bytes::copy_from_slice(&[100 + round]),
            );
        }
        // Drain node 0's messages first, then node 1's: both arrive in
        // their own per-sender delivery order.
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let m = net.recv_from_on(R, NodeId(2), NodeId(0)).unwrap();
            assert_eq!(m.from, NodeId(0));
            assert!(m.deliver_at >= last || last == SimTime::ZERO);
            last = m.deliver_at;
        }
        for _ in 0..10 {
            assert_eq!(
                net.recv_from_on(R, NodeId(2), NodeId(1)).unwrap().from,
                NodeId(1)
            );
        }
        assert_eq!(net.pending_on(R, NodeId(2)), 0);
    }

    #[test]
    fn reset_accounting_clears_stats_and_clocks() {
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Fixed(SimTime::from_millis(1)));
        let mut net = SimNet::new(2, cfg);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"x"));
        let _ = net.recv_on(R, NodeId(1));
        net.reset_accounting();
        assert_eq!(net.stats().messages_sent, 0);
        assert_eq!(net.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn determinism_under_seed() {
        let cfg = || {
            NetConfig::ideal()
                .with_latency(LatencyModel::lan())
                .with_seed(1234)
        };
        let run = |mut net: SimNet| {
            for i in 0..10u8 {
                net.send_on(R, NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i]));
            }
            let mut times = Vec::new();
            while let Ok(m) = net.recv_on(R, NodeId(1)) {
                times.push(m.deliver_at);
            }
            times
        };
        assert_eq!(run(SimNet::new(2, cfg())), run(SimNet::new(2, cfg())));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_node_panics() {
        let mut net = net(2);
        net.send_on(R, NodeId(0), NodeId(5), Bytes::new());
    }

    #[test]
    fn envelope_wire_round_trip() {
        let env = Envelope::new(
            SessionId(42),
            NodeId(1),
            NodeId(3),
            Bytes::from_static(b"fragment"),
            SimTime::from_micros(7),
            SimTime::from_micros(19),
        );
        let encoded = env.encode();
        assert_eq!(encoded.len(), env.encoded_len());
        assert_eq!(Envelope::decode(&encoded).unwrap(), env);
        // Truncated frames are rejected.
        assert!(Envelope::decode(&env.encode()[..10]).is_err());
    }

    #[test]
    fn bit_flipped_frame_rejected_at_decode() {
        // Satellite regression: a corrupted payload must be caught at
        // decode by the envelope checksum, not delivered as garbage.
        let env = Envelope::new(
            SessionId(1),
            NodeId(0),
            NodeId(1),
            Bytes::from_static(b"sensitive fragment bytes"),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        let mut frame = env.encode().to_vec();
        let last = frame.len() - 1; // inside the payload
        frame[last] ^= 0x01;
        let err = Envelope::decode(&frame).unwrap_err();
        assert_eq!(err, crate::wire::WireError::checksum_mismatch());
    }

    #[test]
    fn sessions_have_isolated_inboxes() {
        let mut net = net(2);
        let s1 = net.open_session();
        let s2 = net.open_session();
        net.send_on(s1, NodeId(0), NodeId(1), Bytes::from_static(b"one"));
        net.send_on(s2, NodeId(0), NodeId(1), Bytes::from_static(b"two"));
        // Session 2 only sees its own message; session 1's stays queued.
        let m = net.recv_on(s2, NodeId(1)).unwrap();
        assert_eq!(&m.payload[..], b"two");
        assert_eq!(m.session, s2);
        assert!(net.recv_on(s2, NodeId(1)).is_err());
        assert_eq!(net.pending_on(s1, NodeId(1)), 1);
        assert_eq!(&net.recv_on(s1, NodeId(1)).unwrap().payload[..], b"one");
        // The root session saw nothing.
        assert!(net.recv_on(R, NodeId(1)).is_err());
    }

    #[test]
    fn per_session_clocks_are_independent() {
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Fixed(SimTime::from_millis(5)));
        let mut net = SimNet::new(2, cfg);
        let s1 = net.open_session();
        let s2 = net.open_session();
        // Two sessions each do one 5ms hop: both end at 5ms — they ran
        // in parallel, so the overall makespan is 5ms, not 10ms.
        net.send_on(s1, NodeId(0), NodeId(1), Bytes::from_static(b"a"));
        net.send_on(s2, NodeId(0), NodeId(1), Bytes::from_static(b"b"));
        net.recv_on(s1, NodeId(1)).unwrap();
        net.recv_on(s2, NodeId(1)).unwrap();
        assert_eq!(net.session_elapsed(s1), SimTime::from_millis(5));
        assert_eq!(net.session_elapsed(s2), SimTime::from_millis(5));
        assert_eq!(net.makespan(), SimTime::from_millis(5));
        // Root clocks were never touched.
        assert_eq!(net.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn new_sessions_inherit_root_clocks() {
        let cfg = NetConfig::ideal().with_latency(LatencyModel::Fixed(SimTime::from_millis(2)));
        let mut net = SimNet::new(2, cfg);
        net.send_on(R, NodeId(0), NodeId(1), Bytes::from_static(b"warmup"));
        net.recv_on(R, NodeId(1)).unwrap();
        let s = net.open_session();
        assert_eq!(net.clock_on(s, NodeId(1)), SimTime::from_millis(2));
    }

    #[test]
    fn sync_session_only_advances() {
        let mut net = net(2);
        let s = net.open_session();
        net.sync_session(s, SimTime::from_millis(3));
        assert_eq!(net.session_elapsed(s), SimTime::from_millis(3));
        // Syncing backwards is a no-op.
        net.sync_session(s, SimTime::from_millis(1));
        assert_eq!(net.session_elapsed(s), SimTime::from_millis(3));
    }

    #[test]
    fn per_link_delivery_is_fifo_within_a_session() {
        // A wide-variance latency model *would* reorder messages on the
        // same link; the per-link floor forbids it.
        let cfg = NetConfig::ideal()
            .with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(1),
                max: SimTime::from_micros(10_000),
                bytes_per_us: 0,
            })
            .with_seed(7);
        let mut net = SimNet::new(2, cfg);
        let s = net.open_session();
        for i in 0..50u8 {
            net.send_on(s, NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i]));
        }
        let mut expected = 0u8;
        while let Ok(m) = net.recv_on(s, NodeId(1)) {
            assert_eq!(m.payload[0], expected, "FIFO order violated");
            expected += 1;
        }
        assert_eq!(expected, 50);
    }

    #[test]
    fn interleaved_sessions_do_not_perturb_each_others_schedule() {
        // Satellite regression: the delivery schedule a session observes
        // must be identical whether or not other sessions are running.
        let cfg = || {
            NetConfig::ideal()
                .with_latency(LatencyModel::lan())
                .with_seed(99)
        };
        let drive = |net: &mut SimNet, session: SessionId| -> Vec<SimTime> {
            for i in 0..10u8 {
                net.send_on(session, NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i]));
            }
            let mut times = Vec::new();
            while let Ok(m) = net.recv_on(session, NodeId(1)) {
                times.push(m.deliver_at);
            }
            times
        };

        // Alone.
        let mut solo = SimNet::new(2, cfg());
        let s = SessionId(5);
        let alone = drive(&mut solo, s);

        // Interleaved with two other chatty sessions.
        let mut busy = SimNet::new(2, cfg());
        for i in 0..25u8 {
            busy.send_on(
                SessionId(1),
                NodeId(1),
                NodeId(0),
                Bytes::copy_from_slice(&[i]),
            );
            busy.send_on(
                SessionId(2),
                NodeId(0),
                NodeId(1),
                Bytes::copy_from_slice(&[i]),
            );
        }
        let interleaved = drive(&mut busy, s);
        assert_eq!(alone, interleaved);
    }
}

//! Session-scoped transport abstraction.
//!
//! Protocol engines (`dla-mpc`) are written against a [`Session`]: a
//! [`SessionId`] bound to a [`Transport`]. The transport decides *how*
//! messages move; the session decides *which protocol instance* they
//! belong to. This module holds the two in-process transports (the
//! third, [`crate::TcpNet`], crosses process boundaries):
//!
//! * [`SharedNet`] — the one adapter from the virtual-time [`SimNet`]
//!   to [`Transport`]: a mutex over the simulator it owns, driven by
//!   one session per worker thread. Virtual time stays deterministic
//!   per session while real threads interleave freely.
//! * [`ChannelNet`] — a crossbeam-channel transport for real OS
//!   threads, where every message crosses the [`Envelope::encode`]
//!   wire codec, session id first. Receivers demultiplex by session,
//!   so independent protocol instances can share one physical network.
//!
//! They stay two types on purpose: one is a discrete-event model, the
//! other blocks threads, and they share no logic beyond the trait.

use crate::sim::{Envelope, SimNet};
use crate::stats::TrafficStats;
use crate::time::{Clock, SimTime, WallClock};
use crate::{NetError, NodeId, SessionId};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A network that can carry several protocol sessions at once.
///
/// All methods take `&self`: implementations use interior mutability so
/// one transport can be shared by concurrent protocol sessions.
pub trait Transport {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Sends `payload` from `from` to `to` within `session`.
    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes);

    /// Receives the earliest pending message for `node` in `session`.
    ///
    /// # Errors
    ///
    /// Transport-specific: [`NetError::EmptyInbox`] on the simulator,
    /// [`NetError::Timeout`] on threaded transports.
    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError>;

    /// Selective receive: the earliest pending message for `node` in
    /// `session` sent by `from`.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv`], plus [`NetError::UnexpectedSender`] on
    /// the simulator when another sender's message is at the head.
    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError>;

    /// Charges local computation time to `node`'s clock in `session`
    /// (no-op on transports without virtual time).
    fn charge(&self, session: SessionId, node: NodeId, cost: SimTime);

    /// `(messages, bytes)` sent so far within `session`.
    fn counters(&self, session: SessionId) -> (u64, u64);

    /// Virtual makespan of `session` (zero on transports without
    /// virtual time).
    fn elapsed(&self, session: SessionId) -> SimTime;
}

/// One protocol instance's handle onto a [`Transport`].
///
/// Copyable and cheap: protocol code passes `&Session` down its call
/// tree exactly like it used to pass `&mut SimNet`.
#[derive(Clone, Copy)]
pub struct Session<'a> {
    transport: &'a dyn Transport,
    id: SessionId,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Session({})", self.id)
    }
}

impl<'a> Session<'a> {
    /// Binds `id` on `transport`.
    #[must_use]
    pub fn new(transport: &'a dyn Transport, id: SessionId) -> Self {
        Session { transport, id }
    }

    /// The root session ([`SessionId::ROOT`]) — where a transport's
    /// one-at-a-time traffic runs: a single protocol on its own
    /// network, and every `dla-audit` cluster leg that is not a
    /// concurrent subquery.
    #[must_use]
    pub fn root(transport: &'a dyn Transport) -> Self {
        Session::new(transport, SessionId::ROOT)
    }

    /// This session's id.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Number of nodes on the underlying transport.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.transport.num_nodes()
    }

    /// Sends within this session.
    pub fn send(&self, from: NodeId, to: NodeId, payload: Bytes) {
        self.transport.send(self.id, from, to, payload);
    }

    /// Receives within this session. Messages corrupted in flight are
    /// consumed but surfaced as [`NetError::Corrupt`] — protocol code
    /// never sees garbage bytes.
    ///
    /// # Errors
    ///
    /// See [`Transport::recv`], plus [`NetError::Corrupt`] on a
    /// checksum failure.
    pub fn recv(&self, node: NodeId) -> Result<Envelope, NetError> {
        Self::intact(self.transport.recv(self.id, node)?, node)
    }

    /// Selective receive within this session; rejects corrupted
    /// messages like [`Session::recv`].
    ///
    /// # Errors
    ///
    /// See [`Transport::recv_from`], plus [`NetError::Corrupt`] on a
    /// checksum failure.
    pub fn recv_from(&self, node: NodeId, from: NodeId) -> Result<Envelope, NetError> {
        Self::intact(self.transport.recv_from(self.id, node, from)?, node)
    }

    /// One protocol round: every `(from, to, payload)` frame is sent,
    /// in order, before any is received; then each is received at its
    /// destination, selectively by sender, in the same order. The
    /// envelopes come back in frame order.
    ///
    /// The receive phase is drain-then-fail: every receive of the round
    /// is attempted even after one has failed, so an `Err` leaves none
    /// of the round's frames behind for the session's next run to
    /// mistake for its own. On the blocking transports that costs up to
    /// one receive timeout per *missing* frame.
    ///
    /// # Errors
    ///
    /// The first failed receive, as [`Session::recv_from`].
    pub fn round(
        &self,
        frames: impl IntoIterator<Item = (NodeId, NodeId, Bytes)>,
    ) -> Result<Vec<Envelope>, NetError> {
        let links: Vec<(NodeId, NodeId)> = frames
            .into_iter()
            .map(|(from, to, payload)| {
                self.send(from, to, payload);
                (from, to)
            })
            .collect();
        let mut envelopes = Vec::with_capacity(links.len());
        let mut first_error = None;
        for (from, to) in links {
            match self.recv_from(to, from) {
                Ok(envelope) => envelopes.push(envelope),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(envelopes), Err)
    }

    fn intact(envelope: Envelope, node: NodeId) -> Result<Envelope, NetError> {
        if envelope.is_intact() {
            Ok(envelope)
        } else {
            Err(NetError::Corrupt(node))
        }
    }

    /// Charges compute time within this session.
    pub fn charge(&self, node: NodeId, cost: SimTime) {
        self.transport.charge(self.id, node, cost);
    }

    /// `(messages, bytes)` sent so far within this session.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        self.transport.counters(self.id)
    }

    /// Virtual makespan of this session.
    #[must_use]
    pub fn elapsed(&self) -> SimTime {
        self.transport.elapsed(self.id)
    }
}

/// A [`SimNet`] behind the [`Transport`] trait — the only adapter
/// from the simulator to protocol code.
///
/// It owns its simulator, and each operation takes the lock briefly,
/// so real OS threads can each drive their own session over one
/// simulated network. Virtual time and delivery order stay
/// deterministic *per session* (see [`SimNet`]'s session partitioning)
/// no matter how the threads interleave; with a single driver the lock
/// is never contended.
#[derive(Debug)]
pub struct SharedNet {
    net: Mutex<SimNet>,
}

impl SharedNet {
    /// Wraps `net`.
    #[must_use]
    pub fn new(net: SimNet) -> Self {
        SharedNet {
            net: Mutex::new(net),
        }
    }

    /// Locks the simulator for inspection and scripting — stats,
    /// clocks, fault injection between protocol operations, fresh
    /// session ids. Messages move through a [`Session`], not through
    /// this guard. The lock is not reentrant.
    pub fn lock(&self) -> MutexGuard<'_, SimNet> {
        self.net.lock()
    }

    /// Unwraps the simulator, e.g. to read its final ledger.
    #[must_use]
    pub fn into_inner(self) -> SimNet {
        self.net.into_inner()
    }

    fn sim<R>(&self, f: impl FnOnce(&mut SimNet) -> R) -> R {
        f(&mut self.net.lock())
    }
}

impl Transport for SharedNet {
    fn num_nodes(&self) -> usize {
        self.sim(|net| net.num_nodes())
    }

    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        self.sim(|net| net.send_on(session, from, to, payload));
    }

    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.sim(|net| net.recv_on(session, node))
    }

    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.sim(|net| net.recv_from_on(session, node, from))
    }

    fn charge(&self, session: SessionId, node: NodeId, cost: SimTime) {
        self.sim(|net| net.charge_on(session, node, cost));
    }

    fn counters(&self, session: SessionId) -> (u64, u64) {
        self.sim(|net| {
            let s = net.stats().session(session);
            (s.messages, s.bytes)
        })
    }

    fn elapsed(&self, session: SessionId) -> SimTime {
        self.sim(|net| net.session_elapsed(session))
    }
}

/// One node's receive queue: the channel its senders fill, plus a
/// stash of envelopes that arrived for other sessions (or other
/// senders, during a selective receive).
#[derive(Debug)]
struct Slot {
    rx: Receiver<Envelope>,
    stash: VecDeque<Envelope>,
}

/// The receive side of the blocking transports ([`ChannelNet`] and
/// [`crate::TcpNet`]): per node a channel of decoded envelopes and a
/// stash, and the one deadline loop that demultiplexes them by session
/// on an injected [`Clock`].
#[derive(Debug)]
pub(crate) struct Inbox {
    senders: Vec<Sender<Envelope>>,
    slots: Vec<Mutex<Slot>>,
    pub(crate) timeout: SimTime,
    pub(crate) clock: Arc<dyn Clock>,
}

impl Inbox {
    /// `n` empty queues whose receives give up after `timeout` on
    /// `clock`.
    pub(crate) fn new(n: usize, timeout: SimTime, clock: Arc<dyn Clock>) -> Self {
        assert!(n > 0, "network needs at least one node");
        let (senders, slots) = (0..n)
            .map(|_| {
                let (tx, rx) = unbounded();
                let stash = VecDeque::new();
                (tx, Mutex::new(Slot { rx, stash }))
            })
            .unzip();
        Inbox {
            senders,
            slots,
            timeout,
            clock,
        }
    }

    /// The per-node senders, for threads that fill the queues.
    pub(crate) fn senders(&self) -> &[Sender<Envelope>] {
        &self.senders
    }

    /// Queues `envelope` at its destination; `false` when the
    /// destination is out of range.
    pub(crate) fn push(&self, envelope: Envelope) -> bool {
        self.senders
            .get(envelope.to.0)
            .is_some_and(|tx| tx.send(envelope).is_ok())
    }

    /// Blocking receive at `node` with session (and optional sender)
    /// filtering; the delivery is recorded in `stats`. Under a wall
    /// clock each fruitless wait counts against the real deadline;
    /// a virtual clock does not move on its own, so the wait that
    /// expired is charged to it and the deadline still fires.
    pub(crate) fn recv(
        &self,
        stats: &Mutex<TrafficStats>,
        session: SessionId,
        node: NodeId,
        from: Option<NodeId>,
    ) -> Result<Envelope, NetError> {
        assert!(node.0 < self.slots.len(), "node {node} out of range");
        let mut slot = self.slots[node.0].lock();
        let matches = |e: &Envelope| e.session == session && from.is_none_or(|f| e.from == f);
        // Earlier arrivals first: check the stash before the channel.
        let envelope = if let Some(pos) = slot.stash.iter().position(&matches) {
            slot.stash.remove(pos).expect("position just found")
        } else {
            let deadline = self.clock.now() + self.timeout;
            loop {
                let now = self.clock.now();
                if now >= deadline {
                    return Err(NetError::Timeout(node));
                }
                let left = deadline - now;
                match slot.rx.recv_timeout(left.to_duration()) {
                    Ok(envelope) if matches(&envelope) => break envelope,
                    // Another session's (or sender's): keep it for the
                    // receive that wants it.
                    Ok(envelope) => slot.stash.push_back(envelope),
                    Err(_) if self.clock.is_virtual() => self.clock.advance(left),
                    Err(_) => {}
                }
            }
        };
        stats
            .lock()
            .record_delivery(envelope.session, envelope.payload.len());
        dla_telemetry::record(dla_telemetry::CostKind::MsgDelivered, 1);
        Ok(envelope)
    }
}

/// A threaded transport: every message is put through the
/// [`Envelope::encode`] wire codec — the bytes a socket would carry,
/// CRC included — and queued at its destination, where the receive
/// side demultiplexes by the session id that leads every frame.
///
/// Unlike the simulator there is no virtual time — `recv` genuinely
/// blocks (up to the configured timeout) waiting for another OS thread
/// to produce the message.
#[derive(Debug)]
pub struct ChannelNet {
    inbox: Inbox,
    stats: Mutex<TrafficStats>,
}

impl ChannelNet {
    /// Builds a fully connected `n`-node channel network with a 5 s
    /// receive timeout.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_timeout(n, Duration::from_secs(5))
    }

    /// As [`ChannelNet::new`] with an explicit receive timeout, driven
    /// by a [`WallClock`] (receives block in real time).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_timeout(n: usize, timeout: Duration) -> Self {
        let timeout = SimTime::from_nanos(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX));
        Self::with_clock(n, timeout, Arc::new(WallClock::new()))
    }

    /// As [`ChannelNet::with_timeout`] with an explicit [`Clock`]
    /// driver for the receive deadlines. Under a wall clock each
    /// fruitless wait slice counts against the real deadline; under a
    /// virtual clock the transport itself advances the clock by the
    /// waited span when a slice expires, so the deadline still fires.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_clock(n: usize, timeout: SimTime, clock: Arc<dyn Clock>) -> Self {
        ChannelNet {
            inbox: Inbox::new(n, timeout, clock),
            stats: Mutex::new(TrafficStats::new()),
        }
    }

    /// The clock driving this transport's receive deadlines.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inbox.clock
    }

    /// A snapshot of the traffic counters.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats.lock().clone()
    }
}

impl Transport for ChannelNet {
    fn num_nodes(&self) -> usize {
        self.inbox.senders().len()
    }

    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        assert!(to.0 < self.num_nodes(), "node {to} out of range");
        self.stats
            .lock()
            .record_send(session, from.0, to.0, payload.len(), SimTime::ZERO);
        dla_telemetry::record(dla_telemetry::CostKind::MsgSent, 1);
        dla_telemetry::record(dla_telemetry::CostKind::BytesSent, payload.len() as u64);
        let frame =
            Envelope::new(session, from, to, payload, SimTime::ZERO, SimTime::ZERO).encode();
        // This call is the socket and `TcpNet`'s reader thread in one:
        // the inbox gets the frame decoded, CRC checked. A frame that
        // fails to decode is discarded and counted — a reliable layer
        // above recovers it by retransmission, and an unreliable
        // caller would rather time out than consume garbage.
        match Envelope::decode(&frame) {
            Ok(envelope) => {
                if !self.inbox.push(envelope) {
                    self.stats.lock().messages_dropped += 1;
                }
            }
            Err(_) => self.stats.lock().messages_corrupted += 1,
        }
    }

    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.inbox.recv(&self.stats, session, node, None)
    }

    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.inbox.recv(&self.stats, session, node, Some(from))
    }

    fn charge(&self, _session: SessionId, _node: NodeId, _cost: SimTime) {
        // Real threads: compute time is real time, nothing to model.
    }

    fn counters(&self, session: SessionId) -> (u64, u64) {
        let stats = self.stats.lock();
        let s = stats.session(session);
        (s.messages, s.bytes)
    }

    fn elapsed(&self, _session: SessionId) -> SimTime {
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NetConfig;
    use std::thread;

    /// Round trip, two multiplexed sessions, then two threads each
    /// driving its own session.
    #[test]
    fn shared_net_carries_sessions_across_threads() {
        let shared = &SharedNet::new(SimNet::new(2, NetConfig::ideal()));
        let root = Session::root(shared);
        root.send(NodeId(0), NodeId(1), Bytes::from_static(b"hi"));
        assert_eq!(&root.recv(NodeId(1)).unwrap().payload[..], b"hi");
        assert_eq!(root.counters(), (1, 2));

        let (s1, s2) = {
            let mut net = shared.lock();
            (net.open_session(), net.open_session())
        };
        let (a, b) = (Session::new(shared, s1), Session::new(shared, s2));
        a.send(NodeId(0), NodeId(1), Bytes::from_static(b"aa"));
        b.send(NodeId(0), NodeId(1), Bytes::from_static(b"bb"));
        // Each session only sees its own traffic.
        assert_eq!(&b.recv(NodeId(1)).unwrap().payload[..], b"bb");
        assert_eq!(&a.recv(NodeId(1)).unwrap().payload[..], b"aa");
        assert!(a.recv(NodeId(1)).is_err());
        assert_eq!((a.counters(), b.counters()), ((1, 2), (1, 2)));

        thread::scope(|scope| {
            for sid in [s1, s2] {
                scope.spawn(move || {
                    let session = Session::new(shared, sid);
                    for i in 0..20u8 {
                        session.send(NodeId(0), NodeId(1), Bytes::copy_from_slice(&[i]));
                        let m = session.recv(NodeId(1)).unwrap();
                        assert_eq!(m.payload[0], i);
                        assert_eq!(m.session, sid);
                    }
                });
            }
        });
        let net = shared.lock();
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 43);
        assert_eq!(stats.session(s1).messages, 21);
        assert_eq!(stats.session(s2).messages, 21);
    }

    #[test]
    fn shared_net_is_send_and_sync_and_gives_its_simulator_back() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedNet>();
        let shared = SharedNet::new(SimNet::new(2, NetConfig::ideal()));
        Session::root(&shared).send(NodeId(0), NodeId(1), Bytes::from_static(b"hi"));
        assert_eq!(shared.into_inner().stats().messages_sent, 1);
    }

    #[test]
    fn inbox_deadline_runs_on_either_clock_and_keeps_other_sessions_frames() {
        use crate::time::VirtualClock;
        let stats = Mutex::new(TrafficStats::new());
        let envelope = |session, payload: &'static [u8]| {
            let payload = Bytes::from_static(payload);
            Envelope::new(
                session,
                NodeId(1),
                NodeId(0),
                payload,
                SimTime::ZERO,
                SimTime::ZERO,
            )
        };
        let timed_out = Err(NetError::Timeout(NodeId(0)));

        // A virtual clock is charged the wait instead of real time.
        let clock = Arc::new(VirtualClock::new());
        let inbox = Inbox::new(2, SimTime::from_millis(2), Arc::clone(&clock) as _);
        assert_eq!(inbox.recv(&stats, SessionId(1), NodeId(0), None), timed_out);
        assert!(clock.now() >= SimTime::from_millis(2));

        // A wall clock waits the timeout out for real.
        let wall = Inbox::new(2, SimTime::from_millis(10), Arc::new(WallClock::new()));
        let started = std::time::Instant::now();
        assert_eq!(wall.recv(&stats, SessionId(1), NodeId(0), None), timed_out);
        assert!(started.elapsed() >= Duration::from_millis(10));

        // A frame for session 2 arrives first: session 1's receive
        // stashes it on the way to its own, and session 2 still gets it.
        assert!(inbox.push(envelope(SessionId(2), b"for-2")));
        assert!(inbox.push(envelope(SessionId(1), b"for-1")));
        let got = |session| inbox.recv(&stats, session, NodeId(0), Some(NodeId(1)));
        assert_eq!(&got(SessionId(1)).unwrap().payload[..], b"for-1");
        assert_eq!(&got(SessionId(2)).unwrap().payload[..], b"for-2");
        assert_eq!(stats.lock().session(SessionId(2)).messages_delivered, 1);
        // Nowhere to queue an envelope for a node that does not exist.
        let mut stray = envelope(SessionId(1), b"x");
        stray.to = NodeId(2);
        assert!(!inbox.push(stray));
    }

    #[test]
    fn channel_net_ships_envelopes_across_threads() {
        let net = ChannelNet::new(2);
        thread::scope(|scope| {
            let net = &net;
            scope.spawn(move || {
                let session = Session::new(net, SessionId(9));
                let m = session.recv(NodeId(1)).unwrap();
                assert_eq!(&m.payload[..], b"ping");
                assert_eq!(m.session, SessionId(9));
                session.send(NodeId(1), NodeId(0), Bytes::from_static(b"pong"));
            });
            let session = Session::new(net, SessionId(9));
            session.send(NodeId(0), NodeId(1), Bytes::from_static(b"ping"));
            let reply = session.recv_from(NodeId(0), NodeId(1)).unwrap();
            assert_eq!(&reply.payload[..], b"pong");
        });
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.session(SessionId(9)).messages, 2);
    }

    #[test]
    fn channel_net_demultiplexes_sessions() {
        // A frame for session 2 arrives first; a recv on session 1 must
        // skip past it (stashing it) and session 2's recv still gets it.
        let net = ChannelNet::new(2);
        let s1 = Session::new(&net, SessionId(1));
        let s2 = Session::new(&net, SessionId(2));
        s2.send(NodeId(0), NodeId(1), Bytes::from_static(b"for-2"));
        s1.send(NodeId(0), NodeId(1), Bytes::from_static(b"for-1"));
        assert_eq!(&s1.recv(NodeId(1)).unwrap().payload[..], b"for-1");
        assert_eq!(&s2.recv(NodeId(1)).unwrap().payload[..], b"for-2");
    }

    #[test]
    fn channel_net_recv_times_out() {
        let net = ChannelNet::with_timeout(2, Duration::from_millis(10));
        let session = Session::root(&net);
        assert_eq!(
            session.recv(NodeId(0)).unwrap_err(),
            NetError::Timeout(NodeId(0))
        );
    }

    #[test]
    fn channel_net_deadline_runs_on_the_injected_clock() {
        use crate::time::{Clock, VirtualClock};
        let clock = Arc::new(VirtualClock::new());
        let net = ChannelNet::with_clock(2, SimTime::from_millis(2), Arc::clone(&clock) as _);
        let session = Session::root(&net);
        // The wait charges the virtual clock instead of real time.
        assert_eq!(
            session.recv(NodeId(0)).unwrap_err(),
            NetError::Timeout(NodeId(0))
        );
        assert!(clock.now() >= SimTime::from_millis(2));
        // Delivery still works after a timeout, and a pre-advanced
        // clock shifts (not shrinks) the deadline window.
        clock.advance(SimTime::from_millis(10));
        session.send(NodeId(1), NodeId(0), Bytes::from_static(b"late"));
        assert_eq!(&session.recv(NodeId(0)).unwrap().payload[..], b"late");
    }

    #[test]
    fn transports_are_object_safe() {
        fn take(_: &dyn Transport) {}
        take(&SharedNet::new(SimNet::new(1, NetConfig::ideal())));
        take(&ChannelNet::new(1));
        // Its one id is coordinator-hosted, so there is nobody to dial.
        let tcp = crate::TcpNet::connect(&[None], [0].into(), crate::TcpConfig::default());
        take(&tcp.expect("no peer to dial"));
    }
}

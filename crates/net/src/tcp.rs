//! A socket transport that crosses process boundaries ([`TcpNet`]).
//!
//! The other two transports (the simulator behind [`crate::SharedNet`]
//! and the threaded [`crate::ChannelNet`]) live in one OS process.
//! `TcpNet` is the third [`Transport`]: messages travel as
//! length-prefixed [`Envelope::encode`] frames over `std::net` TCP
//! connections between genuinely separate processes, one per DLA or
//! application node.
//!
//! # Deployment model
//!
//! The protocol engines in `dla-mpc` are *centrally driven*: one
//! coordinator (the auditor's process) performs every node's sends and
//! receives over a [`Session`]. `TcpNet` keeps that driver intact while
//! making every hop cross real sockets:
//!
//! * `send(from, to)` where `from` is a remote node ships a **route**
//!   frame to the process serving `from`, which forwards the envelope
//!   to the process serving `to`, which hands it back to the
//!   coordinator as a **deliver** frame — three TCP legs, with the
//!   message genuinely transiting both owning processes.
//! * `recv(node)` pops the coordinator-side inbox that the reader
//!   threads fill from incoming deliver frames — the same inbox, and
//!   the same demultiplexing by session, as [`crate::ChannelNet`]'s.
//! * A protocol round ([`crate::Session::round`]) sends all its frames
//!   before its first receive, so a round's three-leg trips overlap;
//!   the reader threads park the deliver frames in the inbox meanwhile.
//! * Node processes run [`serve`] (the `dla-node` binary is a thin
//!   wrapper): an accept loop plus one reader thread per connection, a
//!   connect/accept handshake that exchanges node ids, dial-on-demand
//!   between peers with reconnect-and-backoff, and a deposit store for
//!   fragments shipped via [`TcpNet::deposit`].
//!
//! # One syscall and one wake-up per hop
//!
//! Payloads are a few dozen bytes, so a hop costs what its framing
//! costs. A frame is built once behind four reserved length-prefix
//! bytes and leaves in one `write`; readers are `BufReader`s wrapped
//! *after* the handshake, so a small frame arrives in one `read`. There
//! are no writer threads or queues: a connection's write half is a
//! mutex-guarded stream, written inline by whichever thread has the
//! frame (the handle is cloned out of the connection table first — no
//! socket write under the table lock). Inline writes can block, but
//! never in a cycle: callers → a node's reader-for-the-coordinator →
//! a peer's reader-for-that-node → the coordinator's reader, which
//! **never writes** (DESIGN.md §13 has the argument in full). A peer
//! that does not read trips [`WRITE_STALL`]: a closed link and a lost
//! frame, where a writer thread's queue would have grown without bound.
//!
//! Receive deadlines run on the pluggable [`Clock`] driver
//! ([`crate::WallClock`] by default).
//!
//! [`Session`]: crate::Session

use crate::session::Inbox;
use crate::sim::Envelope;
use crate::stats::TrafficStats;
use crate::time::{Clock, SimTime, WallClock};
use crate::wire::{crc32, Reader, Writer};
use crate::{NetError, NodeId, SessionId, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufReader, Read, Write as IoWrite};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Protocol magic exchanged in the handshake ("DLA1TCP1").
const MAGIC: u64 = 0x444C_4131_5443_5031;
/// The coordinator's id in the handshake (never a valid node index).
const COORD: u64 = u64::MAX;
/// Largest frame body accepted. A length prefix beyond this is
/// rejected *before* any allocation, so a hostile peer cannot make a
/// reader allocate unbounded memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;
/// How long an inline frame write may wait on a peer that is not
/// taking bytes before the connection is shut down. The default receive
/// deadline: a longer stall has already failed whoever waits on it.
pub const WRITE_STALL: Duration = Duration::from_secs(5);

const FRAME_HELLO: u8 = 0x01;
const FRAME_ROUTE: u8 = 0x02;
const FRAME_FWD: u8 = 0x03;
const FRAME_DELIVER: u8 = 0x04;
const FRAME_STORE: u8 = 0x05;
const FRAME_STORED: u8 = 0x06;
const FRAME_SHUTDOWN: u8 = 0x07;
const FRAME_BYE: u8 = 0x08;

/// The length prefix for a `len`-byte frame body.
fn frame_prefix(len: usize) -> io::Result<[u8; 4]> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    Ok((len as u32).to_be_bytes())
}

/// Writes one length-prefixed frame (`u32` big-endian length, then the
/// body) as a single buffer in a single `write_all`: on a socket, one
/// `write` syscall and — under `TCP_NODELAY` — one segment.
///
/// # Errors
///
/// Propagates I/O failures; rejects bodies above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl IoWrite, body: &[u8]) -> io::Result<()> {
    let prefix = frame_prefix(body.len())?;
    let mut frame = Vec::with_capacity(prefix.len() + body.len());
    frame.extend_from_slice(&prefix);
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Starts an outgoing frame behind four reserved length-prefix bytes
/// ([`seal`] patches them), sized for the `len` bytes that follow the
/// tag: one buffer, allocated once, whatever its size.
fn frame(tag: u8, len: usize) -> Writer {
    let mut w = Writer::with_capacity(5 + len);
    w.put_u32(0).put_u8(tag);
    w
}

/// Patches the reserved prefix with the body length.
fn seal(w: Writer) -> io::Result<Vec<u8>> {
    let mut frame = w.into_vec();
    let prefix = frame_prefix(frame.len() - 4)?;
    frame[..4].copy_from_slice(&prefix);
    Ok(frame)
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures (including clean EOF as
/// [`io::ErrorKind::UnexpectedEof`]); a length prefix above
/// [`MAX_FRAME`] yields [`io::ErrorKind::InvalidData`] **without
/// allocating**.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame length prefix",
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Decodes the envelope carried by a route/forward/deliver frame body
/// (everything after the tag byte). Truncated bytes, trailing bytes
/// and checksum mismatches all surface as [`NetError::Corrupt`] at
/// `node` — never a panic, and never silent garbage.
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on any malformed input.
pub fn decode_envelope(frame: &[u8], node: NodeId) -> Result<Envelope, NetError> {
    Envelope::decode(frame).map_err(|_| NetError::Corrupt(node))
}

fn envelope_frame(tag: u8, envelope: &Envelope) -> io::Result<Vec<u8>> {
    let mut w = frame(tag, envelope.encoded_len());
    envelope.encode_into(&mut w);
    seal(w)
}

/// A control frame: `tag`, then `fields` as big-endian `u64`s.
fn fields_frame(tag: u8, fields: &[u64]) -> io::Result<Vec<u8>> {
    let mut w = frame(tag, 8 * fields.len());
    for &field in fields {
        w.put_u64(field);
    }
    seal(w)
}

/// The `N` `u64` fields of a control frame's body (after the tag
/// byte); `None` unless the body holds exactly that many.
fn parse_fields<const N: usize>(body: &[u8]) -> Option<[u64; N]> {
    let mut r = Reader::new(body.get(1..)?);
    let mut fields = [0u64; N];
    for field in &mut fields {
        *field = r.get_u64().ok()?;
    }
    r.finish().ok()?;
    Some(fields)
}

/// Dials `addr`, retrying with exponential backoff until `deadline`
/// real time has passed — the reconnect discipline both the
/// coordinator and the peer-to-peer dial-on-demand path use (a peer
/// that is still starting up, or that dropped a connection, is retried
/// rather than declared gone).
fn dial_with_backoff(addr: SocketAddr, deadline: Duration) -> io::Result<TcpStream> {
    let started = Instant::now();
    let mut pause = Duration::from_millis(25);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                // Frames are small request/response units; Nagle plus
                // delayed ACK would add ~40ms stalls per hop.
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) if started.elapsed() >= deadline => return Err(e),
            Err(_) => {
                thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(800));
            }
        }
    }
}

/// Performs the connect-side handshake: announce ourselves, read the
/// peer's announcement back.
fn handshake(stream: &mut TcpStream, us: u64, n: u64) -> io::Result<(u64, u64)> {
    stream.write_all(&fields_frame(FRAME_HELLO, &[MAGIC, us, n])?)?;
    let body = read_frame(stream)?;
    match (body.first(), parse_fields(&body)) {
        (Some(&FRAME_HELLO), Some([MAGIC, peer, n])) => Ok((peer, n)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed handshake",
        )),
    }
}

/// A connection's write half, written inline by whichever thread has
/// a frame; the lock keeps frames whole on a shared connection.
type Link = Arc<Mutex<TcpStream>>;

/// A handshaken stream's write half, write-stall timeout armed.
fn new_link(stream: &TcpStream) -> io::Result<Link> {
    let write_half = stream.try_clone()?;
    write_half.set_write_timeout(Some(WRITE_STALL))?;
    Ok(Arc::new(Mutex::new(write_half)))
}

/// Writes one sealed frame on `link` — normally a single `write`; a
/// blocking write comes back short only when the send timeout fired.
/// A frame still unwritten after [`WRITE_STALL`], like any failure,
/// shuts the connection down (a partial frame has desynchronised it),
/// which also ends the reader thread on its other half.
fn write_link(link: &Link, frame: &[u8]) -> io::Result<()> {
    let mut stream = link.lock();
    let (started, mut rest) = (Instant::now(), frame);
    let result = loop {
        match stream.write(rest) {
            Ok(n) if n == rest.len() => break Ok(()),
            Ok(n) if n > 0 && started.elapsed() < WRITE_STALL => rest = &rest[n..],
            Ok(_) => break Err(io::ErrorKind::TimedOut.into()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    if result.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    result
}

// ---------------------------------------------------------------------
// Node-process side: the serve loop behind the `dla-node` binary.
// ---------------------------------------------------------------------

/// Static configuration of one node process: its id, the peer table
/// (`None` entries are node ids the coordinator hosts in-process), a
/// role label and an identity key folded into the teardown digest.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id (index into the peer table).
    pub id: usize,
    /// Listen/dial addresses per node id; `peers[id]` is this node's
    /// own address, `None` marks coordinator-hosted ids.
    pub peers: Vec<Option<SocketAddr>>,
    /// Role label ("ttp", "app", …) echoed in the report.
    pub role: String,
    /// Identity key: seeds the deposit digest so a report can be tied
    /// to the keyed node that produced it.
    pub key: u64,
}

/// What one node process did, reported in its farewell frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeReport {
    /// Node id.
    pub id: usize,
    /// Route frames executed (envelopes this node sent on behalf of
    /// the coordinator's driver).
    pub routed: u64,
    /// Forward frames received for this node and handed up.
    pub forwarded: u64,
    /// Fragments stored via [`TcpNet::deposit`].
    pub stored: u64,
    /// Total stored payload bytes.
    pub stored_bytes: u64,
    /// Running CRC-32 chain over the stored payloads, seeded with the
    /// node's identity key.
    pub digest: u64,
}

impl NodeReport {
    /// The farewell frame's fields, in wire order.
    fn to_fields(&self) -> [u64; 6] {
        [
            self.id as u64,
            self.routed,
            self.forwarded,
            self.stored,
            self.stored_bytes,
            self.digest,
        ]
    }

    fn from_fields([id, routed, forwarded, stored, stored_bytes, digest]: [u64; 6]) -> Self {
        let id = id as usize;
        NodeReport {
            id,
            routed,
            forwarded,
            stored,
            stored_bytes,
            digest,
        }
    }
}

#[derive(Debug)]
struct NodeState {
    id: u64,
    n: u64,
    peers: Vec<Option<SocketAddr>>,
    links: Mutex<HashMap<u64, Link>>,
    /// Peers whose current connection *we* initiated. An inbound HELLO
    /// announcing such a peer is a simultaneous connect (both sides
    /// dialed at once), not a spoof, and must be accepted — rejecting
    /// it would close the stream the peer is already writing on.
    dialed: Mutex<BTreeSet<u64>>,
    stats: Mutex<NodeReport>,
    done: AtomicBool,
    done_tx: Sender<()>,
}

impl NodeState {
    /// Registers a handshaken connection — its write half in the link
    /// table, its read half on a new reader thread — and returns the
    /// link. The accept loop never registers over a live link: a dead
    /// connection must deregister itself first, so an impostor can
    /// never displace a live session.
    fn register(self: &Arc<Self>, peer: u64, stream: TcpStream) -> io::Result<Link> {
        let link = new_link(&stream)?;
        self.links.lock().insert(peer, Arc::clone(&link));
        self.spawn_reader(peer, stream);
        Ok(link)
    }

    fn spawn_reader(self: &Arc<Self>, peer: u64, stream: TcpStream) {
        let state = Arc::clone(self);
        thread::spawn(move || state.reader_loop(peer, stream));
    }

    /// The link to `target` (a serving peer's id, or [`COORD`]),
    /// dialing on demand (with reconnect backoff) when no live
    /// connection exists. The handle is cloned out of the table:
    /// callers write with the table unlocked.
    fn link_for(self: &Arc<Self>, target: u64) -> Option<Link> {
        if let Some(link) = self.links.lock().get(&target) {
            return Some(Arc::clone(link));
        }
        if target == COORD || target == self.id {
            // The coordinator always dials us, never vice versa; and
            // self-traffic is dispatched locally, never dialed.
            return None;
        }
        let addr = self.peers.get(target as usize).copied().flatten()?;
        let mut stream = dial_with_backoff(addr, Duration::from_secs(10)).ok()?;
        let (peer_id, _) = handshake(&mut stream, self.id, self.n).ok()?;
        if peer_id != target {
            // Whatever answered at the peer's address is lying about
            // its id; don't register a link under a name it may use
            // to impersonate the real node.
            return None;
        }
        self.dialed.lock().insert(peer_id);
        self.register(peer_id, stream).ok()
    }

    /// Writes `frame` to `peer` inline; ids the coordinator hosts
    /// in-process resolve to the coordinator connection. A failed or
    /// stalled write has already shut the connection down; deregister
    /// it (unless a re-dial has replaced it already) so the next send
    /// re-dials with backoff.
    fn send(self: &Arc<Self>, peer: u64, frame: io::Result<Vec<u8>>) {
        let coordinator_hosted = self.peers.get(peer as usize).is_some_and(Option::is_none);
        let target = if coordinator_hosted { COORD } else { peer };
        let (Ok(frame), Some(link)) = (frame, self.link_for(target)) else {
            return;
        };
        if write_link(&link, &frame).is_err() {
            let mut links = self.links.lock();
            if links.get(&target).is_some_and(|l| Arc::ptr_eq(l, &link)) {
                links.remove(&target);
                self.dialed.lock().remove(&target);
            }
        }
    }

    fn reader_loop(self: Arc<Self>, peer: u64, stream: TcpStream) {
        // Wrapped only now: the handshake read the raw stream, so no
        // byte of it can be stranded in a buffer.
        let mut stream = BufReader::new(stream);
        loop {
            if self.done.load(Ordering::Acquire) {
                return;
            }
            let Ok(body) = read_frame(&mut stream) else {
                return;
            };
            self.dispatch(peer, &body);
        }
    }

    fn dispatch(self: &Arc<Self>, peer: u64, body: &[u8]) {
        match body.first().copied() {
            Some(FRAME_ROUTE) => {
                let Ok(envelope) = decode_envelope(&body[1..], NodeId(self.id as usize)) else {
                    return;
                };
                if envelope.from.0 as u64 != self.id {
                    return; // misrouted: we only originate our own traffic
                }
                self.stats.lock().routed += 1;
                if envelope.to.0 as u64 == self.id {
                    // Self-hop: forward locally. Dialing our own
                    // listener would trip the spoof guard (the accept
                    // loop refuses a HELLO announcing our own id).
                    self.forward(&envelope);
                } else {
                    self.send(envelope.to.0 as u64, envelope_frame(FRAME_FWD, &envelope));
                }
            }
            Some(FRAME_FWD) => {
                if let Ok(envelope) = decode_envelope(&body[1..], NodeId(self.id as usize)) {
                    self.forward(&envelope);
                }
            }
            Some(FRAME_STORE) => {
                let mut r = Reader::new(&body[1..]);
                let (Ok(glsn), Ok(payload)) = (r.get_u64(), r.get_bytes()) else {
                    return;
                };
                let (count, digest) = {
                    let mut report = self.stats.lock();
                    let mut seed = report.digest.to_be_bytes().to_vec();
                    seed.extend_from_slice(payload);
                    report.digest = u64::from(crc32(&seed));
                    report.stored += 1;
                    report.stored_bytes += payload.len() as u64;
                    (report.stored, report.digest)
                };
                self.send(peer, fields_frame(FRAME_STORED, &[glsn, count, digest]));
            }
            Some(FRAME_SHUTDOWN) => {
                // Written before `done_tx` fires: once `serve` returns
                // the process may exit, and the farewell must already
                // be in the socket.
                let farewell = self.report().to_fields();
                self.send(peer, fields_frame(FRAME_BYE, &farewell));
                self.done.store(true, Ordering::Release);
                let _ = self.done_tx.send(());
            }
            _ => {} // unknown or handshake frames mid-stream: ignored
        }
    }

    /// Final leg of an envelope addressed to this node: hand it up to
    /// the coordinator.
    fn forward(self: &Arc<Self>, envelope: &Envelope) {
        if envelope.to.0 as u64 != self.id {
            return;
        }
        self.stats.lock().forwarded += 1;
        self.send(COORD, envelope_frame(FRAME_DELIVER, envelope));
    }

    fn report(&self) -> NodeReport {
        self.stats.lock().clone()
    }
}

/// Serves one node on a pre-bound listener until the coordinator sends
/// a shutdown frame; returns the node's final [`NodeReport`]. This is
/// the body of the `dla-node` binary, and in-process tests drive it
/// from plain threads over loopback listeners.
///
/// # Errors
///
/// Returns an error if the listener's local address cannot be read.
/// Per-connection failures are absorbed: a broken peer link is
/// re-dialed on demand.
pub fn serve(listener: TcpListener, config: NodeConfig) -> io::Result<NodeReport> {
    let own_addr = listener.local_addr()?;
    let (done_tx, done_rx) = unbounded();
    let state = Arc::new(NodeState {
        id: config.id as u64,
        n: config.peers.len() as u64,
        peers: config.peers,
        links: Mutex::new(HashMap::new()),
        dialed: Mutex::new(BTreeSet::new()),
        stats: Mutex::new(NodeReport {
            id: config.id,
            digest: config.key,
            ..NodeReport::default()
        }),
        done: AtomicBool::new(false),
        done_tx,
    });
    let acceptor = Arc::clone(&state);
    thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            if acceptor.done.load(Ordering::Acquire) {
                return;
            }
            let _ = stream.set_nodelay(true);
            // Accept-side handshake: announce ourselves, learn the
            // dialer's id, then register the link and start its
            // reader. A dialer announcing our own id, or an id that
            // already has a live link, is a spoof attempt — registering
            // it would let the newcomer hijack the existing link (and
            // with it any acks addressed to that peer), so the
            // connection is dropped instead. The one legitimate
            // conflict is a simultaneous connect: we dialed the peer
            // while it dialed us. The peer is already writing on its
            // connection, so that one is read — but we keep writing on
            // ours: were the link slot to change hands, frames in
            // flight on the old connection could be overtaken by later
            // ones on the new. The crossing credit is consumed, so a
            // second conflicting HELLO is back to being a spoof.
            if let Ok((peer, _)) = handshake(&mut stream, acceptor.id, acceptor.n) {
                if acceptor.dialed.lock().remove(&peer) {
                    acceptor.spawn_reader(peer, stream);
                } else if peer != acceptor.id && !acceptor.links.lock().contains_key(&peer) {
                    let _ = acceptor.register(peer, stream);
                }
            }
        }
    });
    let _ = done_rx.recv();
    // Unblock the accept loop so the thread exits promptly.
    let _ = TcpStream::connect(own_addr);
    // The farewell is already in the coordinator's socket (written
    // before `done` fired). Close every connection so the reader
    // threads on both ends of each see end-of-stream and exit.
    let links: Vec<Link> = state.links.lock().drain().map(|(_, link)| link).collect();
    for link in links {
        let _ = link.lock().shutdown(Shutdown::Both);
    }
    Ok(state.report())
}

// ---------------------------------------------------------------------
// Coordinator side: the TcpNet transport.
// ---------------------------------------------------------------------

/// Tuning for a [`TcpNet`] coordinator.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Receive deadline (measured on `clock`).
    pub timeout: SimTime,
    /// Time driver for deadlines and envelope timestamps.
    pub clock: Arc<dyn Clock>,
    /// Real-time budget for the initial connect-with-backoff to every
    /// node process.
    pub connect_deadline: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            timeout: SimTime::from_millis(5_000),
            clock: Arc::new(WallClock::new()),
            connect_deadline: Duration::from_secs(10),
        }
    }
}

/// A STORED acknowledgement as a coordinator reader hands it over:
/// the node whose connection it arrived on — a glsn alone does not say
/// *who* stored it — then the frame's `[glsn, count, digest]`.
type StoredAck = (usize, [u64; 3]);

/// The coordinator's end of a process-per-node cluster: a [`Transport`]
/// whose every hop crosses the TCP mesh of node processes (see the
/// module docs for the route/forward/deliver flow).
#[derive(Debug)]
pub struct TcpNet {
    n: usize,
    local: BTreeSet<usize>,
    links: Vec<Option<Link>>,
    inbox: Inbox,
    stored_rx: Mutex<Receiver<StoredAck>>,
    bye_rx: Mutex<Receiver<NodeReport>>,
    /// Shared with the reader threads, which count the malformed
    /// envelopes they drop.
    stats: Arc<Mutex<TrafficStats>>,
}

impl TcpNet {
    /// Connects the coordinator to every node process in `peers`
    /// (dialing with reconnect backoff, exchanging ids in the
    /// handshake). Ids in `local` — and any peer-table `None` entry —
    /// are hosted in this process: their traffic short-circuits
    /// through local inboxes, which is how the coordinator plays the
    /// auditor and blind-TTP roles itself.
    ///
    /// # Errors
    ///
    /// Returns the first connection or handshake failure after the
    /// backoff budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty.
    pub fn connect(
        peers: &[Option<SocketAddr>],
        local: BTreeSet<usize>,
        config: TcpConfig,
    ) -> io::Result<TcpNet> {
        assert!(!peers.is_empty(), "network needs at least one node");
        let n = peers.len();
        let inbox = Inbox::new(n, config.timeout, config.clock);
        let (stored_tx, stored_rx) = unbounded();
        let (bye_tx, bye_rx) = unbounded();
        let stats = Arc::new(Mutex::new(TrafficStats::new()));
        let mut links: Vec<Option<Link>> = vec![None; n];
        for (id, addr) in peers.iter().enumerate() {
            let Some(addr) = addr else { continue };
            if local.contains(&id) {
                continue;
            }
            let mut stream = dial_with_backoff(*addr, config.connect_deadline)?;
            let (peer, _) = handshake(&mut stream, COORD, n as u64)?;
            if peer != id as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("peer at {addr} announced id {peer}, expected {id}"),
                ));
            }
            links[id] = Some(new_link(&stream)?);
            let (inbox_tx, stored_tx, bye_tx) =
                (inbox.senders().to_vec(), stored_tx.clone(), bye_tx.clone());
            let stats = Arc::clone(&stats);
            thread::spawn(move || {
                coordinator_reader(stream, id, &inbox_tx, &stored_tx, &bye_tx, &stats);
            });
        }
        Ok(TcpNet {
            n,
            local,
            links,
            inbox,
            stored_rx: Mutex::new(stored_rx),
            bye_rx: Mutex::new(bye_rx),
            stats,
        })
    }

    /// The clock driving deadlines and envelope timestamps.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inbox.clock
    }

    /// A snapshot of the traffic counters.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats.lock().clone()
    }

    /// Writes `frame` to the process serving `node`, inline. `false`
    /// when nothing serves `node`, the frame is oversized, or the write
    /// failed or stalled — which has shut the connection down, so
    /// every later write to it fails at once.
    fn write_to(&self, node: usize, frame: io::Result<Vec<u8>>) -> bool {
        match (self.links.get(node), frame) {
            (Some(Some(link)), Ok(frame)) => write_link(link, &frame).is_ok(),
            _ => false,
        }
    }

    /// Ships a deposit fragment to the process serving `node` and waits
    /// for its acknowledgement: the node's running `(count, digest)`
    /// after storing it. One deposit is outstanding at a time.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when `node` is not a connected remote
    /// process or the acknowledgement does not arrive in time.
    pub fn deposit(&self, node: NodeId, glsn: u64, payload: &[u8]) -> Result<(u64, u64), NetError> {
        let rx = self.stored_rx.lock();
        let mut w = frame(FRAME_STORE, 8 + 8 + payload.len());
        w.put_u64(glsn).put_bytes(payload);
        if !self.write_to(node.0, seal(w)) {
            return Err(NetError::Timeout(node));
        }
        // One deadline for the whole wait: acks of earlier, timed-out
        // deposits are skipped without extending it.
        let deadline = Instant::now() + self.inbox.timeout.to_duration();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok((from, [acked, count, digest])) if from == node.0 && acked == glsn => {
                    return Ok((count, digest));
                }
                Ok(_) => {} // late ack of an earlier deposit
                Err(_) => return Err(NetError::Timeout(node)),
            }
        }
    }

    /// Sends every node process a shutdown frame and collects their
    /// farewell reports (waiting up to the receive timeout for each).
    #[must_use]
    pub fn shutdown(&self) -> Vec<NodeReport> {
        let expected = (0..self.n)
            .filter(|&node| self.write_to(node, seal(frame(FRAME_SHUTDOWN, 0))))
            .count();
        let rx = self.bye_rx.lock();
        let mut reports = Vec::with_capacity(expected);
        for _ in 0..expected {
            match rx.recv_timeout(self.inbox.timeout.to_duration()) {
                Ok(report) => reports.push(report),
                Err(_) => break,
            }
        }
        reports.sort_by_key(|r| r.id);
        reports
    }
}

/// The coordinator's reader/demux loop for the connection to `node`:
/// deliver and forward frames land in the per-node inboxes (malformed
/// envelopes are dropped and counted in `messages_corrupted` — the
/// reliable layer recovers them by retransmission), store acks and
/// farewells go to their dedicated channels. It only reads the socket
/// and fills unbounded channels — it never writes, which is what lets
/// every inline write in the mesh eventually drain.
fn coordinator_reader(
    stream: TcpStream,
    node: usize,
    inbox_tx: &[Sender<Envelope>],
    stored_tx: &Sender<StoredAck>,
    bye_tx: &Sender<NodeReport>,
    stats: &Mutex<TrafficStats>,
) {
    // Wrapped after the handshake, which read the raw stream.
    let mut stream = BufReader::new(stream);
    while let Ok(body) = read_frame(&mut stream) {
        match body.first().copied() {
            Some(FRAME_DELIVER | FRAME_FWD) => match Envelope::decode(&body[1..]) {
                Ok(envelope) => {
                    if let Some(inbox) = inbox_tx.get(envelope.to.0) {
                        let _ = inbox.send(envelope);
                    }
                }
                Err(_) => stats.lock().messages_corrupted += 1,
            },
            Some(FRAME_STORED) => {
                if let Some(ack) = parse_fields(&body) {
                    let _ = stored_tx.send((node, ack));
                }
            }
            Some(FRAME_BYE) => {
                if let Some(fields) = parse_fields(&body) {
                    let _ = bye_tx.send(NodeReport::from_fields(fields));
                }
            }
            _ => {}
        }
    }
}

impl Transport for TcpNet {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        assert!(to.0 < self.n, "node {to} out of range");
        self.stats
            .lock()
            .record_send(session, from.0, to.0, payload.len(), SimTime::ZERO);
        let now = self.inbox.clock.now();
        let envelope = Envelope::new(session, from, to, payload, now, now);
        let hosted = |node: usize| self.local.contains(&node) || self.links[node].is_none();
        let delivered = if !hosted(from.0) {
            // Ask the process serving `from` to originate the send.
            self.write_to(from.0, envelope_frame(FRAME_ROUTE, &envelope))
        } else if !hosted(to.0) {
            // We are the origin: forward straight to the owner of `to`.
            self.write_to(to.0, envelope_frame(FRAME_FWD, &envelope))
        } else {
            // Both endpoints hosted here: a loopback delivery.
            self.inbox.push(envelope)
        };
        if !delivered {
            self.stats.lock().messages_dropped += 1;
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
        // Wall-clock transport: compute time passes by itself.
    }

    fn counters(&self, session: SessionId) -> (u64, u64) {
        let stats = self.stats.lock();
        let s = stats.session(session);
        (s.messages, s.bytes)
    }

    fn elapsed(&self, session: SessionId) -> SimTime {
        // Wall transports have one timeline for every session: the
        // clock's reading since the coordinator came up. Telemetry
        // spans stamped from `Session::elapsed` therefore carry real
        // timestamps on this backend.
        let _ = session;
        self.inbox.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame builder sizes its buffer from what it writes: the
    /// sealed frame fills exactly the capacity it was given, so it was
    /// never reallocated on the way.
    #[test]
    fn frames_are_built_in_the_buffer_they_start_with() {
        let payload = Bytes::from_static(b"a few dozen bytes of relay payload");
        let envelope = Envelope::new(
            SessionId(3),
            NodeId(1),
            NodeId(2),
            payload,
            SimTime::ZERO,
            SimTime::ZERO,
        );
        let mut store = frame(FRAME_STORE, 8 + 8 + 5);
        store.put_u64(9).put_bytes(b"bytes");
        let frames = [
            envelope_frame(FRAME_DELIVER, &envelope).unwrap(),
            fields_frame(FRAME_STORED, &[1, 2, 3]).unwrap(),
            seal(store).unwrap(),
            seal(frame(FRAME_SHUTDOWN, 0)).unwrap(),
        ];
        for frame in frames {
            assert_eq!(frame.len(), frame.capacity(), "tag {:#x}", frame[4]);
            let body = read_frame(&mut &frame[..]).unwrap();
            assert_eq!(body.len() + 4, frame.len());
        }
    }

    /// HELLO, STORED and BYE bodies hold exactly their fields: one byte
    /// more is refused like one byte less.
    #[test]
    fn a_control_frame_with_a_trailing_byte_is_refused() {
        let frame = fields_frame(FRAME_STORED, &[7, 1, 9]).unwrap();
        let mut body = read_frame(&mut &frame[..]).unwrap();
        assert_eq!(parse_fields::<3>(&body), Some([7, 1, 9]));
        assert_eq!(parse_fields::<3>(&body[..body.len() - 1]), None);
        body.push(0);
        assert_eq!(parse_fields::<3>(&body), None);
    }
}

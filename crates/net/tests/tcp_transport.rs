//! In-process exercise of the socket transport: real loopback TCP
//! listeners, one serve loop per "node" on its own thread, and a
//! coordinator-side [`TcpNet`] driving traffic through the
//! route → forward → deliver mesh. The process-per-node launcher runs
//! exactly this machinery with the threads replaced by `dla-node`
//! processes.

use bytes::Bytes;
use dla_net::adversary::{
    scenario_rng, AdversaryNet, ScriptedAdversary, Tamper, TamperEvent, TamperRule,
};
use dla_net::tcp::{
    decode_envelope, read_frame, serve, write_frame, NodeConfig, TcpConfig, TcpNet, WRITE_STALL,
};
use dla_net::time::SimTime;
use dla_net::wire::Writer;
use dla_net::{
    ChannelNet, Envelope, NetConfig, NetError, NodeId, Session, SessionId, SharedNet, SimNet,
    Transport,
};
use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

// Frame tags of the mesh protocol (private to `dla_net::tcp`), for the
// tests that script one end of a connection by hand.
const HELLO: u8 = 0x01;
const FWD: u8 = 0x03;
const DELIVER: u8 = 0x04;
const STORE: u8 = 0x05;
const STORED: u8 = 0x06;
const SHUTDOWN: u8 = 0x07;
const BYE: u8 = 0x08;
/// Protocol magic ("DLA1TCP1").
const MAGIC: u64 = 0x444C_4131_5443_5031;

/// A control frame body: the tag, then big-endian `u64` fields.
fn control(tag: u8, fields: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(tag);
    for &field in fields {
        w.put_u64(field);
    }
    w.finish().to_vec()
}

/// An envelope frame body: the tag, then the encoded envelope.
fn envelope_body(tag: u8, session: u64, from: usize, to: usize, payload: &[u8]) -> Vec<u8> {
    let envelope = Envelope::new(
        SessionId(session),
        NodeId(from),
        NodeId(to),
        Bytes::copy_from_slice(payload),
        SimTime::ZERO,
        SimTime::ZERO,
    );
    let mut body = vec![tag];
    body.extend_from_slice(&envelope.encode());
    body
}

/// The accept side of the handshake as a hand-scripted node `id` of an
/// `n`-node mesh plays it; returns the connection and the dialer's
/// announced id.
fn accept_as(listener: &TcpListener, id: u64, n: usize) -> (TcpStream, u64) {
    let (mut stream, _) = listener.accept().expect("accept");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let hello = read_frame(&mut stream).expect("dialer's hello");
    assert_eq!(hello.first(), Some(&HELLO));
    let dialer = u64::from_be_bytes(hello[9..17].try_into().expect("sender id"));
    write_frame(&mut stream, &control(HELLO, &[MAGIC, id, n as u64])).expect("our hello");
    (stream, dialer)
}

/// Answers the coordinator's SHUTDOWN on a scripted connection with an
/// all-zero farewell from node `id`, so `TcpNet::shutdown` need not
/// wait out its timeout.
fn say_bye(stream: &mut TcpStream, id: u64) {
    let frame = read_frame(stream).expect("shutdown frame");
    assert_eq!(frame, [SHUTDOWN]);
    write_frame(stream, &control(BYE, &[id, 0, 0, 0, 0, 0])).expect("bye");
}

/// Binds `remote` loopback listeners and serves each on a thread; ids
/// `remote..remote + local` (if any) stay coordinator-hosted.
fn spawn_mesh(
    remote: usize,
    local: usize,
) -> (
    Vec<Option<SocketAddr>>,
    Vec<thread::JoinHandle<std::io::Result<dla_net::NodeReport>>>,
) {
    let listeners: Vec<TcpListener> = (0..remote)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let mut peers: Vec<Option<SocketAddr>> = listeners
        .iter()
        .map(|l| Some(l.local_addr().expect("local addr")))
        .collect();
    peers.extend(std::iter::repeat_n(None, local));
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let config = NodeConfig {
                id,
                peers: peers.clone(),
                role: "ttp".to_string(),
                key: 1000 + id as u64,
            };
            thread::spawn(move || serve(listener, config))
        })
        .collect();
    (peers, handles)
}

fn quick_config() -> TcpConfig {
    TcpConfig {
        timeout: SimTime::from_millis(2_000),
        ..TcpConfig::default()
    }
}

#[test]
fn mesh_routes_every_hop_through_node_processes() {
    let (peers, handles) = spawn_mesh(3, 0);
    let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");

    // Two interleaved sessions; every hop is remote → remote, so each
    // message crosses three TCP legs (route, forward, deliver).
    let s1 = Session::new(&net, SessionId(1));
    let s2 = Session::new(&net, SessionId(2));
    s1.send(NodeId(0), NodeId(1), Bytes::from_static(b"a1"));
    s2.send(NodeId(0), NodeId(1), Bytes::from_static(b"b1"));
    s1.send(NodeId(1), NodeId(2), Bytes::from_static(b"a2"));

    // Session demux: node 1 sees only its own session's traffic even
    // though both arrived on the same inbox.
    let m = s2.recv(NodeId(1)).expect("session 2 delivery");
    assert_eq!((&m.payload[..], m.from), (&b"b1"[..], NodeId(0)));
    let m = s1
        .recv_from(NodeId(1), NodeId(0))
        .expect("session 1 delivery");
    assert_eq!(&m.payload[..], b"a1");
    let m = s1.recv(NodeId(2)).expect("second hop");
    assert_eq!((&m.payload[..], m.from), (&b"a2"[..], NodeId(1)));

    assert_eq!(s1.counters(), (2, 4));
    assert_eq!(s2.counters(), (1, 2));

    let reports = net.shutdown();
    assert_eq!(reports.len(), 3);
    // Each message was originated by its `from` process (routed) and
    // handed up by its `to` process (forwarded).
    let routed: u64 = reports.iter().map(|r| r.routed).sum();
    let forwarded: u64 = reports.iter().map(|r| r.forwarded).sum();
    assert_eq!((routed, forwarded), (3, 3));
    for handle in handles {
        let report = handle.join().expect("join").expect("serve");
        assert!(report.id < 3);
    }
}

#[test]
fn coordinator_hosted_ids_short_circuit() {
    // Nodes 0-1 are remote processes; ids 2-3 live in the coordinator
    // (the auditor / blind-TTP roles of the deployment).
    let (peers, handles) = spawn_mesh(2, 2);
    let local: BTreeSet<usize> = [2, 3].into_iter().collect();
    let net = TcpNet::connect(&peers, local, quick_config()).expect("connect");
    let s = Session::new(&net, SessionId(9));

    // local → local never touches a socket.
    s.send(NodeId(2), NodeId(3), Bytes::from_static(b"loop"));
    assert_eq!(&s.recv(NodeId(3)).expect("loopback").payload[..], b"loop");

    // local → remote is forwarded directly; remote → local is routed to
    // the origin process, whose peer table points the local id back at
    // the coordinator connection.
    s.send(NodeId(3), NodeId(0), Bytes::from_static(b"down"));
    assert_eq!(&s.recv(NodeId(0)).expect("downlink").payload[..], b"down");
    s.send(NodeId(0), NodeId(2), Bytes::from_static(b"up"));
    let m = s.recv_from(NodeId(2), NodeId(0)).expect("uplink");
    assert_eq!(&m.payload[..], b"up");

    let reports = net.shutdown();
    assert_eq!(reports.len(), 2);
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }
}

#[test]
fn deposits_are_stored_remotely_and_acknowledged() {
    let (peers, handles) = spawn_mesh(1, 0);
    let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");

    let (count1, digest1) = net.deposit(NodeId(0), 41, b"fragment-a").expect("ack 1");
    let (count2, digest2) = net.deposit(NodeId(0), 42, b"fragment-b").expect("ack 2");
    assert_eq!((count1, count2), (1, 2));
    assert_ne!(digest1, digest2, "digest chains over payloads");

    let (count3, _) = net.deposit(NodeId(0), 43, b"f").expect("ack 3");
    assert_eq!(count3, 3);

    // Depositing to an id with no process behind it fails fast.
    assert_eq!(
        net.deposit(NodeId(5), 44, b"x"),
        Err(NetError::Timeout(NodeId(5)))
    );

    let reports = net.shutdown();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].stored, 3);
    assert_eq!(reports[0].stored_bytes, 21);
    for handle in handles {
        let report = handle.join().expect("join").expect("serve");
        assert_eq!(report.digest, reports[0].digest);
    }
}

#[test]
fn recv_deadline_fires_on_the_wall_clock() {
    let (peers, handles) = spawn_mesh(1, 0);
    let config = TcpConfig {
        timeout: SimTime::from_millis(100),
        ..TcpConfig::default()
    };
    let net = TcpNet::connect(&peers, BTreeSet::new(), config).expect("connect");
    let s = Session::root(&net);
    let started = std::time::Instant::now();
    assert_eq!(s.recv(NodeId(0)).unwrap_err(), NetError::Timeout(NodeId(0)));
    let waited = started.elapsed();
    assert!(waited >= Duration::from_millis(90), "deadline honored");
    assert!(waited < Duration::from_secs(5), "deadline not unbounded");
    // elapsed() on a wall transport reads the shared clock, so spans
    // and joins see real time.
    assert!(net.elapsed(SessionId::ROOT) > SimTime::ZERO);
    let _ = net.shutdown();
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }
}

#[test]
fn connect_retries_with_backoff_until_the_node_is_up() {
    // Reserve a port, release it, and only re-bind the real listener
    // after the coordinator has already started dialing: the
    // reconnect-with-backoff loop must bridge the gap.
    let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let peers = vec![Some(addr)];
    let peers_for_node = peers.clone();
    let server = thread::spawn(move || {
        thread::sleep(Duration::from_millis(300));
        let listener = TcpListener::bind(addr).expect("late bind");
        serve(
            listener,
            NodeConfig {
                id: 0,
                peers: peers_for_node,
                role: "app".to_string(),
                key: 7,
            },
        )
    });
    let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config())
        .expect("connect survives a late-starting node");
    let (count, _) = net.deposit(NodeId(0), 1, b"late").expect("ack");
    assert_eq!(count, 1);
    let _ = net.shutdown();
    server.join().expect("join").expect("serve");
}

#[test]
fn hello_spoofing_cannot_hijack_a_live_session() {
    let (peers, handles) = spawn_mesh(1, 0);
    let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");
    let (count, _) = net.deposit(NodeId(0), 1, b"before").expect("ack");
    assert_eq!(count, 1);

    // An attacker dials the node's listener and completes the HELLO
    // exchange announcing the coordinator's reserved id. Before the
    // hardening, register() replaced the live COORD writer ("newest
    // connection wins"), re-pointing STORED acks at the attacker.
    let spoof = |announced: u64| {
        let mut attacker = TcpStream::connect(peers[0].expect("node addr")).expect("attacker dial");
        attacker
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let hello = control(HELLO, &[MAGIC, announced, peers.len() as u64]);
        write_frame(&mut attacker, &hello).expect("send spoofed hello");
        // The node answers with its own hello before validating ours...
        let body = read_frame(&mut attacker).expect("node's hello");
        assert_eq!(body.first(), Some(&HELLO));
        // ...then drops the connection: the attacker never receives
        // another frame (in particular, no stolen STORED ack).
        assert!(
            read_frame(&mut attacker).is_err(),
            "spoofed session (announced id {announced}) must be closed"
        );
    };
    spoof(u64::MAX); // impersonate the coordinator
    spoof(0); // impersonate the node itself

    // The genuine coordinator connection still owns the COORD writer:
    // deposits keep flowing and their acks still arrive here.
    let (count, _) = net
        .deposit(NodeId(0), 2, b"after")
        .expect("ack after spoof");
    assert_eq!(count, 2);

    let reports = net.shutdown();
    assert_eq!(reports[0].stored, 2);
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }
}

/// Same seeded schedule, three transports under the one tap: the
/// adversary's forgeries and the bytes the victim receives must be
/// identical on the simulator, [`ChannelNet`] and [`TcpNet`] — the
/// determinism contract scenario replays rely on.
#[test]
fn scripted_attacks_replay_identically_on_simulator_channel_and_tcp() {
    fn schedule() -> Arc<ScriptedAdversary> {
        let mut rng = scenario_rng(5, 11);
        let mask = rng.gen_range(1..=255u8);
        Arc::new(ScriptedAdversary::new().compromise(0).rule(TamperRule {
            from: Some(0),
            to: Some(1),
            tag: Some(0x40),
            skip: 1,
            fires: 1,
            action: Tamper::Flip {
                offset_from_end: 0,
                mask,
            },
        }))
    }
    // The schedule's events and the payloads node 1 was handed.
    fn drive<T: Transport>(net: T) -> (T, Vec<TamperEvent>, Vec<Vec<u8>>) {
        let adversary = schedule();
        let net = AdversaryNet::new(net);
        net.set_adversary(Arc::clone(&adversary) as _);
        let session = Session::new(&net, SessionId(4));
        let seen = (0..3u8)
            .map(|i| {
                session.send(NodeId(0), NodeId(1), Bytes::from(vec![0x40, b'm', i]));
                let envelope = session.recv_from(NodeId(1), NodeId(0)).expect("delivery");
                assert!(
                    envelope.is_intact(),
                    "forgeries are re-stamped, not corrupt"
                );
                envelope.payload.to_vec()
            })
            .collect();
        (net.into_inner(), adversary.report().events, seen)
    }

    let simulator = SharedNet::new(SimNet::new(2, NetConfig::ideal()));
    let (_, sim_events, sim_seen) = drive(simulator);
    let (_, channel_events, channel_seen) = drive(ChannelNet::new(2));
    let (peers, handles) = spawn_mesh(2, 0);
    let tcp = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");
    let (tcp, tcp_events, tcp_seen) = drive(tcp);
    let _ = tcp.shutdown();
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }

    assert_ne!(sim_seen[0], sim_seen[1], "second message is forged");
    assert_eq!(sim_events.len(), 1);
    assert_eq!((&channel_events, &channel_seen), (&sim_events, &sim_seen));
    assert_eq!((&tcp_events, &tcp_seen), (&sim_events, &sim_seen));
}

/// A writer that counts how often it is called.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_leaves_in_exactly_one_write() {
    // Prefix and body in one `write`: on a TCP_NODELAY socket that is
    // one syscall and one segment, at every size — no small-frame
    // special case.
    for len in [0usize, 1, 57, 4096, 65_536, 1 << 20] {
        let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut wire = CountingWriter::default();
        write_frame(&mut wire, &body).expect("write");
        assert_eq!(wire.writes, 1, "{len}-byte body");
        assert_eq!(wire.bytes.len(), 4 + len);
        assert_eq!(
            read_frame(&mut wire.bytes.as_slice()).expect("reads back"),
            body
        );
    }
}

#[test]
fn eight_threads_share_connections_without_tearing_a_frame() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 42;
    const SIZES: [usize; 7] = [1, 7, 64, 1_500, 4_096, 65_536, 262_144];
    let (peers, handles) = spawn_mesh(3, 0);
    let config = TcpConfig {
        timeout: SimTime::from_millis(20_000),
        ..TcpConfig::default()
    };
    let net = TcpNet::connect(&peers, BTreeSet::new(), config).expect("connect");

    // Every thread writes inline on the same three coordinator links,
    // and the node processes forward on shared peer links. A torn frame
    // desynchronises its stream: the checks below would see a corrupt
    // or missing envelope.
    thread::scope(|scope| {
        for t in 0..THREADS {
            let net = &net;
            scope.spawn(move || {
                let session = Session::new(net, SessionId(100 + t as u64));
                let mut sent: HashMap<(usize, usize), Vec<Vec<u8>>> = HashMap::new();
                for i in 0..PER_THREAD {
                    let from = (t + i) % 3;
                    let to = (from + 1 + i % 2) % 3;
                    let fill = (t * PER_THREAD + i) as u8;
                    let mut payload = vec![fill; SIZES[i % SIZES.len()]];
                    payload[0] = i as u8;
                    session.send(NodeId(from), NodeId(to), Bytes::from(payload.clone()));
                    sent.entry((from, to)).or_default().push(payload);
                }
                // Per (session, from, to) the mesh is FIFO: one
                // connection per leg, one reader per connection.
                for ((from, to), payloads) in sent {
                    for expected in payloads {
                        let envelope = session
                            .recv_from(NodeId(to), NodeId(from))
                            .expect("every envelope arrives");
                        assert!(envelope.is_intact());
                        assert!(
                            envelope.payload == expected,
                            "thread {t}: {from}->{to} reordered"
                        );
                    }
                }
            });
        }
    });

    let stats = net.stats();
    assert_eq!((stats.messages_corrupted, stats.messages_dropped), (0, 0));
    let reports = net.shutdown();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(reports.iter().map(|r| r.routed).sum::<u64>(), total);
    assert_eq!(reports.iter().map(|r| r.forwarded).sum::<u64>(), total);
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }
}

#[test]
fn a_round_of_outstanding_frames_arrives_whole_and_in_link_order() {
    // The Σₛ dealing round of four parties: 12 ROUTE frames over the 4
    // coordinator links, every one written before the first is read —
    // 3 frames deep on each coordinator → node connection and 1 on each
    // of the 12 node → node legs. Then the same with two sessions'
    // rounds outstanding at once, received in the other order.
    const REPS: u64 = 300;
    const PARTIES: usize = 4;
    let (peers, handles) = spawn_mesh(PARTIES, 0);
    let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");
    let dealing = |session: SessionId, rep: u64| {
        (0..PARTIES).flat_map(move |i| {
            (0..PARTIES).filter(move |&j| j != i).map(move |j| {
                let mut w = Writer::new();
                w.put_u64(session.0)
                    .put_u64(rep)
                    .put_u8((PARTIES * i + j) as u8);
                (NodeId(i), NodeId(j), w.finish())
            })
        })
    };
    // Receiving selectively by sender, in send order, the k-th receive
    // on a link must be the k-th frame sent on it.
    let check = |session: SessionId, rep: u64, envelopes: Vec<Envelope>| {
        assert_eq!(envelopes.len(), PARTIES * (PARTIES - 1));
        for (envelope, (from, to, payload)) in envelopes.iter().zip(dealing(session, rep)) {
            assert_eq!(
                (envelope.session, envelope.from, envelope.to),
                (session, from, to)
            );
            assert!(
                envelope.payload == payload,
                "{session} rep {rep}: {from}->{to} reordered"
            );
        }
    };

    let solo = Session::new(&net, SessionId(21));
    for rep in 0..REPS {
        let envelopes = solo
            .round(dealing(solo.id(), rep))
            .expect("the round arrives");
        check(solo.id(), rep, envelopes);
    }

    let (a, b) = (
        Session::new(&net, SessionId(22)),
        Session::new(&net, SessionId(23)),
    );
    for rep in 0..REPS {
        for session in [a, b] {
            for (from, to, payload) in dealing(session.id(), rep) {
                session.send(from, to, payload);
            }
        }
        for session in [b, a] {
            let envelopes = dealing(session.id(), rep)
                .map(|(from, to, _)| session.recv_from(to, from).expect("every frame arrives"))
                .collect();
            check(session.id(), rep, envelopes);
        }
    }

    // Once each: as many deliveries as sends, session by session, and
    // as many frames handed up by the nodes as were routed through them.
    let per_session = REPS * (PARTIES * (PARTIES - 1)) as u64;
    let stats = net.stats();
    assert_eq!((stats.messages_corrupted, stats.messages_dropped), (0, 0));
    for session in [solo, a, b] {
        let s = stats.session(session.id());
        assert_eq!(
            (s.messages, s.messages_delivered),
            (per_session, per_session)
        );
    }
    let reports = net.shutdown();
    assert_eq!(
        reports.iter().map(|r| r.routed).sum::<u64>(),
        3 * per_session
    );
    assert_eq!(
        reports.iter().map(|r| r.forwarded).sum::<u64>(),
        3 * per_session
    );
    for handle in handles {
        handle.join().expect("join").expect("serve");
    }
}

#[test]
fn a_mute_peer_costs_a_closed_link_and_the_node_keeps_serving() {
    // Node 0 is a real serve loop. Node 1 handshakes and then never
    // reads. The coordinator hosts id 1 itself, so only node 0 dials
    // the mute peer.
    let mute = TcpListener::bind("127.0.0.1:0").expect("bind mute peer");
    let node = TcpListener::bind("127.0.0.1:0").expect("bind node");
    let peers = vec![
        Some(node.local_addr().expect("addr")),
        Some(mute.local_addr().expect("addr")),
    ];
    let config = NodeConfig {
        id: 0,
        peers: peers.clone(),
        role: "app".to_string(),
        key: 1,
    };
    let server = thread::spawn(move || serve(node, config));
    let peer = thread::spawn(move || {
        // Held open, never read.
        let (_first, dialer) = accept_as(&mute, 1, 2);
        assert_eq!(dialer, 0);
        // A second connection from node 0 means it gave the first one
        // up: a live link is never re-dialed.
        let (mut second, dialer) = accept_as(&mute, 1, 2);
        assert_eq!(dialer, 0);
        let frame = read_frame(&mut second).expect("frame on the re-dialed link");
        assert_eq!(frame[0], FWD);
        let envelope = decode_envelope(&frame[1..], NodeId(1)).expect("intact");
        assert_eq!(&envelope.payload[..], b"again");
    });

    let config = TcpConfig {
        timeout: SimTime::from_millis(1_000),
        ..TcpConfig::default()
    };
    let local: BTreeSet<usize> = [1].into_iter().collect();
    let net = TcpNet::connect(&peers, local, config).expect("connect");
    let session = Session::new(&net, SessionId(3));

    // Fill the link to the mute peer. Node 0 handles the coordinator's
    // frames in order, so a STORE acknowledged means the FWD before it
    // was fully written; the first STORE that times out means node 0 is
    // stuck in that write.
    let chunk = Bytes::from(vec![0x5A; 1 << 20]);
    let mut glsn = 0u64;
    let stuck_since = loop {
        assert!(glsn < 256, "256 MiB never filled a loopback socket");
        let before = Instant::now();
        session.send(NodeId(0), NodeId(1), chunk.clone());
        glsn += 1;
        match net.deposit(NodeId(0), glsn, b"probe") {
            Ok(_) => {}
            Err(e) => {
                assert_eq!(e, NetError::Timeout(NodeId(0)));
                break before;
            }
        }
    };

    // The node answers STOREs again once — and only once — the stall
    // timeout has closed the link: nobody has drained a byte of it.
    let came_back = loop {
        assert!(stuck_since.elapsed() < WRITE_STALL + Duration::from_secs(20));
        glsn += 1;
        if net.deposit(NodeId(0), glsn, b"probe").is_ok() {
            break stuck_since.elapsed();
        }
    };
    assert!(came_back >= WRITE_STALL, "freed after {came_back:?}");

    session.send(NodeId(0), NodeId(1), Bytes::from_static(b"again"));
    peer.join().expect("mute peer script");

    let reports = net.shutdown();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].stored, glsn, "every STORE was eventually served");
    server.join().expect("join").expect("serve");
}

#[test]
fn a_simultaneous_connect_does_not_move_traffic_to_the_other_connection() {
    // Node 0 is real, node 1 is scripted and hosted by nobody else. Node
    // 0 dials node 1 to forward "first"; node 1 then dials node 0 as if
    // it had started its own connect at the same moment.
    let scripted = TcpListener::bind("127.0.0.1:0").expect("bind scripted node");
    let node = TcpListener::bind("127.0.0.1:0").expect("bind node");
    let node_addr = node.local_addr().expect("addr");
    let peers = vec![Some(node_addr), Some(scripted.local_addr().expect("addr"))];
    let config = NodeConfig {
        id: 0,
        peers: peers.clone(),
        role: "app".to_string(),
        key: 1,
    };
    let server = thread::spawn(move || serve(node, config));
    let local: BTreeSet<usize> = [1].into_iter().collect();
    let net = TcpNet::connect(&peers, local, quick_config()).expect("connect");
    let session = Session::new(&net, SessionId(6));

    let forwarded = |stream: &mut TcpStream| {
        let frame = read_frame(stream).expect("a frame on node 0's own connection");
        assert_eq!(frame[0], FWD);
        decode_envelope(&frame[1..], NodeId(1))
            .expect("intact")
            .payload
    };
    session.send(NodeId(0), NodeId(1), Bytes::from_static(b"first"));
    let (mut theirs, dialer) = accept_as(&scripted, 1, 2);
    assert_eq!(dialer, 0);
    assert_eq!(&forwarded(&mut theirs)[..], b"first");

    // The crossing connection is accepted and read...
    let mut ours = TcpStream::connect(node_addr).expect("dial node 0");
    write_frame(&mut ours, &control(HELLO, &[MAGIC, 1, 2])).expect("hello");
    assert_eq!(read_frame(&mut ours).expect("node 0's hello")[0], HELLO);
    write_frame(&mut ours, &envelope_body(FWD, 6, 1, 0, b"ping")).expect("ping");
    let ping = session.recv_from(NodeId(0), NodeId(1)).expect("ping");
    assert_eq!(&ping.payload[..], b"ping");

    // ...but node 0 keeps writing on the connection it dialed: a frame
    // switched onto the other one could overtake "first" in flight.
    session.send(NodeId(0), NodeId(1), Bytes::from_static(b"second"));
    theirs
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    assert_eq!(&forwarded(&mut theirs)[..], b"second");

    assert_eq!(net.shutdown().len(), 1);
    server.join().expect("join").expect("serve");
}

#[test]
fn fifty_shutdowns_deliver_every_farewell() {
    for cycle in 0..50u64 {
        let (peers, handles) = spawn_mesh(2, 0);
        let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");
        net.deposit(NodeId(1), cycle, b"fragment").expect("ack");
        let session = Session::new(&net, SessionId(cycle));
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"hop"));
        session.recv(NodeId(1)).expect("delivery");

        // The farewell is written before the serve loop may return, so
        // it is never lost to a node exiting first — and it carries the
        // same counters the node returns.
        let reports = net.shutdown();
        assert_eq!(reports.len(), 2, "cycle {cycle}: a BYE went missing");
        assert_eq!((reports[0].routed, reports[1].forwarded), (1, 1));
        assert_eq!(reports[1].stored, 1);
        for (handle, farewell) in handles.into_iter().zip(&reports) {
            let returned = handle.join().expect("join").expect("serve");
            assert_eq!(&returned, farewell, "cycle {cycle}");
        }
    }
}

#[test]
fn a_late_ack_from_one_node_is_not_taken_for_anothers() {
    // Node 0 is scripted: it sits on its STORED ack until the
    // coordinator has given up. Node 1 is a real serve loop.
    let slow = TcpListener::bind("127.0.0.1:0").expect("bind slow node");
    let real = TcpListener::bind("127.0.0.1:0").expect("bind real node");
    let peers = vec![
        Some(slow.local_addr().expect("addr")),
        Some(real.local_addr().expect("addr")),
    ];
    let config = NodeConfig {
        id: 1,
        peers: peers.clone(),
        role: "app".to_string(),
        key: 9,
    };
    let server = thread::spawn(move || serve(real, config));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let script = thread::spawn(move || {
        let (mut stream, dialer) = accept_as(&slow, 0, 2);
        assert_eq!(dialer, u64::MAX, "the coordinator dials");
        let store = read_frame(&mut stream).expect("store frame");
        assert_eq!(store[0], STORE);
        release_rx.recv().expect("test signals");
        // The late ack, then a marker envelope on the same connection:
        // whoever has received the marker knows the ack is queued.
        write_frame(&mut stream, &control(STORED, &[7, 77, 0xDEAD])).expect("late ack");
        write_frame(&mut stream, &envelope_body(DELIVER, 5, 0, 1, b"marker")).expect("marker");
        say_bye(&mut stream, 0);
    });

    let config = TcpConfig {
        timeout: SimTime::from_millis(1_000),
        ..TcpConfig::default()
    };
    let net = TcpNet::connect(&peers, BTreeSet::new(), config).expect("connect");
    assert_eq!(
        net.deposit(NodeId(0), 7, b"held"),
        Err(NetError::Timeout(NodeId(0)))
    );
    release_tx.send(()).expect("script alive");
    let marker = Session::new(&net, SessionId(5))
        .recv(NodeId(1))
        .expect("marker");
    assert_eq!(&marker.payload[..], b"marker");

    // Same glsn, different node: node 0's stale `(7, 77, 0xDEAD)` is
    // first in the queue and must not be taken for node 1's answer.
    let (count, digest) = net
        .deposit(NodeId(1), 7, b"real")
        .expect("node 1's own ack");
    assert_eq!(count, 1);
    assert_ne!(digest, 0xDEAD);

    let reports = net.shutdown();
    assert_eq!(reports.len(), 2);
    assert_eq!((reports[1].stored, reports[1].digest), (1, digest));
    script.join().expect("script");
    server.join().expect("join").expect("serve");
}

#[test]
fn a_corrupt_deliver_frame_is_dropped_and_counted() {
    // A scripted node 0 hands the coordinator one DELIVER frame with a
    // flipped payload byte, then an intact one.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let peers = vec![Some(listener.local_addr().expect("addr")), None];
    let script = thread::spawn(move || {
        let (mut stream, _) = accept_as(&listener, 0, 2);
        let mut corrupt = envelope_body(DELIVER, 8, 0, 1, b"payload");
        *corrupt.last_mut().expect("non-empty") ^= 0x01;
        write_frame(&mut stream, &corrupt).expect("corrupt frame");
        write_frame(&mut stream, &envelope_body(DELIVER, 8, 0, 1, b"payload")).expect("good frame");
        say_bye(&mut stream, 0);
    });
    let net = TcpNet::connect(&peers, BTreeSet::new(), quick_config()).expect("connect");
    let envelope = Session::new(&net, SessionId(8))
        .recv(NodeId(1))
        .expect("the intact frame");
    assert_eq!(&envelope.payload[..], b"payload");
    // Same connection, same reader: the corrupt frame was seen first.
    assert_eq!(net.stats().messages_corrupted, 1);
    assert_eq!(net.shutdown().len(), 1);
    script.join().expect("script");
}

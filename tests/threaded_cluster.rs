//! Concurrency integration: the accumulator circulation and a
//! commutative-cipher ring pass executed by real OS threads sharing one
//! [`ChannelNet`] — demonstrating the protocols do not depend on the
//! deterministic single-threaded scheduler — and the executor, which
//! runs a whole query on the thread that asks it.

use bytes::Bytes;
use confidential_audit::audit::cluster::{ClusterConfig, DlaCluster};
use confidential_audit::audit::exec::{execute_on, ExecMode};
use confidential_audit::audit::plan::SubqueryKind;
use confidential_audit::crypto::accumulator::AccumulatorParams;
use confidential_audit::crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use confidential_audit::logstore::fragment::Partition;
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::schema::Schema;
use confidential_audit::net::{
    ChannelNet, Envelope, NetError, NodeId, Session, SessionId, SimTime, Transport,
};
use dla_bigint::Ubig;
use rand::SeedableRng;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// Passes a token once around an `n`-node ring, one scoped thread per
/// node on the root session of a shared [`ChannelNet`]: node `i` turns
/// the token it receives (node 0: `start`) into `step(i, token)` and
/// sends that to its successor. Returns what comes back to node 0 and
/// the number of messages the network carried.
fn ring_pass(n: usize, start: &Ubig, step: impl Fn(usize, &Ubig) -> Ubig + Sync) -> (Ubig, u64) {
    let net = ChannelNet::with_timeout(n, TIMEOUT);
    let node = |id: usize| {
        let session = Session::root(&net);
        let pred = NodeId((id + n - 1) % n);
        let recv = || {
            let msg = session.recv_from(NodeId(id), pred).expect("token arrives");
            Ubig::from_bytes_be(&msg.payload)
        };
        let token = if id == 0 { start.clone() } else { recv() };
        let out = Bytes::from(step(id, &token).to_bytes_be());
        session.send(NodeId(id), NodeId((id + 1) % n), out);
        (id == 0).then(recv)
    };
    let back = thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|id| scope.spawn(move || node(id))).collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("thread completes"))
            .last()
    });
    (back.expect("initiator returned"), net.stats().messages_sent)
}

#[test]
fn threaded_accumulator_circulation_matches_deposit() {
    let params = AccumulatorParams::fixed_512();
    let n = 4;
    let fragments: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("fragment-for-node-{i}").into_bytes())
        .collect();
    // The "user deposit" computed up front.
    let deposit = params.accumulate(fragments.iter().map(Vec::as_slice));

    // Each node folds its own fragment into the circulating value.
    let (final_acc, _) = ring_pass(n, params.start(), |id, acc| {
        params.fold(acc, &fragments[id])
    });
    assert_eq!(final_acc, deposit);
}

#[test]
fn threaded_commutative_ring_pass_agrees_with_sequential() {
    let domain = CommutativeDomain::fixed_256();
    let n = 3;
    let mut rng = rand::rngs::StdRng::seed_from_u64(50);
    let keys: Vec<PhKey> = (0..n).map(|_| PhKey::generate(&domain, &mut rng)).collect();
    let element = domain.encode(b"e").expect("encodes");

    // Sequential reference: apply all layers in ring order.
    let expect = keys.iter().fold(element.clone(), |c, k| k.encrypt(&c));

    let (got, messages_sent) = ring_pass(n, &element, |id, c| keys[id].encrypt(c));
    assert_eq!(got, expect);
    assert_eq!(messages_sent, n as u64);
}

#[test]
fn concurrent_glsn_allocation_is_collision_free_across_threads() {
    use confidential_audit::logstore::model::Glsn;
    use confidential_audit::logstore::store::GlsnAllocator;
    use std::sync::Arc;

    let alloc = Arc::new(GlsnAllocator::starting_at(Glsn(1)));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let alloc = Arc::clone(&alloc);
            thread::spawn(move || {
                (0..500)
                    .map(|_| alloc.allocate().unwrap().0)
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("allocator thread"))
        .collect();
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "glsns must be cluster-unique");
}

/// The cluster's own network, noting the thread of every send.
struct SendersNoted<'a> {
    cluster: &'a DlaCluster,
    senders: Mutex<Vec<ThreadId>>,
}

impl Transport for SendersNoted<'_> {
    fn num_nodes(&self) -> usize {
        self.cluster.shared_net().num_nodes()
    }
    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        let sender = thread::current().id();
        self.senders.lock().expect("senders lock").push(sender);
        self.cluster.shared_net().send(session, from, to, payload);
    }
    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.cluster.shared_net().recv(session, node)
    }
    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.cluster.shared_net().recv_from(session, node, from)
    }
    fn charge(&self, session: SessionId, node: NodeId, cost: SimTime) {
        self.cluster.shared_net().charge(session, node, cost);
    }
    fn counters(&self, session: SessionId) -> (u64, u64) {
        self.cluster.shared_net().counters(session)
    }
    fn elapsed(&self, session: SessionId) -> SimTime {
        Transport::elapsed(self.cluster.shared_net(), session)
    }
}

/// The benchmark's four-clause shape: four cross subqueries, each a
/// ring protocol of its own, then the conjunction. Every frame of it
/// leaves from the thread that asked.
#[test]
fn a_query_sends_every_frame_from_the_thread_that_asks_it() {
    const CNF4: &str = "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
        AND (tid = 'T2' OR c2 > 100.00) AND id != c3";
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema).with_partition(partition);
    let mut cluster = DlaCluster::new(config.with_seed(7)).expect("builds");
    let user = cluster.register_user("u0").expect("registers");
    cluster.log_records(&user, &paper_table1()).expect("logs");
    let plan = cluster.compile(CNF4).expect("compiles");
    let cross = (plan.subqueries.iter())
        .filter(|s| matches!(s.kind, SubqueryKind::Cross { .. }))
        .count();
    assert_eq!(cross, 4);

    let wire = SendersNoted {
        cluster: &cluster,
        senders: Mutex::new(Vec::new()),
    };
    let asked = execute_on(&cluster, &wire, &plan, true, ExecMode::Concurrent, 5);
    assert_eq!(asked.expect("runs").sessions.len(), 4);
    let senders = wire.senders.into_inner().expect("senders lock");
    assert!(!senders.is_empty());
    let me = thread::current().id();
    assert!(senders.iter().all(|&sender| sender == me));
}

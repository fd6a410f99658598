//! Concurrency integration: the accumulator circulation and a
//! commutative-cipher ring pass executed by real OS threads sharing one
//! [`ChannelNet`] — demonstrating the protocols do not depend on the
//! deterministic single-threaded scheduler.

use bytes::Bytes;
use confidential_audit::crypto::accumulator::AccumulatorParams;
use confidential_audit::crypto::pohlig_hellman::{CommutativeDomain, CommutativeKey, PhKey};
use confidential_audit::net::{ChannelNet, NodeId, Session};
use dla_bigint::Ubig;
use rand::SeedableRng;
use std::thread;
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
            thread::spawn(move || (0..500).map(|_| alloc.allocate().0).collect::<Vec<u64>>())
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

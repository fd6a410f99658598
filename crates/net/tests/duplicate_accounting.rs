//! Regression: duplicate copies must show up identically in the global
//! counters and the per-session ones. Before `record_delivery`, the
//! second leg of a fault-injected duplicate bumped the global
//! `messages_delivered` but left every per-session total untouched, so
//! the two views disagreed under duplication. The simulator now
//! discards a second copy at the receiving end, so each copy is counted
//! once: as a delivery or as a discard.

use bytes::Bytes;
use dla_net::fault::FaultPlan;
use dla_net::latency::LatencyModel;
use dla_net::{NetConfig, NodeId, SessionId, SimNet};

const DUPLICATE_PROBABILITY: f64 = 0.05;

fn duplicating_net(seed: u64) -> SimNet {
    let mut faults = FaultPlan::none();
    faults.duplicate_probability = DUPLICATE_PROBABILITY;
    SimNet::new(
        4,
        NetConfig::ideal()
            .with_faults(faults)
            .with_seed(seed)
            .with_latency(LatencyModel::lan()),
    )
}

#[test]
fn per_session_and_global_delivery_accounting_agree_under_duplication() {
    let mut saw_duplicate = false;
    for seed in 0..8u64 {
        let mut net = duplicating_net(seed);
        let sessions = [SessionId(1), SessionId(2), SessionId(3)];
        let payload = |s: u64, i: u64| Bytes::from(vec![s as u8; 16 + (i as usize % 7)]);
        for (si, &session) in sessions.iter().enumerate() {
            for i in 0..40u64 {
                let from = NodeId(i as usize % 3);
                let to = NodeId((i as usize + 1 + si) % 4);
                net.send_on(session, from, to, payload(session.0, i));
            }
        }
        // Drain every inbox completely so every second copy meets the
        // receiving end.
        for &session in &sessions {
            for node in 0..4 {
                while net.recv_on(session, NodeId(node)).is_ok() {}
            }
        }
        let stats = net.stats();
        saw_duplicate |= stats.messages_duplicated > 0;

        // Nothing is dropped here, so every send is delivered exactly
        // once and every duplicate discarded.
        assert_eq!(stats.messages_delivered, stats.messages_sent, "seed {seed}");
        assert_eq!(stats.bytes_delivered, stats.bytes_sent, "seed {seed}");
        assert_eq!(
            stats.messages_discarded, stats.messages_duplicated,
            "seed {seed}"
        );

        // The fixed invariant: per-session delivered totals sum to the
        // global ones.
        let (session_msgs, session_bytes) =
            stats.sessions().fold((0u64, 0u64), |(m, b), (_, s)| {
                (m + s.messages_delivered, b + s.bytes_delivered)
            });
        assert_eq!(session_msgs, stats.messages_delivered, "seed {seed}");
        assert_eq!(session_bytes, stats.bytes_delivered, "seed {seed}");

        // Each session's delivered side is its sent side.
        for (_, s) in stats.sessions() {
            assert_eq!(
                (s.messages_delivered, s.bytes_delivered),
                (s.messages, s.bytes)
            );
        }
    }
    assert!(
        saw_duplicate,
        "5% duplication over 8 seeds must produce at least one duplicate"
    );
}

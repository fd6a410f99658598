//! The traffic ledger against a plain reference ledger: random
//! interleavings of sends and deliveries over a few sessions and nodes —
//! returns to a session counted in long ago, deliveries to a session
//! that never sent — and after every step every reader of
//! [`TrafficStats`] must say what one ordered map of every session says.

use dla_net::stats::{LinkStats, SessionStats, TrafficStats};
use dla_net::time::SimTime;
use dla_net::SessionId;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
enum Op {
    Send {
        session: u64,
        from: usize,
        to: usize,
        bytes: usize,
        at: u64,
    },
    Deliver {
        session: u64,
        bytes: usize,
    },
}

/// Sessions 0–3 send; deliveries also reach session 4, which never does.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4, 0usize..4, 0usize..4, 0usize..64, 0u64..100).prop_map(
            |(session, from, to, bytes, at)| Op::Send {
                session,
                from,
                to,
                bytes,
                at
            }
        ),
        (0u64..5, 0usize..64).prop_map(|(session, bytes)| Op::Deliver { session, bytes }),
    ]
}

/// The reference: every session in one ordered map, walked on every
/// message.
#[derive(Default)]
struct Model {
    messages_sent: u64,
    messages_delivered: u64,
    bytes_sent: u64,
    bytes_delivered: u64,
    per_link: BTreeMap<(usize, usize), LinkStats>,
    per_session: BTreeMap<SessionId, SessionStats>,
    events: u64,
}

impl Model {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Send {
                session,
                from,
                to,
                bytes,
                at,
            } => {
                let sent_at = SimTime::from_micros(at);
                self.messages_sent += 1;
                self.bytes_sent += bytes as u64;
                let link = self.per_link.entry((from, to)).or_default();
                link.messages += 1;
                link.bytes += bytes as u64;
                let event = self.events;
                self.events += 1;
                let s = self
                    .per_session
                    .entry(SessionId(session))
                    .or_insert(SessionStats {
                        first_event: event,
                        first_send_at: sent_at,
                        ..SessionStats::default()
                    });
                s.messages += 1;
                s.bytes += bytes as u64;
                s.last_event = event;
                s.last_send_at = s.last_send_at.max(sent_at);
            }
            Op::Deliver { session, bytes } => {
                self.messages_delivered += 1;
                self.bytes_delivered += bytes as u64;
                let s = self.per_session.entry(SessionId(session)).or_default();
                s.messages_delivered += 1;
                s.bytes_delivered += bytes as u64;
            }
        }
    }

    /// The most closed intervals covering one point, by brute force:
    /// some start point is covered by as many as any point is.
    fn max_overlap<T: Ord + Copy>(intervals: &[(T, T)]) -> usize {
        intervals
            .iter()
            .map(|&(p, _)| intervals.iter().filter(|&&(a, b)| a <= p && p <= b).count())
            .max()
            .unwrap_or(0)
    }

    fn max_concurrent_sessions(&self) -> usize {
        let spans: Vec<_> = self
            .per_session
            .values()
            .map(|s| (s.first_send_at, s.last_send_at))
            .collect();
        Self::max_overlap(&spans)
    }

    fn max_interleaved_sessions(&self) -> usize {
        let spans: Vec<_> = self
            .per_session
            .values()
            .map(|s| (s.first_event, s.last_event))
            .collect();
        Self::max_overlap(&spans)
    }

    fn display(&self) -> String {
        format!(
            "{} msgs ({} delivered, 0 dropped, 0 dup, 0 corrupt), {} bytes, {} sessions",
            self.messages_sent,
            self.messages_delivered,
            self.bytes_sent,
            self.per_session.len()
        )
    }
}

fn apply(ledger: &mut TrafficStats, op: Op) {
    match op {
        Op::Send {
            session,
            from,
            to,
            bytes,
            at,
        } => ledger.record_send(
            SessionId(session),
            from,
            to,
            bytes,
            SimTime::from_micros(at),
        ),
        Op::Deliver { session, bytes } => ledger.record_delivery(SessionId(session), bytes),
    }
}

fn agrees(ledger: &TrafficStats, model: &Model) -> Result<(), TestCaseError> {
    for id in 0..6 {
        let id = SessionId(id);
        prop_assert_eq!(
            ledger.session(id),
            model.per_session.get(&id).copied().unwrap_or_default(),
            "session {:?}",
            id
        );
    }
    let sessions: Vec<_> = ledger.sessions().collect();
    let expected: Vec<_> = model.per_session.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(sessions, expected);
    let links: Vec<_> = ledger.links().collect();
    let expected: Vec<_> = model.per_link.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(links, expected);
    prop_assert_eq!(
        ledger.max_concurrent_sessions(),
        model.max_concurrent_sessions()
    );
    prop_assert_eq!(
        ledger.max_interleaved_sessions(),
        model.max_interleaved_sessions()
    );
    prop_assert_eq!(ledger.messages_sent, model.messages_sent);
    prop_assert_eq!(ledger.messages_delivered, model.messages_delivered);
    prop_assert_eq!(ledger.bytes_sent, model.bytes_sent);
    prop_assert_eq!(ledger.bytes_delivered, model.bytes_delivered);
    prop_assert_eq!(ledger.to_string(), model.display());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_reader_of_the_ledger_agrees_with_one_ordered_map(
        ops in prop::collection::vec(op(), 0..48),
        a in (0u64..5, 1usize..64),
        b in (1u64..5, 1usize..64),
    ) {
        // Deliveries to two different sessions commute, so both orders
        // leave equal ledgers, each with the other session at hand.
        let first = Op::Deliver { session: a.0, bytes: a.1 };
        let second = Op::Deliver { session: (a.0 + b.0) % 5, bytes: b.1 };
        let mut ledger = TrafficStats::new();
        let mut model = Model::default();
        for &op in &ops {
            apply(&mut ledger, op);
            model.apply(op);
            agrees(&ledger, &model)?;

            let mut ab = ledger.clone();
            apply(&mut ab, first);
            apply(&mut ab, second);
            let mut ba = ledger.clone();
            apply(&mut ba, second);
            apply(&mut ba, first);
            prop_assert!(ab == ba, "same contents, different session at hand");
            prop_assert!(ab != ledger, "one more delivery is a different ledger");
        }
        let mut reset = ledger.clone();
        reset.reset();
        prop_assert!(reset == TrafficStats::new());
        agrees(&reset, &Model::default())?;
    }
}

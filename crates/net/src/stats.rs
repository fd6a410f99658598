//! Traffic accounting — the raw material of every cost experiment.
//!
//! The paper's central efficiency claim is that *relaxed* secure
//! multiparty computation needs far less communication than classical
//! zero-disclosure protocols. [`TrafficStats`] counts messages and
//! bytes (total, per directed link, and per protocol session) so the
//! benchmark harness can print exactly that comparison — and so a
//! concurrency experiment can *prove* that two sessions were in flight
//! at the same time (see [`TrafficStats::max_concurrent_sessions`]).
//!
//! A message's accounting costs a few field updates however many
//! sessions the ledger has seen: the session messages are being counted
//! in is kept at hand, out of the ordered map, and only a switch to
//! another session walks the map.

use crate::time::SimTime;
use crate::SessionId;
use std::collections::BTreeMap;
use std::fmt;

/// Cumulative traffic counters for one network.
///
/// Two ledgers are equal when every reader sees the same counters,
/// whichever session each happens to hold at hand.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    /// Messages handed to the network (including later-dropped ones).
    pub messages_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Messages dropped by fault injection.
    pub messages_dropped: u64,
    /// Messages sent twice by fault injection.
    pub messages_duplicated: u64,
    /// Second copies the receiving end discarded by their link number.
    pub messages_discarded: u64,
    /// Payloads corrupted by fault injection.
    pub messages_corrupted: u64,
    /// Payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Payload bytes actually delivered.
    pub bytes_delivered: u64,
    per_link: BTreeMap<(usize, usize), LinkStats>,
    /// The session last counted in, kept out of `per_session`: a run of
    /// messages in one session never walks the map.
    hot: Option<(SessionId, SessionStats)>,
    /// Every other session that sent or received a message.
    per_session: BTreeMap<SessionId, SessionStats>,
    /// Global send-event counter (orders sends across sessions).
    events: u64,
}

/// Counters for one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages sent on this link.
    pub messages: u64,
    /// Payload bytes sent on this link.
    pub bytes: u64,
}

/// Counters for one protocol session, including its activity interval
/// both in global send-event order and in virtual send time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Messages sent in this session.
    pub messages: u64,
    /// Payload bytes sent in this session.
    pub bytes: u64,
    /// Messages delivered in this session.
    pub messages_delivered: u64,
    /// Payload bytes delivered in this session.
    pub bytes_delivered: u64,
    /// Global event index of the session's first send.
    pub first_event: u64,
    /// Global event index of the session's last send.
    pub last_event: u64,
    /// Virtual time of the session's first send.
    pub first_send_at: SimTime,
    /// Virtual time of the session's last send.
    pub last_send_at: SimTime,
}

impl TrafficStats {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records a send of `bytes` payload bytes on `from → to` within
    /// `session`, stamped with the sender's virtual clock `sent_at`
    /// (pass [`SimTime::ZERO`] on transports without virtual time).
    /// The same send is counted to telemetry here, so its `MsgSent` and
    /// `BytesSent` are exactly this ledger's.
    pub fn record_send(
        &mut self,
        session: SessionId,
        from: usize,
        to: usize,
        bytes: usize,
        sent_at: SimTime,
    ) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        let link = self.per_link.entry((from, to)).or_default();
        link.messages += 1;
        link.bytes += bytes as u64;
        let event = self.events;
        self.events += 1;
        let s = self.hot_session(session, || SessionStats {
            first_event: event,
            first_send_at: sent_at,
            ..SessionStats::default()
        });
        s.messages += 1;
        s.bytes += bytes as u64;
        s.last_event = event;
        s.last_send_at = s.last_send_at.max(sent_at);
        dla_telemetry::record(dla_telemetry::CostKind::MsgSent, 1);
        dla_telemetry::record(dla_telemetry::CostKind::BytesSent, bytes as u64);
    }

    /// Records a delivery of `bytes` payload bytes within `session`.
    ///
    /// Every transport delivery path must come through here, so the
    /// global `messages_delivered`/`bytes_delivered` counters and the
    /// per-session ones move in lockstep: for any trace,
    /// `Σ_session messages_delivered == messages_delivered`. Telemetry's
    /// `MsgDelivered` is counted here too.
    pub fn record_delivery(&mut self, session: SessionId, bytes: usize) {
        self.messages_delivered += 1;
        self.bytes_delivered += bytes as u64;
        let s = self.hot_session(session, SessionStats::default);
        s.messages_delivered += 1;
        s.bytes_delivered += bytes as u64;
        dla_telemetry::record(dla_telemetry::CostKind::MsgDelivered, 1);
    }

    /// The counters of `session`, made the one at hand: the previous
    /// one goes back into the map, and `session`'s entry comes out of
    /// it (or `fresh()` if it has none). A switch costs two walks of
    /// the map, a message in the session at hand none.
    fn hot_session(
        &mut self,
        session: SessionId,
        fresh: impl FnOnce() -> SessionStats,
    ) -> &mut SessionStats {
        if !matches!(self.hot, Some((id, _)) if id == session) {
            let entry = self.per_session.remove(&session).unwrap_or_else(fresh);
            if let Some((id, cold)) = self.hot.replace((session, entry)) {
                self.per_session.insert(id, cold);
            }
        }
        &mut self.hot.as_mut().expect("a session was just put at hand").1
    }

    /// Per-link counters for `from → to`.
    #[must_use]
    pub fn link(&self, from: usize, to: usize) -> LinkStats {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Iterates over all active links.
    pub fn links(&self) -> impl Iterator<Item = ((usize, usize), LinkStats)> + '_ {
        self.per_link.iter().map(|(&k, &v)| (k, v))
    }

    /// Per-session counters (zeroed if the session never sent).
    #[must_use]
    pub fn session(&self, session: SessionId) -> SessionStats {
        match self.hot {
            Some((id, s)) if id == session => s,
            _ => self.per_session.get(&session).copied().unwrap_or_default(),
        }
    }

    /// Iterates over all sessions that sent or received a message, in
    /// id order.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, SessionStats)> + '_ {
        // The session at hand is not in the map: it goes between the
        // entries below its id and those above.
        let (below, above) = match self.hot {
            Some((id, _)) => (self.per_session.range(..id), self.per_session.range(id..)),
            None => (self.per_session.range(..), Default::default()),
        };
        below
            .chain(self.hot.iter().map(|(k, v)| (k, v)))
            .chain(above)
            .map(|(&k, &v)| (k, v))
    }

    /// Every session's counters, in no particular order.
    fn all_sessions(&self) -> impl Iterator<Item = &SessionStats> {
        self.per_session
            .values()
            .chain(self.hot.iter().map(|(_, s)| s))
    }

    /// Maximum number of sessions whose *virtual-time* activity
    /// intervals `[first_send_at, last_send_at]` overlap: ≥ 2 proves
    /// that protocol sessions were in flight simultaneously on the
    /// simulated network; a serial schedule reports 1.
    #[must_use]
    pub fn max_concurrent_sessions(&self) -> usize {
        max_overlap(
            self.all_sessions()
                .map(|s| (s.first_send_at, s.last_send_at)),
        )
    }

    /// Maximum number of sessions whose *send-event* intervals
    /// `[first_event, last_event]` overlap — the analogue of
    /// [`TrafficStats::max_concurrent_sessions`] for transports without
    /// virtual time (real threads over channels).
    #[must_use]
    pub fn max_interleaved_sessions(&self) -> usize {
        max_overlap(self.all_sessions().map(|s| (s.first_event, s.last_event)))
    }

    /// Resets every counter (e.g. between benchmark phases).
    pub fn reset(&mut self) {
        *self = TrafficStats::default();
    }
}

impl PartialEq for TrafficStats {
    fn eq(&self, other: &Self) -> bool {
        self.messages_sent == other.messages_sent
            && self.messages_delivered == other.messages_delivered
            && self.messages_dropped == other.messages_dropped
            && self.messages_duplicated == other.messages_duplicated
            && self.messages_discarded == other.messages_discarded
            && self.messages_corrupted == other.messages_corrupted
            && self.bytes_sent == other.bytes_sent
            && self.bytes_delivered == other.bytes_delivered
            && self.events == other.events
            && self.per_link == other.per_link
            && self.sessions().eq(other.sessions())
    }
}

impl Eq for TrafficStats {}

/// Maximum number of closed intervals covering a single point.
fn max_overlap<T: Ord + Copy>(intervals: impl Iterator<Item = (T, T)>) -> usize {
    let mut starts = Vec::new();
    let mut ends = Vec::new();
    for (a, b) in intervals {
        starts.push(a);
        ends.push(b);
    }
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut i, mut j, mut open, mut best) = (0, 0, 0usize, 0usize);
    while i < starts.len() {
        // Closed intervals: a start tied with an end still overlaps it.
        if starts[i] <= ends[j] {
            open += 1;
            best = best.max(open);
            i += 1;
        } else {
            open -= 1;
            j += 1;
        }
    }
    best
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs ({} delivered, {} dropped, {} dup, {} corrupt), {} bytes, {} sessions",
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.messages_duplicated,
            self.messages_corrupted,
            self.bytes_sent,
            self.per_session.len() + usize::from(self.hot.is_some())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: SessionId = SessionId::ROOT;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn record_send_accumulates() {
        let mut s = TrafficStats::new();
        s.record_send(ROOT, 0, 1, 100, SimTime::ZERO);
        s.record_send(ROOT, 0, 1, 50, SimTime::ZERO);
        s.record_send(ROOT, 1, 2, 10, SimTime::ZERO);
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.bytes_sent, 160);
        assert_eq!(s.link(0, 1).messages, 2);
        assert_eq!(s.link(0, 1).bytes, 150);
        assert_eq!(s.link(1, 2).bytes, 10);
        assert_eq!(s.link(2, 1), LinkStats::default(), "direction matters");
    }

    #[test]
    fn per_session_counters_are_partitioned() {
        let mut s = TrafficStats::new();
        s.record_send(SessionId(1), 0, 1, 100, at(5));
        s.record_send(SessionId(2), 1, 0, 7, at(6));
        s.record_send(SessionId(1), 0, 1, 3, at(9));
        assert_eq!(s.session(SessionId(1)).messages, 2);
        assert_eq!(s.session(SessionId(1)).bytes, 103);
        assert_eq!(s.session(SessionId(2)).messages, 1);
        assert_eq!(s.session(SessionId(3)), SessionStats::default());
        assert_eq!(s.sessions().count(), 2);
        // Global totals still aggregate across sessions.
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.bytes_sent, 110);
    }

    #[test]
    fn session_intervals_track_first_and_last_send() {
        let mut s = TrafficStats::new();
        s.record_send(SessionId(1), 0, 1, 1, at(10));
        s.record_send(SessionId(2), 0, 1, 1, at(11));
        s.record_send(SessionId(1), 1, 0, 1, at(30));
        let one = s.session(SessionId(1));
        assert_eq!(one.first_event, 0);
        assert_eq!(one.last_event, 2);
        assert_eq!(one.first_send_at, at(10));
        assert_eq!(one.last_send_at, at(30));
    }

    #[test]
    fn overlapping_sessions_are_detected() {
        let mut s = TrafficStats::new();
        // Session 1 active [10, 30], session 2 active [20, 40]: overlap.
        s.record_send(SessionId(1), 0, 1, 1, at(10));
        s.record_send(SessionId(2), 0, 1, 1, at(20));
        s.record_send(SessionId(1), 1, 0, 1, at(30));
        s.record_send(SessionId(2), 1, 0, 1, at(40));
        assert_eq!(s.max_concurrent_sessions(), 2);
        assert_eq!(s.max_interleaved_sessions(), 2);
    }

    #[test]
    fn serial_sessions_do_not_overlap() {
        let mut s = TrafficStats::new();
        // Session 1 finishes (at 20) strictly before session 2 starts (at 25).
        s.record_send(SessionId(1), 0, 1, 1, at(10));
        s.record_send(SessionId(1), 1, 0, 1, at(20));
        s.record_send(SessionId(2), 0, 1, 1, at(25));
        s.record_send(SessionId(2), 1, 0, 1, at(35));
        assert_eq!(s.max_concurrent_sessions(), 1);
        assert_eq!(s.max_interleaved_sessions(), 1);
    }

    #[test]
    fn delivery_accounting_agrees_per_session_and_globally() {
        let mut s = TrafficStats::new();
        s.record_send(SessionId(1), 0, 1, 100, at(1));
        s.record_send(SessionId(2), 0, 1, 40, at(2));
        s.record_delivery(SessionId(1), 100);
        // A second message in session 1.
        s.record_delivery(SessionId(1), 100);
        s.record_delivery(SessionId(2), 40);
        assert_eq!(s.messages_delivered, 3);
        assert_eq!(s.bytes_delivered, 240);
        assert_eq!(s.session(SessionId(1)).messages_delivered, 2);
        assert_eq!(s.session(SessionId(1)).bytes_delivered, 200);
        assert_eq!(s.session(SessionId(2)).messages_delivered, 1);
        let (msgs, bytes) = s.sessions().fold((0, 0), |(m, b), (_, st)| {
            (m + st.messages_delivered, b + st.bytes_delivered)
        });
        assert_eq!(msgs, s.messages_delivered);
        assert_eq!(bytes, s.bytes_delivered);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = TrafficStats::new();
        s.record_send(ROOT, 0, 1, 5, SimTime::ZERO);
        s.messages_delivered = 1;
        s.reset();
        assert_eq!(s, TrafficStats::new());
        assert_eq!(s.links().count(), 0);
        assert_eq!(s.sessions().count(), 0);
    }

    #[test]
    fn display_is_informative() {
        let mut s = TrafficStats::new();
        s.record_send(ROOT, 0, 1, 42, SimTime::ZERO);
        s.messages_delivered = 1;
        let text = s.to_string();
        assert!(text.contains("1 msgs"));
        assert!(text.contains("42 bytes"));
        assert!(text.contains("1 sessions"));
    }
}

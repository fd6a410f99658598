//! Per-protocol cost reporting: message count, bytes, simulated network
//! latency and round count — the quantities behind the paper's
//! relaxed-vs-classical efficiency argument.
//!
//! [`Meter`] is the one bracket a protocol run opens on its session: it
//! snapshots the session's counters for the [`ProtocolReport`] and
//! bridges the run into the `dla-telemetry` subsystem — one cost scope
//! (so crypto/net operation counts are attributed to the protocol
//! session) plus one span over the session's virtual-time interval.
//! The telemetry half is a single-branch no-op when no recorder is
//! installed.

use dla_net::{Session, SimTime};
use std::fmt;

/// Cost summary of one protocol execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Number of participating parties (excluding a coordinating TTP).
    pub parties: usize,
    /// Messages sent during the run.
    pub messages: u64,
    /// Payload bytes sent during the run.
    pub bytes: u64,
    /// Simulated network makespan attributable to the run.
    pub elapsed: SimTime,
    /// Communication rounds (protocol-defined). The simulator's clock
    /// agrees: a round's frames are all sent before any is received,
    /// so on links of one fixed latency `elapsed == rounds × latency`
    /// (pinned for every protocol in `tests/rounds.rs`).
    pub rounds: usize,
}

impl fmt::Display for ProtocolReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} rounds={} msgs={} bytes={} net-latency={}",
            self.protocol, self.parties, self.rounds, self.messages, self.bytes, self.elapsed
        )
    }
}

/// The bracket around one protocol run on `session`. [`Meter::begin`]
/// snapshots the session's counters, opens a cost scope labelled with
/// the protocol name (attributing every modexp, Shamir evaluation,
/// send, ... to this session) and a `"protocol"` span from the
/// session's current virtual makespan; [`Meter::finish`] turns the
/// counter deltas into the run's [`ProtocolReport`]. Counters are read
/// *per session*, so a report stays exact while other sessions are in
/// flight on the same transport. Dropping the meter — at `finish`, or
/// on an early error return — closes the span at the session's
/// then-current makespan.
#[must_use = "telemetry is attributed only while the meter is alive"]
pub struct Meter<'a> {
    session: Session<'a>,
    protocol: &'static str,
    messages0: u64,
    bytes0: u64,
    elapsed0: SimTime,
    span: Option<dla_telemetry::SpanGuard>,
    _scope: dla_telemetry::ScopeGuard,
}

impl<'a> Meter<'a> {
    /// Opens the bracket for `protocol` on `session`.
    pub fn begin(session: &Session<'a>, protocol: &'static str) -> Self {
        let (messages0, bytes0) = session.counters();
        let elapsed0 = session.elapsed();
        let scope = dla_telemetry::scope(protocol, session.id().0);
        let span = dla_telemetry::span("protocol", protocol, elapsed0.as_nanos());
        Meter {
            session: *session,
            protocol,
            messages0,
            bytes0,
            elapsed0,
            span: span.is_recording().then_some(span),
            _scope: scope,
        }
    }

    /// The report for everything this session sent since
    /// [`Meter::begin`].
    pub fn finish(self, parties: usize, rounds: usize) -> ProtocolReport {
        let (messages, bytes) = self.session.counters();
        dla_telemetry::record(dla_telemetry::CostKind::Round, rounds as u64);
        ProtocolReport {
            protocol: self.protocol,
            parties,
            messages: messages - self.messages0,
            bytes: bytes - self.bytes0,
            elapsed: self.session.elapsed() - self.elapsed0,
            rounds,
        }
    }
}

impl Drop for Meter<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            span.end(self.session.elapsed().as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dla_net::{NetConfig, NodeId, SharedNet, SimNet};

    #[test]
    fn meter_measures_deltas_only() {
        let net = SharedNet::new(SimNet::new(2, NetConfig::ideal()));
        let session = Session::root(&net);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"before"));
        let meter = Meter::begin(&session, "test");
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"during!"));
        session.send(NodeId(1), NodeId(0), Bytes::from_static(b"during!"));
        let report = meter.finish(2, 1);
        assert_eq!(report.protocol, "test");
        assert_eq!(report.messages, 2);
        assert_eq!(report.bytes, 14);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn report_display_mentions_all_costs() {
        let r = ProtocolReport {
            protocol: "ssi",
            parties: 3,
            messages: 9,
            bytes: 1024,
            elapsed: SimTime::from_millis(5),
            rounds: 3,
        };
        let s = r.to_string();
        assert!(s.contains("ssi"));
        assert!(s.contains("msgs=9"));
        assert!(s.contains("bytes=1024"));
    }
}

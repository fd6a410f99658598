//! Byzantine interposition at the transport layer.
//!
//! The fault layer ([`crate::fault::FaultPlan`]) models a *benign*
//! network: drops, duplicates and bit rot, all of which a receiver can
//! tell (a gap, a link number already delivered, a stale checksum). A
//! Byzantine node is different — it **re-stamps its own lie**. An
//! [`Adversary`] sits between protocol code and a [`Transport`] and can
//! rewrite outgoing payloads *before* the envelope checksum is
//! computed, so the forgery is perfectly well-formed on the wire and
//! only the cryptographic machinery above (accumulator circulation,
//! checkpoint chains, origin tags) can catch it.
//!
//! There is one interposition point, [`AdversaryNet`], and it wraps
//! every transport: the simulator behind [`crate::SharedNet`] (what the
//! in-process DLA cluster sends through), [`crate::ChannelNet`] and
//! [`crate::tcp::TcpNet`]. Every lie and every look goes through it — a
//! policy's [`Adversary::tamper`] and [`Adversary::observe`] are called
//! nowhere else — so one schedule replays identically on all three, and
//! "what a participant saw" has one definition: the messages the tap
//! handed to the transport beneath it.
//!
//! [`ScriptedAdversary`] is the standard implementation: a compromised
//! set plus an ordered list of [`TamperRule`]s, with every
//! nondeterministic choice (victims, flip masks, target offsets) drawn
//! from [`scenario_rng`] so a whole attack schedule replays
//! deterministically from `(cluster seed, scenario id)` on any
//! transport. Honest-but-curious coalitions use the same object: nodes
//! in the *curious* set never tamper, but every wire message they send
//! or receive is captured for post-hoc leak analysis. A policy curious
//! about every node is a recorder of the whole wire.

use crate::sim::Envelope;
use crate::time::SimTime;
use crate::wire::crc32;
use crate::{NetError, NodeId, SessionId, Transport};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Derives the RNG stream for one adversary scenario from the cluster
/// seed — the same idiom as [`crate::fault::fault_rng`], with its own
/// stream constant so attack schedules are reproducible and independent
/// of the fault and latency streams: replaying scenario 3 draws the
/// same victims and masks no matter what else the network rolled.
#[must_use]
pub fn scenario_rng(cluster_seed: u64, scenario_id: u64) -> StdRng {
    let mut x = scenario_id.wrapping_add(0x41D7_E751_0C2B_9A6D);
    let stream = rand::splitmix64(&mut x);
    StdRng::seed_from_u64(cluster_seed ^ stream)
}

/// What a Byzantine sender does to one outgoing payload.
///
/// Every variant except [`Tamper::Drop`] produces a payload that is
/// re-stamped with a fresh checksum — the lie is wire-consistent and
/// must be caught by protocol-level verification, not by the envelope.
#[derive(Clone, Debug)]
pub enum Tamper {
    /// Send the payload unchanged.
    Pass,
    /// Byzantine omission: silently swallow the message.
    Drop,
    /// Substitute a wholly forged payload (checkpoint equivocation,
    /// replayed blobs, …).
    Replace(Bytes),
    /// XOR `mask` into the byte `offset_from_end` positions before the
    /// end — "flip a ring ciphertext" without knowing the exact frame
    /// length. Out-of-range offsets leave the payload unchanged.
    Flip {
        /// Distance from the last byte (0 = last byte).
        offset_from_end: usize,
        /// XOR mask (0 is a no-op).
        mask: u8,
    },
    /// Keep only the first `len` bytes — a malformed blob that fails
    /// structural decoding at the receiver.
    Truncate(usize),
    /// Rewrite the payload with a function of what was sent — a lie
    /// computed from the honest frame (one element of a set moved to
    /// another encoding of the same residue).
    Rewrite(fn(&[u8]) -> Bytes),
    /// Adversarial scheduling: hold the message back, byte-for-byte
    /// intact, and release it onto the wire only after this many
    /// subsequent sends have gone out — reordering without forging
    /// anything ([`Tamper::apply`] leaves the payload unchanged; the
    /// holding back is [`AdversaryNet`]'s).
    Delay(u64),
}

impl Tamper {
    /// Applies this tamper to `payload`. `None` means the message is
    /// swallowed entirely.
    #[must_use]
    pub fn apply(&self, payload: &Bytes) -> Option<Bytes> {
        match self {
            Tamper::Pass => Some(payload.clone()),
            Tamper::Drop => None,
            Tamper::Replace(forged) => Some(forged.clone()),
            Tamper::Flip {
                offset_from_end,
                mask,
            } => {
                let mut bytes = payload.to_vec();
                if let Some(slot) = bytes
                    .len()
                    .checked_sub(1 + offset_from_end)
                    .and_then(|i| bytes.get_mut(i))
                {
                    *slot ^= mask;
                }
                Some(Bytes::from(bytes))
            }
            Tamper::Truncate(len) => Some(Bytes::copy_from_slice(
                &payload[..(*len).min(payload.len())],
            )),
            Tamper::Rewrite(rewrite) => Some(rewrite(payload)),
            // The payload itself is untouched; the tap holds it back
            // (see `AdversaryNet::send`).
            Tamper::Delay(_) => Some(payload.clone()),
        }
    }
}

/// One entry in a scripted attack schedule: which messages it matches
/// and what happens to them. Rules are consulted in order; the first
/// live match fires.
#[derive(Clone, Debug)]
pub struct TamperRule {
    /// Match only messages sent by this node (`None` = any sender).
    pub from: Option<usize>,
    /// Match only messages to this node (`None` = any receiver).
    pub to: Option<usize>,
    /// Match only payloads whose first byte is this protocol tag.
    pub tag: Option<u8>,
    /// Skip this many matching messages before firing.
    pub skip: u64,
    /// Fire at most this many times (`u64::MAX` = every match).
    pub fires: u64,
    /// What to do with a matched message.
    pub action: Tamper,
}

impl TamperRule {
    /// A rule that fires once on the first message matching
    /// `(from, tag)`.
    #[must_use]
    pub fn once_from(from: usize, tag: u8, action: Tamper) -> Self {
        TamperRule {
            from: Some(from),
            to: None,
            tag: Some(tag),
            skip: 0,
            fires: 1,
            action,
        }
    }

    fn matches(&self, from: NodeId, to: NodeId, payload: &[u8]) -> bool {
        self.from.is_none_or(|f| from.0 == f)
            && self.to.is_none_or(|t| to.0 == t)
            && self.tag.is_none_or(|tag| payload.first() == Some(&tag))
    }
}

#[derive(Debug)]
struct RuleState {
    rule: TamperRule,
    matched: u64,
    fired: u64,
}

/// One wire message seen by a curious coalition member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapturedMessage {
    /// Session the message travelled on.
    pub session: SessionId,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The payload as it crossed the wire (post-tamper).
    pub payload: Bytes,
}

/// One forgery the adversary committed, recorded for replay checks: the
/// same scenario seed must produce the identical event list on every
/// transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TamperEvent {
    /// Session of the tampered message.
    pub session: SessionId,
    /// Byzantine sender.
    pub from: NodeId,
    /// Receiver the lie was addressed to.
    pub to: NodeId,
    /// Index of the rule that fired.
    pub rule: usize,
    /// CRC-32 of the payload the protocol handed over.
    pub original_crc: u32,
    /// CRC-32 of what actually went out (`None` = swallowed).
    pub forged_crc: Option<u32>,
}

/// Aggregate view of what a [`ScriptedAdversary`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdversaryReport {
    /// Messages rewritten (including truncations and flips).
    pub forged: usize,
    /// Messages swallowed.
    pub dropped: usize,
    /// Messages held back for late, reordered release.
    pub delayed: usize,
    /// Messages captured by the curious coalition.
    pub observed: usize,
    /// Every forgery, in wire order.
    pub events: Vec<TamperEvent>,
}

/// A network-interposed adversary policy.
///
/// Implementations must be `Send + Sync` (transports are shared across
/// threads) and `Debug` (they ride inside transport structs that derive
/// it).
pub trait Adversary: Send + Sync + std::fmt::Debug {
    /// Decides what happens to one outgoing message. Called for every
    /// send on the interposed transport.
    fn tamper(&self, session: SessionId, from: NodeId, to: NodeId, payload: &[u8]) -> Tamper;

    /// Observes one message as it crosses the wire (post-tamper).
    /// Curious-coalition implementations record what their members can
    /// see; the default ignores everything.
    fn observe(&self, session: SessionId, from: NodeId, to: NodeId, payload: &[u8]) {
        let _ = (session, from, to, payload);
    }

    /// Whether `node` is under Byzantine control (used by scenario
    /// runners for reporting; transports never need it).
    fn compromised(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }
}

/// The standard scripted adversary: a compromised set, a curious
/// coalition, and an ordered rule schedule. Interior mutability keeps
/// it usable behind `Arc` from any transport.
#[derive(Debug, Default)]
pub struct ScriptedAdversary {
    compromised: BTreeSet<usize>,
    curious: BTreeSet<usize>,
    rules: Mutex<Vec<RuleState>>,
    captures: Mutex<Vec<CapturedMessage>>,
    report: Mutex<AdversaryReport>,
}

impl ScriptedAdversary {
    /// An adversary controlling nothing and watching nobody.
    #[must_use]
    pub fn new() -> Self {
        ScriptedAdversary::default()
    }

    /// Puts `node` under Byzantine control: its outgoing messages are
    /// run through the rule schedule.
    #[must_use]
    pub fn compromise(mut self, node: usize) -> Self {
        self.compromised.insert(node);
        self
    }

    /// Adds `node` to the honest-but-curious coalition: every message
    /// it sends or receives is captured.
    #[must_use]
    pub fn curious(mut self, node: usize) -> Self {
        self.curious.insert(node);
        self
    }

    /// Appends `rule` to the schedule.
    #[must_use]
    pub fn rule(self, rule: TamperRule) -> Self {
        self.rules.lock().push(RuleState {
            rule,
            matched: 0,
            fired: 0,
        });
        self
    }

    /// The curious coalition's captured transcript, in wire order.
    #[must_use]
    pub fn captured(&self) -> Vec<CapturedMessage> {
        self.captures.lock().clone()
    }

    /// A snapshot of everything the adversary did.
    #[must_use]
    pub fn report(&self) -> AdversaryReport {
        self.report.lock().clone()
    }
}

impl Adversary for ScriptedAdversary {
    fn tamper(&self, session: SessionId, from: NodeId, to: NodeId, payload: &[u8]) -> Tamper {
        if !self.compromised.contains(&from.0) {
            return Tamper::Pass;
        }
        let mut rules = self.rules.lock();
        for (index, state) in rules.iter_mut().enumerate() {
            if !state.rule.matches(from, to, payload) {
                continue;
            }
            state.matched += 1;
            if state.matched <= state.rule.skip || state.fired >= state.rule.fires {
                continue;
            }
            state.fired += 1;
            let action = state.rule.action.clone();
            let forged_crc = action
                .apply(&Bytes::copy_from_slice(payload))
                .map(|p| crc32(&p));
            let mut report = self.report.lock();
            match &action {
                Tamper::Delay(_) => report.delayed += 1,
                _ => match forged_crc {
                    Some(_) => report.forged += 1,
                    None => report.dropped += 1,
                },
            }
            report.events.push(TamperEvent {
                session,
                from,
                to,
                rule: index,
                original_crc: crc32(payload),
                forged_crc,
            });
            return action;
        }
        Tamper::Pass
    }

    fn observe(&self, session: SessionId, from: NodeId, to: NodeId, payload: &[u8]) {
        if self.curious.contains(&from.0) || self.curious.contains(&to.0) {
            self.report.lock().observed += 1;
            self.captures.lock().push(CapturedMessage {
                session,
                from,
                to,
                payload: Bytes::copy_from_slice(payload),
            });
        }
    }

    fn compromised(&self, node: NodeId) -> bool {
        self.compromised.contains(&node.0)
    }
}

/// The wire tap: a [`Transport`] wrapper that routes every send
/// through the installed [`Adversary`] — the one interposition point,
/// on every transport. A policy is installed and cleared through
/// `&self`, so a cluster can hand out `&` to its network and still be
/// attacked between operations; with none installed a send costs one
/// branch.
///
/// Tampered payloads reach the inner transport *before* it stamps the
/// envelope checksum, so forgeries arrive intact-looking. A
/// [`Tamper::Drop`] never reaches the inner transport: it is neither
/// accounted nor observed, a silent loss. The tap holds its lock from
/// the policy's verdict to the inner send, so what an observer records
/// is in wire order even when several threads send at once.
#[derive(Debug)]
pub struct AdversaryNet<T> {
    inner: T,
    /// Whether a policy is installed: the honest path's one branch.
    /// Stored under the `tap` lock (`Release`), loaded without it
    /// (`Acquire`); the policy itself is only read under the lock, so a
    /// stale `true` costs one lock and an honest send.
    armed: AtomicBool,
    tap: Mutex<Tap>,
}

/// The installed policy and the messages it is holding back.
#[derive(Debug, Default)]
struct Tap {
    adversary: Option<Arc<dyn Adversary>>,
    /// Messages held back by [`Tamper::Delay`]; each later send ages
    /// them by one round.
    delayed: Vec<DelayedSend>,
}

/// A message held back by [`Tamper::Delay`], waiting out its rounds.
#[derive(Debug)]
struct DelayedSend {
    rounds_left: u64,
    session: SessionId,
    from: NodeId,
    to: NodeId,
    payload: Bytes,
}

impl<T> AdversaryNet<T> {
    /// Wraps `inner` with no policy installed: every send is honest.
    pub fn new(inner: T) -> Self {
        AdversaryNet {
            inner,
            armed: AtomicBool::new(false),
            tap: Mutex::default(),
        }
    }

    /// Installs `adversary` on the send path, in place of any other.
    pub fn set_adversary(&self, adversary: Arc<dyn Adversary>) {
        let mut tap = self.tap.lock();
        tap.adversary = Some(adversary);
        self.armed.store(true, Ordering::Release);
    }

    /// Removes the installed policy; later sends are honest. Messages
    /// it was still holding back vanish with it (an endless delay is
    /// indistinguishable from a drop).
    pub fn clear_adversary(&self) {
        let mut tap = self.tap.lock();
        self.armed.store(false, Ordering::Release);
        *tap = Tap::default();
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for AdversaryNet<T> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, session: SessionId, from: NodeId, to: NodeId, payload: Bytes) {
        if !self.armed.load(Ordering::Acquire) {
            return self.inner.send(session, from, to, payload);
        }
        let mut tap = self.tap.lock();
        let Some(adversary) = tap.adversary.clone() else {
            // Cleared between the flag and the lock.
            drop(tap);
            return self.inner.send(session, from, to, payload);
        };
        // Every send ages the delay stash by one round; expired
        // messages re-enter the wire *after* the current one, which is
        // exactly the reordering the delay was scripted to cause.
        for held in &mut tap.delayed {
            held.rounds_left = held.rounds_left.saturating_sub(1);
        }
        let due: Vec<DelayedSend> = tap.delayed.extract_if(.., |m| m.rounds_left == 0).collect();
        match adversary.tamper(session, from, to, &payload) {
            Tamper::Delay(rounds) => tap.delayed.push(DelayedSend {
                rounds_left: rounds,
                session,
                from,
                to,
                payload,
            }),
            action => {
                // `None` is Byzantine omission: the wire never sees the
                // message, so neither do its counters or observers.
                if let Some(outgoing) = action.apply(&payload) {
                    adversary.observe(session, from, to, &outgoing);
                    self.inner.send(session, from, to, outgoing);
                }
            }
        }
        for m in due {
            adversary.observe(m.session, m.from, m.to, &m.payload);
            self.inner.send(m.session, m.from, m.to, m.payload);
        }
    }

    fn recv(&self, session: SessionId, node: NodeId) -> Result<Envelope, NetError> {
        self.inner.recv(session, node)
    }

    fn recv_from(
        &self,
        session: SessionId,
        node: NodeId,
        from: NodeId,
    ) -> Result<Envelope, NetError> {
        self.inner.recv_from(session, node, from)
    }

    fn charge(&self, session: SessionId, node: NodeId, cost: SimTime) {
        self.inner.charge(session, node, cost);
    }

    fn counters(&self, session: SessionId) -> (u64, u64) {
        self.inner.counters(session)
    }

    fn elapsed(&self, session: SessionId) -> SimTime {
        self.inner.elapsed(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelNet, Session};
    use rand::Rng;

    /// `inner` behind a tap with `adversary` installed.
    fn tapped<T: Transport>(inner: T, adversary: &Arc<ScriptedAdversary>) -> AdversaryNet<T> {
        let net = AdversaryNet::new(inner);
        net.set_adversary(Arc::clone(adversary) as _);
        net
    }

    #[test]
    fn scenario_rng_is_deterministic_and_scenario_independent() {
        let draw = |seed, scenario| scenario_rng(seed, scenario).gen::<u64>();
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
        assert_ne!(draw(7, 3), draw(8, 3));
        // Independent of the fault stream for the same ids.
        let fault = crate::fault::fault_rng(7, SessionId(3)).gen::<u64>();
        assert_ne!(draw(7, 3), fault);
    }

    #[test]
    fn tamper_variants_rewrite_as_specified() {
        let payload = Bytes::from_static(b"\x40hello");
        assert_eq!(Tamper::Pass.apply(&payload), Some(payload.clone()));
        assert_eq!(Tamper::Drop.apply(&payload), None);
        assert_eq!(
            Tamper::Replace(Bytes::from_static(b"xx")).apply(&payload),
            Some(Bytes::from_static(b"xx"))
        );
        assert_eq!(
            Tamper::Flip {
                offset_from_end: 0,
                mask: 0x01
            }
            .apply(&payload),
            Some(Bytes::from_static(b"\x40helln"))
        );
        assert_eq!(
            Tamper::Truncate(3).apply(&payload),
            Some(Bytes::from_static(b"\x40he"))
        );
        // Out-of-range flips and truncations are harmless.
        assert_eq!(
            Tamper::Flip {
                offset_from_end: 99,
                mask: 0xFF
            }
            .apply(&payload),
            Some(payload.clone())
        );
        assert_eq!(Tamper::Truncate(99).apply(&payload), Some(payload));
    }

    #[test]
    fn scripted_rules_fire_in_order_with_skip_and_budget() {
        let adversary = Arc::new(ScriptedAdversary::new().compromise(1).rule(TamperRule {
            from: Some(1),
            to: None,
            tag: Some(0x40),
            skip: 1,
            fires: 1,
            action: Tamper::Drop,
        }));
        let net = tapped(simulator(3), &adversary);
        let session = Session::root(&net);
        // Wrong tag, wrong sender, skipped first match, fired once,
        // budget spent.
        for (from, payload) in [
            (1, &b"\x41a"[..]),
            (0, b"\x40b"),
            (1, b"\x40c"),
            (1, b"\x40d"),
            (1, b"\x40e"),
        ] {
            session.send(NodeId(from), NodeId(2), Bytes::copy_from_slice(payload));
        }
        let mut arrived = Vec::new();
        while let Ok(envelope) = session.recv(NodeId(2)) {
            arrived.push(envelope.payload[1]);
        }
        assert_eq!(arrived, b"abce");
        let report = adversary.report();
        assert_eq!((report.forged, report.dropped), (0, 1));
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].forged_crc, None);
    }

    #[test]
    fn forged_payloads_cross_channel_net_with_valid_checksums() {
        let adversary = Arc::new(ScriptedAdversary::new().compromise(0).rule(
            TamperRule::once_from(
                0,
                0x40,
                Tamper::Flip {
                    offset_from_end: 0,
                    mask: 0xFF,
                },
            ),
        ));
        let net = tapped(ChannelNet::new(2), &adversary);
        let session = Session::root(&net);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x40\x00"));
        // The lie is re-stamped: Session::recv's checksum gate passes
        // and the receiver gets the forged bytes as if genuine.
        let envelope = session.recv(NodeId(1)).expect("forgery is wire-intact");
        assert_eq!(&envelope.payload[..], b"\x40\xFF");
        assert!(envelope.is_intact());
        assert_eq!(adversary.report().forged, 1);
    }

    #[test]
    fn byzantine_omission_swallows_the_message() {
        let adversary = Arc::new(
            ScriptedAdversary::new()
                .compromise(0)
                .rule(TamperRule::once_from(0, 0x40, Tamper::Drop)),
        );
        let net = tapped(
            ChannelNet::with_timeout(2, std::time::Duration::from_millis(20)),
            &adversary,
        );
        let session = Session::root(&net);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x40gone"));
        assert_eq!(
            session.recv(NodeId(1)).unwrap_err(),
            NetError::Timeout(NodeId(1))
        );
        assert_eq!(adversary.report().dropped, 1);
    }

    #[test]
    fn curious_coalition_captures_only_its_own_traffic() {
        let adversary = Arc::new(ScriptedAdversary::new().curious(1));
        let net = tapped(ChannelNet::new(3), &adversary);
        let session = Session::root(&net);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"to-coalition"));
        session.send(NodeId(0), NodeId(2), Bytes::from_static(b"foreign"));
        session.send(NodeId(1), NodeId(2), Bytes::from_static(b"from-coalition"));
        let captured = adversary.captured();
        let payloads: Vec<&[u8]> = captured.iter().map(|c| &c.payload[..]).collect();
        assert_eq!(payloads, vec![&b"to-coalition"[..], b"from-coalition"]);
        assert_eq!(adversary.report().observed, 2);
    }

    #[test]
    fn delay_reorders_without_forging_a_byte() {
        let adversary = Arc::new(
            ScriptedAdversary::new()
                .compromise(0)
                .rule(TamperRule::once_from(0, 0x40, Tamper::Delay(1))),
        );
        let net = tapped(ChannelNet::new(2), &adversary);
        let session = Session::root(&net);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x40first"));
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x41second"));
        // The delayed message re-enters the wire after the next send:
        // the receiver sees them swapped, both byte-identical and
        // checksum-intact.
        let a = session.recv(NodeId(1)).unwrap();
        let b = session.recv(NodeId(1)).unwrap();
        assert_eq!(&a.payload[..], b"\x41second");
        assert_eq!(&b.payload[..], b"\x40first");
        assert!(a.is_intact() && b.is_intact());
        let report = adversary.report();
        assert_eq!(
            (report.delayed, report.forged, report.dropped),
            (1, 0, 0),
            "a delay is scheduling, not forgery"
        );
    }

    fn simulator(n: usize) -> crate::SharedNet {
        use crate::sim::{NetConfig, SimNet};
        crate::SharedNet::new(SimNet::new(n, NetConfig::ideal()))
    }

    #[test]
    fn delay_on_the_simulator_releases_after_the_scripted_rounds() {
        let adversary = Arc::new(
            ScriptedAdversary::new()
                .compromise(0)
                .rule(TamperRule::once_from(0, 0x40, Tamper::Delay(2))),
        );
        let net = tapped(simulator(2), &adversary);
        let session = Session::root(&net);
        for payload in [&b"\x40held"[..], b"\x41one", b"\x42two"] {
            session.send(NodeId(0), NodeId(1), Bytes::copy_from_slice(payload));
        }
        let order: Vec<Bytes> = (0..3)
            .map(|_| session.recv(NodeId(1)).unwrap().payload)
            .collect();
        assert_eq!(
            order,
            vec![
                Bytes::from_static(b"\x41one"),
                Bytes::from_static(b"\x42two"),
                Bytes::from_static(b"\x40held"),
            ]
        );
        // All three eventually crossed the wire.
        assert_eq!(net.inner().lock().stats().messages_sent, 3);
    }

    #[test]
    fn a_drop_never_reaches_the_wire_and_a_cleared_tap_is_honest() {
        let adversary = Arc::new(
            ScriptedAdversary::new()
                .compromise(0)
                .curious(1)
                .rule(TamperRule::once_from(0, 0x40, Tamper::Drop)),
        );
        let net = tapped(simulator(2), &adversary);
        let session = Session::root(&net);
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x40gone"));
        // Not accounted, not queued, not seen.
        let (sent, pending) = {
            let sim = net.inner().lock();
            (
                sim.stats().messages_sent,
                sim.pending_on(SessionId::ROOT, NodeId(1)),
            )
        };
        assert_eq!((sent, pending), (0, 0));
        assert!(adversary.captured().is_empty());
        assert_eq!(adversary.report().dropped, 1);

        net.clear_adversary();
        session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x40kept"));
        assert_eq!(&session.recv(NodeId(1)).unwrap().payload[..], b"\x40kept");
        assert!(
            adversary.captured().is_empty(),
            "a cleared tap sees nothing"
        );
    }

    #[test]
    fn same_schedule_replays_identically() {
        let run = || {
            let mut rng = scenario_rng(42, 7);
            let mask = rng.gen_range(1..=255u8);
            let adversary = Arc::new(ScriptedAdversary::new().compromise(0).rule(
                TamperRule::once_from(
                    0,
                    0x40,
                    Tamper::Flip {
                        offset_from_end: 0,
                        mask,
                    },
                ),
            ));
            let net = tapped(ChannelNet::new(2), &adversary);
            let session = Session::root(&net);
            for _ in 0..3 {
                session.send(NodeId(0), NodeId(1), Bytes::from_static(b"\x40abc"));
            }
            adversary.report()
        };
        assert_eq!(run(), run());
    }
}

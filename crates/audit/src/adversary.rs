//! Adversary scenarios: Byzantine and curious nodes as first-class,
//! replayable attacks against the DLA's verification machinery.
//!
//! The transport half lives in `dla_net::adversary` (the [`Adversary`]
//! policy trait, [`ScriptedAdversary`] schedules, [`scenario_rng`]);
//! this module drives whole-cluster scenarios on top of it and asserts
//! the §4.1 machinery *detects* what the threat model says it must:
//!
//! * [`AttackClass::RelayRoundLie`] — a compromised relay rewrites the
//!   circulated accumulator in flight (valid checksum, wrong value);
//!   the initiator's deposit comparison flags the record.
//! * [`AttackClass::MalformedCiphertext`] — a compromised party injects
//!   a structurally broken Pohlig–Hellman blob into an SSI relay round;
//!   the protocol fail-stops with a wire error rather than producing a
//!   wrong intersection.
//! * [`AttackClass::CheckpointEquivocation`] — a node shows one peer a
//!   forged `EpochCheckpoint` head (re-linked over the true prefix so
//!   it is internally consistent) while showing everyone else the
//!   genuine seal; peer cross-checking plus local chain endorsement
//!   catch the divergence, and the doctored meta-journal copy backing
//!   the lie fails `verify_presented`.
//! * [`AttackClass::FragmentTamper`] — a node rewrites a stored
//!   fragment before the audit; the accumulator circulation flags it.
//!
//! A fifth scenario is scheduling, not forgery: [`run_delay_attack`]
//! holds a compromised node's outbound ARQ data frames in the
//! transport for a few send rounds ([`Tamper::Delay`]) and asserts the
//! *opposite* polarity — no byte is altered, so the ARQ
//! retransmit/duplicate-suppression path must mask the reordering with
//! the honest answer and zero detector false alarms.
//!
//! Every scenario derives all of its choices (victims, targets, flip
//! masks) from [`scenario_rng`]`(cluster_seed, scenario_id)`, so a
//! report is reproducible from its two seeds alone.
//!
//! The curious half of the threat model is [`run_coalition`]: the
//! cluster's wire tap records every message once, the view of an
//! honest-but-curious coalition of up to `k − 1 = n − 1` DLA nodes is
//! the part of that record its members sent or received, and the view
//! is scanned for *foreign* plaintext (attribute values owned by
//! non-members).
//! The same run re-derives the paper's §5 confidentiality metrics
//! empirically — `u` measured from observed fragment-ship domains with
//! the coalition merged into one, `C_auditing` from re-planning the
//! audit workload against the merged partition.

use crate::cluster::{ClusterConfig, DlaCluster};
use crate::integrity;
use crate::meta::MetaAuditTrail;
use crate::metrics;
use crate::plan::{compile, plan};
use crate::AuditError;
use bytes::Bytes;
use dla_crypto::accumulator::{CheckpointChain, EpochCheckpoint};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::paper_table1;
use dla_logstore::model::{AttrType, AttrValue, Glsn};
use dla_logstore::schema::Schema;
use dla_mpc::set_intersection::SET_TAG;
use dla_net::adversary::{scenario_rng, Adversary, ScriptedAdversary, Tamper, TamperRule};
use dla_net::latency::LatencyModel;
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, SessionId, Transport};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Wire tag of the accumulator-circulation hop the integrity check
/// sends (`crate::integrity::check_record`).
pub const CHECK_HOP_TAG: u8 = 0x40;
/// Wire tag of the head-gossip round ([`gossip_heads`]).
pub const HEAD_GOSSIP_TAG: u8 = 0x50;

/// The integrity attack classes of the threat model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackClass {
    /// A relay lies during accumulator circulation.
    RelayRoundLie,
    /// A party injects a malformed ring ciphertext blob into SSI.
    MalformedCiphertext,
    /// A node presents divergent checkpoint heads to different peers.
    CheckpointEquivocation,
    /// A node rewrites a stored fragment before the audit.
    FragmentTamper,
}

impl AttackClass {
    /// Every class, in scenario-id order.
    pub const ALL: [AttackClass; 4] = [
        AttackClass::RelayRoundLie,
        AttackClass::MalformedCiphertext,
        AttackClass::CheckpointEquivocation,
        AttackClass::FragmentTamper,
    ];

    /// Stable key for reports and JSON.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            AttackClass::RelayRoundLie => "relay_round_lie",
            AttackClass::MalformedCiphertext => "malformed_ciphertext",
            AttackClass::CheckpointEquivocation => "checkpoint_equivocation",
            AttackClass::FragmentTamper => "fragment_tamper",
        }
    }

    /// The scenario id feeding [`scenario_rng`] — distinct per class so
    /// schedules are independent streams off the same cluster seed.
    #[must_use]
    pub fn scenario_id(self) -> u64 {
        match self {
            AttackClass::RelayRoundLie => 1,
            AttackClass::MalformedCiphertext => 2,
            AttackClass::CheckpointEquivocation => 3,
            AttackClass::FragmentTamper => 4,
        }
    }
}

/// Which verification mechanism raised the alarm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorMatrix {
    /// Accumulator machinery: circulation mismatch or digest
    /// re-derivation.
    pub accumulator: bool,
    /// Meta-journal hash chain ([`MetaAuditTrail::verify_presented`]).
    pub meta_journal: bool,
    /// Checkpoint-chain cross-check: peer head divergence or failed
    /// local endorsement.
    pub checkpoint_chain: bool,
    /// Protocol-level fail-stop (wire/structure errors in MPC rounds).
    pub protocol: bool,
}

impl DetectorMatrix {
    /// Whether any detector fired.
    #[must_use]
    pub fn any(self) -> bool {
        self.accumulator || self.meta_journal || self.checkpoint_chain || self.protocol
    }
}

/// The outcome of one scenario (attack or honest baseline).
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario key ("honest" for the baseline).
    pub scenario: &'static str,
    /// Cluster seed the scenario ran under.
    pub seed: u64,
    /// Which detectors fired.
    pub detected: DetectorMatrix,
    /// Verification operations executed up to (and including) the one
    /// that raised the first alarm — for honest runs, all of them.
    pub verifications: u64,
    /// Network messages spent by verification until detection.
    pub messages_to_detect: u64,
    /// Virtual nanoseconds of verification traffic until detection.
    pub virtual_ns_to_detect: u64,
    /// Wire messages the adversary actually forged or swallowed.
    pub forged_messages: usize,
    /// Whether the system state verified clean once the adversary was
    /// removed — true for wire-level lies (transient), false for
    /// persistent state tampering.
    pub residual_clean: bool,
}

fn scenario_cluster(
    seed: u64,
) -> Result<(DlaCluster, crate::cluster::AppUser, Vec<Glsn>), AuditError> {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed)
            // Short epochs so the checkpoint chain has sealed heads to
            // equivocate about; LAN latency so detection cost has a
            // virtual-time dimension.
            .with_epoch_length(2)
            .with_latency(LatencyModel::lan()),
    )?;
    let user = cluster.register_user("adversary-scenario")?;
    let glsns = cluster.log_records(&user, &paper_table1())?;
    Ok((cluster, user, glsns))
}

/// `(messages_sent, root-session virtual ns)` snapshot for latency
/// accounting.
fn net_snapshot(cluster: &DlaCluster) -> (u64, u64) {
    let net = cluster.net();
    (
        net.stats().messages_sent,
        net.session_elapsed(SessionId::ROOT).as_nanos(),
    )
}

/// Runs the detectors an attack does *not* target, after the adversary
/// is cleared — a true report must show exactly the expected detectors
/// firing, so the others are checked for false alarms too.
fn residual_detectors(cluster: &mut DlaCluster) -> DetectorMatrix {
    let trail = integrity::check_trail(cluster);
    DetectorMatrix {
        accumulator: !trail.ok,
        meta_journal: cluster.meta_audit().verify().is_err(),
        checkpoint_chain: !trail.chain_ok,
        protocol: false,
    }
}

/// One full head-gossip round over the cluster's root session: every
/// DLA node sends every peer its copy of `epoch`'s checkpoint (tag
/// [`HEAD_GOSSIP_TAG`]); returns each receiver's decoded view keyed by
/// `(receiver, sender)`.
///
/// # Errors
///
/// Returns [`AuditError`] if the epoch is unsealed, the network fails,
/// or a gossiped blob does not decode.
pub fn gossip_heads(
    cluster: &mut DlaCluster,
    epoch: u64,
) -> Result<BTreeMap<(usize, usize), EpochCheckpoint>, AuditError> {
    let n = cluster.num_nodes();
    let checkpoint = cluster
        .checkpoint_chain()
        .get(epoch)
        .cloned()
        .ok_or_else(|| AuditError::Integrity(format!("epoch {epoch} is not sealed")))?;
    let frame = head_frame(&checkpoint);
    let wire = cluster.root_session();
    let mut views = BTreeMap::new();
    for sender in 0..n {
        for receiver in 0..n {
            if receiver == sender {
                continue;
            }
            wire.send(NodeId(sender), NodeId(receiver), frame.clone());
            let envelope = wire.recv_from(NodeId(receiver), NodeId(sender))?;
            let mut r = Reader::open(&envelope.payload, HEAD_GOSSIP_TAG)?;
            let presented = EpochCheckpoint::decode(r.get_bytes()?)
                .ok_or_else(|| AuditError::Integrity("malformed gossiped checkpoint".into()))?;
            views.insert((receiver, sender), presented);
        }
    }
    Ok(views)
}

/// Encodes one checkpoint as a head-gossip payload.
fn head_frame(checkpoint: &EpochCheckpoint) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(HEAD_GOSSIP_TAG).put_bytes(&checkpoint.encode());
    w.finish()
}

/// Runs one seeded attack scenario and reports what detected it.
///
/// # Errors
///
/// Returns [`AuditError`] if the scenario cluster cannot be built or an
/// untargeted protocol step fails unexpectedly.
///
/// # Panics
///
/// Panics if the paper cluster seals no epoch (cannot happen with the
/// fixed epoch length used here).
pub fn run_attack(class: AttackClass, seed: u64) -> Result<ScenarioReport, AuditError> {
    let (mut cluster, user, glsns) = scenario_cluster(seed)?;
    let mut rng = scenario_rng(seed, class.scenario_id());

    match class {
        AttackClass::RelayRoundLie => {
            let glsn = glsns[rng.gen_range(0..glsns.len())];
            // Holders 1 and 2 forward 0x40 hops when node 0 initiates.
            let victim = rng.gen_range(1..=2usize);
            let mask = rng.gen_range(1..=255u8) as u8;
            let adversary = Arc::new(ScriptedAdversary::new().compromise(victim).rule(
                TamperRule::once_from(
                    victim,
                    CHECK_HOP_TAG,
                    Tamper::Flip {
                        offset_from_end: 0,
                        mask,
                    },
                ),
            ));
            cluster.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
            let (messages0, ns0) = net_snapshot(&cluster);
            let verdict = integrity::check_record(&mut cluster, glsn, 0)?;
            let (messages1, ns1) = net_snapshot(&cluster);
            cluster.clear_adversary();

            let mut detected = residual_detectors(&mut cluster);
            detected.accumulator |= !verdict.ok;
            // The lie was in flight, not in state: the same record
            // verifies once the relay stops lying.
            let residual_clean = integrity::check_record(&mut cluster, glsn, 0)?.ok;
            Ok(ScenarioReport {
                scenario: class.key(),
                seed,
                detected,
                verifications: 1,
                messages_to_detect: messages1 - messages0,
                virtual_ns_to_detect: ns1 - ns0,
                forged_messages: adversary.report().forged + adversary.report().dropped,
                residual_clean,
            })
        }
        AttackClass::MalformedCiphertext => {
            let victim = rng.gen_range(0..cluster.num_nodes());
            // Keep the tag but behead the origin/elements structure:
            // the receiver's decode fail-stops.
            let keep = rng.gen_range(1..9usize);
            let adversary = Arc::new(ScriptedAdversary::new().compromise(victim).rule(
                TamperRule::once_from(victim, SET_TAG, Tamper::Truncate(keep)),
            ));
            cluster.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
            let (messages0, ns0) = net_snapshot(&cluster);
            let outcome = integrity::check_acl_consistency(&mut cluster, &user.ticket.id);
            let (messages1, ns1) = net_snapshot(&cluster);
            cluster.clear_adversary();

            let mut detected = residual_detectors(&mut cluster);
            detected.protocol = matches!(outcome, Err(AuditError::Mpc(_)));
            // Fail-stop, not fail-wrong: with the adversary gone the
            // same consistency check completes and agrees.
            let residual_clean =
                integrity::check_acl_consistency(&mut cluster, &user.ticket.id)?.consistent;
            Ok(ScenarioReport {
                scenario: class.key(),
                seed,
                detected,
                verifications: 1,
                messages_to_detect: messages1 - messages0,
                virtual_ns_to_detect: ns1 - ns0,
                forged_messages: adversary.report().forged + adversary.report().dropped,
                residual_clean,
            })
        }
        AttackClass::CheckpointEquivocation => {
            let chain = cluster.checkpoint_chain().clone();
            assert!(!chain.is_empty(), "scenario cluster seals epochs");
            let sealed: Vec<u64> = chain.iter().map(|c| c.epoch).collect();
            let epoch = sealed[rng.gen_range(0..sealed.len())];
            let equivocator = rng.gen_range(0..cluster.num_nodes());
            let witness =
                (equivocator + 1 + rng.gen_range(0..cluster.num_nodes() - 1)) % cluster.num_nodes();
            let genuine = chain.get(epoch).expect("sealed").clone();

            // Forge a head that is *internally* consistent: a fresh
            // digest re-linked over the true predecessor, so only
            // cross-checking against peers or the local chain can
            // expose it.
            let prev_link = chain
                .iter()
                .take_while(|c| c.epoch < epoch)
                .last()
                .map_or([0u8; 32], |c| c.link);
            let digest = cluster
                .accumulator_params()
                .accumulate([b"equivocated-head".as_slice()]);
            let link = CheckpointChain::link_over(
                &prev_link,
                epoch,
                genuine.items,
                &digest,
                &genuine.aggregates,
            );
            let forged = EpochCheckpoint {
                epoch,
                items: genuine.items,
                digest,
                aggregates: genuine.aggregates,
                link,
            };
            let adversary = Arc::new(ScriptedAdversary::new().compromise(equivocator).rule(
                TamperRule {
                    from: Some(equivocator),
                    to: Some(witness),
                    tag: Some(HEAD_GOSSIP_TAG),
                    skip: 0,
                    fires: 1,
                    action: Tamper::Replace(head_frame(&forged)),
                },
            ));
            cluster.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
            let (messages0, ns0) = net_snapshot(&cluster);
            let views = gossip_heads(&mut cluster, epoch)?;
            let (messages1, ns1) = net_snapshot(&cluster);
            cluster.clear_adversary();

            // Peer cross-check: do any two receivers hold diverging
            // copies from the same sender?
            let n = cluster.num_nodes();
            let mut divergence = false;
            for sender in 0..n {
                let copies: Vec<&EpochCheckpoint> = (0..n)
                    .filter(|&r| r != sender)
                    .filter_map(|r| views.get(&(r, sender)))
                    .collect();
                if copies
                    .iter()
                    .any(|a| copies.iter().any(|b| a.equivocates(b)))
                {
                    divergence = true;
                }
            }
            // Local endorsement: every receiver checks the presented
            // head against its own chain; re-derivation: the presented
            // digest against the locally re-derived epoch accumulator.
            let endorsement_failed = views
                .values()
                .any(|presented| !cluster.checkpoint_chain().endorses(presented));
            let digest_mismatch = views.values().any(|presented| {
                cluster
                    .checkpoint_chain()
                    .get(presented.epoch)
                    .is_some_and(|own| own.digest != presented.digest)
            });

            // The equivocator also backs its lie with a doctored copy
            // of the meta journal; the chain head refuses it.
            let mut doctored = cluster.meta_audit().records().to_vec();
            let slot = rng.gen_range(0..doctored.len());
            doctored[slot].detail = format!("rewritten-by-{equivocator}");
            let meta_journal =
                MetaAuditTrail::verify_presented(&doctored, cluster.meta_audit().head()).is_err();

            let mut detected = residual_detectors(&mut cluster);
            detected.checkpoint_chain |= divergence || endorsement_failed;
            detected.accumulator |= digest_mismatch;
            detected.meta_journal |= meta_journal;
            // The genuine chain was never altered — once the liar is
            // ignored, everything verifies.
            let residual_clean = cluster.checkpoint_chain().verify_links()
                && !residual_detectors(&mut cluster).any();
            Ok(ScenarioReport {
                scenario: class.key(),
                seed,
                detected,
                verifications: 1,
                messages_to_detect: messages1 - messages0,
                virtual_ns_to_detect: ns1 - ns0,
                forged_messages: adversary.report().forged + adversary.report().dropped,
                residual_clean,
            })
        }
        AttackClass::FragmentTamper => {
            let victim = rng.gen_range(0..cluster.num_nodes());
            let attrs = cluster.partition().attrs_of(victim).to_vec();
            let attr = attrs[rng.gen_range(0..attrs.len())].clone();
            let glsn = glsns[rng.gen_range(0..glsns.len())];
            let forged = match cluster
                .schema()
                .get(&attr)
                .expect("partition attrs are in schema")
                .attr_type()
            {
                AttrType::Int => AttrValue::Int(-9),
                AttrType::Fixed2 => AttrValue::Fixed2(-9),
                AttrType::Time => AttrValue::Time(1),
                AttrType::Text => AttrValue::text("rewritten"),
            };
            assert!(
                cluster.node(victim).store_mut().tamper(glsn, &attr, forged),
                "victim stores the targeted fragment"
            );

            // Sweep the trail in deposit order; latency = work until
            // the tampered record is reached.
            let (messages0, ns0) = net_snapshot(&cluster);
            let mut verifications = 0u64;
            let mut accumulator = false;
            for g in cluster.logged_glsns() {
                verifications += 1;
                if !integrity::check_record(&mut cluster, g, 0)?.ok {
                    accumulator = true;
                    break;
                }
            }
            let (messages1, ns1) = net_snapshot(&cluster);

            let mut detected = residual_detectors(&mut cluster);
            detected.accumulator |= accumulator;
            // State tampering persists: the record stays flagged until
            // repaired.
            let residual_clean = integrity::check_record(&mut cluster, glsn, 0)?.ok;
            Ok(ScenarioReport {
                scenario: class.key(),
                seed,
                detected,
                verifications,
                messages_to_detect: messages1 - messages0,
                virtual_ns_to_detect: ns1 - ns0,
                forged_messages: 0,
                residual_clean,
            })
        }
    }
}

/// The honest negative control: every detector the attack scenarios use
/// runs against an untouched cluster; any flag in the returned matrix
/// is a false alarm.
///
/// # Errors
///
/// Returns [`AuditError`] on protocol failure (which would itself be a
/// false alarm — the caller should treat `Err` as such).
pub fn run_honest(seed: u64) -> Result<ScenarioReport, AuditError> {
    let (mut cluster, user, glsns) = scenario_cluster(seed)?;
    let (messages0, ns0) = net_snapshot(&cluster);
    let mut verifications = 0u64;

    let mut accumulator = false;
    for &glsn in &glsns {
        verifications += 1;
        accumulator |= !integrity::check_record(&mut cluster, glsn, 0)?.ok;
    }
    let trail = integrity::check_trail(&cluster);
    verifications += 1;
    accumulator |= !trail.ok;

    let meta_journal = cluster.meta_audit().verify().is_err();
    verifications += 1;

    let mut checkpoint_chain = !trail.chain_ok;
    let sealed: Vec<u64> = cluster.checkpoint_chain().iter().map(|c| c.epoch).collect();
    for epoch in sealed {
        verifications += 1;
        let views = gossip_heads(&mut cluster, epoch)?;
        checkpoint_chain |= views
            .values()
            .any(|presented| !cluster.checkpoint_chain().endorses(presented));
    }

    verifications += 1;
    let protocol = !integrity::check_acl_consistency(&mut cluster, &user.ticket.id)?.consistent;
    let (messages1, ns1) = net_snapshot(&cluster);

    Ok(ScenarioReport {
        scenario: "honest",
        seed,
        detected: DetectorMatrix {
            accumulator,
            meta_journal,
            checkpoint_chain,
            protocol,
        },
        verifications,
        messages_to_detect: messages1 - messages0,
        virtual_ns_to_detect: ns1 - ns0,
        forged_messages: 0,
        residual_clean: true,
    })
}

/// Wire tag of the ARQ data frame (`dla_net::reliable` framing) — the
/// target of the scheduling adversary in [`run_delay_attack`].
pub const ARQ_DATA_TAG: u8 = 0x01;

/// Outcome of the delay/reorder scheduling attack against the ARQ
/// layer ([`run_delay_attack`]).
#[derive(Clone, Debug)]
pub struct DelayReport {
    /// Cluster seed the scenario ran under.
    pub seed: u64,
    /// DLA node whose outbound data frames were delayed.
    pub victim: usize,
    /// Frames the adversary actually held back and released late.
    pub delayed_frames: usize,
    /// Whole-query attempts the resilient executor needed.
    pub attempts: u32,
    /// Whether the delayed run produced the same answer (glsn set and
    /// cardinality) as the honest baseline.
    pub answer_matches_honest: bool,
    /// Detectors that fired after the adversary was cleared — a
    /// scheduling attack forges nothing, so every flag here is a false
    /// alarm.
    pub detected: DetectorMatrix,
}

/// The scheduling attack: a compromised node's outbound ARQ data
/// frames are held in the transport for a few send rounds and released
/// late, so the receiver sees them out of order (or, while held, not at
/// all). Unlike the forgery classes, the correct outcome is *silence*:
/// no byte is altered, so the retransmit/duplicate-suppression path
/// must mask the reordering — the query answer matches the honest
/// baseline and no detector raises an alarm.
///
/// # Errors
///
/// Returns [`AuditError`] if the scenario cluster cannot be built or
/// the resilient query exhausts its attempts (which would mean the ARQ
/// layer failed to mask the delay).
pub fn run_delay_attack(seed: u64) -> Result<DelayReport, AuditError> {
    let mut rng = scenario_rng(seed, 5);
    let query = WORKLOAD[0];

    // Honest baseline: same seed, same resilient path, no adversary.
    let (mut baseline, _user, _glsns) = scenario_cluster(seed)?;
    let policy = crate::exec::ResilientPolicy::default();
    let honest = baseline.query_resilient(query, &policy)?;

    let (mut cluster, _user, _glsns) = scenario_cluster(seed)?;
    // The victim must actually send data frames for this query: pick
    // among the owners of the query's attributes, not all DLA nodes.
    let owners: Vec<usize> = ["c1", "id", "protocol"]
        .iter()
        .filter_map(|name| cluster.partition().node_of(&(*name).into()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let victim = owners[rng.gen_range(0..owners.len())];
    let rounds = rng.gen_range(1..=3u64);
    let fires = rng.gen_range(2..=4u64);
    let adversary = Arc::new(
        ScriptedAdversary::new()
            .compromise(victim)
            .rule(TamperRule {
                from: Some(victim),
                to: None,
                tag: Some(ARQ_DATA_TAG),
                skip: 0,
                fires,
                action: Tamper::Delay(rounds),
            }),
    );
    cluster.set_adversary(Arc::clone(&adversary) as Arc<dyn Adversary>);
    let outcome = cluster.query_resilient(query, &policy)?;
    cluster.clear_adversary();

    let detected = residual_detectors(&mut cluster);
    let answer_matches_honest = outcome.result.glsns == honest.result.glsns
        && outcome.result.cardinality == honest.result.cardinality;
    Ok(DelayReport {
        seed,
        victim,
        delayed_frames: adversary.report().delayed,
        attempts: outcome.attempts,
        answer_matches_honest,
        detected,
    })
}

/// The §5 view of a colluding coalition: the merged partition in which
/// the coalition's attribute sets pool at its lowest-index member (the
/// other members keep empty slots so node indices stay aligned).
/// Singleton and empty coalitions collapse to the original partition.
///
/// # Errors
///
/// Returns [`AuditError::Log`] if a coalition index is out of range.
pub fn coalition_partition(
    schema: &Schema,
    partition: &Partition,
    coalition: &BTreeSet<usize>,
) -> Result<Partition, AuditError> {
    if let Some(&bad) = coalition.iter().find(|&&i| i >= partition.num_nodes()) {
        return Err(AuditError::Log(format!(
            "coalition member {bad} out of range (n = {})",
            partition.num_nodes()
        )));
    }
    if coalition.len() <= 1 {
        return Ok(partition.clone());
    }
    let lead = *coalition.iter().min().expect("nonempty");
    let assignments = (0..partition.num_nodes())
        .map(|i| {
            if i == lead {
                coalition
                    .iter()
                    .flat_map(|&m| partition.attrs_of(m).to_vec())
                    .collect()
            } else if coalition.contains(&i) {
                Vec::new()
            } else {
                partition.attrs_of(i).to_vec()
            }
        })
        .collect();
    Partition::new(schema, assignments).map_err(|e| AuditError::Log(e.to_string()))
}

/// What a curious coalition learned (and provably did not learn) from a
/// full deposit + audit workload, alongside the §5 metrics measured
/// under that collusion pattern.
#[derive(Clone, Debug)]
pub struct CoalitionReport {
    /// The coalition's DLA node indices.
    pub coalition: Vec<usize>,
    /// Wire messages visible to coalition members (sent or received).
    pub captured_messages: usize,
    /// Foreign plaintext needles scanned for.
    pub needles_scanned: usize,
    /// Captured messages containing a foreign attribute value in the
    /// clear — the confidentiality claim is that this is zero for every
    /// sub-threshold coalition.
    pub foreign_plaintext_hits: usize,
    /// Distinct storage domains observed in fragment-ship traffic with
    /// the coalition counted as one (the empirical `u` of Eq. 10).
    pub observed_domains: usize,
    /// Empirical `C_store` (Eq. 10 with the measured `u`).
    pub c_store: f64,
    /// `C_store` from the formula over the merged partition — must
    /// match [`CoalitionReport::c_store`].
    pub c_store_formula: f64,
    /// `C_auditing` of the paper's Fig. 3 query re-planned against the
    /// merged partition (Eq. 11).
    pub c_auditing: f64,
    /// `C_query` of the Fig. 3 query (Eq. 12).
    pub c_query: f64,
    /// `C_DLA` over the two-query audit workload (Eq. 13).
    pub c_dla: f64,
}

/// The audit workload the coalition watches: the paper's Fig. 3
/// conjunctive query and the worked cross-subquery example of §5.
pub const WORKLOAD: [&str; 2] = [
    "c1 > 30 AND id = 'U1' AND protocol = 'TCP'",
    "c1 > 40 OR id = 'U2'",
];

/// Runs a deposit + audit workload under a tap that records the wire,
/// takes `coalition`'s view of that record and measures both what the
/// coalition saw and the §5 metrics under its collusion.
///
/// # Errors
///
/// Returns [`AuditError`] if the cluster, workload, or re-planning
/// fails, or a coalition index is out of range.
pub fn run_coalition(seed: u64, coalition: &[usize]) -> Result<CoalitionReport, AuditError> {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let members: BTreeSet<usize> = coalition.iter().copied().collect();
    if members.len() >= partition.num_nodes() {
        return Err(AuditError::Config(format!(
            "coalition of {} is not sub-threshold for n = {}",
            members.len(),
            partition.num_nodes()
        )));
    }
    let merged = coalition_partition(&schema, &partition, &members)?;

    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema.clone())
            .with_partition(partition.clone())
            .with_seed(seed)
            .with_epoch_length(2),
    )?;
    // One record of the whole wire; the coalition's view is the part of
    // it its members sent or received.
    let everyone = 0..cluster.shared_net().num_nodes();
    let wire = Arc::new(everyone.fold(ScriptedAdversary::new(), ScriptedAdversary::curious));
    cluster.set_adversary(Arc::clone(&wire) as Arc<dyn Adversary>);

    let user = cluster.register_user("auditee")?;
    let records = paper_table1();
    let glsns = cluster.log_records(&user, &records)?;
    for query in WORKLOAD {
        cluster.query(query)?;
    }
    // An integrity circulation initiated *by* a coalition member: even
    // driving the check, it sees only blinded accumulator values.
    integrity::check_record(
        &mut cluster,
        glsns[0],
        coalition.first().copied().unwrap_or(0),
    )?;
    cluster.clear_adversary();

    // Leak scan: every attribute value owned by a non-member, in its
    // canonical encoding, against every byte the coalition saw.
    let needles: Vec<Vec<u8>> = records
        .iter()
        .flat_map(|record| record.iter())
        .filter(|(name, _)| {
            partition
                .node_of(name)
                .is_some_and(|owner| !members.contains(&owner))
        })
        .map(|(_, value)| value.to_canonical_bytes())
        .filter(|needle| needle.len() >= 4)
        .collect();
    let wire = wire.captured();
    let captured: Vec<_> = (wire.iter())
        .filter(|m| members.contains(&m.from.0) || members.contains(&m.to.0))
        .collect();
    let foreign_plaintext_hits = captured
        .iter()
        .filter(|message| {
            needles
                .iter()
                .any(|needle| contains_subslice(&message.payload, needle))
        })
        .count();

    // Empirical `u`: distinct destination domains in observed
    // fragment-ship traffic (tag 0x20), coalition merged into one.
    let n = cluster.num_nodes();
    let mut domains: BTreeSet<usize> = BTreeSet::new();
    for message in &wire {
        let to = message.to.0;
        if message.payload.first() == Some(&0x20) && to < n {
            let domain = if members.contains(&to) {
                *members.iter().min().expect("nonempty coalition")
            } else {
                to
            };
            domains.insert(domain);
        }
    }
    let observed_domains = domains.len().max(usize::from(!glsns.is_empty()));

    // §5 metrics under the collusion pattern. Records of Table 1 share
    // one shape, so per-record store confidentiality is uniform.
    let sample = &records[0];
    let w = sample.len() as f64;
    let v = sample
        .iter()
        .filter(|(name, _)| schema.get(name).is_some_and(|d| d.is_undefined()))
        .count() as f64;
    let c_store = v * observed_domains as f64 / w;
    let c_store_formula = metrics::store_confidentiality(sample, &schema, &merged);

    let replan = |src: &str| -> Result<f64, AuditError> {
        let planned = plan(&compile(src, &schema)?, &merged)?;
        Ok(metrics::auditing_confidentiality(&planned))
    };
    let c_auditing = replan(WORKLOAD[0])?;
    let c_query = c_auditing * c_store;
    let mut c_dla = 0.0;
    for query in WORKLOAD {
        c_dla += replan(query)? * c_store;
    }
    c_dla /= WORKLOAD.len() as f64;

    Ok(CoalitionReport {
        coalition: members.iter().copied().collect(),
        captured_messages: captured.len(),
        needles_scanned: needles.len(),
        foreign_plaintext_hits,
        observed_domains,
        c_store,
        c_store_formula,
        c_auditing,
        c_query,
        c_dla,
    })
}

fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalition_partition_merges_into_lead_slot() {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        let merged =
            coalition_partition(&schema, &partition, &[1, 3].into_iter().collect()).unwrap();
        assert_eq!(merged.num_nodes(), 4);
        assert_eq!(merged.node_of(&"id".into()), Some(1));
        assert_eq!(merged.node_of(&"c1".into()), Some(1));
        assert_eq!(merged.node_of(&"protocol".into()), Some(1));
        assert!(merged.attrs_of(3).is_empty());
        assert_eq!(merged.node_of(&"time".into()), Some(0));

        // Degenerate coalitions change nothing.
        let same = coalition_partition(&schema, &partition, &[2].into_iter().collect()).unwrap();
        assert_eq!(same, partition);
        assert!(coalition_partition(&schema, &partition, &[9].into_iter().collect()).is_err());
    }

    #[test]
    fn scenario_choices_replay_from_the_two_seeds() {
        let a = run_attack(AttackClass::RelayRoundLie, 77).unwrap();
        let b = run_attack(AttackClass::RelayRoundLie, 77).unwrap();
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.messages_to_detect, b.messages_to_detect);
        assert_eq!(a.virtual_ns_to_detect, b.virtual_ns_to_detect);
        assert_eq!(a.forged_messages, b.forged_messages);
    }

    #[test]
    fn delay_attack_is_masked_by_the_arq_layer() {
        let report = run_delay_attack(101).unwrap();
        assert!(report.delayed_frames > 0, "the scheduler never fired");
        assert!(
            report.answer_matches_honest,
            "reordering changed the answer"
        );
        assert!(
            !report.detected.any(),
            "scheduling alone must not raise alarms: {:?}",
            report.detected
        );
    }

    #[test]
    fn delay_attack_replays_from_its_seed() {
        let a = run_delay_attack(7).unwrap();
        let b = run_delay_attack(7).unwrap();
        assert_eq!(a.victim, b.victim);
        assert_eq!(a.delayed_frames, b.delayed_frames);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn subslice_scan_is_exact() {
        assert!(contains_subslice(b"abcdef", b"cde"));
        assert!(!contains_subslice(b"abcdef", b"cdf"));
        assert!(!contains_subslice(b"abc", b""));
    }
}

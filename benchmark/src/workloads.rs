//! The three workloads, each a different mix of the stages in
//! [`crate::stages`]. All are closed loop with one client thread: the
//! machine has two cores, so the generator is one process, one thread.
//!
//! Every workload reports every end-to-end metric (the driver's
//! contract). The stage that gives a workload its character takes the
//! largest share of the run; the metrics it does not exercise come
//! from secondary stages, shorter but long enough for their numbers to
//! repeat (see `README.md` for the map).

use crate::env::Scratch;
use crate::mesh::{Mesh, NETWORK};
use crate::spec::{Workload, REFERENCE_SECONDS};
use crate::stages::{
    audit_check, cluster_config, filing_journal_growth, ingest, query_round, records, restore,
    session_round, span, store_acks, Samples, StoreLedger, Trail, Wire, EPOCH_LEN, SHAPES,
};
use crate::trace::{discard, drain_into, Tracer};
use dla_audit::aggregate::{windowed_bucket_aggregate, AggregatePath};
use dla_audit::plan::TimeWindow;
use dla_logstore::model::LogRecord;
use dla_net::ChannelNet;
use dla_telemetry::CostVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Set-ups before the measured stages; the last one is the run's own.
const SETUPS_FIRST: usize = 2;
/// One more set-up, torn down at once, after every so many slices: a
/// run's set-ups are spread over it like every other op, so that one
/// wave of machine noise does not take them all.
const SETUP_EVERY: usize = 3;
/// Interleaved shares every stage of a run is cut into.
const SLICES: usize = 16;
/// Records a windowed query or integrity check looks back over.
pub const WINDOW: usize = 512;
/// Records of the durable side cluster.
const TAIL: usize = 1024;

/// Op counts of one run. They scale with `--seconds`; the trails the
/// ops work on keep their size.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Records loaded before measuring.
    pub preload: usize,
    /// Single-record deposits (or store acks on `mesh_small_ops`).
    pub deposits: usize,
    /// Rounds of the three query shapes.
    pub query_rounds: usize,
    /// Rounds of the three session kinds.
    pub session_rounds: usize,
    /// `check_window` calls.
    pub audit_checks: usize,
    /// In-memory single-record deposits after the reads, where the
    /// workload has no deposits or seals of its own to time.
    pub memory_ingest: usize,
    /// Records of the durable side cluster.
    pub tail: usize,
}

impl Sizes {
    /// Sizes of `workload` for a run of `seconds`; `divisor` shrinks
    /// everything for smoke runs (1 = the real benchmark).
    pub fn of(workload: Workload, seconds: f64, divisor: usize) -> Sizes {
        let scale = seconds / REFERENCE_SECONDS;
        let epoch = EPOCH_LEN as usize;
        // Every count scales with the run length; the trail a query or
        // a restore works on does not (its size sets the op's cost).
        let scaled = |base: usize| ((base as f64 * scale).round() as usize / divisor).max(1);
        // Whole epochs where seals matter.
        let epochs = |base: usize| (scaled(base) / epoch).max(2) * epoch;
        let fixed_epochs = |base: usize| (base / divisor / epoch).max(2) * epoch;
        match workload {
            Workload::QueryScan => Sizes {
                preload: fixed_epochs(1024),
                deposits: 0,
                query_rounds: scaled(40),
                session_rounds: scaled(21_600),
                audit_checks: scaled(144),
                memory_ingest: epochs(9216),
                tail: fixed_epochs(TAIL),
            },
            Workload::MeshSmallOps => Sizes {
                preload: fixed_epochs(1024),
                deposits: scaled(96_000),
                query_rounds: scaled(28),
                session_rounds: scaled(5400),
                audit_checks: scaled(144),
                memory_ingest: epochs(9216),
                tail: fixed_epochs(TAIL),
            },
            Workload::MixedAudit => Sizes {
                preload: fixed_epochs(1024),
                // One cycle = one epoch of deposits, then the reads; a
                // query round takes three cycles, one shape each.
                deposits: (epochs(9216) / (SHAPES.len() * epoch)).max(1) * SHAPES.len() * epoch,
                query_rounds: 0,
                session_rounds: scaled(1800),
                audit_checks: 0,
                memory_ingest: 0,
                tail: fixed_epochs(TAIL),
            },
        }
    }

    fn records_needed(&self) -> usize {
        self.preload + self.deposits.max(self.memory_ingest).max(self.tail)
    }
}

/// Exact op counts of the traced pass, by the op class that caused them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    pub deposits: CostVector,
    pub queries: CostVector,
    pub sessions: CostVector,
}

/// What one run of a workload produced.
pub struct RunOutput {
    pub workload: Workload,
    pub sizes: Sizes,
    pub samples: Samples,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// `ChildNode::spawn` and `TcpNet::connect` times of the set-ups.
    pub spawn_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Seconds from the end of the first set-ups to the end of the last
    /// stage (the set-ups spread over the slices included).
    pub measured_s: f64,
    pub costs: Costs,
    /// The generated log, for the per-layer probes to replay.
    pub records: Vec<LogRecord>,
}

/// The live state a set-up hands to the measured phase.
struct Ready {
    trail: Trail,
    mesh: Option<Mesh>,
    standing: Option<dla_audit::standing::StandingQueryId>,
}

/// One set-up: the trail built and loaded in memory, on the mesh
/// workloads after spawning and connecting the processes.
fn set_up(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    log: &[LogRecord],
) -> Result<Ready, String> {
    let mesh = match workload {
        Workload::MeshSmallOps | Workload::MixedAudit => Some(Mesh::launch()?),
        Workload::QueryScan => None,
    };
    let mut trail = Trail::new(cluster_config(seed, None))?;
    trail.preload(&log[..sizes.preload])?;
    let standing = match workload {
        Workload::MixedAudit => Some(
            trail
                .cluster
                .register_standing(SHAPES[0].1)
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    Ok(Ready {
        trail,
        mesh,
        standing,
    })
}

/// Timings of a run's set-ups.
#[derive(Default)]
struct SetUps {
    seconds: Vec<f64>,
    spawn_ms: Vec<f64>,
    connect_ms: Vec<f64>,
}

impl SetUps {
    fn timed(
        &mut self,
        workload: Workload,
        seed: u64,
        sizes: &Sizes,
        log: &[LogRecord],
    ) -> Result<Ready, String> {
        let started = Instant::now();
        let state = span("setup", || set_up(workload, seed, sizes, log))?;
        self.seconds.push(started.elapsed().as_secs_f64());
        if let Some(mesh) = &state.mesh {
            self.spawn_ms.extend_from_slice(&mesh.spawn_ms);
            self.connect_ms.push(mesh.connect_ms);
        }
        Ok(state)
    }
}

/// Tears a set-up down again.
fn tear_down(state: Ready) -> Result<(), String> {
    match state.mesh {
        Some(mesh) => mesh.finish().map(drop),
        None => Ok(()),
    }
}

/// Runs `workload` once: `SETUPS_FIRST` timed set-ups (all but the last
/// torn down again), then the measured stages on the last one, with a
/// further set-up after every `SETUP_EVERY` slices.
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    scratch: &Scratch,
    tracer: &mut Option<Tracer>,
) -> Result<RunOutput, String> {
    let log = records(seed, sizes.records_needed());
    let mut samples = Samples::default();
    let mut set_ups = SetUps::default();
    for _ in 1..SETUPS_FIRST {
        tear_down(set_ups.timed(workload, seed, &sizes, &log)?)?;
    }
    let Ready {
        mut trail,
        mesh,
        standing,
    } = set_ups.timed(workload, seed, &sizes, &log)?;
    let mut costs = Costs::default();
    // Set-up work (preload folds, standing catch-up) is nobody's op.
    discard(tracer);

    let channel = ChannelNet::new(NETWORK);
    let wire = match &mesh {
        Some(mesh) => Wire::Tcp(&mesh.net),
        None => Wire::Channel(&channel),
    };
    let mut ledger = StoreLedger::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1045);
    let fresh = &log[sizes.preload..];
    let everything = TimeWindow::unbounded();
    // The trail that takes the in-memory deposits of a workload whose
    // own trail must not grow under its queries.
    let mut side_trail = match sizes.memory_ingest {
        0 => None,
        _ => Some(Trail::new(cluster_config(seed, None))?),
    };
    // The durable side cluster: loaded here, untimed (what a durable
    // deposit takes is the disk's sync latency, which on the reference
    // machine doubles and halves from one hour to the next: see the
    // README), and reopened from its journals once a slice, for
    // `restore_s` and `journal_bytes_per_deposit`.
    let mut durable_side = Trail::new(cluster_config(seed, Some(scratch.journal_dir("tail"))))?;
    filing_journal_growth(&mut durable_side, sizes.tail, &mut samples, |journaled| {
        journaled.preload(&fresh[..sizes.tail])
    })?;
    discard(tracer);
    let measured = Instant::now();

    // Every stage is cut into `SLICES` shares and the shares are
    // interleaved, so that each metric's samples span the whole run:
    // a wave of machine noise then spoils a slice of every metric, which
    // the quiet-block statistics shrug off, and not all of one.
    for slice in 0..SLICES {
        let share = |count: usize| count * slice / SLICES..count * (slice + 1) / SLICES;
        let net = mesh.as_ref().map(|mesh| &mesh.net);

        // Deposits, of the workload's own kind.
        let deposits = share(sizes.deposits);
        match workload {
            Workload::MeshSmallOps => {
                let net = net.expect("mesh workload");
                let acks = store_acks(&trail, net, &mut ledger, deposits, &mut samples);
                samples.file_deposits(&acks);
            }
            Workload::MixedAudit => {
                // One cycle: an epoch of shipped deposits, the seal and
                // its standing delta, then the reads over the window.
                let net = net.expect("mesh workload");
                let standing = standing.expect("registered in set-up");
                let epoch = EPOCH_LEN as usize;
                for cycle in share(sizes.deposits / epoch) {
                    let batch = &fresh[cycle * epoch..(cycle + 1) * epoch];
                    let sealed_before = trail.cluster.checkpoint_chain().len();
                    let ingested =
                        ingest(&mut trail, batch, Some((net, &mut ledger)), &mut samples);
                    samples.file_deposits(&ingested);
                    samples.seal_ms.extend(ingested.seal_ms);
                    // Every epoch sealed since the last drain owes a delta.
                    let sealed = trail.cluster.checkpoint_chain().len() - sealed_before;
                    let deltas = trail.cluster.standing_deltas(standing).len();
                    let owed = if cycle == 0 {
                        sealed_before + sealed
                    } else {
                        sealed
                    };
                    samples.check(deltas == owed, || {
                        format!("cycle {cycle}: {deltas} standing deltas for {owed} sealed epochs")
                    });
                    drain_into(tracer, &mut costs.deposits);

                    // One shape a cycle, so that three cycles make a
                    // query round and a run has three times the seals
                    // and integrity checks it has query rounds.
                    let window = trail.window_over_last(WINDOW);
                    let (round, shape) = (cycle / SHAPES.len(), cycle % SHAPES.len());
                    query_round(
                        &mut trail,
                        wire,
                        &window,
                        round as u64,
                        shape..shape + 1,
                        &mut samples,
                    );
                    drain_into(tracer, &mut costs.queries);
                    audit_check(&trail, &window, &mut samples);
                    windowed_aggregates(&trail, &window, &mut samples);
                    discard(tracer);
                }
            }
            Workload::QueryScan => {}
        }
        drain_into(tracer, &mut costs.deposits);

        // Queries: the whole trail on `query_scan`, the last `WINDOW`
        // records elsewhere (`mixed_audit` queries inside its cycles).
        let window = match workload {
            Workload::QueryScan => everything,
            _ => trail.window_over_last(WINDOW),
        };
        for round in share(sizes.query_rounds) {
            query_round(
                &mut trail,
                wire,
                &window,
                round as u64,
                0..SHAPES.len(),
                &mut samples,
            );
        }
        drain_into(tracer, &mut costs.queries);

        for round in share(sizes.session_rounds) {
            session_round(wire, round as u64, &mut rng, &mut samples);
        }
        drain_into(tracer, &mut costs.sessions);

        for _ in share(sizes.audit_checks) {
            audit_check(&trail, &window, &mut samples);
        }
        // Integrity checks fold too: not a deposit's work.
        discard(tracer);

        if let Some(side) = &mut side_trail {
            let ingested = ingest(side, &fresh[share(sizes.memory_ingest)], None, &mut samples);
            if workload == Workload::QueryScan {
                // No deposits of its own: these are its deposits.
                samples.file_deposits(&ingested);
                drain_into(tracer, &mut costs.deposits);
            }
            // Neither queries nor store acks seal: these are its seals.
            samples.seal_ms.extend(ingested.seal_ms);
        }
        durable_side = restore(durable_side, &mut samples)?;
        if slice % SETUP_EVERY == SETUP_EVERY - 1 {
            tear_down(set_ups.timed(workload, seed, &sizes, &log)?)?;
        }
        discard(tracer);
    }
    if let Some(standing) = standing {
        check_standing(&mut trail, standing, &mut samples);
    }
    discard(tracer);
    let measured_s = measured.elapsed().as_secs_f64();

    let peak_rss_mib = crate::env::own_peak_rss_mib() + crate::env::children_peak_rss_mib();
    if let Some(mesh) = mesh {
        let reports = mesh.finish()?;
        ledger.check_reports(&reports, &mut samples);
    }
    Ok(RunOutput {
        workload,
        sizes,
        samples,
        setup_s: set_ups.seconds,
        spawn_ms: set_ups.spawn_ms,
        connect_ms: set_ups.connect_ms,
        peak_rss_mib,
        measured_s,
        costs,
        records: log,
    })
}

/// The cached windowed aggregate of a cycle against the rescan path:
/// both must agree (their latencies are per-layer metrics, probed in
/// the traced pass).
fn windowed_aggregates(trail: &Trail, window: &TimeWindow, samples: &mut Samples) {
    let (attr, sum_attr) = ("protocol".into(), "c1".into());
    let answer = |path: AggregatePath, name: &str| {
        span(name, || {
            windowed_bucket_aggregate(&trail.cluster, &attr, "UDP", Some(&sum_attr), window, path)
        })
    };
    let cached = answer(AggregatePath::Cached, "audit.windowed_aggregate.cached");
    let rescan = answer(AggregatePath::Rescan, "audit.windowed_aggregate.rescan");
    let agree = match (&cached, &rescan) {
        (Ok(c), Ok(r)) => (c.count, c.sum) == (r.count, r.sum) && c.count > 0,
        _ => false,
    };
    samples.check(agree, || {
        format!("windowed aggregate: cached {cached:?}, rescan {rescan:?}")
    });
}

/// The standing query's accumulated matches must be the oracle's
/// answer over the sealed part of the trail.
fn check_standing(
    trail: &mut Trail,
    standing: dla_audit::standing::StandingQueryId,
    samples: &mut Samples,
) {
    let sealed_up_to = trail
        .cluster
        .epoch_stats()
        .filter(|s| s.sealed)
        .map(|s| s.glsn_hi)
        .max();
    let expected: Option<Vec<_>> = trail.oracle.query_text(SHAPES[0].1).ok().map(|all| {
        all.into_iter()
            .filter(|g| sealed_up_to.is_some_and(|hi| *g <= hi))
            .collect()
    });
    let matches = trail.cluster.standing_matches(standing);
    samples.check(matches.is_some() && matches == expected, || {
        format!(
            "standing query accumulated {:?} matches, oracle {:?}",
            matches.map(|m| m.len()),
            expected.map(|m| m.len())
        )
    });
}

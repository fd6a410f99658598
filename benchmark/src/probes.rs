//! The per-layer numbers of the traced pass. Timings are medians of
//! isolated calls into one layer's public functions, replaying inputs
//! taken from the workload's generated log (its records, fragments,
//! trail items and query strings); counts are exact `Recorder` totals
//! divided by the ops that caused them. Layers are measured from
//! outside: tracing inside the program is a later change.

use crate::env::Scratch;
use crate::mesh::{Mesh, NETWORK, NODES};
use crate::spec::{Workload, PER_LAYER};
use crate::stages::{
    cluster_config, ingest, query_text, session_round, trail_item, Samples, StoreLedger, Trail,
    Wire, EPOCH_LEN, SESSION_KINDS, SHAPES,
};
use crate::stats::median;
use crate::workloads::{RunOutput, WINDOW};
use dla_audit::aggregate::{windowed_bucket_aggregate, AggregatePath};
use dla_audit::integrity::{check_trail, check_window};
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{multi_exp, FixedBase, Ubig};
use dla_crypto::pohlig_hellman::{BatchMode, PhKey};
use dla_logstore::epoch::{EpochId, EpochPolicy};
use dla_logstore::fragment::{fragment, Fragment};
use dla_logstore::journal::{Journal, JournalEntry};
use dla_logstore::model::{Glsn, LogRecord};
use dla_logstore::store::FragmentStore;
use dla_mpc::{SsiSession, UnionSession};
use dla_net::tcp::{decode_envelope, read_frame, write_frame};
use dla_net::topology::Ring;
use dla_net::{ChannelNet, Envelope, NodeId, Session, SessionId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Isolated calls behind a microsecond-scale median.
const CALLS: usize = 200;
/// Isolated calls behind a millisecond-scale median (`mpc.ssi_256_ms`
/// alone is ~100 ms; 200 of them would not fit a run).
const SLOW_CALLS: usize = 10;

/// Median microseconds of `calls` isolated calls of `f(i)`.
fn median_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let started = Instant::now();
            f(i);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// How many calls a probe makes: the full count, or a handful in a
/// smoke run.
#[derive(Clone, Copy)]
pub struct Effort {
    pub calls: usize,
    pub slow_calls: usize,
}

impl Effort {
    pub fn full() -> Effort {
        Effort {
            calls: CALLS,
            slow_calls: SLOW_CALLS,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Effort {
        Effort {
            calls: 8,
            slow_calls: 2,
        }
    }
}

/// The traced pass's findings.
pub struct Layers {
    /// Every per-layer metric, in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The layer map's three predictions, checked on these numbers.
    pub layer_map: Vec<String>,
}

/// Probes every layer for `traced`. `untraced_ops_per_s` is the
/// throughput of the same sizes with telemetry off, for the tracing
/// overhead.
pub fn per_layer(
    traced: &RunOutput,
    untraced_ops_per_s: f64,
    scratch: &Scratch,
    effort: Effort,
) -> Result<Layers, String> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0xB0B5);
    let samples = &traced.samples;
    let log = &traced.records[..traced.records.len().min(1024)];
    let window_len = WINDOW.min(log.len() / 2);

    // --- audit: three trails over the captured log, deposited one
    // record at a time: in memory, in memory with a standing query,
    // and (a quarter of the log) journal-backed.
    let mut plain_trail = Trail::new(cluster_config(7, None))?;
    let mut scratch_samples = Samples::default();
    let plain = ingest(&mut plain_trail, log, None, &mut scratch_samples);
    let journal_dir = scratch.journal_dir("probe-trail");
    let mut durable_trail = Trail::new(cluster_config(7, Some(journal_dir)))?;
    let durable = ingest(
        &mut durable_trail,
        &log[..log.len() / 4],
        None,
        &mut scratch_samples,
    );
    drop(durable_trail);
    let mut standing_trail = Trail::new(cluster_config(7, None))?;
    standing_trail
        .cluster
        .register_standing(SHAPES[0].1)
        .map_err(|e| e.to_string())?;
    let standing = ingest(&mut standing_trail, log, None, &mut scratch_samples);
    drop(standing_trail);
    if scratch_samples.failed > 0 {
        return Err(format!(
            "probe ingest failed: {:?}",
            scratch_samples.failures
        ));
    }
    out.insert("audit.log_record_mem_us", median(&plain.plain_ms) * 1e3);
    out.insert(
        "audit.log_record_durable_us",
        median(&durable.plain_ms) * 1e3,
    );
    out.insert(
        "audit.standing_delta_ms",
        median(&standing.seal_ms) - median(&plain.seal_ms),
    );
    let trail = plain_trail;
    let cluster = &trail.cluster;
    let window = trail.window_over_last(window_len);

    out.insert(
        "audit.parse_plan_us",
        median_us(effort.calls, |i| {
            let text = query_text(SHAPES[i % 3].1, &window);
            let parsed = dla_audit::parser::parse(&text, cluster.schema()).expect("parses");
            parsed.check(cluster.schema()).expect("checks");
            let normalized = dla_audit::normal::normalize(&parsed);
            black_box(dla_audit::plan::plan(&normalized, cluster.partition()).expect("plans"));
        }),
    );
    for (index, (name, _)) in SHAPES.iter().enumerate() {
        let of_shape: Vec<f64> = samples
            .query_ms
            .iter()
            .filter(|(shape, _)| *shape == index)
            .map(|(_, ms)| *ms)
            .collect();
        let key = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| *n == format!("audit.query.{name}.p50_ms"))
            .expect("a per-layer metric per shape");
        out.insert(key, median(&of_shape));
    }
    out.insert(
        "audit.check_window_ms",
        median_us(effort.slow_calls * 2, |_| {
            black_box(check_window(cluster, &window));
        }) / 1e3,
    );
    out.insert(
        "audit.check_trail_ms",
        median_us(effort.slow_calls * 2, |_| {
            black_box(check_trail(cluster));
        }) / 1e3,
    );
    let (attr, sum_attr) = ("protocol".into(), "c1".into());
    for (key, path) in [
        ("audit.windowed_aggregate_cached_us", AggregatePath::Cached),
        ("audit.windowed_aggregate_rescan_us", AggregatePath::Rescan),
    ] {
        out.insert(
            key,
            median_us(effort.calls, |_| {
                black_box(
                    windowed_bucket_aggregate(
                        cluster,
                        &attr,
                        "UDP",
                        Some(&sum_attr),
                        &window,
                        path,
                    )
                    .expect("aggregates"),
                );
            }),
        );
    }

    // --- inputs captured from the trail: items, group elements,
    // exponents, fragments.
    let glsns = cluster.logged_glsns();
    let items: Vec<Vec<u8>> = glsns
        .iter()
        .map(|&g| trail_item(g, cluster.deposit(g).expect("logged")))
        .collect();
    let (domain, group, acc) = (
        cluster.domain(),
        cluster.group(),
        cluster.accumulator_params(),
    );
    let elements: Vec<Ubig> = items.iter().map(|i| domain.fingerprint(i)).collect();
    let exponents: Vec<Ubig> = (0..64).map(|_| group.random_exponent(&mut rng)).collect();
    let item_exponents: Vec<Ubig> = items.iter().map(|i| acc.item_exponent(i)).collect();
    let pick = |i: usize| i % items.len();

    // --- bigint
    let ctx256 = MontgomeryContext::new(domain.modulus()).ok_or("even 256-bit modulus")?;
    let ctx512 = MontgomeryContext::new(acc.modulus()).ok_or("even 512-bit modulus")?;
    out.insert(
        "bigint.modexp_256_us",
        median_us(effort.calls, |i| {
            black_box(ctx256.modexp(&elements[pick(i)], &exponents[i % 64]));
        }),
    );
    let deposits: Vec<&Ubig> = glsns
        .iter()
        .map(|&g| cluster.deposit(g).expect("logged"))
        .collect();
    out.insert(
        "bigint.modexp_512_us",
        median_us(effort.calls, |i| {
            black_box(ctx512.modexp(deposits[pick(i)], &item_exponents[pick(i)]));
        }),
    );
    out.insert(
        "bigint.modmul_256_ns",
        median_us(effort.calls, |i| {
            for k in 0..100 {
                black_box(ctx256.modmul(&elements[pick(i + k)], &elements[pick(i + k + 1)]));
            }
        }) * 10.0,
    );
    let table = FixedBase::new(&ctx512, acc.start(), 256);
    out.insert(
        "bigint.fixed_base_pow_512_us",
        median_us(effort.calls, |i| {
            black_box(table.pow(&item_exponents[pick(i)]));
        }),
    );
    let terms: Vec<(Ubig, Ubig)> = (0..64)
        .map(|j| (deposits[pick(j)].clone(), Ubig::random_bits(&mut rng, 128)))
        .collect();
    out.insert(
        "bigint.multi_exp_64_us",
        median_us(effort.calls / 4, |_| {
            black_box(multi_exp(&ctx512, &terms));
        }),
    );

    // --- crypto
    let key = PhKey::generate(domain, &mut rng);
    let batch: Vec<Ubig> = (0..64).map(|j| elements[pick(j)].clone()).collect();
    out.insert(
        "crypto.ph_encrypt_batch_64_us",
        median_us(effort.calls / 4, |_| {
            black_box(key.encrypt_batch(&batch, BatchMode::Serial));
        }),
    );
    let partition = cluster.partition();
    let stamped: Vec<LogRecord> = log
        .iter()
        .zip(&glsns)
        .map(|(record, &glsn)| {
            let mut stamped = LogRecord::new(glsn);
            for (name, value) in record.iter() {
                stamped.insert(name.clone(), value.clone());
            }
            stamped
        })
        .collect();
    let fragments: Vec<Vec<Fragment>> = stamped.iter().map(|r| fragment(r, partition)).collect();
    let canonical: Vec<Vec<Vec<u8>>> = fragments
        .iter()
        .map(|fs| fs.iter().map(Fragment::to_canonical_bytes).collect())
        .collect();
    out.insert(
        "crypto.accumulate_record_us",
        median_us(effort.calls, |i| {
            black_box(acc.accumulate(canonical[pick(i)].iter().map(Vec::as_slice)));
        }),
    );
    let running = [deposits[0].clone(), deposits[pick(1)].clone()];
    out.insert(
        "crypto.fold_batch_us",
        median_us(effort.calls, |i| {
            black_box(acc.fold_batch(&running, &[&items[pick(i)]]));
        }),
    );
    let signer = trail.user.key();
    let mut signatures = Vec::new();
    out.insert(
        "crypto.schnorr_sign_us",
        median_us(effort.calls, |i| {
            signatures.push(signer.sign(&items[pick(i)], &mut rng));
        }),
    );
    out.insert(
        "crypto.schnorr_verify_us",
        median_us(effort.calls, |i| {
            let ok = dla_crypto::schnorr::verify(
                group,
                signer.public(),
                &items[pick(i)],
                &signatures[i],
            );
            assert!(black_box(ok), "a fresh signature verifies");
        }),
    );
    // 64 claims `digest = x0^E`, each E the fold of a slice of the
    // captured trail items (as `check_window` claims one per epoch).
    let per_claim = (items.len() / 64).max(1);
    let claims: Vec<(Ubig, Ubig)> = (0..64)
        .map(|j| {
            let refs: Vec<&[u8]> = (0..per_claim)
                .map(|k| items[pick(j * per_claim + k)].as_slice())
                .collect();
            let exponent = acc.batch_exponent(&refs);
            (acc.power_of_start(&exponent), exponent)
        })
        .collect();
    out.insert(
        "crypto.batch_verify_64_us",
        median_us(effort.slow_calls * 2, |_| {
            assert!(black_box(acc.batch_verify(&claims)), "honest claims verify");
        }),
    );

    // --- mpc, in process
    let channel = ChannelNet::new(NETWORK);
    let ring = Ring::canonical(NODES);
    let set = 256.min(glsns.len() / 2);
    let sets: Vec<Vec<Vec<u8>>> = (0..NODES)
        .map(|party| {
            (0..set)
                .map(|k| glsns[pick(party * set / 4 + k)].0.to_be_bytes().to_vec())
                .collect()
        })
        .collect();
    let mut next_session = 0x5000_0000u64;
    let mut session = |net| {
        next_session += 1;
        Session::new(net, SessionId(next_session))
    };
    out.insert(
        "mpc.ssi_256_ms",
        median_us(effort.slow_calls, |_| {
            let outcome = SsiSession::new(session(&channel), &ring, domain, NodeId(NODES))
                .reveal(true)
                .run(&sets, &mut rng)
                .expect("ssi runs");
            assert!(outcome.cardinality() > 0, "the sets overlap");
        }) / 1e3,
    );
    out.insert(
        "mpc.union_256_ms",
        median_us(effort.slow_calls, |_| {
            let outcome = UnionSession::new(session(&channel), &ring, domain, NodeId(NODES))
                .run(&sets, &mut rng)
                .expect("union runs");
            assert!(outcome.cardinality() >= set, "the union holds every set");
        }) / 1e3,
    );
    let mut inproc = Samples::default();
    let mut session_rng = StdRng::seed_from_u64(0x5E55);
    for round in 0..effort.calls {
        session_round(
            Wire::Channel(&channel),
            round as u64,
            &mut session_rng,
            &mut inproc,
        );
    }
    if inproc.failed > 0 {
        return Err(format!("probe sessions failed: {:?}", inproc.failures));
    }
    for (kind, name) in SESSION_KINDS.iter().enumerate() {
        let of_kind: Vec<f64> = inproc
            .session_ms
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| ms * 1e3)
            .collect();
        let key = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| *n == format!("mpc.{name}_inproc_us"))
            .expect("a per-layer metric per session kind");
        out.insert(key, median(&of_kind));
    }

    // --- net: framing alone, then one message each way of travelling.
    let envelope = Envelope::new(
        SessionId(1),
        NodeId(0),
        NodeId(1),
        bytes::Bytes::from(vec![0x5A; 256]),
        SimTime::ZERO,
        SimTime::ZERO,
    )
    .encode();
    out.insert(
        "net.frame_roundtrip_us",
        median_us(effort.calls, |_| {
            let mut wire = Vec::with_capacity(envelope.len() + 4);
            write_frame(&mut wire, &envelope).expect("writes to memory");
            let frame = read_frame(&mut wire.as_slice()).expect("reads back");
            black_box(decode_envelope(&frame, NodeId(1)).expect("decodes"));
        }),
    );
    let payload = bytes::Bytes::from(items[0].clone());
    let one_message = |net: &dyn dla_net::Transport, i: usize| {
        let session = Session::new(net, SessionId(0x6000_0000));
        let (from, to) = (NodeId(i % NODES), NodeId((i + 1) % NODES));
        session.send(from, to, payload.clone());
        black_box(session.recv_from(to, from).expect("message arrives"));
    };
    out.insert(
        "net.channel_rtt_us",
        median_us(effort.calls, |i| one_message(&channel, i)),
    );
    let mesh = Mesh::launch()?;
    out.insert(
        "net.tcp_rtt_us",
        median_us(effort.calls, |i| one_message(&mesh.net, i)),
    );
    let mut ledger = StoreLedger::new();
    let mut ack_failure = None;
    out.insert(
        "net.tcp_store_ack_us",
        median_us(effort.calls, |i| {
            if let Err(e) = ledger.deposit(&mesh.net, i % NODES, i as u64, &items[pick(i)]) {
                ack_failure = Some(e);
            }
        }),
    );
    if let Some(e) = ack_failure {
        return Err(format!("probe store ack: {e}"));
    }
    let connects: Vec<f64> = traced
        .connect_ms
        .iter()
        .copied()
        .chain([mesh.connect_ms])
        .collect();
    let spawns: Vec<f64> = traced
        .spawn_ms
        .iter()
        .chain(&mesh.spawn_ms)
        .copied()
        .collect();
    out.insert("net.mesh_connect_ms", median(&connects));
    out.insert("deploy.node_spawn_ms", median(&spawns));
    mesh.finish()?;

    // --- logstore
    out.insert(
        "logstore.fragment_us",
        median_us(effort.calls, |i| {
            black_box(fragment(&stamped[pick(i)], partition));
        }),
    );
    let policy = EpochPolicy::new(glsns[0], EPOCH_LEN);
    let node = 1;
    let node_fragments: Vec<Fragment> = fragments
        .iter()
        .map(|fs| {
            fs.iter()
                .find(|f| f.node == node)
                .expect("a fragment per node")
                .clone()
        })
        .collect();
    let writes = effort.calls.min(node_fragments.len());
    let ticket = &trail.user.ticket;
    let mut memory = FragmentStore::with_policy(node, policy);
    out.insert(
        "logstore.store_write_mem_us",
        median_us(writes, |i| {
            memory
                .write(ticket, node_fragments[i].clone())
                .expect("writes");
        }),
    );
    let dir = scratch.journal_dir("probe");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut durable = FragmentStore::restore_with_policy(node, &dir.join("store.journal"), policy)
        .map_err(|e| e.to_string())?;
    out.insert(
        "logstore.store_write_durable_us",
        median_us(writes, |i| {
            durable
                .write(ticket, node_fragments[i].clone())
                .expect("writes");
        }),
    );
    // Sealing is one journal frame plus a flag; epochs far above the
    // written ones are empty and seal the same way.
    out.insert(
        "logstore.seal_epoch_us",
        median_us(effort.calls, |i| {
            durable
                .seal_epoch(EpochId(1_000 + i as u64))
                .expect("seals");
        }),
    );
    let (mut journal, _) = Journal::open(&dir.join("blobs.journal")).map_err(|e| e.to_string())?;
    let blob = |i: usize| JournalEntry::Blob {
        tag: 0x7F,
        bytes: items[pick(i)].clone(),
    };
    out.insert(
        "logstore.journal_append_us",
        median_us(effort.calls, |i| {
            journal.append(&blob(i)).expect("appends");
        }),
    );
    let blobs: Vec<JournalEntry> = (0..64).map(blob).collect();
    out.insert(
        "logstore.journal_append_batch_64_us",
        median_us(effort.calls / 4, |_| {
            journal.append_batch(&blobs).expect("appends");
        }),
    );
    let store = cluster.node(node).store();
    let epochs = (glsns.len() as u64 / EPOCH_LEN).max(1);
    out.insert(
        "logstore.materialize_partials_us",
        median_us(effort.calls, |i| {
            black_box(store.compute_partials(EpochId(i as u64 % epochs)));
        }),
    );
    let (lo, hi) = (
        glsns[glsns.len() - window_len],
        Glsn(glsns[glsns.len() - 1].0),
    );
    out.insert(
        "logstore.scan_window_512_us",
        median_us(effort.calls, |_| {
            black_box(store.scan_window(lo, hi).count());
        }),
    );
    drop(store);
    out.insert(
        "logstore.restore_us_per_record",
        median(&samples.restore_s) * 1e6 / samples.restored_records.max(1) as f64,
    );
    out.insert(
        "logstore.journal_bytes_per_fragment",
        samples.node_journal_bytes as f64 / (samples.journal_deposits.max(1) * NODES as u64) as f64,
    );

    // --- exact counts, per op of the class that caused them
    let queries = samples.query_ms.len().max(1) as f64;
    let sessions = samples.session_ms.len().max(1) as f64;
    let costs = &traced.costs;
    out.insert(
        "bigint.mont_mul_steps_per_query",
        costs.queries.mont_mul_steps as f64 / queries,
    );
    out.insert(
        "crypto.modexp_per_query",
        costs.queries.modexp as f64 / queries,
    );
    out.insert(
        "crypto.acc_folds_per_deposit",
        costs.deposits.acc_fold as f64 / samples.deposit_stream_ms.len().max(1) as f64,
    );
    out.insert(
        "mpc.rounds_per_query",
        costs.queries.rounds as f64 / queries,
    );
    out.insert(
        "mpc.rounds_per_session",
        costs.sessions.rounds as f64 / sessions,
    );
    out.insert(
        "net.messages_per_query",
        samples.query_messages as f64 / queries,
    );
    out.insert(
        "net.bytes_per_query",
        samples.query_wire_bytes as f64 / queries,
    );
    out.insert(
        "net.messages_per_session",
        costs.sessions.msgs_sent as f64 / sessions,
    );
    let all = [costs.deposits, costs.queries, costs.sessions];
    out.insert(
        "net.retransmits",
        all.iter().map(|c| c.retransmits).sum::<u64>() as f64,
    );
    out.insert(
        "net.timeouts",
        all.iter().map(|c| c.timeouts).sum::<u64>() as f64,
    );

    // --- reconciliation: what the layer parts, times their counts,
    // leave unexplained of the measured op (reported, not gated).
    let get = |name: &str| out[name];
    let deposit_us = median(&samples.deposit_ms) * 1e3;
    let deposit_parts = if traced.workload == Workload::MeshSmallOps {
        get("net.tcp_store_ack_us")
    } else {
        get("logstore.fragment_us")
            + get("crypto.accumulate_record_us")
            + get("crypto.schnorr_sign_us")
            + get("crypto.fold_batch_us")
            + NODES as f64 * get("logstore.store_write_mem_us")
            + if traced.workload == Workload::MixedAudit {
                get("net.tcp_store_ack_us")
            } else {
                0.0
            }
    };
    let query_us = samples.query_ms.iter().map(|(_, ms)| ms).sum::<f64>() * 1e3 / queries;
    let queries_over_tcp = matches!(
        traced.workload,
        Workload::MeshSmallOps | Workload::MixedAudit
    );
    let hop = if queries_over_tcp {
        get("net.tcp_rtt_us")
    } else {
        get("net.channel_rtt_us")
    };
    let query_parts = get("audit.parse_plan_us")
        + get("crypto.modexp_per_query") * get("bigint.modexp_256_us")
        + get("net.messages_per_query") * hop;
    // The layer map, on these numbers: the wire is nothing to an
    // in-process query, arithmetic nothing to a mesh session, and the
    // journal the largest part of a durable deposit.
    let session_us = samples.session_ms.iter().map(|(_, ms)| ms).sum::<f64>() * 1e3 / sessions;
    let session_arithmetic = costs.sessions.modexp as f64 / sessions * get("bigint.modexp_256_us")
        + costs.sessions.acc_fold as f64 / sessions * get("crypto.fold_batch_us");
    let logstore_parts = get("logstore.fragment_us")
        + NODES as f64 * get("logstore.store_write_durable_us")
        + get("logstore.journal_append_us");
    let crypto_parts = get("crypto.accumulate_record_us")
        + get("crypto.schnorr_sign_us")
        + get("crypto.fold_batch_us");
    let layer_map = vec![
        format!(
            "net share of a query ({}): {:.4}",
            if queries_over_tcp {
                "TcpNet"
            } else {
                "ChannelNet"
            },
            get("net.messages_per_query") * hop / query_us
        ),
        format!(
            "bigint+crypto share of a session: {:.4}",
            session_arithmetic / session_us
        ),
        format!(
            "logstore share of a durable deposit's attributed parts: {:.4} (crypto: {:.4})",
            logstore_parts / (logstore_parts + crypto_parts),
            crypto_parts / (logstore_parts + crypto_parts)
        ),
    ];

    out.insert(
        "audit.deposit.unattributed_share",
        1.0 - deposit_parts / deposit_us,
    );
    out.insert(
        "audit.query.unattributed_share",
        1.0 - query_parts / query_us,
    );
    let traced_ops_per_s = samples.attempted as f64 / samples.op_seconds();
    out.insert(
        "telemetry.trace_overhead_share",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            out.get(m.name)
                .map(|v| (m.name, *v))
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Layers { metrics, layer_map })
}

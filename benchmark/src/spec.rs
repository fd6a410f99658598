//! The benchmark's vocabulary: workload names, the sixteen end-to-end
//! metrics and the per-layer metrics, exactly as `BENCHMARK.json`
//! lists them (a test keeps the two in step).

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen before it is a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. Every workload reports all of them (the
/// driver's contract); `README.md` says which cells are a workload's
/// primary measurement and which come from its short secondary stages.
pub const END_TO_END: [EndToEnd; 16] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("deposits_per_s", "1/s", Better::Higher, 0.25),
    e2e("deposit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("deposit_p95_ms", "ms", Better::Lower, 0.25),
    e2e("seal_p50_ms", "ms", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p90_ms", "ms", Better::Lower, 0.25),
    e2e("sessions_per_s", "1/s", Better::Higher, 0.25),
    e2e("session_p50_ms", "ms", Better::Lower, 0.25),
    e2e("session_p95_ms", "ms", Better::Lower, 0.25),
    e2e("audit_check_p50_ms", "ms", Better::Lower, 0.25),
    e2e("restore_s", "s", Better::Lower, 0.25),
    e2e("journal_bytes_per_deposit", "B", Better::Lower, 0.01),
    e2e("wire_bytes_per_query", "B", Better::Lower, 0.08),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

/// One per-layer metric: name and unit. Every one of them is a cost
/// (a time, a count of work, an unexplained share): lower is better.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// The per-layer metrics of the traced pass, grouped by layer prefix.
pub const PER_LAYER: [PerLayer; 56] = [
    // bigint
    lower("bigint.modexp_256_us", "us"),
    lower("bigint.modexp_512_us", "us"),
    lower("bigint.modmul_256_ns", "ns"),
    lower("bigint.fixed_base_pow_512_us", "us"),
    lower("bigint.multi_exp_64_us", "us"),
    lower("bigint.mont_mul_steps_per_query", "count"),
    // crypto
    lower("crypto.ph_encrypt_batch_64_us", "us"),
    lower("crypto.accumulate_record_us", "us"),
    lower("crypto.fold_batch_us", "us"),
    lower("crypto.schnorr_sign_us", "us"),
    lower("crypto.schnorr_verify_us", "us"),
    lower("crypto.batch_verify_64_us", "us"),
    lower("crypto.modexp_per_query", "count"),
    lower("crypto.acc_folds_per_deposit", "count"),
    // mpc
    lower("mpc.ssi_256_ms", "ms"),
    lower("mpc.union_256_ms", "ms"),
    lower("mpc.sum_inproc_us", "us"),
    lower("mpc.equality_inproc_us", "us"),
    lower("mpc.ranking_inproc_us", "us"),
    lower("mpc.rounds_per_query", "count"),
    lower("mpc.rounds_per_session", "count"),
    // net
    lower("net.frame_roundtrip_us", "us"),
    lower("net.tcp_rtt_us", "us"),
    lower("net.channel_rtt_us", "us"),
    lower("net.tcp_store_ack_us", "us"),
    lower("net.mesh_connect_ms", "ms"),
    lower("net.messages_per_query", "count"),
    lower("net.bytes_per_query", "B"),
    lower("net.messages_per_session", "count"),
    lower("net.retransmits", "count"),
    lower("net.timeouts", "count"),
    // logstore
    lower("logstore.fragment_us", "us"),
    lower("logstore.store_write_mem_us", "us"),
    lower("logstore.store_write_durable_us", "us"),
    lower("logstore.journal_append_us", "us"),
    lower("logstore.journal_append_batch_64_us", "us"),
    lower("logstore.materialize_partials_us", "us"),
    lower("logstore.seal_epoch_us", "us"),
    lower("logstore.restore_us_per_record", "us"),
    lower("logstore.scan_window_512_us", "us"),
    lower("logstore.journal_bytes_per_fragment", "B"),
    // audit
    lower("audit.parse_plan_us", "us"),
    lower("audit.query.and2.p50_ms", "ms"),
    lower("audit.query.or2.p50_ms", "ms"),
    lower("audit.query.cnf4.p50_ms", "ms"),
    lower("audit.log_record_mem_us", "us"),
    lower("audit.log_record_durable_us", "us"),
    lower("audit.check_window_ms", "ms"),
    lower("audit.check_trail_ms", "ms"),
    lower("audit.windowed_aggregate_cached_us", "us"),
    lower("audit.windowed_aggregate_rescan_us", "us"),
    lower("audit.standing_delta_ms", "ms"),
    lower("audit.deposit.unattributed_share", "share"),
    lower("audit.query.unattributed_share", "share"),
    // telemetry / deploy
    lower("telemetry.trace_overhead_share", "share"),
    lower("deploy.node_spawn_ms", "ms"),
];

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueryScan,
    MeshSmallOps,
    MixedAudit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QueryScan,
        Workload::MeshSmallOps,
        Workload::MixedAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryScan => "query_scan",
            Workload::MeshSmallOps => "mesh_small_ops",
            Workload::MixedAudit => "mixed_audit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run length the op counts below are sized for (`run_seconds` of
/// `BENCHMARK.json`); `--seconds` scales the counts linearly.
pub const REFERENCE_SECONDS: f64 = 30.0;

/// Whether `name` obeys the driver's naming rule: starts with a letter
/// or digit, at most 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_obey_the_charset_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn bounds_and_setup_metric_meet_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` is written by hand; every name, unit, direction
    /// and bound in it must be the one this file holds.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\"}}",
                m.name, m.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
        assert_eq!(text.matches("\"bound\":").count(), END_TO_END.len());
        assert_eq!(
            text.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert!(text.contains(&format!("\"run_seconds\": {}", REFERENCE_SECONDS as u64)));
    }
}

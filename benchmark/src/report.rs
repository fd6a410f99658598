//! From samples to named metrics, and the two output forms: one
//! `metric <name> <value> <unit> <note>` line per metric for people
//! (and for the orchestrating parent process), then the driver's JSON
//! object as the last line of standard output.

use crate::spec::END_TO_END;
use crate::stats::{
    beyond, highest_supported_percentile, per_second, percentile, quiet_block, Quiet,
};
use crate::workloads::RunOutput;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and the percentile it supports, for the log.
    pub note: String,
}

/// Says how many samples stand behind a tail percentile, and flags a
/// count too small for it by the ten-samples-beyond rule.
fn tail_note(n: usize, p: u32) -> String {
    match highest_supported_percentile(n) {
        Some(supported) if supported >= p => format!("n={n} ({} beyond p{p})", beyond(n, p)),
        supported => format!(
            "n={n} (only {} beyond p{p}; supports {})",
            beyond(n, p),
            supported.map_or("the median alone".to_string(), |s| format!("p{s}"))
        ),
    }
}

/// Samples in a block behind a median or a rate of fast ops.
const BLOCK: usize = 24;
/// Samples in a block behind a p95: two lie beyond it.
const TAIL_BLOCK: usize = 42;
/// Samples in a block of sparse ops (seals, integrity checks).
const SPARSE_BLOCK: usize = 4;
/// One round of the three query shapes or session kinds.
const ROUND: usize = 3;

/// The sixteen end-to-end metrics of `run`, in `END_TO_END` order.
///
/// Latency percentiles and throughputs are taken over the quietest
/// fiftieth of the op stream (see [`quiet_block`]). Blocks hold whole periods of
/// their stream: an epoch of the deposit stream (one seal in each),
/// whole rounds of the three session kinds, one round of the three
/// query shapes — a query takes tens to hundreds of milliseconds, so a
/// round is already as long as a block should be; its median is the
/// middle shape's latency and its p90 the slowest shape's, which is
/// where those percentiles of the mixed stream fall.
pub fn end_to_end(run: &RunOutput) -> Vec<Metric> {
    let s = &run.samples;
    let queries: Vec<f64> = s.query_ms.iter().map(|(_, ms)| *ms).collect();
    let sessions: Vec<f64> = s.session_ms.iter().map(|(_, ms)| *ms).collect();
    let n = |count: usize| format!("n={count}");
    let low = |values: &[f64], block: usize, p: u32| {
        quiet_block(values, block, Quiet::Low, |samples| percentile(samples, p))
    };
    let rate = |values: &[f64], block: usize| quiet_block(values, block, Quiet::High, per_second);
    let epoch = crate::stages::EPOCH_LEN as usize;
    END_TO_END
        .iter()
        .map(|spec| {
            let (value, note) = match spec.name {
                "setup_s" => (low(&run.setup_s, 1, 50), n(run.setup_s.len())),
                "deposits_per_s" => (
                    rate(&s.deposit_stream_ms, epoch),
                    n(s.deposit_stream_ms.len()),
                ),
                "deposit_p50_ms" => (low(&s.deposit_ms, BLOCK, 50), n(s.deposit_ms.len())),
                "deposit_p95_ms" => (
                    low(&s.deposit_ms, TAIL_BLOCK, 95),
                    tail_note(s.deposit_ms.len(), 95),
                ),
                "seal_p50_ms" => (low(&s.seal_ms, SPARSE_BLOCK, 50), n(s.seal_ms.len())),
                "queries_per_s" => (rate(&queries, ROUND), n(queries.len())),
                "query_p50_ms" => (low(&queries, ROUND, 50), n(queries.len())),
                "query_p90_ms" => (low(&queries, ROUND, 90), tail_note(queries.len(), 90)),
                "sessions_per_s" => (rate(&sessions, 2 * BLOCK), n(sessions.len())),
                "session_p50_ms" => (low(&sessions, BLOCK, 50), n(sessions.len())),
                "session_p95_ms" => (
                    low(&sessions, TAIL_BLOCK, 95),
                    tail_note(sessions.len(), 95),
                ),
                "audit_check_p50_ms" => (low(&s.audit_ms, SPARSE_BLOCK, 50), n(s.audit_ms.len())),
                "restore_s" => (
                    low(&s.restore_s, 1, 50),
                    format!("n={} of {} records", s.restore_s.len(), s.restored_records),
                ),
                "journal_bytes_per_deposit" => (
                    s.journal_bytes as f64 / s.journal_deposits as f64,
                    n(s.journal_deposits as usize),
                ),
                "wire_bytes_per_query" => (
                    s.query_wire_bytes as f64 / queries.len() as f64,
                    n(queries.len()),
                ),
                "peak_rss_mb" => (run.peak_rss_mib, "harness + dla-node children".into()),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            Metric {
                name: spec.name,
                value,
                unit: spec.unit,
                note,
            }
        })
        .collect()
}

/// Prints the metric lines.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
}

/// The driver's result object. A metric with no samples (every such op
/// failed) is `null`: a failed op is missing every latency figure.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let complete = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && complete
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [Metric {
            name: "setup_s",
            value: 0.8127,
            unit: "s",
            note: String::new(),
        }];
        assert_eq!(
            result_json(1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_json(10, 1, &metrics).starts_with("{\"correct\": false"));
        let missing = [Metric {
            value: f64::NAN,
            ..metrics[0].clone()
        }];
        assert!(result_json(10, 0, &missing).contains("\"correct\": false"));
        assert!(result_json(10, 0, &missing).contains("\"value\": null"));
    }

    #[test]
    fn tail_notes_flag_unsupported_percentiles() {
        assert_eq!(tail_note(120, 90), "n=120 (12 beyond p90)");
        assert!(tail_note(36, 90).contains("supports the median alone"));
        assert!(tail_note(120, 95).contains("supports p90"));
    }
}

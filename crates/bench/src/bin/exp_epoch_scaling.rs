//! Experiment P11: epoch-sharded trail scaling. Grows the log trail
//! while holding the audited time window fixed, and shows that
//!
//! * windowed integrity verification (`integrity::check_window`) folds
//!   only the deposits of the epochs overlapping the window — a
//!   constant as the trail grows — while the every-epoch check
//!   (`integrity::check_trail`) re-folds every deposit ever logged,
//! * the epoch-pruned executor returns byte-identical answers to an
//!   effectively unsharded cluster (one epoch spanning the whole
//!   trail) for the same windowed query.
//!
//! Counts and digests only — wall-clock figures for windowed checks
//! and queries come from `benchmark/run.sh` (`mixed_audit`).
//!
//! Run with: `cargo run -p dla-bench --bin exp_epoch_scaling --release`
//! (writes `BENCH_epoch_scaling.json`).

use dla_audit::cluster::DlaCluster;
use dla_audit::exec::ResilientPolicy;
use dla_audit::integrity::{check_trail, check_window, TrailVerdict};
use dla_audit::plan::TimeWindow;
use dla_audit::query::{CmpOp, Criteria, Predicate};
use dla_bench::{render_markdown_rows, write_snapshot, Json};
use dla_logstore::gen::WorkloadConfig;
use dla_logstore::model::{AttrValue, Glsn};

const SEED: u64 = 11;
const EPOCH_LEN: u64 = 8;
/// A trail length large enough to disable sharding: every deposit
/// lands in epoch 0, so pruning and windowed checks see one epoch.
const UNSHARDED_EPOCH_LEN: u64 = 1 << 40;
/// The audited window: the first WINDOW_SECS seconds of the workload.
/// Held fixed while the trail grows underneath it.
const WINDOW_SECS: u64 = 720;

struct Row {
    records: usize,
    epochs: usize,
    windowed: TrailVerdict,
    full: TrailVerdict,
    answer_glsns: usize,
    answers_identical: bool,
}

fn loaded_cluster(records: usize, epoch_length: u64) -> DlaCluster {
    // Same seed for every trail length: the generated prefix is
    // identical, so the fixed window always covers the same records.
    let config = dla_bench::paper_config(SEED).with_epoch_length(epoch_length);
    dla_bench::loaded_cluster(config, records, SEED).0
}

/// The windowed audit query: `time <= base+WINDOW_SECS AND protocol = UDP`.
fn windowed_criteria(base: u64) -> Criteria {
    Criteria::pred(Predicate::with_const(
        "time",
        CmpOp::Le,
        AttrValue::Time(base + WINDOW_SECS),
    ))
    .and(Criteria::pred(Predicate::with_const(
        "protocol",
        CmpOp::Eq,
        AttrValue::text("UDP"),
    )))
}

fn answer_bytes(glsns: &[Glsn]) -> Vec<u8> {
    let mut sorted: Vec<Glsn> = glsns.to_vec();
    sorted.sort_unstable();
    sorted.iter().flat_map(|g| g.0.to_be_bytes()).collect()
}

fn run_query(cluster: &mut DlaCluster, criteria: &Criteria) -> Vec<Glsn> {
    let normalized = dla_audit::normal::normalize(criteria);
    dla_audit::exec::execute_resilient(cluster, &normalized, &ResilientPolicy::default())
        .expect("query runs")
        .result
        .glsns
}

fn run_row(records: usize) -> Row {
    let mut sharded = loaded_cluster(records, EPOCH_LEN);
    let mut unsharded = loaded_cluster(records, UNSHARDED_EPOCH_LEN);
    let base = WorkloadConfig::default().start_time;
    let window = TimeWindow {
        lo: Some(base),
        hi: Some(base + WINDOW_SECS),
    };

    let windowed = check_window(&sharded, &window);
    let full = check_trail(&sharded);
    assert!(windowed.ok && windowed.chain_ok, "windowed check must pass");
    assert!(full.ok, "full-trail check must pass");

    let criteria = windowed_criteria(base);
    let pruned_answer = run_query(&mut sharded, &criteria);
    let unsharded_answer = run_query(&mut unsharded, &criteria);
    let answers_identical = answer_bytes(&pruned_answer) == answer_bytes(&unsharded_answer);

    Row {
        records,
        epochs: sharded.epoch_stats().count(),
        windowed,
        full,
        answer_glsns: pruned_answer.len(),
        answers_identical,
    }
}

impl Row {
    fn json(&self) -> Json {
        Json::Object(vec![
            ("records", self.records.into()),
            ("epochs", self.epochs.into()),
            ("windowed_folds", self.windowed.items_folded.into()),
            ("windowed_epochs", self.windowed.epochs_checked.into()),
            ("full_folds", self.full.items_folded.into()),
            ("answer_glsns", self.answer_glsns.into()),
            ("answers_identical", self.answers_identical.into()),
        ])
    }
}

fn main() {
    dla_bench::refuse_args();
    let rows: Vec<Row> = [48usize, 96, 192].map(run_row).into();

    // Gates. (1) Answers are byte-identical sharded vs unsharded.
    for r in &rows {
        assert!(
            r.answers_identical,
            "pruned answers diverged from unsharded at {} records",
            r.records
        );
    }
    // (2) The windowed fold count does not move as the trail grows:
    // the window covers the same epochs at every trail length.
    let window_folds = rows[0].windowed.items_folded;
    for r in &rows {
        assert_eq!(
            r.windowed.items_folded, window_folds,
            "windowed folds must stay constant as the trail grows"
        );
        assert_eq!(
            r.full.items_folded, r.records as u64,
            "the full-trail check folds every deposit"
        );
    }
    // (3) At >= 4x trail/window ratio the windowed check folds
    // strictly fewer items than the full-trail re-fold.
    let mut gated = 0usize;
    for r in &rows {
        if r.records as u64 >= 4 * window_folds {
            assert!(
                r.windowed.items_folded < r.full.items_folded,
                "windowed ({}) must fold strictly fewer than full ({}) at {} records",
                r.windowed.items_folded,
                r.full.items_folded,
                r.records
            );
            gated += 1;
        }
    }
    assert!(gated > 0, "at least one row must hit the 4x ratio gate");

    let table: Vec<Json> = rows.iter().map(Row::json).collect();
    // A markdown table: EXPERIMENTS.md P11 quotes it verbatim, and
    // ci.sh diffs the quote against this stdout.
    println!(
        "P11 - EPOCH-SHARDED TRAIL SCALING (epoch={EPOCH_LEN}, window={WINDOW_SECS}s)\n\n{}",
        render_markdown_rows(&table)
    );
    let last = rows.last().expect("at least one row");
    println!(
        "windowed verification folds {} items regardless of trail length (full-trail: {} at {} \
         records); pruned and unsharded answers byte-identical in every row.",
        window_folds, last.full.items_folded, last.records
    );

    write_snapshot(
        "epoch_scaling",
        vec![
            ("epoch_length", EPOCH_LEN.into()),
            ("window_secs", WINDOW_SECS.into()),
            ("window_folds", window_folds.into()),
            ("rows", Json::Array(table)),
        ],
    );
}

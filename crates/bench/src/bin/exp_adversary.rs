//! Experiment: adversary detection & collusion confidentiality —
//! every integrity attack class of the threat model replayed from
//! seeds, with detection rate, responsible detector and detection
//! latency per class; an honest baseline proving zero false alarms;
//! and the §5 confidentiality metrics (`C_store`, `C_auditing`,
//! `C_query`, `C_DLA`) measured empirically under curious-coalition
//! patterns up to threshold `k − 1`, next to the paper's pinned
//! formula values.
//!
//! Run with: `cargo run -p dla-bench --bin exp_adversary --release`
//! (writes `BENCH_adversary.json`).

use dla_audit::adversary::{run_attack, run_coalition, run_honest, AttackClass};
use dla_audit::metrics::paper;
use dla_bench::{render_markdown_rows, render_rows, write_snapshot, Json};

const SEEDS: [u64; 3] = [0xAD01, 0xAD02, 0xAD03];

fn main() {
    dla_bench::refuse_args();

    // Part 1: attack classes × seeds — detection rate and latency.
    let mut attacks = Vec::new();
    let mut undetected = 0usize;
    for class in AttackClass::ALL {
        let mut detected = 0usize;
        let mut messages = 0u64;
        let mut virtual_ns = 0u64;
        let mut by_accumulator = 0usize;
        let mut by_meta = 0usize;
        let mut by_chain = 0usize;
        let mut by_protocol = 0usize;
        for seed in SEEDS {
            let report = run_attack(class, seed).expect("attack scenario runs");
            if report.detected.any() {
                detected += 1;
            } else {
                undetected += 1;
            }
            messages += report.messages_to_detect;
            virtual_ns += report.virtual_ns_to_detect;
            by_accumulator += usize::from(report.detected.accumulator);
            by_meta += usize::from(report.detected.meta_journal);
            by_chain += usize::from(report.detected.checkpoint_chain);
            by_protocol += usize::from(report.detected.protocol);
        }
        let trials = SEEDS.len();
        attacks.push(Json::Object(vec![
            ("class", class.key().into()),
            ("trials", trials.into()),
            ("detected", detected.into()),
            (
                "detection_rate",
                Json::Fixed(detected as f64 / trials as f64, 4),
            ),
            ("mean_messages_to_detect", (messages / trials as u64).into()),
            (
                "mean_virtual_ns_to_detect",
                (virtual_ns / trials as u64).into(),
            ),
            (
                "detected_by",
                Json::Object(vec![
                    ("accumulator", by_accumulator.into()),
                    ("meta_journal", by_meta.into()),
                    ("checkpoint_chain", by_chain.into()),
                    ("protocol", by_protocol.into()),
                ]),
            ),
        ]));
    }
    // EXPERIMENTS.md P13 quotes this table verbatim; ci.sh diffs the two.
    println!(
        "ADVERSARY DETECTION ({} seeds/class)\n\n{}",
        SEEDS.len(),
        render_markdown_rows(&attacks)
    );

    // Part 2: honest negative control — any detector firing on a clean
    // cluster is a false alarm.
    let mut false_alarms = 0usize;
    for seed in SEEDS {
        let report = run_honest(seed).expect("honest baseline runs");
        if report.detected.any() {
            false_alarms += 1;
        }
    }
    println!(
        "honest baseline: {false_alarms} false alarms over {} runs\n",
        SEEDS.len()
    );

    // Part 3: collusion patterns — §5 metrics measured under curious
    // coalitions, with the transcript leak scan.
    let patterns: &[&[usize]] = &[&[], &[1], &[1, 2], &[1, 2, 3]];
    let mut collusion = Vec::new();
    let mut reports = Vec::new();
    for &coalition in patterns {
        let report = run_coalition(SEEDS[0], coalition).expect("coalition scenario runs");
        collusion.push(Json::Object(vec![
            (
                "coalition",
                Json::Array(report.coalition.iter().map(|&m| m.into()).collect()),
            ),
            ("size", report.coalition.len().into()),
            ("observed_domains", report.observed_domains.into()),
            ("c_store", Json::Fixed(report.c_store, 6)),
            ("c_store_formula", Json::Fixed(report.c_store_formula, 6)),
            ("c_auditing", Json::Fixed(report.c_auditing, 6)),
            ("c_query", Json::Fixed(report.c_query, 6)),
            ("c_dla", Json::Fixed(report.c_dla, 6)),
            ("captured_messages", report.captured_messages.into()),
            ("needles_scanned", report.needles_scanned.into()),
            (
                "foreign_plaintext_hits",
                report.foreign_plaintext_hits.into(),
            ),
        ]));
        reports.push(report);
    }
    println!(
        "{}",
        render_rows("COLLUSION: §5 metrics under curious coalitions", &collusion)
    );

    // The gate, before anything is written.
    let mut classes: Vec<&str> = AttackClass::ALL.iter().map(|c| c.key()).collect();
    classes.sort_unstable();
    assert_eq!(
        classes,
        [
            "checkpoint_equivocation",
            "fragment_tamper",
            "malformed_ciphertext",
            "relay_round_lie"
        ],
        "the sweep must cover the threat model's four attack classes"
    );
    assert_eq!(undetected, 0, "every integrity attack must be detected");
    assert_eq!(false_alarms, 0, "honest runs must raise no alarms");
    for r in &reports {
        assert_eq!(
            r.foreign_plaintext_hits, 0,
            "sub-threshold coalition {:?} must learn nothing foreign",
            r.coalition
        );
    }
    let honest = &reports[0];
    assert!(
        honest.coalition.is_empty()
            && (honest.c_store - paper::C_STORE).abs() < 1e-6
            && (honest.c_dla - paper::C_DLA).abs() < 1e-6,
        "with nobody curious the measured C_store/C_DLA are the paper's"
    );
    write_snapshot(
        "adversary",
        vec![
            ("nodes", 4u64.into()),
            ("records", 5u64.into()),
            ("seeds_per_class", SEEDS.len().into()),
            ("attacks", Json::Array(attacks)),
            (
                "honest_baseline",
                Json::Object(vec![
                    ("trials", SEEDS.len().into()),
                    ("false_alarms", false_alarms.into()),
                ]),
            ),
            (
                "paper",
                Json::Object(vec![
                    ("c_store", Json::Fixed(paper::C_STORE, 6)),
                    ("c_auditing_fig3", Json::Fixed(paper::C_AUDITING_FIG3, 6)),
                    ("c_auditing_cross", Json::Fixed(paper::C_AUDITING_CROSS, 6)),
                    ("c_query_fig3", Json::Fixed(paper::C_QUERY_FIG3, 6)),
                    ("c_dla", Json::Fixed(paper::C_DLA, 6)),
                ]),
            ),
            ("collusion", Json::Array(collusion)),
        ],
    );
}

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
//! (writes `BENCH_adversary.json`; `--quick` is the reduced sweep CI
//! runs, which asserts the same gate and writes nothing).

use dla_audit::adversary::{run_attack, run_coalition, run_honest, AttackClass};
use dla_audit::metrics::paper;
use dla_bench::{render_table, write_snapshot};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: &[u64] = if quick {
        &[0xAD01]
    } else {
        &[0xAD01, 0xAD02, 0xAD03]
    };

    // Part 1: attack classes × seeds — detection rate and latency.
    let mut rows = Vec::new();
    let mut attacks_json = Vec::new();
    let mut undetected = 0usize;
    for class in AttackClass::ALL {
        let mut detected = 0usize;
        let mut messages = 0u64;
        let mut virtual_ns = 0u64;
        let mut by_accumulator = 0usize;
        let mut by_meta = 0usize;
        let mut by_chain = 0usize;
        let mut by_protocol = 0usize;
        for &seed in seeds {
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
        let trials = seeds.len();
        let mean_messages = messages / trials as u64;
        let mean_ns = virtual_ns / trials as u64;
        rows.push(vec![
            class.key().to_string(),
            format!("{detected}/{trials}"),
            format!("{mean_messages}"),
            format!("{mean_ns}"),
            format!("acc={by_accumulator} meta={by_meta} chain={by_chain} proto={by_protocol}"),
        ]);
        attacks_json.push(format!(
            concat!(
                "    {{\n",
                "      \"class\": \"{class}\",\n",
                "      \"trials\": {trials},\n",
                "      \"detected\": {detected},\n",
                "      \"detection_rate\": {rate:.4},\n",
                "      \"mean_messages_to_detect\": {msgs},\n",
                "      \"mean_virtual_ns_to_detect\": {ns},\n",
                "      \"detected_by\": {{\"accumulator\": {acc}, \"meta_journal\": {meta}, ",
                "\"checkpoint_chain\": {chain}, \"protocol\": {proto}}}\n",
                "    }}",
            ),
            class = class.key(),
            trials = trials,
            detected = detected,
            rate = detected as f64 / trials as f64,
            msgs = mean_messages,
            ns = mean_ns,
            acc = by_accumulator,
            meta = by_meta,
            chain = by_chain,
            proto = by_protocol,
        ));
    }
    println!(
        "{}",
        render_table(
            &format!("ADVERSARY DETECTION ({} seeds/class)", seeds.len()),
            &[
                "attack class",
                "detected",
                "msgs",
                "virtual ns",
                "detectors"
            ],
            &rows
        )
    );

    // Part 2: honest negative control — any detector firing on a clean
    // cluster is a false alarm.
    let mut false_alarms = 0usize;
    for &seed in seeds {
        let report = run_honest(seed).expect("honest baseline runs");
        if report.detected.any() {
            false_alarms += 1;
        }
    }
    println!(
        "honest baseline: {false_alarms} false alarms over {} runs\n",
        seeds.len()
    );

    // Part 3: collusion patterns — §5 metrics measured under curious
    // coalitions, with the transcript leak scan.
    let patterns: &[&[usize]] = &[&[], &[1], &[1, 2], &[1, 2, 3]];
    let mut rows = Vec::new();
    let mut collusion_json = Vec::new();
    let mut reports = Vec::new();
    for &coalition in patterns {
        let report = run_coalition(seeds[0], coalition).expect("coalition scenario runs");
        rows.push(vec![
            format!("{coalition:?}"),
            format!("{}", report.observed_domains),
            format!("{:.4}", report.c_store),
            format!("{:.4}", report.c_auditing),
            format!("{:.4}", report.c_query),
            format!("{:.4}", report.c_dla),
            format!(
                "{}/{}",
                report.foreign_plaintext_hits, report.captured_messages
            ),
        ]);
        let members: Vec<String> = report.coalition.iter().map(usize::to_string).collect();
        collusion_json.push(format!(
            concat!(
                "    {{\n",
                "      \"coalition\": [{members}],\n",
                "      \"size\": {size},\n",
                "      \"observed_domains\": {u},\n",
                "      \"c_store\": {cs:.6},\n",
                "      \"c_store_formula\": {csf:.6},\n",
                "      \"c_auditing\": {ca:.6},\n",
                "      \"c_query\": {cq:.6},\n",
                "      \"c_dla\": {cd:.6},\n",
                "      \"captured_messages\": {cap},\n",
                "      \"needles_scanned\": {needles},\n",
                "      \"foreign_plaintext_hits\": {hits}\n",
                "    }}",
            ),
            members = members.join(", "),
            size = report.coalition.len(),
            u = report.observed_domains,
            cs = report.c_store,
            csf = report.c_store_formula,
            ca = report.c_auditing,
            cq = report.c_query,
            cd = report.c_dla,
            cap = report.captured_messages,
            needles = report.needles_scanned,
            hits = report.foreign_plaintext_hits,
        ));
        reports.push(report);
    }
    println!(
        "{}",
        render_table(
            "COLLUSION: §5 metrics under curious coalitions",
            &[
                "coalition",
                "u",
                "C_store",
                "C_auditing",
                "C_query",
                "C_DLA",
                "leaks/seen",
            ],
            &rows
        )
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"adversary\",\n",
            "  \"nodes\": 4,\n",
            "  \"records\": 5,\n",
            "  \"seeds_per_class\": {seeds_n},\n",
            "  \"attacks\": [\n{attacks}\n  ],\n",
            "  \"honest_baseline\": {{\"trials\": {seeds_n}, \"false_alarms\": {fa}}},\n",
            "  \"paper\": {{\"c_store\": {p_cs:.6}, \"c_auditing_fig3\": {p_ca:.6}, ",
            "\"c_auditing_cross\": {p_cx:.6}, \"c_query_fig3\": {p_cq:.6}, ",
            "\"c_dla\": {p_cd:.6}}},\n",
            "  \"collusion\": [\n{collusion}\n  ]\n",
            "}}\n",
        ),
        seeds_n = seeds.len(),
        attacks = attacks_json.join(",\n"),
        fa = false_alarms,
        p_cs = paper::C_STORE,
        p_ca = paper::C_AUDITING_FIG3,
        p_cx = paper::C_AUDITING_CROSS,
        p_cq = paper::C_QUERY_FIG3,
        p_cd = paper::C_DLA,
        collusion = collusion_json.join(",\n"),
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
    write_snapshot("adversary", quick, &json);
}

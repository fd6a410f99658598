//! Experiment P1 (§3 cost claim): relaxed secure sum vs. the classical
//! zero-disclosure baseline (Feldman-VSS verified sharing with result
//! broadcast) vs. the insecure plaintext reference, swept over the
//! party count.
//!
//! The paper claims classical protocols have "excessive computing and
//! communication overheads"; this experiment quantifies the gap on
//! identical inputs.
//!
//! Run with: `cargo run -p dla-bench --bin exp_sum_scaling --release`

use dla_bench::{fmt_bytes, ideal_net, metered, render_table};
use dla_bigint::{Ubig, F61};
use dla_crypto::schnorr::SchnorrGroup;
use dla_mpc::baseline::{plaintext_sum, vss_sum};
use dla_mpc::SumSession;
use dla_net::{NodeId, Session};
use rand::SeedableRng;

fn main() {
    dla_bench::refuse_args();
    let group = SchnorrGroup::fixed_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(111);
    let mut rows = Vec::new();

    for n in [2usize, 4, 8, 16, 32] {
        let k = n / 2 + 1;
        let values: Vec<u64> = (1..=n as u64).map(|v| v * 10).collect();
        let expect: u64 = values.iter().sum();
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();

        // Plaintext reference.
        let net = ideal_net(n + 1);
        let session = Session::root(&net);
        let plain = plaintext_sum(&session, &parties, &values, NodeId(n)).expect("runs");
        assert_eq!(plain.total, Ubig::from_u64(expect));

        // Relaxed §3.5 secure sum.
        let net = ideal_net(n + 1);
        let inputs: Vec<F61> = values.iter().map(|&v| F61::new(v)).collect();
        let (relaxed, relaxed_cost) = metered(|| {
            SumSession::new(Session::root(&net), &parties, k, NodeId(n))
                .run(&inputs, &mut rng)
                .expect("runs")
        });
        assert_eq!(relaxed.total, F61::new(expect));

        // Classical VSS baseline.
        let net = ideal_net(n);
        let session = Session::root(&net);
        let inputs_big: Vec<Ubig> = values.iter().map(|&v| Ubig::from_u64(v)).collect();
        let (vss, vss_cost) = metered(|| {
            vss_sum(&session, &group, &parties, &inputs_big, k, &mut rng).expect("runs")
        });
        assert_eq!(vss.total, Ubig::from_u64(expect));

        rows.push(vec![
            n.to_string(),
            format!(
                "{} / {}",
                plain.report.messages,
                fmt_bytes(plain.report.bytes)
            ),
            format!(
                "{} / {} / {}",
                relaxed.report.messages,
                fmt_bytes(relaxed.report.bytes),
                relaxed_cost.shamir_eval
            ),
            format!(
                "{} / {} / {}",
                vss.report.messages,
                fmt_bytes(vss.report.bytes),
                vss_cost.modexp
            ),
            format!(
                "{:.1}x",
                vss.report.bytes as f64 / relaxed.report.bytes as f64
            ),
        ]);
    }

    println!(
        "{}",
        render_table(
            "P1 - SECURE SUM: relaxed (Shamir, §3.5) vs classical (Feldman VSS + broadcast)",
            &[
                "n",
                "plaintext msgs/bytes",
                "relaxed msgs/bytes/shamir evals",
                "classical msgs/bytes/modexp",
                "bytes ratio",
            ],
            &rows
        )
    );
    println!("shape: both secure protocols are O(n^2) messages, but the classical");
    println!("baseline ships k commitments per share and runs O(n^2 k) modexp");
    println!("verifications — the byte and CPU gap widens with n, matching the");
    println!("paper's argument for the relaxed model.");
}

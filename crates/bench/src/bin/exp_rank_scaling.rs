//! Experiment P3 (§3.3): blind-TTP secure ranking vs. the classical
//! pairwise-comparison tournament.
//!
//! "However, if all n parties negotiate for a transformation, and let a
//! blind TTP process these transformed numbers, the cost of the three
//! operations will be significantly reduced." — quantified here.
//!
//! Run with: `cargo run -p dla-bench --bin exp_rank_scaling --release`

use dla_bench::{fmt_bytes, ideal_net, metered, render_table};
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::baseline::baseline_ranking;
use dla_mpc::RankingSession;
use dla_net::{NodeId, Session};
use rand::{Rng, SeedableRng};

fn main() {
    dla_bench::refuse_args();
    let domain = CommutativeDomain::fixed_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(333);
    let mut rows = Vec::new();

    for n in [2usize, 3, 4, 6, 8] {
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 30)).collect();
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();

        // Relaxed: order-preserving masking + blind TTP.
        let net = ideal_net(n + 1);
        let (relaxed, relaxed_cost) = metered(|| {
            RankingSession::new(Session::root(&net), &parties, NodeId(n))
                .run(&values, &mut rng)
                .expect("runs")
        });

        // Classical: n(n-1)/2 pairwise Lin–Tzeng comparisons (each a
        // full 2-party commutative-cipher set intersection).
        let net = ideal_net(n);
        let session = Session::root(&net);
        let (classical, classical_cost) = metered(|| {
            baseline_ranking(&session, &domain, &parties, &values, &mut rng).expect("runs")
        });

        assert_eq!(relaxed.ascending, classical.ascending, "same ranking");
        rows.push(vec![
            n.to_string(),
            format!(
                "{} / {} / {}",
                relaxed.report.messages,
                fmt_bytes(relaxed.report.bytes),
                relaxed_cost.modexp
            ),
            format!(
                "{} / {} / {}",
                classical.report.messages,
                fmt_bytes(classical.report.bytes),
                classical_cost.modexp
            ),
            format!(
                "{:.0}x msgs, {:.0}x bytes",
                classical.report.messages as f64 / relaxed.report.messages as f64,
                classical.report.bytes as f64 / relaxed.report.bytes as f64
            ),
        ]);
    }

    println!(
        "{}",
        render_table(
            "P3 - Rank_s: blind-TTP (relaxed, §3.3) vs pairwise 2PC tournament",
            &[
                "n",
                "relaxed msgs/bytes/modexp",
                "classical msgs/bytes/modexp",
                "gap"
            ],
            &rows
        )
    );
    println!("shape: relaxed is 3n-1 messages and near-zero crypto; the classical");
    println!("tournament runs O(n^2) two-party set intersections with ~64 modexps");
    println!("each — the cost gap the paper's TTP relaxation buys.");
}

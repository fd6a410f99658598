//! Experiment P2: commutative-encryption set intersection cost vs. set
//! size and party count (§3.1), plus the effect of the domain width
//! (256- vs 512-bit safe primes).
//!
//! Run with: `cargo run -p dla-bench --bin exp_ssi_scaling --release`

use dla_bench::{fmt_bytes, ideal_net, metered, render_table};
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::SsiSession;
use dla_net::topology::Ring;
use dla_net::{NodeId, Session};
use dla_telemetry::CostVector;
use rand::SeedableRng;

fn run_once(
    n: usize,
    set_size: usize,
    domain: &CommutativeDomain,
    seed: u64,
) -> (dla_mpc::set_intersection::SsiOutcome, CostVector) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = ideal_net(n);
    let ring = Ring::canonical(n);
    let inputs = dla_bench::half_shared_sets(n, set_size);
    metered(move || {
        SsiSession::new(Session::root(&net), &ring, domain, NodeId(0))
            .run(&inputs, &mut rng)
            .expect("protocol runs")
    })
}

fn main() {
    dla_bench::refuse_args();
    let domain256 = CommutativeDomain::fixed_256();
    let domain512 = CommutativeDomain::fixed_512();

    // Sweep party count at fixed set size.
    let mut rows = Vec::new();
    for n in [2usize, 3, 4, 6, 8] {
        let (outcome, cost) = run_once(n, 16, &domain256, n as u64);
        assert_eq!(outcome.cardinality(), 8);
        rows.push(vec![
            n.to_string(),
            outcome.report.messages.to_string(),
            fmt_bytes(outcome.report.bytes),
            cost.modexp.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "P2a - SSI vs PARTY COUNT (16-element sets, 256-bit domain)",
            &["parties", "messages", "bytes", "modexp"],
            &rows
        )
    );
    println!("shape: n(n-1)+n messages — quadratic relays dominate.\n");

    // Sweep set size at fixed party count.
    let mut rows = Vec::new();
    for set_size in [4usize, 16, 64, 256] {
        let (outcome, cost) = run_once(3, set_size, &domain256, 100 + set_size as u64);
        assert_eq!(outcome.cardinality(), set_size / 2);
        rows.push(vec![
            set_size.to_string(),
            outcome.report.messages.to_string(),
            fmt_bytes(outcome.report.bytes),
            cost.modexp.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "P2b - SSI vs SET SIZE (3 parties, 256-bit domain)",
            &["set size", "messages", "bytes", "modexp"],
            &rows
        )
    );
    println!("shape: messages constant in set size; bytes and CPU linear.\n");

    // Domain width ablation.
    let mut rows = Vec::new();
    for (label, domain) in [("256-bit", &domain256), ("512-bit", &domain512)] {
        let (outcome, cost) = run_once(3, 32, domain, 999);
        rows.push(vec![
            label.to_owned(),
            fmt_bytes(outcome.report.bytes),
            format!("{} / {}", cost.modexp, cost.mont_mul_steps),
        ]);
    }
    println!(
        "{}",
        render_table(
            "P2c - DOMAIN WIDTH ABLATION (3 parties, 32-element sets)",
            &["safe prime", "bytes", "modexp / mont-mul steps"],
            &rows
        )
    );
    println!("shape: doubling the modulus doubles bytes and ~4-8x's the modexp cost.");
}

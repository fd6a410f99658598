//! Experiment F4: the Figure 4 secure-set-intersection trace, printed
//! in the paper's own layout — S1={c,d,e}, S2={d,e,f}, S3={e,f,g},
//! every relay hop, and the triple-encrypted coincidence
//! E132(e) = E321(e) = E213(e).
//!
//! Run with: `cargo run -p dla-bench --bin fig4_ssi_trace`

use dla_bench::{ideal_net, render_table};
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::SsiSession;
use dla_net::topology::Ring;
use dla_net::{NodeId, Session};
use rand::SeedableRng;

fn main() {
    dla_bench::refuse_args();
    let sets: [&[&str]; 3] = [&["c", "d", "e"], &["d", "e", "f"], &["e", "f", "g"]];
    let net = ideal_net(3);
    let ring = Ring::canonical(3);
    let domain = CommutativeDomain::fixed_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let inputs: Vec<Vec<Vec<u8>>> = sets
        .iter()
        .map(|s| s.iter().map(|e| e.as_bytes().to_vec()).collect())
        .collect();

    let outcome = SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
        .reveal(true)
        .traced()
        .run(&inputs, &mut rng)
        .expect("protocol succeeds");
    let trace = &outcome.trace;

    let mut rows = Vec::new();
    for hop in trace {
        let layer_label: String = hop
            .layers
            .iter()
            .rev()
            .map(|l| (l + 1).to_string())
            .collect();
        let items: Vec<String> = sets[hop.origin]
            .iter()
            .zip(&hop.elements)
            .map(|(name, ct)| format!("E{layer_label}({name})={}…", &ct.to_hex()[..6]))
            .collect();
        rows.push(vec![
            format!("S{}", hop.origin + 1),
            format!("P{}", hop.holder + 1),
            hop.layers.len().to_string(),
            items.join("  "),
        ]);
    }
    println!(
        "{}",
        render_table(
            "FIGURE 4 - SECURE SET INTERSECTION (3 nodes, 2 relay hops)",
            &["set", "holder", "layers", "encrypted elements"],
            &rows
        )
    );

    // The coincidence check: the fully-encrypted value of "e" is equal
    // across all three sets, regardless of encryption order.
    let finals: Vec<_> = trace.iter().filter(|h| h.layers.len() == 3).collect();
    let common = &outcome.common_encrypted[0];
    println!("fully-encrypted common value: {}…", &common.to_hex()[..16]);
    for f in &finals {
        let pos = f
            .elements
            .iter()
            .position(|e| e == common)
            .expect("common element present");
        let order: String = f.layers.iter().rev().map(|l| (l + 1).to_string()).collect();
        println!(
            "  set S{}: element #{} encrypted in order E{}(e) -> identical",
            f.origin + 1,
            pos + 1,
            order
        );
    }
    let decoded: Vec<String> = outcome
        .common_items
        .unwrap_or_default()
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    println!("\nS1 ∩ S2 ∩ S3 = {{{}}}", decoded.join(", "));
    println!(
        "cost: {} messages, {} bytes",
        outcome.report.messages, outcome.report.bytes
    );
    assert_eq!(decoded, ["e"]);
}

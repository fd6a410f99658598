//! The Figure 4 walkthrough, hop by hop.
//!
//! Three DLA nodes hold private sets S1={c,d,e}, S2={d,e,f}, S3={e,f,g}.
//! Each set travels the ring collecting one commutative-encryption
//! layer per node; after two hops the triple-encrypted sets share
//! exactly one value — E132(e) = E321(e) = E213(e) — and the parties
//! decode the plaintext "e" by removing their layers.
//!
//! Run with: `cargo run --example secure_set_intersection`

use confidential_audit::crypto::pohlig_hellman::CommutativeDomain;
use confidential_audit::mpc::SsiSession;
use confidential_audit::net::topology::Ring;
use confidential_audit::net::{NetConfig, NodeId, Session, SharedNet, SimNet};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sets: [&[&str]; 3] = [&["c", "d", "e"], &["d", "e", "f"], &["e", "f", "g"]];
    println!("S1 = {{c, d, e}},  S2 = {{d, e, f}},  S3 = {{e, f, g}}\n");

    // The protocol runs on a session — here the root session of a
    // simulated three-node network; a `ChannelNet` or `TcpNet` would do.
    let net = SharedNet::new(SimNet::new(3, NetConfig::ideal()));
    let ring = Ring::canonical(3);
    let domain = CommutativeDomain::fixed_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);

    let inputs: Vec<Vec<Vec<u8>>> = sets
        .iter()
        .map(|s| s.iter().map(|e| e.as_bytes().to_vec()).collect())
        .collect();

    let outcome = SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
        .reveal(true)
        .traced()
        .run(&inputs, &mut rng)?;

    // Print the hop trace in the paper's E-layer notation.
    for hop in &outcome.trace {
        let layers: String = hop
            .layers
            .iter()
            .rev()
            .map(|l| (l + 1).to_string())
            .collect();
        let elements: Vec<String> = hop
            .elements
            .iter()
            .map(|e| {
                let hex = e.to_hex();
                format!("{}…", &hex[..8])
            })
            .collect();
        println!(
            "set S{} at P{}: {{E{}(·)}} = [{}]",
            hop.origin + 1,
            hop.holder + 1,
            layers,
            elements.join(", ")
        );
    }

    println!(
        "\nfully-encrypted common value (identical in all three sets): {}…",
        &outcome.common_encrypted[0].to_hex()[..16]
    );
    let items: Vec<String> = outcome
        .common_items
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    println!("decoded intersection: {{{}}}", items.join(", "));
    println!(
        "\ncost: {} messages, {} bytes, {} protocol rounds",
        outcome.report.messages, outcome.report.bytes, outcome.report.rounds
    );
    assert_eq!(items, ["e"]);
    Ok(())
}

//! Experiment F7: the Figure 7 r-binding handshake — token creation by
//! the credential authority (`g(t) =? 1`), the three-phase PP/SC/RE
//! exchange, evidence verification (`f(e) =? 1`), and forgery
//! rejection.
//!
//! Run with: `cargo run -p dla-bench --bin fig7_rbinding`

use dla_bench::paper::evidence::{verify_spend, EvidenceChain, MembershipAuthority};
use dla_crypto::schnorr::SchnorrGroup;
use rand::SeedableRng;

fn main() {
    dla_bench::refuse_args();
    let mut rng = rand::rngs::StdRng::seed_from_u64(707);
    let group = SchnorrGroup::fixed_256();
    let mut authority = MembershipAuthority::new(&group, &mut rng);

    // Creation phase: the credential authority grants tokens.
    let py = authority.enroll("p-y.example", &mut rng);
    let px = authority.enroll("p-x.example", &mut rng);
    println!("credential authority grants tokens:");
    for (who, token) in [("P_y", py.invite_token()), ("P_x", px.join_token())] {
        let ok = token.verify_certification(&group, authority.ca_public());
        println!("  {who}: token #{} — g(t) =? 1 → {ok}", token.serial);
        assert!(ok);
    }

    // Three-phase handshake (modelled in EvidenceChain::invite):
    println!("\nthree-way handshake:");
    println!("  phase 1  P_y -> P_x : PP (policy proposal)");
    println!("  phase 2  P_x -> P_y : SC (service commitment)");
    println!("  phase 3  P_y -> P_x : RE (evidence + invite authority)");
    let mut chain = EvidenceChain::found(&authority, &py, "charter", &mut rng);
    let piece = chain
        .invite(
            &py,
            &px,
            "PP: store fragments for attribute set A_x",
            "SC: committed, with 99.9% availability",
            &mut rng,
        )
        .clone();

    // Verification phase: f(e) =? 1.
    println!(
        "\nverification of the new evidence piece e{}:",
        piece.seq + 1
    );
    let inviter = piece.inviter.as_ref().expect("non-genesis piece");
    let context_ok = chain.verify().is_ok();
    println!("  full-chain f(e) =? 1 → {context_ok}");
    assert!(context_ok);

    // The binding is unforgeable: replaying the inviter's spend on a
    // different context fails.
    let forged_context = b"a different piece entirely";
    let replay_ok = verify_spend(
        authority.params(),
        &inviter.token,
        forged_context,
        &inviter.spend,
    );
    println!("  replaying P_y's spend on a forged context → {replay_ok}");
    assert!(!replay_ok);

    // Tampering with the bound terms breaks the piece.
    let mut tampered = chain;
    tampered_terms(&mut tampered);
    println!(
        "  tampering with the bound SC terms → verify: {:?}",
        tampered.verify().err().map(|e| e.to_string())
    );
    assert!(tampered.verify().is_err());
}

fn tampered_terms(chain: &mut EvidenceChain) {
    // Test-only surgery through the public API: rebuild with modified
    // terms is impossible without the secrets, so mutate in place via
    // the pieces accessor — the struct fields are public by design for
    // audit inspection.
    let piece = chain.pieces_mut().last_mut().expect("nonempty");
    piece.service_commitment = "SC: committed, with 0.1% availability".into();
}

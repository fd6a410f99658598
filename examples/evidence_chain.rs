//! Anonymous DLA membership with undeniable evidence (Figures 6–7).
//!
//! Nodes join the cluster through the PP/SC/RE three-way handshake,
//! staying pseudonymous. Each member holds a one-time invite token;
//! the chain verifies end to end, and a member that invites *twice*
//! (after its authority passed on) is algebraically de-anonymized —
//! the e-coin double-spend deterrent the paper builds on.
//!
//! Run with: `cargo run --example evidence_chain`

use confidential_audit::crypto::schnorr::SchnorrGroup;
use dla_bench::paper::evidence::{EvidenceChain, MembershipAuthority};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let group = SchnorrGroup::fixed_256();
    let mut authority = MembershipAuthority::new(&group, &mut rng);

    // Four organizations enroll with the credential authority. Their
    // true names never appear on the chain.
    let acme = authority.enroll("acme-payments.example", &mut rng);
    let globex = authority.enroll("globex-retail.example", &mut rng);
    let initech = authority.enroll("initech-billing.example", &mut rng);
    let hooli = authority.enroll("hooli-cloud.example", &mut rng);

    // Founding + two legitimate invites (each piece = one PP/SC/RE
    // handshake binding the negotiated service terms).
    let mut chain = EvidenceChain::found(
        &authority,
        &acme,
        "charter: store fragments, serve relaxed secure computations",
        &mut rng,
    );
    chain.invite(
        &acme,
        &globex,
        "PP: store time+id fragments; serve set-intersection queries",
        "SC: agreed, capacity 10k records",
        &mut rng,
    );
    chain.invite(
        &globex,
        &initech,
        "PP: store tid fragments; serve secure-sum aggregation",
        "SC: agreed, capacity 50k records",
        &mut rng,
    );

    println!("evidence chain after 3 honest joins:");
    for piece in chain.pieces() {
        println!(
            "  e{}: joiner token #{}, inviter token {}, terms: {:?}",
            piece.seq + 1,
            piece.joiner.token.serial,
            piece
                .inviter
                .as_ref()
                .map_or("-".to_owned(), |p| format!("#{}", p.token.serial)),
            piece.policy_proposal
        );
    }
    chain.verify()?;
    println!("chain verification: OK (digests, CA certifications, spends, signatures)");
    println!("double-use scan: {:?}", chain.detect_double_use());
    assert!(chain.detect_double_use().is_empty());

    // Globex misbehaves: having already passed its invite authority to
    // Initech, it invites Hooli anyway — its invite token is spent a
    // second time on a different context.
    println!("\nGlobex invites a second node after passing on its authority…");
    chain.invite(
        &globex,
        &hooli,
        "PP: back-channel deal",
        "SC: agreed",
        &mut rng,
    );
    chain.verify()?; // every piece is individually valid…
    let exposed = chain.detect_double_use();
    assert_eq!(exposed.len(), 1);
    println!("…but the double spend exposes the cheater:");
    for e in &exposed {
        println!(
            "  token #{} double-used; recovered identity scalar {}…",
            e.serial,
            &e.identity.to_hex()[..12]
        );
        println!(
            "  credential authority resolves it to: {}",
            authority.identify(&e.identity).unwrap_or("<unknown>")
        );
        assert_eq!(
            authority.identify(&e.identity),
            Some("globex-retail.example")
        );
    }
    Ok(())
}

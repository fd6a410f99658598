//! Experiment F6: the Figure 6 evidence chain — member joins as chain
//! pieces e1…e4, end-to-end verification, and the double-invite
//! exposure property.
//!
//! Run with: `cargo run -p dla-bench --bin fig6_evidence_chain`

use dla_bench::paper::evidence::{EvidenceChain, MembershipAuthority};
use dla_bench::render_table;
use dla_crypto::schnorr::SchnorrGroup;
use rand::SeedableRng;

fn main() {
    dla_bench::refuse_args();
    let mut rng = rand::rngs::StdRng::seed_from_u64(606);
    let group = SchnorrGroup::fixed_256();
    let mut authority = MembershipAuthority::new(&group, &mut rng);

    // Figure 6's P0..P3 join chain.
    let creds: Vec<_> = (0..4)
        .map(|i| authority.enroll(&format!("org-{i}.example"), &mut rng))
        .collect();
    let mut chain = EvidenceChain::found(&authority, &creds[0], "cluster charter", &mut rng);
    for i in 1..4 {
        chain.invite(
            &creds[i - 1],
            &creds[i],
            &format!("PP: serve DLA role #{i}"),
            "SC: agreed",
            &mut rng,
        );
    }

    let rows: Vec<Vec<String>> = chain
        .pieces()
        .iter()
        .map(|p| {
            vec![
                format!("e{}", p.seq + 1),
                p.inviter
                    .as_ref()
                    .map_or("(genesis)".into(), |i| format!("token #{}", i.token.serial)),
                format!("token #{}", p.joiner.token.serial),
                format!("{}…", hex_prefix(&p.digest)),
                p.policy_proposal.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "FIGURE 6 - DLA NODE JOIN CHAIN (evidence pieces)",
            &["piece", "inviter", "joiner", "digest", "bound terms"],
            &rows
        )
    );

    println!("chain verification: {:?}", chain.verify().map(|()| "OK"));
    println!(
        "authorized next inviter: join-token #{}",
        chain.authorized_inviter()
    );
    println!(
        "double-use scan (honest chain): {:?}",
        chain.detect_double_use()
    );

    // One member breaks the one-invite rule.
    let extra = authority.enroll("late-joiner.example", &mut rng);
    chain.invite(&creds[1], &extra, "PP: out of turn", "SC", &mut rng);
    let exposed = chain.detect_double_use();
    println!("\nafter org-1 invites out of turn:");
    for e in &exposed {
        println!(
            "  token #{} double-used -> identity: {}",
            e.serial,
            authority.identify(&e.identity).unwrap_or("<unknown>")
        );
    }
    assert_eq!(exposed.len(), 1);
}

fn hex_prefix(digest: &[u8; 32]) -> String {
    digest[..6].iter().map(|b| format!("{b:02x}")).collect()
}

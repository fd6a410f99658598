//! Experiment P3 (Criterion form): blind-TTP `Rank_s` vs. the pairwise
//! comparison tournament.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dla_bench::ideal_net;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::baseline::baseline_ranking;
use dla_mpc::RankingSession;
use dla_net::{NodeId, Session};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_ranking(c: &mut Criterion) {
    let domain = CommutativeDomain::fixed_256();
    let mut group = c.benchmark_group("ranking");
    group.sample_size(10);

    for n in [3usize, 5] {
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let values: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 11) % 100).collect();

        group.bench_with_input(BenchmarkId::new("relaxed_blind_ttp", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let net = ideal_net(n + 1);
                black_box(
                    RankingSession::new(Session::root(&net), &parties, NodeId(n))
                        .run(&values, &mut rng)
                        .expect("runs"),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("classical_pairwise", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let net = ideal_net(n);
                let session = Session::root(&net);
                black_box(
                    baseline_ranking(&session, &domain, &parties, &values, &mut rng).expect("runs"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ranking);
criterion_main!(benches);

//! Experiment P2 (Criterion form): secure set intersection cost over
//! party count and set size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dla_bench::ideal_net;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_mpc::SsiSession;
use dla_net::topology::Ring;
use dla_net::{NodeId, Session};
use rand::SeedableRng;
use std::hint::black_box;

fn inputs(n: usize, set_size: usize) -> Vec<Vec<Vec<u8>>> {
    (0..n)
        .map(|party| {
            (0..set_size)
                .map(|i| {
                    if i % 2 == 0 {
                        format!("shared-{i}").into_bytes()
                    } else {
                        format!("private-{party}-{i}").into_bytes()
                    }
                })
                .collect()
        })
        .collect()
}

fn bench_ssi(c: &mut Criterion) {
    let domain = CommutativeDomain::fixed_256();
    let mut group = c.benchmark_group("set_intersection");
    group.sample_size(10);

    for n in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parties", n), &n, |b, &n| {
            let sets = inputs(n, 16);
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                let net = ideal_net(n);
                let ring = Ring::canonical(n);
                black_box(
                    SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
                        .run(&sets, &mut rng)
                        .expect("runs"),
                )
            });
        });
    }

    for set_size in [8usize, 32, 128] {
        group.bench_with_input(
            BenchmarkId::new("set_size", set_size),
            &set_size,
            |b, &set_size| {
                let sets = inputs(3, set_size);
                b.iter(|| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
                    let net = ideal_net(3);
                    let ring = Ring::canonical(3);
                    black_box(
                        SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
                            .run(&sets, &mut rng)
                            .expect("runs"),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ssi);
criterion_main!(benches);

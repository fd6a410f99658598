//! Experiment P1 (Criterion form): relaxed secure sum vs. the Feldman
//! VSS classical baseline vs. plaintext, at n = 4 and n = 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dla_bench::ideal_net;
use dla_bigint::{Ubig, F61};
use dla_crypto::schnorr::SchnorrGroup;
use dla_mpc::baseline::{plaintext_sum, vss_sum};
use dla_mpc::SumSession;
use dla_net::{NodeId, Session};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sums(c: &mut Criterion) {
    let group_params = SchnorrGroup::fixed_256();
    let mut group = c.benchmark_group("secure_sum");
    group.sample_size(10);

    for n in [4usize, 8] {
        let k = n / 2 + 1;
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let values: Vec<u64> = (1..=n as u64).collect();

        group.bench_with_input(BenchmarkId::new("plaintext", n), &n, |b, &n| {
            b.iter(|| {
                let net = ideal_net(n + 1);
                let session = Session::root(&net);
                black_box(plaintext_sum(&session, &parties, &values, NodeId(n)).expect("runs"))
            });
        });

        group.bench_with_input(BenchmarkId::new("relaxed_shamir", n), &n, |b, &n| {
            let inputs: Vec<F61> = values.iter().map(|&v| F61::new(v)).collect();
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                let net = ideal_net(n + 1);
                black_box(
                    SumSession::new(Session::root(&net), &parties, k, NodeId(n))
                        .run(&inputs, &mut rng)
                        .expect("runs"),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("classical_vss", n), &n, |b, &n| {
            let inputs: Vec<Ubig> = values.iter().map(|&v| Ubig::from_u64(v)).collect();
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                let net = ideal_net(n);
                let session = Session::root(&net);
                black_box(
                    vss_sum(&session, &group_params, &parties, &inputs, k, &mut rng).expect("runs"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sums);
criterion_main!(benches);

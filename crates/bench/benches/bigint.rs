//! Substrate ablation: every modular-exponentiation rung side by side
//! — division-based schoolbook, Montgomery bit-at-a-time, the generic
//! sliding window and the fixed-width kernel production runs on — the
//! optimization every protocol's CPU budget rides on. This is where the
//! P10/P15 ladder (EXPERIMENTS.md) is re-measured on demand.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dla_bigint::modular;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::{SAFE_PRIME_256_HEX, SAFE_PRIME_512_HEX};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_modexp(c: &mut Criterion) {
    let mut group = c.benchmark_group("modexp");
    for (label, hex) in [("256", SAFE_PRIME_256_HEX), ("512", SAFE_PRIME_512_HEX)] {
        let p = Ubig::from_hex(hex).expect("valid constant");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let base = Ubig::random_below(&mut rng, &p);
        let exp = Ubig::random_below(&mut rng, &p);

        group.bench_with_input(BenchmarkId::new("schoolbook", label), &p, |b, p| {
            b.iter(|| black_box(modular::modexp_schoolbook(&base, &exp, p)));
        });
        group.bench_with_input(BenchmarkId::new("montgomery", label), &p, |b, p| {
            b.iter(|| black_box(modular::modexp(&base, &exp, p)));
        });
        group.bench_with_input(
            BenchmarkId::new("montgomery_reused_ctx", label),
            &p,
            |b, p| {
                let ctx = MontgomeryContext::new(p).expect("odd modulus");
                b.iter(|| black_box(ctx.modexp(&base, &exp)));
            },
        );
        // The slower Montgomery rungs kept as differential oracles.
        group.bench_with_input(BenchmarkId::new("modexp_binary", label), &p, |b, p| {
            let ctx = MontgomeryContext::new(p).expect("odd modulus");
            b.iter(|| black_box(ctx.modexp_binary(&base, &exp)));
        });
        group.bench_with_input(BenchmarkId::new("modexp_generic", label), &p, |b, p| {
            let ctx = MontgomeryContext::new(p).expect("odd modulus");
            b.iter(|| black_box(ctx.modexp_generic(&base, &exp)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modexp);
criterion_main!(benches);

//! Experiment P9: exact per-protocol cost profiles from the telemetry
//! subsystem — modular exponentiations, inverses, accumulator folds,
//! Shamir evaluations, messages, bytes and rounds for each of the five
//! MPC protocols, captured by running each one under an installed
//! [`dla_telemetry::Recorder`].
//!
//! Also profiles the accumulator verification leg twice — once with
//! the per-epoch refold ladder, once through the cached fixed-base
//! evaluator plus one RLC batch check — and asserts against the session
//! meters that the fixed-base route does strictly fewer Montgomery
//! multiplication steps for the same items-folded work units. It does
//! so at two sizes: 12 epochs × 2 deposits, whose exponents are a few
//! hundred bits and build combs of their own, and the benchmark's 8
//! epochs × 64, whose exponents are an epoch long — there one
//! `batch_verify` and one from-`x₀` `fold_batch` must each take at
//! least 4× fewer steps than their ladders, comb build included.
//!
//! Beside them, the two fixed-base powers every deposit pays: the
//! record's accumulation, one walk of the comb `x₀`'s evaluator builds
//! up front, and the origin signature's `g^k`, one walk of the
//! generator's — each at most `e + a + 1` steps for a comb of `a`
//! columns in blocks of `e`, and the signature's at most a quarter of
//! the ladder it replaced.
//!
//! Run with: `cargo run -p dla-bench --bin exp_cost_profile --release`
//! (writes `BENCH_cost_profile.json`).

use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{Ubig, F61};
use dla_crypto::accumulator::AccumulatorParams;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_crypto::schnorr::{SchnorrGroup, SchnorrKeyPair};
use dla_mpc::report::ProtocolReport;
use dla_mpc::{EqualitySession, RankingSession, SsiSession, SumSession, UnionSession};
use dla_net::topology::Ring;
use dla_net::{NodeId, Session};
use dla_telemetry::{CostVector, Recorder};

use dla_bench::{half_shared_sets as sets, ideal_net, metered, render_rows, write_snapshot, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One profiled protocol run.
struct Profile {
    label: &'static str,
    report: ProtocolReport,
    costs: CostVector,
}

/// Runs `f` under a fresh recorder and pulls out the cost scope the
/// protocol attributed itself to.
fn profile(label: &'static str, f: impl FnOnce() -> ProtocolReport) -> Profile {
    let recorder = Recorder::new();
    let report = {
        let _install = recorder.install();
        f()
    };
    let trace = recorder.take();
    let costs = trace
        .cost_by_label()
        .remove(label)
        .unwrap_or_else(|| trace.total_cost());
    Profile {
        label,
        report,
        costs,
    }
}

/// The fixed-base-vs-ladder comparison on the accumulator leg.
struct FixedBaseProfile {
    epochs: usize,
    items_per_epoch: usize,
    build_cost: CostVector,
    ladder_cost: CostVector,
    accel_cost: CostVector,
    fold_ladder_cost: CostVector,
    first_fold_cost: CostVector,
    fold_cost: CostVector,
}

/// Audits the same sealed trail twice: the ladder auditor refolds each
/// epoch from `x₀` (one modexp ladder per item), the accelerated
/// auditor derives the per-epoch exponents and settles every claim in
/// one RLC batch check over the cached `x₀` evaluator. Then absorbs one
/// epoch's items into a fresh accumulator: a ladder on the batch's
/// exponent, and `fold_batch` twice, which sees the accumulator is
/// still `x₀`. Digest agreement, equal items-folded units and the
/// strict Montgomery-step win are all asserted against the session
/// meters; `comb_builds` is how many combs the accelerated audit had to
/// build on the way, and `fold_comb_builds` how many the first fold did
/// (their steps are in those bills; the second fold walks).
fn profile_fixed_base_vs_ladder(
    epochs: usize,
    items_per_epoch: usize,
    comb_builds: u64,
    fold_comb_builds: u64,
) -> FixedBaseProfile {
    let params = AccumulatorParams::fixed_512();
    let epoch_items: Vec<Vec<Vec<u8>>> = (0..epochs)
        .map(|e| {
            (0..items_per_epoch)
                .map(|i| format!("deposit-{e}-{i}").into_bytes())
                .collect()
        })
        .collect();

    // One-time construction of the comb built up front, metered
    // separately so its amortisation is explicit in the report (`x₀⁰`
    // walks nothing).
    let (_, build_cost) = metered(|| params.power_of_start(&Ubig::zero()));
    assert_eq!(build_cost.fixed_base_builds, 1, "exactly one table build");

    // Seal the epoch digests outside either auditor's bill: item by
    // item, so no table or comb is touched before the audit is.
    let refold = |items: &[Vec<u8>]| {
        items
            .iter()
            .fold(params.start().clone(), |acc, item| params.fold(&acc, item))
    };
    let digests: Vec<Ubig> = epoch_items.iter().map(|items| refold(items)).collect();

    let (ladder_ok, ladder_cost) = metered(|| {
        epoch_items
            .iter()
            .zip(&digests)
            .all(|(items, digest)| refold(items) == *digest)
    });
    let (accel_ok, accel_cost) = metered(|| {
        let claims: Vec<(Ubig, Ubig)> = epoch_items
            .iter()
            .zip(&digests)
            .map(|(items, digest)| {
                let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
                (digest.clone(), params.batch_exponent(&refs))
            })
            .collect();
        params.batch_verify(&claims)
    });

    assert!(ladder_ok, "ladder auditor accepts the genuine trail");
    assert!(accel_ok, "fixed-base auditor accepts the genuine trail");
    assert_eq!(
        accel_cost.acc_fold, ladder_cost.acc_fold,
        "both routes bill the same items-folded units"
    );
    assert_eq!(
        accel_cost.multi_exp_terms, epochs as u64,
        "one multi-exp term per epoch claim"
    );
    assert_eq!(
        accel_cost.fixed_base_builds, comb_builds,
        "a comb is built once per exponent length band"
    );
    assert!(
        accel_cost.mont_mul_steps < ladder_cost.mont_mul_steps,
        "fixed-base verification ({} steps) must beat the refold ladder ({} steps)",
        accel_cost.mont_mul_steps,
        ladder_cost.mont_mul_steps
    );

    // A fresh epoch absorbs its first batch: what a restart's replay
    // and a batch load hand `fold_batch` for every epoch.
    let refs: Vec<&[u8]> = epoch_items[0].iter().map(Vec::as_slice).collect();
    let fresh = [params.start().clone()];
    let exponent = params.batch_exponent(&refs);
    let ctx = MontgomeryContext::new(params.modulus()).expect("RSA moduli are odd");
    let (fold_ladder, fold_ladder_cost) = metered(|| ctx.modexp_batch(&fresh, &exponent));
    let (first_fold, first_fold_cost) = metered(|| params.fold_batch(&fresh, &refs));
    let (fold, fold_cost) = metered(|| params.fold_batch(&fresh, &refs));
    assert_eq!(fold, fold_ladder, "one value either way");
    assert_eq!(first_fold, fold, "on a comb built for it or not");
    assert_eq!(fold[0], digests[0], "and it is the epoch's digest");
    assert_eq!(
        first_fold_cost.fixed_base_builds, fold_comb_builds,
        "an epoch-long fold rides the audit's comb; a shorter one builds its own"
    );
    assert_eq!(fold_cost.fixed_base_builds, 0, "and then walks it");
    assert!(fold_cost.mont_mul_steps < fold_ladder_cost.mont_mul_steps);

    FixedBaseProfile {
        epochs,
        items_per_epoch,
        build_cost,
        ladder_cost,
        accel_cost,
        fold_ladder_cost,
        first_fold_cost,
        fold_cost,
    }
}

/// The two fixed-base powers of one deposit, each beside the ladder it
/// replaced: the record's accumulation `x₀^{∏ y}` over four fragment
/// items, and the origin signature's generator power `g^k`.
struct DepositPowers {
    record_bits: usize,
    record_cost: CostVector,
    record_ladder_cost: CostVector,
    generator_build_cost: CostVector,
    signature_cost: CostVector,
    nonce_ladder_cost: CostVector,
}

/// Comb shapes `(a, v, e)` — columns, blocks, columns a block — the two
/// evaluators build up front: `x₀`'s for `2·512 + 128` bits, `g`'s for
/// the 255 bits of `q`.
const X0_COMB: (u64, u64, u64) = (144, 8, 18);
const G_COMB: (u64, u64, u64) = (32, 4, 8);

fn profile_deposit_powers() -> DepositPowers {
    let params = AccumulatorParams::fixed_512();
    let fragments: Vec<Vec<u8>> = (0..4)
        .map(|i| format!("record-0-fragment-{i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = fragments.iter().map(Vec::as_slice).collect();
    let exponent = params.batch_exponent(&refs);
    let ctx = MontgomeryContext::new(params.modulus()).expect("RSA moduli are odd");
    let _ = params.power_of_start(&Ubig::zero()); // the comb built up front
    let (record, record_cost) = metered(|| params.accumulate_batch(&refs));
    let (ladder, record_ladder_cost) = metered(|| ctx.modexp(params.start(), &exponent));
    assert_eq!(record, ladder, "one value either way");
    let (a, _, e) = X0_COMB;
    assert_eq!(
        record_cost.fixed_base_builds, 0,
        "a record rides the comb built up front"
    );
    assert!(
        record_cost.mont_mul_steps <= e + a + 1,
        "a record's power walks {} steps, over e + a + 1 = {}",
        record_cost.mont_mul_steps,
        e + a + 1
    );

    let group = SchnorrGroup::fixed_256();
    let (_, generator_build_cost) = metered(|| group.pow_g(&Ubig::zero()));
    let key = SchnorrKeyPair::from_secret(&group, Ubig::from_u64(0x139a_ef78));
    let message = b"glsn 139aef78 || deposit";
    let nonce = group.challenge(&[b"cost-profile-nonce"]);
    let (signature, signature_cost) = metered(|| key.sign_with_nonce(message, &nonce));
    assert!(dla_crypto::schnorr::verify(
        &group,
        key.public(),
        message,
        &signature
    ));
    let (_, nonce_ladder_cost) = metered(|| group.pow(group.generator(), &nonce));
    let (a, _, e) = G_COMB;
    assert_eq!(
        generator_build_cost.fixed_base_builds, 1,
        "g's comb, built once"
    );
    assert_eq!(
        signature_cost.fixed_base_builds, 0,
        "and walked by every signature"
    );
    assert!(signature_cost.mont_mul_steps <= e + a + 1);
    assert!(
        4 * signature_cost.mont_mul_steps <= nonce_ladder_cost.mont_mul_steps,
        "a signature's g^k ({} steps) must cost at most a quarter of the ladder's {}",
        signature_cost.mont_mul_steps,
        nonce_ladder_cost.mont_mul_steps
    );
    DepositPowers {
        record_bits: exponent.bit_len(),
        record_cost,
        record_ladder_cost,
        generator_build_cost,
        signature_cost,
        nonce_ladder_cost,
    }
}

fn ratio(ladder: &CostVector, fixed: &CostVector) -> f64 {
    ladder.mont_mul_steps as f64 / fixed.mont_mul_steps as f64
}

impl DepositPowers {
    fn line(&self) -> String {
        format!(
            "one deposit's fixed-base powers: the record's {}-bit x0 power {} steps \
             (ladder {}, {:.1}x fewer), the signature's g^k {} steps (ladder {}, {:.1}x \
             fewer; g's comb built once for {} steps)",
            self.record_bits,
            self.record_cost.mont_mul_steps,
            self.record_ladder_cost.mont_mul_steps,
            ratio(&self.record_ladder_cost, &self.record_cost),
            self.signature_cost.mont_mul_steps,
            self.nonce_ladder_cost.mont_mul_steps,
            ratio(&self.nonce_ladder_cost, &self.signature_cost),
            self.generator_build_cost.mont_mul_steps,
        )
    }

    fn json(&self) -> Json {
        let comb = |(a, v, e): (u64, u64, u64)| {
            Json::Object(vec![
                ("columns", a.into()),
                ("blocks", v.into()),
                ("block_columns", e.into()),
            ])
        };
        Json::Object(vec![
            ("record_exponent_bits", self.record_bits.into()),
            ("x0_comb", comb(X0_COMB)),
            (
                "record_mont_mul_steps",
                self.record_cost.mont_mul_steps.into(),
            ),
            (
                "record_ladder_mont_mul_steps",
                self.record_ladder_cost.mont_mul_steps.into(),
            ),
            (
                "record_step_ratio",
                Json::Fixed(ratio(&self.record_ladder_cost, &self.record_cost), 2),
            ),
            ("g_comb", comb(G_COMB)),
            (
                "g_comb_build_mont_mul_steps",
                self.generator_build_cost.mont_mul_steps.into(),
            ),
            (
                "signature_mont_mul_steps",
                self.signature_cost.mont_mul_steps.into(),
            ),
            (
                "nonce_ladder_mont_mul_steps",
                self.nonce_ladder_cost.mont_mul_steps.into(),
            ),
            (
                "signature_step_ratio",
                Json::Fixed(ratio(&self.nonce_ladder_cost, &self.signature_cost), 2),
            ),
        ])
    }
}

impl FixedBaseProfile {
    fn audit_ratio(&self) -> f64 {
        ratio(&self.ladder_cost, &self.accel_cost)
    }

    fn fold_ratio(&self) -> f64 {
        ratio(&self.fold_ladder_cost, &self.fold_cost)
    }

    fn line(&self) -> String {
        format!(
            "fixed-base vs ladder ({} epochs x {} deposits): table build {} steps \
             (once), refold ladder {} steps, fixed-base + RLC batch {} steps \
             ({:.1}x fewer per audit, {} comb built); fresh epoch's fold_batch \
             {} steps on the ladder, {} from x0 ({:.1}x fewer; the first {}, \
             {} comb built)",
            self.epochs,
            self.items_per_epoch,
            self.build_cost.mont_mul_steps,
            self.ladder_cost.mont_mul_steps,
            self.accel_cost.mont_mul_steps,
            self.audit_ratio(),
            self.accel_cost.fixed_base_builds,
            self.fold_ladder_cost.mont_mul_steps,
            self.fold_cost.mont_mul_steps,
            self.fold_ratio(),
            self.first_fold_cost.mont_mul_steps,
            self.first_fold_cost.fixed_base_builds,
        )
    }

    fn json(&self) -> Json {
        Json::Object(vec![
            ("epochs", self.epochs.into()),
            ("items_per_epoch", self.items_per_epoch.into()),
            (
                "table_build_mont_mul_steps",
                self.build_cost.mont_mul_steps.into(),
            ),
            ("table_builds", self.build_cost.fixed_base_builds.into()),
            (
                "ladder_mont_mul_steps",
                self.ladder_cost.mont_mul_steps.into(),
            ),
            (
                "fixed_base_mont_mul_steps",
                self.accel_cost.mont_mul_steps.into(),
            ),
            ("comb_builds", self.accel_cost.fixed_base_builds.into()),
            ("items_folded", self.ladder_cost.acc_fold.into()),
            ("multi_exp_terms", self.accel_cost.multi_exp_terms.into()),
            ("step_ratio", Json::Fixed(self.audit_ratio(), 2)),
            (
                "fold_batch_ladder_mont_mul_steps",
                self.fold_ladder_cost.mont_mul_steps.into(),
            ),
            (
                "fold_batch_from_start_mont_mul_steps",
                self.fold_cost.mont_mul_steps.into(),
            ),
            ("fold_batch_step_ratio", Json::Fixed(self.fold_ratio(), 2)),
            (
                "first_fold_batch_mont_mul_steps",
                self.first_fold_cost.mont_mul_steps.into(),
            ),
            (
                "first_fold_batch_comb_builds",
                self.first_fold_cost.fixed_base_builds.into(),
            ),
        ])
    }
}

impl Profile {
    fn json(&self) -> Json {
        Json::Object(vec![
            ("protocol", self.label.into()),
            ("parties", self.report.parties.into()),
            ("rounds", self.report.rounds.into()),
            ("messages", self.report.messages.into()),
            ("bytes", self.report.bytes.into()),
            ("modexp", self.costs.modexp.into()),
            ("mont_mul_steps", self.costs.mont_mul_steps.into()),
            ("modinv", self.costs.modinv.into()),
            ("accumulator_folds", self.costs.acc_fold.into()),
            ("shamir_evals", self.costs.shamir_eval.into()),
            ("fixed_base_builds", self.costs.fixed_base_builds.into()),
            ("multi_exp_terms", self.costs.multi_exp_terms.into()),
            ("telemetry_rounds", self.costs.rounds.into()),
            ("telemetry_msgs", self.costs.msgs_sent.into()),
        ])
    }
}

fn main() {
    dla_bench::refuse_args();
    let (n, set_size) = (4usize, 16usize);
    let domain = CommutativeDomain::fixed_256();

    let mut profiles = Vec::new();

    profiles.push(profile("secure-set-intersection", || {
        let mut rng = StdRng::seed_from_u64(1);
        let net = ideal_net(n);
        let ring = Ring::canonical(n);
        SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
            .reveal(true)
            .run(&sets(n, set_size), &mut rng)
            .expect("ssi runs")
            .report
    }));

    profiles.push(profile("secure-set-union", || {
        let mut rng = StdRng::seed_from_u64(2);
        let net = ideal_net(n);
        let ring = Ring::canonical(n);
        UnionSession::new(Session::root(&net), &ring, &domain, NodeId(0))
            .run(&sets(n, set_size), &mut rng)
            .expect("union runs")
            .report
    }));

    profiles.push(profile("secure-sum", || {
        let mut rng = StdRng::seed_from_u64(3);
        // One extra node acts as the off-party collector.
        let net = ideal_net(n + 1);
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let inputs: Vec<F61> = (0..n).map(|i| F61::new(10 + i as u64)).collect();
        SumSession::new(Session::root(&net), &parties, 2, NodeId(n))
            .run(&inputs, &mut rng)
            .expect("sum runs")
            .report
    }));

    profiles.push(profile("secure-equality", || {
        let mut rng = StdRng::seed_from_u64(4);
        let net = ideal_net(3);
        EqualitySession::new(Session::root(&net), NodeId(0), NodeId(1), NodeId(2))
            .run(F61::new(42), F61::new(42), &mut rng)
            .expect("equality runs")
            .report
    }));

    profiles.push(profile("secure-ranking", || {
        let mut rng = StdRng::seed_from_u64(5);
        // The blind TTP is the extra node.
        let net = ideal_net(n + 1);
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let values: Vec<u64> = (0..n).map(|i| 100 + 7 * i as u64).collect();
        RankingSession::new(Session::root(&net), &parties, NodeId(n))
            .run(&values, &mut rng)
            .expect("ranking runs")
            .report
    }));

    // The ∩ₛ cell's collector (node 0) is a ring position: it reads
    // the revealed plaintexts off its own returned set, so the only
    // exponentiations are the Σ|Sᵢ|·n relay encryptions.
    assert_eq!(
        profiles[0].costs.modexp,
        (n * set_size * n) as u64,
        "ring-collector ∩ₛ must run no reveal decryptions"
    );

    // Cross-check: the telemetry sink and the session meter count the
    // same traffic and rounds.
    for p in &profiles {
        assert_eq!(
            p.costs.msgs_sent, p.report.messages,
            "{}: telemetry msgs vs meter",
            p.label
        );
        assert_eq!(
            p.costs.rounds, p.report.rounds as u64,
            "{}: telemetry rounds vs meter",
            p.label
        );
    }

    let protocols: Vec<Json> = profiles.iter().map(Profile::json).collect();
    println!(
        "{}",
        render_rows(
            &format!("P9 - PER-PROTOCOL COST PROFILE ({n} parties, {set_size}-element sets)"),
            &protocols
        )
    );
    println!(
        "shape: commutative-encryption protocols are modexp-bound; \
         Shamir-based sum costs field ops only."
    );

    // Two-deposit epochs: the audit's ~650-bit combined exponent and
    // the fold's 512-bit one each build a comb of their own length.
    let fb = profile_fixed_base_vs_ladder(12, 2, 1, 1);
    // The benchmark's shape: eight sealed epochs of sixty-four in the
    // window, every exponent an epoch long.
    let epoch_sized = profile_fixed_base_vs_ladder(8, 64, 1, 0);
    let deposit = profile_deposit_powers();
    println!(
        "\n{}\n{}\n{}",
        fb.line(),
        epoch_sized.line(),
        deposit.line()
    );
    assert!(
        epoch_sized.audit_ratio() >= 4.0 && epoch_sized.fold_ratio() >= 4.0,
        "an epoch-long power of x0 must take at least 4x fewer steps than its ladder"
    );

    write_snapshot(
        "cost_profile",
        vec![
            ("protocols", Json::Array(protocols)),
            ("fixed_base_vs_ladder", fb.json()),
            ("fixed_base_vs_ladder_epoch_sized", epoch_sized.json()),
            ("deposit_fixed_base_powers", deposit.json()),
        ],
    );
}

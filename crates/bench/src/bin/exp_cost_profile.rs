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
//! so at two sizes: 12 epochs × 2 deposits, whose exponents stay inside
//! the `x₀` radix table, and the benchmark's 8 epochs × 64, whose
//! exponents are an epoch long and walk a comb — there one
//! `batch_verify` and one from-`x₀` `fold_batch` must each take at
//! least 4× fewer steps than their ladders, comb build included.
//!
//! Run with: `cargo run -p dla-bench --bin exp_cost_profile --release`
//! (writes `BENCH_cost_profile.json`).

use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{Ubig, F61};
use dla_crypto::accumulator::AccumulatorParams;
use dla_crypto::pohlig_hellman::CommutativeDomain;
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
    fold_cost: CostVector,
}

/// Audits the same sealed trail twice: the ladder auditor refolds each
/// epoch from `x₀` (one modexp ladder per item), the accelerated
/// auditor derives the per-epoch exponents and settles every claim in
/// one RLC batch check over the cached `x₀` evaluator. Then absorbs one
/// epoch's items into a fresh accumulator twice: a ladder on the
/// batch's exponent, and `fold_batch`, which sees the accumulator is
/// still `x₀`. Digest agreement, equal items-folded units and the
/// strict Montgomery-step win are all asserted against the session
/// meters; `comb_builds` is how many combs the accelerated audit had to
/// build on the way (none while its exponents fit the radix table, one
/// when they are an epoch long — its steps are in the audit's bill).
fn profile_fixed_base_vs_ladder(
    epochs: usize,
    items_per_epoch: usize,
    comb_builds: u64,
) -> FixedBaseProfile {
    let params = AccumulatorParams::fixed_512();
    let epoch_items: Vec<Vec<Vec<u8>>> = (0..epochs)
        .map(|e| {
            (0..items_per_epoch)
                .map(|i| format!("deposit-{e}-{i}").into_bytes())
                .collect()
        })
        .collect();

    // One-time table construction, metered separately so its
    // amortisation is explicit in the report.
    let (_, build_cost) = metered(|| params.power_of_start(&Ubig::one()));
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
        "the cached table is reused, never rebuilt; a comb is built once per exponent length"
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
    let (fold, fold_cost) = metered(|| params.fold_batch(&fresh, &refs));
    assert_eq!(fold, fold_ladder, "one value either way");
    assert_eq!(fold[0], digests[0], "and it is the epoch's digest");
    assert_eq!(
        fold_cost.fixed_base_builds, 0,
        "the audit's comb serves the epoch's own exponent"
    );
    assert!(fold_cost.mont_mul_steps < fold_ladder_cost.mont_mul_steps);

    FixedBaseProfile {
        epochs,
        items_per_epoch,
        build_cost,
        ladder_cost,
        accel_cost,
        fold_ladder_cost,
        fold_cost,
    }
}

impl FixedBaseProfile {
    fn audit_ratio(&self) -> f64 {
        self.ladder_cost.mont_mul_steps as f64 / self.accel_cost.mont_mul_steps as f64
    }

    fn fold_ratio(&self) -> f64 {
        self.fold_ladder_cost.mont_mul_steps as f64 / self.fold_cost.mont_mul_steps as f64
    }

    fn line(&self) -> String {
        format!(
            "fixed-base vs ladder ({} epochs x {} deposits): table build {} steps \
             (once), refold ladder {} steps, fixed-base + RLC batch {} steps \
             ({:.1}x fewer per audit, {} comb built); fresh epoch's fold_batch \
             {} steps on the ladder, {} from x0 ({:.1}x fewer)",
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

    let fb = profile_fixed_base_vs_ladder(12, 2, 0);
    // The benchmark's shape: eight sealed epochs of sixty-four in the
    // window, every exponent an epoch long.
    let epoch_sized = profile_fixed_base_vs_ladder(8, 64, 1);
    println!("\n{}\n{}", fb.line(), epoch_sized.line());
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
        ],
    );
}

//! Experiment P9: exact per-protocol cost profiles from the telemetry
//! subsystem — modular exponentiations, inverses, accumulator folds,
//! Shamir evaluations, messages, bytes and rounds for each of the five
//! MPC protocols, captured by running each one under an installed
//! [`dla_telemetry::Recorder`].
//!
//! Also profiles the accumulator verification leg twice — once with
//! the per-epoch refold ladder, once through the cached fixed-base
//! table plus one RLC batch check — and asserts against the session
//! meters that the fixed-base route does strictly fewer Montgomery
//! multiplication steps for the same items-folded work units.
//!
//! Run with: `cargo run -p dla-bench --bin exp_cost_profile --release`
//! (writes `BENCH_cost_profile.json`).

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
}

/// Audits the same sealed trail twice: the ladder auditor refolds each
/// epoch from `x₀` (one modexp ladder per item), the accelerated
/// auditor derives the per-epoch exponents and settles every claim in
/// one RLC batch check over the cached `x₀` table. Digest agreement,
/// equal items-folded units and the strict Montgomery-step win are all
/// asserted against the session meters.
fn profile_fixed_base_vs_ladder() -> FixedBaseProfile {
    let params = AccumulatorParams::fixed_512();
    let epochs = 12usize;
    let items_per_epoch = 2usize;
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

    // Seal the epoch digests outside either auditor's bill.
    let digests: Vec<Ubig> = epoch_items
        .iter()
        .map(|items| params.accumulate(items.iter().map(Vec::as_slice)))
        .collect();

    let (ladder_ok, ladder_cost) = metered(|| {
        epoch_items.iter().zip(&digests).all(|(items, digest)| {
            let refolded = items
                .iter()
                .fold(params.start().clone(), |acc, item| params.fold(&acc, item));
            refolded == *digest
        })
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
        accel_cost.fixed_base_builds, 0,
        "the cached table is reused, never rebuilt"
    );
    assert!(
        accel_cost.mont_mul_steps < ladder_cost.mont_mul_steps,
        "fixed-base verification ({} steps) must beat the refold ladder ({} steps)",
        accel_cost.mont_mul_steps,
        ladder_cost.mont_mul_steps
    );

    FixedBaseProfile {
        epochs,
        items_per_epoch,
        build_cost,
        ladder_cost,
        accel_cost,
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

    let fb = profile_fixed_base_vs_ladder();
    let step_ratio = fb.ladder_cost.mont_mul_steps as f64 / fb.accel_cost.mont_mul_steps as f64;
    println!(
        "\nfixed-base vs ladder ({} epochs x {} deposits): table build {} steps \
         (once), refold ladder {} steps, fixed-base + RLC batch {} steps \
         ({step_ratio:.1}x fewer per audit)",
        fb.epochs,
        fb.items_per_epoch,
        fb.build_cost.mont_mul_steps,
        fb.ladder_cost.mont_mul_steps,
        fb.accel_cost.mont_mul_steps,
    );

    write_snapshot(
        "cost_profile",
        vec![
            ("protocols", Json::Array(protocols)),
            (
                "fixed_base_vs_ladder",
                Json::Object(vec![
                    ("epochs", fb.epochs.into()),
                    ("items_per_epoch", fb.items_per_epoch.into()),
                    (
                        "table_build_mont_mul_steps",
                        fb.build_cost.mont_mul_steps.into(),
                    ),
                    ("table_builds", fb.build_cost.fixed_base_builds.into()),
                    (
                        "ladder_mont_mul_steps",
                        fb.ladder_cost.mont_mul_steps.into(),
                    ),
                    (
                        "fixed_base_mont_mul_steps",
                        fb.accel_cost.mont_mul_steps.into(),
                    ),
                    ("items_folded", fb.ladder_cost.acc_fold.into()),
                    ("multi_exp_terms", fb.accel_cost.multi_exp_terms.into()),
                    ("step_ratio", Json::Fixed(step_ratio, 2)),
                ]),
            ),
        ],
    );
}

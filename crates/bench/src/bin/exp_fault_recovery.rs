//! Experiment: fault tolerance & recovery — query success rate and
//! virtual-time latency under injected message loss/duplication, with
//! and without the reliable (ARQ) transport layer, plus degraded-mode
//! auditing after a node loss.
//!
//! Run with: `cargo run -p dla-bench --bin exp_fault_recovery --release`
//! (writes `BENCH_fault_recovery.json`).

use dla_audit::cluster::DlaCluster;
use dla_audit::exec::ResilientPolicy;
use dla_bench::{render_rows, write_snapshot, Json};
use dla_logstore::gen::paper_table1;
use dla_logstore::model::Glsn;
use dla_net::latency::LatencyModel;

const DUPLICATE_PROBABILITY: f64 = 0.05;
const DROPS: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
const TRIALS: usize = 20;
const LOSS_TRIALS: usize = 8;

const QUERIES: &[&str] = &[
    "c2 > 100.00",
    "c1 > 20 and c2 > 40.00",
    "id = 'U2' or c1 > 50",
    "protocol = 'TCP' and c2 > 40.00",
];

/// Queries whose plans touch node 2 (owner of `tid`/`c3`), so killing
/// that node forces the degraded-mode re-plan.
const DEGRADED_QUERIES: &[&str] = &[
    "tid = 'T1100267' and c2 > 100.00",
    "c3 = 'account' or c1 > 50",
];

#[derive(Default)]
struct ArmStats {
    successes: usize,
    trials: usize,
    latency_sum_ns: u64,
}

impl ArmStats {
    fn json(&self) -> Json {
        let rate = self.successes as f64 / self.trials.max(1) as f64;
        let mean_latency_ns = self.latency_sum_ns / self.successes.max(1) as u64;
        Json::Object(vec![
            ("successes", self.successes.into()),
            ("trials", self.trials.into()),
            ("success_rate", Json::Fixed(rate, 4)),
            ("mean_virtual_latency_ns", mean_latency_ns.into()),
        ])
    }
}

fn fresh_cluster(seed: u64) -> DlaCluster {
    let config = dla_bench::paper_config(seed)
        .with_latency(LatencyModel::lan())
        .with_standby_replication();
    let mut cluster = DlaCluster::new(config).expect("paper cluster is valid");
    let user = cluster.register_user("u0").expect("capacity available");
    cluster
        .log_records(&user, &paper_table1())
        .expect("Table 1 logs cleanly");
    cluster
}

/// Runs one trial arm: fresh cluster, clean-net reference answer, then
/// the same query under injected faults. Success means the faulty run
/// returned exactly the reference glsn set.
fn run_trial(seed: u64, query: &str, drop: f64, reliable: bool, stats: &mut ArmStats) {
    let mut cluster = fresh_cluster(seed);
    let reference: Vec<Glsn> = cluster
        .query(query)
        .expect("clean-net reference query succeeds")
        .glsns;
    {
        let mut net = cluster.net();
        let faults = net.faults_mut();
        faults.drop_probability = drop;
        faults.duplicate_probability = DUPLICATE_PROBABILITY;
    }
    let policy = if reliable {
        ResilientPolicy::default()
    } else {
        ResilientPolicy {
            reliable: None,
            max_attempts: 1,
        }
    };
    stats.trials += 1;
    if let Ok(outcome) = cluster.query_resilient(query, &policy) {
        if outcome.result.glsns == reference {
            stats.successes += 1;
            stats.latency_sum_ns += outcome.result.elapsed.as_nanos();
        }
    }
}

fn main() {
    dla_bench::refuse_args();

    // Part 1: drop-probability sweep, unprotected vs reliable.
    let mut sweep = Vec::new();
    for (pi, &drop) in DROPS.iter().enumerate() {
        let mut unprotected = ArmStats::default();
        let mut protected = ArmStats::default();
        for trial in 0..TRIALS {
            let seed = 0xFA01 + (pi as u64) * 1_000 + trial as u64;
            let query = QUERIES[trial % QUERIES.len()];
            run_trial(seed, query, drop, false, &mut unprotected);
            run_trial(seed, query, drop, true, &mut protected);
        }
        sweep.push(Json::Object(vec![
            ("drop_probability", Json::Fixed(drop, 2)),
            ("unprotected", unprotected.json()),
            ("reliable", protected.json()),
        ]));
    }
    println!(
        "{}",
        render_rows(
            &format!(
                "FAULT RECOVERY: query success under loss (dup = {DUPLICATE_PROBABILITY}, \
                 {TRIALS} trials/point)"
            ),
            &sweep
        )
    );

    // Part 2: degraded-mode auditing — kill a node mid-service; the
    // resilient ladder must detect it, re-replicate from standbys and
    // answer from the survivor set.
    let mut recovered = 0;
    let mut replans = 0;
    for trial in 0..LOSS_TRIALS {
        let query = DEGRADED_QUERIES[trial % DEGRADED_QUERIES.len()];
        let mut cluster = fresh_cluster(0xDEAD + trial as u64);
        let reference = cluster
            .query(query)
            .expect("clean-net reference query succeeds")
            .glsns;
        cluster.net().faults_mut().kill_node(2);
        let outcome = cluster
            .query_resilient(query, &ResilientPolicy::default())
            .expect("resilient query survives a node loss");
        if outcome.result.glsns == reference {
            recovered += 1;
        }
        replans += outcome.replans as usize;
        assert!(
            outcome.repairs.iter().all(|r| r.is_fully_verified()),
            "re-replication must verify against the deposits"
        );
    }
    println!(
        "node loss: {recovered}/{LOSS_TRIALS} queries answered correctly from the \
         survivor set ({replans} re-plans, all repairs accumulator-verified)\n"
    );

    assert_eq!(
        recovered, LOSS_TRIALS,
        "degraded-mode execution must reproduce the reference answers"
    );
    write_snapshot(
        "fault_recovery",
        vec![
            ("nodes", 4u64.into()),
            ("records", 5u64.into()),
            (
                "duplicate_probability",
                Json::Fixed(DUPLICATE_PROBABILITY, 2),
            ),
            ("trials_per_point", TRIALS.into()),
            ("sweep", Json::Array(sweep)),
            (
                "node_loss",
                Json::Object(vec![
                    ("trials", LOSS_TRIALS.into()),
                    ("recovered", recovered.into()),
                    ("replans", replans.into()),
                ]),
            ),
        ],
    );
}

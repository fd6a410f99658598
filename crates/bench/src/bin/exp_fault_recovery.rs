//! Experiment: fault tolerance & recovery — query success rate and
//! virtual-time latency under injected message loss/duplication, with
//! and without the reliable (ARQ) transport layer, plus degraded-mode
//! auditing after a node loss.
//!
//! Run with: `cargo run -p dla-bench --bin exp_fault_recovery --release`
//! (writes `BENCH_fault_recovery.json`; `--quick` is the reduced sweep
//! CI runs, which asserts the same gate and writes nothing).

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::ResilientPolicy;
use dla_bench::{render_table, write_snapshot};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::paper_table1;
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_net::latency::LatencyModel;

const DUPLICATE_PROBABILITY: f64 = 0.05;

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

struct ArmStats {
    successes: usize,
    trials: usize,
    latency_sum_ns: u128,
}

impl ArmStats {
    fn new() -> Self {
        ArmStats {
            successes: 0,
            trials: 0,
            latency_sum_ns: 0,
        }
    }

    fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    fn mean_latency_ns(&self) -> u128 {
        if self.successes == 0 {
            0
        } else {
            self.latency_sum_ns / self.successes as u128
        }
    }
}

fn fresh_cluster(seed: u64) -> DlaCluster {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed)
            .with_latency(LatencyModel::lan())
            .with_standby_replication(),
    )
    .expect("paper cluster is valid");
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
            stats.latency_sum_ns += u128::from(outcome.result.elapsed.as_nanos());
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let drops: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.02, 0.05, 0.10]
    };
    let trials = if quick { 4 } else { 20 };

    // Part 1: drop-probability sweep, unprotected vs reliable.
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (pi, &drop) in drops.iter().enumerate() {
        let mut unprotected = ArmStats::new();
        let mut protected = ArmStats::new();
        for trial in 0..trials {
            let seed = 0xFA01 + (pi as u64) * 1_000 + trial as u64;
            let query = QUERIES[trial % QUERIES.len()];
            run_trial(seed, query, drop, false, &mut unprotected);
            run_trial(seed, query, drop, true, &mut protected);
        }
        rows.push(vec![
            format!("{drop:.2}"),
            format!(
                "{}/{} ({:.0}%)",
                unprotected.successes,
                unprotected.trials,
                unprotected.rate() * 100.0
            ),
            format!(
                "{}/{} ({:.0}%)",
                protected.successes,
                protected.trials,
                protected.rate() * 100.0
            ),
            format!("{}", unprotected.mean_latency_ns()),
            format!("{}", protected.mean_latency_ns()),
        ]);
        sweep_json.push(format!(
            concat!(
                "    {{\n",
                "      \"drop_probability\": {drop},\n",
                "      \"unprotected\": {{\"successes\": {us}, \"trials\": {ut}, ",
                "\"success_rate\": {ur:.4}, \"mean_virtual_latency_ns\": {ul}}},\n",
                "      \"reliable\": {{\"successes\": {ps}, \"trials\": {pt}, ",
                "\"success_rate\": {pr:.4}, \"mean_virtual_latency_ns\": {pl}}}\n",
                "    }}",
            ),
            drop = drop,
            us = unprotected.successes,
            ut = unprotected.trials,
            ur = unprotected.rate(),
            ul = unprotected.mean_latency_ns(),
            ps = protected.successes,
            pt = protected.trials,
            pr = protected.rate(),
            pl = protected.mean_latency_ns(),
        ));
    }
    println!(
        "{}",
        render_table(
            &format!(
                "FAULT RECOVERY: query success under loss (dup = {DUPLICATE_PROBABILITY}, \
                 {trials} trials/point)"
            ),
            &[
                "drop",
                "unprotected",
                "reliable",
                "lat(unprot) ns",
                "lat(rel) ns",
            ],
            &rows
        )
    );

    // Part 2: degraded-mode auditing — kill a node mid-service; the
    // resilient ladder must detect it, re-replicate from standbys and
    // answer from the survivor set.
    let loss_trials = if quick { 2 } else { 8 };
    let mut recovered = 0;
    let mut replans = 0;
    for trial in 0..loss_trials {
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
        "node loss: {recovered}/{loss_trials} queries answered correctly from the \
         survivor set ({replans} re-plans, all repairs accumulator-verified)\n"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"fault_recovery\",\n",
            "  \"nodes\": 4,\n",
            "  \"records\": 5,\n",
            "  \"duplicate_probability\": {dup},\n",
            "  \"trials_per_point\": {trials},\n",
            "  \"sweep\": [\n{sweep}\n  ],\n",
            "  \"node_loss\": {{\"trials\": {lt}, \"recovered\": {rec}, \"replans\": {rp}}}\n",
            "}}\n",
        ),
        dup = DUPLICATE_PROBABILITY,
        trials = trials,
        sweep = sweep_json.join(",\n"),
        lt = loss_trials,
        rec = recovered,
        rp = replans,
    );
    assert_eq!(
        recovered, loss_trials,
        "degraded-mode execution must reproduce the reference answers"
    );
    write_snapshot("fault_recovery", quick, &json);
}

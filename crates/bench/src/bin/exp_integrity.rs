//! Experiment E8 (§4.1, Eq. 8–9): distributed integrity checking —
//! order-independence of the accumulator circulation, detection rate
//! under random tampering, and message cost vs. cluster size.
//!
//! Run with: `cargo run -p dla-bench --bin exp_integrity --release`

use dla_audit::integrity;
use dla_bench::{metered, render_table};
use dla_logstore::model::AttrValue;
use rand::{Rng, SeedableRng};

fn main() {
    dla_bench::refuse_args();
    // Part 1: order independence — every initiator reaches the same
    // verdict on the paper cluster.
    let (mut cluster, _, glsns) = dla_bench::paper_cluster(5);
    let mut rows = Vec::new();
    for initiator in 0..cluster.num_nodes() {
        let verdicts = integrity::check_all(&mut cluster, initiator).expect("checks run");
        rows.push(vec![
            format!("P{initiator}"),
            verdicts.len().to_string(),
            verdicts.iter().filter(|v| v.ok).count().to_string(),
            verdicts[0].messages.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "EQ. 9 ORDER INDEPENDENCE: any node can initiate (clean cluster)",
            &["initiator", "records", "verified", "msgs/record"],
            &rows
        )
    );

    // Part 2: detection rate under random single-attribute tampering.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5005);
    let trials = 100;
    let mut detected = 0;
    let attrs = ["time", "id", "protocol", "tid", "c1", "c2", "c3"];
    for _ in 0..trials {
        let (mut cluster, _, glsns) = dla_bench::paper_cluster(rng.gen());
        let victim_glsn = glsns[rng.gen_range(0..glsns.len())];
        let attr = attrs[rng.gen_range(0..attrs.len())];
        let node = cluster
            .partition()
            .node_of(&attr.into())
            .expect("attr is assigned");
        let value = match attr {
            "time" => AttrValue::Time(rng.gen_range(0..1 << 30)),
            "c1" => AttrValue::Int(rng.gen_range(0..1 << 20)),
            "c2" => AttrValue::Fixed2(rng.gen_range(0..1 << 20)),
            _ => AttrValue::text(&format!("tampered-{}", rng.gen::<u32>())),
        };
        assert!(cluster
            .node(node)
            .store_mut()
            .tamper(victim_glsn, &attr.into(), value));
        let verdict = integrity::check_record(&mut cluster, victim_glsn, 0).expect("check runs");
        if !verdict.ok {
            detected += 1;
        }
    }
    println!("random single-value tampering: {detected}/{trials} detected (expect 100%)\n");

    // Part 3: cost scaling with cluster size.
    let mut rows = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let (mut cluster, _, glsns) = dla_bench::workload_cluster(n.min(7), 20, 6)
            // The paper schema caps the useful node count at 7 (one
            // attribute each); for larger n we keep 7 attribute owners.
            ;
        let _ = n;
        let (verdict, cost) =
            metered(|| integrity::check_record(&mut cluster, glsns[0], 0).expect("check runs"));
        rows.push(vec![
            cluster.num_nodes().to_string(),
            verdict.messages.to_string(),
            cost.acc_fold.to_string(),
            verdict.ok.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "CIRCULATION COST vs CLUSTER SIZE (one record)",
            &["nodes", "messages", "acc folds", "verdict"],
            &rows
        )
    );
    println!("shape: messages = n (one hop per node), contents never travel.");
    let _ = glsns;
}

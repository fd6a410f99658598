#![deny(rust_2018_idioms)]

//! Shared harness for the experiment binaries that regenerate every
//! table and figure of the paper (see `DESIGN.md` §6 for the experiment
//! index and `EXPERIMENTS.md` for recorded results).
//!
//! The binaries are deterministic programs: they take no argument, run
//! at one size, and report exact counts — messages, bytes, rounds,
//! virtual nanoseconds, and the operation counts [`metered`] reads off
//! a telemetry recorder — so two runs print the same bytes and rewrite
//! the same `BENCH_*.json` (`ci.sh` diffs both). Wall-clock time is
//! `benchmark/run.sh`'s business and appears nowhere in this crate.

/// The paper's mechanisms that only the figures and experiments run: no
/// deposit, query, seal or restart reaches them. Each moves back into a
/// runtime crate with its first runtime caller (ROADMAP items 10(a) and
/// 10(b)).
pub mod paper {
    pub mod attest;
    pub mod baseline;
    pub mod evidence;
}

use dla_audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{self, paper_table1, WorkloadConfig};
use dla_logstore::model::{Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_net::{NetConfig, SharedNet, SimNet};
use dla_telemetry::export::json_escape;
use dla_telemetry::{CostVector, Recorder};
use rand::SeedableRng;

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

/// Set-protocol inputs for `n` parties: `size` elements each, the first
/// half shared by everyone, the rest private to the party.
#[must_use]
pub fn half_shared_sets(n: usize, size: usize) -> Vec<Vec<Vec<u8>>> {
    (0..n)
        .map(|party| {
            (0..size)
                .map(|i| {
                    if i < size / 2 {
                        format!("shared-{i}").into_bytes()
                    } else {
                        format!("private-{party}-{i}").into_bytes()
                    }
                })
                .collect()
        })
        .collect()
}

/// The paper's 4-node configuration: the paper schema under the
/// Tables 2–5 partition.
#[must_use]
pub fn paper_config(seed: u64) -> ClusterConfig {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(seed)
}

/// Builds the paper's running example: [`paper_config`] loaded with
/// Table 1. Returns the cluster, the logging user and the assigned
/// glsns.
///
/// # Panics
///
/// Panics if construction fails (static inputs are valid).
#[must_use]
pub fn paper_cluster(seed: u64) -> (DlaCluster, AppUser, Vec<Glsn>) {
    load(paper_config(seed), &paper_table1())
}

/// The synthetic workload the experiments draw from: `records` records
/// by `users` application users, from generator seed `seed`.
#[must_use]
pub fn workload(records: usize, users: usize, seed: u64) -> Vec<LogRecord> {
    let config = WorkloadConfig {
        records,
        users,
        ..WorkloadConfig::default()
    };
    gen::generate(&config, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Builds the cluster `config` describes and logs `records` generated
/// records (generator seed `seed`, the default user population) as one
/// registered user.
///
/// # Panics
///
/// Panics if construction or logging fails.
#[must_use]
pub fn loaded_cluster(
    config: ClusterConfig,
    records: usize,
    seed: u64,
) -> (DlaCluster, AppUser, Vec<Glsn>) {
    let users = WorkloadConfig::default().users;
    load(config, &workload(records, users, seed))
}

/// Builds an `n`-node cluster over the paper schema (round-robin
/// partition) loaded with a synthetic workload of `records` records.
///
/// # Panics
///
/// Panics if construction fails.
#[must_use]
pub fn workload_cluster(n: usize, records: usize, seed: u64) -> (DlaCluster, AppUser, Vec<Glsn>) {
    let config = ClusterConfig::new(n, Schema::paper_example()).with_seed(seed);
    loaded_cluster(config, records, seed)
}

fn load(config: ClusterConfig, data: &[LogRecord]) -> (DlaCluster, AppUser, Vec<Glsn>) {
    let mut cluster = DlaCluster::new(config).expect("experiment cluster is valid");
    let user = cluster.register_user("u0").expect("capacity available");
    let glsns = cluster.log_records(&user, data).expect("workload logs");
    (cluster, user, glsns)
}

/// First statement of every binary in this crate: they run at one size
/// and read no flag, so any argument is a mistake (a misspelt flag used
/// to run silently at the other size). Prints usage and exits non-zero.
pub fn refuse_args() {
    let mut argv = std::env::args();
    let binary = argv.next().unwrap_or_else(|| "dla-bench".to_owned());
    if let Some(unexpected) = argv.next() {
        eprintln!("{binary}: unexpected argument {unexpected:?}");
        eprintln!("usage: {binary}   (no arguments: one size, deterministic output)");
        std::process::exit(2);
    }
}

/// Runs `f` under a fresh telemetry recorder and returns its result
/// with the exact operation counts it incurred on this thread (a query
/// runs all of its subqueries there) — the deterministic answer to
/// "what was the time spent on".
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, CostVector) {
    let recorder = Recorder::new();
    let out = {
        let _install = recorder.install();
        f()
    };
    (out, recorder.take().total_cost())
}

/// One run of a query in the counts a kept sealed epoch moves (the
/// fields of a row or of a nested object): exponentiations, messages,
/// bytes.
#[must_use]
pub fn asked_once_cost(cost: &CostVector) -> Vec<(&'static str, Json)> {
    vec![
        ("modexp", cost.modexp.into()),
        ("messages", cost.msgs_sent.into()),
        ("bytes", cost.bytes_sent.into()),
    ]
}

/// What the auditor engine did for the same run: of the `sealed` sealed
/// epochs, how many it served from the answers it kept and how many it
/// had the plan run over. (Fields to put beside [`asked_once_cost`]'s.)
#[must_use]
pub fn answered_once_cost(cost: &CostVector, sealed: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("answer_hits", cost.answer_hits.into()),
        ("answer_misses", (sealed - cost.answer_hits).into()),
    ]
}

/// Gate of every cold/warm pair an experiment reports: the warm run
/// costs no more than the cold one in any of the [`asked_once_cost`]
/// counts, and the cold run was served nothing by the engine.
///
/// # Panics
///
/// Panics, naming `what`, if the warm run cost more.
pub fn assert_warm_within_cold(what: &str, cold: &CostVector, warm: &CostVector) {
    for (count, cold, warm) in [
        ("modexp", cold.modexp, warm.modexp),
        ("messages", cold.msgs_sent, warm.msgs_sent),
        ("bytes", cold.bytes_sent, warm.bytes_sent),
    ] {
        assert!(
            warm <= cold,
            "{what}: warm {count} {warm} above cold {cold}"
        );
    }
    assert_eq!(cold.answer_hits, 0, "{what}: a cold run hit");
}

/// A JSON value. Every `BENCH_*.json` is one of these rendered by
/// [`Json::render`], and an experiment's table rows are the same
/// objects rendered by [`render_rows`], so a row spells its fields
/// once.
#[derive(Debug)]
pub enum Json {
    /// Fields in declaration order.
    Object(Vec<(&'static str, Json)>),
    /// Elements in order.
    Array(Vec<Json>),
    /// A string, escaped on output.
    Str(String),
    /// An integer.
    Int(i128),
    /// A float printed with exactly this many fractional digits.
    Fixed(f64, usize),
    /// `true` / `false`.
    Bool(bool),
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
json_from_int!(u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl Json {
    /// The document text, newline-terminated. One layout rule: an
    /// object or array whose members are all scalars stays on one line,
    /// anything else breaks one member per line, two spaces a level.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite float: JSON cannot carry one, and a
    /// recorded figure that is NaN is a bug in the experiment.
    #[must_use]
    pub fn render(&self) -> String {
        self.text() + "\n"
    }

    fn text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Str(s) => write_str(out, s),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Fixed(x, digits) => {
                assert!(x.is_finite(), "non-finite float in a snapshot");
                out.push_str(&format!("{x:.digits$}"));
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Array(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Object(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(*k), v));
                write_members(out, indent, ['{', '}'], members);
            }
        }
    }

    /// The table cells of one row: nested objects flatten into dotted
    /// column names, strings print bare, everything else as its JSON.
    fn cells(&self, column: &str, out: &mut Vec<(String, String)>) {
        match self {
            Json::Object(fields) => {
                for (key, value) in fields {
                    let dot = if column.is_empty() { "" } else { "." };
                    value.cells(&format!("{column}{dot}{key}"), out);
                }
            }
            Json::Str(s) => out.push((column.to_owned(), s.clone())),
            other => out.push((column.to_owned(), other.text())),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

fn write_members<'a>(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'static str>, &'a Json)> + Clone,
) {
    let one_line = members
        .clone()
        .all(|(_, v)| !matches!(v, Json::Object(_) | Json::Array(_)));
    let (first, next, last) = if one_line {
        (String::new(), ", ".to_owned(), String::new())
    } else {
        let pad = " ".repeat(indent + 2);
        let outer = " ".repeat(indent);
        (
            format!("\n{pad}"),
            format!(",\n{pad}"),
            format!("\n{outer}"),
        )
    };
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        out.push_str(if i == 0 { &first } else { &next });
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    out.push_str(&last);
    out.push(close);
}

/// The column names and the cells of `rows` (objects with the same
/// fields).
fn row_cells(rows: &[Json]) -> (Vec<String>, Vec<Vec<String>>) {
    let mut headers = Vec::new();
    let mut table = Vec::new();
    for row in rows {
        let mut cells = Vec::new();
        row.cells("", &mut cells);
        let (columns, values): (Vec<String>, Vec<String>) = cells.into_iter().unzip();
        headers = columns;
        table.push(values);
    }
    (headers, table)
}

/// Renders `rows` (objects with the same fields) as an ASCII table
/// whose columns are the fields — the stdout twin of the `rows` array
/// an experiment records in its snapshot.
#[must_use]
pub fn render_rows(title: &str, rows: &[Json]) -> String {
    let (headers, table) = row_cells(rows);
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    render_table(title, &headers, &table)
}

/// Renders `rows` as a markdown table with the cells and headers of
/// [`render_rows`]: what a document quotes of an experiment, verbatim,
/// so a check can diff the quote against the experiment's stdout.
#[must_use]
pub fn render_markdown_rows(rows: &[Json]) -> String {
    let (headers, table) = row_cells(rows);
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let mut out = line(&headers);
    out.push_str(&line(&vec!["---".to_owned(); headers.len()]));
    for row in &table {
        out.push_str(&line(row));
    }
    out
}

/// An experiment binary's last statement, after every assert: records
/// `fields` (behind the `experiment` name) as `BENCH_<experiment>.json`
/// in the working directory. Every run writes; from the repository root
/// that rewrites the committed snapshot, which `ci.sh` then diffs.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_snapshot(experiment: &str, fields: Vec<(&'static str, Json)>) {
    let mut doc = vec![("experiment", Json::from(experiment))];
    doc.extend(fields);
    let path = format!("BENCH_{experiment}.json");
    std::fs::write(&path, Json::Object(doc).render())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
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
    fn json_strings_and_keys_go_through_json_escape() {
        let hostile = "q\"uote \\ back\nline \u{1}ctl";
        let doc = Json::Object(vec![("k\"ey", hostile.into())]);
        let expected = format!(
            "{{\"{}\": \"{}\"}}\n",
            json_escape("k\"ey"),
            json_escape(hostile)
        );
        assert_eq!(doc.render(), expected);
        assert!(expected.contains("\\\"uote \\\\ back\\nline \\u0001ctl"));
    }

    #[test]
    fn json_layout_nests_keeps_key_order_and_fixes_float_digits() {
        let doc = Json::Object(vec![
            ("zeta", 1u64.into()),
            ("alpha", Json::Fixed(0.1, 2)),
            ("none", Json::Array(vec![])),
            ("empty", Json::Object(vec![])),
            (
                "rows",
                Json::Array(vec![
                    Json::Object(vec![("ok", true.into()), ("sum", (-3i64).into())]),
                    Json::Object(vec![("inner", Json::Array(vec![1u64.into(), 2u64.into()]))]),
                ]),
            ),
        ]);
        let expected = "{\n  \"zeta\": 1,\n  \"alpha\": 0.10,\n  \"none\": [],\n  \"empty\": {},\n  \
                        \"rows\": [\n    {\"ok\": true, \"sum\": -3},\n    {\n      \"inner\": [1, 2]\n    }\n  \
                        ]\n}\n";
        assert_eq!(doc.render(), expected);
        assert_eq!(Json::Fixed(2.0 / 3.0, 4).render(), "0.6667\n");
        assert_eq!(Json::Fixed(41747.84, 1).render(), "41747.8\n");
    }

    #[test]
    fn rows_render_as_a_table_of_their_fields() {
        let row = |name: &str, hits: u64| {
            Json::Object(vec![
                ("name", name.into()),
                ("by", Json::Object(vec![("hits", hits.into())])),
            ])
        };
        let out = render_rows("T", &[row("a\"b", 7), row("c", 12)]);
        assert!(out.contains("| name | by.hits |"), "{out}");
        assert!(out.contains("| a\"b  | 7       |"), "{out}");
        assert!(out.contains("| c    | 12      |"), "{out}");
        let markdown = render_markdown_rows(&[row("a\"b", 7), row("c", 12)]);
        assert_eq!(
            markdown,
            "| name | by.hits |\n| --- | --- |\n| a\"b | 7 |\n| c | 12 |\n"
        );
    }

    #[test]
    fn metered_counts_the_operations_of_the_closure_only() {
        dla_telemetry::record(dla_telemetry::CostKind::ModExp, 9);
        let (out, cost) = metered(|| {
            dla_telemetry::record(dla_telemetry::CostKind::ModExp, 3);
            "done"
        });
        assert_eq!((out, cost.modexp, cost.msgs_sent), ("done", 3, 0));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(10), "10 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
    }
}

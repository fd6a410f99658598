//! Process-per-node deployment plumbing: the line protocol the
//! `dla-cluster` launcher speaks with `dla-node` children, peer-table
//! parsing, and child-process lifecycle management.
//!
//! ## Bootstrap protocol
//!
//! Port assignment is a chicken-and-egg problem: every node needs the
//! full peer table, but no port exists until every node has bound its
//! listener. The launcher resolves it in two half-duplex lines per
//! child:
//!
//! 1. The child binds `127.0.0.1:0` (or its `--listen` address) and
//!    prints `LISTEN <id> <addr>` on stdout, then blocks on stdin.
//! 2. Once every child has announced, the launcher writes the complete
//!    peer table — `PEERS <addr|->,...` — to each child's stdin. The
//!    child parses it and enters [`dla_net::tcp::serve`].
//! 3. After serving (coordinator sent SHUTDOWN), the child prints
//!    `REPORT <id> <routed> <forwarded> <stored> <stored_bytes> <digest>`
//!    and exits 0.
//!
//! `-` entries mark coordinator-hosted ids (no process behind them).

#![deny(rust_2018_idioms)]

use dla_net::NodeReport;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Peer table with launcher-side rendering and node-side parsing.
///
/// The wire form is a single comma-separated field: one `addr:port`
/// per remote node, `-` for coordinator-hosted ids, ordered by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerTable(pub Vec<Option<SocketAddr>>);

impl PeerTable {
    /// Renders the table for a `PEERS` line or a `--peers` flag.
    #[must_use]
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|slot| slot.map_or_else(|| "-".to_string(), |a| a.to_string()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses the wire form back into a table.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry when an address
    /// fails to parse.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut slots = Vec::new();
        for entry in text.trim().split(',') {
            if entry == "-" {
                slots.push(None);
            } else {
                let addr = entry
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad peer entry {entry:?}: {e}"))?;
                slots.push(Some(addr));
            }
        }
        Ok(PeerTable(slots))
    }
}

/// Renders a `REPORT` line from a serve-loop result.
#[must_use]
pub fn render_report(report: &NodeReport) -> String {
    format!(
        "REPORT {} {} {} {} {} {:016x}",
        report.id,
        report.routed,
        report.forwarded,
        report.stored,
        report.stored_bytes,
        report.digest
    )
}

/// Parses a `REPORT` line back into a [`NodeReport`]: the word and
/// exactly six fields.
///
/// # Errors
///
/// Returns a message describing the malformed field.
pub fn parse_report(line: &str) -> Result<NodeReport, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let ["REPORT", id, routed, forwarded, stored, stored_bytes, digest] = fields[..] else {
        return Err(format!("not a seven-field REPORT line: {line:?}"));
    };
    let number =
        |name: &str, text: &str| (text.parse::<u64>()).map_err(|e| format!("bad {name}: {e}"));
    Ok(NodeReport {
        id: id.parse().map_err(|e| format!("bad id: {e}"))?,
        routed: number("routed", routed)?,
        forwarded: number("forwarded", forwarded)?,
        stored: number("stored", stored)?,
        stored_bytes: number("stored_bytes", stored_bytes)?,
        digest: u64::from_str_radix(digest, 16).map_err(|e| format!("bad digest: {e}"))?,
    })
}

/// Locates the `dla-node` binary: the `DLA_NODE_BIN` environment
/// variable wins, otherwise a sibling of the current executable.
#[must_use]
pub fn locate_node_bin() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("DLA_NODE_BIN") {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let mut sibling = std::env::current_exe().ok()?;
    sibling.set_file_name("dla-node");
    sibling.is_file().then_some(sibling)
}

/// A spawned `dla-node` child that has announced its listen address
/// but not yet received its peer table.
#[derive(Debug)]
pub struct ChildNode {
    /// Node id.
    pub id: usize,
    /// Announced listen address.
    pub addr: SocketAddr,
    /// Role label the child was launched with.
    pub role: String,
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ChildNode {
    /// Spawns one `dla-node` process and waits for its `LISTEN` line.
    ///
    /// # Errors
    ///
    /// Fails if the process cannot be spawned or announces a
    /// malformed or mismatched `LISTEN` line.
    pub fn spawn(bin: &PathBuf, id: usize, role: &str, key: u64) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .arg("--id")
            .arg(id.to_string())
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--role")
            .arg(role)
            .arg("--key")
            .arg(key.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(
            child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("child stdout not captured"))?,
        );
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let mut fields = line.split_whitespace();
        let announced = (|| {
            if fields.next() != Some("LISTEN") {
                return None;
            }
            let announced_id = fields.next()?.parse::<usize>().ok()?;
            let addr = fields.next()?.parse::<SocketAddr>().ok()?;
            (announced_id == id).then_some(addr)
        })()
        .ok_or_else(|| {
            let _ = child.kill();
            io::Error::other(format!("node {id}: bad LISTEN line {line:?}"))
        })?;
        Ok(ChildNode {
            id,
            addr: announced,
            role: role.to_string(),
            child,
            stdout,
        })
    }

    /// Sends the completed peer table, releasing the child into its
    /// serve loop.
    ///
    /// # Errors
    ///
    /// Fails if the child's stdin has closed.
    pub fn send_peers(&mut self, table: &PeerTable) -> io::Result<()> {
        let stdin = self
            .child
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("child stdin not captured"))?;
        writeln!(stdin, "PEERS {}", table.render())?;
        stdin.flush()
    }

    /// Waits for the child's `REPORT` line and exit, with a deadline.
    ///
    /// # Errors
    ///
    /// Fails on a malformed report, a non-zero exit, or a deadline
    /// overrun (the child is killed in every failure path).
    pub fn finish(mut self, deadline: Duration) -> io::Result<NodeReport> {
        let started = Instant::now();
        let mut line = String::new();
        // The REPORT line only appears after serve() returns, which the
        // coordinator's SHUTDOWN triggers; a blocking read is bounded
        // by the process watchdog below.
        self.stdout.read_line(&mut line)?;
        let report = parse_report(&line).map_err(|e| {
            let _ = self.child.kill();
            io::Error::other(format!("node {}: {e}", self.id))
        })?;
        loop {
            if let Some(status) = self.child.try_wait()? {
                if !status.success() {
                    return Err(io::Error::other(format!(
                        "node {} exited with {status}",
                        self.id
                    )));
                }
                return Ok(report);
            }
            if started.elapsed() > deadline {
                let _ = self.child.kill();
                return Err(io::Error::other(format!(
                    "node {} did not exit within {deadline:?}",
                    self.id
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Kills the child outright (teardown of a failed launch).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_table_round_trips() {
        let table = PeerTable(vec![
            Some("127.0.0.1:4501".parse().unwrap()),
            None,
            Some("127.0.0.1:4503".parse().unwrap()),
        ]);
        let rendered = table.render();
        assert_eq!(rendered, "127.0.0.1:4501,-,127.0.0.1:4503");
        assert_eq!(PeerTable::parse(&rendered).unwrap(), table);
    }

    #[test]
    fn peer_table_rejects_garbage() {
        assert!(PeerTable::parse("127.0.0.1:1,nonsense").is_err());
    }

    #[test]
    fn report_line_round_trips() {
        let report = NodeReport {
            id: 3,
            routed: 10,
            forwarded: 7,
            stored: 4,
            stored_bytes: 99,
            digest: 0xdead_beef_0123_4567,
        };
        let line = render_report(&report);
        assert_eq!(parse_report(&line).unwrap(), report);
        assert!(parse_report("LISTEN 0 1.2.3.4:5").is_err());
        assert!(parse_report("REPORT 1 2 3").is_err());
    }

    #[test]
    fn a_report_line_with_an_eighth_field_is_refused() {
        let line = render_report(&NodeReport::default());
        assert!(parse_report(&format!("{line}\n")).is_ok());
        assert!(parse_report(&format!("{line} 0\n")).is_err());
    }
}

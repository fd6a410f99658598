//! The trace exporter: a Chrome-trace (`chrome://tracing` / Perfetto)
//! event file.
//!
//! The output is hand-rendered JSON (the workspace is offline — no
//! serde); [`json_escape`] handles the string encoding, here and for
//! the bench snapshots (`dla_bench::Json`).

use crate::trace::Trace;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn kvs_json(kvs: &[(String, String)]) -> String {
    let fields: Vec<String> = kvs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Virtual nanoseconds rendered as the fractional microseconds Chrome
/// trace timestamps use.
fn chrome_ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the trace in the Chrome trace-event format (JSON array
/// flavour): spans become complete (`"ph": "X"`) events, point events
/// become thread-scoped instants (`"ph": "i"`). Load the file at
/// `chrome://tracing` or <https://ui.perfetto.dev>; lanes (`tid`) are
/// protocol sessions.
#[must_use]
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut entries = Vec::new();
    for s in &trace.spans {
        entries.push(format!(
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": 0, \"tid\": {}, \"args\": {{\"span_id\": {}, \"parent\": {}}}}}",
            json_escape(&s.name),
            json_escape(s.category),
            chrome_ts(s.start_ns),
            chrome_ts(s.end_ns.saturating_sub(s.start_ns)),
            s.session,
            s.id,
            s.parent
        ));
    }
    for (span, name, at_ns, kvs) in trace
        .events
        .iter()
        .map(|e| (e.span, &e.name, e.at_ns, &e.kvs))
    {
        let session = trace
            .spans
            .iter()
            .find(|s| s.id == span)
            .map_or(0, |s| s.session);
        entries.push(format!(
            "  {{\"name\": \"{}\", \"cat\": \"event\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
             \"pid\": 0, \"tid\": {}, \"args\": {}}}",
            json_escape(name),
            chrome_ts(at_ns),
            session,
            kvs_json(kvs)
        ));
    }
    format!("[\n{}\n]\n", entries.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostKind, CostVector};
    use crate::trace::{EventRecord, SpanRecord};

    fn sample_trace() -> Trace {
        let mut costs = CostVector::default();
        costs.add(CostKind::ModExp, 12);
        costs.add(CostKind::MsgSent, 6);
        Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    category: "query",
                    name: "q\"uoted".to_string(),
                    session: 0,
                    start_ns: 0,
                    end_ns: 2_500,
                    costs: CostVector::default(),
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    category: "protocol",
                    name: "ssi".to_string(),
                    session: 3,
                    start_ns: 500,
                    end_ns: 1_500,
                    costs,
                },
            ],
            events: vec![EventRecord {
                span: 2,
                name: "relay-hop".to_string(),
                at_ns: 750,
                kvs: vec![("from".to_string(), "0".to_string())],
            }],
            unattributed: CostVector::default(),
        }
    }

    /// Minimal structural JSON validation: balanced delimiters outside
    /// strings, and legal escape usage. The CI gate re-validates the
    /// emitted files with `python3 -m json.tool`.
    fn check_balanced(json: &str) {
        let mut depth: i64 = 0;
        let mut in_string = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in: {json}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
        assert!(!in_string, "unterminated string in: {json}");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn chrome_trace_is_structurally_valid_and_in_microseconds() {
        let json = chrome_trace_json(&sample_trace());
        check_balanced(&json);
        // 500 ns start → 0.500 µs; 1000 ns duration → 1.000 µs.
        assert!(json.contains("\"ts\": 0.500"));
        assert!(json.contains("\"dur\": 1.000"));
        // The instant event inherits its span's session lane.
        assert!(json.contains("\"ph\": \"i\", \"s\": \"t\", \"ts\": 0.750, \"pid\": 0, \"tid\": 3"));
    }

    #[test]
    fn empty_trace_export_is_valid() {
        check_balanced(&chrome_trace_json(&Trace::default()));
        assert_eq!(chrome_trace_json(&Trace::default()), "[\n\n]\n");
    }
}

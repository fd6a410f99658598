//! The event-log data model (paper §2, Eq. 1–5 and Table 1).
//!
//! A transaction `T = {R_T, E_T, L_T, tsn, ttn}` executed by application
//! nodes generates log records; each record is identified by a globally
//! unique, monotonically increasing **glsn** (global log sequence
//! number) and carries typed attribute values.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A global log sequence number — "a monotonically increasing integer
/// that uniquely defines a log record" (Eq. 5). Rendered in hex like the
/// paper's examples (`139aef78`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Glsn(pub u64);

impl fmt::Display for Glsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

impl Glsn {
    /// Parses the paper's hex rendering.
    ///
    /// # Errors
    ///
    /// Returns an error string for non-hex input.
    pub fn parse(s: &str) -> Result<Self, String> {
        u64::from_str_radix(s, 16)
            .map(Glsn)
            .map_err(|e| format!("invalid glsn {s:?}: {e}"))
    }
}

/// An audit-trail attribute name (an element of the paper's universe
/// `I = {i₀, i₁, …}` — `time`, `id`, `protocol`, or undefined attributes
/// `C1, C2, …`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrName(String);

impl AttrName {
    /// Creates an attribute name (lowercased for canonical comparison).
    #[must_use]
    pub fn new(name: &str) -> Self {
        AttrName(name.to_ascii_lowercase())
    }

    /// The canonical string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName::new(s)
    }
}

/// The type of an attribute, fixed by the schema.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrType {
    /// 64-bit signed integer (counts, sizes).
    Int,
    /// Fixed-point with two decimals (money/volume), stored as
    /// hundredths.
    Fixed2,
    /// UTF-8 text (ids, protocol names, undefined attributes).
    Text,
    /// Seconds since the Unix epoch, rendered in the paper's
    /// `HH:MM:SS/MM/DD/YYYY` style.
    Time,
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttrType::Int => "int",
            AttrType::Fixed2 => "fixed2",
            AttrType::Text => "text",
            AttrType::Time => "time",
        };
        write!(f, "{name}")
    }
}

/// A typed attribute value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum AttrValue {
    /// Integer value.
    Int(i64),
    /// Fixed-point (hundredths): `Fixed2(2345)` renders `23.45`.
    Fixed2(i64),
    /// Text value.
    Text(String),
    /// Unix-epoch seconds.
    Time(u64),
}

impl AttrValue {
    /// The value's type.
    #[must_use]
    pub fn attr_type(&self) -> AttrType {
        match self {
            AttrValue::Int(_) => AttrType::Int,
            AttrValue::Fixed2(_) => AttrType::Fixed2,
            AttrValue::Text(_) => AttrType::Text,
            AttrValue::Time(_) => AttrType::Time,
        }
    }

    /// Convenience constructor for text.
    #[must_use]
    pub fn text(s: &str) -> Self {
        AttrValue::Text(s.to_owned())
    }

    /// Compares two values of the same type; `None` across types.
    #[must_use]
    pub fn try_cmp(&self, other: &AttrValue) -> Option<Ordering> {
        match (self, other) {
            (AttrValue::Int(a), AttrValue::Int(b)) => Some(a.cmp(b)),
            (AttrValue::Fixed2(a), AttrValue::Fixed2(b)) => Some(a.cmp(b)),
            (AttrValue::Text(a), AttrValue::Text(b)) => Some(a.cmp(b)),
            (AttrValue::Time(a), AttrValue::Time(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Decodes a value previously produced by
    /// [`to_canonical_bytes`](Self::to_canonical_bytes).
    ///
    /// # Errors
    ///
    /// Returns an error string on unknown tags, truncation or invalid
    /// UTF-8.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, String> {
        let (&tag, payload) = bytes
            .split_first()
            .ok_or_else(|| "empty value encoding".to_owned())?;
        let fixed_u64 = |payload: &[u8]| -> Result<[u8; 8], String> {
            payload
                .try_into()
                .map_err(|_| format!("value payload must be 8 bytes, got {}", payload.len()))
        };
        match tag {
            0x01 => Ok(AttrValue::Int(i64::from_be_bytes(fixed_u64(payload)?))),
            0x02 => Ok(AttrValue::Fixed2(i64::from_be_bytes(fixed_u64(payload)?))),
            0x03 => String::from_utf8(payload.to_vec())
                .map(AttrValue::Text)
                .map_err(|_| "invalid utf-8 in text value".to_owned()),
            0x04 => Ok(AttrValue::Time(u64::from_be_bytes(fixed_u64(payload)?))),
            other => Err(format!("unknown value tag {other:#x}")),
        }
    }

    /// Canonical byte encoding (type tag + payload) for hashing,
    /// fingerprinting and accumulator folding.
    #[must_use]
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AttrValue::Int(v) => {
                out.push(0x01);
                out.extend_from_slice(&v.to_be_bytes());
            }
            AttrValue::Fixed2(v) => {
                out.push(0x02);
                out.extend_from_slice(&v.to_be_bytes());
            }
            AttrValue::Text(s) => {
                out.push(0x03);
                out.extend_from_slice(s.as_bytes());
            }
            AttrValue::Time(t) => {
                out.push(0x04);
                out.extend_from_slice(&t.to_be_bytes());
            }
        }
        out
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Fixed2(v) => {
                let sign = if *v < 0 { "-" } else { "" };
                let abs = v.unsigned_abs();
                write!(f, "{sign}{}.{:02}", abs / 100, abs % 100)
            }
            AttrValue::Text(s) => write!(f, "{s}"),
            AttrValue::Time(t) => write!(f, "{}", format_paper_time(*t)),
        }
    }
}

/// Formats epoch seconds in the paper's Table 1 style
/// `HH:MM:SS/MM/DD/YYYY`.
#[must_use]
pub fn format_paper_time(epoch: u64) -> String {
    let (secs_of_day, days) = (epoch % 86_400, epoch / 86_400);
    let (h, m, s) = (
        secs_of_day / 3600,
        (secs_of_day % 3600) / 60,
        secs_of_day % 60,
    );
    let (year, month, day) = civil_from_days(days as i64);
    format!("{h:02}:{m:02}:{s:02}/{month:02}/{day:02}/{year}")
}

/// Builds epoch seconds from a civil date/time (UTC).
///
/// # Panics
///
/// Panics on out-of-range fields or pre-1970 dates.
#[must_use]
pub fn epoch_from_civil(year: i64, month: u64, day: u64, h: u64, m: u64, s: u64) -> u64 {
    assert!((1..=12).contains(&month), "month out of range");
    assert!((1..=31).contains(&day), "day out of range");
    assert!(h < 24 && m < 60 && s < 60, "time out of range");
    let days = days_from_civil(year, month as i64, day as i64);
    assert!(days >= 0, "pre-epoch dates unsupported");
    days as u64 * 86_400 + h * 3600 + m * 60 + s
}

// Howard Hinnant's civil-date algorithms (public domain).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn civil_from_days(z: i64) -> (i64, u64, u64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m as u64, d as u64)
}

/// A transaction identifier (`Tid` in Table 1, e.g. `T1100265`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransactionId(String);

impl TransactionId {
    /// Creates a transaction id.
    #[must_use]
    pub fn new(id: &str) -> Self {
        TransactionId(id.to_owned())
    }

    /// The id string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One global log record: `Log = {glsn, L = (l₀ … l_m)}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogRecord {
    /// The unique sequence number.
    pub glsn: Glsn,
    values: BTreeMap<AttrName, AttrValue>,
}

impl LogRecord {
    /// Creates an empty record for `glsn`.
    #[must_use]
    pub fn new(glsn: Glsn) -> Self {
        LogRecord {
            glsn,
            values: BTreeMap::new(),
        }
    }

    /// Sets an attribute (builder style).
    #[must_use]
    pub fn with(mut self, name: impl Into<AttrName>, value: AttrValue) -> Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Inserts an attribute, returning any previous value.
    pub fn insert(&mut self, name: AttrName, value: AttrValue) -> Option<AttrValue> {
        self.values.insert(name, value)
    }

    /// Looks up an attribute.
    #[must_use]
    pub fn get(&self, name: &AttrName) -> Option<&AttrValue> {
        self.values.get(name)
    }

    /// Iterates attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &AttrValue)> {
        self.values.iter()
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the record carries no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Decodes a record previously produced by
    /// [`to_canonical_bytes`](Self::to_canonical_bytes).
    ///
    /// # Errors
    ///
    /// Returns an error string on truncation or malformed fields.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, String> {
        let take = |bytes: &mut &[u8], n: usize, what: &str| -> Result<Vec<u8>, String> {
            if bytes.len() < n {
                return Err(format!("truncated record encoding at {what}"));
            }
            let (head, rest) = bytes.split_at(n);
            *bytes = rest;
            Ok(head.to_vec())
        };
        let take_u64 = |bytes: &mut &[u8], what: &str| -> Result<u64, String> {
            let Some((head, rest)) = bytes.split_first_chunk::<8>() else {
                return Err(format!("truncated record encoding at {what}"));
            };
            *bytes = rest;
            Ok(u64::from_be_bytes(*head))
        };

        let mut rest = bytes;
        let glsn = Glsn(take_u64(&mut rest, "glsn")?);
        let mut record = LogRecord::new(glsn);
        while !rest.is_empty() {
            let name_len = take_u64(&mut rest, "name length")? as usize;
            if name_len > rest.len() {
                return Err("attribute name length exceeds payload".into());
            }
            let name_bytes = take(&mut rest, name_len, "name")?;
            let name = String::from_utf8(name_bytes)
                .map_err(|_| "invalid utf-8 in attribute name".to_owned())?;
            let value_len = take_u64(&mut rest, "value length")? as usize;
            if value_len > rest.len() {
                return Err("attribute value length exceeds payload".into());
            }
            let value_bytes = take(&mut rest, value_len, "value")?;
            record.insert(
                AttrName::new(&name),
                AttrValue::from_canonical_bytes(&value_bytes)?,
            );
        }
        Ok(record)
    }

    /// Canonical bytes of the whole record (glsn + sorted attributes),
    /// used for accumulator folding and signatures.
    #[must_use]
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.glsn.0.to_be_bytes());
        for (name, value) in &self.values {
            let nb = name.as_str().as_bytes();
            out.extend_from_slice(&(nb.len() as u64).to_be_bytes());
            out.extend_from_slice(nb);
            let vb = value.to_canonical_bytes();
            out.extend_from_slice(&(vb.len() as u64).to_be_bytes());
            out.extend_from_slice(&vb);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glsn_displays_as_hex_and_parses_back() {
        let g = Glsn(0x139a_ef78);
        assert_eq!(g.to_string(), "139aef78");
        assert_eq!(Glsn::parse("139aef78").unwrap(), g);
        assert!(Glsn::parse("xyz").is_err());
    }

    #[test]
    fn attr_names_are_case_insensitive() {
        assert_eq!(AttrName::new("Time"), AttrName::new("time"));
        assert_eq!(AttrName::from("TID").as_str(), "tid");
    }

    #[test]
    fn fixed2_display() {
        assert_eq!(AttrValue::Fixed2(2345).to_string(), "23.45");
        assert_eq!(AttrValue::Fixed2(4).to_string(), "0.04");
        assert_eq!(AttrValue::Fixed2(-150).to_string(), "-1.50");
        assert_eq!(AttrValue::Fixed2(67875).to_string(), "678.75");
    }

    #[test]
    fn cross_type_comparison_is_none() {
        assert_eq!(
            AttrValue::Int(1).try_cmp(&AttrValue::Text("1".into())),
            None
        );
        assert_eq!(
            AttrValue::Int(1).try_cmp(&AttrValue::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            AttrValue::Text("b".into()).try_cmp(&AttrValue::text("a")),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn paper_time_round_trip() {
        // Table 1 row 1: 20:18:35/05/12/2002
        let epoch = epoch_from_civil(2002, 5, 12, 20, 18, 35);
        assert_eq!(format_paper_time(epoch), "20:18:35/05/12/2002");
    }

    #[test]
    fn civil_conversion_handles_epoch_and_leap_years() {
        assert_eq!(format_paper_time(0), "00:00:00/01/01/1970");
        let leap = epoch_from_civil(2000, 2, 29, 12, 0, 0);
        assert_eq!(format_paper_time(leap), "12:00:00/02/29/2000");
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn bad_month_panics() {
        let _ = epoch_from_civil(2002, 13, 1, 0, 0, 0);
    }

    #[test]
    fn time_values_order_chronologically() {
        let earlier = AttrValue::Time(epoch_from_civil(2002, 5, 12, 20, 18, 35));
        let later = AttrValue::Time(epoch_from_civil(2002, 5, 12, 20, 20, 35));
        assert_eq!(earlier.try_cmp(&later), Some(Ordering::Less));
    }

    #[test]
    fn record_builder_and_lookup() {
        let rec = LogRecord::new(Glsn(1))
            .with("id", AttrValue::text("U1"))
            .with("c1", AttrValue::Int(20));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.get(&"id".into()), Some(&AttrValue::text("U1")));
        assert_eq!(rec.get(&"missing".into()), None);
        assert!(!rec.is_empty());
    }

    #[test]
    fn canonical_bytes_are_injective_on_content() {
        let a = LogRecord::new(Glsn(1)).with("x", AttrValue::Int(1));
        let b = LogRecord::new(Glsn(1)).with("x", AttrValue::Int(2));
        let c = LogRecord::new(Glsn(2)).with("x", AttrValue::Int(1));
        assert_ne!(a.to_canonical_bytes(), b.to_canonical_bytes());
        assert_ne!(a.to_canonical_bytes(), c.to_canonical_bytes());
    }

    #[test]
    fn canonical_bytes_independent_of_insertion_order() {
        let a = LogRecord::new(Glsn(1))
            .with("b", AttrValue::Int(2))
            .with("a", AttrValue::Int(1));
        let b = LogRecord::new(Glsn(1))
            .with("a", AttrValue::Int(1))
            .with("b", AttrValue::Int(2));
        assert_eq!(a.to_canonical_bytes(), b.to_canonical_bytes());
    }

    #[test]
    fn value_type_tags_distinguish_same_payload() {
        // Int(1) and Time(1) share payload bytes but differ in tag.
        assert_ne!(
            AttrValue::Int(1).to_canonical_bytes(),
            AttrValue::Time(1).to_canonical_bytes()
        );
    }

    #[test]
    fn transaction_id_display() {
        assert_eq!(TransactionId::new("T1100265").to_string(), "T1100265");
    }
}

//! Minimal self-describing binary wire format.
//!
//! The approved dependency list includes `serde` but no serialization
//! *format* crate, so protocol messages are encoded with this small
//! length-prefixed writer/reader pair. Every field is explicitly
//! appended/consumed, which keeps message layouts reviewable — a virtue
//! in an auditing system.

use bytes::Bytes;
use std::fmt;

/// Error produced when decoding a malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    what: &'static str,
}

impl WireError {
    fn new(what: &'static str) -> Self {
        WireError { what }
    }

    /// The error raised when a payload checksum does not match — the
    /// receiver-side face of in-flight corruption.
    #[must_use]
    pub fn checksum_mismatch() -> Self {
        WireError::new("payload checksum mismatch")
    }
}

/// The per-envelope payload checksum: corruption injected in flight
/// is rejected at decode instead of feeding garbage into protocol
/// state machines. One routine with the node journals' entry checksum.
pub use dla_telemetry::crc32;

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire message: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// Append-only message builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u128`.
    pub fn put_u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends a count-prefixed list using `f` per element.
    pub fn put_list<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.put_u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
        self
    }

    /// Finishes the message.
    #[must_use]
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes the message as a plain, still-mutable buffer — for a
    /// caller that patches a header it reserved up front (the socket
    /// transport's length prefix).
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential message consumer.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a received payload.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { rest: data }
    }

    /// Consumes a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let (&first, rest) = self
            .rest
            .split_first()
            .ok_or_else(|| WireError::new("truncated u8"))?;
        self.rest = rest;
        Ok(first)
    }

    /// Consumes a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        if self.rest.len() < 8 {
            return Err(WireError::new("truncated u64"));
        }
        let (head, rest) = self.rest.split_at(8);
        self.rest = rest;
        Ok(u64::from_be_bytes(head.try_into().expect("8 bytes")))
    }

    /// Consumes a big-endian `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn get_u128(&mut self) -> Result<u128, WireError> {
        if self.rest.len() < 16 {
            return Err(WireError::new("truncated u128"));
        }
        let (head, rest) = self.rest.split_at(16);
        self.rest = rest;
        Ok(u128::from_be_bytes(head.try_into().expect("16 bytes")))
    }

    /// Consumes a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or an absurd length prefix.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u64()? as usize;
        if self.rest.len() < len {
            return Err(WireError::new("truncated byte string"));
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    /// Consumes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::new("invalid utf-8"))
    }

    /// Consumes a count-prefixed list using `f` per element.
    ///
    /// # Errors
    ///
    /// Propagates element decoding errors.
    pub fn get_list<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.get_u64()? as usize;
        // Guard against hostile length prefixes: each element consumes at
        // least one byte in every encoding this crate produces.
        if count > self.rest.len() {
            return Err(WireError::new("list count exceeds payload"));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Asserts the message is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes"))
        }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_types() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u64(1 << 40)
            .put_u128(1 << 100)
            .put_bytes(b"payload")
            .put_str("glsn=139aef78")
            .put_list(&[1u64, 2, 3], |w, &v| {
                w.put_u64(v);
            });
        let msg = w.finish();

        let mut r = Reader::new(&msg);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_u128().unwrap(), 1 << 100);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_str().unwrap(), "glsn=139aef78");
        assert_eq!(r.get_list(|r| r.get_u64()).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = Writer::new();
        w.put_u64(5);
        let msg = w.finish();
        let mut r = Reader::new(&msg[..4]);
        assert!(r.get_u64().is_err());

        let mut r2 = Reader::new(&msg);
        assert!(r2.get_bytes().is_err(), "length prefix 5 but no payload");
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2);
        let msg = w.finish();
        let mut r = Reader::new(&msg);
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn hostile_list_count_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims 2^64-1 elements
        let msg = w.finish();
        let mut r = Reader::new(&msg);
        assert!(r.get_list(|r| r.get_u8()).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let msg = w.finish();
        let mut r = Reader::new(&msg);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn empty_collections_round_trip() {
        let mut w = Writer::new();
        w.put_bytes(b"").put_list::<u64>(&[], |_, _| {});
        let msg = w.finish();
        let mut r = Reader::new(&msg);
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert!(r.get_list(|r| r.get_u64()).unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn error_display() {
        let e = WireError::new("truncated u64");
        assert_eq!(e.to_string(), "malformed wire message: truncated u64");
        assert_eq!(
            WireError::checksum_mismatch().to_string(),
            "malformed wire message: payload checksum mismatch"
        );
    }
}

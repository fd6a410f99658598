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

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic one-byte
/// table; `CRC_TABLES[k][b]` is the CRC state after byte `b` followed
/// by `k` zero bytes, which is what lets eight input bytes be folded
/// with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) over `data`. Used as the per-envelope payload
/// checksum so corruption injected in flight is rejected at decode
/// instead of feeding garbage into protocol state machines.
///
/// Table-driven (slicing-by-8): every payload is checksummed three to
/// five times between `Envelope::new` and delivery, so the per-byte
/// cost is on every message's path.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

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

    /// The bit-at-a-time definition of the checksum — the differential
    /// oracle for the table-driven [`crc32`].
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // Single-bit flips change the checksum.
        assert_ne!(crc32(b"payload"), crc32(b"pa\x78load"));
    }

    #[test]
    fn table_driven_crc32_equals_the_bitwise_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut data = vec![0u8; 4096 + 7];
        for byte in &mut data {
            *byte = rng.gen();
        }
        // Every length around the 8-byte stride, at every alignment of
        // the slice start, then a spread of longer ones.
        for start in 0..8 {
            for len in 0..=40 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for len in [63, 64, 65, 600, 1023, 4096, 4103] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&[0u8; 64]), crc32_bitwise(&[0u8; 64]));
        assert_eq!(crc32(&[0xFFu8; 64]), crc32_bitwise(&[0xFFu8; 64]));
    }
}

#![deny(rust_2018_idioms)]
// The crate's one `unsafe` is the SHA-256 hardware compressor: every
// operation in it sits in its own block, under a comment saying why it
// holds.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Cryptographic primitives for confidential distributed auditing.
//!
//! Everything the paper's DLA protocols need, built from scratch on
//! [`dla_bigint`]:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`sha256`] | collision-resistant fingerprints (substrate) |
//! | [`pohlig_hellman`] | commutative encryption, §3 Eq. 6–7 |
//! | [`accumulator`] | Benaloh–de Mare one-way accumulator, §4.1 Eq. 8–9 |
//! | [`shamir`] | (k, n) secret sharing for secure sum, §3.5 |
//! | [`affine`] | randomized mappings for `=_s` / `Max_s` / `Min_s` / `Rank_s`, §3.2–3.3 |
//! | [`schnorr`] | tickets & certificates, §4 |
//! | [`threshold`] | threshold signatures, §2 |
//! | [`commitment`] | Pedersen commitments (evidence substrate) |
//! | [`evidence`] | e-coin tokens with double-use exposure, §4.2 |
//!
//! # Examples
//!
//! ```
//! use dla_crypto::pohlig_hellman::{CommutativeDomain, CommutativeKey, PhKey};
//!
//! // Three parties triple-encrypt an element; any encryption order
//! // yields the same ciphertext (the heart of secure set intersection).
//! let domain = CommutativeDomain::fixed_256();
//! let mut rng = rand::thread_rng();
//! let keys: Vec<PhKey> = (0..3).map(|_| PhKey::generate(&domain, &mut rng)).collect();
//! let m = domain.fingerprint(b"e");
//! let forward = keys.iter().fold(m.clone(), |c, k| k.encrypt(&c));
//! let backward = keys.iter().rev().fold(m, |c, k| k.encrypt(&c));
//! assert_eq!(forward, backward);
//! ```

use std::fmt;

pub mod accumulator;
pub mod affine;
pub mod commitment;
pub mod evidence;
pub mod pohlig_hellman;
pub mod schnorr;
pub mod sha256;
pub mod shamir;
pub mod shamir_big;
pub mod threshold;

/// CRC-32, forwarded from its home in `dla-telemetry` — the one crate
/// under both `dla-net` and `dla-logstore` — for `dla-logstore`, whose
/// only workspace dependency is this crate: its journal entries carry
/// the checksum the wire's envelopes do, from the one routine.
pub use dla_telemetry::crc32;

/// Errors produced by the cryptographic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A parameter failed validation (wrong range, not prime, not
    /// coprime, duplicate, …).
    InvalidParameter(&'static str),
    /// A signature or proof failed verification.
    VerificationFailed(&'static str),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CryptoError::VerificationFailed(what) => write!(f, "verification failed: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let e = CryptoError::InvalidParameter("p is not prime");
        assert_eq!(e.to_string(), "invalid parameter: p is not prime");
        let v = CryptoError::VerificationFailed("bad signature");
        assert_eq!(v.to_string(), "verification failed: bad signature");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}

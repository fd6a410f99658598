#![deny(rust_2018_idioms)]
// The crate's one `unsafe` is the AVX-512 IFMA lane kernel: every block
// in it says, under `// SAFETY:`, which detection guard makes it hold.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Arbitrary-precision unsigned modular arithmetic for the DLA
//! confidential-auditing stack.
//!
//! The paper's cryptographic substrate — Pohlig–Hellman commutative
//! encryption, Benaloh–de Mare one-way accumulators, Schnorr signatures —
//! needs multi-hundred-bit modular exponentiation, primality testing and
//! safe-prime generation. None of the crates on the approved dependency
//! list provide big integers, so this crate hand-rolls them (see
//! `DESIGN.md` §2, "commutative encryption needs hand-rolling").
//!
//! The centrepiece is [`Ubig`], a little-endian `u64`-limb unsigned
//! integer with schoolbook multiplication and Knuth Algorithm D division —
//! entirely adequate for the 256–1024-bit operands used by the protocols.
//! On top of it sit [`modular`] (modexp / modinv / egcd), [`prime`]
//! (Miller–Rabin, safe primes) and [`field`] (a fixed 61-bit Mersenne
//! prime field used by Shamir secret sharing, where speed matters more
//! than size).
//!
//! # Examples
//!
//! ```
//! use dla_bigint::{Ubig, modular};
//!
//! let p = Ubig::from_u64(1_000_000_007);
//! let x = Ubig::from_u64(1234);
//! let y = modular::modexp(&x, &Ubig::from_u64(1_000_000_006), &p);
//! assert_eq!(y, Ubig::one()); // Fermat's little theorem
//! ```

pub mod field;
pub mod fixed_base;
pub mod jacobi;
#[cfg(target_arch = "x86_64")]
mod lanes;
pub mod modular;
pub mod montgomery;
pub mod multi_exp;
pub mod prime;
mod ubig;
mod words;

pub use field::F61;
pub use fixed_base::FixedBase;
pub use multi_exp::multi_exp;
pub use ubig::{ParseUbigError, Ubig};

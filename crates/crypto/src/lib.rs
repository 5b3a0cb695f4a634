#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! # p3-crypto — primitives for the P3 secret-part envelope
//!
//! The P3 system encrypts the secret part of every photo with a symmetric
//! key shared out of band between sender and recipients (paper §4.1:
//! "we assume the use of AES-based symmetric keys"). No crypto crate is
//! available in this build's offline dependency set, so the primitives are
//! implemented here from their specifications and validated against the
//! published test vectors:
//!
//! * [`aes`] — AES-128/192/256 block cipher (FIPS-197);
//! * [`ctr`] — CTR mode keystream encryption (NIST SP 800-38A);
//! * [`sha256`](mod@sha256) — SHA-256 (FIPS 180-4);
//! * [`hmac`] — HMAC-SHA256 (RFC 2104 / RFC 4231);
//! * [`hkdf`] — HKDF-SHA256 (RFC 5869) for deriving per-photo keys;
//! * [`seal`] / [`open`] — the encrypt-then-MAC envelope used for secret parts.
//!
//! **Scope note.** These implementations favour clarity and correctness;
//! they make no constant-time claims beyond what the algorithms give
//! naturally (table-based AES S-box lookups are *not* cache-timing safe).
//! That is faithful to the paper's prototype, which used stock libraries
//! on a trusted client device.

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
pub mod ctr;
mod envelope;
pub mod hkdf;
pub mod hmac;
pub mod sha256;

pub use aes::Aes;
pub use ctr::AesCtr;
pub use envelope::{open, seal, EnvelopeError, EnvelopeKey};
pub use hkdf::hkdf_sha256;
pub use hmac::hmac_sha256;
pub use sha256::sha256;

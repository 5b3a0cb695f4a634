#![warn(missing_docs)]

//! # p3-core — the P3 privacy-preserving photo encoding algorithm
//!
//! Implements the NSDI 2013 paper's contribution: threshold-based
//! splitting of a JPEG image into a JPEG-compliant **public part** (most
//! of the bytes, almost none of the information) and an encrypted
//! **secret part** (small, but carrying the DC coefficients and the
//! significant AC energy), plus the reconstruction machinery — exact
//! (paper Eq. 1) and under server-side linear processing (Eq. 2).
//!
//! ```
//! use p3_core::{P3Config, P3Codec};
//! use p3_crypto::EnvelopeKey;
//!
//! // A toy image, encoded as ordinary JPEG.
//! let mut img = p3_jpeg::RgbImage::new(64, 64);
//! for y in 0..64 { for x in 0..64 {
//!     img.set(x, y, [((x * 4) % 256) as u8, ((y * 4) % 256) as u8, 128]);
//! }}
//! let jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).unwrap();
//!
//! // Sender side: split + encrypt.
//! let codec = P3Codec::new(P3Config { threshold: 15, ..Default::default() });
//! let key = EnvelopeKey::derive(b"shared group key", b"photo-1");
//! let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
//!
//! // The public part is a standards-compliant JPEG the PSP can store.
//! assert!(parts.public_jpeg.starts_with(&[0xFF, 0xD8]));
//!
//! // Recipient side: decrypt + reconstruct (identical coefficients).
//! let restored = codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
//! let a = p3_jpeg::decode_to_rgb(&jpeg).unwrap();
//! let b = p3_jpeg::decode_to_rgb(&restored).unwrap();
//! assert_eq!(a.data, b.data);
//! ```
//!
//! Module map: [`split`] (the threshold algorithm), [`container`] (the
//! encrypted secret-part format), [`transform`] (the linear-operator
//! model of PSP processing), [`reconstruct`] (Eq. 1/Eq. 2), [`pipeline`]
//! (end-to-end codec), [`attack`] (the paper's §3.4 threshold-guessing
//! adversary), [`pixel`] (RGB↔planar float conversions).

pub mod attack;
pub mod container;
pub mod embed;
pub mod pipeline;
pub mod pixel;
pub mod reconstruct;
pub mod split;
pub mod transform;

pub use container::SecretContainer;
pub use pipeline::{P3Codec, P3Config, P3Parts};
pub use reconstruct::{reconstruct_exact, reconstruct_processed};
pub use split::{recombine_coeffs, split_coeffs, SplitStats};
pub use transform::TransformSpec;

use std::fmt;

/// Errors from P3 encoding/decoding.
#[derive(Debug)]
pub enum P3Error {
    /// Underlying JPEG codec error.
    Jpeg(p3_jpeg::JpegError),
    /// Secret-part envelope failure (tampering, wrong key, truncation).
    Envelope(p3_crypto::EnvelopeError),
    /// Secret container malformed.
    Container(String),
    /// Public and secret parts are inconsistent with each other.
    Mismatch(String),
    /// Invalid configuration.
    Config(String),
}

impl fmt::Display for P3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P3Error::Jpeg(e) => write!(f, "jpeg: {e}"),
            P3Error::Envelope(e) => write!(f, "envelope: {e}"),
            P3Error::Container(m) => write!(f, "container: {m}"),
            P3Error::Mismatch(m) => write!(f, "part mismatch: {m}"),
            P3Error::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for P3Error {}

impl From<p3_jpeg::JpegError> for P3Error {
    fn from(e: p3_jpeg::JpegError) -> Self {
        P3Error::Jpeg(e)
    }
}

impl From<p3_crypto::EnvelopeError> for P3Error {
    fn from(e: p3_crypto::EnvelopeError) -> Self {
        P3Error::Envelope(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, P3Error>;

#![warn(missing_docs)]

//! # p3-jpeg — a from-scratch JPEG codec with coefficient-level access
//!
//! This crate implements the JPEG substrate required by the P3
//! privacy-preserving photo sharing algorithm (Ra, Govindan, Ortega —
//! NSDI 2013). P3 splits an image into a *public* and a *secret* part by
//! operating on **quantized DCT coefficients**, i.e. it patches into the
//! JPEG pipeline immediately after the quantization step. Off-the-shelf
//! decoders hide that stage, so this crate exposes it directly:
//!
//! * [`decode_to_coeffs`] parses a JPEG bitstream (baseline *or*
//!   progressive) into a [`CoeffImage`] of quantized coefficients;
//! * [`CoeffImage`] can be manipulated block-by-block (this is where the
//!   P3 split runs) and re-encoded losslessly with
//!   [`encoder::encode_coeffs`];
//! * [`decode_to_rgb`] / [`encoder::Encoder`] provide the conventional
//!   pixel-level entry points used by the dataset generators and the PSP
//!   simulator.
//!
//! The bitstreams produced here are real, interoperable JPEG: JFIF
//! markers, Annex-K or optimized Huffman tables, `0xFF` byte stuffing,
//! optional restart intervals, and both sequential (SOF0) and progressive
//! (SOF2) modes — Facebook's pipeline converts uploads to progressive, so
//! the PSP simulator needs both.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`bitio`] | MSB-first bit writer/reader with marker-aware byte stuffing |
//! | [`zigzag`] | zig-zag index permutations |
//! | [`quant`] | quantization tables, Annex-K defaults, IJG quality scaling |
//! | [`dct`] | forward/inverse 8×8 DCT (separable, `f32`) |
//! | [`color`] | JFIF RGB↔YCbCr, chroma down/upsampling |
//! | [`simd`] | runtime-dispatched SSE2/AVX2 kernels for the per-pixel/per-block stages |
//! | [`huffman`] | table derivation, Annex-K defaults, optimal table builder |
//! | [`marker`] | marker constants and segment-level parse/serialize |
//! | [`block`] | [`CoeffImage`] / [`ComponentCoeffs`] coefficient storage |
//! | [`encoder`] | baseline & progressive encoding from pixels or coefficients |
//! | [`decoder`] | baseline & progressive decoding to coefficients or pixels |
//! | [`image`] | minimal owned RGB/gray pixel buffers |

pub mod bitio;
pub mod block;
pub mod color;
pub mod dct;
pub mod decoder;
pub mod encoder;
pub mod huffman;
pub mod image;
pub mod marker;
pub mod quant;
pub mod simd;
pub mod zigzag;

pub use block::{Block, CoeffImage, ComponentCoeffs, COEFS_PER_BLOCK};
pub use decoder::{decode_to_coeffs, decode_to_gray, decode_to_rgb, DecodedInfo};
pub use encoder::{Encoder, Mode, Subsampling};
pub use image::{GrayImage, RgbImage};
pub use quant::QuantTable;

use std::fmt;

/// Errors produced while parsing or generating JPEG bitstreams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JpegError {
    /// The bitstream violates the JPEG specification.
    Format(String),
    /// The bitstream is legal JPEG but uses a feature this codec does not
    /// implement (e.g. arithmetic coding, 12-bit precision, hierarchical).
    Unsupported(String),
    /// The frame header claims a side over [`decoder::MAX_SIDE`]. The
    /// decoder allocates the coefficient planes the header asks for, so
    /// it refuses before it does.
    TooLarge {
        /// Claimed width in samples.
        width: usize,
        /// Claimed height in samples.
        height: usize,
    },
    /// Input ended before the bitstream was complete.
    Truncated,
    /// A caller-supplied structure is inconsistent (e.g. a [`CoeffImage`]
    /// whose component geometry does not match its block count).
    Invalid(String),
}

impl fmt::Display for JpegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JpegError::Format(m) => write!(f, "malformed JPEG: {m}"),
            JpegError::Unsupported(m) => write!(f, "unsupported JPEG feature: {m}"),
            JpegError::TooLarge { width, height } => {
                write!(f, "{width}x{height} frame exceeds {} samples a side", decoder::MAX_SIDE)
            }
            JpegError::Truncated => write!(f, "truncated JPEG stream"),
            JpegError::Invalid(m) => write!(f, "invalid input: {m}"),
        }
    }
}

impl std::error::Error for JpegError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, JpegError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = JpegError::Format("bad SOF".into());
        assert!(e.to_string().contains("bad SOF"));
        let e = JpegError::Unsupported("arithmetic coding".into());
        assert!(e.to_string().contains("arithmetic"));
        assert!(JpegError::Truncated.to_string().contains("truncated"));
    }
}

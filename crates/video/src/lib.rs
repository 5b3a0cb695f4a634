#![warn(missing_docs)]

//! # p3-video — the paper's §4.2 video extension
//!
//! "Extending this idea to video is feasible […] As an initial step, it
//! is possible to introduce the privacy preserving techniques only to
//! the I-frames, which are coded independently using tools similar to
//! those used in JPEG. Because other frames in a 'group of pictures' are
//! coded using an I-frame as a predictor, quality reductions in an
//! I-frame propagate through the remaining frames."
//!
//! This crate implements exactly that initial step:
//!
//! * [`codec`] — a GOP video codec: I-frames are JPEG; P-frames encode
//!   the (level-shifted) difference from the previously *reconstructed*
//!   frame as JPEG, so encoder and decoder stay drift-free;
//! * [`container`] — a minimal framed container (`P3V1`);
//! * [`split`] — P3 applied to I-frames only: the public video keeps the
//!   P-frames intact but every I-frame is a P3 public part; the secret
//!   stream, sealed as one envelope, is the clip's GOP table — per GOP,
//!   the byte length and SHA-256 of its records in the public stream and
//!   its I-frame's secret part — so one GOP reconstructs from a ranged
//!   read, and public bytes that do not match fail instead of playing.
//!   Degradation measurably propagates through each GOP (see the tests),
//!   which is what makes I-frame-only splitting sufficient.

pub mod codec;
pub mod container;
pub mod split;

pub use codec::{GopCodec, VideoCodecParams};
pub use container::{FrameKind, VideoStream};
pub use split::{open_secret_stream, reconstruct_gop, reconstruct_video, split_video, GopTable};

use std::fmt;

/// Video-layer errors.
#[derive(Debug)]
pub enum VideoError {
    /// Underlying JPEG failure.
    Jpeg(p3_jpeg::JpegError),
    /// Underlying P3 failure.
    P3(p3_core::P3Error),
    /// Container framing violation.
    Container(String),
    /// Inconsistent stream (e.g. P-frame before any I-frame).
    Stream(String),
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::Jpeg(e) => write!(f, "jpeg: {e}"),
            VideoError::P3(e) => write!(f, "p3: {e}"),
            VideoError::Container(m) => write!(f, "container: {m}"),
            VideoError::Stream(m) => write!(f, "stream: {m}"),
        }
    }
}

impl std::error::Error for VideoError {}

impl From<p3_jpeg::JpegError> for VideoError {
    fn from(e: p3_jpeg::JpegError) -> Self {
        VideoError::Jpeg(e)
    }
}

impl From<p3_core::P3Error> for VideoError {
    fn from(e: p3_core::P3Error) -> Self {
        VideoError::P3(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, VideoError>;

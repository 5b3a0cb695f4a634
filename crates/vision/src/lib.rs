#![warn(missing_docs)]

//! # p3-vision — image processing and the paper's "attack" algorithms
//!
//! The P3 evaluation measures privacy as the *failure* of standard
//! computer-vision algorithms on the public part of a split photo
//! (paper §5.2.2: "each automated algorithm can be considered to be
//! mounting a privacy attack on the public part"). This crate implements
//! those attacks and the supporting image machinery:
//!
//! | module | paper use |
//! |---|---|
//! | [`image`] | `f32` image buffers all algorithms operate on |
//! | [`metrics`] | PSNR (Fig. 6), MSE, SSIM |
//! | [`filter`] | convolution, Gaussian, Sobel (building blocks) |
//! | [`canny`] | Canny edge detection + matching-pixel ratio (Fig. 8a, 9) |
//! | [`resize`] | the PSP transform zoo: resample filters, crop, sharpen (Fig. 10, §5.3 reconstruction) |
//! | [`sift`] | SIFT keypoints/descriptors + ratio-test matching (Fig. 8c) |
//! | [`eigenface`] | Eigenfaces PCA recognition + CMC curves (Fig. 8d) |
//! | [`facedetect`] | Haar + AdaBoost cascade face detector (Fig. 8b) |
//!
//! Everything here is implemented from the primary literature (Canny '86,
//! Lowe '04, Turk & Pentland '91, Viola & Jones '01) — no external vision
//! dependencies exist in this build.

pub mod canny;
pub mod eigenface;
pub mod facedetect;
pub mod filter;
pub mod image;
pub mod metrics;
pub mod resize;
pub mod sift;

pub use image::ImageF32;
pub use metrics::{mse, psnr, ssim};

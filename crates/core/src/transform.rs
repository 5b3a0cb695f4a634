//! The linear-operator model of PSP server-side processing (paper §3.3).
//!
//! "Many interesting image transformations such as filtering, cropping,
//! scaling (resizing), and overlapping can be expressed by linear
//! operators" — a [`TransformSpec`] is one concrete `A`: an optional
//! crop, a resize with a chosen filter, optional unsharp sharpening, and
//! a gamma correction. All stages except gamma are linear; gamma is the
//! paper's example of a one-to-one nonlinear mapping that must be
//! inverted around the linear reconstruction instead (§3.3, "Extensions"
//! discussion of color remapping).

use p3_vision::image::ImageF32;
use p3_vision::resize::{crop, gamma_correct, resize, sharpen, ResizeFilter};
use std::borrow::Cow;

/// A concrete server-side processing pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformSpec {
    /// Crop rectangle `(x, y, w, h)` applied first, if any.
    pub crop: Option<(usize, usize, usize, usize)>,
    /// Output dimensions of the resize stage (applied after crop); `None`
    /// keeps the size.
    pub resize_to: Option<(usize, usize)>,
    /// Resampling kernel.
    pub filter: ResizeFilter,
    /// Unsharp mask `(sigma, amount)`; `amount = 0` disables.
    pub sharpen: (f32, f32),
    /// Gamma correction; `1.0` disables (the only nonlinear stage).
    pub gamma: f32,
}

impl Default for TransformSpec {
    fn default() -> Self {
        Self {
            crop: None,
            resize_to: None,
            filter: ResizeFilter::Triangle,
            sharpen: (1.0, 0.0),
            gamma: 1.0,
        }
    }
}

impl TransformSpec {
    /// The identity transform.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Plain resize with a filter.
    pub fn resize(w: usize, h: usize, filter: ResizeFilter) -> Self {
        Self { resize_to: Some((w, h)), filter, ..Self::default() }
    }

    /// Apply the full pipeline (including gamma) to one channel.
    pub fn apply(&self, ch: &ImageF32) -> ImageF32 {
        let linear = self.linear_stages(ch);
        if self.is_linear() {
            linear.into_owned()
        } else {
            gamma_correct(&linear, self.gamma)
        }
    }

    /// Apply only the linear stages (crop → resize → sharpen). This is
    /// the `A` of paper Eq. 2 — what the recipient applies to the
    /// secret + correction delta.
    pub fn apply_linear(&self, ch: &ImageF32) -> ImageF32 {
        self.linear_stages(ch).into_owned()
    }

    /// The linear stages, borrowing the input until a stage actually
    /// runs: each stage that does allocates its output and nothing else.
    fn linear_stages<'a>(&self, ch: &'a ImageF32) -> Cow<'a, ImageF32> {
        let mut img = Cow::Borrowed(ch);
        if let Some((x, y, w, h)) = self.crop {
            img = Cow::Owned(crop(&img, x, y, w, h));
        }
        if let Some((w, h)) = self.resize_to {
            if (w, h) != (img.width, img.height) {
                img = Cow::Owned(resize(&img, w, h, self.filter));
            }
        }
        let (sigma, amount) = self.sharpen;
        if amount != 0.0 {
            img = Cow::Owned(sharpen(&img, sigma, amount));
        }
        img
    }

    /// Output dimensions for an input of the given size.
    pub fn output_dims(&self, w: usize, h: usize) -> (usize, usize) {
        let (w, h) = match self.crop {
            Some((x, y, cw, ch)) => {
                (cw.min(w.saturating_sub(x)).max(1), ch.min(h.saturating_sub(y)).max(1))
            }
            None => (w, h),
        };
        match self.resize_to {
            Some(dims) => dims,
            None => (w, h),
        }
    }

    /// True if the whole pipeline is linear (gamma = 1).
    pub fn is_linear(&self) -> bool {
        (self.gamma - 1.0).abs() < 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(w: usize, h: usize, seed: u32) -> ImageF32 {
        let mut img = ImageF32::new(w, h);
        let mut s = seed;
        for v in img.data.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (s >> 24) as f32;
        }
        img
    }

    #[test]
    fn identity_is_identity() {
        let img = probe(20, 16, 1);
        let t = TransformSpec::identity();
        assert_eq!(t.apply(&img).data, img.data);
        assert!(t.is_linear());
    }

    #[test]
    fn linear_stages_satisfy_superposition() {
        let a = probe(32, 32, 2);
        let b = probe(32, 32, 3);
        let t = TransformSpec {
            crop: Some((4, 4, 24, 24)),
            resize_to: Some((11, 13)),
            filter: ResizeFilter::Lanczos3,
            sharpen: (1.0, 0.8),
            gamma: 1.0,
        };
        let lhs = t.apply_linear(&a.add(&b));
        let rhs = t.apply_linear(&a).add(&t.apply_linear(&b));
        for i in 0..lhs.data.len() {
            assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-2, "at {i}");
        }
    }

    #[test]
    fn gamma_breaks_linearity_but_inverts() {
        let a = probe(16, 16, 5);
        let t = TransformSpec { gamma: 2.2, ..TransformSpec::default() };
        assert!(!t.is_linear());
        let fwd = t.apply(&a);
        let back = gamma_correct(&fwd, 1.0 / t.gamma);
        for i in 0..a.data.len() {
            assert!(
                (back.data[i] - a.data[i]).abs() < 0.75,
                "at {i}: {} vs {}",
                back.data[i],
                a.data[i]
            );
        }
    }

    #[test]
    fn output_dims_accounts_for_stages() {
        let t = TransformSpec {
            crop: Some((10, 10, 50, 40)),
            resize_to: Some((25, 20)),
            ..TransformSpec::default()
        };
        assert_eq!(t.output_dims(100, 100), (25, 20));
        let t2 = TransformSpec { crop: Some((10, 10, 50, 40)), ..TransformSpec::default() };
        assert_eq!(t2.output_dims(100, 100), (50, 40));
        assert_eq!(t2.output_dims(30, 30), (20, 20)); // crop clamped
        assert_eq!(TransformSpec::identity().output_dims(7, 9), (7, 9));
    }

    #[test]
    fn resize_constructor() {
        let t = TransformSpec::resize(130, 130, ResizeFilter::Mitchell);
        assert_eq!(t.output_dims(720, 720), (130, 130));
    }
}

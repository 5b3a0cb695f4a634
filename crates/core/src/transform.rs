//! The linear-operator model of PSP server-side processing (paper §3.3).
//!
//! "Many interesting image transformations such as filtering, cropping,
//! scaling (resizing), and overlapping can be expressed by linear
//! operators" — a [`TransformSpec`] is one concrete `A`: an optional
//! crop, a resize with a chosen filter, and optional unsharp sharpening.
//! Every stage is linear, so every `TransformSpec` is an `A` Eq. 2 holds
//! for.

use crate::pixel::{channels_to_rgb, rgb_to_channels};
use p3_jpeg::image::RgbImage;
use p3_vision::image::{ImageF32, Sample, View};
use p3_vision::resize::{apply_separable_rows, clamp_window, sharpen_rows, AxisTaps, ResizeFilter};

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
}

/// What a [`TransformSpec`] works in between its stages, reusable from
/// call to call ([`TransformSpec::apply_rows`]).
#[derive(Debug, Default)]
pub struct TransformScratch {
    /// The resampler's horizontally-resized rows.
    rows: Vec<f32>,
    /// The geometry stage's output when a sharpen follows it.
    stage: ImageF32,
    /// The unsharp's ring of blurred rows (a widened source row when no
    /// stage runs).
    ring: Vec<f32>,
}

impl TransformScratch {
    /// Samples the scratch holds allocated.
    pub fn samples(&self) -> usize {
        self.rows.capacity() + self.stage.data.capacity() + self.ring.capacity()
    }
}

impl Default for TransformSpec {
    fn default() -> Self {
        Self { crop: None, resize_to: None, filter: ResizeFilter::Triangle, sharpen: (1.0, 0.0) }
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

    /// Apply the pipeline (crop → resize → sharpen) to one channel.
    pub fn apply(&self, ch: &ImageF32) -> ImageF32 {
        let mut out = ImageF32::default();
        self.apply_into(ch, &mut TransformScratch::default(), &mut out);
        out
    }

    /// Apply the pipeline to each channel of an RGB image.
    pub fn apply_rgb(&self, img: &RgbImage) -> RgbImage {
        let ch = rgb_to_channels(img);
        channels_to_rgb(&[self.apply(&ch[0]), self.apply(&ch[1]), self.apply(&ch[2])])
    }

    /// [`Self::apply`] into a caller's plane through a caller's scratch,
    /// both overwritten whatever they held.
    fn apply_into(&self, ch: &ImageF32, scratch: &mut TransformScratch, out: &mut ImageF32) {
        (out.width, out.height) = self.output_dims(ch.width, ch.height);
        out.data.clear();
        self.apply_rows(&ch.view(), scratch, |_, row| out.data.extend_from_slice(row));
    }

    /// [`Self::apply`] of a [`View`], a row at a time, through a
    /// caller's scratch: `emit(y, row)` is handed each row of the output
    /// ([`Self::output_dims`]), top to bottom, while it is still in
    /// cache. A crop is a window on the source, not a copy; whichever
    /// stage runs last emits; so the only plane between stages is a
    /// resize's output when an unsharp follows it, and a caller that runs
    /// many transforms allocates for none of them.
    pub fn apply_rows<T: Sample>(
        &self,
        ch: &View<'_, T>,
        scratch: &mut TransformScratch,
        mut emit: impl FnMut(usize, &[f32]),
    ) {
        let ch = match self.crop {
            Some((x, y, w, h)) => {
                let ((x0, w), (y0, h)) =
                    (clamp_window(ch.width, x, w), clamp_window(ch.height, y, h));
                ch.window(x0, y0, w, h)
            }
            None => *ch,
        };
        let (w, h) = (ch.width, ch.height);
        let taps = self.resize_to.filter(|&dims| dims != (w, h)).map(|(new_w, new_h)| {
            (AxisTaps::resize(w, new_w, self.filter), AxisTaps::resize(h, new_h, self.filter))
        });
        let TransformScratch { rows, stage, ring } = scratch;
        let (sigma, amount) = self.sharpen;
        match (taps, amount != 0.0) {
            (Some((xt, yt)), true) => {
                (stage.width, stage.height) = (xt.dst_len(), yt.dst_len());
                stage.data.clear();
                apply_separable_rows(&ch, &xt, &yt, rows, |_, row| {
                    stage.data.extend_from_slice(row)
                });
                sharpen_rows(&stage.view(), sigma, amount, ring, emit);
            }
            (Some((xt, yt)), false) => apply_separable_rows(&ch, &xt, &yt, rows, emit),
            (None, true) => sharpen_rows(&ch, sigma, amount, ring, emit),
            (None, false) => {
                ring.clear();
                ring.resize(w, 0.0);
                for y in 0..h {
                    emit(y, ch.row(y, ring));
                }
            }
        }
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
        };
        let lhs = t.apply(&a.add(&b));
        let rhs = t.apply(&a).add(&t.apply(&b));
        for i in 0..lhs.data.len() {
            assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-2, "at {i}");
        }
    }

    #[test]
    fn chain_is_bit_identical_to_the_stages_in_sequence() {
        use p3_vision::resize::{crop, resize, sharpen};
        let specs = [
            TransformSpec { crop: Some((3, 5, 200, 17)), ..TransformSpec::default() },
            TransformSpec { sharpen: (0.8, 0.5), ..TransformSpec::default() },
            // The unsharp of a window clamps at the window's edges.
            TransformSpec {
                crop: Some((5, 3, 20, 12)),
                sharpen: (0.8, 0.5),
                ..TransformSpec::default()
            },
            TransformSpec {
                crop: Some((4, 2, 30, 40)), // overhangs the bottom edge
                resize_to: Some((11, 13)),
                filter: ResizeFilter::Lanczos3,
                sharpen: (1.0, 0.8),
            },
            TransformSpec::resize(50, 9, ResizeFilter::Mitchell),
            TransformSpec {
                crop: Some((1, 1, 20, 10)),
                ..TransformSpec::resize(20, 10, ResizeFilter::Box)
            },
        ];
        // One scratch and one output across every spec: each call must
        // overwrite whatever the last one left.
        let (mut scratch, mut out) = (TransformScratch::default(), ImageF32::new(0, 0));
        for (i, t) in specs.iter().enumerate() {
            let img = probe(41, 23, 11 + i as u32);
            let mut want = img.clone();
            if let Some((x, y, w, h)) = t.crop {
                want = crop(&want, x, y, w, h);
            }
            if let Some((w, h)) = t.resize_to {
                want = resize(&want, w, h, t.filter);
            }
            want = sharpen(&want, t.sharpen.0, t.sharpen.1);
            t.apply_into(&img, &mut scratch, &mut out);
            assert_eq!((out.width, out.height), t.output_dims(img.width, img.height), "spec {i}");
            let bits = |i: &ImageF32| i.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "spec {i}");
            assert_eq!(bits(&t.apply(&img)), bits(&want), "spec {i}");
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

//! Recipient-side reconstruction — paper §3.3.
//!
//! Two regimes:
//!
//! * **Unprocessed** ([`crate::recombine_coeffs`]): the public part
//!   comes back byte-identical, so Eq. 1 recombines quantized
//!   coefficients exactly and the result is bit-exact relative to the
//!   sender's original coefficients.
//! * **Processed** ([`reconstruct_processed`]): the PSP applied some
//!   transform `A` to the public part. By Eq. 2,
//!   `A·y = A·xp + A·(xs + corr)`: decode the secret+correction image to
//!   a *signed fractional delta*, push it through the same linear `A`
//!   locally, and add pixel-by-pixel. The delta stays in **component
//!   space at native (subsampled) resolution until after `A`**: chroma
//!   upsampling is itself a separable linear map, so it folds into `A`'s
//!   per-axis tap tables, and the 3×3 YCbCr→RGB matrix commutes with any
//!   per-channel spatial `A`, so it is applied once per *output* pixel,
//!   fused with the add. Gamma (nonlinear) is handled by the paper's
//!   one-to-one-mapping trick: invert it on the received image, add the
//!   linearly-transformed delta, re-apply.

use std::cell::RefCell;
use std::sync::Arc;

use p3_jpeg::block::{CoeffImage, ComponentCoeffs};
use p3_jpeg::dct::{idct8x8_signed, idct_signed_scales};
use p3_jpeg::image::RgbImage;
use p3_vision::image::{round_to_u8, ImageF32};
use p3_vision::resize::{apply_separable, gamma_sample, sharpen_into, AxisTaps, ResizeFilter};

use crate::transform::TransformSpec;
use crate::{P3Error, Result};

/// Per-thread scratch of [`reconstruct_processed`], reused from view to
/// view so the hot path faults no fresh pages: one component's
/// native-resolution delta plane, the resampler's intermediate rows, the
/// resampled plane and blurred-row ring of the unsharp, and the
/// transformed delta per component.
#[derive(Default)]
struct Scratch {
    plane: Vec<f32>,
    rows: Vec<f32>,
    stage: ImageF32,
    ring: Vec<f32>,
    delta: Vec<ImageF32>,
}

/// Samples (4 MiB) above which a thread releases its scratch after the
/// view instead of keeping it: one huge photo must not pin its planes
/// to a worker thread for good.
const SCRATCH_KEPT: usize = 1 << 20;

impl Scratch {
    fn samples(&self) -> usize {
        let delta: usize = self.delta.iter().map(|d| d.data.capacity()).sum();
        let unsharp = self.stage.data.capacity() + self.ring.capacity();
        self.plane.capacity() + self.rows.capacity() + unsharp + delta
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Decode one component of the secret + correction image — `xs +
/// (Ss − Ss²)·w`, i.e. `−2T` on every negative AC coefficient, fused into
/// dequantization — to signed samples at the component's native
/// resolution: no +128 level shift, no chroma offset, nothing rounded.
/// Returns the plane's row stride.
fn decode_delta(
    comp: &ComponentCoeffs,
    steps: &[u16; 64],
    t: u16,
    (samp_w, samp_h): (usize, usize),
    plane: &mut Vec<f32>,
) -> Result<usize> {
    let (bw, bh) = (samp_w.div_ceil(8), samp_h.div_ceil(8));
    if bw > comp.padded_w || bh > comp.padded_h {
        return Err(P3Error::Mismatch(format!(
            "component {} needs {bw}x{bh} blocks but carries {}x{}",
            comp.id, comp.padded_w, comp.padded_h
        )));
    }
    let scales = idct_signed_scales();
    let mult: [f32; 64] = std::array::from_fn(|i| f32::from(steps[i]) * scales[i]);
    let correction = -2 * i32::from(t);
    let stride = bw * 8;
    plane.clear();
    plane.resize(stride * bh * 8, 0.0);
    for by in 0..bh {
        let band = &mut plane[by * 8 * stride..(by + 1) * 8 * stride];
        for bx in 0..bw {
            let block = comp.block(bx, by);
            if block[1..].iter().all(|&c| c == 0) {
                // DC only (most of a secret part): a flat block.
                let flat = block[0] as f32 * mult[0];
                if flat != 0.0 {
                    for row in band.chunks_exact_mut(stride) {
                        row[bx * 8..bx * 8 + 8].fill(flat);
                    }
                }
                continue;
            }
            let mut ws = [[0f32; 8]; 8];
            ws[0][0] = block[0] as f32 * mult[0];
            for k in 1..64 {
                let c = block[k].saturating_add(if block[k] < 0 { correction } else { 0 });
                ws[k / 8][k % 8] = c as f32 * mult[k];
            }
            idct8x8_signed(&mut ws);
            for (row, px) in band.chunks_exact_mut(stride).zip(&ws) {
                row[bx * 8..bx * 8 + 8].copy_from_slice(px);
            }
        }
    }
    Ok(stride)
}

/// One axis of `A ∘ upsample` for a component with `samp` samples along
/// an axis of `full` pixels: the exact matrix product of the chroma
/// upsample, crop and resize taps, so a subsampled plane goes to output
/// resolution in one pass and the full-resolution plane never exists.
fn axis_taps(
    samp: usize,
    full: usize,
    crop: Option<(usize, usize)>,
    resize: Option<(usize, ResizeFilter)>,
) -> Arc<AxisTaps> {
    let mut len = full;
    let mut stages: Vec<Arc<AxisTaps>> = Vec::with_capacity(3);
    if samp != full {
        stages.push(Arc::new(AxisTaps::bilinear(samp, full)));
    }
    if let Some((start, want)) = crop {
        let window = AxisTaps::window(len, start, want);
        len = window.dst_len();
        stages.push(Arc::new(window));
    }
    if let Some((dst, filter)) = resize {
        stages.push(AxisTaps::resize(len, dst, filter));
    }
    stages
        .into_iter()
        .reduce(|inner, outer| Arc::new(inner.then(&outer)))
        .unwrap_or_else(|| Arc::new(AxisTaps::window(full, 0, full)))
}

/// Both axes of `A ∘ upsample` for components of one geometry.
struct PlaneTaps {
    samp: (usize, usize),
    x: Arc<AxisTaps>,
    y: Arc<AxisTaps>,
}

/// `A·(xs + corr)` per component into `scratch.delta`, at output
/// resolution, still in the secret's component space (Y, or Y/Cb/Cr).
fn transformed_delta(
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
    scratch: &mut Scratch,
) -> Result<()> {
    let (w, h) = (secret.width, secret.height);
    let (h_max, v_max) = (usize::from(secret.h_max()), usize::from(secret.v_max()));
    let (cw, ch) = TransformSpec { resize_to: None, ..*transform }.output_dims(w, h);
    // Like `resize`, the stage is a no-op as a whole or runs on both axes.
    let resize = transform.resize_to.filter(|&dims| dims != (cw, ch));
    let (filter, crop) = (transform.filter, transform.crop);
    let (sigma, amount) = transform.sharpen;
    scratch.delta.resize_with(secret.components.len(), || ImageF32::new(0, 0));
    let mut kept: Option<PlaneTaps> = None;
    for (comp, delta) in secret.components.iter().zip(&mut scratch.delta) {
        let samp = (
            (w * usize::from(comp.h_samp)).div_ceil(h_max),
            (h * usize::from(comp.v_samp)).div_ceil(v_max),
        );
        let steps = &secret.qtables[comp.quant_idx].table;
        let stride = decode_delta(comp, steps, t, samp, &mut scratch.plane)?;
        // Cb and Cr share a geometry: their taps are composed once.
        kept.take_if(|kept| kept.samp != samp);
        let taps = kept.get_or_insert_with(|| PlaneTaps {
            samp,
            x: axis_taps(
                samp.0,
                w,
                crop.map(|(x, _, cw, _)| (x, cw)),
                resize.map(|(rw, _)| (rw, filter)),
            ),
            y: axis_taps(
                samp.1,
                h,
                crop.map(|(_, y, _, ch)| (y, ch)),
                resize.map(|(_, rh)| (rh, filter)),
            ),
        });
        if amount == 0.0 {
            apply_separable(&scratch.plane, stride, &taps.x, &taps.y, &mut scratch.rows, delta);
        } else {
            let (stage, ring) = (&mut scratch.stage, &mut scratch.ring);
            apply_separable(&scratch.plane, stride, &taps.x, &taps.y, &mut scratch.rows, stage);
            sharpen_into(stage, sigma, amount, ring, delta);
        }
    }
    Ok(())
}

/// Reconstruct an image whose public part was processed by `transform`
/// (paper Eq. 2).
///
/// * `processed_public` — the RGB pixels downloaded from the PSP
///   (already `A·xp`, possibly gamma-adjusted).
/// * `secret` — the decoded secret part at **original** resolution.
/// * `t` — the split threshold from the secret container.
/// * `transform` — the known or reverse-engineered pipeline `A`.
pub fn reconstruct_processed(
    processed_public: &RgbImage,
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
) -> Result<RgbImage> {
    let (ew, eh) = transform.output_dims(secret.width, secret.height);
    if (processed_public.width, processed_public.height) != (ew, eh) {
        return Err(P3Error::Mismatch(format!(
            "transform yields {ew}x{eh} but public part is {}x{}",
            processed_public.width, processed_public.height
        )));
    }
    secret.validate()?;
    if !matches!(secret.components.len(), 1 | 3) {
        return Err(P3Error::Mismatch(format!(
            "{}-component secret part",
            secret.components.len()
        )));
    }
    SCRATCH.with_borrow_mut(|scratch| {
        let out = transformed_delta(secret, t, transform, scratch)
            .map(|()| add_delta(processed_public, &scratch.delta, transform));
        if scratch.samples() > SCRATCH_KEPT {
            *scratch = Scratch::default();
        }
        out
    })
}

/// The fused tail of Eq. 2, once per output pixel: `clamp(round(public +
/// M·(dY, dCb, dCr)))` with `M` the linear part of the JFIF YCbCr→RGB
/// map (offsets cancel in deltas; a 1-component secret adds its luma
/// delta to all three channels), wrapped in the inverse/forward gamma
/// when `A` ends in one.
fn add_delta(public: &RgbImage, delta: &[ImageF32], transform: &TransformSpec) -> RgbImage {
    let mut out = RgbImage::new(public.width, public.height);
    let dy = &delta[0].data;
    let (dcb, dcr) = if delta.len() == 3 { (&delta[1].data, &delta[2].data) } else { (dy, dy) };
    let gray = delta.len() == 1;
    let (gamma, linear) = (transform.gamma, transform.is_linear());
    let ungamma = |v: f32| if linear { v } else { gamma_sample(v, 1.0 / gamma) };
    let regamma = |v: f32| if linear { v } else { gamma_sample(v, gamma) };
    // A received sample is one of 256 values: invert gamma by table.
    let received: [f32; 256] = std::array::from_fn(|v| ungamma(v as f32));
    let pixels = out.data.chunks_exact_mut(3).zip(public.data.chunks_exact(3));
    for ((o, p), ((&y, &cb), &cr)) in pixels.zip(dy.iter().zip(dcb).zip(dcr)) {
        let d = if gray {
            [y, y, y]
        } else {
            [y + 1.402 * cr, y - 0.344_136_3 * cb - 0.714_136_3 * cr, y + 1.772 * cb]
        };
        for c in 0..3 {
            o[c] = round_to_u8(regamma(received[usize::from(p[c])] + d[c]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::{channels_to_rgb, rgb_to_channels};
    use crate::split::split_coeffs;
    use p3_jpeg::encoder::{pixels_to_coeffs, Subsampling};
    use p3_vision::metrics::psnr;

    fn test_image(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let r = (128.0 + 90.0 * ((x as f32) * 0.11).sin()) as u8;
                let g = (128.0 + 90.0 * ((y as f32) * 0.13).cos()) as u8;
                let b = ((x * 2 + y * 3) % 256) as u8;
                img.set(x, y, [r, g, b]);
            }
        }
        img
    }

    fn luma_psnr(a: &RgbImage, b: &RgbImage) -> f64 {
        psnr(&crate::pixel::rgb_to_luma(a), &crate::pixel::rgb_to_luma(b))
    }

    #[test]
    fn identity_reconstruction_matches_plain_decode() {
        let img = test_image(64, 48);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        // Public as pixels (what an identity-PSP would serve, pre-re-encode).
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let rec =
            reconstruct_processed(&public_rgb, &secret, 10, &TransformSpec::identity()).unwrap();
        let direct = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let p = luma_psnr(&rec, &direct);
        assert!(p > 40.0, "identity pixel reconstruction PSNR {p:.1} dB");
    }

    #[test]
    fn resize_reconstruction_beats_public_alone() {
        let img = test_image(128, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec::resize(64, 48, ResizeFilter::Triangle);

        // PSP side: decode public, resize, serve.
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let pub_ch = rgb_to_channels(&public_rgb);
        let served: [ImageF32; 3] = [t.apply(&pub_ch[0]), t.apply(&pub_ch[1]), t.apply(&pub_ch[2])];
        let served_rgb = channels_to_rgb(&served);

        // Reference: the original, resized by the same pipeline.
        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let orig_ch = rgb_to_channels(&orig_rgb);
        let reference =
            channels_to_rgb(&[t.apply(&orig_ch[0]), t.apply(&orig_ch[1]), t.apply(&orig_ch[2])]);

        let rec = reconstruct_processed(&served_rgb, &secret, 10, &t).unwrap();
        let rec_psnr = luma_psnr(&rec, &reference);
        let pub_psnr = luma_psnr(&served_rgb, &reference);
        assert!(rec_psnr > 35.0, "reconstruction {rec_psnr:.1} dB too low");
        assert!(rec_psnr > pub_psnr + 10.0, "rec {rec_psnr:.1} vs public {pub_psnr:.1}");
    }

    #[test]
    fn crop_reconstruction() {
        let img = test_image(96, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 15).unwrap();
        let t = TransformSpec { crop: Some((16, 24, 48, 40)), ..TransformSpec::default() };

        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let pub_ch = rgb_to_channels(&public_rgb);
        let served_rgb =
            channels_to_rgb(&[t.apply(&pub_ch[0]), t.apply(&pub_ch[1]), t.apply(&pub_ch[2])]);

        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let orig_ch = rgb_to_channels(&orig_rgb);
        let reference =
            channels_to_rgb(&[t.apply(&orig_ch[0]), t.apply(&orig_ch[1]), t.apply(&orig_ch[2])]);

        let rec = reconstruct_processed(&served_rgb, &secret, 15, &t).unwrap();
        let p = luma_psnr(&rec, &reference);
        assert!(p > 38.0, "crop reconstruction PSNR {p:.1}");
    }

    #[test]
    fn gamma_pipeline_roundtrips_approximately() {
        let img = test_image(64, 64);
        let ci = pixels_to_coeffs(&img, 92, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec { gamma: 1.1, resize_to: Some((32, 32)), ..TransformSpec::default() };

        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let pub_ch = rgb_to_channels(&public_rgb);
        let served_rgb =
            channels_to_rgb(&[t.apply(&pub_ch[0]), t.apply(&pub_ch[1]), t.apply(&pub_ch[2])]);

        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let orig_ch = rgb_to_channels(&orig_rgb);
        let reference =
            channels_to_rgb(&[t.apply(&orig_ch[0]), t.apply(&orig_ch[1]), t.apply(&orig_ch[2])]);

        let rec = reconstruct_processed(&served_rgb, &secret, 10, &t).unwrap();
        let p = luma_psnr(&rec, &reference);
        // The paper expects "some loss" here; it should still be far above
        // the public part alone.
        let pub_only = luma_psnr(&served_rgb, &reference);
        assert!(p > pub_only + 8.0, "gamma rec {p:.1} vs public {pub_only:.1}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let img = test_image(32, 32);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (_, secret, _) = split_coeffs(&ci, 10).unwrap();
        let wrong = RgbImage::new(10, 10);
        assert!(reconstruct_processed(&wrong, &secret, 10, &TransformSpec::identity()).is_err());
    }

    #[test]
    fn all_zero_secret_adds_nothing() {
        // The delta of a real secret part carries the DC, so it is not
        // zero-mean; but an all-zero secret must leave the public part
        // exactly as served, whatever `A` is.
        let ci = pixels_to_coeffs(&test_image(48, 32), 90, Subsampling::S420).unwrap();
        let mut zero = ci.clone();
        zero.for_each_block_mut(|_, b| *b = [0; 64]);
        let t = TransformSpec::resize(20, 14, ResizeFilter::Lanczos3);
        let served = test_image(20, 14);
        assert_eq!(reconstruct_processed(&served, &zero, 10, &t).unwrap().data, served.data);
    }

    #[test]
    fn inconsistent_geometry_is_an_error_not_a_panic() {
        let ci = pixels_to_coeffs(&test_image(32, 32), 90, Subsampling::S444).unwrap();
        let (_, mut secret, _) = split_coeffs(&ci, 10).unwrap();
        let public = RgbImage::new(64, 64);
        // Claims 64x64 pixels but carries the blocks of 32x32: passes
        // `validate` (which checks counts, not coverage).
        secret.width = 64;
        secret.height = 64;
        let err = reconstruct_processed(&public, &secret, 10, &TransformSpec::identity());
        assert!(matches!(err, Err(P3Error::Mismatch(_))), "{err:?}");
        // A dangling quant index is `validate`'s to refuse.
        let (_, mut secret, _) = split_coeffs(&ci, 10).unwrap();
        secret.components[0].quant_idx = 9;
        let err =
            reconstruct_processed(&test_image(32, 32), &secret, 10, &TransformSpec::identity());
        assert!(matches!(err, Err(P3Error::Jpeg(_))), "{err:?}");
    }
}

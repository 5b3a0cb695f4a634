//! `reconstruct_processed` against the `f32` oracle it replaced.
//!
//! The oracle below is the former implementation, kept verbatim as test
//! code: decode secret + correction with the textbook IDCT, upsample
//! chroma to full resolution per pixel, convert the delta to RGB, push
//! three full-resolution channels through `TransformSpec::apply_linear`,
//! add. The planar pipeline evaluates the same linear operator in a
//! different order (colour conversion and chroma upsampling commute with
//! `A`), so the two may differ only by `f32` rounding: at most 1 LSB on
//! a sample, on very few samples, and by nothing a PSNR can see.

use p3_core::pixel::{channels_to_rgb, rgb_to_channels};
use p3_core::split::{secret_plus_correction, split_coeffs};
use p3_core::{reconstruct_processed, P3Error, Result, TransformSpec};
use p3_jpeg::block::CoeffImage;
use p3_jpeg::dct::reference::idct8x8;
use p3_jpeg::decoder::coeffs_to_rgb;
use p3_jpeg::encoder::{gray_to_coeffs, pixels_to_coeffs, Subsampling};
use p3_jpeg::image::{GrayImage, RgbImage};
use p3_vision::image::ImageF32;
use p3_vision::resize::{gamma_correct, ResizeFilter};
use proptest::prelude::*;

fn delta_rgb_channels(secret: &CoeffImage, t: u16) -> Result<[ImageF32; 3]> {
    secret.validate()?;
    let spc = secret_plus_correction(secret, t);
    let planes = delta_planes(&spc);
    match planes.len() {
        1 => Ok([planes[0].clone(), planes[0].clone(), planes[0].clone()]),
        3 => {
            let dy = upsample_f32(&planes[0], secret.width, secret.height);
            let dcb = upsample_f32(&planes[1], secret.width, secret.height);
            let dcr = upsample_f32(&planes[2], secret.width, secret.height);
            let mut r = ImageF32::new(secret.width, secret.height);
            let mut g = ImageF32::new(secret.width, secret.height);
            let mut b = ImageF32::new(secret.width, secret.height);
            for i in 0..secret.width * secret.height {
                let (y, cb, cr) = (dy.data[i], dcb.data[i], dcr.data[i]);
                r.data[i] = y + 1.402 * cr;
                g.data[i] = y - 0.344_136_3 * cb - 0.714_136_3 * cr;
                b.data[i] = y + 1.772 * cb;
            }
            Ok([r, g, b])
        }
        n => Err(P3Error::Mismatch(format!("{n}-component secret part"))),
    }
}

fn delta_planes(ci: &CoeffImage) -> Vec<ImageF32> {
    let h_max = ci.h_max() as usize;
    let v_max = ci.v_max() as usize;
    let mut out = Vec::new();
    for comp in &ci.components {
        let qt = &ci.qtables[comp.quant_idx];
        let samp_w = (ci.width * comp.h_samp as usize).div_ceil(h_max);
        let samp_h = (ci.height * comp.v_samp as usize).div_ceil(v_max);
        let full_w = comp.padded_w * 8;
        let mut full = vec![0f32; full_w * comp.padded_h * 8];
        for by in 0..comp.padded_h {
            for bx in 0..comp.padded_w {
                let px = idct8x8(&qt.dequantize(comp.block(bx, by)));
                for sy in 0..8 {
                    let row = (by * 8 + sy) * full_w + bx * 8;
                    full[row..row + 8].copy_from_slice(&px[sy * 8..sy * 8 + 8]);
                }
            }
        }
        let mut plane = ImageF32::new(samp_w, samp_h);
        for y in 0..samp_h {
            let src = y * full_w;
            plane.data[y * samp_w..(y + 1) * samp_w].copy_from_slice(&full[src..src + samp_w]);
        }
        out.push(plane);
    }
    out
}

fn upsample_f32(p: &ImageF32, width: usize, height: usize) -> ImageF32 {
    if p.width == width && p.height == height {
        return p.clone();
    }
    let mut out = ImageF32::new(width, height);
    let sx = p.width as f32 / width as f32;
    let sy = p.height as f32 / height as f32;
    for y in 0..height {
        let fy = (y as f32 + 0.5) * sy - 0.5;
        let y0 = fy.floor();
        let wy = fy - y0;
        for x in 0..width {
            let fx = (x as f32 + 0.5) * sx - 0.5;
            let x0 = fx.floor();
            let wx = fx - x0;
            let p00 = p.get_clamped(x0 as isize, y0 as isize);
            let p10 = p.get_clamped(x0 as isize + 1, y0 as isize);
            let p01 = p.get_clamped(x0 as isize, y0 as isize + 1);
            let p11 = p.get_clamped(x0 as isize + 1, y0 as isize + 1);
            out.set(
                x,
                y,
                p00 * (1.0 - wx) * (1.0 - wy)
                    + p10 * wx * (1.0 - wy)
                    + p01 * (1.0 - wx) * wy
                    + p11 * wx * wy,
            );
        }
    }
    out
}

fn reconstruct_oracle(
    processed_public: &RgbImage,
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
) -> Result<RgbImage> {
    let (ew, eh) = transform.output_dims(secret.width, secret.height);
    if (processed_public.width, processed_public.height) != (ew, eh) {
        return Err(P3Error::Mismatch("dimensions".into()));
    }
    let delta = delta_rgb_channels(secret, t)?;
    let received = rgb_to_channels(processed_public);
    let out: Vec<ImageF32> = received
        .iter()
        .zip(&delta)
        .map(|(recv, d)| {
            let dt = transform.apply_linear(d);
            if transform.is_linear() {
                recv.add(&dt)
            } else {
                let lin = gamma_correct(recv, 1.0 / transform.gamma);
                gamma_correct(&lin.add(&dt), transform.gamma)
            }
        })
        .collect();
    Ok(channels_to_rgb(&[out[0].clone(), out[1].clone(), out[2].clone()]))
}

/// A photo-like test card: smooth gradients, an edge, seeded texture.
fn photo(w: usize, h: usize, seed: u32) -> RgbImage {
    let mut img = RgbImage::new(w, h);
    let mut s = seed | 1;
    for y in 0..h {
        for x in 0..w {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let n = (s >> 27) as f32;
            let edge = if (x * 3 + y) % 37 < 18 { 40.0 } else { -30.0 };
            let r = 128.0 + 80.0 * (x as f32 * 0.13).sin() + edge + n;
            let g = 120.0 + 70.0 * (y as f32 * 0.17).cos() - edge * 0.5 + n;
            let b = ((x * 5 + y * 3) % 256) as f32 * 0.8 + n;
            img.set(x, y, [r as u8, g as u8, b as u8]);
        }
    }
    img
}

fn apply_rgb(spec: &TransformSpec, img: &RgbImage) -> RgbImage {
    let ch = rgb_to_channels(img);
    channels_to_rgb(&[spec.apply(&ch[0]), spec.apply(&ch[1]), spec.apply(&ch[2])])
}

fn psnr(a: &RgbImage, b: &RgbImage) -> f64 {
    let se: f64 =
        a.data.iter().zip(&b.data).map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2)).sum();
    10.0 * (255.0f64.powi(2) * a.data.len() as f64 / se.max(1e-9)).log10()
}

/// Split a photo, serve the public part through `spec` as a PSP would,
/// and check the planar path against the oracle on the result.
fn check(w: usize, h: usize, seed: u32, layout: usize, t: u16, spec: &TransformSpec) {
    let rgb = photo(w, h, seed);
    let subsampling = [Subsampling::S444, Subsampling::S422, Subsampling::S420][layout % 3];
    let ci = pixels_to_coeffs(&rgb, 90, subsampling).unwrap();
    let (public, mut secret, _) = split_coeffs(&ci, t).unwrap();
    if layout == 3 {
        // A 1-component secret under an RGB public part.
        let gray =
            GrayImage { width: w, height: h, data: rgb.data.iter().step_by(3).copied().collect() };
        secret = split_coeffs(&gray_to_coeffs(&gray, 90).unwrap(), t).unwrap().1;
    }
    let served = apply_rgb(spec, &coeffs_to_rgb(&public).unwrap());
    let reference = apply_rgb(spec, &coeffs_to_rgb(&ci).unwrap());

    let got = reconstruct_processed(&served, &secret, t, spec).unwrap();
    let want = reconstruct_oracle(&served, &secret, t, spec).unwrap();
    assert_eq!((got.width, got.height), (want.width, want.height));
    let worst = got.data.iter().zip(&want.data).map(|(&a, &b)| a.abs_diff(b)).max().unwrap_or(0);
    let case = format!("{w}x{h} seed {seed} t {t} layout {layout} {spec:?}");
    assert!(worst <= 1, "{case}: {worst} LSB apart");
    // Rounding flips are rare, and on anything photo-sized the PSNR
    // cannot tell the paths apart. (On a few hundred samples at 50 dB a
    // single flip is already 0.03 dB: the per-sample bound above is the
    // stronger statement there.)
    let flips = got.data.iter().zip(&want.data).filter(|(a, b)| a != b).count();
    assert!(flips <= 1 + got.data.len() / 1000, "{case}: {flips} of {} differ", got.data.len());
    if got.data.len() >= 10_000 {
        let (p_got, p_want) = (psnr(&got, &reference), psnr(&want, &reference));
        assert!((p_got - p_want).abs() <= 0.02, "{case}: PSNR {p_got:.3} vs oracle {p_want:.3}");
    }
}

fn spec_for(
    (w, h): (usize, usize),
    crop: Option<(usize, usize, usize, usize)>,
    resize: Option<(usize, usize)>,
    filter: usize,
    sharpen: bool,
    gamma: usize,
) -> TransformSpec {
    TransformSpec {
        // Origins inside the photo; extents may overhang and get clamped.
        crop: crop.map(|(x, y, cw, ch)| (x % w, y % h, 1 + cw % w, 1 + ch % h)),
        resize_to: resize,
        filter: ResizeFilter::all()[filter],
        sharpen: if sharpen { (0.8, 0.5) } else { (1.0, 0.0) },
        gamma: [1.0, 1.1, 2.2][gamma],
    }
}

#[test]
fn awkward_sizes_match_the_oracle() {
    // Not multiples of 8 or 16, one MCU, one block — through every
    // layout, down- and up-scaled, with the full tail of the pipeline.
    for (w, h) in [(321, 243), (17, 9), (8, 8)] {
        for layout in 0..4 {
            check(w, h, 7, layout, 15, &TransformSpec::identity());
            let down = spec_for((w, h), None, Some((w.div_ceil(3), h.div_ceil(2))), 5, true, 0);
            check(w, h, 8, layout, 15, &down);
            let up =
                spec_for((w, h), Some((3, 2, w / 2, h / 2)), Some((w + 5, h + 3)), 2, false, 1);
            check(w, h, 9, layout, 10, &up);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planar_path_matches_the_f32_oracle(
        w in 8usize..72, h in 8usize..72, seed in any::<u32>(), layout in 0usize..4,
        t in 1u16..40,
        crop in (any::<bool>(), 0usize..64, 0usize..64, 0usize..64, 0usize..64),
        resize in (any::<bool>(), 1usize..96, 1usize..96),
        filter in 0usize..6, sharpen in any::<bool>(), gamma in 0usize..3,
    ) {
        let crop = crop.0.then_some((crop.1, crop.2, crop.3, crop.4));
        let resize = resize.0.then_some((resize.1, resize.2));
        check(w, h, seed, layout, t, &spec_for((w, h), crop, resize, filter, sharpen, gamma));
    }
}

#[test]
fn explicit_errors_keep_their_variants() {
    let ci = pixels_to_coeffs(&photo(32, 24, 1), 90, Subsampling::S420).unwrap();
    let (_, secret, _) = split_coeffs(&ci, 12).unwrap();
    let identity = TransformSpec::identity();
    let same_variant = |public: &RgbImage, secret: &CoeffImage, spec: &TransformSpec| {
        let got = reconstruct_processed(public, secret, 12, spec).unwrap_err();
        let want = reconstruct_oracle(public, secret, 12, spec).unwrap_err();
        assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(&want), "{got} vs {want}");
        got
    };
    // Public part of the wrong size for the transform.
    let e = same_variant(&RgbImage::new(10, 10), &secret, &identity);
    assert!(matches!(e, P3Error::Mismatch(_)));
    let e = same_variant(
        &RgbImage::new(32, 24),
        &secret,
        &TransformSpec::resize(16, 12, ResizeFilter::Box),
    );
    assert!(matches!(e, P3Error::Mismatch(_)));
    // Invalid coefficient images: no components, a short block grid, a
    // dangling quantization table.
    let public = RgbImage::new(32, 24);
    let mut empty = secret.clone();
    empty.components.clear();
    assert!(matches!(same_variant(&public, &empty, &identity), P3Error::Jpeg(_)));
    let mut short = secret.clone();
    short.components[1].blocks.pop();
    assert!(matches!(same_variant(&public, &short, &identity), P3Error::Jpeg(_)));
    let mut dangling = secret.clone();
    dangling.components[2].quant_idx = 7;
    assert!(matches!(same_variant(&public, &dangling, &identity), P3Error::Jpeg(_)));
    // Neither gray nor YCbCr.
    let mut two = secret.clone();
    two.components.pop();
    assert!(matches!(same_variant(&public, &two, &identity), P3Error::Mismatch(_)));
}

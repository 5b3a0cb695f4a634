//! JFIF color-space conversion and chroma subsampling.
//!
//! JFIF JPEG stores BT.601 full-range YCbCr. The chroma planes may be
//! downsampled (the ubiquitous 4:2:0 layout halves both chroma axes);
//! the decoder upsamples them back. All conversions implement the exact
//! JFIF affine equations with clamping.
//!
//! These loops run once per *pixel* (the DCT runs once per 64 pixels),
//! which makes them the widest part of the encode/decode hot path — so
//! the per-pixel math is 16.16 fixed point throughout: the BT.601
//! weights are scaled by 2¹⁶ (they sum to exactly 2¹⁶, making gray
//! pixels exact), and bilinear chroma upsampling precomputes per-axis
//! source indices and 8-bit weights instead of doing float arithmetic
//! per tap.

use crate::image::{GrayImage, RgbImage};

/// One image plane of `u8` samples with its own geometry (chroma planes are
/// smaller than luma under subsampling).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plane {
    /// Width in samples.
    pub width: usize,
    /// Height in samples.
    pub height: usize,
    /// Row-major samples.
    pub data: Vec<u8>,
}

impl Plane {
    /// Allocate a zero plane.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![0; width * height] }
    }

    /// Make this a zero `width × height` plane, keeping its allocation.
    pub fn reset(&mut self, width: usize, height: usize) {
        (self.width, self.height) = (width, height);
        self.data.clear();
        self.data.resize(width * height, 0);
    }

    /// Sample with edge replication for out-of-range coordinates.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }
}

// BT.601 forward weights at 16.16 fixed point. Each row sums to exactly
// 2^16 (luma) or 0 (chroma), so gray inputs convert exactly.
const FIX_Y_R: i32 = 19595; //  0.299
const FIX_Y_G: i32 = 38470; //  0.587
const FIX_Y_B: i32 = 7471; //  0.114  (19595+38470+7471 = 65536)
const FIX_CB_R: i32 = -11059; // -0.168_735_9
const FIX_CB_G: i32 = -21709; // -0.331_264_1
const FIX_CB_B: i32 = 32768; //  0.5
const FIX_CR_R: i32 = 32768; //  0.5
const FIX_CR_G: i32 = -27439; // -0.418_687_6
const FIX_CR_B: i32 = -5329; // -0.081_312_4
                             // Inverse weights.
const FIX_R_CR: i32 = 91881; //  1.402
const FIX_G_CB: i32 = -22554; // -0.344_136_3
const FIX_G_CR: i32 = -46802; // -0.714_136_3
const FIX_B_CB: i32 = 116130; //  1.772
const HALF: i32 = 1 << 15;

/// Convert one RGB pixel to JFIF YCbCr (16.16 fixed point).
#[inline]
pub fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let (r, g, b) = (i32::from(r), i32::from(g), i32::from(b));
    let y = (FIX_Y_R * r + FIX_Y_G * g + FIX_Y_B * b + HALF) >> 16;
    let cb = 128 + ((FIX_CB_R * r + FIX_CB_G * g + FIX_CB_B * b + HALF) >> 16);
    let cr = 128 + ((FIX_CR_R * r + FIX_CR_G * g + FIX_CR_B * b + HALF) >> 16);
    (y.clamp(0, 255) as u8, cb.clamp(0, 255) as u8, cr.clamp(0, 255) as u8)
}

/// Convert one JFIF YCbCr pixel back to RGB (16.16 fixed point).
#[inline]
pub fn ycbcr_to_rgb(y: u8, cb: u8, cr: u8) -> (u8, u8, u8) {
    let y = i32::from(y);
    let cb = i32::from(cb) - 128;
    let cr = i32::from(cr) - 128;
    let r = y + ((FIX_R_CR * cr + HALF) >> 16);
    let g = y + ((FIX_G_CB * cb + FIX_G_CR * cr + HALF) >> 16);
    let b = y + ((FIX_B_CB * cb + HALF) >> 16);
    (r.clamp(0, 255) as u8, g.clamp(0, 255) as u8, b.clamp(0, 255) as u8)
}

/// Pixels per parallel band for the per-pixel stages: large enough to
/// amortize a pool wakeup, small enough that a typical photo still splits
/// into a few tasks per executor for load balancing.
fn band_pixels(total: usize, threads: usize) -> usize {
    total.div_ceil(threads * 4).max(4096)
}

/// Split an RGB image into full-resolution Y, Cb, Cr planes.
///
/// The per-pixel conversion is SIMD-dispatched (see [`crate::simd`]) and
/// fans out across the process-wide `p3_par` pool in contiguous
/// equal-length pixel bands of the three output planes.
pub fn rgb_to_planes(img: &RgbImage) -> [Plane; 3] {
    let mut y = Plane::new(img.width, img.height);
    let mut cb = Plane::new(img.width, img.height);
    let mut cr = Plane::new(img.width, img.height);
    if img.data.is_empty() {
        return [y, cb, cr];
    }
    let level = crate::simd::simd_level();
    let pool = p3_par::global();
    let band = band_pixels(img.width * img.height, pool.threads());
    let parts: Vec<_> = img
        .data
        .chunks(3 * band)
        .zip(y.data.chunks_mut(band).zip(cb.data.chunks_mut(band).zip(cr.data.chunks_mut(band))))
        .map(|(rgb, (yb, (cbb, crb)))| (rgb, yb, cbb, crb))
        .collect();
    pool.run_parts(parts, |_, (rgb, yb, cbb, crb)| {
        crate::simd::rgb_rows_to_ycbcr(level, rgb, yb, cbb, crb);
    });
    [y, cb, cr]
}

/// Fused [`rgb_to_planes`] + 2×2 chroma [`downsample`] for the 4:2:0
/// fast path: full-resolution Y plus half-resolution Cb/Cr in one pass,
/// with the full-resolution chroma rows living only in two cache-hot
/// scratch rows per task instead of two whole planes that are written
/// and immediately re-read.
///
/// `planes` become Y, Cb, Cr, overwritten whatever they held (a caller
/// that converts image after image allocates for none of them). Returns
/// false, `planes` untouched (caller falls back to the unfused stages),
/// for odd dimensions or when scalar code is forced — the scalar oracle
/// keeps the original stage-by-stage path. Bit-exact with the unfused
/// path by construction: both drive the same [`crate::simd`] row kernels.
pub fn rgb_to_planes_420(img: &RgbImage, planes: &mut Vec<Plane>) -> bool {
    let (w, h) = (img.width, img.height);
    let level = crate::simd::simd_level();
    if w == 0 || h == 0 || w % 2 != 0 || h % 2 != 0 || level == crate::simd::SimdLevel::Scalar {
        return false;
    }
    planes.resize_with(3, Plane::default);
    let [y, cbh, crh] = &mut planes[..] else { unreachable!("sized above") };
    y.reset(w, h);
    cbh.reset(w / 2, h / 2);
    crh.reset(w / 2, h / 2);
    // Bands of row pairs: scratch chroma rows are allocated once per
    // band, not once per pair.
    const PAIRS_PER_BAND: usize = 16;
    let parts: Vec<_> = y
        .data
        .chunks_mut(2 * w * PAIRS_PER_BAND)
        .zip(
            cbh.data
                .chunks_mut(w / 2 * PAIRS_PER_BAND)
                .zip(crh.data.chunks_mut(w / 2 * PAIRS_PER_BAND)),
        )
        .enumerate()
        .collect();
    p3_par::global().run_parts(parts, |_, (band, (yband, (cbband, crband)))| {
        // Scratch full-resolution chroma rows, used only when the fully
        // fused row-pair kernel is unavailable (SSE2 floor); allocated
        // lazily once per band.
        let mut scratch: Option<[Vec<u8>; 4]> = None;
        let pairs =
            yband.chunks_mut(2 * w).zip(cbband.chunks_mut(w / 2).zip(crband.chunks_mut(w / 2)));
        for (i, (ypair, (cbrow, crrow))) in pairs.enumerate() {
            let py = 2 * (band * PAIRS_PER_BAND + i);
            let (y0, y1) = ypair.split_at_mut(w);
            let rgb0 = &img.data[3 * py * w..3 * (py + 1) * w];
            let rgb1 = &img.data[3 * (py + 1) * w..3 * (py + 2) * w];
            if crate::simd::rgb_rows2_to_ycbcr420(level, rgb0, rgb1, y0, y1, cbrow, crrow) {
                continue;
            }
            let [cb0, cb1, cr0, cr1] =
                scratch.get_or_insert_with(|| std::array::from_fn(|_| vec![0u8; w]));
            crate::simd::rgb_rows_to_ycbcr(level, rgb0, y0, cb0, cr0);
            crate::simd::rgb_rows_to_ycbcr(level, rgb1, y1, cb1, cr1);
            crate::simd::downsample2x2_row(level, cb0, cb1, cbrow);
            crate::simd::downsample2x2_row(level, cr0, cr1, crrow);
        }
    });
    true
}

/// Merge Y, Cb, Cr planes (all at full resolution) into an RGB image.
///
/// SIMD-dispatched and pool-parallel like [`rgb_to_planes`].
pub fn planes_to_rgb(y: &Plane, cb: &Plane, cr: &Plane) -> RgbImage {
    debug_assert_eq!(y.width, cb.width);
    debug_assert_eq!(y.width, cr.width);
    let mut img = RgbImage::new(y.width, y.height);
    if img.data.is_empty() {
        return img;
    }
    let level = crate::simd::simd_level();
    let pool = p3_par::global();
    let band = band_pixels(y.width * y.height, pool.threads());
    let parts: Vec<_> = img
        .data
        .chunks_mut(3 * band)
        .zip(y.data.chunks(band).zip(cb.data.chunks(band).zip(cr.data.chunks(band))))
        .map(|(rgb, (yb, (cbb, crb)))| (rgb, yb, cbb, crb))
        .collect();
    pool.run_parts(parts, |_, (rgb, yb, cbb, crb)| {
        crate::simd::ycbcr_rows_to_rgb(level, yb, cbb, crb, rgb);
    });
    img
}

/// Box-filter downsample by integer factors `(fx, fy)` (used for 4:2:0 and
/// 4:2:2 chroma). Output dimensions are rounded up so edge samples survive.
pub fn downsample(p: &Plane, fx: usize, fy: usize) -> Plane {
    if fx == 1 && fy == 1 {
        return p.clone();
    }
    let w = p.width.div_ceil(fx);
    let h = p.height.div_ceil(fy);
    let mut out = Plane::new(w, h);
    // 2×2 interior fast path (the 4:2:0 common case): row-pair sums with
    // no bounds logic.
    let (int_w, int_h) = if (fx, fy) == (2, 2) { (p.width / 2, p.height / 2) } else { (0, 0) };
    if int_w > 0 && int_h > 0 {
        let level = crate::simd::simd_level();
        let rows: Vec<(usize, &mut [u8])> =
            out.data.chunks_mut(w).take(int_h).enumerate().collect();
        p3_par::global().run_parts(rows, |_, (oy, dst)| {
            let r0 = &p.data[2 * oy * p.width..][..2 * int_w];
            let r1 = &p.data[(2 * oy + 1) * p.width..][..2 * int_w];
            crate::simd::downsample2x2_row(level, r0, r1, &mut dst[..int_w]);
        });
    }
    // General/edge path (whole plane for non-2×2 factors, the ragged
    // right/bottom edges otherwise).
    for oy in 0..h {
        for ox in 0..w {
            if oy < int_h && ox < int_w {
                continue;
            }
            let mut sum = 0u32;
            let mut n = 0u32;
            for dy in 0..fy {
                for dx in 0..fx {
                    let sx = ox * fx + dx;
                    let sy = oy * fy + dy;
                    if sx < p.width && sy < p.height {
                        sum += u32::from(p.data[sy * p.width + sx]);
                        n += 1;
                    }
                }
            }
            out.data[oy * w + ox] = ((sum + n / 2) / n) as u8;
        }
    }
    out
}

/// One axis of the center-aligned bilinear mapping: for each output
/// coordinate, the two (clamped) source indices and the 8-bit weight of
/// the second tap.
fn bilinear_taps(src: usize, dst: usize) -> Vec<(usize, usize, i32)> {
    let scale = src as f32 / dst as f32;
    (0..dst)
        .map(|o| {
            let f = (o as f32 + 0.5) * scale - 0.5;
            let i0 = f.floor() as isize;
            let w = ((f - i0 as f32) * 256.0).round() as i32;
            let lo = i0.clamp(0, src as isize - 1) as usize;
            let hi = (i0 + 1).clamp(0, src as isize - 1) as usize;
            (lo, hi, w)
        })
        .collect()
}

/// Bilinear ("triangle") upsample back to `(width, height)`; this matches
/// the smooth upsampling used by mainstream decoders closely enough for
/// PSNR work.
///
/// Per-pixel work is four integer multiply-adds against precomputed
/// per-axis taps — the float mapping runs once per row/column, not once
/// per pixel (this loop runs at full output resolution for both chroma
/// planes, right behind the color convert in per-byte cost).
pub fn upsample(p: &Plane, width: usize, height: usize) -> Plane {
    if p.width == width && p.height == height {
        return p.clone();
    }
    let mut out = Plane::new(width, height);
    // Exact-2× fast path (the 4:2:0 common case): the center-aligned taps
    // collapse to fixed (index, weight) patterns per output parity, which
    // the SIMD row kernel exploits; rows fan out across the pool.
    if width == 2 * p.width && height == 2 * p.height && p.width > 0 {
        let level = crate::simd::simd_level();
        let rows: Vec<(usize, &mut [u8])> = out.data.chunks_mut(width).enumerate().collect();
        p3_par::global().run_parts(rows, |_, (y, dst)| {
            let k = y / 2;
            let (y0, y1, wy) = if y % 2 == 0 {
                (k.saturating_sub(1), k, 192)
            } else {
                (k, (k + 1).min(p.height - 1), 64)
            };
            let row0 = &p.data[y0 * p.width..][..p.width];
            let row1 = &p.data[y1 * p.width..][..p.width];
            crate::simd::upsample2x_row(level, row0, row1, wy, dst);
        });
        return out;
    }
    let xtaps = bilinear_taps(p.width, width);
    let ytaps = bilinear_taps(p.height, height);
    for (y, &(y0, y1, wy)) in ytaps.iter().enumerate() {
        let row0 = &p.data[y0 * p.width..y0 * p.width + p.width];
        let row1 = &p.data[y1 * p.width..y1 * p.width + p.width];
        let dst = &mut out.data[y * width..(y + 1) * width];
        for (o, &(x0, x1, wx)) in dst.iter_mut().zip(xtaps.iter()) {
            // Interpolate horizontally at 8.8 fixed point, then blend the
            // two rows and round the accumulated 8.16 result.
            let top = i32::from(row0[x0]) * (256 - wx) + i32::from(row0[x1]) * wx;
            let bot = i32::from(row1[x0]) * (256 - wx) + i32::from(row1[x1]) * wx;
            let v = (top * (256 - wy) + bot * wy + (1 << 15)) >> 16;
            *o = v.clamp(0, 255) as u8;
        }
    }
    out
}

/// Luma-only view of an RGB image (BT.601), used by the vision attacks
/// which all operate on grayscale.
pub fn rgb_to_gray(img: &RgbImage) -> GrayImage {
    let mut g = GrayImage::new(img.width, img.height);
    for i in 0..img.width * img.height {
        let (y, _, _) = rgb_to_ycbcr(img.data[i * 3], img.data[i * 3 + 1], img.data[i * 3 + 2]);
        g.data[i] = y;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_420_matches_unfused_stages() {
        let mut fused = vec![Plane::new(3, 3)];
        for (w, h) in [(2usize, 2usize), (16, 8), (34, 18), (64, 64)] {
            let mut img = RgbImage::new(w, h);
            for (i, px) in img.data.iter_mut().enumerate() {
                *px = (i.wrapping_mul(131) % 256) as u8;
            }
            // One dirty set of planes through every size.
            if !rgb_to_planes_420(&img, &mut fused) {
                // Scalar forced in this process: fallback path is the oracle.
                return;
            }
            let [fy, fcb, fcr] = &fused[..] else { panic!("three planes") };
            let [y, cb, cr] = rgb_to_planes(&img);
            assert_eq!(fy.data, y.data, "{w}x{h} Y");
            assert_eq!(fcb.data, downsample(&cb, 2, 2).data, "{w}x{h} Cb");
            assert_eq!(fcr.data, downsample(&cr, 2, 2).data, "{w}x{h} Cr");
        }
        // Odd dimensions must decline the fused path.
        assert!(!rgb_to_planes_420(&RgbImage::new(5, 4), &mut fused));
        assert!(!rgb_to_planes_420(&RgbImage::new(4, 5), &mut fused));
    }

    #[test]
    fn primaries_roundtrip() {
        for &(r, g, b) in &[
            (255u8, 0u8, 0u8),
            (0, 255, 0),
            (0, 0, 255),
            (255, 255, 255),
            (0, 0, 0),
            (128, 128, 128),
        ] {
            let (y, cb, cr) = rgb_to_ycbcr(r, g, b);
            let (r2, g2, b2) = ycbcr_to_rgb(y, cb, cr);
            assert!((i16::from(r) - i16::from(r2)).abs() <= 1, "{r},{g},{b}");
            assert!((i16::from(g) - i16::from(g2)).abs() <= 1, "{r},{g},{b}");
            assert!((i16::from(b) - i16::from(b2)).abs() <= 1, "{r},{g},{b}");
        }
    }

    #[test]
    fn gray_pixels_have_neutral_chroma() {
        for v in [0u8, 55, 128, 200, 255] {
            let (y, cb, cr) = rgb_to_ycbcr(v, v, v);
            assert_eq!(y, v);
            assert_eq!(cb, 128);
            assert_eq!(cr, 128);
        }
    }

    #[test]
    fn downsample_constant_plane() {
        let mut p = Plane::new(7, 5);
        p.data.fill(99);
        let d = downsample(&p, 2, 2);
        assert_eq!(d.width, 4);
        assert_eq!(d.height, 3);
        assert!(d.data.iter().all(|&v| v == 99));
    }

    #[test]
    fn upsample_constant_plane() {
        let mut p = Plane::new(4, 3);
        p.data.fill(50);
        let u = upsample(&p, 7, 5);
        assert_eq!(u.width, 7);
        assert!(u.data.iter().all(|&v| v == 50));
    }

    #[test]
    fn down_then_up_approximates_smooth_gradient() {
        let mut p = Plane::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                p.data[y * 32 + x] = (x * 8) as u8;
            }
        }
        let rec = upsample(&downsample(&p, 2, 2), 32, 32);
        let max_err = p
            .data
            .iter()
            .zip(rec.data.iter())
            .map(|(&a, &b)| (i16::from(a) - i16::from(b)).abs())
            .max()
            .unwrap();
        assert!(max_err <= 8, "max_err {max_err}");
    }

    #[test]
    fn roundtrip_full_image() {
        let mut img = RgbImage::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                img.set(x, y, [(x * 16) as u8, (y * 16) as u8, ((x + y) * 8) as u8]);
            }
        }
        let [y, cb, cr] = rgb_to_planes(&img);
        let back = planes_to_rgb(&y, &cb, &cr);
        for i in 0..img.data.len() {
            assert!((i16::from(img.data[i]) - i16::from(back.data[i])).abs() <= 2);
        }
    }

    #[test]
    fn rgb_to_gray_uses_luma_weights() {
        let mut img = RgbImage::new(1, 1);
        img.set(0, 0, [255, 0, 0]);
        assert_eq!(rgb_to_gray(&img).get(0, 0), 76); // 0.299*255 ≈ 76
    }
}

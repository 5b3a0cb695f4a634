//! Runtime-dispatched SIMD kernels for the codec's data-parallel stages.
//!
//! Every kernel here is a **bit-exact** reimplementation of a scalar
//! routine elsewhere in the crate — same fixed-point scheme, same
//! rounding, same clamps — so the scalar code remains the oracle and the
//! equivalence tests assert *equality*, not closeness:
//!
//! | kernel | scalar oracle |
//! |---|---|
//! | [`fdct_quant`] | [`crate::dct::fdct8x8_aan`] + [`AanQuantizer::quantize`] |
//! | [`dequant_idct`] | [`AanDequantizer::dequantize_scaled`] + [`crate::dct::idct8x8_aan`] |
//! | [`rgb_rows_to_ycbcr`] | [`crate::color::rgb_to_ycbcr`] per pixel |
//! | [`ycbcr_rows_to_rgb`] | [`crate::color::ycbcr_to_rgb`] per pixel |
//! | [`downsample2x2_row`] | the 2×2 interior loop in [`crate::color::downsample`] |
//! | [`upsample2x_row`] | the bilinear tap loop in [`crate::color::upsample`] at exact 2× |
//! | `magnitude_mask` | `unsigned_abs() >= t` per coefficient |
//!
//! Dispatch policy (see [`p3_par::features`]): every kernel runs either
//! its AVX2 vector code, selected by runtime detection, or its scalar
//! oracle. The two chroma resamplers are 128-bit code compiled at the
//! `x86_64` baseline ISA (`sse2.rs`) that runs at the AVX2 level: built
//! for AVX2 they measured slower. `Scalar` is what a host without AVX2
//! gets, and what `P3_FORCE_SCALAR` selects anywhere, which is how CI
//! exercises the oracle paths in release builds.
//!
//! Why bit-exactness is cheap here: the AAN workspace is 13-bit fixed
//! point, and the one scalar operation without a lane-width SIMD
//! equivalent — `cmul`'s widening 64-bit multiply — decomposes exactly
//! into two 32-bit `mullo`s: with `vh = v >> 13` and `vl = v & 0x1fff`,
//!
//! ```text
//! ((v as i64 * k + 4096) >> 13) as i32  ==  vh*k + ((vl*k + 4096) >> 13)
//! ```
//!
//! because `v = (vh << 13) + vl` with `vl ≥ 0`, and `vh*k` stays inside
//! `i32` for every value the clamped workspace can produce. The
//! quantizer's `f32` stages are deterministic IEEE single ops with SIMD
//! twins (`cvtepi32_ps`/`mul_ps`/`cvttps_epi32`), and the final pixel
//! clamps are exactly the saturation behavior of the pack instructions.

use crate::quant::{AanDequantizer, AanQuantizer};

pub use p3_par::features::{simd_level, SimdLevel};

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod sse2;

/// `true` when AVX2 kernels may actually be executed. Re-checking the
/// (cached) CPUID bit here keeps the dispatch functions sound for *any*
/// caller-supplied [`SimdLevel`], not just ones produced by detection.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_ok(level: SimdLevel) -> bool {
    level >= SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("avx2")
}

/// Forward AAN DCT + quantization of one 8×8 block, written through to
/// `out` (the encoder calls this once per block of a megabyte-scale
/// coefficient grid — returning by value would double the write traffic).
///
/// Equivalent to `quantizer.quantize(&fdct8x8_aan(samples))`, bit for
/// bit, at every dispatch level.
pub fn fdct_quant(
    level: SimdLevel,
    samples: &[u8; 64],
    quantizer: &AanQuantizer,
    out: &mut [i32; 64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: AVX2 support verified above.
        return unsafe { avx2::fdct_quant(samples, quantizer.recip(), out) };
    }
    let _ = level;
    *out = quantizer.quantize(&crate::dct::fdct8x8_aan(samples));
}

/// As [`fdct_quant`], reading the 8 sample rows straight from a plane at
/// `stride` bytes apart (starting at `src[0]`) — the encoder's interior
/// blocks skip the per-block gather copy this way.
pub fn fdct_quant_strided(
    level: SimdLevel,
    src: &[u8],
    stride: usize,
    quantizer: &AanQuantizer,
    out: &mut [i32; 64],
) {
    assert!(stride >= 8 && src.len() >= stride * 7 + 8, "strided block out of bounds");
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: row bounds asserted above; AVX2 support verified.
        return unsafe { avx2::fdct_quant_strided(src.as_ptr(), stride, quantizer.recip(), out) };
    }
    let _ = level;
    let mut samples = [0u8; 64];
    for i in 0..8 {
        samples[8 * i..8 * i + 8].copy_from_slice(&src[stride * i..stride * i + 8]);
    }
    *out = quantizer.quantize(&crate::dct::fdct8x8_aan(&samples));
}

/// Natural-order magnitude bitmask of a coefficient block: bit `i` is set
/// iff `block[i].unsigned_abs() >= t`, for any `t ≤ 2³¹`. At `t = 2^Al`
/// it marks the coefficients a scan at point transform `Al` codes as
/// nonzero (`t = 1`: every nonzero one), so the entropy coder's AC
/// walkers jump from set bit to set bit without loading the rest.
pub(crate) fn magnitude_mask(level: SimdLevel, block: &[i32; 64], t: u32) -> u64 {
    debug_assert!(t <= 1 << 31, "threshold {t} past 2^31");
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: AVX2 support verified above.
        return unsafe { avx2::magnitude_mask(block, t) };
    }
    let _ = level;
    (0..64).filter(|&i| block[i].unsigned_abs() >= t).fold(0, |mask, i| mask | 1 << i)
}

/// Dequantization + inverse AAN DCT of one 8×8 block to clamped pixels.
///
/// Equivalent to `idct8x8_aan(&mut deq.dequantize_scaled(q))`, bit for
/// bit, at every dispatch level (including hostile coefficient values —
/// the workspace clamp is replicated exactly).
pub fn dequant_idct(level: SimdLevel, q: &[i32; 64], deq: &AanDequantizer) -> [u8; 64] {
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: AVX2 support verified above.
        return unsafe { avx2::dequant_idct(q, deq.mult()) };
    }
    let _ = level;
    crate::dct::idct8x8_aan(&mut deq.dequantize_scaled(q))
}

/// Convert a run of RGB pixels into Y/Cb/Cr sample runs.
///
/// `rgb.len() == 3 * y.len()` and the three output slices have equal
/// length. Equivalent to [`crate::color::rgb_to_ycbcr`] per pixel.
pub fn rgb_rows_to_ycbcr(level: SimdLevel, rgb: &[u8], y: &mut [u8], cb: &mut [u8], cr: &mut [u8]) {
    assert_eq!(rgb.len(), 3 * y.len());
    assert_eq!(y.len(), cb.len());
    assert_eq!(y.len(), cr.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: AVX2 support verified, and the kernel stays inside the
        // lengths asserted above.
        unsafe { avx2::rgb_rows_to_ycbcr(rgb, y, cb, cr) };
        return;
    }
    let _ = level;
    rgb_rows_scalar(rgb, y, cb, cr);
}

/// Fused 4:2:0 row pair: two RGB rows in, two Y rows plus one
/// half-resolution Cb/Cr row out, with the 2×2 chroma average done in
/// registers. Returns `false` when no vector kernel is available (the
/// caller then runs [`rgb_rows_to_ycbcr`] + [`downsample2x2_row`], which
/// this is bit-exact with). `y0.len()` must be even.
pub fn rgb_rows2_to_ycbcr420(
    level: SimdLevel,
    rgb0: &[u8],
    rgb1: &[u8],
    y0: &mut [u8],
    y1: &mut [u8],
    cbrow: &mut [u8],
    crrow: &mut [u8],
) -> bool {
    assert_eq!(rgb0.len(), 3 * y0.len());
    assert_eq!(rgb1.len(), 3 * y1.len());
    assert_eq!(y0.len(), y1.len());
    assert_eq!(y0.len(), 2 * cbrow.len());
    assert_eq!(y0.len(), 2 * crrow.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: AVX2 support verified, and the kernel stays inside the
        // lengths asserted above.
        unsafe { avx2::rgb_rows2_to_ycbcr420(rgb0, rgb1, y0, y1, cbrow, crrow) };
        return true;
    }
    let _ = (level, rgb0, rgb1, y0, y1, cbrow, crrow);
    false
}

/// Convert Y/Cb/Cr sample runs of equal length into interleaved RGB.
///
/// Equivalent to [`crate::color::ycbcr_to_rgb`] per pixel.
pub fn ycbcr_rows_to_rgb(level: SimdLevel, y: &[u8], cb: &[u8], cr: &[u8], rgb: &mut [u8]) {
    assert_eq!(rgb.len(), 3 * y.len());
    assert_eq!(y.len(), cb.len());
    assert_eq!(y.len(), cr.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: AVX2 support verified, and the kernel stays inside the
        // lengths asserted above.
        unsafe { avx2::ycbcr_rows_to_rgb(y, cb, cr, rgb) };
        return;
    }
    let _ = level;
    ycbcr_rows_scalar(y, cb, cr, rgb);
}

/// 2×2 box-filter one output row from two full source rows:
/// `out[i] = (r0[2i] + r0[2i+1] + r1[2i] + r1[2i+1] + 2) / 4`, with
/// `r0.len() == r1.len() == 2 * out.len()`.
pub fn downsample2x2_row(level: SimdLevel, r0: &[u8], r1: &[u8], out: &mut [u8]) {
    assert_eq!(r0.len(), 2 * out.len());
    assert_eq!(r1.len(), 2 * out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: SSE2 is part of the x86_64 compile-time baseline, and the
        // kernel stays inside the lengths asserted above.
        unsafe { sse2::downsample2x2_row(r0, r1, out) };
        return;
    }
    let _ = level;
    down2x2_row_scalar(r0, r1, out);
}

/// Bilinear-upsample one output row at exactly 2× horizontal scale,
/// blending source rows `row0`/`row1` with vertical weight `wy` (the
/// 8-bit weight of `row1`). `out.len() == 2 * row0.len()`; the taps match
/// [`crate::color::upsample`]'s center-aligned mapping at 2×.
pub fn upsample2x_row(level: SimdLevel, row0: &[u8], row1: &[u8], wy: i32, out: &mut [u8]) {
    assert_eq!(row0.len(), row1.len());
    assert_eq!(out.len(), 2 * row0.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_ok(level) {
        // SAFETY: SSE2 is part of the x86_64 compile-time baseline, and the
        // kernel stays inside the lengths asserted above.
        unsafe { sse2::upsample2x_row(row0, row1, wy, out) };
        return;
    }
    let _ = level;
    up2x_row_scalar(row0, row1, wy, out, 0, out.len());
}

// --- Scalar fallbacks (also used by the kernels for ragged tails) ------

fn rgb_rows_scalar(rgb: &[u8], y: &mut [u8], cb: &mut [u8], cr: &mut [u8]) {
    let it = rgb.chunks_exact(3).zip(y.iter_mut().zip(cb.iter_mut().zip(cr.iter_mut())));
    for (px, (yy, (cbb, crr))) in it {
        (*yy, *cbb, *crr) = crate::color::rgb_to_ycbcr(px[0], px[1], px[2]);
    }
}

fn ycbcr_rows_scalar(y: &[u8], cb: &[u8], cr: &[u8], rgb: &mut [u8]) {
    let it = rgb.chunks_exact_mut(3).zip(y.iter().zip(cb.iter().zip(cr.iter())));
    for (px, (&yy, (&cbb, &crr))) in it {
        (px[0], px[1], px[2]) = crate::color::ycbcr_to_rgb(yy, cbb, crr);
    }
}

fn down2x2_row_scalar(r0: &[u8], r1: &[u8], out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        let sum = u32::from(r0[2 * i])
            + u32::from(r0[2 * i + 1])
            + u32::from(r1[2 * i])
            + u32::from(r1[2 * i + 1]);
        *o = ((sum + 2) / 4) as u8;
    }
}

/// Scalar 2× bilinear row for output indices `[from, to)`. At 2× the
/// center-aligned taps collapse to: even `o = 2k` reads `(k-1, k)` with
/// second-tap weight 192; odd `o = 2k+1` reads `(k, k+1)` with weight 64
/// (indices clamped at the row ends).
fn up2x_row_scalar(row0: &[u8], row1: &[u8], wy: i32, out: &mut [u8], from: usize, to: usize) {
    let w = row0.len() as isize;
    for (o, px) in out.iter_mut().enumerate().take(to).skip(from) {
        let k = (o / 2) as isize;
        let (x0, x1, wx) = if o.is_multiple_of(2) {
            ((k - 1).max(0), k, 192)
        } else {
            (k, (k + 1).min(w - 1), 64)
        };
        let (x0, x1) = (x0 as usize, x1 as usize);
        let top = i32::from(row0[x0]) * (256 - wx) + i32::from(row0[x1]) * wx;
        let bot = i32::from(row1[x0]) * (256 - wx) + i32::from(row1[x1]) * wx;
        let v = (top * (256 - wy) + bot * wy + (1 << 15)) >> 16;
        *px = v.clamp(0, 255) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::{fdct8x8_aan, idct8x8_aan};
    use crate::quant::QuantTable;

    /// Deterministic LCG byte stream.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    fn levels() -> Vec<SimdLevel> {
        let mut l = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            l.push(SimdLevel::Avx2);
        }
        l
    }

    #[test]
    fn fdct_quant_strided_matches_gathered() {
        let qt = QuantTable::luma(85);
        let quant = AanQuantizer::new(&qt);
        for (stride, rows) in [(8usize, 8usize), (24, 16), (64, 40), (101, 9)] {
            let data = bytes(stride as u64, stride * rows);
            for by in 0..(rows / 8) {
                for bx in 0..(stride / 8) {
                    let start = by * 8 * stride + bx * 8;
                    let mut samples = [0u8; 64];
                    for sy in 0..8 {
                        let src = start + sy * stride;
                        samples[sy * 8..sy * 8 + 8].copy_from_slice(&data[src..src + 8]);
                    }
                    for level in levels() {
                        let mut want = [0i32; 64];
                        fdct_quant(level, &samples, &quant, &mut want);
                        let mut got = [0i32; 64];
                        fdct_quant_strided(level, &data[start..], stride, &quant, &mut got);
                        assert_eq!(got, want, "stride {stride} block ({bx},{by}) {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn magnitude_mask_matches_unsigned_abs_at_every_level() {
        for t in [1u32, 2, 4, 1 << 14, 1 << 15] {
            let ti = t as i32;
            // Each slot draws from the values either side of ±t, zero,
            // the i32 extremes, or noise at t's scale.
            let edges = [ti, -ti, ti - 1, 1 - ti, 0, i32::MAX, i32::MIN, -i32::MAX];
            for seed in 0..24u64 {
                let raw = bytes(seed ^ (u64::from(t) << 8), 128);
                let mut block = [0i32; 64];
                for (i, b) in block.iter_mut().enumerate() {
                    let r = raw[2 * i];
                    *b = match r % 3 {
                        0 => edges[usize::from(raw[2 * i + 1]) % edges.len()],
                        1 => (i32::from(raw[2 * i + 1]) - 128) * ti / 64,
                        _ => i32::from(r as i8) >> (r % 8),
                    };
                }
                let want =
                    (0..64).filter(|&i| block[i].unsigned_abs() >= t).fold(0u64, |m, i| m | 1 << i);
                for level in levels() {
                    let got = magnitude_mask(level, &block, t);
                    assert_eq!(got, want, "t {t} seed {seed} {level:?}: {block:?}");
                }
            }
            for level in levels() {
                for (v, want) in [(0, 0), (ti, u64::MAX), (1 - ti, 0), (i32::MIN, u64::MAX)] {
                    assert_eq!(magnitude_mask(level, &[v; 64], t), want, "t {t} v {v} {level:?}");
                }
            }
        }
    }

    #[test]
    fn fdct_quant_matches_scalar_exactly() {
        for quality in [35u8, 75, 95, 100] {
            let qt = QuantTable::luma(quality);
            let quant = AanQuantizer::new(&qt);
            for seed in 0..48u64 {
                let mut block = [0u8; 64];
                block.copy_from_slice(&bytes(seed, 64));
                let want = quant.quantize(&fdct8x8_aan(&block));
                for level in levels() {
                    let mut got = [0i32; 64];
                    fdct_quant(level, &block, &quant, &mut got);
                    assert_eq!(got, want, "q{quality} seed {seed} level {level:?}");
                }
            }
        }
    }

    #[test]
    fn fdct_quant_matches_on_extremes() {
        let qt = QuantTable::luma(90);
        let quant = AanQuantizer::new(&qt);
        let mut checker = [0u8; 64];
        for (i, v) in checker.iter_mut().enumerate() {
            *v = if (i / 8 + i % 8) % 2 == 0 { 255 } else { 0 };
        }
        for block in [[0u8; 64], [255u8; 64], checker] {
            let want = quant.quantize(&fdct8x8_aan(&block));
            for level in levels() {
                let mut got = [0i32; 64];
                fdct_quant(level, &block, &quant, &mut got);
                assert_eq!(got, want, "{level:?}");
            }
        }
    }

    #[test]
    fn dequant_idct_matches_scalar_exactly() {
        for quality in [35u8, 75, 95, 100] {
            let qt = QuantTable::luma(quality);
            let deq = AanDequantizer::new(&qt);
            for seed in 0..48u64 {
                // Plausible quantized coefficients: small AC, larger DC.
                let raw = bytes(seed, 64);
                let mut q = [0i32; 64];
                for (i, v) in q.iter_mut().enumerate() {
                    *v = i32::from(raw[i] as i8) >> (i % 4);
                }
                let want = idct8x8_aan(&mut deq.dequantize_scaled(&q));
                for level in levels() {
                    let got = dequant_idct(level, &q, &deq);
                    assert_eq!(got, want, "q{quality} seed {seed} level {level:?}");
                }
            }
        }
    }

    #[test]
    fn dequant_idct_matches_on_hostile_coefficients() {
        // Extreme magnitudes drive the dequantizer clamp and the
        // inter-pass workspace clamp; SIMD must reproduce both exactly.
        let qt = QuantTable::flat(255);
        let deq = AanDequantizer::new(&qt);
        for pattern in 0u32..32 {
            let mut q = [0i32; 64];
            for (i, v) in q.iter_mut().enumerate() {
                let sign = if (i as u32).wrapping_mul(pattern + 3) & 2 == 0 { 1 } else { -1 };
                *v = sign * (i32::MAX / (1 + (i as i32 % 7)));
            }
            let want = idct8x8_aan(&mut deq.dequantize_scaled(&q));
            for level in levels() {
                assert_eq!(dequant_idct(level, &q, &deq), want, "pattern {pattern} {level:?}");
            }
        }
    }

    #[test]
    fn color_rows_match_scalar_exactly() {
        for n in [0usize, 1, 7, 15, 16, 17, 48, 333] {
            let rgb = bytes(n as u64 + 1, 3 * n);
            let mut want = (vec![0u8; n], vec![0u8; n], vec![0u8; n]);
            rgb_rows_scalar(&rgb, &mut want.0, &mut want.1, &mut want.2);
            for level in levels() {
                let mut got = (vec![0u8; n], vec![0u8; n], vec![0u8; n]);
                rgb_rows_to_ycbcr(level, &rgb, &mut got.0, &mut got.1, &mut got.2);
                assert_eq!(got, want, "forward n={n} {level:?}");
                let mut back = vec![0u8; 3 * n];
                let mut back_want = vec![0u8; 3 * n];
                ycbcr_rows_scalar(&want.0, &want.1, &want.2, &mut back_want);
                ycbcr_rows_to_rgb(level, &want.0, &want.1, &want.2, &mut back);
                assert_eq!(back, back_want, "inverse n={n} {level:?}");
            }
        }
    }

    #[test]
    fn fused_420_row_pair_matches_unfused_exactly() {
        for n in [2usize, 16, 18, 30, 32, 48, 62, 334] {
            let rgb0 = bytes(7 * n as u64 + 1, 3 * n);
            let rgb1 = bytes(7 * n as u64 + 2, 3 * n);
            // Unfused scalar reference: convert both rows, then 2×2 average.
            let mut r = [vec![0u8; n], vec![0u8; n], vec![0u8; n]];
            let mut s = [vec![0u8; n], vec![0u8; n], vec![0u8; n]];
            let (mut wcb, mut wcr) = (vec![0u8; n / 2], vec![0u8; n / 2]);
            {
                let [y0, cb0, cr0] = &mut r;
                rgb_rows_scalar(&rgb0, y0, cb0, cr0);
                let [y1, cb1, cr1] = &mut s;
                rgb_rows_scalar(&rgb1, y1, cb1, cr1);
                down2x2_row_scalar(cb0, cb1, &mut wcb);
                down2x2_row_scalar(cr0, cr1, &mut wcr);
            }
            for level in levels() {
                let (mut y0, mut y1) = (vec![0u8; n], vec![0u8; n]);
                let (mut cb, mut cr) = (vec![0u8; n / 2], vec![0u8; n / 2]);
                let fused =
                    rgb_rows2_to_ycbcr420(level, &rgb0, &rgb1, &mut y0, &mut y1, &mut cb, &mut cr);
                assert_eq!(fused, level == SimdLevel::Avx2, "n={n} {level:?}");
                if !fused {
                    continue;
                }
                assert_eq!(y0, r[0], "y0 n={n} {level:?}");
                assert_eq!(y1, s[0], "y1 n={n} {level:?}");
                assert_eq!(cb, wcb, "cb n={n} {level:?}");
                assert_eq!(cr, wcr, "cr n={n} {level:?}");
            }
        }
    }

    #[test]
    fn downsample_row_matches_scalar_exactly() {
        for n in [1usize, 5, 8, 16, 31, 32, 200] {
            let r0 = bytes(n as u64, 2 * n);
            let r1 = bytes(n as u64 + 99, 2 * n);
            let mut want = vec![0u8; n];
            down2x2_row_scalar(&r0, &r1, &mut want);
            for level in levels() {
                let mut got = vec![0u8; n];
                downsample2x2_row(level, &r0, &r1, &mut got);
                assert_eq!(got, want, "n={n} {level:?}");
            }
        }
    }

    #[test]
    fn upsample_row_matches_scalar_exactly() {
        for w in [1usize, 2, 3, 9, 16, 24, 25, 100, 256] {
            let row0 = bytes(w as u64, w);
            let row1 = bytes(w as u64 + 7, w);
            for wy in [64i32, 192] {
                let mut want = vec![0u8; 2 * w];
                up2x_row_scalar(&row0, &row1, wy, &mut want, 0, 2 * w);
                for level in levels() {
                    let mut got = vec![0u8; 2 * w];
                    upsample2x_row(level, &row0, &row1, wy, &mut got);
                    assert_eq!(got, want, "w={w} wy={wy} {level:?}");
                }
            }
        }
    }

    /// The row kernels' loads and stores are sized from one slice: a
    /// shorter partner must panic in release too, not read past its end.
    #[test]
    fn mismatched_row_lengths_panic_at_every_level() {
        let (long, short) = (vec![0u8; 96], vec![0u8; 48]);
        for level in levels() {
            let runs: [Box<dyn Fn()>; 5] = [
                Box::new(|| downsample2x2_row(level, &long, &short, &mut [0; 48])),
                Box::new(|| upsample2x_row(level, &long, &short, 64, &mut [0; 192])),
                Box::new(|| {
                    rgb_rows_to_ycbcr(level, &short, &mut [0; 32], &mut [0; 32], &mut [0; 8])
                }),
                Box::new(|| ycbcr_rows_to_rgb(level, &long, &long, &short, &mut [0; 288])),
                Box::new(|| {
                    let (mut y0, mut y1) = ([0; 32], [0; 32]);
                    let _ = rgb_rows2_to_ycbcr420(
                        level,
                        &long,
                        &long,
                        &mut y0,
                        &mut y1,
                        &mut [0; 16],
                        &mut [0; 8],
                    );
                }),
            ];
            for (i, run) in runs.iter().enumerate() {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                assert!(caught.is_err(), "kernel {i} at {level:?} accepted a short row");
            }
        }
    }

    #[test]
    fn up2x_taps_match_general_bilinear() {
        // The collapsed 2× taps must agree with the general mapping in
        // `color::upsample` (same lo/hi indices and weights).
        use crate::color::{upsample, Plane};
        let w = 23;
        let h = 11;
        let mut p = Plane::new(w, h);
        p.data = bytes(3, w * h);
        let want = upsample(&p, 2 * w, 2 * h);
        for y in 0..2 * h {
            let k = (y / 2) as isize;
            let (y0, y1, wy) = if y % 2 == 0 {
                ((k - 1).max(0) as usize, y / 2, 192)
            } else {
                (y / 2, (y / 2 + 1).min(h - 1), 64)
            };
            let mut row = vec![0u8; 2 * w];
            up2x_row_scalar(
                &p.data[y0 * w..y0 * w + w],
                &p.data[y1 * w..y1 * w + w],
                wy,
                &mut row,
                0,
                2 * w,
            );
            assert_eq!(&want.data[y * 2 * w..(y + 1) * 2 * w], &row[..], "row {y}");
        }
    }
}

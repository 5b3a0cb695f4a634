//! The two chroma resampling kernels, written with 128-bit SSE2 ops and
//! compiled at the `x86_64` baseline ISA. They run at the AVX2 dispatch
//! level but are deliberately not compiled for AVX2: the same bodies
//! built with that target feature measured 4–33 % slower.

use std::arch::x86_64::*;

type V = __m128i;

/// Load 8 bytes and widen to 8 u16 lanes.
///
/// # Safety
/// `p` must point to at least 8 readable bytes.
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn widen8(p: *const u8) -> V {
    _mm_unpacklo_epi8(_mm_loadl_epi64(p.cast()), _mm_setzero_si128())
}

/// Sums of adjacent byte pairs as 8 u16 lanes.
#[target_feature(enable = "sse2")]
#[inline]
fn pairsum16(x: V) -> V {
    _mm_add_epi16(_mm_and_si128(x, _mm_set1_epi16(0x00FF)), _mm_srli_epi16::<8>(x))
}

/// 2×2 box filter for one output row (see the dispatch wrapper).
#[target_feature(enable = "sse2")]
pub(super) fn downsample2x2_row(r0: &[u8], r1: &[u8], out: &mut [u8]) {
    let n = out.len();
    let two = _mm_set1_epi16(2);
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: reads 32 bytes at 2i from each source row (2i + 32 ≤ 2n)
        // and writes 16 bytes at i (i + 16 ≤ n).
        unsafe {
            let a0 = _mm_loadu_si128(r0.as_ptr().add(2 * i).cast());
            let a1 = _mm_loadu_si128(r0.as_ptr().add(2 * i + 16).cast());
            let b0 = _mm_loadu_si128(r1.as_ptr().add(2 * i).cast());
            let b1 = _mm_loadu_si128(r1.as_ptr().add(2 * i + 16).cast());
            let lo = _mm_srli_epi16::<2>(_mm_add_epi16(
                _mm_add_epi16(pairsum16(a0), pairsum16(b0)),
                two,
            ));
            let hi = _mm_srli_epi16::<2>(_mm_add_epi16(
                _mm_add_epi16(pairsum16(a1), pairsum16(b1)),
                two,
            ));
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm_packus_epi16(lo, hi));
        }
        i += 16;
    }
    super::down2x2_row_scalar(&r0[2 * i..], &r1[2 * i..], &mut out[i..]);
}

/// Exact-2× bilinear row (see the dispatch wrapper for the tap scheme).
///
/// At 2× the horizontal interpolation is `64·(s[k−1] + 3·s[k])` (even
/// outputs) / `64·(3·s[k] + s[k+1])` (odd), so the whole two-axis blend
/// reduces to u16 tap sums fed through one `pmaddwd` per four outputs —
/// with the common factor 64 folded into the final shift, the rounding
/// is identical to the scalar 8.16 path.
#[target_feature(enable = "sse2")]
pub(super) fn upsample2x_row(row0: &[u8], row1: &[u8], wy: i32, out: &mut [u8]) {
    let w = row0.len();
    if w < 10 {
        super::up2x_row_scalar(row0, row1, wy, out, 0, out.len());
        return;
    }
    // Output 0..2 reads the clamped left tap; keep it scalar.
    super::up2x_row_scalar(row0, row1, wy, out, 0, 2);
    let three = _mm_set1_epi16(3);
    let round = _mm_set1_epi32(512);
    let wv = _mm_set1_epi32((wy << 16) | (256 - wy));
    let mut k = 1usize;
    // 8 source positions per iteration → 16 outputs; needs s[k−1 .. k+9).
    while k + 9 <= w {
        // SAFETY: 8-byte loads at k−1, k, k+1 (k+1+8 ≤ w) per row; two
        // 8-byte stores at 2k and 2k+8 (2k+16 ≤ 2w).
        unsafe {
            let ta = widen8(row0.as_ptr().add(k - 1));
            let tb = widen8(row0.as_ptr().add(k));
            let tc = widen8(row0.as_ptr().add(k + 1));
            let ba = widen8(row1.as_ptr().add(k - 1));
            let bb = widen8(row1.as_ptr().add(k));
            let bc = widen8(row1.as_ptr().add(k + 1));
            let tb3 = _mm_mullo_epi16(tb, three);
            let bb3 = _mm_mullo_epi16(bb, three);
            let te = _mm_add_epi16(ta, tb3);
            let to = _mm_add_epi16(tb3, tc);
            let be = _mm_add_epi16(ba, bb3);
            let bo = _mm_add_epi16(bb3, bc);
            // Interleave even/odd → horizontal sums in output order.
            let t_lo = _mm_unpacklo_epi16(te, to);
            let t_hi = _mm_unpackhi_epi16(te, to);
            let b_lo = _mm_unpacklo_epi16(be, bo);
            let b_hi = _mm_unpackhi_epi16(be, bo);
            for (t, b, off) in [(t_lo, b_lo, 0usize), (t_hi, b_hi, 8)] {
                // (top, bottom) i16 pairs · (256−wy, wy) → i32 blends.
                let v0 = _mm_srai_epi32::<10>(_mm_add_epi32(
                    _mm_madd_epi16(_mm_unpacklo_epi16(t, b), wv),
                    round,
                ));
                let v1 = _mm_srai_epi32::<10>(_mm_add_epi32(
                    _mm_madd_epi16(_mm_unpackhi_epi16(t, b), wv),
                    round,
                ));
                let p = _mm_packs_epi32(v0, v1);
                _mm_storel_epi64(out.as_mut_ptr().add(2 * k + off).cast(), _mm_packus_epi16(p, p));
            }
        }
        k += 8;
    }
    super::up2x_row_scalar(row0, row1, wy, out, 2 * k, 2 * w);
}

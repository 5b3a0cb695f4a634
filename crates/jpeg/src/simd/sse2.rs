//! 128-bit kernels restricted to the SSE2 baseline ISA (always available
//! on `x86_64`, so these are the dispatch floor there).
//!
//! SSE2 lacks a 32-bit lane multiply (`pmulld` is SSE4.1) and packed
//! 32-bit min/max; both are emulated below from baseline ops — the
//! emulations are exact, so bit-equality with the scalar oracles holds
//! all the same.

use std::arch::x86_64::*;

use crate::dct::{OUT_GUARD_BITS, SCALE_BITS, WS_LIMIT};

type V = __m128i;

#[target_feature(enable = "sse2")]
#[inline]
fn vadd(a: V, b: V) -> V {
    _mm_add_epi32(a, b)
}

#[target_feature(enable = "sse2")]
#[inline]
fn vsub(a: V, b: V) -> V {
    _mm_sub_epi32(a, b)
}

/// Low 32 bits of the lane-wise 32×32 product. SSE2 only has the
/// widening unsigned `pmuludq` on even lanes; run it twice (lanes 0/2
/// and, after a shift, lanes 1/3) and recombine the low halves. The low
/// 32 bits of the unsigned product equal those of the signed product.
#[target_feature(enable = "sse2")]
#[inline]
fn vmullo(a: V, b: V) -> V {
    let even = _mm_mul_epu32(a, b);
    let odd = _mm_mul_epu32(_mm_srli_epi64::<32>(a), _mm_srli_epi64::<32>(b));
    // imm 0b00_00_10_00 picks dwords {0, 2} (the low product halves).
    _mm_unpacklo_epi32(
        _mm_shuffle_epi32::<0b00_00_10_00>(even),
        _mm_shuffle_epi32::<0b00_00_10_00>(odd),
    )
}

/// Lane-wise `dct::cmul` (see the module docs for the exact two-`mullo`
/// decomposition of the scalar 64-bit product).
#[target_feature(enable = "sse2")]
#[inline]
fn cmul(v: V, k: i64) -> V {
    let k = _mm_set1_epi32(k as i32);
    let vh = _mm_srai_epi32::<13>(v);
    let vl = _mm_and_si128(v, _mm_set1_epi32(0x1fff));
    let lo = _mm_srai_epi32::<13>(_mm_add_epi32(vmullo(vl, k), _mm_set1_epi32(4096)));
    _mm_add_epi32(vmullo(vh, k), lo)
}

/// Lane-wise signed 32-bit min (SSE2 has no `pminsd`).
#[target_feature(enable = "sse2")]
#[inline]
fn vmin(a: V, b: V) -> V {
    let a_gt = _mm_cmpgt_epi32(a, b);
    _mm_or_si128(_mm_and_si128(a_gt, b), _mm_andnot_si128(a_gt, a))
}

/// Lane-wise signed 32-bit max.
#[target_feature(enable = "sse2")]
#[inline]
fn vmax(a: V, b: V) -> V {
    let a_gt = _mm_cmpgt_epi32(a, b);
    _mm_or_si128(_mm_and_si128(a_gt, a), _mm_andnot_si128(a_gt, b))
}

aan_butterflies!(#[target_feature(enable = "sse2")]);

/// Transpose a 4×4 i32 tile.
#[target_feature(enable = "sse2")]
#[inline]
fn transpose4(m: [V; 4]) -> [V; 4] {
    let t0 = _mm_unpacklo_epi32(m[0], m[1]);
    let t1 = _mm_unpackhi_epi32(m[0], m[1]);
    let t2 = _mm_unpacklo_epi32(m[2], m[3]);
    let t3 = _mm_unpackhi_epi32(m[2], m[3]);
    [
        _mm_unpacklo_epi64(t0, t2),
        _mm_unpackhi_epi64(t0, t2),
        _mm_unpacklo_epi64(t1, t3),
        _mm_unpackhi_epi64(t1, t3),
    ]
}

/// Transpose an 8×8 i32 matrix held as two columns of 4-lane halves:
/// `l[i]`/`r[i]` are the left/right halves of row `i`. Quadrant-wise:
/// `[[A B], [C D]]ᵀ = [[Aᵀ Cᵀ], [Bᵀ Dᵀ]]`.
#[target_feature(enable = "sse2")]
#[inline]
fn transpose8(l: &mut [V; 8], r: &mut [V; 8]) {
    let a = transpose4([l[0], l[1], l[2], l[3]]);
    let b = transpose4([r[0], r[1], r[2], r[3]]);
    let c = transpose4([l[4], l[5], l[6], l[7]]);
    let d = transpose4([r[4], r[5], r[6], r[7]]);
    l[..4].copy_from_slice(&a);
    l[4..].copy_from_slice(&b);
    r[..4].copy_from_slice(&c);
    r[4..].copy_from_slice(&d);
}

/// Forward AAN DCT + quantization; bit-exact twin of
/// `quantize(&fdct8x8_aan(samples))`.
#[target_feature(enable = "sse2")]
pub(super) fn fdct_quant(samples: &[u8; 64], recip: &[f32; 64], out: &mut [i32; 64]) {
    // SAFETY: a contiguous 64-byte block is 8 rows at stride 8.
    unsafe { fdct_quant_strided(samples.as_ptr(), 8, recip, out) }
}

/// As [`fdct_quant`], reading the 8 sample rows straight from a plane at
/// `stride` — the encoder's interior blocks skip the gather copy.
///
/// # Safety
/// `src.add(stride * i)` must be valid for 8-byte reads for `i` in 0..8.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn fdct_quant_strided(
    src: *const u8,
    stride: usize,
    recip: &[f32; 64],
    out: &mut [i32; 64],
) {
    let zero = _mm_setzero_si128();
    let c128 = _mm_set1_epi32(128);
    let mut l = [zero; 8];
    let mut r = [zero; 8];
    for i in 0..8 {
        // SAFETY: caller guarantees 8 in-bounds bytes at row i.
        let row = unsafe { _mm_loadl_epi64(src.add(stride * i).cast()) };
        let w16 = _mm_unpacklo_epi8(row, zero);
        let lo = _mm_unpacklo_epi16(w16, zero);
        let hi = _mm_unpackhi_epi16(w16, zero);
        l[i] = _mm_slli_epi32::<13>(_mm_sub_epi32(lo, c128));
        r[i] = _mm_slli_epi32::<13>(_mm_sub_epi32(hi, c128));
    }
    // Row pass first (as the scalar code orders it): transpose so each
    // lane walks one original row, butterfly, transpose back.
    transpose8(&mut l, &mut r);
    fdct_pass(&mut l);
    fdct_pass(&mut r);
    transpose8(&mut l, &mut r);
    // Column pass: lane-wise butterfly over row vectors IS the column
    // transform.
    fdct_pass(&mut l);
    fdct_pass(&mut r);

    const SHIFT: i32 = SCALE_BITS - OUT_GUARD_BITS;
    let round = _mm_set1_epi32(1 << (SHIFT - 1));
    let half = _mm_set1_ps(0.5);
    let sign = _mm_set1_ps(-0.0);
    for i in 0..8 {
        for (j, v) in [l[i], r[i]].into_iter().enumerate() {
            let ws = _mm_srai_epi32::<{ SHIFT }>(_mm_add_epi32(v, round));
            // SAFETY: 4 in-bounds f32 at (row i, half j).
            let rc = unsafe { _mm_loadu_ps(recip.as_ptr().add(8 * i + 4 * j)) };
            let prod = _mm_mul_ps(_mm_cvtepi32_ps(ws), rc);
            let rounded = _mm_add_ps(prod, _mm_or_ps(_mm_and_ps(prod, sign), half));
            let q = _mm_cvttps_epi32(rounded);
            // SAFETY: 4 in-bounds i32 at the same offset.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().add(8 * i + 4 * j).cast(), q) };
        }
    }
}

/// Dequantization + inverse AAN DCT; bit-exact twin of
/// `idct8x8_aan(&mut dequantize_scaled(q))`.
#[target_feature(enable = "sse2")]
pub(super) fn dequant_idct(q: &[i32; 64], mult: &[f32; 64]) -> [u8; 64] {
    let zero = _mm_setzero_si128();
    let lim_f = _mm_set1_ps(WS_LIMIT as f32);
    let neg_lim_f = _mm_set1_ps(-(WS_LIMIT as f32));
    let mut l = [zero; 8];
    let mut r = [zero; 8];
    for i in 0..8 {
        for j in 0..2 {
            // SAFETY: 4 in-bounds i32 / f32 at (row i, half j).
            let qi = unsafe { _mm_loadu_si128(q.as_ptr().add(8 * i + 4 * j).cast()) };
            let m = unsafe { _mm_loadu_ps(mult.as_ptr().add(8 * i + 4 * j)) };
            let prod = _mm_mul_ps(_mm_cvtepi32_ps(qi), m);
            let ws = _mm_cvttps_epi32(_mm_max_ps(_mm_min_ps(prod, lim_f), neg_lim_f));
            if j == 0 {
                l[i] = ws;
            } else {
                r[i] = ws;
            }
        }
    }
    // Column pass (scalar order: columns first), then the inter-pass
    // workspace clamp, then the row pass via transposes.
    idct_pass(&mut l);
    idct_pass(&mut r);
    let lim = _mm_set1_epi32(WS_LIMIT);
    let neg_lim = _mm_set1_epi32(-WS_LIMIT);
    for i in 0..8 {
        l[i] = vmax(vmin(l[i], lim), neg_lim);
        r[i] = vmax(vmin(r[i], lim), neg_lim);
    }
    transpose8(&mut l, &mut r);
    idct_pass(&mut l);
    idct_pass(&mut r);
    transpose8(&mut l, &mut r);

    let round = _mm_set1_epi32(1 << (SCALE_BITS - 1));
    let c128 = _mm_set1_epi32(128);
    let mut out = [0u8; 64];
    for i in 0..8 {
        let a = _mm_add_epi32(_mm_srai_epi32::<{ SCALE_BITS }>(_mm_add_epi32(l[i], round)), c128);
        let b = _mm_add_epi32(_mm_srai_epi32::<{ SCALE_BITS }>(_mm_add_epi32(r[i], round)), c128);
        // packs (i32→i16 signed sat) then packus (i16→u8 unsigned sat)
        // together implement exactly `clamp(0, 255)`.
        let p = _mm_packs_epi32(a, b);
        let px = _mm_packus_epi16(p, p);
        // SAFETY: 8 in-bounds bytes at row i.
        unsafe { _mm_storel_epi64(out.as_mut_ptr().add(8 * i).cast(), px) };
    }
    out
}

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

/// [`super::magnitude_mask`], four lanes at a time: SSE2 has neither
/// `abs` nor an unsigned compare, so `|v| ≥ t` is `v > t − 1 ∨ v < 1 − t`
/// in signed compares, which for `t ≤ 2³¹` counts `i32::MIN` as 2³¹, as
/// `unsigned_abs` does.
#[target_feature(enable = "sse2")]
pub(super) fn magnitude_mask(block: &[i32; 64], t: u32) -> u64 {
    let hi = _mm_set1_epi32(t.wrapping_sub(1) as i32);
    let lo = _mm_set1_epi32(1u32.wrapping_sub(t) as i32);
    let mut mask = 0u64;
    for i in 0..16 {
        // SAFETY: 4 in-bounds i32 at offset 4*i of the 64-entry block.
        let v = unsafe { _mm_loadu_si128(block.as_ptr().add(4 * i).cast()) };
        let big = _mm_or_si128(_mm_cmpgt_epi32(v, hi), _mm_cmpgt_epi32(lo, v));
        let bits = _mm_movemask_ps(_mm_castsi128_ps(big)) as u32;
        mask |= u64::from(bits) << (4 * i);
    }
    mask
}

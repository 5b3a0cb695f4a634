//! 256-bit AVX2 kernels (runtime-detected). One 8-lane vector holds a
//! whole block row, so the DCT kernels work on a single `[V; 8]` register
//! file; the color kernels process 16 pixels per iteration with `pshufb`
//! (de)interleaving (SSSE3 is implied by AVX2).

use std::arch::x86_64::*;

use crate::dct::{
    F_0_382683433, F_0_541196100, F_0_707106781, F_1_082392200, F_1_306562965, F_1_414213562,
    F_1_847759065, F_2_613125930, OUT_GUARD_BITS, SCALE_BITS, WS_LIMIT,
};

type V = __m256i;

#[target_feature(enable = "avx2")]
#[inline]
fn vadd(a: V, b: V) -> V {
    _mm256_add_epi32(a, b)
}

#[target_feature(enable = "avx2")]
#[inline]
fn vsub(a: V, b: V) -> V {
    _mm256_sub_epi32(a, b)
}

/// Lane-wise `dct::cmul` (see the module docs for the exact two-`mullo`
/// decomposition of the scalar 64-bit product).
#[target_feature(enable = "avx2")]
#[inline]
fn cmul(v: V, k: i64) -> V {
    let k = _mm256_set1_epi32(k as i32);
    let vh = _mm256_srai_epi32::<13>(v);
    let vl = _mm256_and_si256(v, _mm256_set1_epi32(0x1fff));
    let lo = _mm256_srai_epi32::<13>(_mm256_add_epi32(
        _mm256_mullo_epi32(vl, k),
        _mm256_set1_epi32(4096),
    ));
    _mm256_add_epi32(_mm256_mullo_epi32(vh, k), lo)
}

// The two AAN passes are line-for-line the scalar `crate::dct` passes
// with `+`/`-`/`cmul` replaced by lane-wise ops: a butterfly over eight
// row vectors performs, per lane, the 1-D transform of one column of
// the matrix those vectors form.

/// One forward AAN pass across eight vectors (scalar `fdct1d`).
#[target_feature(enable = "avx2")]
#[inline]
fn fdct_pass(d: &mut [V; 8]) {
    let tmp0 = vadd(d[0], d[7]);
    let tmp7 = vsub(d[0], d[7]);
    let tmp1 = vadd(d[1], d[6]);
    let tmp6 = vsub(d[1], d[6]);
    let tmp2 = vadd(d[2], d[5]);
    let tmp5 = vsub(d[2], d[5]);
    let tmp3 = vadd(d[3], d[4]);
    let tmp4 = vsub(d[3], d[4]);

    let tmp10 = vadd(tmp0, tmp3);
    let tmp13 = vsub(tmp0, tmp3);
    let tmp11 = vadd(tmp1, tmp2);
    let tmp12 = vsub(tmp1, tmp2);

    d[0] = vadd(tmp10, tmp11);
    d[4] = vsub(tmp10, tmp11);

    let z1 = cmul(vadd(tmp12, tmp13), F_0_707106781);
    d[2] = vadd(tmp13, z1);
    d[6] = vsub(tmp13, z1);

    let tmp10 = vadd(tmp4, tmp5);
    let tmp11 = vadd(tmp5, tmp6);
    let tmp12 = vadd(tmp6, tmp7);

    let z5 = cmul(vsub(tmp10, tmp12), F_0_382683433);
    let z2 = vadd(cmul(tmp10, F_0_541196100), z5);
    let z4 = vadd(cmul(tmp12, F_1_306562965), z5);
    let z3 = cmul(tmp11, F_0_707106781);

    let z11 = vadd(tmp7, z3);
    let z13 = vsub(tmp7, z3);

    d[5] = vadd(z13, z2);
    d[3] = vsub(z13, z2);
    d[1] = vadd(z11, z4);
    d[7] = vsub(z11, z4);
}

/// One inverse AAN pass across eight vectors (scalar `idct1d`).
#[target_feature(enable = "avx2")]
#[inline]
fn idct_pass(d: &mut [V; 8]) {
    let tmp0 = d[0];
    let tmp1 = d[2];
    let tmp2 = d[4];
    let tmp3 = d[6];

    let tmp10 = vadd(tmp0, tmp2);
    let tmp11 = vsub(tmp0, tmp2);
    let tmp13 = vadd(tmp1, tmp3);
    let tmp12 = vsub(cmul(vsub(tmp1, tmp3), F_1_414213562), tmp13);

    let tmp0 = vadd(tmp10, tmp13);
    let tmp3 = vsub(tmp10, tmp13);
    let tmp1 = vadd(tmp11, tmp12);
    let tmp2 = vsub(tmp11, tmp12);

    let tmp4 = d[1];
    let tmp5 = d[3];
    let tmp6 = d[5];
    let tmp7 = d[7];

    let z13 = vadd(tmp6, tmp5);
    let z10 = vsub(tmp6, tmp5);
    let z11 = vadd(tmp4, tmp7);
    let z12 = vsub(tmp4, tmp7);

    let tmp7 = vadd(z11, z13);
    let tmp11 = cmul(vsub(z11, z13), F_1_414213562);

    let z5 = cmul(vadd(z10, z12), F_1_847759065);
    let tmp10 = vsub(cmul(z12, F_1_082392200), z5);
    let tmp12 = vsub(z5, cmul(z10, F_2_613125930));

    let tmp6 = vsub(tmp12, tmp7);
    let tmp5 = vsub(tmp11, tmp6);
    let tmp4 = vadd(tmp10, tmp5);

    d[0] = vadd(tmp0, tmp7);
    d[7] = vsub(tmp0, tmp7);
    d[1] = vadd(tmp1, tmp6);
    d[6] = vsub(tmp1, tmp6);
    d[2] = vadd(tmp2, tmp5);
    d[5] = vsub(tmp2, tmp5);
    d[4] = vadd(tmp3, tmp4);
    d[3] = vsub(tmp3, tmp4);
}

/// Transpose an 8×8 i32 matrix held as eight row vectors.
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(d: &mut [V; 8]) {
    let t0 = _mm256_unpacklo_epi32(d[0], d[1]);
    let t1 = _mm256_unpackhi_epi32(d[0], d[1]);
    let t2 = _mm256_unpacklo_epi32(d[2], d[3]);
    let t3 = _mm256_unpackhi_epi32(d[2], d[3]);
    let t4 = _mm256_unpacklo_epi32(d[4], d[5]);
    let t5 = _mm256_unpackhi_epi32(d[4], d[5]);
    let t6 = _mm256_unpacklo_epi32(d[6], d[7]);
    let t7 = _mm256_unpackhi_epi32(d[6], d[7]);
    let s0 = _mm256_unpacklo_epi64(t0, t2);
    let s1 = _mm256_unpackhi_epi64(t0, t2);
    let s2 = _mm256_unpacklo_epi64(t1, t3);
    let s3 = _mm256_unpackhi_epi64(t1, t3);
    let s4 = _mm256_unpacklo_epi64(t4, t6);
    let s5 = _mm256_unpackhi_epi64(t4, t6);
    let s6 = _mm256_unpacklo_epi64(t5, t7);
    let s7 = _mm256_unpackhi_epi64(t5, t7);
    d[0] = _mm256_permute2x128_si256::<0x20>(s0, s4);
    d[1] = _mm256_permute2x128_si256::<0x20>(s1, s5);
    d[2] = _mm256_permute2x128_si256::<0x20>(s2, s6);
    d[3] = _mm256_permute2x128_si256::<0x20>(s3, s7);
    d[4] = _mm256_permute2x128_si256::<0x31>(s0, s4);
    d[5] = _mm256_permute2x128_si256::<0x31>(s1, s5);
    d[6] = _mm256_permute2x128_si256::<0x31>(s2, s6);
    d[7] = _mm256_permute2x128_si256::<0x31>(s3, s7);
}

/// Forward AAN DCT + quantization; bit-exact twin of
/// `quantize(&fdct8x8_aan(samples))`.
#[target_feature(enable = "avx2")]
pub(super) fn fdct_quant(samples: &[u8; 64], recip: &[f32; 64], out: &mut [i32; 64]) {
    // SAFETY: a contiguous 64-byte block is 8 rows at stride 8.
    unsafe { fdct_quant_strided(samples.as_ptr(), 8, recip, out) }
}

/// As [`fdct_quant`], reading the 8 sample rows straight from a plane at
/// `stride` — the encoder's interior blocks skip the gather copy.
///
/// # Safety
/// `src.add(stride * i)` must be valid for 8-byte reads for `i` in 0..8.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fdct_quant_strided(
    src: *const u8,
    stride: usize,
    recip: &[f32; 64],
    out: &mut [i32; 64],
) {
    let c128 = _mm256_set1_epi32(128);
    let mut d = [_mm256_setzero_si256(); 8];
    for (i, v) in d.iter_mut().enumerate() {
        // SAFETY: caller guarantees 8 in-bounds bytes at row i.
        let row = unsafe { _mm_loadl_epi64(src.add(stride * i).cast()) };
        *v = _mm256_slli_epi32::<13>(_mm256_sub_epi32(_mm256_cvtepu8_epi32(row), c128));
    }
    // Row pass first (scalar order): transpose so each lane walks one
    // original row, butterfly, transpose back; then the column pass is a
    // lane-wise butterfly over the row vectors.
    transpose8(&mut d);
    fdct_pass(&mut d);
    transpose8(&mut d);
    fdct_pass(&mut d);

    const SHIFT: i32 = SCALE_BITS - OUT_GUARD_BITS;
    let round = _mm256_set1_epi32(1 << (SHIFT - 1));
    let half = _mm256_set1_ps(0.5);
    let sign = _mm256_set1_ps(-0.0);
    for (i, v) in d.iter().enumerate() {
        let ws = _mm256_srai_epi32::<{ SHIFT }>(_mm256_add_epi32(*v, round));
        // SAFETY: 8 in-bounds f32 / i32 at row i.
        let rc = unsafe { _mm256_loadu_ps(recip.as_ptr().add(8 * i)) };
        let prod = _mm256_mul_ps(_mm256_cvtepi32_ps(ws), rc);
        let rounded = _mm256_add_ps(prod, _mm256_or_ps(_mm256_and_ps(prod, sign), half));
        let q = _mm256_cvttps_epi32(rounded);
        // SAFETY: 8 in-bounds i32 at row i of the 64-entry `out`.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(8 * i).cast(), q) };
    }
}

/// Dequantization + inverse AAN DCT; bit-exact twin of
/// `idct8x8_aan(&mut dequantize_scaled(q))`.
#[target_feature(enable = "avx2")]
pub(super) fn dequant_idct(q: &[i32; 64], mult: &[f32; 64]) -> [u8; 64] {
    let lim_f = _mm256_set1_ps(WS_LIMIT as f32);
    let neg_lim_f = _mm256_set1_ps(-(WS_LIMIT as f32));
    let mut d = [_mm256_setzero_si256(); 8];
    for (i, v) in d.iter_mut().enumerate() {
        // SAFETY: 8 in-bounds i32 / f32 at row i of the 64-entry arrays.
        let (qi, m) = unsafe {
            (
                _mm256_loadu_si256(q.as_ptr().add(8 * i).cast()),
                _mm256_loadu_ps(mult.as_ptr().add(8 * i)),
            )
        };
        let prod = _mm256_mul_ps(_mm256_cvtepi32_ps(qi), m);
        *v = _mm256_cvttps_epi32(_mm256_max_ps(_mm256_min_ps(prod, lim_f), neg_lim_f));
    }
    // Column pass (scalar order: columns first), inter-pass clamp, then
    // the row pass between transposes.
    idct_pass(&mut d);
    let lim = _mm256_set1_epi32(WS_LIMIT);
    let neg_lim = _mm256_set1_epi32(-WS_LIMIT);
    for v in d.iter_mut() {
        *v = _mm256_max_epi32(_mm256_min_epi32(*v, lim), neg_lim);
    }
    transpose8(&mut d);
    idct_pass(&mut d);
    transpose8(&mut d);

    let round = _mm256_set1_epi32(1 << (SCALE_BITS - 1));
    let c128 = _mm256_set1_epi32(128);
    for v in d.iter_mut() {
        *v = _mm256_add_epi32(
            _mm256_srai_epi32::<{ SCALE_BITS }>(_mm256_add_epi32(*v, round)),
            c128,
        );
    }
    // packs (i32→i16 signed sat) + packus (i16→u8 unsigned sat) is
    // exactly `clamp(0, 255)`; the dword permute undoes the 128-bit lane
    // interleave the packs introduce.
    let order = _mm256_set_epi32(7, 3, 6, 2, 5, 1, 4, 0);
    let mut out = [0u8; 64];
    for half in 0..2 {
        let p = _mm256_packs_epi32(d[4 * half], d[4 * half + 1]);
        let q2 = _mm256_packs_epi32(d[4 * half + 2], d[4 * half + 3]);
        let b = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(p, q2), order);
        // SAFETY: 32 in-bounds bytes at rows 4·half .. 4·half+4.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(32 * half).cast(), b) };
    }
    out
}

// --- Color conversion --------------------------------------------------

/// BT.601 forward weights (duplicated from `crate::color`, same values).
const FIX_Y: [i32; 3] = [19595, 38470, 7471];
const FIX_CB: [i32; 3] = [-11059, -21709, 32768];
const FIX_CR: [i32; 3] = [32768, -27439, -5329];
/// Inverse weights.
const FIX_R_CR: i32 = 91881;
const FIX_G_CB: i32 = -22554;
const FIX_G_CR: i32 = -46802;
const FIX_B_CB: i32 = 116130;
const HALF: i32 = 1 << 15;

/// Pack two i16 weights into the i32 `madd_epi16` broadcast constant
/// (`lo` multiplies the even lane of each pair, `hi` the odd lane).
const fn pair(lo: i32, hi: i32) -> i32 {
    assert!(lo >= i16::MIN as i32 && lo <= i16::MAX as i32);
    assert!(hi >= i16::MIN as i32 && hi <= i16::MAX as i32);
    (((hi as u32) << 16) | (lo as u32 & 0xffff)) as i32
}

/// Saturate 16 pixel-ordered i16 lanes to u8 — identical to
/// `clamp(0, 255)` per lane.
#[target_feature(enable = "avx2")]
#[inline]
fn pack_u16(v: V) -> __m128i {
    _mm_packus_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
}

/// Convert 16 RGB pixels at `rgb` to pixel-ordered i16 Y/Cb/Cr lanes —
/// the shared core of the row kernels. Bit-exact with the scalar
/// `rgb_to_ycbcr` per pixel once the i16 lanes are saturated to u8.
///
/// 16-bit lanes + `madd_epi16` pair dot products. The BT.601 weights
/// that overflow i16 are decomposed exactly: Y's 38470·g = 65536·g −
/// 27066·g (the 65536·g term is a post-shift `+ g`, exact because
/// 65536·g is a multiple of the divisor under arithmetic-shift floor
/// division), and the 32768 chroma weights become a (16384, 16384) pair
/// on a duplicated lane.
///
/// # Safety
/// Reads 48 bytes at `rgb`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn convert16_ycbcr(rgb: *const u8) -> (V, V, V) {
    // Deinterleave masks: output byte p takes input byte mask[p] (0x80 →
    // zero); the three 16-byte source registers cover 16 RGB pixels.
    let mr = [
        _mm_setr_epi8(0, 3, 6, 9, 12, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
        _mm_setr_epi8(-1, -1, -1, -1, -1, -1, 2, 5, 8, 11, 14, -1, -1, -1, -1, -1),
        _mm_setr_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 4, 7, 10, 13),
    ];
    let mg = [
        _mm_setr_epi8(1, 4, 7, 10, 13, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
        _mm_setr_epi8(-1, -1, -1, -1, -1, 0, 3, 6, 9, 12, 15, -1, -1, -1, -1, -1),
        _mm_setr_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 2, 5, 8, 11, 14),
    ];
    let mb = [
        _mm_setr_epi8(2, 5, 8, 11, 14, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
        _mm_setr_epi8(-1, -1, -1, -1, -1, 1, 4, 7, 10, 13, -1, -1, -1, -1, -1, -1),
        _mm_setr_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 3, 6, 9, 12, 15),
    ];
    const W_Y_RG: i32 = pair(FIX_Y[0], FIX_Y[1] - 65536);
    const W_Y_B1: i32 = pair(FIX_Y[2], 0);
    const W_CB_RG: i32 = pair(FIX_CB[0], FIX_CB[1]);
    const W_CB_BB: i32 = pair(FIX_CB[2] / 2, FIX_CB[2] / 2);
    const W_CR_RR: i32 = pair(FIX_CR[0] / 2, FIX_CR[0] / 2);
    const W_CR_GB: i32 = pair(FIX_CR[1], FIX_CR[2]);
    let half = _mm256_set1_epi32(HALF);
    let c128_16 = _mm256_set1_epi16(128);
    let one16 = _mm256_set1_epi16(1);
    // SAFETY: the caller guarantees 48 readable bytes at `rgb`.
    let (a, b, c) = unsafe {
        (
            _mm_loadu_si128(rgb.cast()),
            _mm_loadu_si128(rgb.add(16).cast()),
            _mm_loadu_si128(rgb.add(32).cast()),
        )
    };
    let gather = |m: &[__m128i; 3]| {
        _mm_or_si128(
            _mm_or_si128(_mm_shuffle_epi8(a, m[0]), _mm_shuffle_epi8(b, m[1])),
            _mm_shuffle_epi8(c, m[2]),
        )
    };
    let r = _mm256_cvtepu8_epi16(gather(&mr));
    let g = _mm256_cvtepu8_epi16(gather(&mg));
    let bl = _mm256_cvtepu8_epi16(gather(&mb));
    // Pair interleaves (per 128-bit lane): lo covers pixels
    // 0..4 | 8..12, hi covers 4..8 | 12..16; `packs_epi32(lo, hi)`
    // restores pixel order within each lane.
    let rg_lo = _mm256_unpacklo_epi16(r, g);
    let rg_hi = _mm256_unpackhi_epi16(r, g);
    let gb_lo = _mm256_unpacklo_epi16(g, bl);
    let gb_hi = _mm256_unpackhi_epi16(g, bl);
    let b1_lo = _mm256_unpacklo_epi16(bl, one16);
    let b1_hi = _mm256_unpackhi_epi16(bl, one16);
    let rr_lo = _mm256_unpacklo_epi16(r, r);
    let rr_hi = _mm256_unpackhi_epi16(r, r);
    let bb_lo = _mm256_unpacklo_epi16(bl, bl);
    let bb_hi = _mm256_unpackhi_epi16(bl, bl);

    let y_lo = _mm256_srai_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(rg_lo, _mm256_set1_epi32(W_Y_RG)),
            _mm256_madd_epi16(b1_lo, _mm256_set1_epi32(W_Y_B1)),
        ),
        half,
    ));
    let y_hi = _mm256_srai_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(rg_hi, _mm256_set1_epi32(W_Y_RG)),
            _mm256_madd_epi16(b1_hi, _mm256_set1_epi32(W_Y_B1)),
        ),
        half,
    ));
    // packs then + g: both y16 lanes and g are in pixel order.
    let y16 = _mm256_add_epi16(_mm256_packs_epi32(y_lo, y_hi), g);

    let cb_lo = _mm256_srai_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(rg_lo, _mm256_set1_epi32(W_CB_RG)),
            _mm256_madd_epi16(bb_lo, _mm256_set1_epi32(W_CB_BB)),
        ),
        half,
    ));
    let cb_hi = _mm256_srai_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(rg_hi, _mm256_set1_epi32(W_CB_RG)),
            _mm256_madd_epi16(bb_hi, _mm256_set1_epi32(W_CB_BB)),
        ),
        half,
    ));
    let cb16 = _mm256_add_epi16(_mm256_packs_epi32(cb_lo, cb_hi), c128_16);

    let cr_lo = _mm256_srai_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(rr_lo, _mm256_set1_epi32(W_CR_RR)),
            _mm256_madd_epi16(gb_lo, _mm256_set1_epi32(W_CR_GB)),
        ),
        half,
    ));
    let cr_hi = _mm256_srai_epi32::<16>(_mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(rr_hi, _mm256_set1_epi32(W_CR_RR)),
            _mm256_madd_epi16(gb_hi, _mm256_set1_epi32(W_CR_GB)),
        ),
        half,
    ));
    let cr16 = _mm256_add_epi16(_mm256_packs_epi32(cr_lo, cr_hi), c128_16);
    (y16, cb16, cr16)
}

/// Convert a run of RGB pixels to Y/Cb/Cr; bit-exact twin of the scalar
/// `rgb_to_ycbcr` loop.
#[target_feature(enable = "avx2")]
pub(super) fn rgb_rows_to_ycbcr(rgb: &[u8], y: &mut [u8], cb: &mut [u8], cr: &mut [u8]) {
    let n = y.len();
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: reads 48 bytes at 3i (3i + 48 ≤ 3n); writes 16 bytes at
        // i into each output (i + 16 ≤ n).
        unsafe {
            let (y16, cb16, cr16) = convert16_ycbcr(rgb.as_ptr().add(3 * i));
            _mm_storeu_si128(y.as_mut_ptr().add(i).cast(), pack_u16(y16));
            _mm_storeu_si128(cb.as_mut_ptr().add(i).cast(), pack_u16(cb16));
            _mm_storeu_si128(cr.as_mut_ptr().add(i).cast(), pack_u16(cr16));
        }
        i += 16;
    }
    super::rgb_rows_scalar(&rgb[3 * i..], &mut y[i..], &mut cb[i..], &mut cr[i..]);
}

/// Average a row pair of pixel-ordered i16 chroma lanes into 8 half-res
/// u8 samples: saturate each lane to u8 first (matching the unfused
/// pack-then-downsample pipeline exactly), then `(a+b+c+d+2) >> 2`.
#[target_feature(enable = "avx2")]
#[inline]
fn chroma_pair_avg(c0: V, c1: V) -> __m128i {
    let zero = _mm256_setzero_si256();
    let v255 = _mm256_set1_epi16(255);
    let sat = |v: V| _mm256_min_epi16(_mm256_max_epi16(v, zero), v255);
    // Row sum ≤ 510 per lane, then horizontal pair sums via a ones-madd.
    let s = _mm256_add_epi16(sat(c0), sat(c1));
    let pairs = _mm256_madd_epi16(s, _mm256_set1_epi16(1));
    let avg = _mm256_srli_epi32::<2>(_mm256_add_epi32(pairs, _mm256_set1_epi32(2)));
    // 8 dwords → low 8 bytes: [p0..4, p0..4 | p4..8, p4..8] after the
    // self-packs, then dwords 0 and 2 carry the 8 samples in order.
    let p16 = _mm256_packs_epi32(avg, avg);
    let p8 = _mm_packus_epi16(_mm256_castsi256_si128(p16), _mm256_extracti128_si256::<1>(p16));
    _mm_shuffle_epi32::<0b00_00_10_00>(p8)
}

/// Fused 4:2:0 row-pair kernel: two RGB rows → two Y rows plus one
/// half-resolution Cb and Cr row, averaging the 2×2 chroma quad in
/// registers instead of storing full-resolution chroma and re-reading it.
/// Bit-exact with `rgb_rows_to_ycbcr` + `downsample2x2_row` per plane.
#[target_feature(enable = "avx2")]
pub(super) fn rgb_rows2_to_ycbcr420(
    rgb0: &[u8],
    rgb1: &[u8],
    y0: &mut [u8],
    y1: &mut [u8],
    cbrow: &mut [u8],
    crrow: &mut [u8],
) {
    let n = y0.len();
    debug_assert!(
        n.is_multiple_of(2) && y1.len() == n && cbrow.len() == n / 2 && crrow.len() == n / 2
    );
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: reads 48 bytes at 3i of each row (3i + 48 ≤ 3n); writes
        // 16 bytes at i into each Y row and 8 bytes at i/2 into each
        // chroma row (i/2 + 8 ≤ n/2).
        unsafe {
            let (ya, cb0, cr0) = convert16_ycbcr(rgb0.as_ptr().add(3 * i));
            let (yb, cb1, cr1) = convert16_ycbcr(rgb1.as_ptr().add(3 * i));
            _mm_storeu_si128(y0.as_mut_ptr().add(i).cast(), pack_u16(ya));
            _mm_storeu_si128(y1.as_mut_ptr().add(i).cast(), pack_u16(yb));
            _mm_storel_epi64(cbrow.as_mut_ptr().add(i / 2).cast(), chroma_pair_avg(cb0, cb1));
            _mm_storel_epi64(crrow.as_mut_ptr().add(i / 2).cast(), chroma_pair_avg(cr0, cr1));
        }
        i += 16;
    }
    // Ragged tail (< 16 pixels, still even): scalar convert into stack
    // scratch, then the same 2×2 average.
    let rem = n - i;
    if rem > 0 {
        let (mut cb0t, mut cr0t) = ([0u8; 16], [0u8; 16]);
        let (mut cb1t, mut cr1t) = ([0u8; 16], [0u8; 16]);
        super::rgb_rows_scalar(
            &rgb0[3 * i..3 * n],
            &mut y0[i..],
            &mut cb0t[..rem],
            &mut cr0t[..rem],
        );
        super::rgb_rows_scalar(
            &rgb1[3 * i..3 * n],
            &mut y1[i..],
            &mut cb1t[..rem],
            &mut cr1t[..rem],
        );
        for j in (0..rem).step_by(2) {
            let o = (i + j) / 2;
            let quad = |a: &[u8; 16], b: &[u8; 16]| {
                (u16::from(a[j]) + u16::from(a[j + 1]) + u16::from(b[j]) + u16::from(b[j + 1]) + 2)
                    >> 2
            };
            cbrow[o] = quad(&cb0t, &cb1t) as u8;
            crrow[o] = quad(&cr0t, &cr1t) as u8;
        }
    }
}

/// Convert Y/Cb/Cr runs to interleaved RGB; bit-exact twin of the scalar
/// `ycbcr_to_rgb` loop.
#[target_feature(enable = "avx2")]
pub(super) fn ycbcr_rows_to_rgb(y: &[u8], cb: &[u8], cr: &[u8], rgb: &mut [u8]) {
    let n = y.len();
    // Interleave masks: output register covering stream bytes 16t..16t+16
    // takes r/g/b channel bytes at stride-3 positions.
    let mr = [
        _mm_setr_epi8(0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1, -1, 5),
        _mm_setr_epi8(-1, -1, 6, -1, -1, 7, -1, -1, 8, -1, -1, 9, -1, -1, 10, -1),
        _mm_setr_epi8(-1, 11, -1, -1, 12, -1, -1, 13, -1, -1, 14, -1, -1, 15, -1, -1),
    ];
    let mg = [
        _mm_setr_epi8(-1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1, -1),
        _mm_setr_epi8(5, -1, -1, 6, -1, -1, 7, -1, -1, 8, -1, -1, 9, -1, -1, 10),
        _mm_setr_epi8(-1, -1, 11, -1, -1, 12, -1, -1, 13, -1, -1, 14, -1, -1, 15, -1),
    ];
    let mb = [
        _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1),
        _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, 8, -1, -1, 9, -1, -1),
        _mm_setr_epi8(10, -1, -1, 11, -1, -1, 12, -1, -1, 13, -1, -1, 14, -1, -1, 15),
    ];
    // 16-bit lanes + `madd_epi16` pair dot products over interleaved
    // (cb−128, cr−128) pairs; the inverse weights that overflow i16 are
    // decomposed exactly against the 2^16 divisor: 91881 = 65536 + 26345
    // (post-shift `+ cr`), −46802 = −65536 + 18734 (post-shift `− cr`),
    // and 116130 = 2·65536 − 14942 (post-shift `+ 2·cb`). The correction
    // terms stay within ±140, so the i32→i16 packs and the i16 adds
    // below are exact; the final `packus` is the scalar clamp.
    const W_R: i32 = pair(0, FIX_R_CR - 65536);
    const W_G: i32 = pair(FIX_G_CB, FIX_G_CR + 65536);
    const W_B: i32 = pair(FIX_B_CB - 2 * 65536, 0);
    let half = _mm256_set1_epi32(HALF);
    let c128_16 = _mm256_set1_epi16(128);
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: reads 16 bytes at i from each input (i + 16 ≤ n);
        // writes 48 bytes at 3i (3i + 48 ≤ 3n).
        unsafe {
            let yv = _mm256_cvtepu8_epi16(_mm_loadu_si128(y.as_ptr().add(i).cast()));
            let cbh = _mm256_sub_epi16(
                _mm256_cvtepu8_epi16(_mm_loadu_si128(cb.as_ptr().add(i).cast())),
                c128_16,
            );
            let crh = _mm256_sub_epi16(
                _mm256_cvtepu8_epi16(_mm_loadu_si128(cr.as_ptr().add(i).cast())),
                c128_16,
            );
            let cc_lo = _mm256_unpacklo_epi16(cbh, crh);
            let cc_hi = _mm256_unpackhi_epi16(cbh, crh);
            let corr = |w: i32| {
                let lo = _mm256_srai_epi32::<16>(_mm256_add_epi32(
                    _mm256_madd_epi16(cc_lo, _mm256_set1_epi32(w)),
                    half,
                ));
                let hi = _mm256_srai_epi32::<16>(_mm256_add_epi32(
                    _mm256_madd_epi16(cc_hi, _mm256_set1_epi32(w)),
                    half,
                ));
                _mm256_packs_epi32(lo, hi)
            };
            let r16 = pack_u16(_mm256_add_epi16(_mm256_add_epi16(yv, crh), corr(W_R)));
            let g16 = pack_u16(_mm256_add_epi16(_mm256_sub_epi16(yv, crh), corr(W_G)));
            let b16 = pack_u16(_mm256_add_epi16(
                _mm256_add_epi16(yv, _mm256_add_epi16(cbh, cbh)),
                corr(W_B),
            ));
            for (t, masks) in [(0usize, 0usize), (16, 1), (32, 2)] {
                let v = _mm_or_si128(
                    _mm_or_si128(
                        _mm_shuffle_epi8(r16, mr[masks]),
                        _mm_shuffle_epi8(g16, mg[masks]),
                    ),
                    _mm_shuffle_epi8(b16, mb[masks]),
                );
                _mm_storeu_si128(rgb.as_mut_ptr().add(3 * i + t).cast(), v);
            }
        }
        i += 16;
    }
    super::ycbcr_rows_scalar(&y[i..], &cb[i..], &cr[i..], &mut rgb[3 * i..]);
}

/// [`super::magnitude_mask`], eight lanes at a time: `|v| ≥ t` as
/// `max_u32(abs(v), t) == abs(v)`. Read unsigned, `abs_epi32(i32::MIN)`
/// is 2³¹, as `unsigned_abs` has it.
#[target_feature(enable = "avx2")]
pub(super) fn magnitude_mask(block: &[i32; 64], t: u32) -> u64 {
    let t = _mm256_set1_epi32(t as i32);
    let mut mask = 0u64;
    for i in 0..8 {
        // SAFETY: 8 in-bounds i32 at offset 8*i of the 64-entry block.
        let v = unsafe { _mm256_loadu_si256(block.as_ptr().add(8 * i).cast()) };
        let a = _mm256_abs_epi32(v);
        let big = _mm256_cmpeq_epi32(_mm256_max_epu32(a, t), a);
        let bits = _mm256_movemask_ps(_mm256_castsi256_ps(big)) as u32;
        mask |= u64::from(bits) << (8 * i);
    }
    mask
}

//! Forward and inverse 8×8 DCT (type-II / type-III).
//!
//! Three implementations live here:
//!
//! * [`mod@reference`] — the textbook separable `f32` basis-matrix transform
//!   (O(64²) multiply-adds per block). It is the semantic ground truth:
//!   the equivalence tests gate the fast paths against it, and callers
//!   that need unscaled floating-point coefficients keep using it via
//!   the re-exported [`fdct8x8`]/[`idct8x8`].
//! * The scaled integer **AAN** (Arai–Agui–Nakajima) butterfly pair
//!   ([`fdct8x8_aan`] / [`idct8x8_aan`]) — the hot path used by the
//!   encoder and decoder. Each 1-D pass costs 29 adds and 5 multiplies
//!   instead of 64 multiply-adds, and the row/column scale factors the
//!   factorization leaves behind are folded into the quantization step
//!   (see [`crate::quant::AanQuantizer`] / [`crate::quant::AanDequantizer`]),
//!   so the per-block transform itself never multiplies by them.
//! * [`idct8x8_signed`] — the same inverse butterflies in `f32`, with no
//!   level shift, rounding or clamp: the inverse for the *signed
//!   fractional delta* of pixel-domain reconstruction (`p3-core`, paper
//!   Eq. 2), where the integer path's `u8` output cannot be used.
//!
//! The JPEG convention is used: with level-shifted pixels `f(x,y)` in
//! `[-128, 127]`,
//!
//! ```text
//! F(u,v) = 1/4 C(u) C(v) Σ_x Σ_y f(x,y) cos((2x+1)uπ/16) cos((2y+1)vπ/16)
//! ```
//!
//! with `C(0) = 1/√2`, `C(k>0) = 1`. The DCT is a *linear* operator — the
//! algebraic fact the entire P3 reconstruction (paper Eq. 1/2) rests on —
//! and the tests verify linearity explicitly, along with orthonormality
//! (Parseval), roundtrip accuracy, and reference-vs-AAN equivalence.

/// The textbook `f32` basis-matrix implementation (ground truth).
pub mod reference {
    /// `BASIS[u][x] = C(u)/2 · cos((2x+1)uπ/16)` so that the separable
    /// transform is `F = B f Bᵀ` and `f = Bᵀ F B`.
    fn basis() -> &'static [[f32; 8]; 8] {
        use std::sync::OnceLock;
        static BASIS: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
        BASIS.get_or_init(|| {
            let mut b = [[0f32; 8]; 8];
            for (u, row) in b.iter_mut().enumerate() {
                let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
                for (x, v) in row.iter_mut().enumerate() {
                    let angle = ((2 * x + 1) as f64) * (u as f64) * std::f64::consts::PI / 16.0;
                    *v = (0.5 * cu * angle.cos()) as f32;
                }
            }
            b
        })
    }

    /// Forward 8×8 DCT of a level-shifted block (row-major spatial samples
    /// in, row-major frequency coefficients out).
    pub fn fdct8x8(pixels: &[f32; 64]) -> [f32; 64] {
        let b = basis();
        // tmp = B * f   (transform columns of f along y)
        let mut tmp = [0f32; 64];
        for v in 0..8 {
            for x in 0..8 {
                let mut acc = 0f32;
                for y in 0..8 {
                    acc += b[v][y] * pixels[y * 8 + x];
                }
                tmp[v * 8 + x] = acc;
            }
        }
        // F = tmp * Bᵀ  (transform rows along x)
        let mut out = [0f32; 64];
        for v in 0..8 {
            for u in 0..8 {
                let mut acc = 0f32;
                for x in 0..8 {
                    acc += tmp[v * 8 + x] * b[u][x];
                }
                out[v * 8 + u] = acc;
            }
        }
        out
    }

    /// Inverse 8×8 DCT back to level-shifted spatial samples.
    pub fn idct8x8(coeffs: &[f32; 64]) -> [f32; 64] {
        let b = basis();
        // tmp = Bᵀ * F
        let mut tmp = [0f32; 64];
        for y in 0..8 {
            for u in 0..8 {
                let mut acc = 0f32;
                for v in 0..8 {
                    acc += b[v][y] * coeffs[v * 8 + u];
                }
                tmp[y * 8 + u] = acc;
            }
        }
        // f = tmp * B
        let mut out = [0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                let mut acc = 0f32;
                for u in 0..8 {
                    acc += tmp[y * 8 + u] * b[u][x];
                }
                out[y * 8 + x] = acc;
            }
        }
        out
    }

    /// Forward DCT from `u8` samples: applies the −128 level shift.
    pub fn fdct_from_u8(samples: &[u8; 64]) -> [f32; 64] {
        let mut shifted = [0f32; 64];
        for i in 0..64 {
            shifted[i] = f32::from(samples[i]) - 128.0;
        }
        fdct8x8(&shifted)
    }

    /// Inverse DCT to `u8` samples: adds the +128 level shift and clamps.
    pub fn idct_to_u8(coeffs: &[f32; 64]) -> [u8; 64] {
        let px = idct8x8(coeffs);
        let mut out = [0u8; 64];
        for i in 0..64 {
            out[i] = (px[i] + 128.0).round().clamp(0.0, 255.0) as u8;
        }
        out
    }
}

pub use reference::{fdct8x8, fdct_from_u8, idct8x8, idct_to_u8};

// ---------------------------------------------------------------------------
// Scaled integer AAN fast path
// ---------------------------------------------------------------------------
//
// Fixed-point scheme: every workspace value carries `SCALE_BITS` fraction
// bits (value × 2^13) in an `i32`. Butterfly adds/subs operate directly on
// that scale; each multiply by an irrational constant goes through a
// 64-bit product and is descaled back immediately, so rounding error per
// multiply is ±0.5 of the 2^-13 fraction — far below the ±1
// post-quantization equivalence budget. The AAN factorization leaves the
// outputs scaled by `8·s[u]·s[v]` (forward) and expects inputs scaled by
// `s[u]·s[v]/8` (inverse), where `s[0]=1, s[k]=√2·cos(kπ/16)`; those
// per-position factors are folded into the quantization tables, never
// applied per block.

/// Fraction bits carried by the fixed-point workspace.
pub(crate) const SCALE_BITS: i32 = 13;

/// Guard bits kept in the forward output (folded into the quantizer
/// reciprocal): positions with small AAN scales would otherwise lose up
/// to ±0.8 of a coefficient unit to integer rounding alone.
pub(crate) const OUT_GUARD_BITS: i32 = 2;

// AAN butterfly constants at 13-bit fixed point (shared with the SIMD
// kernels in `crate::simd`, which must use bit-identical values).
pub(crate) const F_0_382683433: i64 = 3135; // √2·cos(3π/8) = tan(π/8)·...  0.382683433·2^13
pub(crate) const F_0_541196100: i64 = 4433; // cos(3π/8)·√2 factors of the rotation
pub(crate) const F_0_707106781: i64 = 5793; // 1/√2
pub(crate) const F_1_306562965: i64 = 10703;
pub(crate) const F_1_414213562: i64 = 11585; // √2
pub(crate) const F_1_847759065: i64 = 15137; // 2·cos(π/8)
pub(crate) const F_1_082392200: i64 = 8867; // √2·cos(3π/8)⁻¹ branch constant
pub(crate) const F_2_613125930: i64 = 21407; // used negated in the odd inverse part

/// Multiply a scale-2^13 workspace value by a 13-bit constant, staying at
/// scale 2^13. 64-bit product: hostile coefficient magnitudes (garbage
/// streams with 16-bit quant tables) cannot overflow.
#[inline(always)]
fn cmul(v: i32, k: i64) -> i32 {
    ((i64::from(v) * k + (1 << (SCALE_BITS - 1))) >> SCALE_BITS) as i32
}

/// Scaled integer forward AAN DCT from `u8` samples (level shift applied).
///
/// Output coefficients are `F(u,v) · 8 · s[u] · s[v] · 2^OUT_GUARD_BITS`
/// in natural order — feed them to
/// [`crate::quant::AanQuantizer::quantize`], which divides the scale back
/// out together with the quantization step.
pub fn fdct8x8_aan(samples: &[u8; 64]) -> [i32; 64] {
    let mut ws = [0i32; 64];
    for i in 0..64 {
        ws[i] = (i32::from(samples[i]) - 128) << SCALE_BITS;
    }

    // Pass 1: rows.
    for row in ws.chunks_exact_mut(8) {
        fdct1d(row.try_into().expect("chunk of 8"));
    }
    // Pass 2: columns (strided views assembled in registers).
    for c in 0..8 {
        let mut col = [
            ws[c],
            ws[8 + c],
            ws[16 + c],
            ws[24 + c],
            ws[32 + c],
            ws[40 + c],
            ws[48 + c],
            ws[56 + c],
        ];
        fdct1d(&mut col);
        for (r, v) in col.iter().enumerate() {
            ws[r * 8 + c] = *v;
        }
    }

    let shift = SCALE_BITS - OUT_GUARD_BITS;
    let round = 1 << (shift - 1);
    let mut out = [0i32; 64];
    for i in 0..64 {
        out[i] = (ws[i] + round) >> shift;
    }
    out
}

/// One 1-D forward AAN pass (in place, all values at scale 2^13).
#[inline(always)]
fn fdct1d(d: &mut [i32; 8]) {
    let tmp0 = d[0] + d[7];
    let tmp7 = d[0] - d[7];
    let tmp1 = d[1] + d[6];
    let tmp6 = d[1] - d[6];
    let tmp2 = d[2] + d[5];
    let tmp5 = d[2] - d[5];
    let tmp3 = d[3] + d[4];
    let tmp4 = d[3] - d[4];

    // Even part.
    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    d[0] = tmp10 + tmp11;
    d[4] = tmp10 - tmp11;

    let z1 = cmul(tmp12 + tmp13, F_0_707106781);
    d[2] = tmp13 + z1;
    d[6] = tmp13 - z1;

    // Odd part.
    let tmp10 = tmp4 + tmp5;
    let tmp11 = tmp5 + tmp6;
    let tmp12 = tmp6 + tmp7;

    let z5 = cmul(tmp10 - tmp12, F_0_382683433);
    let z2 = cmul(tmp10, F_0_541196100) + z5;
    let z4 = cmul(tmp12, F_1_306562965) + z5;
    let z3 = cmul(tmp11, F_0_707106781);

    let z11 = tmp7 + z3;
    let z13 = tmp7 - z3;

    d[5] = z13 + z2;
    d[3] = z13 - z2;
    d[1] = z11 + z4;
    d[7] = z11 - z4;
}

/// Workspace magnitude bound enforced on IDCT inputs (by
/// [`crate::quant::AanDequantizer`]) and re-applied between the two 1-D
/// passes: one [`idct1d`] pass amplifies its inputs by at most ~25×, so
/// values ≤ 2²⁵ keep every intermediate below `i32::MAX` (≈ 2³¹/2²⁵ = 64×
/// of headroom). Valid streams stay under ~2²⁴ after the first pass and
/// are never clamped; only hostile coefficient/table combinations hit
/// the bound (and decode to garbage pixels, not to UB or a panic).
pub(crate) const WS_LIMIT: i32 = 1 << 25;

/// Scaled integer inverse AAN DCT straight to clamped `u8` samples.
///
/// `ws` is the fixed-point workspace a [`crate::quant::AanDequantizer`]
/// produces: quantized coefficients multiplied by
/// `q[i] · s[u] · s[v] · 2^13 / 8` in natural order.
pub fn idct8x8_aan(ws: &mut [i32; 64]) -> [u8; 64] {
    // Pass 1: columns (jidctfst order: columns first keeps the common
    // all-zero-AC columns cheap, though we do not special-case them —
    // profiling showed the branch cost roughly cancels the win at P3's
    // high-quality operating point).
    for c in 0..8 {
        let mut col = [
            ws[c],
            ws[8 + c],
            ws[16 + c],
            ws[24 + c],
            ws[32 + c],
            ws[40 + c],
            ws[48 + c],
            ws[56 + c],
        ];
        idct1d(&mut col);
        for (r, v) in col.iter().enumerate() {
            // Re-clamp so the row pass starts from the same bound the
            // column pass did — without this, hostile inputs overflow
            // `i32` in the second pass's butterflies.
            ws[r * 8 + c] = (*v).clamp(-WS_LIMIT, WS_LIMIT);
        }
    }
    // Pass 2: rows, then descale + level shift + clamp.
    let mut out = [0u8; 64];
    let round = 1 << (SCALE_BITS - 1);
    for (row_ws, row_out) in ws.chunks_exact_mut(8).zip(out.chunks_exact_mut(8)) {
        let row: &mut [i32; 8] = row_ws.try_into().expect("chunk of 8");
        idct1d(row);
        for (v, o) in row.iter().zip(row_out.iter_mut()) {
            let px = ((v + round) >> SCALE_BITS) + 128;
            *o = px.clamp(0, 255) as u8;
        }
    }
    out
}

/// One 1-D inverse AAN pass (in place, all values at scale 2^13).
#[inline(always)]
fn idct1d(d: &mut [i32; 8]) {
    // Even part.
    let tmp0 = d[0];
    let tmp1 = d[2];
    let tmp2 = d[4];
    let tmp3 = d[6];

    let tmp10 = tmp0 + tmp2;
    let tmp11 = tmp0 - tmp2;
    let tmp13 = tmp1 + tmp3;
    let tmp12 = cmul(tmp1 - tmp3, F_1_414213562) - tmp13;

    let tmp0 = tmp10 + tmp13;
    let tmp3 = tmp10 - tmp13;
    let tmp1 = tmp11 + tmp12;
    let tmp2 = tmp11 - tmp12;

    // Odd part.
    let tmp4 = d[1];
    let tmp5 = d[3];
    let tmp6 = d[5];
    let tmp7 = d[7];

    let z13 = tmp6 + tmp5;
    let z10 = tmp6 - tmp5;
    let z11 = tmp4 + tmp7;
    let z12 = tmp4 - tmp7;

    let tmp7 = z11 + z13;
    let tmp11 = cmul(z11 - z13, F_1_414213562);

    let z5 = cmul(z10 + z12, F_1_847759065);
    let tmp10 = cmul(z12, F_1_082392200) - z5;
    let tmp12 = z5 - cmul(z10, F_2_613125930);

    let tmp6 = tmp12 - tmp7;
    let tmp5 = tmp11 - tmp6;
    let tmp4 = tmp10 + tmp5;

    d[0] = tmp0 + tmp7;
    d[7] = tmp0 - tmp7;
    d[1] = tmp1 + tmp6;
    d[6] = tmp1 - tmp6;
    d[2] = tmp2 + tmp5;
    d[5] = tmp2 - tmp5;
    d[4] = tmp3 + tmp4;
    d[3] = tmp3 - tmp4;
}

/// The 2-D AAN scale factors `s[u]·s[v]` (natural order, `f64`), where
/// `s[0] = 1` and `s[k] = √2·cos(kπ/16)`. Quantization folds these in.
pub(crate) fn aan_scales_2d() -> [f64; 64] {
    let mut s = [0f64; 8];
    for (k, v) in s.iter_mut().enumerate() {
        *v = if k == 0 {
            1.0
        } else {
            std::f64::consts::SQRT_2 * ((k as f64) * std::f64::consts::PI / 16.0).cos()
        };
    }
    let mut out = [0f64; 64];
    for v in 0..8 {
        for u in 0..8 {
            out[v * 8 + u] = s[v] * s[u];
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Signed float AAN inverse (pixel-domain reconstruction, paper Eq. 2)
// ---------------------------------------------------------------------------

/// `s[u]·s[v]/8` in natural order: the factor a dequantized coefficient
/// is multiplied by (fold it into the step size) before
/// [`idct8x8_signed`].
pub fn idct_signed_scales() -> &'static [f32; 64] {
    static SCALES: std::sync::OnceLock<[f32; 64]> = std::sync::OnceLock::new();
    SCALES.get_or_init(|| aan_scales_2d().map(|s| (s / 8.0) as f32))
}

type Lanes = [f32; 8];

#[inline(always)]
fn lanes(a: Lanes, b: Lanes, f: impl Fn(f32, f32) -> f32) -> Lanes {
    std::array::from_fn(|i| f(a[i], b[i]))
}

/// One 1-D inverse AAN pass down the rows of `r`, all eight columns at
/// once: [`idct1d`]'s butterflies with every variable a row of lanes, so
/// the compiler vectorizes them.
#[inline(always)]
fn idct_rows_signed(r: &mut [Lanes; 8]) {
    let add = |a, b| lanes(a, b, |x, y| x + y);
    let sub = |a, b| lanes(a, b, |x, y| x - y);
    let mul = |a: Lanes, k: f32| a.map(|x| x * k);

    // Even part.
    let tmp10 = add(r[0], r[4]);
    let tmp11 = sub(r[0], r[4]);
    let tmp13 = add(r[2], r[6]);
    let tmp12 = sub(mul(sub(r[2], r[6]), std::f32::consts::SQRT_2), tmp13);

    let tmp0 = add(tmp10, tmp13);
    let tmp3 = sub(tmp10, tmp13);
    let tmp1 = add(tmp11, tmp12);
    let tmp2 = sub(tmp11, tmp12);

    // Odd part.
    let z13 = add(r[5], r[3]);
    let z10 = sub(r[5], r[3]);
    let z11 = add(r[1], r[7]);
    let z12 = sub(r[1], r[7]);

    let tmp7 = add(z11, z13);
    let tmp11 = mul(sub(z11, z13), std::f32::consts::SQRT_2);

    let z5 = mul(add(z10, z12), 1.847_759_1);
    let tmp10 = sub(mul(z12, 1.082_392_2), z5);
    let tmp12 = sub(z5, mul(z10, 2.613_126));

    let tmp6 = sub(tmp12, tmp7);
    let tmp5 = sub(tmp11, tmp6);
    let tmp4 = add(tmp10, tmp5);

    r[0] = add(tmp0, tmp7);
    r[7] = sub(tmp0, tmp7);
    r[1] = add(tmp1, tmp6);
    r[6] = sub(tmp1, tmp6);
    r[2] = add(tmp2, tmp5);
    r[5] = sub(tmp2, tmp5);
    r[4] = add(tmp3, tmp4);
    r[3] = sub(tmp3, tmp4);
}

/// Inverse 8×8 DCT of a **signed delta** block: the AAN butterflies of
/// [`idct8x8_aan`] in `f32`, with no level shift, rounding or clamp, so
/// fractional and negative samples survive (paper footnote 8). Input is
/// eight rows of coefficients pre-multiplied by [`idct_signed_scales`];
/// output replaces it with eight rows of samples, equal to
/// [`reference::idct8x8`] of the unscaled coefficients to within
/// `2⁻²⁰ × Σ|coefficient|` (pinned by a test).
pub fn idct8x8_signed(block: &mut [[f32; 8]; 8]) {
    let transpose = |m: &[Lanes; 8]| -> [Lanes; 8] {
        std::array::from_fn(|i| std::array::from_fn(|j| m[j][i]))
    };
    idct_rows_signed(block);
    *block = transpose(block);
    idct_rows_signed(block);
    *block = transpose(block);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f32; 64], b: &[f32; 64]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn signed_idct_is_pinned_to_the_reference() {
        let scales = idct_signed_scales();
        let mut s = 0x9E37_79B9u32;
        for round in 0..200 {
            // Sparse, signed, wide-range coefficients: what a secret
            // part dequantizes to.
            let mut coeffs = [0f32; 64];
            for c in coeffs.iter_mut() {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                if round % 4 == 0 || s >> 29 == 0 {
                    *c = ((s >> 8) % 4001) as f32 - 2000.0;
                }
            }
            let want = idct8x8(&coeffs);
            let mut block = [[0f32; 8]; 8];
            for (i, c) in coeffs.iter().enumerate() {
                block[i / 8][i % 8] = c * scales[i];
            }
            idct8x8_signed(&mut block);
            let budget = coeffs.iter().map(|c| c.abs()).sum::<f32>() / (1 << 20) as f32;
            for (i, w) in want.iter().enumerate() {
                let got = block[i / 8][i % 8];
                assert!((got - w).abs() <= budget + 1e-6, "round {round} sample {i}: {got} vs {w}");
            }
        }
    }

    #[test]
    fn dc_of_constant_block() {
        let px = [64.0f32; 64];
        let f = fdct8x8(&px);
        // DC = 8 * mean for the JPEG normalization.
        assert!((f[0] - 512.0).abs() < 1e-3, "dc = {}", f[0]);
        for (i, &c) in f.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC {i} = {c}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        let mut px = [0f32; 64];
        for (i, v) in px.iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 256) as f32 - 128.0;
        }
        let rec = idct8x8(&fdct8x8(&px));
        assert!(max_abs_diff(&px, &rec) < 1e-3);
    }

    #[test]
    fn linearity() {
        let mut a = [0f32; 64];
        let mut b = [0f32; 64];
        for i in 0..64 {
            a[i] = (i as f32).sin() * 100.0;
            b[i] = (i as f32 * 0.7).cos() * 80.0;
        }
        let mut sum = [0f32; 64];
        for i in 0..64 {
            sum[i] = 2.0 * a[i] - 3.0 * b[i];
        }
        let fa = fdct8x8(&a);
        let fb = fdct8x8(&b);
        let fsum = fdct8x8(&sum);
        let mut expect = [0f32; 64];
        for i in 0..64 {
            expect[i] = 2.0 * fa[i] - 3.0 * fb[i];
        }
        assert!(max_abs_diff(&fsum, &expect) < 1e-2);
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut px = [0f32; 64];
        for (i, v) in px.iter_mut().enumerate() {
            *v = ((i * 97 + 13) % 255) as f32 - 127.0;
        }
        let f = fdct8x8(&px);
        let e_px: f32 = px.iter().map(|v| v * v).sum();
        let e_f: f32 = f.iter().map(|v| v * v).sum();
        assert!((e_px - e_f).abs() / e_px < 1e-4, "{e_px} vs {e_f}");
    }

    #[test]
    fn u8_roundtrip_is_near_exact() {
        let mut s = [0u8; 64];
        for (i, v) in s.iter_mut().enumerate() {
            *v = ((i * 41 + 3) % 256) as u8;
        }
        let rec = idct_to_u8(&fdct_from_u8(&s));
        for i in 0..64 {
            assert!((i32::from(s[i]) - i32::from(rec[i])).abs() <= 1, "pixel {i}");
        }
    }

    #[test]
    fn single_basis_function() {
        // Setting exactly one coefficient produces the matching cosine image.
        let mut f = [0f32; 64];
        f[1] = 100.0; // u=1, v=0
        let px = idct8x8(&f);
        // Should vary along x only.
        for y in 1..8 {
            for x in 0..8 {
                assert!((px[y * 8 + x] - px[x]).abs() < 1e-3);
            }
        }
    }

    // -- AAN fast path vs reference ----------------------------------------

    /// Deterministic pseudo-random u8 block generator for equivalence tests.
    fn random_block(seed: u64) -> [u8; 64] {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut b = [0u8; 64];
        for v in b.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = (state >> 56) as u8;
        }
        b
    }

    #[test]
    fn aan_forward_matches_reference_unquantized() {
        // Divide the AAN scale back out and compare raw coefficients. The
        // tolerance per position is the granularity of the integer output
        // (±0.5 output units, worth more where the AAN scale is small)
        // plus a small budget for fixed-point constant rounding.
        let scales = aan_scales_2d();
        let guard = f64::from(1u32 << OUT_GUARD_BITS);
        for seed in 0..64u64 {
            let block = random_block(seed);
            let want = reference::fdct_from_u8(&block);
            let got = fdct8x8_aan(&block);
            for i in 0..64 {
                let unscaled = got[i] as f64 / (8.0 * guard * scales[i]);
                let err = (unscaled - f64::from(want[i])).abs();
                let tol = 0.5 / (8.0 * guard * scales[i]) + 0.3;
                assert!(err < tol, "seed {seed} coef {i}: aan {unscaled} vs ref {}", want[i]);
            }
        }
    }

    #[test]
    fn aan_inverse_matches_reference_pixels() {
        use crate::quant::{AanDequantizer, QuantTable};
        // Quantize real coefficients, then reconstruct through both paths:
        // pixels must agree within ±1.
        for quality in [50u8, 75, 90, 95, 100] {
            let qt = QuantTable::luma(quality);
            let deq = AanDequantizer::new(&qt);
            for seed in 0..32u64 {
                let block = random_block(seed.wrapping_add(u64::from(quality) << 32));
                let coeffs = reference::fdct_from_u8(&block);
                let quantized = qt.quantize(&coeffs);
                let want = reference::idct_to_u8(&qt.dequantize(&quantized));
                let mut ws = deq.dequantize_scaled(&quantized);
                let got = idct8x8_aan(&mut ws);
                for i in 0..64 {
                    let err = (i32::from(want[i]) - i32::from(got[i])).abs();
                    assert!(
                        err <= 1,
                        "q{quality} seed {seed} px {i}: aan {} vs ref {}",
                        got[i],
                        want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn aan_dc_only_block() {
        // A DC-only coefficient block must reconstruct to a flat image.
        use crate::quant::{AanDequantizer, QuantTable};
        let qt = QuantTable::flat(1);
        let deq = AanDequantizer::new(&qt);
        let mut q = [0i32; 64];
        q[0] = 256; // DC: 8·mean → mean 32 above mid-gray
        let mut ws = deq.dequantize_scaled(&q);
        let px = idct8x8_aan(&mut ws);
        for (i, &p) in px.iter().enumerate() {
            assert!((i32::from(p) - 160).abs() <= 1, "pixel {i} = {p}");
        }
    }

    #[test]
    fn aan_scales_match_known_values() {
        let s = aan_scales_2d();
        assert!((s[0] - 1.0).abs() < 1e-12);
        // s[1] = √2·cos(π/16) ≈ 1.38704
        assert!((s[1] - 1.3870398453221475).abs() < 1e-9, "{}", s[1]);
        // Symmetric.
        for v in 0..8 {
            for u in 0..8 {
                assert!((s[v * 8 + u] - s[u * 8 + v]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn aan_idct_survives_hostile_workspace() {
        // Adversarial sign patterns at the workspace clamp must not
        // overflow i32 anywhere in the butterflies (this panics in debug
        // builds without the inter-pass re-clamp). Crafted streams decode
        // to garbage pixels, never to UB or a crash.
        for pattern in 0u32..64 {
            let mut ws = [0i32; 64];
            for (i, v) in ws.iter_mut().enumerate() {
                let sign = if (i as u32).wrapping_mul(pattern + 3) & 2 == 0 { 1 } else { -1 };
                *v = sign * WS_LIMIT;
            }
            let px = idct8x8_aan(&mut ws);
            std::hint::black_box(px);
        }
    }

    #[test]
    fn aan_handles_extreme_blocks() {
        // All-0, all-255, and checkerboard blocks exercise the clamp and
        // the highest-frequency path.
        use crate::quant::{AanDequantizer, AanQuantizer, QuantTable};
        let qt = QuantTable::luma(90);
        let quant = AanQuantizer::new(&qt);
        let deq = AanDequantizer::new(&qt);
        for pattern in [[0u8; 64], [255u8; 64], {
            let mut c = [0u8; 64];
            for (i, v) in c.iter_mut().enumerate() {
                *v = if (i / 8 + i % 8) % 2 == 0 { 255 } else { 0 };
            }
            c
        }] {
            let q = quant.quantize(&fdct8x8_aan(&pattern));
            let want = qt.quantize(&reference::fdct_from_u8(&pattern));
            for i in 0..64 {
                assert!((q[i] - want[i]).abs() <= 1, "coef {i}: {} vs {}", q[i], want[i]);
            }
            let mut ws = deq.dequantize_scaled(&q);
            let rec = idct8x8_aan(&mut ws);
            let ref_rec = reference::idct_to_u8(&qt.dequantize(&q));
            for i in 0..64 {
                assert!(
                    (i32::from(rec[i]) - i32::from(ref_rec[i])).abs() <= 1,
                    "pixel {i}: {} vs {}",
                    rec[i],
                    ref_rec[i]
                );
            }
        }
    }
}

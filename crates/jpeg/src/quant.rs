//! Quantization tables.
//!
//! Quantization is the only lossy stage of the JPEG pipeline and the stage
//! immediately *before* the P3 split: the split operates on the quantized
//! integers this module produces. Tables are stored in natural order and
//! serialized in zig-zag order (as DQT segments require).
//!
//! The [`AanQuantizer`] / [`AanDequantizer`] pair folds the AAN DCT's
//! row/column scale factors (see [`crate::dct`]) into the step sizes, so
//! the hot encode/decode loops quantize with one multiply per
//! coefficient and the butterfly transforms never see a scale factor.

use crate::dct::aan_scales_2d;
use crate::zigzag::ZIGZAG;

/// Annex K Table K.1 — reference luminance quantization table (natural order).
const ANNEX_K_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Annex K Table K.2 — reference chrominance quantization table.
const ANNEX_K_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// An 8×8 quantization table in natural order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantTable {
    /// Step sizes, natural order, each in `1..=255` (8-bit precision) or
    /// `1..=65535` (16-bit precision tables are accepted on decode).
    pub table: [u16; 64],
}

impl QuantTable {
    /// Build a table from natural-order step sizes.
    pub fn new(table: [u16; 64]) -> Self {
        Self { table }
    }

    /// The IJG quality scaling: `quality` in `1..=100`, where 50 yields the
    /// Annex-K table, higher is finer quantization.
    ///
    /// The paper notes "images shared through PSPs tend to be uploaded with
    /// high quality settings"; the evaluation encodes at quality 85–95.
    fn from_quality(base: &[u16; 64], quality: u8) -> Self {
        let q = quality.clamp(1, 100) as i32;
        let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
        let mut t = [0u16; 64];
        for (o, &b) in t.iter_mut().zip(base.iter()) {
            let v = (i32::from(b) * scale + 50) / 100;
            *o = v.clamp(1, 255) as u16;
        }
        Self { table: t }
    }

    /// Standard luminance table at the given quality.
    pub fn luma(quality: u8) -> Self {
        Self::from_quality(&ANNEX_K_LUMA, quality)
    }

    /// Standard chrominance table at the given quality.
    pub fn chroma(quality: u8) -> Self {
        Self::from_quality(&ANNEX_K_CHROMA, quality)
    }

    /// Quantize a block of DCT coefficients (round half away from zero).
    pub fn quantize(&self, coeffs: &[f32; 64]) -> [i32; 64] {
        let mut out = [0i32; 64];
        for i in 0..64 {
            let q = f32::from(self.table[i]);
            out[i] = (coeffs[i] / q).round() as i32;
        }
        out
    }

    /// Dequantize back to (integer-valued) DCT coefficients.
    pub fn dequantize(&self, quantized: &[i32; 64]) -> [f32; 64] {
        let mut out = [0f32; 64];
        for i in 0..64 {
            out[i] = quantized[i] as f32 * f32::from(self.table[i]);
        }
        out
    }

    /// Serialize in zig-zag order (as stored in a DQT segment, 8-bit form).
    pub fn to_zigzag_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (z, &n) in ZIGZAG.iter().enumerate() {
            out[z] = self.table[n].min(255) as u8;
        }
        out
    }

    /// Parse from zig-zag-ordered 8-bit values.
    pub fn from_zigzag_bytes(zz: &[u8; 64]) -> Self {
        let mut t = [0u16; 64];
        for (z, &n) in ZIGZAG.iter().enumerate() {
            t[n] = u16::from(zz[z]);
        }
        Self { table: t }
    }

    /// Parse from zig-zag-ordered 16-bit values (`Pq = 1` DQT segments).
    pub fn from_zigzag_words(zz: &[u16; 64]) -> Self {
        let mut t = [0u16; 64];
        for (z, &n) in ZIGZAG.iter().enumerate() {
            t[n] = zz[z];
        }
        Self { table: t }
    }

    /// A flat table with every step equal to `step` (useful in tests and for
    /// near-lossless paths).
    pub fn flat(step: u16) -> Self {
        Self { table: [step.max(1); 64] }
    }
}

/// Quantizer for the scaled integer forward DCT: divides out both the
/// quantization step and the `8·s[u]·s[v]` AAN output scale with a single
/// reciprocal multiply per coefficient.
///
/// Built once per component (the table is fixed for a whole image), used
/// once per block — the construction cost amortizes to nothing.
#[derive(Debug, Clone)]
pub struct AanQuantizer {
    /// `1 / (8 · 2^OUT_GUARD_BITS · s2d[i] · q[i])` in natural order.
    recip: [f32; 64],
}

impl AanQuantizer {
    /// Fold the AAN scale factors into `qt`'s step sizes.
    pub fn new(qt: &QuantTable) -> Self {
        let scales = aan_scales_2d();
        let guard = f64::from(1u32 << crate::dct::OUT_GUARD_BITS);
        let mut recip = [0f32; 64];
        for i in 0..64 {
            recip[i] = (1.0 / (8.0 * guard * scales[i] * f64::from(qt.table[i]))) as f32;
        }
        Self { recip }
    }

    /// The folded reciprocal table (SIMD kernels consume it directly).
    #[inline]
    pub(crate) fn recip(&self) -> &[f32; 64] {
        &self.recip
    }

    /// Quantize a block of [`crate::dct::fdct8x8_aan`] outputs (round half
    /// away from zero, matching [`QuantTable::quantize`]).
    #[inline]
    pub fn quantize(&self, scaled: &[i32; 64]) -> [i32; 64] {
        let mut out = [0i32; 64];
        for i in 0..64 {
            let v = scaled[i] as f32 * self.recip[i];
            // Round half away from zero via truncation: `f32::round` can
            // lower to a libm call on baseline x86-64, and this loop runs
            // per coefficient.
            out[i] = (v + f32::copysign(0.5, v)) as i32;
        }
        out
    }
}

/// Dequantizer for the scaled integer inverse DCT: multiplies quantized
/// coefficients by `q[i] · s2d[i] · 2^13 / 8`, producing the fixed-point
/// workspace [`crate::dct::idct8x8_aan`] consumes.
#[derive(Debug, Clone)]
pub struct AanDequantizer {
    /// `q[i] · s2d[i] · 2^13 / 8` in natural order.
    mult: [f32; 64],
}

/// Workspace clamp: valid streams stay far below this (≈2²⁰), while
/// hostile coefficient/table combinations (16-bit quant tables × garbage
/// coefficients) are bounded so the IDCT butterfly adds cannot overflow
/// `i32` (the same bound is re-applied between the two 1-D passes — see
/// `dct::WS_LIMIT`).
const WS_LIMIT: f32 = crate::dct::WS_LIMIT as f32;

impl AanDequantizer {
    /// Fold the AAN scale factors and fixed-point scale into `qt`.
    pub fn new(qt: &QuantTable) -> Self {
        let scales = aan_scales_2d();
        let fixed = f64::from(1u32 << crate::dct::SCALE_BITS) / 8.0;
        let mut mult = [0f32; 64];
        for i in 0..64 {
            mult[i] = (f64::from(qt.table[i]) * scales[i] * fixed) as f32;
        }
        Self { mult }
    }

    /// The folded multiplier table (SIMD kernels consume it directly).
    #[inline]
    pub(crate) fn mult(&self) -> &[f32; 64] {
        &self.mult
    }

    /// Dequantize into the scale-2^13 IDCT workspace.
    #[inline]
    pub fn dequantize_scaled(&self, quantized: &[i32; 64]) -> [i32; 64] {
        let mut out = [0i32; 64];
        for i in 0..64 {
            out[i] = (quantized[i] as f32 * self.mult[i]).clamp(-WS_LIMIT, WS_LIMIT) as i32;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_50_is_annex_k() {
        assert_eq!(QuantTable::luma(50).table, ANNEX_K_LUMA);
        assert_eq!(QuantTable::chroma(50).table, ANNEX_K_CHROMA);
    }

    #[test]
    fn quality_100_is_all_ones() {
        assert!(QuantTable::luma(100).table.iter().all(|&v| v == 1));
    }

    #[test]
    fn higher_quality_never_coarsens() {
        let q60 = QuantTable::luma(60);
        let q90 = QuantTable::luma(90);
        for i in 0..64 {
            assert!(q90.table[i] <= q60.table[i], "index {i}");
        }
    }

    #[test]
    fn quality_clamps() {
        // quality 0 behaves like 1; quality 255 like 100
        assert_eq!(QuantTable::luma(0).table, QuantTable::luma(1).table);
        assert_eq!(QuantTable::luma(255).table, QuantTable::luma(100).table);
    }

    #[test]
    fn quantize_rounds_half_away_from_zero() {
        let t = QuantTable::flat(10);
        let mut c = [0f32; 64];
        c[0] = 15.0; // 1.5 -> 2
        c[1] = -15.0; // -1.5 -> -2
        c[2] = 14.9; // 1.49 -> 1
        let q = t.quantize(&c);
        assert_eq!(q[0], 2);
        assert_eq!(q[1], -2);
        assert_eq!(q[2], 1);
    }

    #[test]
    fn zigzag_bytes_roundtrip() {
        let t = QuantTable::luma(75);
        let zz = t.to_zigzag_bytes();
        assert_eq!(QuantTable::from_zigzag_bytes(&zz), t);
    }

    #[test]
    fn dequantize_is_exact_inverse_on_grid() {
        let t = QuantTable::luma(80);
        let mut q = [0i32; 64];
        for (i, v) in q.iter_mut().enumerate() {
            *v = (i as i32 % 7) - 3;
        }
        let deq = t.dequantize(&q);
        let requant = t.quantize(&deq);
        assert_eq!(requant, q);
    }

    #[test]
    fn aan_quantizer_matches_plain_quantize_on_scaled_input() {
        // Feeding the AAN quantizer a coefficient pre-multiplied by the
        // scale it expects must reproduce QuantTable::quantize.
        let qt = QuantTable::luma(85);
        let quant = AanQuantizer::new(&qt);
        let scales = crate::dct::aan_scales_2d();
        let guard = f64::from(1u32 << crate::dct::OUT_GUARD_BITS);
        let mut plain = [0f32; 64];
        let mut scaled = [0i32; 64];
        for i in 0..64 {
            let coeff = (i as f64 * 13.7) - 400.0;
            plain[i] = coeff as f32;
            scaled[i] = (coeff * 8.0 * guard * scales[i]).round() as i32;
        }
        let want = qt.quantize(&plain);
        let got = quant.quantize(&scaled);
        for i in 0..64 {
            assert!((want[i] - got[i]).abs() <= 1, "coef {i}: {} vs {}", want[i], got[i]);
        }
    }

    #[test]
    fn aan_dequantizer_clamps_hostile_magnitudes() {
        // 16-bit tables × huge quantized values must not overflow the
        // workspace (debug builds would panic on i32 overflow otherwise).
        let qt = QuantTable::from_zigzag_words(&[u16::MAX; 64]);
        let deq = AanDequantizer::new(&qt);
        let ws = deq.dequantize_scaled(&[i32::MAX; 64]);
        for (i, &w) in ws.iter().enumerate() {
            assert!(w.abs() <= 1 << 25, "ws[{i}] = {w}");
        }
    }
}

//! JPEG encoding: pixels → coefficients → bitstream.
//!
//! Both sequential baseline (SOF0) and progressive (SOF2) modes are
//! implemented, with either the Annex-K default Huffman tables or
//! per-image optimized tables. The P3 split operates between the two
//! halves of this module: [`pixels_to_coeffs`] produces the quantized
//! coefficients, the split rewrites them, and [`encode_coeffs`] emits
//! standards-compliant bitstreams for each part. Optimized tables matter
//! for P3: thresholding lowers the entropy of both parts, and per-image
//! tables are what keep the combined storage overhead in the paper's
//! reported 5–10 % range.

use crate::bitio::{encode_magnitude, BitWriter};
use crate::block::{Block, CoeffImage, ComponentCoeffs};
use crate::color::{downsample, rgb_to_planes, Plane};
use crate::huffman::{
    default_ac_chroma, default_ac_luma, default_dc_chroma, default_dc_luma, FreqCounter,
    HuffEncoder, HuffSpec,
};
use crate::image::{GrayImage, RgbImage};
use crate::marker::{self, write_jfif_app0, write_segment};
use crate::quant::AanQuantizer;
use crate::quant::QuantTable;

use crate::{JpegError, Result};

/// Chroma subsampling layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsampling {
    /// No chroma subsampling (4:4:4).
    S444,
    /// Horizontal-only chroma subsampling (4:2:2).
    S422,
    /// 2×2 chroma subsampling (4:2:0) — the layout Facebook serves.
    S420,
}

/// Entropy-coding mode of the output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sequential DCT with Annex-K Huffman tables.
    Baseline,
    /// Sequential DCT with per-image optimized Huffman tables.
    BaselineOptimized,
    /// Progressive DCT (spectral selection + successive approximation)
    /// with per-scan optimized tables — the format Facebook transcodes
    /// uploads into.
    Progressive,
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeConfig {
    /// IJG-style quality, 1..=100.
    pub quality: u8,
    /// Chroma layout for color input.
    pub subsampling: Subsampling,
    /// Bitstream mode.
    pub mode: Mode,
    /// Restart interval in MCUs (0 disables; baseline only).
    pub restart_interval: u16,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        Self {
            quality: 90,
            subsampling: Subsampling::S420,
            mode: Mode::BaselineOptimized,
            restart_interval: 0,
        }
    }
}

/// Convenience front-end combining [`pixels_to_coeffs`] and
/// [`encode_coeffs`].
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    cfg: EncodeConfig,
}

impl Encoder {
    /// Encoder with default configuration (quality 90, 4:2:0, optimized
    /// baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder with explicit configuration.
    pub fn with_config(cfg: EncodeConfig) -> Self {
        Self { cfg }
    }

    /// Set the quality factor.
    pub fn quality(mut self, q: u8) -> Self {
        self.cfg.quality = q;
        self
    }

    /// Set the chroma subsampling.
    pub fn subsampling(mut self, s: Subsampling) -> Self {
        self.cfg.subsampling = s;
        self
    }

    /// Set the bitstream mode.
    pub fn mode(mut self, m: Mode) -> Self {
        self.cfg.mode = m;
        self
    }

    /// Set the restart interval (baseline modes only).
    pub fn restart_interval(mut self, ri: u16) -> Self {
        self.cfg.restart_interval = ri;
        self
    }

    /// Encode an RGB image.
    pub fn encode_rgb(&self, img: &RgbImage) -> Result<Vec<u8>> {
        let ci = pixels_to_coeffs(img, self.cfg.quality, self.cfg.subsampling)?;
        encode_coeffs(&ci, self.cfg.mode, self.cfg.restart_interval)
    }

    /// Encode a grayscale image.
    pub fn encode_gray(&self, img: &GrayImage) -> Result<Vec<u8>> {
        let ci = gray_to_coeffs(img, self.cfg.quality)?;
        encode_coeffs(&ci, self.cfg.mode, self.cfg.restart_interval)
    }
}

/// Forward-transform an RGB image into quantized coefficients.
pub fn pixels_to_coeffs(
    img: &RgbImage,
    quality: u8,
    subsampling: Subsampling,
) -> Result<CoeffImage> {
    let mut ci = CoeffImage::default();
    pixels_to_coeffs_into(img, quality, subsampling, &mut Vec::new(), &mut ci)?;
    Ok(ci)
}

/// [`pixels_to_coeffs`] into a caller's coefficient image through a
/// caller's sample planes, both overwritten whatever they held: a caller
/// that encodes image after image allocates for none of them.
pub fn pixels_to_coeffs_into(
    img: &RgbImage,
    quality: u8,
    subsampling: Subsampling,
    planes: &mut Vec<Plane>,
    ci: &mut CoeffImage,
) -> Result<()> {
    if img.width == 0 || img.height == 0 {
        return Err(JpegError::Invalid("empty image".into()));
    }
    let staged =
        |[y, cb, cr]: [Plane; 3], fx, fy| vec![y, downsample(&cb, fx, fy), downsample(&cr, fx, fy)];
    let sampling = match subsampling {
        Subsampling::S444 => {
            *planes = rgb_to_planes(img).into();
            [(1, 1), (1, 1), (1, 1)]
        }
        Subsampling::S422 => {
            *planes = staged(rgb_to_planes(img), 2, 1);
            [(2, 1), (1, 1), (1, 1)]
        }
        // 4:2:0 prefers the fused convert+downsample pass (bit-exact with
        // the stage-by-stage fallback, which scalar mode always takes).
        Subsampling::S420 => {
            if !crate::color::rgb_to_planes_420(img, planes) {
                *planes = staged(rgb_to_planes(img), 2, 2);
            }
            [(2, 2), (1, 1), (1, 1)]
        }
    };
    let qtables = vec![QuantTable::luma(quality), QuantTable::chroma(quality)];
    ci.reset(img.width, img.height, qtables, &sampling, &[0, 1, 1])?;
    for (comp, plane) in ci.components.iter_mut().zip(planes.iter()) {
        plane_into_blocks(
            plane,
            comp,
            &[QuantTable::luma(quality), QuantTable::chroma(quality)][comp.quant_idx.min(1)],
        );
    }
    Ok(())
}

/// Forward-transform a grayscale image into quantized coefficients.
pub fn gray_to_coeffs(img: &GrayImage, quality: u8) -> Result<CoeffImage> {
    if img.width == 0 || img.height == 0 {
        return Err(JpegError::Invalid("empty image".into()));
    }
    let plane = Plane { width: img.width, height: img.height, data: img.data.clone() };
    let qt = QuantTable::luma(quality);
    let mut ci = CoeffImage::zeroed(img.width, img.height, vec![qt.clone()], &[(1, 1)], &[0])?;
    plane_into_blocks(&plane, &mut ci.components[0], &qt);
    Ok(ci)
}

/// DCT + quantize a sample plane into a component's block grid, replicating
/// edge samples into padding.
///
/// Hot path: the scaled integer AAN forward DCT plus an [`AanQuantizer`]
/// built once per plane, so each coefficient costs one reciprocal
/// multiply instead of a float divide against an unscaled table. The
/// DCT+quant kernel is SIMD-dispatched per [`crate::simd`], and block
/// rows fan out across the process-wide [`p3_par`] pool (block rows are
/// contiguous in [`ComponentCoeffs::blocks`], so each task owns a
/// disjoint `&mut [Block]`).
///
/// MCU padding blocks (`bx ≥ blocks_w` or `by ≥ blocks_h`) keep only
/// their DC term. Progressive AC scans are non-interleaved and per
/// T.81 cover exactly the real block grid, so AC coefficients placed in
/// padding blocks are unrepresentable there — a baseline stream would
/// carry them but a progressive one silently drops them, breaking the
/// bit-exact coefficient roundtrip P3's split depends on. Zeroing them
/// at the source makes both modes carry identical information (the
/// padding region is cropped away on decode regardless).
fn plane_into_blocks(plane: &Plane, comp: &mut ComponentCoeffs, qt: &QuantTable) {
    let quantizer = AanQuantizer::new(qt);
    let level = crate::simd::simd_level();
    let interior_w = plane.width / 8; // blocks fully inside the plane
    let interior_h = plane.height / 8;
    let (blocks_w, blocks_h) = (comp.blocks_w, comp.blocks_h);
    let rows: Vec<(usize, &mut [Block])> =
        comp.blocks.chunks_mut(comp.padded_w).enumerate().collect();
    p3_par::global().run_parts(rows, |_, (by, row)| {
        for (bx, out) in row.iter_mut().enumerate() {
            if bx < interior_w && by < interior_h {
                // Interior block: read the rows straight from the plane,
                // no gather copy and no per-sample clamping needed.
                let start = by * 8 * plane.width + bx * 8;
                crate::simd::fdct_quant_strided(
                    level,
                    &plane.data[start..],
                    plane.width,
                    &quantizer,
                    out,
                );
            } else {
                let mut samples = [0u8; 64];
                for sy in 0..8 {
                    for sx in 0..8 {
                        samples[sy * 8 + sx] =
                            plane.get_clamped((bx * 8 + sx) as isize, (by * 8 + sy) as isize);
                    }
                }
                crate::simd::fdct_quant(level, &samples, &quantizer, out);
            }
            if bx >= blocks_w || by >= blocks_h {
                out[1..].fill(0);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Entropy-coding sinks: the same scan walkers run in "gather" mode (counting
// Huffman symbols to build optimized tables) and "emit" mode.
// ---------------------------------------------------------------------------

/// Symbol class for table selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Dc,
    Ac,
}

trait SymbolSink {
    fn symbol(&mut self, class: Class, tbl: usize, sym: u8);
    fn bits(&mut self, value: u32, count: u32);
    /// Huffman symbol immediately followed by its magnitude bits — the
    /// dominant emission pattern (every nonzero coefficient). Sinks
    /// override this to fuse the two into a single operation.
    fn symbol_bits(&mut self, class: Class, tbl: usize, sym: u8, value: u32, count: u32) {
        self.symbol(class, tbl, sym);
        if count > 0 {
            self.bits(value, count);
        }
    }
    /// Emit a restart marker (baseline emit mode only).
    fn restart(&mut self, idx: u8);
}

/// Counts symbol frequencies *and* records the op stream, so optimized
/// encodes walk the coefficient blocks exactly once: the recorded ops are
/// replayed into the bit writer after the tables are built, instead of
/// re-running the whole scan.
///
/// Ops pack into a `u64` each, tag in the top two bits. A Huffman symbol
/// immediately followed by its magnitude bits (the dominant pattern —
/// every nonzero coefficient) fuses into one `Symbol` op carrying the
/// raw bits, which replays as a single multi-bit write.
///
/// ```text
/// Symbol:  [tag=0 | class:1 @47 | tbl:1 @46 | sym:8 @38 | count:6 @32 | bits:32]
/// Bits:    [tag=1 | count:6 @32 | bits:32]
/// Restart: [tag=2 | idx:8]
/// ```
struct GatherSink {
    dc: [FreqCounter; 2],
    ac: [FreqCounter; 2],
    ops: Vec<u64>,
}

const OP_SHIFT: u32 = 62;
const OP_SYMBOL: u64 = 0;
const OP_BITS: u64 = 1;
const OP_RESTART: u64 = 2;

impl GatherSink {
    fn new() -> Self {
        Self::with_op_capacity(0)
    }

    /// Pre-size the op stream (ops ≈ nonzero coefficients, so callers pass
    /// a per-block estimate) — repeated doubling on a multi-hundred-KiB
    /// `Vec` otherwise re-copies the whole stream several times.
    fn with_op_capacity(cap: usize) -> Self {
        Self {
            dc: [FreqCounter::new(), FreqCounter::new()],
            ac: [FreqCounter::new(), FreqCounter::new()],
            ops: Vec::with_capacity(cap),
        }
    }

    /// Replay the recorded op stream into an emit sink.
    fn replay(&self, sink: &mut EmitSink) {
        // Class bit (47) and table bit (46) together index the flat
        // table array, resolved once outside the hot loop. Entries stay
        // `Option` because grayscale scans leave table 1 unbuilt.
        let tables: [Option<&HuffEncoder>; 4] = [
            sink.dc.first().and_then(Option::as_ref),
            sink.dc.get(1).and_then(Option::as_ref),
            sink.ac.first().and_then(Option::as_ref),
            sink.ac.get(1).and_then(Option::as_ref),
        ];
        let w = &mut sink.w;
        for &op in &self.ops {
            match op >> OP_SHIFT {
                OP_SYMBOL => {
                    let enc = tables[((op >> 46) & 3) as usize].expect("encoder table missing");
                    let e = enc.entry_of(((op >> 38) & 0xFF) as u8);
                    let (code, len) = (e >> 8, e & 0xFF);
                    let count = ((op >> 32) & 0x3F) as u32;
                    // One fused write: code then magnitude bits (≤ 32 total).
                    w.put_bits((code << count) | (op as u32 & ((1u32 << count) - 1)), len + count);
                }
                OP_BITS => w.put_bits(op as u32, ((op >> 32) & 0x3F) as u32),
                _ => {
                    w.align();
                    w.put_marker_byte(0xFF);
                    w.put_marker_byte(0xD0 + ((op & 7) as u8));
                }
            }
        }
    }
}

impl SymbolSink for GatherSink {
    fn symbol(&mut self, class: Class, tbl: usize, sym: u8) {
        let class_bit = match class {
            Class::Dc => {
                self.dc[tbl].count(sym);
                0u64
            }
            Class::Ac => {
                self.ac[tbl].count(sym);
                1u64
            }
        };
        self.ops.push(
            (OP_SYMBOL << OP_SHIFT)
                | (class_bit << 47)
                | ((tbl as u64) << 46)
                | (u64::from(sym) << 38),
        );
    }
    fn bits(&mut self, value: u32, count: u32) {
        debug_assert!(count <= 16 && count > 0);
        // Fuse into the preceding symbol op when there is one and it has
        // no bits attached yet (count field still zero).
        if let Some(last) = self.ops.last_mut() {
            if *last >> OP_SHIFT == OP_SYMBOL && (*last >> 32) & 0x3F == 0 {
                *last |= (u64::from(count) << 32) | u64::from(value);
                return;
            }
        }
        self.ops.push((OP_BITS << OP_SHIFT) | (u64::from(count) << 32) | u64::from(value));
    }
    fn symbol_bits(&mut self, class: Class, tbl: usize, sym: u8, value: u32, count: u32) {
        debug_assert!(count <= 16);
        let class_bit = match class {
            Class::Dc => {
                self.dc[tbl].count(sym);
                0u64
            }
            Class::Ac => {
                self.ac[tbl].count(sym);
                1u64
            }
        };
        // Push the fully-formed fused op directly — no last_mut fixup.
        self.ops.push(
            (OP_SYMBOL << OP_SHIFT)
                | (class_bit << 47)
                | ((tbl as u64) << 46)
                | (u64::from(sym) << 38)
                | (u64::from(count) << 32)
                | u64::from(value),
        );
    }
    fn restart(&mut self, idx: u8) {
        self.ops.push((OP_RESTART << OP_SHIFT) | u64::from(idx));
    }
}

/// Writes the bitstream.
struct EmitSink {
    w: BitWriter,
    dc: Vec<Option<HuffEncoder>>,
    ac: Vec<Option<HuffEncoder>>,
}

impl EmitSink {
    fn new(dc: Vec<Option<HuffEncoder>>, ac: Vec<Option<HuffEncoder>>) -> Self {
        Self { w: BitWriter::new(), dc, ac }
    }
}

impl SymbolSink for EmitSink {
    fn symbol(&mut self, class: Class, tbl: usize, sym: u8) {
        let enc = match class {
            Class::Dc => self.dc[tbl].as_ref(),
            Class::Ac => self.ac[tbl].as_ref(),
        };
        enc.expect("encoder table missing").put(&mut self.w, sym);
    }
    fn bits(&mut self, value: u32, count: u32) {
        self.w.put_bits(value, count);
    }
    fn symbol_bits(&mut self, class: Class, tbl: usize, sym: u8, value: u32, count: u32) {
        let enc = match class {
            Class::Dc => self.dc[tbl].as_ref(),
            Class::Ac => self.ac[tbl].as_ref(),
        };
        let e = enc.expect("encoder table missing").entry_of(sym);
        let (code, len) = (e >> 8, e & 0xFF);
        // One fused write: code then magnitude bits (≤ 32 total).
        self.w.put_bits((code << count) | value, len + count);
    }
    fn restart(&mut self, idx: u8) {
        self.w.align();
        self.w.put_marker_byte(0xFF);
        self.w.put_marker_byte(0xD0 + (idx & 7));
    }
}

// ---------------------------------------------------------------------------
// Shared coefficient-level emitters
// ---------------------------------------------------------------------------

fn emit_dc<S: SymbolSink>(sink: &mut S, tbl: usize, diff: i32) {
    let (size, bits) = encode_magnitude(diff);
    sink.symbol_bits(Class::Dc, tbl, size as u8, bits, size);
}

fn emit_block_ac_baseline<S: SymbolSink>(
    sink: &mut S,
    tbl: usize,
    block: &Block,
    level: crate::simd::SimdLevel,
) {
    // With vector support, jump straight from nonzero to nonzero via a
    // precomputed bitmask instead of load-and-testing all 63 AC slots —
    // most are zero after quantization, so this walks ~2·nnz bits.
    if let Some(mask) = crate::simd::nonzero_mask(level, block) {
        let m = mask & !1; // AC coefficients only
        let lut = &crate::zigzag::MASK_TO_ZIGZAG;
        let mut zz = 0u64;
        for (k, t) in lut.iter().enumerate() {
            zz |= t[(m >> (8 * k)) as u8 as usize];
        }
        let mut prev = 0u32;
        while zz != 0 {
            let z = zz.trailing_zeros();
            zz &= zz - 1;
            let mut run = z - prev - 1;
            let v = block[usize::from(crate::zigzag::UNZIGZAG[z as usize])];
            while run > 15 {
                sink.symbol(Class::Ac, tbl, 0xF0);
                run -= 16;
            }
            let (size, bits) = encode_magnitude(v);
            debug_assert!(size <= 10 || v.unsigned_abs() <= 32767, "coefficient too large");
            sink.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | size as u8, bits, size);
            prev = z;
        }
        if prev != 63 {
            sink.symbol(Class::Ac, tbl, 0x00); // EOB
        }
        return;
    }
    let mut run = 0u32;
    for z in 1..64 {
        let v = block[usize::from(crate::zigzag::UNZIGZAG[z])];
        if v == 0 {
            run += 1;
            continue;
        }
        while run > 15 {
            sink.symbol(Class::Ac, tbl, 0xF0);
            run -= 16;
        }
        let (size, bits) = encode_magnitude(v);
        debug_assert!(size <= 10 || v.unsigned_abs() <= 32767, "coefficient too large");
        sink.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | size as u8, bits, size);
        run = 0;
    }
    if run > 0 {
        sink.symbol(Class::Ac, tbl, 0x00); // EOB
    }
}

/// Point transform for AC coefficients in progressive scans:
/// sign-preserving magnitude shift.
#[inline]
fn pt_shift(v: i32, al: u8) -> i32 {
    if v >= 0 {
        v >> al
    } else {
        -((-v) >> al)
    }
}

// ---------------------------------------------------------------------------
// Scan walkers
// ---------------------------------------------------------------------------

/// Walk the interleaved MCU structure, invoking `f(comp_idx, bx, by)` for
/// each data unit in scan order.
fn walk_mcus<F: FnMut(usize, usize, usize)>(ci: &CoeffImage, mut f: F) {
    let mcus_x = ci.mcus_x();
    let mcus_y = ci.mcus_y();
    for my in 0..mcus_y {
        for mx in 0..mcus_x {
            for (cidx, comp) in ci.components.iter().enumerate() {
                for v in 0..comp.v_samp as usize {
                    for h in 0..comp.h_samp as usize {
                        f(cidx, mx * comp.h_samp as usize + h, my * comp.v_samp as usize + v);
                    }
                }
            }
        }
    }
}

/// Baseline scan: interleaved if multi-component.
fn scan_baseline<S: SymbolSink>(
    ci: &CoeffImage,
    tbl_of: &[(usize, usize)], // (dc_tbl, ac_tbl) per component
    restart_interval: u16,
    sink: &mut S,
) {
    let level = crate::simd::simd_level();
    let mut last_dc = vec![0i32; ci.components.len()];
    if ci.components.len() == 1 {
        let comp = &ci.components[0];
        let (dct, act) = tbl_of[0];
        let mut mcu_count = 0u32;
        let mut rst = 0u8;
        for by in 0..comp.blocks_h {
            for bx in 0..comp.blocks_w {
                if restart_interval > 0 && mcu_count == u32::from(restart_interval) {
                    sink.restart(rst);
                    rst = (rst + 1) & 7;
                    mcu_count = 0;
                    last_dc[0] = 0;
                }
                let b = comp.block(bx, by);
                emit_dc(sink, dct, b[0] - last_dc[0]);
                last_dc[0] = b[0];
                emit_block_ac_baseline(sink, act, b, level);
                mcu_count += 1;
            }
        }
        return;
    }
    // Interleaved path: restart logic needs MCU boundaries, so walk manually.
    let mcus_x = ci.mcus_x();
    let mcus_y = ci.mcus_y();
    let mut mcu_count = 0u32;
    let mut rst = 0u8;
    for my in 0..mcus_y {
        for mx in 0..mcus_x {
            if restart_interval > 0 && mcu_count == u32::from(restart_interval) {
                sink.restart(rst);
                rst = (rst + 1) & 7;
                mcu_count = 0;
                last_dc.iter_mut().for_each(|d| *d = 0);
            }
            for (cidx, comp) in ci.components.iter().enumerate() {
                let (dct, act) = tbl_of[cidx];
                for v in 0..comp.v_samp as usize {
                    for h in 0..comp.h_samp as usize {
                        let b = comp
                            .block(mx * comp.h_samp as usize + h, my * comp.v_samp as usize + v);
                        emit_dc(sink, dct, b[0] - last_dc[cidx]);
                        last_dc[cidx] = b[0];
                        emit_block_ac_baseline(sink, act, b, level);
                    }
                }
            }
            mcu_count += 1;
        }
    }
}

/// Progressive DC first scan (Ah = 0): interleaved across all components.
fn scan_dc_first<S: SymbolSink>(ci: &CoeffImage, al: u8, tbl_of: &[usize], sink: &mut S) {
    let mut last_dc = vec![0i32; ci.components.len()];
    walk_mcus(ci, |cidx, bx, by| {
        let b = ci.components[cidx].block(bx, by);
        let v = b[0] >> al; // DC uses arithmetic shift per spec
        emit_dc(sink, tbl_of[cidx], v - last_dc[cidx]);
        last_dc[cidx] = v;
    });
}

/// Progressive DC refinement scan (Ah = Al + 1): one raw bit per block.
fn scan_dc_refine<S: SymbolSink>(ci: &CoeffImage, al: u8, sink: &mut S) {
    walk_mcus(ci, |cidx, bx, by| {
        let b = ci.components[cidx].block(bx, by);
        sink.bits(((b[0] >> al) & 1) as u32, 1);
    });
}

/// Progressive AC first scan over one component (non-interleaved).
fn scan_ac_first<S: SymbolSink>(
    comp: &ComponentCoeffs,
    ss: usize,
    se: usize,
    al: u8,
    tbl: usize,
    sink: &mut S,
) {
    let mut eobrun: u32 = 0;
    let flush_eob = |eobrun: &mut u32, sink: &mut S| {
        if *eobrun > 0 {
            let nbits = 31 - eobrun.leading_zeros();
            sink.symbol(Class::Ac, tbl, (nbits as u8) << 4);
            if nbits > 0 {
                sink.bits(*eobrun - (1 << nbits), nbits);
            }
            *eobrun = 0;
        }
    };
    for by in 0..comp.blocks_h {
        for bx in 0..comp.blocks_w {
            let block = comp.block(bx, by);
            let mut run = 0u32;
            let mut wrote_any = false;
            for z in ss..=se {
                let v = pt_shift(block[usize::from(crate::zigzag::UNZIGZAG[z])], al);
                if v == 0 {
                    run += 1;
                    continue;
                }
                flush_eob(&mut eobrun, sink);
                while run > 15 {
                    sink.symbol(Class::Ac, tbl, 0xF0);
                    run -= 16;
                }
                let (size, bits) = encode_magnitude(v);
                sink.symbol(Class::Ac, tbl, ((run as u8) << 4) | size as u8);
                sink.bits(bits, size);
                run = 0;
                wrote_any = true;
            }
            let _ = wrote_any;
            if run > 0 {
                eobrun += 1;
                if eobrun == 0x7FFF {
                    flush_eob(&mut eobrun, sink);
                }
            }
        }
    }
    flush_eob(&mut eobrun, sink);
}

/// Progressive AC refinement scan (Ah = Al + 1) over one component —
/// the correction-bit algorithm of ITU T.81 §G.1.2.3 / figure G.7.
fn scan_ac_refine<S: SymbolSink>(
    comp: &ComponentCoeffs,
    ss: usize,
    se: usize,
    al: u8,
    tbl: usize,
    sink: &mut S,
) {
    let mut eobrun: u32 = 0;
    // Correction bits deferred until the EOB run they belong to is flushed.
    let mut pending: Vec<u8> = Vec::new();

    fn flush_eob<S: SymbolSink>(eobrun: &mut u32, pending: &mut Vec<u8>, tbl: usize, sink: &mut S) {
        if *eobrun > 0 {
            let nbits = 31 - eobrun.leading_zeros();
            sink.symbol(Class::Ac, tbl, (nbits as u8) << 4);
            if nbits > 0 {
                sink.bits(*eobrun - (1 << nbits), nbits);
            }
            *eobrun = 0;
        }
        for &b in pending.iter() {
            sink.bits(u32::from(b), 1);
        }
        pending.clear();
    }

    for by in 0..comp.blocks_h {
        for bx in 0..comp.blocks_w {
            let block = comp.block(bx, by);
            // Precompute shifted magnitudes and the last newly-significant
            // position (EOB for this pass).
            let mut absval = [0i32; 64];
            let mut eob_pos = 0usize; // 0 ⇒ none (band starts at ss ≥ 1)
            for z in ss..=se {
                let t = block[usize::from(crate::zigzag::UNZIGZAG[z])].unsigned_abs() as i32 >> al;
                absval[z] = t;
                if t == 1 {
                    eob_pos = z;
                }
            }
            let mut run = 0u32;
            let mut local: Vec<u8> = Vec::new(); // BR bits of this block
            for z in ss..=se {
                let t = absval[z];
                if t == 0 {
                    run += 1;
                    continue;
                }
                // ZRLs are only needed when a newly-significant coefficient
                // lies ahead; otherwise the zeros fold into the next EOB.
                while run > 15 && z <= eob_pos {
                    flush_eob(&mut eobrun, &mut pending, tbl, sink);
                    sink.symbol(Class::Ac, tbl, 0xF0);
                    run -= 16;
                    for &b in local.iter() {
                        sink.bits(u32::from(b), 1);
                    }
                    local.clear();
                }
                if t > 1 {
                    // Already significant: just a correction bit.
                    local.push((t & 1) as u8);
                    continue;
                }
                // Newly significant (magnitude exactly 1 at this precision).
                flush_eob(&mut eobrun, &mut pending, tbl, sink);
                sink.symbol(Class::Ac, tbl, ((run as u8) << 4) | 1);
                let sign_bit =
                    if block[usize::from(crate::zigzag::UNZIGZAG[z])] < 0 { 0 } else { 1 };
                sink.bits(sign_bit, 1);
                for &b in local.iter() {
                    sink.bits(u32::from(b), 1);
                }
                local.clear();
                run = 0;
            }
            if run > 0 || !local.is_empty() {
                eobrun += 1;
                pending.append(&mut local);
                // Guard the counters like IJG does.
                if eobrun == 0x7FFF || pending.len() > 937 {
                    flush_eob(&mut eobrun, &mut pending, tbl, sink);
                }
            }
        }
    }
    flush_eob(&mut eobrun, &mut pending, tbl, sink);
}

// ---------------------------------------------------------------------------
// Header serialization
// ---------------------------------------------------------------------------

fn write_dqt_segments(out: &mut Vec<u8>, ci: &CoeffImage) {
    for (i, qt) in ci.qtables.iter().enumerate() {
        let mut payload = Vec::with_capacity(65);
        payload.push(i as u8); // Pq=0 (8-bit), Tq=i
        payload.extend_from_slice(&qt.to_zigzag_bytes());
        write_segment(out, marker::DQT, &payload);
    }
}

fn write_sof(out: &mut Vec<u8>, ci: &CoeffImage, progressive: bool) {
    let mut payload = Vec::new();
    payload.push(8); // precision
    payload.extend_from_slice(&(ci.height as u16).to_be_bytes());
    payload.extend_from_slice(&(ci.width as u16).to_be_bytes());
    payload.push(ci.components.len() as u8);
    for c in &ci.components {
        payload.push(c.id);
        payload.push((c.h_samp << 4) | c.v_samp);
        payload.push(c.quant_idx as u8);
    }
    write_segment(out, if progressive { marker::SOF2 } else { marker::SOF0 }, &payload);
}

fn write_dht(out: &mut Vec<u8>, class: u8, id: u8, spec: &HuffSpec) {
    let mut payload = Vec::with_capacity(17 + spec.values.len());
    payload.push((class << 4) | id);
    payload.extend_from_slice(&spec.bits);
    payload.extend_from_slice(&spec.values);
    write_segment(out, marker::DHT, &payload);
}

#[allow(clippy::too_many_arguments)]
fn write_sos(
    out: &mut Vec<u8>,
    comps: &[(u8, u8, u8)], // (component id, dc table, ac table)
    ss: u8,
    se: u8,
    ah: u8,
    al: u8,
) {
    let mut payload = Vec::new();
    payload.push(comps.len() as u8);
    for &(id, dc, ac) in comps {
        payload.push(id);
        payload.push((dc << 4) | ac);
    }
    payload.push(ss);
    payload.push(se);
    payload.push((ah << 4) | al);
    write_segment(out, marker::SOS, &payload);
}

// ---------------------------------------------------------------------------
// Top-level encode
// ---------------------------------------------------------------------------

/// Entropy-encode a coefficient image into a complete JPEG bitstream.
///
/// This is lossless with respect to the quantized coefficients: decoding
/// the result with [`crate::decode_to_coeffs`] returns exactly the same
/// values — the property the P3 public/secret parts rely on.
pub fn encode_coeffs(ci: &CoeffImage, mode: Mode, restart_interval: u16) -> Result<Vec<u8>> {
    ci.validate()?;
    if ci.width > 65_535 || ci.height > 65_535 {
        return Err(JpegError::Invalid("image too large for JPEG".into()));
    }
    match mode {
        Mode::Baseline | Mode::BaselineOptimized => {
            encode_baseline(ci, mode == Mode::BaselineOptimized, restart_interval)
        }
        Mode::Progressive => encode_progressive(ci),
    }
}

/// Table index assignment: component 0 uses tables 0 (luma), all other
/// components use tables 1 (chroma).
fn tbl_for_component(cidx: usize) -> usize {
    usize::from(cidx != 0)
}

// Recycled op-stream buffer: the gather pass records ~24 ops per block
// (hundreds of KiB per image), and a fresh allocation that size page-
// faults its way in on every encode. Taken at gather start, returned
// (cleared, capacity kept) once the replay is done.
thread_local! {
    static OPS_POOL: std::cell::Cell<Vec<u64>> = const { std::cell::Cell::new(Vec::new()) };
}

fn encode_baseline(ci: &CoeffImage, optimized: bool, restart_interval: u16) -> Result<Vec<u8>> {
    let ncomp = ci.components.len();
    let tbl_of: Vec<(usize, usize)> =
        (0..ncomp).map(|i| (tbl_for_component(i), tbl_for_component(i))).collect();

    let (dc_specs, ac_specs, gather): (Vec<HuffSpec>, Vec<HuffSpec>, Option<GatherSink>) =
        if optimized {
            let nblk: usize = ci.components.iter().map(|c| c.blocks.len()).sum();
            let mut gather = GatherSink::new();
            // Pre-size the op stream (ops ≈ nonzero coefficients, so this
            // uses a per-block estimate) from the recycled buffer when one
            // is around — repeated doubling on a multi-hundred-KiB `Vec`
            // otherwise re-copies the whole stream several times.
            gather.ops = OPS_POOL.with(std::cell::Cell::take);
            gather.ops.clear();
            gather.ops.reserve((nblk * 24).min(1 << 20));
            scan_baseline(ci, &tbl_of, restart_interval, &mut gather);
            let dc: Vec<HuffSpec> =
                gather.dc.iter().map(|f| f.build_spec().expect("spec")).collect();
            let ac: Vec<HuffSpec> =
                gather.ac.iter().map(|f| f.build_spec().expect("spec")).collect();
            (dc, ac, Some(gather))
        } else {
            (
                vec![default_dc_luma(), default_dc_chroma()],
                vec![default_ac_luma(), default_ac_chroma()],
                None,
            )
        };

    let ntables = if ncomp == 1 { 1 } else { 2 };
    let mut sink = EmitSink::new(
        dc_specs
            .iter()
            .take(ntables)
            .map(|s| Some(HuffEncoder::from_spec(s).expect("dc enc")))
            .collect::<Vec<_>>(),
        ac_specs
            .iter()
            .take(ntables)
            .map(|s| Some(HuffEncoder::from_spec(s).expect("ac enc")))
            .collect::<Vec<_>>(),
    );
    // Pad table vectors so indexing by table id always works.
    while sink.dc.len() < 2 {
        sink.dc.push(None);
    }
    while sink.ac.len() < 2 {
        sink.ac.push(None);
    }
    if let Some(g) = &gather {
        // ~2 bytes per recorded op is a comfortable upper-ballpark for
        // optimized tables; avoids rude doubling re-copies mid-stream.
        sink.w.reserve(g.ops.len() * 2);
    }
    match gather {
        Some(mut g) => {
            g.replay(&mut sink);
            OPS_POOL.with(|p| p.set(std::mem::take(&mut g.ops)));
        }
        None => scan_baseline(ci, &tbl_of, restart_interval, &mut sink),
    }
    let entropy = sink.w.finish();

    let mut out = Vec::with_capacity(entropy.len() + 1024);
    out.extend_from_slice(&[0xFF, marker::SOI]);
    write_jfif_app0(&mut out);
    write_dqt_segments(&mut out, ci);
    write_sof(&mut out, ci, false);
    for t in 0..ntables {
        write_dht(&mut out, 0, t as u8, &dc_specs[t]);
        write_dht(&mut out, 1, t as u8, &ac_specs[t]);
    }
    if restart_interval > 0 {
        write_segment(&mut out, marker::DRI, &restart_interval.to_be_bytes());
    }
    let comps: Vec<(u8, u8, u8)> = ci
        .components
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id, tbl_for_component(i) as u8, tbl_for_component(i) as u8))
        .collect();
    write_sos(&mut out, &comps, 0, 63, 0, 0);
    out.extend_from_slice(&entropy);
    out.extend_from_slice(&[0xFF, marker::EOI]);
    Ok(out)
}

/// One progressive scan description.
#[derive(Debug, Clone)]
enum ProgScan {
    DcFirst { al: u8 },
    DcRefine { ah: u8 },
    AcFirst { comp: usize, ss: usize, se: usize, al: u8 },
    AcRefine { comp: usize, ss: usize, se: usize, al: u8 },
}

/// The standard IJG-style scan script.
fn scan_script(ncomp: usize) -> Vec<ProgScan> {
    if ncomp == 1 {
        vec![
            ProgScan::DcFirst { al: 1 },
            ProgScan::AcFirst { comp: 0, ss: 1, se: 5, al: 2 },
            ProgScan::AcFirst { comp: 0, ss: 6, se: 63, al: 2 },
            ProgScan::AcRefine { comp: 0, ss: 1, se: 63, al: 1 },
            ProgScan::DcRefine { ah: 1 },
            ProgScan::AcRefine { comp: 0, ss: 1, se: 63, al: 0 },
        ]
    } else {
        vec![
            ProgScan::DcFirst { al: 1 },
            ProgScan::AcFirst { comp: 0, ss: 1, se: 5, al: 2 },
            ProgScan::AcFirst { comp: 2, ss: 1, se: 63, al: 1 },
            ProgScan::AcFirst { comp: 1, ss: 1, se: 63, al: 1 },
            ProgScan::AcFirst { comp: 0, ss: 6, se: 63, al: 2 },
            ProgScan::AcRefine { comp: 0, ss: 1, se: 63, al: 1 },
            ProgScan::DcRefine { ah: 1 },
            ProgScan::AcRefine { comp: 2, ss: 1, se: 63, al: 0 },
            ProgScan::AcRefine { comp: 1, ss: 1, se: 63, al: 0 },
            ProgScan::AcRefine { comp: 0, ss: 1, se: 63, al: 0 },
        ]
    }
}

fn encode_progressive(ci: &CoeffImage) -> Result<Vec<u8>> {
    let ncomp = ci.components.len();
    if ncomp != 1 && ncomp != 3 {
        return Err(JpegError::Unsupported(format!("{ncomp}-component progressive")));
    }
    let script = scan_script(ncomp);
    let dc_tbl_of: Vec<usize> = (0..ncomp).map(tbl_for_component).collect();

    let mut out = Vec::new();
    out.extend_from_slice(&[0xFF, marker::SOI]);
    write_jfif_app0(&mut out);
    write_dqt_segments(&mut out, ci);
    write_sof(&mut out, ci, true);

    for scan in &script {
        match *scan {
            ProgScan::DcFirst { al } => {
                let mut gather = GatherSink::new();
                scan_dc_first(ci, al, &dc_tbl_of, &mut gather);
                let ntables = if ncomp == 1 { 1 } else { 2 };
                let specs: Vec<HuffSpec> = gather
                    .dc
                    .iter()
                    .take(ntables)
                    .map(|f| f.build_spec().expect("dc spec"))
                    .collect();
                for (t, spec) in specs.iter().enumerate() {
                    write_dht(&mut out, 0, t as u8, spec);
                }
                let mut sink = EmitSink::new(
                    specs.iter().map(|s| Some(HuffEncoder::from_spec(s).expect("enc"))).collect(),
                    vec![None, None],
                );
                while sink.dc.len() < 2 {
                    sink.dc.push(None);
                }
                gather.replay(&mut sink);
                let comps: Vec<(u8, u8, u8)> = ci
                    .components
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (c.id, tbl_for_component(i) as u8, 0))
                    .collect();
                write_sos(&mut out, &comps, 0, 0, 0, al);
                out.extend_from_slice(&sink.w.finish());
            }
            ProgScan::DcRefine { ah } => {
                let mut sink = EmitSink::new(vec![None, None], vec![None, None]);
                scan_dc_refine(ci, ah - 1, &mut sink);
                let comps: Vec<(u8, u8, u8)> = ci.components.iter().map(|c| (c.id, 0, 0)).collect();
                write_sos(&mut out, &comps, 0, 0, ah, ah - 1);
                out.extend_from_slice(&sink.w.finish());
            }
            ProgScan::AcFirst { comp, ss, se, al } => {
                let comp_ref = &ci.components[comp];
                let tbl = tbl_for_component(comp);
                let mut gather = GatherSink::new();
                scan_ac_first(comp_ref, ss, se, al, tbl, &mut gather);
                let spec = gather.ac[tbl].build_spec().expect("ac spec");
                write_dht(&mut out, 1, tbl as u8, &spec);
                let mut ac_encs: Vec<Option<HuffEncoder>> = vec![None, None];
                ac_encs[tbl] = Some(HuffEncoder::from_spec(&spec).expect("enc"));
                let mut sink = EmitSink::new(vec![None, None], ac_encs);
                gather.replay(&mut sink);
                write_sos(&mut out, &[(comp_ref.id, 0, tbl as u8)], ss as u8, se as u8, 0, al);
                out.extend_from_slice(&sink.w.finish());
            }
            ProgScan::AcRefine { comp, ss, se, al } => {
                let comp_ref = &ci.components[comp];
                let tbl = tbl_for_component(comp);
                let mut gather = GatherSink::new();
                scan_ac_refine(comp_ref, ss, se, al, tbl, &mut gather);
                let spec = gather.ac[tbl].build_spec().expect("ac spec");
                write_dht(&mut out, 1, tbl as u8, &spec);
                let mut ac_encs: Vec<Option<HuffEncoder>> = vec![None, None];
                ac_encs[tbl] = Some(HuffEncoder::from_spec(&spec).expect("enc"));
                let mut sink = EmitSink::new(vec![None, None], ac_encs);
                gather.replay(&mut sink);
                write_sos(&mut out, &[(comp_ref.id, 0, tbl as u8)], ss as u8, se as u8, al + 1, al);
                out.extend_from_slice(&sink.w.finish());
            }
        }
    }
    out.extend_from_slice(&[0xFF, marker::EOI]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_rgb(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [
                        ((x * 255) / w.max(1)) as u8,
                        ((y * 255) / h.max(1)) as u8,
                        (((x + y) * 127) / (w + h).max(1)) as u8,
                    ],
                );
            }
        }
        img
    }

    #[test]
    fn baseline_stream_is_structurally_valid() {
        let img = test_rgb(64, 48);
        let jpg = Encoder::new().quality(85).encode_rgb(&img).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert!(!summary.progressive);
        assert_eq!((summary.width, summary.height), (64, 48));
        assert_eq!(summary.components, 3);
        assert_eq!(summary.sampling[0], (2, 2));
    }

    #[test]
    fn s422_roundtrips() {
        let img = test_rgb(49, 35); // odd dims stress the chroma geometry
        let jpg =
            Encoder::new().quality(92).subsampling(Subsampling::S422).encode_rgb(&img).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert_eq!(summary.sampling[0], (2, 1));
        let dec = crate::decoder::decode_to_rgb(&jpg).unwrap();
        assert_eq!((dec.width, dec.height), (49, 35));
        // Luma survives at high quality.
        let mut err = 0i64;
        for i in 0..img.data.len() {
            err += (i64::from(img.data[i]) - i64::from(dec.data[i])).abs();
        }
        assert!((err as f64 / img.data.len() as f64) < 14.0, "mean abs err too high");
    }

    #[test]
    fn s444_stream_sampling() {
        let img = test_rgb(32, 32);
        let jpg = Encoder::new().subsampling(Subsampling::S444).encode_rgb(&img).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert_eq!(summary.sampling[0], (1, 1));
    }

    #[test]
    fn progressive_stream_is_marked_sof2() {
        let img = test_rgb(40, 40);
        let jpg = Encoder::new().mode(Mode::Progressive).encode_rgb(&img).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert!(summary.progressive);
    }

    #[test]
    fn gray_encoding_works() {
        let mut img = GrayImage::new(24, 24);
        for (i, p) in img.data.iter_mut().enumerate() {
            *p = (i % 256) as u8;
        }
        let jpg = Encoder::new().encode_gray(&img).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert_eq!(summary.components, 1);
    }

    #[test]
    fn optimized_is_smaller_than_default_tables() {
        let img = test_rgb(128, 128);
        let default = Encoder::new().mode(Mode::Baseline).encode_rgb(&img).unwrap();
        let optimized = Encoder::new().mode(Mode::BaselineOptimized).encode_rgb(&img).unwrap();
        assert!(
            optimized.len() <= default.len(),
            "optimized {} > default {}",
            optimized.len(),
            default.len()
        );
    }

    #[test]
    fn restart_markers_appear() {
        let img = test_rgb(64, 64);
        let jpg = Encoder::new().restart_interval(2).encode_rgb(&img).unwrap();
        let segs = crate::marker::segments(&jpg).unwrap();
        let sos = segs.iter().find(|s| s.marker == crate::marker::SOS).unwrap();
        let has_rst = sos.entropy.windows(2).any(|w| w[0] == 0xFF && (0xD0..=0xD7).contains(&w[1]));
        assert!(has_rst, "no restart markers in entropy data");
    }

    #[test]
    fn rejects_oversize() {
        let ci = CoeffImage::zeroed(16, 16, vec![QuantTable::luma(90)], &[(1, 1)], &[0]).unwrap();
        assert!(encode_coeffs(&ci, Mode::Baseline, 0).is_ok());
    }

    #[test]
    fn pt_shift_sign_preserving() {
        assert_eq!(pt_shift(5, 1), 2);
        assert_eq!(pt_shift(-5, 1), -2);
        assert_eq!(pt_shift(1, 1), 0);
        assert_eq!(pt_shift(-1, 1), 0);
        assert_eq!(pt_shift(-4, 2), -1);
    }
}

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
struct EncodeConfig {
    /// IJG-style quality, 1..=100.
    quality: u8,
    /// Chroma layout for color input.
    subsampling: Subsampling,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        Self { quality: 90, subsampling: Subsampling::S420 }
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

    /// Encode an RGB image (optimized baseline, no restart markers).
    pub fn encode_rgb(&self, img: &RgbImage) -> Result<Vec<u8>> {
        let ci = pixels_to_coeffs(img, self.cfg.quality, self.cfg.subsampling)?;
        encode_coeffs(&ci, Mode::BaselineOptimized, 0)
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
/// DCT+quant kernel is SIMD-dispatched per [`crate::simd`].
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
    for (by, row) in comp.blocks.chunks_mut(comp.padded_w).enumerate() {
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
    }
}

// ---------------------------------------------------------------------------
// Scan recording. Every entropy-coded scan of every mode goes the same way:
// a walker records the scan as an op stream into the per-thread scratch,
// and `emit_scan` builds the tables the scan declares, writes DHT + SOS and
// replays the ops into the output. No walker writes a bit itself.
// ---------------------------------------------------------------------------

/// Symbol class for table selection; the discriminant is an op's class bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Dc = 0,
    Ac = 1,
}

/// One recorded scan, and the per-thread scratch it is recorded into.
///
/// Counts symbol frequencies *and* records the op stream, so every scan
/// walks the coefficient blocks exactly once: the recorded ops are
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
#[derive(Default)]
struct ScanRecorder {
    /// Symbol counts per table, indexed like the replay's tables by an
    /// op's class and table bits (`class << 1 | tbl`).
    freq: [FreqCounter; 4],
    ops: Vec<u64>,
    /// Bits the ops carry besides Huffman codes (magnitude and raw bits,
    /// restart markers with their padding): with the code lengths, the
    /// scan's size before a byte of it is written.
    extra_bits: usize,
    /// [`scan_ac_refine`]'s correction bits, deferred until the EOB run
    /// they belong to is flushed.
    pending: Vec<u8>,
    /// [`emit_scan`]'s DHT / DRI / SOS segments, staged so that the
    /// output grows once per scan, by what the scan needs.
    head: Vec<u8>,
}

const OP_SHIFT: u32 = 62;
const OP_SYMBOL: u64 = 0;
const OP_BITS: u64 = 1;
const OP_RESTART: u64 = 2;

/// Bytes above which a thread releases its scratch after the encode
/// instead of keeping it: one huge photo must not pin its op stream to a
/// worker thread for good. (A 320×240 photo records ~0.3 MB of ops, the
/// 720 rung of one ~2.)
const SCRATCH_KEPT: usize = 4 << 20;

// The op stream runs to ~24 ops per block (hundreds of KiB per image), and
// a fresh allocation that size page-faults its way in on every encode.
thread_local! {
    static SCRATCH: std::cell::RefCell<ScanRecorder> = std::cell::RefCell::default();
}

impl ScanRecorder {
    /// Forget the previous scan (capacity kept), and pre-size the op
    /// stream on a thread that has none yet (ops ≈ nonzero coefficients,
    /// so this uses a per-block estimate) — repeated doubling on a
    /// multi-hundred-KiB `Vec` otherwise re-copies the whole stream
    /// several times.
    fn begin(&mut self, ci: &CoeffImage) {
        self.freq = Default::default();
        self.ops.clear();
        self.extra_bits = 0;
        self.pending.clear();
        let nblk: usize = ci.components.iter().map(|c| c.blocks.len()).sum();
        self.ops.reserve((nblk * 24).min(1 << 20));
    }

    fn bytes(&self) -> usize {
        8 * self.ops.capacity() + self.pending.capacity() + self.head.capacity()
    }

    fn symbol(&mut self, class: Class, tbl: usize, sym: u8) {
        self.symbol_bits(class, tbl, sym, 0, 0);
    }

    /// Huffman symbol immediately followed by its magnitude bits — the
    /// dominant emission pattern (every nonzero coefficient), fused into
    /// a single op.
    fn symbol_bits(&mut self, class: Class, tbl: usize, sym: u8, value: u32, count: u32) {
        debug_assert!(count <= 16);
        let table = ((class as usize) << 1) | tbl;
        self.freq[table].count(sym);
        self.extra_bits += count as usize;
        self.ops.push(
            (OP_SYMBOL << OP_SHIFT)
                | ((table as u64) << 46)
                | (u64::from(sym) << 38)
                | (u64::from(count) << 32)
                | u64::from(value),
        );
    }

    fn bits(&mut self, value: u32, count: u32) {
        debug_assert!(count <= 16 && count > 0);
        self.extra_bits += count as usize;
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

    fn correction_bits(&mut self, bits: &[u8]) {
        for &b in bits {
            self.bits(u32::from(b), 1);
        }
    }

    /// Restart marker (baseline only).
    fn restart(&mut self, idx: u8) {
        self.extra_bits += 7 + 16;
        self.ops.push((OP_RESTART << OP_SHIFT) | u64::from(idx));
    }

    /// Close a progressive AC scan's EOB run — the EOBn symbol with the
    /// run length's low bits, then the correction bits deferred behind it.
    fn flush_eob(&mut self, tbl: usize, eobrun: &mut u32) {
        if *eobrun > 0 {
            let nbits = 31 - eobrun.leading_zeros();
            self.symbol_bits(Class::Ac, tbl, (nbits as u8) << 4, *eobrun - (1 << nbits), nbits);
            *eobrun = 0;
        }
        let mut pending = std::mem::take(&mut self.pending);
        self.correction_bits(&pending);
        pending.clear();
        self.pending = pending;
    }

    /// Replay the recorded op stream into the bit writer.
    fn replay(&self, tables: &[Option<HuffEncoder>; 4], w: &mut BitWriter) {
        // Class bit (47) and table bit (46) together index the table
        // array, resolved once outside the hot loop. Entries stay
        // `Option` because a scan builds only the tables it declares.
        let tables = tables.each_ref().map(Option::as_ref);
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

// ---------------------------------------------------------------------------
// Shared coefficient-level recorders
// ---------------------------------------------------------------------------

fn emit_dc(rec: &mut ScanRecorder, tbl: usize, diff: i32) {
    let (size, bits) = encode_magnitude(diff);
    rec.symbol_bits(Class::Dc, tbl, size as u8, bits, size);
}

fn emit_block_ac_baseline(
    rec: &mut ScanRecorder,
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
                rec.symbol(Class::Ac, tbl, 0xF0);
                run -= 16;
            }
            let (size, bits) = encode_magnitude(v);
            debug_assert!(size <= 10 || v.unsigned_abs() <= 32767, "coefficient too large");
            rec.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | size as u8, bits, size);
            prev = z;
        }
        if prev != 63 {
            rec.symbol(Class::Ac, tbl, 0x00); // EOB
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
            rec.symbol(Class::Ac, tbl, 0xF0);
            run -= 16;
        }
        let (size, bits) = encode_magnitude(v);
        debug_assert!(size <= 10 || v.unsigned_abs() <= 32767, "coefficient too large");
        rec.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | size as u8, bits, size);
        run = 0;
    }
    if run > 0 {
        rec.symbol(Class::Ac, tbl, 0x00); // EOB
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

/// Table index assignment: component 0 uses tables 0 (luma), all other
/// components use tables 1 (chroma).
fn tbl_for_component(cidx: usize) -> usize {
    usize::from(cidx != 0)
}

/// Baseline scan: interleaved if multi-component.
fn scan_baseline(ci: &CoeffImage, restart_interval: u16, rec: &mut ScanRecorder) {
    let level = crate::simd::simd_level();
    let mut last_dc = vec![0i32; ci.components.len()];
    if ci.components.len() == 1 {
        let comp = &ci.components[0];
        let mut mcu_count = 0u32;
        let mut rst = 0u8;
        for by in 0..comp.blocks_h {
            for bx in 0..comp.blocks_w {
                if restart_interval > 0 && mcu_count == u32::from(restart_interval) {
                    rec.restart(rst);
                    rst = (rst + 1) & 7;
                    mcu_count = 0;
                    last_dc[0] = 0;
                }
                let b = comp.block(bx, by);
                emit_dc(rec, 0, b[0] - last_dc[0]);
                last_dc[0] = b[0];
                emit_block_ac_baseline(rec, 0, b, level);
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
                rec.restart(rst);
                rst = (rst + 1) & 7;
                mcu_count = 0;
                last_dc.iter_mut().for_each(|d| *d = 0);
            }
            for (cidx, comp) in ci.components.iter().enumerate() {
                let tbl = tbl_for_component(cidx);
                for v in 0..comp.v_samp as usize {
                    for h in 0..comp.h_samp as usize {
                        let b = comp
                            .block(mx * comp.h_samp as usize + h, my * comp.v_samp as usize + v);
                        emit_dc(rec, tbl, b[0] - last_dc[cidx]);
                        last_dc[cidx] = b[0];
                        emit_block_ac_baseline(rec, tbl, b, level);
                    }
                }
            }
            mcu_count += 1;
        }
    }
}

/// Progressive DC first scan (Ah = 0): interleaved across all components.
fn scan_dc_first(ci: &CoeffImage, al: u8, rec: &mut ScanRecorder) {
    let mut last_dc = vec![0i32; ci.components.len()];
    walk_mcus(ci, |cidx, bx, by| {
        let b = ci.components[cidx].block(bx, by);
        let v = b[0] >> al; // DC uses arithmetic shift per spec
        emit_dc(rec, tbl_for_component(cidx), v - last_dc[cidx]);
        last_dc[cidx] = v;
    });
}

/// Progressive DC refinement scan (Ah = Al + 1): one raw bit per block.
fn scan_dc_refine(ci: &CoeffImage, al: u8, rec: &mut ScanRecorder) {
    walk_mcus(ci, |cidx, bx, by| {
        let b = ci.components[cidx].block(bx, by);
        rec.bits(((b[0] >> al) & 1) as u32, 1);
    });
}

/// Progressive AC first scan over one component (non-interleaved).
fn scan_ac_first(
    comp: &ComponentCoeffs,
    ss: usize,
    se: usize,
    al: u8,
    tbl: usize,
    rec: &mut ScanRecorder,
) {
    let mut eobrun: u32 = 0;
    for by in 0..comp.blocks_h {
        for bx in 0..comp.blocks_w {
            let block = comp.block(bx, by);
            let mut run = 0u32;
            for z in ss..=se {
                let v = pt_shift(block[usize::from(crate::zigzag::UNZIGZAG[z])], al);
                if v == 0 {
                    run += 1;
                    continue;
                }
                rec.flush_eob(tbl, &mut eobrun);
                while run > 15 {
                    rec.symbol(Class::Ac, tbl, 0xF0);
                    run -= 16;
                }
                let (size, bits) = encode_magnitude(v);
                rec.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | size as u8, bits, size);
                run = 0;
            }
            if run > 0 {
                eobrun += 1;
                if eobrun == 0x7FFF {
                    rec.flush_eob(tbl, &mut eobrun);
                }
            }
        }
    }
    rec.flush_eob(tbl, &mut eobrun);
}

/// Progressive AC refinement scan (Ah = Al + 1) over one component —
/// the correction-bit algorithm of ITU T.81 §G.1.2.3 / figure G.7.
fn scan_ac_refine(
    comp: &ComponentCoeffs,
    ss: usize,
    se: usize,
    al: u8,
    tbl: usize,
    rec: &mut ScanRecorder,
) {
    let mut eobrun: u32 = 0;
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
            // Correction bits of this block (at most one per coefficient)
            // not yet recorded.
            let mut local = [0u8; 64];
            let mut nlocal = 0usize;
            for z in ss..=se {
                let t = absval[z];
                if t == 0 {
                    run += 1;
                    continue;
                }
                // ZRLs are only needed when a newly-significant coefficient
                // lies ahead; otherwise the zeros fold into the next EOB.
                while run > 15 && z <= eob_pos {
                    rec.flush_eob(tbl, &mut eobrun);
                    rec.symbol(Class::Ac, tbl, 0xF0);
                    run -= 16;
                    rec.correction_bits(&local[..nlocal]);
                    nlocal = 0;
                }
                if t > 1 {
                    // Already significant: just a correction bit.
                    local[nlocal] = (t & 1) as u8;
                    nlocal += 1;
                    continue;
                }
                // Newly significant (magnitude exactly 1 at this precision).
                rec.flush_eob(tbl, &mut eobrun);
                let sign_bit =
                    if block[usize::from(crate::zigzag::UNZIGZAG[z])] < 0 { 0 } else { 1 };
                rec.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | 1, sign_bit, 1);
                rec.correction_bits(&local[..nlocal]);
                nlocal = 0;
                run = 0;
            }
            if run > 0 || nlocal > 0 {
                eobrun += 1;
                rec.pending.extend_from_slice(&local[..nlocal]);
                // Guard the counters like IJG does.
                if eobrun == 0x7FFF || rec.pending.len() > 937 {
                    rec.flush_eob(tbl, &mut eobrun);
                }
            }
        }
    }
    rec.flush_eob(tbl, &mut eobrun);
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
    let mut payload = Vec::with_capacity(6 + 3 * ci.components.len());
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

fn write_dht(out: &mut Vec<u8>, class: Class, id: u8, spec: &HuffSpec) {
    let mut payload = Vec::with_capacity(17 + spec.values.len());
    payload.push(((class as u8) << 4) | id);
    payload.extend_from_slice(&spec.bits);
    payload.extend_from_slice(&spec.values);
    write_segment(out, marker::DHT, &payload);
}

/// The parameters of one scan's SOS header.
struct ScanHeader<'a> {
    /// `(component id, dc table, ac table)` per component of the scan.
    comps: &'a [(u8, u8, u8)],
    ss: u8,
    se: u8,
    ah: u8,
    al: u8,
}

fn write_sos(out: &mut Vec<u8>, sos: &ScanHeader<'_>) {
    let mut payload = Vec::with_capacity(4 + 2 * sos.comps.len());
    payload.push(sos.comps.len() as u8);
    for &(id, dc, ac) in sos.comps {
        payload.push(id);
        payload.push((dc << 4) | ac);
    }
    payload.push(sos.ss);
    payload.push(sos.se);
    payload.push((sos.ah << 4) | sos.al);
    write_segment(out, marker::SOS, &payload);
}

// ---------------------------------------------------------------------------
// Top-level encode
// ---------------------------------------------------------------------------

/// The one way a recorded scan becomes bytes: a DHT for each table the
/// SOS parameters declare — built from the recorded symbol counts, or
/// taken from `fixed` (indexed like [`ScanRecorder::freq`]) — then DRI
/// if the scan restarts, the SOS header, and the op stream replayed
/// straight into `out`, which grows once, by the scan's size.
fn emit_scan(
    out: &mut Vec<u8>,
    rec: &mut ScanRecorder,
    fixed: Option<&[HuffSpec; 4]>,
    restart_interval: u16,
    sos: &ScanHeader<'_>,
) -> Result<()> {
    // A DC refinement scan (Ah > 0) is raw bits: it declares no table.
    let (dc, ac) = (sos.ss == 0 && sos.ah == 0, sos.se > 0);
    let mut tables: [Option<HuffEncoder>; 4] = [None, None, None, None];
    let mut bits = rec.extra_bits;
    let mut head = std::mem::take(&mut rec.head);
    head.clear();
    for id in 0..2u8 {
        let declared = [
            (Class::Dc, dc && sos.comps.iter().any(|c| c.1 == id)),
            (Class::Ac, ac && sos.comps.iter().any(|c| c.2 == id)),
        ];
        for (class, _) in declared.into_iter().filter(|&(_, declared)| declared) {
            let table = ((class as usize) << 1) | usize::from(id);
            let built;
            let spec = match fixed {
                Some(specs) => &specs[table],
                None => {
                    built = rec.freq[table].build_spec().expect("a counter always builds");
                    &built
                }
            };
            write_dht(&mut head, class, id, spec);
            let enc = HuffEncoder::from_spec(spec)?;
            let counts = rec.freq[table].freq.iter().take(256).zip(0..=255u8);
            bits +=
                counts.map(|(&n, sym)| n as usize * usize::from(enc.size_of(sym))).sum::<usize>();
            tables[table] = Some(enc);
        }
    }
    if restart_interval > 0 {
        write_segment(&mut head, marker::DRI, &restart_interval.to_be_bytes());
    }
    write_sos(&mut head, sos);
    // The scan's exact size but for byte stuffing (about one byte in
    // 256; the `Vec` grows if a stream has more): the caller keeps the
    // stream, so it is handed its bytes and no growth slack.
    let bytes = bits.div_ceil(8);
    out.reserve_exact(head.len() + bytes + bytes / 64 + 8);
    out.extend_from_slice(&head);
    rec.head = head;
    let mut w = BitWriter::appending(std::mem::take(out));
    rec.replay(&tables, &mut w);
    *out = w.finish();
    Ok(())
}

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
    let (ncomp, progressive) = (ci.components.len(), mode == Mode::Progressive);
    if progressive && ncomp != 1 && ncomp != 3 {
        return Err(JpegError::Unsupported(format!("{ncomp}-component progressive")));
    }
    let mut out = Vec::new();
    out.extend_from_slice(&[0xFF, marker::SOI]);
    write_jfif_app0(&mut out);
    write_dqt_segments(&mut out, ci);
    write_sof(&mut out, ci, progressive);
    SCRATCH.with_borrow_mut(|rec| {
        let done = if progressive {
            encode_progressive(ci, rec, &mut out)
        } else {
            encode_baseline(ci, mode == Mode::BaselineOptimized, restart_interval, rec, &mut out)
        };
        if rec.bytes() > SCRATCH_KEPT {
            *rec = ScanRecorder::default();
        }
        done
    })?;
    out.extend_from_slice(&[0xFF, marker::EOI]);
    Ok(out)
}

/// The one sequential scan, under per-image tables or the Annex-K ones.
fn encode_baseline(
    ci: &CoeffImage,
    optimized: bool,
    restart_interval: u16,
    rec: &mut ScanRecorder,
    out: &mut Vec<u8>,
) -> Result<()> {
    let annex_k = (!optimized)
        .then(|| [default_dc_luma(), default_dc_chroma(), default_ac_luma(), default_ac_chroma()]);
    rec.begin(ci);
    scan_baseline(ci, restart_interval, rec);
    let comps: Vec<(u8, u8, u8)> = ci
        .components
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id, tbl_for_component(i) as u8, tbl_for_component(i) as u8))
        .collect();
    let sos = ScanHeader { comps: &comps, ss: 0, se: 63, ah: 0, al: 0 };
    emit_scan(out, rec, annex_k.as_ref(), restart_interval, &sos)
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

/// The scan script, each scan recorded by its walker and emitted under
/// its own tables.
fn encode_progressive(ci: &CoeffImage, rec: &mut ScanRecorder, out: &mut Vec<u8>) -> Result<()> {
    // A DC scan interleaves every component; the refinement names no table.
    let dc_comps = |first: bool| -> Vec<(u8, u8, u8)> {
        let tbl = |i| if first { tbl_for_component(i) as u8 } else { 0 };
        ci.components.iter().enumerate().map(|(i, c)| (c.id, tbl(i), 0)).collect()
    };
    for scan in scan_script(ci.components.len()) {
        rec.begin(ci);
        let (dc, ac);
        let sos = match scan {
            ProgScan::DcFirst { al } => {
                scan_dc_first(ci, al, rec);
                dc = dc_comps(true);
                ScanHeader { comps: &dc, ss: 0, se: 0, ah: 0, al }
            }
            ProgScan::DcRefine { ah } => {
                scan_dc_refine(ci, ah - 1, rec);
                dc = dc_comps(false);
                ScanHeader { comps: &dc, ss: 0, se: 0, ah, al: ah - 1 }
            }
            ProgScan::AcFirst { comp, ss, se, al } | ProgScan::AcRefine { comp, ss, se, al } => {
                let (c, tbl) = (&ci.components[comp], tbl_for_component(comp));
                let refine = matches!(scan, ProgScan::AcRefine { .. });
                let walker = if refine { scan_ac_refine } else { scan_ac_first };
                walker(c, ss, se, al, tbl, rec);
                ac = [(c.id, 0, tbl as u8)];
                let ah = if refine { al + 1 } else { 0 };
                ScanHeader { comps: &ac, ss: ss as u8, se: se as u8, ah, al }
            }
        };
        emit_scan(out, rec, None, 0, &sos)?;
    }
    Ok(())
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
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let jpg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert!(summary.progressive);
    }

    #[test]
    fn gray_encoding_works() {
        let mut img = GrayImage::new(24, 24);
        for (i, p) in img.data.iter_mut().enumerate() {
            *p = (i % 256) as u8;
        }
        let jpg =
            encode_coeffs(&gray_to_coeffs(&img, 90).unwrap(), Mode::BaselineOptimized, 0).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert_eq!(summary.components, 1);
    }

    #[test]
    fn optimized_is_smaller_than_default_tables() {
        let img = test_rgb(128, 128);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let default = encode_coeffs(&ci, Mode::Baseline, 0).unwrap();
        let optimized = encode_coeffs(&ci, Mode::BaselineOptimized, 0).unwrap();
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
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let jpg = encode_coeffs(&ci, Mode::BaselineOptimized, 2).unwrap();
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

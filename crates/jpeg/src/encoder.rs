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
//!
//! Every mode is a script of scans, each one its SOS parameters: the
//! sequential script has one scan, the progressive scripts are IJG's.
//! Every block of a scan is recorded by one band rule, the decoder's run
//! forwards (`record_block`: DC iff `Ss = 0`, AC over `max(Ss, 1)..=Se`
//! iff `Se > 0`, a first pass or a refinement by `Ah`), and every scan
//! becomes bytes the same way (`emit_scan`).

use crate::bitio::{encode_magnitude, BitWriter};
use crate::block::{Block, CoeffImage, ComponentCoeffs, ScanWalk, Step};
use crate::color::{downsample, rgb_to_planes, Plane};
use crate::huffman::{
    default_ac_chroma, default_ac_luma, default_dc_chroma, default_dc_luma, FreqCounter,
    HuffEncoder, HuffSpec,
};
use crate::image::RgbImage;
use crate::marker::{self, write_jfif_app0, write_segment};
use crate::quant::AanQuantizer;
use crate::quant::QuantTable;
use crate::simd::SimdLevel;
use crate::zigzag::{MASK_TO_ZIGZAG, UNZIGZAG};

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

/// Convenience front-end combining [`pixels_to_coeffs`] and
/// [`encode_coeffs`].
#[derive(Debug, Clone)]
pub struct Encoder {
    /// IJG-style quality, 1..=100.
    quality: u8,
    /// Chroma layout for color input.
    subsampling: Subsampling,
}

impl Default for Encoder {
    fn default() -> Self {
        Self { quality: 90, subsampling: Subsampling::S420 }
    }
}

impl Encoder {
    /// Encoder with default configuration (quality 90, 4:2:0, optimized
    /// baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the quality factor.
    pub fn quality(mut self, q: u8) -> Self {
        self.quality = q;
        self
    }

    /// Set the chroma subsampling.
    pub fn subsampling(mut self, s: Subsampling) -> Self {
        self.subsampling = s;
        self
    }

    /// Encode an RGB image (optimized baseline, no restart markers).
    pub fn encode_rgb(&self, img: &RgbImage) -> Result<Vec<u8>> {
        let ci = pixels_to_coeffs(img, self.quality, self.subsampling)?;
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
    planes_to_coeffs_into(planes, (img.width, img.height), &sampling, quality, ci)
}

/// Forward-transform component planes — Y (or gray) first, each at the
/// sampling `(h, v)` it is listed with — into a caller's coefficient
/// image of a `width × height` frame, overwritten whatever it held. The
/// first plane is coded with the luma table, the others with the chroma
/// one. A plane whose size is not its component's sampled size is
/// `Invalid`.
pub fn planes_to_coeffs_into(
    planes: &[Plane],
    (width, height): (usize, usize),
    sampling: &[(u8, u8)],
    quality: u8,
    ci: &mut CoeffImage,
) -> Result<()> {
    let mut qtables = vec![QuantTable::luma(quality)];
    if sampling.len() > 1 {
        qtables.push(QuantTable::chroma(quality));
    }
    const QUANT_MAP: [usize; 4] = [0, 1, 1, 1];
    ci.reset(width, height, qtables, sampling, &QUANT_MAP[..sampling.len().min(4)])?;
    if planes.len() != sampling.len() {
        return Err(JpegError::Invalid("one plane per component".into()));
    }
    let (h_max, v_max) = (usize::from(ci.h_max()), usize::from(ci.v_max()));
    let CoeffImage { qtables, components, .. } = ci;
    for (comp, plane) in components.iter_mut().zip(planes) {
        let samp_w = (width * usize::from(comp.h_samp)).div_ceil(h_max);
        let samp_h = (height * usize::from(comp.v_samp)).div_ceil(v_max);
        if (plane.width, plane.height) != (samp_w, samp_h) {
            return Err(JpegError::Invalid(format!(
                "component {} plane is {}x{}, its sampling needs {samp_w}x{samp_h}",
                comp.id, plane.width, plane.height
            )));
        }
        plane_into_blocks(plane, comp, &qtables[comp.quant_idx]);
    }
    Ok(())
}

/// Forward-transform a grayscale image into quantized coefficients.
pub fn gray_to_coeffs(img: &Plane, quality: u8) -> Result<CoeffImage> {
    if img.width == 0 || img.height == 0 {
        return Err(JpegError::Invalid("empty image".into()));
    }
    let qt = QuantTable::luma(quality);
    let mut ci = CoeffImage::zeroed(img.width, img.height, vec![qt.clone()], &[(1, 1)], &[0])?;
    plane_into_blocks(img, &mut ci.components[0], &qt);
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
// `record_scan` records it block by block as an op stream into the
// per-thread scratch, in the order `ScanWalk` gives (restart markers
// included), and `emit_scan` builds the tables the scan names, writes
// DHT + SOS and replays the ops into the output. Recording writes no bit.
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
/// Ops pack into a `u64` each, tag in the top two bits, and replay as
/// one `put_bits` each. Raw bits — a coefficient's magnitude bits, DC
/// refinement bits, AC correction bits — ride in the op before them while
/// it has room: a `Symbol` takes up to 16 (its code has at most 16, and
/// one write holds 32), a `Bits` op up to 32; past that they open a new
/// `Bits` op. So a nonzero coefficient (the dominant pattern) is one op,
/// and a refine block's correction bits ride in its newly significant
/// symbol's op, or in one or two `Bits` ops.
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
    /// An AC refinement's correction bits, deferred until the EOB run
    /// they belong to is flushed: `Bits` ops, packed as in `ops`.
    pending: Vec<u64>,
    /// How many bits `pending` holds.
    pending_bits: usize,
    /// A block held a coefficient no symbol can code: an AC magnitude
    /// past 15 bits or a DC difference past 11 (T.81 F.1.2.1.1,
    /// F.1.2.2.1). [`emit_scan`] refuses the scan.
    out_of_range: bool,
    /// [`emit_scan`]'s DHT / DRI / SOS segments, staged so that the
    /// output grows once per scan, by what the scan needs.
    head: Vec<u8>,
}

const OP_SHIFT: u32 = 62;
const OP_SYMBOL: u64 = 0;
const OP_BITS: u64 = 1;
const OP_RESTART: u64 = 2;

/// Append the low `count` bits of `value` (MSB first) to an op stream:
/// into its last op while that has room, then in `Bits` ops of up to 32.
fn pack_bits(ops: &mut Vec<u64>, value: u64, mut count: u32) {
    debug_assert!(count <= 64);
    if let Some(last) = ops.last_mut() {
        let have = ((*last >> 32) & 0x3F) as u32;
        let cap: u32 = match *last >> OP_SHIFT {
            OP_SYMBOL => 16,
            OP_BITS => 32,
            _ => 0,
        };
        let room = cap.saturating_sub(have).min(count);
        if room > 0 {
            count -= room;
            let head = (value >> count) & ((1 << room) - 1);
            let bits = ((*last & 0xFFFF_FFFF) << room) | head;
            *last = (*last & !((1 << 38) - 1)) | (u64::from(have + room) << 32) | bits;
        }
    }
    while count > 0 {
        let n = count.min(32);
        count -= n;
        let chunk = (value >> count) & ((1 << n) - 1);
        ops.push((OP_BITS << OP_SHIFT) | (u64::from(n) << 32) | chunk);
    }
}

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
        self.pending_bits = 0;
        self.out_of_range = false;
        let nblk: usize = ci.components.iter().map(|c| c.blocks.len()).sum();
        self.ops.reserve((nblk * 24).min(1 << 20));
    }

    fn bytes(&self) -> usize {
        8 * (self.ops.capacity() + self.pending.capacity()) + self.head.capacity()
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

    /// The low `count` bits of `value`, MSB first.
    fn bits(&mut self, value: u64, count: u32) {
        self.extra_bits += count as usize;
        pack_bits(&mut self.ops, value, count);
    }

    /// Restart marker `RST{idx}`, where a scan's walk places one.
    fn restart(&mut self, idx: u8) {
        self.extra_bits += 7 + 16;
        self.ops.push((OP_RESTART << OP_SHIFT) | u64::from(idx));
    }

    /// Close an AC scan's EOB run — the EOBn symbol with the run length's
    /// low bits, then the correction bits deferred behind it.
    fn flush_eob(&mut self, tbl: usize, eobrun: &mut u32) {
        if *eobrun > 0 {
            let nbits = 31 - eobrun.leading_zeros();
            self.symbol_bits(Class::Ac, tbl, (nbits as u8) << 4, *eobrun - (1 << nbits), nbits);
            *eobrun = 0;
        }
        if self.pending_bits > 0 {
            self.extra_bits += std::mem::take(&mut self.pending_bits);
            for op in self.pending.drain(..) {
                pack_bits(&mut self.ops, op, ((op >> 32) & 0x3F) as u32);
            }
        }
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
                    // One fused write: code then raw bits (≤ 32 total).
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

/// A DC difference: `v` against the component's predictor, which then
/// takes `v`. A difference past 11 bits has no symbol (T.81 F.1.2.1.1).
fn emit_dc(rec: &mut ScanRecorder, tbl: usize, v: i32, pred: &mut i32) {
    let diff = i64::from(v) - i64::from(std::mem::replace(pred, v));
    if diff.unsigned_abs() >= 1 << 11 {
        rec.out_of_range = true;
        return;
    }
    let (size, bits) = encode_magnitude(diff as i32);
    rec.symbol_bits(Class::Dc, tbl, size as u8, bits, size);
}

/// Zig-zag-order mask of the coefficients of `block` in the band
/// `ss..=se` with `|v| ≥ t`: at `t = 2^Al`, the ones a scan at point
/// transform `Al` codes as nonzero. Most are zero after quantization, so
/// walking the mask's set bits skips them without loading them.
fn band_mask(level: SimdLevel, block: &Block, t: u32, ss: usize, se: usize) -> u64 {
    let m = crate::simd::magnitude_mask(level, block, t);
    let zz = MASK_TO_ZIGZAG
        .iter()
        .enumerate()
        .fold(0, |zz, (k, lut)| zz | lut[(m >> (8 * k)) as u8 as usize]);
    zz & (u64::MAX << ss) & (u64::MAX >> (63 - se))
}

/// Record `block`'s coefficients at the set bits of `zz` (zig-zag
/// positions past `prev`) as run/size symbols, ZRLs included, under
/// point transform `al` (T.81 G.1.2.1: the magnitude shifts, the sign
/// stays); a sequential block's AC is this at `Al = 0`. Returns the last
/// position recorded, `prev` if none.
fn emit_ac_first(
    rec: &mut ScanRecorder,
    tbl: usize,
    block: &Block,
    mut zz: u64,
    mut prev: u32,
    al: u8,
) -> u32 {
    while zz != 0 {
        let z = zz.trailing_zeros();
        zz &= zz - 1;
        let mut run = z - prev - 1;
        prev = z;
        while run > 15 {
            rec.symbol(Class::Ac, tbl, 0xF0);
            run -= 16;
        }
        let v = block[usize::from(UNZIGZAG[z as usize])];
        let a = v.unsigned_abs() >> al;
        let size = 32 - a.leading_zeros();
        // A 16-bit or wider magnitude overflows the symbol's size nibble.
        if size > 15 {
            rec.out_of_range = true;
            continue;
        }
        let bits = (if v < 0 { !a } else { a }) & ((1 << size) - 1);
        rec.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | size as u8, bits, size);
    }
    prev
}

// ---------------------------------------------------------------------------
// Scans and the band rule
// ---------------------------------------------------------------------------

/// Table index assignment: component 0 uses tables 0 (luma), all other
/// components use tables 1 (chroma).
fn tbl_for_component(cidx: usize) -> usize {
    usize::from(cidx != 0)
}

/// Component indices in frame order, sliced by [`Scan::comps`].
const ALL: [usize; 4] = [0, 1, 2, 3];

/// One scan's SOS parameters (T.81 B.2.3).
#[derive(Debug, Clone, Copy)]
struct Scan {
    /// The one component the scan codes, or `None` for every component,
    /// interleaved.
    comp: Option<usize>,
    /// Spectral selection `Ss..=Se`.
    ss: u8,
    se: u8,
    /// Successive approximation: the bit position before (`Ah`, 0 on a
    /// first pass) and after (`Al`) this scan.
    ah: u8,
    al: u8,
}

impl Scan {
    /// Frame indices of the components the scan codes, in SOS order.
    fn comps(self, ncomp: usize) -> &'static [usize] {
        match self.comp {
            None => &ALL[..ncomp],
            Some(c) => &ALL[c..=c],
        }
    }

    /// Whether each scan component names a DC and an AC table: a DC table
    /// iff the scan codes DC first passes (a DC refinement is raw bits),
    /// an AC table iff it codes an AC band.
    fn tables(self) -> (bool, bool) {
        (self.ss == 0 && self.ah == 0, self.se > 0)
    }
}

/// The one scan of a sequential stream.
const SEQUENTIAL: &[Scan] = &[Scan { comp: None, ss: 0, se: 63, ah: 0, al: 0 }];

/// The IJG progressive script for one component.
const PROGRESSIVE_GRAY: &[Scan] = &[
    Scan { comp: None, ss: 0, se: 0, ah: 0, al: 1 },
    Scan { comp: Some(0), ss: 1, se: 5, ah: 0, al: 2 },
    Scan { comp: Some(0), ss: 6, se: 63, ah: 0, al: 2 },
    Scan { comp: Some(0), ss: 1, se: 63, ah: 2, al: 1 },
    Scan { comp: None, ss: 0, se: 0, ah: 1, al: 0 },
    Scan { comp: Some(0), ss: 1, se: 63, ah: 1, al: 0 },
];

/// The IJG progressive script for three components.
const PROGRESSIVE_YCC: &[Scan] = &[
    Scan { comp: None, ss: 0, se: 0, ah: 0, al: 1 },
    Scan { comp: Some(0), ss: 1, se: 5, ah: 0, al: 2 },
    Scan { comp: Some(2), ss: 1, se: 63, ah: 0, al: 1 },
    Scan { comp: Some(1), ss: 1, se: 63, ah: 0, al: 1 },
    Scan { comp: Some(0), ss: 6, se: 63, ah: 0, al: 2 },
    Scan { comp: Some(0), ss: 1, se: 63, ah: 2, al: 1 },
    Scan { comp: None, ss: 0, se: 0, ah: 1, al: 0 },
    Scan { comp: Some(2), ss: 1, se: 63, ah: 1, al: 0 },
    Scan { comp: Some(1), ss: 1, se: 63, ah: 1, al: 0 },
    Scan { comp: Some(0), ss: 1, se: 63, ah: 1, al: 0 },
];

/// What a restart resets: the DC predictors (by component) and an AC
/// scan's EOB run.
#[derive(Default)]
struct Carry {
    last_dc: [i32; 4],
    eobrun: u32,
}

/// Record `scan` in the order [`ScanWalk`] gives, each block by
/// [`record_block`]. A restart closes the EOB run, records the marker
/// and resets the predictors.
fn record_scan(
    ci: &CoeffImage,
    scan: Scan,
    restart_interval: u16,
    rec: &mut ScanRecorder,
) -> Result<()> {
    let (level, comps) = (crate::simd::simd_level(), scan.comps(ci.components.len()));
    // Only a one-component AC scan leaves EOB runs open across blocks.
    let tbl = tbl_for_component(comps[0]);
    let mut carry = Carry::default();
    ScanWalk::new(ci, comps, restart_interval).walk(|step| {
        match step {
            Step::Restart(n) => {
                rec.flush_eob(tbl, &mut carry.eobrun);
                rec.restart(n);
                carry = Carry::default();
            }
            Step::Blocks(i, y, xs) => {
                let comp = &ci.components[comps[i]];
                for b in &comp.blocks[y * comp.padded_w..][xs] {
                    record_block(rec, &mut carry, scan, level, comps[i], b);
                }
            }
        }
        Ok(())
    })?;
    rec.flush_eob(tbl, &mut carry.eobrun);
    Ok(())
}

/// Record `block` of component `c` under `scan` — the decoder's one band
/// rule, run forwards: the DC term iff `Ss = 0`, the AC band
/// `max(Ss, 1)..=Se` iff `Se > 0`, each a first pass when `Ah = 0` and a
/// refinement otherwise. A sequential scan (DC and AC in one) closes its
/// EOB run after every block, and a run of one is the sequential EOB.
fn record_block(
    rec: &mut ScanRecorder,
    carry: &mut Carry,
    scan: Scan,
    level: SimdLevel,
    c: usize,
    block: &Block,
) {
    let tbl = tbl_for_component(c);
    if scan.ss == 0 {
        if scan.ah == 0 {
            // DC uses arithmetic shift per spec
            emit_dc(rec, tbl, block[0] >> scan.al, &mut carry.last_dc[c]);
        } else {
            rec.bits(((block[0] >> scan.al) & 1) as u64, 1);
        }
    }
    if scan.se == 0 {
        return;
    }
    let (ss, se, al) = (usize::from(scan.ss.max(1)), usize::from(scan.se), scan.al);
    let eobrun = &mut carry.eobrun;
    if scan.ah == 0 {
        // A block with nothing to code at this precision only extends
        // the EOB run.
        let zz = band_mask(level, block, 1 << al, ss, se);
        if zz != 0 {
            rec.flush_eob(tbl, eobrun);
        }
        if emit_ac_first(rec, tbl, block, zz, ss as u32 - 1, al) != se as u32 {
            *eobrun += 1;
            if *eobrun == 0x7FFF || scan.ss == 0 {
                rec.flush_eob(tbl, eobrun);
            }
        }
        return;
    }
    // The correction-bit refinement of ITU T.81 §G.1.2.3 / figure G.7.
    // Nonzero at this precision: already significant (|v| ≥ 2^(Al+1), a
    // correction bit each) or newly so (a run/1 symbol each).
    let nonzero = band_mask(level, block, 1 << al, ss, se);
    let newly = nonzero & !band_mask(level, block, 2 << al, ss, se);
    // One past the last newly significant position: ZRLs are coded only
    // before it; past it, zeros fold into the next EOB.
    let eob = 64 - newly.leading_zeros();
    let (mut zz, mut prev, mut run) = (nonzero, ss as u32 - 1, 0);
    // This block's correction bits not yet recorded, at most 63.
    let (mut bits, mut nbits) = (0u64, 0);
    while zz != 0 {
        let z = zz.trailing_zeros();
        zz &= zz - 1;
        run += z - prev - 1;
        prev = z;
        while run > 15 && z < eob {
            rec.flush_eob(tbl, eobrun);
            rec.symbol(Class::Ac, tbl, 0xF0);
            rec.bits(bits, nbits);
            (bits, nbits) = (0, 0);
            run -= 16;
        }
        let v = block[usize::from(UNZIGZAG[z as usize])];
        if (newly >> z) & 1 == 0 {
            bits = (bits << 1) | u64::from((v.unsigned_abs() >> al) & 1);
            nbits += 1;
            continue;
        }
        rec.flush_eob(tbl, eobrun);
        rec.symbol_bits(Class::Ac, tbl, ((run as u8) << 4) | 1, u32::from(v > 0), 1);
        rec.bits(bits, nbits);
        (bits, nbits, run) = (0, 0, 0);
    }
    if run + se as u32 - prev > 0 || nbits > 0 {
        *eobrun += 1;
        rec.pending_bits += nbits as usize;
        pack_bits(&mut rec.pending, bits, nbits);
        // Guard the counters like IJG does.
        if *eobrun == 0x7FFF || rec.pending_bits > 937 {
            rec.flush_eob(tbl, eobrun);
        }
    }
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

/// `scan`'s SOS header: each component's id and the tables it names
/// ([`Scan::tables`]; 0 where it names none), then `Ss`, `Se`, `Ah`/`Al`.
fn write_sos(out: &mut Vec<u8>, ci: &CoeffImage, scan: Scan) {
    let (comps, (dc, ac)) = (scan.comps(ci.components.len()), scan.tables());
    let mut payload = Vec::with_capacity(4 + 2 * comps.len());
    payload.push(comps.len() as u8);
    for &c in comps {
        let tbl = tbl_for_component(c) as u8;
        payload.push(ci.components[c].id);
        payload.push((if dc { tbl << 4 } else { 0 }) | if ac { tbl } else { 0 });
    }
    payload.extend_from_slice(&[scan.ss, scan.se, (scan.ah << 4) | scan.al]);
    write_segment(out, marker::SOS, &payload);
}

// ---------------------------------------------------------------------------
// Top-level encode
// ---------------------------------------------------------------------------

/// The one way a recorded scan becomes bytes: a DHT for each table the
/// scan names — built from the recorded symbol counts, or taken from
/// `fixed` (indexed like [`ScanRecorder::freq`]) — then DRI if the scan
/// restarts, the SOS header, and the op stream replayed straight into
/// `out`, which grows once, by the scan's size.
fn emit_scan(
    out: &mut Vec<u8>,
    rec: &mut ScanRecorder,
    fixed: Option<&[HuffSpec; 4]>,
    ci: &CoeffImage,
    scan: Scan,
    restart_interval: u16,
) -> Result<()> {
    if rec.out_of_range {
        return Err(JpegError::Invalid(
            "coefficient out of range: an AC magnitude past 15 bits or a DC difference past 11"
                .into(),
        ));
    }
    let (comps, (dc, ac)) = (scan.comps(ci.components.len()), scan.tables());
    let mut tables: [Option<HuffEncoder>; 4] = [None, None, None, None];
    let mut bits = rec.extra_bits;
    let mut head = std::mem::take(&mut rec.head);
    head.clear();
    for id in 0..2u8 {
        if !comps.iter().any(|&c| tbl_for_component(c) == usize::from(id)) {
            continue;
        }
        for (class, _) in [(Class::Dc, dc), (Class::Ac, ac)].into_iter().filter(|&(_, t)| t) {
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
            for (&n, sym) in counts.filter(|&(&n, _)| n > 0) {
                // Only a fixed table can lack a used symbol: the Annex-K AC
                // tables stop at category 10.
                match enc.size_of(sym) {
                    0 => {
                        return Err(JpegError::Invalid(format!(
                            "symbol {sym:#04x} has no code in the fixed tables: an AC magnitude \
                             past 1023 needs an optimized mode"
                        )))
                    }
                    len => bits += n as usize * usize::from(len),
                }
            }
            tables[table] = Some(enc);
        }
    }
    if restart_interval > 0 {
        write_segment(&mut head, marker::DRI, &restart_interval.to_be_bytes());
    }
    write_sos(&mut head, ci, scan);
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
    let script = match (mode, ci.components.len()) {
        (Mode::Progressive, 1) => PROGRESSIVE_GRAY,
        (Mode::Progressive, 3) => PROGRESSIVE_YCC,
        (Mode::Progressive, n) => {
            return Err(JpegError::Unsupported(format!("{n}-component progressive")))
        }
        _ => SEQUENTIAL,
    };
    // Every other mode builds each scan's tables from its symbol counts.
    let annex_k = (mode == Mode::Baseline)
        .then(|| [default_dc_luma(), default_dc_chroma(), default_ac_luma(), default_ac_chroma()]);
    let mut out = Vec::new();
    out.extend_from_slice(&[0xFF, marker::SOI]);
    write_jfif_app0(&mut out);
    write_dqt_segments(&mut out, ci);
    write_sof(&mut out, ci, mode == Mode::Progressive);
    SCRATCH.with_borrow_mut(|rec| {
        let done = script.iter().try_for_each(|&scan| {
            rec.begin(ci);
            record_scan(ci, scan, restart_interval, rec)?;
            emit_scan(&mut out, rec, annex_k.as_ref(), ci, scan, restart_interval)
        });
        if rec.bytes() > SCRATCH_KEPT {
            *rec = ScanRecorder::default();
        }
        done
    })?;
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
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let jpg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
        let summary = crate::marker::summarize(&jpg).unwrap();
        assert!(summary.progressive);
    }

    #[test]
    fn gray_encoding_works() {
        let mut img = Plane::new(24, 24);
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
        let mut walk = crate::marker::segments(&jpg);
        walk.find(|s| s.as_ref().unwrap().0 == crate::marker::SOS).unwrap().unwrap();
        let entropy = walk.entropy().unwrap();
        let has_rst = entropy.windows(2).any(|w| w[0] == 0xFF && (0xD0..=0xD7).contains(&w[1]));
        assert!(has_rst, "no restart markers in entropy data");
    }

    #[test]
    fn rejects_oversize() {
        let ci = CoeffImage::zeroed(16, 16, vec![QuantTable::luma(90)], &[(1, 1)], &[0]).unwrap();
        assert!(encode_coeffs(&ci, Mode::Baseline, 0).is_ok());
    }

    /// Every script is a legal progression (T.81 G.1.1.1), so a typo in
    /// one fails here with its scan's index rather than as a golden-hash
    /// mismatch: per component, the DC first pass precedes every AC scan;
    /// each coefficient is coded by one first pass, then by refinements
    /// whose `Ah` is the previous `Al` (so no bit twice), down to `Al = 0`;
    /// and a progressive AC scan names one component.
    #[test]
    fn every_script_is_a_legal_progression() {
        let scripts = [
            ("sequential", SEQUENTIAL, 1),
            ("sequential", SEQUENTIAL, 3),
            ("gray", PROGRESSIVE_GRAY, 1),
            ("ycc", PROGRESSIVE_YCC, 3),
        ];
        for (name, script, ncomp) in scripts {
            // Per component and zig-zag position: the `Al` coded down to,
            // `None` until a first pass codes it.
            let mut coded = vec![[None::<u8>; 64]; ncomp];
            for (i, s) in script.iter().enumerate() {
                let at = format!("{name} scan {i} ({s:?})");
                assert!(s.ss <= s.se && s.se <= 63, "{at}: bad band");
                assert!(s.comp.is_none_or(|c| c < ncomp), "{at}: no such component");
                assert!(s.ah == 0 || s.al + 1 == s.ah, "{at}: refines more than one bit");
                if script.len() > 1 {
                    assert!(s.ss > 0 || s.se == 0, "{at}: DC and AC in one progressive scan");
                    assert!(s.ss == 0 || s.comp.is_some(), "{at}: interleaved AC scan");
                }
                // The band rule's DC term and AC band together are `Ss..=Se`.
                for &c in s.comps(ncomp) {
                    for k in usize::from(s.ss)..=usize::from(s.se) {
                        assert!(k == 0 || coded[c][0].is_some(), "{at}: AC of {c} before its DC");
                        let want = (s.ah > 0).then_some(s.ah);
                        assert_eq!(coded[c][k], want, "{at}: component {c} coefficient {k}");
                        coded[c][k] = Some(s.al);
                    }
                }
            }
            for (c, coded) in coded.iter().enumerate() {
                assert!(coded.iter().all(|&al| al == Some(0)), "{name}: {c} ends at {coded:?}");
            }
        }
    }

    /// A refine scan that is nothing but correction bits records a few
    /// ops a block, not one per bit. The ratio does not depend on the
    /// image size or the machine, so it gates the refinement's cost without
    /// a timer.
    #[test]
    fn a_pure_refinement_scan_records_few_ops_per_block() {
        let mut ci =
            CoeffImage::zeroed(64, 48, vec![QuantTable::luma(90)], &[(1, 1)], &[0]).unwrap();
        for (i, b) in ci.components[0].blocks.iter_mut().enumerate() {
            for (k, v) in b.iter_mut().enumerate().skip(1) {
                let m = 2 + ((i * 7 + k * 13) % 60) as i32;
                *v = if (i + k) % 3 == 0 { -m } else { m };
            }
        }
        let mut rec = ScanRecorder::default();
        rec.begin(&ci);
        let refine = Scan { comp: Some(0), ss: 1, se: 63, ah: 1, al: 0 };
        record_scan(&ci, refine, 0, &mut rec).unwrap();
        let blocks = ci.components[0].blocks.len();
        let ops = rec.ops.len();
        assert!(ops <= 3 * blocks, "{ops} ops for {blocks} blocks of 63 correction bits");
    }

    /// Planes encode at the sampling they are listed with — the decoder's
    /// planes of a 4:2:0 frame give back its coefficients — and a plane of
    /// another size, or a missing one, is refused, not read past.
    #[test]
    fn planes_encode_at_their_listed_sampling() {
        let ci = pixels_to_coeffs(&test_rgb(37, 21), 85, Subsampling::S420).unwrap();
        let mut planes = Vec::new();
        crate::decoder::coeffs_to_planes_into(&ci, &mut planes).unwrap();
        let sampling = [(2, 2), (1, 1), (1, 1)];
        let mut again = CoeffImage::default();
        planes_to_coeffs_into(&planes, (37, 21), &sampling, 85, &mut again).unwrap();
        assert_eq!(again.components.len(), 3);
        assert_eq!((again.components[1].blocks_w, again.components[1].blocks_h), (3, 2));
        let invalid = |r: Result<()>| assert!(matches!(r, Err(JpegError::Invalid(_))), "{r:?}");
        invalid(planes_to_coeffs_into(&planes, (37, 21), &[(1, 1); 3], 85, &mut again));
        invalid(planes_to_coeffs_into(&planes[..2], (37, 21), &sampling, 85, &mut again));
        invalid(planes_to_coeffs_into(&planes, (38, 21), &sampling, 85, &mut again));
    }

    /// A coefficient the format cannot carry is an encode error in every
    /// mode, not a stream the decoder refuses.
    #[test]
    fn coefficients_the_format_cannot_carry_are_refused() {
        let qt = || vec![QuantTable::luma(90)];
        // |AC| = 245 761 is an 18-bit category; the symbol's size nibble
        // holds 15.
        let mut ac = CoeffImage::zeroed(16, 16, qt(), &[(1, 1)], &[0]).unwrap();
        ac.components[0].blocks[3][9] = -245_761;
        // DCs ramp 0, 2000, 4000, 6000 along each 4-block row: where a row
        // wraps, the difference is -6000, a 13-bit category (11 is the
        // most a DC difference may have). DRI 4 restarts the predictor
        // there instead.
        let mut dc = CoeffImage::zeroed(32, 16, qt(), &[(1, 1)], &[0]).unwrap();
        for (i, b) in dc.components[0].blocks.iter_mut().enumerate() {
            b[0] = 2000 * (i % 4) as i32;
        }
        for mode in [Mode::Baseline, Mode::BaselineOptimized, Mode::Progressive] {
            for (what, ci) in [("AC", &ac), ("DC", &dc)] {
                let got = encode_coeffs(ci, mode, 0);
                assert!(matches!(got, Err(JpegError::Invalid(_))), "{what} {mode:?}: {got:?}");
            }
            let jpeg = encode_coeffs(&dc, mode, 4).unwrap();
            let (back, _) = crate::decode_to_coeffs(&jpeg).unwrap();
            assert_eq!(back.components[0].blocks, dc.components[0].blocks, "{mode:?}");
        }
    }

    /// The Annex-K AC tables stop at category 10 (|AC| ≤ 1 023). A larger
    /// AC value is legal JPEG, so the table-building modes carry it, but
    /// `Mode::Baseline` has no code for its symbol and must refuse it
    /// rather than write a zero-length code its decoder cannot read.
    #[test]
    fn baseline_refuses_ac_values_its_fixed_tables_cannot_code() {
        let image = |v: i32| {
            let mut ci =
                CoeffImage::zeroed(16, 16, vec![QuantTable::luma(90)], &[(1, 1)], &[0]).unwrap();
            ci.components[0].blocks[3][9] = v;
            ci
        };
        let round_trips = |ci: &CoeffImage, mode: Mode| {
            let jpeg = encode_coeffs(ci, mode, 0).unwrap();
            let (back, _) = crate::decode_to_coeffs(&jpeg).unwrap();
            assert_eq!(back.components[0].blocks, ci.components[0].blocks, "{mode:?}");
        };
        for v in [1024, -1024, 32_767] {
            let ci = image(v);
            let got = encode_coeffs(&ci, Mode::Baseline, 0).map(|jpeg| jpeg.len());
            assert!(matches!(got, Err(JpegError::Invalid(_))), "AC {v} Baseline: {got:?} bytes");
            round_trips(&ci, Mode::BaselineOptimized);
            round_trips(&ci, Mode::Progressive);
        }
        round_trips(&image(1023), Mode::Baseline);
        round_trips(&image(-1023), Mode::Baseline);
    }
}

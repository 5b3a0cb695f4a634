//! JPEG decoding: bitstream → coefficients → pixels.
//!
//! [`decode_to_coeffs`] stops at the quantized-coefficient domain — the
//! representation the P3 algorithm manipulates — while [`decode_to_rgb`]
//! completes the conventional pipeline (dequantize, IDCT, upsample, color
//! convert). Baseline (SOF0/SOF1) and progressive (SOF2) streams are both
//! handled, including multiple scans, table redefinition between scans,
//! and 16-bit quantization tables.
//!
//! Every scan, sequential or progressive, is read the same way: the
//! block module's `ScanWalk` hands out its blocks in stream order and
//! says where its restart markers fall, so a restart interval holds in
//! every kind of scan, and each block is decoded by one band rule
//! (`Band::decode`).

use crate::bitio::BitReader;
use crate::block::{Block, CoeffImage, ScanWalk, Step};
use crate::color::{planes_to_rgb, upsample, Plane};
use crate::huffman::{HuffDecoder, HuffSpec};
use crate::image::RgbImage;
use crate::marker;
use crate::quant::AanDequantizer;
use crate::quant::QuantTable;
use crate::zigzag::UNZIGZAG;
use crate::{JpegError, Result};

/// Longest side a frame header may claim. A 64×64 stream whose header
/// says 65 535² would otherwise be a 12 GB allocation to whoever decodes
/// it — the PSP, or the trusted proxy splitting an upload.
pub const MAX_SIDE: usize = 8192;

/// Metadata gathered while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedInfo {
    /// True if the stream was progressive (SOF2).
    pub progressive: bool,
    /// Number of entropy-coded scans encountered.
    pub scans: usize,
}

#[derive(Default)]
struct Decoder {
    qtables: [Option<QuantTable>; 4],
    dc_tables: [Option<HuffDecoder>; 4],
    ac_tables: [Option<HuffDecoder>; 4],
    frame: Option<CoeffImage>,
    /// A coefficient image whose allocations the frame may take over.
    recycled: CoeffImage,
    progressive: bool,
    restart_interval: u16,
    scans: usize,
}

/// A segment too short, or too long, for the fields it declares.
fn mismatch(segment: &str) -> JpegError {
    JpegError::Format(format!("{segment} length mismatch"))
}

impl Decoder {
    /// Read every segment [`marker::segments`] walks, up to EOI.
    fn run(&mut self, data: &[u8]) -> Result<()> {
        let mut walk = marker::segments(data);
        while let Some(segment) = walk.next() {
            let (m, payload) = segment?;
            match m {
                marker::EOI if self.frame.is_none() => {
                    return Err(JpegError::Format("EOI before any frame".into()));
                }
                marker::EOI => return Ok(()),
                marker::SOF0 | marker::SOF1 | marker::SOF2 => {
                    self.progressive = m == marker::SOF2;
                    self.parse_sof(payload)?;
                }
                0xC3 | 0xC5..=0xC7 | 0xC9..=0xCB | 0xCD..=0xCF => {
                    return Err(JpegError::Unsupported(format!("SOF marker FF{m:02X}")));
                }
                marker::DHT => self.parse_dht(payload)?,
                marker::DQT => self.parse_dqt(payload)?,
                marker::DRI => {
                    let &[hi, lo] = payload else {
                        return Err(JpegError::Format("bad DRI length".into()));
                    };
                    self.restart_interval = u16::from_be_bytes([hi, lo]);
                }
                marker::SOS => {
                    let consumed = self.decode_scan(payload, walk.scan_data())?;
                    walk.resume(consumed);
                }
                // APPn, COM, DNL, stray standalone markers: nothing the
                // decoder reads.
                _ => {}
            }
        }
        Err(JpegError::Truncated) // not reached: the walk ends at EOI or an error
    }

    fn parse_sof(&mut self, payload: &[u8]) -> Result<()> {
        if self.frame.is_some() {
            return Err(JpegError::Unsupported("multiple frames".into()));
        }
        let header = marker::FrameHeader::parse(payload)?;
        let (width, height) = (header.width, header.height);
        if header.precision != 8 {
            return Err(JpegError::Unsupported(format!("{}-bit precision", header.precision)));
        }
        if width == 0 || height == 0 {
            return Err(JpegError::Unsupported("DNL-deferred dimensions".into()));
        }
        if width > MAX_SIDE || height > MAX_SIDE {
            return Err(JpegError::TooLarge { width, height });
        }
        let sampling: Vec<(u8, u8)> = header.components().map(|(_, hv, _)| hv).collect();
        let quant_map: Vec<usize> = header.components().map(|(_, _, tq)| tq).collect();
        // Materialize quant tables referenced so far; tables defined after
        // SOF (legal) are patched into the CoeffImage lazily at scan time —
        // we instead require them pre-SOS which all real encoders satisfy.
        let max_tq = quant_map.iter().copied().max().unwrap_or(0);
        let mut qtables = Vec::new();
        for i in 0..=max_tq {
            qtables.push(self.qtables[i].clone().unwrap_or_else(|| QuantTable::flat(1)));
        }
        let mut frame = std::mem::take(&mut self.recycled);
        frame.reset(width, height, qtables, &sampling, &quant_map)?;
        for (c, (id, _, _)) in frame.components.iter_mut().zip(header.components()) {
            c.id = id;
        }
        self.frame = Some(frame);
        Ok(())
    }

    fn parse_dqt(&mut self, mut payload: &[u8]) -> Result<()> {
        while let Some((&pq_tq, rest)) = payload.split_first() {
            let pq = pq_tq >> 4;
            let tq = usize::from(pq_tq & 0x0F);
            if tq > 3 {
                return Err(JpegError::Format("DQT table id > 3".into()));
            }
            if pq > 1 {
                return Err(JpegError::Format("DQT precision > 1".into()));
            }
            let (zz, rest) = rest.split_at_checked(64 << pq).ok_or_else(|| mismatch("DQT"))?;
            let table = if pq == 0 {
                QuantTable::from_zigzag_bytes(zz.try_into().expect("64 bytes"))
            } else {
                let mut words = [0u16; 64];
                for (w, b) in words.iter_mut().zip(zz.chunks_exact(2)) {
                    *w = u16::from_be_bytes([b[0], b[1]]);
                }
                QuantTable::from_zigzag_words(&words)
            };
            // Keep the CoeffImage's copy in sync if the frame exists already.
            if let Some(frame) = self.frame.as_mut() {
                while frame.qtables.len() <= tq {
                    frame.qtables.push(QuantTable::flat(1));
                }
                frame.qtables[tq] = table.clone();
            }
            self.qtables[tq] = Some(table);
            payload = rest;
        }
        Ok(())
    }

    fn parse_dht(&mut self, mut payload: &[u8]) -> Result<()> {
        while let Some((&tc_th, rest)) = payload.split_first() {
            let tc = tc_th >> 4;
            let th = usize::from(tc_th & 0x0F);
            if tc > 1 || th > 3 {
                return Err(JpegError::Format("bad DHT class/id".into()));
            }
            let (bits, rest) = rest.split_first_chunk::<16>().ok_or_else(|| mismatch("DHT"))?;
            let total: usize = bits.iter().map(|&b| b as usize).sum();
            let (values, rest) = rest.split_at_checked(total).ok_or_else(|| mismatch("DHT"))?;
            let spec = HuffSpec { bits: *bits, values: values.to_vec() };
            let dec = HuffDecoder::from_spec(&spec)?;
            if tc == 0 {
                self.dc_tables[th] = Some(dec);
            } else {
                self.ac_tables[th] = Some(dec);
            }
            payload = rest;
        }
        Ok(())
    }

    /// Decode the scan an SOS `header` opens from `data`, its
    /// entropy-coded segment and whatever follows; returns the bytes read.
    fn decode_scan(&mut self, header: &[u8], data: &[u8]) -> Result<usize> {
        let (&ns, rest) = header.split_first().ok_or_else(|| mismatch("SOS"))?;
        let ns = usize::from(ns);
        if ns == 0 || ns > 4 {
            return Err(JpegError::Format(format!("{ns} scan components")));
        }
        let &[ref specs @ .., ss, se, ah_al] = rest else {
            return Err(mismatch("SOS"));
        };
        if specs.len() != 2 * ns {
            return Err(mismatch("SOS"));
        }
        let (ss, se) = (usize::from(ss), usize::from(se));
        let (ah, al) = (ah_al >> 4, ah_al & 0x0F);
        if ss > 63 || se > 63 || ss > se {
            return Err(JpegError::Format("bad spectral selection".into()));
        }
        // T.81 B.2.3: a successive-approximation bit position is 0..=13.
        if ah > 13 || al > 13 {
            return Err(JpegError::Format(format!("successive approximation Ah {ah} Al {al}")));
        }
        if !self.progressive && (ss != 0 || se != 63 || ah != 0 || al != 0) {
            return Err(JpegError::Format("baseline scan with progressive params".into()));
        }
        if self.progressive && ss == 0 && se != 0 {
            return Err(JpegError::Format("progressive DC scan with Se != 0".into()));
        }
        if self.progressive && ss > 0 && ns != 1 {
            return Err(JpegError::Format("interleaved progressive AC scan".into()));
        }
        let frame =
            self.frame.as_mut().ok_or_else(|| JpegError::Format("SOS before SOF".into()))?;
        let mut comps = [0usize; 4];
        let mut band = Band {
            ss,
            se,
            ah,
            al,
            progressive: self.progressive,
            tables: [(None, None); 4],
            last_dc: [0; 4],
            eobrun: 0,
        };
        let scan = comps.iter_mut().zip(&mut band.tables).zip(specs.chunks_exact(2));
        for ((comp, tables), spec) in scan {
            let (cs, tt) = (spec[0], spec[1]);
            *comp = frame.components.iter().position(|c| c.id == cs).ok_or_else(|| {
                JpegError::Format(format!("scan references unknown component {cs}"))
            })?;
            let (td, ta) = (usize::from(tt >> 4), usize::from(tt & 0x0F));
            if td > 3 || ta > 3 {
                return Err(JpegError::Format(format!("SOS names Huffman table {td}/{ta}")));
            }
            *tables = (self.dc_tables[td].as_ref(), self.ac_tables[ta].as_ref());
        }
        self.scans += 1;

        // One restart rule: the marker, its index, then the DC
        // predictors and the EOB run start over.
        let mut r = BitReader::new(data);
        ScanWalk::new(frame, &comps[..ns], self.restart_interval).walk(|step| match step {
            Step::Restart(n) => {
                let got = r.read_restart()?;
                if got != n {
                    return Err(JpegError::Format(format!(
                        "restart marker out of order: got {got}, want {n}"
                    )));
                }
                (band.last_dc, band.eobrun) = ([0; 4], 0);
                Ok(())
            }
            Step::Blocks(i, y, xs) => {
                let comp = &mut frame.components[comps[i]];
                for block in &mut comp.blocks[y * comp.padded_w..][xs] {
                    band.decode(&mut r, i, block)?;
                }
                Ok(())
            }
        })?;
        Ok(r.resume_position())
    }
}

fn missing(class: &str) -> JpegError {
    JpegError::Format(format!("missing {class} table"))
}

/// One scan's coding parameters, and what a restart resets.
struct Band<'t> {
    /// Spectral selection `Ss..=Se`.
    ss: usize,
    se: usize,
    /// Successive approximation: the bit position before (`Ah`, 0 on a
    /// first pass) and after (`Al`) this scan.
    ah: u8,
    al: u8,
    /// Only a progressive scan may code an EOB run (`EOBn`, n > 0).
    progressive: bool,
    /// `(DC, AC)` tables of each scan component, as its header names them.
    tables: [(Option<&'t HuffDecoder>, Option<&'t HuffDecoder>); 4],
    /// DC predictor of each scan component.
    last_dc: [i32; 4],
    /// Blocks the current EOB run still covers.
    eobrun: u32,
}

impl Band<'_> {
    /// Decode the `i`-th scan component's next block: its DC term iff
    /// `Ss = 0`, its AC band `max(Ss, 1)..=Se` iff `Se > 0`, each a first
    /// pass when `Ah = 0` and a refinement otherwise. A sequential block
    /// is a DC and an AC first pass at `Al = 0`.
    fn decode(&mut self, r: &mut BitReader<'_>, i: usize, block: &mut Block) -> Result<()> {
        let (dc, ac) = self.tables[i];
        if self.ss == 0 {
            if self.ah == 0 {
                let s = dc.ok_or_else(|| missing("DC"))?.decode(r)?;
                if s > 11 {
                    return Err(JpegError::Format("DC size > 11".into()));
                }
                self.last_dc[i] += r.receive_extend(u32::from(s))?;
                block[0] = self.last_dc[i] << self.al;
            } else if r.get_bit()? == 1 {
                block[0] |= 1 << self.al;
            }
        }
        if self.se == 0 {
            return Ok(());
        }
        let ac = ac.ok_or_else(|| missing("AC"))?;
        if self.ah == 0 {
            self.ac_first(r, ac, block)
        } else {
            self.ac_refine(r, ac, block)
        }
    }

    fn ac_first(
        &mut self,
        r: &mut BitReader<'_>,
        ac: &HuffDecoder,
        block: &mut Block,
    ) -> Result<()> {
        if self.eobrun > 0 {
            self.eobrun -= 1;
            return Ok(());
        }
        let mut k = self.ss.max(1);
        while k <= self.se {
            let rs = ac.decode(r)?;
            let (run, size) = (usize::from(rs >> 4), u32::from(rs & 0x0F));
            if size != 0 {
                k += run;
                if k > self.se {
                    return Err(JpegError::Format("AC index overrun".into()));
                }
                block[usize::from(UNZIGZAG[k])] = r.receive_extend(size)? << self.al;
                k += 1;
            } else if run == 15 {
                k += 16; // ZRL
            } else {
                if run > 0 && !self.progressive {
                    return Err(JpegError::Format("EOB run in a sequential scan".into()));
                }
                self.eobrun = (1 << run) - 1 + r.get_bits(run as u32)?;
                break;
            }
        }
        Ok(())
    }

    fn ac_refine(
        &mut self,
        r: &mut BitReader<'_>,
        ac: &HuffDecoder,
        block: &mut Block,
    ) -> Result<()> {
        let (ss, se) = (self.ss.max(1), self.se);
        let p1: i32 = 1 << self.al;
        let m1: i32 = -1 << self.al;
        let mut k = ss;
        if self.eobrun == 0 {
            while k <= se {
                let rs = ac.decode(r)?;
                let mut run = i32::from(rs >> 4);
                let size = rs & 0x0F;
                let mut newval = 0i32;
                if size != 0 {
                    if size != 1 {
                        return Err(JpegError::Format("refine scan size != 1".into()));
                    }
                    newval = if r.get_bit()? == 1 { p1 } else { m1 };
                } else if run != 15 {
                    self.eobrun = (1 << run) + r.get_bits(run as u32)?;
                    break;
                }
                // Advance over already-nonzero coefficients (reading a
                // correction bit for each) and `run` still-zero ones.
                while k <= se {
                    let coef = &mut block[usize::from(UNZIGZAG[k])];
                    if *coef != 0 {
                        if r.get_bit()? == 1 && (*coef & p1) == 0 {
                            if *coef >= 0 {
                                *coef += p1;
                            } else {
                                *coef += m1;
                            }
                        }
                    } else {
                        run -= 1;
                        if run < 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                if newval != 0 {
                    if k > se {
                        return Err(JpegError::Format("refine index overrun".into()));
                    }
                    block[usize::from(UNZIGZAG[k])] = newval;
                }
                k += 1;
            }
        }
        if self.eobrun > 0 {
            // Remaining positions: correction bits for nonzeros only.
            while k <= se {
                let coef = &mut block[usize::from(UNZIGZAG[k])];
                if *coef != 0 && r.get_bit()? == 1 && (*coef & p1) == 0 {
                    if *coef >= 0 {
                        *coef += p1;
                    } else {
                        *coef += m1;
                    }
                }
                k += 1;
            }
            self.eobrun -= 1;
        }
        Ok(())
    }
}

/// Decode a JPEG bitstream into quantized coefficients plus stream
/// metadata. Works for baseline and progressive streams.
pub fn decode_to_coeffs(data: &[u8]) -> Result<(CoeffImage, DecodedInfo)> {
    let mut frame = CoeffImage::default();
    let info = decode_to_coeffs_into(data, &mut frame)?;
    Ok((frame, info))
}

/// [`decode_to_coeffs`] into a caller's coefficient image, whose block
/// allocations the decoded frame takes over. On an error the image is
/// left empty.
pub fn decode_to_coeffs_into(data: &[u8], frame: &mut CoeffImage) -> Result<DecodedInfo> {
    let mut d = Decoder { recycled: std::mem::take(frame), ..Decoder::default() };
    d.run(data)?;
    *frame = d.frame.take().expect("run() guarantees a frame");
    Ok(DecodedInfo { progressive: d.progressive, scans: d.scans })
}

/// Reconstruct the sample planes of each component (dequantize + IDCT),
/// cropped to real component dimensions — each at its own sampling, no
/// chroma upsampled — into a caller's planes, overwritten whatever they
/// held.
pub fn coeffs_to_planes_into(ci: &CoeffImage, planes: &mut Vec<Plane>) -> Result<()> {
    ci.validate()?;
    let h_max = ci.h_max() as usize;
    let v_max = ci.v_max() as usize;
    planes.resize_with(ci.components.len(), Plane::default);
    let level = crate::simd::simd_level();
    for (comp, plane) in ci.components.iter().zip(planes.iter_mut()) {
        // Hot path: dequantization scale factors (quant step × AAN scale ×
        // fixed-point scale) folded into one table per component, then the
        // integer AAN inverse butterflies per block — SIMD-dispatched per
        // [`crate::simd`]. Each block is written straight into the plane,
        // clipped to the real component size; padding blocks wholly
        // outside it are never transformed.
        let dequantizer = AanDequantizer::new(&ci.qtables[comp.quant_idx]);
        let samp_w = (ci.width * comp.h_samp as usize).div_ceil(h_max);
        let samp_h = (ci.height * comp.v_samp as usize).div_ceil(v_max);
        if samp_w.div_ceil(8) > comp.padded_w || samp_h.div_ceil(8) > comp.padded_h {
            return Err(JpegError::Invalid("frame size exceeds the block grid".into()));
        }
        plane.reset(samp_w, samp_h);
        for (by, band) in plane.data.chunks_mut((samp_w * 8).max(1)).enumerate() {
            for bx in 0..samp_w.div_ceil(8) {
                let px = crate::simd::dequant_idct(level, comp.block(bx, by), &dequantizer);
                let (x, n) = (bx * 8, (samp_w - bx * 8).min(8));
                for (sy, row) in band.chunks_mut(samp_w).enumerate() {
                    row[x..x + n].copy_from_slice(&px[sy * 8..sy * 8 + n]);
                }
            }
        }
    }
    Ok(())
}

/// Complete the pixel pipeline from a coefficient image.
pub fn coeffs_to_rgb(ci: &CoeffImage) -> Result<RgbImage> {
    let mut img = RgbImage::default();
    coeffs_to_rgb_into(ci, &mut Vec::new(), &mut img)?;
    Ok(img)
}

/// [`coeffs_to_rgb`] into a caller's image through a caller's sample
/// planes, both overwritten whatever they held.
pub fn coeffs_to_rgb_into(
    ci: &CoeffImage,
    planes: &mut Vec<Plane>,
    img: &mut RgbImage,
) -> Result<()> {
    coeffs_to_planes_into(ci, planes)?;
    match planes.len() {
        1 => {
            let y = &planes[0];
            (img.width, img.height) = (ci.width, ci.height);
            img.data.clear();
            for row in y.data.chunks_exact(y.width.max(1)).take(ci.height) {
                img.data.extend(row[..ci.width].iter().flat_map(|&v| [v, v, v]));
            }
            Ok(())
        }
        3 => {
            let (w, h) = (ci.width, ci.height);
            let (y, cb, cr) = (&planes[0], &planes[1], &planes[2]);
            // Fused fast path for full-size luma + exactly-half chroma
            // (4:2:0): upsample each chroma row into a one-row scratch
            // and convert to RGB in the same pass, instead of
            // materializing three full-size intermediate planes. Row taps
            // and kernels are identical to `upsample` + `planes_to_rgb`,
            // so the output is bit-for-bit the same.
            if y.width == w
                && y.height == h
                && cb.width * 2 == w
                && cb.height * 2 == h
                && cr.width == cb.width
                && cr.height == cb.height
                && w > 0
            {
                let level = crate::simd::simd_level();
                (img.width, img.height) = (w, h);
                img.data.clear();
                img.data.resize(3 * w * h, 0);
                let mut cb_row = vec![0u8; w];
                let mut cr_row = vec![0u8; w];
                for (oy, out_row) in img.data.chunks_mut(3 * w).enumerate() {
                    let k = oy / 2;
                    let (y0, y1, wy) = if oy.is_multiple_of(2) {
                        (k.saturating_sub(1), k, 192)
                    } else {
                        (k, (k + 1).min(cb.height - 1), 64)
                    };
                    let (r0, r1) = (y0 * cb.width, y1 * cb.width);
                    crate::simd::upsample2x_row(
                        level,
                        &cb.data[r0..r0 + cb.width],
                        &cb.data[r1..r1 + cb.width],
                        wy,
                        &mut cb_row,
                    );
                    crate::simd::upsample2x_row(
                        level,
                        &cr.data[r0..r0 + cr.width],
                        &cr.data[r1..r1 + cr.width],
                        wy,
                        &mut cr_row,
                    );
                    crate::simd::ycbcr_rows_to_rgb(
                        level,
                        &y.data[oy * w..oy * w + w],
                        &cb_row,
                        &cr_row,
                        out_row,
                    );
                }
                return Ok(());
            }
            let y = upsample(y, w, h);
            let cb = upsample(cb, w, h);
            let cr = upsample(cr, w, h);
            *img = planes_to_rgb(&y, &cb, &cr);
            Ok(())
        }
        n => Err(JpegError::Unsupported(format!("{n}-component pixel output"))),
    }
}

/// Luma-only pixel output (used by the vision attacks).
pub fn coeffs_to_gray(ci: &CoeffImage) -> Result<Plane> {
    let mut planes = Vec::new();
    coeffs_to_planes_into(ci, &mut planes)?;
    Ok(upsample(&planes[0], ci.width, ci.height))
}

/// Decode straight to RGB pixels.
pub fn decode_to_rgb(data: &[u8]) -> Result<RgbImage> {
    let (ci, _) = decode_to_coeffs(data)?;
    coeffs_to_rgb(&ci)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_coeffs, pixels_to_coeffs, Encoder, Mode, Subsampling};

    fn test_rgb(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let r = (128.0 + 100.0 * ((x as f32) * 0.2).sin()) as u8;
                let g = (128.0 + 100.0 * ((y as f32) * 0.15).cos()) as u8;
                let b = ((x * y) % 256) as u8;
                img.set(x, y, [r, g, b]);
            }
        }
        img
    }

    fn psnr(a: &RgbImage, b: &RgbImage) -> f64 {
        assert_eq!(a.width, b.width);
        assert_eq!(a.height, b.height);
        let mse: f64 = a
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(&x, &y)| {
                let d = f64::from(x) - f64::from(y);
                d * d
            })
            .sum::<f64>()
            / a.data.len() as f64;
        if mse == 0.0 {
            return f64::INFINITY;
        }
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }

    /// One set of buffers through images of every shape the twins
    /// special-case, large before small: each call's results equal the
    /// allocating functions', whatever the buffers held.
    #[test]
    fn into_twins_overwrite_dirty_buffers() {
        use crate::encoder::pixels_to_coeffs_into;
        let shapes = [
            (64, 48, Subsampling::S420),
            (17, 9, Subsampling::S420), // odd: unfused planes, padded blocks
            (40, 24, Subsampling::S444),
            (8, 8, Subsampling::S422),
            (64, 48, Subsampling::S420),
        ];
        let (mut ci, mut planes, mut frame, mut rgb) =
            (CoeffImage::default(), Vec::new(), CoeffImage::default(), RgbImage::default());
        for (w, h, subsampling) in shapes {
            let img = test_rgb(w, h);
            pixels_to_coeffs_into(&img, 85, subsampling, &mut planes, &mut ci).unwrap();
            assert_eq!(ci, pixels_to_coeffs(&img, 85, subsampling).unwrap(), "{w}x{h}");
            let jpeg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
            decode_to_coeffs_into(&jpeg, &mut frame).unwrap();
            assert_eq!(frame, decode_to_coeffs(&jpeg).unwrap().0, "{w}x{h}");
            coeffs_to_rgb_into(&frame, &mut planes, &mut rgb).unwrap();
            assert_eq!(rgb, coeffs_to_rgb(&frame).unwrap(), "{w}x{h}");
        }
        // A failed decode leaves the caller's image empty, not stale.
        assert!(decode_to_coeffs_into(b"not a jpeg", &mut frame).is_err());
        assert_eq!(frame, CoeffImage::default());
    }

    #[test]
    fn coefficient_roundtrip_is_lossless_baseline() {
        let img = test_rgb(48, 32);
        let ci = pixels_to_coeffs(&img, 85, Subsampling::S420).unwrap();
        let jpg = encode_coeffs(&ci, Mode::BaselineOptimized, 0).unwrap();
        let (ci2, info) = decode_to_coeffs(&jpg).unwrap();
        assert!(!info.progressive);
        assert_eq!(ci.components.len(), ci2.components.len());
        for (a, b) in ci.components.iter().zip(ci2.components.iter()) {
            assert_eq!(a.blocks, b.blocks, "component {} coefficients differ", a.id);
        }
    }

    #[test]
    fn coefficient_roundtrip_is_lossless_progressive() {
        let img = test_rgb(48, 32);
        let ci = pixels_to_coeffs(&img, 85, Subsampling::S420).unwrap();
        let jpg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
        let (ci2, info) = decode_to_coeffs(&jpg).unwrap();
        assert!(info.progressive);
        assert!(info.scans >= 6);
        for (a, b) in ci.components.iter().zip(ci2.components.iter()) {
            for by in 0..a.blocks_h {
                for bx in 0..a.blocks_w {
                    assert_eq!(a.block(bx, by), b.block(bx, by), "comp {} block ({bx},{by})", a.id);
                }
            }
        }
    }

    #[test]
    fn coefficient_roundtrip_gray_progressive() {
        let mut img = Plane::new(31, 17);
        for (i, p) in img.data.iter_mut().enumerate() {
            *p = ((i * 7) % 256) as u8;
        }
        let ci = crate::encoder::gray_to_coeffs(&img, 90).unwrap();
        let jpg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
        let (ci2, _) = decode_to_coeffs(&jpg).unwrap();
        for by in 0..ci.components[0].blocks_h {
            for bx in 0..ci.components[0].blocks_w {
                assert_eq!(ci.components[0].block(bx, by), ci2.components[0].block(bx, by));
            }
        }
    }

    #[test]
    fn pixel_roundtrip_psnr_high_quality() {
        let img = test_rgb(64, 64);
        let jpg =
            Encoder::new().quality(95).subsampling(Subsampling::S444).encode_rgb(&img).unwrap();
        let dec = decode_to_rgb(&jpg).unwrap();
        let p = psnr(&img, &dec);
        assert!(p > 32.0, "PSNR {p:.1} too low");
    }

    #[test]
    fn pixel_roundtrip_with_restarts() {
        let img = test_rgb(64, 48);
        let plain = Encoder::new().quality(90).encode_rgb(&img).unwrap();
        let ci = crate::encoder::pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let rst = crate::encoder::encode_coeffs(&ci, Mode::BaselineOptimized, 3).unwrap();
        let a = decode_to_rgb(&plain).unwrap();
        let b = decode_to_rgb(&rst).unwrap();
        assert_eq!(a.data, b.data, "restart markers changed decoded pixels");
    }

    #[test]
    fn odd_dimensions() {
        for (w, h) in [(17, 9), (1, 1), (8, 8), (9, 16), (33, 31)] {
            let img = test_rgb(w, h);
            let jpg = Encoder::new().quality(90).encode_rgb(&img).unwrap();
            let dec = decode_to_rgb(&jpg).unwrap();
            assert_eq!((dec.width, dec.height), (w, h));
        }
    }

    #[test]
    fn progressive_matches_baseline_pixels() {
        let img = test_rgb(56, 40);
        let ci = pixels_to_coeffs(&img, 88, Subsampling::S420).unwrap();
        let base = decode_to_rgb(&encode_coeffs(&ci, Mode::BaselineOptimized, 0).unwrap()).unwrap();
        let prog = decode_to_rgb(&encode_coeffs(&ci, Mode::Progressive, 0).unwrap()).unwrap();
        assert_eq!(base.data, prog.data, "same coefficients must give identical pixels");
    }

    // The encoder tests' golden card.
    include!("../tests/common/card.rs");

    /// Every scan of a progressive stream restarts where DRI says, and
    /// the decoder reads each RST back to the exact coefficients.
    #[test]
    fn progressive_scans_honour_restart_intervals() {
        let rgb = card(0x9e37_79b9 + 1, 75, 56);
        let mut gray = Plane::new(75, 56);
        for (g, px) in gray.data.iter_mut().zip(rgb.data.chunks_exact(3)) {
            *g = px[1];
        }
        let layouts = [
            ("gray", crate::encoder::gray_to_coeffs(&gray, 92).unwrap()),
            ("420", pixels_to_coeffs(&rgb, 92, Subsampling::S420).unwrap()),
        ];
        for (layout, ci) in &layouts {
            for ri in [1u16, 3, 7] {
                let jpeg = encode_coeffs(ci, Mode::Progressive, ri).unwrap();
                let (mut walk, mut dri, mut n) = (marker::segments(&jpeg), false, 0);
                while let Some(segment) = walk.next() {
                    let (m, payload) = segment.unwrap();
                    dri |= m == marker::DRI && payload == ri.to_be_bytes();
                    if m == marker::SOS {
                        let rst = |w: &[u8]| w[0] == 0xFF && (0xD0..=0xD7).contains(&w[1]);
                        let rst = walk.entropy().unwrap().windows(2).any(rst);
                        assert!(rst, "{layout} DRI {ri}: scan {n} has no RST marker");
                        n += 1;
                    }
                }
                assert!(dri, "{layout} DRI {ri}: no DRI segment");
                let (back, info) = decode_to_coeffs(&jpeg).unwrap();
                assert!(info.progressive);
                for (a, b) in ci.components.iter().zip(&back.components) {
                    assert_eq!(a.blocks, b.blocks, "{layout} DRI {ri}: component {}", a.id);
                }
            }
        }
    }

    /// A frame or scan header naming a table id above 3 is malformed.
    #[test]
    fn table_ids_above_three_are_format_errors() {
        let jpeg = Encoder::new().quality(90).encode_rgb(&test_rgb(32, 16)).unwrap();
        // `at` counted from the marker; the SOF's first component spec
        // is `id, h/v, Tq` at 10..13, the SOS's is `id, Td/Ta` at 5..7.
        let patched = |m: u8, at: usize, byte: u8| {
            let pos = jpeg.windows(2).position(|w| w == [0xFF, m]).unwrap();
            let mut out = jpeg.clone();
            out[pos + at] = byte;
            out
        };
        let rows = [
            ("SOF Tq 9", patched(marker::SOF0, 12, 9)),
            ("SOS Td 5", patched(marker::SOS, 6, 0x50)),
            ("SOS Ta 5", patched(marker::SOS, 6, 0x05)),
        ];
        for (what, bad) in rows {
            let got = decode_to_coeffs(&bad);
            assert!(matches!(got, Err(JpegError::Format(_))), "{what}: {got:?}");
        }
    }

    /// T.81 B.2.3 caps a successive-approximation bit position at 13.
    #[test]
    fn approximation_bits_above_thirteen_are_format_errors() {
        let ci = pixels_to_coeffs(&test_rgb(32, 16), 90, Subsampling::S420).unwrap();
        let jpeg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
        let sos: Vec<usize> = (0..jpeg.len() - 1)
            .filter(|&i| jpeg[i] == 0xFF && jpeg[i + 1] == marker::SOS)
            .collect();
        // `Ah/Al` is the header's last byte: at 13 in the three-component
        // DC-first scan, at 9 in a one-component AC scan. The sixth scan
        // refines luma AC from Ah = 2.
        let patched = |scan: usize, at: usize, byte: u8| {
            let mut out = jpeg.clone();
            out[sos[scan] + at] = byte;
            out
        };
        let rows = [
            ("DC first Al 14", patched(0, 13, 0x0E)),
            ("AC first Al 14", patched(1, 9, 0x0E)),
            ("AC refine Ah 14", patched(5, 9, 0xE0 | (jpeg[sos[5] + 9] & 0x0F))),
        ];
        for (what, bad) in rows {
            let got = decode_to_coeffs(&bad);
            assert!(matches!(got, Err(JpegError::Format(_))), "{what}: {got:?}");
        }
        // 13 is legal.
        decode_to_coeffs(&patched(1, 9, 0x0D)).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode_to_coeffs(b"not a jpeg").is_err());
        assert!(decode_to_coeffs(&[0xFF, 0xD8]).is_err());
        assert!(decode_to_coeffs(&[]).is_err());
    }

    #[test]
    fn gray_decode() {
        let mut img = Plane::new(16, 16);
        for (i, p) in img.data.iter_mut().enumerate() {
            *p = if (i / 16 + i % 16) % 2 == 0 { 230 } else { 20 };
        }
        let ci = crate::encoder::gray_to_coeffs(&img, 95).unwrap();
        let jpg = crate::encoder::encode_coeffs(&ci, Mode::BaselineOptimized, 0).unwrap();
        let dec = coeffs_to_gray(&decode_to_coeffs(&jpg).unwrap().0).unwrap();
        assert_eq!((dec.width, dec.height), (16, 16));
        // Checkerboard survives roughly.
        assert!(dec.get(0, 0) > 128);
        assert!(dec.get(1, 0) < 128);
    }
}

//! JPEG decoding: bitstream → coefficients → pixels.
//!
//! [`decode_to_coeffs`] stops at the quantized-coefficient domain — the
//! representation the P3 algorithm manipulates — while [`decode_to_rgb`]
//! completes the conventional pipeline (dequantize, IDCT, upsample, color
//! convert). Baseline (SOF0/SOF1) and progressive (SOF2) streams are both
//! handled, including restart intervals, multiple scans, table
//! redefinition between scans, and 16-bit quantization tables.

use crate::bitio::BitReader;
use crate::block::{CoeffImage, COEFS_PER_BLOCK};
use crate::color::{planes_to_rgb, upsample, Plane};
use crate::huffman::{HuffDecoder, HuffSpec};
use crate::image::{GrayImage, RgbImage};
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
    /// Restart interval in effect for the last scan (0 = none).
    pub restart_interval: u16,
    /// Number of entropy-coded scans encountered.
    pub scans: usize,
}

struct ScanComponent {
    comp_idx: usize,
    dc_tbl: usize,
    ac_tbl: usize,
}

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    qtables: [Option<QuantTable>; 4],
    dc_tables: [Option<HuffDecoder>; 4],
    ac_tables: [Option<HuffDecoder>; 4],
    frame: Option<CoeffImage>,
    /// A coefficient image whose allocations the frame may take over.
    recycled: CoeffImage,
    progressive: bool,
    restart_interval: u16,
    scans: usize,
    /// EOB run carried across blocks within a progressive AC scan.
    eobrun: u32,
}

impl<'a> Decoder<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            qtables: [None, None, None, None],
            dc_tables: [None, None, None, None],
            ac_tables: [None, None, None, None],
            frame: None,
            recycled: CoeffImage::default(),
            progressive: false,
            restart_interval: 0,
            scans: 0,
            eobrun: 0,
        }
    }

    fn take_u8(&mut self) -> Result<u8> {
        let b = *self.data.get(self.pos).ok_or(JpegError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take_u16(&mut self) -> Result<u16> {
        let hi = self.take_u8()?;
        let lo = self.take_u8()?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    fn next_marker(&mut self) -> Result<u8> {
        // Skip any non-FF garbage (robustness over strictness, like libjpeg).
        while self.pos < self.data.len() && self.data[self.pos] != 0xFF {
            self.pos += 1;
        }
        while self.pos < self.data.len() && self.data[self.pos] == 0xFF {
            self.pos += 1;
        }
        if self.pos >= self.data.len() {
            return Err(JpegError::Truncated);
        }
        let m = self.data[self.pos];
        self.pos += 1;
        Ok(m)
    }

    fn run(&mut self) -> Result<()> {
        if self.data.len() < 2 || self.data[0] != 0xFF || self.data[1] != marker::SOI {
            return Err(JpegError::Format("missing SOI".into()));
        }
        self.pos = 2;
        loop {
            let m = self.next_marker()?;
            match m {
                marker::EOI => {
                    if self.frame.is_none() {
                        return Err(JpegError::Format("EOI before any frame".into()));
                    }
                    return Ok(());
                }
                marker::SOF0 | marker::SOF1 | marker::SOF2 => {
                    self.progressive = m == marker::SOF2;
                    self.parse_sof()?;
                }
                0xC3 | 0xC5..=0xC7 | 0xC9..=0xCB | 0xCD..=0xCF => {
                    return Err(JpegError::Unsupported(format!("SOF marker FF{m:02X}")));
                }
                marker::DHT => self.parse_dht()?,
                marker::DQT => self.parse_dqt()?,
                marker::DRI => {
                    let len = self.take_u16()?;
                    if len != 4 {
                        return Err(JpegError::Format("bad DRI length".into()));
                    }
                    self.restart_interval = self.take_u16()?;
                }
                marker::SOS => {
                    self.parse_and_decode_scan()?;
                }
                0x01 | 0xD0..=0xD7 => { /* stray standalone markers: ignore */ }
                _ => {
                    // Skip unknown segments (APPn, COM, DNL, ...).
                    let len = usize::from(self.take_u16()?);
                    if len < 2 || self.pos + len - 2 > self.data.len() {
                        return Err(JpegError::Truncated);
                    }
                    self.pos += len - 2;
                }
            }
        }
    }

    fn parse_sof(&mut self) -> Result<()> {
        if self.frame.is_some() {
            return Err(JpegError::Unsupported("multiple frames".into()));
        }
        let len = usize::from(self.take_u16()?);
        let end = self.pos + len - 2;
        let precision = self.take_u8()?;
        if precision != 8 {
            return Err(JpegError::Unsupported(format!("{precision}-bit precision")));
        }
        let height = usize::from(self.take_u16()?);
        let width = usize::from(self.take_u16()?);
        if width == 0 || height == 0 {
            return Err(JpegError::Unsupported("DNL-deferred dimensions".into()));
        }
        if width > MAX_SIDE || height > MAX_SIDE {
            return Err(JpegError::TooLarge { width, height });
        }
        let ncomp = usize::from(self.take_u8()?);
        if ncomp == 0 || ncomp > 4 {
            return Err(JpegError::Format(format!("{ncomp} components")));
        }
        let mut ids = Vec::new();
        let mut sampling = Vec::new();
        let mut quant_map = Vec::new();
        for _ in 0..ncomp {
            let id = self.take_u8()?;
            let hv = self.take_u8()?;
            let tq = usize::from(self.take_u8()?);
            ids.push(id);
            sampling.push((hv >> 4, hv & 0x0F));
            quant_map.push(tq);
        }
        if self.pos != end {
            return Err(JpegError::Format("SOF length mismatch".into()));
        }
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
        for (c, &id) in frame.components.iter_mut().zip(ids.iter()) {
            c.id = id;
        }
        self.frame = Some(frame);
        Ok(())
    }

    fn parse_dqt(&mut self) -> Result<()> {
        let len = usize::from(self.take_u16()?);
        let end = self.pos + len - 2;
        while self.pos < end {
            let pq_tq = self.take_u8()?;
            let pq = pq_tq >> 4;
            let tq = usize::from(pq_tq & 0x0F);
            if tq > 3 {
                return Err(JpegError::Format("DQT table id > 3".into()));
            }
            let table = match pq {
                0 => {
                    let mut zz = [0u8; 64];
                    for v in zz.iter_mut() {
                        *v = self.take_u8()?;
                    }
                    QuantTable::from_zigzag_bytes(&zz)
                }
                1 => {
                    let mut zz = [0u16; 64];
                    for v in zz.iter_mut() {
                        *v = self.take_u16()?;
                    }
                    QuantTable::from_zigzag_words(&zz)
                }
                _ => return Err(JpegError::Format("DQT precision > 1".into())),
            };
            // Keep the CoeffImage's copy in sync if the frame exists already.
            if let Some(frame) = self.frame.as_mut() {
                while frame.qtables.len() <= tq {
                    frame.qtables.push(QuantTable::flat(1));
                }
                frame.qtables[tq] = table.clone();
            }
            self.qtables[tq] = Some(table);
        }
        if self.pos != end {
            return Err(JpegError::Format("DQT length mismatch".into()));
        }
        Ok(())
    }

    fn parse_dht(&mut self) -> Result<()> {
        let len = usize::from(self.take_u16()?);
        let end = self.pos + len - 2;
        while self.pos < end {
            let tc_th = self.take_u8()?;
            let tc = tc_th >> 4;
            let th = usize::from(tc_th & 0x0F);
            if tc > 1 || th > 3 {
                return Err(JpegError::Format("bad DHT class/id".into()));
            }
            let mut bits = [0u8; 16];
            for b in bits.iter_mut() {
                *b = self.take_u8()?;
            }
            let total: usize = bits.iter().map(|&b| b as usize).sum();
            let mut values = Vec::with_capacity(total);
            for _ in 0..total {
                values.push(self.take_u8()?);
            }
            let spec = HuffSpec { bits, values };
            let dec = HuffDecoder::from_spec(&spec)?;
            if tc == 0 {
                self.dc_tables[th] = Some(dec);
            } else {
                self.ac_tables[th] = Some(dec);
            }
        }
        if self.pos != end {
            return Err(JpegError::Format("DHT length mismatch".into()));
        }
        Ok(())
    }

    fn parse_and_decode_scan(&mut self) -> Result<()> {
        let len = usize::from(self.take_u16()?);
        let end = self.pos + len - 2;
        let ns = usize::from(self.take_u8()?);
        if ns == 0 || ns > 4 {
            return Err(JpegError::Format(format!("{ns} scan components")));
        }
        let comp_ids: Vec<u8> = self
            .frame
            .as_ref()
            .ok_or_else(|| JpegError::Format("SOS before SOF".into()))?
            .components
            .iter()
            .map(|c| c.id)
            .collect();
        let mut scomps = Vec::new();
        for _ in 0..ns {
            let cs = self.take_u8()?;
            let tt = self.take_u8()?;
            let comp_idx = comp_ids.iter().position(|&id| id == cs).ok_or_else(|| {
                JpegError::Format(format!("scan references unknown component {cs}"))
            })?;
            scomps.push(ScanComponent {
                comp_idx,
                dc_tbl: usize::from(tt >> 4),
                ac_tbl: usize::from(tt & 0x0F),
            });
        }
        let ss = usize::from(self.take_u8()?);
        let se = usize::from(self.take_u8()?);
        let ah_al = self.take_u8()?;
        let (ah, al) = (ah_al >> 4, ah_al & 0x0F);
        if self.pos != end {
            return Err(JpegError::Format("SOS length mismatch".into()));
        }
        if ss > 63 || se > 63 || ss > se {
            return Err(JpegError::Format("bad spectral selection".into()));
        }
        self.scans += 1;
        self.eobrun = 0;

        let entropy = &self.data[self.pos..];
        let mut reader = BitReader::new(entropy);
        if self.progressive {
            self.decode_progressive_scan(&scomps, ss, se, ah, al, &mut reader)?;
        } else {
            if ss != 0 || se != 63 || ah != 0 || al != 0 {
                return Err(JpegError::Format("baseline scan with progressive params".into()));
            }
            self.decode_baseline_scan(&scomps, &mut reader)?;
        }
        // Resume segment parsing at the terminating marker.
        self.pos += reader.resume_position();
        Ok(())
    }

    // -- baseline ----------------------------------------------------------

    fn decode_baseline_scan(
        &mut self,
        scomps: &[ScanComponent],
        r: &mut BitReader<'_>,
    ) -> Result<()> {
        let frame = self.frame.as_mut().expect("frame checked");
        let ri = u32::from(self.restart_interval);
        let mut last_dc = vec![0i32; scomps.len()];
        let mut mcu_count = 0u32;
        let mut rst_expect = 0u8;

        // Resolve table presence up front.
        for sc in scomps {
            if self.dc_tables[sc.dc_tbl].is_none() {
                return Err(JpegError::Format("missing DC table".into()));
            }
            if self.ac_tables[sc.ac_tbl].is_none() {
                return Err(JpegError::Format("missing AC table".into()));
            }
        }

        let handle_restart = |mcu_count: &mut u32,
                              last_dc: &mut [i32],
                              rst_expect: &mut u8,
                              r: &mut BitReader<'_>|
         -> Result<()> {
            if ri > 0 && *mcu_count == ri {
                let idx = r.read_restart()?;
                if idx != *rst_expect {
                    return Err(JpegError::Format(format!(
                        "restart marker out of order: got {idx}, want {rst_expect}"
                    )));
                }
                *rst_expect = (*rst_expect + 1) & 7;
                *mcu_count = 0;
                last_dc.iter_mut().for_each(|d| *d = 0);
            }
            Ok(())
        };

        if scomps.len() == 1 {
            let sc = &scomps[0];
            let dc = self.dc_tables[sc.dc_tbl].as_ref().unwrap();
            let ac = self.ac_tables[sc.ac_tbl].as_ref().unwrap();
            let comp = &mut frame.components[sc.comp_idx];
            for by in 0..comp.blocks_h {
                for bx in 0..comp.blocks_w {
                    handle_restart(&mut mcu_count, &mut last_dc, &mut rst_expect, r)?;
                    let block = comp.block_mut(bx, by);
                    decode_block_baseline(r, dc, ac, &mut last_dc[0], block)?;
                    mcu_count += 1;
                }
            }
        } else {
            let mcus_x = frame.mcus_x();
            let mcus_y = frame.mcus_y();
            for my in 0..mcus_y {
                for mx in 0..mcus_x {
                    handle_restart(&mut mcu_count, &mut last_dc, &mut rst_expect, r)?;
                    for (i, sc) in scomps.iter().enumerate() {
                        let dc = self.dc_tables[sc.dc_tbl].as_ref().unwrap();
                        let ac = self.ac_tables[sc.ac_tbl].as_ref().unwrap();
                        let comp = &mut frame.components[sc.comp_idx];
                        let (h, v) = (comp.h_samp as usize, comp.v_samp as usize);
                        for dv in 0..v {
                            for dh in 0..h {
                                let block = comp.block_mut(mx * h + dh, my * v + dv);
                                decode_block_baseline(r, dc, ac, &mut last_dc[i], block)?;
                            }
                        }
                    }
                    mcu_count += 1;
                }
            }
        }
        Ok(())
    }

    // -- progressive ---------------------------------------------------------

    fn decode_progressive_scan(
        &mut self,
        scomps: &[ScanComponent],
        ss: usize,
        se: usize,
        ah: u8,
        al: u8,
        r: &mut BitReader<'_>,
    ) -> Result<()> {
        if ss == 0 {
            if se != 0 {
                return Err(JpegError::Format("progressive DC scan with Se != 0".into()));
            }
            if ah == 0 {
                self.decode_dc_first(scomps, al, r)
            } else {
                self.decode_dc_refine(scomps, al, r)
            }
        } else {
            if scomps.len() != 1 {
                return Err(JpegError::Format("interleaved progressive AC scan".into()));
            }
            if ah == 0 {
                self.decode_ac_first(&scomps[0], ss, se, al, r)
            } else {
                self.decode_ac_refine(&scomps[0], ss, se, al, r)
            }
        }
    }

    fn decode_dc_first(
        &mut self,
        scomps: &[ScanComponent],
        al: u8,
        r: &mut BitReader<'_>,
    ) -> Result<()> {
        let frame = self.frame.as_mut().expect("frame");
        let ri = u32::from(self.restart_interval);
        let mut last_dc = vec![0i32; scomps.len()];
        let mut mcu_count = 0u32;
        for sc in scomps {
            if self.dc_tables[sc.dc_tbl].is_none() {
                return Err(JpegError::Format("missing DC table".into()));
            }
        }
        // Unified MCU walk (single-component scans have 1-block MCUs over
        // real dims).
        let mcus: Vec<(usize, usize, usize)> = if scomps.len() == 1 {
            let comp = &frame.components[scomps[0].comp_idx];
            let mut v = Vec::with_capacity(comp.blocks_w * comp.blocks_h);
            for by in 0..comp.blocks_h {
                for bx in 0..comp.blocks_w {
                    v.push((0usize, bx, by));
                }
            }
            v
        } else {
            let mut v = Vec::new();
            for my in 0..frame.mcus_y() {
                for mx in 0..frame.mcus_x() {
                    for (i, sc) in scomps.iter().enumerate() {
                        let comp = &frame.components[sc.comp_idx];
                        for dv in 0..comp.v_samp as usize {
                            for dh in 0..comp.h_samp as usize {
                                v.push((
                                    i,
                                    mx * comp.h_samp as usize + dh,
                                    my * comp.v_samp as usize + dv,
                                ));
                            }
                        }
                    }
                }
            }
            v
        };
        let mcu_size = if scomps.len() == 1 {
            1
        } else {
            scomps
                .iter()
                .map(|sc| {
                    let c = &frame.components[sc.comp_idx];
                    c.h_samp as usize * c.v_samp as usize
                })
                .sum::<usize>()
        };
        let mut in_mcu = 0usize;
        for (i, bx, by) in mcus {
            if ri > 0 && in_mcu == 0 && mcu_count == ri {
                r.read_restart()?;
                last_dc.iter_mut().for_each(|d| *d = 0);
                mcu_count = 0;
            }
            let sc = &scomps[i];
            let dec = self.dc_tables[sc.dc_tbl].as_ref().unwrap();
            let s = dec.decode(r)?;
            if s > 11 {
                return Err(JpegError::Format("DC size > 11".into()));
            }
            let diff = r.receive_extend(u32::from(s))?;
            last_dc[i] += diff;
            let comp = &mut frame.components[sc.comp_idx];
            comp.block_mut(bx, by)[0] = last_dc[i] << al;
            in_mcu += 1;
            if in_mcu == mcu_size {
                in_mcu = 0;
                mcu_count += 1;
            }
        }
        Ok(())
    }

    fn decode_dc_refine(
        &mut self,
        scomps: &[ScanComponent],
        al: u8,
        r: &mut BitReader<'_>,
    ) -> Result<()> {
        let frame = self.frame.as_mut().expect("frame");
        if scomps.len() == 1 {
            let comp = &mut frame.components[scomps[0].comp_idx];
            for by in 0..comp.blocks_h {
                for bx in 0..comp.blocks_w {
                    if r.get_bit()? == 1 {
                        comp.block_mut(bx, by)[0] |= 1 << al;
                    }
                }
            }
            return Ok(());
        }
        for my in 0..frame.mcus_y() {
            for mx in 0..frame.mcus_x() {
                for sc in scomps {
                    let comp = &mut frame.components[sc.comp_idx];
                    let (h, v) = (comp.h_samp as usize, comp.v_samp as usize);
                    for dv in 0..v {
                        for dh in 0..h {
                            if r.get_bit()? == 1 {
                                comp.block_mut(mx * h + dh, my * v + dv)[0] |= 1 << al;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn decode_ac_first(
        &mut self,
        sc: &ScanComponent,
        ss: usize,
        se: usize,
        al: u8,
        r: &mut BitReader<'_>,
    ) -> Result<()> {
        let frame = self.frame.as_mut().expect("frame");
        let dec = self.ac_tables[sc.ac_tbl]
            .as_ref()
            .ok_or_else(|| JpegError::Format("missing AC table".into()))?;
        let comp = &mut frame.components[sc.comp_idx];
        for by in 0..comp.blocks_h {
            for bx in 0..comp.blocks_w {
                let block = comp.block_mut(bx, by);
                if self.eobrun > 0 {
                    self.eobrun -= 1;
                    continue;
                }
                let mut k = ss;
                while k <= se {
                    let rs = dec.decode(r)?;
                    let run = usize::from(rs >> 4);
                    let size = u32::from(rs & 0x0F);
                    if size != 0 {
                        k += run;
                        if k > se {
                            return Err(JpegError::Format("AC index overrun".into()));
                        }
                        let v = r.receive_extend(size)?;
                        block[usize::from(UNZIGZAG[k])] = v << al;
                        k += 1;
                    } else if run != 15 {
                        self.eobrun = (1 << run) - 1;
                        if run > 0 {
                            self.eobrun += r.get_bits(run as u32)?;
                        }
                        break;
                    } else {
                        k += 16; // ZRL
                    }
                }
            }
        }
        Ok(())
    }

    fn decode_ac_refine(
        &mut self,
        sc: &ScanComponent,
        ss: usize,
        se: usize,
        al: u8,
        r: &mut BitReader<'_>,
    ) -> Result<()> {
        let frame = self.frame.as_mut().expect("frame");
        let dec = self.ac_tables[sc.ac_tbl]
            .as_ref()
            .ok_or_else(|| JpegError::Format("missing AC table".into()))?;
        let comp = &mut frame.components[sc.comp_idx];
        let p1: i32 = 1 << al;
        let m1: i32 = -1 << al;
        for by in 0..comp.blocks_h {
            for bx in 0..comp.blocks_w {
                let block = comp.block_mut(bx, by);
                let mut k = ss;
                if self.eobrun == 0 {
                    while k <= se {
                        let rs = dec.decode(r)?;
                        let mut run = i32::from(rs >> 4);
                        let size = rs & 0x0F;
                        let mut newval = 0i32;
                        if size != 0 {
                            if size != 1 {
                                return Err(JpegError::Format("refine scan size != 1".into()));
                            }
                            newval = if r.get_bit()? == 1 { p1 } else { m1 };
                        } else if run != 15 {
                            self.eobrun = 1 << run;
                            if run > 0 {
                                self.eobrun += r.get_bits(run as u32)?;
                            }
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
            }
        }
        Ok(())
    }
}

fn decode_block_baseline(
    r: &mut BitReader<'_>,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
    last_dc: &mut i32,
    block: &mut [i32; COEFS_PER_BLOCK],
) -> Result<()> {
    let s = dc.decode(r)?;
    if s > 11 {
        return Err(JpegError::Format("DC size > 11".into()));
    }
    let diff = r.receive_extend(u32::from(s))?;
    *last_dc += diff;
    block[0] = *last_dc;
    let mut k = 1usize;
    while k < 64 {
        let rs = ac.decode(r)?;
        let run = usize::from(rs >> 4);
        let size = u32::from(rs & 0x0F);
        if size == 0 {
            if run == 15 {
                k += 16;
                continue;
            }
            break; // EOB
        }
        k += run;
        if k > 63 {
            return Err(JpegError::Format("AC index overrun".into()));
        }
        block[usize::from(UNZIGZAG[k])] = r.receive_extend(size)?;
        k += 1;
    }
    Ok(())
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
    let mut d = Decoder::new(data);
    d.recycled = std::mem::take(frame);
    d.run()?;
    *frame = d.frame.take().expect("run() guarantees a frame");
    Ok(DecodedInfo {
        progressive: d.progressive,
        restart_interval: d.restart_interval,
        scans: d.scans,
    })
}

/// Reconstruct the sample planes of each component (dequantize + IDCT),
/// cropped to real component dimensions, into a caller's planes,
/// overwritten whatever they held.
fn coeffs_to_planes_into(ci: &CoeffImage, planes: &mut Vec<Plane>) -> Result<()> {
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
pub fn coeffs_to_gray(ci: &CoeffImage) -> Result<GrayImage> {
    let mut planes = Vec::new();
    coeffs_to_planes_into(ci, &mut planes)?;
    let y = upsample(&planes[0], ci.width, ci.height);
    Ok(GrayImage { width: ci.width, height: ci.height, data: y.data })
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
        let mut img = GrayImage::new(31, 17);
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

    #[test]
    fn rejects_garbage() {
        assert!(decode_to_coeffs(b"not a jpeg").is_err());
        assert!(decode_to_coeffs(&[0xFF, 0xD8]).is_err());
        assert!(decode_to_coeffs(&[]).is_err());
    }

    #[test]
    fn gray_decode() {
        let mut img = GrayImage::new(16, 16);
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

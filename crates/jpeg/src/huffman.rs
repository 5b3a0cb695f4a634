//! Huffman table machinery: Annex-K defaults, canonical code derivation,
//! fast decoding, and optimal (frequency-driven) table construction.
//!
//! P3 relies on optimized tables: thresholding *reduces the entropy* of both
//! the public and the secret coefficient streams, and regenerating Huffman
//! tables per image is what realizes the paper's "only 5–10 % combined
//! storage overhead" result.

use crate::bitio::{BitReader, BitWriter};
use crate::{JpegError, Result};

/// A Huffman table specification as transmitted in a DHT segment:
/// `bits[i]` = number of codes of length `i+1`, plus the symbol values in
/// code order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffSpec {
    /// Count of codes per code length 1..=16.
    pub bits: [u8; 16],
    /// Symbols in increasing code order (≤ 256 entries).
    pub values: Vec<u8>,
}

impl HuffSpec {
    /// Validate the Kraft sum and value count.
    pub fn validate(&self) -> Result<()> {
        let total: usize = self.bits.iter().map(|&b| b as usize).sum();
        if total != self.values.len() {
            return Err(JpegError::Format(format!(
                "DHT: {} codes declared but {} values",
                total,
                self.values.len()
            )));
        }
        if total > 256 {
            return Err(JpegError::Format("DHT: more than 256 codes".into()));
        }
        let mut kraft = 0u64; // in units of 2^-16
        for (i, &b) in self.bits.iter().enumerate() {
            kraft += (b as u64) << (16 - (i + 1));
        }
        if kraft > 1 << 16 {
            return Err(JpegError::Format("DHT: Kraft inequality violated".into()));
        }
        Ok(())
    }
}

/// Encoding-side table: one precomputed `(code << 8) | length` entry per
/// symbol, so the emit hot path is a single table load followed by a
/// single multi-bit [`BitWriter::put_bits`] — never a per-bit loop.
#[derive(Debug, Clone)]
pub struct HuffEncoder {
    entry: [u32; 256],
}

impl HuffEncoder {
    /// Derive canonical codes from a spec (ITU T.81 Annex C).
    pub fn from_spec(spec: &HuffSpec) -> Result<Self> {
        spec.validate()?;
        let mut entry = [0u32; 256];
        let mut k = 0usize;
        let mut c: u32 = 0;
        for len in 1..=16u32 {
            for _ in 0..spec.bits[len as usize - 1] {
                let sym = spec.values[k] as usize;
                entry[sym] = (c << 8) | len;
                c += 1;
                k += 1;
            }
            c <<= 1;
        }
        Ok(Self { entry })
    }

    /// Emit the code for `symbol`.
    #[inline]
    pub fn put(&self, w: &mut BitWriter, symbol: u8) {
        let e = self.entry[symbol as usize];
        debug_assert!(e & 0xFF > 0, "symbol {symbol:#x} has no code");
        w.put_bits(e >> 8, e & 0xFF);
    }

    /// Code length for a symbol (0 = absent).
    #[inline]
    pub fn size_of(&self, symbol: u8) -> u8 {
        (self.entry[symbol as usize] & 0xFF) as u8
    }

    /// The packed `(code << 8) | length` entry for a symbol — lets callers
    /// fuse the code with trailing magnitude bits into one write.
    #[inline]
    pub fn entry_of(&self, symbol: u8) -> u32 {
        self.entry[symbol as usize]
    }
}

const LOOKAHEAD: u32 = 9;

/// Decoding-side table with a 9-bit lookahead LUT plus the canonical
/// min/max-code slow path for longer codes.
#[derive(Debug, Clone)]
pub struct HuffDecoder {
    /// `lut[prefix] = (symbol, length)` for codes of length ≤ LOOKAHEAD.
    lut: Vec<(u8, u8)>,
    /// Smallest code of each length (1..=16), or `u32::MAX` if none.
    min_code: [u32; 17],
    /// Largest code of each length.
    max_code: [i64; 17],
    /// Index of the first value for each length.
    val_ptr: [usize; 17],
    values: Vec<u8>,
}

impl HuffDecoder {
    /// Build the decoder structures from a spec.
    pub fn from_spec(spec: &HuffSpec) -> Result<Self> {
        spec.validate()?;
        let mut min_code = [u32::MAX; 17];
        let mut max_code = [-1i64; 17];
        let mut val_ptr = [0usize; 17];
        let mut code: u32 = 0;
        let mut k = 0usize;
        for len in 1..=16usize {
            let n = spec.bits[len - 1] as usize;
            if n > 0 {
                val_ptr[len] = k;
                min_code[len] = code;
                code += n as u32;
                max_code[len] = i64::from(code) - 1;
                k += n;
            }
            code <<= 1;
        }
        // Lookahead LUT.
        let mut lut = vec![(0u8, 0u8); 1 << LOOKAHEAD];
        let mut c: u32 = 0;
        let mut k = 0usize;
        for len in 1..=16u32 {
            for _ in 0..spec.bits[len as usize - 1] {
                if len <= LOOKAHEAD {
                    let shift = LOOKAHEAD - len;
                    let base = (c << shift) as usize;
                    for pad in 0..(1usize << shift) {
                        lut[base + pad] = (spec.values[k], len as u8);
                    }
                }
                c += 1;
                k += 1;
            }
            c <<= 1;
        }
        Ok(Self { lut, min_code, max_code, val_ptr, values: spec.values.clone() })
    }

    /// Decode one symbol from the bit stream.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u8> {
        let peek = r.peek_bits(LOOKAHEAD)?;
        let (sym, len) = self.lut[peek as usize];
        if len != 0 {
            r.consume(u32::from(len));
            return Ok(sym);
        }
        // Slow path (codes longer than the lookahead window): peek a full
        // 16 bits once and resolve the length against the canonical
        // min/max codes — no per-bit reads.
        let window = r.peek_bits(16)?;
        for len in (LOOKAHEAD as usize + 1)..=16 {
            let code = window >> (16 - len);
            if self.min_code[len] != u32::MAX
                && code >= self.min_code[len]
                && i64::from(code) <= self.max_code[len]
            {
                let idx = self.val_ptr[len] + (code - self.min_code[len]) as usize;
                let sym =
                    self.values.get(idx).copied().ok_or_else(|| {
                        JpegError::Format("Huffman value index out of range".into())
                    })?;
                r.consume(len as u32);
                return Ok(sym);
            }
        }
        Err(JpegError::Format("invalid Huffman code (>16 bits)".into()))
    }
}

/// Count symbol frequencies and derive an optimal length-limited table
/// (the IJG `jpeg_gen_optimal_table` algorithm).
#[derive(Debug, Clone)]
pub struct FreqCounter {
    /// `freq[sym]` = occurrences; slot 256 is the reserved pseudo-symbol
    /// that guarantees no code is all ones.
    pub freq: [u32; 257],
}

impl Default for FreqCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl FreqCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self { freq: [0; 257] }
    }

    /// Record one occurrence of `sym`.
    #[inline]
    pub fn count(&mut self, sym: u8) {
        self.freq[sym as usize] += 1;
    }

    /// Build the optimal table. Returns `None` if no symbol was counted.
    pub fn build_spec(&self) -> Option<HuffSpec> {
        let mut freq = self.freq;
        freq[256] = 1; // ensure a pseudo-symbol so no real code is all-ones
        if freq.iter().take(256).all(|&f| f == 0) {
            // Degenerate but legal: emit a table with one dummy symbol so a
            // scan with no data of this class still has a valid DHT.
            return Some(HuffSpec {
                bits: {
                    let mut b = [0u8; 16];
                    b[0] = 1;
                    b
                },
                values: vec![0],
            });
        }
        let mut codesize = [0i32; 257];
        let mut others = [-1i32; 257];

        loop {
            // Find the two least-frequent nonzero entries (c1 smallest).
            let (mut c1, mut c2) = (-1i64, -1i64);
            let mut v1 = u32::MAX;
            let mut v2 = u32::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                if f <= v1 {
                    v2 = v1;
                    c2 = c1;
                    v1 = f;
                    c1 = i as i64;
                } else if f <= v2 {
                    v2 = f;
                    c2 = i as i64;
                }
            }
            if c2 < 0 {
                break; // only one tree left
            }
            let (c1, c2) = (c1 as usize, c2 as usize);
            freq[c1] += freq[c2];
            freq[c2] = 0;
            // Increment the codesize of everything in c1's tree.
            let mut n = c1 as i32;
            loop {
                codesize[n as usize] += 1;
                if others[n as usize] < 0 {
                    break;
                }
                n = others[n as usize];
            }
            others[n as usize] = c2 as i32;
            let mut n = c2 as i32;
            loop {
                codesize[n as usize] += 1;
                if others[n as usize] < 0 {
                    break;
                }
                n = others[n as usize];
            }
        }

        // Count codes per length (may exceed 32 in pathological cases).
        let mut bits = [0i32; 33];
        for (i, &cs) in codesize.iter().enumerate() {
            if cs > 0 {
                if cs > 32 {
                    // Flatten absurd lengths to 32; will be fixed below.
                    bits[32] += 1;
                } else {
                    bits[cs as usize] += 1;
                }
                let _ = i;
            }
        }

        // JPEG limits code length to 16: push overflow up (Annex K.2).
        let mut i = 32;
        while i > 16 {
            while bits[i] > 0 {
                let mut j = i - 2;
                while bits[j] == 0 {
                    j -= 1;
                }
                bits[i] -= 2;
                bits[i - 1] += 1;
                bits[j + 1] += 2;
                bits[j] -= 1;
            }
            i -= 1;
        }
        // Remove the pseudo-symbol's code (the longest one).
        let mut i = 16;
        while bits[i] == 0 {
            i -= 1;
        }
        bits[i] -= 1;

        let mut out_bits = [0u8; 16];
        for l in 1..=16 {
            out_bits[l - 1] = bits[l] as u8;
        }
        // Emit symbols sorted by (codesize, symbol value).
        let mut values = Vec::with_capacity(256);
        for len in 1..=32 {
            for (sym, &size) in codesize.iter().enumerate().take(256) {
                if size == len {
                    values.push(sym as u8);
                }
            }
        }
        Some(HuffSpec { bits: out_bits, values })
    }
}

/// Annex K Table K.3 — default luminance DC table.
pub fn default_dc_luma() -> HuffSpec {
    HuffSpec {
        bits: [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        values: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    }
}

/// Annex K Table K.4 — default chrominance DC table.
pub fn default_dc_chroma() -> HuffSpec {
    HuffSpec {
        bits: [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        values: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    }
}

/// Annex K Table K.5 — default luminance AC table.
pub fn default_ac_luma() -> HuffSpec {
    HuffSpec {
        bits: [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
        values: vec![
            0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51,
            0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1,
            0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18,
            0x19, 0x1A, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
            0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57,
            0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
            0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92,
            0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
            0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
            0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8,
            0xD9, 0xDA, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
            0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
        ],
    }
}

/// Annex K Table K.6 — default chrominance AC table.
pub fn default_ac_chroma() -> HuffSpec {
    HuffSpec {
        bits: [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
        values: vec![
            0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07,
            0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09,
            0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25,
            0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
            0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56,
            0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
            0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
            0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
            0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA,
            0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6,
            0xD7, 0xD8, 0xD9, 0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
            0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tables_validate() {
        for spec in [default_dc_luma(), default_dc_chroma(), default_ac_luma(), default_ac_chroma()]
        {
            spec.validate().unwrap();
            HuffEncoder::from_spec(&spec).unwrap();
            HuffDecoder::from_spec(&spec).unwrap();
        }
    }

    #[test]
    fn encode_decode_roundtrip_default_tables() {
        let spec = default_ac_luma();
        let enc = HuffEncoder::from_spec(&spec).unwrap();
        let dec = HuffDecoder::from_spec(&spec).unwrap();
        let symbols: Vec<u8> = spec.values.clone();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.put(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn optimal_table_roundtrips_skewed_distribution() {
        let mut fc = FreqCounter::new();
        // Heavily skewed: symbol 0 dominant, a long tail.
        for _ in 0..10_000 {
            fc.count(0);
        }
        for s in 1..60u8 {
            for _ in 0..u32::from(s) {
                fc.count(s);
            }
        }
        let spec = fc.build_spec().unwrap();
        spec.validate().unwrap();
        let enc = HuffEncoder::from_spec(&spec).unwrap();
        let dec = HuffDecoder::from_spec(&spec).unwrap();
        // Dominant symbol must get a short code.
        assert!(enc.size_of(0) <= 2, "size {}", enc.size_of(0));
        let mut w = BitWriter::new();
        let msg: Vec<u8> = (0..60u8).chain([0, 0, 0, 59, 1]).collect();
        for &s in &msg {
            enc.put(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn optimal_table_single_symbol() {
        let mut fc = FreqCounter::new();
        for _ in 0..100 {
            fc.count(42);
        }
        let spec = fc.build_spec().unwrap();
        spec.validate().unwrap();
        let enc = HuffEncoder::from_spec(&spec).unwrap();
        assert!(enc.size_of(42) >= 1);
        let dec = HuffDecoder::from_spec(&spec).unwrap();
        let mut w = BitWriter::new();
        enc.put(&mut w, 42);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 42);
    }

    #[test]
    fn empty_counter_yields_dummy_table() {
        let spec = FreqCounter::new().build_spec().unwrap();
        spec.validate().unwrap();
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = HuffSpec { bits: [0; 16], values: vec![1, 2, 3] };
        assert!(spec.validate().is_err());
        // Kraft violation: 3 codes of length 1.
        let mut bits = [0u8; 16];
        bits[0] = 3;
        let spec = HuffSpec { bits, values: vec![1, 2, 3] };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn long_codes_use_slow_path() {
        // Construct a deep table: one code per length 1..=12.
        let mut bits = [0u8; 16];
        for b in bits.iter_mut().take(11) {
            *b = 1;
        }
        bits[11] = 2; // two codes at length 12 to terminate cleanly
        let values: Vec<u8> = (0..13).collect();
        let spec = HuffSpec { bits, values };
        spec.validate().unwrap();
        let enc = HuffEncoder::from_spec(&spec).unwrap();
        let dec = HuffDecoder::from_spec(&spec).unwrap();
        let msg = [12u8, 0, 11, 1, 10, 12];
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.put(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }
}

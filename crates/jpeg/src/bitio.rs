//! MSB-first bit I/O with JPEG byte stuffing, built on 64-bit
//! accumulators.
//!
//! JPEG entropy-coded segments are a big-endian bit stream in which any
//! produced `0xFF` byte must be followed by a stuffed `0x00` so that scan
//! data can never alias a marker. The reader performs the inverse:
//! `FF 00` is a literal `0xFF`, `FF Dn` (RST) is consumed at restart
//! boundaries, and any other `FF xx` terminates the entropy-coded segment.
//!
//! Both directions run word-at-a-time in the common case: the writer
//! buffers up to 63 bits and drains four-plus bytes per flush with a
//! single SWAR test deciding whether the slow byte-stuffing loop is
//! needed at all; the reader refills its accumulator eight bytes per
//! memory access whenever the upcoming window contains no `0xFF`
//! (overwhelmingly the common case — a stuffed or marker byte drops that
//! one refill to the byte-wise path, not the whole stream).

use crate::{JpegError, Result};

/// True if any byte of `w` equals `0xFF` (classic SWAR zero-byte test
/// applied to the complement).
#[inline(always)]
fn any_byte_ff(w: u64) -> bool {
    let v = !w;
    (v.wrapping_sub(0x0101_0101_0101_0101) & !v & 0x8080_8080_8080_8080) != 0
}

/// Bit-level writer that performs JPEG `0xFF` byte stuffing.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bit accumulator; bits are pushed into the LSB side and emitted from
    /// the MSB side.
    acc: u64,
    /// Number of valid bits currently in `acc` (< 32 between calls).
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer that appends the stuffed stream to `out` — the headers of
    /// a scan, say — and hands the whole buffer back from
    /// [`BitWriter::finish`]. ([`BitWriter::len`] then counts `out` too.)
    pub fn appending(out: Vec<u8>) -> Self {
        Self { out, acc: 0, nbits: 0 }
    }

    /// Append `count` bits (the low `count` bits of `value`), MSB first.
    ///
    /// `count` must be ≤ 32; with at most 31 bits buffered the 64-bit
    /// accumulator cannot overflow.
    #[inline]
    pub fn put_bits(&mut self, value: u32, count: u32) {
        debug_assert!(count <= 32, "put_bits count {count} > 32");
        if count == 0 {
            return;
        }
        let mask = (1u64 << count) - 1;
        debug_assert!(u64::from(value) <= mask, "value {value:#x} does not fit in {count} bits");
        self.acc = (self.acc << count) | (u64::from(value) & mask);
        self.nbits += count;
        if self.nbits >= 32 {
            self.emit();
        }
    }

    /// Drain all whole bytes out of the accumulator.
    fn emit(&mut self) {
        let n = self.nbits / 8; // whole bytes buffered (≤ 7)
        if n == 0 {
            return;
        }
        let rem = self.nbits - n * 8;
        // The n bytes to emit, right-aligned in `chunk`, MSB-first.
        let chunk = self.acc >> rem;
        // Top-align into a u64 so to_be_bytes yields them in order; the
        // unused low bytes become 0x00, which cannot trip the SWAR test.
        let top = chunk << (64 - n * 8);
        if !any_byte_ff(top) {
            self.out.extend_from_slice(&top.to_be_bytes()[..n as usize]);
        } else {
            for i in (0..n).rev() {
                let byte = ((chunk >> (i * 8)) & 0xFF) as u8;
                self.out.push(byte);
                if byte == 0xFF {
                    self.out.push(0x00);
                }
            }
        }
        self.nbits = rem;
        self.acc &= (1u64 << rem) - 1;
    }

    /// Pad the final partial byte with `1` bits (as the JPEG spec requires)
    /// and return the stuffed byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }

    /// Pad with 1-bits to a byte boundary without consuming the writer.
    /// Used before restart markers.
    pub fn align(&mut self) {
        if !self.nbits.is_multiple_of(8) {
            let pad = 8 - self.nbits % 8;
            self.acc = (self.acc << pad) | ((1u64 << pad) - 1);
            self.nbits += pad;
        }
        self.emit();
    }

    /// Append a raw byte (must be called only when bit-aligned). Stuffing is
    /// *not* applied: this is for restart markers.
    pub fn put_marker_byte(&mut self, b: u8) {
        debug_assert_eq!(self.nbits, 0, "marker emitted while not byte aligned");
        self.out.push(b);
    }

    /// Number of bytes flushed so far, excluding anything still buffered
    /// in the accumulator (whole bytes may sit there until the next
    /// flush, and stuffing for them has not happened yet).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.nbits == 0
    }
}

/// Outcome of scanning forward in the entropy-coded segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEvent {
    /// A restart marker `RSTn` (value 0..=7) was consumed.
    Restart(u8),
    /// A non-restart marker begins; the reader stops before it.
    Marker(u8),
}

/// Bit-level reader that reverses JPEG byte stuffing.
///
/// The reader operates over the entropy-coded bytes of one scan. When it
/// encounters a marker it records it and reports end-of-data; the caller
/// resumes segment-level parsing at [`BitReader::marker_position`].
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
    /// Set when a non-restart marker was seen; reading past it fails.
    pending_marker: Option<u8>,
    marker_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `data`, which should start at the first entropy
    /// coded byte after an SOS header.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, acc: 0, nbits: 0, pending_marker: None, marker_pos: 0 }
    }

    /// Offset (within the slice passed to [`BitReader::new`]) of the `0xFF`
    /// byte of the marker that terminated the scan, if any.
    pub fn marker_position(&self) -> usize {
        self.marker_pos
    }

    /// Offset at which segment-level parsing should resume after entropy
    /// decoding completes: the terminating marker if one was seen, else
    /// the first unread byte (any bits still buffered are final-byte
    /// padding and belong to the scan).
    pub fn resume_position(&self) -> usize {
        if self.pending_marker.is_some() {
            self.marker_pos
        } else {
            self.pos
        }
    }

    /// The marker code that terminated the scan, if one was encountered.
    pub fn pending_marker(&self) -> Option<u8> {
        self.pending_marker
    }

    fn fill(&mut self) -> Result<()> {
        while self.nbits <= 48 {
            // Word fast path: eight upcoming bytes with no 0xFF anywhere
            // can be spliced into the accumulator in one shot.
            if self.pending_marker.is_none() && self.pos + 8 <= self.data.len() {
                let w = u64::from_be_bytes(
                    self.data[self.pos..self.pos + 8].try_into().expect("8-byte window"),
                );
                if !any_byte_ff(w) {
                    let n = (64 - self.nbits) / 8; // bytes that fit (2..=8)
                    self.acc = if n == 8 { w } else { (self.acc << (n * 8)) | (w >> (64 - n * 8)) };
                    self.nbits += n * 8;
                    self.pos += n as usize;
                    continue;
                }
            }
            // Byte-wise path: stuffing, fill bytes, markers, EOF.
            if self.pending_marker.is_some() {
                // Per spec, decoders may need a few bits past the last byte
                // (padding); supply 1-bits but never cross a marker wrongly.
                self.acc = (self.acc << 8) | 0xFF;
                self.nbits += 8;
                continue;
            }
            if self.pos >= self.data.len() {
                self.pending_marker = Some(0xD9); // synthesize EOI at EOF
                self.marker_pos = self.data.len();
                continue;
            }
            let b = self.data[self.pos];
            if b == 0xFF {
                match self.data.get(self.pos + 1) {
                    Some(0x00) => {
                        self.pos += 2;
                        self.acc = (self.acc << 8) | 0xFF;
                        self.nbits += 8;
                    }
                    Some(0xFF) => {
                        // Fill bytes: skip the first FF, re-examine.
                        self.pos += 1;
                    }
                    Some(&m) => {
                        self.pending_marker = Some(m);
                        self.marker_pos = self.pos;
                    }
                    None => {
                        self.pending_marker = Some(0xD9);
                        self.marker_pos = self.pos;
                    }
                }
            } else {
                self.pos += 1;
                self.acc = (self.acc << 8) | u64::from(b);
                self.nbits += 8;
            }
        }
        Ok(())
    }

    /// Read `count` (≤ 16) bits MSB-first.
    #[inline]
    pub fn get_bits(&mut self, count: u32) -> Result<u32> {
        debug_assert!(count <= 16);
        if count == 0 {
            return Ok(0);
        }
        if self.nbits < count {
            self.fill()?;
        }
        let v = (self.acc >> (self.nbits - count)) & ((1u64 << count) - 1);
        self.nbits -= count;
        Ok(v as u32)
    }

    /// Read a single bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<u32> {
        self.get_bits(1)
    }

    /// Peek at up to 16 bits without consuming them (used by the Huffman
    /// fast path).
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> Result<u32> {
        debug_assert!(count <= 16 && count > 0);
        if self.nbits < count {
            self.fill()?;
        }
        Ok(((self.acc >> (self.nbits - count)) & ((1u64 << count) - 1)) as u32)
    }

    /// Consume `count` bits previously obtained via [`BitReader::peek_bits`].
    pub fn consume(&mut self, count: u32) {
        debug_assert!(self.nbits >= count);
        self.nbits -= count;
    }

    /// Discard buffered bits and align to the next byte boundary, then
    /// expect and consume a restart marker. Returns its index (0..=7).
    pub fn read_restart(&mut self) -> Result<u8> {
        // Drop partial bits.
        self.nbits = 0;
        self.acc = 0;
        if let Some(m) = self.pending_marker {
            if (0xD0..=0xD7).contains(&m) {
                self.pending_marker = None;
                self.pos = self.marker_pos + 2;
                return Ok(m - 0xD0);
            }
            return Err(JpegError::Format(format!("expected restart marker, found FF{m:02X}")));
        }
        // Scan forward for the marker directly.
        while self.pos + 1 < self.data.len() {
            if self.data[self.pos] == 0xFF {
                let m = self.data[self.pos + 1];
                if (0xD0..=0xD7).contains(&m) {
                    self.pos += 2;
                    return Ok(m - 0xD0);
                }
                if m == 0xFF {
                    self.pos += 1;
                    continue;
                }
                return Err(JpegError::Format(format!("expected restart marker, found FF{m:02X}")));
            }
            self.pos += 1; // tolerate garbage before RST like libjpeg
        }
        Err(JpegError::Truncated)
    }

    /// Read a signed value encoded with JPEG's "EXTEND" procedure: `count`
    /// magnitude bits where a leading 0 bit means a negative value.
    pub fn receive_extend(&mut self, count: u32) -> Result<i32> {
        if count == 0 {
            return Ok(0);
        }
        let v = self.get_bits(count)? as i32;
        // If the MSB is 0, the value is negative: v - (2^count - 1).
        if v < (1 << (count - 1)) {
            Ok(v - (1 << count) + 1)
        } else {
            Ok(v)
        }
    }
}

/// Encode a signed coefficient value into (size, raw bits) per the JPEG
/// variable-length-integer convention (inverse of `receive_extend`).
pub fn encode_magnitude(v: i32) -> (u32, u32) {
    if v == 0 {
        return (0, 0);
    }
    let abs = v.unsigned_abs();
    let size = 32 - abs.leading_zeros();
    let bits = if v < 0 {
        // One's-complement style: value - 1 in `size` bits.
        (v - 1) as u32 & ((1u32 << size) - 1)
    } else {
        v as u32
    };
    (size, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_stuffs_ff_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0xFF, 8);
        w.put_bits(0xAB, 8);
        let out = w.finish();
        assert_eq!(out, vec![0xFF, 0x00, 0xAB]);
    }

    #[test]
    fn writer_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        let out = w.finish();
        assert_eq!(out, vec![0b1011_1111]);
    }

    #[test]
    fn reader_unstuffs() {
        let data = [0xFF, 0x00, 0xAB];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn reader_stops_at_marker() {
        let data = [0x12, 0xFF, 0xD9];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(8).unwrap(), 0x12);
        // Next reads hit the synthesized padding; marker is recorded.
        let _ = r.get_bits(8).unwrap();
        assert_eq!(r.pending_marker(), Some(0xD9));
        assert_eq!(r.marker_position(), 1);
    }

    #[test]
    fn roundtrip_various_bit_patterns() {
        let mut w = BitWriter::new();
        let seq: Vec<(u32, u32)> =
            vec![(0x1, 1), (0x3, 2), (0x1F, 5), (0xFF, 8), (0x3FF, 10), (0x0, 3), (0xFFFF, 16)];
        for &(v, n) in &seq {
            w.put_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &seq {
            assert_eq!(r.get_bits(n).unwrap(), v, "pattern {v:#x}/{n}");
        }
    }

    #[test]
    fn receive_extend_matches_encode_magnitude() {
        for v in [-1023i32, -255, -128, -17, -1, 1, 2, 17, 127, 255, 1023] {
            let (size, bits) = encode_magnitude(v);
            let mut w = BitWriter::new();
            w.put_bits(bits, size);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.receive_extend(size).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn encode_magnitude_sizes() {
        assert_eq!(encode_magnitude(0), (0, 0));
        assert_eq!(encode_magnitude(1), (1, 1));
        assert_eq!(encode_magnitude(-1), (1, 0));
        assert_eq!(encode_magnitude(2).0, 2);
        assert_eq!(encode_magnitude(-3).0, 2);
        assert_eq!(encode_magnitude(255).0, 8);
        assert_eq!(encode_magnitude(-256).0, 9);
    }

    #[test]
    fn restart_marker_is_consumed() {
        // one byte of data, align, RST0, one more byte
        let data = [0xA5, 0xFF, 0xD0, 0x5A];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(8).unwrap(), 0xA5);
        assert_eq!(r.read_restart().unwrap(), 0);
        assert_eq!(r.get_bits(8).unwrap(), 0x5A);
    }

    #[test]
    fn peek_then_consume() {
        let data = [0b1010_1010, 0b0101_0101];
        let mut r = BitReader::new(&data);
        assert_eq!(r.peek_bits(4).unwrap(), 0b1010);
        r.consume(2);
        assert_eq!(r.get_bits(2).unwrap(), 0b10);
        assert_eq!(r.get_bits(4).unwrap(), 0b1010);
    }
}

//! Marker constants, the segment walker, and segment writers.
//!
//! Every reader of a JPEG's segment structure walks it through one
//! [`Segments`] iterator, so one framing rule decides what each of them
//! sees:
//!
//! * the stream opens with SOI and the walk ends at EOI;
//! * TEM, RSTn, SOI and EOI stand alone; every other marker is followed
//!   by a two-byte length that counts itself and the payload (T.81
//!   Table B.1);
//! * between segments only `0xFF` fill bytes may precede a marker;
//! * the entropy-coded segment after an SOS runs to the next marker that
//!   is not RSTn (`FF 00` is a stuffed byte, not a marker).
//!
//! Its readers are the decoder; the **PSP simulator**, which strips
//! application markers from uploads exactly like Facebook/Flickr do (the
//! paper found both providers "wipe out all irrelevant markers", which
//! is why the secret part cannot ride along in an APPn segment and needs
//! a separate storage provider); and [`summarize`], which `p3 info`, the
//! `unknown_pipeline_recovery` example and tests read to tell what kind
//! of transform a PSP applied (baseline vs progressive, sampling
//! factors, dimensions). The frame header's fields are parsed in one
//! place too, [`FrameHeader::parse`].

use crate::{JpegError, Result};

/// Start of image.
pub const SOI: u8 = 0xD8;
/// End of image.
pub const EOI: u8 = 0xD9;
/// Baseline sequential DCT frame.
pub const SOF0: u8 = 0xC0;
/// Extended sequential DCT frame.
pub const SOF1: u8 = 0xC1;
/// Progressive DCT frame.
pub const SOF2: u8 = 0xC2;
/// Define Huffman table(s).
pub const DHT: u8 = 0xC4;
/// Define quantization table(s).
pub const DQT: u8 = 0xDB;
/// Define restart interval.
pub const DRI: u8 = 0xDD;
/// Start of scan.
pub const SOS: u8 = 0xDA;
/// Comment.
const COM: u8 = 0xFE;
/// First application segment (JFIF).
const APP0: u8 = 0xE0;

/// Is this a standalone marker (TEM, RSTn, SOI, EOI: no length field)?
fn is_standalone(marker: u8) -> bool {
    matches!(marker, 0x01 | 0xD0..=0xD9)
}

/// The segments of a JPEG stream from SOI to EOI, as `(marker, payload)`
/// (the payload after the length field; empty for a standalone marker).
/// An error ends the walk. Nothing is allocated.
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    data: &'a [u8],
    /// Offset of the next unread byte.
    pos: usize,
    /// The last segment was an SOS whose entropy-coded segment has not
    /// been passed yet.
    in_scan: bool,
    /// EOI or an error ended the walk.
    done: bool,
}

/// Walk the segments of a JPEG stream.
pub fn segments(data: &[u8]) -> Segments<'_> {
    Segments { data, pos: 0, in_scan: false, done: false }
}

impl<'a> Segments<'a> {
    /// The entropy-coded segment after the SOS just walked, from where
    /// the walk stands to the next marker that is not RSTn (empty after
    /// any other segment).
    pub(crate) fn entropy(&mut self) -> Result<&'a [u8]> {
        let start = self.pos;
        while self.in_scan {
            match self.data.get(self.pos..self.pos + 2).ok_or(JpegError::Truncated)? {
                [0xFF, 0x00 | 0xD0..=0xD7] => self.pos += 2,
                [0xFF, m] if *m != 0xFF => self.in_scan = false,
                _ => self.pos += 1,
            }
        }
        Ok(&self.data[start..self.pos])
    }

    /// Everything after the SOS just walked, for a decoder to read its
    /// entropy-coded segment from.
    pub(crate) fn scan_data(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Stand `consumed` bytes into the entropy-coded segment, where a
    /// decoder stopped reading it; the walk passes the rest of the
    /// segment, if any, by [`Segments::entropy`]'s rule.
    pub(crate) fn resume(&mut self, consumed: usize) {
        self.pos += consumed;
    }

    fn segment(&mut self) -> Result<(u8, &'a [u8])> {
        let data = self.data;
        if self.pos == 0 {
            if data.get(..2) != Some(&[0xFF, SOI]) {
                return Err(JpegError::Format("missing SOI".into()));
            }
            self.pos = 2;
            return Ok((SOI, &[]));
        }
        self.entropy()?;
        if data.get(self.pos).is_some_and(|&b| b != 0xFF) {
            return Err(JpegError::Format(format!("expected marker at offset {}", self.pos)));
        }
        while data.get(self.pos) == Some(&0xFF) {
            self.pos += 1;
        }
        let marker = *data.get(self.pos).ok_or(JpegError::Truncated)?;
        self.pos += 1;
        if is_standalone(marker) {
            return Ok((marker, &[]));
        }
        let len = data.get(self.pos..self.pos + 2).ok_or(JpegError::Truncated)?;
        let len = usize::from(u16::from_be_bytes([len[0], len[1]]));
        // A length under 2 is a reversed range: no payload.
        let payload = data.get(self.pos + 2..self.pos + len).ok_or(JpegError::Truncated)?;
        self.pos += len;
        self.in_scan = marker == SOS;
        Ok((marker, payload))
    }
}

impl<'a> Iterator for Segments<'a> {
    type Item = Result<(u8, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let segment = self.segment();
        self.done = matches!(segment, Err(_) | Ok((EOI, _)));
        Some(segment)
    }
}

/// The fields of a frame header (T.81 B.2.2), which the decoder and
/// [`summarize`] both read through [`FrameHeader::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader<'a> {
    /// Sample precision in bits.
    pub precision: u8,
    /// Lines (0: deferred to a DNL segment).
    pub height: usize,
    /// Samples per line.
    pub width: usize,
    /// Three bytes per component: id, `h << 4 | v`, quant table.
    specs: &'a [u8],
}

impl<'a> FrameHeader<'a> {
    /// Parse an SOF payload: one to four components, each naming a
    /// quant table 0..=3, and not a byte more or less.
    pub fn parse(payload: &'a [u8]) -> Result<Self> {
        let mismatch = || JpegError::Format("SOF length mismatch".into());
        let [precision, h1, h0, w1, w0, n, ref specs @ ..] = *payload else {
            return Err(mismatch());
        };
        if n == 0 || n > 4 {
            return Err(JpegError::Format(format!("{n} components")));
        }
        if specs.len() != 3 * usize::from(n) {
            return Err(mismatch());
        }
        if let Some(tq) = specs.chunks_exact(3).map(|c| c[2]).find(|&tq| tq > 3) {
            return Err(JpegError::Format(format!("SOF names quant table {tq}")));
        }
        let height = usize::from(u16::from_be_bytes([h1, h0]));
        let width = usize::from(u16::from_be_bytes([w1, w0]));
        Ok(Self { precision, height, width, specs })
    }

    /// Each component's id, `(h, v)` sampling factors and quant table, in
    /// frame order.
    pub fn components(&self) -> impl Iterator<Item = (u8, (u8, u8), usize)> + 'a {
        self.specs.chunks_exact(3).map(|c| (c[0], (c[1] >> 4, c[1] & 0x0F), usize::from(c[2])))
    }
}

/// Serialize a marker with payload (length field added automatically).
pub fn write_segment(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.push(0xFF);
    out.push(marker);
    let len = (payload.len() + 2) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Serialize the standard JFIF APP0 header (version 1.01, no thumbnail).
pub fn write_jfif_app0(out: &mut Vec<u8>) {
    let payload = [
        b'J', b'F', b'I', b'F', 0x00, // identifier
        0x01, 0x01, // version 1.01
        0x00, // density units: none (aspect ratio)
        0x00, 0x01, 0x00, 0x01, // x/y density 1:1
        0x00, 0x00, // no thumbnail
    ];
    write_segment(out, APP0, &payload);
}

/// Rebuild a JPEG byte stream with all APPn and COM segments removed —
/// the marker-stripping behaviour the paper observed at Facebook and
/// Flickr. The entropy-coded data is copied verbatim (no re-encode).
pub fn strip_app_markers(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len());
    let mut walk = segments(data);
    while let Some(segment) = walk.next() {
        match segment? {
            (0xE0..=0xEF | COM, _) => {} // dropped
            (m, _) if is_standalone(m) => out.extend_from_slice(&[0xFF, m]),
            (m, payload) => {
                write_segment(&mut out, m, payload);
                out.extend_from_slice(walk.entropy()?);
            }
        }
    }
    Ok(out)
}

/// Quick structural summary used by tests and the PSP reverse-engineering
/// search ("by inspecting the JPEG header, we can tell some kinds of
/// transformations that may have been performed").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderSummary {
    /// True if the frame is progressive (SOF2).
    pub progressive: bool,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of components (1 = gray, 3 = YCbCr).
    pub components: usize,
    /// (h, v) sampling factors per component.
    pub sampling: Vec<(u8, u8)>,
    /// Markers present in stream order.
    pub markers: Vec<u8>,
}

/// Parse just enough of the stream to summarize its structure.
pub fn summarize(data: &[u8]) -> Result<HeaderSummary> {
    let mut summary = HeaderSummary {
        progressive: false,
        width: 0,
        height: 0,
        components: 0,
        sampling: Vec::new(),
        markers: Vec::new(),
    };
    for segment in segments(data) {
        let (marker, payload) = segment?;
        summary.markers.push(marker);
        if matches!(marker, SOF0 | SOF1 | SOF2) {
            // The decoder builds its frame from the first header and
            // refuses a second; a summary that reported the last would
            // describe a frame nothing decodes.
            if summary.components > 0 {
                return Err(JpegError::Unsupported("multiple frames".into()));
            }
            let frame = FrameHeader::parse(payload)?;
            summary.progressive = marker == SOF2;
            (summary.width, summary.height) = (frame.width, frame.height);
            summary.sampling = frame.components().map(|(_, hv, _)| hv).collect();
            summary.components = summary.sampling.len();
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each segment's marker and the entropy-coded bytes after it.
    fn walk(data: &[u8]) -> Result<Vec<(u8, Vec<u8>)>> {
        let mut walk = segments(data);
        let mut out = Vec::new();
        while let Some(segment) = walk.next() {
            let (marker, _) = segment?;
            out.push((marker, walk.entropy()?.to_vec()));
        }
        Ok(out)
    }

    fn markers(data: &[u8]) -> Vec<u8> {
        walk(data).unwrap().iter().map(|s| s.0).collect()
    }

    fn tiny_stream() -> Vec<u8> {
        // SOI, APP0, COM, DQT(fake), SOS + entropy, EOI
        let mut v = vec![0xFF, SOI];
        write_jfif_app0(&mut v);
        write_segment(&mut v, COM, b"hello");
        write_segment(&mut v, DQT, &[0u8; 65]);
        write_segment(&mut v, SOS, &[1, 1, 0, 0, 63, 0]);
        v.extend_from_slice(&[0x12, 0x34, 0xFF, 0x00, 0x56]);
        v.extend_from_slice(&[0xFF, EOI]);
        v
    }

    #[test]
    fn walks_segments_in_order() {
        let v = tiny_stream();
        assert_eq!(markers(&v), vec![SOI, APP0, COM, DQT, SOS, EOI]);
        let segs = walk(&v).unwrap();
        let sos = segs.iter().find(|s| s.0 == SOS).unwrap();
        assert_eq!(sos.1, &[0x12, 0x34, 0xFF, 0x00, 0x56]);
    }

    #[test]
    fn strip_removes_app_and_com() {
        let v = tiny_stream();
        let stripped = strip_app_markers(&v).unwrap();
        assert_eq!(markers(&stripped), vec![SOI, DQT, SOS, EOI]);
        // Entropy data survives byte-for-byte.
        let segs = walk(&stripped).unwrap();
        let sos = segs.iter().find(|s| s.0 == SOS).unwrap();
        assert_eq!(sos.1, &[0x12, 0x34, 0xFF, 0x00, 0x56]);
    }

    #[test]
    fn missing_soi_rejected() {
        assert!(walk(&[0x00, 0x01]).is_err());
        assert!(walk(&[]).is_err());
    }

    #[test]
    fn truncated_segment_rejected() {
        let mut v = vec![0xFF, SOI];
        v.extend_from_slice(&[0xFF, DQT, 0x00, 0x50]); // claims 0x50 bytes, has none
        assert!(matches!(walk(&v), Err(JpegError::Truncated)));
    }

    /// The framing rule at its edges: fill bytes before a marker, a
    /// stray SOI stands alone, anything else between segments is refused,
    /// and fill bytes end an entropy-coded segment like its marker does.
    #[test]
    fn one_framing_rule() {
        let mut v = tiny_stream();
        v.splice(2..2, [0xFF, 0xFF, 0xFF, SOI]);
        assert_eq!(markers(&v), vec![SOI, SOI, APP0, COM, DQT, SOS, EOI]);
        v.splice(2..2, [0x00]);
        assert!(matches!(walk(&v), Err(JpegError::Format(_))));
        let mut v = tiny_stream();
        v.splice(v.len() - 2..v.len() - 2, [0xFF, 0xFF]);
        let segs = walk(&v).unwrap();
        assert_eq!(segs[segs.len() - 2].1, &[0x12, 0x34, 0xFF, 0x00, 0x56, 0xFF, 0xFF]);
        let mut v = vec![0xFF, SOI, 0xFF, DQT, 0x00, 0x01];
        v.extend_from_slice(&[0xFF, EOI]);
        assert!(matches!(walk(&v), Err(JpegError::Truncated)), "a length under 2");
    }

    #[test]
    fn rst_markers_stay_inside_entropy() {
        let mut v = vec![0xFF, SOI];
        write_segment(&mut v, SOS, &[1, 1, 0, 0, 63, 0]);
        v.extend_from_slice(&[0xAA, 0xFF, 0xD0, 0xBB, 0xFF, 0xD1, 0xCC]);
        v.extend_from_slice(&[0xFF, EOI]);
        let segs = walk(&v).unwrap();
        let sos = segs.iter().find(|s| s.0 == SOS).unwrap();
        assert_eq!(sos.1.len(), 7);
    }

    #[test]
    fn summarize_reports_sof() {
        // hand-build SOF0: precision 8, 2x3 px, 1 component id=1 sampling 1x1 qtable 0
        let mut v = vec![0xFF, SOI];
        write_segment(&mut v, SOF0, &[8, 0, 3, 0, 2, 1, 1, 0x11, 0]);
        write_segment(&mut v, SOS, &[1, 1, 0, 0, 63, 0]);
        v.extend_from_slice(&[0xFF, EOI]);
        let s = summarize(&v).unwrap();
        assert!(!s.progressive);
        assert_eq!((s.width, s.height), (2, 3));
        assert_eq!(s.components, 1);
        assert_eq!(s.sampling, vec![(1, 1)]);
    }

    #[test]
    fn summarize_refuses_a_second_frame_header() {
        let mut v = vec![0xFF, SOI];
        write_segment(&mut v, SOF0, &[8, 0xEA, 0x60, 0xEA, 0x60, 1, 1, 0x11, 0]);
        write_segment(&mut v, SOF0, &[8, 0, 3, 0, 2, 1, 1, 0x11, 0]);
        v.extend_from_slice(&[0xFF, EOI]);
        assert!(matches!(summarize(&v), Err(JpegError::Unsupported(_))));
    }
}

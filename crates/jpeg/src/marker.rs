//! Marker constants, segment-level parsing, and segment writers.
//!
//! Two consumers need marker-level access besides the codec itself:
//!
//! * the **PSP simulator** strips application markers from uploads exactly
//!   like Facebook/Flickr do (the paper found both providers "wipe out all
//!   irrelevant markers", which is why the secret part cannot ride along in
//!   an APPn segment and needs a separate storage provider);
//! * the **reconstruction proxy** inspects SOF headers to learn what kind
//!   of transform the PSP applied (baseline vs progressive, sampling
//!   factors, dimensions).

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

/// Is this a standalone marker (no length field)?
fn is_standalone(marker: u8) -> bool {
    matches!(marker, 0x01 | 0xD0..=0xD9)
}

/// One parsed segment of a JPEG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    /// The marker code (second byte, after `0xFF`).
    pub marker: u8,
    /// Segment payload (after the 2-byte length), empty for standalone
    /// markers.
    pub payload: &'a [u8],
    /// Entropy-coded bytes following an SOS payload (empty otherwise).
    /// Includes any interleaved RST markers.
    pub entropy: &'a [u8],
}

/// Walk all segments of a JPEG stream from SOI to EOI.
pub fn segments(data: &[u8]) -> Result<Vec<Segment<'_>>> {
    let mut out = Vec::new();
    if data.len() < 2 || data[0] != 0xFF || data[1] != SOI {
        return Err(JpegError::Format("missing SOI".into()));
    }
    out.push(Segment { marker: SOI, payload: &[], entropy: &[] });
    let mut pos = 2usize;
    loop {
        // Find next marker, tolerating fill bytes (repeated 0xFF).
        if pos >= data.len() {
            return Err(JpegError::Truncated);
        }
        if data[pos] != 0xFF {
            return Err(JpegError::Format(format!("expected marker at offset {pos}")));
        }
        while pos < data.len() && data[pos] == 0xFF {
            pos += 1;
        }
        if pos >= data.len() {
            return Err(JpegError::Truncated);
        }
        let marker = data[pos];
        pos += 1;
        if marker == EOI {
            out.push(Segment { marker, payload: &[], entropy: &[] });
            return Ok(out);
        }
        if is_standalone(marker) {
            out.push(Segment { marker, payload: &[], entropy: &[] });
            continue;
        }
        if pos + 2 > data.len() {
            return Err(JpegError::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([data[pos], data[pos + 1]]));
        if len < 2 || pos + len > data.len() {
            return Err(JpegError::Truncated);
        }
        let payload = &data[pos + 2..pos + len];
        pos += len;
        let mut entropy: &[u8] = &[];
        if marker == SOS {
            // Entropy data runs until the next non-RST, non-stuffed marker.
            let start = pos;
            while pos < data.len() {
                if data[pos] == 0xFF {
                    match data.get(pos + 1) {
                        Some(0x00) | Some(0xFF) => pos += 2,
                        Some(m) if (0xD0..=0xD7).contains(m) => pos += 2,
                        Some(_) => break,
                        None => return Err(JpegError::Truncated),
                    }
                } else {
                    pos += 1;
                }
            }
            entropy = &data[start..pos];
        }
        out.push(Segment { marker, payload, entropy });
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
    let segs = segments(data)?;
    let mut out = Vec::with_capacity(data.len());
    for seg in segs {
        match seg.marker {
            SOI => {
                out.push(0xFF);
                out.push(SOI);
            }
            EOI => {
                out.push(0xFF);
                out.push(EOI);
            }
            m if (0xE0..=0xEF).contains(&m) || m == COM => {
                // dropped
            }
            m if is_standalone(m) => {
                out.push(0xFF);
                out.push(m);
            }
            m => {
                write_segment(&mut out, m, seg.payload);
                if m == SOS {
                    out.extend_from_slice(seg.entropy);
                }
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
    let segs = segments(data)?;
    let mut summary = HeaderSummary {
        progressive: false,
        width: 0,
        height: 0,
        components: 0,
        sampling: Vec::new(),
        markers: Vec::new(),
    };
    let mut framed = false;
    for seg in &segs {
        summary.markers.push(seg.marker);
        if seg.marker == SOF0 || seg.marker == SOF1 || seg.marker == SOF2 {
            // The decoder builds its frame from the first header and
            // refuses a second; a summary that reported the last would
            // describe a frame nothing decodes.
            if framed {
                return Err(JpegError::Unsupported("multiple frames".into()));
            }
            framed = true;
            summary.progressive = seg.marker == SOF2;
            let p = seg.payload;
            if p.len() < 6 {
                return Err(JpegError::Truncated);
            }
            summary.height = usize::from(u16::from_be_bytes([p[1], p[2]]));
            summary.width = usize::from(u16::from_be_bytes([p[3], p[4]]));
            summary.components = usize::from(p[5]);
            for c in 0..summary.components {
                let off = 6 + c * 3;
                if off + 2 >= p.len() {
                    return Err(JpegError::Truncated);
                }
                summary.sampling.push((p[off + 1] >> 4, p[off + 1] & 0x0F));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let segs = segments(&v).unwrap();
        let markers: Vec<u8> = segs.iter().map(|s| s.marker).collect();
        assert_eq!(markers, vec![SOI, APP0, COM, DQT, SOS, EOI]);
        let sos = segs.iter().find(|s| s.marker == SOS).unwrap();
        assert_eq!(sos.entropy, &[0x12, 0x34, 0xFF, 0x00, 0x56]);
    }

    #[test]
    fn strip_removes_app_and_com() {
        let v = tiny_stream();
        let stripped = strip_app_markers(&v).unwrap();
        let segs = segments(&stripped).unwrap();
        let markers: Vec<u8> = segs.iter().map(|s| s.marker).collect();
        assert_eq!(markers, vec![SOI, DQT, SOS, EOI]);
        // Entropy data survives byte-for-byte.
        let sos = segs.iter().find(|s| s.marker == SOS).unwrap();
        assert_eq!(sos.entropy, &[0x12, 0x34, 0xFF, 0x00, 0x56]);
    }

    #[test]
    fn missing_soi_rejected() {
        assert!(segments(&[0x00, 0x01]).is_err());
        assert!(segments(&[]).is_err());
    }

    #[test]
    fn truncated_segment_rejected() {
        let mut v = vec![0xFF, SOI];
        v.extend_from_slice(&[0xFF, DQT, 0x00, 0x50]); // claims 0x50 bytes, has none
        assert!(matches!(segments(&v), Err(JpegError::Truncated)));
    }

    #[test]
    fn rst_markers_stay_inside_entropy() {
        let mut v = vec![0xFF, SOI];
        write_segment(&mut v, SOS, &[1, 1, 0, 0, 63, 0]);
        v.extend_from_slice(&[0xAA, 0xFF, 0xD0, 0xBB, 0xFF, 0xD1, 0xCC]);
        v.extend_from_slice(&[0xFF, EOI]);
        let segs = segments(&v).unwrap();
        let sos = segs.iter().find(|s| s.marker == SOS).unwrap();
        assert_eq!(sos.entropy.len(), 7);
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

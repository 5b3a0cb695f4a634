//! The `P3V1` framed video container.
//!
//! ```text
//! magic   "P3V1"              4 bytes
//! width   (be u16)            2
//! height  (be u16)            2
//! fps     (be u16)            2
//! frames  (be u32)            4
//! then per frame:
//!   kind  0=I, 1=P            1
//!   len   (be u32)            4
//!   jpeg  payload             len
//! ```

use crate::{Result, VideoError};
use std::ops::Range;

const MAGIC: &[u8; 4] = b"P3V1";

/// Length of the `P3V1` header; the first frame record starts here.
pub(crate) const HEADER_LEN: usize = 14;

/// Frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra frame (standalone JPEG).
    I,
    /// Predicted frame (JPEG of the level-shifted residual).
    P,
}

/// A parsed/buildable video stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoStream {
    /// Frame width.
    pub width: u16,
    /// Frame height.
    pub height: u16,
    /// Nominal frames per second.
    pub fps: u16,
    /// Frames in order.
    pub frames: Vec<(FrameKind, Vec<u8>)>,
}

impl VideoStream {
    /// Serialize.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self.frames.iter().map(|(_, d)| 5 + d.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + body);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.width.to_be_bytes());
        out.extend_from_slice(&self.height.to_be_bytes());
        out.extend_from_slice(&self.fps.to_be_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_be_bytes());
        for (kind, data) in &self.frames {
            out.push(match kind {
                FrameKind::I => 0,
                FrameKind::P => 1,
            });
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// Parse with validation.
    pub fn from_bytes(data: &[u8]) -> Result<VideoStream> {
        let Some((header, records)) = data.split_at_checked(HEADER_LEN) else {
            return Err(VideoError::Container("too short".into()));
        };
        if &header[..4] != MAGIC {
            return Err(VideoError::Container("bad magic".into()));
        }
        let be16 = |i: usize| u16::from_be_bytes([header[i], header[i + 1]]);
        let n = u32::from_be_bytes([header[10], header[11], header[12], header[13]]) as usize;
        let frames = parse_records(records)?;
        if frames.len() != n {
            return Err(VideoError::Container("frame count disagrees with the header".into()));
        }
        if frames.first().map(|(k, _)| *k) == Some(FrameKind::P) {
            return Err(VideoError::Stream("stream starts with a P-frame".into()));
        }
        Ok(VideoStream { width: be16(4), height: be16(6), fps: be16(8), frames })
    }

    /// Indices of the I-frames.
    pub fn iframe_indices(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, (k, _))| *k == FrameKind::I)
            .map(|(i, _)| i)
            .collect()
    }

    /// Byte range of each GOP's frame records in [`to_bytes`](Self::to_bytes),
    /// in order: a GOP starts at each I-frame (and at frame 0), and the
    /// ranges tile everything after the header.
    pub fn gop_ranges(&self) -> Vec<Range<usize>> {
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let mut pos = HEADER_LEN;
        for (kind, data) in &self.frames {
            let end = pos + 5 + data.len();
            match ranges.last_mut() {
                Some(gop) if *kind == FrameKind::P => gop.end = end,
                _ => ranges.push(pos..end),
            }
            pos = end;
        }
        ranges
    }
}

/// Parse a run of frame records that fills `data` exactly — the body of
/// a `P3V1` stream, or one GOP's slice of it.
pub(crate) fn parse_records(mut data: &[u8]) -> Result<Vec<(FrameKind, Vec<u8>)>> {
    let mut frames = Vec::new();
    while !data.is_empty() {
        let i = frames.len();
        let Some((&[kind, l0, l1, l2, l3], rest)) = data.split_first_chunk::<5>() else {
            return Err(VideoError::Container(format!("frame {i} header truncated")));
        };
        let kind = match kind {
            0 => FrameKind::I,
            1 => FrameKind::P,
            k => return Err(VideoError::Container(format!("frame {i}: bad kind {k}"))),
        };
        let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
        let Some((payload, rest)) = rest.split_at_checked(len) else {
            return Err(VideoError::Container(format!("frame {i} body truncated")));
        };
        frames.push((kind, payload.to_vec()));
        data = rest;
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VideoStream {
        VideoStream {
            width: 64,
            height: 48,
            fps: 24,
            frames: vec![
                (FrameKind::I, vec![1, 2, 3]),
                (FrameKind::P, vec![4]),
                (FrameKind::P, vec![]),
                (FrameKind::I, vec![5, 6]),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let v = sample();
        assert_eq!(VideoStream::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn iframe_indices() {
        assert_eq!(sample().iframe_indices(), vec![0, 3]);
    }

    #[test]
    fn gop_ranges_tile_the_stream() {
        let v = sample();
        let bytes = v.to_bytes();
        let ranges = v.gop_ranges();
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].start, HEADER_LEN, "first gop starts right after the header");
        assert_eq!(ranges[0].end, ranges[1].start, "gops tile with no gap");
        assert_eq!(ranges[1].end, bytes.len(), "last gop runs to the end of the stream");
        // Each range holds exactly its GOP's frame records.
        assert_eq!(parse_records(&bytes[ranges[0].clone()]).unwrap(), v.frames[..3]);
        assert_eq!(parse_records(&bytes[ranges[1].clone()]).unwrap(), v.frames[3..]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(VideoStream::from_bytes(b"").is_err());
        assert!(VideoStream::from_bytes(b"XXXX00000000000000").is_err());
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(VideoStream::from_bytes(&bytes).is_err());
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(VideoStream::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_leading_p_frame() {
        let v = VideoStream { width: 8, height: 8, fps: 1, frames: vec![(FrameKind::P, vec![1])] };
        assert!(matches!(VideoStream::from_bytes(&v.to_bytes()), Err(VideoError::Stream(_))));
    }
}

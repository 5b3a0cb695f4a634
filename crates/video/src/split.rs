//! P3 applied to video: split the I-frames, leave P-frames in the clear
//! (paper §4.2). Because every P-frame predicts from its GOP's I-frame,
//! destroying the I-frame's content destroys the whole GOP for anyone
//! without the secret stream.
//!
//! The sealed secret stream is the clip's only trusted record. It binds
//! each GOP's bytes in the public stream, so a GOP can be fetched by
//! byte range from an untrusted store and checked on its own:
//!
//! ```text
//! magic   "P3VT"              4
//! width, height, fps (be u16) 6
//! gops    (be u32)            4
//! then per GOP:
//!   len    (be u64)           8   its frame records' bytes in the public stream
//!   sha256 of those bytes     32
//!   clen   (be u32)           4
//!   the I-frame's SecretContainer   clen
//! ```

use crate::container::{parse_records, FrameKind, VideoStream, HEADER_LEN};
use crate::{Result, VideoError};
use p3_core::container::SecretContainer;
use p3_core::pipeline::{rejoin, P3Codec};
use p3_crypto::{sha256, EnvelopeKey};
use std::ops::Range;

const MAGIC: &[u8; 4] = b"P3VT";

/// One GOP's row of the sealed table.
struct Gop {
    /// Length of the GOP's frame records in the public stream.
    len: usize,
    /// SHA-256 of those bytes.
    digest: [u8; 32],
    /// The secret part of the GOP's I-frame.
    secret: SecretContainer,
}

/// An opened secret stream: the public stream's geometry and, per GOP,
/// where its bytes lie, what they hash to and its I-frame's secret.
pub struct GopTable {
    /// The public stream's width, height and fps; no frames.
    geometry: VideoStream,
    gops: Vec<Gop>,
}

impl GopTable {
    /// Number of GOPs in the clip.
    pub fn gop_count(&self) -> usize {
        self.gops.len()
    }

    /// Byte range of GOP `k`'s frame records in the public stream.
    pub fn range(&self, k: usize) -> Option<Range<usize>> {
        let start = HEADER_LEN + self.gops.get(..k)?.iter().map(|g| g.len).sum::<usize>();
        Some(start..start + self.gops.get(k)?.len)
    }
}

/// Split a video: each I-frame becomes (public part, secret part).
/// Returns the serialized public stream, whose I-frames are P3 public
/// parts and which is safe to hand to an untrusted service, and the
/// secret stream sealed under `key`.
pub fn split_video(
    stream: &VideoStream,
    codec: &P3Codec,
    key: &EnvelopeKey,
) -> Result<(Vec<u8>, Vec<u8>)> {
    if stream.frames.first().is_some_and(|(kind, _)| *kind == FrameKind::P) {
        return Err(VideoError::Stream("stream starts with a P-frame".into()));
    }
    let mut frames = Vec::with_capacity(stream.frames.len());
    let mut secrets = Vec::new();
    for (kind, jpeg) in &stream.frames {
        let data = match kind {
            FrameKind::I => {
                let (public_jpeg, container, _) = codec.split_jpeg(jpeg)?;
                secrets.push(container.to_bytes());
                public_jpeg
            }
            FrameKind::P => jpeg.clone(),
        };
        frames.push((*kind, data));
    }
    let public = VideoStream { frames, ..*stream };
    let public_bytes = public.to_bytes();
    let mut payload = Vec::new();
    payload.extend_from_slice(MAGIC);
    for v in [public.width, public.height, public.fps] {
        payload.extend_from_slice(&v.to_be_bytes());
    }
    payload.extend_from_slice(&(secrets.len() as u32).to_be_bytes());
    for (range, secret) in public.gop_ranges().into_iter().zip(secrets) {
        let gop = &public_bytes[range];
        payload.extend_from_slice(&(gop.len() as u64).to_be_bytes());
        payload.extend_from_slice(&sha256(gop));
        payload.extend_from_slice(&(secret.len() as u32).to_be_bytes());
        payload.extend_from_slice(&secret);
    }
    Ok((public_bytes, p3_crypto::seal(key, &payload)))
}

/// The next `N` bytes of a secret-stream payload.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N]> {
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or_else(|| VideoError::Container("secret stream truncated".into()))?;
    *rest = tail;
    Ok(*head)
}

/// Open a sealed secret stream into its GOP table.
pub fn open_secret_stream(secret: &[u8], key: &EnvelopeKey) -> Result<GopTable> {
    let payload = p3_crypto::open(key, secret).map_err(p3_core::P3Error::Envelope)?;
    let mut rest = &payload[..];
    if &take::<4>(&mut rest)? != MAGIC {
        return Err(VideoError::Container("bad secret stream header".into()));
    }
    let [w0, w1, h0, h1, f0, f1, n0, n1, n2, n3] = take(&mut rest)?;
    let n = u32::from_be_bytes([n0, n1, n2, n3]) as usize;
    let mut gops = Vec::with_capacity(n.min(4096));
    for k in 0..n {
        let len = usize::try_from(u64::from_be_bytes(take(&mut rest)?))
            .map_err(|_| VideoError::Container(format!("gop {k} too long")))?;
        let digest = take(&mut rest)?;
        let clen = u32::from_be_bytes(take(&mut rest)?) as usize;
        let Some((container, tail)) = rest.split_at_checked(clen) else {
            return Err(VideoError::Container(format!("secret {k} body truncated")));
        };
        gops.push(Gop { len, digest, secret: SecretContainer::from_bytes(container)? });
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(VideoError::Container("trailing secret bytes".into()));
    }
    let be16 = u16::from_be_bytes;
    let geometry = VideoStream {
        width: be16([w0, w1]),
        height: be16([h0, h1]),
        fps: be16([f0, f1]),
        frames: Vec::new(),
    };
    Ok(GopTable { geometry, gops })
}

/// GOP `k` of the original clip from its byte range of the public stream:
/// checks `fragment` against the sealed digest, parses its frame records
/// and rejoins its I-frame. P-frames pass through unchanged.
pub fn reconstruct_gop(fragment: &[u8], table: &GopTable, k: usize) -> Result<VideoStream> {
    let gop = table.gops.get(k).ok_or_else(|| VideoError::Stream(format!("no gop {k}")))?;
    if fragment.len() != gop.len || sha256(fragment) != gop.digest {
        return Err(VideoError::Stream(format!("gop {k}: public bytes fail the sealed digest")));
    }
    let mut frames = parse_records(fragment)?;
    let Some((FrameKind::I, iframe)) = frames.first_mut() else {
        return Err(VideoError::Stream(format!("gop {k} does not start with an I-frame")));
    };
    *iframe = rejoin(iframe, &gop.secret)?;
    Ok(VideoStream { frames, ..table.geometry })
}

/// Reconstruct the original clip from the serialized public stream and
/// its sealed secret stream: [`reconstruct_gop`] on every GOP. The
/// public header is not read (the table carries the geometry), but the
/// stream must be exactly as long as the table says.
pub fn reconstruct_video(public: &[u8], secret: &[u8], key: &EnvelopeKey) -> Result<VideoStream> {
    let table = open_secret_stream(secret, key)?;
    let ranges: Vec<_> = (0..table.gop_count()).map_while(|k| table.range(k)).collect();
    if public.len() != ranges.last().map_or(HEADER_LEN, |r| r.end) {
        return Err(VideoError::Stream(
            "public stream length disagrees with its sealed table".into(),
        ));
    }
    let mut frames = Vec::new();
    for (k, range) in ranges.into_iter().enumerate() {
        frames.extend(reconstruct_gop(&public[range], &table, k)?.frames);
    }
    Ok(VideoStream { frames, ..table.geometry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{test_clip, GopCodec, VideoCodecParams};
    use p3_core::pipeline::P3Config;
    use p3_core::pixel::rgb_to_luma;
    use p3_vision::metrics::psnr;

    fn setup() -> (Vec<p3_jpeg::RgbImage>, VideoStream, GopCodec) {
        let frames = test_clip(9, 64, 48, 12);
        let gop = GopCodec::new(VideoCodecParams { gop: 6, ..Default::default() });
        let stream = gop.encode(&frames).unwrap();
        (frames, stream, gop)
    }

    #[test]
    fn split_reconstruct_roundtrip() {
        let (frames, stream, gop) = setup();
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let key = EnvelopeKey::derive(b"video master", b"clip-1");
        let (public, secret) = split_video(&stream, &codec, &key).unwrap();
        let restored = reconstruct_video(&public, &secret, &key).unwrap();
        let decoded = gop.decode(&restored).unwrap();
        for (orig, dec) in frames.iter().zip(decoded.iter()) {
            let db = psnr(&rgb_to_luma(orig), &rgb_to_luma(dec));
            assert!(db > 28.0, "reconstructed frame {db:.1} dB");
        }
    }

    #[test]
    fn public_video_degrades_whole_gops() {
        let (frames, stream, gop) = setup();
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let key = EnvelopeKey::derive(b"video master", b"clip-2");
        let (public, _) = split_video(&stream, &codec, &key).unwrap();
        // Decode the public video WITHOUT the secret stream.
        let decoded = gop.decode(&VideoStream::from_bytes(&public).unwrap()).unwrap();
        // Every frame — including P-frames that were left in the clear —
        // must be badly degraded, because the GOP predicts from a
        // destroyed I-frame (the paper's propagation argument).
        for (i, (orig, dec)) in frames.iter().zip(decoded.iter()).enumerate() {
            let db = psnr(&rgb_to_luma(orig), &rgb_to_luma(dec));
            assert!(db < 22.0, "frame {i}: public video too good ({db:.1} dB)");
        }
    }

    #[test]
    fn wrong_key_fails() {
        let (_, stream, _) = setup();
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let key = EnvelopeKey::derive(b"video master", b"clip-3");
        let (public, secret) = split_video(&stream, &codec, &key).unwrap();
        let wrong = EnvelopeKey::derive(b"not it", b"clip-3");
        assert!(reconstruct_video(&public, &secret, &wrong).is_err());
    }

    #[test]
    fn secret_stream_is_small_relative_to_video() {
        let (_, stream, _) = setup();
        let codec = P3Codec::new(P3Config { threshold: 20 });
        let key = EnvelopeKey::derive(b"video master", b"clip-4");
        let (public, secret) = split_video(&stream, &codec, &key).unwrap();
        // Only I-frames contribute secrets; the stream is mostly P-frames.
        assert!(secret.len() < public.len(), "secret {} >= public {}", secret.len(), public.len());
    }

    /// A split clip's public bytes, its opened table and the key.
    fn split_clip() -> (VideoStream, Vec<u8>, Vec<u8>, EnvelopeKey) {
        let (_, stream, _) = setup();
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let key = EnvelopeKey::derive(b"video master", b"clip-5");
        let (public, secret) = split_video(&stream, &codec, &key).unwrap();
        (stream, public, secret, key)
    }

    #[test]
    fn each_gop_reconstructs_its_share_of_the_clip() {
        let (_, public, secret, key) = split_clip();
        let table = open_secret_stream(&secret, &key).unwrap();
        assert_eq!(table.gop_count(), 2);
        let whole = reconstruct_video(&public, &secret, &key).unwrap();
        let mut frames = Vec::new();
        for k in 0..table.gop_count() {
            let gop = reconstruct_gop(&public[table.range(k).unwrap()], &table, k).unwrap();
            assert_eq!((gop.width, gop.height, gop.fps), (whole.width, whole.height, whole.fps));
            frames.extend(gop.frames);
        }
        assert_eq!(frames, whole.frames);
        assert!(table.range(2).is_none());
    }

    #[test]
    fn reconstruct_gop_rejects_a_flipped_byte() {
        let (_, public, secret, key) = split_clip();
        let table = open_secret_stream(&secret, &key).unwrap();
        let range = table.range(1).unwrap();
        // A byte inside the GOP's last frame: a P-frame payload.
        let mut fragment = public[range].to_vec();
        let last = fragment.len() - 1;
        fragment[last] ^= 1;
        assert!(matches!(reconstruct_gop(&fragment, &table, 1), Err(VideoError::Stream(_))));
    }

    #[test]
    fn reconstruct_gop_rejects_another_gops_fragment() {
        let (_, public, secret, key) = split_clip();
        let table = open_secret_stream(&secret, &key).unwrap();
        let gop0 = &public[table.range(0).unwrap()];
        assert!(reconstruct_gop(gop0, &table, 0).is_ok());
        assert!(matches!(reconstruct_gop(gop0, &table, 1), Err(VideoError::Stream(_))));
        assert!(matches!(reconstruct_gop(gop0, &table, 2), Err(VideoError::Stream(_))));
    }

    #[test]
    fn reconstruct_video_rejects_a_stream_of_the_wrong_length() {
        let (_, mut public, secret, key) = split_clip();
        public.pop();
        assert!(reconstruct_video(&public, &secret, &key).is_err(), "one byte short");
        public.extend_from_slice(&[0, 0]);
        assert!(reconstruct_video(&public, &secret, &key).is_err(), "one byte long");
    }

    #[test]
    fn open_secret_stream_rejects_the_old_format() {
        // A `P3VS` payload: an I-frame count, then length-framed containers.
        let (stream, _, _, key) = split_clip();
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let mut payload = b"P3VS".to_vec();
        let iframes = stream.iframe_indices();
        payload.extend_from_slice(&(iframes.len() as u32).to_be_bytes());
        for i in iframes {
            let (_, container, _) = codec.split_jpeg(&stream.frames[i].1).unwrap();
            let bytes = container.to_bytes();
            payload.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            payload.extend_from_slice(&bytes);
        }
        let sealed = p3_crypto::seal(&key, &payload);
        assert!(matches!(open_secret_stream(&sealed, &key), Err(VideoError::Container(_))));
    }

    #[test]
    fn split_refuses_a_leading_p_frame() {
        let (_, mut stream, _) = setup();
        stream.frames[0].0 = FrameKind::P;
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let key = EnvelopeKey::derive(b"video master", b"clip-6");
        assert!(matches!(split_video(&stream, &codec, &key), Err(VideoError::Stream(_))));
    }
}

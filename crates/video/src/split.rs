//! P3 applied to video: split the I-frames, leave P-frames in the clear
//! (paper §4.2). Because every P-frame predicts from its GOP's I-frame,
//! destroying the I-frame's content destroys the whole GOP for anyone
//! without the secret stream.

use crate::container::{FrameKind, VideoStream};
use crate::{Result, VideoError};
use p3_core::container::SecretContainer;
use p3_core::pipeline::P3Codec;
use p3_crypto::EnvelopeKey;

const MAGIC: &[u8; 4] = b"P3VS";

/// Split a video: each I-frame becomes (public part, secret part); the
/// secret parts are framed together and sealed under `key`. Returns the
/// public video, whose I-frames are P3 public parts and which is safe to
/// hand to an untrusted video-sharing service, and the sealed secret
/// stream.
pub fn split_video(
    stream: &VideoStream,
    codec: &P3Codec,
    key: &EnvelopeKey,
) -> Result<(VideoStream, Vec<u8>)> {
    let mut public_frames = Vec::with_capacity(stream.frames.len());
    let mut secret_payload = Vec::new();
    secret_payload.extend_from_slice(MAGIC);
    let n_iframes = stream.iframe_indices().len() as u32;
    secret_payload.extend_from_slice(&n_iframes.to_be_bytes());
    for (kind, jpeg) in &stream.frames {
        match kind {
            FrameKind::I => {
                let (public_jpeg, container, _) = codec.split_jpeg(jpeg)?;
                let cbytes = container.to_bytes();
                secret_payload.extend_from_slice(&(cbytes.len() as u32).to_be_bytes());
                secret_payload.extend_from_slice(&cbytes);
                public_frames.push((FrameKind::I, public_jpeg));
            }
            FrameKind::P => public_frames.push((FrameKind::P, jpeg.clone())),
        }
    }
    let public = VideoStream {
        width: stream.width,
        height: stream.height,
        fps: stream.fps,
        frames: public_frames,
    };
    Ok((public, p3_crypto::seal(key, &secret_payload)))
}

/// Open a sealed secret stream into its per-I-frame containers, in
/// I-frame order. Exposed so a GOP-granular consumer (the proxy's
/// ranged video path) can pick container *k* without reconstructing the
/// whole clip.
pub fn open_secret_stream(secret: &[u8], key: &EnvelopeKey) -> Result<Vec<SecretContainer>> {
    let payload = p3_crypto::open(key, secret).map_err(p3_core::P3Error::Envelope)?;
    if payload.len() < 8 || &payload[..4] != MAGIC {
        return Err(VideoError::Container("bad secret stream header".into()));
    }
    let n = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]) as usize;
    let mut containers = Vec::with_capacity(n);
    let mut pos = 8usize;
    for i in 0..n {
        if pos + 4 > payload.len() {
            return Err(VideoError::Container(format!("secret {i} truncated")));
        }
        let len = u32::from_be_bytes([
            payload[pos],
            payload[pos + 1],
            payload[pos + 2],
            payload[pos + 3],
        ]) as usize;
        pos += 4;
        if pos + len > payload.len() {
            return Err(VideoError::Container(format!("secret {i} body truncated")));
        }
        containers.push(SecretContainer::from_bytes(&payload[pos..pos + len])?);
        pos += len;
    }
    if pos != payload.len() {
        return Err(VideoError::Container("trailing secret bytes".into()));
    }
    Ok(containers)
}

/// Reconstruct the original stream from a public video and its secret
/// stream (unprocessed case: the service stored the public video
/// as-is).
pub fn reconstruct_video(
    public: &VideoStream,
    secret: &[u8],
    key: &EnvelopeKey,
) -> Result<VideoStream> {
    let containers = open_secret_stream(secret, key)?;
    let mut out_frames = Vec::with_capacity(public.frames.len());
    let mut next_secret = containers.into_iter();
    for (i, (kind, jpeg)) in public.frames.iter().enumerate() {
        match kind {
            FrameKind::I => {
                let container = next_secret
                    .next()
                    .ok_or_else(|| VideoError::Stream(format!("missing secret for I-frame {i}")))?;
                out_frames.push((FrameKind::I, p3_core::pipeline::rejoin(jpeg, &container)?));
            }
            FrameKind::P => out_frames.push((FrameKind::P, jpeg.clone())),
        }
    }
    Ok(VideoStream {
        width: public.width,
        height: public.height,
        fps: public.fps,
        frames: out_frames,
    })
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
        let decoded = gop.decode(&public).unwrap();
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
        let public_size = public.to_bytes().len();
        // Only I-frames contribute secrets; the stream is mostly P-frames.
        assert!(secret.len() < public_size, "secret {} >= public {}", secret.len(), public_size);
    }
}

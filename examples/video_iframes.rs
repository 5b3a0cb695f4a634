//! The §4.2 video extension: split only the I-frames of a GOP-coded
//! clip; watch the degradation propagate through the P-frames.
//!
//! ```text
//! cargo run --release --example video_iframes
//! ```

use p3_core::pipeline::{P3Codec, P3Config};
use p3_core::pixel::rgb_to_luma;
use p3_crypto::EnvelopeKey;
use p3_video::codec::{test_clip, GopCodec, VideoCodecParams};
use p3_video::VideoStream;
use p3_vision::metrics::psnr;

fn main() {
    let frames = test_clip(8, 128, 96, 16);
    let gop = GopCodec::new(VideoCodecParams { gop: 8, ..Default::default() });
    let stream = gop.encode(&frames).expect("encode");
    println!(
        "clip: {} frames at {}x{}, I-frames at {:?}, {} bytes total",
        stream.frames.len(),
        stream.width,
        stream.height,
        stream.iframe_indices(),
        stream.to_bytes().len()
    );

    let codec = P3Codec::new(P3Config { threshold: 10 });
    let key = EnvelopeKey::derive(b"video group key", b"clip-0");
    let (public, secret) = p3_video::split_video(&stream, &codec, &key).expect("split");
    println!(
        "split: public video {} bytes (+{} byte encrypted secret stream for {} I-frames)\n",
        public.len(),
        secret.len(),
        stream.iframe_indices().len()
    );

    // What an eavesdropper sees vs what a recipient reconstructs.
    let leaked = gop
        .decode(&VideoStream::from_bytes(&public).expect("parse public"))
        .expect("decode public");
    let restored = p3_video::reconstruct_video(&public, &secret, &key).expect("reconstruct");
    let restored_frames = gop.decode(&restored).expect("decode restored");

    println!("frame  kind  public-only dB  reconstructed dB");
    for (i, frame) in frames.iter().enumerate() {
        let kind = if i % 8 == 0 { "I" } else { "P" };
        let orig = rgb_to_luma(frame);
        let leak_db = psnr(&orig, &rgb_to_luma(&leaked[i]));
        let rec_db = psnr(&orig, &rgb_to_luma(&restored_frames[i]));
        println!("{i:>5}  {kind:>4}  {leak_db:>13.1}  {rec_db:>15.1}");
        // The same bars `p3_video::split`'s tests use.
        assert!(leak_db < 22.0, "frame {i}: the public video shows too much ({leak_db:.1} dB)");
        assert!(rec_db > 28.0, "frame {i}: reconstruction too poor ({rec_db:.1} dB)");
    }
    println!(
        "\nreading: every frame of the public video is degraded — including the\n\
         P-frames that were left in the clear — because each GOP predicts from\n\
         a destroyed I-frame (the paper's §4.2 propagation argument)."
    );
}

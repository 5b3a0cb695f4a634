//! Integration tests for the paper's discussion-section extensions:
//! video (§4.2), hostile PSP countermeasure (§4.2), and 4:2:2 uploads
//! through the whole pipeline.

use p3_core::pipeline::{P3Codec, P3Config};
use p3_crypto::EnvelopeKey;

fn photo_jpeg(subsampling: p3_jpeg::Subsampling) -> Vec<u8> {
    let img = p3_datasets::synth::scene(31, 320, 240, &p3_datasets::synth::SceneParams::default());
    p3_jpeg::Encoder::new().quality(90).subsampling(subsampling).encode_rgb(&img).unwrap()
}

#[test]
fn s422_uploads_roundtrip_through_p3() {
    let codec = P3Codec::new(P3Config { threshold: 10 });
    let key = EnvelopeKey::derive(b"m", b"s422");
    let jpeg = photo_jpeg(p3_jpeg::Subsampling::S422);
    let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
    let restored = codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
    let (a, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
    let (b, _) = p3_jpeg::decode_to_coeffs(&restored).unwrap();
    assert_eq!(a.components[0].h_samp, 2);
    assert_eq!(a.components[0].v_samp, 1);
    for (ca, cb) in a.components.iter().zip(b.components.iter()) {
        assert_eq!(ca.blocks, cb.blocks);
    }
}

#[test]
fn video_extension_end_to_end() {
    use p3_video::codec::{test_clip, GopCodec, VideoCodecParams};

    let frames = test_clip(55, 64, 48, 10);
    let gop = GopCodec::new(VideoCodecParams { gop: 5, ..Default::default() });
    let stream = gop.encode(&frames).unwrap();
    let codec = P3Codec::new(P3Config { threshold: 10 });
    let key = EnvelopeKey::derive(b"m", b"clip");
    let (public, secret) = p3_video::split_video(&stream, &codec, &key).unwrap();

    // The public video parses as a clip (what a service would store).
    let parsed = p3_video::VideoStream::from_bytes(&public).unwrap();
    assert_eq!(parsed.iframe_indices(), stream.iframe_indices());

    // Reconstruction restores watchable quality.
    let restored = p3_video::reconstruct_video(&public, &secret, &key).unwrap();
    let decoded = gop.decode(&restored).unwrap();
    let orig_luma = p3_core::pixel::rgb_to_luma(&frames[7]);
    let rec_luma = p3_core::pixel::rgb_to_luma(&decoded[7]);
    assert!(p3_vision::metrics::psnr(&orig_luma, &rec_luma) > 28.0);
}

#[test]
fn hostile_psp_blocks_p3_but_not_ladder_of_originals() {
    let hostile = p3_psp::PspCore::new(p3_psp::PspProfile::hostile());
    let codec = P3Codec::new(P3Config { threshold: 15 });
    let jpeg = photo_jpeg(p3_jpeg::Subsampling::S420);
    let (public, _, _) = codec.split_jpeg(&jpeg).unwrap();
    assert!(hostile.upload(&public).is_err(), "hostile PSP must reject the public part");
    assert!(hostile.upload(&jpeg).is_ok(), "plain photos still pass");
}

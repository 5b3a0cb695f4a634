//! Cross-crate pipeline tests on synthetic corpora: exactness, privacy
//! degradation and storage behaviour across thresholds and image shapes.

use p3_core::pipeline::{P3Codec, P3Config};
use p3_core::pixel::rgb_to_luma;
use p3_crypto::EnvelopeKey;
use p3_jpeg::encoder::{encode_coeffs, Mode};
use p3_vision::metrics::psnr;

fn corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (i, named) in p3_datasets::usc_sipi_like(4, 11).into_iter().enumerate() {
        let quality = [85u8, 90, 95, 92][i % 4];
        out.push(p3_jpeg::Encoder::new().quality(quality).encode_rgb(&named.image).unwrap());
    }
    out
}

#[test]
fn coefficient_exact_roundtrip_across_thresholds() {
    let key = EnvelopeKey::derive(b"k", b"v");
    for jpeg in corpus().iter().take(2) {
        for t in [1u16, 15, 100] {
            let codec = P3Codec::new(P3Config { threshold: t });
            let parts = codec.encrypt_jpeg(jpeg, &key).unwrap();
            let restored =
                codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
            let (a, _) = p3_jpeg::decode_to_coeffs(jpeg).unwrap();
            let (b, _) = p3_jpeg::decode_to_coeffs(&restored).unwrap();
            for (ca, cb) in a.components.iter().zip(b.components.iter()) {
                assert_eq!(ca.blocks, cb.blocks, "T={t}");
            }
        }
    }
}

#[test]
fn privacy_and_storage_tradeoff_moves_with_threshold() {
    let key = EnvelopeKey::derive(b"k", b"v");
    let jpeg = &corpus()[0];
    let orig = rgb_to_luma(&p3_jpeg::decode_to_rgb(jpeg).unwrap());

    let mut secret_sizes = Vec::new();
    let mut public_psnrs = Vec::new();
    for t in [1u16, 10, 40] {
        let codec = P3Codec::new(P3Config { threshold: t });
        let parts = codec.encrypt_jpeg(jpeg, &key).unwrap();
        secret_sizes.push(parts.secret_blob.len());
        let public = rgb_to_luma(&p3_jpeg::decode_to_rgb(&parts.public_jpeg).unwrap());
        public_psnrs.push(psnr(&orig, &public));
    }
    // Higher threshold → smaller secret part.
    assert!(secret_sizes[0] > secret_sizes[1], "{secret_sizes:?}");
    assert!(secret_sizes[1] > secret_sizes[2], "{secret_sizes:?}");
    // Public PSNR stays in the degraded band for all tested thresholds.
    for (i, &db) in public_psnrs.iter().enumerate() {
        assert!(db < 22.0, "threshold index {i}: public PSNR {db:.1} dB");
    }
}

#[test]
fn public_parts_resist_casual_inspection_across_corpus() {
    let key = EnvelopeKey::derive(b"k", b"v");
    let codec = P3Codec::new(P3Config { threshold: 15 });
    let mut ssims = Vec::new();
    for jpeg in corpus() {
        let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
        let orig = rgb_to_luma(&p3_jpeg::decode_to_rgb(&jpeg).unwrap());
        let public = rgb_to_luma(&p3_jpeg::decode_to_rgb(&parts.public_jpeg).unwrap());
        let db = psnr(&orig, &public);
        // Mid-gray texture images can sit a few dB higher (their energy
        // is in retained sub-threshold ACs); scenes land at 10-15 dB.
        assert!(db < 25.0, "public PSNR {db:.1} dB");
        ssims.push(p3_vision::metrics::ssim(&orig, &public));
    }
    // SSIM context: its stabilized luminance term is forgiving of mean
    // shifts (flat sky vs flat gray scores ≈ 0.9), and stationary texture
    // survives in sub-threshold ACs by design — so the meaningful check
    // is *relative*: the public part must score clearly below an
    // innocuous strong re-encode of the same image.
    let reencode_ssim = {
        let jpeg = &corpus()[0];
        let orig = rgb_to_luma(&p3_jpeg::decode_to_rgb(jpeg).unwrap());
        let re = p3_jpeg::Encoder::new()
            .quality(70)
            .encode_rgb(&p3_jpeg::decode_to_rgb(jpeg).unwrap())
            .unwrap();
        let rel = rgb_to_luma(&p3_jpeg::decode_to_rgb(&re).unwrap());
        p3_vision::metrics::ssim(&orig, &rel)
    };
    let mean = ssims.iter().sum::<f64>() / ssims.len() as f64;
    assert!(
        mean < reencode_ssim - 0.1,
        "mean public SSIM {mean:.2} not clearly below re-encode SSIM {reencode_ssim:.2}"
    );
}

#[test]
fn grayscale_photos_work_end_to_end() {
    let mut gray = p3_jpeg::color::Plane::new(96, 64);
    for y in 0..64 {
        for x in 0..96 {
            gray.set(x, y, ((x * x + y * 3) % 256) as u8);
        }
    }
    let coeffs = p3_jpeg::encoder::gray_to_coeffs(&gray, 90).unwrap();
    let jpeg = encode_coeffs(&coeffs, Mode::BaselineOptimized, 0).unwrap();
    let key = EnvelopeKey::derive(b"k", b"gray");
    let codec = P3Codec::new(P3Config { threshold: 10 });
    let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
    let restored = codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
    let (a, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
    let (b, _) = p3_jpeg::decode_to_coeffs(&restored).unwrap();
    assert_eq!(a.components[0].blocks, b.components[0].blocks);
}

#[test]
fn progressive_uploads_split_too() {
    // A photo already in progressive format (e.g. re-shared from
    // Facebook) must also split and roundtrip, restart markers or not.
    let img = p3_datasets::synth::scene(3, 160, 120, &p3_datasets::synth::SceneParams::default());
    let coeffs = p3_jpeg::encoder::pixels_to_coeffs(&img, 88, p3_jpeg::Subsampling::S420).unwrap();
    let key = EnvelopeKey::derive(b"k", b"prog");
    let codec = P3Codec::new(P3Config { threshold: 15 });
    for restart in [0, 7] {
        let jpeg = encode_coeffs(&coeffs, Mode::Progressive, restart).unwrap();
        let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
        let restored = codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
        let (a, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
        let (b, _) = p3_jpeg::decode_to_coeffs(&restored).unwrap();
        for (ca, cb) in a.components.iter().zip(b.components.iter()) {
            assert_eq!(ca.blocks, cb.blocks, "restart {restart}");
        }
    }
}

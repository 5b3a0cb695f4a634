//! Quickstart: split a photo, inspect both parts, reconstruct exactly.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use p3_core::{P3Codec, P3Config};
use p3_crypto::EnvelopeKey;
use p3_datasets::synth::{scene, SceneParams};
use p3_jpeg::Encoder;

fn main() {
    // 1. A "photo" (synthetic vacation scene) encoded as a normal JPEG,
    //    the way a camera app would hand it to the proxy.
    let photo = scene(42, 640, 480, &SceneParams::default());
    let jpeg = Encoder::new().quality(90).encode_rgb(&photo).expect("encode");
    println!("original JPEG:      {:>8} bytes", jpeg.len());

    // 2. Sender side: split at the paper's sweet-spot threshold and
    //    encrypt the secret part. The key is shared out of band.
    let codec = P3Codec::new(P3Config { threshold: 15 });
    let key = EnvelopeKey::derive(b"family album master key", b"photo-0001");
    let parts = codec.encrypt_jpeg(&jpeg, &key).expect("split");
    println!("public part (JPEG): {:>8} bytes  <- uploaded to the PSP", parts.public_jpeg.len());
    println!("secret blob (AES):  {:>8} bytes  <- uploaded to storage", parts.secret_blob.len());
    println!(
        "storage overhead:   {:>8.1} %",
        100.0 * (parts.public_jpeg.len() + parts.secret_blob.len()) as f64 / jpeg.len() as f64
            - 100.0
    );
    println!(
        "split stats: {} of {} nonzero AC coefficients clipped, {} DC extracted",
        parts.stats.above_threshold, parts.stats.nonzero_ac, parts.stats.dc_moved
    );

    // 3. The public part is an ordinary JPEG — anyone can decode it, but
    //    it carries almost no information (low PSNR).
    let public_rgb = p3_jpeg::decode_to_rgb(&parts.public_jpeg).expect("public decodes");
    let orig_rgb = p3_jpeg::decode_to_rgb(&jpeg).expect("original decodes");
    let public_psnr = p3_vision::metrics::psnr(
        &p3_core::pixel::rgb_to_luma(&orig_rgb),
        &p3_core::pixel::rgb_to_luma(&public_rgb),
    );
    println!("public-part PSNR:   {public_psnr:>8.1} dB (paper: ~10-15 dB — practically useless)");

    // 4. Recipient side: decrypt + reconstruct. Coefficients come back
    //    bit-exact.
    let restored =
        codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).expect("reconstruct");
    let restored_rgb = p3_jpeg::decode_to_rgb(&restored).expect("decode");
    assert_eq!(orig_rgb.data, restored_rgb.data, "reconstruction must be exact");
    println!("reconstruction:     bit-exact OK");

    // 5. The wrong key fails closed.
    let wrong = EnvelopeKey::derive(b"not the family key", b"photo-0001");
    assert!(codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &wrong).is_err());
    println!("wrong key:          rejected OK");
}

//! End-to-end P3 codec: JPEG in → (public JPEG, encrypted secret blob) →
//! JPEG out.
//!
//! This is the API the trusted proxy calls (paper §4.1): on upload it
//! splits and encrypts; on download it decrypts and reconstructs —
//! exactly when the public part came back unprocessed, or via Eq. 2
//! ([`crate::reconstruct_processed`]) when the PSP resized/cropped/re-encoded it.
//!
//! Because the proxy runs this pipeline inline on every photo, its cost
//! *is* the system's throughput ceiling. The heavy lifting sits on the
//! `p3-jpeg` fast paths (scaled integer AAN DCT, fixed-point color
//! conversion, 64-bit bit I/O, single-walk optimized-table encoding)
//! and `p3-crypto`'s T-table batched AES-CTR; the benchmark's
//! `core.split_ms` / `core.reconstruct_ms` / `jpeg.*` layer metrics
//! track the measured cost (see `perfbench/README.md`), and the
//! split/recombine stages here are plain linear passes over the
//! coefficient arrays.

use p3_crypto::EnvelopeKey;
use p3_jpeg::encoder::{encode_coeffs, Mode};

use crate::container::SecretContainer;
use crate::split::{recombine_coeffs, split_coeffs};
use crate::{P3Error, Result};

/// Entropy-coding mode of both parts. Optimized tables realize the
/// paper's storage-overhead numbers.
const PART_MODE: Mode = Mode::BaselineOptimized;

/// P3 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P3Config {
    /// The splitting threshold `T` (paper sweet spot: 10–20).
    pub threshold: u16,
}

impl Default for P3Config {
    fn default() -> Self {
        Self { threshold: 15 }
    }
}

/// The two parts produced by sender-side encryption.
#[derive(Debug, Clone)]
pub struct P3Parts {
    /// JPEG-compliant public part — uploaded to the PSP in the clear.
    pub public_jpeg: Vec<u8>,
    /// Encrypted secret container — uploaded to the storage provider.
    pub secret_blob: Vec<u8>,
    /// Split statistics (for instrumentation).
    pub stats: crate::split::SplitStats,
}

/// The P3 encoder/decoder.
#[derive(Debug, Clone, Default)]
pub struct P3Codec {
    cfg: P3Config,
}

impl P3Codec {
    /// Codec with the given configuration.
    pub fn new(cfg: P3Config) -> Self {
        Self { cfg }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u16 {
        self.cfg.threshold
    }

    /// Sender side, unencrypted: split a JPEG into a public JPEG and a
    /// plaintext secret container. Useful for analysis; production use
    /// goes through [`P3Codec::encrypt_jpeg`].
    pub fn split_jpeg(
        &self,
        jpeg: &[u8],
    ) -> Result<(Vec<u8>, SecretContainer, crate::split::SplitStats)> {
        if self.cfg.threshold == 0 {
            return Err(P3Error::Config("threshold must be >= 1".into()));
        }
        let (coeffs, _info) = p3_jpeg::decode_to_coeffs(jpeg)?;
        let (public, secret, stats) = split_coeffs(&coeffs, self.cfg.threshold)?;
        let public_jpeg = encode_coeffs(&public, PART_MODE, 0)?;
        let secret_jpeg = encode_coeffs(&secret, PART_MODE, 0)?;
        let container = SecretContainer {
            threshold: self.cfg.threshold,
            width: coeffs.width as u32,
            height: coeffs.height as u32,
            jpeg: secret_jpeg,
        };
        Ok((public_jpeg, container, stats))
    }

    /// Sender side: split and encrypt.
    pub fn encrypt_jpeg(&self, jpeg: &[u8], key: &EnvelopeKey) -> Result<P3Parts> {
        let (public_jpeg, container, stats) = self.split_jpeg(jpeg)?;
        Ok(P3Parts { public_jpeg, secret_blob: container.seal(key), stats })
    }

    /// Recipient side, unprocessed public part: open the secret blob and
    /// [`rejoin`] the parts.
    pub fn decrypt_jpeg(
        &self,
        public_jpeg: &[u8],
        secret_blob: &[u8],
        key: &EnvelopeKey,
    ) -> Result<Vec<u8>> {
        rejoin(public_jpeg, &SecretContainer::open(secret_blob, key)?)
    }
}

/// Rejoin an unprocessed public part with its opened secret container
/// (Eq. 1's exact inverse): a JPEG whose quantized coefficients are
/// **bit-exact** with the sender's original. A public part of another
/// size than the container records is a `Mismatch`.
pub fn rejoin(public_jpeg: &[u8], container: &SecretContainer) -> Result<Vec<u8>> {
    let (public, _) = p3_jpeg::decode_to_coeffs(public_jpeg)?;
    let (secret, _) = p3_jpeg::decode_to_coeffs(&container.jpeg)?;
    if (public.width, public.height) != (container.width as usize, container.height as usize) {
        return Err(P3Error::Mismatch(format!(
            "public part is {}x{}, container says {}x{} — was the public part processed? \
             reconstruct it with reconstruct_processed instead",
            public.width, public.height, container.width, container.height
        )));
    }
    let full = recombine_coeffs(&public, &secret, container.threshold)?;
    Ok(encode_coeffs(&full, Mode::BaselineOptimized, 0)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::reconstruct_processed;
    use crate::transform::TransformSpec;
    use p3_jpeg::image::RgbImage;
    use p3_vision::metrics::psnr;

    fn photo(w: usize, h: usize) -> Vec<u8> {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [
                        (128.0
                            + 80.0 * ((x as f32) * 0.07).sin()
                            + 30.0 * ((y as f32) * 0.21).cos()) as u8,
                        (128.0 + 70.0 * ((y as f32) * 0.09).sin()) as u8,
                        ((x * 3 + y * 5) % 256) as u8,
                    ],
                );
            }
        }
        p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).unwrap()
    }

    #[test]
    fn roundtrip_is_coefficient_exact() {
        let jpeg = photo(96, 64);
        let codec = P3Codec::new(P3Config { threshold: 15 });
        let key = EnvelopeKey::derive(b"k", b"photo");
        let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
        let restored = codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
        let (a, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
        let (b, _) = p3_jpeg::decode_to_coeffs(&restored).unwrap();
        for (ca, cb) in a.components.iter().zip(b.components.iter()) {
            assert_eq!(ca.blocks, cb.blocks);
        }
    }

    #[test]
    fn public_part_is_degraded() {
        let jpeg = photo(96, 96);
        let codec = P3Codec::new(P3Config { threshold: 10 });
        let (public_jpeg, _, _) = codec.split_jpeg(&jpeg).unwrap();
        let orig = crate::pixel::rgb_to_luma(&p3_jpeg::decode_to_rgb(&jpeg).unwrap());
        let public = crate::pixel::rgb_to_luma(&p3_jpeg::decode_to_rgb(&public_jpeg).unwrap());
        let p = psnr(&orig, &public);
        assert!(p < 20.0, "public part PSNR {p:.1} dB — not degraded enough");
    }

    #[test]
    fn parts_are_jpeg_compliant() {
        let jpeg = photo(48, 48);
        let codec = P3Codec::default();
        let key = EnvelopeKey::derive(b"k", b"p");
        let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
        // Public decodes as ordinary JPEG.
        assert!(p3_jpeg::decode_to_rgb(&parts.public_jpeg).is_ok());
        // Secret (after decrypting) is also a JPEG.
        let container = SecretContainer::open(&parts.secret_blob, &key).unwrap();
        assert!(p3_jpeg::decode_to_rgb(&container.jpeg).is_ok());
    }

    #[test]
    fn wrong_key_fails_closed() {
        let jpeg = photo(32, 32);
        let codec = P3Codec::default();
        let parts = codec.encrypt_jpeg(&jpeg, &EnvelopeKey::derive(b"k", b"1")).unwrap();
        let res = codec.decrypt_jpeg(
            &parts.public_jpeg,
            &parts.secret_blob,
            &EnvelopeKey::derive(b"k", b"2"),
        );
        assert!(res.is_err());
    }

    #[test]
    fn processed_path_rejects_exact_api() {
        // If the public part was resized, decrypt_jpeg must refuse (the
        // container records the original dimensions).
        let jpeg = photo(64, 64);
        let codec = P3Codec::default();
        let key = EnvelopeKey::derive(b"k", b"p");
        let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
        let small = p3_jpeg::decode_to_rgb(&parts.public_jpeg).unwrap();
        let t = TransformSpec::resize(32, 32, p3_vision::resize::ResizeFilter::Triangle);
        let resized = t.apply_rgb(&small);
        let resized_jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&resized).unwrap();
        assert!(codec.decrypt_jpeg(&resized_jpeg, &parts.secret_blob, &key).is_err());
        // ... but Eq. 2 reconstructs it.
        let container = SecretContainer::open(&parts.secret_blob, &key).unwrap();
        let (secret, _) = p3_jpeg::decode_to_coeffs(&container.jpeg).unwrap();
        let processed = p3_jpeg::decode_to_rgb(&resized_jpeg).unwrap();
        assert!(reconstruct_processed(&processed, &secret, container.threshold, &t).is_ok());
    }

    #[test]
    fn secret_is_smaller_than_public_at_moderate_t() {
        let jpeg = photo(128, 128);
        let codec = P3Codec::new(P3Config { threshold: 20 });
        let key = EnvelopeKey::derive(b"k", b"p");
        let parts = codec.encrypt_jpeg(&jpeg, &key).unwrap();
        assert!(
            parts.secret_blob.len() < parts.public_jpeg.len(),
            "secret {} >= public {}",
            parts.secret_blob.len(),
            parts.public_jpeg.len()
        );
    }
}

//! End-to-end P3 codec: JPEG in → (public JPEG, encrypted secret blob) →
//! JPEG out.
//!
//! This is the API the trusted proxy calls (paper §4.1): on upload it
//! splits and encrypts; on download it decrypts and reconstructs —
//! exactly when the public part came back unprocessed, or via Eq. 2 with
//! a [`TransformSpec`] when the PSP resized/cropped/re-encoded it.
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
use p3_jpeg::image::RgbImage;

use crate::container::SecretContainer;
use crate::reconstruct::{reconstruct_exact, reconstruct_processed};
use crate::split::split_coeffs;
use crate::transform::TransformSpec;
use crate::{P3Error, Result};

/// P3 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P3Config {
    /// The splitting threshold `T` (paper sweet spot: 10–20).
    pub threshold: u16,
    /// Entropy-coding mode for the public part. Optimized tables realize
    /// the paper's storage-overhead numbers.
    pub public_mode: Mode,
    /// Entropy-coding mode for the secret part.
    pub secret_mode: Mode,
}

impl Default for P3Config {
    fn default() -> Self {
        Self {
            threshold: 15,
            public_mode: Mode::BaselineOptimized,
            secret_mode: Mode::BaselineOptimized,
        }
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
        let public_jpeg = encode_coeffs(&public, self.cfg.public_mode, 0)?;
        let secret_jpeg = encode_coeffs(&secret, self.cfg.secret_mode, 0)?;
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

    /// Recipient side, unprocessed public part: recover a JPEG whose
    /// quantized coefficients are **bit-exact** with the sender's
    /// original.
    pub fn decrypt_jpeg(
        &self,
        public_jpeg: &[u8],
        secret_blob: &[u8],
        key: &EnvelopeKey,
    ) -> Result<Vec<u8>> {
        let container = SecretContainer::open(secret_blob, key)?;
        let (public, _) = p3_jpeg::decode_to_coeffs(public_jpeg)?;
        let (secret, _) = p3_jpeg::decode_to_coeffs(&container.jpeg)?;
        if (public.width, public.height) != (container.width as usize, container.height as usize) {
            return Err(P3Error::Mismatch(format!(
                "public part is {}x{}, container says {}x{} — was the public part processed? \
                 use reconstruct_processed_jpeg instead",
                public.width, public.height, container.width, container.height
            )));
        }
        let full = reconstruct_exact(&public, &secret, container.threshold)?;
        Ok(encode_coeffs(&full, Mode::BaselineOptimized, 0)?)
    }

    /// The paper's un-implemented optimization (§5.3): "a sender can
    /// upload multiple encrypted secret parts, one for each known static
    /// transformation that a PSP performs", trading storage for download
    /// bandwidth — a recipient fetching the 130-px rendition then only
    /// downloads a 130-px secret part instead of the full-size one.
    ///
    /// For each ladder entry we resize the *original pixels* to the
    /// rendition size, re-encode, split, and seal; the result maps
    /// `max_side → sealed blob`. Reconstruction for a given rendition
    /// uses the matching blob with the ordinary exact/processed APIs.
    pub fn encrypt_jpeg_ladder(
        &self,
        jpeg: &[u8],
        key: &EnvelopeKey,
        ladder: &[usize],
    ) -> Result<Vec<(usize, P3Parts)>> {
        let rgb = p3_jpeg::decode_to_rgb(jpeg)?;
        let ch = crate::pixel::rgb_to_channels(&rgb);
        let mut out = Vec::with_capacity(ladder.len());
        for &side in ladder {
            let longest = rgb.width.max(rgb.height);
            let scaled = if longest <= side {
                rgb.clone()
            } else {
                let scale = side as f64 / longest as f64;
                let w = ((rgb.width as f64 * scale).round() as usize).max(1);
                let h = ((rgb.height as f64 * scale).round() as usize).max(1);
                let spec = TransformSpec::resize(w, h, p3_vision::resize::ResizeFilter::Triangle);
                crate::pixel::channels_to_rgb(&[
                    spec.apply(&ch[0]),
                    spec.apply(&ch[1]),
                    spec.apply(&ch[2]),
                ])
            };
            let scaled_jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&scaled)?;
            out.push((side, self.encrypt_jpeg(&scaled_jpeg, key)?));
        }
        Ok(out)
    }

    /// Recipient side, processed public part (paper Eq. 2): the PSP
    /// transformed the public image; apply the same (estimated) transform
    /// to the secret delta and combine.
    pub fn reconstruct_processed_jpeg(
        &self,
        processed_public_jpeg: &[u8],
        secret_blob: &[u8],
        key: &EnvelopeKey,
        transform: &TransformSpec,
    ) -> Result<RgbImage> {
        let container = SecretContainer::open(secret_blob, key)?;
        let processed = p3_jpeg::decode_to_rgb(processed_public_jpeg)?;
        let (secret, _) = p3_jpeg::decode_to_coeffs(&container.jpeg)?;
        reconstruct_processed(&processed, &secret, container.threshold, transform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let codec = P3Codec::new(P3Config { threshold: 15, ..Default::default() });
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
        let codec = P3Codec::new(P3Config { threshold: 10, ..Default::default() });
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
        let ch = crate::pixel::rgb_to_channels(&small);
        let t = TransformSpec::resize(32, 32, p3_vision::resize::ResizeFilter::Triangle);
        let resized =
            crate::pixel::channels_to_rgb(&[t.apply(&ch[0]), t.apply(&ch[1]), t.apply(&ch[2])]);
        let resized_jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&resized).unwrap();
        assert!(codec.decrypt_jpeg(&resized_jpeg, &parts.secret_blob, &key).is_err());
        // ... but the processed API succeeds.
        let rec = codec.reconstruct_processed_jpeg(&resized_jpeg, &parts.secret_blob, &key, &t);
        assert!(rec.is_ok());
    }

    #[test]
    fn ladder_secrets_shrink_with_resolution() {
        let jpeg = photo(720, 540);
        let codec = P3Codec::new(P3Config { threshold: 15, ..Default::default() });
        let key = EnvelopeKey::derive(b"k", b"ladder");
        let ladder = codec.encrypt_jpeg_ladder(&jpeg, &key, &[720, 130, 75]).unwrap();
        assert_eq!(ladder.len(), 3);
        // Smaller renditions -> smaller secret parts (the bandwidth win).
        let sizes: Vec<usize> = ladder.iter().map(|(_, p)| p.secret_blob.len()).collect();
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2], "{sizes:?}");
        // The 130-px secret is a small fraction of the full-size one.
        assert!(sizes[1] * 4 < sizes[0], "{sizes:?}");
        // Every rung decrypts to a valid JPEG of the right size.
        for (side, parts) in &ladder {
            let restored =
                codec.decrypt_jpeg(&parts.public_jpeg, &parts.secret_blob, &key).unwrap();
            let img = p3_jpeg::decode_to_rgb(&restored).unwrap();
            assert!(img.width.max(img.height) <= *side);
        }
    }

    #[test]
    fn secret_is_smaller_than_public_at_moderate_t() {
        let jpeg = photo(128, 128);
        let codec = P3Codec::new(P3Config { threshold: 20, ..Default::default() });
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

//! Property-based tests of the core invariants (proptest).

use p3_core::split::{recombine_coeffs, secret_plus_correction, split_coeffs};
use p3_crypto::{open, seal, EnvelopeKey};
use p3_jpeg::block::CoeffImage;
use p3_jpeg::encoder::{encode_coeffs, Mode};
use p3_jpeg::quant::QuantTable;
use p3_jpeg::zigzag::ZIGZAG;
use p3_vision::image::ImageF32;
use p3_vision::resize::{resize, ResizeFilter};
use proptest::prelude::*;

/// Strategy: a small coefficient image with realistic magnitude decay.
fn coeff_image_strategy() -> impl Strategy<Value = CoeffImage> {
    (1usize..40, 1usize..40, any::<u64>()).prop_map(|(bw, bh, seed)| {
        let mut ci =
            CoeffImage::zeroed(bw * 8, bh * 8, vec![QuantTable::luma(88)], &[(1, 1)], &[0])
                .unwrap();
        let mut state = seed | 1;
        ci.for_each_block_mut(|_, b| {
            for (k, c) in b.iter_mut().enumerate().take(64) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = ((state >> 33) % 2048) as i32 - 1024;
                // Realistic sparsity: most high-frequency values near zero.
                let scale = 1 + 512 / (1 + k as i32 * k as i32);
                *c = r % scale;
            }
        });
        ci
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_recombine_is_identity(ci in coeff_image_strategy(), t in 1u16..120) {
        let (public, secret, _) = split_coeffs(&ci, t).unwrap();
        let back = recombine_coeffs(&public, &secret, t).unwrap();
        prop_assert_eq!(&ci.components[0].blocks, &back.components[0].blocks);
    }

    #[test]
    fn public_ac_bounded_and_dc_zero(ci in coeff_image_strategy(), t in 1u16..120) {
        let (public, _, _) = split_coeffs(&ci, t).unwrap();
        for b in &public.components[0].blocks {
            prop_assert_eq!(b[0], 0);
            for c in b.iter().take(64).skip(1) {
                prop_assert!(c.abs() <= i32::from(t));
            }
        }
    }

    #[test]
    fn secret_plus_correction_completes_public(ci in coeff_image_strategy(), t in 1u16..120) {
        let (public, secret, _) = split_coeffs(&ci, t).unwrap();
        let spc = secret_plus_correction(&secret, t);
        for ((ob, pb), xb) in ci.components[0]
            .blocks
            .iter()
            .zip(public.components[0].blocks.iter())
            .zip(spc.components[0].blocks.iter())
        {
            for k in 0..64 {
                prop_assert_eq!(ob[k], pb[k] + xb[k]);
            }
        }
    }

    #[test]
    fn jpeg_coefficient_roundtrip_baseline(ci in coeff_image_strategy()) {
        // Clamp to the 12-bit range baseline entropy coding supports.
        let mut ci = ci;
        ci.for_each_block_mut(|_, b| {
            for v in b.iter_mut() {
                *v = (*v).clamp(-1023, 1023);
            }
        });
        let jpeg = encode_coeffs(&ci, Mode::BaselineOptimized, 0).unwrap();
        let (back, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
        prop_assert_eq!(&ci.components[0].blocks, &back.components[0].blocks);
    }

    #[test]
    fn jpeg_coefficient_roundtrip_progressive(ci in coeff_image_strategy()) {
        let mut ci = ci;
        ci.for_each_block_mut(|_, b| {
            for v in b.iter_mut() {
                *v = (*v).clamp(-1023, 1023);
            }
        });
        let jpeg = encode_coeffs(&ci, Mode::Progressive, 0).unwrap();
        let (back, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
        prop_assert_eq!(&ci.components[0].blocks, &back.components[0].blocks);
    }

    #[test]
    fn zigzag_roundtrip(vals in prop::array::uniform32(any::<i16>())) {
        let mut block = [0i32; 64];
        for (i, v) in vals.iter().enumerate() {
            block[i] = i32::from(*v);
            block[63 - i] = i32::from(!*v);
        }
        let zigzag: Vec<i32> = ZIGZAG.iter().map(|&n| block[n]).collect();
        let mut back = [0i32; 64];
        for (&n, &v) in ZIGZAG.iter().zip(&zigzag) {
            back[n] = v;
        }
        prop_assert_eq!(back, block);
    }

    #[test]
    fn envelope_roundtrip_and_tamper(data in prop::collection::vec(any::<u8>(), 0..2048),
                                     flip in 0usize..2048) {
        let key = EnvelopeKey::derive(b"prop", b"test");
        let blob = seal(&key, &data);
        prop_assert_eq!(open(&key, &blob).unwrap(), data);
        let mut bad = blob.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 0x01;
        prop_assert!(open(&key, &bad).is_err());
    }

    #[test]
    fn resize_linearity(seed in any::<u32>(),
                        w in 8usize..48, h in 8usize..48,
                        ow in 4usize..32, oh in 4usize..32) {
        let mut a = ImageF32::new(w, h);
        let mut b = ImageF32::new(w, h);
        let mut s = seed | 1;
        for i in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            a.data[i] = (s >> 24) as f32;
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            b.data[i] = (s >> 24) as f32;
        }
        let lhs = resize(&a.add(&b), ow, oh, ResizeFilter::Lanczos3);
        let rhs = resize(&a, ow, oh, ResizeFilter::Lanczos3).add(&resize(&b, ow, oh, ResizeFilter::Lanczos3));
        for i in 0..lhs.data.len() {
            prop_assert!((lhs.data[i] - rhs.data[i]).abs() < 0.05,
                "superposition violated at {}: {} vs {}", i, lhs.data[i], rhs.data[i]);
        }
    }

    #[test]
    fn container_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        // Malformed containers must error, not panic.
        let _ = p3_core::container::SecretContainer::from_bytes(&data);
    }

    #[test]
    fn jpeg_decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = p3_jpeg::decode_to_coeffs(&data);
        // Also with a valid SOI prefix to get deeper into the parser.
        let mut with_soi = vec![0xFF, 0xD8];
        with_soi.extend_from_slice(&data);
        let _ = p3_jpeg::decode_to_coeffs(&with_soi);
    }
}

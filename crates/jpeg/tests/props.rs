//! Property tests for the JPEG substrate's lossless layers, and for the
//! equivalence of the scaled integer AAN fast path against the
//! `dct::reference` ground truth (the invariant P3's Eq. 1 reconstruction
//! rests on: coefficients survive entropy coding bit-exactly, and the
//! fast DCT stays within ±1 of the reference after quantization).

use p3_jpeg::bitio::{encode_magnitude, BitReader, BitWriter};
use p3_jpeg::dct;
use p3_jpeg::encoder::{encode_coeffs, pixels_to_coeffs, Mode, Subsampling};
use p3_jpeg::huffman::{FreqCounter, HuffDecoder, HuffEncoder};
use p3_jpeg::quant::{AanDequantizer, AanQuantizer, QuantTable};
use p3_jpeg::RgbImage;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitio_roundtrips_arbitrary_patterns(pattern in prop::collection::vec((any::<u16>(), 1u32..17), 1..200)) {
        let mut w = BitWriter::new();
        for &(v, n) in &pattern {
            w.put_bits(u32::from(v) & ((1 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &pattern {
            prop_assert_eq!(r.get_bits(n).unwrap(), u32::from(v) & ((1 << n) - 1));
        }
    }

    #[test]
    fn magnitude_coding_roundtrips(v in -32767i32..=32767) {
        let (size, bits) = encode_magnitude(v);
        prop_assert!(size <= 16);
        let mut w = BitWriter::new();
        w.put_bits(bits, size);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(r.receive_extend(size).unwrap(), v);
    }

    #[test]
    fn optimal_huffman_tables_roundtrip_any_symbol_stream(
        syms in prop::collection::vec(any::<u8>(), 1..500)
    ) {
        let mut fc = FreqCounter::new();
        for &s in &syms {
            fc.count(s);
        }
        let spec = fc.build_spec().unwrap();
        spec.validate().unwrap();
        let enc = HuffEncoder::from_spec(&spec).unwrap();
        let dec = HuffDecoder::from_spec(&spec).unwrap();
        let mut w = BitWriter::new();
        for &s in &syms {
            enc.put(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &syms {
            prop_assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn quantization_grid_is_stable(quality in 1u8..=100,
                                   values in prop::collection::vec(-200i32..200, 64)) {
        let qt = QuantTable::luma(quality);
        let q: [i32; 64] = values.try_into().unwrap();
        // quantize(dequantize(q)) must be the identity on the grid.
        let deq = qt.dequantize(&q);
        let requant = qt.quantize(&deq);
        prop_assert_eq!(requant, q);
    }

    #[test]
    fn dqt_serialization_roundtrips(quality in 1u8..=100) {
        let qt = QuantTable::luma(quality);
        let zz = qt.to_zigzag_bytes();
        prop_assert_eq!(QuantTable::from_zigzag_bytes(&zz), qt);
    }

    #[test]
    fn aan_forward_dct_matches_reference_post_quantization(
        samples in prop::array::uniform32(any::<u8>()),
        samples2 in prop::array::uniform32(any::<u8>()),
        quality in 1u8..=100,
    ) {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&samples);
        block[32..].copy_from_slice(&samples2);
        let qt = QuantTable::luma(quality);
        let want = qt.quantize(&dct::reference::fdct_from_u8(&block));
        let got = AanQuantizer::new(&qt).quantize(&dct::fdct8x8_aan(&block));
        for i in 0..64 {
            prop_assert!(
                (want[i] - got[i]).abs() <= 1,
                "q{} coef {}: reference {} vs aan {}", quality, i, want[i], got[i]
            );
        }
    }

    #[test]
    fn aan_inverse_dct_matches_reference_within_one(
        samples in prop::array::uniform32(any::<u8>()),
        samples2 in prop::array::uniform32(any::<u8>()),
        quality in 1u8..=100,
    ) {
        // Quantized coefficients from a real block (the domain valid
        // streams produce), reconstructed through both inverse paths.
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&samples);
        block[32..].copy_from_slice(&samples2);
        let qt = QuantTable::luma(quality);
        let quantized = qt.quantize(&dct::reference::fdct_from_u8(&block));
        let want = dct::reference::idct_to_u8(&qt.dequantize(&quantized));
        let mut ws = AanDequantizer::new(&qt).dequantize_scaled(&quantized);
        let got = dct::idct8x8_aan(&mut ws);
        for i in 0..64 {
            prop_assert!(
                (i32::from(want[i]) - i32::from(got[i])).abs() <= 1,
                "q{} px {}: reference {} vs aan {}", quality, i, want[i], got[i]
            );
        }
    }

    #[test]
    fn coefficient_roundtrip_stays_bit_exact(
        seed in any::<u64>(),
        w in 1usize..48,
        h in 1usize..40,
        quality in 40u8..=95,
        progressive in any::<bool>(),
    ) {
        // decode(encode(coeffs)) must be the identity, and re-encoding the
        // decoded coefficients must stay on the same fixed point — the
        // losslessness P3's split/reconstruct pipeline (paper Eq. 1)
        // depends on.
        let mut img = RgbImage::new(w, h);
        let mut state = seed | 1;
        for px in img.data.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *px = (state >> 56) as u8;
        }
        let mode = if progressive { Mode::Progressive } else { Mode::BaselineOptimized };
        let ci = pixels_to_coeffs(&img, quality, Subsampling::S420).unwrap();
        let jpeg = encode_coeffs(&ci, mode, 0).unwrap();
        let (ci2, _) = p3_jpeg::decode_to_coeffs(&jpeg).unwrap();
        for (a, b) in ci.components.iter().zip(ci2.components.iter()) {
            prop_assert_eq!(&a.blocks, &b.blocks, "first decode differs (comp {})", a.id);
        }
        let jpeg2 = encode_coeffs(&ci2, mode, 0).unwrap();
        let (ci3, _) = p3_jpeg::decode_to_coeffs(&jpeg2).unwrap();
        for (a, b) in ci2.components.iter().zip(ci3.components.iter()) {
            prop_assert_eq!(&a.blocks, &b.blocks, "re-encode drifted (comp {})", a.id);
        }
    }

    #[test]
    fn simd_and_scalar_codecs_are_bit_identical(
        seed in any::<u64>(),
        w in 1usize..80,
        h in 1usize..48,
        quality in 30u8..=95,
        sub_ix in 0usize..3,
    ) {
        // The vectorized codec is an *optimization*, never an
        // approximation: for arbitrary images and subsampling modes, the
        // forced-scalar oracle and the SIMD path must agree on every
        // coefficient, every encoded byte, and every decoded pixel. (On
        // machines without vector units both runs take the scalar path and
        // the assertions are trivially true.) The encoder's band rule
        // branches on a SIMD-computed coefficient mask in every AC band of
        // both modes.
        let sub = [Subsampling::S444, Subsampling::S422, Subsampling::S420][sub_ix];
        let mut img = RgbImage::new(w, h);
        let mut state = seed | 1;
        for px in img.data.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *px = (state >> 56) as u8;
        }
        let modes = [Mode::BaselineOptimized, Mode::Progressive];
        p3_par::features::set_force_scalar(true);
        let ci_scalar = pixels_to_coeffs(&img, quality, sub).unwrap();
        let jpeg_scalar = modes.map(|mode| encode_coeffs(&ci_scalar, mode, 0).unwrap());
        let px_scalar = p3_jpeg::decode_to_rgb(&jpeg_scalar[0]).unwrap();
        p3_par::features::set_force_scalar(false);
        let ci_simd = pixels_to_coeffs(&img, quality, sub).unwrap();
        for (a, b) in ci_scalar.components.iter().zip(ci_simd.components.iter()) {
            prop_assert_eq!(&a.blocks, &b.blocks, "coefficients differ (comp {})", a.id);
        }
        let jpeg_simd = modes.map(|mode| encode_coeffs(&ci_simd, mode, 0).unwrap());
        prop_assert_eq!(&jpeg_scalar, &jpeg_simd, "encoded bytes differ");
        let px_simd = p3_jpeg::decode_to_rgb(&jpeg_simd[0]).unwrap();
        prop_assert_eq!(&px_scalar.data, &px_simd.data, "decoded pixels differ");
    }
}

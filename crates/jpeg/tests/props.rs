//! Property tests for the JPEG substrate's lossless layers, and for the
//! equivalence of the scaled integer AAN fast path against the
//! `dct::reference` ground truth (the invariant P3's Eq. 1 reconstruction
//! rests on: coefficients survive entropy coding bit-exactly, and the
//! fast DCT stays within ±1 of the reference after quantization), and
//! for the agreement of every reader of a JPEG's segment structure.

use p3_jpeg::bitio::{encode_magnitude, BitReader, BitWriter};
use p3_jpeg::dct;
use p3_jpeg::encoder::{encode_coeffs, pixels_to_coeffs, Mode, Subsampling};
use p3_jpeg::huffman::{FreqCounter, HuffDecoder, HuffEncoder};
use p3_jpeg::marker::{strip_app_markers, summarize};
use p3_jpeg::quant::{AanDequantizer, AanQuantizer, QuantTable};
use p3_jpeg::RgbImage;
use proptest::prelude::*;

/// Why the readers of `s` disagree, if they do: a stream the decoder
/// accepts must strip, decode to the same coefficients once stripped,
/// and summarize to the size it decodes at.
fn walkers_disagree(s: &[u8]) -> Option<String> {
    let Ok((coeffs, _)) = p3_jpeg::decode_to_coeffs(s) else { return None };
    let stripped = match strip_app_markers(s) {
        Ok(stripped) => stripped,
        Err(e) => return Some(format!("decodes, but strip refuses it: {e}")),
    };
    match p3_jpeg::decode_to_coeffs(&stripped) {
        Ok((back, _)) if back == coeffs => {}
        Ok(_) => return Some("stripped stream decodes to other coefficients".into()),
        Err(e) => return Some(format!("stripped stream does not decode: {e}")),
    }
    match summarize(s) {
        Ok(h) if (h.width, h.height) == (coeffs.width, coeffs.height) => None,
        Ok(h) => Some(format!(
            "summary {}x{}, decoded {}x{}",
            h.width, h.height, coeffs.width, coeffs.height
        )),
        Err(e) => Some(format!("decodes, but summarize refuses it: {e}")),
    }
}

/// Baseline, progressive, and baseline with a restart interval, of one
/// noise image.
fn encoder_outputs(seed: u64) -> [Vec<u8>; 3] {
    let mut img = RgbImage::new(37, 29);
    let mut state = seed | 1;
    for px in img.data.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *px = (state >> 56) as u8;
    }
    let ci = pixels_to_coeffs(&img, 80, Subsampling::S420).unwrap();
    [(Mode::BaselineOptimized, 0), (Mode::Progressive, 0), (Mode::BaselineOptimized, 3)]
        .map(|(mode, restart)| encode_coeffs(&ci, mode, restart).unwrap())
}

/// Offsets of the markers an encoder wrote: every `FF` that is not a
/// stuffed zero's, a fill byte or an RSTn.
fn segment_starts(s: &[u8]) -> Vec<usize> {
    (0..s.len() - 1)
        .filter(|&i| s[i] == 0xFF && !matches!(s[i + 1], 0x00 | 0xFF | 0xD0..=0xD7))
        .collect()
}

#[test]
fn walkers_agree_on_a_stray_soi_and_on_junk_between_segments() {
    for (n, s) in encoder_outputs(7).into_iter().enumerate() {
        for (what, insert) in [("stray SOI", [0xFF, 0xD8]), ("junk", [0x12, 0x34])] {
            let mut edited = s.clone();
            edited.splice(2..2, insert);
            assert_eq!(walkers_disagree(&edited), None, "stream {n}, {what} after SOI");
        }
    }
}

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

    #[test]
    fn walkers_agree_on_edits_at_segment_boundaries(
        seed in any::<u64>(),
        stream in 0usize..3,
        edits in prop::collection::vec((any::<u16>(), 0usize..4, 0usize..8, 0usize..4), 1..4),
    ) {
        // Each edit lands at or just after a marker (its FF, its code,
        // its length): it overwrites a byte, or inserts one to three.
        const PALETTE: [u8; 8] = [0x00, 0x12, 0xFF, 0xD8, 0xD9, 0xD0, 0xE1, 0x01];
        let mut s = encoder_outputs(seed)[stream].clone();
        for &(at, off, byte, inserted) in &edits {
            let starts = segment_starts(&s);
            if starts.is_empty() {
                break;
            }
            let pos = (starts[usize::from(at) % starts.len()] + off).min(s.len() - 1);
            let bytes = (0..inserted.max(1)).map(|k| PALETTE[(byte + k * 3) % PALETTE.len()]);
            if inserted == 0 {
                s[pos] = PALETTE[byte];
            } else {
                s.splice(pos..pos, bytes);
            }
        }
        let disagreement = walkers_disagree(&s);
        prop_assert!(disagreement.is_none(), "{:?} after edits {:?}", disagreement, edits);
    }
}

//! Golden hashes of `encode_coeffs` output: every mode × component
//! layout × restart setting over four image sizes.
//!
//! The public part of a P3 photo is whatever the PSP re-encodes, and the
//! proxy's reconstruction assumes those bytes, so work on the entropy
//! coder must not move one of them. The hashes were generated from the
//! commit before the encoder's scan sequences became one emitter
//! (`P3_PRINT_GOLDEN=1 cargo test -p p3-jpeg --test encode_golden --
//! --nocapture` prints the table; only regenerate from a commit you
//! trust). CI runs this under `P3_FORCE_SCALAR=0` and `=1`: the baseline
//! AC walker branches on the SIMD nonzero mask, the bytes must not.

use p3_jpeg::encoder::{encode_coeffs, gray_to_coeffs, pixels_to_coeffs, Mode, Subsampling};
use p3_jpeg::{decode_to_coeffs, CoeffImage, GrayImage, RgbImage};

mod common;
use common::card;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(width, height, quality)`: one block, two odd sizes the ladder
/// serves, and one with a ragged MCU edge in every layout. Quality falls
/// with size so the set covers 11-bit coefficients as well as long
/// zero runs.
const SIZES: [(usize, usize, u8); 4] = [(8, 8, 100), (75, 56, 92), (130, 98, 85), (321, 243, 60)];

const LAYOUTS: [&str; 4] = ["gray", "444", "422", "420"];

/// `(mode, restart interval)` per golden column.
const VARIANTS: [(Mode, u16); 5] = [
    (Mode::Baseline, 0),
    (Mode::Baseline, 7),
    (Mode::BaselineOptimized, 0),
    (Mode::BaselineOptimized, 7),
    (Mode::Progressive, 0),
];

/// One row per `SIZES` × `LAYOUTS`, one column per `VARIANTS`.
#[rustfmt::skip]
const GOLDEN: [[u64; 5]; 16] = [
    [0x9eee7efb9c162aa1, 0xdc07ca47a6315c18, 0x321906117480e360, 0x0fbb6b3e85e622eb, 0x376afe102393d531], // 8x8 gray
    [0xcf69d878a63d7411, 0xeb595edae414e92e, 0xfc4506dcdbb84f5b, 0x334f32ca786018b8, 0x6791f94aa93dc604], // 8x8 444
    [0x5d4b19e8db9430cd, 0xc260cad90166dcd2, 0xa9a5079ea885e823, 0x731bf08b2907971a, 0x99e899fc479bfbc0], // 8x8 422
    [0x6e591908585bcb6b, 0xf07b7f61f2f6da94, 0x0258350dd5724a35, 0xe868f143face59cc, 0xe7d2a091c7858c42], // 8x8 420
    [0x58f64c4efd8722e1, 0x57723155bcd4babc, 0x02bf603df1dd789f, 0x18f1322cdf1e943e, 0xff3a967518131981], // 75x56 gray
    [0x82821b8ec3ece2af, 0x3b05c3f71d7e5c58, 0x02feb82159be03c3, 0x1ed89c88e5b81b62, 0x84fbb36cceb0a324], // 75x56 444
    [0x6d1976d860e3d721, 0x537fc03d3f39e47b, 0x5d9075a6877eab4c, 0xa94908c8a0648e35, 0xaa210cfa09ffcf27], // 75x56 422
    [0xff149e30b666c35a, 0x7e14623cac647066, 0x9a6719259228542a, 0xc962987219a61bd8, 0x665d862bb9d50899], // 75x56 420
    [0x78acce7a7b6493b2, 0x25fea64294c7a98b, 0x395c6562346d9017, 0xce6c08a24e0cc222, 0xac13163765b14845], // 130x98 gray
    [0x5da544dd406ef8ec, 0xfce9261e640b8d54, 0xa16c33c0f258552a, 0x30e369ae10be69ee, 0xc964688035e24539], // 130x98 444
    [0x23bcd9d4510805b5, 0x65f4c0190b4aedb5, 0x4e17c2537bf71d69, 0xd00ea194109f9dd5, 0x3e3f915c7e8ed163], // 130x98 422
    [0x9abcbaed984d1453, 0xf6eab9729e9bbc63, 0xf7db2f6aaec2725e, 0x20ed938c35340c4b, 0xdd8f009a84570179], // 130x98 420
    [0x1183634f990acea6, 0x8c75cc291c6bdd50, 0x4585cefecde3f3c3, 0x5d79d464c5766f74, 0x4f1defe26bfad702], // 321x243 gray
    [0x00d4b57778b6344a, 0xc28df7213a42dbbc, 0x1cc86c6aa1f12ebb, 0x1ec837312a52e484, 0xaa50b4ac58af5637], // 321x243 444
    [0x0a818520f9ead661, 0x45cdc84fc9395897, 0x458c0f2b04131d7e, 0xcd1d033f5f053caa, 0xa76f9a007b16d5d5], // 321x243 422
    [0xe070994952f40c49, 0x8707cb9fa39a0ecb, 0x401f7cd19a133b5b, 0xe0b2d83955de21b8, 0x69b32b7b2b52bfff], // 321x243 420
];

fn coeffs(layout: &str, rgb: &RgbImage, quality: u8) -> CoeffImage {
    let sub = match layout {
        "gray" => {
            let mut gray = GrayImage::new(rgb.width, rgb.height);
            for (g, px) in gray.data.iter_mut().zip(rgb.data.chunks_exact(3)) {
                *g = px[1];
            }
            return gray_to_coeffs(&gray, quality).expect("gray coefficients");
        }
        "444" => Subsampling::S444,
        "422" => Subsampling::S422,
        _ => Subsampling::S420,
    };
    pixels_to_coeffs(rgb, quality, sub).expect("coefficients")
}

#[test]
fn every_mode_layout_and_size_is_byte_identical_to_golden() {
    let print = std::env::var_os("P3_PRINT_GOLDEN").is_some();
    let mut row = 0;
    for (i, &(w, h, quality)) in SIZES.iter().enumerate() {
        let rgb = card(0x9e37_79b9 + i as u64, w, h);
        for layout in LAYOUTS {
            let ci = coeffs(layout, &rgb, quality);
            let got = VARIANTS.map(|(mode, restart)| {
                let jpeg = encode_coeffs(&ci, mode, restart).expect("encode");
                // The stream is a JPEG that carries exactly `ci`, not
                // merely the bytes it was yesterday.
                let (back, _) = decode_to_coeffs(&jpeg).expect("decode");
                for (a, b) in ci.components.iter().zip(&back.components) {
                    assert_eq!(a.blocks, b.blocks, "{w}x{h} {layout} {mode:?} restart {restart}");
                }
                fnv1a(&jpeg)
            });
            if print {
                let cells: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
                println!("    [{}], // {w}x{h} {layout}", cells.join(", "));
            } else {
                assert_eq!(got, GOLDEN[row], "{w}x{h} {layout} changed (columns: {VARIANTS:?})");
            }
            row += 1;
        }
    }
    assert_eq!(row, GOLDEN.len());
}

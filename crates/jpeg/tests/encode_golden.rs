//! Golden hashes of `encode_coeffs` output: every mode × component
//! layout × restart setting over four image sizes.
//!
//! The public part of a P3 photo is whatever the PSP re-encodes, and the
//! proxy's reconstruction assumes those bytes, so work on the entropy
//! coder must not move one of them. Every column is one script of scans
//! recorded by the encoder's one band rule: the sequential script's one
//! scan, or the progressive script's ten (six in gray). The first five
//! columns were generated from the commit before the encoder's scan
//! sequences became one emitter; the sixth from the one where
//! progressive scans began to honour the restart interval, whose streams
//! the decode below checks (`P3_PRINT_GOLDEN=1 cargo test -p p3-jpeg
//! --test encode_golden -- --nocapture` prints the table; only
//! regenerate from a commit you trust). CI runs this under
//! `P3_FORCE_SCALAR=0` and `=1`: the band rule branches on a
//! SIMD-computed coefficient mask in every AC band, the bytes must not.

use p3_jpeg::color::Plane;
use p3_jpeg::encoder::{encode_coeffs, gray_to_coeffs, pixels_to_coeffs, Mode, Subsampling};
use p3_jpeg::zigzag::ZIGZAG;
use p3_jpeg::{decode_to_coeffs, CoeffImage, QuantTable, RgbImage};

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
const VARIANTS: [(Mode, u16); 6] = [
    (Mode::Baseline, 0),
    (Mode::Baseline, 7),
    (Mode::BaselineOptimized, 0),
    (Mode::BaselineOptimized, 7),
    (Mode::Progressive, 0),
    (Mode::Progressive, 7),
];

/// One row per `SIZES` × `LAYOUTS`, one column per `VARIANTS`.
#[rustfmt::skip]
const GOLDEN: [[u64; 6]; 16] = [
    [0x9eee7efb9c162aa1, 0xdc07ca47a6315c18, 0x321906117480e360, 0x0fbb6b3e85e622eb, 0x376afe102393d531, 0x76b0faf65764902f], // 8x8 gray
    [0xcf69d878a63d7411, 0xeb595edae414e92e, 0xfc4506dcdbb84f5b, 0x334f32ca786018b8, 0x6791f94aa93dc604, 0x4fd77d13c8b8b668], // 8x8 444
    [0x5d4b19e8db9430cd, 0xc260cad90166dcd2, 0xa9a5079ea885e823, 0x731bf08b2907971a, 0x99e899fc479bfbc0, 0x7fafe53af322b3d0], // 8x8 422
    [0x6e591908585bcb6b, 0xf07b7f61f2f6da94, 0x0258350dd5724a35, 0xe868f143face59cc, 0xe7d2a091c7858c42, 0xcd523193e2c12e7c], // 8x8 420
    [0x58f64c4efd8722e1, 0x57723155bcd4babc, 0x02bf603df1dd789f, 0x18f1322cdf1e943e, 0xff3a967518131981, 0x70cb621bdf56f765], // 75x56 gray
    [0x82821b8ec3ece2af, 0x3b05c3f71d7e5c58, 0x02feb82159be03c3, 0x1ed89c88e5b81b62, 0x84fbb36cceb0a324, 0x9a9680b781476e87], // 75x56 444
    [0x6d1976d860e3d721, 0x537fc03d3f39e47b, 0x5d9075a6877eab4c, 0xa94908c8a0648e35, 0xaa210cfa09ffcf27, 0xf2aaece24124c172], // 75x56 422
    [0xff149e30b666c35a, 0x7e14623cac647066, 0x9a6719259228542a, 0xc962987219a61bd8, 0x665d862bb9d50899, 0xc9c575efde9b9435], // 75x56 420
    [0x78acce7a7b6493b2, 0x25fea64294c7a98b, 0x395c6562346d9017, 0xce6c08a24e0cc222, 0xac13163765b14845, 0x010c9bed5573aa80], // 130x98 gray
    [0x5da544dd406ef8ec, 0xfce9261e640b8d54, 0xa16c33c0f258552a, 0x30e369ae10be69ee, 0xc964688035e24539, 0x22b9a93bea5e817c], // 130x98 444
    [0x23bcd9d4510805b5, 0x65f4c0190b4aedb5, 0x4e17c2537bf71d69, 0xd00ea194109f9dd5, 0x3e3f915c7e8ed163, 0x9e131a513513a9f8], // 130x98 422
    [0x9abcbaed984d1453, 0xf6eab9729e9bbc63, 0xf7db2f6aaec2725e, 0x20ed938c35340c4b, 0xdd8f009a84570179, 0x52164256564593d1], // 130x98 420
    [0x1183634f990acea6, 0x8c75cc291c6bdd50, 0x4585cefecde3f3c3, 0x5d79d464c5766f74, 0x4f1defe26bfad702, 0x16145144412cc5cf], // 321x243 gray
    [0x00d4b57778b6344a, 0xc28df7213a42dbbc, 0x1cc86c6aa1f12ebb, 0x1ec837312a52e484, 0xaa50b4ac58af5637, 0xa028fcbd5e7c2e12], // 321x243 444
    [0x0a818520f9ead661, 0x45cdc84fc9395897, 0x458c0f2b04131d7e, 0xcd1d033f5f053caa, 0xa76f9a007b16d5d5, 0x56c7e683afa53c9b], // 321x243 422
    [0xe070994952f40c49, 0x8707cb9fa39a0ecb, 0x401f7cd19a133b5b, 0xe0b2d83955de21b8, 0x69b32b7b2b52bfff, 0xbd8bdfea625bbc2e], // 321x243 420
];

fn coeffs(layout: &str, rgb: &RgbImage, quality: u8) -> CoeffImage {
    let sub = match layout {
        "gray" => {
            let mut gray = Plane::new(rgb.width, rgb.height);
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

/// Progressive-coder edge cases no photo above reaches, crafted straight
/// into coefficients:
/// - 1456×1456 with every AC band empty: over 32 767 blocks per AC scan,
///   so an EOB run hits its 0x7FFF cap;
/// - every |AC| in 2..=61: the `Al = 0` refine scan is nothing but
///   correction bits, deferred behind the EOB run until they pass 937.
///   One block in 16 stops at zig-zag 55, so that after 14 full blocks
///   and it they sum to exactly 937, which must not flush yet;
/// - at most four AC a block, up to 32 767 (15-bit categories), at random
///   positions: long zero runs, and empty blocks in between;
/// - a lone ±1 past 16 or more zeros after a few |AC| ≥ 2, so the refine
///   scan codes a ZRL while correction bits are pending, then the newly
///   significant coefficient.
const EDGES: [&str; 4] =
    ["empty bands", "correction bits only", "sparse 15-bit", "ZRL then a new 1"];

/// One row per `EDGES` × {gray, 4:2:0}, one column per restart {0, 7}, at
/// `Mode::Progressive`; generated from the commit before the AC walkers
/// went mask-driven.
#[rustfmt::skip]
const EDGE_GOLDEN: [[u64; 2]; 8] = [
    [0x3f37362e7b5359d6, 0x9a51c545f8279d91], // empty bands gray
    [0x0731f293f2dfd0a1, 0xd3c0febf2e4ea9aa], // empty bands 420
    [0x5645707972cf8f24, 0x99b1d1f7c3129a60], // correction bits only gray
    [0x90fb70f462541f3b, 0xf082604191fbe6af], // correction bits only 420
    [0x388382b835245862, 0x527aeed94dd3d663], // sparse 15-bit gray
    [0xf30c4a5f6177a50e, 0x63cd7330d8aa3e61], // sparse 15-bit 420
    [0x0b1a16765e2e80bf, 0x9dd0198b39d0ccbc], // ZRL then a new 1 gray
    [0x4d2c2c6c72f27491, 0x1f4cd98081282c11], // ZRL then a new 1 420
];

fn edge(case: usize, gray: bool) -> CoeffImage {
    let (w, h) = if case == 0 { (1456, 1456) } else { (128, 96) };
    let qt = vec![QuantTable::luma(90), QuantTable::chroma(90)];
    let mut ci = if gray {
        CoeffImage::zeroed(w, h, qt, &[(1, 1)], &[0])
    } else {
        CoeffImage::zeroed(w, h, qt, &[(2, 2), (1, 1), (1, 1)], &[0, 1, 1])
    }
    .expect("coefficient image");
    let mut s = 0x2545_f491_4f6c_dd1d ^ case as u64;
    let mut next = |n: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) % n
    };
    for comp in &mut ci.components {
        // AC only in real blocks: a progressive AC scan does not cover
        // the MCU padding.
        for by in 0..comp.blocks_h {
            for bx in 0..comp.blocks_w {
                let b = &mut comp.blocks[by * comp.padded_w + bx];
                b[0] = next(512) as i32 - 256;
                let mut put = |z: usize, magnitude: u64, negative: bool| {
                    let v = magnitude as i32;
                    b[ZIGZAG[z]] = if negative { -v } else { v };
                };
                match case {
                    0 => {}
                    1 => {
                        let last = if (by * comp.blocks_w + bx) % 16 == 14 { 55 } else { 63 };
                        (1..=last).for_each(|z| put(z, 2 + next(60), next(2) == 0));
                    }
                    2 => {
                        for _ in 0..next(5) {
                            let bits = 1 + next(15);
                            put(1 + next(63) as usize, next(1 << bits) | 1, next(2) == 0);
                        }
                    }
                    _ => {
                        let k = 1 + next(4) as usize;
                        (1..=k).for_each(|z| put(z, 2 + next(4), next(2) == 0));
                        let lone = k + 17 + next(24) as usize;
                        put(lone, 1, next(2) == 0);
                        if lone < 63 && next(2) == 0 {
                            put(lone + 1, 2 + next(8), next(2) == 0);
                        }
                    }
                }
            }
        }
    }
    ci
}

#[test]
fn progressive_edge_cases_are_byte_identical_to_golden() {
    let print = std::env::var_os("P3_PRINT_GOLDEN").is_some();
    let mut row = 0;
    for (case, what) in EDGES.iter().enumerate() {
        for (layout, gray) in [("gray", true), ("420", false)] {
            let ci = edge(case, gray);
            let got = [0u16, 7].map(|restart| {
                let jpeg = encode_coeffs(&ci, Mode::Progressive, restart).expect("encode");
                let (back, _) = decode_to_coeffs(&jpeg).expect("decode");
                for (a, b) in ci.components.iter().zip(&back.components) {
                    let same = a.blocks == b.blocks;
                    assert!(same, "{what} {layout} restart {restart}: component {}", a.id);
                }
                fnv1a(&jpeg)
            });
            if print {
                println!("    [{:#018x}, {:#018x}], // {what} {layout}", got[0], got[1]);
            } else {
                assert_eq!(got, EDGE_GOLDEN[row], "{what} {layout} changed (restart 0, 7)");
            }
            row += 1;
        }
    }
    assert_eq!(row, EDGE_GOLDEN.len());
}

//! Shared by the encoder's golden and allocation tests.

use p3_jpeg::RgbImage;

/// Integer-only test card (xorshift noise, no `f32`, so the samples are
/// the same on every target): smooth ramps, a flat corner (EOB runs), a
/// hard checker (large AC terms) and a noise band (dense blocks, ZRLs).
pub fn card(seed: u64, w: usize, h: usize) -> RgbImage {
    let mut s = seed | 1;
    let mut noise = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 24) as u8
    };
    let mut img = RgbImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let n = noise();
            let px = if 2 * x < w && 2 * y < h {
                [40, 90, 160]
            } else if 2 * x >= w && 2 * y < h {
                let c = if (x / 3 + y / 5) % 2 == 0 { 250 } else { 5 };
                [c, 255 - c, c / 2]
            } else if 3 * y >= 2 * h {
                [n, n.rotate_left(3), n ^ 0x5a]
            } else {
                [
                    (x * 255 / w) as u8,
                    (y * 255 / h) as u8,
                    ((x + y) * 255 / (w + h)) as u8 ^ (n & 7),
                ]
            };
            img.set(x, y, px);
        }
    }
    img
}

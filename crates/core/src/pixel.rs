//! Bridging between `p3-jpeg` pixel buffers and `p3-vision` float planes.
//!
//! Reconstruction under server-side processing (Eq. 2) happens in the
//! pixel domain in `f32`: the secret + correction image decodes to
//! *fractional, signed* deltas that must survive resizing untouched until
//! the final add (paper footnote 8 — premature rounding is the only
//! error source when the transform is known).

use p3_jpeg::color::Plane;
use p3_jpeg::image::RgbImage;
use p3_vision::image::{round_to_u8, ImageF32};

/// Split an interleaved RGB image into three float channels.
pub fn rgb_to_channels(img: &RgbImage) -> [ImageF32; 3] {
    let n = img.width * img.height;
    let mut r = ImageF32::new(img.width, img.height);
    let mut g = ImageF32::new(img.width, img.height);
    let mut b = ImageF32::new(img.width, img.height);
    for i in 0..n {
        r.data[i] = f32::from(img.data[i * 3]);
        g.data[i] = f32::from(img.data[i * 3 + 1]);
        b.data[i] = f32::from(img.data[i * 3 + 2]);
    }
    [r, g, b]
}

/// Split an interleaved RGB image into three 8-bit planes (overwritten
/// whatever they held) — the channels as the row kernels can read them
/// ([`p3_vision::image::View`]) at a quarter of [`rgb_to_channels`]'
/// bytes.
pub fn rgb_to_planes_u8(img: &RgbImage, planes: &mut [Vec<u8>; 3]) {
    for (c, plane) in planes.iter_mut().enumerate() {
        plane.clear();
        plane.extend(img.data.chunks_exact(3).map(|px| px[c]));
    }
}

/// Merge three float channels back into an interleaved RGB image
/// (rounded and clamped).
pub fn channels_to_rgb(ch: &[ImageF32; 3]) -> RgbImage {
    let w = ch[0].width;
    let h = ch[0].height;
    assert!(ch.iter().all(|c| c.width == w && c.height == h), "channel size mismatch");
    let mut img = RgbImage::new(w, h);
    let planes = ch[0].data.iter().zip(&ch[1].data).zip(&ch[2].data);
    for (px, ((&r, &g), &b)) in img.data.chunks_exact_mut(3).zip(planes) {
        px.copy_from_slice(&[round_to_u8(r), round_to_u8(g), round_to_u8(b)]);
    }
    img
}

/// Round and clamp float samples into channel `c` of as many interleaved
/// RGB pixels — what [`channels_to_rgb`] does to a pixel, for a caller
/// that holds one row of one channel at a time.
pub fn round_into_channel(samples: &[f32], c: usize, rgb: &mut [u8]) {
    assert!(rgb.len() == 3 * samples.len(), "channel size mismatch");
    for (px, &v) in rgb.chunks_exact_mut(3).zip(samples) {
        px[c] = round_to_u8(v);
    }
}

/// Grayscale image to float plane.
pub fn gray_to_image(img: &Plane) -> ImageF32 {
    ImageF32::from_u8(img.width, img.height, &img.data).expect("consistent buffer")
}

/// Float plane to grayscale image.
pub fn image_to_gray(img: &ImageF32) -> Plane {
    Plane { width: img.width, height: img.height, data: img.to_u8() }
}

/// BT.601 luma channel of an RGB image as a float plane — the input the
/// vision attacks (Canny/SIFT/faces) operate on.
pub fn rgb_to_luma(img: &RgbImage) -> ImageF32 {
    let mut out = ImageF32::new(img.width, img.height);
    for i in 0..img.width * img.height {
        let r = f32::from(img.data[i * 3]);
        let g = f32::from(img.data[i * 3 + 1]);
        let b = f32::from(img.data[i * 3 + 2]);
        out.data[i] = 0.299 * r + 0.587 * g + 0.114 * b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_channel_roundtrip() {
        let mut img = RgbImage::new(5, 4);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = ((i * 13) % 256) as u8;
        }
        let ch = rgb_to_channels(&img);
        assert_eq!(channels_to_rgb(&ch).data, img.data);
        let mut by_channel = vec![0u8; img.data.len()];
        for (c, plane) in ch.iter().enumerate() {
            round_into_channel(&plane.data, c, &mut by_channel);
        }
        assert_eq!(by_channel, img.data);
    }

    #[test]
    fn planes_are_the_channels_unwidened() {
        let mut img = RgbImage::new(7, 3);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = ((i * 29) % 256) as u8;
        }
        let mut planes = [vec![1, 2, 3], Vec::new(), vec![9; 100]];
        rgb_to_planes_u8(&img, &mut planes);
        for (plane, ch) in planes.iter().zip(rgb_to_channels(&img)) {
            assert_eq!(ImageF32::from_u8(7, 3, plane).unwrap(), ch);
        }
    }

    #[test]
    fn gray_roundtrip() {
        let mut img = Plane::new(6, 3);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = (i * 14) as u8;
        }
        assert_eq!(image_to_gray(&gray_to_image(&img)).data, img.data);
    }

    #[test]
    fn luma_weights() {
        let mut img = RgbImage::new(1, 1);
        img.set(0, 0, [255, 255, 255]);
        assert!((rgb_to_luma(&img).data[0] - 255.0).abs() < 0.5);
        img.set(0, 0, [0, 255, 0]);
        assert!((rgb_to_luma(&img).data[0] - 149.7).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "channel size mismatch")]
    fn mismatched_channels_panic() {
        let ch = [ImageF32::new(2, 2), ImageF32::new(3, 2), ImageF32::new(2, 2)];
        let _ = channels_to_rgb(&ch);
    }
}

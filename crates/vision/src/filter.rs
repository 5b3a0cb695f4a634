//! Convolution building blocks: separable kernels, Gaussian blur, Sobel
//! gradients. Edge handling is clamp-to-edge throughout.
//!
//! The passes are tap-outer row loops: a row of accumulators starts at
//! `0.0` and takes one kernel tap at a time over contiguous source
//! samples, so every output sample still sums its taps in kernel order —
//! the bits of the per-sample loop — while the inner loop is one the
//! compiler vectorizes.

use crate::image::ImageF32;

/// One row of the horizontal pass: `acc[x] += Σ kernel[k] · line[x + k −
/// r]`, a tap at a time, columns outside the row clamped to its ends.
pub(crate) fn accumulate_h(acc: &mut [f32], kernel: &[f32], line: &[f32]) {
    let (w, r) = (line.len(), (kernel.len() / 2) as isize);
    let (first, last) = (line[0], line[w - 1]);
    for (k, &kv) in kernel.iter().enumerate() {
        // Tap `k` reads column `x + d`: inside the row for `x` in
        // `lo..hi`, clamped to the first sample left of `lo` and to the
        // last from `hi` on (a kernel wider than the row leaves `lo..hi`
        // empty).
        let d = k as isize - r;
        let lo = (-d).clamp(0, w as isize) as usize;
        let hi = (w as isize - d).clamp(lo as isize, w as isize) as usize;
        for a in &mut acc[..lo] {
            *a += kv * first;
        }
        if lo < hi {
            let inside = &line[(lo as isize + d) as usize..(hi as isize + d) as usize];
            for (a, &v) in acc[lo..hi].iter_mut().zip(inside) {
                *a += kv * v;
            }
        }
        for a in &mut acc[hi..] {
            *a += kv * last;
        }
    }
}

/// One row of the vertical pass: `acc += Σ kernel[k] · row(y + k − r)`,
/// a tap at a time, rows outside `0..height` clamped to its ends.
pub(crate) fn accumulate_v<'a>(
    acc: &mut [f32],
    kernel: &[f32],
    (y, height): (usize, usize),
    row: impl Fn(usize) -> &'a [f32],
) {
    let r = kernel.len() / 2;
    for (k, &kv) in kernel.iter().enumerate() {
        for (a, &v) in acc.iter_mut().zip(row((y + k).saturating_sub(r).min(height - 1))) {
            *a += kv * v;
        }
    }
}

/// Convolve horizontally with a 1-D kernel (odd length).
pub fn convolve_h(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let mut out = ImageF32::new(img.width, img.height);
    if img.width > 0 {
        let lines = img.data.chunks_exact(img.width);
        for (acc, line) in out.data.chunks_exact_mut(img.width).zip(lines) {
            accumulate_h(acc, kernel, line);
        }
    }
    out
}

/// Convolve vertically with a 1-D kernel (odd length).
pub fn convolve_v(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let (w, h) = (img.width, img.height);
    let mut out = ImageF32::new(w, h);
    if w > 0 {
        for (y, acc) in out.data.chunks_exact_mut(w).enumerate() {
            accumulate_v(acc, kernel, (y, h), |sy| &img.data[sy * w..][..w]);
        }
    }
    out
}

/// Separable convolution with the same 1-D kernel in both axes.
pub fn convolve_separable(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    convolve_v(&convolve_h(img, kernel), kernel)
}

/// Normalized 1-D Gaussian kernel with radius `ceil(3σ)`.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let r = (3.0 * sigma).ceil() as isize;
    let mut k: Vec<f32> =
        (-r..=r).map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp()).collect();
    let sum: f32 = k.iter().sum();
    for v in k.iter_mut() {
        *v /= sum;
    }
    k
}

/// Gaussian blur.
pub fn gaussian_blur(img: &ImageF32, sigma: f32) -> ImageF32 {
    convolve_separable(img, &gaussian_kernel(sigma))
}

/// Sobel gradients: returns (gx, gy).
pub fn sobel(img: &ImageF32) -> (ImageF32, ImageF32) {
    // Separable decomposition: d = [-1 0 1], s = [1 2 1].
    let d = [-1.0f32, 0.0, 1.0];
    let s = [1.0f32, 2.0, 1.0];
    let gx = convolve_v(&convolve_h(img, &d), &s);
    let gy = convolve_h(&convolve_v(img, &d), &s);
    (gx, gy)
}

/// The per-sample `get_clamped` loops the row passes replaced, kept as
/// the bit-identity oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{gaussian_kernel, ImageF32};

    pub fn convolve_h(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
        let r = (kernel.len() / 2) as isize;
        let mut out = ImageF32::new(img.width, img.height);
        for y in 0..img.height {
            for x in 0..img.width {
                let mut acc = 0.0f32;
                for (k, &kv) in kernel.iter().enumerate() {
                    acc += kv * img.get_clamped(x as isize + k as isize - r, y as isize);
                }
                out.set(x, y, acc);
            }
        }
        out
    }

    pub fn convolve_v(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
        let r = (kernel.len() / 2) as isize;
        let mut out = ImageF32::new(img.width, img.height);
        for y in 0..img.height {
            for x in 0..img.width {
                let mut acc = 0.0f32;
                for (k, &kv) in kernel.iter().enumerate() {
                    acc += kv * img.get_clamped(x as isize, y as isize + k as isize - r);
                }
                out.set(x, y, acc);
            }
        }
        out
    }

    pub fn gaussian_blur(img: &ImageF32, sigma: f32) -> ImageF32 {
        let kernel = gaussian_kernel(sigma);
        convolve_v(&convolve_h(img, &kernel), &kernel)
    }

    /// A `w × h` plane of signed, fractional noise.
    pub fn noise(w: usize, h: usize, seed: u32) -> ImageF32 {
        let mut img = ImageF32::new(w, h);
        let mut s = seed | 1;
        for v in img.data.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (s >> 20) as f32 / 16.0 - 64.0;
        }
        img
    }

    pub fn bits(img: &ImageF32) -> (usize, usize, Vec<u32>) {
        (img.width, img.height, img.data.iter().map(|v| v.to_bits()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{bits, noise};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn convolutions_are_bit_identical_to_the_old_loops(
            w in 1usize..=400, h in 1usize..=24, transpose in any::<bool>(),
            radius in 0usize..=6, seed in any::<u32>(),
        ) {
            // Kernel lengths 1…13 against a short axis of 1…24: as often
            // wider than the image as not.
            let (w, h) = if transpose { (h, w) } else { (w, h) };
            let img = noise(w, h, seed);
            let kernel = noise(2 * radius + 1, 1, seed ^ 0x9e37_79b9).data;
            prop_assert_eq!(bits(&convolve_h(&img, &kernel)), bits(&oracle::convolve_h(&img, &kernel)));
            prop_assert_eq!(bits(&convolve_v(&img, &kernel)), bits(&oracle::convolve_v(&img, &kernel)));
        }

        #[test]
        fn gaussian_blur_is_bit_identical_to_the_old_loops(
            w in 1usize..=400, h in 1usize..=24, transpose in any::<bool>(),
            sigma in 1usize..=8, seed in any::<u32>(),
        ) {
            let (w, h) = if transpose { (h, w) } else { (w, h) };
            let img = noise(w, h, seed);
            let sigma = sigma as f32 * 0.25;
            prop_assert_eq!(bits(&gaussian_blur(&img, sigma)), bits(&oracle::gaussian_blur(&img, sigma)));
        }
    }

    #[test]
    fn gaussian_kernel_normalized_and_symmetric() {
        for sigma in [0.5f32, 1.0, 1.6, 3.0] {
            let k = gaussian_kernel(sigma);
            assert!(k.len() % 2 == 1);
            let sum: f32 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sigma {sigma}");
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn blur_preserves_constant() {
        let img = ImageF32::from_raw(16, 16, vec![77.0; 256]).unwrap();
        let out = gaussian_blur(&img, 1.4);
        for &v in &out.data {
            assert!((v - 77.0).abs() < 1e-3);
        }
    }

    #[test]
    fn blur_reduces_variance() {
        let mut img = ImageF32::new(32, 32);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 255.0 } else { 0.0 };
        }
        let out = gaussian_blur(&img, 1.0);
        let var = |im: &ImageF32| {
            let m = im.mean();
            im.data.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / im.data.len() as f32
        };
        assert!(var(&out) < var(&img) / 4.0);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let mut img = ImageF32::new(16, 16);
        for y in 0..16 {
            for x in 8..16 {
                img.set(x, y, 255.0);
            }
        }
        let (gx, gy) = sobel(&img);
        // Strong horizontal gradient at the edge column, none vertically.
        assert!(gx.get(8, 8).abs() > 500.0);
        assert!(gy.get(8, 8).abs() < 1.0);
    }

    #[test]
    fn convolution_is_linear() {
        let mut a = ImageF32::new(8, 8);
        let mut b = ImageF32::new(8, 8);
        for i in 0..64 {
            a.data[i] = (i as f32 * 1.7).sin() * 50.0;
            b.data[i] = (i as f32 * 0.3).cos() * 30.0;
        }
        let k = gaussian_kernel(1.0);
        let lhs = convolve_separable(&a.add(&b), &k);
        let rhs = convolve_separable(&a, &k).add(&convolve_separable(&b, &k));
        for i in 0..64 {
            assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let _ = convolve_h(&ImageF32::new(4, 4), &[0.5, 0.5]);
    }
}

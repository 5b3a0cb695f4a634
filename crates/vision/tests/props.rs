//! Property tests for the vision substrate.

use p3_vision::filter::{gaussian_blur, gaussian_kernel};
use p3_vision::image::ImageF32;
use p3_vision::metrics::{mse, psnr, ssim};
use p3_vision::resize::{crop, resize, ResizeFilter};
use proptest::prelude::*;

fn arb_image(max_side: usize) -> impl Strategy<Value = ImageF32> {
    (2usize..max_side, 2usize..max_side, any::<u32>()).prop_map(|(w, h, seed)| {
        let mut img = ImageF32::new(w, h);
        let mut s = seed | 1;
        for v in img.data.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (s >> 24) as f32;
        }
        img
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blur_preserves_mean(seed in any::<u32>(),
                           w in 12usize..32, h in 12usize..32,
                           sigma in 0.5f32..1.5) {
        // Clamp-to-edge blurring conserves mass only approximately; on
        // images comfortably larger than the kernel the mean must stay
        // within a few percent.
        let mut img = ImageF32::new(w, h);
        let mut s = seed | 1;
        for v in img.data.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (s >> 24) as f32;
        }
        let blurred = gaussian_blur(&img, sigma);
        let m0 = f64::from(img.mean());
        let m1 = f64::from(blurred.mean());
        prop_assert!((m0 - m1).abs() < m0.abs().max(1.0) * 0.06 + 2.0, "{m0} vs {m1}");
    }

    #[test]
    fn kernel_sums_to_one(sigma in 0.3f32..4.0) {
        let k = gaussian_kernel(sigma);
        let sum: f32 = k.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn resize_yields_requested_dims(img in arb_image(24), ow in 1usize..32, oh in 1usize..32) {
        for f in ResizeFilter::all() {
            let out = resize(&img, ow, oh, *f);
            prop_assert_eq!((out.width, out.height), (ow, oh));
            // Values stay within the ringing-widened dynamic range:
            // Lanczos3 can overshoot a hard edge by over 30 % (sum of the
            // kernel's negative lobes), so allow ±40 % of full scale.
            for &v in &out.data {
                prop_assert!((-102.0..=357.0).contains(&v), "{f:?}: {v}");
            }
        }
    }

    #[test]
    fn crop_never_exceeds_bounds(img in arb_image(24),
                                 x in 0usize..40, y in 0usize..40,
                                 w in 1usize..40, h in 1usize..40) {
        let out = crop(&img, x, y, w, h);
        prop_assert!(out.width <= img.width);
        prop_assert!(out.height <= img.height);
        prop_assert!(out.width >= 1 && out.height >= 1);
    }

    #[test]
    fn metric_identities(img in arb_image(20)) {
        prop_assert_eq!(mse(&img, &img), 0.0);
        prop_assert!(psnr(&img, &img).is_infinite());
        let s = ssim(&img, &img);
        prop_assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mse_is_symmetric(a in arb_image(16)) {
        let mut b = a.clone();
        for (i, v) in b.data.iter_mut().enumerate() {
            *v += (i % 7) as f32;
        }
        prop_assert!((mse(&a, &b) - mse(&b, &a)).abs() < 1e-9);
    }
}

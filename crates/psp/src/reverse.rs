//! Reverse-engineering the PSP's hidden pipeline (paper §4.1).
//!
//! "To understand what transformations have been performed, we are
//! reduced to searching the space of possible transformations for an
//! outcome that matches the output of transformations performed by the
//! PSP. […] we select several candidate settings for colorspace
//! conversion, filtering, sharpening, enhancing, and gamma corrections,
//! and then compare the output of these with that produced by the PSP."
//!
//! The proxy holds the public part it uploaded and the transformed
//! public part the PSP served; [`reverse_engineer`] scores every
//! candidate pipeline by PSNR between `candidate(uploaded)` and
//! `served`, and returns the best. The grid spans the resampling filter
//! and the unsharp, the stages [`TransformSpec`] models, so whatever it
//! picks is a linear `A` that Eq. 2 can push a delta through. The paper
//! notes "this reverse
//! engineering need only be done when a PSP re-jiggers its image
//! transformation pipeline" — in the system flow it runs once per
//! profile and is cached.

use p3_core::pixel::rgb_to_luma;
use p3_core::transform::TransformSpec;
use p3_jpeg::image::RgbImage;
use p3_vision::metrics::psnr;
use p3_vision::resize::ResizeFilter;

/// Outcome of the search.
#[derive(Debug, Clone)]
pub struct ReverseReport {
    /// The winning pipeline.
    pub spec: TransformSpec,
    /// Luma PSNR (dB) between `spec(uploaded)` and the served image.
    pub match_psnr: f64,
    /// Number of candidates evaluated.
    pub candidates: usize,
}

/// Candidate grid: every filter × sharpening level, at the served output
/// dimensions.
fn candidates(out_w: usize, out_h: usize) -> Vec<TransformSpec> {
    let mut out = Vec::new();
    for &filter in ResizeFilter::all() {
        for &(s_sigma, s_amount) in &[(0.8f32, 0.0f32), (0.8, 0.5), (0.8, 1.0), (1.5, 0.5)] {
            out.push(TransformSpec {
                crop: None,
                resize_to: Some((out_w, out_h)),
                filter,
                sharpen: (s_sigma, s_amount),
            });
        }
    }
    out
}

/// Search the candidate space for the pipeline that best explains
/// `served` given `uploaded`.
///
/// Scoring runs on luma only (3× cheaper, and the chroma path adds no
/// discrimination between these candidates).
pub fn reverse_engineer(uploaded: &RgbImage, served: &RgbImage) -> ReverseReport {
    let src = rgb_to_luma(uploaded);
    let target = rgb_to_luma(served);
    let specs = candidates(served.width, served.height);
    let mut best: Option<(f64, TransformSpec)> = None;
    for spec in &specs {
        let out = spec.apply(&src);
        let score = psnr(&out, &target);
        if best.as_ref().map(|(b, _)| score > *b).unwrap_or(true) {
            best = Some((score, *spec));
        }
    }
    let (match_psnr, spec) = best.expect("candidate list is never empty");
    ReverseReport { spec, match_psnr, candidates: specs.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photo(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let r = (128.0 + 90.0 * ((x as f32) * 0.05).sin() + 20.0 * ((y as f32) * 0.3).sin())
                    as u8;
                let g = (128.0 + 70.0 * ((y as f32) * 0.08).cos()) as u8;
                let b = ((x * 2 + y) % 256) as u8;
                img.set(x, y, [r, g, b]);
            }
        }
        img
    }

    /// Textured image: filters only differ measurably on high-frequency
    /// content, so filter identification needs texture (smooth gradients
    /// make all kernels near-identical — also a useful fact: the search
    /// then still finds an equally-good explanation).
    fn textured_photo(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        let mut s = 7u32;
        for y in 0..h {
            for x in 0..w {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                let n = (s >> 24) as i32 - 128;
                let base = 128 + ((x / 8 + y / 8) % 2) as i32 * 60 - 30;
                let v = (base + n / 2).clamp(0, 255) as u8;
                img.set(x, y, [v, v.wrapping_add(10), v.wrapping_sub(10)]);
            }
        }
        img
    }

    #[test]
    fn recovers_known_filter() {
        let src = textured_photo(256, 192);
        for filter in [ResizeFilter::Lanczos3, ResizeFilter::Box] {
            let truth = TransformSpec {
                resize_to: Some((96, 72)),
                filter,
                sharpen: (0.8, 0.0),
                crop: None,
            };
            let served = truth.apply_rgb(&src);
            let report = reverse_engineer(&src, &served);
            assert_eq!(report.spec.filter, filter, "wrong filter recovered");
            assert!(report.match_psnr > 40.0, "match PSNR {:.1}", report.match_psnr);
        }
    }

    #[test]
    fn recovers_sharpening() {
        let src = photo(200, 150);
        let truth = TransformSpec {
            resize_to: Some((100, 75)),
            filter: ResizeFilter::Mitchell,
            sharpen: (0.8, 1.0),
            crop: None,
        };
        let served = truth.apply_rgb(&src);
        let report = reverse_engineer(&src, &served);
        assert_eq!(report.spec.sharpen.1, 1.0);
    }

    #[test]
    fn off_grid_pipeline_still_matches_well() {
        // The PSP uses parameters not exactly on our grid; the search
        // should still find a close explanation (paper: "can result in
        // lower quality images" — but usable).
        let src = photo(240, 180);
        let truth = TransformSpec {
            resize_to: Some((120, 90)),
            filter: ResizeFilter::CatmullRom,
            sharpen: (1.1, 0.35),
            crop: None,
        };
        let served = truth.apply_rgb(&src);
        let report = reverse_engineer(&src, &served);
        assert!(report.match_psnr > 30.0, "match PSNR {:.1}", report.match_psnr);
    }

    #[test]
    fn candidate_count_is_reported() {
        let src = photo(64, 48);
        let served = TransformSpec::resize(32, 24, ResizeFilter::Triangle).apply_rgb(&src);
        let report = reverse_engineer(&src, &served);
        assert_eq!(report.candidates, 6 * 4);
    }
}

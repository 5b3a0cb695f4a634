//! SIFT — Scale-Invariant Feature Transform (Lowe, IJCV 2004).
//!
//! Figure 8(c) of the paper runs Lowe's reference implementation against
//! P3 public parts and counts (a) features detected and (b) features
//! matching the original image's features under the standard
//! nearest-neighbour distance-ratio test. This module implements the full
//! pipeline: Gaussian scale space, DoG extrema with contrast and edge
//! rejection, orientation assignment, 128-d descriptors, and ratio-test
//! matching with Lowe's default 0.6 ratio (the paper's footnote 11 also
//! checks 0.8).

use crate::filter::gaussian_blur;
use crate::image::ImageF32;
use crate::resize::{resize, ResizeFilter};

/// A detected keypoint with its descriptor.
#[derive(Debug, Clone)]
pub struct Feature {
    /// X coordinate in original-image pixels.
    pub x: f32,
    /// Y coordinate in original-image pixels.
    pub y: f32,
    /// Scale (sigma) of the keypoint.
    pub scale: f32,
    /// Dominant orientation in radians.
    pub orientation: f32,
    /// 128-dimensional descriptor, L2-normalized.
    pub descriptor: [f32; 128],
}

/// Detector parameters (Lowe's defaults).
#[derive(Debug, Clone, Copy)]
pub struct SiftParams {
    /// Scales per octave.
    pub scales_per_octave: usize,
    /// Base sigma of the first level.
    pub sigma: f32,
    /// DoG contrast threshold (on \[0,1\]-normalized intensities).
    pub contrast_threshold: f32,
    /// Edge (Hessian ratio) threshold.
    pub edge_threshold: f32,
    /// Maximum number of octaves.
    pub max_octaves: usize,
}

impl Default for SiftParams {
    fn default() -> Self {
        Self {
            scales_per_octave: 3,
            sigma: 1.6,
            contrast_threshold: 0.04,
            edge_threshold: 10.0,
            max_octaves: 4,
        }
    }
}

/// Detect SIFT features in a grayscale image.
pub fn detect(img: &ImageF32, params: SiftParams) -> Vec<Feature> {
    if img.width < 16 || img.height < 16 {
        return Vec::new();
    }
    // Work on [0,1] intensities.
    let mut base = img.clone();
    for v in base.data.iter_mut() {
        *v /= 255.0;
    }
    let s = params.scales_per_octave;
    let k = 2f32.powf(1.0 / s as f32);
    let mut features = Vec::new();
    let mut octave_img = gaussian_blur(&base, params.sigma);
    let mut octave_scale = 1.0f32; // pixels in this octave per original pixel

    for _octave in 0..params.max_octaves {
        if octave_img.width < 16 || octave_img.height < 16 {
            break;
        }
        // Build s+3 Gaussian levels.
        let mut gauss = vec![octave_img.clone()];
        let mut sigma_prev = params.sigma;
        for _ in 1..(s + 3) {
            let sigma_next = sigma_prev * k;
            let sigma_diff = (sigma_next * sigma_next - sigma_prev * sigma_prev).sqrt();
            let next = gaussian_blur(gauss.last().unwrap(), sigma_diff);
            gauss.push(next);
            sigma_prev = sigma_next;
        }
        // DoG levels.
        let dog: Vec<ImageF32> = gauss
            .windows(2)
            .map(|w| {
                let mut d = ImageF32::new(w[0].width, w[0].height);
                for i in 0..d.data.len() {
                    d.data[i] = w[1].data[i] - w[0].data[i];
                }
                d
            })
            .collect();

        // Extrema in (x, y, scale).
        let w = octave_img.width;
        let h = octave_img.height;
        for li in 1..dog.len() - 1 {
            let level_sigma = params.sigma * k.powi(li as i32);
            for y in 1..h - 1 {
                for x in 1..w - 1 {
                    let v = dog[li].get(x, y);
                    if v.abs() < 0.5 * params.contrast_threshold / s as f32 {
                        continue;
                    }
                    if !is_extremum(&dog, li, x, y, v) {
                        continue;
                    }
                    // Edge rejection via 2x2 Hessian of the DoG level.
                    let dxx = dog[li].get(x + 1, y) + dog[li].get(x - 1, y) - 2.0 * v;
                    let dyy = dog[li].get(x, y + 1) + dog[li].get(x, y - 1) - 2.0 * v;
                    let dxy = (dog[li].get(x + 1, y + 1)
                        - dog[li].get(x - 1, y + 1)
                        - dog[li].get(x + 1, y - 1)
                        + dog[li].get(x - 1, y - 1))
                        / 4.0;
                    let tr = dxx + dyy;
                    let det = dxx * dyy - dxy * dxy;
                    if det <= 0.0 {
                        continue;
                    }
                    let r = params.edge_threshold;
                    if tr * tr / det >= (r + 1.0) * (r + 1.0) / r {
                        continue;
                    }
                    // Contrast check on the (crudely) interpolated value.
                    if v.abs() < params.contrast_threshold / s as f32 {
                        continue;
                    }
                    // Orientation assignment on the matching Gaussian level.
                    for orientation in orientations(&gauss[li], x, y, level_sigma) {
                        if let Some(desc) = descriptor(&gauss[li], x, y, level_sigma, orientation) {
                            features.push(Feature {
                                x: x as f32 * octave_scale,
                                y: y as f32 * octave_scale,
                                scale: level_sigma * octave_scale,
                                orientation,
                                descriptor: desc,
                            });
                        }
                    }
                }
            }
        }
        // Next octave: downsample the s-th Gaussian level by 2.
        let src = &gauss[s];
        octave_img =
            resize(src, (src.width / 2).max(1), (src.height / 2).max(1), ResizeFilter::Triangle);
        octave_scale *= 2.0;
    }
    features
}

fn is_extremum(dog: &[ImageF32], li: usize, x: usize, y: usize, v: f32) -> bool {
    let mut is_max = true;
    let mut is_min = true;
    for l in [li - 1, li, li + 1] {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if l == li && dx == 0 && dy == 0 {
                    continue;
                }
                let n = dog[l].get((x as isize + dx) as usize, (y as isize + dy) as usize);
                if n >= v {
                    is_max = false;
                }
                if n <= v {
                    is_min = false;
                }
                if !is_max && !is_min {
                    return false;
                }
            }
        }
    }
    is_max || is_min
}

/// Gradient orientation histogram peaks (36 bins, 0.8 peak rule).
fn orientations(img: &ImageF32, x: usize, y: usize, sigma: f32) -> Vec<f32> {
    const BINS: usize = 36;
    let radius = (3.0 * 1.5 * sigma).round() as isize;
    let mut hist = [0f32; BINS];
    let sig2 = 2.0 * (1.5 * sigma) * (1.5 * sigma);
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let px = x as isize + dx;
            let py = y as isize + dy;
            if px < 1 || py < 1 || px >= img.width as isize - 1 || py >= img.height as isize - 1 {
                continue;
            }
            let gx = img.get(px as usize + 1, py as usize) - img.get(px as usize - 1, py as usize);
            let gy = img.get(px as usize, py as usize + 1) - img.get(px as usize, py as usize - 1);
            let mag = (gx * gx + gy * gy).sqrt();
            let ori = gy.atan2(gx); // [-pi, pi]
            let weight = (-((dx * dx + dy * dy) as f32) / sig2).exp();
            let bin = (((ori + std::f32::consts::PI) / (2.0 * std::f32::consts::PI)) * BINS as f32)
                .floor() as usize
                % BINS;
            hist[bin] += weight * mag;
        }
    }
    // Smooth the histogram twice with a [1 1 1]/3 kernel.
    for _ in 0..2 {
        let snapshot = hist;
        for i in 0..BINS {
            hist[i] =
                (snapshot[(i + BINS - 1) % BINS] + snapshot[i] + snapshot[(i + 1) % BINS]) / 3.0;
        }
    }
    let max = hist.iter().cloned().fold(0.0f32, f32::max);
    if max <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..BINS {
        let prev = hist[(i + BINS - 1) % BINS];
        let next = hist[(i + 1) % BINS];
        if hist[i] >= 0.8 * max && hist[i] > prev && hist[i] > next {
            // Parabolic peak interpolation.
            let denom = prev - 2.0 * hist[i] + next;
            let offset = if denom.abs() > 1e-9 { 0.5 * (prev - next) / denom } else { 0.0 };
            let angle = ((i as f32 + 0.5 + offset) / BINS as f32) * 2.0 * std::f32::consts::PI
                - std::f32::consts::PI;
            out.push(angle);
        }
    }
    if out.is_empty() {
        out.push(
            ((hist.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0 as f32 + 0.5)
                / BINS as f32)
                * 2.0
                * std::f32::consts::PI
                - std::f32::consts::PI,
        );
    }
    out
}

/// 4×4×8 descriptor with Gaussian weighting and soft binning.
fn descriptor(
    img: &ImageF32,
    x: usize,
    y: usize,
    sigma: f32,
    orientation: f32,
) -> Option<[f32; 128]> {
    const D: usize = 4; // spatial bins per axis
    const B: usize = 8; // orientation bins
    let hist_width = 3.0 * sigma;
    let radius = (hist_width * (D as f32 + 1.0) * 0.5 * std::f32::consts::SQRT_2).round() as isize;
    let cos_o = orientation.cos();
    let sin_o = orientation.sin();
    let mut hist = [0f32; 128];
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let px = x as isize + dx;
            let py = y as isize + dy;
            if px < 1 || py < 1 || px >= img.width as isize - 1 || py >= img.height as isize - 1 {
                continue;
            }
            // Rotate into keypoint frame.
            let rx = (cos_o * dx as f32 + sin_o * dy as f32) / hist_width;
            let ry = (-sin_o * dx as f32 + cos_o * dy as f32) / hist_width;
            let bin_x = rx + D as f32 / 2.0 - 0.5;
            let bin_y = ry + D as f32 / 2.0 - 0.5;
            if bin_x <= -1.0 || bin_x >= D as f32 || bin_y <= -1.0 || bin_y >= D as f32 {
                continue;
            }
            let gx = img.get(px as usize + 1, py as usize) - img.get(px as usize - 1, py as usize);
            let gy = img.get(px as usize, py as usize + 1) - img.get(px as usize, py as usize - 1);
            let mag = (gx * gx + gy * gy).sqrt();
            let ori = (gy.atan2(gx) - orientation).rem_euclid(2.0 * std::f32::consts::PI);
            let bin_o = ori / (2.0 * std::f32::consts::PI) * B as f32;
            let weight = (-(rx * rx + ry * ry) / (0.5 * D as f32 * D as f32)).exp();
            // Trilinear soft assignment.
            let x0 = bin_x.floor() as isize;
            let y0 = bin_y.floor() as isize;
            let o0 = bin_o.floor() as isize;
            let fx = bin_x - x0 as f32;
            let fy = bin_y - y0 as f32;
            let fo = bin_o - o0 as f32;
            for (ix, wx) in [(x0, 1.0 - fx), (x0 + 1, fx)] {
                if ix < 0 || ix >= D as isize {
                    continue;
                }
                for (iy, wy) in [(y0, 1.0 - fy), (y0 + 1, fy)] {
                    if iy < 0 || iy >= D as isize {
                        continue;
                    }
                    for (io, wo) in [(o0, 1.0 - fo), (o0 + 1, fo)] {
                        let io = ((io % B as isize) + B as isize) % B as isize;
                        let idx = (iy as usize * D + ix as usize) * B + io as usize;
                        hist[idx] += weight * mag * wx * wy * wo;
                    }
                }
            }
        }
    }
    // Normalize, clamp at 0.2, renormalize (Lowe's illumination robustness).
    let norm = hist.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm < 1e-9 {
        return None;
    }
    for v in hist.iter_mut() {
        *v = (*v / norm).min(0.2);
    }
    let norm2 = hist.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm2 < 1e-9 {
        return None;
    }
    for v in hist.iter_mut() {
        *v /= norm2;
    }
    Some(hist)
}

/// Euclidean distance between descriptors.
fn descriptor_distance(a: &[f32; 128], b: &[f32; 128]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
}

/// Lowe's ratio-test matching: a feature in `probe` matches if its nearest
/// neighbour in `reference` is closer than `ratio` × the second nearest.
/// Returns index pairs `(probe_idx, reference_idx)`.
pub fn match_features(probe: &[Feature], reference: &[Feature], ratio: f32) -> Vec<(usize, usize)> {
    let mut matches = Vec::new();
    if reference.len() < 2 {
        return matches;
    }
    for (pi, p) in probe.iter().enumerate() {
        let mut best = f32::INFINITY;
        let mut second = f32::INFINITY;
        let mut best_idx = 0usize;
        for (ri, r) in reference.iter().enumerate() {
            let d = descriptor_distance(&p.descriptor, &r.descriptor);
            if d < best {
                second = best;
                best = d;
                best_idx = ri;
            } else if d < second {
                second = d;
            }
        }
        if best < ratio * second {
            matches.push((pi, best_idx));
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A textured test image with blobs at varied scales.
    fn blob_image(seed: u32) -> ImageF32 {
        let mut img = ImageF32::new(96, 96);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 16) as f32 / 65536.0
        };
        let blobs: Vec<(f32, f32, f32, f32)> = (0..12)
            .map(|_| {
                (
                    next() * 80.0 + 8.0,
                    next() * 80.0 + 8.0,
                    next() * 6.0 + 2.0,
                    next() * 200.0 + 55.0,
                )
            })
            .collect();
        for y in 0..96 {
            for x in 0..96 {
                let mut v = 30.0;
                for &(cx, cy, r, a) in &blobs {
                    let d2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2);
                    v += a * (-d2 / (2.0 * r * r)).exp();
                }
                img.set(x, y, v.min(255.0));
            }
        }
        img
    }

    #[test]
    fn detects_features_on_textured_image() {
        let img = blob_image(42);
        let feats = detect(&img, SiftParams::default());
        assert!(feats.len() >= 5, "only {} features", feats.len());
        for f in &feats {
            assert!(f.x >= 0.0 && f.x < 96.0);
            assert!(f.y >= 0.0 && f.y < 96.0);
            let norm: f32 = f.descriptor.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "descriptor norm {norm}");
        }
    }

    #[test]
    fn flat_image_has_no_features() {
        let img = ImageF32::from_raw(64, 64, vec![100.0; 64 * 64]).unwrap();
        assert!(detect(&img, SiftParams::default()).is_empty());
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = ImageF32::new(8, 8);
        assert!(detect(&img, SiftParams::default()).is_empty());
    }

    #[test]
    fn self_matching_recovers_features() {
        let img = blob_image(7);
        let feats = detect(&img, SiftParams::default());
        assert!(feats.len() >= 4);
        let matches = match_features(&feats, &feats, 0.9);
        // Each feature should at least match itself... except identical twin
        // descriptors (multi-orientation clones) which fail the ratio test.
        assert!(
            matches.len() >= feats.len() / 2,
            "{} of {} self-matches",
            matches.len(),
            feats.len()
        );
        for &(p, r) in &matches {
            let d = descriptor_distance(&feats[p].descriptor, &feats[r].descriptor);
            assert!(d < 1e-6, "self-match distance {d}");
        }
    }

    #[test]
    fn matching_survives_small_noise() {
        let img = blob_image(3);
        let mut noisy = img.clone();
        let mut state = 99u32;
        for v in noisy.data.iter_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (*v + ((state >> 24) as f32 / 255.0 - 0.5) * 6.0).clamp(0.0, 255.0);
        }
        let a = detect(&img, SiftParams::default());
        let b = detect(&noisy, SiftParams::default());
        let matches = match_features(&b, &a, 0.8);
        assert!(!matches.is_empty(), "no matches under mild noise");
    }

    #[test]
    fn unrelated_images_match_little() {
        let a = detect(&blob_image(1), SiftParams::default());
        let b = detect(&blob_image(2), SiftParams::default());
        let cross = match_features(&b, &a, 0.6);
        // The ratio test should kill almost all cross-image matches.
        assert!(cross.len() <= b.len() / 3, "{} of {}", cross.len(), b.len());
    }

    #[test]
    fn ratio_test_monotone() {
        let a = detect(&blob_image(5), SiftParams::default());
        let b = detect(&blob_image(5), SiftParams::default());
        let strict = match_features(&b, &a, 0.5);
        let loose = match_features(&b, &a, 0.9);
        assert!(strict.len() <= loose.len());
    }
}

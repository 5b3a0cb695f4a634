//! Haar-feature + AdaBoost face detection (Viola & Jones, CVPR 2001).
//!
//! The paper's Figure 8(b) attacks P3 public parts with OpenCV's Haar
//! cascade. OpenCV's shipped cascade (trained on thousands of real faces)
//! is unavailable offline, so this module implements the same detector
//! family — integral images, Haar-like features, boosted decision stumps
//! arranged in an attentional cascade — and trains it at runtime on the
//! synthetic face corpus from `p3-datasets`. ARCHITECTURE.md § Crate
//! responsibilities records this substitution; the measured quantity
//! (average faces detected per image on originals vs. public parts) is
//! the same.

use crate::image::ImageF32;

/// Summed-area table with squared-sum companion for fast window mean and
/// variance (Viola-Jones normalizes each window by its standard
/// deviation).
#[derive(Debug, Clone)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    /// (width+1) x (height+1) sums.
    sum: Vec<f64>,
    sq: Vec<f64>,
}

impl IntegralImage {
    /// Build from an image.
    pub fn new(img: &ImageF32) -> Self {
        let w = img.width;
        let h = img.height;
        let stride = w + 1;
        let mut sum = vec![0f64; stride * (h + 1)];
        let mut sq = vec![0f64; stride * (h + 1)];
        for y in 0..h {
            let mut row_sum = 0f64;
            let mut row_sq = 0f64;
            for x in 0..w {
                let v = f64::from(img.get(x, y));
                row_sum += v;
                row_sq += v * v;
                sum[(y + 1) * stride + x + 1] = sum[y * stride + x + 1] + row_sum;
                sq[(y + 1) * stride + x + 1] = sq[y * stride + x + 1] + row_sq;
            }
        }
        Self { width: w, height: h, sum, sq }
    }

    /// Sum of pixels in `[x, x+w) × [y, y+h)`.
    #[inline]
    fn rect_sum(&self, x: usize, y: usize, w: usize, h: usize) -> f64 {
        debug_assert!(x + w <= self.width && y + h <= self.height);
        let s = self.width + 1;
        self.sum[(y + h) * s + x + w] + self.sum[y * s + x]
            - self.sum[y * s + x + w]
            - self.sum[(y + h) * s + x]
    }

    /// Mean and standard deviation of a window.
    fn window_stats(&self, x: usize, y: usize, w: usize, h: usize) -> (f64, f64) {
        let s = self.width + 1;
        let n = (w * h) as f64;
        let total = self.rect_sum(x, y, w, h);
        let total_sq = self.sq[(y + h) * s + x + w] + self.sq[y * s + x]
            - self.sq[y * s + x + w]
            - self.sq[(y + h) * s + x];
        let mean = total / n;
        let var = (total_sq / n - mean * mean).max(0.0);
        (mean, var.sqrt())
    }
}

/// Haar-like feature kinds over the 24×24 canonical window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaarKind {
    /// Two vertical bars: left minus right.
    Edge2H,
    /// Two horizontal bars: top minus bottom.
    Edge2V,
    /// Three vertical bars: outer minus 2× middle.
    Line3H,
    /// Three horizontal bars.
    Line3V,
    /// Four quadrants: diagonal minus anti-diagonal.
    Quad4,
}

/// A Haar feature positioned in the canonical window.
#[derive(Debug, Clone, Copy)]
pub struct HaarFeature {
    /// Feature kind.
    pub kind: HaarKind,
    /// X offset in the canonical window.
    pub x: u8,
    /// Y offset.
    pub y: u8,
    /// Width of the whole feature box.
    pub w: u8,
    /// Height of the whole feature box.
    pub h: u8,
}

/// Canonical training window side.
const WINDOW: usize = 24;

impl HaarFeature {
    /// Evaluate at a scaled window anchored at `(wx, wy)` with side
    /// `side` pixels, on a variance-normalized basis.
    pub fn eval(&self, ii: &IntegralImage, wx: usize, wy: usize, side: usize) -> f64 {
        let sc = side as f64 / WINDOW as f64;
        let fx = wx + (f64::from(self.x) * sc) as usize;
        let fy = wy + (f64::from(self.y) * sc) as usize;
        let fw = ((f64::from(self.w) * sc) as usize).max(2);
        let fh = ((f64::from(self.h) * sc) as usize).max(2);
        // Clamp to the window (scaling rounding can overflow by a pixel).
        let fw = fw.min(ii.width.saturating_sub(fx));
        let fh = fh.min(ii.height.saturating_sub(fy));
        if fw < 2 || fh < 2 {
            return 0.0;
        }
        let area = (fw * fh) as f64;
        let raw = match self.kind {
            HaarKind::Edge2H => {
                let half = fw / 2;
                ii.rect_sum(fx, fy, half, fh) - ii.rect_sum(fx + half, fy, fw - half, fh)
            }
            HaarKind::Edge2V => {
                let half = fh / 2;
                ii.rect_sum(fx, fy, fw, half) - ii.rect_sum(fx, fy + half, fw, fh - half)
            }
            HaarKind::Line3H => {
                let third = fw / 3;
                if third == 0 {
                    return 0.0;
                }
                ii.rect_sum(fx, fy, fw, fh) - 3.0 * ii.rect_sum(fx + third, fy, third, fh)
            }
            HaarKind::Line3V => {
                let third = fh / 3;
                if third == 0 {
                    return 0.0;
                }
                ii.rect_sum(fx, fy, fw, fh) - 3.0 * ii.rect_sum(fx, fy + third, fw, third)
            }
            HaarKind::Quad4 => {
                let hw = fw / 2;
                let hh = fh / 2;
                ii.rect_sum(fx, fy, hw, hh) + ii.rect_sum(fx + hw, fy + hh, fw - hw, fh - hh)
                    - ii.rect_sum(fx + hw, fy, fw - hw, hh)
                    - ii.rect_sum(fx, fy + hh, hw, fh - hh)
            }
        };
        raw / area
    }

    /// Enumerate a moderate feature pool over the canonical window.
    pub fn pool() -> Vec<HaarFeature> {
        let mut out = Vec::new();
        let kinds = [
            HaarKind::Edge2H,
            HaarKind::Edge2V,
            HaarKind::Line3H,
            HaarKind::Line3V,
            HaarKind::Quad4,
        ];
        for kind in kinds {
            for y in (0..WINDOW - 4).step_by(2) {
                for x in (0..WINDOW - 4).step_by(2) {
                    for h in (4..=WINDOW - y).step_by(4) {
                        for w in (4..=WINDOW - x).step_by(4) {
                            out.push(HaarFeature {
                                kind,
                                x: x as u8,
                                y: y as u8,
                                w: w as u8,
                                h: h as u8,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// One boosted decision stump.
#[derive(Debug, Clone, Copy)]
pub struct Stump {
    /// The feature it thresholds.
    pub feature: HaarFeature,
    /// Decision threshold on the normalized feature value.
    pub threshold: f64,
    /// +1 or -1: which side of the threshold votes "face".
    pub polarity: f64,
    /// AdaBoost weight (α).
    pub alpha: f64,
}

/// One attentional-cascade stage: a weighted stump committee and its
/// pass threshold.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The boosted stumps.
    pub stumps: Vec<Stump>,
    /// Pass threshold on the weighted vote sum.
    pub threshold: f64,
}

impl Stage {
    /// Weighted committee score for a window.
    pub fn score(
        &self,
        ii: &IntegralImage,
        wx: usize,
        wy: usize,
        side: usize,
        inv_std: f64,
    ) -> f64 {
        self.stumps
            .iter()
            .map(|s| {
                let v = s.feature.eval(ii, wx, wy, side) * inv_std;
                if s.polarity * v < s.polarity * s.threshold {
                    s.alpha
                } else {
                    -s.alpha
                }
            })
            .sum()
    }
}

/// A trained cascade.
#[derive(Debug, Clone)]
pub struct Cascade {
    /// Stages evaluated in order; a window must pass all of them.
    pub stages: Vec<Stage>,
}

/// A detected face rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Left edge.
    pub x: usize,
    /// Top edge.
    pub y: usize,
    /// Side length (detector windows are square).
    pub size: usize,
    /// Sum of stage scores (higher = more face-like).
    pub score: f64,
}

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainParams {
    /// Stumps per stage.
    pub stumps_per_stage: usize,
    /// Number of cascade stages.
    pub stages: usize,
    /// Feature pool subsample (every n-th feature) to bound train time.
    pub feature_stride: usize,
    /// Fraction of face training scores each stage must pass (e.g. 0.995).
    pub min_detection_rate: f64,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self { stumps_per_stage: 12, stages: 4, feature_stride: 7, min_detection_rate: 0.99 }
    }
}

impl Cascade {
    /// Train with AdaBoost on 24×24 positive (face) and negative patches.
    pub fn train(
        faces: &[ImageF32],
        non_faces: &[ImageF32],
        params: TrainParams,
    ) -> Option<Cascade> {
        if faces.len() < 8 || non_faces.len() < 8 {
            return None;
        }
        let pool: Vec<HaarFeature> =
            HaarFeature::pool().into_iter().step_by(params.feature_stride.max(1)).collect();
        // Precompute normalized feature values per sample.
        let prep = |imgs: &[ImageF32]| -> Vec<(IntegralImage, f64)> {
            imgs.iter()
                .map(|im| {
                    debug_assert_eq!(im.width, WINDOW);
                    debug_assert_eq!(im.height, WINDOW);
                    let ii = IntegralImage::new(im);
                    let (_, std) = ii.window_stats(0, 0, WINDOW, WINDOW);
                    (ii, 1.0 / std.max(1.0))
                })
                .collect()
        };
        let pos = prep(faces);
        let mut neg = prep(non_faces);

        let mut stages = Vec::new();
        for _stage in 0..params.stages {
            if neg.len() < 4 {
                break; // all negatives already rejected
            }
            let stage = train_stage(&pool, &pos, &neg, params)?;
            // Drop negatives the new stage rejects (cascade bootstrapping).
            neg.retain(|(ii, inv)| stage.score(ii, 0, 0, WINDOW, *inv) >= stage.threshold);
            stages.push(stage);
        }
        if stages.is_empty() {
            None
        } else {
            Some(Cascade { stages })
        }
    }

    /// Does the window pass the whole cascade?
    fn classify_window(
        &self,
        ii: &IntegralImage,
        wx: usize,
        wy: usize,
        side: usize,
    ) -> Option<f64> {
        let (_, std) = ii.window_stats(wx, wy, side, side);
        if std < 8.0 {
            return None; // flat patch — never a face
        }
        let inv_std = 1.0 / std;
        let mut total = 0.0;
        for stage in &self.stages {
            let s = stage.score(ii, wx, wy, side, inv_std);
            if s < stage.threshold {
                return None;
            }
            total += s;
        }
        Some(total)
    }

    /// Multi-scale sliding-window detection with overlap grouping.
    pub fn detect(&self, img: &ImageF32) -> Vec<Detection> {
        let mut raw = Vec::new();
        if img.width < WINDOW || img.height < WINDOW {
            return raw;
        }
        let ii = IntegralImage::new(img);
        let mut side = WINDOW;
        while side <= img.width.min(img.height) {
            let step = (side / 10).max(2);
            let mut y = 0;
            while y + side <= img.height {
                let mut x = 0;
                while x + side <= img.width {
                    if let Some(score) = self.classify_window(&ii, x, y, side) {
                        raw.push(Detection { x, y, size: side, score });
                    }
                    x += step;
                }
                y += step;
            }
            side = ((side as f64 * 1.2) as usize).max(side + 1);
        }
        group_detections(raw, 2)
    }
}

fn train_stage(
    pool: &[HaarFeature],
    pos: &[(IntegralImage, f64)],
    neg: &[(IntegralImage, f64)],
    params: TrainParams,
) -> Option<Stage> {
    let n_pos = pos.len();
    let n_neg = neg.len();
    let n = n_pos + n_neg;
    // Sample weights.
    let mut weights = vec![0f64; n];
    for w in weights.iter_mut().take(n_pos) {
        *w = 0.5 / n_pos as f64;
    }
    for w in weights.iter_mut().skip(n_pos) {
        *w = 0.5 / n_neg as f64;
    }
    // Feature values: [feature][sample].
    let values: Vec<Vec<f64>> = pool
        .iter()
        .map(|f| {
            pos.iter().chain(neg.iter()).map(|(ii, inv)| f.eval(ii, 0, 0, WINDOW) * inv).collect()
        })
        .collect();

    let mut stumps: Vec<Stump> = Vec::new();
    for _round in 0..params.stumps_per_stage {
        // Normalize weights.
        let wsum: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= wsum;
        }
        // Best stump across the pool.
        let mut best_err = f64::INFINITY;
        let mut best = None;
        for (fi, vals) in values.iter().enumerate() {
            // Sort samples by feature value for O(n) threshold scan.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
            let total_pos: f64 = weights.iter().take(n_pos).sum();
            let total_neg: f64 = weights.iter().skip(n_pos).sum();
            let mut seen_pos = 0f64;
            let mut seen_neg = 0f64;
            for (oi, &si) in order.iter().enumerate() {
                let w = weights[si];
                if si < n_pos {
                    seen_pos += w;
                } else {
                    seen_neg += w;
                }
                // Threshold between this sample and the next.
                let thr = if oi + 1 < n {
                    (vals[si] + vals[order[oi + 1]]) / 2.0
                } else {
                    vals[si] + 1e-6
                };
                // Polarity +1: predict face if value < thr.
                let err_p1 = seen_neg + (total_pos - seen_pos);
                // Polarity -1: predict face if value >= thr.
                let err_m1 = seen_pos + (total_neg - seen_neg);
                for (err, pol) in [(err_p1, 1.0), (err_m1, -1.0)] {
                    if err < best_err {
                        best_err = err;
                        best = Some((fi, thr, pol));
                    }
                }
            }
        }
        let (fi, thr, pol) = best?;
        let err = best_err.clamp(1e-10, 0.5 - 1e-10);
        let alpha = 0.5 * ((1.0 - err) / err).ln();
        let stump = Stump { feature: pool[fi], threshold: thr, polarity: pol, alpha };
        // Re-weight samples.
        for (si, w) in weights.iter_mut().enumerate() {
            let v = values[fi][si];
            let predicted_face = pol * v < pol * thr;
            let is_face = si < n_pos;
            let correct = predicted_face == is_face;
            *w *= if correct { (-alpha).exp() } else { alpha.exp() };
        }
        stumps.push(stump);
    }
    // Stage threshold: lowest committee score among the required fraction
    // of positives (guarantees the stage detection rate on training data).
    let stage = Stage { stumps, threshold: 0.0 };
    let mut pos_scores: Vec<f64> =
        pos.iter().map(|(ii, inv)| stage.score(ii, 0, 0, WINDOW, *inv)).collect();
    pos_scores.sort_by(f64::total_cmp);
    let drop = ((1.0 - params.min_detection_rate) * pos_scores.len() as f64) as usize;
    let threshold = pos_scores[drop.min(pos_scores.len() - 1)] - 1e-9;
    Some(Stage { stumps: stage.stumps, threshold })
}

/// Group overlapping raw detections; keep clusters with at least
/// `min_neighbors` members (OpenCV-style).
fn group_detections(mut raw: Vec<Detection>, min_neighbors: usize) -> Vec<Detection> {
    let overlaps = |a: &Detection, b: &Detection| {
        let ax1 = a.x + a.size;
        let ay1 = a.y + a.size;
        let bx1 = b.x + b.size;
        let by1 = b.y + b.size;
        let ix = ax1.min(bx1).saturating_sub(a.x.max(b.x));
        let iy = ay1.min(by1).saturating_sub(a.y.max(b.y));
        let inter = (ix * iy) as f64;
        let union = (a.size * a.size + b.size * b.size) as f64 - inter;
        union > 0.0 && inter / union > 0.3
    };
    let mut clusters: Vec<Vec<Detection>> = Vec::new();
    raw.sort_by(|a, b| b.score.total_cmp(&a.score));
    for d in raw {
        if let Some(c) = clusters.iter_mut().find(|c| overlaps(&c[0], &d)) {
            c.push(d);
        } else {
            clusters.push(vec![d]);
        }
    }
    clusters
        .into_iter()
        .filter(|c| c.len() >= min_neighbors)
        .map(|c| {
            let n = c.len();
            let score = c.iter().map(|d| d.score).sum::<f64>() / n as f64;
            Detection {
                x: c.iter().map(|d| d.x).sum::<usize>() / n,
                y: c.iter().map(|d| d.y).sum::<usize>() / n,
                size: c.iter().map(|d| d.size).sum::<usize>() / n,
                score,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u32) -> f32 {
        *state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        (*state >> 16) as f32 / 65536.0
    }

    /// Crude synthetic face: bright oval, dark eye blobs, dark mouth.
    fn synth_face(seed: u32) -> ImageF32 {
        let mut img = ImageF32::new(WINDOW, WINDOW);
        let mut st = seed * 31 + 1;
        let jx = lcg(&mut st) * 2.0 - 1.0;
        let jy = lcg(&mut st) * 2.0 - 1.0;
        for y in 0..WINDOW {
            for x in 0..WINDOW {
                let dx = (x as f32 - 11.5 - jx) / 10.0;
                let dy = (y as f32 - 11.5 - jy) / 11.5;
                let mut v = if dx * dx + dy * dy < 1.0 { 190.0 } else { 60.0 };
                // Eyes.
                for ex in [7.5f32, 15.5] {
                    let ddx = x as f32 - ex - jx;
                    let ddy = y as f32 - 9.0 - jy;
                    if ddx * ddx + ddy * ddy < 4.0 {
                        v = 50.0;
                    }
                }
                // Mouth.
                if (y as f32 - 17.0 - jy).abs() < 1.5 && (x as f32 - 11.5 - jx).abs() < 4.0 {
                    v = 70.0;
                }
                v += (lcg(&mut st) - 0.5) * 16.0;
                img.set(x, y, v.clamp(0.0, 255.0));
            }
        }
        img
    }

    fn synth_nonface(seed: u32) -> ImageF32 {
        let mut img = ImageF32::new(WINDOW, WINDOW);
        let mut st = seed * 7919 + 13;
        let kind = seed % 3;
        for y in 0..WINDOW {
            for x in 0..WINDOW {
                let v = match kind {
                    0 => lcg(&mut st) * 255.0,
                    1 => ((x * 11) % 256) as f32,
                    _ => 128.0 + 80.0 * ((x as f32 * 0.8).sin() * (y as f32 * 0.6).cos()),
                };
                img.set(x, y, v.clamp(0.0, 255.0));
            }
        }
        img
    }

    fn quick_cascade() -> Cascade {
        let faces: Vec<ImageF32> = (0..40).map(synth_face).collect();
        let non: Vec<ImageF32> = (0..80).map(synth_nonface).collect();
        Cascade::train(
            &faces,
            &non,
            TrainParams {
                stumps_per_stage: 6,
                stages: 3,
                feature_stride: 23,
                min_detection_rate: 0.97,
            },
        )
        .expect("training failed")
    }

    #[test]
    fn integral_image_sums() {
        let mut img = ImageF32::new(4, 4);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = i as f32;
        }
        let ii = IntegralImage::new(&img);
        assert_eq!(ii.rect_sum(0, 0, 4, 4), (0..16).sum::<usize>() as f64);
        assert_eq!(ii.rect_sum(1, 1, 2, 2), (5 + 6 + 9 + 10) as f64);
        assert_eq!(ii.rect_sum(3, 3, 1, 1), 15.0);
    }

    #[test]
    fn integral_image_matches_naive_sum_on_every_rect() {
        let (w, h) = (7, 5);
        let mut img = ImageF32::new(w, h);
        let mut st = 9;
        for v in img.data.iter_mut() {
            *v = lcg(&mut st) * 255.0;
        }
        let ii = IntegralImage::new(&img);
        for (x, y) in (0..w).flat_map(|x| (0..h).map(move |y| (x, y))) {
            for (rw, rh) in (1..=w - x).flat_map(|rw| (1..=h - y).map(move |rh| (rw, rh))) {
                let naive: f64 = (y..y + rh)
                    .flat_map(|yy| (x..x + rw).map(move |xx| (xx, yy)))
                    .map(|(xx, yy)| f64::from(img.get(xx, yy)))
                    .sum();
                let fast = ii.rect_sum(x, y, rw, rh);
                assert!((fast - naive).abs() < 1e-3, "({x},{y},{rw},{rh}): {fast} vs {naive}");
            }
        }
    }

    #[test]
    fn window_stats_constant() {
        let img = ImageF32::from_raw(8, 8, vec![42.0; 64]).unwrap();
        let ii = IntegralImage::new(&img);
        let (mean, std) = ii.window_stats(0, 0, 8, 8);
        assert!((mean - 42.0).abs() < 1e-9);
        assert!(std < 1e-6);
    }

    #[test]
    fn haar_edge_feature_responds_to_edge() {
        let mut img = ImageF32::new(WINDOW, WINDOW);
        for y in 0..WINDOW {
            for x in 0..WINDOW / 2 {
                img.set(x, y, 200.0);
            }
        }
        let ii = IntegralImage::new(&img);
        let f = HaarFeature { kind: HaarKind::Edge2H, x: 0, y: 0, w: 24, h: 24 };
        assert!(f.eval(&ii, 0, 0, WINDOW) > 50.0);
        // Flat image: zero response.
        let flat =
            IntegralImage::new(&ImageF32::from_raw(WINDOW, WINDOW, vec![99.0; 576]).unwrap());
        assert!(f.eval(&flat, 0, 0, WINDOW).abs() < 1e-6);
    }

    #[test]
    fn pool_is_reasonably_sized() {
        let pool = HaarFeature::pool();
        assert!(pool.len() > 1000, "{}", pool.len());
        assert!(pool.len() < 200_000, "{}", pool.len());
    }

    #[test]
    fn trained_cascade_separates_train_style_data() {
        let cascade = quick_cascade();
        let mut face_hits = 0;
        for s in 100..130u32 {
            let ii = IntegralImage::new(&synth_face(s));
            if cascade.classify_window(&ii, 0, 0, WINDOW).is_some() {
                face_hits += 1;
            }
        }
        let mut non_hits = 0;
        for s in 100..130u32 {
            let ii = IntegralImage::new(&synth_nonface(s));
            if cascade.classify_window(&ii, 0, 0, WINDOW).is_some() {
                non_hits += 1;
            }
        }
        assert!(face_hits >= 20, "faces passed: {face_hits}/30");
        assert!(non_hits <= 10, "non-faces passed: {non_hits}/30");
    }

    #[test]
    fn detect_finds_embedded_face() {
        let cascade = quick_cascade();
        // Paste a face into a larger textured background.
        let mut scene = ImageF32::new(96, 96);
        let mut st = 9u32;
        for v in scene.data.iter_mut() {
            *v = 100.0 + (lcg(&mut st) - 0.5) * 10.0;
        }
        let face = synth_face(500);
        // 2x upscaled paste at (30, 40).
        for y in 0..48 {
            for x in 0..48 {
                scene.set(30 + x, 40 + y, face.get(x / 2, y / 2));
            }
        }
        let dets = cascade.detect(&scene);
        let hit = dets.iter().any(|d| {
            let cx = d.x + d.size / 2;
            let cy = d.y + d.size / 2;
            (30..78).contains(&cx) && (40..88).contains(&cy)
        });
        assert!(hit, "face not found; detections: {dets:?}");
    }

    #[test]
    fn flat_image_yields_nothing() {
        let cascade = quick_cascade();
        let img = ImageF32::from_raw(64, 64, vec![128.0; 4096]).unwrap();
        assert!(cascade.detect(&img).is_empty());
    }

    #[test]
    fn grouping_merges_overlaps() {
        let raw = vec![
            Detection { x: 10, y: 10, size: 24, score: 1.0 },
            Detection { x: 11, y: 10, size: 24, score: 1.1 },
            Detection { x: 12, y: 11, size: 24, score: 0.9 },
            Detection { x: 60, y: 60, size: 24, score: 1.0 }, // lone → dropped
        ];
        let grouped = group_detections(raw, 2);
        assert_eq!(grouped.len(), 1);
        assert!((10..=12).contains(&grouped[0].x));
    }

    #[test]
    fn train_rejects_tiny_sets() {
        assert!(Cascade::train(&[], &[], TrainParams::default()).is_none());
    }
}

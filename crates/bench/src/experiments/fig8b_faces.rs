//! Figure 8(b) — face-detection attack.
//!
//! Paper: "P3 completely foils face detection for thresholds below 20;
//! at thresholds higher than about 35, faces are occasionally detected
//! in some images." The y-axis is the average number of faces detected
//! per image; the original-image baseline exceeds 1 because some images
//! contain several faces.
//!
//! Substitution note (ARCHITECTURE.md § Crate responsibilities):
//! OpenCV's pre-trained Haar cascade is unavailable offline, so the
//! detector is our own Viola-Jones-style cascade trained on the
//! synthetic face corpus at runtime.

use crate::experiments::common::{coeffs_to_luma, UPLOAD_QUALITY};
use crate::util::{f3, mean_std, Scale, Table, THRESHOLDS};
use p3_core::split::split_coeffs;
use p3_jpeg::encoder::{pixels_to_coeffs, Subsampling};
use p3_vision::facedetect::{Cascade, TrainParams};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct FacePoint {
    /// Threshold.
    pub t: u16,
    /// Average faces detected per image on the public part.
    pub detected_public: f64,
    /// Std-dev.
    pub detected_std: f64,
}

/// Full results.
#[derive(Debug, Clone)]
pub struct FaceDetectionResult {
    /// Baseline: average faces detected on original images.
    pub detected_original: f64,
    /// Ground-truth average faces per image.
    pub actual_faces: f64,
    /// Per-threshold results.
    pub points: Vec<FacePoint>,
}

/// Train the attack detector.
pub fn train_detector(seed: u64) -> Cascade {
    let (faces, nonfaces) = p3_datasets::corpus::detector_training_set(220, 440, seed);
    Cascade::train(
        &faces,
        &nonfaces,
        TrainParams {
            stumps_per_stage: 12,
            stages: 4,
            feature_stride: 9,
            min_detection_rate: 0.99,
        },
    )
    .expect("detector training")
}

/// Run the sweep on `count` Caltech-like images.
pub fn sweep(count: usize, thresholds: &[u16], seed: u64) -> FaceDetectionResult {
    let cascade = train_detector(seed);
    let dataset = p3_datasets::caltech_like(count, seed.wrapping_add(1));

    let mut orig_counts = Vec::new();
    let mut actual = Vec::new();
    let mut coeff_cache = Vec::new();
    for (named, boxes) in &dataset {
        let coeffs =
            pixels_to_coeffs(&named.image, UPLOAD_QUALITY, Subsampling::S420).expect("encode");
        let luma = coeffs_to_luma(&coeffs);
        orig_counts.push(cascade.detect(&luma).len() as f64);
        actual.push(boxes.len() as f64);
        coeff_cache.push(coeffs);
    }

    let mut points = Vec::new();
    for &t in thresholds {
        let mut counts = Vec::new();
        for coeffs in &coeff_cache {
            let (public, _, _) = split_coeffs(coeffs, t).expect("split");
            let luma = coeffs_to_luma(&public);
            counts.push(cascade.detect(&luma).len() as f64);
        }
        let (m, s) = mean_std(&counts);
        points.push(FacePoint { t, detected_public: m, detected_std: s });
    }
    FaceDetectionResult {
        detected_original: mean_std(&orig_counts).0,
        actual_faces: mean_std(&actual).0,
        points,
    }
}

/// Run Figure 8(b).
pub fn run(scale: Scale) -> FaceDetectionResult {
    let result = sweep(scale.caltech_count(), &THRESHOLDS, 42);
    let mut table = Table::new(
        "Fig 8b: face detection — avg faces detected per image",
        &["T", "on public part", "std", "on original"],
    );
    for p in &result.points {
        table.row(vec![
            p.t.to_string(),
            f3(p.detected_public),
            f3(p.detected_std),
            f3(result.detected_original),
        ]);
    }
    table.emit("fig8b_face_detection");
    println!(
        "(ground truth: {:.2} faces/image; detector finds {:.2} on originals)",
        result.actual_faces, result.detected_original
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_collapses_on_public_part() {
        let result = sweep(8, &[10], 7);
        assert!(
            result.detected_original > 0.4,
            "detector finds too few faces on originals: {:.2}",
            result.detected_original
        );
        let p = &result.points[0];
        assert!(
            p.detected_public < result.detected_original * 0.35,
            "public-part detections {:.2} vs original {:.2}",
            p.detected_public,
            result.detected_original
        );
    }
}

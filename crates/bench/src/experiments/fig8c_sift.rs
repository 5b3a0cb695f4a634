//! Figure 8(c) — SIFT feature-extraction attack.
//!
//! Paper: "below the threshold of 10, no SIFT features are detected, and
//! below a threshold of 20, only about 25% of the features are detected
//! […] if we count the number of features detected in the public part,
//! which are less than a distance d from the nearest feature in the
//! original image […] up to a threshold of 35, a very small fraction of
//! original features are discovered."

use crate::experiments::common::{coeffs_to_luma, prepare, split_encoded, PreparedImage};
use crate::util::{f3, mean_std, Scale, Table, THRESHOLDS};
use p3_vision::sift::{detect, match_features, SiftParams};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct SiftPoint {
    /// Threshold.
    t: u16,
    /// Features detected on the public part / features on the original.
    detected_norm: f64,
    /// Matched (ratio-test vs original) / features on the original.
    matched_norm: f64,
}

/// Sweep on a prepared corpus. Lowe's default matching ratio 0.6
/// (paper footnote 11 also validates 0.8 with similar results).
fn sweep(images: &[PreparedImage], thresholds: &[u16], match_ratio: f32) -> Vec<SiftPoint> {
    let params = SiftParams::default();
    let originals: Vec<_> =
        images.iter().map(|img| detect(&coeffs_to_luma(&img.coeffs), params)).collect();
    let mut points = Vec::new();
    for &t in thresholds {
        let mut det = Vec::new();
        let mut mat = Vec::new();
        for (img, orig_feats) in images.iter().zip(originals.iter()) {
            if orig_feats.is_empty() {
                continue;
            }
            let (_, _, public, _) = split_encoded(img, t);
            let pub_feats = detect(&coeffs_to_luma(&public), params);
            let matches = match_features(&pub_feats, orig_feats, match_ratio);
            det.push(pub_feats.len() as f64 / orig_feats.len() as f64);
            mat.push(matches.len() as f64 / orig_feats.len() as f64);
        }
        points.push(SiftPoint {
            t,
            detected_norm: mean_std(&det).0,
            matched_norm: mean_std(&mat).0,
        });
    }
    points
}

/// Run Figure 8(c) on (a slice of) the USC corpus — the paper skips
/// INRIA here too ("the SIFT algorithm is computationally expensive").
pub fn run(scale: Scale) -> Vec<Table> {
    let count = match scale {
        Scale::Quick => 4,
        Scale::Full => scale.usc_count(),
    };
    let images = prepare(p3_datasets::usc_sipi_like(count, 1));
    let points = sweep(&images, &THRESHOLDS, 0.6);
    let mut table = Table::new(
        "Fig 8c: SIFT — features on public part (normalized to original)",
        &["T", "detected", "matched"],
    );
    for p in &points {
        table.row(vec![p.t.to_string(), f3(p.detected_norm), f3(p.matched_norm)]);
    }
    table.emit("fig8c_sift");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_suppressed_at_low_t() {
        let images = prepare(p3_datasets::usc_sipi_like(2, 1));
        let points = sweep(&images, &[5, 100], 0.6);
        let low = &points[0];
        let high = &points[1];
        assert!(low.matched_norm < 0.15, "T=5 matched {:.3}", low.matched_norm);
        assert!(high.detected_norm > low.detected_norm, "detection must grow with T");
    }
}

//! Figure 8(d) — Eigenface recognition attack, CMC curves.
//!
//! Paper: Normal-Normal recognition exceeds 80% at rank 1; "if we
//! consider the proposed range of operating thresholds (T=1-20), the
//! recognition rate is below 20% at rank 1", with Public-Public (the
//! stronger attack, trained on public parts) somewhat above
//! Normal-Public. Metric: Mahalanobis Cosine, FAFB-style probes.

use crate::experiments::common::UPLOAD_QUALITY;
use crate::util::{f3, Scale, Table};
use p3_core::split::split_coeffs;
use p3_datasets::corpus::{feret_like, FeretSet, LabeledFace};
use p3_jpeg::encoder::gray_to_coeffs;
use p3_vision::eigenface::{cmc_curve, Distance, EigenfaceModel, Gallery};
use p3_vision::image::ImageF32;

/// The thresholds the paper plots CMC curves for.
const FIG8D_THRESHOLDS: [u16; 4] = [1, 10, 20, 100];

/// One CMC curve.
#[derive(Debug, Clone)]
struct CmcCurve {
    /// Curve label as in the paper legend (e.g. `T20-Public-Public`).
    label: String,
    /// `curve[r]` = fraction of probes with the right identity in the
    /// top `r+1`.
    curve: Vec<f64>,
}

/// The P3 public part of an aligned face image.
fn public_face(img: &ImageF32, t: u16) -> ImageF32 {
    let gray = p3_core::pixel::image_to_gray(img);
    let coeffs = gray_to_coeffs(&gray, UPLOAD_QUALITY).expect("face encodes");
    let (public, _, _) = split_coeffs(&coeffs, t).expect("split");
    let decoded = p3_jpeg::decoder::coeffs_to_gray(&public).expect("decode");
    p3_core::pixel::gray_to_image(&decoded)
}

fn publicize(faces: &[LabeledFace], t: u16) -> Vec<(usize, ImageF32)> {
    faces.iter().map(|f| (f.identity, public_face(&f.image, t))).collect()
}

fn normals(faces: &[LabeledFace]) -> Vec<(usize, ImageF32)> {
    faces.iter().map(|f| (f.identity, f.image.clone())).collect()
}

/// Run the recognition attack on a FERET-like corpus.
fn sweep(set: &FeretSet, thresholds: &[u16], max_rank: usize, k: usize) -> Vec<CmcCurve> {
    let train_normal: Vec<ImageF32> = set.training.iter().map(|f| f.image.clone()).collect();
    let model_normal = EigenfaceModel::train(&train_normal, k).expect("train");
    let gallery_normal = Gallery::build(&model_normal, &normals(&set.gallery));

    let mut curves = Vec::new();
    // Baseline.
    curves.push(CmcCurve {
        label: "Normal-Normal".into(),
        curve: cmc_curve(
            &model_normal,
            &gallery_normal,
            &normals(&set.probes),
            Distance::MahalanobisCosine,
            max_rank,
        ),
    });

    for &t in thresholds {
        let probes_public = publicize(&set.probes, t);
        // Normal-Public: model + gallery trained on normal images, probes
        // are public parts.
        curves.push(CmcCurve {
            label: format!("T{t}-Normal-Public"),
            curve: cmc_curve(
                &model_normal,
                &gallery_normal,
                &probes_public,
                Distance::MahalanobisCosine,
                max_rank,
            ),
        });
        // Public-Public: everything (training, gallery, probes) uses
        // public parts — the paper's stronger attack.
        let train_public: Vec<ImageF32> =
            set.training.iter().map(|f| public_face(&f.image, t)).collect();
        if let Some(model_public) = EigenfaceModel::train(&train_public, k) {
            let gallery_public = Gallery::build(&model_public, &publicize(&set.gallery, t));
            curves.push(CmcCurve {
                label: format!("T{t}-Public-Public"),
                curve: cmc_curve(
                    &model_public,
                    &gallery_public,
                    &probes_public,
                    Distance::MahalanobisCosine,
                    max_rank,
                ),
            });
        }
    }
    curves
}

/// Run Figure 8(d).
pub fn run(scale: Scale) -> Vec<Table> {
    let ids = scale.feret_identities();
    let set = feret_like(ids, 32, 99);
    let max_rank = 50.min(ids);
    let curves = sweep(&set, &FIG8D_THRESHOLDS, max_rank, 40);
    let ranks: Vec<usize> =
        [1usize, 2, 5, 10, 20, 50].iter().copied().filter(|&r| r <= max_rank).collect();
    let mut header: Vec<String> = vec!["curve".into()];
    header.extend(ranks.iter().map(|r| format!("rank {r}")));
    let mut table = Table::new(
        "Fig 8d: Eigenface recognition CMC (MahCosine, FAFB-style probes)",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for c in &curves {
        let mut row = vec![c.label.clone()];
        row.extend(ranks.iter().map(|&r| f3(c.curve[r - 1])));
        table.row(row);
    }
    table.emit("fig8d_face_recognition");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognition_collapses_on_public_parts() {
        let set = feret_like(24, 32, 5);
        let curves = sweep(&set, &[10], 24, 40);
        let baseline = curves.iter().find(|c| c.label == "Normal-Normal").unwrap();
        let attacked = curves.iter().find(|c| c.label == "T10-Normal-Public").unwrap();
        assert!(baseline.curve[0] > 0.6, "baseline rank-1 {:.2}", baseline.curve[0]);
        assert!(
            attacked.curve[0] < baseline.curve[0] * 0.6,
            "public rank-1 {:.2} vs baseline {:.2}",
            attacked.curve[0],
            baseline.curve[0]
        );
    }
}

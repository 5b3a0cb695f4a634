//! Figure 10 — bandwidth usage cost (INRIA, Facebook-style ladder).
//!
//! With P3, downloading a resized photo costs `resized(public) + secret`
//! bytes; without P3 it costs `resized(original)`. The difference is the
//! bandwidth overhead. Paper: "For thresholds in the 10-20 range, this
//! cost is modest: 20KB or less across different resolutions."

use crate::experiments::common::{prepare, split_encoded, PreparedImage};
use crate::util::{f1, mean_std, Scale, Table};
use p3_jpeg::image::RgbImage;

/// Thresholds plotted in the paper's Figure 10.
const FIG10_THRESHOLDS: [u16; 5] = [1, 5, 10, 15, 20];
/// Facebook's static ladder resolutions.
const RESOLUTIONS: [usize; 3] = [720, 130, 75];

/// One sweep point.
#[derive(Debug, Clone)]
struct BandwidthPoint {
    /// Threshold.
    t: u16,
    /// Mean uploaded size (public + secret) in KB.
    uploaded_kb: f64,
    /// Mean overhead in KB per ladder resolution (720, 130 and 75 px, in
    /// that order).
    overhead_kb: Vec<f64>,
    /// Std-dev of the overheads.
    overhead_std_kb: Vec<f64>,
}

/// PSP-side resize used for both the P3 and non-P3 downloads.
fn psp_resize(rgb: &RgbImage, max_side: usize) -> Vec<u8> {
    let profile = p3_psp::PspProfile::facebook();
    let spec = profile.transform_to_side(rgb.width, rgb.height, max_side);
    let out = spec.apply_rgb(rgb);
    let ci = p3_jpeg::encoder::pixels_to_coeffs(&out, profile.quality, p3_jpeg::Subsampling::S420)
        .expect("psp re-encode");
    p3_jpeg::encoder::encode_coeffs(&ci, profile.output_mode, 0).expect("psp re-encode")
}

/// Sweep on a prepared corpus.
fn sweep(images: &[PreparedImage], thresholds: &[u16]) -> Vec<BandwidthPoint> {
    // Per-image, per-resolution baseline: size of the resized original.
    let baselines: Vec<Vec<f64>> = images
        .iter()
        .map(|img| RESOLUTIONS.iter().map(|&r| psp_resize(&img.rgb, r).len() as f64).collect())
        .collect();
    let mut points = Vec::new();
    for &t in thresholds {
        let mut uploaded = Vec::new();
        let mut overhead: Vec<Vec<f64>> = vec![Vec::new(); RESOLUTIONS.len()];
        for (img, base) in images.iter().zip(baselines.iter()) {
            let (public_jpeg, secret_jpeg, public, _) = split_encoded(img, t);
            uploaded.push((public_jpeg.len() + secret_jpeg.len()) as f64 / 1024.0);
            let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).expect("decode public");
            for (ri, &r) in RESOLUTIONS.iter().enumerate() {
                let resized_public = psp_resize(&public_rgb, r).len() as f64;
                let with_p3 = resized_public + secret_jpeg.len() as f64;
                overhead[ri].push((with_p3 - base[ri]) / 1024.0);
            }
        }
        let (stats, stds): (Vec<f64>, Vec<f64>) = overhead.iter().map(|v| mean_std(v)).unzip();
        points.push(BandwidthPoint {
            t,
            uploaded_kb: mean_std(&uploaded).0,
            overhead_kb: stats,
            overhead_std_kb: stds,
        });
    }
    points
}

/// Run Figure 10 on the INRIA corpus.
pub fn run(scale: Scale) -> Vec<Table> {
    let images = prepare(p3_datasets::inria_like(scale.inria_count(), 2));
    let points = sweep(&images, &FIG10_THRESHOLDS);
    let mut table = Table::new(
        "Fig 10: bandwidth usage cost (KB), Facebook ladder, INRIA corpus",
        &["T", "uploaded", "ovh 720", "±", "ovh 130", "±", "ovh 75", "±"],
    );
    for p in &points {
        table.row(vec![
            p.t.to_string(),
            f1(p.uploaded_kb),
            f1(p.overhead_kb[0]),
            f1(p.overhead_std_kb[0]),
            f1(p.overhead_kb[1]),
            f1(p.overhead_std_kb[1]),
            f1(p.overhead_kb[2]),
            f1(p.overhead_std_kb[2]),
        ]);
    }
    table.emit("fig10_bandwidth");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_falls_with_threshold() {
        let images = prepare(p3_datasets::inria_like(2, 2));
        let points = sweep(&images, &[1, 20]);
        // At T=20 the secret part is much smaller, so every resolution's
        // overhead must drop relative to T=1.
        for (ri, res) in RESOLUTIONS.iter().enumerate() {
            assert!(
                points[1].overhead_kb[ri] < points[0].overhead_kb[ri],
                "resolution {res} overhead did not fall: {:?} -> {:?}",
                points[0].overhead_kb[ri],
                points[1].overhead_kb[ri]
            );
        }
        // Overhead at small resolutions is dominated by the secret part
        // and is positive.
        assert!(points[1].overhead_kb[2] > 0.0);
    }
}

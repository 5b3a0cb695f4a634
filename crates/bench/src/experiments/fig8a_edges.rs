//! Figure 8(a) — Canny edge-detection attack.
//!
//! Paper: "At threshold values below 20, barely 20% of the pixels match;
//! at very low thresholds, running edge detection on the public part
//! results in a picture resembling white noise, so we believe the higher
//! matching rate shown at low thresholds simply results from spurious
//! matches."

use crate::experiments::common::{coeffs_to_luma, prepare, split_encoded, PreparedImage};
use crate::util::{f1, mean_std, Scale, Table, THRESHOLDS};
use p3_vision::canny::{canny, edge_match_ratio, CannyParams};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct EdgePoint {
    /// Threshold.
    t: u16,
    /// Mean matching-pixel ratio (percent).
    match_ratio: f64,
    /// Std-dev.
    match_std: f64,
}

/// Sweep thresholds over a prepared corpus.
fn sweep(images: &[PreparedImage], thresholds: &[u16]) -> Vec<EdgePoint> {
    let params = CannyParams::default();
    let mut points = Vec::new();
    for &t in thresholds {
        let mut ratios = Vec::new();
        for img in images {
            let orig_edges = canny(&coeffs_to_luma(&img.coeffs), params);
            let (_, _, public, _) = split_encoded(img, t);
            let pub_edges = canny(&coeffs_to_luma(&public), params);
            ratios.push(edge_match_ratio(&orig_edges, &pub_edges));
        }
        let (m, s) = mean_std(&ratios);
        points.push(EdgePoint { t, match_ratio: m, match_std: s });
    }
    points
}

/// Run Figure 8(a) on the USC corpus.
pub fn run(scale: Scale) -> Vec<Table> {
    let images = prepare(p3_datasets::usc_sipi_like(scale.usc_count(), 1));
    let points = sweep(&images, &THRESHOLDS);
    let mut table = Table::new(
        "Fig 8a: Canny edge detection — matching pixel ratio on public part (%)",
        &["T", "match %", "std"],
    );
    for p in &points {
        table.row(vec![p.t.to_string(), f1(p.match_ratio), f1(p.match_std)]);
    }
    table.emit("fig8a_edges");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_mostly_hidden_at_sweet_spot() {
        let images = prepare(p3_datasets::usc_sipi_like(2, 1));
        let points = sweep(&images, &[15, 100]);
        let sweet = &points[0];
        let high = &points[1];
        assert!(sweet.match_ratio < 50.0, "T=15 match ratio {:.1}%", sweet.match_ratio);
        assert!(high.match_ratio > sweet.match_ratio, "more structure must leak at T=100");
    }
}

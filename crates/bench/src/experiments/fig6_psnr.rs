//! Figure 6 — threshold vs. PSNR of the public and secret parts.
//!
//! Paper: "the PSNR values of the public part are all around 10-15 dB"
//! (practically useless) while "the secret parts show high PSNRs"
//! (35-40 dB, perceptually lossless territory).

use crate::experiments::common::{coeffs_to_luma, prepare, split_encoded, PreparedImage};
use crate::util::{f1, mean_std, Scale, Table, THRESHOLDS};
use p3_vision::metrics::psnr;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct PsnrPoint {
    /// Threshold.
    t: u16,
    /// Mean public-part PSNR (dB, luma).
    public: f64,
    /// Std-dev.
    public_std: f64,
    /// Mean secret-part PSNR.
    secret: f64,
    /// Std-dev.
    secret_std: f64,
}

/// Results for one dataset.
#[derive(Debug, Clone)]
struct PsnrSweep {
    /// Dataset label.
    dataset: &'static str,
    /// Points per threshold.
    points: Vec<PsnrPoint>,
}

fn sweep(dataset: &'static str, images: &[PreparedImage]) -> PsnrSweep {
    let mut points = Vec::new();
    for &t in &THRESHOLDS {
        let mut pub_p = Vec::new();
        let mut sec_p = Vec::new();
        for img in images {
            let original = coeffs_to_luma(&img.coeffs);
            let (_, _, public, secret) = split_encoded(img, t);
            pub_p.push(psnr(&original, &coeffs_to_luma(&public)));
            sec_p.push(psnr(&original, &coeffs_to_luma(&secret)));
        }
        let (pm, ps) = mean_std(&pub_p);
        let (sm, ss) = mean_std(&sec_p);
        points.push(PsnrPoint { t, public: pm, public_std: ps, secret: sm, secret_std: ss });
    }
    PsnrSweep { dataset, points }
}

/// Run Figure 6 on both corpora.
pub fn run(scale: Scale) -> Vec<Table> {
    let usc = prepare(p3_datasets::usc_sipi_like(scale.usc_count(), 1));
    let inria = prepare(p3_datasets::inria_like(scale.inria_count(), 2));
    let sweeps = [sweep("USC-SIPI", &usc), sweep("INRIA", &inria)];
    let mut tables = Vec::new();
    for s in &sweeps {
        let mut table = Table::new(
            &format!("Fig 6 ({}): threshold vs PSNR (dB)", s.dataset),
            &["T", "public avg", "public std", "secret avg", "secret std"],
        );
        for p in &s.points {
            table.row(vec![
                p.t.to_string(),
                f1(p.public),
                f1(p.public_std),
                f1(p.secret),
                f1(p.secret_std),
            ]);
        }
        table.emit(&format!("fig6_{}", s.dataset.to_lowercase().replace('-', "_")));
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_low_secret_high() {
        let usc = prepare(p3_datasets::usc_sipi_like(3, 1));
        let s = sweep("USC-SIPI", &usc);
        for p in &s.points {
            assert!(p.public < 22.0, "T={}: public PSNR {:.1} not degraded", p.t, p.public);
            assert!(
                p.secret > p.public + 8.0,
                "T={}: secret {:.1} vs public {:.1}",
                p.t,
                p.secret,
                p.public
            );
        }
        // Secret PSNR decreases as more energy is left in the public part.
        let first = s.points.first().unwrap();
        let last = s.points.last().unwrap();
        assert!(first.secret > last.secret);
    }
}

//! Figure 5 — threshold vs. normalized file size.
//!
//! Paper: "At low thresholds (near 1), the combined image sizes exceed
//! the original image size by about 20%, with the public and secret
//! parts being each about 50% of the total size. […] operating at the
//! knee of the 'secret' line (at a threshold in the range of 15-20),
//! where the secret part is about 20% of the original image, and the
//! total storage overhead is about 5-10%."

use crate::experiments::common::{prepare, split_encoded, PreparedImage};
use crate::util::{f3, mean_std, Scale, Table, THRESHOLDS};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct SizePoint {
    /// Threshold.
    t: u16,
    /// Mean public size / original size.
    public: f64,
    /// Std-dev of the public ratio.
    public_std: f64,
    /// Mean secret ratio.
    secret: f64,
    /// Std-dev of the secret ratio.
    secret_std: f64,
    /// Mean combined ratio.
    combined: f64,
    /// Std-dev of the combined ratio.
    combined_std: f64,
}

/// Results for one dataset.
#[derive(Debug, Clone)]
struct SizeSweep {
    /// Dataset label.
    dataset: &'static str,
    /// One point per threshold.
    points: Vec<SizePoint>,
}

fn sweep(dataset: &'static str, images: &[PreparedImage]) -> SizeSweep {
    let mut points = Vec::new();
    for &t in &THRESHOLDS {
        let mut pub_r = Vec::new();
        let mut sec_r = Vec::new();
        let mut comb_r = Vec::new();
        for img in images {
            let (public_jpeg, secret_jpeg, _, _) = split_encoded(img, t);
            let orig = img.original_size as f64;
            pub_r.push(public_jpeg.len() as f64 / orig);
            sec_r.push(secret_jpeg.len() as f64 / orig);
            comb_r.push((public_jpeg.len() + secret_jpeg.len()) as f64 / orig);
        }
        let (pm, ps) = mean_std(&pub_r);
        let (sm, ss) = mean_std(&sec_r);
        let (cm, cs) = mean_std(&comb_r);
        points.push(SizePoint {
            t,
            public: pm,
            public_std: ps,
            secret: sm,
            secret_std: ss,
            combined: cm,
            combined_std: cs,
        });
    }
    SizeSweep { dataset, points }
}

/// Run Figure 5 on both corpora.
pub fn run(scale: Scale) -> Vec<Table> {
    let usc = prepare(p3_datasets::usc_sipi_like(scale.usc_count(), 1));
    let inria = prepare(p3_datasets::inria_like(scale.inria_count(), 2));
    let sweeps = [sweep("USC-SIPI", &usc), sweep("INRIA", &inria)];
    let mut tables = Vec::new();
    for s in &sweeps {
        let mut table = Table::new(
            &format!("Fig 5 ({}): threshold vs normalized file size (original = 1.0)", s.dataset),
            &["T", "public", "±", "secret", "±", "public+secret", "±"],
        );
        for p in &s.points {
            table.row(vec![
                p.t.to_string(),
                f3(p.public),
                f3(p.public_std),
                f3(p.secret),
                f3(p.secret_std),
                f3(p.combined),
                f3(p.combined_std),
            ]);
        }
        table.emit(&format!("fig5_{}", s.dataset.to_lowercase().replace('-', "_")));
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let usc = prepare(p3_datasets::usc_sipi_like(4, 1));
        let s = sweep("USC-SIPI", &usc);
        let first = &s.points[0]; // T = 1
        let knee = s.points.iter().find(|p| p.t == 20).unwrap();
        // Secret shrinks with T.
        assert!(knee.secret < first.secret);
        // At T=1 overhead is substantial; at the knee it is modest.
        assert!(first.combined > 1.05, "combined at T=1: {}", first.combined);
        assert!(knee.combined < first.combined);
        // Public part keeps the majority of bytes at the knee.
        assert!(knee.public > knee.secret);
    }
}

//! Figure 7 — visual public/secret pairs at T ∈ {1, 5, 10, 15, 20}.
//!
//! Writes PPM files under the experiment output directory so a human can
//! make the paper's qualitative judgement ("for thresholds in this range
//! minimal visual information is present in the public part").

use crate::experiments::common::{prepare, split_encoded};
use crate::util::{output_dir, Scale, Table};
use std::path::PathBuf;

/// Thresholds shown in the paper's Figure 7.
const FIG7_THRESHOLDS: [u16; 5] = [1, 5, 10, 15, 20];

/// Write the visual pairs; no table.
pub fn run(_scale: Scale) -> Vec<Table> {
    write_pairs();
    Vec::new()
}

/// Write the visual pairs; returns the written file paths.
fn write_pairs() -> Vec<PathBuf> {
    let images = prepare(p3_datasets::usc_sipi_like(2, 1));
    let canonical = &images[0];
    let dir = output_dir().join("fig7");
    std::fs::create_dir_all(&dir).expect("fig7 dir");
    let mut written = Vec::new();

    let orig = dir.join("original.ppm");
    std::fs::write(&orig, canonical.rgb.to_ppm()).expect("write");
    written.push(orig);

    for &t in &FIG7_THRESHOLDS {
        let (_, _, public, secret) = split_encoded(canonical, t);
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).expect("decode public");
        let secret_rgb = p3_jpeg::decoder::coeffs_to_rgb(&secret).expect("decode secret");
        let p = dir.join(format!("public_t{t:03}.ppm"));
        let s = dir.join(format!("secret_t{t:03}.ppm"));
        std::fs::write(&p, public_rgb.to_ppm()).expect("write");
        std::fs::write(&s, secret_rgb.to_ppm()).expect("write");
        written.push(p);
        written.push(s);
    }
    println!("Fig 7: wrote {} images to {}", written.len(), dir.display());
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_all_pairs() {
        let tmp = std::env::temp_dir().join("p3_fig7_test");
        std::env::set_var("P3_OUT_DIR", &tmp);
        let files = write_pairs();
        std::env::remove_var("P3_OUT_DIR");
        assert_eq!(files.len(), 1 + 2 * FIG7_THRESHOLDS.len());
        for f in &files {
            let meta = std::fs::metadata(f).unwrap();
            assert!(meta.len() > 100, "{} too small", f.display());
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

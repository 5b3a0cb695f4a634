//! Figure 9 — Canny edge maps on public parts at T = 1 and T = 20
//! (visual). Writes PGM edge maps for four canonical images.

use crate::experiments::common::{coeffs_to_luma, prepare, split_encoded};
use crate::util::{output_dir, Scale, Table};
use p3_vision::canny::{canny, CannyParams};
use std::path::PathBuf;

/// Write the edge maps; no table.
pub fn run(_scale: Scale) -> Vec<Table> {
    write_edge_maps();
    Vec::new()
}

/// Write edge maps; returns written paths.
fn write_edge_maps() -> Vec<PathBuf> {
    let images = prepare(p3_datasets::usc_sipi_like(4, 1));
    let dir = output_dir().join("fig9");
    std::fs::create_dir_all(&dir).expect("fig9 dir");
    let params = CannyParams::default();
    let mut written = Vec::new();
    for img in &images {
        let orig_edges = canny(&coeffs_to_luma(&img.coeffs), params);
        let path = dir.join(format!("{}_original_edges.pgm", img.name));
        std::fs::write(&path, p3_core::pixel::image_to_gray(&orig_edges.to_image()).to_pgm())
            .expect("write");
        written.push(path);
        for t in [1u16, 20] {
            let (_, _, public, _) = split_encoded(img, t);
            let edges = canny(&coeffs_to_luma(&public), params);
            let path = dir.join(format!("{}_public_t{t:02}_edges.pgm", img.name));
            std::fs::write(&path, p3_core::pixel::image_to_gray(&edges.to_image()).to_pgm())
                .expect("write");
            written.push(path);
        }
    }
    println!("Fig 9: wrote {} edge maps to {}", written.len(), dir.display());
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_edge_maps() {
        let tmp = std::env::temp_dir().join("p3_fig9_test");
        std::env::set_var("P3_OUT_DIR", &tmp);
        let files = write_edge_maps();
        std::env::remove_var("P3_OUT_DIR");
        assert_eq!(files.len(), 4 * 3);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

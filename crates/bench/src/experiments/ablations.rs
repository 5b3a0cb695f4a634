//! Ablations of P3's design choices.
//!
//! 1. **DC extraction** — what if the DC coefficients stayed public?
//!    (Paper: "The extraction of the DC component into the secret part
//!    plays a major part in leading to such low PSNR values.")
//! 2. **Sign hiding** — what if the public part carried the true sign of
//!    clipped coefficients (±T instead of +T)?
//! 3. **Optimized Huffman tables** — what do default Annex-K tables cost
//!    in storage overhead? (The paper's 5-10% figure assumes the encoder
//!    exploits the reduced entropy.)

use crate::experiments::common::{coeffs_to_luma, prepare, PreparedImage};
use crate::util::{f1, f3, mean_std, Scale, Table};
use p3_core::split::split_coeffs;
use p3_jpeg::block::CoeffImage;
use p3_jpeg::encoder::{encode_coeffs, Mode};
use p3_vision::metrics::psnr;

/// Ablation results at one threshold.
#[derive(Debug, Clone)]
struct AblationResult {
    /// Threshold used.
    t: u16,
    /// Public-part PSNR with the real algorithm.
    public_psnr: f64,
    /// Public-part PSNR if DC stayed public.
    public_psnr_dc_kept: f64,
    /// Public-part PSNR if clipped signs leaked (±T in public).
    public_psnr_sign_leak: f64,
    /// Combined size ratio with optimized tables.
    combined_optimized: f64,
    /// Combined size ratio with Annex-K default tables.
    combined_default: f64,
}

/// Variant splits used by the ablations.
fn split_keep_dc(ci: &CoeffImage, t: u16) -> CoeffImage {
    let (mut public, secret, _) = split_coeffs(ci, t).expect("split");
    // Put the DC back into the public part.
    for (pc, sc) in public.components.iter_mut().zip(secret.components.iter()) {
        for (pb, sb) in pc.blocks.iter_mut().zip(sc.blocks.iter()) {
            pb[0] = sb[0];
        }
    }
    public
}

fn split_leak_sign(ci: &CoeffImage, t: u16) -> CoeffImage {
    let mut public = ci.clone();
    let ti = i32::from(t);
    public.for_each_block_mut(|_, b| {
        b[0] = 0;
        for c in b.iter_mut().take(64).skip(1) {
            if c.abs() > ti {
                *c = c.signum() * ti; // sign leaks
            }
        }
    });
    public
}

/// Run the ablations at one threshold over a corpus.
fn sweep(images: &[PreparedImage], t: u16) -> AblationResult {
    let mut real = Vec::new();
    let mut dc_kept = Vec::new();
    let mut sign_leak = Vec::new();
    let mut opt_sizes = Vec::new();
    let mut def_sizes = Vec::new();
    for img in images {
        let original = coeffs_to_luma(&img.coeffs);
        let (public, secret, _) = split_coeffs(&img.coeffs, t).expect("split");
        real.push(psnr(&original, &coeffs_to_luma(&public)));
        dc_kept.push(psnr(&original, &coeffs_to_luma(&split_keep_dc(&img.coeffs, t))));
        sign_leak.push(psnr(&original, &coeffs_to_luma(&split_leak_sign(&img.coeffs, t))));

        let opt = encode_coeffs(&public, Mode::BaselineOptimized, 0).unwrap().len()
            + encode_coeffs(&secret, Mode::BaselineOptimized, 0).unwrap().len();
        let def = encode_coeffs(&public, Mode::Baseline, 0).unwrap().len()
            + encode_coeffs(&secret, Mode::Baseline, 0).unwrap().len();
        opt_sizes.push(opt as f64 / img.original_size as f64);
        def_sizes.push(def as f64 / img.original_size as f64);
    }
    AblationResult {
        t,
        public_psnr: mean_std(&real).0,
        public_psnr_dc_kept: mean_std(&dc_kept).0,
        public_psnr_sign_leak: mean_std(&sign_leak).0,
        combined_optimized: mean_std(&opt_sizes).0,
        combined_default: mean_std(&def_sizes).0,
    }
}

/// Run and print.
pub fn run(scale: Scale) -> Vec<Table> {
    let images = prepare(p3_datasets::usc_sipi_like(scale.usc_count(), 1));
    let results: Vec<AblationResult> = [10u16, 20].iter().map(|&t| sweep(&images, t)).collect();
    let mut table = Table::new(
        "Ablations: public PSNR (dB) under design variants; combined size ratio by table choice",
        &["T", "P3 public", "DC kept", "sign leaked", "size (opt)", "size (Annex-K)"],
    );
    for r in &results {
        table.row(vec![
            r.t.to_string(),
            f1(r.public_psnr),
            f1(r.public_psnr_dc_kept),
            f1(r.public_psnr_sign_leak),
            f3(r.combined_optimized),
            f3(r.combined_default),
        ]);
    }
    table.emit("tbl_ablations");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_choices_matter() {
        let images = prepare(p3_datasets::usc_sipi_like(3, 1));
        let r = sweep(&images, 10);
        // Keeping DC public leaks a lot of signal.
        assert!(
            r.public_psnr_dc_kept > r.public_psnr + 3.0,
            "dc-kept {:.1} vs real {:.1}",
            r.public_psnr_dc_kept,
            r.public_psnr
        );
        // Leaking signs helps the attacker too (higher public fidelity).
        assert!(r.public_psnr_sign_leak >= r.public_psnr);
        // Optimized tables beat Annex-K on storage.
        assert!(r.combined_optimized < r.combined_default);
    }
}

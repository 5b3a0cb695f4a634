//! §5.3 "Reconstruction Accuracy" — the three headline numbers.
//!
//! Paper: "Most images in the USC-SIPI dataset can be reconstructed,
//! when the transformations are known a priori, with an average PSNR of
//! 49.2dB. […] Our methodology is fairly successful, resulting in
//! images with PSNR of 34.4dB for Facebook and 39.8dB for Flickr."
//!
//! * **Known transforms** — Eq. 2 with the exact pipeline; the only
//!   error sources are JPEG rounding of the correction term.
//! * **Facebook/Flickr** — the PSP applies its *hidden* pipeline; the
//!   recipient reverse-engineers it by exhaustive search (`p3-psp::reverse`)
//!   and reconstructs with the estimate.

use crate::experiments::common::{prepare, split_encoded, PreparedImage};
use crate::util::{f1, mean_std, Scale, Table};
use p3_core::pixel::rgb_to_luma;
use p3_core::reconstruct::reconstruct_processed;
use p3_core::transform::TransformSpec;
use p3_psp::{reverse_engineer, PspCore, PspProfile, SizeRequest};
use p3_vision::metrics::psnr;

const T: u16 = 15;

/// The rung the PSP serves: the small one, which every corpus photo is
/// larger than, so the PSP resizes and the search has a filter to find.
const RUNG: SizeRequest = SizeRequest::Small;

fn known_transform_psnr(images: &[PreparedImage]) -> f64 {
    let mut values = Vec::new();
    for img in images {
        let (_, _, public, secret) = split_encoded(img, T);
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).expect("decode");
        let rec = reconstruct_processed(&public_rgb, &secret, T, &TransformSpec::identity())
            .expect("reconstruct");
        let reference = p3_jpeg::decoder::coeffs_to_rgb(&img.coeffs).expect("decode");
        values.push(psnr(&rgb_to_luma(&reference), &rgb_to_luma(&rec)));
    }
    mean_std(&values).0
}

fn psp_profile_psnr(images: &[PreparedImage], profile: PspProfile) -> (f64, f64) {
    let psp = PspCore::new(profile.clone());
    let mut rec_values = Vec::new();
    let mut pub_values = Vec::new();
    for img in images {
        let (public_jpeg, _, _, secret) = split_encoded(img, T);
        let uploaded_public = p3_jpeg::decode_to_rgb(&public_jpeg).expect("decode");
        let id = psp.upload(&public_jpeg).expect("PSP accepts public part");
        let served_jpeg = psp.fetch(id, RUNG).expect("served");
        let served = p3_jpeg::decode_to_rgb(&served_jpeg).expect("decode served");

        // Recipient: estimate the hidden pipeline from (uploaded, served).
        let report = reverse_engineer(&uploaded_public, &served);
        let rec = reconstruct_processed(&served, &secret, T, &report.spec).expect("reconstruct");

        // Reference: the original pushed through the PSP's *true* hidden
        // pipeline (what a non-P3 user would have received).
        let side = profile.ladder_side(RUNG).expect("ladder has the rung");
        let truth = profile.transform_to_side(img.rgb.width, img.rgb.height, side);
        let reference =
            truth.apply_rgb(&p3_jpeg::decoder::coeffs_to_rgb(&img.coeffs).expect("decode"));
        assert_eq!((reference.width, reference.height), (rec.width, rec.height));
        rec_values.push(psnr(&rgb_to_luma(&reference), &rgb_to_luma(&rec)));
        pub_values.push(psnr(&rgb_to_luma(&reference), &rgb_to_luma(&served)));
    }
    (mean_std(&rec_values).0, mean_std(&pub_values).0)
}

/// Run the reconstruction-accuracy experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let usc = prepare(p3_datasets::usc_sipi_like(scale.usc_count().min(12), 1));
    let known_db = known_transform_psnr(&usc);
    let (facebook_db, public_only_db) = psp_profile_psnr(&usc, PspProfile::facebook());
    let (flickr_db, _) = psp_profile_psnr(&usc, PspProfile::flickr());

    let mut table = Table::new(
        "Reconstruction accuracy (PSNR dB, luma) — paper: 49.2 / 34.4 / 39.8",
        &["setting", "measured dB", "paper dB"],
    );
    table.row(vec!["known transforms".into(), f1(known_db), "49.2".into()]);
    table.row(vec!["facebook (reverse-engineered)".into(), f1(facebook_db), "34.4".into()]);
    table.row(vec!["flickr (reverse-engineered)".into(), f1(flickr_db), "39.8".into()]);
    table.row(vec!["public part alone (context)".into(), f1(public_only_db), "—".into()]);
    table.emit("tbl_reconstruction");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_transforms_are_near_lossless() {
        let usc = prepare(p3_datasets::usc_sipi_like(2, 1));
        let db = known_transform_psnr(&usc);
        assert!(db > 40.0, "known-transform reconstruction {db:.1} dB");
    }

    #[test]
    fn reverse_engineered_beats_public_alone() {
        let usc = prepare(p3_datasets::usc_sipi_like(2, 1));
        let (rec, public) = psp_profile_psnr(&usc, PspProfile::flickr());
        assert!(rec > 25.0, "reconstruction {rec:.1} dB too low");
        assert!(rec > public + 8.0, "reconstruction {rec:.1} vs public alone {public:.1}");
    }

    /// A rung served at the upload's own size was never resized, and its
    /// reverse search has no filter to tell apart.
    #[test]
    fn the_measured_rung_is_resized() {
        let usc = prepare(p3_datasets::usc_sipi_like(2, 1));
        for profile in [PspProfile::facebook(), PspProfile::flickr()] {
            let psp = PspCore::new(profile);
            for img in &usc {
                let (public_jpeg, ..) = split_encoded(img, T);
                let id = psp.upload(&public_jpeg).unwrap();
                let served = p3_jpeg::marker::summarize(&psp.fetch(id, RUNG).unwrap()).unwrap();
                let upload = (img.rgb.width, img.rgb.height);
                assert_ne!((served.width, served.height), upload, "{}", psp.profile().name);
            }
        }
    }
}

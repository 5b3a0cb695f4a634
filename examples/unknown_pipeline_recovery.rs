//! Reverse-engineering a PSP's hidden pipeline (paper §4.1) and
//! reconstructing through it (Eq. 2).
//!
//! The PSP resizes with a filter and sharpening the client cannot see. The recipient proxy searches candidate pipelines against the
//! served image, then applies the winner to the secret delta.
//!
//! ```text
//! cargo run --release --example unknown_pipeline_recovery
//! ```

use p3_core::pixel::rgb_to_luma;
use p3_core::reconstruct::reconstruct_processed;
use p3_core::split::split_coeffs;
use p3_datasets::synth::{scene, SceneParams};
use p3_jpeg::encoder::{encode_coeffs, pixels_to_coeffs, Mode, Subsampling};
use p3_psp::{reverse_engineer, PspCore, PspProfile, SizeRequest};
use p3_vision::metrics::psnr;

fn main() {
    let photo = scene(21, 1200, 900, &SceneParams::default());
    let coeffs = pixels_to_coeffs(&photo, 90, Subsampling::S420).expect("encode");
    let (public, secret, _) = split_coeffs(&coeffs, 15).expect("split");
    let public_jpeg = encode_coeffs(&public, Mode::BaselineOptimized, 0).expect("encode");

    for profile in [PspProfile::facebook(), PspProfile::flickr()] {
        println!("--- {} profile ---", profile.name);
        println!(
            "hidden pipeline: filter {:?}, sharpen {:?}, quality {}, {:?}",
            profile.filter, profile.sharpen, profile.quality, profile.output_mode
        );
        let psp = PspCore::new(profile.clone());
        let id = psp.upload(&public_jpeg).expect("upload");
        let served_jpeg = psp.fetch(id, SizeRequest::Big).expect("fetch");
        let served = p3_jpeg::decode_to_rgb(&served_jpeg).expect("decode");
        let summary = p3_jpeg::marker::summarize(&served_jpeg).expect("summarize");
        println!(
            "served: {}x{}, progressive={}, {} bytes",
            summary.width,
            summary.height,
            summary.progressive,
            served_jpeg.len()
        );

        // The proxy only knows what it uploaded and what came back.
        let uploaded = p3_jpeg::decode_to_rgb(&public_jpeg).expect("decode");
        let report = reverse_engineer(&uploaded, &served);
        println!(
            "search over {} candidates -> filter {:?}, sharpen {:?} (match {:.1} dB)",
            report.candidates, report.spec.filter, report.spec.sharpen, report.match_psnr
        );

        // Reconstruct with the estimated pipeline.
        let rec = reconstruct_processed(&served, &secret, 15, &report.spec).expect("reconstruct");

        // Reference: the original through the true hidden pipeline.
        let truth = profile.transform_to_side(photo.width, photo.height, profile.ladder[0]);
        let reference = truth.apply_rgb(&p3_jpeg::decoder::coeffs_to_rgb(&coeffs).unwrap());

        let rec_db = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&rec));
        let pub_db = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&served));
        println!(
            "reconstruction: {rec_db:.1} dB (public part alone: {pub_db:.1} dB)  [paper: 34.4 dB facebook / 39.8 dB flickr]\n"
        );
    }
}

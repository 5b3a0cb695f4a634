//! The proxy's planar view (`reconstruct_view`) against the RGB tail it
//! replaced (`decode_to_rgb` → `reconstruct_processed` → a 4:4:4
//! `encode_rgb`), on the synthetic corpus through both shipping PSP
//! profiles: every named rung, plus a `?fit=` and a `?crop=`. Each view
//! is held against the PSP's rendition of the *unsplit* original, and
//! for every rung type the planar view's mean PSNR must be at least the
//! RGB tail's. Both, and the mean bytes of each view, are printed
//! (`cargo test --release --test view_quality -- --nocapture`).

use p3_core::reconstruct::{reconstruct_processed, reconstruct_view};
use p3_core::{P3Codec, P3Config, TransformSpec};
use p3_jpeg::image::RgbImage;
use p3_psp::{PspCore, PspProfile, SizeRequest};

/// The re-encode quality the system tests and the CLI's proxy run at.
const QUALITY: u8 = p3_net::proxy::REENCODE_QUALITY;
const THRESHOLD: u16 = 15;

fn psnr(a: &RgbImage, b: &RgbImage) -> f64 {
    assert_eq!((a.width, a.height), (b.width, b.height));
    let sum: f64 =
        a.data.iter().zip(&b.data).map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2)).sum();
    let mse = sum / a.data.len() as f64;
    10.0 * (255.0 * 255.0 / mse.max(1e-12)).log10()
}

/// One rung type's running sums: PSNR and bytes of each tail, and views.
#[derive(Default)]
struct Tally {
    planar_db: f64,
    rgb_db: f64,
    planar_bytes: usize,
    rgb_bytes: usize,
    views: usize,
}

#[test]
fn planar_view_is_no_worse_than_the_rgb_tail_on_any_rung_type() {
    let corpus = p3_datasets::corpus::usc_sipi_like(4, 34);
    let codec = P3Codec::new(P3Config { threshold: THRESHOLD });
    // `?fit=` and `?crop=` are rendered from the ceiling rendition, which
    // under `facebook()` is already sharpened once: that `A` is no
    // `TransformSpec`. `flickr()`'s ceiling (1 024) is the identity on
    // this corpus, so its dynamic views have an exact one.
    let cases = [
        (PspProfile::facebook(), vec![SizeRequest::Big, SizeRequest::Small, SizeRequest::Thumb]),
        (
            PspProfile::flickr(),
            vec![
                SizeRequest::Big,
                SizeRequest::Small,
                SizeRequest::Thumb,
                SizeRequest::Fit(200, 150),
                SizeRequest::Crop(24, 40, 150, 101),
            ],
        ),
    ];
    let mut tallies: Vec<(String, Tally)> = Vec::new();
    for (profile, requests) in &cases {
        let psp = PspCore::new(profile.clone());
        for photo in &corpus {
            let original = p3_jpeg::Encoder::new().quality(90).encode_rgb(&photo.image).unwrap();
            let (public, container, _) = codec.split_jpeg(&original).unwrap();
            let (secret, _) = p3_jpeg::decode_to_coeffs(&container.jpeg).unwrap();
            let (w, h) = (photo.image.width, photo.image.height);
            let (original_id, public_id) =
                (psp.upload(&original).unwrap(), psp.upload(&public).unwrap());
            for &request in requests {
                let transform = match request {
                    SizeRequest::Fit(fw, fh) => {
                        profile.transform_to_side(w, h, usize::from(fw.max(fh)))
                    }
                    SizeRequest::Crop(x, y, cw, ch) => TransformSpec {
                        crop: Some((x.into(), y.into(), cw.into(), ch.into())),
                        ..TransformSpec::identity()
                    },
                    named => profile.transform_to_side(w, h, profile.ladder_side(named).unwrap()),
                };
                let reference = psp.fetch(original_id, request).unwrap();
                let reference = p3_jpeg::decode_to_rgb(&reference).unwrap();
                let served = psp.fetch(public_id, request).unwrap();

                let planar =
                    reconstruct_view(&served, &container.jpeg, THRESHOLD, |_| transform, QUALITY)
                        .unwrap();
                let served_rgb = p3_jpeg::decode_to_rgb(&served).unwrap();
                let rgb =
                    reconstruct_processed(&served_rgb, &secret, THRESHOLD, &transform).unwrap();
                let rgb = p3_jpeg::Encoder::new()
                    .quality(QUALITY)
                    .subsampling(p3_jpeg::Subsampling::S444)
                    .encode_rgb(&rgb)
                    .unwrap();

                let name = format!("{} {request:?}", profile.name);
                let at = match tallies.iter().position(|(n, _)| *n == name) {
                    Some(at) => at,
                    None => {
                        tallies.push((name, Tally::default()));
                        tallies.len() - 1
                    }
                };
                let tally = &mut tallies[at].1;
                tally.planar_db += psnr(&p3_jpeg::decode_to_rgb(&planar).unwrap(), &reference);
                tally.rgb_db += psnr(&p3_jpeg::decode_to_rgb(&rgb).unwrap(), &reference);
                tally.planar_bytes += planar.len();
                tally.rgb_bytes += rgb.len();
                tally.views += 1;
            }
        }
    }
    println!("rung type: mean PSNR planar / RGB (dB), mean bytes planar / RGB");
    let mut worse = Vec::new();
    for (name, t) in &tallies {
        let n = t.views as f64;
        let (planar, rgb) = (t.planar_db / n, t.rgb_db / n);
        println!(
            "{name:<44} {planar:6.2} / {rgb:6.2}   {:7.0} / {:7.0}",
            t.planar_bytes as f64 / n,
            t.rgb_bytes as f64 / n
        );
        if planar < rgb {
            worse.push(format!("{name}: {planar:.2} dB planar < {rgb:.2} dB RGB"));
        }
    }
    assert!(worse.is_empty(), "the planar view lost on {worse:?}");
}

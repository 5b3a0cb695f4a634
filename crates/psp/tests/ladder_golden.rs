//! Golden hashes of every static-ladder rung the stock profiles build,
//! and of a dynamic fit and crop of each photo.
//!
//! The rendition bytes are the exact `A` of paper Eq. 2: the proxy's
//! reconstruction, `reverse.rs` and the benchmark's oracle all assume
//! them, so work on the resize / rounding kernels must not move one
//! byte. The hashes were generated from the commit before `resize`
//! moved onto cached tap tables (`P3_PRINT_GOLDEN=1 cargo test -p p3-psp
//! --test ladder_golden -- --nocapture` prints the table).

use p3_datasets::synth::{scene, SceneParams};
use p3_psp::{PspCore, PspProfile, SizeRequest};
use p3_storage::ring::fnv1a;

/// Photo sizes chosen so that every rung of both ladders (1024 … 75) is
/// a real resize of at least one photo and a pass-through of another.
const PHOTOS: [(u64, usize, usize); 3] = [(11, 320, 240), (12, 600, 800), (13, 1100, 824)];

/// `(profile, rung side, [hash per photo])`.
const GOLDEN: [(&str, usize, [u64; 3]); 7] = [
    ("facebook", 720, [0xc8b43970124e1243, 0xb825c48efc171936, 0xcdc5d1f9f351491d]),
    ("facebook", 130, [0x2d10cf09363858c1, 0xd3236f6cb2f76063, 0xe0d7039a019d96fd]),
    ("facebook", 75, [0x45ec5573f17cda30, 0xbb95ef1cf90a9565, 0xbf179f994f55b74d]),
    ("flickr", 1024, [0xdfdd24915f83c6cf, 0x2168d0a88fd615c5, 0x5cc1a8bc862bbf9f]),
    ("flickr", 500, [0xdfdd24915f83c6cf, 0x7b2e5c183eb0d533, 0xc2d7754f5a2dfaf6]),
    ("flickr", 240, [0x2e65cffa4d6525c1, 0x0aa74eaa68ca6d17, 0xb906946586b6ac0d]),
    ("flickr", 75, [0x995be76861cd1ddc, 0xe66aa4c1a2153734, 0x1befd77e0e5ffc4d]),
];

/// `(profile, [hash of ?fit=200x150, hash of ?crop=16,24,160,120] per photo)`.
const GOLDEN_DYNAMIC: [(&str, [[u64; 2]; 3]); 2] = [
    (
        "facebook",
        [
            [0x21ec17f8a9790697, 0x3bb0b5dc78c5946e],
            [0x414ee9fbc04665f8, 0x9680df5fe8c1186a],
            [0x34d514ca391b054f, 0x4d5996c3b7e8a44c],
        ],
    ),
    (
        "flickr",
        [
            [0x1a5167b00d475874, 0x7a22454b50b68731],
            [0x8e314de4f19a732d, 0xaa4633d8f818984d],
            [0xcb89a5b91ed51855, 0xcdebf22cce9232a4],
        ],
    ),
];

fn uploads() -> Vec<Vec<u8>> {
    PHOTOS
        .iter()
        .map(|&(seed, w, h)| {
            let rgb = scene(seed, w, h, &SceneParams::default());
            p3_jpeg::Encoder::new().quality(90).encode_rgb(&rgb).expect("encode upload")
        })
        .collect()
}

#[test]
fn dynamic_renditions_are_byte_identical_to_golden() {
    let print = std::env::var_os("P3_PRINT_GOLDEN").is_some();
    for (profile, want) in
        [PspProfile::facebook(), PspProfile::flickr()].into_iter().zip(GOLDEN_DYNAMIC)
    {
        let psp = PspCore::new(profile.clone());
        let got: Vec<[u64; 2]> = uploads()
            .iter()
            .map(|jpeg| {
                let id = psp.upload(jpeg).expect("upload");
                [SizeRequest::Fit(200, 150), SizeRequest::Crop(16, 24, 160, 120)]
                    .map(|req| fnv1a(&psp.fetch(id, req).expect("rendition")))
            })
            .collect();
        if print {
            println!("    (\"{}\", {got:#018x?}),", profile.name);
        } else {
            assert_eq!((profile.name, got.as_slice()), (want.0, want.1.as_slice()));
        }
    }
}

#[test]
fn every_ladder_rung_is_byte_identical_to_golden() {
    let uploads = uploads();
    let print = std::env::var_os("P3_PRINT_GOLDEN").is_some();
    let mut rungs = 0;
    for profile in [PspProfile::facebook(), PspProfile::flickr()] {
        for &side in &profile.ladder {
            // One-rung ladder: `Full` then serves exactly the rendition
            // the stock ladder builds for `side` (each rung is resized
            // from the upload, never from another rung).
            let psp = PspCore::new(PspProfile { ladder: vec![side], ..profile.clone() });
            let got: Vec<u64> = uploads
                .iter()
                .map(|jpeg| {
                    let id = psp.upload(jpeg).expect("upload");
                    fnv1a(&psp.fetch(id, SizeRequest::Full).expect("rendition"))
                })
                .collect();
            if print {
                println!(
                    "    (\"{}\", {side}, [{:#018x}, {:#018x}, {:#018x}]),",
                    profile.name, got[0], got[1], got[2]
                );
                continue;
            }
            let want = GOLDEN
                .iter()
                .find(|(name, s, _)| *name == profile.name && *s == side)
                .unwrap_or_else(|| panic!("no golden for {} {side}", profile.name));
            assert_eq!(got, want.2, "{} rung {side} changed", profile.name);
            rungs += 1;
        }
    }
    assert!(print || rungs == GOLDEN.len());
}

/// Every golden a stock provider can be asked for after uploading photo
/// `k`: the named rungs (`GOLDEN`) and the two dynamic requests
/// (`GOLDEN_DYNAMIC`).
fn assert_stock_golden(psp: &PspCore, id: u64, k: usize) {
    let profile = psp.profile();
    for req in [SizeRequest::Big, SizeRequest::Small, SizeRequest::Thumb] {
        let side = profile.ladder_side(req).expect("named rung");
        let want = GOLDEN.iter().find(|g| g.0 == profile.name && g.1 == side).expect("golden").2[k];
        let got = fnv1a(&psp.fetch(id, req).expect("rendition"));
        assert_eq!(got, want, "{} photo {k} rung {side}", profile.name);
    }
    let want = GOLDEN_DYNAMIC.iter().find(|g| g.0 == profile.name).expect("golden").1[k];
    let got = [SizeRequest::Fit(200, 150), SizeRequest::Crop(16, 24, 160, 120)]
        .map(|req| fnv1a(&psp.fetch(id, req).expect("rendition")));
    assert_eq!(got, want, "{} photo {k} dynamic", profile.name);
}

/// Big, small, big through one provider: its pooled scratch is dirty
/// from, and larger than, what the next photo needs (and the 1100x824
/// one outgrows what the pool keeps), and not one sample may leak.
#[test]
fn one_provider_serves_golden_bytes_whatever_it_served_before() {
    let uploads = uploads();
    for profile in [PspProfile::facebook(), PspProfile::flickr()] {
        let psp = PspCore::new(profile);
        for k in [1, 0, 1, 2, 0] {
            let id = psp.upload(&uploads[k]).expect("upload");
            assert_stock_golden(&psp, id, k);
        }
    }
}

/// The same uploads from four threads at once, each through whichever
/// scratch the pool hands it.
#[test]
fn concurrent_uploads_serve_golden_bytes() {
    let uploads = uploads();
    let psp = PspCore::new(PspProfile::facebook());
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (psp, uploads, start) = (&psp, &uploads, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..uploads.len() {
                    let k = (t + i) % uploads.len();
                    let id = psp.upload(&uploads[k]).expect("upload");
                    assert_stock_golden(psp, id, k);
                }
            });
        }
    });
    assert_eq!(psp.photo_count(), 12);
}

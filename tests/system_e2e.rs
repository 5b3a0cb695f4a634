//! End-to-end system tests: client ↔ trusted proxy ↔ PSP + storage over
//! live TCP on loopback (paper Figure 3).
//!
//! Honors the repo-wide `P3_SCALE` switch: the default quick scale halves
//! every photo dimension (quarter the pixels) so this TCP suite stays a
//! small fraction of `cargo test -q`; `P3_SCALE=full` restores the
//! original paper-sized photos.

use p3_core::pipeline::{P3Codec, P3Config};
use p3_core::pixel::rgb_to_luma;
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig};
use p3_net::{http_get, http_post};
use p3_psp::{PspProfile, PspService};
use p3_storage::{FaultBackend, MemBackend, StorageCore, StorageService};
use p3_vision::metrics::psnr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct System {
    psp: PspService,
    storage: StorageService,
    proxy: P3Proxy,
}

fn spawn_system(profile: PspProfile, threshold: u16) -> System {
    spawn_system_over(StorageService::spawn().expect("storage"), profile, threshold)
}

fn spawn_system_over(storage: StorageService, profile: PspProfile, threshold: u16) -> System {
    let psp = PspService::spawn(profile).expect("psp");
    let proxy = P3Proxy::spawn(ProxyConfig {
        psp_addr: psp.addr(),
        storage_addr: storage.addr(),
        master_key: b"test master key".to_vec(),
        codec: P3Codec::new(P3Config { threshold, ..Default::default() }),
        estimator: default_estimator(),
        reencode_quality: 95,
        secret_cache_capacity: p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY,
        cache_shards: p3_net::proxy::DEFAULT_CACHE_SHARDS,
        server: p3_net::ServerConfig::default(),
    })
    .expect("proxy");
    System { psp, storage, proxy }
}

/// Scale a test geometry value by the `P3_SCALE` setting: halved at the
/// default quick scale, verbatim under `P3_SCALE=full` (parsing shared
/// with the experiment harness so the two can't drift).
fn sc(v: usize) -> usize {
    match p3_bench::util::Scale::from_env() {
        p3_bench::util::Scale::Full => v,
        p3_bench::util::Scale::Quick => v / 2,
    }
}

fn photo(seed: u64, w: usize, h: usize) -> (p3_jpeg::RgbImage, Vec<u8>) {
    let img = p3_datasets::synth::scene(seed, w, h, &p3_datasets::synth::SceneParams::default());
    let jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode");
    (img, jpeg)
}

#[test]
fn upload_download_roundtrip_through_proxy() {
    let sys = spawn_system(PspProfile::facebook(), 15);
    let (original, jpeg) = photo(5, sc(480), sc(360));

    // Upload through the proxy.
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    assert!(resp.status.is_success(), "{:?}", resp.status);
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    assert!(!id.is_empty());

    // A secret blob landed in storage under that id.
    assert_eq!(sys.storage.core().len(), 1);
    assert!(sys.storage.core().get(&id).expect("storage get").is_some());

    // The PSP itself only has the degraded public part.
    let direct = http_get(sys.psp.addr(), &format!("/photos/{id}?size=big")).expect("direct");
    let psp_view = p3_jpeg::decode_to_rgb(&direct.body).expect("decode");
    // Reference: plain resize of the original to the same dims.
    let ch = p3_core::pixel::rgb_to_channels(&original);
    let spec = p3_core::transform::TransformSpec::resize(
        psp_view.width,
        psp_view.height,
        p3_vision::resize::ResizeFilter::Triangle,
    );
    let reference = p3_core::pixel::channels_to_rgb(&[
        spec.apply(&ch[0]),
        spec.apply(&ch[1]),
        spec.apply(&ch[2]),
    ]);
    let psp_psnr = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&psp_view));
    assert!(psp_psnr < 20.0, "PSP sees too much: {psp_psnr:.1} dB");

    // Download through the proxy: reconstructed.
    let resp = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=big")).expect("download");
    assert!(resp.status.is_success());
    let rec = p3_jpeg::decode_to_rgb(&resp.body).expect("decode");
    assert_eq!((rec.width, rec.height), (psp_view.width, psp_view.height));
    let rec_psnr = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&rec));
    assert!(
        rec_psnr > psp_psnr + 8.0,
        "reconstruction {rec_psnr:.1} dB vs PSP view {psp_psnr:.1} dB"
    );

    assert_eq!(sys.proxy.stats().uploads_split.load(Ordering::Relaxed), 1);
    assert_eq!(sys.proxy.stats().downloads_reconstructed.load(Ordering::Relaxed), 1);
}

#[test]
fn secret_cache_hits_on_second_download() {
    let sys = spawn_system(PspProfile::facebook(), 15);
    let (_, jpeg) = photo(6, sc(320), sc(240));
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();

    // Thumbnail then big image: the paper's motivating reuse case.
    let r1 = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=thumb")).expect("d1");
    assert!(r1.status.is_success());
    let r2 = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=big")).expect("d2");
    assert!(r2.status.is_success());
    assert_eq!(sys.proxy.stats().cache_hits.load(Ordering::Relaxed), 1);
}

#[test]
fn non_p3_photos_pass_through() {
    let sys = spawn_system(PspProfile::facebook(), 15);
    // Upload directly to the PSP (bypassing the proxy) — no secret part.
    let (_, jpeg) = photo(7, sc(200), sc(150));
    let resp = http_post(sys.psp.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();

    // Download through the proxy: passthrough, still a valid image.
    let resp = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=small")).expect("download");
    assert!(resp.status.is_success());
    assert!(p3_jpeg::decode_to_rgb(&resp.body).is_ok());
    assert_eq!(sys.proxy.stats().downloads_passthrough.load(Ordering::Relaxed), 1);
    assert_eq!(sys.proxy.stats().downloads_reconstructed.load(Ordering::Relaxed), 0);

    // A photo the PSP never saw: its 404 is forwarded as it is.
    let miss = http_get(sys.proxy.addr(), "/photos/999999999?size=small").expect("forward");
    assert_eq!(miss.status.0, 404, "unknown photo must 404 through the proxy");
    assert_eq!(sys.proxy.stats().downloads_passthrough.load(Ordering::Relaxed), 1);
}

/// `jpeg` with bytes of its first frame header overwritten, `at` counted
/// from the marker: marker(2) length(2) precision(1) height(2) width(2).
fn with_frame_header(jpeg: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let sof = jpeg.windows(2).position(|m| m == [0xFF, p3_jpeg::marker::SOF0]).expect("SOF0");
    let mut out = jpeg.to_vec();
    out[sof + at..sof + at + bytes.len()].copy_from_slice(bytes);
    out
}

#[test]
fn jpeg_upload_that_does_not_split_is_refused_not_forwarded_in_the_clear() {
    let sys = spawn_system(PspProfile::facebook(), 15);
    let (_, jpeg) = photo(21, 64, 64);
    // A 12-bit frame is legal JPEG this codec cannot split; a proxy that
    // forwards what it cannot split publishes the photo whole.
    let deep = with_frame_header(&jpeg, 4, &[12]);
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", deep).expect("answer");
    assert_eq!(resp.status.0, 422, "{}", String::from_utf8_lossy(&resp.body));
    assert!(String::from_utf8_lossy(&resp.body).contains("12-bit"), "the reason is named");
    // Neither can a proxy configured with no threshold.
    let unset = spawn_system(PspProfile::facebook(), 0);
    let resp =
        http_post(unset.proxy.addr(), "/photos", "image/jpeg", jpeg.clone()).expect("answer");
    assert_eq!(resp.status.0, 422);
    for sys in [&sys, &unset] {
        assert_eq!(sys.psp.core().photo_count(), 0, "the PSP saw the un-split upload");
        assert_eq!(sys.storage.core().len(), 0);
    }
    // What is not offered as a JPEG photo is none of the proxy's
    // business and still passes through.
    let resp = http_post(sys.proxy.addr(), "/photos", "application/octet-stream", jpeg)
        .expect("passthrough");
    assert!(resp.status.is_success());
    assert_eq!(sys.psp.core().photo_count(), 1);
    assert_eq!(sys.proxy.stats().uploads_split.load(Ordering::Relaxed), 0);
}

#[test]
fn oversized_frame_header_is_refused_by_the_proxy_before_it_allocates_for_it() {
    let sys = spawn_system(PspProfile::facebook(), 15);
    let (_, jpeg) = photo(22, 64, 64);
    // 60 000 x 60 000 is a 21 GB coefficient image to a decoder that
    // believes the header — here the trusted side's.
    let side = 60_000u16.to_be_bytes();
    let bomb = with_frame_header(&jpeg, 5, &[side, side].concat());
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", bomb).expect("answer");
    assert_eq!(resp.status.0, 413, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(sys.psp.core().photo_count(), 0);
    assert_eq!(sys.storage.core().len(), 0);
}

#[test]
fn tampered_storage_fails_closed() {
    let provider = Arc::new(FaultBackend::new(Arc::new(MemBackend::new())));
    let core = Arc::new(StorageCore::with_backend(Arc::clone(&provider) as Arc<_>));
    let storage = StorageService::spawn_with(core).expect("storage");
    let sys = spawn_system_over(storage, PspProfile::facebook(), 15);
    let (_, jpeg) = photo(8, sc(320), sc(240));
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();

    provider.tamper(true);
    let resp = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=big")).expect("download");
    // The proxy must not serve a silently-corrupted reconstruction.
    assert!(!resp.status.is_success(), "tampered blob accepted: {:?}", resp.status);
}

#[test]
fn dynamic_crop_reconstructs_through_proxy() {
    let sys = spawn_system(PspProfile::facebook(), 15);
    // Smaller than the 720 cap so the stored ceiling keeps original
    // coordinates and the URL crop geometry is exact.
    let (original, jpeg) = photo(12, sc(400), sc(300));
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();

    let (cx, cy, cw, ch_) = (sc(48), sc(32), sc(160), sc(120));
    let resp = http_get(sys.proxy.addr(), &format!("/photos/{id}?crop={cx},{cy},{cw},{ch_}"))
        .expect("download");
    assert!(resp.status.is_success(), "{:?}", resp.status);
    let rec = p3_jpeg::decode_to_rgb(&resp.body).expect("decode");
    assert_eq!((rec.width, rec.height), (cw, ch_));

    // Reference: the same crop of the original.
    let ch = p3_core::pixel::rgb_to_channels(&original);
    let spec = p3_core::transform::TransformSpec {
        crop: Some((cx, cy, cw, ch_)),
        ..p3_core::transform::TransformSpec::identity()
    };
    let reference = p3_core::pixel::channels_to_rgb(&[
        spec.apply(&ch[0]),
        spec.apply(&ch[1]),
        spec.apply(&ch[2]),
    ]);
    let db = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&rec));
    assert!(db > 30.0, "cropped reconstruction {db:.1} dB");
}

#[test]
fn flickr_profile_works_too() {
    let sys = spawn_system(PspProfile::flickr(), 10);
    let (_, jpeg) = photo(9, sc(600), sc(450));
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    assert!(resp.status.is_success());
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    let resp = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=small")).expect("download");
    assert!(resp.status.is_success());
    let img = p3_jpeg::decode_to_rgb(&resp.body).expect("decode");
    assert!(img.width.max(img.height) <= 500);
}

/// The §4.2 video pipeline served end to end: a split clip's GOPs
/// stream through the proxy as ranged (206-backed) storage reads, and
/// the first GOP is playable long before the whole file moved.
#[test]
fn video_gops_stream_through_proxy_with_ranged_reads() {
    use p3_video::codec::test_clip;
    use p3_video::{GopCodec, VideoCodecParams, VideoStream};

    let sys = spawn_system(PspProfile::facebook(), 15);
    let params = VideoCodecParams { gop: 6, ..Default::default() };
    let frames = 18; // three GOPs
    let clip = test_clip(11, 64, 48, frames);
    let stream = GopCodec::new(params).encode(&clip).expect("encode clip");
    let clip_bytes = stream.to_bytes();

    // Upload: split + three blobs stored behind one content-derived id.
    let up =
        http_post(sys.proxy.addr(), "/videos", "video/p3v", clip_bytes.clone()).expect("upload");
    assert_eq!(up.status.0, 201, "upload failed: {:?}", up.status);
    let id = String::from_utf8_lossy(&up.body).trim().to_string();
    let gops: usize = up.headers.get("x-p3-video-gops").unwrap().parse().unwrap();
    assert_eq!(gops, 3);

    // Every GOP arrives as a playable fragment via a partial fetch, and
    // together they tile the whole clip.
    let mut tiled = 0usize;
    for k in 0..gops {
        let resp = http_get(sys.proxy.addr(), &format!("/videos/{id}?gop={k}")).expect("gop fetch");
        assert!(resp.status.is_success(), "gop {k} failed: {:?}", resp.status);
        let ranged: usize = resp
            .headers
            .get("x-p3-range-bytes")
            .expect("gop response must report its ranged byte count")
            .parse()
            .unwrap();
        assert!(
            ranged < clip_bytes.len(),
            "gop {k} moved {ranged} bytes — not a partial fetch of {}",
            clip_bytes.len()
        );
        let fragment = VideoStream::from_bytes(&resp.body).expect("gop fragment parses");
        assert_eq!(fragment.frames.len(), 6, "gop {k} has the full GOP's frames");
        tiled += fragment.frames.len();
    }
    assert_eq!(tiled, frames, "the GOP fragments must tile the whole clip");

    // The full download still reconstructs every frame.
    let full = http_get(sys.proxy.addr(), &format!("/videos/{id}")).expect("full fetch");
    assert!(full.status.is_success());
    let restored = VideoStream::from_bytes(&full.body).expect("full clip parses");
    assert_eq!(restored.frames.len(), frames);

    // Error surfaces: unknown id → 404; non-P3V1 body → 400.
    let miss = http_get(sys.proxy.addr(), "/videos/feedfacefeed").expect("missing video");
    assert_eq!(miss.status.0, 404);
    let bad = http_post(sys.proxy.addr(), "/videos", "video/p3v", b"not a clip".to_vec())
        .expect("bad upload");
    assert_eq!(bad.status.0, 400);
}

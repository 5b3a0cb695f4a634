//! End-to-end system tests: client ↔ trusted proxy ↔ PSP + storage over
//! live TCP on loopback (paper Figure 3).
//!
//! Honors the repo-wide `P3_SCALE` switch: the default quick scale halves
//! every photo dimension (quarter the pixels) so this TCP suite stays a
//! small fraction of `cargo test -q`; `P3_SCALE=full` restores the
//! original paper-sized photos.

use p3_bench::stack::{Node, Stack, StackSpec, Storage};
use p3_core::pixel::rgb_to_luma;
use p3_jpeg::encoder::{encode_coeffs, Mode};
use p3_jpeg::marker::{SOF0, SOS};
use p3_jpeg::{CoeffImage, QuantTable};
use p3_net::{http_get, http_post};
use p3_psp::PspProfile;
use p3_storage::{BackendStats, MemBackend, StorageBackend, StorageError, StorageResult};
use p3_vision::metrics::psnr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
    let (original, jpeg) = photo(5, sc(480), sc(360));

    // Upload through the proxy.
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", jpeg).expect("upload");
    assert!(resp.status.is_success(), "{:?}", resp.status);
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    assert!(!id.is_empty());

    // A secret blob landed in storage under that id.
    assert_eq!(sys.nodes[0].core.len(), 1);
    assert!(sys.nodes[0].core.get(&id).expect("storage get").is_some());

    // The PSP itself only has the degraded public part.
    let direct = http_get(sys.psp.addr(), &format!("/photos/{id}?size=big")).expect("direct");
    let psp_view = p3_jpeg::decode_to_rgb(&direct.body).expect("decode");
    // Reference: plain resize of the original to the same dims.
    let reference = p3_core::transform::TransformSpec::resize(
        psp_view.width,
        psp_view.height,
        p3_vision::resize::ResizeFilter::Triangle,
    )
    .apply_rgb(&original);
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
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
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
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
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

/// `jpeg` with bytes of its first `marker` segment overwritten, `at`
/// counted from the marker. SOF0: marker(2) length(2) precision(1)
/// height(2) width(2) components(1), then `id, h/v, Tq` per component.
/// SOS: marker(2) length(2) components(1), then `id, Td/Ta` per component.
fn with_header(jpeg: &[u8], marker: u8, at: usize, bytes: &[u8]) -> Vec<u8> {
    let pos = jpeg.windows(2).position(|m| m == [0xFF, marker]).expect("marker");
    let mut out = jpeg.to_vec();
    out[pos + at..pos + at + bytes.len()].copy_from_slice(bytes);
    out
}

#[test]
fn jpeg_upload_that_does_not_split_is_refused_not_forwarded_in_the_clear() {
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
    let (_, jpeg) = photo(21, 64, 64);
    // A 12-bit frame is legal JPEG this codec cannot split; a proxy that
    // forwards what it cannot split publishes the photo whole.
    // Nor can it split a header naming a table id above 3 (these once
    // panicked the decoder: a 500 in place of a refusal).
    // Nor a legal upload whose secret part the format cannot carry (these
    // once stored a secret that never decodes again): a first AC scan at
    // Al = 13 decodes to |AC| far past the 15 bits an AC symbol can size,
    // and DCs that climb 2000 a block under DRI 4 fall 6000 where each
    // interval restarts, a difference the secret, coded without
    // restarts, cannot hold.
    let (coeffs, _) = p3_jpeg::decode_to_coeffs(&jpeg).expect("decode");
    let mut al13 = encode_coeffs(&coeffs, Mode::Progressive, 0).expect("progressive");
    let ac_scan = al13.windows(2).enumerate().filter(|(_, m)| *m == [0xFF, SOS]).nth(1);
    let ac_scan = ac_scan.expect("a first AC scan").0;
    al13[ac_scan + 9] = 0x0D; // Ah = 0, Al = 13
    let mut ramp = CoeffImage::zeroed(32, 16, vec![QuantTable::luma(90)], &[(1, 1)], &[0])
        .expect("coefficient image");
    for (i, b) in ramp.components[0].blocks.iter_mut().enumerate() {
        b[0] = 2000 * (i % 4) as i32;
    }
    let dri4 = encode_coeffs(&ramp, Mode::BaselineOptimized, 4).expect("DRI 4");
    let rows = [
        (with_header(&jpeg, SOF0, 4, &[12]), "12-bit"),
        (with_header(&jpeg, SOF0, 12, &[9]), "quant table"),
        (with_header(&jpeg, SOS, 6, &[0x50]), "Huffman table"),
        (al13, "out of range"),
        (dri4, "out of range"),
    ];
    for (bad, reason) in rows {
        let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", bad).expect("answer");
        let body = String::from_utf8_lossy(&resp.body);
        assert_eq!(resp.status.0, 422, "{reason}: {body}");
        assert!(body.contains(reason), "the reason is named: {body}");
    }
    // Neither can a proxy configured with no threshold.
    let unset = Stack::spawn(StackSpec { threshold: 0, ..StackSpec::default() }).expect("stack");
    let resp =
        http_post(unset.proxy.addr(), "/photos", "image/jpeg", jpeg.clone()).expect("answer");
    assert_eq!(resp.status.0, 422);
    for sys in [&sys, &unset] {
        assert_eq!(sys.psp.core().photo_count(), 0, "the PSP saw the un-split upload");
        assert_eq!(sys.nodes[0].core.len(), 0);
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
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
    let (_, jpeg) = photo(22, 64, 64);
    // 60 000 x 60 000 is a 21 GB coefficient image to a decoder that
    // believes the header — here the trusted side's.
    let side = 60_000u16.to_be_bytes();
    let bomb = with_header(&jpeg, SOF0, 5, &[side, side].concat());
    let resp = http_post(sys.proxy.addr(), "/photos", "image/jpeg", bomb).expect("answer");
    assert_eq!(resp.status.0, 413, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(sys.psp.core().photo_count(), 0);
    assert_eq!(sys.nodes[0].core.len(), 0);
}

#[test]
fn tampered_storage_fails_closed() {
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
    let provider = &sys.nodes[0].fault;
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
    let sys = Stack::spawn(StackSpec::default()).expect("stack");
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
    let spec = p3_core::transform::TransformSpec {
        crop: Some((cx, cy, cw, ch_)),
        ..p3_core::transform::TransformSpec::identity()
    };
    let reference = spec.apply_rgb(&original);
    let db = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&rec));
    assert!(db > 30.0, "cropped reconstruction {db:.1} dB");
}

#[test]
fn flickr_profile_works_too() {
    let sys = Stack::spawn(StackSpec {
        profile: PspProfile::flickr(),
        threshold: 10,
        ..StackSpec::default()
    })
    .expect("stack");
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

    let sys = Stack::spawn(StackSpec::default()).expect("stack");
    let params = VideoCodecParams { gop: 6, ..Default::default() };
    let frames = 18; // three GOPs
    let clip = test_clip(11, 64, 48, frames);
    let stream = GopCodec::new(params).encode(&clip).expect("encode clip");
    let clip_bytes = stream.to_bytes();

    // Upload: split, and two blobs (public and sealed secret stream)
    // stored behind one id that is not the clip's bare hash.
    let blobs_before = sys.nodes[0].core.len();
    let up =
        http_post(sys.proxy.addr(), "/videos", "video/p3v", clip_bytes.clone()).expect("upload");
    assert_eq!(up.status.0, 201, "upload failed: {:?}", up.status);
    let id = String::from_utf8_lossy(&up.body).trim().to_string();
    let gops: usize = up.headers.get("x-p3-video-gops").unwrap().parse().unwrap();
    assert_eq!(gops, 3);
    assert_eq!(sys.nodes[0].core.len(), blobs_before + 2, "one upload stores two blobs");
    let bare: String =
        p3_crypto::sha256(&clip_bytes)[..12].iter().map(|b| format!("{b:02x}")).collect();
    assert_ne!(id, bare, "the id must not let the store test a guessed clip");
    let again = http_post(sys.proxy.addr(), "/videos", "video/p3v", clip_bytes.clone())
        .expect("upload again");
    assert_eq!(String::from_utf8_lossy(&again.body).trim(), id, "a retried upload keeps its id");
    assert_eq!(sys.nodes[0].core.len(), blobs_before + 2, "a retry overwrites its own blobs");

    // Every GOP arrives as a playable fragment via a partial fetch, and
    // together they tile the whole clip. Once GOP 0 has warmed the secret
    // cache, a GOP view is one storage GET: its ranged read.
    let mut tiled = 0usize;
    for k in 0..gops {
        let gets = sys.nodes[0].core.get_count();
        let resp = http_get(sys.proxy.addr(), &format!("/videos/{id}?gop={k}")).expect("gop fetch");
        assert!(resp.status.is_success(), "gop {k} failed: {:?}", resp.status);
        if k > 0 {
            assert_eq!(sys.nodes[0].core.get_count() - gets, 1, "gop {k}: a warm view, one GET");
        }
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

/// The store holds the public stream but not its trust: a flipped byte
/// inside one P-frame of the stored public clip fails that GOP and the
/// full clip closed (502), and leaves every other GOP playable.
#[test]
fn tampered_public_video_bytes_fail_closed() {
    use p3_video::codec::test_clip;
    use p3_video::{GopCodec, VideoCodecParams, VideoStream};

    let sys = Stack::spawn(StackSpec::default()).expect("stack");
    let params = VideoCodecParams { gop: 6, ..Default::default() };
    let clip = GopCodec::new(params).encode(&test_clip(12, 64, 48, 18)).expect("encode clip");
    let up = http_post(sys.proxy.addr(), "/videos", "video/p3v", clip.to_bytes()).expect("upload");
    assert_eq!(up.status.0, 201, "upload failed: {:?}", up.status);
    let id = String::from_utf8_lossy(&up.body).trim().to_string();

    // Flip a byte in the middle of frame 8's payload: a P-frame of GOP 1.
    let blob_id = format!("vid:{id}:pub");
    let mut public = sys.nodes[0].core.get(&blob_id).expect("get").expect("public blob").to_vec();
    let frames = VideoStream::from_bytes(&public).expect("public parses").frames;
    assert_eq!(frames[8].0, p3_video::FrameKind::P);
    let record: usize = frames[..8].iter().map(|(_, jpeg)| 5 + jpeg.len()).sum();
    public[14 + record + 5 + frames[8].1.len() / 2] ^= 0x20;
    sys.nodes[0].core.put(&blob_id, &public).expect("put tampered");

    for (path, want) in [("?gop=1", 502), ("", 502), ("?gop=0", 200), ("?gop=2", 200)] {
        let resp = http_get(sys.proxy.addr(), &format!("/videos/{id}{path}")).expect("fetch");
        assert_eq!(resp.status.0, want, "/videos/{id}{path}");
    }
}

/// A store that refuses every secret-stream PUT (`vid:*:sec`) while
/// armed.
#[derive(Debug, Default)]
struct RefusesSecretStreams {
    inner: MemBackend,
    armed: AtomicBool,
}

impl StorageBackend for RefusesSecretStreams {
    fn kind(&self) -> &'static str {
        "refuses-secret-streams"
    }
    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        if self.armed.load(Ordering::Relaxed) && id.ends_with(":sec") {
            return Err(StorageError::Unavailable("secret streams refused".into()));
        }
        self.inner.put(id, data)
    }
    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        self.inner.get(id)
    }
    fn delete(&self, id: &str) -> StorageResult<bool> {
        self.inner.delete(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// A retried upload of a stored clip whose secret PUT fails answers
/// 502 and leaves the stored clip playable: the public stream it
/// overwrote with the same bytes is not taken back out.
#[test]
fn a_failed_retry_of_a_stored_clip_keeps_it_playable() {
    use p3_video::codec::test_clip;
    use p3_video::{GopCodec, VideoCodecParams};

    let store = Arc::new(RefusesSecretStreams::default());
    let given = Storage::One(Node::Given(Arc::clone(&store) as Arc<_>));
    let sys = Stack::spawn(StackSpec { storage: given, ..StackSpec::default() }).expect("stack");
    let params = VideoCodecParams { gop: 6, ..Default::default() };
    let clip = GopCodec::new(params).encode(&test_clip(13, 64, 48, 12)).expect("encode clip");
    let up = http_post(sys.proxy.addr(), "/videos", "video/p3v", clip.to_bytes()).expect("upload");
    assert_eq!(up.status.0, 201, "upload failed: {:?}", up.status);
    let id = String::from_utf8_lossy(&up.body).trim().to_string();

    store.armed.store(true, Ordering::Relaxed);
    let retry =
        http_post(sys.proxy.addr(), "/videos", "video/p3v", clip.to_bytes()).expect("retry");
    assert_eq!(retry.status.0, 502, "the failed secret PUT must surface");
    store.armed.store(false, Ordering::Relaxed);

    for path in ["?gop=0", ""] {
        let resp = http_get(sys.proxy.addr(), &format!("/videos/{id}{path}")).expect("fetch");
        assert_eq!(
            resp.status.0,
            200,
            "/videos/{id}{path}: {}",
            String::from_utf8_lossy(&resp.body)
        );
    }
}

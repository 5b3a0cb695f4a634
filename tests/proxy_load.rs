//! Proxy load/concurrency integration tests: many clients hammering
//! uploads + downloads of overlapping photo IDs through the pooled
//! server, over live TCP on loopback.
//!
//! What must hold under concurrency:
//! * no lost responses — every request gets a success back;
//! * the secret cache stays within its configured bound;
//! * singleflight + cache keep storage GETs at ≤ one per distinct ID,
//!   photo secret or video secret stream;
//! * graceful shutdown drains an in-flight request instead of dropping
//!   it;
//! * a failed storage PUT rolls the PSP upload back (no orphaned public
//!   photo);
//! * a PSP that serves a view that does not decode, or one the secret
//!   has no place in, gets the blame (502), not the proxy (500);
//! * a photo ID the PSP chose never reaches a request line unless it is
//!   one token, so it cannot smuggle a request into storage.

use p3_bench::stack::{Stack, StackSpec, PROXY};
use p3_jpeg::encoder::{encode_coeffs, Mode};
use p3_net::{http_get, http_post, FaultRule, Request, Response, Server, StatusCode};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;

/// A stack whose proxy caches this many secrets.
fn stack(secret_cache_capacity: usize) -> Stack {
    Stack::spawn(StackSpec { secret_cache_capacity, ..StackSpec::default() }).expect("stack")
}

/// Small photos keep the codec work per request cheap; the point here is
/// concurrency, not pixels.
fn photo(seed: u64) -> Vec<u8> {
    let img = p3_datasets::synth::scene(seed, 96, 72, &p3_datasets::synth::SceneParams::default());
    p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode")
}

fn upload(addr: SocketAddr, jpeg: Vec<u8>) -> String {
    let resp = http_post(addr, "/photos", "image/jpeg", jpeg).expect("upload");
    assert!(resp.status.is_success(), "upload failed: {:?}", resp.status);
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    assert!(!id.is_empty(), "empty photo id");
    id
}

#[test]
fn concurrent_load_loses_nothing_and_singleflights_storage() {
    let sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    let addr = sys.proxy.addr();

    // Seed corpus: 6 distinct photos uploaded concurrently.
    const DISTINCT: usize = 6;
    let ids: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..DISTINCT).map(|i| s.spawn(move || upload(addr, photo(100 + i as u64)))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sys.nodes[0].core.len(), DISTINCT);
    let baseline_gets = sys.nodes[0].core.get_count();

    // 8 clients × 12 requests: downloads hammer the overlapping ID
    // space (sizes alternate so the same secret blob serves different
    // renditions — the paper's cache-reuse case), with an upload mixed
    // into each client's stream.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let ids = &ids;
            s.spawn(move || {
                for r in 0..PER_CLIENT {
                    if r == 7 {
                        // One fresh upload per client mid-hammer.
                        upload(addr, photo(1000 + (c * PER_CLIENT + r) as u64));
                        continue;
                    }
                    let id = &ids[(c + r) % DISTINCT];
                    let size = if r % 2 == 0 { "small" } else { "thumb" };
                    let resp = http_get(addr, &format!("/photos/{id}?size={size}"))
                        .expect("download must not be lost under load");
                    assert!(resp.status.is_success(), "download failed: {:?}", resp.status);
                    assert!(!resp.body.is_empty(), "empty download body");
                }
            });
        }
    });

    let stats = sys.proxy.stats();
    let downloads = (CLIENTS * (PER_CLIENT - 1)) as u64;
    assert_eq!(
        stats.downloads_reconstructed.load(Ordering::Relaxed),
        downloads,
        "every download must come back reconstructed"
    );
    assert_eq!(stats.downloads_passthrough.load(Ordering::Relaxed), 0);
    assert_eq!(stats.uploads_split.load(Ordering::Relaxed), (DISTINCT + CLIENTS) as u64);

    // Singleflight + cache: the herd on 6 distinct IDs may do at most
    // one storage GET per ID, no matter how the 88 downloads interleave.
    let gets = sys.nodes[0].core.get_count() - baseline_gets;
    assert!(gets >= 1, "at least one real fetch must have happened");
    assert!(
        gets <= DISTINCT as u64,
        "{gets} storage GETs for {DISTINCT} distinct IDs — singleflight failed"
    );

    // All requests were answered by the pooled server.
    let served = sys.proxy.server_stats().requests_served.load(Ordering::Relaxed);
    assert_eq!(served, (DISTINCT + CLIENTS * PER_CLIENT) as u64);

    // A herd on one clip's GOPs: each request reads its GOP's range, and
    // all of them share one fetch of the secret stream.
    let clip = p3_video::codec::test_clip(5, 48, 32, 12);
    let params = p3_video::VideoCodecParams { gop: 4, ..Default::default() };
    let clip = p3_video::GopCodec::new(params).encode(&clip).expect("encode clip").to_bytes();
    let up = http_post(addr, "/videos", "video/p3v", clip).expect("video upload");
    assert_eq!(up.status, StatusCode::CREATED);
    let id = String::from_utf8_lossy(&up.body).trim().to_string();
    let baseline_gets = sys.nodes[0].core.get_count();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let id = &id;
            s.spawn(move || {
                let resp = http_get(addr, &format!("/videos/{id}?gop={}", c % 3)).expect("gop");
                assert!(resp.status.is_success(), "gop {} failed: {:?}", c % 3, resp.status);
            });
        }
    });
    assert_eq!(stats.video_gops_served.load(Ordering::Relaxed), CLIENTS as u64);
    let gets = sys.nodes[0].core.get_count() - baseline_gets;
    assert!(
        gets <= CLIENTS as u64 + 1,
        "{gets} storage GETs for {CLIENTS} GOP requests on one clip — the secret stream \
         was fetched more than once"
    );
}

#[test]
fn cache_stays_bounded_under_many_distinct_ids() {
    // Capacity 4 at the default shard count with 12 distinct photos:
    // the cache must evict, not grow. The capacity is a hard limit, so
    // the shards together hold at most 4.
    let sys = stack(4);
    let addr = sys.proxy.addr();
    let ids: Vec<String> = (0..12).map(|i| upload(addr, photo(200 + i))).collect();
    std::thread::scope(|s| {
        for chunk in ids.chunks(4) {
            for id in chunk {
                let id = id.clone();
                s.spawn(move || {
                    let resp =
                        http_get(addr, &format!("/photos/{id}?size=small")).expect("download");
                    assert!(resp.status.is_success());
                });
            }
        }
    });
    let stats = sys.proxy.stats();
    assert_eq!(stats.downloads_reconstructed.load(Ordering::Relaxed), 12);
    assert!(
        sys.proxy.secret_cache_len() <= 4,
        "cache grew to {} entries (capacity 4)",
        sys.proxy.secret_cache_len()
    );
    assert_eq!(stats.cache_misses.load(Ordering::Relaxed), 12, "all distinct IDs miss once");
    assert!(
        stats.cache_evictions.load(Ordering::Relaxed) >= 8,
        "12 inserts into 4 slots must evict at least 8"
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_download() {
    let mut sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    let addr = sys.proxy.addr();
    let id = upload(addr, photo(300));
    // Let the upload's own in-flight marker drain so the wait below
    // observes the download, not the tail of the upload.
    while sys.proxy.in_flight() > 0 {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }

    let client = std::thread::spawn(move || {
        http_get(addr, &format!("/photos/{id}?size=small"))
            .expect("in-flight download must be drained, not dropped")
    });
    // Shut down as soon as the request is observably inside the server
    // (or already finished — either way the response must be complete).
    while sys.proxy.in_flight() == 0 && !client.is_finished() {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    sys.proxy.shutdown();
    let resp = client.join().unwrap();
    assert!(resp.status.is_success(), "drained response must be intact: {:?}", resp.status);
    assert!(p3_jpeg::decode_to_rgb(&resp.body).is_ok(), "drained response must be a whole JPEG");
}

#[test]
fn failed_storage_put_rolls_back_psp_upload() {
    let sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    // The proxy's link to storage refuses every connect.
    let refused = FaultRule { drop_connects: true, ..FaultRule::default() };
    sys.faults.set(PROXY, sys.nodes[0].addr, refused);
    let (psp, proxy) = (&sys.psp, &sys.proxy);

    let resp = http_post(proxy.addr(), "/photos", "image/jpeg", photo(400)).expect("request");
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY, "client must learn the upload failed");
    // The seed left the privacy-degraded public part published on the
    // PSP when the secret PUT failed; the rollback DELETE must remove it.
    assert_eq!(psp.core().photo_count(), 0, "orphaned public photo left on the PSP");
    assert_eq!(proxy.stats().upload_rollbacks.load(Ordering::Relaxed), 1);
    assert_eq!(proxy.stats().uploads_split.load(Ordering::Relaxed), 0);
}

#[test]
fn storage_outage_fails_downloads_loudly_not_degraded() {
    let mut sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    let addr = sys.proxy.addr();
    let id = upload(addr, photo(600));
    // Storage goes down with the download cache still cold. The proxy
    // must not mistake "storage unreachable" for "not a P3 photo" and
    // silently serve the privacy-degraded public part.
    sys.nodes[0].stop();
    let resp = http_get(addr, &format!("/photos/{id}?size=small")).expect("request");
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY, "outage must surface, not pass through");
    assert_eq!(resp.headers.get("retry-after"), Some("1"));
    assert_eq!(sys.proxy.stats().downloads_passthrough.load(Ordering::Relaxed), 0);
}

#[test]
fn malformed_crop_spec_is_not_misparsed() {
    let sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    let addr = sys.proxy.addr();
    let id = upload(addr, photo(500));
    // The seed's lenient parse read this five-field spec as the crop
    // (8,16,64,48) and reconstructed with the wrong geometry. The strict
    // parser must reject it and fall back to the estimator — the request
    // still succeeds (never a 500), it just isn't treated as a crop.
    let resp = http_get(addr, &format!("/photos/{id}?crop=8,zz,16,64,48")).expect("download");
    assert!(resp.status.is_success(), "malformed crop must not break the download");
    assert!(p3_jpeg::decode_to_rgb(&resp.body).is_ok());
}

#[test]
fn a_served_view_that_does_not_decode_is_a_bad_gateway() {
    let sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    let id = upload(sys.proxy.addr(), photo(700));
    // A second proxy over the same storage, in front of a PSP that
    // answers every fetch with junk labelled `image/jpeg`. The secret
    // part is sound; the served view is what does not decode.
    let junk = Server::spawn(std::sync::Arc::new(|_: &Request| {
        Response::ok("image/jpeg", b"\xFF\xD8 not a photo".to_vec())
    }))
    .expect("stub psp");
    let proxy = sys.proxy_to(junk.addr()).expect("proxy");
    let resp = http_get(proxy.addr(), &format!("/photos/{id}?size=small")).expect("request");
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.headers.get("retry-after"), Some("1"));
    assert_eq!(resp.body, b"served view does not decode");
    assert_eq!(proxy.stats().downloads_reconstructed.load(Ordering::Relaxed), 0);
    assert_eq!(proxy.stats().downloads_passthrough.load(Ordering::Relaxed), 0);
}

#[test]
fn a_served_view_that_does_not_fit_its_secret_is_a_bad_gateway() {
    let sys = stack(p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY);
    let id = upload(sys.proxy.addr(), photo(750));
    // A second proxy over the same storage, in front of a PSP that
    // answers with a well-formed gray JPEG of the rung's size: the
    // colour secret's chroma has no plane to go to.
    let rung = http_get(sys.psp.addr(), &format!("/photos/{id}?size=small")).expect("rung");
    let (rung, _) = p3_jpeg::decode_to_coeffs(&rung.body).expect("decode rung");
    let luma = vec![p3_jpeg::QuantTable::luma(90)];
    let gray = p3_jpeg::CoeffImage::zeroed(rung.width, rung.height, luma, &[(1, 1)], &[0])
        .and_then(|gray| encode_coeffs(&gray, Mode::BaselineOptimized, 0))
        .expect("gray rung");
    let stub = Server::spawn(std::sync::Arc::new(move |_: &Request| {
        Response::ok("image/jpeg", gray.clone())
    }))
    .expect("stub psp");
    let proxy = sys.proxy_to(stub.addr()).expect("proxy");
    let resp = http_get(proxy.addr(), &format!("/photos/{id}?size=small")).expect("request");
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.headers.get("retry-after"), Some("1"));
    assert_eq!(resp.body, b"served view does not fit its secret");
    assert_eq!(proxy.stats().downloads_reconstructed.load(Ordering::Relaxed), 0);
    assert_eq!(proxy.stats().downloads_passthrough.load(Ordering::Relaxed), 0);
}

#[test]
fn a_psp_photo_id_cannot_smuggle_a_request_into_storage() {
    let sys = stack(0);
    let victim = upload(sys.proxy.addr(), photo(800));
    // A second proxy over the same storage, in front of a PSP that
    // answers an upload with an "ID" carrying a second request line.
    let smuggled = format!("7 HTTP/1.1\r\nhost: x\r\n\r\nDELETE /blobs/{victim}");
    let hostile = Server::spawn(std::sync::Arc::new(move |_: &Request| {
        Response::ok("text/plain", smuggled.clone().into_bytes())
    }))
    .expect("stub psp");
    let proxy = sys.proxy_to(hostile.addr()).expect("proxy");
    let resp = http_post(proxy.addr(), "/photos", "image/jpeg", photo(801)).expect("request");
    assert!(sys.nodes[0].core.get(&victim).expect("get").is_some(), "the victim's secret is gone");
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.body, b"psp returned a malformed photo id");
    // The victim's view still reconstructs: never the degraded public part.
    let view = http_get(sys.proxy.addr(), &format!("/photos/{victim}?size=small")).expect("view");
    assert!(view.status.is_success(), "{:?}", view.status);
    assert_eq!(sys.proxy.stats().downloads_passthrough.load(Ordering::Relaxed), 0);
    assert_eq!(sys.proxy.stats().downloads_reconstructed.load(Ordering::Relaxed), 1);
}

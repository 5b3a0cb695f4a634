//! The full P3 *system* over live TCP (paper Figure 3 / Figure 4):
//! client app → trusted proxy → PSP (Facebook profile) + storage
//! provider, then download through the proxy with reconstruction.
//!
//! ```text
//! cargo run --release --example facebook_roundtrip
//! ```

use p3_core::pipeline::{P3Codec, P3Config};
use p3_core::pixel::rgb_to_luma;
use p3_datasets::synth::{scene, SceneParams};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig};
use p3_psp::{PspProfile, PspService};
use p3_storage::StorageService;
use p3_vision::metrics::psnr;

fn main() {
    // ---- infrastructure ---------------------------------------------------
    let mut psp = PspService::spawn(PspProfile::facebook()).expect("psp");
    let mut storage = StorageService::spawn().expect("storage");
    println!("PSP (facebook profile) on {}", psp.addr());
    println!("storage provider on      {}", storage.addr());

    let mut proxy = P3Proxy::spawn(ProxyConfig {
        psp_addr: psp.addr(),
        storage_addr: storage.addr(),
        master_key: b"shared out-of-band group key".to_vec(),
        codec: P3Codec::new(P3Config { threshold: 15, ..Default::default() }),
        estimator: default_estimator(),
        reencode_quality: 95,
        secret_cache_capacity: p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY,
        cache_shards: p3_net::proxy::DEFAULT_CACHE_SHARDS,
        server: p3_net::ServerConfig::default(),
    })
    .expect("proxy");
    println!("trusted proxy on         {}\n", proxy.addr());

    // ---- client app: upload through the proxy ------------------------------
    let photo = scene(7, 960, 720, &SceneParams::default());
    let jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&photo).expect("encode");
    println!("uploading {} byte photo through the proxy…", jpeg.len());
    let resp =
        p3_net::http_post(proxy.addr(), "/photos", "image/jpeg", jpeg.clone()).expect("upload");
    assert!(resp.status.is_success(), "upload failed: {:?}", resp.status);
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    println!("PSP assigned photo id {id}; secret part stored under the same id\n");

    // ---- what the PSP actually holds ---------------------------------------
    let raw =
        p3_net::http_get(psp.addr(), &format!("/photos/{id}?size=big")).expect("direct fetch");
    let stored = p3_jpeg::decode_to_rgb(&raw.body).expect("decode");
    println!(
        "PSP's own view (public part, {}x{}): what a leak would expose",
        stored.width, stored.height
    );

    // ---- client app: download through the proxy ----------------------------
    for size in ["big", "small", "thumb"] {
        let resp =
            p3_net::http_get(proxy.addr(), &format!("/photos/{id}?size={size}")).expect("download");
        assert!(resp.status.is_success());
        let img = p3_jpeg::decode_to_rgb(&resp.body).expect("decode");

        // Reference: the original pushed through a plain fit-resize (what a
        // non-P3 user would see, modulo the PSP's hidden pipeline details).
        let reference = {
            let ch = p3_core::pixel::rgb_to_channels(&photo);
            let spec = p3_core::transform::TransformSpec::resize(
                img.width,
                img.height,
                p3_vision::resize::ResizeFilter::Triangle,
            );
            p3_core::pixel::channels_to_rgb(&[
                spec.apply(&ch[0]),
                spec.apply(&ch[1]),
                spec.apply(&ch[2]),
            ])
        };
        let db = psnr(&rgb_to_luma(&reference), &rgb_to_luma(&img));
        let leak_db = if (stored.width, stored.height) == (img.width, img.height) {
            psnr(&rgb_to_luma(&reference), &rgb_to_luma(&stored))
        } else {
            f64::NAN
        };
        println!(
            "download size={size:<5} -> {}x{}, reconstructed PSNR {db:5.1} dB{}",
            img.width,
            img.height,
            if leak_db.is_nan() {
                String::new()
            } else {
                format!("  (public part alone: {leak_db:.1} dB)")
            }
        );
    }

    let stats = proxy.stats();
    println!(
        "\nproxy stats: {} uploads split, {} downloads reconstructed, {} cache hits",
        stats.uploads_split.load(std::sync::atomic::Ordering::Relaxed),
        stats.downloads_reconstructed.load(std::sync::atomic::Ordering::Relaxed),
        stats.cache_hits.load(std::sync::atomic::Ordering::Relaxed),
    );

    proxy.shutdown();
    psp.shutdown();
    storage.shutdown();
}

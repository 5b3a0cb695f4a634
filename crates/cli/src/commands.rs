//! Command implementations.

use crate::args::Args;
use crate::{codec_from, key_from};
use p3_core::pixel::rgb_to_luma;
use p3_vision::metrics::psnr;
use std::path::Path;

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
}

fn write(path: &str, data: &[u8]) -> Result<(), String> {
    std::fs::write(path, data).map_err(|e| format!("writing {path}: {e}"))
}

fn stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "photo".into())
}

/// Parse the one serving-tier flag every `p3` server command shares:
/// `--idle-timeout-ms N` (default 60 000).
fn server_config_flags(args: &Args) -> Result<p3_net::ServerConfig, String> {
    let defaults = p3_net::ServerConfig::default();
    let idle_ms = args.opt_u64("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?;
    Ok(p3_net::ServerConfig { idle_timeout: std::time::Duration::from_millis(idle_ms), ..defaults })
}

/// `p3 split` — photo → public JPEG + encrypted secret blob.
pub fn split(argv: &[String]) -> Result<(), String> {
    let args = Args::parse("split", &["key", "threshold", "public", "secret"], argv)?;
    let input = args.pos(0, "input.jpg")?;
    let passphrase = args.req("key")?;
    let threshold = args.opt_u16("threshold", 15)?;
    let base = stem(input);
    let public_path = args.opt("public", "").to_string();
    let public_path =
        if public_path.is_empty() { format!("{base}.public.jpg") } else { public_path };
    let secret_path = args.opt("secret", "").to_string();
    let secret_path =
        if secret_path.is_empty() { format!("{base}.secret.p3s") } else { secret_path };

    let jpeg = read(input)?;
    let codec = codec_from(threshold);
    // The public file's stem is the key-derivation context, so `join`
    // can re-derive without extra state.
    let key = key_from(passphrase, &stem(&public_path));
    let parts = codec.encrypt_jpeg(&jpeg, &key).map_err(|e| e.to_string())?;
    write(&public_path, &parts.public_jpeg)?;
    write(&secret_path, &parts.secret_blob)?;
    println!(
        "split {input} (T={threshold}): public {} ({} bytes), secret {} ({} bytes), overhead {:+.1}%",
        public_path,
        parts.public_jpeg.len(),
        secret_path,
        parts.secret_blob.len(),
        100.0 * (parts.public_jpeg.len() + parts.secret_blob.len()) as f64 / jpeg.len() as f64 - 100.0,
    );
    Ok(())
}

/// `p3 join` — public JPEG + secret blob → original JPEG.
pub fn join(argv: &[String]) -> Result<(), String> {
    let args = Args::parse("join", &["key", "out"], argv)?;
    let public_path = args.pos(0, "public.jpg")?;
    let secret_path = args.pos(1, "secret.p3s")?;
    let passphrase = args.req("key")?;
    let out = args.opt("out", "restored.jpg");
    let public = read(public_path)?;
    let secret = read(secret_path)?;
    let key = key_from(passphrase, &stem(public_path));
    // Threshold comes from the container, so any codec instance works.
    let codec = codec_from(15);
    let restored = codec.decrypt_jpeg(&public, &secret, &key).map_err(|e| e.to_string())?;
    write(out, &restored)?;
    println!("restored {out} ({} bytes)", restored.len());
    Ok(())
}

/// `p3 info` — structural summary + threshold-guess attack.
pub fn info(argv: &[String]) -> Result<(), String> {
    let args = Args::parse("info", &[], argv)?;
    let path = args.pos(0, "file.jpg")?;
    let data = read(path)?;
    let summary = p3_jpeg::marker::summarize(&data).map_err(|e| e.to_string())?;
    println!("{path}:");
    println!("  {}x{} px, {} component(s)", summary.width, summary.height, summary.components);
    println!(
        "  mode: {}",
        if summary.progressive { "progressive (SOF2)" } else { "baseline (SOF0)" }
    );
    println!("  sampling: {:?}", summary.sampling);
    let (coeffs, info) = p3_jpeg::decode_to_coeffs(&data).map_err(|e| e.to_string())?;
    println!("  scans: {}", info.scans);
    let dc_zero = {
        let mut all = true;
        coeffs.for_each_block(|_, b| all &= b[0] == 0);
        all
    };
    if dc_zero {
        match p3_core::attack::guess_threshold(&coeffs) {
            Some(t) => println!("  looks like a P3 public part (DC all zero, threshold ≈ {t})"),
            None => println!("  DC all zero but no threshold signature"),
        }
    } else {
        println!("  not a P3 public part (DC present)");
    }
    Ok(())
}

/// `p3 audit` — split and measure the privacy metrics on one photo.
pub fn audit(argv: &[String]) -> Result<(), String> {
    let args = Args::parse("audit", &["threshold"], argv)?;
    let input = args.pos(0, "input.jpg")?;
    let threshold = args.opt_u16("threshold", 15)?;
    let jpeg = read(input)?;
    let (coeffs, _) = p3_jpeg::decode_to_coeffs(&jpeg).map_err(|e| e.to_string())?;
    let (public, secret, stats) =
        p3_core::split::split_coeffs(&coeffs, threshold).map_err(|e| e.to_string())?;
    let orig = rgb_to_luma(&p3_jpeg::decoder::coeffs_to_rgb(&coeffs).map_err(|e| e.to_string())?);
    let pub_luma =
        rgb_to_luma(&p3_jpeg::decoder::coeffs_to_rgb(&public).map_err(|e| e.to_string())?);
    let sec_luma =
        rgb_to_luma(&p3_jpeg::decoder::coeffs_to_rgb(&secret).map_err(|e| e.to_string())?);
    let pub_jpeg =
        p3_jpeg::encoder::encode_coeffs(&public, p3_jpeg::encoder::Mode::BaselineOptimized, 0)
            .map_err(|e| e.to_string())?;
    let sec_jpeg =
        p3_jpeg::encoder::encode_coeffs(&secret, p3_jpeg::encoder::Mode::BaselineOptimized, 0)
            .map_err(|e| e.to_string())?;
    println!("audit of {input} at T={threshold}:");
    println!("  public PSNR: {:.1} dB (want ~10-15)", psnr(&orig, &pub_luma));
    println!("  secret PSNR: {:.1} dB (want 35+)", psnr(&orig, &sec_luma));
    println!(
        "  sizes: public {} + secret {} vs original {} ({:+.1}%)",
        pub_jpeg.len(),
        sec_jpeg.len(),
        jpeg.len(),
        100.0 * (pub_jpeg.len() + sec_jpeg.len()) as f64 / jpeg.len() as f64 - 100.0
    );
    println!(
        "  coefficients: {} clipped of {} nonzero AC ({:.1}%), {} DC extracted",
        stats.above_threshold,
        stats.nonzero_ac,
        100.0 * stats.above_threshold as f64 / stats.nonzero_ac.max(1) as f64,
        stats.dc_moved
    );
    let report = p3_core::attack::sign_attack(&coeffs, &public, threshold);
    println!(
        "  §3.4 attack: T-guess {:?}, zero-replacement MSE {:.1} (keep +T: {:.1})",
        p3_core::attack::guess_threshold(&public),
        report.mse_zero,
        report.mse_keep_t
    );
    Ok(())
}

/// `p3 serve-psp` — run the PSP simulator until Ctrl-C.
pub fn serve_psp(argv: &[String]) -> Result<(), String> {
    let args = Args::parse("serve-psp", &["profile", "addr", "idle-timeout-ms"], argv)?;
    let profile = match args.opt("profile", "facebook") {
        "facebook" => p3_psp::PspProfile::facebook(),
        "flickr" => p3_psp::PspProfile::flickr(),
        "hostile" => p3_psp::PspProfile::hostile(),
        other => return Err(format!("unknown profile {other:?}")),
    };
    let addr = args.opt("addr", "127.0.0.1:0").to_string();
    let config = server_config_flags(&args)?;
    let core = std::sync::Arc::new(p3_psp::PspCore::new(profile));
    let c = std::sync::Arc::clone(&core);
    let server = p3_net::Server::spawn_with(
        &addr,
        config,
        std::sync::Arc::new(move |req| p3_psp::service::handle_http(&c, req)),
    )
    .map_err(|e| e.to_string())?;
    println!("PSP ({}) listening on {}", core.profile().name, server.addr());
    println!("POST /photos (image/jpeg) -> id; GET /photos/{{id}}?size=big|small|thumb|full&fit=WxH&crop=x,y,w,h");
    park_forever()
}

/// `p3 storage` (alias `serve-storage`) — run the blob store until
/// Ctrl-C, over a selectable backend:
///
/// * `--backend mem` (default) — the in-process sharded store;
/// * `--backend disk --data-dir DIR` — the packed needle-log store:
///   blobs append to rolling segments (`--segment-mb`, default 64), a
///   group-commit writer batches concurrent puts into one shared fsync
///   (the fsync itself is the batching window), and a background
///   compactor rewrites sealed segments whose dead-byte ratio crosses
///   `--compact-threshold` (default 0.5) every `--compact-interval-s`
///   seconds (default 60, 0 disables);
/// * `--backend cluster --nodes a:p1,b:p2,… --replicas R` — the
///   consistent-hash router over other storage nodes (themselves
///   `p3 storage` instances), with quorum writes, read-repair, dynamic
///   membership (`p3 storage-admin`), and a background anti-entropy
///   sweep every `--sweep-interval` seconds (0 disables).
pub fn storage(argv: &[String]) -> Result<(), String> {
    use p3_storage::{
        ClusterBackend, ClusterConfig, MemBackend, PackedBackend, PackedConfig, StorageBackend,
    };
    let args = Args::parse(
        "storage",
        &[
            "addr",
            "backend",
            "data-dir",
            "segment-mb",
            "compact-threshold",
            "compact-interval-s",
            "nodes",
            "replicas",
            "sweep-interval",
            "idle-timeout-ms",
        ],
        argv,
    )?;
    let addr = args.opt("addr", "127.0.0.1:0").to_string();
    let kind = args.opt("backend", "mem");
    // Keep the cluster's anti-entropy thread / the packed store's
    // compactor alive until process exit.
    let mut sweeper: Option<p3_storage::Sweeper> = None;
    let mut compactor: Option<p3_storage::Compactor> = None;
    let (backend, describe): (std::sync::Arc<dyn StorageBackend>, String) = match kind {
        "mem" => (std::sync::Arc::new(MemBackend::new()), "in-memory".to_string()),
        "disk" => {
            let dir = args.opt("data-dir", "p3-storage-data");
            let segment_mb = args.opt_u64("segment-mb", 64)?;
            let compact_threshold = args.opt_f64("compact-threshold", 0.5)?;
            let compact_secs = args.opt_u64("compact-interval-s", 60)?;
            if !(0.0..=1.0).contains(&compact_threshold) {
                return Err(format!("--compact-threshold {compact_threshold} must be in [0, 1]"));
            }
            let segment_bytes = segment_mb.max(1) << 20;
            let defaults = PackedConfig::default();
            let cfg = PackedConfig {
                segment_bytes,
                compact_threshold,
                // Sealed segments are always shorter than segment_bytes,
                // so a fixed candidate floor above segment_bytes/2 would
                // silently disable ratio-based compaction for small
                // --segment-mb values.
                compact_min_bytes: defaults.compact_min_bytes.min(segment_bytes / 2),
            };
            let backend = std::sync::Arc::new(
                PackedBackend::open_with(std::path::Path::new(dir), cfg)
                    .map_err(|e| format!("opening --data-dir {dir}: {e}"))?,
            );
            if compact_secs > 0 {
                compactor = Some(p3_storage::Compactor::spawn(
                    &backend,
                    std::time::Duration::from_secs(compact_secs),
                ));
            }
            let describe = format!(
                "packed needle log, data under {dir:?}, {segment_mb} MiB segments, compaction {}",
                if compact_secs == 0 {
                    "off".to_string()
                } else {
                    format!("every {compact_secs}s at ≥{compact_threshold} dead")
                },
            );
            (backend, describe)
        }
        "cluster" => {
            // `ToSocketAddrs` so hostnames work (`db1:7001`), not just
            // IP literals; first resolved address wins.
            let nodes = args
                .req("nodes")?
                .split(',')
                .map(|n| {
                    std::net::ToSocketAddrs::to_socket_addrs(n)
                        .map_err(|e| format!("--nodes entry {n:?}: {e}"))?
                        .next()
                        .ok_or_else(|| format!("--nodes entry {n:?} resolved to no address"))
                })
                .collect::<Result<Vec<std::net::SocketAddr>, String>>()?;
            let replicas = args.opt_usize("replicas", 2)?;
            let sweep_secs = args.opt_usize("sweep-interval", 60)?;
            // Report the *effective* replication factor (the backend
            // clamps R to the node count), not what was asked for.
            let describe = format!(
                "cluster router, {} nodes, R={}, sweep {}",
                nodes.len(),
                replicas.clamp(1, nodes.len().max(1)),
                if sweep_secs == 0 { "off".to_string() } else { format!("every {sweep_secs}s") },
            );
            let backend = std::sync::Arc::new(
                ClusterBackend::new(ClusterConfig { nodes, replicas, ..Default::default() })
                    .map_err(|e| e.to_string())?,
            );
            if sweep_secs > 0 {
                sweeper =
                    Some(backend.spawn_sweeper(std::time::Duration::from_secs(sweep_secs as u64)));
            }
            (backend, describe)
        }
        other => return Err(format!("unknown --backend {other:?} (mem|disk|cluster)")),
    };
    let config = server_config_flags(&args)?;
    let core = std::sync::Arc::new(p3_storage::StorageCore::with_backend(backend));
    let c = std::sync::Arc::clone(&core);
    let server = p3_net::Server::spawn_with(
        &addr,
        config,
        std::sync::Arc::new(move |req| p3_storage::handle_http(&c, req)),
    )
    .map_err(|e| e.to_string())?;
    println!("storage provider ({describe}) listening on {}", server.addr());
    // Advertise only the routes this backend actually serves: /index
    // lists local blobs (mem/disk), /admin/membership drives the
    // cluster router's topology.
    if kind == "cluster" {
        println!("PUT/GET/DELETE /blobs/{{id}}; GET /stats, GET /len");
        println!("cluster admin: GET/POST /admin/membership (via `p3 storage-admin`)");
    } else {
        println!("PUT/GET/DELETE /blobs/{{id}}; GET /stats, GET /len, GET /index");
    }
    let result = park_forever();
    drop(sweeper);
    drop(compactor);
    result
}

/// `p3 storage-admin` — change or inspect a running cluster router's
/// membership over its `/admin/membership` route:
///
/// ```text
/// p3 storage-admin show --router <addr>
/// p3 storage-admin add <node-addr> --router <addr>
/// p3 storage-admin remove <node-addr> --router <addr>
/// ```
///
/// `add`/`remove` bump the membership epoch and run the rebalancer
/// before the command returns; the printed `rebalanced_blobs` is the
/// number of blob copies streamed to their new owners. On a cluster
/// holding a lot of data the synchronous rebalance can outlive the
/// HTTP client's 20 s read timeout — the change still applies
/// server-side; confirm with `storage-admin show` (the epoch will have
/// bumped) rather than retrying the add.
pub fn storage_admin(argv: &[String]) -> Result<(), String> {
    let args = Args::parse("storage-admin", &["router"], argv)?;
    let verb = args.pos(0, "show|add|remove")?;
    // `ToSocketAddrs` like `--nodes`, so hostnames work here too.
    let router_arg = args.req("router")?;
    let router: std::net::SocketAddr = std::net::ToSocketAddrs::to_socket_addrs(router_arg)
        .map_err(|e| format!("--router {router_arg:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("--router {router_arg:?} resolved to no address"))?;
    let resp = match verb {
        "show" => p3_net::http_get(router, "/admin/membership")
            .map_err(|e| format!("GET /admin/membership: {e}"))?,
        "add" | "remove" => {
            let node = args.pos(1, "node-addr")?;
            p3_net::client::http_post(
                router,
                "/admin/membership",
                "text/plain",
                format!("{verb} {node}\n").into_bytes(),
            )
            .map_err(|e| format!("POST /admin/membership: {e}"))?
        }
        other => return Err(format!("unknown subcommand {other:?} (show|add|remove)")),
    };
    let body = String::from_utf8_lossy(&resp.body);
    if !resp.status.is_success() {
        return Err(format!("router answered {:?}: {}", resp.status, body.trim()));
    }
    print!("{body}");
    Ok(())
}

/// `p3 proxy` — run the trusted proxy until Ctrl-C.
pub fn proxy(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "proxy",
        &[
            "psp",
            "storage",
            "key",
            "threshold",
            "addr",
            "workers",
            "cache-capacity",
            "idle-timeout-ms",
        ],
        argv,
    )?;
    let psp: std::net::SocketAddr = args.req("psp")?.parse().map_err(|e| format!("--psp: {e}"))?;
    let storage: std::net::SocketAddr =
        args.req("storage")?.parse().map_err(|e| format!("--storage: {e}"))?;
    let passphrase = args.req("key")?;
    let threshold = args.opt_u16("threshold", 15)?;
    let addr = args.opt("addr", "127.0.0.1:0");
    // Serving-tier knobs (see ARCHITECTURE.md § Serving architecture).
    let workers = args.opt_usize("workers", p3_net::server::default_workers())?;
    let queue_depth = workers.max(1) * 8;
    let cache_capacity =
        args.opt_usize("cache-capacity", p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY)?;
    let cache_shards = p3_net::proxy::DEFAULT_CACHE_SHARDS;
    let server = p3_net::ServerConfig { workers, queue_depth, ..server_config_flags(&args)? };
    let idle_ms = server.idle_timeout.as_millis();
    let proxy = p3_net::proxy::P3Proxy::spawn_on(
        addr,
        p3_net::proxy::ProxyConfig {
            psp_addr: psp,
            storage_addr: storage,
            master_key: passphrase.as_bytes().to_vec(),
            codec: codec_from(threshold),
            estimator: p3_net::proxy::default_estimator(),
            reencode_quality: 95,
            secret_cache_capacity: cache_capacity,
            cache_shards,
            server,
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "trusted proxy listening on {} (psp {psp}, storage {storage}, {workers} workers, \
         queue {queue_depth}, idle {idle_ms}ms, cache {cache_capacity}x{cache_shards} shards, \
         {} codec threads)",
        proxy.addr(),
        p3_par::global().threads()
    );
    park_forever()
}

/// `p3 simulate` — the whole-system chaos script (see
/// `p3_bench::simulate`). Boolean flags are stripped before the
/// `--flag value` parser runs.
pub fn simulate(argv: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut check_schema = false;
    let mut rest = Vec::with_capacity(argv.len());
    for a in argv {
        match a.as_str() {
            "--quick" => quick = true,
            "--check-schema" => check_schema = true,
            _ => rest.push(a.clone()),
        }
    }
    let args = Args::parse("simulate", &["seed", "soak", "out"], &rest)?;
    if check_schema {
        let path = args.opt("out", "BENCH_simulate.json");
        p3_bench::simulate::check_schema(path)?;
        println!("{path}: schema OK");
        return Ok(());
    }
    let default_out =
        if quick { "target/BENCH_simulate_quick.json" } else { "BENCH_simulate.json" };
    p3_bench::simulate::run(&p3_bench::simulate::SimulateOpts {
        quick,
        seed: args.opt_u64("seed", 42)?,
        soak_secs: args.opt_u64("soak", 0)?,
        out_path: args.opt("out", default_out).to_string(),
    })
}

fn park_forever() -> Result<(), String> {
    loop {
        std::thread::park();
    }
}

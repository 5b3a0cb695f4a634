//! Serving-tier benchmark: spawns a live proxy + PSP + storage trio on
//! loopback and hammers it with M concurrent clients, timing three
//! paths end to end — pure forwarding (`proxy_forward`, a 404 round-trip
//! that isolates the serving tier from the codec), the full upload
//! (split + seal + PUT), and the full download (forward + fetch +
//! rebuild) — then runs the `connection_scaling` cells: 1k/10k
//! mostly-idle keep-alive populations driven open-loop, in a
//! two-process split so the fd ceiling can hold both ends (see
//! [`p3_bench::scaling`]). Writes `BENCH_proxy.json` — the
//! committed serving baseline next to `BENCH_codec.json`. Every later
//! proxy PR reruns this binary and compares.
//!
//! ```text
//! cargo run --release -p p3-bench --bin proxy_bench              # full counts
//! cargo run --release -p p3-bench --bin proxy_bench -- --quick   # CI smoke
//! cargo run --release -p p3-bench --bin proxy_bench -- --clients 16
//! cargo run --release -p p3-bench --bin proxy_bench -- --out path.json
//! ```
//!
//! (`--serve-scaling` is the internal child mode of the scaling split
//! — it hosts the trio and exits on stdin EOF.)
//!
//! Schema: `{ "<phase>": { "requests_per_s": f64, "p50_ms": f64,
//! "p99_ms": f64[, "cache_hit_rate": f64] } }` plus one
//! `scaling_epoll_{tier}` section per cell. The binary re-reads and
//! validates what it wrote ([`p3_bench::util::parse_metric_json`]) and
//! exits nonzero on any mismatch, so CI catches a rotten harness.

use p3_bench::scaling;
use p3_bench::util::{
    bench_out_path, check_metric_schema, flag_value, parse_metric_json, percentile,
};
use p3_core::pipeline::{P3Codec, P3Config};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig};
use p3_net::{http_get, http_post};
use p3_psp::{PspProfile, PspService};
use p3_storage::StorageService;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One benched phase: merged client latencies + wall-clock throughput.
struct PhaseResult {
    name: &'static str,
    requests_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Download-only: secret-cache hit rate in `[0, 1]`.
    cache_hit_rate: Option<f64>,
}

/// Run `clients` threads of `per_client` slots each; `op(client, slot)`
/// issues one request and panics on failure, or returns false for a
/// no-op slot (ragged tail of an uneven split) whose ~0 ms duration
/// must not pollute the percentiles. Returns the merged sorted latency
/// list and the wall time of the whole phase.
fn run_clients<F>(clients: usize, per_client: usize, op: F) -> (Vec<f64>, f64)
where
    F: Fn(usize, usize) -> bool + Sync,
{
    let latencies = Mutex::new(Vec::with_capacity(clients * per_client));
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let latencies = &latencies;
            let op = &op;
            s.spawn(move || {
                let mut local = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let t = Instant::now();
                    if op(c, r) {
                        local.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
                latencies.lock().extend_from_slice(&local);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut merged = latencies.into_inner();
    merged.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (merged, wall_s)
}

/// Section → field names this binary emits, in emission order — the
/// single source of truth for the post-run validation and the
/// `--check-schema` drift guard against the committed
/// `BENCH_proxy.json`.
fn expected_schema() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut schema = vec![
        ("proxy_forward", vec!["requests_per_s", "p50_ms", "p99_ms"]),
        ("proxy_upload", vec!["requests_per_s", "p50_ms", "p99_ms"]),
        ("proxy_download", vec!["requests_per_s", "p50_ms", "p99_ms", "cache_hit_rate"]),
    ];
    for cell in ["scaling_epoll_1k", "scaling_epoll_10k"] {
        schema.push((cell, scaling::section_fields()));
    }
    schema
}

fn validate(path: &str, expected_sections: &[&str]) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("re-read {path}: {e}"))?;
    let parsed = parse_metric_json(&src)?;
    for want in expected_sections {
        let (_, metrics) = parsed
            .iter()
            .find(|(name, _)| name == want)
            .ok_or_else(|| format!("section {want:?} missing"))?;
        for (field, value) in metrics {
            if !value.is_finite() || *value < 0.0 {
                return Err(format!("{want}.{field} = {value} is not a sane metric"));
            }
            if field == "requests_per_s" && *value == 0.0 {
                return Err(format!("{want}.requests_per_s is zero"));
            }
            if field == "cache_hit_rate" && *value > 1.0 {
                return Err(format!("{want}.cache_hit_rate = {value} > 1"));
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal child mode of the connection-scaling split: host the
    // trio, print the proxy address, park until stdin closes.
    if args.iter().any(|a| a == "--serve-scaling") {
        scaling::serve_child();
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path =
        bench_out_path(&args, quick, "target/BENCH_proxy_quick.json", "BENCH_proxy.json");

    // Drift guard: compare the committed baseline's key sets against
    // what this binary emits, without spawning the serving trio.
    if args.iter().any(|a| a == "--check-schema") {
        let committed =
            flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_proxy.json".to_string());
        match check_metric_schema(&committed, &expected_schema()) {
            Ok(()) => {
                println!("{committed}: schema matches ({} phases)", expected_schema().len());
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let clients: usize = flag_value(&args, "--clients")
        .map(|v| v.parse().expect("--clients must be a number"))
        .unwrap_or(if quick { 4 } else { 8 });

    // Workload: a forward-only warmless phase first, then `distinct`
    // photos uploaded once, then every client walks the ID space
    // round-robin so the download mix has both cache misses (first
    // touch) and hits (the paper's thumbnail-then-big reuse case).
    let (distinct, downloads_per_client, forwards_per_client, w, h) =
        if quick { (2, 3, 4, 96, 72) } else { (12, 48, 250, 320, 240) };

    let psp = PspService::spawn(PspProfile::facebook()).expect("spawn psp");
    let storage = StorageService::spawn().expect("spawn storage");
    let proxy = P3Proxy::spawn(ProxyConfig {
        psp_addr: psp.addr(),
        storage_addr: storage.addr(),
        master_key: b"proxy bench master key".to_vec(),
        codec: P3Codec::new(P3Config { threshold: 15, ..Default::default() }),
        estimator: default_estimator(),
        reencode_quality: 90,
        secret_cache_capacity: p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY,
        cache_shards: p3_net::proxy::DEFAULT_CACHE_SHARDS,
        server: p3_net::ServerConfig::default(),
    })
    .expect("spawn proxy");
    let addr = proxy.addr();

    // Deterministic photo corpus (one JPEG per distinct ID, reused by
    // every uploading client).
    let jpegs: Vec<Vec<u8>> = (0..distinct)
        .map(|i| {
            let img = p3_datasets::synth::scene(
                40 + i as u64,
                w,
                h,
                &p3_datasets::synth::SceneParams::default(),
            );
            p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode")
        })
        .collect();

    // Forward phase: a GET for a photo the PSP doesn't know 404s
    // through the whole proxy path without touching the codec — the
    // serving tier's own ceiling (accept, parse, upstream round-trip,
    // concurrent storage probe, response), nothing else.
    let (fwd_lat, fwd_wall) = run_clients(clients, forwards_per_client, |_, _| {
        let resp = http_get(addr, "/photos/999999999?size=small").expect("forward");
        assert_eq!(resp.status.0, 404, "unknown photo must 404 through the proxy");
        true
    });

    // Upload phase: `distinct` uploads spread across the clients.
    let ids = Mutex::new(vec![String::new(); distinct]);
    let upload_clients = clients.min(distinct);
    let per_upload_client = distinct.div_ceil(upload_clients);
    let (up_lat, up_wall) = run_clients(upload_clients, per_upload_client, |c, r| {
        let idx = c * per_upload_client + r;
        if idx >= distinct {
            return false; // ragged tail of the round-robin split: untimed
        }
        let resp = http_post(addr, "/photos", "image/jpeg", jpegs[idx].clone()).expect("upload");
        assert!(resp.status.is_success(), "upload failed: {:?}", resp.status);
        let id = String::from_utf8_lossy(&resp.body).trim().to_string();
        assert!(!id.is_empty(), "empty photo id");
        ids.lock()[idx] = id;
        true
    });
    let ids = ids.into_inner();
    assert!(ids.iter().all(|id| !id.is_empty()), "an upload was lost");

    // Download phase: M concurrent clients, overlapping IDs. Hit/miss
    // deltas bracket the phase (the forward phase above also counts
    // misses — every 404 probe is one).
    let stats = proxy.stats();
    let hits0 = stats.cache_hits.load(Ordering::Relaxed);
    let misses0 = stats.cache_misses.load(Ordering::Relaxed);
    let (down_lat, down_wall) = run_clients(clients, downloads_per_client, |c, r| {
        let id = &ids[(c * downloads_per_client + r) % distinct];
        let resp = http_get(addr, &format!("/photos/{id}?size=small")).expect("download");
        assert!(resp.status.is_success(), "download failed: {:?}", resp.status);
        assert!(!resp.body.is_empty(), "empty download body");
        true
    });

    let reconstructed = stats.downloads_reconstructed.load(Ordering::Relaxed);
    let total_downloads = (clients * downloads_per_client) as u64;
    assert_eq!(reconstructed, total_downloads, "a download fell off the reconstruction path");
    let hits = (stats.cache_hits.load(Ordering::Relaxed) - hits0) as f64;
    let misses = (stats.cache_misses.load(Ordering::Relaxed) - misses0) as f64;
    let hit_rate = if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) };

    // Tear the in-process trio down before the scaling cells: each cell
    // gets the machine (and the fd budget) to itself, serving from a
    // re-executed child process.
    drop(proxy);
    drop(storage);
    drop(psp);
    let _ = p3_net::raise_nofile_limit();
    let mut scaling_results = Vec::new();
    for spec in scaling::cells(quick) {
        println!(
            "scaling: {} — {} connections, {} requests over {:?}...",
            spec.name, spec.connections, spec.requests, spec.window
        );
        match scaling::run_cell(&spec) {
            Ok(r) => {
                println!(
                    "{:<20} open {:>6}   {:>8.1} req/s   p50 {:>8.2} ms   p99 {:>8.2} ms   \
                     shed {}   errors {}",
                    r.name,
                    r.open_connections,
                    r.requests_per_s,
                    r.p50_ms,
                    r.p99_ms,
                    r.shed,
                    r.errors
                );
                scaling_results.push(r);
            }
            Err(e) => {
                eprintln!("error: scaling cell {} failed: {e}", spec.name);
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = scaling::validate_cells(&scaling_results) {
        eprintln!("error: connection scaling failed its acceptance gates: {e}");
        std::process::exit(1);
    }

    let total_forwards = (clients * forwards_per_client) as u64;
    let results = [
        PhaseResult {
            name: "proxy_forward",
            requests_per_s: total_forwards as f64 / fwd_wall,
            p50_ms: percentile(&fwd_lat, 50.0),
            p99_ms: percentile(&fwd_lat, 99.0),
            cache_hit_rate: None,
        },
        PhaseResult {
            name: "proxy_upload",
            requests_per_s: distinct as f64 / up_wall,
            p50_ms: percentile(&up_lat, 50.0),
            p99_ms: percentile(&up_lat, 99.0),
            cache_hit_rate: None,
        },
        PhaseResult {
            name: "proxy_download",
            requests_per_s: total_downloads as f64 / down_wall,
            p50_ms: percentile(&down_lat, 50.0),
            p99_ms: percentile(&down_lat, 99.0),
            cache_hit_rate: Some(hit_rate),
        },
    ];
    for r in &results {
        println!(
            "{:<16} {:>9.1} req/s   p50 {:>8.2} ms   p99 {:>8.2} ms{}",
            r.name,
            r.requests_per_s,
            r.p50_ms,
            r.p99_ms,
            r.cache_hit_rate.map(|h| format!("   hit rate {h:.3}")).unwrap_or_default()
        );
    }
    println!(
        "({clients} clients, {distinct} photos at {w}x{h}, {} forwards, {} downloads)",
        clients * forwards_per_client,
        clients * downloads_per_client
    );

    let mut sections: Vec<(&str, Vec<(&str, f64)>)> = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("requests_per_s", r.requests_per_s),
                ("p50_ms", r.p50_ms),
                ("p99_ms", r.p99_ms),
            ];
            if let Some(rate) = r.cache_hit_rate {
                fields.push(("cache_hit_rate", rate));
            }
            (r.name, fields)
        })
        .collect();
    sections.extend(scaling_results.iter().map(scaling::section));
    let json = p3_net::stats::render_metrics(&sections);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    let section_names: Vec<&str> = expected_schema().iter().map(|(name, _)| *name).collect();
    if let Err(e) = validate(&out_path, &section_names) {
        eprintln!("error: {out_path} failed self-validation: {e}");
        std::process::exit(1);
    }
    // The emitted file must match the schema table `--check-schema`
    // guards with, or the guard itself would drift from reality.
    if let Err(e) = check_metric_schema(&out_path, &expected_schema()) {
        eprintln!("error: {out_path} does not match the declared schema: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} (self-validated)");
}

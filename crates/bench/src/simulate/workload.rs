//! Open-loop Zipfian workload: pinned golden corpus, precomputed
//! arrival schedule, coordinated-omission-aware latency accounting,
//! and byte-exact response verification.

use p3_datasets::synth::Zipf;
use p3_net::{http_get, http_post};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A pinned photo: uploaded before the run, its reconstructed bytes
/// hashed right after a verified first read. Every later read must be
/// byte-identical or an explicit error.
pub struct PinnedPhoto {
    /// PSP-assigned photo ID.
    pub id: String,
    /// SHA-256 of the reconstructed JPEG the proxy served at pin time.
    pub golden: [u8; 32],
}

/// Everything one request needs, precomputed so workers stay dumb.
enum Plan {
    /// Read pinned photo `photo_idx` as user `user_rank`.
    Read { photo_idx: usize, user_rank: usize },
    /// Upload a fresh photo seeded by `seed`.
    Write { seed: u64, user_rank: usize },
}

/// Aggregated outcome of the open-loop run.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    /// Per-read latencies (ms), measured from scheduled arrival.
    pub read_lat_ms: Vec<f64>,
    /// Per-write latencies (ms), measured from scheduled arrival.
    pub write_lat_ms: Vec<f64>,
    /// Reads answered 200 with byte-identical golden content.
    pub ok_reads: u64,
    /// Writes answered success.
    pub ok_writes: u64,
    /// Client-visible explicit errors (5xx/transport) — allowed under
    /// chaos.
    pub explicit_errors: u64,
    /// Responses that were *wrong*: 200 with bytes that differ from the
    /// pinned golden copy. Must be zero, always.
    pub wrong_data: u64,
    /// Wall-clock of the request phase (seconds).
    pub wall_s: f64,
}

/// Deterministic synthetic JPEG for upload traffic.
pub fn photo_jpeg(seed: u64) -> Vec<u8> {
    let img = p3_datasets::synth::scene(seed, 96, 72, &p3_datasets::synth::SceneParams::default());
    p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode synth jpeg")
}

/// Upload `count` photos through the proxy and pin each one's golden
/// reconstructed bytes with a verify-read. Runs before any chaos.
pub fn pin_corpus(proxy: SocketAddr, count: usize, seed: u64) -> Result<Vec<PinnedPhoto>, String> {
    let mut pinned = Vec::with_capacity(count);
    for i in 0..count {
        let jpeg = photo_jpeg(seed.wrapping_add(i as u64));
        let resp = http_post(proxy, "/photos", "image/jpeg", jpeg)
            .map_err(|e| format!("pin upload {i}: {e}"))?;
        if !resp.status.is_success() {
            return Err(format!("pin upload {i}: status {}", resp.status.0));
        }
        let id = String::from_utf8_lossy(&resp.body).trim().to_string();
        let read = http_get(proxy, &format!("/photos/{id}"))
            .map_err(|e| format!("pin verify-read {id}: {e}"))?;
        if !read.status.is_success() {
            return Err(format!("pin verify-read {id}: status {}", read.status.0));
        }
        p3_jpeg::decode_to_rgb(&read.body)
            .map_err(|e| format!("pin verify-read {id}: not a JPEG: {e}"))?;
        pinned.push(PinnedPhoto { id, golden: p3_crypto::sha256(&read.body) });
    }
    Ok(pinned)
}

/// Precompute the open-loop arrival schedule: cumulative seconds from
/// run start, exponential inter-arrivals at `target_rps`.
fn arrival_schedule(requests: usize, target_rps: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut at = 0.0f64;
    (0..requests)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            at += -u.ln() / target_rps;
            at
        })
        .collect()
}

/// Drive the open-loop schedule with a closed set of worker threads.
///
/// `progress` is bumped once per completed request — the chaos
/// controller keys its fault windows off it.
pub fn run_open_loop(
    proxy: SocketAddr,
    pinned: &[PinnedPhoto],
    opts: &super::SimulateOpts,
    progress: &AtomicUsize,
) -> WorkloadResult {
    // Precompute everything random so the workload is a pure function
    // of the seed regardless of worker interleaving.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let schedule = arrival_schedule(opts.requests, opts.target_rps, &mut rng);
    let mut photo_zipf = Zipf::new(pinned.len(), opts.zipf_exponent, opts.seed ^ 0x5eed);
    let mut user_zipf = Zipf::new(opts.users, opts.zipf_exponent, opts.seed ^ 0xfeed);
    let plans: Vec<Plan> = (0..opts.requests)
        .map(|i| {
            let user_rank = user_zipf.next_rank();
            if rng.gen_range(0.0..1.0) < opts.read_mix {
                Plan::Read { photo_idx: photo_zipf.next_rank(), user_rank }
            } else {
                Plan::Write { seed: opts.seed ^ (0xD00D + i as u64), user_rank }
            }
        })
        .collect();

    let next = AtomicUsize::new(0);
    let ok_reads = AtomicU64::new(0);
    let ok_writes = AtomicU64::new(0);
    let explicit_errors = AtomicU64::new(0);
    let wrong_data = AtomicU64::new(0);
    let read_lat = Mutex::new(Vec::with_capacity(opts.requests));
    let write_lat = Mutex::new(Vec::with_capacity(opts.requests));
    let start = Instant::now();

    std::thread::scope(|s| {
        for _ in 0..opts.workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= opts.requests {
                    break;
                }
                // Open loop: wait for the scheduled arrival, then
                // charge everything after it — queueing included — to
                // this request's latency.
                let scheduled = Duration::from_secs_f64(schedule[i]);
                if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let outcome = match &plans[i] {
                    Plan::Read { photo_idx, user_rank } => {
                        let photo = &pinned[*photo_idx];
                        let path = format!("/photos/{}?user=u{user_rank}", photo.id);
                        match http_get(proxy, &path) {
                            Ok(resp) if resp.status.is_success() => {
                                if p3_crypto::sha256(&resp.body) == photo.golden {
                                    Outcome::OkRead
                                } else {
                                    Outcome::WrongData
                                }
                            }
                            Ok(_) => Outcome::ExplicitError,
                            Err(_) => Outcome::ExplicitError,
                        }
                    }
                    Plan::Write { seed, user_rank } => {
                        let path = format!("/photos?user=u{user_rank}");
                        match http_post(proxy, &path, "image/jpeg", photo_jpeg(*seed)) {
                            Ok(resp) if resp.status.is_success() => Outcome::OkWrite,
                            Ok(_) => Outcome::ExplicitError,
                            Err(_) => Outcome::ExplicitError,
                        }
                    }
                };
                // Latency from *scheduled* arrival: a worker that fell
                // behind charges its queueing delay to this request
                // (the coordinated-omission-aware measurement).
                let lat_ms = start.elapsed().saturating_sub(scheduled).as_secs_f64() * 1e3;
                match outcome {
                    Outcome::OkRead => {
                        ok_reads.fetch_add(1, Ordering::Relaxed);
                        read_lat.lock().unwrap_or_else(|e| e.into_inner()).push(lat_ms);
                    }
                    Outcome::OkWrite => {
                        ok_writes.fetch_add(1, Ordering::Relaxed);
                        write_lat.lock().unwrap_or_else(|e| e.into_inner()).push(lat_ms);
                    }
                    Outcome::ExplicitError => {
                        explicit_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Outcome::WrongData => {
                        wrong_data.fetch_add(1, Ordering::Relaxed);
                    }
                }
                progress.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    WorkloadResult {
        read_lat_ms: read_lat.into_inner().unwrap_or_else(|e| e.into_inner()),
        write_lat_ms: write_lat.into_inner().unwrap_or_else(|e| e.into_inner()),
        ok_reads: ok_reads.into_inner(),
        ok_writes: ok_writes.into_inner(),
        explicit_errors: explicit_errors.into_inner(),
        wrong_data: wrong_data.into_inner(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

enum Outcome {
    OkRead,
    OkWrite,
    ExplicitError,
    WrongData,
}

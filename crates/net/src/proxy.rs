//! The P3 trusted proxy (paper §4.1, Figure 3).
//!
//! Sits between client applications and the PSP, transparently:
//!
//! * **Upload path** — intercepts `POST /photos` carrying a JPEG, splits
//!   it, forwards only the public part to the PSP, learns the photo ID
//!   the PSP assigned, seals the secret part under a key derived from
//!   (master key, photo ID), and PUTs it to the storage provider under
//!   that ID ("This returns an ID, which is then used to name a file
//!   containing the secret part"). If the storage PUT fails the PSP
//!   upload is rolled back with a `DELETE`, so no orphaned public
//!   (privacy-degraded) photo outlives a failed P3 upload. A JPEG that
//!   does not split (a frame over the decoder's ceiling is 413, an
//!   unsupported feature 422) is refused, never forwarded whole.
//! * **Download path** — intercepts `GET /photos/{id}...`, forwards to
//!   the PSP while *concurrently* fetching the secret blob by ID ("the
//!   proxy downloads the secret part … while waiting for the public
//!   part"), with a sharded local cache ("the proxy can maintain a cache
//!   of downloaded secret parts") and singleflighted storage fetches so
//!   a thundering herd on one photo does one storage GET. It then
//!   estimates what transform the PSP applied, reconstructs via Eq. 2,
//!   and serves the reconstructed JPEG to the application.
//! * Anything else — forwarded untouched; non-P3 photos (no blob in
//!   storage) pass through unmodified. The one exception is
//!   `GET /stats`, the proxy's own instrumentation endpoint (cache,
//!   upstream-pool, and upload/download counters as JSON).
//!
//! Serving architecture: requests arrive on [`crate::server`] (epoll
//! reactors — connection I/O on event loops, handlers on the offload
//! pool). Upstream calls to the PSP and storage are made from the
//! offload worker running the handler, over the [`ClientPool`]'s
//! blocking keep-alive sockets — the same client path the cluster
//! router and the CLI use — so in-flight upstream calls are bounded by
//! [`ServerConfig::workers`]. The secret-part LRU is sharded by
//! photo-ID hash so concurrent downloads contend on independent locks.

use crate::client::ClientPool;
use crate::http::{Method, Request, Response, StatusCode};
use crate::server::{Server, ServerConfig, ServerStats};
use p3_core::container::SecretContainer;
use p3_core::pipeline::P3Codec;
use p3_core::transform::TransformSpec;
use p3_core::P3Error;
use p3_crypto::EnvelopeKey;
use p3_jpeg::JpegError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Chooses the [`TransformSpec`] the PSP most likely applied, given the
/// original and served dimensions. The system example wires this to the
/// reverse-engineering search from `p3-psp`; the default assumes a plain
/// bilinear fit-resize.
pub type TransformEstimator =
    Arc<dyn Fn((usize, usize), (usize, usize)) -> TransformSpec + Send + Sync>;

/// Proxy configuration.
#[derive(Clone)]
pub struct ProxyConfig {
    /// Where the PSP lives.
    pub psp_addr: SocketAddr,
    /// Where the (untrusted) storage provider lives.
    pub storage_addr: SocketAddr,
    /// The out-of-band shared master key.
    pub master_key: Vec<u8>,
    /// Split codec (threshold etc.).
    pub codec: P3Codec,
    /// Transform estimator for the download path.
    pub estimator: TransformEstimator,
    /// Quality for re-encoding reconstructed images served to the app.
    pub reencode_quality: u8,
    /// Maximum number of secret blobs kept in the download cache. A
    /// long-running proxy sees unboundedly many photo IDs, so the cache
    /// evicts least-recently-used entries beyond this limit (0 disables
    /// caching entirely).
    pub secret_cache_capacity: usize,
    /// Number of independently locked shards the secret cache is split
    /// into (keyed by photo-ID hash). More shards mean less lock
    /// contention between concurrent downloads; capacity is divided
    /// evenly across shards.
    pub cache_shards: usize,
    /// Worker-pool sizing and backpressure knobs for the listening
    /// server.
    pub server: ServerConfig,
}

/// Default secret-part cache capacity (entries, not bytes): generous for
/// a browsing session's working set, bounded for a proxy that stays up.
pub const DEFAULT_SECRET_CACHE_CAPACITY: usize = 256;

/// Default secret-cache shard count.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

impl std::fmt::Debug for ProxyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyConfig")
            .field("psp_addr", &self.psp_addr)
            .field("storage_addr", &self.storage_addr)
            .field("codec", &self.codec)
            .field("cache_shards", &self.cache_shards)
            .field("server", &self.server)
            .finish_non_exhaustive()
    }
}

/// Default estimator: identity when dimensions match, otherwise a
/// triangle-filter resize to the served dimensions.
pub fn default_estimator() -> TransformEstimator {
    Arc::new(|orig, served| {
        if orig == served {
            TransformSpec::identity()
        } else {
            TransformSpec::resize(served.0, served.1, p3_vision::resize::ResizeFilter::Triangle)
        }
    })
}

/// Capacity-bounded LRU map for downloaded secret blobs (one shard).
///
/// Recency is tracked with a monotonic clock stamp per entry; eviction
/// scans for the minimum stamp, which is O(len) but only runs on insert
/// at capacity — far off the hot path for any realistic capacity.
#[derive(Debug)]
struct LruCache {
    cap: usize,
    clock: u64,
    /// Blobs are `Arc`-wrapped so a cache hit hands back a refcount bump,
    /// not a full-buffer copy, while the shard lock is held.
    map: HashMap<String, (u64, Arc<Vec<u8>>)>,
}

impl LruCache {
    fn new(cap: usize) -> Self {
        Self { cap, clock: 0, map: HashMap::new() }
    }

    /// Look up a blob, refreshing its recency on hit.
    fn get(&mut self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(stamp, blob)| {
            *stamp = clock;
            Arc::clone(blob)
        })
    }

    /// Insert a blob, evicting the least-recently-used entry at
    /// capacity. Returns true if an entry was evicted.
    fn insert(&mut self, key: String, blob: Arc<Vec<u8>>) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.clock += 1;
        let mut evicted = false;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (self.clock, blob));
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The secret-part cache, sharded by photo-ID hash so concurrent
/// downloads of different photos contend on independent locks instead of
/// the seed's single global mutex.
#[derive(Debug)]
struct ShardedCache {
    shards: Vec<Mutex<LruCache>>,
}

impl ShardedCache {
    /// `capacity` total entries split across `shards` locks (each shard
    /// gets `ceil(capacity / shards)`, so the bound stays within one
    /// entry per shard of the configured total; 0 disables caching).
    fn new(capacity: usize, shards: usize) -> ShardedCache {
        let n = shards.max(1);
        let per_shard = if capacity == 0 { 0 } else { capacity.div_ceil(n) };
        ShardedCache { shards: (0..n).map(|_| Mutex::new(LruCache::new(per_shard))).collect() }
    }

    fn shard(&self, key: &str) -> &Mutex<LruCache> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.shard(key).lock().get(key)
    }

    /// Returns true if the insert evicted an older entry.
    fn insert(&self, key: String, blob: Arc<Vec<u8>>) -> bool {
        self.shard(&key).lock().insert(key, blob)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// Outcome of a secret-blob fetch. The distinction matters: only a
/// definitive "storage has no blob for this ID" may be treated as a
/// non-P3 photo and passed through — a transport failure must surface
/// as an error, or an overloaded storage provider would make the proxy
/// silently serve the privacy-degraded public part as if it were the
/// real photo.
#[derive(Clone)]
enum SecretFetch {
    /// Blob present (from cache or storage).
    Found(Arc<Vec<u8>>),
    /// Storage definitively has no blob under this ID — not a P3 photo.
    NotP3,
    /// Storage unreachable or erroring; existence unknown. Carries the
    /// upstream's `retry-after` hint (if it sent one) so the client's
    /// backoff can follow the storage tier's, not a proxy guess.
    Failed(Option<String>),
}

/// One in-flight secret fetch that duplicate requests wait on.
struct FlightSlot {
    /// `None` while the leader is fetching; `Some(result)` once done.
    result: std::sync::Mutex<Option<SecretFetch>>,
    cv: std::sync::Condvar,
    /// Followers parked on `cv` (instrumentation; lets tests synchronize
    /// on "everyone piled in" without sleeps).
    waiters: AtomicU64,
}

/// Deduplicates concurrent storage fetches per photo ID: the first
/// caller becomes the leader and does the GET, everyone else blocks on
/// the slot's condvar and shares the leader's result — a thundering herd
/// on one fresh photo does exactly one storage round-trip.
#[derive(Default)]
struct SingleFlight {
    inflight: std::sync::Mutex<HashMap<String, Arc<FlightSlot>>>,
}

impl SingleFlight {
    fn run<F>(&self, key: &str, fetch: F) -> SecretFetch
    where
        F: FnOnce() -> SecretFetch,
    {
        let (slot, leader) = {
            let mut m = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match m.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(FlightSlot {
                        result: std::sync::Mutex::new(None),
                        cv: std::sync::Condvar::new(),
                        waiters: AtomicU64::new(0),
                    });
                    m.insert(key.to_string(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            let result = fetch();
            *slot.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(result.clone());
            slot.cv.notify_all();
            self.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(key);
            result
        } else {
            let mut guard = slot.result.lock().unwrap_or_else(|e| e.into_inner());
            slot.waiters.fetch_add(1, Ordering::SeqCst);
            while guard.is_none() {
                guard = slot.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            guard.clone().expect("flight result published before notify")
        }
    }

    /// Followers currently parked on `key`'s flight (0 when no flight).
    #[cfg(test)]
    fn waiting(&self, key: &str) -> u64 {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .map(|s| s.waiters.load(Ordering::SeqCst))
            .unwrap_or(0)
    }
}

/// Counters exposed for tests and instrumentation.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Uploads intercepted and split.
    pub uploads_split: AtomicU64,
    /// Downloads reconstructed.
    pub downloads_reconstructed: AtomicU64,
    /// Downloads passed through (not P3 photos).
    pub downloads_passthrough: AtomicU64,
    /// Secret-cache hits.
    pub cache_hits: AtomicU64,
    /// Secret-cache misses (each triggers a — possibly coalesced —
    /// storage fetch).
    pub cache_misses: AtomicU64,
    /// Secret-cache entries evicted to stay within capacity.
    pub cache_evictions: AtomicU64,
    /// PSP uploads rolled back (`DELETE`) after a failed storage PUT.
    pub upload_rollbacks: AtomicU64,
    /// Videos split and stored (`POST /videos`).
    pub videos_split: AtomicU64,
    /// Single-GOP video fragments served via ranged storage reads.
    pub video_gops_served: AtomicU64,
    /// Whole videos reconstructed and served.
    pub video_fulls_served: AtomicU64,
}

/// Everything a request handler needs, bundled once per proxy. Shared
/// with the sibling [`crate::video`] module, which serves the §4.2
/// video routes off the same upstream pool and config.
pub(crate) struct ProxyCtx {
    pub(crate) cfg: ProxyConfig,
    pub(crate) stats: Arc<ProxyStats>,
    cache: ShardedCache,
    flights: SingleFlight,
    pub(crate) pool: ClientPool,
    /// Serving-tier counters the listening server counts into, so
    /// `/stats` can report them without a back-reference.
    server_stats: Arc<ServerStats>,
}

impl ProxyCtx {
    /// Secret-blob cache lookup (shared between photo and video paths).
    pub(crate) fn cache_get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.cache.get(key)
    }

    /// Secret-blob cache insert; returns true if an entry was evicted.
    pub(crate) fn cache_insert(&self, key: String, blob: Arc<Vec<u8>>) -> bool {
        self.cache.insert(key, blob)
    }
}

/// A running P3 proxy.
pub struct P3Proxy {
    server: Server,
    ctx: Arc<ProxyCtx>,
}

impl P3Proxy {
    /// Start the proxy on an ephemeral local port.
    pub fn spawn(cfg: ProxyConfig) -> std::io::Result<P3Proxy> {
        Self::spawn_on("127.0.0.1:0", cfg)
    }

    /// Start the proxy on an explicit listen address.
    pub fn spawn_on(addr: &str, cfg: ProxyConfig) -> std::io::Result<P3Proxy> {
        let ctx = Arc::new(ProxyCtx {
            stats: Arc::new(ProxyStats::default()),
            cache: ShardedCache::new(cfg.secret_cache_capacity, cfg.cache_shards),
            flights: SingleFlight::default(),
            pool: ClientPool::default(),
            server_stats: Arc::default(),
            cfg,
        });
        let handler_ctx = Arc::clone(&ctx);
        let server = Server::spawn_with_stats(
            addr,
            ctx.cfg.server.clone(),
            Arc::clone(&ctx.server_stats),
            Arc::new(move |req: &Request| handle(req, &handler_ctx)),
        )?;
        Ok(P3Proxy { server, ctx })
    }

    /// Proxy listen address — point the client app here.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.ctx.stats
    }

    /// Serving-tier counters (accepts, 503s, requests).
    pub fn server_stats(&self) -> &ServerStats {
        self.server.stats()
    }

    /// Requests currently being served (instrumentation; lets tests
    /// observe an in-flight request before exercising shutdown).
    pub fn in_flight(&self) -> usize {
        self.server.in_flight()
    }

    /// Current number of cached secret blobs (bounded by
    /// `secret_cache_capacity`, modulo per-shard rounding).
    pub fn secret_cache_len(&self) -> usize {
        self.ctx.cache.len()
    }

    /// Stop the proxy (graceful: drains in-flight requests).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

fn forward(req: &Request, ctx: &ProxyCtx) -> Response {
    let mut fwd = Request::new(req.method, &req.target(), req.body.clone());
    for (k, v) in req.headers.iter() {
        if k != "host" && k != "connection" && k != "content-length" {
            fwd.headers.set(k, v.to_string());
        }
    }
    match ctx.pool.send(ctx.cfg.psp_addr, fwd) {
        Ok(resp) => resp,
        Err(e) => Response::text(StatusCode::BAD_GATEWAY, &format!("upstream: {e}")),
    }
}

fn handle(req: &Request, ctx: &ProxyCtx) -> Response {
    let is_jpeg_upload = req.method == Method::Post
        && req.path == "/photos"
        && req.headers.get("content-type").map(|c| c.contains("image/jpeg")).unwrap_or(false);
    if is_jpeg_upload {
        return handle_upload(req, ctx);
    }
    // `/videos` is proxy-terminated: the PSP never learns about video
    // objects (public + secret + index all live on the storage tier).
    if req.method == Method::Post && req.path == "/videos" {
        return crate::video::handle_video_upload(req, ctx);
    }
    if req.method == Method::Get {
        // `/stats` is the proxy's own instrumentation endpoint, not a
        // PSP path — it is answered locally, never forwarded.
        if req.path == "/stats" {
            return Response::ok("application/json", stats_json(ctx).into_bytes());
        }
        if let Some(id) = crate::video::video_id_from_path(&req.path) {
            return crate::video::handle_video_download(req, &id, ctx);
        }
        if let Some(id) = photo_id_from_path(&req.path) {
            return handle_download(req, &id, ctx);
        }
    }
    forward(req, ctx)
}

/// Render the proxy's counters as the two-level metric JSON shared with
/// the storage tier's `/stats` (read back by
/// [`crate::stats::parse_metric_json`]).
fn stats_json(ctx: &ProxyCtx) -> String {
    let s = &ctx.stats;
    let sv = &ctx.server_stats;
    let ld = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    crate::stats::render_metrics(&[
        (
            "proxy",
            vec![
                ("uploads_split", ld(&s.uploads_split)),
                ("downloads_reconstructed", ld(&s.downloads_reconstructed)),
                ("downloads_passthrough", ld(&s.downloads_passthrough)),
                ("upload_rollbacks", ld(&s.upload_rollbacks)),
                ("videos_split", ld(&s.videos_split)),
                ("video_gops_served", ld(&s.video_gops_served)),
                ("video_fulls_served", ld(&s.video_fulls_served)),
            ],
        ),
        (
            "cache",
            vec![
                ("hits", ld(&s.cache_hits)),
                ("misses", ld(&s.cache_misses)),
                ("evictions", ld(&s.cache_evictions)),
                ("entries", ctx.cache.len() as f64),
            ],
        ),
        (
            "pool",
            vec![("connects", ctx.pool.connects() as f64), ("reuses", ctx.pool.reuses() as f64)],
        ),
        (
            "server",
            vec![
                ("open_connections", ld(&sv.open_connections)),
                ("reactor_threads", ld(&sv.reactor_threads)),
                ("accepted_total", ld(&sv.accepted)),
                ("idle_closed", ld(&sv.idle_closed)),
                ("rejected_503", ld(&sv.rejected_503)),
                ("requests_served", ld(&sv.requests_served)),
            ],
        ),
    ])
}

fn photo_id_from_path(path: &str) -> Option<String> {
    let rest = path.strip_prefix("/photos/")?;
    let id = rest.split('/').next()?;
    (!id.is_empty()).then(|| id.to_string())
}

/// Parse `crop=x,y,w,h` strictly: exactly four comma-separated numeric
/// fields. (The seed filtered out unparsable fields *before* the length
/// check, so a malformed five-field spec like `8,zz,16,64,48` silently
/// parsed as a crop with the wrong geometry.)
fn parse_crop(spec: &str) -> Option<(usize, usize, usize, usize)> {
    let mut parts = spec.split(',');
    let mut vals = [0usize; 4];
    for v in &mut vals {
        *v = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some((vals[0], vals[1], vals[2], vals[3]))
}

fn handle_upload(req: &Request, ctx: &ProxyCtx) -> Response {
    let cfg = &ctx.cfg;
    let stats = &ctx.stats;
    // Split locally. A body offered as a photo that does not split is
    // refused here: forwarded, it would be published whole and in the
    // clear by the one component that exists to prevent that.
    let (public_jpeg, container, _stats) = match cfg.codec.split_jpeg(&req.body) {
        Ok(parts) => parts,
        Err(e) => {
            let status = match e {
                P3Error::Jpeg(JpegError::TooLarge { .. }) => StatusCode::PAYLOAD_TOO_LARGE,
                _ => StatusCode::UNPROCESSABLE,
            };
            return Response::text(status, &format!("not split, nothing sent upstream: {e}"));
        }
    };
    // Upload the public part in place of the original.
    let mut pub_req = Request::new(Method::Post, &req.target(), public_jpeg);
    pub_req.headers.set("content-type", "image/jpeg");
    let psp_resp = match ctx.pool.send(cfg.psp_addr, pub_req) {
        Ok(r) => r,
        Err(e) => return Response::text(StatusCode::BAD_GATEWAY, &format!("psp: {e}")),
    };
    if !psp_resp.status.is_success() {
        return psp_resp;
    }
    // The PSP's response body is the assigned photo ID.
    let id = String::from_utf8_lossy(&psp_resp.body).trim().to_string();
    if id.is_empty() {
        return Response::text(StatusCode::BAD_GATEWAY, "psp returned empty photo id");
    }
    let key = EnvelopeKey::derive(&cfg.master_key, id.as_bytes());
    let blob = container.seal(&key);
    let put_err = match ctx.pool.put(
        cfg.storage_addr,
        &format!("/blobs/{id}"),
        "application/octet-stream",
        blob,
    ) {
        Ok(r) if r.status.is_success() => None,
        Ok(r) => Some(format!("storage: {}", r.status.0)),
        Err(e) => Some(format!("storage: {e}")),
    };
    if let Some(err) = put_err {
        // The public (privacy-degraded) part is already on the PSP but
        // its secret half is lost: without a rollback the photo would
        // stay published in exactly the state P3 exists to prevent.
        // Best-effort DELETE; the client sees 502 either way and can
        // retry the whole upload.
        let _ = ctx.pool.delete(cfg.psp_addr, &format!("/photos/{id}"));
        stats.upload_rollbacks.fetch_add(1, Ordering::Relaxed);
        return Response::text(StatusCode::BAD_GATEWAY, &err);
    }
    stats.uploads_split.fetch_add(1, Ordering::Relaxed);
    psp_resp
}

/// Fetch the secret blob for `id` after a cache miss: singleflighted so
/// concurrent misses on one ID share a single storage GET.
fn fetch_secret_uncached(id: &str, ctx: &ProxyCtx) -> SecretFetch {
    ctx.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    ctx.flights.run(id, || {
        // Double-check the cache under the flight: we may have raced a
        // just-completed fetch that already populated it.
        if let Some(blob) = ctx.cache.get(id) {
            return SecretFetch::Found(blob);
        }
        match ctx.pool.get(ctx.cfg.storage_addr, &format!("/blobs/{id}")) {
            Ok(r) if r.status.is_success() => {
                let blob = Arc::new(r.body);
                if ctx.cache.insert(id.to_string(), Arc::clone(&blob)) {
                    ctx.stats.cache_evictions.fetch_add(1, Ordering::Relaxed);
                }
                SecretFetch::Found(blob)
            }
            Ok(r) if r.status == StatusCode::NOT_FOUND => SecretFetch::NotP3,
            // 5xx or unexpected statuses: existence unknown, must not
            // be mistaken for "not a P3 photo". A sub-quorum storage
            // tier answers 503 + retry-after; keep its backoff hint.
            Ok(r) => SecretFetch::Failed(r.headers.get("retry-after").map(str::to_string)),
            // Transport errors carry no upstream hint.
            Err(_) => SecretFetch::Failed(None),
        }
    })
}

fn handle_download(req: &Request, id: &str, ctx: &ProxyCtx) -> Response {
    let cfg = &ctx.cfg;
    let stats = &ctx.stats;
    // Secret blob and PSP response, fetched concurrently as the paper
    // specifies (§4.1). A cache hit skips the extra thread entirely; on
    // a miss the storage GET overlaps the PSP round-trip.
    let (psp_resp, fetch) = match ctx.cache.get(id) {
        Some(blob) => {
            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            (forward(req, ctx), SecretFetch::Found(blob))
        }
        None => std::thread::scope(|s| {
            let fetch = s.spawn(|| fetch_secret_uncached(id, ctx));
            let psp_resp = forward(req, ctx);
            (psp_resp, fetch.join().unwrap_or(SecretFetch::Failed(None)))
        }),
    };
    if !psp_resp.status.is_success()
        || !psp_resp.headers.get("content-type").map(|c| c.contains("image/jpeg")).unwrap_or(false)
    {
        return psp_resp;
    }
    let blob = match fetch {
        SecretFetch::Found(blob) => blob,
        SecretFetch::NotP3 => {
            // Not a P3 photo — transparent passthrough.
            stats.downloads_passthrough.fetch_add(1, Ordering::Relaxed);
            return psp_resp;
        }
        SecretFetch::Failed(retry_after) => {
            // Serving the degraded public part as if it were the photo
            // would silently hand every client the wrong image; fail
            // loudly and let them retry — on the storage tier's own
            // backoff hint when it gave one.
            let mut resp =
                Response::text(StatusCode::BAD_GATEWAY, "secret part temporarily unavailable");
            resp.headers.set("retry-after", retry_after.as_deref().unwrap_or("1"));
            return resp;
        }
    };
    let key = EnvelopeKey::derive(&cfg.master_key, id.as_bytes());
    let reconstructed = (|| -> p3_core::Result<Vec<u8>> {
        let container = SecretContainer::open(&blob, &key)?;
        let served = p3_jpeg::decode_to_rgb(&psp_resp.body)?;
        let orig = (container.width as usize, container.height as usize);
        // Dynamic crops advertise their geometry in the URL (paper §4.1:
        // "the cropping geometry … encoded in the HTTP get URL, so the
        // proxy is able to determine those parameters").
        let crop = req.query_param("crop").and_then(parse_crop);
        let transform = match crop {
            Some((x, y, w, h)) if (w, h) == (served.width, served.height) => {
                TransformSpec { crop: Some((x, y, w, h)), ..TransformSpec::identity() }
            }
            _ => (cfg.estimator)(orig, (served.width, served.height)),
        };
        let (secret, _) = p3_jpeg::decode_to_coeffs(&container.jpeg)?;
        let rgb = p3_core::reconstruct::reconstruct_processed(
            &served,
            &secret,
            container.threshold,
            &transform,
        )?;
        Ok(p3_jpeg::Encoder::new()
            .quality(cfg.reencode_quality)
            .subsampling(p3_jpeg::Subsampling::S444)
            .encode_rgb(&rgb)?)
    })();
    match reconstructed {
        Ok(jpeg) => {
            stats.downloads_reconstructed.fetch_add(1, Ordering::Relaxed);
            Response::ok("image/jpeg", jpeg)
        }
        Err(e) => Response::text(StatusCode::INTERNAL, &format!("reconstruction failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photo_id_extraction() {
        assert_eq!(photo_id_from_path("/photos/42"), Some("42".into()));
        assert_eq!(photo_id_from_path("/photos/abc/sizes/big"), Some("abc".into()));
        assert_eq!(photo_id_from_path("/photos/"), None);
        assert_eq!(photo_id_from_path("/other/42"), None);
    }

    #[test]
    fn crop_parsing() {
        assert_eq!(parse_crop("8,16,64,48"), Some((8, 16, 64, 48)));
        assert_eq!(parse_crop("0,0,1,1"), Some((0, 0, 1, 1)));
        assert_eq!(parse_crop("8,16,64"), None);
        assert_eq!(parse_crop("a,b,c,d"), None);
    }

    #[test]
    fn malformed_crop_specs_rejected() {
        // The seed's filter-before-length-check bug made all of these
        // parse as a (wrong) 4-tuple; strict parsing must reject them.
        assert_eq!(parse_crop("8,zz,16,64,48"), None, "non-numeric field among five");
        assert_eq!(parse_crop("8,16,64,48,100"), None, "five numeric fields");
        assert_eq!(parse_crop("8,16,64,48,"), None, "trailing comma");
        assert_eq!(parse_crop(",8,16,64,48"), None, "leading comma");
        assert_eq!(parse_crop("8,,16,64,48"), None, "empty field");
        assert_eq!(parse_crop("8, 16,64,48"), None, "embedded whitespace");
        assert_eq!(parse_crop("8,16,64,-48"), None, "negative field");
        assert_eq!(parse_crop(""), None, "empty spec");
    }

    #[test]
    fn lru_caps_and_evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        assert!(!lru.insert("a".into(), Arc::new(vec![1])));
        assert!(!lru.insert("b".into(), Arc::new(vec![2])));
        assert_eq!(lru.len(), 2);
        // Touch "a" so "b" becomes the eviction candidate.
        assert_eq!(lru.get("a").as_deref(), Some(&vec![1]));
        assert!(lru.insert("c".into(), Arc::new(vec![3])), "insert at capacity must evict");
        assert_eq!(lru.len(), 2);
        assert!(lru.get("b").is_none(), "LRU entry must be evicted");
        assert_eq!(lru.get("a").as_deref(), Some(&vec![1]));
        assert_eq!(lru.get("c").as_deref(), Some(&vec![3]));
    }

    #[test]
    fn lru_reinsert_same_key_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert("a".into(), Arc::new(vec![1]));
        lru.insert("b".into(), Arc::new(vec![2]));
        assert!(!lru.insert("a".into(), Arc::new(vec![9])), "refresh, not a new entry");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get("a").as_deref(), Some(&vec![9]));
        assert_eq!(lru.get("b").as_deref(), Some(&vec![2]));
    }

    #[test]
    fn lru_zero_capacity_disables_caching() {
        let mut lru = LruCache::new(0);
        lru.insert("a".into(), Arc::new(vec![1]));
        assert_eq!(lru.len(), 0);
        assert!(lru.get("a").is_none());
    }

    #[test]
    fn sharded_cache_roundtrip_and_bound() {
        let cache = ShardedCache::new(16, 4);
        for i in 0..100 {
            cache.insert(format!("photo-{i}"), Arc::new(vec![i as u8]));
        }
        // Per-shard bound is ceil(16/4) = 4, so the total can never
        // exceed 16 no matter how keys hash.
        assert!(cache.len() <= 16, "cache grew to {} entries", cache.len());
        assert!(cache.len() >= 4, "at least one shard must be full");
        // Fresh inserts are retrievable.
        cache.insert("hot".into(), Arc::new(vec![42]));
        assert_eq!(cache.get("hot").as_deref(), Some(&vec![42]));
    }

    #[test]
    fn sharded_cache_zero_capacity_disables_caching() {
        let cache = ShardedCache::new(0, 4);
        cache.insert("a".into(), Arc::new(vec![1]));
        assert_eq!(cache.len(), 0);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn singleflight_coalesces_concurrent_fetches() {
        let flights = SingleFlight::default();
        let fetches = AtomicU64::new(0);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Deterministic leader: its fetch signals entry, then holds
            // the flight open until all 7 followers are parked on the
            // condvar (observable via the waiter count).
            let leader = s.spawn(|| {
                flights.run("id", || {
                    fetches.fetch_add(1, Ordering::SeqCst);
                    entered_tx.send(()).unwrap();
                    while flights.waiting("id") < 7 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    SecretFetch::Found(Arc::new(vec![7]))
                })
            });
            // Only spawn followers once the flight is registered, so
            // every one of them is guaranteed to join it.
            entered_rx.recv().unwrap();
            let followers: Vec<_> = (0..7)
                .map(|_| {
                    s.spawn(|| {
                        flights.run("id", || {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            SecretFetch::Found(Arc::new(vec![0]))
                        })
                    })
                })
                .collect();
            let blob_of = |f: SecretFetch| match f {
                SecretFetch::Found(b) => b,
                _ => panic!("expected a found blob"),
            };
            assert_eq!(*blob_of(leader.join().unwrap()), vec![7]);
            for f in followers {
                assert_eq!(*blob_of(f.join().unwrap()), vec![7], "followers share the result");
            }
        });
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "only the leader may fetch");
    }

    #[test]
    fn singleflight_reruns_after_completion() {
        let flights = SingleFlight::default();
        let fetches = AtomicU64::new(0);
        for _ in 0..3 {
            flights.run("id", || {
                fetches.fetch_add(1, Ordering::SeqCst);
                SecretFetch::Failed(None)
            });
        }
        assert_eq!(fetches.load(Ordering::SeqCst), 3, "sequential runs are not coalesced");
    }

    // End-to-end proxy behaviour is exercised in the workspace
    // integration tests (tests/system_e2e.rs, tests/proxy_load.rs)
    // against the PSP simulator.
}

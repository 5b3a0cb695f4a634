#![warn(missing_docs)]

//! # p3-storage — the untrusted blob storage tier
//!
//! P3's security argument deliberately does *not* trust the storage
//! provider holding the encrypted secret parts ("Because the secret part
//! is encrypted, we do not assume that the storage provider is trusted",
//! §3 — the paper used Dropbox). This crate is that tier, grown from the
//! seed's single in-process `HashMap` into a pluggable subsystem:
//!
//! * [`StorageBackend`] — the trait every blob store implements
//!   (`put`/`get`/`delete`/`len`/`stats`);
//! * [`MemBackend`] — sharded in-memory store holding [`Arc<[u8]>`]
//!   blobs, so a get hands back a refcount bump instead of cloning a
//!   megabyte blob under the shard mutex;
//! * [`PackedBackend`] — the durable store, a Haystack-style packed
//!   needle log: blobs append to rolling CRC-framed segments, a
//!   group-commit writer batches concurrent puts into one shared fsync,
//!   recovery is a sequential segment scan that truncates a torn final
//!   needle, a truncated or bit-rotted needle reads as a detected
//!   corrupt error (never garbage, never a miss), tombstone needles
//!   make deletes durable facts, and a background [`Compactor`]
//!   rewrites mostly-dead segments to reclaim space;
//! * [`ClusterBackend`] — a client-side router over N storage nodes:
//!   consistent hashing with virtual nodes, replication factor R,
//!   quorum writes, first-healthy-replica reads with read-repair,
//!   per-node health/ejection so reads survive a node failure, plus an
//!   epoch-numbered dynamic membership table and one convergence pass
//!   — run by every membership change before it switches, and by the
//!   background anti-entropy sweep — that streams each blob to the
//!   replicas lacking it (re-owned blobs to their new owners, cold
//!   blobs to a node that returned empty).
//!
//! [`StorageCore`] wraps any backend with the serving instrumentation
//! (read counter). A misbehaving provider is a [`FaultBackend`] around
//! the real one — it flips one byte of every served blob (the
//! envelope-MAC tests prove tampering is detected regardless of which
//! backend served the bytes) or refuses writes like a full disk.
//! [`StorageService`] puts the core behind the
//! `PUT/GET/DELETE /blobs/{id}` HTTP surface the proxy speaks, plus
//! `GET /stats` (JSON counters), `GET /len` (plain blob count, used by
//! the cluster router's size estimate), `GET /index` (paginated
//! hex-encoded blob-ID listing the cluster's convergence pass walks), and
//! `GET`/`POST /admin/membership` (the cluster's membership table).

pub mod cluster;
mod compact;
pub mod fault;
pub mod log;
pub mod mem;
pub mod needle;
pub mod ring;

pub use cluster::{ClusterBackend, ClusterConfig, Sweeper};
pub use compact::{compact_once, CompactReport, Compactor};
pub use fault::FaultBackend;
pub use log::{PackedBackend, PackedConfig};
pub use mem::MemBackend;
pub use needle::crc32;
pub use ring::HashRing;

use p3_net::stats::render_metrics;
use p3_net::{Method, Request, Response, Server, ServerConfig, ServerStats, StatusCode};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Failures a backend can surface. The distinction between "definitely
/// no such blob" (`Ok(None)` from [`StorageBackend::get`]) and "could
/// not find out" (`Err`) is load-bearing: the proxy treats the former as
/// a non-P3 photo and passes the download through, while the latter must
/// fail loudly or an outage would silently serve privacy-degraded
/// public parts as if they were real photos.
#[derive(Debug)]
pub enum StorageError {
    /// Filesystem or socket failure.
    Io(std::io::Error),
    /// Not enough healthy replicas to answer definitively (cluster).
    Unavailable(String),
    /// The blob exists but its bytes failed integrity verification
    /// (at-rest CRC on disk, wire CRC at the cluster router). Distinct
    /// from a miss on purpose: a corrupt replica answering an
    /// authoritative 404 while its sibling is down would meet the miss
    /// quorum and turn rot into a silent false definitive miss — the
    /// exact wrong-data path the tier exists to close.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io: {e}"),
            StorageError::Unavailable(m) => write!(f, "storage unavailable: {m}"),
            StorageError::Corrupt(m) => write!(f, "storage corrupt: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Declares the backend counter set exactly once: from this one table
/// come [`BackendStats`]' public fields, its [`BackendStats::fields`]
/// listing (what `/stats` renders), the atomic `StatCounters` the
/// backends bump, `StatCounters::snapshot`, and for `name => bump` rows
/// the `StatCounters::bump()` that adds one — so a counter cannot be
/// declared and then silently miss from `/stats`.
macro_rules! backend_counters {
    ($($(#[$doc:meta])* $name:ident $(=> $bump:ident)?,)*) => {
        /// Snapshot of a backend's operation counters. Which fields move
        /// depends on the backend: `corrupt_reads` is disk-only, the
        /// replication fields are cluster-only; the rest are universal.
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct BackendStats {
            $($(#[$doc])* pub $name: u64,)*
            /// Cluster: current membership epoch (bumps on every
            /// add/remove-node admin operation; starts at 1). Not a
            /// counter: the cluster backend stamps the live epoch into
            /// its snapshot; other backends report 0.
            pub membership_epoch: u64,
        }

        impl BackendStats {
            /// Flat `(name, value)` view for stats endpoints and benches.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((stringify!($name), self.$name),)*
                    ("membership_epoch", self.membership_epoch),
                ]
            }
        }

        /// Internal atomic counterpart of [`BackendStats`], shared by the
        /// backend implementations in this crate.
        #[derive(Debug, Default)]
        pub(crate) struct StatCounters {
            $($name: AtomicU64,)*
        }

        impl StatCounters {
            pub(crate) fn snapshot(&self) -> BackendStats {
                BackendStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    membership_epoch: 0,
                }
            }

            $($(pub(crate) fn $bump(&self) {
                self.$name.fetch_add(1, Ordering::Relaxed);
            })?)*
        }
    };
}

backend_counters! {
    /// Blobs written.
    puts,
    /// Blob reads attempted (hit or miss).
    gets,
    /// Blobs deleted.
    deletes => delete,
    /// Reads that found no blob.
    misses,
    /// Payload bytes written.
    bytes_written,
    /// Payload bytes read.
    bytes_read,
    /// Disk: reads rejected because the on-disk file was truncated or
    /// failed its CRC (surfaced as a corrupt error, never as garbage
    /// and never as a definitive miss).
    corrupt_reads => corrupt_read,
    /// Cluster: replica answers rejected by end-to-end integrity
    /// verification — a wire-CRC mismatch or a node reporting its own
    /// copy corrupt. Each reject excludes that answer from quorum and
    /// marks the replica for read-repair.
    integrity_rejects => integrity_reject,
    /// Cluster: backoff windows scheduled against failing nodes (first
    /// ejections plus each jittered-exponential escalation).
    backoffs => backoff,
    /// Cluster: stale/missing replicas rewritten during reads.
    read_repairs => read_repair,
    /// Cluster: individual node requests that failed.
    node_failures => node_failure,
    /// Cluster: nodes ejected by the health tracker.
    nodes_ejected => node_ejected,
    /// Cluster: writes that reached some but not all replicas (quorum
    /// still met, or the put failed entirely).
    partial_writes => partial_write,
    /// Cluster: copies the convergence pass streamed on behalf of a
    /// membership change.
    rebalanced_blobs => rebalanced_blob,
    /// Cluster: copies the convergence pass streamed on behalf of the
    /// anti-entropy sweep.
    sweep_repairs => sweep_repair,
    /// Cluster: anti-entropy sweep passes completed.
    sweep_runs => sweep_run,
    /// Packed store: shared fsync batches issued by the group-commit
    /// writer. `puts / group_commits` is the effective batching factor.
    group_commits => group_commit,
    /// Packed store: segments rewritten (or dropped outright) by the
    /// compactor.
    compactions,
    /// Packed store: bytes of segment files unlinked by compaction.
    reclaimed_bytes,
    /// Cluster: deletes pushed to replicas holding a stale live copy
    /// (by the convergence pass, or a read that saw a tombstone).
    tombstone_propagations => tombstone_propagation,
}

impl StatCounters {
    pub(crate) fn put(&self, bytes: usize) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn get_hit(&self, bytes: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn get_miss(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn compaction(&self, segments: u64, bytes: u64) {
        self.compactions.fetch_add(segments, Ordering::Relaxed);
        self.reclaimed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Snapshot of a cluster's membership table: the epoch (bumped by every
/// admin change) and the node list it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotonic change counter; the initial topology is epoch 1.
    pub epoch: u64,
    /// Member node addresses (ring identity = the address string).
    pub nodes: Vec<std::net::SocketAddr>,
}

impl MembershipView {
    /// Render as the JSON the `/admin/membership` route serves.
    /// `rebalanced_blobs` is the copies streamed by the change that
    /// produced this view — `None` (field omitted) when the view is a
    /// plain inspection rather than a change response.
    pub fn to_json(&self, rebalanced_blobs: Option<u64>) -> String {
        let nodes: Vec<String> = self.nodes.iter().map(|n| format!("\"{n}\"")).collect();
        let rebalanced =
            rebalanced_blobs.map(|n| format!("\"rebalanced_blobs\": {n}, ")).unwrap_or_default();
        format!("{{\"epoch\": {}, {rebalanced}\"nodes\": [{}]}}\n", self.epoch, nodes.join(", "))
    }
}

/// Result of one membership admin operation.
#[derive(Debug, Clone)]
pub struct MembershipChange {
    /// Membership after the change.
    pub view: MembershipView,
    /// Copies the change's convergence pass streamed.
    pub rebalanced_blobs: u64,
}

/// A blob store the P3 system can put secret parts into. All methods are
/// callable concurrently; blobs are immutable once written (a re-`put`
/// of the same ID replaces the blob wholesale).
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Backend kind for logs and stats headers (`"mem"`, `"packed"`,
    /// `"cluster"`).
    fn kind(&self) -> &'static str;

    /// Store (or replace) a blob.
    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()>;

    /// Fetch a blob. `Ok(None)` means *definitively absent*; transport
    /// or quorum failures must surface as `Err`, never as `None`.
    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>>;

    /// Remove a blob; `Ok(true)` if it existed.
    fn delete(&self, id: &str) -> StorageResult<bool>;

    /// Number of blobs held (cluster: a healthy-node estimate).
    fn len(&self) -> usize;

    /// True when no blobs are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One sorted page of blob IDs strictly after `after` (exclusive
    /// cursor; `None` starts from the beginning), at most `limit` long.
    /// Backends that physically hold blobs (mem, packed) implement this;
    /// it powers the `GET /index` route the cluster's convergence pass
    /// walks. The default declines.
    fn list_ids(&self, _after: Option<&str>, _limit: usize) -> StorageResult<Vec<String>> {
        Err(StorageError::Unavailable(format!("{} backend does not list ids", self.kind())))
    }

    /// True when `id` has been durably deleted (a tombstone exists).
    /// Distinct from "never stored here": a tombstoned ID is a
    /// *definitive* 404 that read-repair and anti-entropy must honour,
    /// while a plain miss is merely "this replica doesn't have it".
    /// Backends without tombstones report `false` for everything.
    fn deleted(&self, _id: &str) -> StorageResult<bool> {
        Ok(false)
    }

    /// One sorted page of tombstoned blob IDs, same cursor contract as
    /// [`StorageBackend::list_ids`]. Powers `GET /tombstones`, which
    /// the cluster's convergence pass walks to propagate deletes.
    /// Backends without tombstones report none.
    fn list_tombstones(&self, _after: Option<&str>, _limit: usize) -> StorageResult<Vec<String>> {
        Ok(Vec::new())
    }

    /// Current membership table, for backends with a dynamic topology
    /// (the cluster router). `None` for single-store backends.
    fn membership(&self) -> Option<MembershipView> {
        None
    }

    /// Apply a membership change (add then remove, one epoch bump) and
    /// rebalance. Only the cluster router supports this; the default
    /// declines.
    fn update_membership(
        &self,
        _add: &[std::net::SocketAddr],
        _remove: &[std::net::SocketAddr],
    ) -> StorageResult<MembershipChange> {
        Err(StorageError::Unavailable(format!("{} backend has no cluster membership", self.kind())))
    }

    /// Operation counters since startup.
    fn stats(&self) -> BackendStats;
}

/// The storage provider core: any [`StorageBackend`] plus the serving
/// instrumentation.
#[derive(Debug)]
pub struct StorageCore {
    backend: Arc<dyn StorageBackend>,
    /// Blob reads served (hit or miss) — lets tests assert the proxy's
    /// cache and singleflight actually suppress redundant fetches.
    gets: AtomicU64,
}

impl Default for StorageCore {
    fn default() -> Self {
        Self::new()
    }
}

impl StorageCore {
    /// Empty in-memory store (the seed's behaviour).
    pub fn new() -> Self {
        Self::with_backend(Arc::new(MemBackend::new()))
    }

    /// Core over an explicit backend.
    pub fn with_backend(backend: Arc<dyn StorageBackend>) -> Self {
        Self { backend, gets: AtomicU64::new(0) }
    }

    /// The backend behind this core.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Store a blob.
    pub fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        self.backend.put(id, data)
    }

    /// Fetch a blob: an `Arc` clone, not a copy of the bytes.
    pub fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.backend.get(id)
    }

    /// Remove a blob; true if it existed.
    pub fn delete(&self, id: &str) -> StorageResult<bool> {
        self.backend.delete(id)
    }

    /// Number of blobs held.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// One sorted page of blob IDs (see [`StorageBackend::list_ids`]).
    pub fn list_ids(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        self.backend.list_ids(after, limit)
    }

    /// True when `id` is durably tombstoned (see
    /// [`StorageBackend::deleted`]).
    pub fn deleted(&self, id: &str) -> StorageResult<bool> {
        self.backend.deleted(id)
    }

    /// One sorted page of tombstoned IDs (see
    /// [`StorageBackend::list_tombstones`]).
    pub fn list_tombstones(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        self.backend.list_tombstones(after, limit)
    }

    /// Number of blob reads served since startup.
    pub fn get_count(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// `/stats` JSON: front-end counters, the backend's, and those of
    /// the server the core answers on.
    fn stats_json(&self, server: &ServerStats) -> String {
        let front = vec![("gets", self.get_count() as f64), ("blobs", self.len() as f64)];
        let floats = |fields: Vec<(&'static str, u64)>| -> Vec<(&'static str, f64)> {
            fields.into_iter().map(|(k, v)| (k, v as f64)).collect()
        };
        render_metrics(&[
            ("storage", front),
            ("backend", floats(self.backend.stats().fields())),
            ("server", floats(server.fields())),
        ])
    }
}

/// HTTP front-end: `PUT/GET/DELETE /blobs/{id}`, `GET /stats`,
/// `GET /len`, `GET /index` (paginated ID listing), and
/// `GET`/`POST /admin/membership` (cluster admin).
pub struct StorageService {
    server: Server,
    core: Arc<StorageCore>,
}

impl StorageService {
    /// Start an in-memory store on an ephemeral port.
    pub fn spawn() -> std::io::Result<StorageService> {
        Self::spawn_with(Arc::new(StorageCore::new()))
    }

    /// Start a service over an existing core on an ephemeral port.
    pub fn spawn_with(core: Arc<StorageCore>) -> std::io::Result<StorageService> {
        Self::spawn_on("127.0.0.1:0", ServerConfig::default(), core)
    }

    /// Start a service over an existing core on an explicit address: the
    /// one way a storage node or router is served, `p3 storage` included.
    pub fn spawn_on(
        addr: &str,
        cfg: ServerConfig,
        core: Arc<StorageCore>,
    ) -> std::io::Result<StorageService> {
        let stats = Arc::new(ServerStats::default());
        let (c, s) = (Arc::clone(&core), Arc::clone(&stats));
        let handler = Arc::new(move |req: &Request| handle_http(&c, &s, req));
        let server = Server::spawn_with_stats(addr, cfg, stats, handler)?;
        Ok(StorageService { server, core })
    }

    /// Respawn a service on a specific just-freed address, retrying
    /// briefly (up to ~2 s) while the OS releases the port — the
    /// restart-in-place move the crash-recovery tests, the availability
    /// and elasticity drills, and operational node replacement all use.
    pub fn respawn_on(
        addr: std::net::SocketAddr,
        core: Arc<StorageCore>,
    ) -> std::io::Result<StorageService> {
        let mut last_err = None;
        for _ in 0..100 {
            match Self::spawn_on(&addr.to_string(), ServerConfig::default(), Arc::clone(&core)) {
                Ok(svc) => return Ok(svc),
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("respawn retries exhausted")))
    }

    /// Listen address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The in-process core.
    pub fn core(&self) -> &Arc<StorageCore> {
        &self.core
    }

    /// Stop serving.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Route one HTTP request against a [`StorageCore`] served on a server
/// counting into `server`.
fn handle_http(core: &StorageCore, server: &ServerStats, req: &Request) -> Response {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/stats") => {
            let mut resp = Response::ok("application/json", core.stats_json(server).into_bytes());
            resp.headers.set("x-p3-backend", core.backend().kind());
            resp
        }
        (Method::Get, "/len") => Response::text(StatusCode::OK, &core.len().to_string()),
        (Method::Get, "/index") => handle_id_page(req, |after, limit| core.list_ids(after, limit)),
        (Method::Get, "/tombstones") => {
            handle_id_page(req, |after, limit| core.list_tombstones(after, limit))
        }
        (Method::Get, "/admin/membership") => match core.backend().membership() {
            Some(view) => Response::ok("application/json", view.to_json(None).into_bytes()),
            None => Response::text(StatusCode::NOT_FOUND, "backend has no cluster membership"),
        },
        (Method::Post, "/admin/membership") => handle_membership(core, req),
        _ => handle_blob(core, req),
    }
}

/// Default and maximum `GET /index` page sizes. IDs go over the wire
/// hex-encoded (one per line) so arbitrary ID bytes can't corrupt the
/// line protocol; hex is order-preserving, so the `after` cursor is
/// simply the last line of the previous page.
const INDEX_DEFAULT_PAGE: usize = 512;
const INDEX_MAX_PAGE: usize = 4096;

/// Lowercase-hex encoding of an ID's bytes. Order-preserving
/// (`hex(a) < hex(b)` iff `a < b` bytewise), which the paginated
/// `/index` route relies on for its `after` cursor. Table-driven: this
/// runs once per ID per index page, so it must not allocate per byte.
fn hex_encode(id: &str) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(id.len() * 2);
    for b in id.bytes() {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0x0F)] as char);
    }
    out
}

pub(crate) fn hex_decode(hex: &str) -> Option<String> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for chunk in hex.as_bytes().chunks(2) {
        let s = std::str::from_utf8(chunk).ok()?;
        bytes.push(u8::from_str_radix(s, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

/// One page of `GET /index` (blob IDs) or `GET /tombstones` (its
/// deleted-ID companion, which the anti-entropy sweep walks on every
/// member to learn about deletes it must propagate; backends without
/// tombstones serve empty pages): hex IDs one per line, paged by an
/// exclusive `after` cursor.
fn handle_id_page(
    req: &Request,
    list: impl FnOnce(Option<&str>, usize) -> StorageResult<Vec<String>>,
) -> Response {
    let after = match req.query_param("after") {
        None => None,
        Some(hex) => match hex_decode(hex) {
            Some(id) => Some(id),
            None => return Response::text(StatusCode::BAD_REQUEST, "after must be hex"),
        },
    };
    let limit = req
        .query_param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(INDEX_DEFAULT_PAGE)
        .clamp(1, INDEX_MAX_PAGE);
    match list(after.as_deref(), limit) {
        Ok(ids) => {
            let mut body = String::new();
            for id in &ids {
                body.push_str(&hex_encode(id));
                body.push('\n');
            }
            let mut resp = Response::ok("text/plain", body.into_bytes());
            resp.headers.set("x-p3-index-count", ids.len().to_string());
            resp
        }
        Err(e) => unavailable(&e),
    }
}

/// `POST /admin/membership` body: one `add <addr>` or `remove <addr>`
/// per line, all applied as a single epoch bump once the blobs it moves
/// are copied — or not at all (503, membership unchanged).
fn handle_membership(core: &StorageCore, req: &Request) -> Response {
    let body = String::from_utf8_lossy(&req.body);
    let mut add = Vec::new();
    let mut remove = Vec::new();
    for line in body.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => return Response::text(StatusCode::BAD_REQUEST, "want: add|remove <addr>"),
        };
        let addr =
            match std::net::ToSocketAddrs::to_socket_addrs(rest).ok().and_then(|mut a| a.next()) {
                Some(a) => a,
                None => {
                    return Response::text(
                        StatusCode::BAD_REQUEST,
                        &format!("unresolvable address {rest:?}"),
                    )
                }
            };
        match verb {
            "add" => add.push(addr),
            "remove" => remove.push(addr),
            other => {
                return Response::text(StatusCode::BAD_REQUEST, &format!("unknown op {other:?}"))
            }
        }
    }
    if add.is_empty() && remove.is_empty() {
        return Response::text(StatusCode::BAD_REQUEST, "empty membership change");
    }
    match core.backend().update_membership(&add, &remove) {
        Ok(change) => {
            let mut resp = Response::ok(
                "application/json",
                change.view.to_json(Some(change.rebalanced_blobs)).into_bytes(),
            );
            resp.headers.set("x-p3-membership-epoch", change.view.epoch.to_string());
            resp.headers.set("x-p3-rebalanced-blobs", change.rebalanced_blobs.to_string());
            resp
        }
        Err(e) => unavailable(&e),
    }
}

fn handle_blob(core: &StorageCore, req: &Request) -> Response {
    let Some(id) = req.path.strip_prefix("/blobs/").filter(|s| !s.is_empty()) else {
        return Response::text(StatusCode::NOT_FOUND, "unknown endpoint");
    };
    match req.method {
        Method::Put | Method::Post => match core.put(id, &req.body) {
            Ok(()) => {
                // Echo the CRC of what was *received* so the writer can
                // detect an upload corrupted in flight (ack ≠ sent ⇒ the
                // stored copy is rot, treat the write as failed).
                let mut resp = Response::text(StatusCode::CREATED, "stored");
                resp.headers.set("x-p3-crc32", format!("{:08x}", crc32(&req.body)));
                resp
            }
            Err(e) => unavailable(&e),
        },
        Method::Get => match core.get(id) {
            // Range is applied at the HTTP layer over the fully-fetched
            // blob: the CRC check (disk) sees whole blobs, and a ranged
            // read of a corrupt blob is still a detected error, never a
            // sliced-garbage 206. The wire CRC always
            // covers the *full* blob (readers of a 206 slice can't check
            // it directly; the cluster router reads unranged).
            Ok(Some(data)) => {
                let mut resp = Response::ok("application/octet-stream", data.to_vec());
                resp.headers.set("x-p3-crc32", format!("{:08x}", crc32(&data)));
                p3_net::apply_range(req, resp)
            }
            // A tombstoned miss is marked so the cluster router can tell
            // "durably deleted" (a definitive answer that must also stop
            // read-repair resurrecting the blob) from "this replica just
            // doesn't have it".
            Ok(None) => tombstone_aware_404(core, id),
            Err(e) => unavailable(&e),
        },
        Method::Delete => match core.delete(id) {
            Ok(true) => Response::text(StatusCode::OK, "deleted"),
            Ok(false) => tombstone_aware_404(core, id),
            Err(e) => unavailable(&e),
        },
    }
}

/// A 404 that carries `x-p3-tombstone: 1` when the miss is actually a
/// durable delete. Errors probing the tombstone state degrade to a
/// plain 404 — the header is an optimisation for the cluster router,
/// not a correctness gate for plain clients.
fn tombstone_aware_404(core: &StorageCore, id: &str) -> Response {
    let mut resp = Response::text(StatusCode::NOT_FOUND, "no such blob");
    if core.deleted(id).unwrap_or(false) {
        resp.headers.set("x-p3-tombstone", "1");
    }
    resp
}

/// Backend failure → `503`, never `404`: the proxy must see "could not
/// find out", not "definitively absent" (which it would pass through as
/// a non-P3 photo). A corrupt local copy is additionally marked with
/// `x-p3-error: corrupt` so the cluster router can count it as an
/// integrity reject and target the replica for read-repair.
fn unavailable(e: &StorageError) -> Response {
    let mut resp = Response::text(StatusCode::SERVICE_UNAVAILABLE, &e.to_string());
    resp.headers.set("retry-after", "1");
    if matches!(e, StorageError::Corrupt(_)) {
        resp.headers.set("x-p3-error", "corrupt");
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_put_get_delete() {
        let core = StorageCore::new();
        assert!(core.is_empty());
        core.put("a", &[1, 2, 3]).unwrap();
        assert_eq!(core.get("a").unwrap().as_deref(), Some(&[1u8, 2, 3][..]));
        assert_eq!(core.len(), 1);
        assert!(core.delete("a").unwrap());
        assert!(!core.delete("a").unwrap());
        assert!(core.get("a").unwrap().is_none());
    }

    #[test]
    fn hex_roundtrip() {
        for id in ["42", "photo-9", "a/b\\c..", "ünïcode"] {
            assert_eq!(hex_decode(&hex_encode(id)).as_deref(), Some(id));
        }
        assert!(hex_decode("zz").is_none());
        assert!(hex_decode("abc").is_none(), "odd length");
    }

    #[test]
    fn http_frontend() {
        let mut svc = StorageService::spawn().unwrap();
        let addr = svc.addr();
        let put = Request::new(Method::Put, "/blobs/k1", vec![7; 64]);
        let resp = p3_net::client::send(addr, put).unwrap();
        assert!(resp.status.is_success());
        let got = p3_net::http_get(addr, "/blobs/k1").unwrap();
        assert_eq!(got.body, vec![7; 64]);
        let missing = p3_net::http_get(addr, "/blobs/none").unwrap();
        assert_eq!(missing.status, StatusCode::NOT_FOUND);
        let len = p3_net::http_get(addr, "/len").unwrap();
        assert_eq!(len.body, b"1");
        let stats = p3_net::http_get(addr, "/stats").unwrap();
        assert!(stats.status.is_success());
        assert_eq!(stats.headers.get("x-p3-backend"), Some("mem"));
        let body = String::from_utf8(stats.body).unwrap();
        assert!(body.contains("\"storage\""), "stats JSON missing storage section: {body}");
        assert!(body.contains("\"backend\""), "stats JSON missing backend section: {body}");
        svc.shutdown();
    }

    /// A rotted needle is a corrupt-marked `503` on the wire — whole or
    /// ranged — never a `404` (a corrupt copy proves the blob exists)
    /// and never bytes.
    #[test]
    fn corrupt_needle_is_a_marked_503_over_http_never_a_404() {
        let dir = std::env::temp_dir().join(format!("p3-http-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = Arc::new(PackedBackend::open(&dir).unwrap());
        let core = Arc::new(StorageCore::with_backend(Arc::clone(&backend) as Arc<_>));
        let mut svc = StorageService::spawn_with(core).unwrap();
        svc.core().put("r", &[0u8; 1024]).unwrap();
        assert_eq!(backend.corrupt_live_needles().unwrap(), 1);
        for range in [None, Some("bytes=0-9")] {
            let mut req = Request::new(Method::Get, "/blobs/r", Vec::new());
            if let Some(range) = range {
                req.headers.set("range", range);
            }
            let resp = p3_net::client::send(svc.addr(), req).unwrap();
            assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE, "range {range:?}");
            assert_eq!(resp.headers.get("x-p3-error"), Some("corrupt"));
            assert_eq!(resp.headers.get("retry-after"), Some("1"));
        }
        assert_eq!(backend.stats().corrupt_reads, 2);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_get_honors_byte_ranges() {
        let mut svc = StorageService::spawn().unwrap();
        let addr = svc.addr();
        let body: Vec<u8> = (0..=99).collect();
        svc.core().put("clip", &body).unwrap();

        let mut req = Request::new(Method::Get, "/blobs/clip", Vec::new());
        req.headers.set("range", "bytes=10-19");
        let resp = p3_net::client::send(addr, req).unwrap();
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.headers.get("content-range"), Some("bytes 10-19/100"));
        assert_eq!(resp.body, (10..=19).collect::<Vec<u8>>());

        // Open-ended suffix fetch.
        let mut req = Request::new(Method::Get, "/blobs/clip", Vec::new());
        req.headers.set("range", "bytes=95-");
        let resp = p3_net::client::send(addr, req).unwrap();
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body, (95..=99).collect::<Vec<u8>>());

        // Out-of-bounds start is 416 with the total length advertised.
        let mut req = Request::new(Method::Get, "/blobs/clip", Vec::new());
        req.headers.set("range", "bytes=100-200");
        let resp = p3_net::client::send(addr, req).unwrap();
        assert_eq!(resp.status, StatusCode(416));
        assert_eq!(resp.headers.get("content-range"), Some("bytes */100"));

        // Unranged requests still get the whole blob, plus the
        // accept-ranges advertisement the video client probes for.
        let whole = p3_net::http_get(addr, "/blobs/clip").unwrap();
        assert_eq!(whole.status, StatusCode::OK);
        assert_eq!(whole.headers.get("accept-ranges"), Some("bytes"));
        assert_eq!(whole.body, body);
        svc.shutdown();
    }

    #[test]
    fn index_route_pages_through_every_id() {
        let mut svc = StorageService::spawn().unwrap();
        let addr = svc.addr();
        let mut want: Vec<String> = (0..23).map(|i| format!("photo-{i:02}")).collect();
        for id in &want {
            svc.core().put(id, id.as_bytes()).unwrap();
        }
        want.sort_unstable();
        // Page through with a deliberately small limit.
        let mut got: Vec<String> = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let path = match &after {
                None => "/index?limit=7".to_string(),
                Some(cursor) => format!("/index?after={cursor}&limit=7"),
            };
            let resp = p3_net::http_get(addr, &path).unwrap();
            assert!(resp.status.is_success());
            let body = String::from_utf8(resp.body).unwrap();
            let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
            assert_eq!(
                resp.headers.get("x-p3-index-count"),
                Some(lines.len().to_string().as_str())
            );
            for line in &lines {
                got.push(hex_decode(line).expect("wire ids are hex"));
            }
            if lines.len() < 7 {
                break;
            }
            after = Some(lines.last().unwrap().to_string());
        }
        assert_eq!(got, want, "paginated index must cover every id exactly once, sorted");
        // Bad cursor is a 400, not a silent full listing.
        let bad = p3_net::http_get(addr, "/index?after=zz").unwrap();
        assert_eq!(bad.status, StatusCode::BAD_REQUEST);
        svc.shutdown();
    }

    #[test]
    fn membership_routes_decline_on_single_store_backends() {
        let mut svc = StorageService::spawn().unwrap();
        let got = p3_net::http_get(svc.addr(), "/admin/membership").unwrap();
        assert_eq!(got.status, StatusCode::NOT_FOUND, "mem backend has no membership");
        let post = p3_net::client::http_post(
            svc.addr(),
            "/admin/membership",
            "text/plain",
            b"add 127.0.0.1:1".to_vec(),
        )
        .unwrap();
        assert_eq!(post.status, StatusCode::SERVICE_UNAVAILABLE);
        // Malformed bodies are rejected before touching the backend.
        for bad in ["", "grow 127.0.0.1:1", "add not-an-address"] {
            let resp = p3_net::client::http_post(
                svc.addr(),
                "/admin/membership",
                "text/plain",
                bad.as_bytes().to_vec(),
            )
            .unwrap();
            assert_eq!(resp.status, StatusCode::BAD_REQUEST, "body {bad:?} must 400");
        }
        svc.shutdown();
    }

    #[test]
    fn backend_errors_map_to_503_not_404() {
        // A cluster with every node dead can't answer definitively.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: vec![dead],
            replicas: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        let core = Arc::new(StorageCore::with_backend(Arc::new(cluster)));
        let mut svc = StorageService::spawn_with(core).unwrap();
        let got = p3_net::http_get(svc.addr(), "/blobs/k1").unwrap();
        assert_eq!(got.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(got.headers.get("retry-after"), Some("1"));
        svc.shutdown();
    }
}

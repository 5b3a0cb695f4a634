//! The four workloads: set-up, the closed-loop drivers with their
//! oracles, and the unrolled replay of each operation for the trace.

use crate::client::Conn;
use crate::corpus::{self, crc32, Size, ViewFault, ViewOracle, SIZE_MIX};
use crate::gen::{permutation, Rng, StratifiedMix, Zipf};
use crate::runner::{Driver, Outcome, Pause, Step};
use crate::topology::{Plan, Topology, MASTER_KEY, REENCODE_QUALITY, THRESHOLD};
use crate::trace::TraceCtx;
use p3_core::container::SecretContainer;
use p3_core::pipeline::{P3Codec, P3Config};
use p3_crypto::EnvelopeKey;
use p3_jpeg::encoder::{encode_coeffs, Mode};
use p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY;
use p3_psp::PspCore;
use p3_storage::{compact_once, ClusterBackend, PackedBackend, PackedConfig, StorageBackend};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How big a run is. `--quick` shrinks everything to a smoke test.
#[derive(Debug, Clone)]
pub struct Scale {
    pub quick: bool,
    pub scenes: usize,
    pub upload_preload: usize,
    /// `upload` keeps this many of each client's newest uploads.
    pub upload_keep: usize,
    pub hot_photos: usize,
    pub cold_photos: usize,
    pub cold_cache: usize,
    /// `blob_direct`: preloaded keys and rolling keys, per client.
    pub blob_keys: usize,
    pub blob_ring: usize,
    pub segment_s: f64,
    pub warmup_segments: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            quick: false,
            scenes: corpus::SCENES,
            upload_preload: 64,
            upload_keep: 32,
            hot_photos: 48,
            cold_photos: 64,
            cold_cache: 16,
            blob_keys: 3072,
            blob_ring: 128,
            segment_s: 1.0,
            warmup_segments: 2,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            quick: true,
            scenes: 12,
            upload_preload: 12,
            upload_keep: 8,
            hot_photos: 12,
            cold_photos: 12,
            cold_cache: 4,
            blob_keys: 192,
            blob_ring: 24,
            segment_s: 0.4,
            warmup_segments: 1,
        }
    }

    /// Operations the serial trace replays, untraced and then traced.
    pub fn trace_ops(&self, workload: &str) -> usize {
        let full = match workload {
            "upload" => 80,
            "blob_direct" => 600,
            _ => 300,
        };
        if self.quick {
            full / 10
        } else {
            full
        }
    }
}

/// The end-of-run part of a workload's oracle.
pub type FinalCheck = Box<dyn Fn(&Topology) -> Result<(), String>>;

/// A workload, set up and ready to drive.
pub struct Prepared {
    // Clients drop before the servers they talk to.
    pub drivers: Vec<Box<dyn Driver>>,
    pub topology: Topology,
    pub stored_bytes_ratio: f64,
    /// Sealed secret bytes over public + secret bytes at rest; 0 where
    /// there are no photos.
    pub secret_bytes_share: f64,
    /// What the index rebuild of the reopen cost, per 1 000 needles.
    pub reopen_ms_per_1000: f64,
    /// Runs on the coordinator around every reference sample.
    pub pause: Box<dyn Fn(Pause) + Sync>,
    pub check: FinalCheck,
}

pub fn prepare(workload: &str, seed: u64, scale: &Scale) -> Result<Prepared, String> {
    match workload {
        "upload" => prepare_upload(seed, scale),
        "browse_hot" => prepare_browse(seed, scale, false),
        "browse_cold" => prepare_browse(seed, scale, true),
        "blob_direct" => prepare_blob(seed, scale),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn codec() -> P3Codec {
    P3Codec::new(P3Config { threshold: THRESHOLD, ..P3Config::default() })
}

fn photo_plan(cluster: bool, secret_cache: usize) -> Plan {
    Plan {
        cluster,
        secret_cache: Some(secret_cache),
        node: PackedConfig::default(),
        compact_every: None,
    }
}

fn ms_per_1000((open_s, needles): (f64, usize)) -> f64 {
    if needles == 0 {
        0.0
    } else {
        open_s * 1e3 * 1000.0 / needles as f64
    }
}

/// The blocking-path cluster counters must be silent on a healthy
/// loopback: anything else and the run measured a repair, not the
/// workload.
fn cluster_is_clean(topology: &Topology) -> Result<(), String> {
    let Some(router) = &topology.router else { return Ok(()) };
    let s = router.backend.stats();
    if s.read_repairs + s.node_failures + s.integrity_rejects > 0 {
        return Err(format!(
            "cluster disturbed: {} read repairs, {} node failures, {} integrity rejects",
            s.read_repairs, s.node_failures, s.integrity_rejects
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Photos through the front door
// ---------------------------------------------------------------------

/// Upload `photos[i % len]` for `i in 0..count` through the proxy, on two
/// connections; returns the PSP's id per upload.
fn preload_photos(
    topology: &Topology,
    photos: &[Vec<u8>],
    count: usize,
) -> Result<Vec<String>, String> {
    let addr = topology.front_addr();
    corpus::on_two_threads(2, |half| -> Result<Vec<(usize, String)>, String> {
        let mut conn = Conn::connect(addr)?;
        let mut ids = Vec::new();
        for i in (half..count).step_by(2) {
            let resp = conn.post_jpeg("/photos", photos[i % photos.len()].clone())?;
            let id = upload_id(&resp).map_err(|e| format!("preload: {e}"))?;
            ids.push((i, id));
        }
        Ok(ids)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map(|halves| {
        let mut all: Vec<(usize, String)> = halves.into_iter().flatten().collect();
        all.sort();
        all.into_iter().map(|(_, id)| id).collect()
    })
}

/// `201` and a numeric id, or why not.
fn upload_id(resp: &p3_net::Response) -> Result<String, String> {
    if resp.status.0 != 201 {
        return Err(format!("status {}", resp.status.0));
    }
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("201 without a numeric id: {id:?}"));
    }
    Ok(id)
}

/// Bytes at rest over bytes of user data for the preloaded photos: what
/// the PSP keeps of the public part plus the sealed secret, over the
/// original JPEG. Also the secret's share of the bytes at rest.
fn photo_bytes_at_rest(
    topology: &Topology,
    photos: &[Vec<u8>],
    ids: &[String],
) -> Result<(f64, f64), String> {
    let psp = topology.psp.as_ref().ok_or("no PSP")?.core();
    let (mut original, mut public, mut secret) = (0usize, 0usize, 0usize);
    for (i, id) in ids.iter().enumerate() {
        original += photos[i % photos.len()].len();
        let psp_id: u64 = id.parse().map_err(|_| "non-numeric id")?;
        public += psp.stored_original(psp_id).ok_or("PSP lost a preloaded photo")?.len();
        secret += stored_secret(topology, id)?.len();
    }
    Ok(((public + secret) as f64 / original as f64, secret as f64 / (public + secret) as f64))
}

/// The sealed secret of `id` as the storage tier holds it.
fn stored_secret(topology: &Topology, id: &str) -> Result<Arc<[u8]>, String> {
    let found = match &topology.router {
        Some(router) => router.backend.get(id),
        None => topology.nodes[0].backend.get(id),
    };
    found.map_err(|e| format!("secret of {id}: {e}"))?.ok_or(format!("no secret stored for {id}"))
}

struct UploadDriver {
    conn: Conn,
    photos: Arc<Vec<Vec<u8>>>,
    /// Length of the sealed secret of each scene.
    sealed_len: Arc<Vec<usize>>,
    order: Vec<usize>,
    at: usize,
    store: Arc<PackedBackend>,
    mine: VecDeque<String>,
    keep: usize,
    verified: Arc<AtomicU64>,
}

impl Driver for UploadDriver {
    fn step(&mut self, trace: Option<&mut TraceCtx>) -> Step {
        let scene = self.order[self.at % self.order.len()];
        self.at += 1;
        let sent = Instant::now();
        let answer = self.conn.post_jpeg("/photos", self.photos[scene].clone());
        let answered = Instant::now();
        let outcome = match &answer {
            Err(e) => Outcome::Failed(e.clone()),
            Ok(resp) => match upload_id(resp) {
                Err(e) if resp.status.is_success() => Outcome::Wrong(e),
                Err(e) => Outcome::Failed(e),
                Ok(id) => {
                    let outcome = match self.store.get(&id) {
                        Ok(Some(blob)) if blob.len() == self.sealed_len[scene] => {
                            self.verified.fetch_add(1, Ordering::Relaxed);
                            Outcome::Verified
                        }
                        Ok(Some(blob)) => Outcome::Wrong(format!(
                            "sealed secret of {id} is {} bytes, expected {}",
                            blob.len(),
                            self.sealed_len[scene]
                        )),
                        Ok(None) => Outcome::Wrong(format!("201 for {id} but no secret stored")),
                        Err(e) => Outcome::Wrong(format!("secret of {id} unreadable: {e}")),
                    };
                    self.mine.push_back(id);
                    outcome
                }
            },
        };
        if let Some(ctx) = trace {
            let root = ctx.tracer.root("op.upload", sent, answered);
            if let Err(e) = unroll_upload(ctx, root, &self.photos[scene]) {
                return Step {
                    outcome: Outcome::Failed(format!("unroll: {e}")),
                    request: answered - sent,
                };
            }
        }
        Step { outcome, request: answered - sent }
    }

    /// Delete this client's uploads beyond its newest few, through the
    /// proxy, so that memory does not grow with speed.
    fn housekeeping(&mut self) -> Result<(), String> {
        while self.mine.len() > self.keep {
            let id = self.mine.pop_front().expect("non-empty");
            let resp = self.conn.delete(&format!("/photos/{id}"))?;
            if !resp.status.is_success() {
                return Err(format!("DELETE /photos/{id}: {}", resp.status.0));
            }
        }
        Ok(())
    }
}

/// The proxy's upload handler, call by call.
fn unroll_upload(ctx: &mut TraceCtx, root: u32, jpeg: &[u8]) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    ctx.hop(root, true, jpeg.len(), 4); // client -> proxy
    let t = &mut ctx.tracer;
    let (coeffs, _) = t.time("jpeg.decode_coeffs", root, || p3_jpeg::decode_to_coeffs(jpeg));
    let (coeffs, _) = coeffs.map_err(|e| err(&e))?;
    let (parts, _) = t.time("core.split", root, || p3_core::split_coeffs(&coeffs, THRESHOLD));
    let (public, secret, _) = parts.map_err(|e| err(&e))?;
    let (public_jpeg, _) =
        t.time("jpeg.encode_coeffs", root, || encode_coeffs(&public, Mode::BaselineOptimized, 0));
    let public_jpeg = public_jpeg.map_err(|e| err(&e))?;
    let (secret_jpeg, _) =
        t.time("jpeg.encode_coeffs", root, || encode_coeffs(&secret, Mode::BaselineOptimized, 0));
    let secret_jpeg = secret_jpeg.map_err(|e| err(&e))?;
    // proxy -> PSP: a POST, so `ClientPool` opens a connection for it.
    ctx.hop_fresh(root, public_jpeg.len(), 4);
    let psp = &ctx.rig.psp;
    // On a thread of its own, as the PSP's handler runs on a server
    // worker: the ladder allocates 15 MB per photo, and on the main
    // thread the allocator trims and refaults its heap where a worker's
    // arena keeps it (the same call read 10 % slower there, and the
    // closure came out at -0.05 .. -0.13).
    let (rig_id, _) = ctx.tracer.time("psp.upload", root, || {
        std::thread::scope(|s| s.spawn(|| psp.upload(&public_jpeg)).join())
    });
    let rig_id = rig_id.map_err(|_| "the unrolled PSP upload panicked")?;
    let rig_id = rig_id.map_err(|e| err(&e))?;
    psp.delete(rig_id);
    let id = rig_id.to_string();
    let container = SecretContainer {
        threshold: THRESHOLD,
        width: coeffs.width as u32,
        height: coeffs.height as u32,
        jpeg: secret_jpeg,
    };
    let (plain, _) = ctx.tracer.time("core.container", root, || container.to_bytes());
    let (blob, _) = ctx.tracer.time("crypto.seal", root, || {
        p3_crypto::seal(&EnvelopeKey::derive(MASTER_KEY, id.as_bytes()), &plain)
    });
    ctx.hop(root, true, blob.len(), 6); // proxy -> storage
    let store = &ctx.rig.stores.nodes[0].backend;
    let (put, _) = ctx.tracer.time("storage.put", root, || store.put(&id, &blob));
    put.map_err(|e| err(&e))
}

fn prepare_upload(seed: u64, scale: &Scale) -> Result<Prepared, String> {
    let photos = Arc::new(corpus::photos(seed, scale.scenes)?);
    let sealed_len: Vec<usize> = corpus::on_two_threads(photos.len(), |i| {
        let (_, container, _) = codec().split_jpeg(&photos[i]).map_err(|e| e.to_string())?;
        Ok(container.seal(&EnvelopeKey::derive(MASTER_KEY, b"0")).len())
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    let mut topology = Topology::spawn(photo_plan(false, DEFAULT_SECRET_CACHE_CAPACITY))?;
    let ids = preload_photos(&topology, &photos, scale.upload_preload)?;
    let (stored_bytes_ratio, secret_bytes_share) = photo_bytes_at_rest(&topology, &photos, &ids)?;
    let reopen = topology.reopen_nodes()?;

    let verified = Arc::new(AtomicU64::new(0));
    let sealed_len = Arc::new(sealed_len);
    let mut drivers: Vec<Box<dyn Driver>> = Vec::new();
    for client in 0..2usize {
        let mut rng = Rng::new(seed ^ (0xC11E47 + client as u64));
        drivers.push(Box::new(UploadDriver {
            conn: Conn::connect(topology.front_addr())?,
            photos: Arc::clone(&photos),
            sealed_len: Arc::clone(&sealed_len),
            order: permutation(photos.len(), &mut rng),
            at: 0,
            store: Arc::clone(&topology.nodes[0].backend),
            mine: ids.iter().skip(client).step_by(2).cloned().collect(),
            keep: scale.upload_keep,
            verified: Arc::clone(&verified),
        }));
    }
    let preloaded = ids.len() as u64;
    Ok(Prepared {
        topology,
        drivers,
        stored_bytes_ratio,
        secret_bytes_share,
        reopen_ms_per_1000: ms_per_1000(reopen),
        pause: Box::new(|_| {}),
        check: Box::new(move |topology| {
            let stats = topology.proxy.as_ref().ok_or("no proxy")?.stats();
            let split = stats.uploads_split.load(Ordering::Relaxed);
            let expected = preloaded + verified.load(Ordering::Relaxed);
            if split != expected {
                return Err(format!(
                    "uploads_split is {split}, verified uploads (with the preload) {expected}"
                ));
            }
            Ok(())
        }),
    })
}

// ---------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------

enum Picker {
    /// Popular photos, every secret cached.
    Zipf(Zipf, Rng),
    /// One permutation walked cyclically from a shared position, so a
    /// cache smaller than the walk never hits.
    Cycle { order: Arc<Vec<usize>>, positions: Arc<[AtomicUsize; 2]>, me: usize },
}

struct BrowseDriver {
    conn: Conn,
    oracle: Arc<ViewOracle>,
    ids: Arc<Vec<String>>,
    picker: Picker,
    sizes: StratifiedMix<Size>,
    /// For the unrolled replay: the real PSP core (reads only) and
    /// whether this workload's views miss the secret cache.
    psp: Arc<PspCore>,
    misses: bool,
    stores: Vec<Arc<PackedBackend>>,
    router: Option<Arc<ClusterBackend>>,
}

impl Driver for BrowseDriver {
    fn step(&mut self, trace: Option<&mut TraceCtx>) -> Step {
        let photo = match &mut self.picker {
            Picker::Zipf(zipf, rng) => zipf.draw(rng),
            Picker::Cycle { order, positions, me } => {
                order[positions[*me].fetch_add(1, Ordering::Relaxed) % order.len()]
            }
        };
        let size = self.sizes.draw();
        let target = format!("/photos/{}?size={}", self.ids[photo], size.query());
        let sent = Instant::now();
        let answer = self.conn.get(&target);
        let answered = Instant::now();
        let request = answered - sent;
        let resp = match answer {
            Ok(resp) => resp,
            Err(e) => return Step { outcome: Outcome::Failed(e), request },
        };
        let outcome = match self.oracle.check(photo, size, &resp) {
            Ok(db) => {
                if let Some(ctx) = trace {
                    ctx.view_db.push(db);
                    let root = ctx.tracer.root("op.view", sent, answered);
                    if let Err(e) = self.unroll_view(ctx, root, photo, size, resp.body.len()) {
                        return Step { outcome: Outcome::Failed(format!("unroll: {e}")), request };
                    }
                }
                Outcome::Verified
            }
            Err(ViewFault::Refused(why)) => Outcome::Failed(why),
            Err(ViewFault::Wrong(why)) => Outcome::Wrong(why),
        };
        Step { outcome, request }
    }
}

impl BrowseDriver {
    /// The proxy's download handler, call by call.
    fn unroll_view(
        &self,
        ctx: &mut TraceCtx,
        root: u32,
        photo: usize,
        size: Size,
        answer_bytes: usize,
    ) -> Result<(), String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let id = &self.ids[photo];
        let psp_id: u64 = id.parse().map_err(|_| "non-numeric id")?;
        ctx.hop(root, true, 0, answer_bytes); // client -> proxy

        // A hit forwards to the PSP on the blocking path. A miss fetches
        // the secret on a thread of its own meanwhile, and the storage
        // branch (two hops) is the longer one: the PSP branch is timed
        // off the path.
        let on_path = !self.misses;
        let psp = &self.psp;
        let (served, _) = ctx
            .tracer
            .time_as("psp.fetch_static", root, on_path, || psp.fetch(psp_id, size.request()));
        let served = served.ok_or("PSP lost a photo")?;
        ctx.hop(root, on_path, 0, served.len()); // proxy -> PSP
        let blob: Arc<[u8]> = if self.misses {
            let router = self.router.as_ref().ok_or("no router")?;
            let (blob, get) = ctx.tracer.time("cluster.get", root, || router.get(id));
            let blob = blob.map_err(|e| err(&e))?.ok_or("router lost a secret")?;
            ctx.hop(root, true, 0, blob.len()); // proxy -> router
            ctx.hop(get, true, 0, blob.len()); // router -> node
            replay_node_get(ctx, get, &self.stores, id)?;
            blob
        } else {
            self.stores[0].get(id).map_err(|e| err(&e))?.ok_or("node lost a secret")?
        };

        let t = &mut ctx.tracer;
        let (plain, _) = t.time("crypto.open", root, || {
            p3_crypto::open(&EnvelopeKey::derive(MASTER_KEY, id.as_bytes()), &blob)
        });
        let plain = plain.map_err(|e| err(&e))?;
        let (container, _) = t.time("core.container", root, || SecretContainer::from_bytes(&plain));
        let container = container.map_err(|e| err(&e))?;
        let (rgb, _) = t.time("jpeg.decode_rgb", root, || p3_jpeg::decode_to_rgb(&served));
        let rgb = rgb.map_err(|e| err(&e))?;
        let (secret, _) =
            t.time("jpeg.decode_coeffs", root, || p3_jpeg::decode_to_coeffs(&container.jpeg));
        let (secret, _) = secret.map_err(|e| err(&e))?;
        let (image, _) = t.time("core.reconstruct", root, || {
            let transform = (p3_net::proxy::default_estimator())(
                (container.width as usize, container.height as usize),
                (rgb.width, rgb.height),
            );
            p3_core::reconstruct_processed(&rgb, &secret, container.threshold, &transform)
        });
        let image = image.map_err(|e| err(&e))?;
        let (jpeg, _) = t.time("jpeg.encode_rgb", root, || {
            p3_jpeg::Encoder::new()
                .quality(REENCODE_QUALITY)
                .subsampling(p3_jpeg::Subsampling::S444)
                .encode_rgb(&image)
        });
        jpeg.map(|_| ()).map_err(|e| err(&e))
    }
}

/// `storage.get` under `parent`, on the first node that answers for
/// `id` (found beforehand, untimed).
fn replay_node_get(
    ctx: &mut TraceCtx,
    parent: u32,
    stores: &[Arc<PackedBackend>],
    id: &str,
) -> Result<(), String> {
    let holder = stores
        .iter()
        .find(|s| matches!(s.get(id), Ok(Some(_))))
        .or(stores.first())
        .ok_or("no storage node")?;
    let (got, _) = ctx.tracer.time("storage.get", parent, || holder.get(id));
    got.map(|_| ()).map_err(|e| e.to_string())
}

fn prepare_browse(seed: u64, scale: &Scale, cold: bool) -> Result<Prepared, String> {
    let count = if cold { scale.cold_photos } else { scale.hot_photos };
    let photos = corpus::photos(seed, count)?;
    let mut oracle = ViewOracle::build(&photos)?;
    let secret_cache = if cold { scale.cold_cache } else { DEFAULT_SECRET_CACHE_CAPACITY };
    let mut topology = Topology::spawn(photo_plan(cold, secret_cache))?;
    let ids = preload_photos(&topology, &photos, count)?;
    let (stored_bytes_ratio, secret_bytes_share) = photo_bytes_at_rest(&topology, &photos, &ids)?;
    let psp = Arc::clone(topology.psp.as_ref().ok_or("no PSP")?.core());
    for (photo, id) in ids.iter().enumerate() {
        oracle.learn_public(photo, &psp, id.parse().map_err(|_| "non-numeric id")?)?;
    }
    let reopen = topology.reopen_nodes()?;

    let oracle = Arc::new(oracle);
    let ids = Arc::new(ids);
    // View every photo once, in the order the cold clients will walk
    // them: afterwards the hot workload's secrets are all cached, the
    // cold cache holds the walk's tail (the last thing either client
    // comes to), and the proxy's upstream connections are up.
    let order = Arc::new(permutation(count, &mut Rng::new(seed ^ 0xC01D)));
    let mut warm = Conn::connect(topology.front_addr())?;
    for &photo in order.iter() {
        let resp = warm.get(&format!("/photos/{}?size=small", ids[photo]))?;
        if let Err(ViewFault::Refused(why) | ViewFault::Wrong(why)) =
            oracle.check(photo, Size::Small, &resp)
        {
            return Err(format!("warm-up view of photo {photo}: {why}"));
        }
    }

    // The second client walks half a cycle ahead of the first.
    let positions = Arc::new([AtomicUsize::new(0), AtomicUsize::new(count / 2)]);
    let stores: Vec<Arc<PackedBackend>> =
        topology.nodes.iter().map(|n| Arc::clone(&n.backend)).collect();
    let mut drivers: Vec<Box<dyn Driver>> = Vec::new();
    for client in 0..2usize {
        let rng = Rng::new(seed ^ (0xB205E + client as u64));
        drivers.push(Box::new(BrowseDriver {
            conn: Conn::connect(topology.front_addr())?,
            oracle: Arc::clone(&oracle),
            ids: Arc::clone(&ids),
            picker: if cold {
                Picker::Cycle {
                    order: Arc::clone(&order),
                    positions: Arc::clone(&positions),
                    me: client,
                }
            } else {
                Picker::Zipf(Zipf::new(count, 1.1), rng.clone())
            },
            sizes: StratifiedMix::new(&SIZE_MIX, Rng::new(rng.clone().next_u64())),
            psp: Arc::clone(&psp),
            misses: cold,
            stores: stores.clone(),
            router: topology.router.as_ref().map(|r| Arc::clone(&r.backend)),
        }));
    }
    // Closed loops drift apart; between segments the walkers are put
    // back half a cycle from each other, so the drift never grows to
    // where one client re-reads what the other just fetched.
    let pause: Box<dyn Fn(Pause) + Sync> = if cold {
        Box::new(move |_| {
            let lead = positions[1].load(Ordering::Relaxed).saturating_sub(count / 2);
            let base = positions[0].load(Ordering::Relaxed).max(lead);
            positions[0].store(base, Ordering::Relaxed);
            positions[1].store(base + count / 2, Ordering::Relaxed);
        })
    } else {
        Box::new(|_| {})
    };
    Ok(Prepared {
        topology,
        drivers,
        stored_bytes_ratio,
        secret_bytes_share,
        reopen_ms_per_1000: ms_per_1000(reopen),
        pause,
        check: Box::new(cluster_is_clean),
    })
}

// ---------------------------------------------------------------------
// Blobs straight at the cluster router
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlobOp {
    /// Zipf over the client's preloaded keys.
    GetBase,
    /// One of the client's rolling keys: what it wrote lately.
    GetRolling,
    /// A key the client deleted: must stay gone.
    GetDeleted,
    PutOverwrite,
    PutFresh,
    /// The oldest rolling key.
    Delete,
}

/// Per hundred operations: 92 GET, 5 PUT (2 overwrite), 3 DELETE. A
/// delete waits for an fdatasync like a put, so it is puts *and*
/// deletes that stay under a tenth (8), and `p90_ms` sits among reads,
/// not on the sandbox disk. Fresh puts equal deletes, so the rolling
/// population holds still.
const BLOB_MIX: [(BlobOp, usize); 6] = [
    (BlobOp::GetBase, 82),
    (BlobOp::GetRolling, 8),
    (BlobOp::GetDeleted, 2),
    (BlobOp::PutOverwrite, 2),
    (BlobOp::PutFresh, 3),
    (BlobOp::Delete, 3),
];

struct Blobs {
    bytes: Vec<Vec<u8>>,
    crc_hex: Vec<String>,
}

struct BlobDriver {
    conn: Conn,
    client: usize,
    blobs: Arc<Blobs>,
    /// Live preloaded keys in popularity order, with the blob each holds.
    base: Vec<(String, usize)>,
    zipf: Zipf,
    rolling: VecDeque<(String, usize)>,
    dead: Vec<String>,
    graveyard: Arc<Mutex<Vec<String>>>,
    fresh: usize,
    mix: StratifiedMix<BlobOp>,
    rng: Rng,
    stores: Vec<Arc<PackedBackend>>,
    router: Arc<ClusterBackend>,
}

impl BlobDriver {
    fn expect_blob(&self, resp: &p3_net::Response, blob: usize) -> Outcome {
        if !resp.status.is_success() {
            return Outcome::Failed(format!("GET: status {}", resp.status.0));
        }
        if resp.body != self.blobs.bytes[blob] {
            return Outcome::Wrong("GET: 200 with the wrong bytes".into());
        }
        if resp.headers.get("x-p3-crc32") != Some(self.blobs.crc_hex[blob].as_str()) {
            return Outcome::Wrong("GET: x-p3-crc32 does not match the body".into());
        }
        Outcome::Verified
    }

    fn expect_stored(&self, resp: &p3_net::Response, blob: usize) -> Outcome {
        if !resp.status.is_success() {
            return Outcome::Failed(format!("PUT: status {}", resp.status.0));
        }
        if resp.headers.get("x-p3-crc32") != Some(self.blobs.crc_hex[blob].as_str()) {
            return Outcome::Wrong("PUT: acknowledged CRC is not the body's".into());
        }
        Outcome::Verified
    }
}

impl Driver for BlobDriver {
    fn step(&mut self, trace: Option<&mut TraceCtx>) -> Step {
        let op = self.mix.draw();
        let sent = Instant::now();
        let (outcome, answered, key, blob) = match op {
            BlobOp::GetBase | BlobOp::GetRolling => {
                let (key, blob) = match op {
                    BlobOp::GetBase => self.base[self.zipf.draw(&mut self.rng)].clone(),
                    _ => self.rolling[self.rng.below(self.rolling.len())].clone(),
                };
                let answer = self.conn.get(&format!("/blobs/{key}"));
                let answered = Instant::now();
                let outcome = match &answer {
                    Ok(resp) => self.expect_blob(resp, blob),
                    Err(e) => Outcome::Failed(e.clone()),
                };
                (outcome, answered, key, Some(blob))
            }
            BlobOp::GetDeleted => {
                let key = self.dead[self.rng.below(self.dead.len())].clone();
                let answer = self.conn.get(&format!("/blobs/{key}"));
                let answered = Instant::now();
                let outcome = match &answer {
                    Ok(resp) if resp.status.0 == 404 => Outcome::Verified,
                    Ok(resp) if resp.status.is_success() => {
                        Outcome::Wrong(format!("deleted key {key} is readable again"))
                    }
                    Ok(resp) => Outcome::Failed(format!("GET deleted: status {}", resp.status.0)),
                    Err(e) => Outcome::Failed(e.clone()),
                };
                (outcome, answered, key, None)
            }
            BlobOp::PutOverwrite | BlobOp::PutFresh => {
                let blob = self.rng.below(self.blobs.bytes.len());
                // A fresh key joins the rolling keys; an overwrite hits one.
                let slot = (op == BlobOp::PutOverwrite).then(|| self.rng.below(self.rolling.len()));
                let key = match slot {
                    Some(slot) => self.rolling[slot].0.clone(),
                    None => {
                        self.fresh += 1;
                        format!("c{}-n{:06}", self.client, self.fresh)
                    }
                };
                let answer =
                    self.conn.put(&format!("/blobs/{key}"), self.blobs.bytes[blob].clone());
                let answered = Instant::now();
                let outcome = match &answer {
                    Ok(resp) => self.expect_stored(resp, blob),
                    Err(e) => Outcome::Failed(e.clone()),
                };
                if matches!(outcome, Outcome::Verified) {
                    match slot {
                        Some(slot) => self.rolling[slot].1 = blob,
                        None => self.rolling.push_back((key.clone(), blob)),
                    }
                }
                (outcome, answered, key, Some(blob))
            }
            BlobOp::Delete => {
                let (key, _) = self.rolling.pop_front().expect("rolling keys never run out");
                let answer = self.conn.delete(&format!("/blobs/{key}"));
                let answered = Instant::now();
                let outcome = match &answer {
                    Ok(resp) if resp.status.is_success() => Outcome::Verified,
                    Ok(resp) => Outcome::Failed(format!("DELETE: status {}", resp.status.0)),
                    Err(e) => Outcome::Failed(e.clone()),
                };
                self.dead.push(key.clone());
                self.graveyard.lock().expect("graveyard holders cannot panic").push(key.clone());
                (outcome, answered, key, None)
            }
        };
        if let Some(ctx) = trace {
            let root = ctx.tracer.root("op.blob", sent, answered);
            if let Err(e) = self.unroll(ctx, root, op, &key, blob) {
                return Step {
                    outcome: Outcome::Failed(format!("unroll: {e}")),
                    request: answered - sent,
                };
            }
        }
        Step { outcome, request: answered - sent }
    }
}

impl BlobDriver {
    /// The router's handler, call by call. Reads replay against the
    /// topology under test; writes and deletes against the rig's
    /// cluster, so that the model of the real one stays exact.
    fn unroll(
        &self,
        ctx: &mut TraceCtx,
        root: u32,
        op: BlobOp,
        key: &str,
        blob: Option<usize>,
    ) -> Result<(), String> {
        let err = |e: p3_storage::StorageError| e.to_string();
        let len = blob.map_or(0, |b| self.blobs.bytes[b].len());
        match op {
            BlobOp::GetBase | BlobOp::GetRolling | BlobOp::GetDeleted => {
                ctx.hop(root, true, 0, len); // client -> router
                let router = &self.router;
                let (got, get) = ctx.tracer.time("cluster.get", root, || router.get(key));
                got.map_err(err)?;
                ctx.hop(get, true, 0, len); // router -> node
                replay_node_get(ctx, get, &self.stores, key)
            }
            BlobOp::PutOverwrite | BlobOp::PutFresh => {
                let bytes = &self.blobs.bytes[blob.ok_or("a put carries a blob")?];
                ctx.hop(root, true, len, 6);
                let rig_router = Arc::clone(
                    &ctx.rig.stores.router.as_ref().ok_or("the rig has no router")?.backend,
                );
                let (put, span) =
                    ctx.tracer.time("cluster.put", root, || rig_router.put(key, bytes));
                put.map_err(err)?;
                ctx.rig.present.insert(key.to_string());
                // Both replicas, one after the other.
                for replica in 0..2 {
                    ctx.hop(span, true, len, 6);
                    let store = Arc::clone(&ctx.rig.stores.nodes[replica].backend);
                    let shadow = format!("{key}~");
                    let (put, _) =
                        ctx.tracer.time("storage.put", span, || store.put(&shadow, bytes));
                    put.map_err(err)?;
                }
                Ok(())
            }
            BlobOp::Delete => {
                let rig_router = Arc::clone(
                    &ctx.rig.stores.router.as_ref().ok_or("the rig has no router")?.backend,
                );
                let filler = &self.blobs.bytes[0];
                if ctx.rig.present.insert(key.to_string()) {
                    rig_router.put(key, filler).map_err(err)?;
                }
                ctx.hop(root, true, 0, 7);
                let (deleted, span) =
                    ctx.tracer.time("cluster.delete", root, || rig_router.delete(key));
                deleted.map_err(err)?;
                for replica in 0..2 {
                    ctx.hop(span, true, 0, 7);
                    let store = Arc::clone(&ctx.rig.stores.nodes[replica].backend);
                    let shadow = format!("{key}~");
                    store.put(&shadow, filler).map_err(err)?;
                    let (deleted, _) =
                        ctx.tracer.time("storage.delete", span, || store.delete(&shadow));
                    deleted.map_err(err)?;
                }
                Ok(())
            }
        }
    }
}

fn blob_plan() -> Plan {
    Plan {
        cluster: true,
        secret_cache: None,
        node: PackedConfig {
            segment_bytes: 512 << 10,
            compact_min_bytes: 128 << 10,
            ..PackedConfig::default()
        },
        // A pass per node in the middle of every one-second segment, so
        // many compaction cycles finish within a window.
        compact_every: Some(Duration::from_millis(600)),
    }
}

fn prepare_blob(seed: u64, scale: &Scale) -> Result<Prepared, String> {
    // Blob sizes are the corpus's real sealed secrets.
    let photos = corpus::photos(seed, scale.scenes)?;
    let bytes: Vec<Vec<u8>> = corpus::on_two_threads(photos.len(), |i| {
        let (_, container, _) = codec().split_jpeg(&photos[i]).map_err(|e| e.to_string())?;
        Ok(container.seal(&EnvelopeKey::derive(MASTER_KEY, i.to_string().as_bytes())))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    let crc_hex = bytes.iter().map(|b| format!("{:08x}", crc32(b))).collect();
    let blobs = Arc::new(Blobs { bytes, crc_hex });

    let mut topology = Topology::spawn(blob_plan())?;
    let addr = topology.front_addr();
    let graveyard = Arc::new(Mutex::new(Vec::new()));

    struct Loaded {
        base: Vec<(String, usize)>,
        rolling: VecDeque<(String, usize)>,
        dead: Vec<String>,
        rng: Rng,
    }
    let store = |conn: &mut Conn, key: &str, blob: usize| -> Result<(), String> {
        let resp = conn.put(&format!("/blobs/{key}"), blobs.bytes[blob].clone())?;
        if !resp.status.is_success() {
            return Err(format!("set-up PUT {key}: {}", resp.status.0));
        }
        Ok(())
    };
    // Preload through the router, one connection per client.
    let preloaded = corpus::on_two_threads(2, |client| -> Result<Loaded, String> {
        let mut rng = Rng::new(seed ^ (0xB10B + client as u64));
        let mut conn = Conn::connect(addr)?;
        let mut base = Vec::with_capacity(scale.blob_keys);
        for i in 0..scale.blob_keys {
            let key = format!("c{client}-{i:05}");
            let blob = rng.below(blobs.bytes.len());
            store(&mut conn, &key, blob)?;
            base.push((key, blob));
        }
        Ok(Loaded { base, rolling: VecDeque::new(), dead: Vec::new(), rng })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    // Restart every store on the preload: the index rebuild. (Before the
    // churn: the recovery scan counts a superseded needle dead twice, so
    // after it a store that is a third dead looks two thirds dead and
    // the compactors would rewrite all of it during the window.)
    let reopen = topology.reopen_nodes()?;

    // A scripted churn: every 4th key overwritten, every 10th deleted;
    // then the rolling keys.
    let loaded = corpus::on_two_threads(2, |client| -> Result<Loaded, String> {
        let mut rng = preloaded[client].rng.clone();
        let mut conn = Conn::connect(addr)?;
        let mut dead = Vec::new();
        let mut base = Vec::new();
        for (i, (key, blob)) in preloaded[client].base.iter().cloned().enumerate() {
            if i % 10 == 9 {
                let resp = conn.delete(&format!("/blobs/{key}"))?;
                if !resp.status.is_success() {
                    return Err(format!("churn DELETE {key}: {}", resp.status.0));
                }
                dead.push(key);
            } else if i % 4 == 3 {
                let blob = rng.below(blobs.bytes.len());
                store(&mut conn, &key, blob)?;
                base.push((key, blob));
            } else {
                base.push((key, blob));
            }
        }
        let mut rolling = VecDeque::new();
        for i in 0..scale.blob_ring {
            let key = format!("c{client}-r{i:05}");
            let blob = rng.below(blobs.bytes.len());
            store(&mut conn, &key, blob)?;
            rolling.push_back((key, blob));
        }
        // Popularity order is a seeded shuffle, not key order.
        rng.shuffle(&mut base);
        Ok(Loaded { base, rolling, dead, rng })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let live: u64 = loaded
        .iter()
        .flat_map(|l| l.base.iter().chain(&l.rolling))
        .map(|(_, blob)| blobs.bytes[*blob].len() as u64)
        .sum();
    // Taken before the compaction pass: after it the figure depends on
    // which segments crossed the threshold, which depends on ring
    // placement by ephemeral port, and would not repeat per seed.
    let stored_bytes_ratio = topology.disk_bytes() as f64 / live as f64;
    for node in &topology.nodes {
        compact_once(&node.backend).map_err(|e| format!("compaction: {e}"))?;
    }
    let compactors = topology.start_compactors().ok_or("the blob plan has compactors")?;

    let stores: Vec<Arc<PackedBackend>> =
        topology.nodes.iter().map(|n| Arc::clone(&n.backend)).collect();
    let router = Arc::clone(&topology.router.as_ref().ok_or("no router")?.backend);
    let mut drivers: Vec<Box<dyn Driver>> = Vec::new();
    for (client, l) in loaded.into_iter().enumerate() {
        graveyard.lock().expect("no holder can panic").extend(l.dead.iter().cloned());
        let mut rng = l.rng;
        drivers.push(Box::new(BlobDriver {
            conn: Conn::connect(addr)?,
            client,
            blobs: Arc::clone(&blobs),
            zipf: Zipf::new(l.base.len(), 0.9),
            base: l.base,
            rolling: l.rolling,
            dead: l.dead,
            graveyard: Arc::clone(&graveyard),
            fresh: 0,
            mix: StratifiedMix::new(&BLOB_MIX, Rng::new(rng.next_u64())),
            rng,
            stores: stores.clone(),
            router: Arc::clone(&router),
        }));
    }
    Ok(Prepared {
        topology,
        drivers,
        stored_bytes_ratio,
        secret_bytes_share: 0.0,
        reopen_ms_per_1000: ms_per_1000(reopen),
        // No compaction pass beside a reference sample; one per node in
        // the middle of every segment.
        pause: Box::new(move |pause| match pause {
            Pause::Rest => compactors.rest(),
            Pause::Resume => compactors.resume(),
        }),
        check: Box::new(move |topology| {
            cluster_is_clean(topology)?;
            // Every deleted key is a tombstone somewhere and live nowhere.
            for key in graveyard.lock().expect("no holder can panic").iter() {
                let mut tombstoned = false;
                for node in &topology.nodes {
                    if matches!(node.backend.get(key), Ok(Some(_))) {
                        return Err(format!("deleted key {key} is live on a node"));
                    }
                    tombstoned |= node.backend.deleted(key).unwrap_or(false);
                }
                if !tombstoned {
                    return Err(format!("deleted key {key} has no tombstone anywhere"));
                }
            }
            Ok(())
        }),
    })
}

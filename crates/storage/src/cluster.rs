//! Client-side sharded cluster router over N storage nodes, with
//! dynamic membership and one convergence pass that both rebalances
//! and repairs.
//!
//! Speaks the same `PUT/GET/DELETE /blobs/{id}` HTTP surface the
//! single-node [`crate::StorageService`] exposes, which is exactly why
//! the proxy needs no code change to run against a cluster: the router
//! *is* a [`StorageBackend`], hosted behind its own `StorageService`,
//! and the proxy keeps talking to one storage address.
//!
//! Placement is a consistent-hash ring with virtual nodes
//! ([`crate::ring`]), keyed by each node's *address string* so a
//! membership change only perturbs the departing/arriving node's arcs;
//! each blob lives on `replicas` distinct nodes. Blobs are immutable
//! once written (the proxy writes each secret part exactly once, keyed
//! by PSP photo ID), which keeps the consistency story honest without
//! vector clocks:
//!
//! * **writes** go to all R replicas and succeed when a majority
//!   (`R/2 + 1`) ack — so any two successful write sets intersect;
//! * **reads** walk the replica list in ring order and return the first
//!   healthy copy. A replica that definitively answers 404 while
//!   another replica holds the blob is *stale* (it missed the write or
//!   lost its disk) and is **read-repaired** inline with a re-PUT;
//! * a **definitive miss** needs `R - W + 1` distinct 404s — enough
//!   that a successfully written blob cannot be misreported as absent
//!   (any W-write and any (R-W+1)-read overlap in at least one node);
//!   fewer 404s than that with the rest unreachable is *unavailable*,
//!   which the service maps to 503 so the proxy fails loudly instead
//!   of serving the degraded public part;
//! * **health**: node requests get a bounded number of in-place
//!   retries (`op_retries`, paced by `retry_pause`) so one dropped
//!   packet doesn't count as an outage; consecutive *exhausted* ops
//!   eject the node for a backoff window that grows exponentially with
//!   jitter (`backoff_base`..`backoff_max`, ±`backoff_jitter`) while
//!   post-expiry probes keep failing — a dead node costs one failed
//!   probe per window, not one per request, and a long outage is probed
//!   ever more rarely. An ejected node is skipped on the first read
//!   pass and retried as a last resort (and for writes it is always
//!   attempted — a refused connect is cheap, and the write set must
//!   stay as full as possible);
//! * **integrity** is end-to-end: nodes carry the at-rest CRC over the
//!   wire (`x-p3-crc32` on GETs, echoed on PUT acks), and the router
//!   verifies it before trusting any answer. A replica serving rotten
//!   bytes (or marking its own copy corrupt with a
//!   `x-p3-error: corrupt` 503) is counted in `integrity_rejects`,
//!   **excluded from the miss quorum** — a corrupt copy proves the blob
//!   *exists*, so it must never help declare it absent — and queued for
//!   read-repair from a verified replica. With every intact copy
//!   unreachable the read surfaces `Err(Corrupt)` (a 503), never a
//!   false definitive miss.
//!
//! # Dynamic membership
//!
//! The node list lives in an epoch-numbered membership snapshot
//! (epoch 1 is the boot topology). [`ClusterBackend::update_membership`]
//! applies adds and removes atomically as one epoch bump, then runs the
//! **convergence pass** (below), counting the copies it streams in
//! `rebalanced_blobs`. Data-path operations snapshot the membership per
//! call, so traffic keeps flowing during a change — and while the pass
//! is in flight the *previous* epoch stays live for reads: a definitive
//! miss at the new placement falls back to the old replica set (writing
//! any find through to the new owners), so a re-owned but
//! not-yet-streamed blob can never read as falsely absent. A *partial*
//! pass (a stream failed, or a current member could not be walked)
//! keeps that fallback window open — with reachable ex-members still
//! serving as read-fallback and repair sources, and further membership
//! changes refused — until a sweep proves the cluster converged.
//!
//! # One convergence pass
//!
//! Read-repair only heals blobs that get read; a node that died and
//! returned empty would stay under-replicated on its cold blobs
//! forever. The router has exactly one mechanism that moves replicas
//! without a client asking, run after every membership change and by
//! [`ClusterBackend::sweep_once`] (periodically, via
//! [`ClusterBackend::spawn_sweeper`]; counted in `sweep_repairs`): walk
//! the paginated `/index` and `/tombstones` of every member and every
//! previous-epoch ex-member, push each learned delete across the
//! blob's current replica set, then stream every other blob seen
//! anywhere to each current replica whose index lacks it, from any
//! holder whose copy verifies. A node that cannot be walked — down, or
//! paging dishonestly — has *unknown* contents, never empty ones. The
//! sweep closes the fallback window only after a pass that streamed
//! nothing, failed nothing and walked every node. The pass issues
//! **zero client reads**: it talks straight to the nodes' `/index` and
//! `/blobs` routes and never touches the router's get path.
//!
//! # Tombstones make deletes real
//!
//! A replica's `Found` outranks a met miss quorum, because a plain 404
//! cannot distinguish "never written" from "node lost its disk" —
//! preferring the surviving copy is what makes repair-after-data-loss
//! work. The flip side used to be that a *deleted* blob could resurface
//! if a replica missed the delete and a later read or sweep
//! re-replicated it. Tombstone-capable backends (the packed needle log,
//! and [`crate::MemBackend`] for tests) close that hole: their 404s
//! carry `x-p3-tombstone: 1` when the miss is a durable delete, and
//! nodes serve a paginated `GET /tombstones` listing.
//!
//! The router honours tombstones at two points. A read that sees a
//! tombstoned 404 (`NodeAnswer::Deleted`) treats it as *definitive* —
//! it outranks any stale `Found` still sitting on a replica that missed
//! the delete — and pushes the delete to the other replicas
//! (`tombstone_propagations`) instead of letting read-repair resurrect
//! the blob. The convergence pass learns every walked node's
//! tombstones before diffing indexes: tombstoned IDs are never
//! re-replicated, any live copy still sitting on a current replica is
//! deleted, and a replica that missed the delete is handed the
//! tombstone — so delete knowledge survives membership churn (a DELETE
//! to a node that never held the blob still writes a tombstone there).

use crate::crc32;
use crate::hex_decode;
use crate::ring::HashRing;
use crate::{
    BackendStats, MembershipChange, MembershipView, StatCounters, StorageBackend, StorageError,
    StorageResult,
};
use p3_net::client::{ClientError, ClientPool, DEFAULT_MAX_IDLE_PER_HOST};
use p3_net::{Deadlines, Response, StatusCode, TcpTransport, Transport};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Weak;
use std::time::Duration;
use std::time::Instant;

/// Page size the convergence pass requests from `GET /index` and
/// `GET /tombstones`.
const INDEX_FETCH_PAGE: usize = 512;

/// Cluster topology and failure-handling knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Initial storage node addresses (each speaking `/blobs/{id}` +
    /// `/len` + `/index`). Epoch 1 of the membership table.
    pub nodes: Vec<SocketAddr>,
    /// Copies of every blob (R). Clamped to the *current* node count on
    /// every operation, so a cluster grown past R starts replicating R
    /// ways without reconfiguration.
    pub replicas: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
    /// Consecutive failures before a node is ejected.
    pub eject_after: u32,
    /// First backoff window after an ejection: how long the node sits
    /// out before it is probed again. Doubles on every failed
    /// post-expiry probe (capped at `backoff_max`), so a long outage is
    /// probed ever more rarely instead of at a fixed cadence.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff window.
    pub backoff_max: Duration,
    /// Jitter applied to every backoff window as a ± fraction (0.2 =
    /// ±20%), so replicas ejected together don't re-probe in lockstep.
    /// Set to 0.0 for deterministic windows (tests).
    pub backoff_jitter: f64,
    /// In-place retries per node request after the first attempt, so
    /// one dropped packet doesn't count as an outage. Health
    /// bookkeeping sees only the final outcome.
    pub op_retries: u32,
    /// Pause between in-place retries of one node request.
    pub retry_pause: Duration,
    /// Per-request connect deadline for node traffic.
    pub connect_timeout: Duration,
    /// Per-request read/write deadline for node traffic — bounds what a
    /// black-holed (accepting but never answering) peer can cost.
    pub read_timeout: Duration,
    /// Copies the convergence pass streams before pausing once.
    pub repair_batch: usize,
    /// Pause between repair batches (the throttle: keeps a big pass
    /// from saturating the network the live traffic needs).
    pub repair_pause: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: Vec::new(),
            replicas: 2,
            vnodes: 64,
            eject_after: 3,
            backoff_base: Duration::from_secs(1),
            backoff_max: Duration::from_secs(30),
            backoff_jitter: 0.2,
            op_retries: 1,
            retry_pause: Duration::from_millis(20),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(10),
            repair_batch: 64,
            repair_pause: Duration::from_millis(2),
        }
    }
}

/// Per-node circuit breaker. Shared across membership epochs by
/// address, so an ejection outlives the epoch bump that kept the node.
#[derive(Debug, Default)]
pub(super) struct NodeHealth {
    consecutive_failures: AtomicU32,
    /// How many backoff windows this outage has already burned —
    /// exponent of the next window's duration. Reset on any success.
    backoff_exp: AtomicU32,
    ejected_until: Mutex<Option<Instant>>,
}

/// Multiplier in `[1 - jitter, 1 + jitter)` from a global splitmix64
/// stream (the offline build has no `rand`; splitmix is plenty for
/// de-synchronizing probe schedules). `jitter <= 0` is exactly 1.0, so
/// tests get deterministic windows.
fn jitter_factor(jitter: f64) -> f64 {
    if jitter <= 0.0 {
        return 1.0;
    }
    static STATE: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut z = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 - jitter + 2.0 * jitter * unit
}

/// Verify a node response's `x-p3-crc32` header against its body. A
/// missing header passes (the one-shot `/index`-style routes don't
/// carry one); a present-but-unparseable or mismatched one is an
/// integrity failure — the envelope arrived, the payload is rotten.
fn wire_crc_ok(r: &Response) -> bool {
    match r.headers.get("x-p3-crc32") {
        Some(v) => u32::from_str_radix(v.trim(), 16).map(|want| want == crc32(&r.body)) == Ok(true),
        None => true,
    }
}

/// One immutable membership epoch: the node list, the ring built from
/// the node address strings, and each node's health tracker.
#[derive(Debug)]
pub(super) struct Membership {
    pub(super) epoch: u64,
    pub(super) nodes: Vec<SocketAddr>,
    ring: HashRing,
    pub(super) health: Vec<Arc<NodeHealth>>,
}

impl Membership {
    pub(super) fn build(
        epoch: u64,
        nodes: Vec<SocketAddr>,
        vnodes: usize,
        prev: Option<&Membership>,
    ) -> Self {
        let ids: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        let ring = HashRing::with_ids(&ids, vnodes);
        let health = nodes
            .iter()
            .map(|addr| {
                prev.and_then(|p| {
                    p.nodes.iter().position(|a| a == addr).map(|i| Arc::clone(&p.health[i]))
                })
                .unwrap_or_default()
            })
            .collect();
        Membership { epoch, nodes, ring, health }
    }

    /// Replica node *indices* for a blob ID (preference order).
    pub(super) fn replica_nodes(&self, id: &str, r: usize) -> Vec<usize> {
        self.ring.replicas_for(id, r)
    }

    /// Replica node *addresses* for a blob ID (preference order).
    pub(super) fn replica_addrs(&self, id: &str, r: usize) -> Vec<SocketAddr> {
        self.replica_nodes(id, r).into_iter().map(|n| self.nodes[n]).collect()
    }

    pub(super) fn view(&self) -> MembershipView {
        MembershipView { epoch: self.epoch, nodes: self.nodes.clone() }
    }
}

/// The router. One instance fans a flat blob namespace out over the
/// current membership's nodes.
#[derive(Debug)]
pub struct ClusterBackend {
    cfg: ClusterConfig,
    /// Current membership; data-path calls clone the `Arc` and work on
    /// an immutable snapshot.
    membership: Mutex<Arc<Membership>>,
    /// The immediately-previous epoch, set only while its successor's
    /// rebalance is in flight. Reads that would otherwise report a
    /// definitive miss fall back to the old placement during that
    /// window: a blob re-owned by the new ring but not yet streamed
    /// must never read as "absent" — the proxy would pass the
    /// privacy-degraded public part through as a non-P3 photo.
    prev_epoch: Mutex<Option<Arc<Membership>>>,
    /// Serializes admin operations (membership changes, sweeps) so two
    /// convergence passes never interleave their repair streams.
    admin: Mutex<()>,
    pool: ClientPool,
    stats: StatCounters,
}

/// What one node said about one blob.
#[derive(Debug, PartialEq)]
enum NodeAnswer {
    /// A 2xx whose body survived the wire-CRC check.
    Found(Vec<u8>),
    /// The node answered authoritatively: no such blob.
    Absent,
    /// The node answered 404 *with a tombstone marker*: the blob was
    /// durably deleted. Outranks `Found` from a replica that missed the
    /// delete — the opposite of `Absent`, which `Found` outranks.
    Deleted,
    /// The node is *alive* and holds the blob, but its answer failed
    /// integrity: body didn't match the wire CRC, or the node marked
    /// its own copy corrupt (`x-p3-error: corrupt`). Never counts
    /// toward the miss quorum — a corrupt copy proves the blob exists —
    /// and never trips the circuit breaker; it queues a read-repair.
    Corrupt,
    /// Transport error or an unmarked 5xx — the node's word means
    /// nothing.
    Failed,
}

impl ClusterBackend {
    /// Build a router over plain TCP. Fails on an empty or duplicated
    /// node list or a replica count of zero.
    pub fn new(cfg: ClusterConfig) -> StorageResult<ClusterBackend> {
        Self::with_transport(cfg, Arc::new(TcpTransport))
    }

    /// Build a router whose node traffic runs over a caller-supplied
    /// [`Transport`] — the seam the simulate harness uses to inject
    /// partitions, black holes, latency, and in-flight bit flips
    /// between the router and individual nodes.
    pub fn with_transport(
        cfg: ClusterConfig,
        transport: Arc<dyn Transport>,
    ) -> StorageResult<ClusterBackend> {
        if cfg.nodes.is_empty() {
            return Err(StorageError::Unavailable("cluster has no nodes".into()));
        }
        if cfg.replicas == 0 {
            return Err(StorageError::Unavailable("replication factor must be ≥ 1".into()));
        }
        let mut seen = HashSet::new();
        for n in &cfg.nodes {
            if !seen.insert(*n) {
                return Err(StorageError::Unavailable(format!("duplicate node address {n}")));
            }
        }
        let mut cfg = cfg;
        cfg.vnodes = cfg.vnodes.max(1);
        cfg.repair_batch = cfg.repair_batch.max(1);
        let membership =
            Mutex::new(Arc::new(Membership::build(1, cfg.nodes.clone(), cfg.vnodes, None)));
        let pool = ClientPool::with_transport(
            DEFAULT_MAX_IDLE_PER_HOST,
            transport,
            Deadlines { connect: cfg.connect_timeout, read: cfg.read_timeout },
        );
        Ok(ClusterBackend {
            membership,
            prev_epoch: Mutex::new(None),
            admin: Mutex::new(()),
            pool,
            stats: StatCounters::default(),
            cfg,
        })
    }

    fn snapshot(&self) -> Arc<Membership> {
        Arc::clone(&self.membership.lock())
    }

    /// Effective replication factor under `m`: the configured R capped
    /// by how many nodes exist to hold copies.
    fn r_eff(&self, m: &Membership) -> usize {
        self.cfg.replicas.min(m.nodes.len()).max(1)
    }

    /// Write quorum: a majority of the replica set.
    fn write_quorum(r: usize) -> usize {
        r / 2 + 1
    }

    /// 404s needed before a miss is definitive: any set this large
    /// intersects every possible successful write set.
    fn miss_quorum(r: usize) -> usize {
        r - Self::write_quorum(r) + 1
    }

    /// The replica set (node addresses, preference order) for a blob ID
    /// — public so operators and tests can ask "where does this blob
    /// live?".
    pub fn replicas_for(&self, id: &str) -> Vec<SocketAddr> {
        let m = self.snapshot();
        m.replica_addrs(id, self.r_eff(&m))
    }

    /// Current member node addresses.
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        self.snapshot().nodes.clone()
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    pub(super) fn available(&self, m: &Membership, node: usize) -> bool {
        match *m.health[node].ejected_until.lock() {
            Some(until) => Instant::now() >= until,
            None => true,
        }
    }

    pub(super) fn mark_ok(&self, m: &Membership, node: usize) {
        m.health[node].consecutive_failures.store(0, Ordering::Relaxed);
        m.health[node].backoff_exp.store(0, Ordering::Relaxed);
        *m.health[node].ejected_until.lock() = None;
    }

    pub(super) fn mark_failure(&self, m: &Membership, node: usize) {
        self.stats.node_failure();
        let health = &m.health[node];
        let fails = health.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails < self.cfg.eject_after {
            return;
        }
        let mut ejected = health.ejected_until.lock();
        let now = Instant::now();
        // A failure inside an open window (writes still attempt ejected
        // nodes) must not extend it — the scheduled probe happens on
        // schedule, or a dead node under write traffic is never probed.
        if let Some(until) = *ejected {
            if now < until {
                return;
            }
        }
        // First trip of this outage, or a failed post-expiry probe:
        // schedule the next window, doubling per burned window.
        if fails == self.cfg.eject_after {
            self.stats.node_ejected();
            health.backoff_exp.store(0, Ordering::Relaxed);
        }
        let exp = health.backoff_exp.fetch_add(1, Ordering::Relaxed).min(16);
        let window = (self.cfg.backoff_base.as_secs_f64() * 2f64.powi(exp as i32))
            .min(self.cfg.backoff_max.as_secs_f64())
            * jitter_factor(self.cfg.backoff_jitter);
        self.stats.backoff();
        *ejected = Some(now + Duration::from_secs_f64(window.max(0.0)));
    }

    /// What a node's `GET /blobs/{id}` result tells the router — the one
    /// place a node's word is interpreted, for the read path and the
    /// repair paths alike. Every `Corrupt` is counted in
    /// `integrity_rejects`, whoever asked.
    fn classify(&self, got: Result<Response, ClientError>) -> NodeAnswer {
        let answer = match got {
            Ok(r) if r.status.is_success() && wire_crc_ok(&r) => NodeAnswer::Found(r.body),
            // Alive node, rotten payload (at rest past the node's own
            // check, or flipped in flight).
            Ok(r) if r.status.is_success() => NodeAnswer::Corrupt,
            Ok(r) if r.status == StatusCode::NOT_FOUND => {
                if r.headers.get("x-p3-tombstone") == Some("1") {
                    NodeAnswer::Deleted
                } else {
                    NodeAnswer::Absent
                }
            }
            // The node detected its own at-rest corruption: it is alive
            // and *holds* the blob — it may neither be ejected nor vote
            // the blob absent.
            Ok(r) if r.headers.get("x-p3-error") == Some("corrupt") => NodeAnswer::Corrupt,
            _ => NodeAnswer::Failed,
        };
        if matches!(answer, NodeAnswer::Corrupt) {
            self.stats.integrity_reject();
        }
        answer
    }

    /// One GET straight to a node address, classified. Outside the
    /// health bookkeeping: the repair paths use it bare, [`Self::node_get`]
    /// adds retries and the circuit breaker.
    fn ask(&self, addr: SocketAddr, id: &str) -> NodeAnswer {
        self.classify(self.pool.get(addr, &format!("/blobs/{id}")))
    }

    fn node_get(&self, m: &Membership, node: usize, id: &str) -> NodeAnswer {
        let mut attempt = 0u32;
        loop {
            match self.ask(m.nodes[node], id) {
                NodeAnswer::Failed if attempt < self.cfg.op_retries => {
                    attempt += 1;
                    self.stats.retry();
                    std::thread::sleep(self.cfg.retry_pause);
                }
                NodeAnswer::Failed => {
                    self.mark_failure(m, node);
                    return NodeAnswer::Failed;
                }
                // Any interpretable answer — a corrupt copy included —
                // came from a live node: don't eject it.
                answer => {
                    self.mark_ok(m, node);
                    return answer;
                }
            }
        }
    }

    fn node_put(&self, m: &Membership, node: usize, id: &str, data: &[u8]) -> bool {
        let mut attempt = 0u32;
        loop {
            if self.direct_put(m.nodes[node], id, data) {
                self.mark_ok(m, node);
                return true;
            }
            if attempt < self.cfg.op_retries {
                attempt += 1;
                self.stats.retry();
                std::thread::sleep(self.cfg.retry_pause);
                continue;
            }
            self.mark_failure(m, node);
            return false;
        }
    }

    /// PUT straight to a node address, outside the health bookkeeping —
    /// the repair paths use this so a pass against a flaky target
    /// doesn't trip the data path's circuit breaker. The node echoes
    /// the CRC of what it stored on the ack; an echo that doesn't match
    /// what we sent means the bytes rotted in flight — a success ack we
    /// cannot trust is a failed write.
    fn direct_put(&self, addr: SocketAddr, id: &str, data: &[u8]) -> bool {
        match self.pool.put(
            addr,
            &format!("/blobs/{id}"),
            "application/octet-stream",
            data.to_vec(),
        ) {
            Ok(r) if r.status.is_success() => match r.headers.get("x-p3-crc32") {
                Some(echo) => {
                    let ok = u32::from_str_radix(echo.trim(), 16) == Ok(crc32(data));
                    if !ok {
                        self.stats.integrity_reject();
                    }
                    ok
                }
                None => true,
            },
            _ => false,
        }
    }

    /// During a rebalance window, probe the previous epoch's replica
    /// set for a blob the current placement reported absent — it may
    /// simply not have been streamed to its new owners yet. Found blobs
    /// are written through to the current replicas (counted as read
    /// repairs) so the next read finds them at their new home.
    ///
    /// `Ok(None)` means every previous-epoch replica *authoritatively*
    /// answered 404; an unreachable old replica makes the answer
    /// unknowable and surfaces as `Err` — the fallback must not turn a
    /// transient old-holder outage into a false definitive miss, any
    /// more than the primary read path would.
    fn get_from_prev_epoch(
        &self,
        id: &str,
        current_replicas: &[SocketAddr],
    ) -> StorageResult<Option<Vec<u8>>> {
        let Some(prev) = self.prev_epoch.lock().clone() else {
            return Ok(None);
        };
        let mut unreachable = 0usize;
        for addr in prev.replica_addrs(id, self.r_eff(&prev)) {
            match self.ask(addr, id) {
                NodeAnswer::Found(body) => {
                    for &cur in current_replicas {
                        if self.direct_put(cur, id, &body) {
                            self.stats.read_repair();
                        }
                    }
                    return Ok(Some(body));
                }
                NodeAnswer::Absent | NodeAnswer::Deleted => {}
                // A rotten old copy can't serve — but it proves the
                // blob exists, so it must not count toward "every old
                // replica said 404" either.
                NodeAnswer::Corrupt | NodeAnswer::Failed => unreachable += 1,
            }
        }
        if unreachable > 0 {
            return Err(StorageError::Unavailable(format!(
                "rebalance in flight and {unreachable} previous-epoch replica(s) unreachable"
            )));
        }
        Ok(None)
    }

    /// Push a delete of `id` to each of `targets` — the one place the
    /// router propagates a tombstone, for a read that saw one and for
    /// the convergence pass alike. Best-effort: a node still holding a
    /// stale live copy loses it (a 200, counted in
    /// `tombstone_propagations`), one that missed the delete entirely
    /// gains the tombstone (an idempotent 404, not worth counting), and
    /// an unreachable one heals on a later pass. Outside the health
    /// bookkeeping, like every repair write.
    fn push_delete(&self, targets: impl IntoIterator<Item = SocketAddr>, id: &str) {
        for addr in targets {
            if let Ok(resp) = self.pool.delete(addr, &format!("/blobs/{id}")) {
                if resp.status.is_success() {
                    self.stats.tombstone_propagation();
                }
            }
        }
    }

    /// Fetch one blob straight from the first holder that serves it
    /// *with a verified body* — a repair stream sourced from a rotten
    /// copy would replicate the rot.
    fn direct_get(&self, holders: &[SocketAddr], id: &str) -> Option<Vec<u8>> {
        holders.iter().find_map(|&addr| match self.ask(addr, id) {
            NodeAnswer::Found(body) => Some(body),
            _ => None,
        })
    }

    /// Walk one node's full id listing at `route` — `/index` (blobs
    /// held) or `/tombstones` (durable deletes; backends without
    /// tombstones legitimately serve empty pages) — through the
    /// paginated line protocol the two routes share. `None` means the
    /// node could not be walked — down, not answering, or not paging
    /// honestly — and callers must treat its contents as unknown, not
    /// empty.
    fn fetch_ids(&self, addr: SocketAddr, route: &str) -> Option<BTreeSet<String>> {
        let mut ids = BTreeSet::new();
        let mut after: Option<String> = None;
        loop {
            let path = match &after {
                None => format!("{route}?limit={INDEX_FETCH_PAGE}"),
                Some(cursor) => format!("{route}?after={cursor}&limit={INDEX_FETCH_PAGE}"),
            };
            let resp = self.pool.get(addr, &path).ok()?;
            if !resp.status.is_success() {
                return None;
            }
            let body = String::from_utf8_lossy(&resp.body);
            let mut page = 0usize;
            let mut last_line: Option<&str> = None;
            for line in body.lines().filter(|l| !l.is_empty()) {
                page += 1;
                last_line = Some(line);
                if let Some(id) = hex_decode(line) {
                    ids.insert(id);
                }
            }
            if page < INDEX_FETCH_PAGE {
                return Some(ids);
            }
            // The node is untrusted and the walk holds the admin lock:
            // hex lines are byte-ordered and the cursor is exclusive, so
            // a full page that does not end strictly past the cursor is
            // a node replaying pages, which would loop here forever.
            let next = last_line.map(str::to_string);
            if next <= after {
                return None;
            }
            after = next;
        }
    }

    // ---- membership admin -------------------------------------------

    /// Apply `add` then `remove` as one epoch bump, swap the new
    /// membership in, and run the convergence pass. Serialized with
    /// other admin operations; data-path traffic keeps flowing
    /// throughout.
    pub fn update_membership(
        &self,
        add: &[SocketAddr],
        remove: &[SocketAddr],
    ) -> StorageResult<MembershipChange> {
        let _admin = self.admin.lock();
        if self.prev_epoch.lock().is_some() {
            return Err(StorageError::Unavailable(
                "previous membership change has not fully converged; run an anti-entropy \
                 sweep (or wait for the sweeper) and retry"
                    .into(),
            ));
        }
        let old = self.snapshot();
        let mut nodes = old.nodes.clone();
        for a in add {
            if nodes.contains(a) {
                return Err(StorageError::Unavailable(format!("{a} is already a member")));
            }
            nodes.push(*a);
        }
        for r in remove {
            match nodes.iter().position(|n| n == r) {
                Some(i) => {
                    nodes.remove(i);
                }
                None => {
                    return Err(StorageError::Unavailable(format!("{r} is not a member")));
                }
            }
        }
        if nodes.is_empty() {
            return Err(StorageError::Unavailable("cannot remove the last node".into()));
        }
        let next = Arc::new(Membership::build(old.epoch + 1, nodes, self.cfg.vnodes, Some(&old)));
        // Publish the new epoch but keep the old one live for reads
        // until the pass has streamed every re-owned blob: a read that
        // hits only not-yet-populated new owners falls back to the old
        // placement instead of reporting a false definitive miss.
        *self.prev_epoch.lock() = Some(Arc::clone(&old));
        *self.membership.lock() = Arc::clone(&next);
        let (rebalanced, failed, _) =
            self.converge(&next, Some(&old), StatCounters::rebalanced_blob);
        // A partial pass (a stream failed, or a current member could
        // not be walked) leaves the fallback window open: reads stay
        // correct via the old placement, and the anti-entropy sweep
        // closes the window once a pass proves the cluster converged.
        // An unwalkable *ex*-member does not count: removing a dead
        // node is the primary use of `remove`, and a dead node's data
        // cannot be saved by refusing the operation — at R≥2 the
        // survivors hold copies and re-replicate normally.
        if failed == 0 {
            *self.prev_epoch.lock() = None;
        }
        Ok(MembershipChange { view: next.view(), rebalanced_blobs: rebalanced })
    }

    /// True while reads are still falling back to the previous epoch's
    /// placement — set during a rebalance, and kept after a *partial*
    /// one until an anti-entropy sweep proves convergence.
    pub fn rebalance_window_open(&self) -> bool {
        self.prev_epoch.lock().is_some()
    }

    /// Convenience wrapper: add one node.
    pub fn add_node(&self, addr: SocketAddr) -> StorageResult<MembershipChange> {
        self.update_membership(&[addr], &[])
    }

    /// Convenience wrapper: remove one node.
    pub fn remove_node(&self, addr: SocketAddr) -> StorageResult<MembershipChange> {
        self.update_membership(&[], &[addr])
    }

    // ---- convergence -------------------------------------------------

    /// The one convergence pass, run by a membership change and by the
    /// anti-entropy sweep: make every replica of `m` hold what it
    /// should, from any verified holder. It walks the index and the
    /// tombstones of every member of `m` and of every node only `prev`
    /// lists (a drained-but-alive ex-member can still hand its blobs
    /// off), pushes each learned delete across the blob's current
    /// replica set, then streams every other blob seen anywhere to each
    /// current replica whose index is known to lack it — one verified
    /// GET, throttled PUTs, `count`ed per copy that landed. Never
    /// issues a client read (`gets` stays untouched).
    ///
    /// Returns `(copies streamed, failures, every node walked)`. A
    /// failure is a stream that found no verified source or whose PUT
    /// was refused, or a *member* that could not be walked: its
    /// contents are unknown, so nothing proves its replicas whole.
    fn converge(
        &self,
        m: &Membership,
        prev: Option<&Membership>,
        count: fn(&StatCounters),
    ) -> (u64, u64, bool) {
        let r = self.r_eff(m);
        // Members first, so a member's position here is its ring index.
        let mut nodes = m.nodes.clone();
        nodes.extend(prev.iter().flat_map(|p| &p.nodes).filter(|a| !m.nodes.contains(a)));
        let walk = |route| nodes.iter().map(|&addr| self.fetch_ids(addr, route)).collect();
        let indexes: Vec<Option<BTreeSet<String>>> = walk("/index");
        let tombs: Vec<Option<BTreeSet<String>>> = walk("/tombstones");
        let unwalked = |n: usize| indexes[n].is_none() || tombs[n].is_none();
        // Whether node `n`'s listing names `id`; `None` when unwalked.
        let lists = |sets: &[Option<BTreeSet<String>>], n: usize, id: &String| {
            sets[n].as_ref().map(|ids| ids.contains(id))
        };
        let mut failed = (0..m.nodes.len()).filter(|&n| unwalked(n)).count() as u64;
        let all_walked = !(0..nodes.len()).any(unwalked);
        // Tombstones outrank live copies: every delete is learned
        // *before* any index is diffed, or the streams below would
        // faithfully resurrect a deleted blob from whichever replica
        // missed the delete. Each goes to the current replicas that
        // still hold a live copy or lack the tombstone (a DELETE writes
        // one even on a node that never held the blob), so delete
        // knowledge survives membership churn.
        let tombstoned: BTreeSet<&String> = tombs.iter().flatten().flatten().collect();
        for &id in &tombstoned {
            let lagging = m.replica_nodes(id, r).into_iter().filter(|&n| {
                lists(&indexes, n, id) == Some(true) || lists(&tombs, n, id) == Some(false)
            });
            self.push_delete(lagging.map(|n| m.nodes[n]), id);
        }
        let live: BTreeSet<&String> =
            indexes.iter().flatten().flatten().filter(|id| !tombstoned.contains(id)).collect();
        let mut streamed = 0u64;
        let mut since_pause = 0usize;
        for id in live {
            // An unwalked replica is not a target: it heals on a later
            // pass, and was already charged as a failure above.
            let mut targets = m.replica_nodes(id, r);
            targets.retain(|&n| lists(&indexes, n, id) == Some(false));
            if targets.is_empty() {
                continue;
            }
            let holders: Vec<SocketAddr> = (0..nodes.len())
                .filter(|&n| lists(&indexes, n, id) == Some(true))
                .map(|n| nodes[n])
                .collect();
            let Some(body) = self.direct_get(&holders, id) else {
                failed += targets.len() as u64;
                continue;
            };
            for n in targets {
                if self.direct_put(m.nodes[n], id, &body) {
                    streamed += 1;
                    count(&self.stats);
                } else {
                    failed += 1;
                }
                since_pause += 1;
                if since_pause >= self.cfg.repair_batch {
                    std::thread::sleep(self.cfg.repair_pause);
                    since_pause = 0;
                }
            }
        }
        (streamed, failed, all_walked)
    }

    /// One anti-entropy pass: re-replicate every blob a live replica is
    /// missing and return the number of repairs streamed (also in
    /// `sweep_repairs`).
    pub fn sweep_once(&self) -> u64 {
        let _admin = self.admin.lock();
        let m = self.snapshot();
        // While a fallback window is open, *ex-members* of the previous
        // epoch may still hold the only copy of a blob a partial pass
        // failed to stream: they are repair sources too.
        let prev = self.prev_epoch.lock().clone();
        let (repairs, failed, all_walked) =
            self.converge(&m, prev.as_deref(), StatCounters::sweep_repair);
        self.stats.sweep_run();
        // A clean pass over a fully-walked topology — every member AND
        // every windowed ex-member answered — proves the cluster
        // converged: the fallback window can close now. (Serialized
        // with membership changes by the admin lock, so this cannot
        // race a new one.)
        if repairs == 0 && failed == 0 && all_walked {
            *self.prev_epoch.lock() = None;
        }
        repairs
    }

    /// Start the background anti-entropy thread, sweeping every
    /// `interval`. The thread holds only a [`Weak`] reference — it
    /// exits when the backend is dropped — and the returned handle
    /// stops it promptly on drop.
    pub fn spawn_sweeper(self: &Arc<Self>, interval: Duration) -> Sweeper {
        let weak: Weak<ClusterBackend> = Arc::downgrade(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("p3-anti-entropy".into())
            .spawn(move || loop {
                let deadline = Instant::now() + interval;
                loop {
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::park_timeout((deadline - now).min(Duration::from_millis(100)));
                }
                match weak.upgrade() {
                    Some(cluster) => {
                        let _ = cluster.sweep_once();
                    }
                    None => return,
                }
            })
            .expect("spawn anti-entropy sweeper");
        Sweeper { stop, handle: Some(handle) }
    }
}

/// Handle owning the background anti-entropy thread
/// ([`ClusterBackend::spawn_sweeper`]); dropping it stops the sweeps.
#[derive(Debug)]
pub struct Sweeper {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl StorageBackend for ClusterBackend {
    fn kind(&self) -> &'static str {
        "cluster"
    }

    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        let m = self.snapshot();
        let r = self.r_eff(&m);
        let replicas = m.replica_nodes(id, r);
        let acks = replicas.iter().filter(|&&n| self.node_put(&m, n, id, data)).count();
        if acks < replicas.len() && acks > 0 {
            self.stats.partial_write();
        }
        if acks >= Self::write_quorum(r) {
            self.stats.put(data.len());
            Ok(())
        } else {
            Err(StorageError::Unavailable(format!(
                "write quorum not met: {acks}/{} acks (need {})",
                replicas.len(),
                Self::write_quorum(r)
            )))
        }
    }

    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        let m = self.snapshot();
        // Whether a rebalance window was open when this read began: if
        // it closes mid-read, the 404s collected below may predate the
        // blob arriving at its new home, and the miss path must
        // re-probe before answering. Captured up front so the common
        // case (no rebalance anywhere near this read) stays zero-cost.
        let rebalance_at_start = self.prev_epoch.lock().is_some();
        let r = self.r_eff(&m);
        let replicas = m.replica_nodes(id, r);
        let mut stale: Vec<usize> = Vec::new();
        let mut corrupt: Vec<usize> = Vec::new();
        let mut absent = 0usize;
        let mut found: Option<Vec<u8>> = None;
        // Healthy replicas first, in ring order; ejected ones after.
        let (available, deferred): (Vec<usize>, Vec<usize>) =
            replicas.iter().partition(|&&n| self.available(&m, n));
        for (i, &n) in available.iter().chain(&deferred).enumerate() {
            // Ejected replicas are a last resort, probed only when the
            // healthy ones could not answer definitively — rather than
            // failing on suspicion alone. Skipped once the miss quorum
            // is met: a definitive miss (the proxy's hot passthrough
            // probe for every non-P3 photo) must not pay a dead node's
            // connect timeout, or ejection would save nothing exactly
            // when it matters.
            if i == available.len() && absent >= Self::miss_quorum(r) {
                break;
            }
            match self.node_get(&m, n, id) {
                NodeAnswer::Found(body) => {
                    found = Some(body);
                    break;
                }
                NodeAnswer::Absent => {
                    absent += 1;
                    stale.push(n);
                }
                NodeAnswer::Deleted => {
                    // Durably deleted: a definitive miss that outranks
                    // any stale copy another replica may still hold.
                    // Heal the delete forward right now, so no later
                    // read-repair can undo it from a replica that
                    // missed it.
                    let others = replicas.iter().filter(|&&other| other != n);
                    self.push_delete(others.map(|&other| m.nodes[other]), id);
                    self.stats.get_miss();
                    return Ok(None);
                }
                NodeAnswer::Corrupt => corrupt.push(n),
                NodeAnswer::Failed => {}
            }
        }
        match found {
            Some(body) => {
                // Read-repair: every replica that authoritatively
                // answered 404 is stale (missed the write, or came back
                // empty after a failure), and every replica holding a
                // rotten copy needs it overwritten — the anti-entropy
                // sweep can't heal corruption (the blob is still in the
                // node's index), this re-PUT is what does.
                for &n in stale.iter().chain(&corrupt) {
                    if self.node_put(&m, n, id, &body) {
                        self.stats.read_repair();
                    }
                }
                self.stats.get_hit(body.len());
                Ok(Some(Arc::from(body)))
            }
            // A corrupt copy is proof the blob exists: with no intact
            // copy reachable the read fails loudly (503 + corrupt
            // marker) for the client to retry — never a definitive
            // miss, which would hand the proxy the privacy-degraded
            // public part to serve as a non-P3 photo.
            None if !corrupt.is_empty() => Err(StorageError::Corrupt(format!(
                "{} replica(s) hold only corrupt copies of {id}; no intact copy reachable",
                corrupt.len()
            ))),
            None if absent >= Self::miss_quorum(r) => {
                // A met miss quorum is only definitive when placement
                // is stable: mid-rebalance, the blob may live at its
                // previous-epoch home and simply not be streamed yet.
                let current: Vec<SocketAddr> = replicas.iter().map(|&n| m.nodes[n]).collect();
                if let Some(body) = self.get_from_prev_epoch(id, &current)? {
                    self.stats.get_hit(body.len());
                    return Ok(Some(Arc::from(body)));
                }
                // The window can also *close* between our replica walk
                // and the fallback probe: the 404s above may predate
                // the pass streaming the blob to exactly the
                // replicas that answered them. One re-probe of the
                // current placement settles it; a read that never saw
                // an open window skips this entirely.
                if rebalance_at_start && self.prev_epoch.lock().is_none() {
                    if let Some(body) = self.direct_get(&current, id) {
                        self.stats.get_hit(body.len());
                        return Ok(Some(Arc::from(body)));
                    }
                }
                self.stats.get_miss();
                Ok(None)
            }
            None => Err(StorageError::Unavailable(format!(
                "read quorum not met: {absent} definitive misses of {} needed, rest unreachable",
                Self::miss_quorum(r)
            ))),
        }
    }

    fn delete(&self, id: &str) -> StorageResult<bool> {
        self.stats.delete();
        let m = self.snapshot();
        let r = self.r_eff(&m);
        let replicas = m.replica_nodes(id, r);
        let mut acks = 0usize;
        let mut existed = false;
        for &n in &replicas {
            match self.pool.delete(m.nodes[n], &format!("/blobs/{id}")) {
                Ok(resp) if resp.status.is_success() => {
                    self.mark_ok(&m, n);
                    acks += 1;
                    existed = true;
                }
                Ok(resp) if resp.status == StatusCode::NOT_FOUND => {
                    self.mark_ok(&m, n);
                    acks += 1;
                }
                _ => self.mark_failure(&m, n),
            }
        }
        if acks >= Self::write_quorum(r) {
            Ok(existed)
        } else {
            Err(StorageError::Unavailable(format!(
                "delete quorum not met: {acks}/{} acks",
                replicas.len()
            )))
        }
    }

    /// Healthy-node estimate: every blob is held by `replicas` nodes, so
    /// the cluster-wide count is the per-node sum divided by R. Exact
    /// when all nodes are up and fully repaired; an undercount during
    /// outages.
    fn len(&self) -> usize {
        let m = self.snapshot();
        let mut sum = 0usize;
        for (n, &addr) in m.nodes.iter().enumerate() {
            if !self.available(&m, n) {
                continue;
            }
            if let Ok(r) = self.pool.get(addr, "/len") {
                if r.status.is_success() {
                    if let Ok(count) = String::from_utf8_lossy(&r.body).trim().parse::<usize>() {
                        sum += count;
                    }
                }
            }
            // Deliberately no mark_failure here: `len` feeds `/stats`
            // scrapes, and a monitoring poller must never trip the
            // data path's circuit breaker (ejecting a node the reads
            // could still have used).
        }
        sum.div_ceil(self.r_eff(&m))
    }

    fn membership(&self) -> Option<MembershipView> {
        Some(self.snapshot().view())
    }

    fn update_membership(
        &self,
        add: &[SocketAddr],
        remove: &[SocketAddr],
    ) -> StorageResult<MembershipChange> {
        ClusterBackend::update_membership(self, add, remove)
    }

    fn stats(&self) -> BackendStats {
        let mut stats = self.stats.snapshot();
        stats.membership_epoch = self.snapshot().epoch;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StorageCore, StorageService};
    use std::collections::HashMap;

    pub(super) fn spawn_nodes(n: usize) -> Vec<StorageService> {
        (0..n).map(|_| StorageService::spawn().unwrap()).collect()
    }

    pub(super) fn cluster(nodes: &[StorageService], replicas: usize) -> ClusterBackend {
        ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|s| s.addr()).collect(),
            replicas,
            backoff_base: Duration::from_millis(50),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ClusterBackend::new(ClusterConfig::default()).is_err(), "no nodes");
        let nodes = spawn_nodes(1);
        let cfg =
            ClusterConfig { nodes: vec![nodes[0].addr()], replicas: 0, ..ClusterConfig::default() };
        assert!(ClusterBackend::new(cfg).is_err(), "zero replicas");
        let dup = ClusterConfig {
            nodes: vec![nodes[0].addr(), nodes[0].addr()],
            replicas: 1,
            ..ClusterConfig::default()
        };
        assert!(ClusterBackend::new(dup).is_err(), "duplicate node address");
    }

    #[test]
    fn classify_maps_every_node_reply_to_one_answer() {
        // `classify` never dials out, so a dead address will do.
        let router = ClusterBackend::new(ClusterConfig {
            nodes: vec!["127.0.0.1:1".parse().unwrap()],
            ..ClusterConfig::default()
        })
        .unwrap();
        let blob = b"sealed secret part".to_vec();
        let reply = |status: u16, header: Option<(&str, &str)>, body: &[u8]| {
            let mut resp = Response::ok("application/octet-stream", body.to_vec());
            resp.status = StatusCode(status);
            if let Some((name, value)) = header {
                resp.headers.set(name, value);
            }
            Ok(resp)
        };
        let good = format!("{:08x}", crc32(&blob));
        let bad = format!("{:08x}", crc32(&blob) ^ 1);
        let found = || NodeAnswer::Found(blob.clone());
        // (reply, answer, integrity_rejects it must add)
        let rows = [
            (reply(200, Some(("x-p3-crc32", &good)), &blob), found(), 0),
            (reply(200, Some(("x-p3-crc32", &bad)), &blob), NodeAnswer::Corrupt, 1),
            (reply(200, None, &blob), found(), 0),
            (reply(404, None, b"no such blob"), NodeAnswer::Absent, 0),
            (reply(404, Some(("x-p3-tombstone", "1")), b"deleted"), NodeAnswer::Deleted, 0),
            (reply(503, Some(("x-p3-error", "corrupt")), b"corrupt"), NodeAnswer::Corrupt, 1),
            (reply(503, None, b"overloaded"), NodeAnswer::Failed, 0),
            (
                Err(ClientError::Connect(std::io::Error::other("connection refused"))),
                NodeAnswer::Failed,
                0,
            ),
        ];
        for (i, (got, want, rejects)) in rows.into_iter().enumerate() {
            let before = router.stats().integrity_rejects;
            assert_eq!(router.classify(got), want, "row {i}");
            assert_eq!(router.stats().integrity_rejects - before, rejects, "row {i}");
        }
    }

    #[test]
    fn put_replicates_to_r_nodes_and_get_roundtrips() {
        let nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 2);
        for i in 0..20 {
            cluster.put(&format!("blob-{i}"), &[i as u8; 256]).unwrap();
        }
        // Every blob readable through the router.
        for i in 0..20 {
            assert_eq!(
                cluster.get(&format!("blob-{i}")).unwrap().unwrap().len(),
                256,
                "blob-{i} lost"
            );
        }
        // Exactly R copies exist across the nodes.
        let copies: usize = nodes.iter().map(|n| n.core().len()).sum();
        assert_eq!(copies, 40, "R=2 must place exactly two copies per blob");
        assert_eq!(cluster.len(), 20);
        assert!(cluster.get("nope").unwrap().is_none(), "definitive miss with all nodes up");
        // Delete removes every replica.
        assert!(cluster.delete("blob-0").unwrap());
        assert!(!cluster.delete("blob-0").unwrap());
        let copies: usize = nodes.iter().map(|n| n.core().len()).sum();
        assert_eq!(copies, 38);
    }

    #[test]
    fn reads_survive_one_node_down_and_repair_it_on_return() {
        let mut nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 2);
        cluster.put("victim", b"precious secret part").unwrap();

        // Kill the *primary* replica so the read must fail over.
        let primary = cluster.replicas_for("victim")[0];
        let idx = nodes.iter().position(|n| n.addr() == primary).unwrap();
        let dead_core = Arc::clone(nodes[idx].core());
        assert_eq!(dead_core.len(), 1, "primary must hold a replica");
        nodes[idx].shutdown();

        // Degraded read: fails over to the surviving replica.
        for _ in 0..3 {
            let got = cluster.get("victim").unwrap().unwrap();
            assert_eq!(&got[..], b"precious secret part");
        }
        assert!(cluster.stats().node_failures > 0);

        // The node comes back *empty* (lost its disk). Wait out the
        // ejection cooldown, then a read must repair the replica.
        let fresh = Arc::new(StorageCore::new());
        let restarted = respawn_on(primary, Arc::clone(&fresh));
        std::thread::sleep(Duration::from_millis(80));
        let got = cluster.get("victim").unwrap().unwrap();
        assert_eq!(&got[..], b"precious secret part");
        assert_eq!(fresh.len(), 1, "read-repair must restore the lost replica");
        assert!(cluster.stats().read_repairs >= 1);
        drop(restarted);
    }

    /// Respawn a storage service on a specific (just-freed) address.
    pub(super) fn respawn_on(addr: SocketAddr, core: Arc<StorageCore>) -> StorageService {
        StorageService::respawn_on(addr, core)
            .unwrap_or_else(|e| panic!("could not rebind {addr}: {e}"))
    }

    #[test]
    fn unreachable_miss_is_unavailable_not_not_found() {
        // R=2 over exactly 2 nodes: with one down, a blob absent from
        // the live node *cannot* be declared missing (miss quorum 1 is
        // met by the live 404 — so use R=3/W=2 where miss quorum is 2).
        let mut nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 3);
        // Two nodes down → a 404 from the last one is not definitive.
        nodes[0].shutdown();
        nodes[1].shutdown();
        match cluster.get("ghost") {
            Err(StorageError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn write_quorum_tolerates_minority_failure_only() {
        let mut nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 3); // W = 2
        let addrs: Vec<_> = cluster.replicas_for("q");
        // Kill one replica: 2/3 acks still meet quorum.
        let idx = nodes.iter().position(|n| n.addr() == addrs[0]).unwrap();
        nodes[idx].shutdown();
        cluster.put("q", b"ok").unwrap();
        assert_eq!(cluster.stats().partial_writes, 1);
        // Kill a second: 1/3 acks cannot.
        let idx2 = nodes.iter().position(|n| n.addr() == addrs[1]).unwrap();
        nodes[idx2].shutdown();
        assert!(cluster.put("q2", b"no").is_err());
    }

    #[test]
    fn ejection_skips_dead_node_then_probes_after_cooldown() {
        let mut nodes = spawn_nodes(2);
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|s| s.addr()).collect(),
            replicas: 2,
            eject_after: 2,
            backoff_base: Duration::from_millis(300),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster.put("e", b"x").unwrap();
        let primary = cluster.replicas_for("e")[0];
        let idx = nodes.iter().position(|n| n.addr() == primary).unwrap();
        nodes[idx].shutdown();
        // Enough failed reads to trip the breaker…
        for _ in 0..3 {
            cluster.get("e").unwrap();
        }
        assert!(cluster.stats().nodes_ejected >= 1, "dead node must be ejected");
        let failures_when_ejected = cluster.stats().node_failures;
        // …after which reads stop probing it (no new failures)…
        for _ in 0..5 {
            cluster.get("e").unwrap();
        }
        // …including *misses*: with miss quorum 1 (R=2, W=2) the live
        // replica's 404 is definitive, so the last-resort pass must not
        // pay the dead node's connect cost either.
        assert_eq!(cluster.get("never-written").unwrap(), None);
        assert_eq!(
            cluster.stats().node_failures,
            failures_when_ejected,
            "ejected node must not be probed inside the cooldown"
        );
        // …until the cooldown expires and probing resumes.
        std::thread::sleep(Duration::from_millis(350));
        cluster.get("e").unwrap();
        assert!(cluster.stats().node_failures > failures_when_ejected);
    }

    #[test]
    fn backoff_windows_double_while_probes_keep_failing() {
        let mut nodes = spawn_nodes(2);
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|s| s.addr()).collect(),
            replicas: 2,
            eject_after: 1,
            backoff_base: Duration::from_millis(200),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster.put("b", b"x").unwrap();
        let primary = cluster.replicas_for("b")[0];
        let idx = nodes.iter().position(|n| n.addr() == primary).unwrap();
        nodes[idx].shutdown();
        // First failed read trips the breaker: one ejection, one
        // scheduled window (200 ms).
        cluster.get("b").unwrap();
        assert_eq!(cluster.stats().nodes_ejected, 1);
        assert_eq!(cluster.stats().backoffs, 1);
        let failures = cluster.stats().node_failures;
        // Probe after expiry fails → second window, doubled to 400 ms.
        std::thread::sleep(Duration::from_millis(250));
        cluster.get("b").unwrap();
        assert_eq!(cluster.stats().backoffs, 2, "failed post-expiry probe must escalate");
        assert_eq!(cluster.stats().node_failures, failures + 1);
        // 250 ms later we are *inside* the doubled window: no probe, no
        // new failure — the whole point of escalating.
        std::thread::sleep(Duration::from_millis(250));
        cluster.get("b").unwrap();
        assert_eq!(cluster.stats().node_failures, failures + 1, "doubled window must hold");
        assert_eq!(cluster.stats().nodes_ejected, 1, "still one outage");
        // Recovery resets the exponent: the next outage starts at base.
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(primary, Arc::clone(&reborn));
        std::thread::sleep(Duration::from_millis(200));
        cluster.get("b").unwrap();
        assert_eq!(reborn.len(), 1, "read-repair must heal the reborn node");
        assert_eq!(cluster.stats().backoffs, 2, "success must not schedule a window");
    }

    // ---- dynamic membership -----------------------------------------

    /// Copies the rebalancer is expected to stream for `ids` when the
    /// replica sets move from `old` to `new` placement, assuming full
    /// replication beforehand: one per (id, new owner not in old set).
    fn expected_moves(
        cluster: &ClusterBackend,
        ids: &[String],
        old_sets: &HashMap<String, Vec<SocketAddr>>,
    ) -> u64 {
        ids.iter()
            .map(|id| {
                let new_set = cluster.replicas_for(id);
                let old_set = &old_sets[id];
                new_set.iter().filter(|a| !old_set.contains(a)).count() as u64
            })
            .sum()
    }

    #[test]
    fn add_node_rebalances_only_reowned_blobs() {
        let nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 2);
        let ids: Vec<String> = (0..24).map(|i| format!("blob-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        let old_sets: HashMap<String, Vec<SocketAddr>> =
            ids.iter().map(|id| (id.clone(), cluster.replicas_for(id))).collect();

        let fourth = StorageService::spawn().unwrap();
        let change = cluster.add_node(fourth.addr()).unwrap();
        assert_eq!(change.view.epoch, 2);
        assert_eq!(change.view.nodes.len(), 4);
        assert_eq!(cluster.stats().membership_epoch, 2);

        let expected = expected_moves(&cluster, &ids, &old_sets);
        assert!(expected > 0, "a 4th node must take over some arcs");
        assert_eq!(change.rebalanced_blobs, expected, "must stream exactly the re-owned blobs");
        assert_eq!(cluster.stats().rebalanced_blobs, expected);
        // The new node holds precisely the blobs it now owns.
        let owned_by_fourth =
            ids.iter().filter(|id| cluster.replicas_for(id).contains(&fourth.addr())).count();
        assert_eq!(fourth.core().len(), owned_by_fourth);
        // Everything still reads back through the router.
        for id in &ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
    }

    #[test]
    fn membership_change_on_single_node_ring() {
        let node_a = spawn_nodes(1);
        let cluster = cluster(&node_a, 2); // R clamps to 1 while alone
        for i in 0..8 {
            cluster.put(&format!("solo-{i}"), &[i as u8; 64]).unwrap();
        }
        assert_eq!(node_a[0].core().len(), 8);

        // Growing 1 → 2 nodes un-clamps R to 2: every blob gains the
        // new node as a replica, so all 8 must stream.
        let node_b = spawn_nodes(1);
        let change = cluster.add_node(node_b[0].addr()).unwrap();
        assert_eq!(change.rebalanced_blobs, 8, "every blob gains a second replica");
        assert_eq!(node_b[0].core().len(), 8);

        // Draining the original node back down to 1 streams nothing new
        // (the survivor already holds everything) and keeps all reads.
        let change = cluster.remove_node(node_a[0].addr()).unwrap();
        assert_eq!(change.rebalanced_blobs, 0, "survivor already holds every blob");
        for i in 0..8 {
            assert!(cluster.get(&format!("solo-{i}")).unwrap().is_some());
        }

        // A 1-node ring cannot lose its last node.
        assert!(cluster.remove_node(node_b[0].addr()).is_err());
        // And membership ops validate their arguments.
        assert!(cluster.add_node(node_b[0].addr()).is_err(), "already a member");
        assert!(cluster.remove_node(node_a[0].addr()).is_err(), "not a member");
    }

    #[test]
    fn removing_a_node_owning_no_blobs_streams_nothing() {
        // R=1 over 4 nodes with 3 blobs: at least one node owns zero of
        // them after vnode hashing. Removing it changes no blob's
        // replica set, so the rebalancer must stream nothing.
        let nodes = spawn_nodes(4);
        let cluster = cluster(&nodes, 1);
        let ids: Vec<String> = (0..3).map(|i| format!("sparse-{i}")).collect();
        for id in &ids {
            cluster.put(id, b"payload").unwrap();
        }
        let empty_idx = nodes
            .iter()
            .position(|n| n.core().is_empty())
            .expect("4 nodes, 3 singly-placed blobs: someone is empty");
        let change = cluster.remove_node(nodes[empty_idx].addr()).unwrap();
        assert_eq!(change.rebalanced_blobs, 0, "no blob's replica set involved the empty node");
        for id in &ids {
            assert!(cluster.get(id).unwrap().is_some(), "{id} must survive the removal");
        }
    }

    #[test]
    fn add_then_remove_in_one_epoch_never_streams_to_departed_node() {
        let nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 2);
        for i in 0..16 {
            cluster.put(&format!("churn-{i}"), &[i as u8; 128]).unwrap();
        }
        // The node joins and leaves in the *same* admin operation (one
        // epoch bump): net membership is unchanged, so the rebalancer
        // must not stream a single blob to the departed node.
        let transient = StorageService::spawn().unwrap();
        let epoch_before = cluster.epoch();
        let change = cluster.update_membership(&[transient.addr()], &[transient.addr()]).unwrap();
        assert_eq!(change.view.epoch, epoch_before + 1, "one combined op = one epoch");
        assert_eq!(change.view.nodes.len(), 3, "net membership unchanged");
        assert_eq!(change.rebalanced_blobs, 0, "no replica set changed");
        assert_eq!(transient.core().len(), 0, "departed node must receive nothing");
    }

    #[test]
    fn reads_never_false_miss_during_rebalance_window() {
        // R=1 is the worst case: a re-owned blob's *only* current
        // replica is the new (still-empty) node, whose authoritative
        // 404 meets the miss quorum alone. Throttle the rebalancer hard
        // so the window is wide, and hammer reads from another thread —
        // every read must find every blob (via the previous-epoch
        // fallback) for the whole duration; a false Ok(None) here is
        // the proxy serving the privacy-degraded public part.
        let node_a = spawn_nodes(1);
        let cluster = Arc::new(
            ClusterBackend::new(ClusterConfig {
                nodes: vec![node_a[0].addr()],
                replicas: 1,
                repair_batch: 1,
                repair_pause: Duration::from_millis(40),
                ..ClusterConfig::default()
            })
            .unwrap(),
        );
        let ids: Vec<String> = (0..12).map(|i| format!("window-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        let node_b = StorageService::spawn().unwrap();
        std::thread::scope(|s| {
            let reader_cluster = Arc::clone(&cluster);
            let reader_ids = ids.clone();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            s.spawn(move || loop {
                for id in &reader_ids {
                    let got = reader_cluster.get(id).unwrap();
                    assert!(got.is_some(), "{id} read as absent mid-rebalance");
                }
                if done_rx.try_recv().is_ok() {
                    return;
                }
            });
            // ~half the blobs re-own to node B; at 40 ms per streamed
            // copy the reader laps the ID space many times mid-window.
            cluster.add_node(node_b.addr()).unwrap();
            done_tx.send(()).unwrap();
        });
        // Window closed: the fallback epoch is gone, yet everything
        // still reads (repaired/streamed to its new home).
        for id in &ids {
            assert!(cluster.get(id).unwrap().is_some(), "{id} lost after rebalance");
        }
    }

    #[test]
    fn partial_rebalance_keeps_fallback_window_open_until_sweep_converges() {
        // Add a node that is *down* during the rebalance: every stream
        // to it fails, so the previous-epoch fallback must stay open —
        // reads of re-owned blobs answer loudly (found via fallback, or
        // Unavailable), never a false definitive miss — until a sweep
        // over the healthy topology proves convergence and closes it.
        let node_a = spawn_nodes(1);
        let cluster = cluster(&node_a, 1);
        let ids: Vec<String> = (0..10).map(|i| format!("partial-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        // Reserve an address, then free it: the "new node" is dead.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let change = cluster.add_node(dead_addr).unwrap();
        assert_eq!(change.rebalanced_blobs, 0, "nothing can stream to a dead node");
        assert!(cluster.rebalance_window_open(), "failed streams must keep the window open");
        // Further churn is refused until the cluster converges — a
        // second epoch bump would overwrite the only fallback epoch
        // still protecting the unstreamed blobs.
        assert!(
            cluster.add_node("127.0.0.1:1".parse().unwrap()).is_err(),
            "membership changes must be refused while the window is open"
        );
        // Reads stay honest: blobs still owned by the live node serve;
        // blobs re-owned by the dead node either serve via the fallback
        // or surface Unavailable — never Ok(None).
        for id in &ids {
            match cluster.get(id) {
                Ok(Some(body)) => assert_eq!(&body[..], id.as_bytes()),
                Err(StorageError::Unavailable(_)) => {}
                other => panic!("{id}: false miss or unexpected answer: {other:?}"),
            }
        }
        // The node comes up (empty); sweeps repair it and then a clean
        // pass closes the window.
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(dead_addr, Arc::clone(&reborn));
        let healed = cluster.sweep_once();
        assert!(healed > 0, "sweep must stream the re-owned blobs");
        assert!(cluster.rebalance_window_open(), "window stays open until a *clean* pass");
        assert_eq!(cluster.sweep_once(), 0, "second pass must be clean");
        assert!(!cluster.rebalance_window_open(), "clean converged pass closes the window");
        for id in &ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
    }

    #[test]
    fn sweep_drains_removed_member_before_closing_the_window() {
        // R=1 drain gone wrong: remove the node holding every blob
        // while the remaining member is *down*, so the rebalancer can
        // stream nothing. The ex-member then holds the only copies —
        // the sweep must use it as a repair source and must not close
        // the fallback window until those blobs live on a current
        // member.
        let keeper = spawn_nodes(1); // will hold the data (then be removed)
        let mut other = spawn_nodes(1); // will be the sole survivor
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: vec![keeper[0].addr(), other[0].addr()],
            replicas: 1,
            backoff_base: Duration::from_millis(50),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .unwrap();
        let ids: Vec<String> = (0..16).map(|i| format!("drain-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        // R=1 split the blobs between the two nodes; only the keeper's
        // share is at stake here (the survivor's own single-copy blobs
        // die with its disk below — inherent at R=1, not the sweep's
        // problem).
        let keeper_ids: Vec<&String> =
            ids.iter().filter(|id| keeper[0].core().get(id).unwrap().is_some()).collect();
        assert!(!keeper_ids.is_empty(), "16 blobs over 2 nodes: keeper owns some");
        let survivor_addr = other[0].addr();
        other[0].shutdown();
        // Remove the (alive, data-holding) node: every stream to the
        // dead survivor fails, so the window stays open.
        cluster.remove_node(keeper[0].addr()).unwrap();
        assert!(cluster.rebalance_window_open());
        // The survivor returns empty. The first sweep must find the
        // ex-member's copies and stream them over; only the clean
        // second pass may close the window.
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(survivor_addr, Arc::clone(&reborn));
        let healed = cluster.sweep_once();
        assert_eq!(healed as usize, keeper_ids.len(), "sweep must drain the ex-member");
        assert!(cluster.rebalance_window_open(), "window stays open until a clean pass");
        assert_eq!(cluster.sweep_once(), 0);
        assert!(!cluster.rebalance_window_open());
        // Every keeper-held blob now lives on (and reads from) the
        // current member.
        assert_eq!(reborn.len(), keeper_ids.len());
        for id in &keeper_ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
    }

    // ---- anti-entropy ------------------------------------------------

    #[test]
    fn sweep_repopulates_node_that_returned_empty_without_reads() {
        let mut nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 2);
        let ids: Vec<String> = (0..20).map(|i| format!("cold-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }

        // Node 0 dies and returns *empty* — lost its disk. No reads
        // happen (these are cold blobs), so read-repair can't help.
        let victim_addr = nodes[0].addr();
        let victim_blobs = nodes[0].core().len();
        assert!(victim_blobs > 0, "victim must have held replicas");
        nodes[0].shutdown();
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(victim_addr, Arc::clone(&reborn));

        let gets_before = cluster.stats().gets;
        let repaired = cluster.sweep_once();
        assert_eq!(repaired as usize, victim_blobs, "sweep must restore every lost replica");
        assert_eq!(reborn.len(), victim_blobs);
        assert_eq!(cluster.stats().sweep_repairs, repaired);
        assert_eq!(cluster.stats().sweep_runs, 1);
        assert_eq!(cluster.stats().gets, gets_before, "sweep must issue zero client reads");

        // Restored replicas are byte-identical to what the router serves.
        for id in &ids {
            if cluster.replicas_for(id).contains(&victim_addr) {
                assert_eq!(
                    reborn.get(id).unwrap().as_deref(),
                    Some(id.as_bytes()),
                    "repaired {id} must match"
                );
            }
        }
        // A second sweep finds everything in sync: digests agree.
        assert_eq!(cluster.sweep_once(), 0, "converged cluster must sweep clean");
    }

    #[test]
    fn node_replaying_index_pages_is_unwalkable_not_a_hang() {
        // The storage provider is untrusted: this "node" answers every
        // `/index` and `/tombstones` page with the same full page, and
        // serves a body for any blob. A walk that trusts its pagination
        // never ends — while holding the admin lock.
        let page: String = (0..INDEX_FETCH_PAGE)
            .map(|i| crate::hex_encode(&format!("ghost-{i:03}")) + "\n")
            .collect();
        let hostile =
            p3_net::Server::spawn(Arc::new(move |req: &p3_net::Request| match req.path.as_str() {
                "/index" | "/tombstones" => Response::ok("text/plain", page.clone().into_bytes()),
                _ => Response::ok("application/octet-stream", b"planted".to_vec()),
            }))
            .unwrap();
        let honest = spawn_nodes(1);
        let cluster = Arc::new(cluster(&honest, 2));
        cluster.put("real", b"payload").unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let walker = Arc::clone(&cluster);
        let hostile_addr = hostile.addr();
        std::thread::spawn(move || {
            let change = walker.add_node(hostile_addr).unwrap();
            let swept = walker.sweep_once();
            let _ = done_tx.send((change.rebalanced_blobs, swept));
        });
        let (rebalanced, swept) = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("convergence pass hung on a node replaying its index pages");
        // Contents unknown, never "empty" and never trusted: nothing is
        // streamed to the node or from its listing, and the window a
        // clean pass would close stays open.
        assert_eq!((rebalanced, swept), (0, 0));
        assert_eq!(honest[0].core().len(), 1, "nothing the hostile index named may be streamed");
        assert!(cluster.rebalance_window_open(), "an unwalked member must keep the window open");
    }

    #[test]
    fn sweeper_thread_heals_in_background_and_stops_on_drop() {
        let mut nodes = spawn_nodes(2);
        let cluster = Arc::new(
            ClusterBackend::new(ClusterConfig {
                nodes: nodes.iter().map(|s| s.addr()).collect(),
                replicas: 2,
                ..ClusterConfig::default()
            })
            .unwrap(),
        );
        cluster.put("bg", b"healed in the background").unwrap();
        let victim_addr = nodes[1].addr();
        nodes[1].shutdown();
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(victim_addr, Arc::clone(&reborn));

        let sweeper = cluster.spawn_sweeper(Duration::from_millis(30));
        let deadline = Instant::now() + Duration::from_secs(5);
        while reborn.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(reborn.len(), 1, "background sweeper must repopulate the node");
        assert_eq!(reborn.get("bg").unwrap().as_deref(), Some(&b"healed in the background"[..]));
        drop(sweeper); // must stop the thread promptly (joins on drop)
    }
}

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
//!
//! # Layout
//!
//! This file holds the config, routing, `classify` and the
//! [`StorageBackend`] impl; `health` the per-node circuit breaker;
//! `converge` the membership table, the pass and the [`Sweeper`].

mod converge;
mod health;

pub use converge::Sweeper;

use crate::crc32;
use crate::{
    BackendStats, MembershipChange, MembershipView, StatCounters, StorageBackend, StorageError,
    StorageResult,
};
use converge::Membership;
use p3_net::client::{ClientError, ClientPool, DEFAULT_MAX_IDLE_PER_HOST};
use p3_net::{Deadlines, Response, StatusCode, TcpTransport, Transport};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

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

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
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
}

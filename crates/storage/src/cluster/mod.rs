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
//! * **health**: a failed node request fails over to the next replica
//!   on a read, or counts against the quorum on a write, straight away
//!   — no in-place retry; the pool already reconnects a stale pooled
//!   socket for every non-POST. `EJECT_AFTER` consecutive failures
//!   eject the node for a backoff window that grows exponentially with
//!   ±20 % jitter (`backoff_base`..`backoff_max`) while post-expiry
//!   probes keep failing — so one lost packet is not an outage, a dead
//!   node costs one failed probe per window, not one per request, and
//!   a long outage is probed ever more rarely. An ejected node is
//!   skipped on the first read pass and retried as a last resort (and
//!   for writes it is always attempted — a refused connect is cheap,
//!   and the write set must stay as full as possible);
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
//! # Dynamic membership: copy, then switch
//!
//! The node list lives in an epoch-numbered membership snapshot
//! (epoch 1 is the boot topology). [`ClusterBackend::update_membership`]
//! applies adds and removes as one epoch bump in four steps. It
//! publishes the next epoch *for writes only*: puts and deletes reach
//! both epochs' replica sets, one request per node, and need a write
//! quorum in each. It waits until every write that routed by the
//! current epoch alone has returned. It runs the **convergence pass**
//! (below) against the next epoch, counting the copies it streams in
//! `rebalanced_blobs`. And it switches reads to the next epoch only if
//! the pass walked every next member and landed every copy the change
//! needs — each blob on each node the change makes one of its
//! replicas. Otherwise the current epoch stays, and the change answers
//! `Unavailable` ("membership unchanged") for the operator to retry.
//! Reads therefore only ever see one placement, and that placement
//! holds everything: a re-owned blob can never read as falsely absent.
//!
//! # One convergence pass
//!
//! Read-repair only heals blobs that get read; a node that died and
//! returned empty would stay under-replicated on its cold blobs
//! forever. The router has exactly one mechanism that moves replicas
//! without a client asking, run by every membership change and by
//! [`ClusterBackend::sweep_once`] (periodically, via
//! [`ClusterBackend::spawn_sweeper`]; counted in `sweep_repairs`): walk
//! the paginated `/index` and `/tombstones` of every member and, during
//! a change, of every node the change removes, push each learned delete
//! across the blob's replica set, then stream every other blob seen
//! anywhere to each replica whose index lacks it, from any holder whose
//! copy verifies. A node that cannot be walked — down, or paging
//! dishonestly — has *unknown* contents, never empty ones. A gap the
//! change does not cause (a copy a replica lost before it) never holds
//! a change back: it is the sweep's to close. The pass issues **zero
//! client reads**: it talks straight to the nodes' `/index` and
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
use converge::{Membership, Placement};
use p3_net::client::{ClientError, ClientPool};
use p3_net::{Deadlines, Response, StatusCode, TcpTransport, Transport};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
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
    /// First backoff window after an ejection: how long the node sits
    /// out before it is probed again. Doubles on every failed
    /// post-expiry probe (capped at `backoff_max`), so a long outage is
    /// probed ever more rarely instead of at a fixed cadence.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff window.
    pub backoff_max: Duration,
    /// Per-request connect deadline for node traffic.
    pub connect_timeout: Duration,
    /// Per-request read/write deadline for node traffic — bounds what a
    /// black-holed (accepting but never answering) peer can cost.
    pub read_timeout: Duration,
}

/// Virtual nodes per physical node on the hash ring.
const VNODES: usize = 64;

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: Vec::new(),
            replicas: 2,
            backoff_base: Duration::from_secs(1),
            backoff_max: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(10),
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
    /// What the data path routes by; calls clone the `Arc` and work on
    /// an immutable snapshot.
    placement: Mutex<Arc<Placement>>,
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
        let current = Arc::new(Membership::build(1, cfg.nodes.clone(), None));
        let placement = Mutex::new(Arc::new(Placement { current, next: None }));
        let pool = ClientPool::with_transport(
            transport,
            Deadlines { connect: cfg.connect_timeout, read: cfg.read_timeout },
        );
        Ok(ClusterBackend {
            placement,
            admin: Mutex::new(()),
            pool,
            stats: StatCounters::default(),
            cfg,
        })
    }

    /// The epoch reads route by. A clone of the membership alone, so a
    /// read never holds up a change waiting out the writes in flight.
    fn snapshot(&self) -> Arc<Membership> {
        Arc::clone(&self.placement.lock().current)
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
    /// adds the circuit breaker.
    fn ask(&self, addr: SocketAddr, id: &str) -> NodeAnswer {
        self.classify(self.pool.get(addr, &format!("/blobs/{id}")))
    }

    fn node_get(&self, m: &Membership, node: usize, id: &str) -> NodeAnswer {
        let answer = self.ask(m.nodes[node], id);
        match answer {
            NodeAnswer::Failed => self.mark_failure(m, node),
            // Any interpretable answer — a corrupt copy included — came
            // from a live node: don't eject it.
            _ => self.mark_ok(m, node),
        }
        answer
    }

    fn node_put(&self, m: &Membership, node: usize, id: &str, data: &[u8]) -> bool {
        let ok = self.direct_put(m.nodes[node], id, data);
        if ok {
            self.mark_ok(m, node);
        } else {
            self.mark_failure(m, node);
        }
        ok
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

    /// Send one write of `id` to every replica set the placement routes
    /// it to — the current epoch's and, while a change copies, the next
    /// one's — one request per node (`send` says whether node `n` of
    /// epoch `m` acked). Returns each set's `(acks, size)`.
    fn write_replicas(
        &self,
        id: &str,
        mut send: impl FnMut(&Membership, usize) -> bool,
    ) -> Vec<(usize, usize)> {
        let placement = Arc::clone(&self.placement.lock());
        let mut acked: HashMap<SocketAddr, bool> = HashMap::new();
        let sets = placement.epochs().map(|m| {
            let replicas = m.replica_nodes(id, self.r_eff(m));
            let acks = replicas
                .iter()
                .filter(|&&n| *acked.entry(m.nodes[n]).or_insert_with(|| send(m, n)))
                .count();
            (acks, replicas.len())
        });
        sets.collect()
    }

    /// `Ok` when every replica set a write reached met its quorum.
    fn quorum_met(sets: &[(usize, usize)], what: &str) -> StorageResult<()> {
        match sets.iter().find(|&&(acks, of)| acks < Self::write_quorum(of)) {
            None => Ok(()),
            Some((acks, of)) => Err(StorageError::Unavailable(format!(
                "{what} quorum not met: {acks}/{of} acks (need {})",
                Self::write_quorum(*of)
            ))),
        }
    }
}

impl StorageBackend for ClusterBackend {
    fn kind(&self) -> &'static str {
        "cluster"
    }

    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        let sets = self.write_replicas(id, |m, n| self.node_put(m, n, id, data));
        if sets.iter().any(|&(acks, of)| acks > 0 && acks < of) {
            self.stats.partial_write();
        }
        Self::quorum_met(&sets, "write")?;
        self.stats.put(data.len());
        Ok(())
    }

    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        let m = self.snapshot();
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
        let mut existed = false;
        let sets = self.write_replicas(id, |m, n| {
            match self.pool.delete(m.nodes[n], &format!("/blobs/{id}")) {
                Ok(resp) if resp.status.is_success() || resp.status == StatusCode::NOT_FOUND => {
                    self.mark_ok(m, n);
                    existed |= resp.status.is_success();
                    true
                }
                _ => {
                    self.mark_failure(m, n);
                    false
                }
            }
        });
        Self::quorum_met(&sets, "delete")?;
        Ok(existed)
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

    #[test]
    fn a_black_holed_replica_costs_one_op_before_the_read_fails_over() {
        // Default timings: every op the black hole swallows burns the
        // full 1 s connect deadline before the read may move on.
        let nodes = spawn_nodes(2);
        let plan = p3_net::FaultPlan::new();
        let transport = p3_net::FaultTransport::new("router", Arc::clone(&plan));
        let cfg =
            ClusterConfig { nodes: nodes.iter().map(|s| s.addr()).collect(), ..Default::default() };
        let cluster = ClusterBackend::with_transport(cfg, Arc::new(transport)).unwrap();
        let replicas = cluster.replicas_for("hole");
        // Written straight to the second replica's node, so the router
        // holds no pooled socket to the first one.
        let second = nodes.iter().find(|n| n.addr() == replicas[1]).unwrap();
        second.core().put("hole", b"sealed secret part").unwrap();
        plan.set("router", replicas[0], p3_net::FaultRule::black_holed());
        let got = cluster.get("hole").unwrap().expect("served by the second replica");
        assert_eq!(&got[..], b"sealed secret part");
        assert_eq!(plan.black_holed(), 1, "a failed node request fails over, it is not retried");
        assert_eq!(cluster.stats().node_failures, 1);
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

//! Membership epochs and the one convergence pass: the membership
//! table, `update_membership`, the pass itself, and the anti-entropy
//! sweep that runs it on a timer.

use super::health::NodeHealth;
use super::ClusterBackend;
use crate::hex_decode;
use crate::ring::HashRing;
use crate::{MembershipChange, MembershipView, StatCounters, StorageError, StorageResult};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::sync::Weak;
use std::time::Duration;
use std::time::Instant;

/// Page size the convergence pass requests from `GET /index` and
/// `GET /tombstones`.
const INDEX_FETCH_PAGE: usize = 512;

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

impl ClusterBackend {
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

#[cfg(test)]
mod tests {
    use super::super::tests::{cluster, respawn_on, spawn_nodes};
    use super::super::ClusterConfig;
    use super::*;
    use crate::{StorageBackend, StorageCore, StorageService};
    use p3_net::Response;
    use std::collections::HashMap;

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

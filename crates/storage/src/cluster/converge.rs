//! Membership epochs and the one convergence pass: the membership
//! table, `update_membership` (copy, then switch), the pass itself, and
//! the anti-entropy sweep that runs it on a timer.

use super::health::NodeHealth;
use super::{ClusterBackend, VNODES};
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

/// Copies the convergence pass streams before pausing once.
const REPAIR_BATCH: usize = 64;

/// Pause between repair batches (the throttle: keeps a big pass from
/// saturating the network the live traffic needs).
const REPAIR_PAUSE: Duration = Duration::from_millis(2);

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
    pub(super) fn build(epoch: u64, nodes: Vec<SocketAddr>, prev: Option<&Membership>) -> Self {
        let ids: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        let ring = HashRing::with_ids(&ids, VNODES);
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

/// What the data path routes by: the epoch reads use and, while a
/// membership change copies, the epoch it may switch to, which writes
/// reach too.
#[derive(Debug)]
pub(super) struct Placement {
    pub(super) current: Arc<Membership>,
    pub(super) next: Option<Arc<Membership>>,
}

impl Placement {
    /// Every epoch a write must reach, current first.
    pub(super) fn epochs(&self) -> impl Iterator<Item = &Membership> {
        std::iter::once(&*self.current).chain(self.next.as_deref())
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

    /// Apply `add` then `remove` as one epoch bump: copy, then switch.
    /// Writes reach both epochs while the convergence pass copies; reads
    /// move to the next epoch only once the pass walked every next
    /// member and landed every copy the change needs. Otherwise the
    /// membership is left as it was and the change answers
    /// `Unavailable`, safe to retry. Serialized with other admin
    /// operations; data-path traffic keeps flowing throughout.
    pub fn update_membership(
        &self,
        add: &[SocketAddr],
        remove: &[SocketAddr],
    ) -> StorageResult<MembershipChange> {
        let _admin = self.admin.lock();
        let current = self.snapshot();
        let mut nodes = current.nodes.clone();
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
        let next = Arc::new(Membership::build(current.epoch + 1, nodes, Some(&current)));
        let writing = Placement { current: Arc::clone(&current), next: Some(Arc::clone(&next)) };
        let before = std::mem::replace(&mut *self.placement.lock(), Arc::new(writing));
        // A write that routed by the current epoch alone may not have
        // reached its nodes yet; the pass must not walk before it has.
        while Arc::strong_count(&before) > 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (rebalanced, failed) =
            self.converge(&next, Some(&current), StatCounters::rebalanced_blob);
        let switch = failed == 0;
        let current = if switch { Arc::clone(&next) } else { current };
        *self.placement.lock() = Arc::new(Placement { current, next: None });
        if !switch {
            return Err(StorageError::Unavailable(format!(
                "membership unchanged: {failed} next member(s) unwalked or copies the change \
                 needs not landed; retry once every node answers"
            )));
        }
        Ok(MembershipChange { view: next.view(), rebalanced_blobs: rebalanced })
    }

    // ---- convergence -------------------------------------------------

    /// The one convergence pass, run by a membership change and by the
    /// anti-entropy sweep: make every replica of `m` hold what it
    /// should, from any verified holder. It walks the index and the
    /// tombstones of every member of `m` and of every node only `prev`
    /// lists (a node a change removes can still hand its blobs off),
    /// pushes each learned delete across the blob's replica set under
    /// `m`, then streams every other blob seen anywhere to each replica
    /// whose index is known to lack it — one verified GET, throttled
    /// PUTs, `count`ed per copy that landed. Never issues a client read
    /// (`gets` stays untouched).
    ///
    /// Returns `(copies streamed, failures)`. A failure is a member of
    /// `m` that could not be walked (its contents are unknown), or a
    /// copy to a replica `m` adds over `prev` that found no verified
    /// source or whose PUT was refused. Any other gap predates the
    /// change and is not charged to it. A change that adds a node it
    /// cannot walk returns before it pushes or streams anything.
    fn converge(
        &self,
        m: &Membership,
        prev: Option<&Membership>,
        count: fn(&StatCounters),
    ) -> (u64, u64) {
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
        // A node the change adds that cannot be walked lands none of its
        // copies until it answers, so the change returns before it
        // streams: writes would otherwise reach both epochs, and fail
        // wherever that node joins a replica set, for the whole pass. An
        // unwalked kept member is usually a passing fault: the pass still
        // streams what lands, so a retry has little left to copy.
        let adds_unwalked = |p: &Membership| {
            (0..m.nodes.len()).any(|n| unwalked(n) && !p.nodes.contains(&m.nodes[n]))
        };
        if prev.is_some_and(adds_unwalked) {
            return (0, failed);
        }
        // Tombstones outrank live copies: every delete is learned
        // *before* any index is diffed, or the streams below would
        // faithfully resurrect a deleted blob from whichever replica
        // missed the delete. Each goes to the replicas that still hold
        // a live copy or lack the tombstone (a DELETE writes one even
        // on a node that never held the blob), so delete knowledge
        // survives membership churn.
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
            let owners_before = prev.map(|p| p.replica_addrs(id, self.r_eff(p)));
            let added = |n: usize| owners_before.as_ref().is_none_or(|o| !o.contains(&m.nodes[n]));
            let holders: Vec<SocketAddr> = (0..nodes.len())
                .filter(|&n| lists(&indexes, n, id) == Some(true))
                .map(|n| nodes[n])
                .collect();
            let Some(body) = self.direct_get(&holders, id) else {
                failed += targets.into_iter().filter(|&n| added(n)).count() as u64;
                continue;
            };
            for n in targets {
                if self.direct_put(m.nodes[n], id, &body) {
                    streamed += 1;
                    count(&self.stats);
                } else if added(n) {
                    failed += 1;
                }
                since_pause += 1;
                if since_pause >= REPAIR_BATCH {
                    std::thread::sleep(REPAIR_PAUSE);
                    since_pause = 0;
                }
            }
        }
        (streamed, failed)
    }

    /// One anti-entropy pass: re-replicate every blob a live replica is
    /// missing and return the number of repairs streamed (also in
    /// `sweep_repairs`).
    pub fn sweep_once(&self) -> u64 {
        let _admin = self.admin.lock();
        let (repairs, _) = self.converge(&self.snapshot(), None, StatCounters::sweep_repair);
        self.stats.sweep_run();
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
    use p3_net::{FaultPlan, FaultRule, FaultTransport, Response};
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
        let change = cluster.update_membership(&[fourth.addr()], &[]).unwrap();
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
        let change = cluster.update_membership(&[node_b[0].addr()], &[]).unwrap();
        assert_eq!(change.rebalanced_blobs, 8, "every blob gains a second replica");
        assert_eq!(node_b[0].core().len(), 8);

        // Draining the original node back down to 1 streams nothing new
        // (the survivor already holds everything) and keeps all reads.
        let change = cluster.update_membership(&[], &[node_a[0].addr()]).unwrap();
        assert_eq!(change.rebalanced_blobs, 0, "survivor already holds every blob");
        for i in 0..8 {
            assert!(cluster.get(&format!("solo-{i}")).unwrap().is_some());
        }

        // A 1-node ring cannot lose its last node.
        assert!(cluster.update_membership(&[], &[node_b[0].addr()]).is_err());
        // And membership ops validate their arguments.
        assert!(cluster.update_membership(&[node_b[0].addr()], &[]).is_err(), "already a member");
        assert!(cluster.update_membership(&[], &[node_a[0].addr()]).is_err(), "not a member");
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
        let change = cluster.update_membership(&[], &[nodes[empty_idx].addr()]).unwrap();
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
        // R=1 is the worst case: a re-owned blob's *only* replica after
        // the switch is the new node, whose authoritative 404 would meet
        // the miss quorum alone. Slow the router's link to the new node
        // so the copy is slow, hammer reads from one thread and writes
        // from another: every read must find every blob for the whole
        // change (reads stay on the old placement until the copy is
        // done), and every write made mid-copy must read back after the
        // switch. A false Ok(None) here is the proxy serving the
        // privacy-degraded public part.
        let node_a = spawn_nodes(1);
        let plan = FaultPlan::new();
        let cluster = Arc::new(
            ClusterBackend::with_transport(
                ClusterConfig {
                    nodes: vec![node_a[0].addr()],
                    replicas: 1,
                    ..ClusterConfig::default()
                },
                Arc::new(FaultTransport::new("router", Arc::clone(&plan))),
            )
            .unwrap(),
        );
        let ids: Vec<String> = (0..12).map(|i| format!("window-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        let node_b = StorageService::spawn().unwrap();
        let slow = FaultRule { latency: Duration::from_millis(40), ..FaultRule::default() };
        plan.set("router", node_b.addr(), slow);
        let done = AtomicBool::new(false);
        let written = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    for id in &ids {
                        let got = cluster.get(id).unwrap();
                        assert!(got.is_some(), "{id} read as absent mid-rebalance");
                    }
                }
            });
            let writer = s.spawn(|| {
                let mut written = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let id = format!("mid-copy-{}", written.len());
                    cluster.put(&id, id.as_bytes()).unwrap();
                    written.push(id);
                    std::thread::sleep(Duration::from_millis(5));
                }
                written
            });
            // ~half the blobs re-own to node B; at 40 ms per read off
            // its link both threads lap many times mid-copy.
            cluster.update_membership(&[node_b.addr()], &[]).unwrap();
            done.store(true, Ordering::Relaxed);
            writer.join().unwrap()
        });
        assert!(plan.delayed() > 0, "the copy must have crossed the slowed link");
        assert!(!written.is_empty());
        for id in ids.iter().chain(&written) {
            let got = cluster.get(id).unwrap();
            assert_eq!(got.as_deref(), Some(id.as_bytes()), "{id} lost after the switch");
        }
    }

    #[test]
    fn a_change_that_cannot_copy_leaves_the_membership_unchanged() {
        // Add a live node and one that is *down*: the pass cannot walk
        // the dead one, so the change must not switch — epoch, members
        // and reads stay as they were, and nothing is streamed to the
        // live one either, as an added node that cannot be walked ends
        // the pass — and the same change goes through once the node
        // answers.
        let node_a = spawn_nodes(1);
        let live = spawn_nodes(1);
        let cluster = cluster(&node_a, 1);
        let ids: Vec<String> = (0..40).map(|i| format!("partial-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        // Reserve an address, then free it: the "new node" is dead.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let add = [live[0].addr(), dead];
        match cluster.update_membership(&add, &[]) {
            Err(StorageError::Unavailable(msg)) => assert!(msg.contains("membership unchanged")),
            other => panic!("a change that cannot copy must be refused, got {other:?}"),
        }
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(cluster.membership().unwrap().nodes, vec![node_a[0].addr()]);
        assert_eq!(live[0].core().len(), 0, "a change adding a dead node streams nothing");
        for id in &ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
        // The node comes up (empty): the retry copies and switches.
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(dead, Arc::clone(&reborn));
        let change = cluster.update_membership(&add, &[]).unwrap();
        assert_eq!(change.view.epoch, 2);
        assert!(!live[0].core().is_empty(), "the live node owns a share once it joins");
        assert_eq!(change.rebalanced_blobs as usize, reborn.len() + live[0].core().len());
        for id in &ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
    }

    #[test]
    fn a_removal_waits_for_the_survivor_then_moves_the_keepers_blobs() {
        // R=1 drain: remove the node holding half the blobs while the
        // remaining member is *down*. Nothing can be copied, so the
        // removal is refused and the keeper stays a member. Once the
        // survivor is back, the retry moves exactly the keeper's blobs.
        let keeper = spawn_nodes(1); // holds data, then is removed
        let mut other = spawn_nodes(1); // the sole survivor
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: vec![keeper[0].addr(), other[0].addr()],
            replicas: 1,
            backoff_base: Duration::from_millis(50),
            ..ClusterConfig::default()
        })
        .unwrap();
        let ids: Vec<String> = (0..16).map(|i| format!("drain-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        let keeper_ids: Vec<&String> =
            ids.iter().filter(|id| keeper[0].core().get(id).unwrap().is_some()).collect();
        assert!(!keeper_ids.is_empty(), "16 blobs over 2 nodes: keeper owns some");
        let survivor_addr = other[0].addr();
        let survivor_core = Arc::clone(other[0].core());
        other[0].shutdown();
        assert!(cluster.update_membership(&[], &[keeper[0].addr()]).is_err());
        assert_eq!(cluster.epoch(), 1, "a refused removal keeps the keeper a member");
        let _svc = respawn_on(survivor_addr, Arc::clone(&survivor_core));
        let change = cluster.update_membership(&[], &[keeper[0].addr()]).unwrap();
        assert_eq!(change.rebalanced_blobs as usize, keeper_ids.len(), "the keeper's blobs move");
        assert_eq!(survivor_core.len(), ids.len());
        for id in &ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
    }

    #[test]
    fn a_decommissioned_node_never_strands_the_membership() {
        // R=2 over {a, y, x}. x's removal is tried while y is down; then
        // y returns, x shuts down for good, and the operator sweeps and
        // retries the removal. Neither the dead ex-member nor the tried
        // removal may block the next change.
        let mut nodes = spawn_nodes(3);
        let cluster = cluster(&nodes, 2);
        let ids: Vec<String> = (0..24).map(|i| format!("decom-{i}")).collect();
        for id in &ids {
            cluster.put(id, id.as_bytes()).unwrap();
        }
        let (y, x) = (nodes[1].addr(), nodes[2].addr());
        let y_core = Arc::clone(nodes[1].core());
        nodes[1].shutdown();
        let _ = cluster.update_membership(&[], &[x]);
        let _y = respawn_on(y, y_core);
        nodes[2].shutdown();
        for _ in 0..3 {
            cluster.sweep_once();
        }
        if cluster.membership().unwrap().nodes.contains(&x) {
            cluster.update_membership(&[], &[x]).unwrap();
        }
        let z = StorageService::spawn().unwrap();
        cluster.update_membership(&[z.addr()], &[]).unwrap();
        for id in &ids {
            assert_eq!(cluster.get(id).unwrap().unwrap().as_ref(), id.as_bytes());
        }
    }

    #[test]
    fn a_rotten_copy_the_change_does_not_move_does_not_stop_membership_changes() {
        // R=2. b holds an orphan X alone — a write that reached only b
        // — and its copy rots. Adding d leaves X's replica set as it
        // was, so X has nothing to do with the change: adding d and
        // removing it again must both go through.
        let dir = std::env::temp_dir().join(format!("p3-orphan-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(crate::PackedBackend::open(&dir).unwrap());
        let nodes = [
            StorageService::spawn().unwrap(),
            StorageService::spawn_with(Arc::new(StorageCore::with_backend(disk.clone()))).unwrap(),
            StorageService::spawn().unwrap(),
        ];
        let cluster = cluster(&nodes, 2);
        let d = StorageService::spawn().unwrap();
        let with_d = ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(StorageService::addr).chain([d.addr()]).collect(),
            replicas: 2,
            ..ClusterConfig::default()
        })
        .unwrap();
        let orphan = (0..64)
            .map(|i| format!("orphan-{i}"))
            .find(|id| {
                let owners = cluster.replicas_for(id);
                owners.contains(&nodes[1].addr()) && owners == with_d.replicas_for(id)
            })
            .expect("64 ids over 3 nodes: some stay on b when d joins");
        disk.put(&orphan, b"reached only b").unwrap();
        assert_eq!(disk.corrupt_live_needles().unwrap(), 1);
        cluster.update_membership(&[d.addr()], &[]).expect("d joins");
        cluster.update_membership(&[], &[d.addr()]).expect("d leaves");
        assert_eq!(cluster.epoch(), 3);
        let _ = std::fs::remove_dir_all(&dir);
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
            let joined = walker.update_membership(&[hostile_addr], &[]).is_ok();
            let swept = walker.sweep_once();
            let _ = done_tx.send((joined, swept));
        });
        let (joined, swept) = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("convergence pass hung on a node replaying its index pages");
        // Contents unknown, never "empty" and never trusted: nothing is
        // streamed from its listing, and a node that cannot be walked
        // never joins.
        assert!(!joined, "an unwalkable node must not join");
        assert_eq!(swept, 0);
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(honest[0].core().len(), 1, "nothing the hostile index named may be streamed");
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

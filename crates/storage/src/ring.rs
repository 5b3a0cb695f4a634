//! Consistent-hash ring with virtual nodes.
//!
//! The cluster router maps blob IDs to replica sets with the classic
//! Dynamo/libketama construction: each physical node contributes V
//! points ("virtual nodes") to a ring of 64-bit hash positions, a key
//! hashes to a position, and its replicas are the next R *distinct*
//! physical nodes clockwise. Virtual nodes smooth the load split (with
//! one point per node, a 3-node ring can easily land 60% of keys on one
//! node) and make rebalancing proportional: adding a node moves only
//! ~1/N of the keyspace.
//!
//! The hash is FNV-1a, *not* `DefaultHasher`: ring positions must be
//! identical across processes and restarts, or two router instances
//! pointed at the same nodes would disagree about where every blob
//! lives. `DefaultHasher` is randomly seeded per process.

/// 64-bit FNV-1a: deterministic, fast on short keys (this is
/// *placement*, not security — blob confidentiality never depends on
/// it).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer. Raw FNV-1a has a sequential weakness that
/// matters for ring placement: inputs differing only in their last few
/// bytes ("node-0#vnode-7" vs "…#vnode-8", "1" vs "2") produce hashes
/// differing mostly in low bits, so one node's vnode points land in a
/// handful of tight runs instead of scattering — and every short
/// numeric photo ID falls into the same arc. The avalanche mix makes
/// every input bit flip ~half the output bits, restoring the uniform
/// spread consistent hashing assumes.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Position of an arbitrary key on the ring.
fn position(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

/// A ring over physical nodes, each with `vnodes` points.
///
/// Nodes are identified by *stable string IDs* (the cluster uses the
/// node's socket address), not by their index in the membership list:
/// a ring keyed by index would reassign every node's vnode points when
/// one node is removed from the middle of the list, moving ~100% of the
/// keyspace instead of the ~1/N consistent hashing promises.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, node index)` sorted by position: keys hashing into
    /// `(previous position, position]` are owned by this point's
    /// replica walk.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Build a ring over anonymous nodes `0..nodes` (IDs `node-{i}`).
    /// `nodes` and `vnodes` must be nonzero.
    pub fn new(nodes: usize, vnodes: usize) -> HashRing {
        let ids: Vec<String> = (0..nodes).map(|n| format!("node-{n}")).collect();
        Self::with_ids(&ids, vnodes)
    }

    /// Build a ring from stable node identities. `ids` and `vnodes`
    /// must be nonempty; IDs must be distinct (duplicate IDs would put
    /// two "replicas" on the same physical node).
    pub fn with_ids<S: AsRef<str>>(ids: &[S], vnodes: usize) -> HashRing {
        assert!(!ids.is_empty(), "ring needs at least one node");
        assert!(vnodes > 0, "ring needs at least one virtual node per node");
        let mut points = Vec::with_capacity(ids.len() * vnodes);
        for (node, id) in ids.iter().enumerate() {
            let id = id.as_ref();
            for v in 0..vnodes {
                points.push((position(format!("{id}#vnode-{v}").as_bytes()), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes: ids.len() }
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The first `r` *distinct* physical nodes clockwise from `key`'s
    /// position, in preference order (capped at the node count).
    pub fn replicas_for(&self, key: &str, r: usize) -> Vec<usize> {
        let r = r.clamp(1, self.nodes);
        let h = position(key.as_bytes());
        // The first ring point at or clockwise of the key (wrapping).
        let start = self.points.partition_point(|&(pos, _)| pos < h);
        let mut out = Vec::with_capacity(r);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn replicas_are_distinct_ordered_and_stable() {
        let ring = HashRing::new(5, 64);
        for key in ["1", "2", "photo-42", "zzz"] {
            let reps = ring.replicas_for(key, 3);
            assert_eq!(reps.len(), 3);
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct nodes");
            // Deterministic: a second identically-built ring agrees.
            assert_eq!(HashRing::new(5, 64).replicas_for(key, 3), reps);
        }
    }

    #[test]
    fn replica_count_is_capped_at_node_count() {
        let ring = HashRing::new(2, 16);
        assert_eq!(ring.replicas_for("x", 5).len(), 2);
        assert_eq!(ring.replicas_for("x", 0).len(), 1, "r clamps up to 1");
    }

    #[test]
    fn vnodes_spread_keys_reasonably() {
        let ring = HashRing::new(3, 64);
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            counts[ring.replicas_for(&i.to_string(), 1)[0]] += 1;
        }
        for &c in &counts {
            // Perfect split is 1000; vnode smoothing should keep every
            // node within a generous 2x band.
            assert!((500..=2000).contains(&c), "lopsided spread: {counts:?}");
        }
    }

    #[test]
    fn index_ring_matches_id_ring_with_default_ids() {
        // `new(n, v)` is exactly `with_ids(["node-0", ...], v)` — the
        // construction PR 4 shipped, so placement is unchanged.
        let a = HashRing::new(3, 16);
        let b = HashRing::with_ids(&["node-0", "node-1", "node-2"], 16);
        for key in ["1", "2", "photo-42"] {
            assert_eq!(a.replicas_for(key, 2), b.replicas_for(key, 2));
        }
    }

    #[test]
    fn removing_a_mid_list_node_keeps_other_placements() {
        // The property an index-keyed ring lacks: dropping a node from
        // the middle of the list must not move keys between the
        // *surviving* nodes (their vnode points are identical), only
        // orphan the removed node's arcs.
        let before = HashRing::with_ids(&["a:1", "b:1", "c:1"], 64);
        let after = HashRing::with_ids(&["a:1", "c:1"], 64);
        for i in 0..500 {
            let key = i.to_string();
            let owner = before.replicas_for(&key, 1)[0];
            if owner != 1 {
                // Survivor-owned keys stay put: map old index → id.
                let old_id = ["a:1", "b:1", "c:1"][owner];
                let new_id = ["a:1", "c:1"][after.replicas_for(&key, 1)[0]];
                assert_eq!(old_id, new_id, "key {key} moved between survivors");
            }
        }
    }

    #[test]
    fn adding_a_node_moves_only_a_fraction_of_keys() {
        let before = HashRing::new(4, 64);
        let after = HashRing::new(5, 64);
        let moved = (0..2000)
            .filter(|i| {
                before.replicas_for(&i.to_string(), 1) != after.replicas_for(&i.to_string(), 1)
            })
            .count();
        // Consistent hashing moves ~1/5 of keys; plain modulo would move
        // ~4/5. The band is generous to stay deterministic-but-robust.
        assert!(moved < 900, "{moved}/2000 keys moved — not consistent hashing");
    }
}

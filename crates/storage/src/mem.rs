//! In-memory backend: the seed's `HashMap` store, sharded and
//! `Arc`-blobbed.
//!
//! The seed's `StorageCore::get` cloned the whole blob *while holding
//! the store mutex* — a multi-megabyte memcpy serialized every other
//! operation on the store. Blobs here are `Arc<[u8]>`: a get clones the
//! refcount under the shard lock (O(1)) and the caller reads the bytes
//! lock-free. The map is additionally sharded by key hash so operations
//! on different keys mostly don't share a lock at all.

use crate::{BackendStats, StatCounters, StorageBackend, StorageResult};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Default shard count: plenty of lock spread for tens of workers while
/// keeping the `len()` sweep trivial.
const DEFAULT_SHARDS: usize = 16;

/// Sharded in-memory blob store.
#[derive(Debug)]
pub struct MemBackend {
    shards: Vec<Mutex<HashMap<String, Arc<[u8]>>>>,
    /// Deleted IDs, remembered so this node answers "durably deleted"
    /// (not just "don't have it") and the cluster's tombstone
    /// propagation works against in-memory test topologies exactly as
    /// it does against the packed store. Unsharded: deletes are rare
    /// next to puts/gets and never on the hot path.
    tombs: Mutex<BTreeSet<String>>,
    stats: StatCounters,
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MemBackend {
    /// Empty store with `DEFAULT_SHARDS` shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Empty store with an explicit shard count (minimum 1).
    fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            tombs: Mutex::new(BTreeSet::new()),
            stats: StatCounters::default(),
        }
    }

    fn shard(&self, id: &str) -> &Mutex<HashMap<String, Arc<[u8]>>> {
        &self.shards[(crate::ring::fnv1a(id.as_bytes()) as usize) % self.shards.len()]
    }
}

impl StorageBackend for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        self.stats.put(data.len());
        let blob: Arc<[u8]> = Arc::from(data);
        self.shard(id).lock().insert(id.to_string(), blob);
        // A fresh put supersedes any earlier delete.
        self.tombs.lock().remove(id);
        Ok(())
    }

    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        // Only the Arc clone happens under the lock; the blob bytes are
        // never copied here.
        let blob = self.shard(id).lock().get(id).cloned();
        match &blob {
            Some(b) => self.stats.get_hit(b.len()),
            None => self.stats.get_miss(),
        }
        Ok(blob)
    }

    fn delete(&self, id: &str) -> StorageResult<bool> {
        self.stats.delete();
        let existed = self.shard(id).lock().remove(id).is_some();
        // Tombstone even never-held IDs: a replica that missed the put
        // must still remember the delete, or read-repair and the
        // anti-entropy sweep could resurrect the blob from elsewhere.
        self.tombs.lock().insert(id.to_string());
        Ok(existed)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn list_ids(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        // Gather-then-sort across shards: O(n log n) per page is fine
        // for the index walks (rebalance/sweep) this serves — they read
        // every page anyway.
        let mut ids: Vec<String> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            ids.extend(shard.lock().keys().filter(|k| Some(k.as_str()) > after).cloned());
        }
        ids.sort_unstable();
        ids.truncate(limit);
        Ok(ids)
    }

    fn deleted(&self, id: &str) -> StorageResult<bool> {
        Ok(self.tombs.lock().contains(id))
    }

    fn list_tombstones(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        use std::ops::Bound;
        let lower = match after {
            Some(cursor) => Bound::Excluded(cursor),
            None => Bound::Unbounded,
        };
        let tombs = self.tombs.lock();
        Ok(tombs.range::<str, _>((lower, Bound::Unbounded)).take(limit).cloned().collect())
    }

    fn stats(&self) -> BackendStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn roundtrip_and_len() {
        let mem = MemBackend::new();
        assert!(mem.is_empty());
        mem.put("a", &[1, 2, 3]).unwrap();
        mem.put("b", &[4]).unwrap();
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.get("a").unwrap().as_deref(), Some(&[1u8, 2, 3][..]));
        assert!(mem.get("zzz").unwrap().is_none());
        assert!(mem.delete("a").unwrap());
        assert!(!mem.delete("a").unwrap());
        assert_eq!(mem.len(), 1);
        let s = mem.stats();
        assert_eq!((s.puts, s.gets, s.misses, s.deletes), (2, 2, 1, 2));
        assert_eq!(s.bytes_written, 4);
    }

    #[test]
    fn get_shares_the_stored_allocation() {
        // Zero-copy is observable: the Arc a get returns must be the
        // very allocation the store holds, not a clone of the bytes.
        let mem = MemBackend::new();
        mem.put("big", &vec![7u8; 1 << 20]).unwrap();
        let a = mem.get("big").unwrap().unwrap();
        let b = mem.get("big").unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "gets must share one allocation");
        assert_eq!(Arc::strong_count(&a), 3, "store + two readers");
    }

    /// The satellite regression test: a reader *consuming* a large blob
    /// must not serialize other operations on the same shard. With the
    /// seed's clone-under-lock a slow consumer held nothing (the clone
    /// itself was the serialization); here we prove the lock is released
    /// the moment the Arc is handed out, by holding the blob hostage on
    /// one thread while another completes same-shard traffic.
    #[test]
    fn large_blob_get_does_not_serialize_shard_operations() {
        // One shard forces every key onto the same lock — the worst case.
        let mem = Arc::new(MemBackend::with_shards(1));
        mem.put("large", &vec![0xABu8; 8 << 20]).unwrap();

        let (got_blob_tx, got_blob_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();

        std::thread::scope(|s| {
            let holder_mem = Arc::clone(&mem);
            s.spawn(move || {
                let blob = holder_mem.get("large").unwrap().unwrap();
                got_blob_tx.send(()).unwrap();
                // Simulate a slow downstream (socket write of 8 MB):
                // keep the blob alive until the test says otherwise.
                release_rx.recv().unwrap();
                assert_eq!(blob.len(), 8 << 20);
            });

            // Wait until the reader holds the blob, then drive traffic
            // through the same shard. If the get still held the shard
            // lock, these would block until `release_tx` fires — which
            // only fires after we observe completion, so the test would
            // deadlock (and fail by timeout) instead of passing falsely.
            got_blob_rx.recv().unwrap();
            let worker_mem = Arc::clone(&mem);
            s.spawn(move || {
                for i in 0..100 {
                    worker_mem.put(&format!("k{i}"), &[i as u8; 64]).unwrap();
                    assert!(worker_mem.get(&format!("k{i}")).unwrap().is_some());
                }
                done_tx.send(()).unwrap();
            });
            let finished = done_rx.recv_timeout(Duration::from_secs(10));
            assert!(
                finished.is_ok(),
                "shard traffic stalled while a large-blob get was outstanding"
            );
            release_tx.send(()).unwrap();
        });
        assert_eq!(mem.len(), 101);
    }
}

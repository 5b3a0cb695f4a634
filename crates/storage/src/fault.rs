//! [`FaultBackend`] — the store-side twin of [`p3_net::FaultTransport`]:
//! a [`StorageBackend`] decorator that makes the provider misbehave
//! without a test hook on any shipping type.
//!
//! Two switches, both off at construction:
//!
//! * **tamper** — every `get` serves a copy with one byte flipped; the
//!   stored blob stays intact (tampering is what a malicious or faulty
//!   provider *serves*). Because it wraps the trait, the envelope-MAC
//!   fail-closed tests run identically against every backend;
//! * **full** — `put` and `delete` are refused with an ENOSPC-style I/O
//!   error and counted; reads keep working, as a full disk still serves
//!   what it holds.

use crate::{BackendStats, MembershipChange, MembershipView, StorageBackend, StorageResult};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A [`StorageBackend`] that forwards to `inner` and applies whichever
/// faults are switched on (see the module docs).
#[derive(Debug)]
pub struct FaultBackend {
    inner: Arc<dyn StorageBackend>,
    tamper: AtomicBool,
    full: AtomicBool,
    full_rejections: AtomicU64,
}

impl FaultBackend {
    /// Wrap `inner`; no fault is armed.
    pub fn new(inner: Arc<dyn StorageBackend>) -> FaultBackend {
        FaultBackend {
            inner,
            tamper: AtomicBool::new(false),
            full: AtomicBool::new(false),
            full_rejections: AtomicU64::new(0),
        }
    }

    /// Start (or stop) flipping one byte of every blob served.
    pub fn tamper(&self, on: bool) {
        self.tamper.store(on, Ordering::Relaxed);
    }

    /// Start (or stop) refusing writes as a full volume would.
    pub fn fill(&self, on: bool) {
        self.full.store(on, Ordering::Relaxed);
    }

    /// Writes (puts and deletes) refused while full.
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections.load(Ordering::Relaxed)
    }

    fn refuse_if_full(&self) -> StorageResult<()> {
        if self.full.load(Ordering::Relaxed) {
            self.full_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(std::io::Error::other("no space left on device (injected)").into());
        }
        Ok(())
    }
}

impl StorageBackend for FaultBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        self.refuse_if_full()?;
        self.inner.put(id, data)
    }

    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        let blob = self.inner.get(id)?;
        if !self.tamper.load(Ordering::Relaxed) {
            return Ok(blob);
        }
        Ok(blob.map(|blob| {
            let mut data = blob.to_vec();
            if let Some(byte) = data.get_mut(blob.len() / 2) {
                *byte ^= 0x01;
            }
            Arc::from(data)
        }))
    }

    fn delete(&self, id: &str) -> StorageResult<bool> {
        self.refuse_if_full()?;
        self.inner.delete(id)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn list_ids(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        self.inner.list_ids(after, limit)
    }

    fn deleted(&self, id: &str) -> StorageResult<bool> {
        self.inner.deleted(id)
    }

    fn list_tombstones(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        self.inner.list_tombstones(after, limit)
    }

    fn membership(&self) -> Option<MembershipView> {
        self.inner.membership()
    }

    fn update_membership(
        &self,
        add: &[SocketAddr],
        remove: &[SocketAddr],
    ) -> StorageResult<MembershipChange> {
        self.inner.update_membership(add, remove)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClusterBackend, ClusterConfig, MemBackend, PackedBackend, StorageError, StorageService,
    };

    #[test]
    fn tamper_flips_served_bytes_only() {
        let store = FaultBackend::new(Arc::new(MemBackend::new()));
        store.put("x", &[0u8; 10]).unwrap();
        store.put("empty", &[]).unwrap();
        store.tamper(true);
        assert_ne!(&store.get("x").unwrap().unwrap()[..], &[0u8; 10][..]);
        assert!(store.get("empty").unwrap().unwrap().is_empty(), "nothing to flip");
        assert!(store.get("absent").unwrap().is_none(), "a miss stays a miss");
        // The stored copy stays intact; tampering is per-read.
        store.tamper(false);
        assert_eq!(&store.get("x").unwrap().unwrap()[..], &[0u8; 10][..]);
    }

    /// The envelope MAC must catch a tampering provider no matter which
    /// backend served the bytes — mem, packed, and a 2-node cluster.
    #[test]
    fn tampered_blob_fails_envelope_auth_on_every_backend() {
        let dir = std::env::temp_dir().join(format!("p3-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut node_a = StorageService::spawn().unwrap();
        let mut node_b = StorageService::spawn().unwrap();
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: vec![node_a.addr(), node_b.addr()],
            replicas: 2,
            ..ClusterConfig::default()
        })
        .unwrap();
        let backends: Vec<Arc<dyn StorageBackend>> = vec![
            Arc::new(MemBackend::new()),
            Arc::new(PackedBackend::open(&dir).unwrap()),
            Arc::new(cluster),
        ];
        for backend in backends {
            let store = FaultBackend::new(backend);
            let kind = store.kind();
            let key = p3_crypto::EnvelopeKey::derive(b"m", b"photo-9");
            store.put("photo-9", &p3_crypto::seal(&key, b"secret part")).unwrap();
            let honest = store.get("photo-9").unwrap().unwrap();
            assert!(p3_crypto::open(&key, &honest).is_ok(), "{kind}: honest read must verify");
            store.tamper(true);
            let served = store.get("photo-9").unwrap().unwrap();
            assert!(p3_crypto::open(&key, &served).is_err(), "{kind}: tampering must be detected");
        }
        node_a.shutdown();
        node_b.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_rejects_writes_not_reads() {
        let dir = std::env::temp_dir().join(format!("p3-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FaultBackend::new(Arc::new(PackedBackend::open(&dir).unwrap()));
        store.put("a", b"ok").unwrap();
        store.fill(true);
        assert!(matches!(store.put("b", b"nope"), Err(StorageError::Io(_))));
        assert!(matches!(store.delete("a"), Err(StorageError::Io(_))));
        assert_eq!(store.get("a").unwrap().unwrap().as_ref(), b"ok");
        assert_eq!(store.full_rejections(), 2);
        store.fill(false);
        store.put("b", b"yes").unwrap();
        assert!(store.delete("a").unwrap());
        assert_eq!(store.full_rejections(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Background log compaction for the packed needle store.
//!
//! Overwrites and tombstones never free space by themselves — they
//! only mark earlier frames *dead*. The compactor reclaims that space
//! by rewriting whole segments:
//!
//! * **Victims are sealed segments only.** The active segment is still
//!   being appended to; compacting it would race the writer for the
//!   file tail. A sealed segment qualifies once its dead-byte ratio
//!   crosses [`crate::PackedConfig::compact_threshold`] (fully-dead
//!   segments are simply deleted).
//! * **Live records are copied forward through the normal writer**, a
//!   whole victim under one group commit, so the copies are durable
//!   before the victim file is unlinked — a crash at any instant leaves
//!   at least one intact copy of every live needle on disk. Copies
//!   preserve the original sequence number: on replay the copy and the
//!   original are the same record, so recovery order stays irrelevant.
//! * **Live tombstones are copied too, never dropped.** Dropping a
//!   tombstone would let the anti-entropy sweep resurrect the blob
//!   from a stale replica. (A tombstone whose garbage-collection
//!   horizon has passed could be retired; this store keeps them
//!   forever — at one ~40-byte needle per deleted blob the cost is
//!   noise, and cluster-wide delete safety needs no GC clock.)
//! * **The index swap is atomic per record and guarded by a CAS**: the
//!   copy installs only if the index still points at the victim frame
//!   (same segment, same sequence number). A concurrent re-put or
//!   delete wins the race and the copy just counts as dead bytes in
//!   the new segment. Readers holding the victim's file handle keep
//!   reading through the unlink (POSIX semantics); readers that look
//!   up after the swap see the new location.
//!
//! If any live needle in a victim fails its CRC, that segment is
//! **skipped**, not compacted: deleting it would turn a detected
//! corruption into a plain miss, breaking the "never a false 404"
//! contract. The rotted segment stays on disk as evidence.

use crate::log::PackedBackend;
use crate::StorageResult;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// What one [`compact_once`] pass did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Segments rewritten (or deleted outright) this pass.
    pub segments_compacted: usize,
    /// Bytes of victim segment files unlinked from disk.
    pub reclaimed_bytes: u64,
    /// Live puts copied forward into the active segment.
    pub live_copied: usize,
    /// Live tombstones copied forward (never dropped).
    pub tombstones_copied: usize,
    /// Victims skipped because a live needle failed its CRC.
    pub skipped_corrupt: usize,
}

/// Run one compaction pass over every qualifying sealed segment. One
/// pass runs at a time per store; a concurrent caller (a manual pass
/// beside a live [`Compactor`]) waits its turn and then picks victims
/// from what the first pass left.
pub fn compact_once(store: &PackedBackend) -> StorageResult<CompactReport> {
    let inner = store.inner();
    let _claim = inner.compacting.lock();
    let mut report = CompactReport::default();
    let victims: Vec<u32> = {
        let segs = inner.segs.lock();
        segs.iter()
            .filter(|(_, info)| {
                info.sealed
                    && info.len > 0
                    && (info.dead >= info.len
                        || (info.len >= inner.cfg.compact_min_bytes
                            && info.dead as f64 / info.len as f64 >= inner.cfg.compact_threshold))
            })
            .map(|(&n, _)| n)
            .collect()
    };
    'victims: for seg in victims {
        // Snapshot the records that still live in this segment.
        let live_puts: Vec<(String, crate::log::Loc)> = inner
            .index
            .lock()
            .iter()
            .filter(|(_, l)| l.seg == seg)
            .map(|(id, l)| (id.clone(), l.clone()))
            .collect();
        let live_tombs: Vec<(String, crate::log::Tomb)> = inner
            .tombs
            .lock()
            .iter()
            .filter(|(_, t)| t.seg == seg)
            .map(|(id, t)| (id.clone(), t.clone()))
            .collect();

        // Queue every live record's copy, then pay one group commit
        // for the whole victim. A CRC failure aborts this victim:
        // unlinking it would downgrade detected corruption to a miss
        // (copies already queued ride the next flush and install as
        // usual; the victim just stays on disk).
        let mut queued_through = None;
        for (id, loc) in &live_puts {
            let payload = match store.read_at(id, loc) {
                Ok(p) => p,
                Err(_) => {
                    report.skipped_corrupt += 1;
                    continue 'victims;
                }
            };
            queued_through = Some(store.enqueue_rewrite(id, loc.seq, seg, false, &payload)?);
        }
        for (id, tomb) in &live_tombs {
            queued_through = Some(store.enqueue_rewrite(id, tomb.seq, seg, true, &[])?);
        }
        if let Some(end) = queued_through {
            store.commit_through(end)?;
        }

        // Every copy is durable and CAS-installed; the victim file can
        // go. Handles cached by in-flight readers stay readable.
        let freed = store.retire_segment(seg)?;
        report.segments_compacted += 1;
        report.reclaimed_bytes += freed;
        report.live_copied += live_puts.len();
        report.tombstones_copied += live_tombs.len();
    }
    if report.segments_compacted > 0 {
        inner.stats.compaction(report.segments_compacted as u64, report.reclaimed_bytes);
    }
    Ok(report)
}

/// A background compaction loop, owned like a thread guard: dropping
/// it stops the thread and joins it. Mirrors the sweeper idiom in
/// [`crate::cluster`].
#[derive(Debug)]
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawn a loop that runs [`compact_once`] every `interval`. Holds
    /// only a weak reference, so dropping the store ends the loop.
    pub fn spawn(store: &Arc<PackedBackend>, interval: Duration) -> Compactor {
        let weak: Weak<PackedBackend> = Arc::downgrade(store);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("p3-compactor".into())
            .spawn(move || loop {
                let mut remaining = interval;
                while !remaining.is_zero() {
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    let nap = remaining.min(Duration::from_millis(100));
                    std::thread::park_timeout(nap);
                    remaining = remaining.saturating_sub(nap);
                }
                let Some(store) = weak.upgrade() else { return };
                if stop2.load(Ordering::Relaxed) {
                    return;
                }
                // A failed pass (e.g. disk error) is retried next tick;
                // the store itself stays serving.
                let _ = compact_once(&store);
            })
            .expect("spawn compactor thread");
        Compactor { stop, handle: Some(handle) }
    }
}

impl Drop for Compactor {
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
    use super::*;
    use crate::{PackedConfig, StorageBackend};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p3-compact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn churn_cfg() -> PackedConfig {
        PackedConfig { segment_bytes: 4096, compact_threshold: 0.4, compact_min_bytes: 0 }
    }

    #[test]
    fn compaction_reclaims_space_and_keeps_live_blobs() {
        let dir = tmpdir("reclaim");
        let store = PackedBackend::open_with(&dir, churn_cfg()).unwrap();
        // Many generations of the same small key set → mostly-dead
        // sealed segments.
        for round in 0..30 {
            for k in 0..8 {
                store.put(&format!("k{k}"), format!("round {round} data {k}").as_bytes()).unwrap();
            }
        }
        store.delete("k7").unwrap();
        let before = store.disk_bytes();
        let report = compact_once(&store).unwrap();
        assert!(report.segments_compacted > 0, "churned segments must qualify");
        assert!(report.tombstones_copied <= 1);
        let after = store.disk_bytes();
        assert!(after < before, "compaction must shrink disk usage: {before} -> {after}");
        for k in 0..7 {
            assert_eq!(
                store.get(&format!("k{k}")).unwrap().unwrap().as_ref(),
                format!("round 29 data {k}").as_bytes(),
                "latest generation survives compaction"
            );
        }
        assert!(store.get("k7").unwrap().is_none());
        assert!(store.deleted("k7").unwrap(), "tombstone survives compaction");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A victim's copies share one group commit: the pass waits for the
    /// flusher once per victim, not once per copied needle.
    #[test]
    fn victim_is_copied_under_one_group_commit() {
        let dir = tmpdir("batch");
        let cfg = PackedConfig { segment_bytes: 16 << 10, ..churn_cfg() };
        let store = PackedBackend::open_with(&dir, cfg).unwrap();
        // Segment 0 opens with 40 live needles and two live tombstones;
        // churning eight other keys then fills it (and the segments
        // after it) with dead generations.
        const LIVE: usize = 40;
        for i in 0..LIVE {
            store.put(&format!("live-{i:02}"), &[i as u8; 64]).unwrap();
        }
        for t in 0..2 {
            store.put(&format!("gone-{t}"), b"short-lived").unwrap();
            store.delete(&format!("gone-{t}")).unwrap();
        }
        for round in 0..24 {
            for k in 0..8 {
                store.put(&format!("churn-{k}"), &[round; 200]).unwrap();
            }
        }
        assert!(store.segment_count() >= 3, "the churn must seal segment 0 and more");
        let commits_before = store.group_commits();
        let report = compact_once(&store).unwrap();
        let commits = store.group_commits() - commits_before;
        assert!(report.live_copied >= LIVE, "segment 0's live needles must move: {report:?}");
        assert_eq!(report.tombstones_copied, 2);
        assert!(
            commits as usize <= report.segments_compacted,
            "{commits} group commits for {} victims holding {} live needles",
            report.segments_compacted,
            report.live_copied
        );
        for i in 0..LIVE {
            let got = store.get(&format!("live-{i:02}")).unwrap().unwrap();
            assert_eq!(got.as_ref(), [i as u8; 64]);
        }
        assert!(store.deleted("gone-0").unwrap() && store.deleted("gone-1").unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_compact_reopen_never_resurrects() {
        let dir = tmpdir("resurrect");
        {
            let store = PackedBackend::open_with(&dir, churn_cfg()).unwrap();
            for i in 0..40 {
                store.put(&format!("b{i:02}"), &[i; 64]).unwrap();
            }
            store.delete("b05").unwrap();
            store.delete("b17").unwrap();
            // Force the tombstones' segment to seal so they are copy
            // candidates, then churn everything else dead.
            for i in 0..40 {
                if i != 5 && i != 17 {
                    store.put(&format!("b{i:02}"), &[i ^ 0xFF; 64]).unwrap();
                }
            }
            let report = compact_once(&store).unwrap();
            assert!(report.segments_compacted > 0);
        }
        let store = PackedBackend::open_with(&dir, churn_cfg()).unwrap();
        assert!(store.get("b05").unwrap().is_none(), "compact+reopen must not resurrect");
        assert!(store.get("b17").unwrap().is_none());
        assert!(store.deleted("b05").unwrap());
        assert!(store.deleted("b17").unwrap());
        assert_eq!(store.len(), 38);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_put_beats_compaction_copy() {
        // The CAS race: a fresh put lands while the compactor copies
        // the old generation. The fresh put must win.
        let dir = tmpdir("race");
        let store = Arc::new(PackedBackend::open_with(&dir, churn_cfg()).unwrap());
        for round in 0..30 {
            for k in 0..8 {
                store.put(&format!("k{k}"), format!("gen {round}").as_bytes()).unwrap();
            }
        }
        let racer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50 {
                    store.put("k3", format!("fresh {i}").as_bytes()).unwrap();
                }
            })
        };
        compact_once(&store).unwrap();
        racer.join().unwrap();
        let got = store.get("k3").unwrap().unwrap();
        assert!(
            got.as_ref().starts_with(b"fresh"),
            "fresh put must never be shadowed by a compaction copy"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_passes_never_retire_the_same_segment() {
        let dir = tmpdir("claim");
        let store = PackedBackend::open_with(&dir, churn_cfg()).unwrap();
        // Eight segments of four 900-byte puts, a small put and its
        // tombstone each (a fifth big frame would not fit in 4 KiB)...
        for seg in 0..8 {
            for slot in 0..4 {
                store.put(&format!("k{seg}-{slot}"), &[seg as u8; 900]).unwrap();
            }
            store.put(&format!("t{seg}"), b"short-lived").unwrap();
            store.delete(&format!("t{seg}")).unwrap();
        }
        // ...then three of the four overwritten: every one of the eight
        // is sealed, ~75 % dead, and still holds a live put and a live
        // tombstone to copy forward.
        for seg in 0..8 {
            for slot in 1..4 {
                store.put(&format!("k{seg}-{slot}"), &[0xEE; 900]).unwrap();
            }
        }
        let barrier = std::sync::Barrier::new(2);
        let reports: Vec<StorageResult<CompactReport>> = std::thread::scope(|s| {
            let passes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        compact_once(&store)
                    })
                })
                .collect();
            passes.into_iter().map(|p| p.join().unwrap()).collect()
        });
        let mut compacted = 0;
        for report in reports {
            compacted += report.expect("a pass lost a victim to its rival").segments_compacted;
        }
        assert_eq!(compacted, 8, "each victim is compacted by exactly one pass");
        for seg in 0..8u8 {
            for slot in 0..4 {
                let want = if slot == 0 { [seg; 900] } else { [0xEE; 900] };
                let got = store.get(&format!("k{seg}-{slot}")).unwrap().unwrap();
                assert_eq!(got.as_ref(), want, "k{seg}-{slot}");
            }
            assert!(store.get(&format!("t{seg}")).unwrap().is_none());
            assert!(store.deleted(&format!("t{seg}")).unwrap(), "tombstone t{seg} survives");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compactor_runs_and_stops() {
        let dir = tmpdir("bg");
        let store = Arc::new(PackedBackend::open_with(&dir, churn_cfg()).unwrap());
        for round in 0..30 {
            for k in 0..8 {
                store.put(&format!("k{k}"), format!("round {round}").as_bytes()).unwrap();
            }
        }
        let before = store.disk_bytes();
        let compactor = Compactor::spawn(&store, Duration::from_millis(20));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.disk_bytes() >= before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(compactor);
        assert!(store.disk_bytes() < before, "background pass must reclaim space");
        assert!(store.stats().compactions >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}

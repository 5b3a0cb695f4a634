//! The packed needle-log store: Haystack-style append-only segments
//! with an in-memory index and a group-commit writer.
//!
//! Why this shape: a one-file-per-blob store pays two `fsync`s plus a
//! create + rename per blob and at millions of photos exhausts inodes,
//! while its directory-scan recovery touches one dentry per blob (the
//! A/B is frozen in ARCHITECTURE.md § Decided A/Bs). Here every blob is
//! one [needle frame](crate::needle) appended to a rolling log segment
//! (`<n>.seg` files), so a put is a buffered append plus a *shared*
//! `fdatasync`:
//!
//! * **Group commit.** Writers append their frame under the writer
//!   lock, then block until the flusher thread's next `sync_data`
//!   covers their bytes. While one fsync is in flight, every
//!   concurrent writer's frame accumulates behind it and the *next*
//!   fsync commits them all — N concurrent puts cost ~1 fsync. The ack
//!   rule is strict: `put` returns only after the covering flush
//!   completes, and the in-memory index publishes an entry only *after*
//!   its frame is durable, so a reader can never observe (or
//!   read-repair from) bytes a crash could unwrite.
//!
//! * **Recovery = sequential scan.** Opening the store scans each
//!   segment's needle chain, verifying every CRC. A torn final needle
//!   (the kill-mid-group-commit case) truncates the active segment at
//!   the last intact frame instead of failing; the acked prefix is
//!   exactly what survives. Replay keeps, per ID, the needle with the
//!   highest sequence number — physically order-free, which is what
//!   lets compaction copy old frames forward without write stalls.
//!
//! * **Tombstones make delete real.** A delete appends a tombstone
//!   needle (group-committed like any write) and the ID moves from the
//!   index to the tombstone map. "Deleted" and "never existed" become
//!   distinct answers — [`PackedBackend::deleted`] — which the cluster
//!   layer uses to stop read-repair and anti-entropy from resurrecting
//!   deleted blobs from stale replicas.
//!
//! Segment rewriting (space reclaim) lives in [`crate::compact`].

use crate::needle::{self, ScanEntry, FLAG_TOMBSTONE};
use crate::{BackendStats, StatCounters, StorageBackend, StorageError, StorageResult};
use parking_lot::Mutex as PlMutex;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const SEG_EXT: &str = "seg";

/// Tuning knobs for the packed store (all have serving-grade defaults;
/// the `p3 storage` CLI exposes them as flags).
#[derive(Debug, Clone)]
pub struct PackedConfig {
    /// Roll to a fresh segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// Dead-byte ratio above which the compactor rewrites a sealed
    /// segment (`dead / len`, in `0..=1`).
    pub compact_threshold: f64,
    /// Sealed segments smaller than this are left alone even above the
    /// threshold — rewriting a few KB buys nothing.
    pub compact_min_bytes: u64,
}

impl Default for PackedConfig {
    fn default() -> Self {
        PackedConfig { segment_bytes: 64 << 20, compact_threshold: 0.5, compact_min_bytes: 1 << 20 }
    }
}

/// Where a live needle lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Loc {
    pub(crate) seg: u32,
    pub(crate) offset: u64,
    pub(crate) frame_len: u32,
    pub(crate) payload_len: u32,
    pub(crate) seq: u64,
}

/// A live tombstone (the ID is deleted as of `seq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tomb {
    pub(crate) seg: u32,
    pub(crate) offset: u64,
    pub(crate) frame_len: u32,
    pub(crate) seq: u64,
}

/// Per-segment byte accounting for the compactor.
#[derive(Debug, Default, Clone)]
pub(crate) struct SegInfo {
    /// Bytes of needle frames in the segment (valid prefix only).
    pub(crate) len: u64,
    /// Bytes owed to superseded/deleted frames (plus any unscannable
    /// rotted tail of a sealed segment). `dead == len` means the whole
    /// segment is garbage.
    pub(crate) dead: u64,
    /// Sealed segments take no more appends and are compaction
    /// candidates; the active segment never is.
    pub(crate) sealed: bool,
}

/// One record awaiting index publication after its covering flush.
#[derive(Debug)]
enum PendingOp {
    Put {
        id: String,
        loc: Loc,
    },
    Tomb {
        id: String,
        tomb: Tomb,
    },
    /// A compaction copy: installs only if the original (same seq, in
    /// `from_seg`) is still current — a concurrent re-put or delete
    /// wins and the copy becomes instant dead bytes.
    Rewrite {
        id: String,
        loc: Loc,
        from_seg: u32,
        tombstone: bool,
    },
}

#[derive(Debug)]
struct Writer {
    seg: u32,
    file: Arc<File>,
    seg_len: u64,
    /// Monotonic bytes appended across all segments; the group-commit
    /// watermark writers wait on.
    total: u64,
    next_seq: u64,
    pending: Vec<PendingOp>,
}

#[derive(Debug, Default)]
struct FlushMark {
    flushed_total: u64,
    /// Set when an fsync failed: durability acks can no longer be
    /// given, so every waiting and future write errors out.
    poisoned: bool,
}

#[derive(Debug)]
pub(crate) struct PackedInner {
    dir: PathBuf,
    pub(crate) cfg: PackedConfig,
    writer: Mutex<Writer>,
    work_cv: Condvar,
    flush: Mutex<FlushMark>,
    flushed_cv: Condvar,
    pub(crate) index: PlMutex<BTreeMap<String, Loc>>,
    pub(crate) tombs: PlMutex<BTreeMap<String, Tomb>>,
    pub(crate) segs: PlMutex<BTreeMap<u32, SegInfo>>,
    files: PlMutex<HashMap<u32, Arc<File>>>,
    /// Held for the length of a compaction pass: two passes that
    /// snapshot the same victims would both retire them, and the loser
    /// would die on the already-unlinked file.
    pub(crate) compacting: PlMutex<()>,
    pub(crate) stats: StatCounters,
    stop: AtomicBool,
}

/// The packed needle-log store (see the module docs).
#[derive(Debug)]
pub struct PackedBackend {
    inner: Arc<PackedInner>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl PackedBackend {
    /// Open (or create) a packed store with default tuning.
    pub fn open(dir: &Path) -> StorageResult<PackedBackend> {
        Self::open_with(dir, PackedConfig::default())
    }

    /// Open (or create) a packed store, recovering the index by
    /// sequential segment scan and truncating a torn tail of the
    /// active segment.
    pub fn open_with(dir: &Path, cfg: PackedConfig) -> StorageResult<PackedBackend> {
        fs::create_dir_all(dir)?;
        let cfg = PackedConfig {
            // A floor keeps a typo'd tiny segment size from rolling on
            // every frame.
            segment_bytes: cfg.segment_bytes.max(4096),
            ..cfg
        };

        // Discover segments in numeric order.
        let mut seg_nums: Vec<u32> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SEG_EXT) {
                continue;
            }
            if let Some(n) = path.file_stem().and_then(|s| s.to_str()).and_then(|s| s.parse().ok())
            {
                seg_nums.push(n);
            }
        }
        seg_nums.sort_unstable();

        // Scan every segment; replay keeps the max-seq record per ID.
        let mut index: BTreeMap<String, Loc> = BTreeMap::new();
        let mut tombs: BTreeMap<String, Tomb> = BTreeMap::new();
        let mut segs: BTreeMap<u32, SegInfo> = BTreeMap::new();
        let mut files: HashMap<u32, Arc<File>> = HashMap::new();
        let mut next_seq = 1u64;
        let mut scanned: Vec<(u32, Vec<ScanEntry>)> = Vec::new();
        let last = seg_nums.last().copied();
        for &n in &seg_nums {
            let path = seg_path(dir, n);
            let file_len = fs::metadata(&path)?.len();
            let out = needle::scan(BufReader::new(File::open(&path)?))?;
            // A ragged tail on the *final* segment is a torn needle
            // (crash mid-group-commit): cut the active segment back to
            // the intact prefix so future appends chain onto valid
            // frames. A sealed segment's ragged tail is instead treated
            // as dead bytes (compaction will eventually drop the
            // segment) — never destroy data by truncating a sealed file.
            if out.valid_len < file_len && Some(n) == last {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(out.valid_len)?;
                f.sync_data()?;
            }
            let tail_dead =
                if Some(n) == last { 0 } else { file_len.saturating_sub(out.valid_len) };
            segs.insert(
                n,
                SegInfo {
                    len: if Some(n) == last { out.valid_len } else { file_len },
                    dead: tail_dead,
                    sealed: Some(n) != last,
                },
            );
            for e in &out.entries {
                next_seq = next_seq.max(e.seq + 1);
            }
            scanned.push((n, out.entries));
        }

        // Winner per ID = highest sequence number.
        for (n, entries) in &scanned {
            for e in entries {
                let cur = best_seq(&index, &tombs, &e.id);
                if e.seq <= cur {
                    continue;
                }
                index.remove(&e.id);
                tombs.remove(&e.id);
                if e.is_tombstone() {
                    tombs.insert(
                        e.id.clone(),
                        Tomb { seg: *n, offset: e.offset, frame_len: e.frame_len, seq: e.seq },
                    );
                } else {
                    index.insert(
                        e.id.clone(),
                        Loc {
                            seg: *n,
                            offset: e.offset,
                            frame_len: e.frame_len,
                            payload_len: e.payload_len,
                            seq: e.seq,
                        },
                    );
                }
            }
        }
        // Everything that lost replay is dead bytes in its segment.
        for (n, entries) in &scanned {
            for e in entries {
                let live = match (index.get(&e.id), tombs.get(&e.id)) {
                    (Some(l), _) => l.seq == e.seq && l.seg == *n && l.offset == e.offset,
                    (None, Some(t)) => t.seq == e.seq && t.seg == *n && t.offset == e.offset,
                    (None, None) => false,
                };
                if !live {
                    segs.get_mut(n).unwrap().dead += u64::from(e.frame_len);
                }
            }
        }

        // Choose the active segment: continue the last one if it still
        // has room, else start fresh.
        let (active, active_len) = match last {
            Some(n) if segs[&n].len < cfg.segment_bytes => (n, segs[&n].len),
            Some(n) => {
                segs.get_mut(&n).unwrap().sealed = true;
                (n + 1, 0)
            }
            None => (0, 0),
        };
        segs.entry(active).or_default().sealed = false;
        let active_file = Arc::new(open_segment(dir, active)?);
        // Open read handles for every sealed segment too.
        for &n in segs.keys() {
            if n != active {
                files.insert(n, Arc::new(File::open(seg_path(dir, n))?));
            }
        }
        files.insert(active, Arc::clone(&active_file));
        // The directory entry for a just-created first segment must
        // survive power loss before any ack is given.
        File::open(dir)?.sync_all()?;

        let total = active_len;
        let inner = Arc::new(PackedInner {
            dir: dir.to_path_buf(),
            cfg,
            writer: Mutex::new(Writer {
                seg: active,
                file: active_file,
                seg_len: active_len,
                total,
                next_seq,
                pending: Vec::new(),
            }),
            work_cv: Condvar::new(),
            flush: Mutex::new(FlushMark { flushed_total: total, poisoned: false }),
            flushed_cv: Condvar::new(),
            index: PlMutex::new(index),
            tombs: PlMutex::new(tombs),
            segs: PlMutex::new(segs),
            files: PlMutex::new(files),
            compacting: PlMutex::new(()),
            stats: StatCounters::default(),
            stop: AtomicBool::new(false),
        });
        let flusher = spawn_flusher(Arc::clone(&inner));
        Ok(PackedBackend { inner, flusher: Mutex::new(Some(flusher)) })
    }

    /// The data directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Live segment count (for benches and tests).
    pub fn segment_count(&self) -> usize {
        self.inner.segs.lock().len()
    }

    /// Bytes currently occupied by segment files on disk (measured, so
    /// a reclaim proof reflects what the filesystem actually freed).
    pub fn disk_bytes(&self) -> u64 {
        let mut sum = 0;
        if let Ok(rd) = fs::read_dir(&self.inner.dir) {
            for entry in rd.flatten() {
                if entry.path().extension().and_then(|e| e.to_str()) == Some(SEG_EXT) {
                    if let Ok(meta) = entry.metadata() {
                        sum += meta.len();
                    }
                }
            }
        }
        sum
    }

    /// Group-commit fsync batches issued so far.
    pub fn group_commits(&self) -> u64 {
        self.inner.stats.snapshot().group_commits
    }

    /// Chaos hook for the simulation harness: flip one byte inside
    /// every *live* needle on disk (payload byte when there is one,
    /// CRC byte otherwise), modelling storage-medium bit rot. Returns
    /// how many needles were damaged; subsequent reads must surface
    /// each as a detected corrupt error, never as garbage.
    pub fn corrupt_live_needles(&self) -> StorageResult<usize> {
        let locs: Vec<(String, Loc)> =
            self.inner.index.lock().iter().map(|(id, l)| (id.clone(), l.clone())).collect();
        let mut by_seg: BTreeMap<u32, Vec<(String, Loc)>> = BTreeMap::new();
        for (id, loc) in locs {
            by_seg.entry(loc.seg).or_default().push((id, loc));
        }
        let mut flipped = 0;
        for (seg, entries) in by_seg {
            let f =
                OpenOptions::new().write(true).read(true).open(seg_path(&self.inner.dir, seg))?;
            for (id, loc) in entries {
                let at = if loc.payload_len > 0 {
                    loc.offset
                        + (needle::HEADER_LEN + id.len()) as u64
                        + u64::from(loc.payload_len) / 2
                } else {
                    // Tombstones and empty blobs have no payload byte;
                    // damage the CRC itself.
                    loc.offset + u64::from(loc.frame_len) - 8
                };
                let mut b = [0u8];
                f.read_exact_at(&mut b, at)?;
                b[0] ^= 0x80;
                f.write_all_at(&b, at)?;
                flipped += 1;
            }
            f.sync_data()?;
        }
        Ok(flipped)
    }

    pub(crate) fn inner(&self) -> &Arc<PackedInner> {
        &self.inner
    }

    /// Compaction support: drop a fully-evacuated sealed segment.
    /// Returns the bytes unlinked from disk. Readers that already hold
    /// the file handle keep working; new lookups see the swapped index.
    pub(crate) fn retire_segment(&self, seg: u32) -> StorageResult<u64> {
        let path = seg_path(&self.inner.dir, seg);
        let freed = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        // Order matters: remove the on-disk file *before* dropping the
        // bookkeeping, so a crash in between leaves only a harmless
        // stale map entry (gone on restart), never an unlinked segment
        // still advertised as holding data.
        fs::remove_file(&path)?;
        File::open(&self.inner.dir)?.sync_all()?;
        self.inner.files.lock().remove(&seg);
        self.inner.segs.lock().remove(&seg);
        Ok(freed)
    }

    /// Append one record (put or tombstone) through the group-commit
    /// writer and block until its covering fsync completes.
    fn append_record(&self, id: &str, flags: u8, payload: &[u8]) -> StorageResult<Loc> {
        let inner = &self.inner;
        let my_end;
        let loc;
        {
            let mut w = inner.writer.lock().expect("writer lock");
            let seq = w.next_seq;
            let frame = needle::encode(id, seq, flags, payload);
            if w.seg_len > 0 && w.seg_len + frame.len() as u64 > inner.cfg.segment_bytes {
                roll_segment(inner, &mut w)?;
            }
            w.next_seq = seq + 1;
            let this_loc = Loc {
                seg: w.seg,
                offset: w.seg_len,
                frame_len: frame.len() as u32,
                payload_len: payload.len() as u32,
                seq,
            };
            append_frame(&w.file, w.seg_len, &frame)?;
            w.seg_len += frame.len() as u64;
            w.total += frame.len() as u64;
            my_end = w.total;
            loc = this_loc.clone();
            let op = if flags & FLAG_TOMBSTONE != 0 {
                PendingOp::Tomb {
                    id: id.to_string(),
                    tomb: Tomb {
                        seg: this_loc.seg,
                        offset: this_loc.offset,
                        frame_len: this_loc.frame_len,
                        seq,
                    },
                }
            } else {
                PendingOp::Put { id: id.to_string(), loc: this_loc }
            };
            w.pending.push(op);
            inner.work_cv.notify_one();
        }
        self.wait_flushed(my_end)?;
        Ok(loc)
    }

    /// Ack-after-the-shared-flush: block until the flusher's watermark
    /// covers `my_end` bytes, or fail if durability was poisoned.
    fn wait_flushed(&self, my_end: u64) -> StorageResult<()> {
        let mut mark = self.inner.flush.lock().expect("flush lock");
        while mark.flushed_total < my_end && !mark.poisoned {
            mark = self.inner.flushed_cv.wait(mark).expect("flush wait");
        }
        if mark.poisoned {
            return Err(StorageError::Io(std::io::Error::other(
                "group-commit fsync failed; store is write-poisoned",
            )));
        }
        Ok(())
    }

    /// Compaction support: append a copy of an existing frame (put or
    /// tombstone), preserving its original sequence number, *without*
    /// waking the flusher or waiting for it. Returns the group-commit
    /// watermark that covers the copy; the compactor queues a whole
    /// victim's copies and pays for one [`Self::commit_through`].
    pub(crate) fn enqueue_rewrite(
        &self,
        id: &str,
        seq: u64,
        from_seg: u32,
        tombstone: bool,
        payload: &[u8],
    ) -> StorageResult<u64> {
        let inner = &self.inner;
        let mut w = inner.writer.lock().expect("writer lock");
        let flags = if tombstone { FLAG_TOMBSTONE } else { 0 };
        let frame = needle::encode(id, seq, flags, payload);
        if w.seg_len > 0 && w.seg_len + frame.len() as u64 > inner.cfg.segment_bytes {
            roll_segment(inner, &mut w)?;
        }
        let loc = Loc {
            seg: w.seg,
            offset: w.seg_len,
            frame_len: frame.len() as u32,
            payload_len: payload.len() as u32,
            seq,
        };
        append_frame(&w.file, w.seg_len, &frame)?;
        w.seg_len += frame.len() as u64;
        w.total += frame.len() as u64;
        w.pending.push(PendingOp::Rewrite { id: id.to_string(), loc, from_seg, tombstone });
        Ok(w.total)
    }

    /// Compaction support: wake the flusher and block until every
    /// record up to watermark `end` is durable and index-published.
    pub(crate) fn commit_through(&self, end: u64) -> StorageResult<()> {
        self.inner.work_cv.notify_one();
        self.wait_flushed(end)
    }

    /// Read the frame at `loc` and return its verified payload.
    pub(crate) fn read_at(&self, id: &str, loc: &Loc) -> StorageResult<Vec<u8>> {
        let file =
            self.inner.files.lock().get(&loc.seg).cloned().ok_or_else(|| {
                StorageError::Io(std::io::Error::other("segment vanished mid-read"))
            })?;
        let mut buf = vec![0u8; loc.frame_len as usize];
        match file.read_exact_at(&mut buf, loc.offset) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                self.inner.stats.corrupt_read();
                return Err(StorageError::Corrupt(format!(
                    "blob {id:?}: segment truncated under us"
                )));
            }
            Err(e) => return Err(e.into()),
        }
        match needle::decode_frame(&buf, id, loc.seq) {
            Some(payload) => Ok(payload),
            None => {
                self.inner.stats.corrupt_read();
                Err(StorageError::Corrupt(format!("blob {id:?} failed its needle CRC")))
            }
        }
    }
}

impl Drop for PackedBackend {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.work_cv.notify_all();
        if let Some(handle) = self.flusher.lock().expect("flusher lock").take() {
            let _ = handle.join();
        }
    }
}

impl StorageBackend for PackedBackend {
    fn kind(&self) -> &'static str {
        "packed"
    }

    fn put(&self, id: &str, data: &[u8]) -> StorageResult<()> {
        self.append_record(id, 0, data)?;
        self.inner.stats.put(data.len());
        Ok(())
    }

    fn get(&self, id: &str) -> StorageResult<Option<Arc<[u8]>>> {
        // Two attempts: a compaction can retire the segment between the
        // index lookup and the pread; the second lookup sees the swapped
        // location.
        for attempt in 0..2 {
            let Some(loc) = self.inner.index.lock().get(id).cloned() else {
                self.inner.stats.get_miss();
                return Ok(None);
            };
            match self.read_at(id, &loc) {
                Ok(payload) => {
                    self.inner.stats.get_hit(payload.len());
                    return Ok(Some(Arc::from(payload)));
                }
                Err(StorageError::Io(_)) if attempt == 0 => continue,
                Err(e) => {
                    if matches!(e, StorageError::Corrupt(_)) {
                        self.inner.stats.gets.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
        unreachable!("second read attempt either returns or errors")
    }

    fn delete(&self, id: &str) -> StorageResult<bool> {
        self.inner.stats.delete();
        // Existence answered at append time; the tombstone is written
        // even when the blob is locally absent — a replica that missed
        // the original put must still remember the delete, or sweep
        // and read-repair could resurrect the blob from elsewhere.
        let existed = self.inner.index.lock().contains_key(id);
        if !existed && self.inner.tombs.lock().contains_key(id) {
            // Already tombstoned: idempotent, no new frame needed.
            return Ok(false);
        }
        self.append_record(id, FLAG_TOMBSTONE, &[])?;
        Ok(existed)
    }

    fn len(&self) -> usize {
        self.inner.index.lock().len()
    }

    fn list_ids(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        Ok(page_of_keys(&self.inner.index.lock(), after, limit))
    }

    fn deleted(&self, id: &str) -> StorageResult<bool> {
        Ok(self.inner.tombs.lock().contains_key(id))
    }

    fn list_tombstones(&self, after: Option<&str>, limit: usize) -> StorageResult<Vec<String>> {
        Ok(page_of_keys(&self.inner.tombs.lock(), after, limit))
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats.snapshot()
    }
}

/// One sorted page of `map`'s keys strictly after `after`.
fn page_of_keys<V>(map: &BTreeMap<String, V>, after: Option<&str>, limit: usize) -> Vec<String> {
    use std::ops::Bound;
    let lower = after.map_or(Bound::Unbounded, Bound::Excluded);
    map.range::<str, _>((lower, Bound::Unbounded)).take(limit).map(|(k, _)| k.clone()).collect()
}

fn seg_path(dir: &Path, n: u32) -> PathBuf {
    dir.join(format!("{n:08}.{SEG_EXT}"))
}

fn open_segment(dir: &Path, n: u32) -> std::io::Result<File> {
    OpenOptions::new().create(true).read(true).append(true).open(seg_path(dir, n))
}

/// Append `frame` at `at` (the tracked tail); on a partial write, cut
/// the file back so a half-frame can never sit *between* intact frames
/// (it would halt every later frame's recovery scan).
fn append_frame(file: &Arc<File>, at: u64, frame: &[u8]) -> StorageResult<()> {
    if let Err(e) = (&**file).write_all(frame) {
        let _ = file.set_len(at);
        return Err(e.into());
    }
    Ok(())
}

/// Seal the active segment (inline flush + fsync) and start the next
/// one. Runs under the writer lock; rare (once per segment_bytes).
fn roll_segment(inner: &PackedInner, w: &mut Writer) -> StorageResult<()> {
    // Everything appended so far must be durable and indexed before the
    // segment is sealed.
    w.file.sync_data()?;
    let ops = std::mem::take(&mut w.pending);
    apply_ops(inner, ops);
    {
        let mut mark = inner.flush.lock().expect("flush lock");
        mark.flushed_total = mark.flushed_total.max(w.total);
        inner.flushed_cv.notify_all();
    }
    {
        let mut segs = inner.segs.lock();
        let info = segs.entry(w.seg).or_default();
        info.sealed = true;
        info.len = w.seg_len;
    }
    let next = w.seg + 1;
    let file = Arc::new(open_segment(&inner.dir, next)?);
    // The new directory entry must survive power loss before any frame
    // in it is acked.
    File::open(&inner.dir)?.sync_all()?;
    inner.files.lock().insert(next, Arc::clone(&file));
    inner.segs.lock().insert(next, SegInfo::default());
    w.seg = next;
    w.file = file;
    w.seg_len = 0;
    Ok(())
}

fn best_seq(index: &BTreeMap<String, Loc>, tombs: &BTreeMap<String, Tomb>, id: &str) -> u64 {
    let a = index.get(id).map(|l| l.seq).unwrap_or(0);
    let b = tombs.get(id).map(|t| t.seq).unwrap_or(0);
    a.max(b)
}

/// Publish a batch of flushed records into the index maps. Monotonic
/// per ID on sequence number, so batches racing with a roll's inline
/// apply (or compaction copies racing live re-puts) can land in any
/// order without an older record ever shadowing a newer one.
fn apply_ops(inner: &PackedInner, ops: Vec<PendingOp>) {
    if ops.is_empty() {
        return;
    }
    let mut index = inner.index.lock();
    let mut tombs = inner.tombs.lock();
    let mut segs = inner.segs.lock();
    let mark_dead = |segs: &mut BTreeMap<u32, SegInfo>, seg: u32, bytes: u32| {
        segs.entry(seg).or_default().dead += u64::from(bytes);
    };
    // Note: `SegInfo::len` is set authoritatively when a segment seals
    // (roll) or at open (recovery scan); apply only tracks dead bytes.
    for op in ops {
        match op {
            PendingOp::Put { id, loc } => {
                if loc.seq <= best_seq(&index, &tombs, &id) {
                    mark_dead(&mut segs, loc.seg, loc.frame_len);
                    continue;
                }
                if let Some(old) = index.insert(id.clone(), loc) {
                    mark_dead(&mut segs, old.seg, old.frame_len);
                }
                if let Some(old) = tombs.remove(&id) {
                    mark_dead(&mut segs, old.seg, old.frame_len);
                }
            }
            PendingOp::Tomb { id, tomb } => {
                if tomb.seq <= best_seq(&index, &tombs, &id) {
                    mark_dead(&mut segs, tomb.seg, tomb.frame_len);
                    continue;
                }
                if let Some(old) = index.remove(&id) {
                    mark_dead(&mut segs, old.seg, old.frame_len);
                }
                if let Some(old) = tombs.insert(id.clone(), tomb) {
                    mark_dead(&mut segs, old.seg, old.frame_len);
                }
            }
            PendingOp::Rewrite { id, loc, from_seg, tombstone } => {
                let installed = if tombstone {
                    match tombs.get_mut(&id) {
                        Some(t) if t.seg == from_seg && t.seq == loc.seq => {
                            *t = Tomb {
                                seg: loc.seg,
                                offset: loc.offset,
                                frame_len: loc.frame_len,
                                seq: loc.seq,
                            };
                            true
                        }
                        _ => false,
                    }
                } else {
                    match index.get_mut(&id) {
                        Some(l) if l.seg == from_seg && l.seq == loc.seq => {
                            *l = loc.clone();
                            true
                        }
                        _ => false,
                    }
                };
                if installed {
                    // The original frame in the victim segment is now
                    // dead (its segment is about to be dropped anyway).
                    mark_dead(&mut segs, from_seg, loc.frame_len);
                } else {
                    // Lost the race to a live write: the copy itself is
                    // dead on arrival.
                    mark_dead(&mut segs, loc.seg, loc.frame_len);
                }
            }
        }
    }
}

fn spawn_flusher(inner: Arc<PackedInner>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("p3-group-commit".into())
        .spawn(move || loop {
            let (file, target, ops) = {
                let mut w = inner.writer.lock().expect("writer lock");
                while w.pending.is_empty() && !inner.stop.load(Ordering::Relaxed) {
                    w = inner.work_cv.wait(w).expect("work wait");
                }
                if w.pending.is_empty() {
                    return; // stop requested, nothing left to flush
                }
                (Arc::clone(&w.file), w.total, std::mem::take(&mut w.pending))
            };
            match file.sync_data() {
                Ok(()) => {
                    apply_ops(&inner, ops);
                    inner.stats.group_commit();
                    let mut mark = inner.flush.lock().expect("flush lock");
                    mark.flushed_total = mark.flushed_total.max(target);
                    inner.flushed_cv.notify_all();
                }
                Err(_) => {
                    // Durability can no longer be promised: poison the
                    // store so no ack ever lies about an fsync.
                    let mut mark = inner.flush.lock().expect("flush lock");
                    mark.poisoned = true;
                    inner.flushed_cv.notify_all();
                }
            }
        })
        .expect("spawn group-commit flusher")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p3-packed-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> PackedConfig {
        PackedConfig { segment_bytes: 4096, ..PackedConfig::default() }
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = tmpdir("rt");
        let store = PackedBackend::open(&dir).unwrap();
        assert!(store.get("a").unwrap().is_none());
        store.put("a", b"hello").unwrap();
        assert_eq!(store.get("a").unwrap().unwrap().as_ref(), b"hello");
        store.put("a", b"hello2").unwrap();
        assert_eq!(store.get("a").unwrap().unwrap().as_ref(), b"hello2");
        assert_eq!(store.len(), 1);
        assert!(store.delete("a").unwrap());
        assert!(store.get("a").unwrap().is_none());
        assert!(!store.delete("a").unwrap(), "second delete reports absent");
        assert!(store.deleted("a").unwrap());
        assert!(!store.deleted("never").unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_index_and_tombstones() {
        let dir = tmpdir("reopen");
        {
            let store = PackedBackend::open_with(&dir, small_cfg()).unwrap();
            for i in 0..40 {
                let mut payload = format!("payload {i}").into_bytes();
                payload.resize(300, b'.');
                store.put(&format!("blob-{i:03}"), &payload).unwrap();
            }
            store.delete("blob-007").unwrap();
            store.put("blob-003", b"rewritten").unwrap();
            assert!(store.segment_count() > 1, "small segments must have rolled");
        }
        let store = PackedBackend::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.len(), 39);
        assert!(store.get("blob-007").unwrap().is_none());
        assert!(store.deleted("blob-007").unwrap());
        assert_eq!(store.get("blob-003").unwrap().unwrap().as_ref(), b"rewritten");
        assert!(store.get("blob-001").unwrap().unwrap().starts_with(b"payload 1"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Replay must charge a superseded needle's bytes to its segment
    /// exactly once: a reopened store carries the same per-segment dead
    /// counts it closed with, so restarting never tips a segment over
    /// the compaction threshold on its own.
    #[test]
    fn reopen_counts_superseded_needles_dead_once() {
        let dir = tmpdir("dead-once");
        let cfg = PackedConfig { compact_min_bytes: 0, ..small_cfg() };
        let dead_by_seg = |store: &PackedBackend| -> Vec<(u32, u64)> {
            store.inner.segs.lock().iter().map(|(&n, info)| (n, info.dead)).collect()
        };
        let before = {
            let store = PackedBackend::open_with(&dir, cfg.clone()).unwrap();
            for i in 0..60 {
                store.put(&format!("blob-{i:03}"), &[i as u8; 300]).unwrap();
            }
            // Overwrite a third of the keys: every early segment ends up
            // about one-third dead, well under the 0.5 threshold.
            for i in (0..60).step_by(3) {
                store.put(&format!("blob-{i:03}"), &[0xEE; 300]).unwrap();
            }
            assert!(store.segment_count() > 3, "small segments must have rolled");
            dead_by_seg(&store)
        };
        assert!(before.iter().any(|&(_, dead)| dead > 0), "overwrites must leave dead bytes");
        let store = PackedBackend::open_with(&dir, cfg).unwrap();
        assert_eq!(dead_by_seg(&store), before, "reopen must not re-count dead bytes");
        let report = crate::compact_once(&store).unwrap();
        assert_eq!(report.segments_compacted, 0, "nothing crossed the threshold: {report:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_needle_truncates_to_acked_prefix() {
        let dir = tmpdir("torn");
        let (intact, torn_path);
        {
            let store = PackedBackend::open(&dir).unwrap();
            store.put("keep-0", b"aaaa").unwrap();
            store.put("keep-1", b"bbbb").unwrap();
            intact = store.disk_bytes();
            torn_path = seg_path(store.dir(), 0);
        }
        // Simulate a crash mid-append: half a frame dangling past the
        // last acked needle.
        let f = OpenOptions::new().append(true).open(&torn_path).unwrap();
        (&f).write_all(&needle::encode("torn", 99, 0, b"cccc")[..10]).unwrap();
        drop(f);
        let store = PackedBackend::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("keep-1").unwrap().unwrap().as_ref(), b"bbbb");
        assert!(store.get("torn").unwrap().is_none());
        assert_eq!(fs::metadata(&torn_path).unwrap().len(), intact, "torn tail truncated");
        // The store keeps accepting writes after self-healing.
        store.put("after", b"dddd").unwrap();
        assert_eq!(store.get("after").unwrap().unwrap().as_ref(), b"dddd");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_needle_reads_as_detected_failure() {
        let dir = tmpdir("corrupt");
        let store = PackedBackend::open(&dir).unwrap();
        store.put("x", b"payload bytes here").unwrap();
        assert_eq!(store.corrupt_live_needles().unwrap(), 1);
        match store.get("x") {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("want detected corruption, got {other:?}"),
        }
        assert_eq!(store.stats().corrupt_reads, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_needle_reads_as_corrupt_not_miss() {
        let dir = tmpdir("truncated");
        let store = PackedBackend::open(&dir).unwrap();
        store.put("t", &[5u8; 4096]).unwrap();
        let path = seg_path(store.dir(), 0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len / 2).unwrap();
        assert!(
            matches!(store.get("t"), Err(StorageError::Corrupt(_))),
            "a needle cut short under the store must surface as corrupt, not as a miss or as bytes"
        );
        assert_eq!(store.stats().corrupt_reads, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// 64 writers is the load the committed batching factor was measured
    /// under (8 192 puts in 211 fsync batches, 38.8 per batch); a third
    /// of it is the floor — an fsync per put reads 1.
    #[test]
    fn concurrent_puts_share_group_commits() {
        const WRITERS: usize = 64;
        const PER_WRITER: usize = 48;
        const MIN_PUTS_PER_COMMIT: f64 = 38.8 / 3.0;
        let dir = tmpdir("group");
        let store = PackedBackend::open(&dir).unwrap();
        let barrier = std::sync::Barrier::new(WRITERS);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let (store, barrier) = (&store, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_WRITER {
                        store.put(&format!("t{t}-{i}"), &[t as u8; 512]).unwrap();
                    }
                });
            }
        });
        let puts = WRITERS * PER_WRITER;
        assert_eq!(store.len(), puts);
        let commits = store.group_commits();
        assert!(commits >= 1, "flusher must have run");
        let per_commit = puts as f64 / commits as f64;
        assert!(
            per_commit >= MIN_PUTS_PER_COMMIT,
            "{puts} puts from {WRITERS} writers took {commits} fsync batches \
             ({per_commit:.1} per batch, floor {MIN_PUTS_PER_COMMIT:.1})"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_ids_and_tombstones_paginate() {
        let dir = tmpdir("list");
        let store = PackedBackend::open(&dir).unwrap();
        for id in ["a", "b", "c", "d"] {
            store.put(id, b"x").unwrap();
        }
        store.delete("b").unwrap();
        store.delete("d").unwrap();
        assert_eq!(store.list_ids(None, 10).unwrap(), vec!["a", "c"]);
        assert_eq!(store.list_ids(Some("a"), 1).unwrap(), vec!["c"]);
        assert_eq!(store.list_tombstones(None, 10).unwrap(), vec!["b", "d"]);
        assert_eq!(store.list_tombstones(Some("b"), 10).unwrap(), vec!["d"]);
        // A tombstone for a blob this node never held still registers.
        assert!(!store.delete("ghost").unwrap());
        assert!(store.deleted("ghost").unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }
}

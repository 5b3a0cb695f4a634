//! Crash-recovery and delete-durability e2es for the packed needle-log
//! store, plus the cluster-level tombstone contract and the
//! restart-through-the-proxy / tamper-fails-closed system cases.
//!
//! The recovery tests form a seed-swept matrix: CI runs this file N
//! times with distinct `P3_RECOVERY_SEED` values, and the seed chooses
//! the blob sizes and which kill offsets get swept inside the final
//! needle frame — so across the matrix the "crash" lands on every
//! region of the frame (magic, header, id, payload, CRC, trailer), not
//! just the offsets one hard-coded test happens to pick.

use p3_bench::stack::{Node, Stack, StackSpec, Storage};
use p3_net::{http_get, http_post, Method, Request};
use p3_storage::needle;
use p3_storage::{
    compact_once, ClusterBackend, ClusterConfig, MemBackend, PackedBackend, PackedConfig,
    StorageBackend, StorageCore, StorageService,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let seed = recovery_seed();
    let dir =
        std::env::temp_dir().join(format!("p3-e2e-packed-{tag}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Matrix knob: `P3_RECOVERY_SEED` varies blob sizes and kill offsets
/// per CI job; unset runs the seed-0 column.
fn recovery_seed() -> u64 {
    std::env::var("P3_RECOVERY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// SplitMix64 — deterministic per-seed stream for sizes and offsets.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn blob_for(seed: u64, i: usize, size: usize) -> Vec<u8> {
    let mut rng = Rng(seed ^ (i as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out.truncate(size);
    out
}

/// Recovery matrix: write `count` acked blobs, then "crash" by
/// truncating the final segment mid-way through the LAST needle frame,
/// at offsets swept across the whole frame. After every cut the store
/// must reopen with exactly the acked prefix — every earlier blob
/// byte-identical, the cut blob absent (its ack never happened in this
/// simulated history), and the log writable again.
#[test]
fn recovery_truncated_final_needle_yields_acked_prefix() {
    let seed = recovery_seed();
    let mut rng = Rng(seed);
    let count = 12usize;
    // Sizes vary per seed so frames straddle different page/buffer
    // boundaries across the matrix.
    let sizes: Vec<usize> = (0..count).map(|_| 64 + (rng.next() % 4096) as usize).collect();
    let last_id = format!("blob-{:03}", count - 1);
    let last_frame_len = needle::frame_len(last_id.len(), sizes[count - 1]);

    // Kill offsets inside the last frame: the frame's structural
    // landmarks plus seed-drawn samples. Offset 0 cuts the whole frame;
    // every offset < frame_len must drop the final blob.
    let mut offsets = vec![
        0, // clean cut at the previous frame's end
        1, // mid-magic
        4, // flags byte
        needle::HEADER_LEN - 1,
        needle::HEADER_LEN,                 // header complete, id missing
        needle::HEADER_LEN + last_id.len(), // id complete, payload missing
        last_frame_len - 9,                 // payload complete, CRC missing
        last_frame_len - 5,                 // CRC complete, trailer missing
        last_frame_len - 1,                 // one byte short of durable
    ];
    for _ in 0..4 {
        offsets.push(1 + (rng.next() as usize) % (last_frame_len - 1));
    }

    for (case, cut) in offsets.into_iter().enumerate() {
        let dir = tmpdir(&format!("torn-{case}"));
        let seg_path;
        {
            let store = PackedBackend::open_with(
                &dir,
                PackedConfig { segment_bytes: 16 << 10, ..PackedConfig::default() },
            )
            .expect("open");
            for (i, &size) in sizes.iter().enumerate() {
                store.put(&format!("blob-{i:03}"), &blob_for(seed, i, size)).expect("put");
            }
            // The final segment holds the last frame (16 KiB segments
            // roll often enough that earlier frames span several files).
            seg_path = std::fs::read_dir(&dir)
                .expect("list segments")
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
                .max()
                .expect("segments exist");
        }
        let full_len = std::fs::metadata(&seg_path).expect("stat").len();
        assert!(full_len >= last_frame_len as u64, "final segment must contain the final frame");
        let cut_len = full_len - last_frame_len as u64 + cut as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&seg_path).expect("open seg");
        f.set_len(cut_len).expect("truncate");
        drop(f);

        let store = PackedBackend::open(&dir).expect("recovery open");
        for (i, &size) in sizes.iter().enumerate().take(count - 1) {
            let got = store
                .get(&format!("blob-{i:03}"))
                .expect("recovered get")
                .unwrap_or_else(|| panic!("case {case} cut {cut}: blob-{i:03} lost"));
            assert_eq!(&got[..], &blob_for(seed, i, size)[..], "case {case}: bytes differ");
        }
        assert!(
            store.get(&last_id).expect("torn get").is_none(),
            "case {case} cut {cut}: torn needle surfaced"
        );
        // The segment file itself was truncated back to the intact
        // prefix, and the log keeps working.
        assert!(std::fs::metadata(&seg_path).expect("stat").len() <= cut_len);
        store.put("post-crash", b"writable again").expect("post-recovery put");
        assert_eq!(
            store.get("post-crash").expect("get").expect("present").as_ref(),
            b"writable again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill mid-group-commit: concurrent writers share flushes, then the
/// "machine dies" with the tail of the log cut at a seed-chosen byte —
/// possibly mid-batch. Recovery must surface exactly a prefix of the
/// appended needles: every surfaced blob byte-identical, no blob half
/// present, and the log writable after reopen.
#[test]
fn recovery_kill_mid_group_commit_keeps_only_whole_needles() {
    let seed = recovery_seed();
    let dir = tmpdir("groupkill");
    let writers = 8usize;
    let per_writer = 24usize;
    {
        let store = Arc::new(
            PackedBackend::open_with(
                &dir,
                PackedConfig { segment_bytes: 1 << 20, ..PackedConfig::default() },
            )
            .expect("open"),
        );
        std::thread::scope(|s| {
            for w in 0..writers {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..per_writer {
                        let blob = blob_for(seed, w * per_writer + i, 700);
                        store.put(&format!("w{w}-b{i:02}"), &blob).expect("put");
                    }
                });
            }
        });
        assert!(store.group_commits() < (writers * per_writer) as u64);
    }
    // Cut the single segment at a seed-chosen point in its upper half —
    // statistically mid-frame, possibly mid-batch.
    let seg_path = std::fs::read_dir(&dir)
        .expect("list")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
        .expect("segment");
    let full_len = std::fs::metadata(&seg_path).expect("stat").len();
    let cut_len = full_len / 2 + Rng(seed).next() % (full_len / 2);
    let f = std::fs::OpenOptions::new().write(true).open(&seg_path).expect("open seg");
    f.set_len(cut_len).expect("truncate");
    drop(f);

    let store = PackedBackend::open(&dir).expect("recovery open");
    let mut survivors = 0usize;
    for w in 0..writers {
        for i in 0..per_writer {
            if let Some(got) = store.get(&format!("w{w}-b{i:02}")).expect("get") {
                assert_eq!(
                    &got[..],
                    &blob_for(seed, w * per_writer + i, 700)[..],
                    "surfaced blob must be byte-identical, never torn"
                );
                survivors += 1;
            }
        }
    }
    assert!(survivors > 0, "a half-cut log must keep its intact prefix");
    assert!(survivors < writers * per_writer, "the cut must have cost something");
    store.put("after", b"still a log").expect("post-recovery put");
    assert!(store.get("after").expect("get").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delete → compact → restart through the HTTP service: space is
/// reclaimed while the service keeps answering, and a full process
/// restart over the same directory resurrects nothing.
#[test]
fn delete_compact_restart_over_http_never_resurrects() {
    let seed = recovery_seed();
    let dir = tmpdir("httpchurn");
    let cfg =
        PackedConfig { segment_bytes: 8 << 10, compact_min_bytes: 4096, ..PackedConfig::default() };
    let addr;
    let disk_before;
    {
        let backend = Arc::new(PackedBackend::open_with(&dir, cfg.clone()).expect("open"));
        let core =
            Arc::new(StorageCore::with_backend(Arc::clone(&backend) as Arc<dyn StorageBackend>));
        let mut svc = StorageService::spawn_with(Arc::clone(&core)).expect("service");
        addr = svc.addr();
        for round in 0..3 {
            for k in 0..12 {
                let body = blob_for(seed, round * 100 + k, 1024);
                let put = Request::new(Method::Put, &format!("/blobs/churn-{k}"), body);
                let resp = p3_net::client::send(addr, put).expect("put");
                assert!(resp.status.is_success());
            }
        }
        for k in 6..12 {
            let delete = Request::new(Method::Delete, &format!("/blobs/churn-{k}"), Vec::new());
            let resp = p3_net::client::send(addr, delete).expect("delete");
            assert!(resp.status.is_success());
            // Tombstoned IDs answer 404 with the tombstone marker — the
            // definitive "deleted", not a mere "don't have it".
            let resp = p3_net::http_get(addr, &format!("/blobs/churn-{k}")).expect("get");
            assert_eq!(resp.status.0, 404);
            assert_eq!(resp.headers.get("x-p3-tombstone"), Some("1"));
        }
        let before = backend.disk_bytes();
        let report = compact_once(&backend).expect("compact");
        assert!(report.segments_compacted > 0, "churn must create compactable segments");
        disk_before = backend.disk_bytes();
        assert!(disk_before < before, "compaction must reclaim space under a live service");
        // The service still answers over the compacted log.
        for k in 0..6 {
            let resp = p3_net::http_get(addr, &format!("/blobs/churn-{k}")).expect("get");
            assert!(resp.status.is_success());
            assert_eq!(&resp.body[..], &blob_for(seed, 200 + k, 1024)[..]);
        }
        svc.shutdown();
    }
    // Process restart: recovery over the compacted directory.
    let backend = Arc::new(PackedBackend::open_with(&dir, cfg).expect("reopen"));
    assert!(backend.disk_bytes() <= disk_before + 1, "restart must not regrow the log");
    for k in 0..6 {
        assert!(backend.get(&format!("churn-{k}")).expect("get").is_some());
    }
    for k in 6..12 {
        assert!(
            backend.get(&format!("churn-{k}")).expect("get").is_none(),
            "churn-{k} resurrected across compact + restart"
        );
        assert!(backend.deleted(&format!("churn-{k}")).expect("deleted"));
    }
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = addr;
}

/// The cluster tombstone contract: a replica that missed a delete must
/// not resurrect the blob through read-repair or the anti-entropy
/// sweep, and a tombstoned ID reads as a definitive miss even while a
/// stale live copy exists.
#[test]
fn cluster_read_repair_never_undoes_a_delete() {
    // Three mem-backed nodes, R=2 — mem nodes carry the same tombstone
    // surface (`deleted`, `/tombstones`) as the packed store.
    let backends: Vec<Arc<MemBackend>> = (0..3).map(|_| Arc::new(MemBackend::new())).collect();
    let mut services: Vec<StorageService> = backends
        .iter()
        .map(|b| {
            let core =
                Arc::new(StorageCore::with_backend(Arc::clone(b) as Arc<dyn StorageBackend>));
            StorageService::spawn_with(core).expect("node")
        })
        .collect();
    let cluster = ClusterBackend::new(ClusterConfig {
        nodes: services.iter().map(|s| s.addr()).collect(),
        replicas: 2,
        backoff_base: Duration::from_millis(50),
        ..ClusterConfig::default()
    })
    .expect("cluster");

    cluster.put("victim", b"delete me").expect("put");
    let replicas = cluster.replicas_for("victim");
    assert_eq!(replicas.len(), 2);
    cluster.delete("victim").expect("delete");
    assert!(cluster.get("victim").expect("get").is_none());

    // A stale live copy sneaks back onto the *second* replica (a node
    // that was partitioned during the delete and kept its copy, then
    // forgot the tombstone). The first-probed replica still answers
    // with the tombstone, which outranks the stale copy and
    // short-circuits the read before the lagger is ever asked.
    let lagger = services.iter().position(|s| s.addr() == replicas[1]).expect("replica");
    backends[lagger].delete("victim").expect("clear");
    backends[lagger].put("victim", b"delete me").expect("stale put");
    for _ in 0..3 {
        assert!(
            cluster.get("victim").expect("get").is_none(),
            "a tombstoned blob must stay deleted while any replica remembers the delete"
        );
    }
    // The Deleted answer healed forward: propagation cleared the copy.
    assert!(
        backends[lagger].get("victim").expect("direct get").is_none(),
        "tombstone propagation must clear the stale live copy"
    );
    assert!(backends[lagger].deleted("victim").expect("deleted"));

    // The other direction — stale copy on the *first-probed* replica —
    // is the documented read asymmetry: the stale bytes are served
    // once (Found breaks before the tombstoned replica votes), but the
    // blob never spreads. Read-repair does not fire (no Absent vote
    // was collected before the break), and the anti-entropy sweep
    // propagates the surviving tombstone over the copy.
    let first = services.iter().position(|s| s.addr() == replicas[0]).expect("replica");
    backends[first].delete("victim").expect("clear");
    backends[first].put("victim", b"delete me").expect("stale put");
    assert!(
        cluster.get("victim").expect("get").is_some(),
        "a stale copy on the first-probed replica serves once before anti-entropy heals it"
    );
    assert!(
        backends[lagger].get("victim").expect("direct get").is_none(),
        "a stale read must not re-seed other replicas"
    );
    cluster.sweep_once();
    for b in &backends {
        assert!(b.get("victim").expect("get").is_none(), "sweep resurrected a deleted blob");
    }
    assert!(cluster.get("victim").expect("get").is_none());
    assert!(backends[first].deleted("victim").expect("deleted"));
    for s in &mut services {
        s.shutdown();
    }
}

fn photo_jpeg(seed: u64) -> Vec<u8> {
    let img = p3_datasets::synth::scene(seed, 96, 72, &p3_datasets::synth::SceneParams::default());
    p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode")
}

/// A stack over one packed node in `dir`, with no secret cache, so
/// every download hits storage.
fn packed_stack(dir: &Path) -> Stack {
    let storage = Storage::One(Node::Packed(dir.to_path_buf(), PackedConfig::default()));
    Stack::spawn(StackSpec { secret_cache_capacity: 0, storage, ..StackSpec::default() })
        .expect("stack")
}

/// Blobs written through the full proxy path survive a storage-process
/// restart (new `PackedBackend` over the same data dir, service rebound
/// on the same address), and a needle truncated on disk reads as a
/// detected corrupt error — never garbage bytes, never a clean 404.
#[test]
fn blobs_and_envelope_macs_survive_storage_restart() {
    let dir = tmpdir("restart");
    let mut sys = packed_stack(&dir);
    let (storage_addr, proxy) = (sys.nodes[0].addr, &sys.proxy);

    // Upload three photos through the proxy; their sealed secret parts
    // land as needles under the data dir.
    let ids: Vec<String> = (0..3u64)
        .map(|seed| {
            let resp =
                http_post(proxy.addr(), "/photos", "image/jpeg", photo_jpeg(seed)).expect("upload");
            assert!(resp.status.is_success(), "upload failed: {:?}", resp.status);
            String::from_utf8_lossy(&resp.body).trim().to_string()
        })
        .collect();
    assert_eq!(sys.nodes[0].core.len(), 3);

    // "Crash": the storage process goes away entirely — service down —
    // and restarts over the same directory on the same address with a
    // fresh backend. The index comes back purely from the segment scan.
    sys.nodes[0].restart().expect("restart");
    let restarted = &sys.nodes[0];
    assert_eq!(restarted.core.len(), 3, "segment scan must recover every blob");
    assert_eq!(restarted.core.backend().stats().puts, 0);

    // Every photo still downloads through the proxy — i.e. every
    // recovered blob still opens under its envelope MAC and
    // reconstructs (a flipped bit anywhere would 502, not 200).
    for id in &ids {
        let resp = http_get(proxy.addr(), &format!("/photos/{id}?size=small")).expect("download");
        assert!(resp.status.is_success(), "post-restart download of {id}: {:?}", resp.status);
        assert!(p3_jpeg::decode_to_rgb(&resp.body).is_ok());
    }
    assert_eq!(proxy.stats().downloads_reconstructed.load(std::sync::atomic::Ordering::Relaxed), 3);

    // Cut the segment file short mid-way through its last needle, under
    // the running store: that photo's secret part must now read as a
    // *detected* corrupt error (503 + `x-p3-error: corrupt`), never
    // garbage bytes and never a clean 404 — a corrupt copy proves the
    // blob exists, and a 404 here is what would let the cluster tier
    // fabricate a false definitive miss. Other photos unaffected.
    let seg_file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
        .expect("a segment file");
    let full_len = std::fs::metadata(&seg_file).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg_file).unwrap();
    f.set_len(full_len - 100).unwrap();
    drop(f);
    let mut corrupt = 0;
    for id in &ids {
        let direct = http_get(storage_addr, &format!("/blobs/{id}")).expect("direct get");
        if direct.status.0 == 503 {
            assert_eq!(
                direct.headers.get("x-p3-error"),
                Some("corrupt"),
                "truncated needle's 503 must carry the corrupt marker"
            );
            corrupt += 1;
            // Through the proxy the photo fails closed: an explicit
            // error, never the degraded public part as a 200.
            let via = http_get(proxy.addr(), &format!("/photos/{id}?size=small")).expect("get");
            assert!(!via.status.is_success(), "corrupt secret served: {:?}", via.status);
        } else {
            // In particular never a 404: a corrupt copy must not read
            // as a definitive miss.
            assert!(direct.status.is_success());
        }
    }
    assert_eq!(corrupt, 1, "exactly the truncated needle must surface as detected corruption");
    assert_eq!(restarted.core.backend().stats().corrupt_reads, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tampering wraps the backend; a packed-store provider that flips
/// bytes must still be caught by the envelope MAC.
#[test]
fn packed_service_tamper_mode_still_fails_closed() {
    let dir = tmpdir("tamper");
    let sys = packed_stack(&dir);
    let (proxy, provider) = (&sys.proxy, &sys.nodes[0].fault);
    let resp = http_post(proxy.addr(), "/photos", "image/jpeg", photo_jpeg(9)).expect("upload");
    assert!(resp.status.is_success());
    let id = String::from_utf8_lossy(&resp.body).trim().to_string();
    provider.tamper(true);
    let resp = http_get(proxy.addr(), &format!("/photos/{id}?size=small")).expect("download");
    assert!(!resp.status.is_success(), "tampered packed blob accepted: {:?}", resp.status);
    let _ = std::fs::remove_dir_all(&dir);
}

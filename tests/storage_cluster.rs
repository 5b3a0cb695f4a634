//! Full-system tests for the sharded cluster storage tier: the trusted
//! proxy serves reconstructed downloads while a storage node is killed
//! mid-flight, and read-repair restores the dead node's replica when it
//! returns — the ISSUE 4 acceptance scenario.
//!
//! Topology under test (the proxy needs no cluster awareness — it keeps
//! speaking `/blobs/{id}` to one address):
//!
//! ```text
//! client ── proxy ── PSP
//!              └──── router StorageService (ClusterBackend, R=2)
//!                       ├── node 0 (mem)
//!                       ├── node 1 (mem)
//!                       └── node 2 (mem)
//! ```

use p3_core::pipeline::{P3Codec, P3Config};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig};
use p3_net::stats::parse_metric_json;
use p3_net::{http_get, http_post};
use p3_psp::{PspProfile, PspService};
use p3_storage::{
    ClusterBackend, ClusterConfig, PackedBackend, StorageBackend, StorageCore, StorageService,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

struct ClusterSystem {
    psp: PspService,
    nodes: Vec<StorageService>,
    router_backend: Arc<ClusterBackend>,
    router: StorageService,
    proxy: P3Proxy,
}

fn spawn_cluster_system(replicas: usize) -> ClusterSystem {
    let psp = PspService::spawn(PspProfile::facebook()).expect("psp");
    let nodes: Vec<StorageService> =
        (0..3).map(|_| StorageService::spawn().expect("node")).collect();
    let router_backend = Arc::new(
        ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|n| n.addr()).collect(),
            replicas,
            // Deterministic failure handling: short fixed re-probe
            // window, no in-place retries.
            backoff_base: Duration::from_millis(50),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .expect("cluster"),
    );
    let router_core = Arc::new(StorageCore::with_backend(
        Arc::clone(&router_backend) as Arc<dyn p3_storage::StorageBackend>
    ));
    let router = StorageService::spawn_with(router_core).expect("router");
    let proxy = P3Proxy::spawn(ProxyConfig {
        psp_addr: psp.addr(),
        storage_addr: router.addr(),
        master_key: b"cluster test master key".to_vec(),
        codec: P3Codec::new(P3Config { threshold: 15, ..Default::default() }),
        estimator: default_estimator(),
        reencode_quality: 90,
        // Cache disabled: every download must exercise the storage
        // path, or the failover/repair assertions would test the cache.
        secret_cache_capacity: 0,
        cache_shards: 1,
        server: p3_net::ServerConfig::default(),
    })
    .expect("proxy");
    ClusterSystem { psp, nodes, router_backend, router, proxy }
}

fn photo_jpeg(seed: u64) -> Vec<u8> {
    let img = p3_datasets::synth::scene(seed, 96, 72, &p3_datasets::synth::SceneParams::default());
    p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode")
}

fn upload(sys: &ClusterSystem, seed: u64) -> String {
    let resp =
        http_post(sys.proxy.addr(), "/photos", "image/jpeg", photo_jpeg(seed)).expect("upload");
    assert!(resp.status.is_success(), "upload failed: {:?}", resp.status);
    String::from_utf8_lossy(&resp.body).trim().to_string()
}

fn download_ok(sys: &ClusterSystem, id: &str) {
    let resp = http_get(sys.proxy.addr(), &format!("/photos/{id}?size=small")).expect("download");
    assert!(resp.status.is_success(), "download of {id} failed: {:?}", resp.status);
    assert!(p3_jpeg::decode_to_rgb(&resp.body).is_ok(), "download of {id} is not a decodable JPEG");
}

/// Respawn a storage service on a specific (just-freed) address.
fn respawn_on(addr: SocketAddr, core: Arc<StorageCore>) -> StorageService {
    StorageService::respawn_on(addr, core)
        .unwrap_or_else(|e| panic!("could not rebind {addr}: {e}"))
}

#[test]
fn download_survives_node_kill_and_repair_restores_replica() {
    let mut sys = spawn_cluster_system(2);
    let id = upload(&sys, 41);

    // R=2: the secret part landed on exactly two of the three nodes.
    let copies: usize = sys.nodes.iter().map(|n| n.core().len()).sum();
    assert_eq!(copies, 2, "replication factor 2 must place two copies");
    download_ok(&sys, &id);

    // Kill the *primary* replica — the node a healthy read hits first —
    // so the surviving download provably exercised failover.
    let primary = sys.router_backend.replicas_for(&id)[0];
    let idx = sys.nodes.iter().position(|n| n.addr() == primary).expect("primary node");
    sys.nodes[idx].shutdown();

    // The acceptance bar: a reconstructed download with a storage node
    // dead mid-benchmark. (Secret cache is off — this hits storage.)
    for _ in 0..3 {
        download_ok(&sys, &id);
    }

    // The node returns, having lost its data (fresh empty core) —
    // after the ejection cooldown, the next read must repair it.
    let reborn_core = Arc::new(StorageCore::new());
    let _reborn = respawn_on(primary, Arc::clone(&reborn_core));
    std::thread::sleep(Duration::from_millis(80));
    download_ok(&sys, &id);
    assert_eq!(reborn_core.len(), 1, "read-repair must restore the returned node's replica");
    let stats = sys.router_backend.stats();
    assert!(stats.read_repairs >= 1, "no read-repair recorded: {stats:?}");
    assert!(stats.node_failures >= 1, "failover must have recorded node failures");

    // And the repaired replica is byte-identical to the survivor's.
    let survivor = sys
        .nodes
        .iter()
        .find(|n| n.addr() != primary && !n.core().is_empty())
        .expect("surviving replica");
    assert_eq!(
        survivor.core().get(&id).unwrap().as_deref(),
        reborn_core.get(&id).unwrap().as_deref(),
        "repaired replica must match the survivor"
    );
}

#[test]
fn degraded_uploads_succeed_or_roll_back_never_half_publish() {
    // With R=2 over 3 nodes the write quorum is 2/2: an upload whose
    // replica set includes the dead node is *rejected* (and rolled back
    // off the PSP), one whose set avoids it succeeds. PSP IDs count up
    // from 1 and ring placement is pure hashing, so the expectation is
    // computable per ID — but the ring is keyed by OS-assigned node
    // ports, so *which* IDs hit the dead node varies per run: keep
    // uploading until both outcomes have been observed (each ID hits
    // the dead set with probability ~2/3, so the cap is far past any
    // realistic tail).
    let mut sys = spawn_cluster_system(2);
    let reps_of_first = sys.router_backend.replicas_for("1");
    let dead_idx = sys
        .nodes
        .iter()
        .position(|n| !reps_of_first.contains(&n.addr()))
        .expect("some node is outside id 1's replica set");
    let dead_addr = sys.nodes[dead_idx].addr();
    sys.nodes[dead_idx].shutdown();

    let mut succeeded: Vec<String> = Vec::new();
    let mut rejected = 0usize;
    for seed in 0..24u64 {
        let next_id = (seed + 1).to_string();
        let expect_ok = !sys.router_backend.replicas_for(&next_id).contains(&dead_addr);
        let resp =
            http_post(sys.proxy.addr(), "/photos", "image/jpeg", photo_jpeg(seed)).expect("upload");
        assert_eq!(
            resp.status.is_success(),
            expect_ok,
            "id {next_id}: replica set {:?}, dead {dead_addr}",
            sys.router_backend.replicas_for(&next_id)
        );
        if expect_ok {
            succeeded.push(String::from_utf8_lossy(&resp.body).trim().to_string());
        } else {
            rejected += 1;
        }
        if seed >= 5 && !succeeded.is_empty() && rejected > 0 {
            break;
        }
    }
    assert!(!succeeded.is_empty(), "id 1 avoids the dead node by construction");
    assert!(rejected > 0, "24 IDs each ~2/3 likely to hit the dead set: one must have");
    // Every accepted upload is downloadable; every rejected one was
    // rolled back — no orphaned public (privacy-degraded) photos.
    for id in &succeeded {
        download_ok(&sys, id);
    }
    assert_eq!(
        sys.psp.core().photo_count(),
        succeeded.len(),
        "rejected uploads must be rolled back from the PSP"
    );
    assert!(sys.proxy.stats().upload_rollbacks.load(std::sync::atomic::Ordering::Relaxed) >= 1);
}

/// The ISSUE 5 acceptance scenario: a 3-node R=2 cluster under live
/// proxy traffic grows to 4 nodes via `POST /admin/membership` (the
/// route `p3 storage-admin` drives) — the rebalancer streams only the
/// re-owned blobs while downloads keep reconstructing — then a node
/// dies and returns empty, and the anti-entropy sweep restores
/// byte-identical replicas without a single client read.
#[test]
fn membership_add_rebalances_live_and_sweep_heals_without_reads() {
    let mut sys = spawn_cluster_system(2);
    let ids: Vec<String> = (0..8).map(|seed| upload(&sys, 100 + seed)).collect();
    let old_sets: std::collections::HashMap<String, Vec<SocketAddr>> =
        ids.iter().map(|id| (id.clone(), sys.router_backend.replicas_for(id))).collect();
    let repairs_before = sys.router_backend.stats().read_repairs;

    // Live traffic: a client keeps downloading throughout the
    // membership change (the proxy cache is off, so every download
    // exercises the storage path mid-rebalance).
    let fourth = StorageService::spawn().expect("fourth node");
    let fourth_addr = fourth.addr();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let epoch_resp = std::thread::scope(|s| {
        let proxy_addr = sys.proxy.addr();
        let traffic_ids = ids.clone();
        let stop_ref = &stop;
        let traffic = s.spawn(move || {
            let mut served = 0usize;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                for id in &traffic_ids {
                    let resp = http_get(proxy_addr, &format!("/photos/{id}?size=small"))
                        .expect("download during rebalance");
                    assert!(
                        resp.status.is_success(),
                        "download of {id} failed mid-rebalance: {:?}",
                        resp.status
                    );
                    served += 1;
                }
            }
            served
        });
        // Grow the cluster through the admin route, exactly as the CLI
        // would. The response returns only after the rebalance pass.
        let resp = p3_net::client::http_post(
            sys.router.addr(),
            "/admin/membership",
            "text/plain",
            format!("add {fourth_addr}\n").into_bytes(),
        )
        .expect("admin POST");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let served = traffic.join().expect("traffic thread");
        assert!(served >= ids.len(), "traffic thread must have exercised downloads");
        resp
    });
    assert!(epoch_resp.status.is_success(), "membership change failed: {epoch_resp:?}");
    assert_eq!(epoch_resp.headers.get("x-p3-membership-epoch"), Some("2"));

    // Only re-owned blobs moved: every copy the rebalancer streamed is
    // one a new-epoch replica set demanded but an old one didn't.
    // Concurrent downloads may have read-repaired some of those copies
    // first (the rebalancer then finds them already present), so the
    // split between the two counters is timing-dependent — their sum
    // must cover exactly the expected moves, and never exceed them.
    let expected_moves: u64 = ids
        .iter()
        .map(|id| {
            sys.router_backend.replicas_for(id).iter().filter(|a| !old_sets[id].contains(a)).count()
                as u64
        })
        .sum();
    assert!(expected_moves > 0, "a 4th node must take over some replica arcs");
    let stats = sys.router_backend.stats();
    let repaired_during = stats.read_repairs - repairs_before;
    assert_eq!(stats.membership_epoch, 2);
    assert!(
        stats.rebalanced_blobs <= expected_moves,
        "rebalancer streamed {} copies but only {expected_moves} changed owners",
        stats.rebalanced_blobs
    );
    assert!(
        stats.rebalanced_blobs + repaired_during >= expected_moves,
        "convergence gap: {} rebalanced + {repaired_during} read-repaired < {expected_moves}",
        stats.rebalanced_blobs
    );
    // The new node converged to exactly the blobs it now owns…
    let owned_by_fourth: Vec<&String> = ids
        .iter()
        .filter(|id| sys.router_backend.replicas_for(id).contains(&fourth_addr))
        .collect();
    assert_eq!(fourth.core().len(), owned_by_fourth.len());
    // …and every download still reconstructs.
    for id in &ids {
        download_ok(&sys, id);
    }

    // Phase 2: a node dies and returns empty. No client issues a read
    // (cold blobs) — only the anti-entropy sweep may heal it. Pick the
    // victim by *current ownership* (a node can be non-empty purely
    // from pre-rebalance leftovers it no longer owns, and the original
    // nodes each own ≥1 of 8 ids with overwhelming probability, but
    // not certainty — placement depends on OS-assigned ports).
    let victim_idx = sys
        .nodes
        .iter()
        .position(|n| ids.iter().any(|id| sys.router_backend.replicas_for(id).contains(&n.addr())))
        .expect("some original node owns current replicas");
    let victim_addr = sys.nodes[victim_idx].addr();
    let lost: Vec<&String> = ids
        .iter()
        .filter(|id| sys.router_backend.replicas_for(id).contains(&victim_addr))
        .collect();
    assert!(!lost.is_empty(), "victim must own replicas");
    sys.nodes[victim_idx].shutdown();
    let reborn_core = Arc::new(StorageCore::new());
    let _reborn = respawn_on(victim_addr, Arc::clone(&reborn_core));

    let router_gets_before = sys.router.core().get_count();
    let cluster_gets_before = sys.router_backend.stats().gets;
    let swept = sys.router_backend.sweep_once();
    assert_eq!(swept as usize, lost.len(), "sweep must restore every lost replica");
    assert_eq!(sys.router_backend.stats().sweep_repairs, swept);
    assert_eq!(
        sys.router.core().get_count(),
        router_gets_before,
        "sweep must issue zero reads through the router"
    );
    assert_eq!(
        sys.router_backend.stats().gets,
        cluster_gets_before,
        "sweep must issue zero client reads on the cluster backend"
    );
    // Restored replicas are byte-identical to a surviving copy.
    let survivor_copy = |id: &str| -> Arc<[u8]> {
        for (addr, core) in sys
            .nodes
            .iter()
            .map(|n| (n.addr(), n.core()))
            .chain(std::iter::once((fourth.addr(), fourth.core())))
        {
            if addr == victim_addr {
                continue;
            }
            if let Some(blob) = core.get(id).unwrap() {
                return blob;
            }
        }
        panic!("no surviving copy of {id}");
    };
    for id in &lost {
        assert_eq!(
            reborn_core.get(id).unwrap().as_deref(),
            Some(survivor_copy(id).as_ref()),
            "sweep-restored {id} must match the survivor byte for byte"
        );
    }
    // And the healed cluster still serves the client path end to end.
    for id in &ids {
        download_ok(&sys, id);
    }
}

#[test]
fn proxy_and_storage_stats_endpoints_parse() {
    let sys = spawn_cluster_system(2);
    let id = upload(&sys, 7);
    download_ok(&sys, &id);
    download_ok(&sys, &id);

    // Proxy /stats: answered locally, never forwarded to the PSP.
    let resp = http_get(sys.proxy.addr(), "/stats").expect("proxy stats");
    assert!(resp.status.is_success());
    assert_eq!(resp.headers.get("content-type"), Some("application/json"));
    let body = String::from_utf8(resp.body).expect("utf8");
    let sections = parse_metric_json(&body).expect("proxy stats must parse");
    let metric = |section: &str, field: &str| -> f64 {
        sections
            .iter()
            .find(|(name, _)| name == section)
            .and_then(|(_, m)| m.iter().find(|(f, _)| f == field))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {section}.{field} in {body}"))
    };
    assert_eq!(metric("proxy", "uploads_split"), 1.0);
    assert_eq!(metric("proxy", "downloads_reconstructed"), 2.0);
    assert_eq!(metric("proxy", "upload_rollbacks"), 0.0);
    // Cache is disabled in this system, so every download is a miss.
    assert_eq!(metric("cache", "hits"), 0.0);
    assert_eq!(metric("cache", "misses"), 2.0);
    assert_eq!(metric("cache", "evictions"), 0.0);
    assert!(metric("pool", "connects") >= 1.0);

    // Router /stats: front-end counters plus the cluster backend's.
    let resp = http_get(sys.router.addr(), "/stats").expect("storage stats");
    assert!(resp.status.is_success());
    assert_eq!(resp.headers.get("x-p3-backend"), Some("cluster"));
    let body = String::from_utf8(resp.body).expect("utf8");
    let sections = parse_metric_json(&body).expect("storage stats must parse");
    let metric = |section: &str, field: &str| -> f64 {
        sections
            .iter()
            .find(|(name, _)| name == section)
            .and_then(|(_, m)| m.iter().find(|(f, _)| f == field))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {section}.{field} in {body}"))
    };
    assert_eq!(metric("backend", "puts"), 1.0);
    assert!(metric("backend", "gets") >= 2.0);
    assert_eq!(metric("storage", "blobs"), 1.0);
    // The elasticity counters surface through the same endpoint: the
    // boot topology is epoch 1 and nothing has moved or been swept.
    assert_eq!(metric("backend", "membership_epoch"), 1.0);
    assert_eq!(metric("backend", "rebalanced_blobs"), 0.0);
    assert_eq!(metric("backend", "sweep_repairs"), 0.0);
    assert_eq!(metric("backend", "sweep_runs"), 0.0);
    // The integrity/retry counters surface through the same endpoint —
    // and a healthy, unfaulted run must leave every one at exactly zero
    // (a nonzero here would mean the happy path burned a retry or
    // rejected a verified copy).
    assert_eq!(metric("backend", "integrity_rejects"), 0.0);
    assert_eq!(metric("backend", "retries"), 0.0);
    assert_eq!(metric("backend", "backoffs"), 0.0);
    assert_eq!(metric("backend", "node_failures"), 0.0);

    // A node's own /stats reports its mem backend.
    let resp = http_get(sys.nodes[0].addr(), "/stats").expect("node stats");
    assert_eq!(resp.headers.get("x-p3-backend"), Some("mem"));
    parse_metric_json(&String::from_utf8(resp.body).unwrap()).expect("node stats must parse");
}

/// ISSUE 6 chaos class (d) at the backend level: a blob whose on-disk
/// bytes were flipped must surface as a *detected* corrupt error —
/// through the StorageCore of the damaged node and through the
/// ClusterBackend — and never as wrong bytes. While a healthy replica
/// survives, the cluster serves the original bytes and read-repair
/// heals the damage; once every replica is corrupt, the result is a
/// detected `Corrupt` error — a corrupt copy proves the blob *exists*,
/// so it must never be counted toward a definitive miss (the false-404
/// path this PR closes).
#[test]
fn corrupt_on_disk_blob_is_detected_never_served() {
    let base = std::env::temp_dir().join(format!("p3-corrupt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Three disk-backed nodes behind a cluster router, R=2.
    let mut disks = Vec::new();
    let mut services = Vec::new();
    for i in 0..3 {
        let disk = Arc::new(PackedBackend::open(&base.join(format!("node{i}"))).expect("open"));
        let core =
            Arc::new(StorageCore::with_backend(Arc::clone(&disk) as Arc<dyn StorageBackend>));
        services.push(StorageService::spawn_with(Arc::clone(&core)).expect("node"));
        disks.push((disk, core));
    }
    let cluster = ClusterBackend::new(ClusterConfig {
        nodes: services.iter().map(|s| s.addr()).collect(),
        replicas: 2,
        backoff_base: Duration::from_millis(50),
        backoff_jitter: 0.0,
        op_retries: 0,
        ..ClusterConfig::default()
    })
    .expect("cluster");

    let golden = b"the only acceptable answer".to_vec();
    cluster.put("photo-x", &golden).expect("put");
    let replicas = cluster.replicas_for("photo-x");
    let node_idx = |addr: &SocketAddr| -> usize {
        services.iter().position(|s| s.addr() == *addr).expect("replica addr maps to a node")
    };
    // Corrupt the *first* replica in walk order, so the read path must
    // step over the damaged copy before it finds the healthy one.
    let first = node_idx(&replicas[0]);
    assert!(disks[first].0.corrupt_live_needles().expect("corrupt") >= 1);

    // StorageCore of the damaged node: a detected corrupt error, never
    // bytes and never a clean miss.
    let (disk, core) = &disks[first];
    assert!(
        matches!(core.get("photo-x"), Err(p3_storage::StorageError::Corrupt(_))),
        "damaged node must answer a detected corrupt error"
    );
    assert!(disk.stats().corrupt_reads >= 1, "CRC check must have counted the detection");

    // ClusterBackend: correct bytes from the healthy replica, and
    // read-repair rewrites the corrupt copy.
    let served = cluster.get("photo-x").expect("cluster get").expect("found");
    assert_eq!(&served[..], &golden[..], "cluster served bytes that differ from the original");
    // Corruption surfaces to the router as a corrupt-marked 503, which
    // the router counts as an integrity reject; the CRC detection
    // itself lives on the damaged node's disk backend.
    assert!(disk.stats().corrupt_reads >= 2, "cluster walk must have re-detected the damage");
    assert!(cluster.stats().integrity_rejects >= 1, "router must count the integrity reject");
    assert!(cluster.stats().read_repairs >= 1, "read-repair must heal the corrupt replica");
    assert_eq!(core.get("photo-x").expect("healed get").as_deref(), Some(golden.as_slice()));

    // Corrupt *every* replica: the blob provably exists (the corrupt
    // copies say so) but no intact copy is reachable — the only honest
    // answer is a detected corrupt error, never Ok(None) (the silent
    // false 404) and never invented bytes.
    for addr in &replicas {
        let i = node_idx(addr);
        assert!(disks[i].0.corrupt_live_needles().expect("corrupt") >= 1);
    }
    assert!(
        matches!(cluster.get("photo-x"), Err(p3_storage::StorageError::Corrupt(_))),
        "all-corrupt replica set must be a detected corrupt error, not a definitive miss"
    );

    for mut s in services {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// ISSUE 6 chaos class (a) at the backend level: when every replica of
/// a blob is on killed nodes, the read must fail *explicitly* —
/// `Err` from the ClusterBackend, 503 + `retry-after` through the
/// router's HTTP surface — never a fabricated miss or wrong bytes.
#[test]
fn killed_replica_set_yields_503_never_wrong_bytes() {
    // Five mem nodes, R=2: killing one blob's two replica holders
    // leaves three survivors that can still own other blobs outright.
    let mut nodes: Vec<StorageService> =
        (0..5).map(|_| StorageService::spawn().expect("node")).collect();
    let cluster = Arc::new(
        ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|n| n.addr()).collect(),
            replicas: 2,
            backoff_base: Duration::from_millis(50),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .expect("cluster"),
    );
    let router_core =
        Arc::new(StorageCore::with_backend(Arc::clone(&cluster) as Arc<dyn StorageBackend>));
    let router = StorageService::spawn_with(router_core).expect("router");

    let golden = b"bytes that must never be faked".to_vec();
    cluster.put("photo-k", &golden).expect("put");
    let replicas = cluster.replicas_for("photo-k");
    for addr in &replicas {
        let i = nodes.iter().position(|n| n.addr() == *addr).expect("replica node");
        nodes[i].shutdown();
    }

    // ClusterBackend: an error (unavailable), not Ok(None) — a dead
    // replica set is indistinguishable from data loss, so the tier
    // must refuse to answer rather than report "absent".
    assert!(cluster.get("photo-k").is_err(), "dead replica set must be an error");

    // Through the router's HTTP surface: 503 with a retry hint.
    let resp = http_get(router.addr(), "/blobs/photo-k").expect("router get");
    assert_eq!(resp.status.0, 503, "expected 503, got {:?}", resp.status);
    assert!(resp.headers.get("retry-after").is_some());

    // A blob whose replicas all survived still reads back exactly.
    let live_id = (0..256)
        .map(|i| format!("alive-{i}"))
        .find(|id| cluster.replicas_for(id).iter().all(|a| !replicas.contains(a)))
        .expect("some id maps entirely to surviving nodes");
    cluster.put(&live_id, &golden).expect("put to live nodes");
    let served = cluster.get(&live_id).expect("live get").expect("found");
    assert_eq!(&served[..], &golden[..]);
}

/// ISSUE 7 acceptance (a): an asymmetric partition — the router can no
/// longer reach a node (connects black-hole into a bounded deadline, no
/// RST) while the node itself stays healthy and reachable by everyone
/// else — must degrade to failover or an explicit 503, never wrong
/// bytes and never a false 404, and heal completely once the link
/// returns.
#[test]
fn asymmetric_partition_degrades_to_503_and_heals_zero_wrong_data() {
    use p3_net::{FaultPlan, FaultRule, FaultTransport};
    let nodes: Vec<StorageService> =
        (0..3).map(|_| StorageService::spawn().expect("node")).collect();
    let plan = FaultPlan::new();
    let cluster = Arc::new(
        ClusterBackend::with_transport(
            ClusterConfig {
                nodes: nodes.iter().map(|n| n.addr()).collect(),
                replicas: 2,
                backoff_base: Duration::from_millis(50),
                backoff_max: Duration::from_millis(100),
                backoff_jitter: 0.0,
                op_retries: 0,
                // Short deadlines: each black-holed op costs exactly
                // one of these, keeping the test fast and bounded.
                connect_timeout: Duration::from_millis(100),
                read_timeout: Duration::from_millis(300),
                ..ClusterConfig::default()
            },
            Arc::new(FaultTransport::new("router", Arc::clone(&plan))),
        )
        .expect("cluster"),
    );
    let router_core =
        Arc::new(StorageCore::with_backend(Arc::clone(&cluster) as Arc<dyn StorageBackend>));
    let router = StorageService::spawn_with(router_core).expect("router");

    let golden = b"partition must never corrupt me".to_vec();
    cluster.put("photo-p", &golden).expect("put");
    let replicas = cluster.replicas_for("photo-p");

    // Partition the primary replica: the router's next read burns a
    // bounded deadline there, fails over, and still serves the bytes.
    plan.set("router", replicas[0], FaultRule::black_holed());
    let served = cluster.get("photo-p").expect("failover get").expect("found");
    assert_eq!(&served[..], &golden[..], "failover read must serve the original bytes");
    assert!(plan.black_holed() >= 1, "the black hole must have swallowed at least one op");

    // The *node* is fine — only the router→node link is down. A direct
    // client still reads it; that asymmetry is what distinguishes a
    // partition from a crash.
    let idx = nodes.iter().position(|n| n.addr() == replicas[0]).expect("replica node");
    let direct = http_get(nodes[idx].addr(), "/blobs/photo-p").expect("direct get");
    assert!(direct.status.is_success(), "partitioned node must stay reachable for others");
    assert_eq!(&direct.body[..], &golden[..]);

    // Partition the whole replica set: the router must answer an
    // explicit error — a partition is indistinguishable from data loss,
    // so never Ok(None) and never bytes.
    for addr in &replicas {
        plan.set("router", *addr, FaultRule::black_holed());
    }
    assert!(cluster.get("photo-p").is_err(), "fully partitioned replica set must be an error");
    let resp = http_get(router.addr(), "/blobs/photo-p").expect("router get");
    assert_eq!(resp.status.0, 503, "expected 503, got {:?}", resp.status);
    assert!(resp.headers.get("retry-after").is_some());

    // Heal. After the (deterministic, jitter-free) backoff window the
    // router re-probes and serves byte-identical data again.
    plan.clear_all();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match cluster.get("photo-p") {
            Ok(Some(body)) => {
                assert_eq!(&body[..], &golden[..], "healed read must be byte-identical");
                break;
            }
            Ok(None) => panic!("healed cluster answered a false definitive miss"),
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("cluster never healed after the partition cleared: {e}"),
        }
    }
}

/// ISSUE 7 acceptance (b): corrupt-while-degraded — one replica holder
/// is dead while the other holder's on-disk copy is corrupted, so the
/// blob briefly has *no* intact copy. Before end-to-end CRCs this was
/// the silent false-404 path: the corrupt copy read as an authoritative
/// miss and the proxy would serve a privacy-degraded public part as a
/// 200. Now it must be a *detected* corrupt 503 — and heal to
/// byte-identical data once the dead holder returns.
#[test]
fn corrupt_while_degraded_is_detected_503_never_false_404() {
    let base =
        std::env::temp_dir().join(format!("p3-corrupt-degraded-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut disks = Vec::new();
    let mut cores = Vec::new();
    let mut services: Vec<Option<StorageService>> = Vec::new();
    for i in 0..3 {
        let disk = Arc::new(PackedBackend::open(&base.join(format!("node{i}"))).expect("open"));
        let core =
            Arc::new(StorageCore::with_backend(Arc::clone(&disk) as Arc<dyn StorageBackend>));
        services.push(Some(StorageService::spawn_with(Arc::clone(&core)).expect("node")));
        disks.push(disk);
        cores.push(core);
    }
    let addrs: Vec<SocketAddr> = services.iter().map(|s| s.as_ref().unwrap().addr()).collect();
    let cluster = Arc::new(
        ClusterBackend::new(ClusterConfig {
            nodes: addrs.clone(),
            replicas: 2,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(100),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .expect("cluster"),
    );
    let router_core =
        Arc::new(StorageCore::with_backend(Arc::clone(&cluster) as Arc<dyn StorageBackend>));
    let router = StorageService::spawn_with(router_core).expect("router");

    let golden = b"no intact copy must not become a 404".to_vec();
    cluster.put("photo-d", &golden).expect("put");
    let replicas = cluster.replicas_for("photo-d");
    let node_idx = |addr: &SocketAddr| addrs.iter().position(|a| a == addr).expect("node");

    // Kill one holder; corrupt the other's disk. No intact copy left.
    let dead = node_idx(&replicas[1]);
    drop(services[dead].take());
    let corrupted = node_idx(&replicas[0]);
    assert!(disks[corrupted].corrupt_live_needles().expect("corrupt") >= 1);

    let rejects_before = cluster.stats().integrity_rejects;
    match cluster.get("photo-d") {
        Ok(None) => panic!("corrupt-while-degraded answered a definitive miss (false 404)"),
        Ok(Some(_)) => panic!("served bytes while no intact replica existed"),
        Err(_) => {}
    }
    assert!(
        cluster.stats().integrity_rejects > rejects_before,
        "the corrupt answer must be counted as an integrity reject"
    );

    // Through the router's HTTP surface: a corrupt-marked 503 — the
    // client sees "try again", never "gone".
    let resp = http_get(router.addr(), "/blobs/photo-d").expect("router get");
    assert_eq!(resp.status.0, 503, "expected 503, got {:?}", resp.status);
    assert_eq!(resp.headers.get("x-p3-error"), Some("corrupt"));

    // The dead holder returns with its durable dir intact; once its
    // backoff window expires the read serves the original bytes and
    // read-repair heals the corrupted replica.
    let disk = Arc::new(PackedBackend::open(&base.join(format!("node{dead}"))).expect("reopen"));
    let core = Arc::new(StorageCore::with_backend(Arc::clone(&disk) as Arc<dyn StorageBackend>));
    services[dead] =
        Some(StorageService::respawn_on(addrs[dead], Arc::clone(&core)).expect("respawn"));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match cluster.get("photo-d") {
            Ok(Some(body)) => {
                assert_eq!(&body[..], &golden[..], "healed read must be byte-identical");
                break;
            }
            Ok(None) => panic!("healed cluster answered a false definitive miss"),
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("never healed after the dead holder returned: {e}"),
        }
    }
    // Read-repair healed the corrupt holder too — its local copy is
    // byte-identical again.
    let healed = cores[corrupted].get("photo-d").expect("healed local get");
    assert_eq!(healed.as_deref(), Some(golden.as_slice()), "corrupt replica must be repaired");

    drop(services);
    let _ = std::fs::remove_dir_all(&base);
}

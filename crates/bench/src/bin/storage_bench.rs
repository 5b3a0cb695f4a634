//! Storage-tier benchmark: put/get throughput for every backend in
//! `p3-storage` — in-memory, the packed needle log, and a live 3-node
//! cluster (R=2) over loopback HTTP — plus a kill-one-node availability run
//! that asserts every blob stays readable with a node down and that
//! read-repair restores the node's replicas when it returns, and an
//! *elasticity* run: a 4th node joins live (the rebalancer must stream
//! exactly the re-owned blobs), then a node dies and returns empty and
//! the anti-entropy sweep must fully repopulate it with **zero client
//! reads**. Writes `BENCH_storage.json`, the committed storage baseline
//! next to `BENCH_codec.json` and `BENCH_proxy.json`.
//!
//! The full run also times the whole `run_all` experiment suite at
//! quick scale and records it as `run_all_example.wall_s` — the
//! baseline the ROADMAP left unrecorded since PR 2 (`--quick` skips
//! it: CI smoke runs must stay seconds, not minutes).
//!
//! ```text
//! cargo run --release -p p3-bench --bin storage_bench             # full, committed
//! cargo run --release -p p3-bench --bin storage_bench -- --quick  # CI smoke
//! cargo run --release -p p3-bench --bin storage_bench -- --out path.json
//! cargo run --release -p p3-bench --bin storage_bench -- --check-schema
//!     # drift guard: committed BENCH_storage.json key sets vs this binary
//! cargo run --release -p p3-bench --bin storage_bench -- --quick --check-regress
//!     # perf gate: fresh scale-invariant ratios vs the committed
//!     # baseline, 3x noise band (see REGRESS_RATIOS)
//! ```
//!
//! Schema: `{ "<section>": { "<metric>": f64, ... } }` — the shared
//! metric shape ([`p3_bench::util::parse_metric_json`]); the binary
//! re-reads and validates what it wrote and exits nonzero on any
//! mismatch or on a failed availability invariant.

use p3_bench::util::{
    bench_out_path, check_metric_schema, flag_value, parse_metric_json, percentile,
};
use p3_storage::{
    compact_once, ClusterBackend, ClusterConfig, MemBackend, PackedBackend, PackedConfig,
    StorageBackend, StorageCore, StorageService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark section: name plus flat numeric metrics.
struct Section {
    name: &'static str,
    metrics: Vec<(&'static str, f64)>,
}

/// Deterministic pseudo-random blob corpus (SplitMix64 stream).
fn make_blobs(count: usize, size: usize) -> Vec<Vec<u8>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let mut blob = Vec::with_capacity(size);
            while blob.len() < size {
                blob.extend_from_slice(&next().to_le_bytes());
            }
            blob.truncate(size);
            blob
        })
        .collect()
}

/// Time a full put pass then two get passes over `blobs`, returning the
/// throughput/latency metrics for one backend.
fn bench_backend(backend: &dyn StorageBackend, blobs: &[Vec<u8>]) -> Vec<(&'static str, f64)> {
    let mut put_lat = Vec::with_capacity(blobs.len());
    let put_start = Instant::now();
    for (i, blob) in blobs.iter().enumerate() {
        let t = Instant::now();
        backend.put(&format!("bench-{i}"), blob).expect("put");
        put_lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let put_wall = put_start.elapsed().as_secs_f64();

    let get_passes = 2;
    let mut get_lat = Vec::with_capacity(blobs.len() * get_passes);
    let get_start = Instant::now();
    for _ in 0..get_passes {
        for (i, blob) in blobs.iter().enumerate() {
            let t = Instant::now();
            let got = backend.get(&format!("bench-{i}")).expect("get").expect("blob present");
            assert_eq!(got.len(), blob.len(), "short read");
            get_lat.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let get_wall = get_start.elapsed().as_secs_f64();

    put_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    get_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    vec![
        ("puts_per_s", blobs.len() as f64 / put_wall),
        ("gets_per_s", (blobs.len() * get_passes) as f64 / get_wall),
        ("put_p50_ms", percentile(&put_lat, 50.0)),
        ("get_p50_ms", percentile(&get_lat, 50.0)),
        ("blob_kb", blobs.first().map(|b| b.len() as f64 / 1024.0).unwrap_or(0.0)),
    ]
}

/// Median by nearest-rank on an unsorted sample.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[sorted.len() / 2]
}

/// The packed needle log under concurrent writers plus its durability
/// e2es, one section:
///
/// * **group commit** — `threads` writers hammer small-blob puts at the
///   packed store, which answers each put after one *shared* fsync.
///   Blobs are small (512 B) on purpose: large blobs turn the store
///   bandwidth-bound and hide the commit cost this measures. The store
///   runs `trials` times and `puts_per_s` is the median; the last
///   trial's `group_commits` against its puts (`torn_recovered_blobs`
///   re-counts every one of them) is the batching factor the
///   `--check-regress` gate holds.
/// * **torn-needle recovery** — a partial frame is appended to the live
///   segment (the bytes a crash mid-write leaves), the store reopens,
///   and every acked blob must be back while the torn tail is truncated.
/// * **delete → compact → restart** — churned generations plus deletes,
///   one compaction pass, a reopen: disk space must shrink and no
///   deleted blob may resurrect.
fn bench_packed(blobs: &[Vec<u8>], threads: usize, quick: bool) -> Vec<(&'static str, f64)> {
    let base = std::env::temp_dir().join(format!("p3-packed-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // ---- multithreaded group-commit puts -----------------------------
    let per_thread = if quick { 48 } else { 128 };
    let trials = if quick { 3 } else { 5 };
    let corpus = make_blobs(threads, 512);
    let total_puts = (threads * per_thread) as f64;
    let mut rates = Vec::with_capacity(trials);
    let mut last: Option<(PackedBackend, std::path::PathBuf)> = None;
    for trial in 0..trials {
        let dir = base.join(format!("packed-{trial}"));
        let packed = PackedBackend::open(&dir).expect("open packed bench dir");
        let start = Instant::now();
        std::thread::scope(|s| {
            for (t, blob) in corpus.iter().enumerate() {
                let packed = &packed;
                s.spawn(move || {
                    for i in 0..per_thread {
                        packed.put(&format!("t{t}-b{i}"), blob).expect("packed put");
                    }
                });
            }
        });
        rates.push(total_puts / start.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = last.replace((packed, dir)) {
            drop(old);
            let _ = std::fs::remove_dir_all(&old_dir);
        }
    }
    let (packed, packed_dir) = last.expect("at least one trial");
    let packed_puts_per_s = median(&rates);
    let group_commits = packed.group_commits();

    // ---- read pass over the packed corpus ----------------------------
    let get_start = Instant::now();
    for (t, blob) in corpus.iter().enumerate() {
        for i in 0..per_thread {
            let got = packed.get(&format!("t{t}-b{i}")).expect("get").expect("blob present");
            assert_eq!(&got[..], &blob[..], "packed get must return the stored bytes");
        }
    }
    let gets_per_s = total_puts / get_start.elapsed().as_secs_f64();

    // ---- torn-needle recovery e2e ------------------------------------
    // Reopen the same log with a half-written frame appended to the
    // live segment — exactly what power loss mid-append leaves behind.
    drop(packed);
    let torn_frame = {
        // A frame that would be valid if complete; only half of it hits
        // the disk.
        let frame = p3_storage::needle::encode("torn-victim", u64::MAX, 0, &[0xAB; 512]);
        frame[..frame.len() / 2].to_vec()
    };
    let seg_path = std::fs::read_dir(&packed_dir)
        .expect("list packed dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("seg"))
        .max()
        .expect("at least one segment");
    let torn_bytes = torn_frame.len() as f64;
    {
        use std::io::Write;
        let mut f =
            std::fs::OpenOptions::new().append(true).open(&seg_path).expect("open final segment");
        f.write_all(&torn_frame).expect("append torn frame");
    }
    let len_with_torn = std::fs::metadata(&seg_path).expect("stat segment").len();
    let reopened = PackedBackend::open(&packed_dir).expect("reopen after torn append");
    let mut recovered = 0u64;
    for (t, blob) in corpus.iter().enumerate() {
        for i in 0..per_thread {
            let got =
                reopened.get(&format!("t{t}-b{i}")).expect("recovered get").expect("acked blob");
            assert_eq!(&got[..], &blob[..], "recovered blob must be byte-identical");
            recovered += 1;
        }
    }
    assert!(
        reopened.get("torn-victim").expect("torn get").is_none(),
        "a torn, never-acked needle must not surface"
    );
    let len_after = std::fs::metadata(&seg_path).expect("stat segment").len();
    let truncated = len_with_torn.saturating_sub(len_after) as f64;
    drop(reopened);

    // ---- delete → compact → restart ----------------------------------
    let churn_dir = base.join("churn");
    // Segments sized so the churn corpus seals several of them even at
    // quick scale — compaction only ever touches sealed segments.
    let churn_cfg = PackedConfig {
        segment_bytes: 64 << 10,
        compact_min_bytes: 4096,
        ..PackedConfig::default()
    };
    let keep = 8usize;
    let kill = 8usize;
    let (reclaimed, resurrections) = {
        let store =
            PackedBackend::open_with(&churn_dir, churn_cfg.clone()).expect("open churn dir");
        for round in 0..4 {
            for k in 0..keep + kill {
                store
                    .put(&format!("churn-{k}"), &blobs[(round * k) % blobs.len()])
                    .expect("churn put");
            }
        }
        for k in keep..keep + kill {
            assert!(store.delete(&format!("churn-{k}")).expect("churn delete"));
        }
        let before = store.disk_bytes();
        let report = compact_once(&store).expect("compact");
        assert!(report.segments_compacted > 0, "churned segments must qualify for compaction");
        let after = store.disk_bytes();
        assert!(after < before, "compaction must reclaim disk space: {before} -> {after}");
        drop(store);
        let store = PackedBackend::open_with(&churn_dir, churn_cfg).expect("reopen churn dir");
        let mut resurrections = 0u64;
        for k in keep..keep + kill {
            if store.get(&format!("churn-{k}")).expect("post-restart get").is_some() {
                resurrections += 1;
            }
            assert!(store.deleted(&format!("churn-{k}")).expect("deleted query"));
        }
        for k in 0..keep {
            assert!(
                store.get(&format!("churn-{k}")).expect("survivor get").is_some(),
                "live blob churn-{k} must survive compact + restart"
            );
        }
        ((before - after) as f64, resurrections as f64)
    };

    let _ = std::fs::remove_dir_all(&base);
    vec![
        ("put_threads", threads as f64),
        ("puts_per_s", packed_puts_per_s),
        ("gets_per_s", gets_per_s),
        ("group_commits", group_commits as f64),
        ("torn_recovered_blobs", recovered as f64),
        ("torn_truncated_bytes", truncated.min(torn_bytes)),
        ("compact_reclaimed_bytes", reclaimed),
        ("resurrections", resurrections),
    ]
}

/// Spawn a fresh mem-backed storage node.
fn spawn_node() -> StorageService {
    StorageService::spawn().expect("spawn storage node")
}

/// Section → field names this binary emits, in emission order — the
/// single source of truth for the post-run validation and the
/// `--check-schema` drift guard against the committed
/// `BENCH_storage.json` (which is always a full-mode run).
fn expected_schema(quick: bool) -> Vec<(&'static str, Vec<&'static str>)> {
    let backend = vec!["puts_per_s", "gets_per_s", "put_p50_ms", "get_p50_ms", "blob_kb"];
    let mut out = vec![
        ("storage_mem", backend.clone()),
        (
            "packed_store",
            vec![
                "put_threads",
                "puts_per_s",
                "gets_per_s",
                "group_commits",
                "torn_recovered_blobs",
                "torn_truncated_bytes",
                "compact_reclaimed_bytes",
                "resurrections",
            ],
        ),
        ("storage_cluster", backend),
        (
            "cluster_availability",
            vec![
                "degraded_gets_per_s",
                "degraded_get_p50_ms",
                "survived_get_failures",
                "read_repairs",
                "restored_replicas",
            ],
        ),
        (
            "cluster_elasticity",
            vec![
                "rebalanced_blobs",
                "expected_moves",
                "rebalance_wall_ms",
                "sweep_repairs",
                "sweep_wall_ms",
                "sweep_client_reads",
                "membership_epoch",
            ],
        ),
    ];
    if !quick {
        out.push(("run_all_example", vec!["wall_s", "scale_quick"]));
    }
    out
}

/// Render via the shared two-level metric writer (`p3_net::stats`), the
/// same schema the `/stats` endpoints emit and `parse_metric_json`
/// reads.
fn render_json(sections: &[Section]) -> String {
    let views: Vec<(&str, Vec<(&str, f64)>)> =
        sections.iter().map(|s| (s.name, s.metrics.clone())).collect();
    p3_net::stats::render_metrics(&views)
}

fn validate(path: &str, expected_sections: &[&str]) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("re-read {path}: {e}"))?;
    let parsed = parse_metric_json(&src)?;
    for want in expected_sections {
        let (_, metrics) = parsed
            .iter()
            .find(|(name, _)| name == want)
            .ok_or_else(|| format!("section {want:?} missing"))?;
        for (field, value) in metrics {
            if !value.is_finite() || *value < 0.0 {
                return Err(format!("{want}.{field} = {value} is not a sane metric"));
            }
            if field.ends_with("_per_s") && *value == 0.0 {
                return Err(format!("{want}.{field} is zero"));
            }
        }
    }
    // Availability invariants: the run is only a baseline if the
    // cluster actually survived and repaired.
    let avail = parsed
        .iter()
        .find(|(name, _)| name == "cluster_availability")
        .map(|(_, m)| m)
        .ok_or("cluster_availability missing")?;
    let field = |name: &str| {
        avail
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("cluster_availability.{name} missing"))
    };
    if field("survived_get_failures")? != 0.0 {
        return Err("gets failed while one node was down".into());
    }
    if field("read_repairs")? < 1.0 {
        return Err("node returned but no replica was read-repaired".into());
    }
    // Elasticity invariants: the run is only a baseline if the add-node
    // rebalance moved exactly the re-owned blobs and the anti-entropy
    // sweep healed the returned-empty node without a single client read.
    let elastic = parsed
        .iter()
        .find(|(name, _)| name == "cluster_elasticity")
        .map(|(_, m)| m)
        .ok_or("cluster_elasticity missing")?;
    let field = |name: &str| {
        elastic
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("cluster_elasticity.{name} missing"))
    };
    if field("rebalanced_blobs")? < 1.0 {
        return Err("adding a node rebalanced nothing".into());
    }
    if field("rebalanced_blobs")? != field("expected_moves")? {
        return Err("rebalancer moved blobs whose replica set did not change".into());
    }
    if field("sweep_repairs")? < 1.0 {
        return Err("anti-entropy sweep repaired nothing".into());
    }
    if field("sweep_client_reads")? != 0.0 {
        return Err("anti-entropy sweep issued client reads".into());
    }
    if field("membership_epoch")? != 2.0 {
        return Err("one add-node must leave the cluster at epoch 2".into());
    }
    // Packed-store invariants: the group-commit claim and both
    // durability e2es must have held in this very run.
    let packed = parsed
        .iter()
        .find(|(name, _)| name == "packed_store")
        .map(|(_, m)| m)
        .ok_or("packed_store missing")?;
    let field = |name: &str| {
        packed
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("packed_store.{name} missing"))
    };
    let (puts, commits) = (field("torn_recovered_blobs")?, field("group_commits")?);
    if !(1.0..puts).contains(&commits) {
        return Err(format!(
            "{puts} concurrent puts took {commits} fsync batches: group commit batched nothing"
        ));
    }
    if field("torn_recovered_blobs")? < 1.0 {
        return Err("torn-needle recovery recovered nothing".into());
    }
    if field("torn_truncated_bytes")? < 1.0 {
        return Err("the torn needle tail was never truncated".into());
    }
    if field("compact_reclaimed_bytes")? < 1.0 {
        return Err("compaction reclaimed no disk space".into());
    }
    if field("resurrections")? != 0.0 {
        return Err("deleted blobs resurrected across compact + restart".into());
    }
    Ok(())
}

/// Scale-invariant ratios for the `--check-regress` gate:
/// `(numerator section, field, denominator section, field)`. Ratios —
/// not absolute numbers — so a quick-scale CI run is comparable to the
/// committed full-scale baseline and machine speed divides out. Pairs
/// are chosen so numerator and denominator move together when the
/// scale changes between quick and full: size-bound gets compare
/// against gets (mem gets are O(1) Arc clones, so they make a stable
/// get denominator — but a useless put denominator, since mem puts are
/// memcpy-bound and swing ~8x with blob size), and the put side is held
/// by a count, not a rate: puts per group commit (every put of the
/// counted trial is re-read as a `torn_recovered_blobs`) is the
/// batching factor of 64 concurrent writers at either scale, and an
/// accidental fsync-per-put drops it to 1.
const REGRESS_RATIOS: &[(&str, &str, &str, &str)] = &[
    ("packed_store", "torn_recovered_blobs", "packed_store", "group_commits"),
    ("packed_store", "gets_per_s", "storage_mem", "gets_per_s"),
    ("storage_cluster", "gets_per_s", "storage_mem", "gets_per_s"),
];

/// How far a fresh ratio may fall below the committed baseline's before
/// the gate fails. 3x: wide enough that shared-runner noise and the
/// quick-vs-full scale gap never trip it, narrow enough that losing an
/// order of magnitude (a dropped batch path, an accidental
/// fsync-per-put) cannot slip through.
const REGRESS_NOISE_BAND: f64 = 3.0;

/// Parsed metric JSON: section name → flat field/value list.
type Metrics = Vec<(String, Vec<(String, f64)>)>;

/// Compare the just-written `fresh` metrics against the committed
/// baseline on the scale-invariant ratios above.
fn check_regress(fresh_path: &str, baseline_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Metrics, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        parse_metric_json(&src)
    };
    let fresh = load(fresh_path)?;
    let base = load(baseline_path)?;
    let field = |parsed: &Metrics, section: &str, name: &str| {
        parsed
            .iter()
            .find(|(s, _)| s == section)
            .and_then(|(_, m)| m.iter().find(|(f, _)| f == name))
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{section}.{name} missing"))
    };
    let mut failures = Vec::new();
    for &(num_s, num_f, den_s, den_f) in REGRESS_RATIOS {
        let ratio = |parsed: &Metrics| -> Result<f64, String> {
            let num = field(parsed, num_s, num_f)?;
            let den = field(parsed, den_s, den_f)?;
            if den <= 0.0 {
                return Err(format!("{den_s}.{den_f} is not positive"));
            }
            Ok(num / den)
        };
        let fresh_ratio = ratio(&fresh)?;
        let base_ratio = ratio(&base).map_err(|e| format!("baseline {baseline_path}: {e}"))?;
        let floor = base_ratio / REGRESS_NOISE_BAND;
        let verdict = if fresh_ratio < floor { "REGRESSED" } else { "ok" };
        println!(
            "regress {num_s}.{num_f}/{den_s}.{den_f}: fresh {fresh_ratio:.3} vs baseline \
             {base_ratio:.3} (floor {floor:.3}) {verdict}"
        );
        if fresh_ratio < floor {
            failures.push(format!(
                "{num_s}.{num_f}/{den_s}.{den_f} fell to {fresh_ratio:.3} \
                 (baseline {base_ratio:.3}, {REGRESS_NOISE_BAND}x band floor {floor:.3})"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path =
        bench_out_path(&args, quick, "target/BENCH_storage_quick.json", "BENCH_storage.json");

    // Drift guard: compare the committed baseline's key sets against
    // what this binary emits, without running any benches. The
    // committed file is always a full-mode run.
    if args.iter().any(|a| a == "--check-schema") {
        let committed =
            flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_storage.json".to_string());
        match check_metric_schema(&committed, &expected_schema(false)) {
            Ok(()) => {
                println!("{committed}: schema matches ({} sections)", expected_schema(false).len());
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let (blob_count, blob_size) = if quick { (16, 8 * 1024) } else { (192, 64 * 1024) };
    let blobs = make_blobs(blob_count, blob_size);
    let mut sections = Vec::new();

    // ---- mem ---------------------------------------------------------
    let mem = MemBackend::new();
    sections.push(Section { name: "storage_mem", metrics: bench_backend(&mem, &blobs) });

    // ---- packed needle log: group commit + durability e2es -----------
    let put_threads = 64;
    sections
        .push(Section { name: "packed_store", metrics: bench_packed(&blobs, put_threads, quick) });

    // ---- 3-node cluster, R=2 ----------------------------------------
    let mut nodes: Vec<StorageService> = (0..3).map(|_| spawn_node()).collect();
    let cluster = ClusterBackend::new(ClusterConfig {
        nodes: nodes.iter().map(|n| n.addr()).collect(),
        replicas: 2,
        backoff_base: Duration::from_millis(100),
        ..ClusterConfig::default()
    })
    .expect("cluster");
    sections.push(Section { name: "storage_cluster", metrics: bench_backend(&cluster, &blobs) });

    // ---- availability: kill one node mid-benchmark -------------------
    let killed_addr = nodes[0].addr();
    nodes[0].shutdown();
    let mut degraded_lat = Vec::with_capacity(blob_count);
    let mut failures = 0u64;
    let degraded_start = Instant::now();
    for i in 0..blob_count {
        let t = Instant::now();
        match cluster.get(&format!("bench-{i}")) {
            Ok(Some(_)) => degraded_lat.push(t.elapsed().as_secs_f64() * 1e3),
            _ => failures += 1,
        }
    }
    let degraded_wall = degraded_start.elapsed().as_secs_f64();

    // The node returns empty (lost its disk); after the cooldown a full
    // read pass repairs every replica it should hold.
    let repairs_before = cluster.stats().read_repairs;
    let reborn_core = Arc::new(StorageCore::new());
    let _reborn = StorageService::respawn_on(killed_addr, Arc::clone(&reborn_core))
        .expect("rebind killed node");
    std::thread::sleep(Duration::from_millis(150));
    for i in 0..blob_count {
        let _ = cluster.get(&format!("bench-{i}")).expect("get after node return");
    }
    let repairs = cluster.stats().read_repairs - repairs_before;
    sections.push(Section {
        name: "cluster_availability",
        metrics: vec![
            ("degraded_gets_per_s", (blob_count as u64 - failures) as f64 / degraded_wall),
            ("degraded_get_p50_ms", {
                degraded_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
                percentile(&degraded_lat, 50.0)
            }),
            ("survived_get_failures", failures as f64),
            ("read_repairs", repairs as f64),
            ("restored_replicas", reborn_core.len() as f64),
        ],
    });

    // ---- elasticity: live add-node rebalance + anti-entropy sweep ----
    // A fresh 3-node R=2 cluster with 48 blobs: enough that the odds of
    // *no* replica set changing when a 4th node joins are negligible
    // (each blob's new set includes the new node with probability ~1/2,
    // and the ring is keyed by OS-assigned ports, so placement varies
    // per run).
    let el_count = 48usize;
    let mut el_nodes: Vec<StorageService> = (0..3).map(|_| spawn_node()).collect();
    let el_cluster = ClusterBackend::new(ClusterConfig {
        nodes: el_nodes.iter().map(|n| n.addr()).collect(),
        replicas: 2,
        backoff_base: Duration::from_millis(100),
        ..ClusterConfig::default()
    })
    .expect("elasticity cluster");
    let el_id = |i: usize| format!("el-{i}");
    for i in 0..el_count {
        el_cluster.put(&el_id(i), &blobs[i % blobs.len()]).expect("elasticity put");
    }
    let old_sets: Vec<Vec<std::net::SocketAddr>> =
        (0..el_count).map(|i| el_cluster.replicas_for(&el_id(i))).collect();

    // Add a 4th node live; the call returns after the rebalance pass.
    let fourth = spawn_node();
    let rebalance_start = Instant::now();
    let change = el_cluster.add_node(fourth.addr()).expect("add 4th node");
    let rebalance_wall_ms = rebalance_start.elapsed().as_secs_f64() * 1e3;
    let expected_moves: u64 = (0..el_count)
        .map(|i| {
            el_cluster.replicas_for(&el_id(i)).iter().filter(|a| !old_sets[i].contains(a)).count()
                as u64
        })
        .sum();
    assert_eq!(
        change.rebalanced_blobs, expected_moves,
        "rebalance must move exactly the re-owned blobs"
    );
    for i in 0..el_count {
        let got = el_cluster.get(&el_id(i)).expect("get after rebalance").expect("blob present");
        assert_eq!(got.len(), blobs[i % blobs.len()].len(), "short read after rebalance");
    }

    // A node dies and returns *empty*; no client read happens — only
    // the anti-entropy sweep may restore its replicas. The sweep
    // restores what the node currently *owns* — not leftover copies of
    // blobs the add-node rebalance moved away (those are never deleted,
    // but are not under-replicated either).
    let victim_addr = el_nodes[0].addr();
    let victim_owned = (0..el_count)
        .filter(|&i| el_cluster.replicas_for(&el_id(i)).contains(&victim_addr))
        .count();
    assert!(victim_owned > 0, "victim node must own replicas");
    el_nodes[0].shutdown();
    let reborn = Arc::new(StorageCore::new());
    let _reborn_svc =
        StorageService::respawn_on(victim_addr, Arc::clone(&reborn)).expect("rebind victim node");
    let gets_before = el_cluster.stats().gets;
    let sweep_start = Instant::now();
    let swept = el_cluster.sweep_once();
    let sweep_wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    let sweep_client_reads = el_cluster.stats().gets - gets_before;
    assert_eq!(reborn.len(), victim_owned, "sweep must fully repopulate the returned node");
    for i in 0..el_count {
        if el_cluster.replicas_for(&el_id(i)).contains(&victim_addr) {
            let restored = reborn.get(&el_id(i)).expect("reborn get").expect("restored replica");
            assert_eq!(
                &restored[..],
                &blobs[i % blobs.len()][..],
                "sweep-restored replica must be byte-identical"
            );
        }
    }
    sections.push(Section {
        name: "cluster_elasticity",
        metrics: vec![
            ("rebalanced_blobs", change.rebalanced_blobs as f64),
            ("expected_moves", expected_moves as f64),
            ("rebalance_wall_ms", rebalance_wall_ms),
            ("sweep_repairs", swept as f64),
            ("sweep_wall_ms", sweep_wall_ms),
            ("sweep_client_reads", sweep_client_reads as f64),
            ("membership_epoch", el_cluster.stats().membership_epoch as f64),
        ],
    });

    // ---- run_all experiment suite wall-clock (full mode only) --------
    if !quick {
        use p3_bench::experiments as ex;
        use p3_bench::Scale;
        let t = Instant::now();
        let scale = Scale::Quick;
        let _ = ex::fig5_size::run(scale);
        let _ = ex::fig6_psnr::run(scale);
        let _ = ex::fig7_visuals::run(scale);
        let _ = ex::fig8a_edges::run(scale);
        let _ = ex::fig8b_faces::run(scale);
        let _ = ex::fig8c_sift::run(scale);
        let _ = ex::fig8d_recognition::run(scale);
        let _ = ex::fig9_edge_visuals::run(scale);
        let _ = ex::fig10_bandwidth::run(scale);
        let _ = ex::tbl_reconstruction::run(scale);
        let _ = ex::tbl_attack::run(scale);
        let _ = ex::ablations::run(scale);
        sections.push(Section {
            name: "run_all_example",
            metrics: vec![("wall_s", t.elapsed().as_secs_f64()), ("scale_quick", 1.0)],
        });
    }

    for s in &sections {
        let line: Vec<String> = s.metrics.iter().map(|(f, v)| format!("{f} {v:.2}")).collect();
        println!("{:<22} {}", s.name, line.join("   "));
    }
    println!("({blob_count} blobs of {} KiB per backend)", blob_size / 1024);

    let json = render_json(&sections);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    let schema = expected_schema(quick);
    let expected: Vec<&str> = schema.iter().map(|(name, _)| *name).collect();
    if let Err(e) = validate(&out_path, &expected) {
        eprintln!("error: {out_path} failed self-validation: {e}");
        std::process::exit(1);
    }
    // The emitted file must match the schema table `--check-schema`
    // guards with, or the guard itself would drift from reality.
    if let Err(e) = check_metric_schema(&out_path, &schema) {
        eprintln!("error: {out_path} does not match the declared schema: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} (self-validated)");

    // Perf-regression gate: compare this run against the committed
    // baseline on scale-invariant ratios.
    if args.iter().any(|a| a == "--check-regress") {
        let committed =
            flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_storage.json".to_string());
        match check_regress(&out_path, &committed) {
            Ok(()) => println!(
                "{out_path} vs {committed}: no ratio fell below its \
                 {REGRESS_NOISE_BAND}x noise band"
            ),
            Err(e) => {
                eprintln!("error: perf regression vs {committed}: {e}");
                std::process::exit(1);
            }
        }
    }
}

//! The chaos controller: injects the fault classes at fixed progress
//! fractions of the open-loop run. Most windows are scheduled so no
//! blob loses its last *healthy* replica; the deliberate exception is
//! the **corrupt-while-degraded** overlap — node1's blobs are corrupted
//! on disk while node0 is still inside its kill window, so any blob
//! replicated exactly on {node0, node1} briefly has no intact copy.
//! That used to be the silent false-404 path (a corrupt copy read as an
//! authoritative miss); with end-to-end CRCs the router must answer it
//! as a *detected* 503 and read-repair once node0 returns.
//!
//! ```text
//! progress 0%  12% 16%        34%  40%      52%  56%       66%  70%      78%  82%     88%
//!          |---|===|==========|----|========|----|=========|----|========|----|=======|--|
//!              kill corrupt         slow n1      partition      full n2       bit-flip
//!              n0   n1 (overlap!)   (+15ms/read) router→n2      (ENOSPC)     n0→router
//!              (restart n0 @34%)                 (black hole)                 responses
//! ```

use super::topology::SimCluster;
use p3_storage::{ClusterBackend, StorageBackend, StorageService};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters proving each fault class fired, reported into
/// `BENCH_simulate.json`'s `chaos` section.
#[derive(Debug, Default, Clone)]
pub struct ChaosReport {
    /// Nodes killed (and later restarted).
    pub node_kills: u64,
    /// Router-observed failed node requests during the run.
    pub node_failures_observed: u64,
    /// Router reads the slow link to node1 actually delayed.
    pub delayed_ops: u64,
    /// Writes the injected-full disk rejected.
    pub full_rejections: u64,
    /// Blobs whose on-disk payload bytes were flipped.
    pub blobs_corrupted: u64,
    /// Corrupt blobs detected (CRC miss) by disk backends.
    pub corrupt_reads_detected: u64,
    /// Replicas rewritten by read-repair over the whole run.
    pub read_repairs: u64,
    /// Router→node ops swallowed by the asymmetric-partition black hole.
    pub partition_blackholes: u64,
    /// Integrity rejections observed while corruption overlapped the
    /// kill window — each one is a would-have-been false 404.
    pub corrupt_degraded_detected: u64,
    /// Router-level integrity rejections over the whole run (wire-CRC
    /// mismatches, corrupt-marked 503s, bad PUT-ack echoes).
    pub integrity_rejects: u64,
    /// Completed add→drain membership cycles (soak mode only; 0 in
    /// plain runs).
    pub membership_churns: u64,
    /// Blobs the churn loop wrote and then deleted through the router
    /// (soak mode only) — each one lands a tombstone needle on every
    /// replica and turns the original frames into compaction fuel.
    pub churn_deletes: u64,
}

/// Fault windows as fractions of total request progress.
const KILL_AT: f64 = 0.12;
const CORRUPT_DEGRADED_AT: f64 = 0.16;
const RESTART_AT: f64 = 0.34;
const SLOW_AT: f64 = 0.40;
const SLOW_UNTIL: f64 = 0.52;
const PARTITION_AT: f64 = 0.56;
const PARTITION_UNTIL: f64 = 0.66;
const FULL_AT: f64 = 0.70;
const FULL_UNTIL: f64 = 0.78;
const FLIP_AT: f64 = 0.82;
const FLIP_UNTIL: f64 = 0.88;

/// Injected per-read latency for the slow-node window.
const SLOW: Duration = Duration::from_millis(15);

/// Drive the chaos script against `cluster` while the workload runs.
/// Returns once all `total` requests have completed (every window
/// opened *and* closed, so the topology ends healthy).
pub fn run_controller(
    cluster: &mut SimCluster,
    progress: &AtomicUsize,
    total: usize,
) -> Result<ChaosReport, String> {
    let mut report = ChaosReport::default();
    let failures_before = cluster.cluster_stats().node_failures;
    let repairs_before = cluster.cluster_stats().read_repairs;
    let integrity_before = cluster.cluster_stats().integrity_rejects;
    let corrupt_before = cluster.corrupt_reads();
    let blackholes_before = cluster.fault_plan.black_holed();
    let frac = |p: &AtomicUsize| p.load(Ordering::Relaxed) as f64 / total.max(1) as f64;
    let mut degraded_base = 0u64;
    let mut step = 0usize;
    while progress.load(Ordering::Relaxed) < total {
        let f = frac(progress);
        match step {
            0 if f >= KILL_AT => {
                cluster.kill_node(0);
                report.node_kills += 1;
                step = 1;
            }
            1 if f >= CORRUPT_DEGRADED_AT => {
                // The overlap: node0 is still down, so blobs replicated
                // on {node0, node1} now have no intact copy at all.
                degraded_base = cluster.cluster_stats().integrity_rejects;
                report.blobs_corrupted += cluster.corrupt_node_blobs(1);
                step = 2;
            }
            2 if f >= RESTART_AT => {
                report.corrupt_degraded_detected +=
                    cluster.cluster_stats().integrity_rejects.saturating_sub(degraded_base);
                cluster.restart_node(0)?;
                step = 3;
            }
            3 if f >= SLOW_AT => {
                cluster.slow_node(1, SLOW);
                step = 4;
            }
            4 if f >= SLOW_UNTIL => {
                cluster.heal_link(1);
                step = 5;
            }
            5 if f >= PARTITION_AT => {
                cluster.partition_node(2);
                step = 6;
            }
            6 if f >= PARTITION_UNTIL => {
                cluster.heal_link(2);
                step = 7;
            }
            7 if f >= FULL_AT => {
                cluster.nodes[2].disk.set_disk_full(true);
                step = 8;
            }
            8 if f >= FULL_UNTIL => {
                cluster.nodes[2].disk.set_disk_full(false);
                step = 9;
            }
            9 if f >= FLIP_AT => {
                cluster.flip_node_responses(0);
                step = 10;
            }
            10 if f >= FLIP_UNTIL => {
                cluster.heal_link(0);
                step = 11;
            }
            _ => {}
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // A short run can finish before a late window opened; close out any
    // still-armed windows so the backstop starts from a healthy state.
    if step == 2 {
        report.corrupt_degraded_detected +=
            cluster.cluster_stats().integrity_rejects.saturating_sub(degraded_base);
    }
    if step < 3 {
        cluster.restart_node(0)?;
    }
    cluster.nodes[2].disk.set_disk_full(false);
    for link in 0..3 {
        cluster.heal_link(link);
    }

    let stats = cluster.cluster_stats();
    report.node_failures_observed = stats.node_failures.saturating_sub(failures_before);
    report.delayed_ops = cluster.fault_plan.delayed();
    report.full_rejections = cluster.nodes[2].disk.full_rejections();
    report.corrupt_reads_detected = cluster.corrupt_reads().saturating_sub(corrupt_before);
    report.read_repairs = stats.read_repairs.saturating_sub(repairs_before);
    report.partition_blackholes =
        cluster.fault_plan.black_holed().saturating_sub(blackholes_before);
    report.integrity_rejects = stats.integrity_rejects.saturating_sub(integrity_before);
    Ok(report)
}

/// Soak-mode membership churn: repeatedly fold a fresh in-memory node
/// into the cluster through the router's `POST /admin/membership`
/// route, let it take traffic, then drain it back out. Each cycle also
/// writes and deletes a batch of short-lived blobs through the router,
/// so tombstones propagate across changing membership and the nodes'
/// compactors get dead segments to reclaim mid-run. Runs until the
/// workload finishes. Returns completed add→drain cycles, churn
/// deletes, plus any node that could not be drained — those are still
/// cluster members, so they are handed back alive (killing an
/// undrained member would fabricate an outage the chaos script didn't
/// schedule).
pub fn run_churn(
    router: SocketAddr,
    backend: Arc<ClusterBackend>,
    progress: &AtomicUsize,
    total: usize,
) -> (u64, u64, Vec<StorageService>) {
    const ADMIN: &str = "/admin/membership";
    /// Short-lived blobs written and deleted each cycle: their put
    /// frames go dead the moment the tombstone lands, so the soak
    /// exercises tombstone propagation *and* feeds the nodes'
    /// background compactors real garbage to reclaim.
    const CHURN_BLOBS: usize = 8;
    const CHURN_BLOB_BYTES: usize = 16 << 10;
    let accepted = |resp: Result<p3_net::Response, p3_net::ClientError>| matches!(resp, Ok(r) if r.status.is_success());
    let mut churns = 0u64;
    let mut deletes = 0u64;
    let mut cycle = 0u64;
    let mut undrained = Vec::new();
    while progress.load(Ordering::Relaxed) < total {
        cycle += 1;
        // Compaction churn: short-lived blobs, written then tombstoned
        // through the router so every replica sees both.
        for k in 0..CHURN_BLOBS {
            let id = format!("churn-{cycle}-{k}");
            let body = vec![(cycle as u8) ^ (k as u8); CHURN_BLOB_BYTES];
            if backend.put(&id, &body).is_ok() && backend.delete(&id).unwrap_or(false) {
                deletes += 1;
            }
        }
        let Ok(extra) = StorageService::spawn() else { break };
        let addr = extra.addr();
        if !accepted(p3_net::client::http_post(
            router,
            ADMIN,
            "text/plain",
            format!("add {addr}\n").into_bytes(),
        )) {
            // Mid-chaos the router refuses changes while an earlier
            // rebalance hasn't converged; sweep and retry next cycle.
            backend.sweep_once();
            std::thread::sleep(Duration::from_millis(200));
            continue;
        }
        // Let the new member serve for a moment (bail early if the
        // workload drains out from under us).
        for _ in 0..10 {
            if progress.load(Ordering::Relaxed) >= total {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // Drain it back out. A fault window can leave the rebalance
        // open (removes are refused until convergence), so sweep
        // between attempts.
        let mut drained = false;
        for _ in 0..50 {
            if accepted(p3_net::client::http_post(
                router,
                ADMIN,
                "text/plain",
                format!("remove {addr}\n").into_bytes(),
            )) {
                drained = true;
                break;
            }
            backend.sweep_once();
            std::thread::sleep(Duration::from_millis(100));
        }
        if drained {
            churns += 1;
        } else {
            undrained.push(extra);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    (churns, deletes, undrained)
}

/// Find (or write) a blob whose replica set satisfies `want`, so the
/// backstops can aim a fault at a *known* placement instead of hoping
/// the workload's blobs happen to land right.
fn placed_blob(
    cluster: &SimCluster,
    want: impl Fn(&[SocketAddr]) -> bool,
) -> Result<String, String> {
    let ids = cluster.nodes[1]
        .core
        .list_ids(None, usize::MAX)
        .map_err(|e| format!("list node1 ids: {e}"))?;
    for id in &ids {
        if want(&cluster.router_backend.replicas_for(id)) {
            return Ok(id.clone());
        }
    }
    for n in 0..10_000 {
        let id = format!("backstop-probe-{n}");
        if want(&cluster.router_backend.replicas_for(&id)) {
            cluster
                .router_backend
                .put(&id, b"backstop probe payload")
                .map_err(|e| format!("write {id}: {e}"))?;
            return Ok(id);
        }
    }
    Err("no blob ID maps to the wanted replica placement".into())
}

/// Deterministic backstop: after the open-loop phase, fire any fault
/// class whose counter is still zero (short/quick runs can race past a
/// window), so the self-validation gate never depends on workload
/// timing luck.
pub fn backstop(
    cluster: &mut SimCluster,
    pinned: &[super::workload::PinnedPhoto],
    report: &mut ChaosReport,
) -> Result<(), String> {
    let proxy = cluster.proxy_addr();
    // Kill: down node0, read every pinned photo (each must still be
    // served correctly or error explicitly), restart.
    if report.node_kills == 0 || report.node_failures_observed == 0 {
        let before = cluster.cluster_stats().node_failures;
        cluster.kill_node(0);
        report.node_kills += 1;
        for photo in pinned {
            let _ = p3_net::http_get(proxy, &format!("/photos/{}", photo.id));
        }
        cluster.restart_node(0)?;
        report.node_failures_observed += cluster.cluster_stats().node_failures - before;
    }
    // Slow: delayed reads over the router's link to node1.
    if report.delayed_ops == 0 {
        cluster.slow_node(1, SLOW);
        for photo in pinned {
            let _ = p3_net::http_get(proxy, &format!("/photos/{}", photo.id));
        }
        cluster.heal_link(1);
        report.delayed_ops = cluster.fault_plan.delayed();
    }
    // Disk-full: a direct PUT against node2 must be rejected.
    if report.full_rejections == 0 {
        cluster.nodes[2].disk.set_disk_full(true);
        let resp = p3_net::client::http_put(
            cluster.nodes[2].addr,
            "/blobs/backstop-full-probe",
            "application/octet-stream",
            vec![0u8; 64],
        );
        if let Ok(r) = resp {
            if r.status.is_success() {
                return Err("injected-full disk accepted a write".into());
            }
        }
        cluster.nodes[2].disk.set_disk_full(false);
        report.full_rejections = cluster.nodes[2].disk.full_rejections();
    }
    // Corrupt-while-degraded: the overlap class. Aim it precisely — a
    // blob replicated exactly on {node0, node1}, node0 killed, node1's
    // disk corrupted — then read through the router. The only correct
    // answers are a detected corrupt error (integrity reject) — never a
    // definitive miss (the false 404 this PR closes) and never bytes.
    if report.corrupt_degraded_detected == 0 {
        let n0 = cluster.nodes[0].addr;
        let n1 = cluster.nodes[1].addr;
        let id = placed_blob(cluster, |reps| reps.contains(&n0) && reps.contains(&n1))?;
        let before = cluster.cluster_stats().integrity_rejects;
        cluster.kill_node(0);
        report.node_kills += 1;
        report.blobs_corrupted += cluster.corrupt_node_blobs(1);
        match cluster.router_backend.get(&id) {
            Ok(None) => {
                return Err(format!(
                    "corrupt-while-degraded read of {id} answered a definitive miss (false 404)"
                ))
            }
            Ok(Some(_)) => {
                return Err(format!(
                    "corrupt-while-degraded read of {id} served bytes with no intact replica"
                ))
            }
            Err(_) => {}
        }
        cluster.restart_node(0)?;
        report.corrupt_degraded_detected +=
            cluster.cluster_stats().integrity_rejects.saturating_sub(before);
        report.integrity_rejects += cluster.cluster_stats().integrity_rejects - before;
        if report.corrupt_degraded_detected == 0 {
            return Err("corrupt-while-degraded fired but no integrity reject was counted".into());
        }
    }
    // Corruption under a healthy topology: corrupt node1's blobs (if no
    // window fired yet) and read them back through the node's own core —
    // each must surface as a *detected* corrupt error, never as bytes.
    if report.blobs_corrupted == 0 {
        report.blobs_corrupted += cluster.corrupt_node_blobs(1);
    }
    if report.corrupt_reads_detected == 0 {
        let before = cluster.nodes[1].disk.stats().corrupt_reads;
        let ids = cluster.nodes[1]
            .core
            .list_ids(None, usize::MAX)
            .map_err(|e| format!("list node1 ids: {e}"))?;
        for id in &ids {
            // Corrupt copies answer Err(Corrupt) (counted below);
            // already-repaired copies answer clean — both fine.
            let _ = cluster.nodes[1].core.get(id);
        }
        report.corrupt_reads_detected += cluster.nodes[1].disk.stats().corrupt_reads - before;
        if report.corrupt_reads_detected == 0 && !ids.is_empty() {
            return Err("corrupted blobs read back clean — CRC detection never fired".into());
        }
    }
    // Asymmetric partition: black-hole the router→node2 link, then read
    // a blob whose *primary* replica is node2 — the router must burn a
    // bounded deadline there and fail over, never hang and never serve
    // wrong bytes. The node itself stays healthy the whole time.
    if report.partition_blackholes == 0 {
        let n2 = cluster.nodes[2].addr;
        let id = placed_blob(cluster, |reps| reps.first() == Some(&n2))?;
        // Prime node2's health with a clean read so the partitioned
        // read below actually probes it (a leftover chaos backoff
        // window could otherwise defer it straight past the black
        // hole). Bounded: windows are capped at 400 ms in this topology.
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        loop {
            let probes_before = cluster.nodes[2].core.get_count();
            cluster
                .router_backend
                .get(&id)
                .map_err(|e| format!("pre-partition read of {id}: {e}"))?;
            if cluster.nodes[2].core.get_count() > probes_before {
                break;
            }
            if std::time::Instant::now() >= deadline {
                return Err("node2 never came out of its backoff window".into());
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let before = cluster.fault_plan.black_holed();
        cluster.partition_node(2);
        match cluster.router_backend.get(&id) {
            Ok(Some(_)) => {}
            other => {
                cluster.heal_link(2);
                return Err(format!("partitioned read of {id} did not fail over: {other:?}"));
            }
        }
        cluster.heal_link(2);
        report.partition_blackholes += cluster.fault_plan.black_holed().saturating_sub(before);
        if report.partition_blackholes == 0 {
            return Err("partition rule never black-holed a router op".into());
        }
    }
    // End-of-run sweep: with the topology healthy again, every pinned
    // photo must read back byte-identical (read-repair has had its
    // chance to heal the corrupted replicas).
    for photo in pinned {
        let resp = p3_net::http_get(proxy, &format!("/photos/{}", photo.id))
            .map_err(|e| format!("final sweep {}: {e}", photo.id))?;
        if !resp.status.is_success() {
            return Err(format!("final sweep {}: status {}", photo.id, resp.status.0));
        }
        if p3_crypto::sha256(&resp.body) != photo.golden {
            return Err(format!("final sweep {}: served bytes differ from golden", photo.id));
        }
    }
    report.read_repairs = cluster.cluster_stats().read_repairs;
    if report.integrity_rejects == 0 {
        report.integrity_rejects = cluster.cluster_stats().integrity_rejects;
    }
    Ok(())
}

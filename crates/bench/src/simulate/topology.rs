//! The simulated serving topology: PSP + 3 disk-backed storage nodes
//! behind a cluster router + trusted proxy, with handles for every
//! chaos hook (kill/restart, delay, disk-full, on-disk corruption,
//! and — via the router's [`FaultTransport`] — partitions, black
//! holes, and in-flight bit flips on the router→node links).

use p3_core::pipeline::{P3Codec, P3Config};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig};
use p3_net::{FaultPlan, FaultRule, FaultTransport};
use p3_psp::{PspProfile, PspService};
use p3_storage::{
    BackendStats, ClusterBackend, ClusterConfig, Compactor, PackedBackend, PackedConfig,
    StorageBackend, StorageCore, StorageService,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One storage node plus the handles chaos needs to reach inside it.
pub struct SimNode {
    /// Listening service; `None` while the node is "dead".
    service: Option<StorageService>,
    /// The node's request core (delay injection lives here).
    pub core: Arc<StorageCore>,
    /// The packed needle-log backend (disk-full injection, needle
    /// corruption, and stats live here).
    pub disk: Arc<PackedBackend>,
    /// Background compactor; dropped while the node is "dead" — a
    /// powered-off machine doesn't rewrite its own segments.
    compactor: Option<Compactor>,
    /// Durable data directory — survives kill/restart.
    pub dir: PathBuf,
    /// Fixed address; restarts rebind the same port.
    pub addr: SocketAddr,
}

/// Node store tuning for the simulation: segments small enough that the
/// soak's churn (re-puts + deletes) seals and kills whole segments
/// within a run, and an aggressive compactor so the reclaim path is
/// actually exercised under live traffic.
fn sim_node_config() -> PackedConfig {
    PackedConfig { segment_bytes: 256 << 10, compact_min_bytes: 4096, ..PackedConfig::default() }
}

/// How often each live node's compactor scans for victim segments.
const COMPACT_INTERVAL: Duration = Duration::from_millis(500);

/// The whole topology under test.
pub struct SimCluster {
    psp: PspService,
    /// The three storage nodes, chaos-addressable by index.
    pub nodes: Vec<SimNode>,
    /// The cluster router backend (replica math + failure counters).
    pub router_backend: Arc<ClusterBackend>,
    /// Fault rules on the router→node links (partitions, black holes,
    /// latency, bit flips). Chaos sets rules here; the router's
    /// transport consults them per connect/read/write.
    pub fault_plan: Arc<FaultPlan>,
    router: StorageService,
    proxy: P3Proxy,
    base_dir: PathBuf,
}

/// Shared master key for the simulated proxy.
pub const MASTER_KEY: &[u8] = b"p3 simulate master key";

/// Source label the router's fault transport identifies itself by in
/// the [`FaultPlan`] — rules keyed on it hit only router→node traffic.
pub const ROUTER_PEER: &str = "router";

impl SimCluster {
    /// Spawn PSP, three disk nodes, router, and proxy. The secret cache
    /// is disabled so every read exercises the storage tier the chaos
    /// layer is attacking.
    pub fn spawn(tag: &str) -> Result<SimCluster, String> {
        let base_dir =
            std::env::temp_dir().join(format!("p3-simulate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base_dir);
        let psp = PspService::spawn(PspProfile::facebook()).map_err(|e| format!("psp: {e}"))?;
        let mut nodes = Vec::with_capacity(3);
        for i in 0..3 {
            let dir = base_dir.join(format!("node{i}"));
            let disk = Arc::new(
                PackedBackend::open_with(&dir, sim_node_config())
                    .map_err(|e| format!("node{i}: {e}"))?,
            );
            let compactor = Some(Compactor::spawn(&disk, COMPACT_INTERVAL));
            let core =
                Arc::new(StorageCore::with_backend(Arc::clone(&disk) as Arc<dyn StorageBackend>));
            let service = StorageService::spawn_with(Arc::clone(&core))
                .map_err(|e| format!("node{i}: {e}"))?;
            let addr = service.addr();
            nodes.push(SimNode { service: Some(service), core, disk, compactor, dir, addr });
        }
        let fault_plan = FaultPlan::new();
        let router_backend = Arc::new(
            ClusterBackend::with_transport(
                ClusterConfig {
                    nodes: nodes.iter().map(|n| n.addr).collect(),
                    replicas: 2,
                    backoff_base: Duration::from_millis(100),
                    // Cap escalation low: chaos windows are seconds
                    // long, and the backstop needs a healed node to be
                    // re-probed promptly, not parked for 30 s.
                    backoff_max: Duration::from_millis(400),
                    // Short deadlines so a black-holed link costs one
                    // bounded timeout, not a stalled worker: the chaos
                    // windows are fractions of a ~2 s run.
                    connect_timeout: Duration::from_millis(150),
                    read_timeout: Duration::from_millis(400),
                    ..ClusterConfig::default()
                },
                Arc::new(FaultTransport::new(ROUTER_PEER, Arc::clone(&fault_plan))),
            )
            .map_err(|e| format!("cluster: {e}"))?,
        );
        let router_core = Arc::new(StorageCore::with_backend(
            Arc::clone(&router_backend) as Arc<dyn StorageBackend>
        ));
        let router = StorageService::spawn_with(router_core).map_err(|e| format!("router: {e}"))?;
        let proxy = P3Proxy::spawn(ProxyConfig {
            psp_addr: psp.addr(),
            storage_addr: router.addr(),
            master_key: MASTER_KEY.to_vec(),
            codec: P3Codec::new(P3Config { threshold: 15, ..Default::default() }),
            estimator: default_estimator(),
            reencode_quality: 90,
            secret_cache_capacity: 0,
            cache_shards: 1,
            server: p3_net::ServerConfig::default(),
        })
        .map_err(|e| format!("proxy: {e}"))?;
        Ok(SimCluster { psp, nodes, router_backend, fault_plan, router, proxy, base_dir })
    }

    /// Where clients send requests.
    pub fn proxy_addr(&self) -> SocketAddr {
        self.proxy.addr()
    }

    /// Kill node `i` (its durable directory survives). The compactor
    /// dies with the node — dead machines don't rewrite segments.
    pub fn kill_node(&mut self, i: usize) {
        self.nodes[i].compactor = None;
        if let Some(mut svc) = self.nodes[i].service.take() {
            svc.shutdown();
        }
    }

    /// Restart node `i` on its original address, re-opening the same
    /// data directory (a power-cycle, not a wipe): the packed store's
    /// recovery scan rebuilds the index from the needle log.
    pub fn restart_node(&mut self, i: usize) -> Result<(), String> {
        let node = &mut self.nodes[i];
        if node.service.is_some() {
            return Ok(());
        }
        let disk = Arc::new(
            PackedBackend::open_with(&node.dir, sim_node_config())
                .map_err(|e| format!("reopen node{i}: {e}"))?,
        );
        let core =
            Arc::new(StorageCore::with_backend(Arc::clone(&disk) as Arc<dyn StorageBackend>));
        let service = StorageService::respawn_on(node.addr, Arc::clone(&core))
            .map_err(|e| format!("rebind node{i} {}: {e}", node.addr))?;
        node.compactor = Some(Compactor::spawn(&disk, COMPACT_INTERVAL));
        node.disk = disk;
        node.core = core;
        node.service = Some(service);
        Ok(())
    }

    /// Flip one payload byte in every live needle inside node `i`'s
    /// segment files (frame headers left intact so only the CRC can
    /// catch it). Returns how many blobs were corrupted.
    pub fn corrupt_node_blobs(&self, i: usize) -> u64 {
        self.nodes[i].disk.corrupt_live_needles().map_or(0, |n| n as u64)
    }

    /// Asymmetric partition: the router can no longer reach node `i` —
    /// connects and reads black-hole (cost a deadline, no RST) — while
    /// the node itself stays up and reachable by everyone else.
    pub fn partition_node(&self, i: usize) {
        self.fault_plan.set(ROUTER_PEER, self.nodes[i].addr, FaultRule::black_holed());
    }

    /// Slow the router→node `i` link: every read off it waits `latency`
    /// first. The node itself answers everyone else at full speed.
    pub fn slow_node(&self, i: usize, latency: Duration) {
        let rule = FaultRule { latency, ..FaultRule::default() };
        self.fault_plan.set(ROUTER_PEER, self.nodes[i].addr, rule);
    }

    /// Start flipping one payload byte of every response node `i`
    /// sends the router — in-flight corruption the wire CRC must catch.
    pub fn flip_node_responses(&self, i: usize) {
        self.fault_plan.set(ROUTER_PEER, self.nodes[i].addr, FaultRule::flipping());
    }

    /// Heal whatever fault rule is on the router→node `i` link.
    pub fn heal_link(&self, i: usize) {
        self.fault_plan.clear(ROUTER_PEER, self.nodes[i].addr);
    }

    /// The cluster router's own HTTP address (`/admin/membership` lives
    /// here) — the soak's churn loop drives membership through it.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Router-level cluster counters (node failures, read repairs...).
    pub fn cluster_stats(&self) -> BackendStats {
        self.router_backend.stats()
    }

    /// Detected-corruption count summed over the live disk backends.
    pub fn corrupt_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.disk.stats().corrupt_reads).sum()
    }

    /// Tear everything down and remove the data directories.
    pub fn shutdown(mut self) {
        self.proxy.shutdown();
        self.router.shutdown();
        for node in &mut self.nodes {
            node.compactor = None;
            if let Some(mut svc) = node.service.take() {
                svc.shutdown();
            }
        }
        self.psp.shutdown();
        let _ = std::fs::remove_dir_all(&self.base_dir);
    }
}

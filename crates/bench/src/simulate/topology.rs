//! The simulated serving topology: PSP + 3 disk-backed storage nodes
//! behind a cluster router + trusted proxy, with a handle for every
//! fault the phase table arms: kill/restart and on-disk corruption
//! here, disk-full on each node's [`FaultBackend`], link faults on the
//! router's [`FaultTransport`].

use p3_core::pipeline::{P3Codec, P3Config};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig};
use p3_net::{FaultPlan, FaultRule, FaultTransport};
use p3_psp::{PspProfile, PspService};
use p3_storage::{
    ClusterBackend, ClusterConfig, Compactor, FaultBackend, PackedBackend, PackedConfig,
    StorageBackend, StorageCore, StorageService,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One storage node plus the handles chaos needs to reach inside it.
pub struct SimNode {
    /// Listening service and background compactor; `None` while the
    /// node is "dead" — a powered-off machine serves nothing and
    /// doesn't rewrite its own segments.
    running: Option<(StorageService, Compactor)>,
    /// The packed needle-log backend (needle corruption and stats).
    pub disk: Arc<PackedBackend>,
    /// The decorator the node serves `disk` through (disk-full).
    pub fault: Arc<FaultBackend>,
    /// Durable data directory — survives kill/restart.
    dir: PathBuf,
    /// Fixed address; restarts rebind the same port.
    pub addr: SocketAddr,
}

impl SimNode {
    /// Open (or re-open: a power-cycle, not a wipe — the packed store's
    /// recovery scan rebuilds the index from the needle log) node `i`'s
    /// store over `dir` and serve it, on `addr` when the node had one.
    fn start(i: usize, dir: PathBuf, addr: Option<SocketAddr>) -> Result<SimNode, String> {
        let disk = Arc::new(
            PackedBackend::open_with(&dir, sim_node_config())
                .map_err(|e| format!("open node{i}: {e}"))?,
        );
        let fault = Arc::new(FaultBackend::new(Arc::clone(&disk) as Arc<dyn StorageBackend>));
        let core =
            Arc::new(StorageCore::with_backend(Arc::clone(&fault) as Arc<dyn StorageBackend>));
        let service = match addr {
            Some(addr) => StorageService::respawn_on(addr, core),
            None => StorageService::spawn_with(core),
        }
        .map_err(|e| format!("bind node{i}: {e}"))?;
        let addr = service.addr();
        let compactor = Compactor::spawn(&disk, COMPACT_INTERVAL);
        Ok(SimNode { running: Some((service, compactor)), disk, fault, dir, addr })
    }

    /// Kill the node; its durable directory survives.
    pub fn stop(&mut self) {
        if let Some((mut service, _compactor)) = self.running.take() {
            service.shutdown();
        }
    }
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
    /// What a client would see *without* the proxy: public parts.
    pub psp: PspService,
    /// The three storage nodes, chaos-addressable by index.
    pub nodes: Vec<SimNode>,
    /// The cluster router backend (replica math + failure counters).
    pub router_backend: Arc<ClusterBackend>,
    /// Fault rules on the router→node links, consulted by the router's
    /// transport per connect/read/write; also counts what they did.
    pub fault_plan: Arc<FaultPlan>,
    /// The router's HTTP front (`/admin/membership` lives here).
    pub router: StorageService,
    /// Where clients send requests.
    pub proxy: P3Proxy,
    base_dir: PathBuf,
}

/// Source label the router's fault transport identifies itself by in
/// the [`FaultPlan`] — rules keyed on it hit only router→node traffic.
const ROUTER_PEER: &str = "router";

impl SimCluster {
    /// Spawn PSP, three disk nodes, router, and proxy. The secret cache
    /// is disabled so every read exercises the storage tier the chaos
    /// layer is attacking.
    pub fn spawn(tag: &str) -> Result<SimCluster, String> {
        let base_dir =
            std::env::temp_dir().join(format!("p3-simulate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base_dir);
        let psp = PspService::spawn(PspProfile::facebook()).map_err(|e| format!("psp: {e}"))?;
        let nodes = (0..3)
            .map(|i| SimNode::start(i, base_dir.join(format!("node{i}")), None))
            .collect::<Result<Vec<_>, _>>()?;
        let fault_plan = FaultPlan::new();
        let router_backend = Arc::new(
            ClusterBackend::with_transport(
                ClusterConfig {
                    nodes: nodes.iter().map(|n| n.addr).collect(),
                    replicas: 2,
                    backoff_base: Duration::from_millis(100),
                    // Cap escalation low: a phase lasts a second or so,
                    // and a healed node should be re-probed promptly,
                    // not parked for 30 s.
                    backoff_max: Duration::from_millis(400),
                    // Short deadlines so a black-holed link costs one
                    // bounded timeout, not a stalled worker.
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
            master_key: b"p3 simulate master key".to_vec(),
            codec: P3Codec::new(P3Config { threshold: 15 }),
            estimator: default_estimator(),
            reencode_quality: 90,
            secret_cache_capacity: 0,
            cache_shards: 1,
            server: p3_net::ServerConfig::default(),
        })
        .map_err(|e| format!("proxy: {e}"))?;
        Ok(SimCluster { psp, nodes, router_backend, fault_plan, router, proxy, base_dir })
    }

    /// Restart node `i` on its original address over the same data
    /// directory, fault-free.
    pub fn restart_node(&mut self, i: usize) -> Result<(), String> {
        let node = &mut self.nodes[i];
        node.stop();
        *node = SimNode::start(i, node.dir.clone(), Some(node.addr))?;
        Ok(())
    }

    /// Put `rule` on the router→node `i` link. The node itself stays
    /// up and answers everyone else untouched.
    pub fn fault_link(&self, i: usize, rule: FaultRule) {
        self.fault_plan.set(ROUTER_PEER, self.nodes[i].addr, rule);
    }

    /// Heal whatever fault rule is on the router→node `i` link.
    pub fn heal_link(&self, i: usize) {
        self.fault_plan.clear(ROUTER_PEER, self.nodes[i].addr);
    }
}

/// Tear everything down and remove the data directories, on every path
/// out of a run — an `Err` from a phase included.
impl Drop for SimCluster {
    fn drop(&mut self) {
        self.proxy.shutdown();
        self.router.shutdown();
        self.nodes.iter_mut().for_each(SimNode::stop);
        self.psp.shutdown();
        let _ = std::fs::remove_dir_all(&self.base_dir);
    }
}

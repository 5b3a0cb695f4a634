//! One builder for every in-process serving topology: the PSP
//! simulator, storage (one node, or N nodes behind a cluster router)
//! and the trusted proxy. `p3 simulate`, the system tests and the
//! examples all spawn through [`Stack::spawn`]; nothing else in the
//! repo but the CLI and the benchmark writes a [`ProxyConfig`].
//!
//! Every fault a harness can arm lives on the stack:
//!
//! * every link runs over one [`FaultPlan`]: the router's node traffic
//!   as [`ROUTER`], the proxy's PSP and storage traffic as [`PROXY`];
//! * every node serves its store through a [`FaultBackend`] (tamper,
//!   disk-full) and can be stopped and restarted on its own address.
//!
//! The master key, the view's re-encode quality (the one `p3 proxy`
//! ships) and the cache shard count are constants: no caller has needed
//! another value.

use p3_core::pipeline::{P3Codec, P3Config};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig, REENCODE_QUALITY};
use p3_net::{FaultPlan, FaultTransport, ServerConfig};
use p3_psp::{PspProfile, PspService};
use p3_storage::{
    ClusterBackend, ClusterConfig, Compactor, FaultBackend, MemBackend, PackedBackend,
    PackedConfig, StorageBackend, StorageCore, StorageService,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Source label of the router→node links in the stack's [`FaultPlan`].
pub const ROUTER: &str = "router";

/// Source label of the proxy→PSP and proxy→storage links.
pub const PROXY: &str = "proxy";

const MASTER_KEY: &[u8] = b"p3 stack master key";

/// How often a live packed node's compactor scans for victim segments.
const COMPACT_INTERVAL: Duration = Duration::from_millis(500);

/// What one storage node keeps its blobs in.
#[derive(Clone)]
pub enum Node {
    /// A fresh in-memory store.
    Mem,
    /// A packed needle log in this directory, compacted in the
    /// background. The stack removes the directory when it drops.
    Packed(PathBuf, PackedConfig),
    /// A store the caller built.
    Given(Arc<dyn StorageBackend>),
}

/// The storage tier's shape.
#[derive(Clone)]
pub enum Storage {
    /// One node; the proxy talks to it directly.
    One(Node),
    /// These nodes behind a cluster router built from this config, its
    /// `nodes` filled in with theirs.
    Cluster(Vec<Node>, ClusterConfig),
}

/// Everything a caller chooses about a stack.
#[derive(Clone)]
pub struct StackSpec {
    /// The PSP simulator's profile.
    pub profile: PspProfile,
    /// The proxy's split threshold T.
    pub threshold: u16,
    /// The proxy's secret cache, in entries (0 turns it off, so every
    /// read reaches storage).
    pub secret_cache_capacity: usize,
    /// The storage tier.
    pub storage: Storage,
}

impl Default for StackSpec {
    /// Facebook, T = 15, the default cache, one in-memory node.
    fn default() -> Self {
        StackSpec {
            profile: PspProfile::facebook(),
            threshold: 15,
            secret_cache_capacity: p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY,
            storage: Storage::One(Node::Mem),
        }
    }
}

/// One storage node and the handles a harness reaches inside it with.
pub struct StackNode {
    /// Fixed address; a restart rebinds it.
    pub addr: SocketAddr,
    /// The core the node serves (direct reads, read counters).
    pub core: Arc<StorageCore>,
    /// The decorator the node serves its store through.
    pub fault: Arc<FaultBackend>,
    /// The needle log under `fault`, on a packed node.
    pub packed: Option<Arc<PackedBackend>>,
    store: Node,
    /// Service and compactor; `None` while the node is stopped — a
    /// powered-off machine serves nothing and rewrites nothing.
    running: Option<(StorageService, Option<Compactor>)>,
}

impl StackNode {
    /// Open `store` and serve it, on `addr` when the node had one. A
    /// mem node's store is made here and kept across restarts.
    fn start(mut store: Node, addr: Option<SocketAddr>) -> Result<StackNode, String> {
        let (inner, packed) = match &mut store {
            Node::Mem => {
                let mem: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
                store = Node::Given(Arc::clone(&mem));
                (mem, None)
            }
            Node::Packed(dir, cfg) => {
                let disk = PackedBackend::open_with(dir, cfg.clone())
                    .map_err(|e| format!("open {}: {e}", dir.display()))?;
                let disk = Arc::new(disk);
                (Arc::clone(&disk) as Arc<dyn StorageBackend>, Some(disk))
            }
            Node::Given(backend) => (Arc::clone(backend), None),
        };
        let fault = Arc::new(FaultBackend::new(inner));
        let core = Arc::new(StorageCore::with_backend(Arc::clone(&fault) as Arc<_>));
        let service = match addr {
            Some(addr) => StorageService::respawn_on(addr, Arc::clone(&core)),
            None => StorageService::spawn_with(Arc::clone(&core)),
        }
        .map_err(|e| format!("bind node: {e}"))?;
        let compactor = packed.as_ref().map(|disk| Compactor::spawn(disk, COMPACT_INTERVAL));
        let addr = service.addr();
        Ok(StackNode { addr, core, fault, packed, store, running: Some((service, compactor)) })
    }

    /// Kill the node. A packed node's directory survives.
    pub fn stop(&mut self) {
        if let Some((mut service, _compactor)) = self.running.take() {
            service.shutdown();
        }
    }

    /// Stop the node, then serve it again on its address, fault-free. A
    /// packed node reopens its directory (a power cycle, not a wipe:
    /// the recovery scan rebuilds the index); any other keeps its store.
    pub fn restart(&mut self) -> Result<(), String> {
        self.stop();
        *self = StackNode::start(self.store.clone(), Some(self.addr))?;
        Ok(())
    }
}

/// The cluster router of a [`Storage::Cluster`] stack.
pub struct Cluster {
    /// Replica math, membership and failure counters.
    pub backend: Arc<ClusterBackend>,
    /// The router's HTTP front (`/admin/membership` lives here).
    pub router: StorageService,
}

/// A running stack. Dropping it stops everything and removes the packed
/// nodes' directories, on every path out of a run.
pub struct Stack {
    /// What a client sees *without* the proxy: public parts.
    pub psp: PspService,
    /// The storage nodes, in the order the spec gave them.
    pub nodes: Vec<StackNode>,
    /// Where clients send requests.
    pub proxy: P3Proxy,
    /// The rules every link of the stack consults, and what they did.
    pub faults: Arc<FaultPlan>,
    cluster: Option<Cluster>,
    proxy_cfg: ProxyConfig,
}

impl Stack {
    /// Spawn the PSP, the storage tier and the proxy `spec` describes.
    pub fn spawn(spec: StackSpec) -> Result<Stack, String> {
        let psp = PspService::spawn(spec.profile).map_err(|e| format!("psp: {e}"))?;
        let faults = FaultPlan::new();
        let (stores, cluster_cfg) = match spec.storage {
            Storage::One(node) => (vec![node], None),
            Storage::Cluster(nodes, cfg) => (nodes, Some(cfg)),
        };
        let nodes = stores
            .into_iter()
            .map(|store| StackNode::start(store, None))
            .collect::<Result<Vec<_>, _>>()?;
        let cluster = match cluster_cfg {
            None => None,
            Some(cfg) => {
                let cfg = ClusterConfig { nodes: nodes.iter().map(|n| n.addr).collect(), ..cfg };
                let transport = Arc::new(FaultTransport::new(ROUTER, Arc::clone(&faults)));
                let backend = ClusterBackend::with_transport(cfg, transport)
                    .map_err(|e| format!("cluster: {e}"))?;
                let backend = Arc::new(backend);
                let core = StorageCore::with_backend(Arc::clone(&backend) as Arc<_>);
                let router = StorageService::spawn_with(Arc::new(core))
                    .map_err(|e| format!("router: {e}"))?;
                Some(Cluster { backend, router })
            }
        };
        let proxy_cfg = ProxyConfig {
            psp_addr: psp.addr(),
            storage_addr: cluster.as_ref().map_or(nodes[0].addr, |c| c.router.addr()),
            master_key: MASTER_KEY.to_vec(),
            codec: P3Codec::new(P3Config { threshold: spec.threshold }),
            estimator: default_estimator(),
            reencode_quality: REENCODE_QUALITY,
            secret_cache_capacity: spec.secret_cache_capacity,
            cache_shards: p3_net::proxy::DEFAULT_CACHE_SHARDS,
            server: ServerConfig::default(),
        };
        let proxy = spawn_proxy(proxy_cfg.clone(), &faults)?;
        Ok(Stack { psp, nodes, proxy, faults, cluster, proxy_cfg })
    }

    /// The cluster router. Panics on a [`Storage::One`] stack.
    pub fn cluster(&self) -> &Cluster {
        self.cluster.as_ref().expect("a stack spawned with Storage::Cluster")
    }

    /// A second proxy, with this stack's key, T and cache, over its
    /// storage, in front of the PSP at `psp` (a stub that misbehaves).
    pub fn proxy_to(&self, psp: SocketAddr) -> Result<P3Proxy, String> {
        let mut cfg = self.proxy_cfg.clone();
        cfg.psp_addr = psp;
        spawn_proxy(cfg, &self.faults)
    }
}

fn spawn_proxy(cfg: ProxyConfig, faults: &Arc<FaultPlan>) -> Result<P3Proxy, String> {
    let transport = Arc::new(FaultTransport::new(PROXY, Arc::clone(faults)));
    P3Proxy::spawn_on("127.0.0.1:0", cfg, transport).map_err(|e| format!("proxy: {e}"))
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.proxy.shutdown();
        if let Some(cluster) = &mut self.cluster {
            cluster.router.shutdown();
        }
        self.nodes.iter_mut().for_each(StackNode::stop);
        self.psp.shutdown();
        for node in &self.nodes {
            if let Node::Packed(dir, _) = &node.store {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

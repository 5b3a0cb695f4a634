//! The serving topology, in-process on loopback with the shipped
//! defaults: PSP simulator, packed storage nodes (one, or three behind a
//! cluster router), trusted proxy. Everything started here is shut down
//! and joined when the `Topology` drops, on every path out.

use p3_core::pipeline::{P3Codec, P3Config};
use p3_net::proxy::{default_estimator, P3Proxy, ProxyConfig, DEFAULT_CACHE_SHARDS};
use p3_net::ServerConfig;
use p3_psp::{PspProfile, PspService};
use p3_storage::{
    ClusterBackend, ClusterConfig, Compactor, PackedBackend, PackedConfig, StorageBackend,
    StorageCore, StorageService,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const MASTER_KEY: &[u8] = b"p3 perfbench master key";
/// `p3 proxy`'s re-encode quality.
pub const REENCODE_QUALITY: u8 = 95;
pub const THRESHOLD: u16 = 15;

/// `perfbench/.work`: the only place the benchmark writes, beside the
/// build directory.
pub fn work_root() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest_dir.join(".work")
}

/// A scratch directory under `.work`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = work_root().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a workload asks of the topology.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Three nodes behind a cluster router (R = 2, 64 vnodes) instead of
    /// one node.
    pub cluster: bool,
    /// PSP and proxy in front, with this secret-cache capacity; `None` for
    /// storage-only traffic.
    pub secret_cache: Option<usize>,
    pub node: PackedConfig,
    /// A `Compactor` per node that passes this long after each resume
    /// (so once per segment), from [`Topology::start_compactors`] on.
    /// The CLI's default is 60 s, longer than a run, so the default
    /// plan starts none.
    pub compact_every: Option<Duration>,
}

impl Plan {
    pub fn describe(&self) -> String {
        let storage = if self.cluster {
            "cluster router over 3 packed nodes, replicas 2, vnodes 64"
        } else {
            "one packed node"
        };
        let front = match self.secret_cache {
            Some(capacity) => format!(
                "proxy (threshold {THRESHOLD}, re-encode q{REENCODE_QUALITY}, secret cache {} in {} shards, default estimator) + PSP facebook profile",
                capacity, DEFAULT_CACHE_SHARDS
            ),
            None => "no proxy, no PSP".to_string(),
        };
        format!(
            "{front}; {storage}; segments {} KiB, compaction floor {} KiB at ratio {}, {}; \
             group-commit fdatasync; ServerConfig::default() ({} offload workers, epoll); \
             codec pool {} threads. Storage latencies are this sandbox's page cache and disk, \
             not a device's.",
            self.node.segment_bytes >> 10,
            self.node.compact_min_bytes >> 10,
            self.node.compact_threshold,
            match self.compact_every {
                Some(d) =>
                    format!("a compaction pass per node {} ms into each segment", d.as_millis()),
                None => "no compactor within a run".to_string(),
            },
            ServerConfig::default().workers,
            p3_par::global().threads(),
        )
    }
}

pub struct Node {
    pub backend: Arc<PackedBackend>,
    service: StorageService,
    dir: PathBuf,
}

/// The plan's background compactors, which can be rested while a
/// reference sample runs: a compaction pass beside the sample would read
/// as a slow host.
pub struct Compactors {
    stores: Vec<Arc<PackedBackend>>,
    every: Duration,
    running: Mutex<Vec<Compactor>>,
}

impl Compactors {
    /// Start one compactor per node, unless they are running.
    pub fn resume(&self) {
        let mut running = self.running.lock().expect("no holder can panic");
        if running.is_empty() {
            *running = self.stores.iter().map(|s| Compactor::spawn(s, self.every)).collect();
        }
    }

    /// Stop and join them; a pass in progress finishes first.
    pub fn rest(&self) {
        self.running.lock().expect("no holder can panic").clear();
    }
}

impl Node {
    /// Open the store in `dir` and serve it; also returns the seconds
    /// the store's own open (the index rebuild) took.
    fn open(dir: &Path, plan: &Plan, addr: Option<SocketAddr>) -> Result<(Node, f64), String> {
        let t = Instant::now();
        let backend = Arc::new(
            PackedBackend::open_with(dir, plan.node.clone())
                .map_err(|e| format!("open {}: {e}", dir.display()))?,
        );
        let open_s = t.elapsed().as_secs_f64();
        let core =
            Arc::new(StorageCore::with_backend(Arc::clone(&backend) as Arc<dyn StorageBackend>));
        let service = match addr {
            Some(addr) => StorageService::respawn_on(addr, core),
            None => StorageService::spawn_with(core),
        }
        .map_err(|e| format!("storage node: {e}"))?;
        Ok((Node { backend, service, dir: dir.to_path_buf() }, open_s))
    }

    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }
}

pub struct Router {
    pub backend: Arc<ClusterBackend>,
    service: StorageService,
}

pub struct Topology {
    pub plan: Plan,
    pub proxy: Option<P3Proxy>,
    pub psp: Option<PspService>,
    pub router: Option<Router>,
    pub nodes: Vec<Node>,
    compactors: Option<Arc<Compactors>>,
    // Dropped last: the stores' files go after the stores.
    work: WorkDir,
}

impl Topology {
    pub fn spawn(plan: Plan) -> Result<Topology, String> {
        Self::spawn_tagged(plan, "run")
    }

    /// `tag` names the scratch directory, so that two topologies of one
    /// process (the one under test and the trace's rig) keep apart.
    pub fn spawn_tagged(plan: Plan, tag: &str) -> Result<Topology, String> {
        let work = WorkDir::create(tag).map_err(|e| format!("work dir: {e}"))?;
        // Built up inside a `Topology` so that a failure half-way drops,
        // and so shuts down, what was already started.
        let mut t = Topology {
            plan,
            proxy: None,
            psp: None,
            router: None,
            nodes: Vec::new(),
            compactors: None,
            work,
        };
        for i in 0..if t.plan.cluster { 3 } else { 1 } {
            let dir = t.work.path().join(format!("node{i}"));
            t.nodes.push(Node::open(&dir, &t.plan, None)?.0);
        }
        if t.plan.cluster {
            let backend = Arc::new(
                ClusterBackend::new(ClusterConfig {
                    nodes: t.nodes.iter().map(Node::addr).collect(),
                    ..ClusterConfig::default()
                })
                .map_err(|e| format!("cluster: {e}"))?,
            );
            let core = Arc::new(StorageCore::with_backend(
                Arc::clone(&backend) as Arc<dyn StorageBackend>
            ));
            let service = StorageService::spawn_with(core).map_err(|e| format!("router: {e}"))?;
            t.router = Some(Router { backend, service });
        }
        if let Some(secret_cache_capacity) = t.plan.secret_cache {
            let psp = PspService::spawn(PspProfile::facebook()).map_err(|e| format!("psp: {e}"))?;
            let psp_addr = psp.addr();
            t.psp = Some(psp);
            let proxy = P3Proxy::spawn(ProxyConfig {
                psp_addr,
                storage_addr: t.storage_addr(),
                master_key: MASTER_KEY.to_vec(),
                codec: P3Codec::new(P3Config { threshold: THRESHOLD, ..P3Config::default() }),
                estimator: default_estimator(),
                reencode_quality: REENCODE_QUALITY,
                secret_cache_capacity,
                cache_shards: DEFAULT_CACHE_SHARDS,
                server: ServerConfig::default(),
            })
            .map_err(|e| format!("proxy: {e}"))?;
            t.proxy = Some(proxy);
        }
        Ok(t)
    }

    /// The storage tier's front door: the router, or the only node.
    pub fn storage_addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.service.addr(),
            None => self.nodes[0].addr(),
        }
    }

    /// Where the clients of this plan send their requests.
    pub fn front_addr(&self) -> SocketAddr {
        match &self.proxy {
            Some(p) => p.addr(),
            None => self.storage_addr(),
        }
    }

    /// Close every packed store and open it again on the same files and
    /// the same address: the index is rebuilt by scanning the needle
    /// log, as after a restart. Returns the seconds the opens took and
    /// the needles (live blobs + tombstones) they indexed.
    pub fn reopen_nodes(&mut self) -> Result<(f64, usize), String> {
        let mut open_s = 0.0;
        let mut needles = 0;
        let plan = self.plan.clone();
        for slot in 0..self.nodes.len() {
            let addr = self.nodes[slot].addr();
            let dir = self.nodes[slot].dir.clone();
            // Take the node apart by hand: the server, then the last
            // handle on the store.
            let Node { backend, mut service, .. } = self.nodes.remove(slot);
            service.shutdown();
            drop(service);
            match Arc::try_unwrap(backend) {
                Ok(store) => drop(store),
                Err(_) => return Err("a packed store is still referenced after shutdown".into()),
            }
            let (node, node_open_s) = Node::open(&dir, &plan, Some(addr))?;
            open_s += node_open_s;
            needles += node.backend.len()
                + node.backend.list_tombstones(None, usize::MAX).map_or(0, |t| t.len());
            self.nodes.insert(slot, node);
        }
        Ok((open_s, needles))
    }

    /// Start the plan's background compactors, if it has any. Last in
    /// set-up: a `compact_once` of set-up's own must not race one of
    /// theirs for the same victim segment, and a reopen needs the last
    /// handle on each store.
    pub fn start_compactors(&mut self) -> Option<Arc<Compactors>> {
        let every = self.plan.compact_every?;
        let compactors = Arc::new(Compactors {
            stores: self.nodes.iter().map(|n| Arc::clone(&n.backend)).collect(),
            every,
            running: Mutex::new(Vec::new()),
        });
        compactors.resume();
        self.compactors = Some(Arc::clone(&compactors));
        Some(compactors)
    }

    /// Bytes the packed stores hold on disk, over all nodes.
    pub fn disk_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.backend.disk_bytes()).sum()
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        // Front to back, so nothing is shut down under a live caller.
        if let Some(mut proxy) = self.proxy.take() {
            proxy.shutdown();
        }
        if let Some(mut router) = self.router.take() {
            router.service.shutdown();
        }
        if let Some(compactors) = self.compactors.take() {
            compactors.rest();
        }
        for node in &mut self.nodes {
            node.service.shutdown();
        }
        if let Some(mut psp) = self.psp.take() {
            psp.shutdown();
        }
    }
}

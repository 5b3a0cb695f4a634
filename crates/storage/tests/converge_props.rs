//! Property test for the cluster router's one convergence pass
//! (`ClusterBackend::sweep_once`, and the same pass inside every
//! membership change), driven by randomized histories over a quiet
//! 3–5-node in-memory cluster at R=2: puts, deletes, a node losing its
//! disk (respawned empty on its port), a node joining, a node leaving.
//!
//! After any such history, sweeping until a pass streams nothing must
//! leave every surviving blob byte-identical on *every* current
//! replica, no deleted blob live on any replica of its set, the
//! fallback window closed, and nothing left for one more pass to do.
//!
//! Two rules keep the histories inside what the tier promises. Blobs
//! are write-once (the proxy writes each secret part exactly once,
//! keyed by PSP photo id): a re-put repeats the same bytes, and a
//! deleted id is never written again. And at R=2 a blob has one spare
//! copy: at most one node loses its disk between two passes.

use p3_storage::{ClusterBackend, ClusterConfig, StorageBackend, StorageCore, StorageService};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u8),
    Delete(u8),
    /// The `n % members`-th node loses its disk.
    Wipe(u8),
    Add,
    /// The `n % members`-th node leaves.
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..12, 0u8..12).prop_map(|(kind, n)| match kind {
        0..=4 => Op::Put(n),
        5..=6 => Op::Delete(n),
        7..=8 => Op::Wipe(n),
        9 => Op::Add,
        _ => Op::Remove(n),
    })
}

fn id_str(id: u8) -> String {
    format!("photo-{id}")
}

/// A blob's bytes are a function of its id: blobs are write-once.
fn payload(id: u8) -> Vec<u8> {
    (0..64 + usize::from(id)).map(|i| id ^ (i as u8)).collect()
}

/// Sweep until a pass streams nothing; `false` if three were not enough.
fn sweep_clean(cluster: &ClusterBackend) -> bool {
    (0..3).any(|_| cluster.sweep_once() == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_quiet_history_converges(
        start in 3usize..=5,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let mut members: Vec<StorageService> =
            (0..start).map(|_| StorageService::spawn().expect("node")).collect();
        // Drained nodes stay up to the end, like a real decommission.
        let mut retired: Vec<StorageService> = Vec::new();
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: members.iter().map(StorageService::addr).collect(),
            replicas: 2,
            ..ClusterConfig::default()
        })
        .expect("cluster");
        // id → live (true) or deleted (false).
        let mut model: BTreeMap<u8, bool> = BTreeMap::new();
        let mut wiped_since_pass = false;
        for op in &ops {
            match *op {
                Op::Put(id) if model.get(&id) != Some(&false) => {
                    cluster.put(&id_str(id), &payload(id)).expect("put");
                    model.insert(id, true);
                }
                Op::Delete(id) if model.contains_key(&id) => {
                    cluster.delete(&id_str(id)).expect("delete");
                    model.insert(id, false);
                }
                Op::Wipe(n) => {
                    if wiped_since_pass {
                        prop_assert!(sweep_clean(&cluster), "no clean pass after a wipe");
                    }
                    let victim = usize::from(n) % members.len();
                    let addr = members[victim].addr();
                    members[victim].shutdown();
                    let empty = Arc::new(StorageCore::new());
                    members[victim] = StorageService::respawn_on(addr, empty).expect("respawn");
                    wiped_since_pass = true;
                }
                Op::Add if members.len() < 5 => {
                    let node = StorageService::spawn().expect("node");
                    cluster.add_node(node.addr()).expect("add");
                    members.push(node);
                    wiped_since_pass = false;
                }
                Op::Remove(n) if members.len() > 3 => {
                    let node = members.remove(usize::from(n) % members.len());
                    cluster.remove_node(node.addr()).expect("remove");
                    retired.push(node);
                    wiped_since_pass = false;
                }
                _ => {}
            }
        }
        prop_assert!(sweep_clean(&cluster), "three passes and still streaming");
        prop_assert!(!cluster.rebalance_window_open(), "a clean pass must close the window");
        let cores: BTreeMap<SocketAddr, &Arc<StorageCore>> =
            members.iter().map(|node| (node.addr(), node.core())).collect();
        for (&id, &live) in &model {
            let name = id_str(id);
            let replicas = cluster.replicas_for(&name);
            prop_assert_eq!(replicas.len(), 2);
            for addr in replicas {
                let held = cores[&addr].get(&name).expect("node get");
                if live {
                    let want = payload(id);
                    prop_assert_eq!(held.as_deref(), Some(&want[..]), "{} on {}", name, addr);
                } else {
                    prop_assert!(held.is_none(), "deleted {name} is live on its replica {addr}");
                }
            }
            let read = cluster.get(&name).expect("cluster get");
            let want = live.then(|| payload(id));
            prop_assert_eq!(read.as_deref(), want.as_deref(), "{} through the router", name);
        }
        prop_assert_eq!(cluster.sweep_once(), 0, "a converged cluster must sweep clean");
    }
}

//! The chaos script: [`PHASES`], run one after the other. A phase arms
//! its fault, fires a probe aimed at a blob of known placement (so the
//! fault is *touched*, whatever the ring did with this run's ports),
//! lets the caller drive a batch, disarms, and books the counters it
//! owns.
//!
//! No blob ever loses its last *healthy* replica, with one deliberate
//! exception: node1's blobs are corrupted on disk while node0 is still
//! down, so a blob replicated exactly on {node0, node1} has no intact
//! copy until the restart. That used to be the silent false-404 path (a
//! corrupt copy read as an authoritative miss); the router must answer
//! it as a *detected* 503 and read-repair once node0 returns.

use crate::stack::{Stack, ROUTER};
use p3_net::FaultRule;
use p3_storage::{ClusterBackend, StorageBackend, StorageService};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `BENCH_simulate.json`'s `chaos` section, in order: the counter, what
/// it counts, and whether only a soak moves it. Each must end a run
/// ≥ 1, or the fault it stands for never provably fired.
pub const COUNTERS: [(&str, &str, bool); 12] = [
    ("node_kills", "times node0 was killed", false),
    ("node_failures_observed", "failed node requests the router saw with node0 dead", false),
    ("delayed_ops", "router reads the slow link to node1 delayed", false),
    ("full_rejections", "writes node2 refused while its disk was full", false),
    ("blobs_corrupted", "needles flipped on disk under node1", false),
    ("corrupt_reads_detected", "CRC misses node1's store caught with node0 still down", false),
    ("read_repairs", "replicas the router rewrote once node0 was back", false),
    ("partition_blackholes", "router→node2 ops the black hole swallowed", false),
    (
        "corrupt_degraded_detected",
        "router integrity rejects while corruption overlapped the kill (each a would-be false 404)",
        false,
    ),
    ("integrity_rejects", "router wire-CRC rejects of node0's responses flipped in flight", false),
    ("membership_churns", "add→drain membership cycles the churn loop completed", true),
    ("churn_deletes", "blobs the churn loop wrote, then tombstoned, through the router", true),
];

/// The [`COUNTERS`] values of one run, each booked by the phase that
/// armed its fault.
#[derive(Debug, Default)]
pub struct ChaosReport([u64; COUNTERS.len()]);

impl ChaosReport {
    /// Add `n` to `counter`.
    pub fn add(&mut self, counter: &str, n: u64) {
        let at = COUNTERS.iter().position(|(name, ..)| *name == counter);
        self.0[at.expect("a counter of the schema")] += n;
    }

    /// `(name, value)` rows of the `chaos` section.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        COUNTERS.iter().zip(self.0).map(|((name, ..), n)| (*name, n as f64)).collect()
    }
}

/// What a phase does to the topology before its batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Nothing — after [`converge`], so the phase starts whole.
    None,
    /// Kill node0; it stays down through the next phase.
    Kill,
    /// Flip a byte in every needle under node1 while node0 is down.
    CorruptDegraded,
    /// Restart node0 over its data directory.
    Restart,
    /// Delay every read off the router→node1 link.
    Slow,
    /// Black-hole the router→node2 link; node2 itself stays healthy.
    Partition,
    /// Node2 refuses writes as a full disk would.
    DiskFull,
    /// Flip one payload byte of each response node0 sends the router.
    Flip,
}

/// One row of the script.
#[derive(Debug)]
pub struct Phase {
    /// The phase's `BENCH_simulate.json` section.
    pub name: &'static str,
    /// The fault armed while the phase's batch runs.
    pub fault: Fault,
    /// The node whose probe is fired once the fault is armed, and
    /// whether the right answer is the payload (`true`: served intact,
    /// by failover if need be) or an explicit error (`false`).
    probe: Option<(usize, bool)>,
    /// The [`COUNTERS`] whose movement during the phase is its own.
    books: &'static [&'static str],
}

const fn phase(
    name: &'static str,
    fault: Fault,
    probe: Option<(usize, bool)>,
    books: &'static [&'static str],
) -> Phase {
    Phase { name, fault, probe, books }
}

/// The script. A phase with no fault must see no error at all.
pub const PHASES: [Phase; 9] = [
    phase("healthy", Fault::None, None, &[]),
    phase("kill", Fault::Kill, Some((0, true)), &["node_failures_observed"]),
    // Corrupt on node1, unreachable on node0: only an error is right.
    phase(
        "corrupt_degraded",
        Fault::CorruptDegraded,
        Some((1, false)),
        &["corrupt_reads_detected", "corrupt_degraded_detected"],
    ),
    // Node1's copy is still rotten: the read must fall through to
    // node0 and rewrite node1 from it.
    phase("restart", Fault::Restart, Some((1, true)), &["read_repairs"]),
    phase("slow", Fault::Slow, Some((1, true)), &["delayed_ops"]),
    phase("partition", Fault::Partition, Some((2, true)), &["partition_blackholes"]),
    // The probe is a write here: one that needs the full disk.
    phase("disk_full", Fault::DiskFull, Some((2, false)), &["full_rejections"]),
    phase("flip", Fault::Flip, Some((0, true)), &["integrity_rejects"]),
    phase("healed", Fault::None, None, &[]),
];

/// Injected per-read latency for the slow phase.
const SLOW: Duration = Duration::from_millis(15);

const PROBE_PAYLOAD: &[u8] = b"simulate probe payload";

/// One blob per node, written through the router while everything is
/// healthy, whose replica list is exactly that node then another the
/// script never corrupts: `[n0, n2]`, `[n1, n0]` (the one pair the
/// overlap leaves with no intact copy) and `[n2, n0]`. A phase aims one
/// request at the node it broke instead of hoping the workload's blobs
/// landed there.
pub struct Probes {
    ids: [String; 3],
    /// Membership churn runs alongside, so a probe's placement moves
    /// while a fourth node is in the ring and its aim can be off.
    churning: bool,
}

impl Probes {
    /// Find an id for each placement and write it.
    pub fn place(stack: &Stack, churning: bool) -> Result<Probes, String> {
        let router = &stack.cluster().backend;
        let place = |first: usize, second: usize| -> Result<String, String> {
            let want = [stack.nodes[first].addr, stack.nodes[second].addr];
            let id = (0..10_000)
                .map(|n| format!("probe-{n}"))
                .find(|id| router.replicas_for(id) == want)
                .ok_or("no probe id maps to the wanted replica placement")?;
            let put = router.put(&id, PROBE_PAYLOAD);
            put.map(|()| id).map_err(|e| format!("write probe: {e}"))
        };
        Ok(Probes { ids: [place(0, 2)?, place(1, 0)?, place(2, 0)?], churning })
    }

    /// Fire `phase`'s probe through the router. Wrong bytes and a
    /// definitive miss (the false 404) are never right; of the two
    /// right answers, the one the fault does not call for means the aim
    /// was off, which only moving membership excuses.
    fn fire(&self, stack: &Stack, phase: &Phase) -> Result<(), String> {
        let Some((node, want_served)) = phase.probe else { return Ok(()) };
        let (name, id, router) = (phase.name, &self.ids[node], &stack.cluster().backend);
        let served = match phase.fault {
            Fault::DiskFull => router.put(id, PROBE_PAYLOAD).is_ok(),
            _ => match router.get(id) {
                Ok(Some(body)) if &body[..] == PROBE_PAYLOAD => true,
                Ok(Some(_)) => return Err(format!("{name}: probe {id} served wrong bytes")),
                Ok(None) => return Err(format!("{name}: probe {id} answered a false 404")),
                Err(_) => false,
            },
        };
        if served == want_served || self.churning {
            Ok(())
        } else {
            Err(format!("{name}: probe {id} served = {served}, the fault calls for {want_served}"))
        }
    }
}

/// With nothing broken, let anti-entropy finish what the last faults
/// (and, in a soak, the last membership change) left open: sweep until
/// a pass streams nothing.
pub fn converge(router: &ClusterBackend) {
    let _clean_pass_seen = (0..4).any(|_| router.sweep_once() == 0);
}

/// The live value behind each [`COUNTERS`] entry a phase can book.
fn live(stack: &Stack) -> [(&'static str, u64); 8] {
    let router = stack.cluster().backend.stats();
    [
        ("node_failures_observed", router.node_failures),
        ("corrupt_reads_detected", stack.nodes[1].fault.stats().corrupt_reads),
        ("corrupt_degraded_detected", router.integrity_rejects),
        ("read_repairs", router.read_repairs),
        ("delayed_ops", stack.faults.delayed()),
        ("partition_blackholes", stack.faults.black_holed()),
        ("full_rejections", stack.nodes[2].fault.full_rejections()),
        ("integrity_rejects", router.integrity_rejects),
    ]
}

/// Run one phase: arm, probe, `drive` the batch, disarm, book. The
/// probe fires *before* the batch, while the target node is still in
/// the router's good books — after a few failed requests it is ejected
/// and reads stop trying it first.
pub fn run_phase<T>(
    stack: &mut Stack,
    probes: &Probes,
    phase: &Phase,
    report: &mut ChaosReport,
    drive: impl FnOnce() -> T,
) -> Result<T, String> {
    let before = live(stack);
    // A link fault sits on the router→node link only: the node stays up
    // and answers everyone else untouched.
    let link = |i: usize, rule| stack.faults.set(ROUTER, stack.nodes[i].addr, rule);
    match phase.fault {
        Fault::None => converge(&stack.cluster().backend),
        Fault::Kill => {
            stack.nodes[0].stop();
            report.add("node_kills", 1);
        }
        // One payload byte per live needle, frame headers intact, so
        // only the CRC can catch it.
        Fault::CorruptDegraded => {
            let disk = stack.nodes[1].packed.as_ref().ok_or("node1 is not packed")?;
            let rotted = disk.corrupt_live_needles().map_err(|e| format!("rot node1: {e}"))?;
            report.add("blobs_corrupted", rotted as u64);
        }
        Fault::Restart => stack.nodes[0].restart()?,
        Fault::Slow => link(1, FaultRule { latency: SLOW, ..FaultRule::default() }),
        Fault::Partition => link(2, FaultRule::black_holed()),
        Fault::DiskFull => stack.nodes[2].fault.fill(true),
        Fault::Flip => link(0, FaultRule::flipping()),
    }
    probes.fire(stack, phase)?;
    let driven = drive();
    let heal = |i: usize| stack.faults.clear(ROUTER, stack.nodes[i].addr);
    match phase.fault {
        Fault::Slow => heal(1),
        Fault::Partition => heal(2),
        Fault::DiskFull => stack.nodes[2].fault.fill(false),
        Fault::Flip => heal(0),
        Fault::None | Fault::Kill | Fault::CorruptDegraded | Fault::Restart => {}
    }
    for ((counter, then), (_, now)) in before.iter().zip(live(stack)) {
        if phase.books.contains(counter) {
            report.add(counter, now - then);
        }
    }
    Ok(driven)
}

/// Soak-mode membership churn: repeatedly fold a fresh in-memory node
/// into the cluster through the router's `POST /admin/membership`
/// route, let it take traffic, then drain it back out — and, each
/// cycle, write and delete a batch of short-lived blobs through the
/// router, so tombstones propagate across changing membership and the
/// nodes' compactors get dead frames to reclaim. Runs until `stop`.
///
/// A change that cannot copy what it moves while a fault is armed is
/// refused with the membership unchanged, so each change is retried
/// until the router's membership shows it took. A drained node holds
/// nothing the cluster needs and is dropped at once.
///
/// Returns completed add→drain cycles, churn deletes, and the node the
/// stop caught still a member, if any — handed back alive, as killing
/// it would fabricate an outage nobody scheduled.
pub fn run_churn(
    router: SocketAddr,
    backend: Arc<ClusterBackend>,
    stop: &AtomicBool,
) -> (u64, u64, Option<StorageService>) {
    const CHURN_BLOBS: usize = 8;
    const CHURN_BLOB_BYTES: usize = 16 << 10;
    const POLL: Duration = Duration::from_millis(100);
    let stopped = || stop.load(Ordering::Relaxed);
    // Apply one membership change, retrying until `addr`'s membership
    // is `member`; false on `stop`.
    let change = |op: &str, addr: SocketAddr, member: bool| {
        while !stopped() {
            let body = format!("{op} {addr}\n").into_bytes();
            let _ = p3_net::client::http_post(router, "/admin/membership", "text/plain", body);
            if backend.membership().is_some_and(|view| view.nodes.contains(&addr) == member) {
                return true;
            }
            std::thread::sleep(POLL);
        }
        false
    };
    let (mut churns, mut deletes) = (0u64, 0u64);
    for cycle in 1u64.. {
        for k in 0..CHURN_BLOBS {
            let id = format!("churn-{cycle}-{k}");
            let body = vec![(cycle as u8) ^ (k as u8); CHURN_BLOB_BYTES];
            if backend.put(&id, &body).is_ok() && backend.delete(&id).unwrap_or(false) {
                deletes += 1;
            }
        }
        let Ok(extra) = StorageService::spawn() else { break };
        if !change("add", extra.addr(), true) {
            break;
        }
        // Let the new member serve for a moment.
        std::thread::sleep(10 * POLL);
        if !change("remove", extra.addr(), false) {
            return (churns, deletes, Some(extra));
        }
        churns += 1;
    }
    (churns, deletes, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables agree: every counter of the schema is booked by
    /// exactly one owner — a phase, an arming step, or the churn loop.
    #[test]
    fn every_counter_has_exactly_one_owner() {
        let mut owned = vec!["node_kills", "blobs_corrupted", "membership_churns", "churn_deletes"];
        owned.extend(PHASES.iter().flat_map(|p| p.books));
        let mut all: Vec<&str> = COUNTERS.iter().map(|(name, ..)| *name).collect();
        owned.sort_unstable();
        all.sort_unstable();
        assert_eq!(owned, all);
    }
}

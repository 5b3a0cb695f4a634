//! Per-node health: the circuit breaker that ejects a failing node from
//! the first read pass and re-probes it on a jittered exponential
//! backoff.

use super::converge::Membership;
use super::ClusterBackend;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;
use std::time::Instant;

/// Per-node circuit breaker. Shared across membership epochs by
/// address, so an ejection outlives the epoch bump that kept the node.
#[derive(Debug, Default)]
pub(super) struct NodeHealth {
    consecutive_failures: AtomicU32,
    /// How many backoff windows this outage has already burned —
    /// exponent of the next window's duration. Reset on any success.
    backoff_exp: AtomicU32,
    ejected_until: Mutex<Option<Instant>>,
}

/// Multiplier in `[1 - jitter, 1 + jitter)` from a global splitmix64
/// stream (the offline build has no `rand`; splitmix is plenty for
/// de-synchronizing probe schedules). `jitter <= 0` is exactly 1.0, so
/// tests get deterministic windows.
fn jitter_factor(jitter: f64) -> f64 {
    if jitter <= 0.0 {
        return 1.0;
    }
    static STATE: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut z = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 - jitter + 2.0 * jitter * unit
}

impl ClusterBackend {
    pub(super) fn available(&self, m: &Membership, node: usize) -> bool {
        match *m.health[node].ejected_until.lock() {
            Some(until) => Instant::now() >= until,
            None => true,
        }
    }

    pub(super) fn mark_ok(&self, m: &Membership, node: usize) {
        m.health[node].consecutive_failures.store(0, Ordering::Relaxed);
        m.health[node].backoff_exp.store(0, Ordering::Relaxed);
        *m.health[node].ejected_until.lock() = None;
    }

    pub(super) fn mark_failure(&self, m: &Membership, node: usize) {
        self.stats.node_failure();
        let health = &m.health[node];
        let fails = health.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails < self.cfg.eject_after {
            return;
        }
        let mut ejected = health.ejected_until.lock();
        let now = Instant::now();
        // A failure inside an open window (writes still attempt ejected
        // nodes) must not extend it — the scheduled probe happens on
        // schedule, or a dead node under write traffic is never probed.
        if let Some(until) = *ejected {
            if now < until {
                return;
            }
        }
        // First trip of this outage, or a failed post-expiry probe:
        // schedule the next window, doubling per burned window.
        if fails == self.cfg.eject_after {
            self.stats.node_ejected();
            health.backoff_exp.store(0, Ordering::Relaxed);
        }
        let exp = health.backoff_exp.fetch_add(1, Ordering::Relaxed).min(16);
        let window = (self.cfg.backoff_base.as_secs_f64() * 2f64.powi(exp as i32))
            .min(self.cfg.backoff_max.as_secs_f64())
            * jitter_factor(self.cfg.backoff_jitter);
        self.stats.backoff();
        *ejected = Some(now + Duration::from_secs_f64(window.max(0.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{respawn_on, spawn_nodes};
    use super::super::ClusterConfig;
    use super::*;
    use crate::{StorageBackend, StorageCore};
    use std::sync::Arc;

    #[test]
    fn ejection_skips_dead_node_then_probes_after_cooldown() {
        let mut nodes = spawn_nodes(2);
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|s| s.addr()).collect(),
            replicas: 2,
            eject_after: 2,
            backoff_base: Duration::from_millis(300),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster.put("e", b"x").unwrap();
        let primary = cluster.replicas_for("e")[0];
        let idx = nodes.iter().position(|n| n.addr() == primary).unwrap();
        nodes[idx].shutdown();
        // Enough failed reads to trip the breaker…
        for _ in 0..3 {
            cluster.get("e").unwrap();
        }
        assert!(cluster.stats().nodes_ejected >= 1, "dead node must be ejected");
        let failures_when_ejected = cluster.stats().node_failures;
        // …after which reads stop probing it (no new failures)…
        for _ in 0..5 {
            cluster.get("e").unwrap();
        }
        // …including *misses*: with miss quorum 1 (R=2, W=2) the live
        // replica's 404 is definitive, so the last-resort pass must not
        // pay the dead node's connect cost either.
        assert_eq!(cluster.get("never-written").unwrap(), None);
        assert_eq!(
            cluster.stats().node_failures,
            failures_when_ejected,
            "ejected node must not be probed inside the cooldown"
        );
        // …until the cooldown expires and probing resumes.
        std::thread::sleep(Duration::from_millis(350));
        cluster.get("e").unwrap();
        assert!(cluster.stats().node_failures > failures_when_ejected);
    }

    #[test]
    fn backoff_windows_double_while_probes_keep_failing() {
        let mut nodes = spawn_nodes(2);
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(|s| s.addr()).collect(),
            replicas: 2,
            eject_after: 1,
            backoff_base: Duration::from_millis(200),
            backoff_jitter: 0.0,
            op_retries: 0,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster.put("b", b"x").unwrap();
        let primary = cluster.replicas_for("b")[0];
        let idx = nodes.iter().position(|n| n.addr() == primary).unwrap();
        nodes[idx].shutdown();
        // First failed read trips the breaker: one ejection, one
        // scheduled window (200 ms).
        cluster.get("b").unwrap();
        assert_eq!(cluster.stats().nodes_ejected, 1);
        assert_eq!(cluster.stats().backoffs, 1);
        let failures = cluster.stats().node_failures;
        // Probe after expiry fails → second window, doubled to 400 ms.
        std::thread::sleep(Duration::from_millis(250));
        cluster.get("b").unwrap();
        assert_eq!(cluster.stats().backoffs, 2, "failed post-expiry probe must escalate");
        assert_eq!(cluster.stats().node_failures, failures + 1);
        // 250 ms later we are *inside* the doubled window: no probe, no
        // new failure — the whole point of escalating.
        std::thread::sleep(Duration::from_millis(250));
        cluster.get("b").unwrap();
        assert_eq!(cluster.stats().node_failures, failures + 1, "doubled window must hold");
        assert_eq!(cluster.stats().nodes_ejected, 1, "still one outage");
        // Recovery resets the exponent: the next outage starts at base.
        let reborn = Arc::new(StorageCore::new());
        let _svc = respawn_on(primary, Arc::clone(&reborn));
        std::thread::sleep(Duration::from_millis(200));
        cluster.get("b").unwrap();
        assert_eq!(reborn.len(), 1, "read-repair must heal the reborn node");
        assert_eq!(cluster.stats().backoffs, 2, "success must not schedule a window");
    }
}

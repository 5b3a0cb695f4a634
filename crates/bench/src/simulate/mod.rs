//! `p3 simulate` — the million-user workload driver and chaos harness.
//!
//! Spins up the full serving topology (PSP simulator, three
//! disk-backed storage nodes behind a cluster router, trusted proxy)
//! and drives it with an **open-loop** Zipfian workload: request
//! arrival times are drawn up front from a seeded exponential process,
//! and every latency is measured from the *scheduled* arrival, not
//! from when a worker got around to sending it — so queueing delay
//! under overload is charged to the percentiles instead of silently
//! omitted (the coordinated-omission trap).
//!
//! Mid-run, a chaos controller injects the fault classes the storage
//! tier claims to survive:
//!
//! 1. **kill/restart** — a node process dies and later returns with its
//!    durable directory intact;
//! 2. **slow node** — injected per-op latency at one node's core;
//! 3. **disk full** — one node's packed store rejects writes with an
//!    ENOSPC-style error;
//! 4. **corruption** — needle payload bytes flipped inside a live
//!    node's segment files (the frame CRC must turn these into
//!    detected failures, never bytes and never false 404s);
//! 5. **partition** — an asymmetric black hole on one router→node link
//!    (connects and reads swallow a deadline instead of RSTing) while
//!    the node stays healthy for everyone else;
//! 6. **corrupt-while-degraded** — corruption deliberately overlapping
//!    a kill window, so some blobs briefly have *no* intact replica:
//!    the router must answer with a detected 503, never the false 404
//!    a corrupt copy used to masquerade as.
//!
//! With `--soak SECS` the run stretches to a fixed wall-clock duration
//! and folds in **membership churn**: a background loop adds a fresh
//! node through the router's `/admin/membership` route, lets it take
//! traffic, then drains it back out, over and over, while the chaos
//! windows fire. Each churn cycle also writes and deletes a batch of
//! blobs through the router — tombstones propagate across the changing
//! membership and the nodes' background compactors reclaim the dead
//! needle frames mid-run.
//!
//! The harness *asserts* the 503-never-wrong-data invariant: every
//! client-visible response is byte-identical to the pinned golden copy
//! or an explicit error — and the run only passes if each fault class
//! provably fired (counter ≥ 1). Results land in a self-validating
//! `BENCH_simulate.json`.

pub mod chaos;
pub mod report;
pub mod topology;
pub mod workload;

use crate::util::check_metric_schema;
use p3_net::stats::parse_metric_json;

/// Simulation parameters (CLI flags map 1:1 onto these).
#[derive(Debug, Clone)]
pub struct SimulateOpts {
    /// Synthetic user-population size (Zipf-sampled request issuers).
    pub users: usize,
    /// Distinct photos uploaded and pinned before the run.
    pub photos: usize,
    /// Total requests in the open-loop schedule.
    pub requests: usize,
    /// Target arrival rate (requests/second) of the open-loop process.
    pub target_rps: f64,
    /// Fraction of requests that are reads (rest are fresh uploads).
    pub read_mix: f64,
    /// Zipf exponent for photo popularity and user activity.
    pub zipf_exponent: f64,
    /// Seed for the whole run (schedule, mix, Zipf draws, photo content).
    pub seed: u64,
    /// Closed set of worker threads draining the open-loop schedule.
    pub workers: usize,
    /// Inject the chaos fault classes mid-run.
    pub chaos: bool,
    /// Soak duration in seconds; `0` disables soak mode. When set, the
    /// request count is derived from `target_rps × soak_secs` and a
    /// membership-churn loop runs alongside the chaos controller.
    pub soak_secs: u64,
    /// Where to write `BENCH_simulate.json`.
    pub out_path: String,
}

impl SimulateOpts {
    /// CI smoke scale: seconds, not minutes.
    pub fn quick() -> SimulateOpts {
        SimulateOpts {
            users: 10_000,
            photos: 10,
            requests: 260,
            target_rps: 130.0,
            read_mix: 0.9,
            zipf_exponent: 1.1,
            seed: 42,
            workers: 8,
            chaos: true,
            soak_secs: 0,
            out_path: "target/BENCH_simulate_quick.json".into(),
        }
    }

    /// Full scale: a million-user population over a larger pinned
    /// corpus, the committed-baseline configuration.
    pub fn full() -> SimulateOpts {
        SimulateOpts {
            users: 1_000_000,
            photos: 32,
            requests: 2400,
            target_rps: 240.0,
            workers: 16,
            out_path: "BENCH_simulate.json".into(),
            ..SimulateOpts::quick()
        }
    }
}

/// Section → field names `BENCH_simulate.json` must carry — the single
/// source of truth for self-validation and the `--check-schema` guard.
pub fn expected_schema() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "workload",
            vec![
                "users",
                "photos",
                "requests",
                "target_rps",
                "achieved_rps",
                "read_mix",
                "zipf_exponent",
                "soak_secs",
                "wall_s",
            ],
        ),
        (
            "latency",
            vec![
                "read_p50_ms",
                "read_p95_ms",
                "read_p99_ms",
                "read_max_ms",
                "write_p50_ms",
                "write_p95_ms",
                "write_p99_ms",
                "write_max_ms",
            ],
        ),
        ("outcomes", vec!["ok_reads", "ok_writes", "explicit_errors", "wrong_data"]),
        (
            "chaos",
            vec![
                "enabled",
                "node_kills",
                "node_failures_observed",
                "delayed_ops",
                "full_rejections",
                "blobs_corrupted",
                "corrupt_reads_detected",
                "read_repairs",
                "partition_blackholes",
                "corrupt_degraded_detected",
                "integrity_rejects",
                "membership_churns",
                "churn_deletes",
            ],
        ),
    ]
}

/// Schema guard over a committed `BENCH_simulate.json`.
pub fn check_schema(path: &str) -> Result<(), String> {
    check_metric_schema(path, &expected_schema())
}

/// Semantic self-validation: the invariants that make a run a pass.
/// `soak` additionally requires the membership-churn loop to have
/// completed at least one full add→drain cycle.
pub fn validate(path: &str, chaos: bool, soak: bool) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("re-read {path}: {e}"))?;
    let parsed = parse_metric_json(&src)?;
    let field = |section: &str, name: &str| -> Result<f64, String> {
        parsed
            .iter()
            .find(|(s, _)| s == section)
            .and_then(|(_, m)| m.iter().find(|(f, _)| f == name))
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{section}.{name} missing"))
    };
    // The invariant the whole harness exists to prove.
    if field("outcomes", "wrong_data")? != 0.0 {
        return Err(
            "wrong_data responses observed — the 503-never-wrong-data invariant broke".into()
        );
    }
    if field("outcomes", "ok_reads")? < 1.0 {
        return Err("no read ever succeeded — the run proved nothing".into());
    }
    if field("workload", "achieved_rps")? <= 0.0 {
        return Err("achieved_rps is zero".into());
    }
    if chaos {
        // Each fault class must provably have fired.
        for (name, why) in [
            ("node_kills", "no node was ever killed"),
            ("node_failures_observed", "the dead node was never contacted"),
            ("delayed_ops", "the slow-node window delayed nothing"),
            ("full_rejections", "the full disk rejected no write"),
            ("blobs_corrupted", "no blob was corrupted on disk"),
            ("corrupt_reads_detected", "no corrupt blob was ever read (fault unobserved)"),
            ("partition_blackholes", "the partition black-holed no router op"),
            (
                "corrupt_degraded_detected",
                "corrupt-while-degraded never tripped an integrity reject (the false-404 \
                 path went unexercised)",
            ),
            ("integrity_rejects", "the router never rejected a copy on integrity grounds"),
        ] {
            if field("chaos", name)? < 1.0 {
                return Err(format!("chaos.{name} is zero: {why}"));
            }
        }
    }
    if soak && field("chaos", "membership_churns")? < 1.0 {
        return Err("chaos.membership_churns is zero: the soak's churn loop never completed \
                    a cycle"
            .into());
    }
    if soak && field("chaos", "churn_deletes")? < 1.0 {
        return Err("chaos.churn_deletes is zero: the soak never tombstoned a churn blob, so \
                    compaction had nothing to reclaim"
            .into());
    }
    Ok(())
}

/// Run the simulation end to end; writes, self-validates, and
/// schema-checks `opts.out_path`.
pub fn run(opts: &SimulateOpts) -> Result<(), String> {
    let out = report::run_simulation(opts)?;
    std::fs::write(&opts.out_path, &out).map_err(|e| format!("write {}: {e}", opts.out_path))?;
    validate(&opts.out_path, opts.chaos, opts.soak_secs > 0)?;
    check_metric_schema(&opts.out_path, &expected_schema())?;
    println!("wrote {} (self-validated)", opts.out_path);
    Ok(())
}

//! Orchestration + `BENCH_simulate.json` rendering: topology up,
//! corpus pinned, open-loop workload, chaos controller, and (in soak
//! mode) membership churn running concurrently, deterministic
//! backstop, metric JSON out.

use super::chaos::{self, ChaosReport};
use super::topology::SimCluster;
use super::workload;
use super::SimulateOpts;
use crate::util::percentile;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Run the whole simulation and render the metric JSON (not yet
/// written to disk — `super::run` owns the file + validation).
pub fn run_simulation(opts: &SimulateOpts) -> Result<String, String> {
    // Soak mode: the request count follows from rate × duration, and
    // membership churn joins the fault mix.
    let mut opts = opts.clone();
    if opts.soak_secs > 0 {
        opts.requests = ((opts.target_rps * opts.soak_secs as f64).ceil() as usize).max(1);
    }
    let opts = &opts;
    if opts.photos == 0 || opts.requests == 0 {
        return Err("need at least one photo and one request".into());
    }
    if !(0.0..=1.0).contains(&opts.read_mix) {
        return Err("--read-mix must be in [0, 1]".into());
    }
    let mut cluster = SimCluster::spawn(&format!("s{}", opts.seed))?;
    let proxy = cluster.proxy_addr();
    let router_addr = cluster.router_addr();
    let router_backend = Arc::clone(&cluster.router_backend);

    println!(
        "simulate: {} users, {} pinned photos, {} requests @ {:.0} rps (chaos {}{})",
        opts.users,
        opts.photos,
        opts.requests,
        opts.target_rps,
        if opts.chaos { "on" } else { "off" },
        if opts.soak_secs > 0 { ", soak + churn" } else { "" }
    );
    let pinned = workload::pin_corpus(proxy, opts.photos, opts.seed)?;

    let progress = AtomicUsize::new(0);
    let mut chaos_report = ChaosReport::default();
    let mut result = None;
    // Undrained churn members must outlive the final sweep: they are
    // still cluster members, so killing them early would fabricate an
    // outage the chaos script didn't schedule.
    let mut undrained = Vec::new();
    let chaos_outcome: Result<(), String> = std::thread::scope(|s| {
        let handle = s.spawn(|| workload::run_open_loop(proxy, &pinned, opts, &progress));
        let churn_handle = (opts.soak_secs > 0).then(|| {
            let backend = Arc::clone(&router_backend);
            let progress = &progress;
            s.spawn(move || chaos::run_churn(router_addr, backend, progress, opts.requests))
        });
        let outcome = if opts.chaos {
            chaos::run_controller(&mut cluster, &progress, opts.requests).map(|r| chaos_report = r)
        } else {
            Ok(())
        };
        result = handle.join().ok();
        if let Some(h) = churn_handle {
            if let Ok((churns, deletes, leftover)) = h.join() {
                chaos_report.membership_churns = churns;
                chaos_report.churn_deletes = deletes;
                undrained = leftover;
            }
        }
        outcome
    });
    chaos_outcome?;
    let mut result = result.ok_or("workload workers panicked")?;

    if opts.chaos {
        chaos::backstop(&mut cluster, &pinned, &mut chaos_report)?;
    }
    if opts.soak_secs > 0 && chaos_report.membership_churns == 0 {
        return Err("soak run completed zero membership churn cycles".into());
    }
    cluster.shutdown();
    drop(undrained);

    println!(
        "simulate: {} ok reads, {} ok writes, {} explicit errors, {} wrong-data in {:.1}s",
        result.ok_reads, result.ok_writes, result.explicit_errors, result.wrong_data, result.wall_s
    );
    if opts.chaos {
        println!(
            "chaos: kills={} node_failures={} delayed_ops={} full_rejections={} \
             corrupted={} corrupt_reads={} read_repairs={} partition_blackholes={} \
             corrupt_degraded={} integrity_rejects={} churns={} churn_deletes={}",
            chaos_report.node_kills,
            chaos_report.node_failures_observed,
            chaos_report.delayed_ops,
            chaos_report.full_rejections,
            chaos_report.blobs_corrupted,
            chaos_report.corrupt_reads_detected,
            chaos_report.read_repairs,
            chaos_report.partition_blackholes,
            chaos_report.corrupt_degraded_detected,
            chaos_report.integrity_rejects,
            chaos_report.membership_churns,
            chaos_report.churn_deletes,
        );
    }

    let answered = result.ok_reads + result.ok_writes + result.explicit_errors + result.wrong_data;
    result.read_lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    result.write_lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (reads, writes) = (&result.read_lat_ms, &result.write_lat_ms);
    let sections: Vec<(&str, Vec<(&str, f64)>)> = vec![
        (
            "workload",
            vec![
                ("users", opts.users as f64),
                ("photos", opts.photos as f64),
                ("requests", opts.requests as f64),
                ("target_rps", opts.target_rps),
                ("achieved_rps", answered as f64 / result.wall_s.max(1e-9)),
                ("read_mix", opts.read_mix),
                ("zipf_exponent", opts.zipf_exponent),
                ("soak_secs", opts.soak_secs as f64),
                ("wall_s", result.wall_s),
            ],
        ),
        (
            "latency",
            vec![
                ("read_p50_ms", percentile(reads, 50.0)),
                ("read_p95_ms", percentile(reads, 95.0)),
                ("read_p99_ms", percentile(reads, 99.0)),
                ("read_max_ms", percentile(reads, 100.0)),
                ("write_p50_ms", percentile(writes, 50.0)),
                ("write_p95_ms", percentile(writes, 95.0)),
                ("write_p99_ms", percentile(writes, 99.0)),
                ("write_max_ms", percentile(writes, 100.0)),
            ],
        ),
        (
            "outcomes",
            vec![
                ("ok_reads", result.ok_reads as f64),
                ("ok_writes", result.ok_writes as f64),
                ("explicit_errors", result.explicit_errors as f64),
                ("wrong_data", result.wrong_data as f64),
            ],
        ),
        (
            "chaos",
            vec![
                ("enabled", if opts.chaos { 1.0 } else { 0.0 }),
                ("node_kills", chaos_report.node_kills as f64),
                ("node_failures_observed", chaos_report.node_failures_observed as f64),
                ("delayed_ops", chaos_report.delayed_ops as f64),
                ("full_rejections", chaos_report.full_rejections as f64),
                ("blobs_corrupted", chaos_report.blobs_corrupted as f64),
                ("corrupt_reads_detected", chaos_report.corrupt_reads_detected as f64),
                ("read_repairs", chaos_report.read_repairs as f64),
                ("partition_blackholes", chaos_report.partition_blackholes as f64),
                ("corrupt_degraded_detected", chaos_report.corrupt_degraded_detected as f64),
                ("integrity_rejects", chaos_report.integrity_rejects as f64),
                ("membership_churns", chaos_report.membership_churns as f64),
                ("churn_deletes", chaos_report.churn_deletes as f64),
            ],
        ),
    ];
    Ok(p3_net::stats::render_metrics(&sections))
}

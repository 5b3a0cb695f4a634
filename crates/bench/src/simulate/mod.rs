//! `p3 simulate` — the whole-system chaos script.
//!
//! Spins up the full serving topology (PSP simulator, three
//! disk-backed storage nodes behind a cluster router, trusted proxy),
//! pins a golden photo corpus, then walks [`chaos::PHASES`] in order:
//! healthy → kill node0 → corrupt node1 while node0 is down → restart →
//! slow node1 → partition router→node2 → disk-full node2 → flip node0's
//! responses → healed. Each phase arms one fault, aims a probe at it,
//! drives a fixed **closed-loop** batch of hash-verified requests from a
//! plan that is a pure function of `--seed`, disarms, and books its own
//! outcomes and fault counters. Network faults are rules on the
//! router's [`p3_net::FaultTransport`], store faults switches on each
//! node's [`p3_storage::FaultBackend`]. With `--soak SECS` the table
//! loops until the deadline with [`chaos::run_churn`] alongside.
//!
//! The harness *asserts* the 503-never-wrong-data invariant: every
//! client-visible response is byte-identical to the pinned golden copy
//! or an explicit error, an explicit error happens only while a fault
//! is armed, and each fault class provably fired in its own phase.
//! Results — counts only, nothing timed — land in a self-validating
//! `BENCH_simulate.json`.

pub mod chaos;
pub mod topology;
pub mod workload;

use crate::util::check_metric_schema;
use chaos::{ChaosReport, Fault, Probes, COUNTERS, PHASES};
use p3_net::stats::{parse_metric_json, render_metrics};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use topology::SimCluster;
use workload::{Outcomes, Request};

/// What `p3 simulate` can be told; everything else about a run is a
/// constant.
#[derive(Debug, Clone)]
pub struct SimulateOpts {
    /// CI smoke scale: a smaller corpus and batch, seconds not minutes.
    pub quick: bool,
    /// Seed for the whole run (request plan, photo content).
    pub seed: u64,
    /// `0` runs the phase table once; otherwise it loops for this many
    /// seconds with a membership-churn loop alongside.
    pub soak_secs: u64,
    /// Where to write `BENCH_simulate.json`.
    pub out_path: String,
}

/// Pinned photos and requests per phase, at full and at `--quick` scale.
const FULL_SCALE: (usize, usize) = (32, 240);
const QUICK_SCALE: (usize, usize) = (10, 30);

/// Schema guard over a committed `BENCH_simulate.json`: its sections
/// and fields must be the ones `render` writes today.
pub fn check_schema(path: &str) -> Result<(), String> {
    let blank = [Outcomes::default(); PHASES.len()];
    check_metric_schema(path, &render(0, (0, 0), 0, &blank, &ChaosReport::default()))
}

/// Semantic self-validation of a rendered report: the invariants that
/// make a run a pass. `soak` requires the membership-churn loop to have
/// completed at least one full add→drain cycle, and in exchange lets
/// the fault-free phases see explicit errors.
pub fn validate(report: &str, soak: bool) -> Result<(), String> {
    let parsed = parse_metric_json(report)?;
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
        return Err("outcomes.wrong_data is not zero: 503-never-wrong-data broke".into());
    }
    if field("outcomes", "ok_reads")? < 1.0 {
        return Err("outcomes.ok_reads is zero — the run proved nothing".into());
    }
    // An explicit error needs a fault to blame: with none armed, none.
    // (A soak is never fault-free: membership moves under every phase,
    // and a read can meet a not-yet-streamed new owner next to a copy
    // an earlier round left rotten.)
    for phase in PHASES.iter().filter(|p| !soak && p.fault == Fault::None) {
        if field(phase.name, "explicit_errors")? != 0.0 {
            return Err(format!("{}.explicit_errors is not zero with no fault armed", phase.name));
        }
    }
    // Each fault class must provably have fired.
    for (name, counts, soak_only) in COUNTERS.iter().filter(|c| soak || !c.2) {
        if field("chaos", name)? < 1.0 {
            let when = if *soak_only { "soak" } else { "run" };
            return Err(format!("chaos.{name} is zero: the {when} saw no {counts}"));
        }
    }
    Ok(())
}

fn render(
    seed: u64,
    (photos, batch): (usize, usize),
    rounds: u64,
    per_phase: &[Outcomes],
    chaos: &ChaosReport,
) -> String {
    let mut total = Outcomes::default();
    per_phase.iter().for_each(|o| total += *o);
    let mut sections = vec![(
        "run",
        vec![
            ("seed", seed as f64),
            ("photos", photos as f64),
            ("requests_per_phase", batch as f64),
            ("rounds", rounds as f64),
        ],
    )];
    sections.extend(PHASES.iter().zip(per_phase).map(|(phase, o)| {
        let fields = vec![
            ("ok", (o.ok_reads + o.ok_writes) as f64),
            ("explicit_errors", o.explicit_errors as f64),
            ("wrong_data", o.wrong_data as f64),
        ];
        (phase.name, fields)
    }));
    sections.push((
        "outcomes",
        vec![
            ("ok_reads", total.ok_reads as f64),
            ("ok_writes", total.ok_writes as f64),
            ("explicit_errors", total.explicit_errors as f64),
            ("wrong_data", total.wrong_data as f64),
        ],
    ));
    sections.push(("chaos", chaos.fields()));
    render_metrics(&sections)
}

/// Run the simulation end to end; self-validates, writes and
/// schema-checks `opts.out_path`.
pub fn run(opts: &SimulateOpts) -> Result<(), String> {
    let scale = if opts.quick { QUICK_SCALE } else { FULL_SCALE };
    let (photos, batch) = scale;
    let soak = opts.soak_secs > 0;
    let (seed, phases) = (opts.seed, PHASES.len());
    println!("simulate: seed {seed}, {photos} pinned photos, {phases} phases x {batch} requests");
    let mut cluster = SimCluster::spawn(&format!("s{}", opts.seed))?;
    let proxy = cluster.proxy.addr();
    let pinned = workload::pin_corpus(proxy, photos, opts.seed)?;
    let probes = Probes::place(&cluster, soak)?;

    let mut per_phase = [Outcomes::default(); PHASES.len()];
    let mut chaos = ChaosReport::default();
    let mut rounds = 0u64;
    let deadline = Instant::now() + Duration::from_secs(opts.soak_secs);
    let stop_churn = AtomicBool::new(false);
    // A churn node the stop caught still serving must outlive the final
    // sweep: killing it early would fabricate an outage the script
    // didn't schedule.
    let _still_serving = std::thread::scope(|s| {
        let churn = soak.then(|| {
            let (router, backend) = (cluster.router.addr(), Arc::clone(&cluster.router_backend));
            let stop = &stop_churn;
            s.spawn(move || chaos::run_churn(router, backend, stop))
        });
        let script = (|| loop {
            for (i, phase) in PHASES.iter().enumerate() {
                let phase_no = rounds * PHASES.len() as u64 + i as u64;
                let plan = workload::request_plan(opts.seed, photos, batch, phase_no);
                per_phase[i] += chaos::run_phase(&mut cluster, &probes, phase, &mut chaos, || {
                    workload::run_batch(proxy, &pinned, &plan)
                })?;
            }
            rounds += 1;
            if Instant::now() >= deadline {
                return Ok::<(), String>(());
            }
        })();
        stop_churn.store(true, Ordering::Relaxed);
        let mut undrained = None;
        if let Some(handle) = churn {
            let (churns, deletes, leftover) = handle.join().map_err(|_| "churn loop panicked")?;
            chaos.add("membership_churns", churns);
            chaos.add("churn_deletes", deletes);
            undrained = leftover;
        }
        script.map(|()| undrained)
    })?;
    // The final sweep: with everything healed (the churn loop may have
    // changed membership after the last phase, so converge once more),
    // every pinned photo must read back byte-identical — not even an
    // explicit error is acceptable now.
    chaos::converge(&cluster.router_backend);
    let every_photo: Vec<Request> = (0..pinned.len()).map(Request::Read).collect();
    let swept = workload::run_batch(proxy, &pinned, &every_photo);
    if swept.ok_reads != pinned.len() as u64 {
        return Err(format!("final sweep of {} pinned photos: {swept:?}", pinned.len()));
    }
    let report = render(opts.seed, scale, rounds, &per_phase, &chaos);
    print!("{report}");
    validate(&report, soak)?;
    std::fs::write(&opts.out_path, &report).map_err(|e| format!("write {}: {e}", opts.out_path))?;
    check_schema(&opts.out_path)?;
    println!("wrote {} (self-validated)", opts.out_path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A passing soak report: every batch answered, every counter moved.
    fn clean() -> String {
        let answered = Outcomes { ok_reads: 27, ok_writes: 3, ..Outcomes::default() };
        let faulted = Outcomes { explicit_errors: 2, ..answered };
        let per_phase: Vec<Outcomes> = PHASES
            .iter()
            .map(|p| if p.fault == Fault::None { answered } else { faulted })
            .collect();
        let mut chaos = ChaosReport::default();
        COUNTERS.iter().for_each(|(name, ..)| chaos.add(name, 1));
        render(42, QUICK_SCALE, 1, &per_phase, &chaos)
    }

    /// `clean()` with one field overwritten.
    fn doctored(section: &str, field: &str, value: f64) -> String {
        let mut doc = parse_metric_json(&clean()).unwrap();
        let (_, fields) = doc.iter_mut().find(|(s, _)| s == section).expect("section");
        fields.iter_mut().find(|(f, _)| f == field).expect("field").1 = value;
        let sections: Vec<(&str, Vec<(&str, f64)>)> = doc
            .iter()
            .map(|(s, fields)| (s.as_str(), fields.iter().map(|(f, v)| (f.as_str(), *v)).collect()))
            .collect();
        render_metrics(&sections)
    }

    #[test]
    fn clean_report_validates_and_times_nothing() {
        validate(&clean(), true).unwrap();
        validate(&clean(), false).unwrap();
        for (section, fields) in parse_metric_json(&clean()).unwrap() {
            for (field, _) in fields {
                let timed = ["_ms", "_s", "_rps"].iter().any(|unit| field.ends_with(unit));
                assert!(!timed, "{section}.{field} is a wall-clock figure");
            }
        }
    }

    #[test]
    fn validate_rejects_each_broken_invariant_by_name() {
        let mut cases = vec![
            ("outcomes", "wrong_data", 1.0, false),
            ("outcomes", "ok_reads", 0.0, false),
            ("healthy", "explicit_errors", 1.0, false),
            ("healed", "explicit_errors", 1.0, false),
        ];
        cases.extend(COUNTERS.iter().map(|(name, _, soak_only)| ("chaos", *name, 0.0, *soak_only)));
        for (section, field, value, soak) in cases {
            let err = validate(&doctored(section, field, value), soak)
                .expect_err(&format!("{section}.{field} = {value} must be rejected"));
            assert!(err.starts_with(&format!("{section}.{field} ")), "{section}.{field}: {err}");
        }
        // What is allowed: errors while a fault is armed — membership
        // churn counts as one — and a plain run that never churned.
        validate(&doctored("partition", "explicit_errors", 30.0), false).unwrap();
        validate(&doctored("healed", "explicit_errors", 1.0), true).unwrap();
        validate(&doctored("chaos", "membership_churns", 0.0), false).unwrap();
        validate(&doctored("chaos", "churn_deletes", 0.0), false).unwrap();
    }
}

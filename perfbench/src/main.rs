//! The repo's benchmark: four closed-loop workloads against the serving
//! topology in-process, timings per unit of a host-speed index measured
//! inside each run, and an outside-in layer trace. See `README.md`.

mod aa;
mod client;
mod corpus;
mod gen;
mod host;
mod json;
mod layers;
mod runner;
mod spec;
mod stats;
mod topology;
mod trace;
mod workloads;

use host::{HostProbe, Sample, Usage};
use runner::{run_window, Outcome, Tally};
use stats::{scaled, Timed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use workloads::{prepare, Prepared, Scale};

/// Counts allocations while a trace asks for it; otherwise one relaxed
/// load on top of the system allocator.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the layout it was
// given; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and bytes allocated while counting was on.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// One end-to-end run's findings.
struct RunReport {
    tally: Tally,
    metrics: Vec<(&'static str, f64)>,
    /// The timed figures and the set-up as the clock read them.
    raw: Vec<(&'static str, f64)>,
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    spec::WORKLOADS.iter().map(|w| w.name).find(|n| *n == name).ok_or(format!(
        "unknown workload {name:?}; one of upload, browse_hot, browse_cold, blob_direct"
    ))
}

fn print_samples(samples: &[Sample]) {
    println!("reference samples ({} ms):", host::PART_NAMES.join(" "));
    for s in samples {
        let parts: Vec<String> = s.parts_ms.iter().map(|p| format!("{p:.2}")).collect();
        println!("  {}  index {:.3}", parts.join(" "), s.index());
    }
}

fn run_end_to_end(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    started: Instant,
    probe: &mut HostProbe,
) -> Result<RunReport, String> {
    let setup_usage = Usage::now();
    let Prepared { mut drivers, topology, stored_bytes_ratio, pause, check, .. } =
        prepare(workload, seed, scale)?;
    let setup_wall = started.elapsed().as_secs_f64();
    let setup_granted = Usage::now().granted_since(&setup_usage);
    println!("settings: {}", topology.plan.describe());
    println!("generators: 2 closed-loop clients on 2 keep-alive connections; sample threads pinned to CPUs {:?}", probe.cpus());

    let window = run_window(
        &mut drivers,
        seconds,
        scale.segment_s,
        scale.warmup_segments,
        probe,
        pause.as_ref(),
    )?;
    let mut tally = window.tally;
    if let Err(e) = check(&topology) {
        tally.count(&Outcome::Wrong(e));
    }
    let peak_rss_mb = host::peak_rss_mb();
    drop(drivers);
    drop(topology);

    let index = window.sampling.index();
    let t = scaled(&window.segments, index);
    let run_granted = window.usage_end.granted_since(&window.usage_start);

    println!("segments (ops, ops/s, p50 ms, p90 ms, cpu ms/op, granted), as the clock read:");
    for s in &window.segments {
        println!(
            "  {:5} {:9.2} {:8.3} {:8.3} {:8.3} {:.3}",
            s.ops, s.rate, s.p50_ms, s.p90_ms, s.cpu_ms_per_op, s.granted
        );
    }
    print_samples(&window.sampling.samples);
    println!(
        "run index {index:.4} (median of {} samples x {:.4} granted them), granted over the window \
         {run_granted:.4}, p95 {:.3} ms, p99 {:.3} ms (pooled, as the clock read)",
        window.sampling.samples.len(),
        window.sampling.granted(),
        window.tail_ms.0,
        window.tail_ms.1
    );
    for reason in &tally.reasons {
        println!("  {reason}");
    }
    let Timed { ops_per_s, p50_ms, p90_ms, cpu_ms_per_op } = window.pooled;
    Ok(RunReport {
        tally,
        metrics: vec![
            ("setup_s", setup_wall * setup_granted / index),
            ("ops_per_s", t.ops_per_s),
            ("p50_ms", t.p50_ms),
            ("p90_ms", t.p90_ms),
            ("cpu_ms_per_op", t.cpu_ms_per_op),
            ("peak_rss_mb", peak_rss_mb),
            ("stored_bytes_ratio", stored_bytes_ratio),
        ],
        raw: vec![
            ("setup_s", setup_wall),
            ("ops_per_s", ops_per_s),
            ("p50_ms", p50_ms),
            ("p90_ms", p90_ms),
            ("cpu_ms_per_op", cpu_ms_per_op),
        ],
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in table order.
fn metrics_json(values: &[(&'static str, f64)]) -> String {
    let unit = |name: &str| -> &'static str {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit(name)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(tally: &Tally, metrics: &[(&'static str, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        metrics_json(metrics)
    )
}

/// Run one workload as the driver asks and print the result line last.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    started: Instant,
) -> Result<bool, String> {
    let workload = workload_name(workload)?;
    let mut probe = HostProbe::new().map_err(|e| format!("host probe: {e}"))?;
    if trace {
        let report = layers::run(workload, seed, scale, &mut probe)?;
        print_samples(&report.samples);
        for reason in &report.tally.reasons {
            println!("  {reason}");
        }
        let metrics: Vec<(&'static str, f64)> = spec::PER_LAYER
            .iter()
            .map(|m| (m.name, report.metrics.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        for (name, v) in &metrics {
            println!("  {name:28} {v:.4}");
        }
        if let Some(why) = &report.gate {
            println!("GATE: {why}");
        }
        println!("{}", result_line(&report.tally, &metrics));
        Ok(report.tally.wrong == 0 && report.gate.is_none())
    } else {
        let report = run_end_to_end(workload, seed, seconds, scale, started, &mut probe)?;
        println!("as-the-clock-read {}", metrics_json(&report.raw));
        println!("{}", result_line(&report.tally, &report.metrics));
        Ok(report.tally.wrong == 0)
    }
}

/// All four workloads and their traces, small and fast: a smoke test.
fn run_quick() -> Result<bool, String> {
    let scale = Scale::quick();
    let mut good = true;
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            println!(
                "== --quick {} --trace {} (NOT FOR USE: a smoke test's numbers)",
                w.name,
                u8::from(trace)
            );
            good &= run_one(w.name, 1, 2.2, trace, &scale, Instant::now())?;
        }
    }
    Ok(good)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: None,
        print_spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--aa" => args.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--quick" => args.quick = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: p3-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       p3-perfbench --quick          all four workloads and traces as a smoke test
       p3-perfbench --aa <N>         the acceptance check on itself: two sets of N runs
       p3-perfbench --print-spec     BENCHMARK.json as the tables have it";

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.print_spec {
            print!("{}", spec::benchmark_json());
            Ok(true)
        } else if let Some(n) = args.aa {
            aa::run(n)
        } else if args.quick {
            run_quick()
        } else {
            let workload = args.workload.ok_or(USAGE.to_string())?;
            run_one(&workload, args.seed, args.seconds, args.trace, &Scale::full(), started)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("p3-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

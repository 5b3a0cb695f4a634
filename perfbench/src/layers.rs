//! `--trace 1`: one set-up, the workload's stream replayed serially
//! (first untraced, then traced), probes on a rig of their own, and the
//! per-layer metrics assembled from spans and public counters.

use crate::client::Conn;
use crate::host::{HostProbe, Sample, Sampling, Usage};
use crate::json::Value;
use crate::runner::{Driver, Pause, Tally};
use crate::stats::{mean, nearest_rank};
use crate::topology::{work_root, Topology};
use crate::trace::{mean_of, HopRig, Rig, TraceCtx, Tracer};
use crate::workloads::{prepare, Prepared, Scale};
use p3_net::{RequestParser, Response};
use p3_psp::{PspCore, PspProfile, SizeRequest};
use p3_storage::{BackendStats, StorageBackend};
use p3_vision::image::ImageF32;
use p3_vision::resize::{resize, ResizeFilter};
use std::collections::BTreeMap;
use std::time::Duration;

/// Between reference samples and housekeeping passes of the replay.
const BATCH: usize = 20;

/// The closure gate: on these workloads the unrolled path must account
/// for the end-to-end time within this share, or a handler step is
/// missing from it.
const GATED: [&str; 2] = ["upload", "browse_hot"];
const MAX_UNATTRIBUTED: f64 = 0.15;

pub struct LayerReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub samples: Vec<Sample>,
    /// Set when the closure gate failed.
    pub gate: Option<String>,
}

/// Counters of the whole process at one instant.
struct Marks {
    usage: Usage,
    allocs: (u64, u64),
    front: BackendStats,
    nodes: Vec<BackendStats>,
    disk_bytes: u64,
    /// The proxy's secret-cache hits, misses and evictions.
    cache: [f64; 3],
}

fn front_stats(topology: &Topology) -> BackendStats {
    match &topology.router {
        Some(router) => router.backend.stats(),
        None => topology.nodes[0].backend.stats(),
    }
}

impl Marks {
    fn take(topology: &Topology) -> Marks {
        Marks {
            usage: Usage::now(),
            allocs: crate::alloc_counts(),
            front: front_stats(topology),
            nodes: topology.nodes.iter().map(|n| n.backend.stats()).collect(),
            disk_bytes: topology.disk_bytes(),
            cache: topology.proxy.as_ref().map_or([0.0; 3], |proxy| {
                let s = proxy.stats();
                [&s.cache_hits, &s.cache_misses, &s.cache_evictions]
                    .map(|a| a.load(std::sync::atomic::Ordering::Relaxed) as f64)
            }),
        }
    }
}

/// Replay `ops` operations serially, the two clients taking turns.
fn replay(
    drivers: &mut [Box<dyn Driver>],
    ops: usize,
    mut trace: Option<(&mut TraceCtx, &mut HostProbe, &mut Sampling)>,
    pause: &dyn Fn(Pause),
    tally: &mut Tally,
) -> Vec<f64> {
    let mut request_ms = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % BATCH == 0 {
            if let Some((_, probe, sampling)) = trace.as_mut() {
                pause(Pause::Rest);
                sampling.take(probe);
                pause(Pause::Resume);
            }
            for driver in drivers.iter_mut() {
                if let Err(e) = driver.housekeeping() {
                    tally.count(&crate::runner::Outcome::Failed(format!("housekeeping: {e}")));
                }
            }
        }
        let n = drivers.len();
        let step = drivers[i % n].step(trace.as_mut().map(|(ctx, _, _)| &mut **ctx));
        tally.count(&step.outcome);
        request_ms.push(step.request.as_secs_f64() * 1e3);
    }
    request_ms
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Public calls no operation isolates, timed on a rig of their own.
/// Unscaled, in the metric's unit.
fn probes(topology: &Topology, quick: bool) -> Result<BTreeMap<&'static str, f64>, String> {
    let reps = |n: usize| if quick { (n / 10).max(2) } else { n };
    let mut out = BTreeMap::new();

    // One empty job across the codec pool.
    let pool = p3_par::global();
    let lanes = pool.threads();
    out.insert("par.dispatch_us", ms(mean_of(reps(2000), || pool.run(lanes, |_| {}))) * 1e3);

    // The PSP ladder's and Eq. 2's work-horse: Lanczos3, 320x240 -> 130x98.
    let mut plane = ImageF32::new(320, 240);
    for y in 0..240 {
        for x in 0..320 {
            plane.set(x, y, ((x * 7 + y * 13) % 256) as f32);
        }
    }
    out.insert(
        "vision.resize_ms",
        ms(mean_of(reps(30), || resize(&plane, 130, 98, ResizeFilter::Lanczos3))),
    );

    // A dynamic resize holds the PSP's photo-map lock through transform
    // and encode. No benched workload asks for one.
    let psp = PspCore::new(PspProfile::facebook());
    let photo = crate::corpus::photos(1, 1)?.remove(0);
    let id = psp.upload(&photo).map_err(|e| e.to_string())?;
    out.insert(
        "psp.fetch_dynamic_ms",
        ms(mean_of(reps(20), || psp.fetch(id, SizeRequest::Fit(130, 130)))),
    );

    // The HTTP parser and serializer on a typical view.
    let mut wire = Vec::new();
    let mut request = p3_net::Request::new(p3_net::Method::Get, "/photos/17?size=small", vec![]);
    request.headers.set("host", "127.0.0.1:39433");
    request.write_to(&mut wire).map_err(|e| e.to_string())?;
    out.insert(
        "net.parse_us",
        ms(mean_of(reps(5000), || RequestParser::new().feed(&wire).map(|(n, _)| n))) * 1e3,
    );
    let response = Response::ok("image/jpeg", vec![0x5A; 16 << 10]);
    let mut sink = Vec::with_capacity(20 << 10);
    out.insert(
        "net.serialize_us",
        ms(mean_of(reps(5000), || {
            sink.clear();
            response.write_to(&mut sink)
        })) * 1e3,
    );

    // A hop to a server that does nothing: 16 KiB back, kept alive and
    // on a fresh connection. Until spans exist inside the program this
    // is where the reactor shows.
    let mut hops = HopRig::new()?;
    out.insert("net.hop_ms", ms(mean_of(reps(400), || hops.hop(0, 16 << 10))));
    out.insert("net.hop_fresh_ms", ms(mean_of(reps(200), || hops.hop_fresh(0, 16 << 10))));

    // An unknown photo's 404 through the proxy: the miss path and two
    // upstream hops with no codec work.
    let forward = match &topology.proxy {
        Some(proxy) => {
            let mut conn = Conn::connect(proxy.addr())?;
            ms(mean_of(reps(200), || conn.get("/photos/999999999?size=small")))
        }
        None => 0.0,
    };
    out.insert("net.forward_rtt_ms", forward);
    Ok(out)
}

/// `pool.reuses / (connects + reuses)` of the proxy's upstream pool, and
/// its server's 503 count, from `/stats`.
fn proxy_net_counters(topology: &Topology) -> Result<(f64, f64), String> {
    let Some(proxy) = &topology.proxy else { return Ok((0.0, 0.0)) };
    let resp = Conn::connect(proxy.addr())?.get("/stats")?;
    let doc = Value::parse(&String::from_utf8_lossy(&resp.body)).ok_or("/stats is not JSON")?;
    let field = |section: &str, name: &str| -> f64 {
        doc.get(section).and_then(|s| s.get(name)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    let (connects, reuses) = (field("pool", "connects"), field("pool", "reuses"));
    let ratio = if connects + reuses > 0.0 { reuses / (connects + reuses) } else { 0.0 };
    Ok((ratio, field("server", "rejected_503")))
}

/// Payload bytes of every live blob, over all nodes.
fn live_payload_bytes(topology: &Topology) -> u64 {
    let mut sum = 0u64;
    for node in &topology.nodes {
        let mut after: Option<String> = None;
        while let Ok(page) = node.backend.list_ids(after.as_deref(), 1024) {
            for id in &page {
                if let Ok(Some(blob)) = node.backend.get(id) {
                    sum += blob.len() as u64;
                }
            }
            match page.last() {
                Some(last) if page.len() == 1024 => after = Some(last.clone()),
                _ => break,
            }
        }
    }
    sum
}

pub fn run(
    workload: &'static str,
    seed: u64,
    scale: &Scale,
    probe: &mut HostProbe,
) -> Result<LayerReport, String> {
    let Prepared {
        mut drivers,
        topology,
        secret_bytes_share,
        reopen_ms_per_1000,
        pause,
        check,
        ..
    } = prepare(workload, seed, scale)?;
    let ops = scale.trace_ops(workload);
    let mut tally = Tally::default();
    let mut sampling = Sampling::default();
    sampling.take(probe);

    // Untraced: what the program and its clients cost, one at a time.
    crate::count_allocs(true);
    let before = Marks::take(&topology);
    let untraced_ms = replay(&mut drivers, ops, None, pause.as_ref(), &mut tally);
    let after = Marks::take(&topology);
    crate::count_allocs(false);

    // Traced: the same stream goes on, each operation sent and unrolled.
    let mut ctx =
        TraceCtx { tracer: Tracer::new(), rig: Rig::new(&topology.plan)?, view_db: Vec::new() };
    let traced_start = Marks::take(&topology);
    let traced_ms = replay(
        &mut drivers,
        ops,
        Some((&mut ctx, &mut *probe, &mut sampling)),
        pause.as_ref(),
        &mut tally,
    );
    pause(Pause::Rest);
    let traced_end = Usage::now();
    // Before the probes: one of them sends views of an unknown photo.
    let end = Marks::take(&topology);
    sampling.take(probe);

    let index = sampling.index();
    let granted = traced_end.granted_since(&traced_start.usage);
    let cpus = crate::host::allowed_cpus().len();
    let scale_ms = |v: f64| v * granted / index;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let by_name = ctx.tracer.self_ms_by_name();
    let span_mean = |name: &str| scale_ms(by_name.get(name).map_or(0.0, |v| mean(v)));
    for (metric, span) in [
        ("jpeg.decode_coeffs_ms", "jpeg.decode_coeffs"),
        ("jpeg.encode_coeffs_ms", "jpeg.encode_coeffs"),
        ("jpeg.decode_rgb_ms", "jpeg.decode_rgb"),
        ("jpeg.encode_rgb_ms", "jpeg.encode_rgb"),
        ("core.split_ms", "core.split"),
        ("core.container_ms", "core.container"),
        ("core.reconstruct_ms", "core.reconstruct"),
        ("crypto.seal_ms", "crypto.seal"),
        ("crypto.open_ms", "crypto.open"),
        ("psp.upload_ms", "psp.upload"),
        ("psp.fetch_static_ms", "psp.fetch_static"),
        ("storage.put_ms", "storage.put"),
        ("storage.get_ms", "storage.get"),
        ("storage.delete_ms", "storage.delete"),
        ("cluster.put_ms", "cluster.put"),
        ("cluster.get_ms", "cluster.get"),
    ] {
        m.insert(metric, span_mean(span));
    }
    m.insert(
        "storage.put_p90_ms",
        scale_ms(by_name.get("storage.put").map_or(0.0, |v| nearest_rank(v, 90.0))),
    );
    m.insert("storage.reopen_ms", reopen_ms_per_1000 / index);
    for (name, value) in probes(&topology, scale.quick)? {
        m.insert(name, value / index);
    }

    // Exact per seed: the replay is serial and its length is fixed.
    m.insert("core.recon_psnr_db", mean(&ctx.view_db));
    m.insert("core.secret_bytes_share", secret_bytes_share);

    // Storage counters over both replays (the stores' own count from the
    // reopen that ended set-up).
    let node_sum =
        |f: &dyn Fn(&BackendStats) -> u64| -> f64 { end.nodes.iter().map(f).sum::<u64>() as f64 };
    let puts = node_sum(&|s| s.puts);
    m.insert(
        "storage.fsyncs_per_put",
        if puts > 0.0 { node_sum(&|s| s.group_commits) / puts } else { 0.0 },
    );
    let appended = (end.disk_bytes as f64 - before.disk_bytes as f64)
        + (node_sum(&|s| s.reclaimed_bytes)
            - before.nodes.iter().map(|s| s.reclaimed_bytes).sum::<u64>() as f64);
    let stored = end.front.bytes_written as f64 - before.front.bytes_written as f64;
    m.insert("storage.write_amp", if stored > 0.0 { appended / stored } else { 0.0 });
    let replicas = if topology.plan.cluster { 2.0 } else { 1.0 };
    let live = live_payload_bytes(&topology) as f64 / replicas;
    m.insert("storage.space_amp", if live > 0.0 { end.disk_bytes as f64 / live } else { 0.0 });
    m.insert("storage.compactions", node_sum(&|s| s.compactions));
    m.insert("storage.reclaimed_mb", node_sum(&|s| s.reclaimed_bytes) / 1e6);
    let cluster = topology.router.as_ref().map(|r| r.backend.stats()).unwrap_or_default();
    m.insert("cluster.read_repairs", cluster.read_repairs as f64);
    m.insert("cluster.node_failures", cluster.node_failures as f64);
    m.insert("cluster.integrity_rejects", cluster.integrity_rejects as f64);

    let (reuse, rejected) = proxy_net_counters(&topology)?;
    m.insert("net.pool_reuse_ratio", reuse);
    m.insert("net.rejected_503", rejected);

    let closure = ctx.tracer.closure();
    // Views of the traced replay only: by then the cache holds what the
    // workload leaves in it, not what set-up did.
    let [hits, misses, evictions] = [0, 1, 2].map(|i| end.cache[i] - traced_start.cache[i]);
    m.insert(
        "proxy.cache_hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    );
    m.insert("proxy.cache_evictions", evictions);
    m.insert(
        "proxy.upload_rollbacks",
        topology.proxy.as_ref().map_or(0.0, |p| {
            p.stats().upload_rollbacks.load(std::sync::atomic::Ordering::Relaxed) as f64
        }),
    );
    // What a miss costs beyond the codec work a hit does too.
    m.insert(
        "proxy.miss_penalty_ms",
        if workload == "browse_cold" { scale_ms(closure.e2e_ms - closure.codec_ms) } else { 0.0 },
    );

    // Near-exact counts over the untraced replay: "fewer copies" shows
    // here where the clock cannot resolve it.
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    m.insert("proc.allocs_per_op", per_op(after.allocs.0 - before.allocs.0));
    m.insert("proc.alloc_kb_per_op", per_op(after.allocs.1 - before.allocs.1) / 1024.0);
    m.insert(
        "proc.rw_syscalls_per_op",
        per_op(after.usage.rw_syscalls.saturating_sub(before.usage.rw_syscalls)),
    );
    m.insert(
        "proc.ctx_switches_per_op",
        per_op(after.usage.ctx_switches.saturating_sub(before.usage.ctx_switches)),
    );
    m.insert("proc.minflt_per_op", per_op(after.usage.minflt.saturating_sub(before.usage.minflt)));

    m.insert("host.index", index);
    m.insert("host.granted", granted);
    m.insert("host.steal_ratio", traced_end.steal_ratio_since(&traced_start.usage, cpus));

    let unattributed =
        if closure.e2e_ms > 0.0 { 1.0 - closure.unrolled_ms() / closure.e2e_ms } else { 0.0 };
    let share = |v: f64| if closure.e2e_ms > 0.0 { v / closure.e2e_ms } else { 0.0 };
    m.insert("trace.e2e_mean_ms", scale_ms(closure.e2e_ms));
    m.insert("trace.unrolled_mean_ms", scale_ms(closure.unrolled_ms()));
    m.insert("trace.unattributed_share", unattributed);
    m.insert("trace.share_psp", share(closure.psp_ms));
    m.insert("trace.share_codec", share(closure.codec_ms));
    m.insert("trace.share_storage", share(closure.storage_ms));
    m.insert("trace.share_net", share(closure.net_ms));
    let overhead =
        if mean(&untraced_ms) > 0.0 { mean(&traced_ms) / mean(&untraced_ms) } else { 0.0 };
    m.insert("trace.overhead_ratio", overhead);

    if let Err(e) = check(&topology) {
        tally.count(&crate::runner::Outcome::Wrong(e));
    }

    let path = work_root().join(format!("trace-{workload}.json"));
    std::fs::write(&path, ctx.tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} operations, {} spans in {}; traced/untraced serial mean {overhead:.3}",
        ctx.tracer.ops(),
        ctx.tracer.spans.len(),
        path.display()
    );

    // The gate reads the median over operations, so that a stall in one
    // operation's send or replay cannot trip it and a missing step,
    // which shifts every operation, still does.
    let typical = crate::stats::median(&ctx.tracer.unattributed_per_op());
    let gate = (!scale.quick && GATED.contains(&workload) && typical.abs() > MAX_UNATTRIBUTED)
        .then(|| {
            format!(
                "the unrolled path leaves {typical:.3} of a typical {workload} operation \
                 unattributed (limit {MAX_UNATTRIBUTED}; trace.unattributed_share \
                 {unattributed:.3}): a handler step is missing from it"
            )
        });
    // Clients before servers, the rig before the topology it mirrors.
    drop(ctx);
    drop(drivers);
    drop(topology);
    Ok(LayerReport { metrics: m, tally, samples: sampling.samples, gate })
}

//! Connection-scaling harness for `proxy_bench`: how many mostly-idle
//! keep-alive connections can the serving tier hold, and what happens
//! to tail latency and shedding when thousands of them are open at
//! once?
//!
//! The container's fd ceiling (20 000, unraisable) cannot hold both
//! sides of 10 000 sockets in one process, so each cell runs **two
//! processes**: `proxy_bench --serve-scaling` re-executed
//! from [`std::env::current_exe`] hosts the PSP + storage + proxy trio
//! and prints the proxy address on stdout; the parent holds the client
//! sockets and exits the child by closing its stdin.
//!
//! The drive is **open-loop and coordinated-omission-aware**: request
//! arrival times are fixed up front (uniform over the window) and every
//! latency is measured from the *scheduled* arrival, so a server that
//! stalls a driver thread is charged for the stall instead of quietly
//! thinning the arrival process.
//!
//! Two cells, one per population tier. The section names are fixed
//! (`scaling_epoll_1k`, `scaling_epoll_10k`) so the `--check-schema`
//! drift guard works across scales; the `connections` field records the
//! actual population (`--quick` shrinks it).

use crate::util::{parse_metric_json, percentile};
use p3_net::http::{Method, Request, Response};
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Idle window the child's proxy is told to use — far longer than any
/// cell, so the mostly-idle population is never reaped mid-measurement
/// (the reaper has its own unit tests; this bench measures capacity).
const CELL_IDLE_MS: u64 = 120_000;

/// Marker line the `--serve-scaling` child prints once the trio is up.
pub const ADDR_MARKER: &str = "SCALING_ADDR";

/// Per-request read timeout on the parent's sockets: a stalled
/// exchange must cost one bounded timeout, not a wedged driver.
const EXCHANGE_TIMEOUT: Duration = Duration::from_millis(1500);

/// Driver threads pumping the open-loop schedule. Also the upper bound
/// on in-flight requests, comfortably under the proxy's dispatch queue
/// so a cell is never shed by our own burstiness.
const DRIVERS: usize = 32;

/// One population-tier measurement.
pub struct CellSpec {
    /// Fixed JSON section name (`scaling_epoll_10k`, …).
    pub name: &'static str,
    /// Keep-alive connections to open and hold.
    pub connections: usize,
    /// Requests in the open-loop schedule.
    pub requests: usize,
    /// Window the schedule is spread over.
    pub window: Duration,
}

/// What one cell measured.
pub struct CellResult {
    /// The spec's section name.
    pub name: &'static str,
    /// Connections the cell tried to open.
    pub connections: usize,
    /// `server.open_connections` gauge polled from `/stats` mid-window
    /// (0 if the server was too overloaded to answer `/stats`).
    pub open_connections: u64,
    /// Requests answered with the expected status (the 404 forward).
    pub ok: u64,
    /// Requests answered 503 (dispatch-time shedding).
    pub shed: u64,
    /// Connect failures, io errors, timeouts, unexpected statuses.
    pub errors: u64,
    /// Successful requests per second of drive wall time.
    pub requests_per_s: f64,
    /// Latency percentiles over successful requests, measured from the
    /// scheduled arrival (coordinated-omission-aware).
    pub p50_ms: f64,
    /// See `p50_ms`.
    pub p99_ms: f64,
}

/// The two cells at either scale. `--quick` shrinks populations to
/// smoke size; section names stay fixed for the schema guard.
pub fn cells(quick: bool) -> Vec<CellSpec> {
    let (lo, hi) = if quick { (50, 150) } else { (1000, 10_000) };
    let (lo_req, hi_req) = if quick { (120, 240) } else { (1200, 2000) };
    let (lo_win, hi_win) = if quick {
        (Duration::from_secs(2), Duration::from_secs(4))
    } else {
        (Duration::from_secs(6), Duration::from_secs(10))
    };
    vec![
        CellSpec { name: "scaling_epoll_1k", connections: lo, requests: lo_req, window: lo_win },
        CellSpec { name: "scaling_epoll_10k", connections: hi, requests: hi_req, window: hi_win },
    ]
}

/// Render a result as a `render_metrics` section.
pub fn section(r: &CellResult) -> (&'static str, Vec<(&'static str, f64)>) {
    (
        r.name,
        vec![
            ("connections", r.connections as f64),
            ("open_connections", r.open_connections as f64),
            ("requests_per_s", r.requests_per_s),
            ("p50_ms", r.p50_ms),
            ("p99_ms", r.p99_ms),
            ("shed", r.shed as f64),
            ("errors", r.errors as f64),
        ],
    )
}

/// Fields every scaling section carries (schema-guard table).
pub fn section_fields() -> Vec<&'static str> {
    vec!["connections", "open_connections", "requests_per_s", "p50_ms", "p99_ms", "shed", "errors"]
}

/// Child side of the two-process split: host the trio, print the proxy
/// address, hold until the parent closes stdin. Never returns.
pub fn serve_child() -> ! {
    let _ = p3_net::raise_nofile_limit();
    let psp = p3_psp::PspService::spawn(p3_psp::PspProfile::facebook()).expect("spawn psp");
    let storage = p3_storage::StorageService::spawn().expect("spawn storage");
    let proxy = p3_net::proxy::P3Proxy::spawn(p3_net::proxy::ProxyConfig {
        psp_addr: psp.addr(),
        storage_addr: storage.addr(),
        master_key: b"proxy bench master key".to_vec(),
        codec: p3_core::pipeline::P3Codec::new(p3_core::pipeline::P3Config {
            threshold: 15,
            ..Default::default()
        }),
        estimator: p3_net::proxy::default_estimator(),
        reencode_quality: 90,
        secret_cache_capacity: p3_net::proxy::DEFAULT_SECRET_CACHE_CAPACITY,
        cache_shards: p3_net::proxy::DEFAULT_CACHE_SHARDS,
        server: p3_net::ServerConfig {
            idle_timeout: Duration::from_millis(CELL_IDLE_MS),
            ..Default::default()
        },
    })
    .expect("spawn proxy");
    println!("{ADDR_MARKER} {}", proxy.addr());
    // Parked until the parent drops our stdin; any read outcome means
    // the cell is over.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    drop(proxy);
    drop(storage);
    drop(psp);
    std::process::exit(0);
}

/// Spawn the serving child and wait for its address line.
fn spawn_child() -> Result<(Child, SocketAddr), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--serve-scaling")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn serving child: {e}"))?;
    let stdout = child.stdout.take().ok_or("child stdout missing")?;
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.map_err(|e| format!("child stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix(ADDR_MARKER) {
            let addr = rest.trim().parse().map_err(|e| format!("child address {rest:?}: {e}"))?;
            return Ok((child, addr));
        }
    }
    let _ = child.kill();
    Err("child exited before printing its address".into())
}

/// One request/response exchange on a held keep-alive connection.
/// Returns the response and whether the server asked to close.
fn exchange(stream: &mut TcpStream) -> Result<(Response, bool), String> {
    let req = Request::new(Method::Get, "/photos/999999999?size=small", Vec::new());
    req.write_to(stream).map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let resp = Response::read_from(&mut reader).map_err(|e| format!("read: {e:?}"))?;
    let close = resp.headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok((resp, close))
}

/// `server.open_connections` from the proxy's `/stats` (`None` when the
/// server is too saturated to answer). Raw short-timeout exchange
/// rather than `http_get`, whose 20 s read deadline would stall the
/// whole cell against a wedged server.
fn poll_open_connections(addr: SocketAddr) -> Option<u64> {
    for _ in 0..3 {
        let attempt = (|| {
            let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).ok()?;
            stream.set_read_timeout(Some(EXCHANGE_TIMEOUT)).ok()?;
            let req = Request::new(Method::Get, "/stats", Vec::new());
            req.write_to(&mut stream).ok()?;
            let resp = Response::read_from(&mut BufReader::new(&mut stream)).ok()?;
            if !resp.status.is_success() {
                return None;
            }
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            let sections = parse_metric_json(&body).ok()?;
            sections
                .iter()
                .find(|(name, _)| name == "server")
                .and_then(|(_, fields)| fields.iter().find(|(f, _)| f == "open_connections"))
                .map(|(_, v)| *v as u64)
        })();
        if attempt.is_some() {
            return attempt;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    None
}

/// Run one cell end to end: child up, population ramped, open-loop
/// drive, gauge poll, teardown.
pub fn run_cell(spec: &CellSpec) -> Result<CellResult, String> {
    let (mut child, addr) = spawn_child()?;
    let result = drive_cell(spec, addr);
    // Closing stdin is the shutdown signal; reap the child either way.
    drop(child.stdin.take());
    let _ = child.wait();
    result
}

fn drive_cell(spec: &CellSpec, addr: SocketAddr) -> Result<CellResult, String> {
    let n = spec.connections;
    let errors = AtomicU64::new(0);

    // Ramp: open and hold the whole population before any request is
    // sent. Parallel opener threads, one retry per slot — a connect the
    // kernel's SYN backlog drops under the 10k burst gets one second
    // chance before it counts as an error.
    let conns: Vec<Mutex<Option<TcpStream>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let openers = 16.min(n.max(1));
    std::thread::scope(|s| {
        for o in 0..openers {
            let conns = &conns;
            let errors = &errors;
            s.spawn(move || {
                let mut i = o;
                while i < n {
                    for attempt in 0..2 {
                        match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
                            Ok(stream) => {
                                let _ = stream.set_nodelay(true);
                                let _ = stream.set_read_timeout(Some(EXCHANGE_TIMEOUT));
                                *conns[i].lock() = Some(stream);
                                break;
                            }
                            Err(_) if attempt == 0 => {
                                std::thread::sleep(Duration::from_millis(100));
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    i += openers;
                }
            });
        }
    });

    // Open-loop drive: arrivals fixed up front, spread uniformly over
    // the window; the target connection walks the population by a prime
    // stride so every tier of the population is sampled.
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let latencies = Mutex::new(Vec::with_capacity(spec.requests));
    let next = AtomicUsize::new(0);
    let gauge = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..DRIVERS.min(spec.requests.max(1)) {
            let (ok, shed, errors) = (&ok, &shed, &errors);
            let (conns, latencies, next) = (&conns, &latencies, &next);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= spec.requests {
                    return;
                }
                let due = spec.window.mul_f64(i as f64 / spec.requests as f64);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let mut slot = conns[(i * 7919) % n].lock();
                let Some(stream) = slot.as_mut() else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                match exchange(stream) {
                    Ok((resp, close)) => {
                        match resp.status.0 {
                            404 => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                // Charged from the *scheduled* arrival:
                                // queueing delay lands in the tail.
                                let lat = start.elapsed().saturating_sub(due);
                                latencies.lock().push(lat.as_secs_f64() * 1e3);
                            }
                            503 => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if close {
                            *slot = None;
                        }
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        *slot = None;
                    }
                }
            });
        }
        // Gauge poll mid-window, while the population is held open.
        let gauge = &gauge;
        s.spawn(move || {
            std::thread::sleep(spec.window / 2);
            if let Some(v) = poll_open_connections(addr) {
                gauge.store(v, Ordering::Relaxed);
            }
        });
    });
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);

    let mut sorted = latencies.into_inner();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ok = ok.into_inner();
    Ok(CellResult {
        name: spec.name,
        connections: n,
        open_connections: gauge.into_inner(),
        ok,
        shed: shed.into_inner(),
        errors: errors.into_inner(),
        requests_per_s: ok as f64 / wall_s,
        p50_ms: percentile(&sorted, 50.0),
        p99_ms: percentile(&sorted, 99.0),
    })
}

/// The scaling acceptance gates: every cell must hold its whole
/// population without shedding.
pub fn validate_cells(results: &[CellResult]) -> Result<(), String> {
    for name in ["scaling_epoll_1k", "scaling_epoll_10k"] {
        let r = results
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| format!("scaling cell {name} missing"))?;
        if r.shed != 0 {
            return Err(format!("{name}: {} requests shed at idle-heavy load", r.shed));
        }
        if r.ok == 0 {
            return Err(format!("{name}: no request ever succeeded"));
        }
        if r.open_connections < r.connections as u64 {
            return Err(format!(
                "{name}: open_connections gauge read {} mid-window, want >= {}",
                r.open_connections, r.connections
            ));
        }
    }
    Ok(())
}

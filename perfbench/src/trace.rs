//! The outside-in layer trace: spans recorded from the benchmark's own
//! files around the public calls into each layer.
//!
//! A traced operation is first sent end to end under a root span, then
//! *unrolled*: the same public functions the handler calls, in that
//! order, on the same bytes, one child span each, plus one `net.hop`
//! span per HTTP hop on the blocking path. Children are replays (they
//! run after their parent, not inside it), so a span's self time is its
//! duration minus the durations of the spans that name it as parent.
//! Spans inside the program are a later change.

use crate::client::Conn;
use crate::topology::{Plan, Topology};
use p3_net::{Method, Request, Response, Server};
use p3_psp::{PspCore, PspProfile};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    /// Index of the traced operation the span belongs to.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// False for work the handler overlaps with the blocking path (the
    /// PSP fetch of a cache miss): timed, but left out of the closure.
    pub on_path: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { base: Instant::now(), spans: Vec::new(), op: 0 }
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        t0: Instant,
        t1: Instant,
        on_path: bool,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let ns = |t: Instant| t.duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            op: self.op,
            start_ns: ns(t0),
            end_ns: ns(t1),
            on_path,
        });
        id
    }

    /// The root span of the next operation: the request as it was sent
    /// end to end.
    pub fn root(&mut self, name: &'static str, sent: Instant, answered: Instant) -> u32 {
        self.op += 1;
        self.push(name, 0, sent, answered, true)
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u32) {
        self.time_as(name, parent, true, f)
    }

    pub fn time_as<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        on_path: bool,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let t0 = Instant::now();
        let out = f();
        let id = self.push(name, parent, t0, Instant::now(), on_path);
        (out, id)
    }

    pub fn ops(&self) -> u32 {
        self.op
    }

    /// Self time per span: duration minus its children's durations.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if span.parent != 0 {
                own[span.parent as usize - 1] -= span.ms();
            }
        }
        own
    }

    /// Self times of every non-root span, by name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_ms();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ms) in self.spans.iter().zip(own) {
            if span.parent != 0 {
                by_name.entry(span.name).or_default().push(ms);
            }
        }
        by_name
    }

    /// Mean end-to-end time of the roots, and the mean per operation of
    /// the self time on the blocking path, split by layer prefix.
    pub fn closure(&self) -> Closure {
        let own = self.self_ms();
        let mut c = Closure::default();
        let roots: HashSet<u32> =
            self.spans.iter().filter(|s| s.parent == 0).map(|s| s.id).collect();
        let on_path = |span: &Span| -> bool {
            // A child of a child inherits its parent's flag.
            span.on_path
                && (roots.contains(&span.parent) || self.spans[span.parent as usize - 1].on_path)
        };
        for (span, ms) in self.spans.iter().zip(own) {
            if span.parent == 0 {
                c.e2e_ms += span.ms();
            } else if on_path(span) {
                let layer = span.name.split('.').next().unwrap_or("");
                match layer {
                    "psp" => c.psp_ms += ms,
                    "jpeg" | "core" | "crypto" | "par" => c.codec_ms += ms,
                    "storage" | "cluster" => c.storage_ms += ms,
                    "net" => c.net_ms += ms,
                    _ => c.other_ms += ms,
                }
            }
        }
        let n = f64::from(self.op.max(1));
        for v in [
            &mut c.e2e_ms,
            &mut c.psp_ms,
            &mut c.codec_ms,
            &mut c.storage_ms,
            &mut c.net_ms,
            &mut c.other_ms,
        ] {
            *v /= n;
        }
        c
    }

    /// Per operation, the share of its end-to-end time the unrolled path
    /// leaves unaccounted: `1 - on-path children / root`.
    pub fn unattributed_per_op(&self) -> Vec<f64> {
        let mut roots: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            if span.parent == 0 {
                roots.insert(span.id, (span.ms(), 0.0));
            } else if span.on_path {
                if let Some((_, unrolled)) = roots.get_mut(&span.parent) {
                    *unrolled += span.ms();
                }
            }
        }
        roots.values().filter(|(e2e, _)| *e2e > 0.0).map(|(e2e, u)| 1.0 - u / e2e).collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"on_path\":{}}}{}",
                s.name,
                s.id,
                s.parent,
                s.op,
                s.start_ns,
                s.end_ns,
                s.on_path,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Per-operation means, in ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct Closure {
    pub e2e_ms: f64,
    pub psp_ms: f64,
    pub codec_ms: f64,
    pub storage_ms: f64,
    pub net_ms: f64,
    pub other_ms: f64,
}

impl Closure {
    pub fn unrolled_ms(&self) -> f64 {
        self.psp_ms + self.codec_ms + self.storage_ms + self.net_ms + self.other_ms
    }
}

/// A trivial `Server` and a kept-alive connection to it: what one HTTP
/// hop costs for a request and a response of given sizes, with no
/// handler work behind it.
pub struct HopRig {
    server: Server,
    conn: Conn,
}

impl HopRig {
    pub fn new() -> Result<HopRig, String> {
        let server = Server::spawn(Arc::new(|req: &Request| {
            let n = req.query_param("n").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
            Response::ok("application/octet-stream", vec![0x5A; n])
        }))
        .map_err(|e| format!("hop server: {e}"))?;
        let conn = Conn::connect(server.addr())?;
        Ok(HopRig { server, conn })
    }

    fn request(request_bytes: usize, response_bytes: usize) -> Request {
        let method = if request_bytes == 0 { Method::Get } else { Method::Put };
        Request::new(method, &format!("/hop?n={response_bytes}"), vec![0xA5; request_bytes])
    }

    /// A round trip on the kept-alive connection.
    pub fn hop(&mut self, request_bytes: usize, response_bytes: usize) -> Result<(), String> {
        self.conn.send(Self::request(request_bytes, response_bytes)).map(|_| ())
    }

    /// A round trip on a connection of its own, as `ClientPool` makes for
    /// every POST.
    pub fn hop_fresh(&mut self, request_bytes: usize, response_bytes: usize) -> Result<(), String> {
        Conn::connect(self.server.addr())?
            .send(Self::request(request_bytes, response_bytes))
            .map(|_| ())
    }
}

impl Drop for HopRig {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Where unrolled calls that change state run, so that the topology
/// under test sees each operation once: a PSP core, and packed stores
/// (behind a cluster router of their own when the plan has one).
pub struct Rig {
    pub psp: PspCore,
    pub stores: Topology,
    pub hops: HopRig,
    /// Keys the rig's stores hold (so an unrolled read or delete finds
    /// its blob).
    pub present: HashSet<String>,
}

impl Rig {
    pub fn new(plan: &Plan) -> Result<Rig, String> {
        let stores = Topology::spawn_tagged(
            Plan { secret_cache: None, compact_every: None, ..plan.clone() },
            "rig",
        )?;
        Ok(Rig {
            psp: PspCore::new(PspProfile::facebook()),
            stores,
            hops: HopRig::new()?,
            present: HashSet::new(),
        })
    }
}

/// What a driver needs to trace one operation.
pub struct TraceCtx {
    pub tracer: Tracer,
    pub rig: Rig,
    /// PSNR of each verified traced view, in dB.
    pub view_db: Vec<f64>,
}

impl TraceCtx {
    /// One kept-alive hop as a span.
    pub fn hop(&mut self, parent: u32, on_path: bool, request: usize, response: usize) {
        let hops = &mut self.rig.hops;
        let _ = self.tracer.time_as("net.hop", parent, on_path, || hops.hop(request, response));
    }

    pub fn hop_fresh(&mut self, parent: u32, request: usize, response: usize) {
        let hops = &mut self.rig.hops;
        let _ = self.tracer.time("net.hop", parent, || hops.hop_fresh(request, response));
    }
}

/// Mean wall time of `f` over `n` calls, after one untimed call.
pub fn mean_of<T>(n: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    t.elapsed() / n.max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_off_path_work_is_left_out() {
        let mut t = Tracer::new();
        let t0 = t.base;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.root("op.view", at(0), at(10));
        let hop = t.push("net.hop", root, at(10), at(11), true);
        let cluster = t.push("cluster.get", root, at(11), at(15), true);
        t.push("net.hop", cluster, at(15), at(16), true);
        t.push("storage.get", cluster, at(16), at(17), true);
        let side = t.push("psp.fetch_static", root, at(17), at(19), false);
        t.push("core.reconstruct", root, at(19), at(23), true);
        assert_eq!((hop, side), (2, 6));

        let by_name = t.self_ms_by_name();
        assert_eq!(by_name["cluster.get"], vec![2.0], "4 ms minus a 1 ms hop and a 1 ms get");
        assert_eq!(by_name["net.hop"], vec![1.0, 1.0]);
        assert_eq!(by_name["psp.fetch_static"], vec![2.0], "timed even off the path");

        let c = t.closure();
        assert_eq!(c.e2e_ms, 10.0);
        assert_eq!((c.net_ms, c.storage_ms, c.codec_ms, c.psp_ms), (2.0, 3.0, 4.0, 0.0));
        assert_eq!(c.unrolled_ms(), 9.0);
        assert_eq!(t.unattributed_per_op(), vec![1.0 - 9.0 / 10.0]);
        assert!(t.to_json().contains("\"name\":\"cluster.get\",\"id\":3,\"parent\":1,\"op\":1"));
    }
}

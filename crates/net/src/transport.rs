//! Pluggable connection layer under the HTTP client.
//!
//! The paper's threat model (§3) assumes the network between the
//! trusted proxy and the storage provider is unreliable and the
//! provider itself adversarial — yet until this layer existed, every
//! storage-facing code path opened raw [`TcpStream`]s and the only
//! faults the harness could inject were ones a node could inflict on
//! itself (kill, slow core, full disk, disk rot). The [`Transport`]
//! trait is the seam that fixes that: [`ClientPool`] routes every
//! connection through it, production uses [`TcpTransport`] — a blocking
//! socket with deadlines, the one outbound path for the proxy's two
//! upstreams and the cluster router's nodes alike — and tests wrap
//! that same path in a [`FaultTransport`] that can — per (source,
//! destination) pair — refuse connections, black-hole them (timeout
//! instead of RST, the expensive failure), inject latency, and flip
//! response payload bytes in flight. Asymmetric partitions ("router
//! reaches node A but not B") become one rule in a [`FaultPlan`].
//!
//! [`ClientPool`]: crate::client::ClientPool

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A bidirectional byte stream produced by a [`Transport`]: anything
/// `Read + Write + Send` ([`TcpStream`] in production, fault-wrapped
/// streams in tests). A `Box<dyn Connection>` is itself `Read + Write`
/// through the supertraits, so the client wraps it straight in a
/// `BufReader` and reads replies through [`Response::read_from`].
///
/// [`Response::read_from`]: crate::http::Response::read_from
pub trait Connection: Read + Write + Send {}

impl<T: Read + Write + Send> Connection for T {}

/// Per-request connect/read deadlines a [`Transport`] must honor, so a
/// black-holed peer costs one deadline instead of a hung worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// TCP connect (SYN → established) budget.
    pub connect: Duration,
    /// Per-read (and per-write) socket budget once connected.
    pub read: Duration,
}

impl Default for Deadlines {
    fn default() -> Self {
        Deadlines { connect: Duration::from_secs(20), read: Duration::from_secs(20) }
    }
}

/// How connections are opened. The one seam between the HTTP client
/// and the network, so tests can interpose faults on the wire itself.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Open a connection to `addr` within `deadlines.connect`; the
    /// returned stream must enforce `deadlines.read` per operation.
    fn connect(&self, addr: SocketAddr, deadlines: Deadlines) -> io::Result<Box<dyn Connection>>;
}

/// Production transport: plain TCP with timeouts and Nagle disabled
/// (exchanges are small and latency-bound; delayed-ACK stalls dwarf
/// the segment savings).
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn connect(&self, addr: SocketAddr, deadlines: Deadlines) -> io::Result<Box<dyn Connection>> {
        let stream = TcpStream::connect_timeout(&addr, deadlines.connect)?;
        stream.set_read_timeout(Some(deadlines.read))?;
        stream.set_write_timeout(Some(deadlines.read))?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    }
}

/// What the network does to one (source, destination) pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultRule {
    /// Refuse connections outright (fast RST-style failure).
    pub drop_connects: bool,
    /// Swallow traffic silently: connects and reads burn their full
    /// deadline, then fail with `TimedOut` — never a clean reset.
    pub black_hole: bool,
    /// Extra one-way latency injected per read.
    pub latency: Duration,
    /// Flip the first payload byte after each HTTP header block read
    /// off this connection (in-flight corruption the at-rest CRC never
    /// saw, so only end-to-end verification can catch it).
    pub flip_body_byte: bool,
}

impl FaultRule {
    /// Rule for an asymmetric partition: the source's packets toward
    /// this destination vanish (no RST), the reverse path is unused.
    pub fn black_holed() -> FaultRule {
        FaultRule { black_hole: true, ..FaultRule::default() }
    }

    /// Rule that corrupts one payload byte per response in flight.
    pub fn flipping() -> FaultRule {
        FaultRule { flip_body_byte: true, ..FaultRule::default() }
    }
}

/// Shared fault table: (source label, destination) → [`FaultRule`],
/// plus counters proving each fault class actually fired. One plan is
/// shared by every [`FaultTransport`] in a topology so a harness can
/// open and heal partitions at runtime.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Mutex<HashMap<(String, SocketAddr), FaultRule>>,
    black_holed: AtomicU64,
    delayed: AtomicU64,
    flipped: AtomicU64,
}

impl FaultPlan {
    /// Fresh plan with no rules (all traffic passes untouched).
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Install (or replace) the rule for `source` → `dest`.
    pub fn set(&self, source: &str, dest: SocketAddr, rule: FaultRule) {
        let mut rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        rules.insert((source.to_string(), dest), rule);
    }

    /// Heal `source` → `dest` (traffic passes untouched again).
    pub fn clear(&self, source: &str, dest: SocketAddr) {
        let mut rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        rules.remove(&(source.to_string(), dest));
    }

    fn rule(&self, source: &str, dest: SocketAddr) -> FaultRule {
        let rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        rules.get(&(source.to_string(), dest)).copied().unwrap_or_default()
    }

    /// Operations (connects, reads, writes) swallowed by a black hole.
    pub fn black_holed(&self) -> u64 {
        self.black_holed.load(Ordering::Relaxed)
    }

    /// Reads delayed by an injected-latency rule.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Payload bytes flipped in flight.
    pub fn flipped(&self) -> u64 {
        self.flipped.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] that applies the [`FaultPlan`]'s rule for
/// (its source label, destination) to every connection and hands clean
/// traffic to [`TcpTransport`] — the path production runs.
#[derive(Debug)]
pub struct FaultTransport {
    source: String,
    plan: Arc<FaultPlan>,
}

impl FaultTransport {
    /// Fault-wrap plain TCP for the peer labeled `source`.
    pub fn new(source: &str, plan: Arc<FaultPlan>) -> FaultTransport {
        FaultTransport { source: source.to_string(), plan }
    }
}

impl Transport for FaultTransport {
    fn connect(&self, addr: SocketAddr, deadlines: Deadlines) -> io::Result<Box<dyn Connection>> {
        let rule = self.plan.rule(&self.source, addr);
        if rule.drop_connects {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "fault: dropped"));
        }
        if rule.black_hole {
            self.plan.black_holed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(deadlines.connect);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "fault: black hole"));
        }
        let inner = TcpTransport.connect(addr, deadlines)?;
        Ok(Box::new(FaultConn {
            inner,
            source: self.source.clone(),
            dest: addr,
            plan: Arc::clone(&self.plan),
            read_deadline: deadlines.read,
            crlf_matched: 0,
            flip_next_byte: false,
        }))
    }
}

/// A live connection that re-consults the plan on every operation, so
/// a partition can open or heal underneath pooled sockets.
struct FaultConn {
    inner: Box<dyn Connection>,
    source: String,
    dest: SocketAddr,
    plan: Arc<FaultPlan>,
    read_deadline: Duration,
    /// Bytes of `\r\n\r\n` matched so far while scanning the inbound
    /// stream for the end of an HTTP header block.
    crlf_matched: u8,
    /// The header terminator ended exactly on a chunk boundary; flip
    /// the first byte of the next chunk.
    flip_next_byte: bool,
}

impl FaultConn {
    /// Flip the first byte following each `\r\n\r\n` in `chunk` (the
    /// first payload byte of each response). The scan runs across read
    /// boundaries; headers and framing are left intact so the damage
    /// is exactly what a flaky wire does — well-formed envelope, rotten
    /// payload.
    fn flip_payload(&mut self, chunk: &mut [u8]) {
        let mut i = 0;
        while i < chunk.len() {
            if self.flip_next_byte {
                chunk[i] ^= 0x40;
                self.plan.flipped.fetch_add(1, Ordering::Relaxed);
                self.flip_next_byte = false;
            }
            const TERM: &[u8; 4] = b"\r\n\r\n";
            if chunk[i] == TERM[self.crlf_matched as usize] {
                self.crlf_matched += 1;
                if self.crlf_matched == 4 {
                    self.crlf_matched = 0;
                    self.flip_next_byte = true;
                }
            } else {
                self.crlf_matched = u8::from(chunk[i] == b'\r');
            }
            i += 1;
        }
    }
}

impl Read for FaultConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rule = self.plan.rule(&self.source, self.dest);
        if rule.black_hole {
            self.plan.black_holed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.read_deadline);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "fault: black hole"));
        }
        if !rule.latency.is_zero() {
            self.plan.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(rule.latency);
        }
        let n = self.inner.read(buf)?;
        if rule.flip_body_byte {
            self.flip_payload(&mut buf[..n]);
        }
        Ok(n)
    }
}

impl Write for FaultConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let rule = self.plan.rule(&self.source, self.dest);
        if rule.black_hole {
            self.plan.black_holed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.read_deadline);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "fault: black hole"));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientPool;
    use crate::http::{Request, Response, StatusCode};
    use crate::server::Server;
    use std::time::Instant;

    fn echo_server() -> Server {
        Server::spawn(Arc::new(|req: &Request| {
            Response::ok("application/octet-stream", req.target().into_bytes())
        }))
        .unwrap()
    }

    fn fault_pool(plan: &Arc<FaultPlan>, deadlines: Deadlines) -> ClientPool {
        let transport = Arc::new(FaultTransport::new("test", Arc::clone(plan)));
        ClientPool::with_transport(transport, deadlines)
    }

    fn short_deadlines() -> Deadlines {
        Deadlines { connect: Duration::from_millis(50), read: Duration::from_millis(80) }
    }

    #[test]
    fn dropped_pair_refuses_connections_and_other_pairs_pass() {
        let a = echo_server();
        let b = echo_server();
        let plan = FaultPlan::new();
        let pool = fault_pool(&plan, short_deadlines());
        plan.set("test", a.addr(), FaultRule { drop_connects: true, ..Default::default() });
        assert!(pool.get(a.addr(), "/x").is_err(), "dropped pair must refuse");
        // The rule is per (source, destination): b is unaffected.
        let resp = pool.get(b.addr(), "/ok").unwrap();
        assert_eq!(resp.body, b"/ok");
        // Healing the pair restores traffic.
        plan.clear("test", a.addr());
        assert!(pool.get(a.addr(), "/back").is_ok());
    }

    #[test]
    fn black_hole_costs_a_deadline_not_a_hang() {
        let a = echo_server();
        let plan = FaultPlan::new();
        let pool = fault_pool(&plan, short_deadlines());
        plan.set("test", a.addr(), FaultRule::black_holed());
        let start = Instant::now();
        assert!(pool.get(a.addr(), "/x").is_err(), "black hole must time out");
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(50), "must burn the deadline: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(2), "must not hang: {elapsed:?}");
        assert!(plan.black_holed() >= 1);
    }

    #[test]
    fn black_hole_swallows_pooled_sockets_too() {
        // A partition that opens under an already-established (pooled)
        // connection must still swallow the next exchange.
        let a = echo_server();
        let plan = FaultPlan::new();
        let pool = fault_pool(&plan, short_deadlines());
        assert!(pool.get(a.addr(), "/warm").is_ok());
        plan.set("test", a.addr(), FaultRule::black_holed());
        assert!(pool.get(a.addr(), "/x").is_err());
        assert!(plan.black_holed() >= 1);
    }

    #[test]
    fn latency_rule_delays_reads() {
        let a = echo_server();
        let plan = FaultPlan::new();
        let pool = fault_pool(
            &plan,
            Deadlines { connect: Duration::from_secs(5), read: Duration::from_secs(5) },
        );
        plan.set(
            "test",
            a.addr(),
            FaultRule { latency: Duration::from_millis(30), ..Default::default() },
        );
        let start = Instant::now();
        let resp = pool.get(a.addr(), "/slow").unwrap();
        assert_eq!(resp.body, b"/slow");
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(plan.delayed() >= 1);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_payload_byte_per_response() {
        let a = echo_server();
        let plan = FaultPlan::new();
        let pool = fault_pool(&plan, Deadlines::default());
        plan.set("test", a.addr(), FaultRule::flipping());
        for i in 0..3 {
            let path = format!("/payload/{i}");
            // The envelope stays parseable — only the body rots.
            let resp = pool.get(a.addr(), &path).unwrap();
            assert_eq!(resp.status, StatusCode::OK);
            assert_eq!(resp.body.len(), path.len());
            let diffs = resp.body.iter().zip(path.as_bytes()).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1, "exactly one flipped byte per response body");
        }
        assert!(plan.flipped() >= 3);
        // Healed pair serves clean bytes again.
        plan.clear("test", a.addr());
        assert_eq!(pool.get(a.addr(), "/clean").unwrap().body, b"/clean");
    }
}

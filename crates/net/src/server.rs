//! HTTP serving tier: epoll reactor event loops multiplexing
//! nonblocking connections, with handlers on a bounded offload pool.
//!
//! N single-threaded reactors each multiplex thousands of nonblocking
//! connections with per-connection incremental parse state (the state
//! machine lives in the private `conn` module); handlers run on a small
//! offload pool so blocking work (codec, disk fsync) never stalls
//! connection I/O. Backpressure acts at dispatch time: when the offload
//! queue is full a fully-parsed request is answered `503 + retry-after`
//! directly from the reactor.
//!
//! The server survives transient `accept()` failures, closes idle
//! keep-alive connections after [`ServerConfig::idle_timeout`], answers
//! `400` to malformed requests and `500` to panicking handlers, exports
//! [`ServerStats`] gauges, and drains gracefully on shutdown.

use crate::conn::{offload_loop, Acceptor, OffloadQueue, Shared};
use crate::http::{Request, Response};
use p3_reactor::{Handle, Reactor, Source, Token};
use std::cell::RefCell;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request handler type: total function from request to response. A
/// panicking handler is caught and answered with `500`; it never takes a
/// pool worker down.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Serving-tier sizing and shutdown knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Offload-pool workers running handlers (blocking codec/disk work,
    /// so the default oversubscribes the CPUs).
    pub workers: usize,
    /// How long a connection may sit with no request in progress before
    /// the server closes it. Generous by default: an idle connection
    /// costs one fd and an entry on the timer wheel, not a thread.
    pub idle_timeout: Duration,
}

/// Parsed requests allowed to wait for a free offload worker, per
/// worker. Beyond `workers * QUEUE_PER_WORKER` the server sheds load
/// with an immediate `503` + `retry-after`.
const QUEUE_PER_WORKER: usize = 8;

/// How long shutdown waits for in-flight requests to finish before
/// tearing down sockets.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Default worker count: `4 × available_parallelism` clamped to `[8, 32]`
/// (workers spend most of their time blocked on I/O, not computing).
pub fn default_workers() -> usize {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (cpus * 4).clamp(8, 32)
}

/// Reactor event-loop threads: `available_parallelism` clamped to `[1, 8]`.
fn reactor_count() -> usize {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    cpus.clamp(1, 8)
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = default_workers();
        ServerConfig { workers, idle_timeout: Duration::from_secs(60) }
    }
}

/// Serving counters and gauges, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub accepted: AtomicU64,
    /// Requests shed with `503` because the offload queue was full.
    pub rejected_503: AtomicU64,
    /// Transient `accept()` failures survived.
    pub accept_errors: AtomicU64,
    /// Requests answered (any status).
    pub requests_served: AtomicU64,
    /// Connections closed for exceeding the idle window.
    pub idle_closed: AtomicU64,
    /// Gauge: connections currently held open by the serving tier.
    pub open_connections: AtomicU64,
    /// Gauge: reactor event-loop threads.
    pub reactor_threads: AtomicU64,
}

impl ServerStats {
    /// Flat `(name, value)` view for stats endpoints: every counter and
    /// gauge, under its wire name.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("accepted_total", ld(&self.accepted)),
            ("rejected_503", ld(&self.rejected_503)),
            ("accept_errors", ld(&self.accept_errors)),
            ("requests_served", ld(&self.requests_served)),
            ("idle_closed", ld(&self.idle_closed)),
            ("open_connections", ld(&self.open_connections)),
            ("reactor_threads", ld(&self.reactor_threads)),
        ]
    }
}

/// A running HTTP server. Dropping it shuts the server down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<Handle>,
    acceptor_tokens: Vec<Token>,
    reactor_joins: Vec<std::thread::JoinHandle<()>>,
    offload: Arc<OffloadQueue>,
    worker_joins: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server {{ addr: {} }}", self.addr)
    }
}

impl Server {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving with the
    /// default configuration.
    pub fn spawn(handler: Handler) -> std::io::Result<Server> {
        Self::spawn_on("127.0.0.1:0", handler)
    }

    /// Bind to an explicit address with the default configuration.
    pub fn spawn_on(addr: &str, handler: Handler) -> std::io::Result<Server> {
        Self::spawn_with(addr, ServerConfig::default(), handler)
    }

    /// Bind to an explicit address with explicit configuration.
    pub fn spawn_with(addr: &str, cfg: ServerConfig, handler: Handler) -> std::io::Result<Server> {
        Self::spawn_with_stats(addr, cfg, Arc::default(), handler)
    }

    /// [`Server::spawn_with`] counting into caller-made `stats`, so a
    /// handler that reports them (the proxy's and every storage
    /// service's `/stats`) can be built before the server it runs on.
    pub fn spawn_with_stats(
        addr: &str,
        cfg: ServerConfig,
        stats: Arc<ServerStats>,
        handler: Handler,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let reactors = reactor_count();
        let workers = cfg.workers.max(1);

        stats.reactor_threads.store(reactors as u64, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            stats,
            in_flight: AtomicUsize::new(0),
            #[cfg(test)]
            injected_accept_errors: AtomicUsize::new(0),
            idle_timeout: cfg.idle_timeout,
            handler,
        });

        let offload = Arc::new(OffloadQueue::new(workers, workers * QUEUE_PER_WORKER));
        let mut worker_joins = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = Arc::clone(&offload);
            let shared2 = Arc::clone(&shared);
            worker_joins.push(
                std::thread::Builder::new()
                    .name(format!("http-offload-{i}"))
                    .spawn(move || offload_loop(&queue, i, &shared2))?,
            );
        }

        // Every reactor gets a dup of the same listener fd, registered
        // in its own epoll set: accept is level-triggered across all of
        // them and losers of a race simply see WouldBlock.
        let mut listeners = Vec::with_capacity(reactors);
        for _ in 1..reactors {
            listeners.push(listener.try_clone()?);
        }
        listeners.push(listener);

        let mut handles = Vec::with_capacity(reactors);
        let mut acceptor_tokens = Vec::with_capacity(reactors);
        let mut reactor_joins = Vec::with_capacity(reactors);
        let mut spawn_err: Option<std::io::Error> = None;
        for (i, lst) in listeners.into_iter().enumerate() {
            let (htx, hrx) = std::sync::mpsc::channel();
            let shared2 = Arc::clone(&shared);
            let tx2 = Arc::clone(&offload);
            let join =
                std::thread::Builder::new().name(format!("http-reactor-{i}")).spawn(move || {
                    let mut reactor = match Reactor::new() {
                        Ok(r) => r,
                        Err(err) => {
                            let _ = htx.send(Err(err));
                            return;
                        }
                    };
                    let fd = lst.as_raw_fd();
                    let acceptor =
                        Rc::new(RefCell::new(Acceptor { listener: lst, shared: shared2, tx: tx2 }));
                    let dyn_src: Rc<RefCell<dyn Source>> = acceptor;
                    let token = match reactor.register(fd, dyn_src, true, false) {
                        Ok(t) => t,
                        Err(err) => {
                            let _ = htx.send(Err(err));
                            return;
                        }
                    };
                    let _ = htx.send(Ok((reactor.handle(), token)));
                    reactor.run();
                })?;
            reactor_joins.push(join);
            match hrx.recv() {
                Ok(Ok((handle, token))) => {
                    handles.push(handle);
                    acceptor_tokens.push(token);
                }
                Ok(Err(err)) => {
                    spawn_err = Some(err);
                    break;
                }
                Err(_) => {
                    spawn_err = Some(std::io::Error::other("reactor thread died during spawn"));
                    break;
                }
            }
        }
        if let Some(err) = spawn_err {
            shared.stop.store(true, Ordering::SeqCst);
            for h in &handles {
                h.shutdown();
            }
            for j in reactor_joins {
                let _ = j.join();
            }
            offload.close();
            for j in worker_joins {
                let _ = j.join();
            }
            return Err(err);
        }

        Ok(Server { addr, shared, handles, acceptor_tokens, reactor_joins, offload, worker_joins })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Requests parsed and dispatched but not yet fully written back.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Make the next `n` accepted connections behave as transient
    /// `accept()` failures (the connection is dropped and the error path
    /// runs). Test instrumentation for the listener's resilience; real
    /// accept errors (EMFILE, ECONNABORTED) are hard to provoke
    /// portably.
    #[cfg(test)]
    pub(crate) fn inject_accept_errors(&self, n: usize) {
        self.shared.injected_accept_errors.fetch_add(n, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// (bounded by the drain timeout), then tear down idle keep-alive
    /// sockets and join all threads.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop accepting (closes the listener dups), then let in-flight
        // requests finish writing, bounded by the drain timeout. The
        // reactors keep running through the drain so responses flush.
        for (h, &token) in self.handles.iter().zip(&self.acceptor_tokens) {
            h.spawn(move |r| r.close(token));
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for h in &self.handles {
            h.shutdown();
        }
        for j in self.reactor_joins.drain(..) {
            let _ = j.join();
        }
        // Reactor exit dropped every Conn and Acceptor, so nothing can
        // dispatch any more: workers drain the queue and exit.
        self.offload.close();
        for j in self.worker_joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get, http_post};
    use crate::http::{Method, StatusCode};
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::sync::Mutex;

    fn echo_handler() -> Handler {
        Arc::new(|req: &Request| {
            let mut body = format!("{} {}", req.method.as_str(), req.target()).into_bytes();
            body.extend_from_slice(b" | ");
            body.extend_from_slice(&req.body);
            Response::ok("text/plain", body)
        })
    }

    fn echo_server() -> Server {
        Server::spawn(echo_handler()).unwrap()
    }

    #[test]
    fn serves_get() {
        let server = echo_server();
        let resp = http_get(server.addr(), "/hello?a=1").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body, b"GET /hello?a=1 | ");
    }

    #[test]
    fn serves_post_with_body() {
        let server = echo_server();
        let resp = http_post(server.addr(), "/up", "application/octet-stream", vec![b'x'; 100_000])
            .unwrap();
        assert!(resp.status.is_success());
        assert_eq!(resp.body.len(), "POST /up | ".len() + 100_000);
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for j in 0..20 {
                        let resp = http_get(addr, &format!("/t{i}/{j}")).unwrap();
                        assert!(resp.status.is_success());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.stats().requests_served.load(Ordering::Relaxed), 160);
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = echo_server();
        // Issue two requests on one socket manually.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut ws = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..2 {
            let req = Request::new(Method::Get, &format!("/ka/{i}"), Vec::new());
            req.write_to(&mut ws).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.body, format!("GET /ka/{i} | ").as_bytes());
        }
    }

    #[test]
    fn http10_connection_closes_after_response() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut ws = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut req = Request::new(Method::Get, "/old", Vec::new());
        req.version = crate::http::Version::Http10;
        req.write_to(&mut ws).unwrap();
        let resp = Response::read_from(&mut reader).unwrap();
        assert!(resp.status.is_success());
        // The seed kept HTTP/1.0 connections alive; now the server must
        // close after one exchange: the next read sees EOF (a timeout
        // error here means the connection was wrongly kept open).
        use std::io::Read;
        let mut probe = [0u8; 1];
        let n = reader
            .get_mut()
            .read(&mut probe)
            .expect("HTTP/1.0 connection must be closed (EOF), not kept alive");
        assert_eq!(n, 0, "HTTP/1.0 connection must close after the response");
    }

    #[test]
    fn shutdown_stops_serving() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // After shutdown new requests must fail (connection refused or
        // immediate close).
        let res = http_get(addr, "/");
        assert!(res.is_err());
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        stream.write_all(b"NOTAMETHOD / HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
    }

    #[test]
    fn chunked_request_gets_400_and_its_body_is_never_a_second_request() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        use std::io::{Read, Write};
        // The chunk "body" is itself a well-formed request: framed as
        // `content-length: 0` it would be served as one.
        let smuggled = "GET /smuggled HTTP/1.1\r\n\r\n";
        let wire = format!(
            "POST /upload HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
            smuggled.len()
        );
        stream.write_all(wire.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("connection must be closed, not kept open");
        assert!(rest.is_empty(), "answered past the 400: {:?}", String::from_utf8_lossy(&rest));
    }

    #[test]
    fn handler_panic_answers_500_and_worker_survives() {
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig { workers: 1, ..Default::default() },
            Arc::new(|req: &Request| {
                if req.path == "/boom" {
                    panic!("handler bug");
                }
                Response::ok("text/plain", b"fine".to_vec())
            }),
        )
        .unwrap();
        let resp = http_get(server.addr(), "/boom").unwrap();
        assert_eq!(resp.status, StatusCode::INTERNAL);
        // The single worker must still be alive to answer this.
        let resp = http_get(server.addr(), "/ok").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }

    #[test]
    fn queue_overflow_sheds_load_with_503_retry_after() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let entered_tx = Mutex::new(entered_tx);
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig { workers: 1, ..Default::default() },
            Arc::new(move |_req: &Request| {
                let _ = entered_tx.lock().unwrap().send(());
                let _ = release_rx.lock().unwrap().recv();
                Response::ok("text/plain", b"slow".to_vec())
            }),
        )
        .unwrap();
        let addr = server.addr();

        // Occupy the only worker.
        let first = std::thread::spawn(move || http_get(addr, "/a").unwrap());
        entered_rx.recv().unwrap();
        // Fill the worker's queue slots with slow requests
        // (backpressure acts at dispatch time, so the requests must
        // actually be sent).
        let queued: Vec<_> = (0..QUEUE_PER_WORKER)
            .map(|i| std::thread::spawn(move || http_get(addr, &format!("/q/{i}")).unwrap()))
            .collect();
        std::thread::sleep(Duration::from_millis(200));

        // The next connection must be shed with 503 + retry-after —
        // even though it has already written its request bytes (closing
        // with them unread must not RST away the response).
        let mut over = TcpStream::connect(addr).unwrap();
        Request::new(Method::Get, "/shed", Vec::new()).write_to(&mut over).unwrap();
        let mut reader = BufReader::new(over);
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get("retry-after"), Some("1"));
        assert!(server.stats().rejected_503.load(Ordering::Relaxed) >= 1);

        for _ in 0..=QUEUE_PER_WORKER {
            release_tx.send(()).unwrap();
        }
        let resp = first.join().unwrap();
        assert!(resp.status.is_success());
        for handle in queued {
            assert!(handle.join().unwrap().status.is_success());
        }
    }

    #[test]
    fn listener_survives_transient_accept_errors() {
        let server = echo_server();
        let addr = server.addr();
        // The seed's accept loop did `Err(_) => break`: one transient
        // accept failure permanently killed the listener. Simulate three
        // failures and verify later connections still get served.
        server.inject_accept_errors(3);
        for _ in 0..3 {
            // These connections are consumed by the injected failures
            // (closed without a response) — ignore the client error.
            let _ = http_get(addr, "/dropped");
        }
        let resp = http_get(addr, "/alive").expect("listener must survive accept errors");
        assert!(resp.status.is_success());
        assert_eq!(server.stats().accept_errors.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_request() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let entered_tx = Mutex::new(entered_tx);
        let mut server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
            Arc::new(move |_req: &Request| {
                let _ = entered_tx.lock().unwrap().send(());
                std::thread::sleep(Duration::from_millis(300));
                Response::ok("text/plain", b"drained".to_vec())
            }),
        )
        .unwrap();
        let addr = server.addr();
        let client = std::thread::spawn(move || http_get(addr, "/slow"));
        // Only start shutting down once the request is inside the handler.
        entered_rx.recv().unwrap();
        server.shutdown();
        let resp = client.join().unwrap().expect("in-flight request was dropped by shutdown");
        assert_eq!(resp.body, b"drained");
    }

    #[test]
    fn idle_timeout_closes_connection_and_counts_it() {
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig { idle_timeout: Duration::from_millis(100), ..Default::default() },
            echo_handler(),
        )
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut ws = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        Request::new(Method::Get, "/once", Vec::new()).write_to(&mut ws).unwrap();
        let resp = Response::read_from(&mut reader).unwrap();
        assert!(resp.status.is_success());
        // Sit idle past the window: the server must close the
        // connection and count it.
        use std::io::Read;
        let mut probe = [0u8; 1];
        let n = reader
            .get_mut()
            .read(&mut probe)
            .unwrap_or_else(|e| panic!("expected idle close (EOF), got error {e}"));
        assert_eq!(n, 0, "idle connection must be closed");
        // The counter and gauge must reflect it (allow a beat for
        // the server side to finish its teardown).
        for _ in 0..100 {
            if server.stats().idle_closed.load(Ordering::Relaxed) >= 1
                && server.stats().open_connections.load(Ordering::SeqCst) == 0
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.stats().idle_closed.load(Ordering::Relaxed) >= 1);
        assert_eq!(server.stats().open_connections.load(Ordering::SeqCst), 0);
    }

    /// Slot entries on every reactor's timer wheel, read on the reactor
    /// threads themselves.
    fn timer_hints(server: &Server) -> usize {
        let counts: Vec<_> = server
            .handles
            .iter()
            .map(|h| {
                let (tx, rx) = std::sync::mpsc::channel();
                assert!(h.spawn(move |r| tx.send(r.timer_hints()).unwrap()));
                rx
            })
            .collect();
        counts.into_iter().map(|rx| rx.recv().unwrap()).sum()
    }

    #[test]
    fn keep_alive_requests_leave_one_timer_hint_per_tick() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut ws = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let begun = Instant::now();
        for i in 0..1_000 {
            Request::new(Method::Get, &format!("/ka/{i}"), Vec::new()).write_to(&mut ws).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.body, format!("GET /ka/{i} | ").as_bytes());
        }
        // Every reply re-arms the idle deadline; re-arming at the tick
        // already armed files nothing, so the connection holds one hint
        // per 16 ms wheel tick it was re-armed in (plus the accept's),
        // not one or two per request.
        let ticks = begun.elapsed().as_millis() as usize / 16 + 2;
        let hints = timer_hints(&server);
        assert!(hints <= ticks + 1, "{hints} timer hints for 1 000 requests over {ticks} ticks");
    }

    #[test]
    fn a_handler_slower_than_the_idle_window_still_answers() {
        let idle = Duration::from_millis(100);
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig { idle_timeout: idle, ..Default::default() },
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(300));
                Response::ok("text/plain", b"late".to_vec())
            }),
        )
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut ws = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        Request::new(Method::Get, "/slow", Vec::new()).write_to(&mut ws).unwrap();
        // The idle deadline armed before dispatch fires while the handler
        // sleeps; a dispatched connection must outlive it.
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.body, b"late");
        let answered = Instant::now();
        use std::io::Read;
        let mut probe = [0u8; 1];
        let n = reader
            .get_mut()
            .read(&mut probe)
            .unwrap_or_else(|e| panic!("expected idle close (EOF), got error {e}"));
        assert_eq!(n, 0, "idle connection must be closed");
        // Closed one idle window after the answer: not at once (a timer
        // left over from the dispatch), not at the 10 s I/O deadline.
        let waited = answered.elapsed();
        assert!(waited >= idle / 2 && waited < 10 * idle, "closed {waited:?} after the answer");
        for _ in 0..100 {
            if server.stats().idle_closed.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().idle_closed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn multiplexes_idle_connections_beyond_worker_count() {
        // 150 concurrent keep-alive connections against 2 offload
        // workers: the reactor must serve all of them and keep every
        // connection open.
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
            echo_handler(),
        )
        .unwrap();
        let addr = server.addr();
        let mut conns = Vec::new();
        for i in 0..150 {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut ws = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            Request::new(Method::Get, &format!("/c/{i}"), Vec::new()).write_to(&mut ws).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.body, format!("GET /c/{i} | ").as_bytes());
            conns.push((ws, reader));
        }
        assert_eq!(server.stats().open_connections.load(Ordering::SeqCst), 150);
        assert_eq!(server.stats().rejected_503.load(Ordering::Relaxed), 0, "nothing was shed");
        assert!(server.stats().reactor_threads.load(Ordering::Relaxed) >= 1);
        // Every connection is still serviceable after idling.
        let (ws, reader) = &mut conns[97];
        Request::new(Method::Get, "/again", Vec::new()).write_to(ws).unwrap();
        let resp = Response::read_from(reader).unwrap();
        assert_eq!(resp.body, b"GET /again | ");
    }

    #[test]
    fn serves_pipelined_requests() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Two requests in one write: both must be answered, in order.
        let mut wire = Vec::new();
        Request::new(Method::Get, "/p/1", Vec::new()).write_to(&mut wire).unwrap();
        Request::new(Method::Get, "/p/2", Vec::new()).write_to(&mut wire).unwrap();
        use std::io::Write;
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        let r1 = Response::read_from(&mut reader).unwrap();
        assert_eq!(r1.body, b"GET /p/1 | ");
        let r2 = Response::read_from(&mut reader).unwrap();
        assert_eq!(r2.body, b"GET /p/2 | ");
    }
}

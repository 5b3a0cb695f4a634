//! Blocking HTTP client: one-shot helpers and a keep-alive
//! [`ClientPool`] that reuses TCP connections per upstream address.
//! Every outbound request in the system goes through one exchange —
//! write the request, read the reply with [`Response::read_from`], the
//! same push parser the reactors run on requests.

use crate::http::{HttpError, Method, Request, Response};
use crate::transport::{Connection, Deadlines, TcpTransport, Transport};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect.
    Connect(std::io::Error),
    /// Protocol or IO failure mid-exchange.
    Http(HttpError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Http(e) => write!(f, "http: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Http(e)
    }
}

/// Send one request to `addr` on a fresh connection and read the
/// response (`Connection: close`). For repeated traffic to the same
/// upstream, prefer [`ClientPool`], which reuses sockets.
pub fn send(addr: SocketAddr, mut request: Request) -> Result<Response, ClientError> {
    let stream = TcpTransport.connect(addr, Deadlines::default()).map_err(ClientError::Connect)?;
    request.headers.set("connection", "close");
    request.headers.set("host", addr.to_string());
    ClientPool::exchange(&mut BufReader::new(stream), &request)
}

/// GET `path` from `addr`.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<Response, ClientError> {
    send(addr, Request::new(Method::Get, path, Vec::new()))
}

/// POST `body` to `path` at `addr`.
pub fn http_post(
    addr: SocketAddr,
    path: &str,
    content_type: &str,
    body: Vec<u8>,
) -> Result<Response, ClientError> {
    let mut req = Request::new(Method::Post, path, body);
    req.headers.set("content-type", content_type);
    send(addr, req)
}

/// An idle pooled connection (a buffered transport stream), stamped
/// with when it went idle. Writes go through the `BufReader`'s inner
/// stream (`get_mut`); exchanges are strictly write-then-read, so one
/// handle serves both directions.
struct PooledConn {
    stream: BufReader<Box<dyn Connection>>,
    idle_since: Instant,
}

/// Idle age beyond which a pooled socket is discarded at checkout
/// instead of tried: past an upstream's idle window a pooled socket is
/// a guaranteed-stale failed exchange plus reconnect, so skip straight
/// to the reconnect. Half the servers' default idle window
/// ([`crate::ServerConfig::idle_timeout`], 60 s): a socket this young
/// is still open on any default-configured upstream, and one closed
/// early anyway is caught by the stale-socket retry.
const MAX_IDLE_AGE: Duration = Duration::from_secs(30);

/// Keep-alive connection pool keyed by upstream address.
///
/// The proxy talks to exactly two upstreams (PSP and storage) on every
/// photo, so paying a TCP connect per request — as the seed's one-shot
/// client did — doubles the syscall traffic and adds a round-trip per
/// hop. The pool checks out an idle socket when one exists, falls back
/// to a fresh connect otherwise, and returns healthy sockets after each
/// exchange. Stale pooled sockets (closed by the upstream while idle)
/// are detected by the failed exchange and retried once on a fresh
/// connection, so callers never see an error a reconnect would fix.
pub struct ClientPool {
    idle: Mutex<HashMap<SocketAddr, Vec<PooledConn>>>,
    transport: Arc<dyn Transport>,
    deadlines: Deadlines,
    connects: AtomicU64,
    reuses: AtomicU64,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("transport", &self.transport)
            .field("deadlines", &self.deadlines)
            .field("connects", &self.connects.load(Ordering::Relaxed))
            .field("reuses", &self.reuses.load(Ordering::Relaxed))
            .finish()
    }
}

/// Idle sockets kept per upstream (each costs the upstream one fd and
/// a timer-wheel entry for its idle window).
const MAX_IDLE_PER_HOST: usize = 4;

impl Default for ClientPool {
    /// A pool over plain TCP with the default 20 s deadlines.
    fn default() -> Self {
        Self::with_transport(Arc::new(TcpTransport), Deadlines::default())
    }
}

impl ClientPool {
    /// Pool over a caller-supplied [`Transport`] with explicit
    /// per-request connect/read deadlines — the storage cluster uses
    /// this to bound how much a black-holed peer can cost, and the
    /// router and the proxy both take their transport here, so a
    /// harness can inject network faults on either.
    pub fn with_transport(transport: Arc<dyn Transport>, deadlines: Deadlines) -> ClientPool {
        ClientPool {
            idle: Mutex::new(HashMap::new()),
            transport,
            deadlines,
            connects: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Fresh TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Exchanges that reused a pooled socket.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    fn checkout(&self, addr: SocketAddr) -> Option<PooledConn> {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let slot = idle.get_mut(&addr)?;
        // LIFO keeps hot sockets hot; anything older than the servers'
        // idle window has already been closed on the other end.
        while let Some(conn) = slot.pop() {
            if conn.idle_since.elapsed() <= MAX_IDLE_AGE {
                return Some(conn);
            }
        }
        None
    }

    fn put_back(&self, addr: SocketAddr, mut conn: PooledConn) {
        conn.idle_since = Instant::now();
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let slot = idle.entry(addr).or_default();
        if slot.len() < MAX_IDLE_PER_HOST {
            slot.push(conn);
        }
    }

    /// Write `request` on `stream` and read its reply: the one exchange
    /// every outbound call makes.
    fn exchange(
        stream: &mut BufReader<Box<dyn Connection>>,
        request: &Request,
    ) -> Result<Response, ClientError> {
        request.write_to(stream.get_mut()).map_err(HttpError::Io)?;
        Ok(Response::read_from(stream)?)
    }

    /// Send `request` to `addr`, reusing a pooled connection when one is
    /// idle. The request goes out keep-alive (HTTP/1.1 default) and the
    /// socket is pooled again unless the server answered
    /// `Connection: close`.
    ///
    /// Only idempotent methods ride pooled sockets: a stale socket is
    /// detected by a failed exchange and transparently retried on a
    /// fresh connection, and replaying a non-idempotent request (a
    /// `POST /photos` the upstream may have already processed before the
    /// response was lost) could duplicate its side effects. `POST`s
    /// therefore always open a fresh connection — which still joins the
    /// pool afterwards — and surface any failure to the caller.
    ///
    /// A target `write_to` would refuse is refused here, before a pooled
    /// socket is taken or a fresh one opened: that refusal is no sign
    /// of a stale socket, and a retry would meet it again.
    pub fn send(&self, addr: SocketAddr, mut request: Request) -> Result<Response, ClientError> {
        request.check_target().map_err(HttpError::Io)?;
        request.headers.set("host", addr.to_string());
        let idempotent = !matches!(request.method, Method::Post);
        if idempotent {
            if let Some(mut conn) = self.checkout(addr) {
                match Self::exchange(&mut conn.stream, &request) {
                    Ok(resp) => {
                        self.reuses.fetch_add(1, Ordering::Relaxed);
                        self.recycle(addr, conn, &resp);
                        return Ok(resp);
                    }
                    // The idle socket went stale (upstream closed or
                    // reset it); fall through to a fresh connection.
                    Err(_) => drop(conn),
                }
            }
        }
        let stream = self.transport.connect(addr, self.deadlines).map_err(ClientError::Connect)?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        let mut conn = PooledConn { stream: BufReader::new(stream), idle_since: Instant::now() };
        let resp = Self::exchange(&mut conn.stream, &request)?;
        self.recycle(addr, conn, &resp);
        Ok(resp)
    }

    fn recycle(&self, addr: SocketAddr, conn: PooledConn, resp: &Response) {
        let close = resp
            .headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        if !close {
            self.put_back(addr, conn);
        }
    }

    /// GET `path` from `addr` over the pool.
    pub fn get(&self, addr: SocketAddr, path: &str) -> Result<Response, ClientError> {
        self.send(addr, Request::new(Method::Get, path, Vec::new()))
    }

    /// PUT `body` to `path` at `addr` over the pool.
    pub fn put(
        &self,
        addr: SocketAddr,
        path: &str,
        content_type: &str,
        body: Vec<u8>,
    ) -> Result<Response, ClientError> {
        let mut req = Request::new(Method::Put, path, body);
        req.headers.set("content-type", content_type);
        self.send(addr, req)
    }

    /// DELETE `path` at `addr` over the pool.
    pub fn delete(&self, addr: SocketAddr, path: &str) -> Result<Response, ClientError> {
        self.send(addr, Request::new(Method::Delete, path, Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::StatusCode;
    use crate::server::Server;
    use std::sync::Arc;

    #[test]
    fn connect_failure_is_reported() {
        // Port 1 on localhost is almost certainly closed.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        match http_get(addr, "/") {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    fn ok_server() -> Server {
        Server::spawn(Arc::new(|req: &Request| {
            Response::ok("text/plain", req.target().into_bytes())
        }))
        .unwrap()
    }

    #[test]
    fn pool_reuses_connections_for_sequential_requests() {
        let server = ok_server();
        let pool = ClientPool::default();
        for i in 0..10 {
            let resp = pool.get(server.addr(), &format!("/seq/{i}")).unwrap();
            assert_eq!(resp.status, StatusCode::OK);
            assert_eq!(resp.body, format!("/seq/{i}").into_bytes());
        }
        assert_eq!(pool.connects(), 1, "sequential requests must share one socket");
        assert_eq!(pool.reuses(), 9);
    }

    #[test]
    fn a_refused_target_keeps_the_pooled_socket_and_opens_none() {
        let server = ok_server();
        let pool = ClientPool::default();
        assert!(pool.get(server.addr(), "/before").is_ok());
        for bad in ["/blobs/7 HTTP/1.1", "/blobs/7\r\n", "/a?k=\x7f"] {
            match pool.get(server.addr(), bad) {
                Err(ClientError::Http(HttpError::Io(e))) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{bad:?}")
                }
                other => panic!("{bad:?} must be refused, got {other:?}"),
            }
        }
        assert!(pool.get(server.addr(), "/after").is_ok());
        assert_eq!(pool.connects(), 1, "a refused target must not open a connection");
        assert_eq!(pool.reuses(), 1, "nor drop the pooled one");
    }

    #[test]
    fn pool_reuses_a_socket_after_a_sub_second_pause() {
        let server = ok_server();
        let pool = ClientPool::default();
        assert!(pool.get(server.addr(), "/before").is_ok());
        // Far inside the server's idle window: the socket is still open
        // on the other end and must not be thrown away.
        std::thread::sleep(Duration::from_millis(600));
        assert!(pool.get(server.addr(), "/after").is_ok());
        assert_eq!(pool.connects(), 1, "a 600 ms pause must not cost a reconnect");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn pool_recovers_from_stale_sockets() {
        let mut server = ok_server();
        let addr = server.addr();
        let pool = ClientPool::default();
        assert!(pool.get(addr, "/warm").is_ok());
        // Restart the server on the same port: the pooled socket is now
        // dead and the pool must reconnect transparently.
        server.shutdown();
        let server2 = Server::spawn_on(&addr.to_string(), {
            Arc::new(|req: &Request| Response::ok("text/plain", req.target().into_bytes()))
        })
        .unwrap();
        let resp = pool.get(server2.addr(), "/after").unwrap();
        assert_eq!(resp.body, b"/after");
        assert_eq!(pool.connects(), 2, "stale socket must be replaced, not surfaced");
    }

    #[test]
    fn posts_never_ride_pooled_sockets() {
        let server = ok_server();
        let pool = ClientPool::default();
        for _ in 0..3 {
            assert!(pool.send(server.addr(), Request::new(Method::Post, "/p", vec![1])).is_ok());
        }
        // A stale-socket retry would silently replay the POST, so each
        // one must open its own connection...
        assert_eq!(pool.connects(), 3, "POSTs must not reuse pooled sockets");
        assert_eq!(pool.reuses(), 0);
        // ...but the sockets still join the pool for idempotent traffic.
        assert!(pool.get(server.addr(), "/g").is_ok());
        assert_eq!(pool.connects(), 3, "GET must reuse a socket a POST left behind");
        assert_eq!(pool.reuses(), 1);
    }
}

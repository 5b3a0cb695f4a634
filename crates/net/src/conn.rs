//! The connection state machines behind [`crate::server::Server`].
//!
//! Each accepted connection becomes a `Conn` source registered with one
//! reactor. The connection's whole lifecycle is an explicit state
//! machine:
//!
//! ```text
//!   Reading --parse complete--> Dispatched --response ready--> Writing
//!      ^                                                          |
//!      +-------------------- keep-alive ------------------------- +
//! ```
//!
//! * **Reading**: read interest on; bytes feed a resumable
//!   [`RequestParser`]. The timer wheel holds the idle window while no
//!   request is in progress and the I/O timeout once one is.
//! * **Dispatched**: the parsed request sits on the offload queue or
//!   inside a handler; the reactor neither reads (pipelined bytes stay
//!   buffered) nor times the connection out. When the queue is full the
//!   reactor answers `503 + retry-after` itself — the request is already
//!   fully parsed, so there are no unread request bytes whose RST could
//!   outrun the response.
//! * **Writing**: write interest on; the serialized response drains as
//!   the socket accepts it, under the I/O timeout.
//!
//! Handlers never run on a reactor thread: blocking work (JPEG codec,
//! disk fsync, upstream round-trips) happens on the offload workers,
//! which hand the serialized response back via [`Handle::wake_source`].

use crate::http::{HttpError, Request, RequestParser, Response, StatusCode};
use crate::server::{Handler, ServerStats, IO_TIMEOUT};
use p3_reactor::{Handle, Reactor, Source, Token};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// State shared by the reactors, the offload workers, and shutdown.
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    pub(crate) stats: Arc<ServerStats>,
    /// Requests parsed and dispatched but not yet fully written back.
    pub(crate) in_flight: AtomicUsize,
    /// Test hook: pending simulated `accept()` failures (see
    /// [`crate::server::Server::inject_accept_errors`]).
    #[cfg(test)]
    pub(crate) injected_accept_errors: AtomicUsize,
    pub(crate) idle_timeout: Duration,
    pub(crate) handler: Handler,
}

/// A parsed request in transit to the offload pool. The worker runs the
/// handler, serializes the response, parks the bytes in `slot`, and
/// kicks the owning reactor so the connection starts writing.
pub(crate) struct OffloadJob {
    request: Request,
    reactor: Handle,
    token: Token,
    slot: Arc<Mutex<Option<Vec<u8>>>>,
}

/// The bounded hand-off from the reactors to the offload workers.
///
/// Idle workers are woken **most-recently-idle first**: the worker that
/// just finished a request — its stack, allocator arena and codec
/// scratch still in cache — takes the next one, and load no wider than
/// `k` requests at a time only ever runs on `k` threads. (Workers
/// sharing one channel receiver take turns instead, so every request
/// ran on the thread that had slept longest; on the view path that cost
/// more than the network hop it sits behind.)
pub(crate) struct OffloadQueue<T = OffloadJob> {
    state: Mutex<QueueState<T>>,
    /// One per worker, so a wake-up goes to the worker chosen.
    wake: Vec<Condvar>,
    depth: usize,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    /// Workers waiting for a job, most recently idle last.
    idle: Vec<usize>,
    closed: bool,
}

/// Why [`OffloadQueue::try_send`] handed a job back.
pub(crate) enum SendError {
    /// `depth` requests are already waiting for a worker.
    Full,
    /// The server is shutting down.
    Closed,
}

impl<T> OffloadQueue<T> {
    pub(crate) fn new(workers: usize, depth: usize) -> Self {
        OffloadQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(depth),
                idle: Vec::with_capacity(workers),
                closed: false,
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
            depth,
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // A queue of whole jobs and indices is valid at every step.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_send(&self, job: T) -> Result<(), SendError> {
        let mut state = self.state();
        if state.closed {
            return Err(SendError::Closed);
        }
        if state.jobs.len() >= self.depth {
            return Err(SendError::Full);
        }
        state.jobs.push_back(job);
        if let Some(worker) = state.idle.pop() {
            self.wake[worker].notify_one();
        }
        Ok(())
    }

    /// The next job for `worker`, or `None` once the queue is closed and
    /// drained.
    fn recv(&self, worker: usize) -> Option<T> {
        let mut state = self.state();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            // A spurious wake-up finds the worker still listed.
            if !state.idle.contains(&worker) {
                state.idle.push(worker);
            }
            state = self.wake[worker].wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// No more jobs will be sent: workers finish what is queued and exit.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.wake.iter().for_each(Condvar::notify_one);
    }
}

pub(crate) fn offload_loop(queue: &OffloadQueue, worker: usize, shared: &Shared) {
    while let Some(job) = queue.recv(worker) {
        // A panicking handler must cost one response, not one worker.
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (shared.handler)(&job.request)
        })) {
            Ok(resp) => resp,
            Err(_) => Response::text(StatusCode::INTERNAL, "handler panicked"),
        };
        shared.stats.requests_served.fetch_add(1, Ordering::SeqCst);
        let mut bytes = Vec::new();
        let _ = response.write_to(&mut bytes);
        *job.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(bytes);
        // If the connection died meanwhile its token is gone and the
        // wake is a no-op; tokens are never reused within a reactor.
        job.reactor.wake_source(job.token);
    }
}

/// Listener source: accepts until `WouldBlock`, registering each new
/// connection as a [`Conn`] on this reactor.
pub(crate) struct Acceptor {
    pub(crate) listener: TcpListener,
    pub(crate) shared: Arc<Shared>,
    pub(crate) tx: Arc<OffloadQueue>,
}

impl Source for Acceptor {
    fn on_ready(&mut self, r: &mut Reactor, token: Token, _readable: bool, _writable: bool) {
        if self.shared.stop.load(Ordering::SeqCst) {
            r.close(token);
            return;
        }
        loop {
            match self.listener.accept() {
                Ok(conn) => {
                    // Injected-failure hook: treat the accept as a
                    // transient error so the resilience path is
                    // exercised end to end.
                    #[cfg(test)]
                    if self
                        .shared
                        .injected_accept_errors
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        drop(conn);
                        self.shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let (stream, _) = conn;
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let conn = Rc::new(RefCell::new(Conn::new(
                        stream,
                        Arc::clone(&self.shared),
                        Arc::clone(&self.tx),
                    )));
                    let dyn_src: Rc<RefCell<dyn Source>> = conn.clone();
                    if let Ok(t) = r.register(fd, dyn_src, true, false) {
                        let mut c = conn.borrow_mut();
                        c.token = t;
                        c.rearm(r);
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE/ECONNABORTED).
                    // Never sleep on a reactor thread: mask the listener
                    // and re-arm it from the timer wheel instead.
                    self.shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = r.set_interest(token, false, false);
                    r.set_timer(token, Instant::now() + Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    fn on_timer(&mut self, r: &mut Reactor, token: Token) {
        // Accept-error backoff elapsed: listen again.
        let _ = r.set_interest(token, true, false);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request; parser holds partial state.
    Reading,
    /// Request on the offload queue or inside a handler.
    Dispatched,
    /// Draining a serialized response into the socket.
    Writing,
}

/// One downstream connection: an explicit state machine driven by
/// readiness callbacks, timer expiries, and offload-completion wakes.
struct Conn {
    stream: TcpStream,
    shared: Arc<Shared>,
    tx: Arc<OffloadQueue>,
    token: Token,
    parser: RequestParser,
    /// Bytes read but not yet consumed by the parser (pipelining).
    pending: VecDeque<u8>,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    keep_alive: bool,
    close_after_write: bool,
    /// Peer sent FIN; readable events past this point mean full hangup.
    peer_eof: bool,
    holds_in_flight: bool,
    closed: bool,
    slot: Arc<Mutex<Option<Vec<u8>>>>,
}

impl Conn {
    fn new(stream: TcpStream, shared: Arc<Shared>, tx: Arc<OffloadQueue>) -> Conn {
        shared.stats.open_connections.fetch_add(1, Ordering::SeqCst);
        Conn {
            stream,
            shared,
            tx,
            token: 0,
            parser: RequestParser::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            keep_alive: true,
            close_after_write: false,
            peer_eof: false,
            holds_in_flight: false,
            closed: false,
            slot: Arc::new(Mutex::new(None)),
        }
    }

    fn close_conn(&mut self, r: &mut Reactor) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.release_in_flight();
        r.close(self.token);
    }

    fn release_in_flight(&mut self) {
        if self.holds_in_flight {
            self.holds_in_flight = false;
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Re-derive epoll interest and the timer from the current state.
    fn rearm(&mut self, r: &mut Reactor) {
        if self.closed {
            return;
        }
        let (want_read, want_write) = match self.state {
            ConnState::Reading => (!self.peer_eof, false),
            ConnState::Dispatched => (false, false),
            ConnState::Writing => (false, true),
        };
        let _ = r.set_interest(self.token, want_read, want_write);
        match self.state {
            ConnState::Reading => {
                let idle = self.parser.is_idle() && self.pending.is_empty();
                let window = if idle { self.shared.idle_timeout } else { IO_TIMEOUT };
                r.set_timer(self.token, Instant::now() + window);
            }
            // No deadline while the handler runs: the offload pool is
            // bounded, not timed.
            ConnState::Dispatched => r.clear_timer(self.token),
            ConnState::Writing => r.set_timer(self.token, Instant::now() + IO_TIMEOUT),
        }
    }

    /// Drain the socket into `pending`. Returns false if the connection
    /// was closed.
    fn read_some(&mut self, r: &mut Reactor) -> bool {
        let mut buf = [0u8; 16384];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    if self.peer_eof {
                        // Second EOF observation means EPOLLHUP — the
                        // peer is fully gone and can't receive anything.
                        self.close_conn(r);
                        return false;
                    }
                    self.peer_eof = true;
                    return true;
                }
                Ok(n) => self.pending.extend(&buf[..n]),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(r);
                    return false;
                }
            }
        }
    }

    /// Feed buffered bytes to the parser; dispatch every complete
    /// request (pipelined requests are answered strictly in order: the
    /// next one isn't parsed until the previous response flushed).
    fn process_pending(&mut self, r: &mut Reactor) {
        while self.state == ConnState::Reading && !self.pending.is_empty() && !self.closed {
            self.pending.make_contiguous();
            let (head, _) = self.pending.as_slices();
            match self.parser.feed(head) {
                Ok((n, Some(request))) => {
                    self.pending.drain(..n);
                    self.dispatch(r, request);
                }
                Ok((n, None)) => {
                    self.pending.drain(..n);
                    return;
                }
                Err(HttpError::Closed) | Err(HttpError::Io(_)) => {
                    self.close_conn(r);
                    return;
                }
                Err(e) => {
                    let resp = Response::text(StatusCode::BAD_REQUEST, &e.to_string());
                    self.close_after_write = true;
                    self.start_write(&resp);
                    return;
                }
            }
        }
    }

    fn dispatch(&mut self, r: &mut Reactor, request: Request) {
        self.keep_alive = request.wants_keep_alive();
        self.slot = Arc::new(Mutex::new(None));
        let job = OffloadJob {
            request,
            reactor: r.handle(),
            token: self.token,
            slot: Arc::clone(&self.slot),
        };
        // Count before try_send so the shutdown drain can never observe
        // a parsed request as neither queued nor in flight.
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        self.holds_in_flight = true;
        match self.tx.try_send(job) {
            Ok(()) => self.state = ConnState::Dispatched,
            Err(SendError::Full) => {
                self.release_in_flight();
                self.shared.stats.rejected_503.fetch_add(1, Ordering::Relaxed);
                let mut resp =
                    Response::text(StatusCode::SERVICE_UNAVAILABLE, "server at capacity");
                resp.headers.set("retry-after", "1");
                resp.headers.set("connection", "close");
                self.close_after_write = true;
                self.start_write(&resp);
            }
            Err(SendError::Closed) => {
                self.release_in_flight();
                self.close_conn(r);
            }
        }
    }

    /// Serialize `resp` and enter the Writing state (the actual flush
    /// happens on the next writable pass).
    fn start_write(&mut self, resp: &Response) {
        self.out.clear();
        self.out_pos = 0;
        let _ = resp.write_to(&mut self.out);
        self.state = ConnState::Writing;
    }

    fn try_flush(&mut self, r: &mut Reactor) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.close_conn(r);
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.rearm(r);
                    return;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(r);
                    return;
                }
            }
        }
        // Response fully handed to the kernel.
        self.release_in_flight();
        self.out.clear();
        self.out_pos = 0;
        if self.close_after_write {
            self.close_conn(r);
            return;
        }
        self.state = ConnState::Reading;
        // A pipelined next request may already be buffered.
        self.process_pending(r);
        if !self.closed {
            self.rearm(r);
        }
    }
}

impl Source for Conn {
    fn on_ready(&mut self, r: &mut Reactor, _token: Token, readable: bool, writable: bool) {
        if self.closed {
            return;
        }
        if readable && !self.read_some(r) {
            return;
        }
        if self.peer_eof && self.state != ConnState::Reading {
            // Response in progress for a half-closed peer: deliver it,
            // then close instead of idling on a dead connection.
            self.close_after_write = true;
        }
        if self.state == ConnState::Reading {
            self.process_pending(r);
            if self.closed {
                return;
            }
            if self.state == ConnState::Reading && self.peer_eof {
                // No request in progress and no more bytes coming.
                self.close_conn(r);
                return;
            }
        }
        if self.state == ConnState::Writing && (writable || self.out_pos < self.out.len()) {
            self.try_flush(r);
            if self.closed {
                return;
            }
        }
        self.rearm(r);
    }

    fn on_timer(&mut self, r: &mut Reactor, _token: Token) {
        if self.closed || self.state == ConnState::Dispatched {
            return;
        }
        let idle =
            self.state == ConnState::Reading && self.parser.is_idle() && self.pending.is_empty();
        if idle {
            self.shared.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
        }
        self.close_conn(r);
    }

    fn on_wake(&mut self, r: &mut Reactor, _token: Token) {
        if self.closed {
            return;
        }
        let bytes = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(bytes) = bytes {
            if self.state != ConnState::Dispatched {
                return; // stale wake for an abandoned exchange
            }
            self.out = bytes;
            self.out_pos = 0;
            self.state = ConnState::Writing;
            if !self.keep_alive || self.shared.stop.load(Ordering::SeqCst) {
                self.close_after_write = true;
            }
            self.try_flush(r);
            if !self.closed {
                self.rearm(r);
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Reached either via close_conn or via reactor teardown
        // dropping all sources; both must settle the gauges.
        self.release_in_flight();
        self.shared.stats.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn the_worker_idle_last_is_woken_first_and_close_drains() {
        let queue = Arc::new(OffloadQueue::<u32>::new(3, 2));
        let (ran_tx, ran) = mpsc::channel();
        let idle = |n: usize| {
            while queue.state().idle.len() != n {
                std::thread::yield_now();
            }
        };
        // Workers go idle one at a time, so the stack is [0, 1, 2].
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let (queue, ran_tx) = (Arc::clone(&queue), ran_tx.clone());
                let join = std::thread::spawn(move || {
                    while let Some(job) = queue.recv(w) {
                        ran_tx.send((w, job)).unwrap();
                    }
                });
                idle(w + 1);
                join
            })
            .collect();
        // One job at a time always lands on the warm worker.
        for job in 0..5 {
            assert!(queue.try_send(job).is_ok());
            assert_eq!(ran.recv().unwrap(), (2, job));
            idle(3);
        }
        // Two at once reach one level down the stack, never to worker 0.
        assert!(queue.try_send(10).is_ok() && queue.try_send(11).is_ok());
        let mut pair = [ran.recv().unwrap(), ran.recv().unwrap()];
        pair.sort();
        assert!(pair.iter().all(|&(w, _)| w != 0), "{pair:?}");
        assert_eq!([pair[0].1, pair[1].1], [10, 11]);
        idle(3);
        // The bound counts waiting jobs; close still runs what is queued.
        queue.state().idle.clear(); // nobody to wake: jobs stay queued
        assert!(queue.try_send(20).is_ok() && queue.try_send(21).is_ok());
        assert!(matches!(queue.try_send(22), Err(SendError::Full)));
        queue.close();
        assert!(matches!(queue.try_send(23), Err(SendError::Closed)));
        for join in workers {
            join.join().unwrap();
        }
        let mut drained: Vec<u32> = ran.try_iter().map(|(_, job)| job).collect();
        drained.sort();
        assert_eq!(drained, [20, 21]);
    }
}

//! The event loop: sources, tokens, interest management, timers, and
//! cross-thread job injection.
//!
//! A [`Reactor`] is single-threaded. Connection state machines implement
//! [`Source`] and live in `Rc<RefCell<_>>` cells owned by the reactor;
//! callbacks receive `&mut Reactor` so they can re-arm interest, set
//! timers, register new sources (accept), or close themselves. Other
//! threads interact only through a cloneable [`Handle`]: jobs are pushed
//! onto a mutex-protected queue and the loop is kicked out of `epoll_wait`
//! via an `eventfd`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wheel::TimerWheel;

/// Identifies a registered source within one reactor.
pub type Token = u64;

/// Reserved token for the reactor's own wake `eventfd`.
const WAKE_TOKEN: Token = u64::MAX;

/// A connection (or listener) state machine driven by the reactor.
///
/// Callbacks run on the reactor thread with the source's `RefCell`
/// borrowed, so a source must not re-enter itself through the reactor.
pub trait Source {
    /// The fd became readable and/or writable (errors and hang-ups are
    /// reported as both, so a single read/write attempt surfaces them).
    fn on_ready(&mut self, r: &mut Reactor, token: Token, readable: bool, writable: bool);

    /// The timer armed via [`Reactor::set_timer`] fired.
    fn on_timer(&mut self, _r: &mut Reactor, _token: Token) {}

    /// Another thread called [`Handle::wake_source`] for this token.
    fn on_wake(&mut self, _r: &mut Reactor, _token: Token) {}
}

enum Job {
    Run(Box<dyn FnOnce(&mut Reactor) + Send>),
    Wake(Token),
}

struct Shared {
    jobs: Mutex<Vec<Job>>,
    wake: EventFd,
    stop: AtomicBool,
    live: AtomicBool,
}

/// Cross-thread handle to a reactor: enqueue jobs, wake sources, request
/// shutdown. Cheap to clone.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Run `f` on the reactor thread (with `&mut Reactor`). Returns
    /// `false` if the reactor has already exited — the job is dropped.
    pub fn spawn(&self, f: impl FnOnce(&mut Reactor) + Send + 'static) -> bool {
        if !self.is_live() {
            return false;
        }
        self.shared.jobs.lock().expect("reactor jobs").push(Job::Run(Box::new(f)));
        self.shared.wake.signal();
        true
    }

    /// Invoke [`Source::on_wake`] for `token` on the reactor thread.
    pub fn wake_source(&self, token: Token) {
        self.shared.jobs.lock().expect("reactor jobs").push(Job::Wake(token));
        self.shared.wake.signal();
    }

    /// Ask the loop to exit after the current iteration.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.signal();
    }

    /// Whether the reactor loop is still running (or not yet exited).
    fn is_live(&self) -> bool {
        self.shared.live.load(Ordering::SeqCst)
    }
}

struct Entry {
    fd: RawFd,
    src: Rc<RefCell<dyn Source>>,
}

/// A single-threaded epoll event loop with a timer wheel.
pub struct Reactor {
    epoll: Epoll,
    wheel: TimerWheel,
    sources: HashMap<Token, Entry>,
    next_token: Token,
    shared: Arc<Shared>,
    quit: bool,
}

impl Reactor {
    /// A fresh reactor with its wake `eventfd` already registered.
    pub fn new() -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        epoll.add(wake.fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(Reactor {
            epoll,
            wheel: TimerWheel::new(Instant::now()),
            sources: HashMap::new(),
            next_token: 0,
            shared: Arc::new(Shared {
                jobs: Mutex::new(Vec::new()),
                wake,
                stop: AtomicBool::new(false),
                live: AtomicBool::new(true),
            }),
            quit: false,
        })
    }

    /// A cross-thread handle to this reactor.
    pub fn handle(&self) -> Handle {
        Handle { shared: self.shared.clone() }
    }

    /// Register `src` (which owns `fd`) with the given initial interest.
    /// The fd must already be in nonblocking mode.
    pub fn register(
        &mut self,
        fd: RawFd,
        src: Rc<RefCell<dyn Source>>,
        readable: bool,
        writable: bool,
    ) -> io::Result<Token> {
        let token = self.next_token;
        self.next_token += 1;
        self.epoll.add(fd, interest_mask(readable, writable), token)?;
        self.sources.insert(token, Entry { fd, src });
        Ok(token)
    }

    /// Re-arm which readiness events `token` wants.
    pub fn set_interest(&mut self, token: Token, readable: bool, writable: bool) -> io::Result<()> {
        let entry = self
            .sources
            .get(&token)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown token"))?;
        self.epoll.modify(entry.fd, interest_mask(readable, writable), token)
    }

    /// Arm (or re-arm) the one timer slot for `token`.
    pub fn set_timer(&mut self, token: Token, deadline: Instant) {
        self.wheel.set(token, deadline);
    }

    /// Timer-wheel slot entries held, live and stale.
    pub fn timer_hints(&self) -> usize {
        self.wheel.hints()
    }

    /// Deregister and drop the source (closing its fd once the last
    /// reference — possibly a dispatch in progress — is released).
    pub fn close(&mut self, token: Token) {
        if let Some(entry) = self.sources.remove(&token) {
            let _ = self.epoll.del(entry.fd);
        }
        self.wheel.cancel(token);
    }

    /// Ask the loop to exit after the current dispatch round. Callable
    /// from within callbacks.
    pub fn stop(&mut self) {
        self.quit = true;
    }

    fn run_jobs(&mut self) {
        loop {
            let jobs = std::mem::take(&mut *self.shared.jobs.lock().expect("reactor jobs"));
            if jobs.is_empty() {
                return;
            }
            for job in jobs {
                match job {
                    Job::Run(f) => f(self),
                    Job::Wake(token) => {
                        if let Some(src) = self.sources.get(&token).map(|e| e.src.clone()) {
                            src.borrow_mut().on_wake(self, token);
                        }
                    }
                }
            }
        }
    }

    /// Drive the loop until [`Handle::shutdown`] or [`Reactor::stop`].
    pub fn run(&mut self) {
        let mut events: Vec<(Token, u32)> = Vec::new();
        let mut fired: Vec<Token> = Vec::new();
        while !self.quit && !self.shared.stop.load(Ordering::SeqCst) {
            self.run_jobs();
            if self.quit || self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            events.clear();
            if let Err(err) = self.epoll.wait(&mut events, timeout) {
                // Unrecoverable (EBADF/ENOMEM class): bail out rather
                // than spin; connections surface the failure as EOF.
                eprintln!("p3-reactor: epoll_wait failed, stopping loop: {err}");
                break;
            }
            for &(token, ev) in &events {
                if self.quit {
                    break;
                }
                if token == WAKE_TOKEN {
                    self.shared.wake.drain();
                    self.run_jobs();
                    continue;
                }
                let src = match self.sources.get(&token) {
                    Some(entry) => entry.src.clone(),
                    None => continue, // closed earlier in this batch
                };
                let readable = ev & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0;
                let writable = ev & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0;
                src.borrow_mut().on_ready(self, token, readable, writable);
            }
            fired.clear();
            self.wheel.expire(Instant::now(), &mut fired);
            for &token in &fired {
                if self.quit {
                    break;
                }
                let src = match self.sources.get(&token) {
                    Some(entry) => entry.src.clone(),
                    None => continue,
                };
                src.borrow_mut().on_timer(self, token);
            }
        }
        // Final drain so `spawn` callers observing `live == true` just
        // before exit still get their jobs run (or dropped deliberately).
        self.shared.live.store(false, Ordering::SeqCst);
        self.run_jobs();
        self.sources.clear();
    }
}

fn interest_mask(readable: bool, writable: bool) -> u32 {
    let mut mask = 0;
    if readable {
        mask |= EPOLLIN | EPOLLRDHUP;
    }
    if writable {
        mask |= EPOLLOUT;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Spawn a dedicated reactor thread named `name` and return its handle
    /// once the loop is constructed.
    fn spawn_loop(name: &str) -> io::Result<Handle> {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new().name(name.to_string()).spawn(move || {
            let mut reactor = match Reactor::new() {
                Ok(r) => r,
                Err(err) => {
                    let _ = tx.send(Err(err));
                    return;
                }
            };
            let _ = tx.send(Ok(reactor.handle()));
            reactor.run();
        })?;
        rx.recv().map_err(|_| io::Error::other("reactor thread died"))?
    }

    /// Echo server source: reads whatever arrives, writes it back.
    struct Echo {
        stream: TcpStream,
        pending: Vec<u8>,
    }

    impl Source for Echo {
        fn on_ready(&mut self, r: &mut Reactor, token: Token, readable: bool, writable: bool) {
            if readable {
                let mut buf = [0u8; 4096];
                loop {
                    match self.stream.read(&mut buf) {
                        Ok(0) => {
                            r.close(token);
                            return;
                        }
                        Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            r.close(token);
                            return;
                        }
                    }
                }
            }
            if writable || !self.pending.is_empty() {
                while !self.pending.is_empty() {
                    match self.stream.write(&self.pending) {
                        Ok(n) => {
                            self.pending.drain(..n);
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            r.close(token);
                            return;
                        }
                    }
                }
            }
            let _ = r.set_interest(token, true, !self.pending.is_empty());
        }
    }

    struct Acceptor {
        listener: TcpListener,
    }

    impl Source for Acceptor {
        fn on_ready(&mut self, r: &mut Reactor, _token: Token, _readable: bool, _writable: bool) {
            while let Ok((stream, _)) = self.listener.accept() {
                stream.set_nonblocking(true).unwrap();
                let fd = stream.as_raw_fd();
                let echo = Rc::new(RefCell::new(Echo { stream, pending: Vec::new() }));
                r.register(fd, echo, true, false).unwrap();
            }
        }
    }

    #[test]
    fn echo_server_round_trips_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let handle = spawn_loop("test-echo").unwrap();
        assert!(handle.spawn(move |r| {
            let fd = listener.as_raw_fd();
            let acceptor = Rc::new(RefCell::new(Acceptor { listener }));
            r.register(fd, acceptor, true, false).unwrap();
        }));

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"ping over the reactor").unwrap();
        let mut buf = [0u8; 64];
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping over the reactor");

        handle.shutdown();
        for _ in 0..100 {
            if !handle.is_live() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("reactor did not exit after shutdown");
    }

    /// A source that records when its timer fires.
    struct TimerProbe {
        _stream: TcpStream,
        fired: Arc<AtomicBool>,
        armed_at: Instant,
        min_delay: Duration,
    }

    impl Source for TimerProbe {
        fn on_ready(&mut self, _r: &mut Reactor, _t: Token, _rd: bool, _wr: bool) {}
        fn on_timer(&mut self, r: &mut Reactor, token: Token) {
            assert!(self.armed_at.elapsed() >= self.min_delay, "timer fired early");
            self.fired.store(true, Ordering::SeqCst);
            r.close(token);
        }
    }

    #[test]
    fn timers_fire_on_the_wheel() {
        let handle = spawn_loop("test-timer").unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        let probe_fired = fired.clone();
        // Park one end of a socketpair-as-fd so the probe has an fd.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        handle.spawn(move |r| {
            let fd = stream.as_raw_fd();
            let probe = Rc::new(RefCell::new(TimerProbe {
                _stream: stream,
                fired: probe_fired,
                armed_at: Instant::now(),
                min_delay: Duration::from_millis(40),
            }));
            let token = r.register(fd, probe, false, false).unwrap();
            r.set_timer(token, Instant::now() + Duration::from_millis(50));
        });
        for _ in 0..100 {
            if fired.load(Ordering::SeqCst) {
                handle.shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timer never fired");
    }
}

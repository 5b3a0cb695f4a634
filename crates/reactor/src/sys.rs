//! Raw `epoll(7)` / `eventfd(2)` bindings and safe RAII wrappers.
//!
//! The offline dependency set has no `libc` crate, but `std` already links
//! the platform C library, so the few symbols the reactor needs are
//! declared here directly. Everything unsafe is confined to this module;
//! the rest of the crate sees only [`Epoll`] and [`EventFd`].

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable (or a peer half-close pending in the receive queue).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the descriptor.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: the peer closed its end.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the writing half of the connection.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel ABI
/// packs it (no padding between `events` and `data`); elsewhere natural
/// `repr(C)` layout matches.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim on readiness.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Owned epoll instance. Level-triggered (the reactor re-arms interest
/// explicitly, which keeps the connection state machines simple).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given interest mask and cookie.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Change the interest mask for an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness, appending `(cookie, events)` pairs to `out`.
    /// `timeout: None` blocks indefinitely; `Some(d)` rounds up to whole
    /// milliseconds so timers never fire early. `EINTR` returns an empty
    /// set rather than an error.
    pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout: Option<Duration>) -> io::Result<()> {
        const CAP: usize = 256;
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                ms.min(i32::MAX as u128) as c_int
            }
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
        let n = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), CAP as c_int, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(());
            }
            return Err(err);
        }
        for ev in buf.iter().take(n as usize) {
            // `repr(packed)` on x86-64 forbids direct field borrows; copy out.
            let (data, events) = (ev.data, ev.events);
            out.push((data, events));
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Nonblocking `eventfd(2)` used to kick a reactor out of `epoll_wait`
/// from another thread.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Bump the counter, waking any epoll waiting on this fd. Saturation
    /// (`EAGAIN`) means a wake is already pending — that's success.
    pub fn signal(&self) {
        let one: u64 = 1;
        let ret = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        if ret < 0 {
            let err = io::Error::last_os_error();
            debug_assert_eq!(err.raw_os_error(), Some(EAGAIN), "eventfd write: {err}");
        }
    }

    /// Reset the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signal_wakes_epoll_and_drain_clears() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();

        let mut out = Vec::new();
        ep.wait(&mut out, Some(Duration::from_millis(0))).unwrap();
        assert!(out.is_empty(), "nothing signalled yet");

        ev.signal();
        ev.signal(); // coalesces
        ep.wait(&mut out, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(out, vec![(7, EPOLLIN)]);

        ev.drain();
        out.clear();
        ep.wait(&mut out, Some(Duration::from_millis(0))).unwrap();
        assert!(out.is_empty(), "drained eventfd is no longer ready");
    }

    #[test]
    fn epoll_reports_writable_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        use std::os::unix::io::AsRawFd;
        ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLOUT, 42).unwrap();
        let mut out = Vec::new();
        ep.wait(&mut out, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 42);
        assert_ne!(out[0].1 & EPOLLOUT, 0, "fresh socket should be writable");
    }
}

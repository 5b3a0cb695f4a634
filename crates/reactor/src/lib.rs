#![warn(missing_docs)]

//! # p3-reactor — a minimal epoll runtime for the P3 serving tier
//!
//! The offline dependency set for this build has no async runtime, so the
//! serving tier vendors its own: a single-threaded-per-reactor epoll event
//! loop in the callback/poll-state style (no `async`/`await`, no wakers, no
//! pinning). Each [`Reactor`] owns one `epoll` instance, a hashed
//! [`wheel::TimerWheel`] for deadlines and idle timeouts, and a registry of
//! [`Source`]s — connection state machines that are called back when their
//! file descriptor becomes readable/writable or a timer fires.
//!
//! Layers, bottom up:
//!
//! * [`sys`] — raw `epoll(7)` / `eventfd(2)` bindings (no `libc` crate in
//!   the offline set; `std` already links the C library, so the handful of
//!   symbols we need are declared directly) plus safe RAII wrappers;
//! * [`wheel`] — a hashed timer wheel: O(1) set/cancel, timers drained as
//!   the cursor sweeps past their slot;
//! * [`reactor`] — the event loop itself: sources, tokens, interest
//!   management, cross-thread job/wake injection via `eventfd`.
//!
//! Reactors own *inbound* connections only: the sockets a server accepted.
//! Outbound calls (the proxy's and the cluster router's upstream requests)
//! are plain blocking sockets made from offload-pool threads and never
//! touch an event loop.
//!
//! Threading model: a reactor runs on exactly one thread; sources are
//! `Rc<RefCell<_>>` and never cross threads. Other threads talk to a
//! reactor only through its [`Handle`], which enqueues jobs and kicks the
//! loop via `eventfd`.

pub mod reactor;
pub mod sys;
pub mod wheel;

pub use reactor::{Handle, Reactor, Source, Token};

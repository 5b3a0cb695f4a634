#![warn(missing_docs)]

//! # p3-net — minimal HTTP/1.1 stack and the P3 trusted proxy
//!
//! The P3 *system* (paper §4) interposes a trusted client-side HTTP proxy
//! between applications and the photo-sharing provider: uploads are
//! split + encrypted on the way out, downloads are reconstructed on the
//! way in, with no modification to either the PSP or the client app.
//! This crate provides that plumbing:
//!
//! * [`http`] — request/response types, one head writer, and one strict
//!   incremental parser generic over the start line: the reactors feed
//!   it requests, the blocking client reads every reply through it
//!   (HTTP/1.0 and 1.1, `Content-Length` framing);
//! * [`server`] — the serving tier: epoll reactor event loops (the
//!   vendored `p3-reactor` runtime) multiplexing nonblocking connections
//!   with per-connection incremental parse state machines, a bounded
//!   offload pool for blocking handler work, dispatch-time backpressure
//!   (`503 + retry-after`), an idle-connection window, and graceful
//!   drain on shutdown;
//! * [`client`] — a small blocking HTTP client with timeouts, plus a
//!   keep-alive [`client::ClientPool`] that reuses upstream sockets —
//!   the one outbound path (proxy→PSP, proxy→storage, router→node,
//!   CLI);
//! * [`transport`] — the pluggable connection layer under the pool:
//!   plain blocking TCP in production, and a per-peer-pair fault
//!   injector (partitions, black holes, latency, in-flight bit flips)
//!   wrapped around that same TCP path in tests;
//! * [`proxy`] — the P3 trusted proxy itself: sharded secret-part LRU,
//!   singleflighted storage fetches, and the paper's concurrent
//!   fetch-while-forwarding download path.
//!
//! Design notes: the offline dependency set for this build has no async
//! runtime, so the serving tier vendors its own (`p3-reactor`): a
//! callback/poll-state epoll loop with explicit connection state
//! machines — no `async`/`await`, no hidden executor state. Handler code
//! stays synchronous and blocking; it runs on a bounded offload pool
//! while reactor threads only parse, dispatch, and shuffle bytes.
//! Reactors serve, blocking sockets call: an upstream request is made
//! from the offload worker that needs the answer, so the number in
//! flight is bounded by the pool size and no outbound socket is ever
//! registered on an event loop.

pub mod client;
mod conn;
pub mod http;
pub mod proxy;
pub mod server;
pub mod stats;
pub mod transport;
mod video;

pub use client::{http_get, http_post, ClientError, ClientPool};
pub use http::{
    apply_range, Headers, Method, Request, RequestParser, Response, StatusCode, Version,
};
pub use proxy::{P3Proxy, ProxyConfig, ProxyStats, TransformEstimator};
pub use server::{Server, ServerConfig, ServerStats};
pub use transport::{
    Connection, Deadlines, FaultPlan, FaultRule, FaultTransport, TcpTransport, Transport,
};

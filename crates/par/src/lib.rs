#![warn(missing_docs)]

//! # p3-par — CPU-feature dispatch for the codec hot path
//!
//! [`features`] is runtime AVX2/AES-NI capability detection with a
//! process-wide `P3_FORCE_SCALAR` override, so the scalar reference
//! paths stay reachable in production builds and tests can pin either
//! dispatch level: AVX2 or scalar for the codec, AES-NI or the T-table
//! cipher for CTR. `p3-jpeg` and `p3-crypto` share it.
//!
//! The codec fans nothing out: every stage is a serial loop on the
//! calling thread, and the serving tier's offload pool is the one level
//! of parallelism (ARCHITECTURE.md § Codec performance).
//!
//! This crate deliberately has no dependencies (not even the shims): both
//! `p3-jpeg` and `p3-crypto` sit below every other workspace crate.

pub mod features;

/// A zero-worker pool: [`Pool::run`] is a `for` loop on the calling thread.
///
/// It exists only so the frozen benchmark (`perfbench/`) keeps compiling:
/// its `par.dispatch_us` probe names [`global`], [`Pool::threads`] and
/// [`Pool::run`]. The benchmark's next revision deletes it together with
/// `par.dispatch_us`.
pub struct Pool;

impl Pool {
    /// Always 1: the calling thread.
    pub fn threads(&self) -> usize {
        1
    }

    /// Run `f(0..tasks)` in order on the calling thread.
    pub fn run<F: Fn(usize)>(&self, tasks: usize, f: F) {
        for i in 0..tasks {
            f(i);
        }
    }
}

/// The stand-in pool (see [`Pool`]).
pub fn global() -> Pool {
    Pool
}

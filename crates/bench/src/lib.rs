#![warn(missing_docs)]

//! # p3-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§5), each
//! runnable by name through the `run_all` binary. Every experiment:
//!
//! * is deterministic (fixed seeds via `p3-datasets`),
//! * prints the same rows/series the paper plots,
//! * returns structured results so `run_all` can regenerate
//!   `EXPERIMENTS.md` with paper-vs-measured values.
//!
//! Scale: `P3_SCALE=full` runs paper-sized corpora; the default `quick`
//! scale uses reduced counts (documented per experiment) so the whole
//! suite finishes in minutes on a laptop.

pub mod experiments;
pub mod simulate;
pub mod util;

pub use util::{Scale, THRESHOLDS};

#![warn(missing_docs)]

//! # p3-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§5), listed
//! once in [`experiments::ALL`] and runnable by name through the
//! `run_all` binary. Every experiment:
//!
//! * is deterministic (fixed seeds via `p3-datasets`),
//! * prints and saves the same rows/series the paper plots, as
//!   [`util::Table`]s,
//! * returns those tables, which `run_all` writes into `EXPERIMENTS.md`
//!   under the paper's claim for that experiment.
//!
//! Scale: `P3_SCALE=full` runs paper-sized corpora; the default `quick`
//! scale uses reduced counts (documented per experiment) so the whole
//! suite finishes in minutes on a laptop.
//!
//! Beside the experiments: [`stack`] wires every in-process serving
//! topology (PSP, storage, proxy) in one place, and [`simulate`] is the
//! `p3 simulate` chaos script run over it.

pub mod experiments;
pub mod simulate;
pub mod stack;
pub mod util;

pub use util::{Scale, THRESHOLDS};

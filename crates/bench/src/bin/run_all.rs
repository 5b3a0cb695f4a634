//! Regenerate every table and figure, then rewrite `EXPERIMENTS.md` from
//! the tables — or, given experiment names, regenerate just those (their
//! tables print; `EXPERIMENTS.md` is left alone).
//!
//! ```text
//! cargo run --release -p p3-bench --bin run_all            # quick scale
//! P3_SCALE=full cargo run --release -p p3-bench --bin run_all
//! cargo run --release -p p3-bench --bin run_all -- fig5_threshold_size tbl_ablations
//! ```

use p3_bench::experiments::{Experiment, ALL};
use p3_bench::Scale;
use std::fmt::Write as _;

fn main() {
    let scale = Scale::from_env();
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let mut chosen: Vec<&Experiment> = Vec::with_capacity(wanted.len());
    for name in &wanted {
        match ALL.iter().find(|e| e.name == name) {
            Some(experiment) => chosen.push(experiment),
            None => {
                let valid: Vec<&str> = ALL.iter().map(|e| e.name).collect();
                eprintln!("error: unknown experiment {name:?}; valid: {}", valid.join(" "));
                std::process::exit(2);
            }
        }
    }
    if !chosen.is_empty() {
        for experiment in chosen {
            (experiment.run)(scale);
        }
        return;
    }
    eprintln!("running all experiments at {scale:?} scale…");

    let mut md = format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run --release -p p3-bench --bin run_all` at `{scale:?}` \
         scale (set `P3_SCALE=full` for paper-sized corpora). All corpora are \
         deterministic synthetic analogues (see ARCHITECTURE.md § Crate \
         responsibilities); absolute numbers therefore differ from the paper, \
         while the *shapes* — who wins, by what factor, where the knees fall — \
         are the reproduction targets. Every table below is one an experiment \
         prints and saves under `target/experiments` (or `$P3_OUT_DIR`).\n\n\
         §5.3's processing costs are not an experiment here: the benchmark \
         (`perfbench/`, run with `--trace 1`) reports them per layer as \
         `core.split_ms`, `crypto.seal_ms` and `core.reconstruct_ms`. Paper \
         (Galaxy S3, 720×720): split ≈ 152 ms, AES ≈ 55 ms, reconstruction \
         ≈ 191 ms. Shapes to verify: split < reconstruct; AES cheapest by far.\n"
    );
    for experiment in ALL {
        let _ = write!(md, "\n## {}\n\n{}\n", experiment.heading, experiment.paper);
        for table in (experiment.run)(scale) {
            let _ = write!(md, "\n{}", table.markdown());
        }
    }
    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    eprintln!("wrote EXPERIMENTS.md");
}

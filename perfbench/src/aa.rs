//! `--aa N`: the acceptance check, run by the benchmark on itself.
//!
//! Two *consecutive* sets of N runs per workload, each run a child
//! process on a seed of its own. Not interleaved: interleaving cancels
//! the minutes-long regimes of a shared host, which the real check
//! sees. Run nothing else on the box meanwhile.

use crate::json::Value;
use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, spread};
use crate::topology::work_root;
use std::collections::BTreeMap;
use std::process::Command;

/// Metric name to value.
type Figures = BTreeMap<String, f64>;

struct ChildRun {
    scaled: Figures,
    raw: Figures,
}

fn figures(doc: &Value) -> Option<Figures> {
    doc.as_object()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

fn child_run(workload: &str, seed: u64, log_name: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let log = work_root().join("aa").join(log_name);
    let _ = std::fs::write(
        &log,
        format!("{stdout}\n--- stderr\n{}", String::from_utf8_lossy(&out.stderr)),
    );
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}; see {}",
            out.status,
            log.display()
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(Value::parse).ok_or("no result line")?;
    let raw = lines
        .next()
        .and_then(|l| l.strip_prefix("as-the-clock-read "))
        .and_then(Value::parse)
        .ok_or("no as-the-clock-read line")?;
    let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
    if result.get("correct").and_then(Value::as_bool) != Some(true) || failed != 0.0 {
        return Err(format!(
            "{workload} seed {seed}: not correct or {failed} failed; see {}",
            log.display()
        ));
    }
    Ok(ChildRun {
        scaled: result.get("metrics").and_then(figures).ok_or("metrics unreadable")?,
        raw: figures(&raw).ok_or("raw figures unreadable")?,
    })
}

/// How much worse `b` is than `a`, as a share of `a`; negative when it
/// is better.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        0.0
    } else if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

struct Row {
    workload: &'static str,
    metric: &'static str,
    bound: f64,
    med_a: f64,
    spread_a: f64,
    med_b: f64,
    spread_b: f64,
    delta: f64,
}

fn rows(sets: &[BTreeMap<&'static str, Vec<Figures>>; 2], quiet: bool) -> Vec<Row> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let column = |set: usize| -> Vec<f64> {
                sets[set][w.name].iter().filter_map(|f| f.get(m.name).copied()).collect()
            };
            let (a, b) = (column(0), column(1));
            if a.len() < 2 || b.len() < 2 {
                if !quiet {
                    println!("{} {}: too few values to compare", w.name, m.name);
                }
                continue;
            }
            let (med_a, med_b) = (median(&a), median(&b));
            out.push(Row {
                workload: w.name,
                metric: m.name,
                bound: m.bound,
                med_a,
                spread_a: spread(&a),
                med_b,
                spread_b: spread(&b),
                delta: worse_by(med_a, med_b, m.better),
            });
        }
    }
    out
}

fn print_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!(
        "| workload | metric | median A | IQR A / median | median B | IQR B / median | B worse by | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {:.4} | {:.3} | {:.4} | {:.3} | {:+.3} | {} |",
            r.workload, r.metric, r.med_a, r.spread_a, r.med_b, r.spread_b, r.delta, r.bound
        );
    }
}

pub fn run(n: usize) -> Result<bool, String> {
    if n < 2 {
        return Err("--aa needs at least 2 runs per set".into());
    }
    std::fs::create_dir_all(work_root().join("aa")).map_err(|e| format!("log dir: {e}"))?;
    let mut scaled: [BTreeMap<&'static str, Vec<Figures>>; 2] = Default::default();
    let mut raw: [BTreeMap<&'static str, Vec<Figures>>; 2] = Default::default();
    for (set, label) in ["A", "B"].into_iter().enumerate() {
        for w in &WORKLOADS {
            for i in 0..n {
                let seed = (1000 * (set + 1) + i) as u64;
                let run = child_run(w.name, seed, &format!("{label}-{}-{seed}.log", w.name))?;
                println!(
                    "set {label} {} seed {seed}: {}",
                    w.name,
                    run.scaled
                        .iter()
                        .map(|(k, v)| format!("{k} {v:.4}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                scaled[set].entry(w.name).or_default().push(run.scaled);
                raw[set].entry(w.name).or_default().push(run.raw);
            }
        }
    }
    let checked = rows(&scaled, false);
    print_table("Host-scaled figures (what the check sees):", &checked);
    print_table("The same runs as the clock read them (information):", &rows(&raw, true));

    // `setup_s` is held to its bound between the two medians only.
    let worst_spread = checked
        .iter()
        .filter(|r| r.metric != "setup_s")
        .map(|r| r.spread_a.max(r.spread_b) / r.bound)
        .fold(0.0, f64::max);
    let worst_delta = checked.iter().map(|r| r.delta / r.bound).fold(0.0, f64::max);
    for r in &checked {
        let spread = r.spread_a.max(r.spread_b);
        if r.metric != "setup_s" && spread > r.bound {
            println!("REFUSED: {} {} spreads {spread:.3}, bound {}", r.workload, r.metric, r.bound);
        }
        if r.delta > r.bound {
            println!(
                "REFUSED: {} {} is {:.3} worse in set B, bound {}",
                r.workload, r.metric, r.delta, r.bound
            );
        }
    }
    println!(
        "{{\"aa_runs_per_set\": {n}, \"worst_spread_over_bound\": {worst_spread}, \"worst_delta_over_bound\": {worst_delta}}}"
    );
    Ok(worst_spread <= 1.0 && worst_delta <= 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, "lower") < 0.0, "better is negative");
        assert_eq!(worse_by(0.0, 5.0, "lower"), 0.0);
    }
}

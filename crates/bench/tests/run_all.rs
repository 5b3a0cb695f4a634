//! `run_all` selects from `experiments::ALL` and nothing else.

use p3_bench::experiments::ALL;
use std::process::Command;

/// An unknown name runs nothing, exits 2, and lists exactly `ALL`'s
/// names, in order.
#[test]
fn unknown_experiment_exits_2_listing_all_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("no_such_experiment")
        .output()
        .expect("run_all starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let valid = stderr.split("valid: ").nth(1).unwrap_or_else(|| panic!("no list: {stderr}"));
    let listed: Vec<&str> = valid.split_whitespace().collect();
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    assert_eq!(listed, names);
}

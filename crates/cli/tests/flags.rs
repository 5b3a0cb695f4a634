//! End to end: `p3 <subcommand>` rejects a flag it does not read —
//! exit 1 and a message naming the flag — instead of ignoring it. A
//! server that ignored one would start serving, so every child runs
//! under a watchdog.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `p3 <args>` to completion; `(exit code, stderr)`.
fn p3(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_p3"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn p3");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll p3").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill p3");
            child.wait().expect("reap p3");
            panic!("`p3 {}` kept running instead of rejecting its flags", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect p3");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn typoed_threshold_fails_the_split_instead_of_defaulting() {
    // The privacy parameter: before, this split at T=15 and said nothing
    // (here it would have reached the missing input file instead).
    let (code, stderr) = p3(&["split", "no-such.jpg", "--key", "k", "--treshold", "5"]);
    assert_eq!(code, Some(1));
    assert_eq!(stderr.trim(), "error: unknown flag --treshold for 'p3 split'");
}

#[test]
fn server_subcommands_reject_unread_flags_instead_of_serving() {
    for (cmd, flag) in [
        ("serve-psp", "--reactors"),
        ("storage", "--op-retries"),
        ("storage", "--backoff-base-ms"),
        ("proxy", "--codec-threads"),
        ("proxy", "--cache-shards"),
    ] {
        let (code, stderr) = p3(&[cmd, flag, "2"]);
        assert_eq!(code, Some(1), "p3 {cmd} {flag}: {stderr}");
        assert_eq!(stderr.trim(), format!("error: unknown flag {flag} for 'p3 {cmd}'"));
    }
}

#[test]
fn simulate_rejects_the_flags_of_its_deleted_load_generator_instead_of_running() {
    for flag in ["--rps", "--users", "--photos", "--requests", "--read-mix", "--zipf", "--workers"]
    {
        let (code, stderr) = p3(&["simulate", "--quick", flag, "5"]);
        assert_eq!(code, Some(1), "p3 simulate {flag}: {stderr}");
        assert_eq!(stderr.trim(), format!("error: unknown flag {flag} for 'p3 simulate'"));
    }
    let (code, stderr) = p3(&["simulate", "--quick", "--no-chaos"]);
    assert_eq!(code, Some(1), "p3 simulate --no-chaos: {stderr}");
    assert_eq!(stderr.trim(), "error: unknown flag --no-chaos for 'p3 simulate'");
}

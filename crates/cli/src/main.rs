//! `p3` — command-line interface to the P3 reproduction.
//!
//! ```text
//! p3 split <input.jpg> --key <passphrase> [--threshold 15]
//!          [--public out.public.jpg] [--secret out.secret.p3s]
//! p3 join  <public.jpg> <secret.p3s> --key <passphrase> [--out out.jpg]
//! p3 info  <file.jpg>
//! p3 audit <input.jpg> [--threshold 15]
//! p3 serve-psp [--profile facebook|flickr|hostile] [--addr 127.0.0.1:0]
//! p3 storage   [--addr 127.0.0.1:0] [--backend mem|disk|cluster]
//!              [--data-dir DIR] [--segment-mb 64] [--compact-threshold 0.5]
//!              [--compact-interval-s 60]
//!              [--nodes a:p,b:p,...] [--replicas 2] [--sweep-interval 60]
//! p3 storage-admin show|add|remove [node-addr] --router <addr>
//! p3 proxy --psp <addr> --storage <addr> --key <passphrase> [--addr 127.0.0.1:0] [--threshold 15]
//!          [--workers N] [--cache-capacity N]
//! p3 simulate [--quick] [--seed N] [--soak SECS] [--out FILE]
//! p3 simulate --check-schema [--out FILE]
//! ```
//!
//! The three servers also take `--idle-timeout-ms N`. A flag a
//! subcommand does not read is an error, never ignored.
//!
//! Keys: `--key` takes a passphrase; the actual AES/HMAC material is
//! derived per photo via HKDF (see `p3-crypto`). Files produced by
//! `split` use the public part's file stem as the HKDF context, so
//! `join` re-derives the same key without extra state.

use p3_core::pipeline::{P3Codec, P3Config};
use p3_crypto::EnvelopeKey;
use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "split" => commands::split(rest),
        "join" => commands::join(rest),
        "info" => commands::info(rest),
        "audit" => commands::audit(rest),
        "serve-psp" => commands::serve_psp(rest),
        "storage" | "serve-storage" => commands::storage(rest),
        "storage-admin" => commands::storage_admin(rest),
        "proxy" => commands::proxy(rest),
        "simulate" => commands::simulate(rest),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Shared: build a codec from parsed args.
fn codec_from(threshold: u16) -> P3Codec {
    P3Codec::new(P3Config { threshold, ..Default::default() })
}

/// Shared: derive the envelope key for a (passphrase, context) pair.
fn key_from(passphrase: &str, context: &str) -> EnvelopeKey {
    EnvelopeKey::derive(passphrase.as_bytes(), context.as_bytes())
}

const USAGE: &str = "p3 — privacy-preserving photo sharing (NSDI'13 reproduction)

USAGE:
  p3 split <input.jpg> --key <passphrase> [--threshold 15]
           [--public <out>] [--secret <out>]
  p3 join  <public.jpg> <secret.p3s> --key <passphrase> [--out <out>]
  p3 info  <file.jpg>
  p3 audit <input.jpg> [--threshold 15]
  p3 serve-psp [--profile facebook|flickr|hostile] [--addr 127.0.0.1:0]
  p3 storage   [--addr 127.0.0.1:0] [--backend mem|disk|cluster]
               [--data-dir DIR] [--segment-mb 64]
               [--compact-threshold 0.5] [--compact-interval-s 60]
                                           (disk backend: packed needle log)
               [--nodes a:p,b:p,...] [--replicas 2]
               [--sweep-interval 60]       (cluster router over storage nodes;
                                            anti-entropy sweep period, 0 = off)
  p3 storage-admin show --router <addr>    (print membership epoch + nodes)
  p3 storage-admin add <node-addr> --router <addr>
  p3 storage-admin remove <node-addr> --router <addr>
                                           (epoch bump + live convergence pass)
  p3 proxy --psp <addr> --storage <addr> --key <passphrase>
           [--addr 127.0.0.1:0] [--threshold 15]
           [--workers N] [--cache-capacity N]
  p3 simulate [--quick] [--seed N] [--soak SECS]
              [--out BENCH_simulate.json]
                                           (seeded chaos script, one fault
                                            per phase, over a spawned
                                            PSP/storage/proxy topology)
  p3 simulate --check-schema [--out FILE]  (validate a committed result)

serve-psp, storage and proxy also take [--idle-timeout-ms 60000].
A flag a subcommand does not read is an error, never ignored.";

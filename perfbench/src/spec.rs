//! The benchmark's tables: workloads and metrics by name. A unit test
//! holds them equal to `BENCHMARK.json`, which `--print-spec` writes.

/// How long one run measures (`run_seconds` of `BENCHMARK.json`). See the
/// README's time table for how it follows from the cap on all runs.
pub const RUN_SECONDS: u64 = 28;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["perfbench"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "upload",
        why: "POST /photos through the proxy: the write path (split, PSP ingest and ladder, seal, \
              packed put). Target for PSP and write-path changes, bypass for reconstruct, cache \
              and read-path ones.",
    },
    Workload {
        name: "browse_hot",
        why: "Zipf views of 48 photos, every secret in the proxy cache and every rendition \
              pre-built: reconstruct and JPEG do the work. Target for codec changes, bypass for \
              storage and PSP ingest.",
    },
    Workload {
        name: "browse_cold",
        why: "The same views with a 16-entry cache walked cyclically over 64 photos so every view \
              misses, over a 3-node cluster: the miss path (singleflight, pool, cluster.get, \
              open) is on every operation.",
    },
    Workload {
        name: "blob_direct",
        why: "92/5/3 GET/PUT/DELETE of real sealed secrets straight at the cluster router: net \
              hops, ring, needle log, group commit, tombstones and compaction do the work, the \
              codec none.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("p90_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("stored_bytes_ratio", "ratio", "lower", 0.02),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "higher" }
}

pub const PER_LAYER: [PerLayer; 58] = [
    lower("jpeg.decode_coeffs_ms", "ms"),
    lower("jpeg.encode_coeffs_ms", "ms"),
    lower("jpeg.decode_rgb_ms", "ms"),
    lower("jpeg.encode_rgb_ms", "ms"),
    lower("core.split_ms", "ms"),
    lower("core.container_ms", "ms"),
    lower("core.reconstruct_ms", "ms"),
    higher("core.recon_psnr_db", "dB"),
    lower("core.secret_bytes_share", "ratio"),
    lower("crypto.seal_ms", "ms"),
    lower("crypto.open_ms", "ms"),
    lower("par.dispatch_us", "us"),
    lower("psp.upload_ms", "ms"),
    lower("psp.fetch_static_ms", "ms"),
    lower("psp.fetch_dynamic_ms", "ms"),
    lower("vision.resize_ms", "ms"),
    lower("storage.put_ms", "ms"),
    lower("storage.put_p90_ms", "ms"),
    lower("storage.get_ms", "ms"),
    lower("storage.delete_ms", "ms"),
    lower("storage.reopen_ms", "ms"),
    lower("cluster.put_ms", "ms"),
    lower("cluster.get_ms", "ms"),
    lower("storage.fsyncs_per_put", "ratio"),
    lower("storage.write_amp", "ratio"),
    lower("storage.space_amp", "ratio"),
    higher("storage.compactions", "count"),
    higher("storage.reclaimed_mb", "MB"),
    lower("cluster.read_repairs", "count"),
    lower("cluster.node_failures", "count"),
    lower("cluster.integrity_rejects", "count"),
    lower("net.parse_us", "us"),
    lower("net.serialize_us", "us"),
    lower("net.hop_ms", "ms"),
    lower("net.hop_fresh_ms", "ms"),
    lower("net.forward_rtt_ms", "ms"),
    higher("net.pool_reuse_ratio", "ratio"),
    lower("net.rejected_503", "count"),
    higher("proxy.cache_hit_ratio", "ratio"),
    lower("proxy.cache_evictions", "count"),
    lower("proxy.upload_rollbacks", "count"),
    lower("proxy.miss_penalty_ms", "ms"),
    lower("proc.allocs_per_op", "count"),
    lower("proc.alloc_kb_per_op", "kB"),
    lower("proc.rw_syscalls_per_op", "count"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.minflt_per_op", "count"),
    lower("host.index", "ratio"),
    higher("host.granted", "ratio"),
    lower("host.steal_ratio", "ratio"),
    lower("trace.e2e_mean_ms", "ms"),
    lower("trace.unrolled_mean_ms", "ms"),
    lower("trace.unattributed_share", "ratio"),
    lower("trace.share_psp", "ratio"),
    lower("trace.share_codec", "ratio"),
    lower("trace.share_storage", "ratio"),
    lower("trace.share_net", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted(&COMMAND));
    out += &format!("  \"paths\": [{}],\n", quoted(&PATHS));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    out += "  \"workloads\": [\n";
    out += &rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, benchmark_json(), "regenerate with --print-spec > BENCHMARK.json");

        // And the file says what the tables say when read as JSON.
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS as f64));
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).expect("bound"))
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>());
    }

    #[test]
    fn tables_keep_the_contracts_limits() {
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name) && unit_ok(m.unit));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}

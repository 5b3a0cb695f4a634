//! Shared harness utilities: scales, threshold sweeps, table printing,
//! output directories.

use p3_core::pixel::rgb_to_luma;
use p3_jpeg::image::RgbImage;
use p3_vision::image::ImageF32;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The threshold sweep used across experiments (paper x-axes run 0–100
/// with emphasis on the 1–20 "sweet spot").
pub const THRESHOLDS: [u16; 10] = [1, 5, 10, 15, 20, 30, 40, 60, 80, 100];

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dataset counts — minutes for the whole suite.
    Quick,
    /// Paper-sized corpora — hours.
    Full,
}

impl Scale {
    /// Read from `P3_SCALE` (values `full` / `quick`), default quick.
    pub fn from_env() -> Scale {
        match std::env::var("P3_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// USC-SIPI image count (paper: 44).
    pub fn usc_count(&self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 44,
        }
    }

    /// INRIA image count (paper: 1491).
    pub fn inria_count(&self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Full => 1491,
        }
    }

    /// Caltech-faces image count (paper: 450).
    pub fn caltech_count(&self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Full => 450,
        }
    }

    /// FERET identity count (paper: 994 subjects).
    pub fn feret_identities(&self) -> usize {
        match self {
            Scale::Quick => 32,
            Scale::Full => 200,
        }
    }
}

/// Where experiment artifacts (tables, PPMs) are written.
pub fn output_dir() -> PathBuf {
    let dir = std::env::var("P3_OUT_DIR").unwrap_or_else(|_| "target/experiments".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create experiment output dir");
    path
}

/// Luma plane of an RGB image (attack input).
pub fn luma(img: &RgbImage) -> ImageF32 {
    rgb_to_luma(img)
}

/// Mean and population standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Percentile by nearest-rank on a sorted slice (0 for an empty one).
pub fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout and save under the output dir as `{name}.txt`.
    pub fn emit(&self, name: &str) {
        let rendered = self.render();
        println!("{rendered}");
        let path = output_dir().join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Parse the `BENCH_codec.json` schema written by the `perf_baseline`
/// binary: a single JSON object mapping bench names to
/// `{ "ns_per_iter": <number>, "mb_per_s": <number> }`.
///
/// The workspace deliberately has no serde; this is a strict
/// recursive-descent parser for exactly that shape, so CI can fail on a
/// malformed baseline file instead of silently committing garbage.
pub fn parse_bench_json(src: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let mut p = JsonCursor { src: src.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let name = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            p.expect(b'{')?;
            let (mut ns, mut mb) = (None, None);
            loop {
                p.skip_ws();
                let field = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                let value = p.number()?;
                match field.as_str() {
                    "ns_per_iter" => ns = Some(value),
                    "mb_per_s" => mb = Some(value),
                    other => return Err(format!("unexpected field {other:?} in {name:?}")),
                }
                p.skip_ws();
                match p.next()? {
                    b',' => continue,
                    b'}' => break,
                    c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
                }
            }
            let ns = ns.ok_or_else(|| format!("{name:?} missing ns_per_iter"))?;
            let mb = mb.ok_or_else(|| format!("{name:?} missing mb_per_s"))?;
            out.push((name, ns, mb));
            p.skip_ws();
            match p.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err("trailing data after top-level object".into());
    }
    if out.is_empty() {
        return Err("no benches recorded".into());
    }
    Ok(out)
}

/// Value of a `--flag value` pair in a bench binary's argument list.
/// Exits with code 2 when the flag is present but its value is missing
/// (trailing, or followed by another flag) — a silent default there
/// would overwrite the committed baseline at the wrong path.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("error: {name} requires a value argument");
            std::process::exit(2);
        }
    }
}

/// Output path convention shared by the bench binaries: `--out PATH`
/// wins; otherwise quick mode writes under `target/` (smoke numbers
/// must never silently replace the committed repo-root baseline).
pub fn bench_out_path(args: &[String], quick: bool, quick_path: &str, full_path: &str) -> String {
    flag_value(args, "--out").unwrap_or_else(|| {
        if quick {
            quick_path.to_string()
        } else {
            full_path.to_string()
        }
    })
}

/// Parsed metric report: `(section name, [(metric name, value)])`.
pub type MetricSections = Vec<(String, Vec<(String, f64)>)>;

/// Parse the two-level metric JSON schema shared by `BENCH_proxy.json`,
/// `BENCH_storage.json`, and the `/stats` endpoints: a JSON object
/// mapping section names to flat objects of numeric metrics, e.g.
/// `{ "proxy_download": { "requests_per_s": 812.0, "p50_ms": 9.1 } }`.
///
/// Like [`parse_bench_json`], this is a strict recursive-descent parser
/// (the workspace has no serde) so CI fails on malformed output instead
/// of committing garbage.
pub fn parse_metric_json(src: &str) -> Result<MetricSections, String> {
    let mut p = JsonCursor { src: src.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let section = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            p.expect(b'{')?;
            let mut metrics = Vec::new();
            loop {
                p.skip_ws();
                let field = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                let value = p.number()?;
                metrics.push((field, value));
                p.skip_ws();
                match p.next()? {
                    b',' => continue,
                    b'}' => break,
                    c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
                }
            }
            if metrics.is_empty() {
                return Err(format!("section {section:?} has no metrics"));
            }
            out.push((section, metrics));
            p.skip_ws();
            match p.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err("trailing data after top-level object".into());
    }
    if out.is_empty() {
        return Err("no sections recorded".into());
    }
    Ok(out)
}

/// Compare a committed metric-JSON baseline's key sets (section names
/// and per-section field names, in order) against the schema the
/// current binary emits. This is the `--check-schema` drift guard: a
/// bench that gains, loses, or renames a field fails CI until the
/// committed `BENCH_*.json` is regenerated, so baselines can't silently
/// rot.
pub fn check_metric_schema(
    path: &str,
    expected: &[(&'static str, Vec<&'static str>)],
) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let parsed = parse_metric_json(&src)?;
    let got: Vec<(String, Vec<String>)> = parsed
        .into_iter()
        .map(|(section, metrics)| (section, metrics.into_iter().map(|(f, _)| f).collect()))
        .collect();
    let want: Vec<(String, Vec<String>)> = expected
        .iter()
        .map(|(section, fields)| {
            (section.to_string(), fields.iter().map(|f| f.to_string()).collect())
        })
        .collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "schema drift in {path}:\n  committed: {got:?}\n  current:   {want:?}\n\
             regenerate the baseline with a full (non---quick) run"
        ))
    }
}

/// Same drift guard for the `BENCH_codec.json` shape: bench names in
/// order (the `ns_per_iter`/`mb_per_s` fields are enforced by
/// [`parse_bench_json`] itself).
pub fn check_bench_schema(path: &str, expected_names: &[&str]) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let parsed = parse_bench_json(&src)?;
    let got: Vec<&str> = parsed.iter().map(|(name, ..)| name.as_str()).collect();
    if got == expected_names {
        Ok(())
    } else {
        Err(format!(
            "schema drift in {path}:\n  committed: {got:?}\n  current:   {expected_names:?}\n\
             regenerate the baseline with a full (non---quick) run"
        ))
    }
}

struct JsonCursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl JsonCursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next()? {
            b if b == want => Ok(()),
            b => Err(format!("expected {:?}, got {:?}", want as char, b as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.next()? {
                b'"' => break,
                b'\\' => return Err("escapes not supported in bench names".into()),
                _ => {}
            }
        }
        String::from_utf8(self.src[start..self.pos - 1].to_vec())
            .map_err(|_| "non-UTF8 string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "invalid number".into())
    }
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long_header"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn scale_counts() {
        assert!(Scale::Quick.usc_count() < Scale::Full.usc_count());
        assert_eq!(Scale::Full.inria_count(), 1491);
    }

    #[test]
    fn bench_json_parses_expected_schema() {
        let src = "{\n  \"encode\": { \"ns_per_iter\": 1234.5, \"mb_per_s\": 67.89 },\n  \
                   \"decode\": { \"ns_per_iter\": 1e6, \"mb_per_s\": 2.5 }\n}\n";
        let parsed = parse_bench_json(src).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "encode");
        assert!((parsed[0].1 - 1234.5).abs() < 1e-9);
        assert!((parsed[1].1 - 1e6).abs() < 1e-9);
    }

    #[test]
    fn metric_json_parses_sections() {
        let src = "{\n  \"proxy_download\": { \"requests_per_s\": 812.0, \"p50_ms\": 9.1, \
                   \"p99_ms\": 30.5, \"cache_hit_rate\": 0.875 },\n  \
                   \"proxy_upload\": { \"requests_per_s\": 55.0, \"p50_ms\": 120.0 }\n}\n";
        let parsed = parse_metric_json(src).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "proxy_download");
        assert_eq!(parsed[0].1.len(), 4);
        assert_eq!(parsed[0].1[0].0, "requests_per_s");
        assert!((parsed[0].1[3].1 - 0.875).abs() < 1e-9);
        assert_eq!(parsed[1].1.len(), 2);
    }

    #[test]
    fn metric_json_rejects_malformed() {
        assert!(parse_metric_json("").is_err());
        assert!(parse_metric_json("{}").is_err(), "no sections");
        assert!(parse_metric_json("{\"a\": {}}").is_err(), "section with no metrics");
        assert!(parse_metric_json("{\"a\": {\"x\": 1}} trailing").is_err());
        assert!(parse_metric_json("{\"a\": {\"x\": nope}}").is_err());
    }

    #[test]
    fn schema_check_accepts_match_and_rejects_drift() {
        let dir = std::env::temp_dir().join(format!("p3-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metric_path = dir.join("metric.json");
        std::fs::write(&metric_path, "{\n  \"s\": { \"a\": 1, \"b\": 2 }\n}\n").unwrap();
        let p = metric_path.to_str().unwrap();
        assert!(check_metric_schema(p, &[("s", vec!["a", "b"])]).is_ok());
        assert!(check_metric_schema(p, &[("s", vec!["a"])]).is_err(), "extra committed field");
        assert!(check_metric_schema(p, &[("s", vec!["a", "b", "c"])]).is_err(), "missing field");
        assert!(check_metric_schema(p, &[("t", vec!["a", "b"])]).is_err(), "renamed section");
        assert!(check_metric_schema(p, &[("s", vec!["b", "a"])]).is_err(), "field order drift");

        let bench_path = dir.join("bench.json");
        std::fs::write(&bench_path, "{\n  \"x\": { \"ns_per_iter\": 1.0, \"mb_per_s\": 2.0 }\n}\n")
            .unwrap();
        let p = bench_path.to_str().unwrap();
        assert!(check_bench_schema(p, &["x"]).is_ok());
        assert!(check_bench_schema(p, &["x", "y"]).is_err(), "bench gained a kernel");
        assert!(check_bench_schema(p, &["y"]).is_err(), "bench renamed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_json_rejects_malformed() {
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json("{}").is_err(), "empty object has no benches");
        assert!(parse_bench_json("{\"a\": {\"ns_per_iter\": 1}}").is_err(), "missing mb_per_s");
        assert!(parse_bench_json("{\"a\": {\"ns_per_iter\": 1, \"mb_per_s\": 2}} x").is_err());
        assert!(parse_bench_json("{\"a\": {\"wrong\": 1, \"mb_per_s\": 2}}").is_err());
        assert!(parse_bench_json("{\"a\": {\"ns_per_iter\": nope, \"mb_per_s\": 2}}").is_err());
    }
}

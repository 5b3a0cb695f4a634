//! Shared harness utilities: scales, threshold sweeps, table printing,
//! output directories.

use p3_core::pixel::rgb_to_luma;
use p3_jpeg::image::RgbImage;
use p3_net::stats::parse_metric_json;
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

/// Compare a committed metric-JSON report's key sets (section names
/// and per-section field names, in order) against those of `current`,
/// a report the current build rendered. This is `p3 simulate
/// --check-schema`'s drift guard: a report that gains, loses, or renames
/// a field fails CI until the committed `BENCH_simulate.json` is
/// regenerated, so it can't silently rot.
pub fn check_metric_schema(path: &str, current: &str) -> Result<(), String> {
    let keys = |src: &str| -> Result<Vec<(String, Vec<String>)>, String> {
        let sections = parse_metric_json(src)?.into_iter();
        Ok(sections
            .map(|(s, metrics)| (s, metrics.into_iter().map(|(f, _)| f).collect()))
            .collect())
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (got, want) = (keys(&src)?, keys(current)?);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "schema drift in {path}:\n  committed: {got:?}\n  current:   {want:?}\n\
             regenerate the baseline with a full (non---quick) run"
        ))
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
    fn schema_check_accepts_match_and_rejects_drift() {
        let dir = std::env::temp_dir().join(format!("p3-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metric_path = dir.join("metric.json");
        std::fs::write(&metric_path, "{\n  \"s\": { \"a\": 1, \"b\": 2 }\n}\n").unwrap();
        let p = metric_path.to_str().unwrap();
        let doc = |body: &str| format!("{{ {body} }}");
        assert!(
            check_metric_schema(p, &doc(r#""s": { "a": 7, "b": 8 }"#)).is_ok(),
            "values differ"
        );
        for (drift, why) in [
            (r#""s": { "a": 1 }"#, "extra committed field"),
            (r#""s": { "a": 1, "b": 2, "c": 3 }"#, "missing field"),
            (r#""t": { "a": 1, "b": 2 }"#, "renamed section"),
            (r#""s": { "b": 2, "a": 1 }"#, "field order drift"),
        ] {
            assert!(check_metric_schema(p, &doc(drift)).is_err(), "{why}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

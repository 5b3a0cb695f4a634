//! The `/stats` JSON format: its writer and its reader.
//!
//! The workspace deliberately has no serde; the proxy and the storage
//! tier both expose their counters as one tiny schema — a top-level
//! object of sections, each section a flat object of numeric metrics —
//! which `p3 simulate` also writes `BENCH_simulate.json` in.
//! [`render_metrics`] writes it and [`parse_metric_json`] reads it back.

use std::fmt::Write as _;

/// Render `sections` as pretty-printed two-level JSON. Integral values
/// print without a fractional part so counters stay readable.
pub fn render_metrics(sections: &[(&str, Vec<(&str, f64)>)]) -> String {
    let mut out = String::from("{\n");
    for (si, (name, metrics)) in sections.iter().enumerate() {
        let _ = write!(out, "  \"{name}\": {{ ");
        for (mi, (field, value)) in metrics.iter().enumerate() {
            let comma = if mi + 1 < metrics.len() { ", " } else { "" };
            if value.fract() == 0.0 && value.abs() < 9.0e15 {
                let _ = write!(out, "\"{field}\": {value:.0}{comma}");
            } else {
                let _ = write!(out, "\"{field}\": {value}{comma}");
            }
        }
        let comma = if si + 1 < sections.len() { "," } else { "" };
        let _ = writeln!(out, " }}{comma}");
    }
    out.push_str("}\n");
    out
}

/// Parsed metric report: `(section name, [(metric name, value)])`.
pub type MetricSections = Vec<(String, Vec<(String, f64)>)>;

/// Parse what [`render_metrics`] writes: a JSON object mapping section
/// names to flat objects of numeric metrics, e.g.
/// `{ "cache": { "hits": 12, "rate": 0.75 } }`.
///
/// A strict recursive-descent parser for exactly that shape, so a
/// malformed `/stats` body or report file is an error, not garbage.
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
                b'\\' => return Err("escapes not supported in metric names".into()),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sections_and_integral_values() {
        let json = render_metrics(&[
            ("cache", vec![("hits", 12.0), ("rate", 0.75)]),
            ("pool", vec![("connects", 3.0)]),
        ]);
        assert!(json.contains("\"cache\": { \"hits\": 12, \"rate\": 0.75 },"), "{json}");
        assert!(json.contains("\"pool\": { \"connects\": 3 }"), "{json}");
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
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

    /// What the writer renders, the reader returns: section and field
    /// order, integral counters, fractions, negatives, and magnitudes on
    /// both sides of the integral-formatting cutoff.
    #[test]
    fn render_then_parse_roundtrips() {
        let sections = [
            ("server", vec![("open_connections", 10_001.0), ("rejected_503", 0.0)]),
            ("backend", vec![("hit_rate", 0.875), ("drift", -1.5e-7), ("bytes", 9.5e15)]),
        ];
        let parsed = parse_metric_json(&render_metrics(&sections)).unwrap();
        let want: MetricSections = sections
            .iter()
            .map(|(name, fields)| {
                (name.to_string(), fields.iter().map(|&(f, v)| (f.to_string(), v)).collect())
            })
            .collect();
        assert_eq!(parsed, want);
    }
}

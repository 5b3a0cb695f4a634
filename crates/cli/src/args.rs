//! Tiny argument parser: positional arguments plus `--flag value` pairs,
//! checked against the flags the subcommand declares — a typo'd
//! `--treshold` is an error, never a privacy parameter silently left at
//! its default.

use std::collections::BTreeMap;

/// Parsed command-line tail.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` pairs (last occurrence wins).
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse the tail of `p3 <cmd>`, rejecting dangling flags and any
    /// flag not in `known` (the value flags `cmd` reads).
    pub fn parse(cmd: &str, known: &[&str], argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag --{name} for 'p3 {cmd}'"));
                }
                let value = it.next().ok_or_else(|| format!("flag --{name} expects a value"))?;
                out.flags.insert(name.to_string(), value.clone());
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    /// Positional argument by index, with a name for errors.
    pub fn pos(&self, idx: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// Required flag.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.flags.get(name).map(String::as_str).ok_or_else(|| format!("missing required --{name}"))
    }

    /// Optional flag with default.
    pub fn opt<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    fn opt_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number, got {v:?}")),
        }
    }

    /// Optional numeric flag (ports/thresholds).
    pub fn opt_u16(&self, name: &str, default: u16) -> Result<u16, String> {
        self.opt_num(name, default)
    }

    /// Optional numeric flag (sizes/counts).
    pub fn opt_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        self.opt_num(name, default)
    }

    /// Optional numeric flag (seeds).
    pub fn opt_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.opt_num(name, default)
    }

    /// Optional numeric flag (rates/fractions).
    pub fn opt_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        self.opt_num(name, default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mixed() {
        let a = Args::parse(
            "split",
            &["key", "threshold"],
            &sv(&["in.jpg", "--key", "secret", "out.jpg", "--threshold", "20"]),
        )
        .unwrap();
        assert_eq!(a.positional, vec!["in.jpg", "out.jpg"]);
        assert_eq!(a.req("key").unwrap(), "secret");
        assert_eq!(a.opt_u16("threshold", 15).unwrap(), 20);
        assert_eq!(a.opt_u16("missing", 15).unwrap(), 15);
    }

    #[test]
    fn dangling_flag_rejected() {
        assert!(Args::parse("join", &["key"], &sv(&["--key"])).is_err());
    }

    #[test]
    fn unknown_flag_rejected_by_name() {
        // The typo that used to split at the default threshold.
        let err = Args::parse(
            "split",
            &["key", "threshold"],
            &sv(&["in.jpg", "--key", "k", "--treshold", "5"]),
        )
        .unwrap_err();
        assert_eq!(err, "unknown flag --treshold for 'p3 split'");
        // Known to another subcommand is still unknown to this one.
        assert!(Args::parse("info", &[], &sv(&["in.jpg", "--key", "k"])).is_err());
    }

    #[test]
    fn missing_required() {
        let a = Args::parse("join", &["key"], &sv(&["x"])).unwrap();
        assert!(a.req("key").is_err());
        assert!(a.pos(1, "other").is_err());
        assert_eq!(a.pos(0, "input").unwrap(), "x");
    }

    #[test]
    fn bad_number() {
        let a = Args::parse("audit", &["threshold"], &sv(&["--threshold", "abc"])).unwrap();
        assert!(a.opt_u16("threshold", 15).is_err());
    }
}

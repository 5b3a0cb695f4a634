//! Just enough JSON to read a child run's result line and
//! `BENCHMARK.json` (the build is offline: no serde).

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at)?;
        skip_space(bytes, &mut at);
        (at == bytes.len()).then_some(value)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

fn skip_space(b: &[u8], at: &mut usize) {
    while b.get(*at).is_some_and(|c| c.is_ascii_whitespace()) {
        *at += 1;
    }
}

fn eat(b: &[u8], at: &mut usize, word: &[u8]) -> Option<()> {
    b[*at..].starts_with(word).then(|| *at += word.len())
}

fn parse_value(b: &[u8], at: &mut usize) -> Option<Value> {
    skip_space(b, at);
    match *b.get(*at)? {
        b'n' => eat(b, at, b"null").map(|()| Value::Null),
        b't' => eat(b, at, b"true").map(|()| Value::Bool(true)),
        b'f' => eat(b, at, b"false").map(|()| Value::Bool(false)),
        b'"' => parse_string(b, at).map(Value::String),
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            loop {
                skip_space(b, at);
                if *b.get(*at)? == b']' {
                    *at += 1;
                    return Some(Value::Array(items));
                }
                if !items.is_empty() {
                    eat(b, at, b",")?;
                }
                items.push(parse_value(b, at)?);
            }
        }
        b'{' => {
            *at += 1;
            let mut fields = Vec::new();
            loop {
                skip_space(b, at);
                if *b.get(*at)? == b'}' {
                    *at += 1;
                    return Some(Value::Object(fields));
                }
                if !fields.is_empty() {
                    eat(b, at, b",")?;
                    skip_space(b, at);
                }
                let key = parse_string(b, at)?;
                skip_space(b, at);
                eat(b, at, b":")?;
                fields.push((key, parse_value(b, at)?));
            }
        }
        _ => {
            let start = *at;
            while b.get(*at).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                *at += 1;
            }
            std::str::from_utf8(&b[start..*at]).ok()?.parse().ok().map(Value::Number)
        }
    }
}

fn parse_string(b: &[u8], at: &mut usize) -> Option<String> {
    eat(b, at, b"\"")?;
    let mut out = Vec::new();
    loop {
        let c = *b.get(*at)?;
        *at += 1;
        match c {
            b'"' => return String::from_utf8(out).ok(),
            b'\\' => {
                let esc = *b.get(*at)?;
                *at += 1;
                out.push(match esc {
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'r' => b'\r',
                    b'"' | b'\\' | b'/' => esc,
                    _ => return None,
                });
            }
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_line() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"p50_ms": {"value": 1.2034, "unit": "ms"}, "x": {"value": -2e-3, "unit": "1/s"}}}"#;
        let v = Value::parse(line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("p50_ms").and_then(|x| x.get("value")).and_then(Value::as_f64),
            Some(1.2034)
        );
        assert_eq!(m.get("x").and_then(|x| x.get("value")).and_then(Value::as_f64), Some(-0.002));
        assert_eq!(m.get("x").and_then(|x| x.get("unit")).and_then(Value::as_str), Some("1/s"));
        assert_eq!(m.as_object().map(<[_]>::len), Some(2));
    }

    #[test]
    fn rejects_what_is_not_json() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "{} x", "\"open"] {
            assert!(Value::parse(bad).is_none(), "{bad:?}");
        }
        assert_eq!(Value::parse("[ ]"), Some(Value::Array(vec![])));
        assert_eq!(Value::parse(" null "), Some(Value::Null));
    }
}

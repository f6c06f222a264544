//! A hand-written JSON writer (the container resolves no serializer
//! crate). Reading is `xtask::json::parse_json`, the repository's own
//! std-only parser.

use std::fmt::Write;

pub use xtask::json::{parse_json, Json};

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits; JSON has no NaN or
/// infinity, so those become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest text that reads back to the same
        // f64, and always with a `.` or exponent.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Builds one JSON object; values are already-rendered JSON.
#[derive(Default)]
pub struct Object {
    body: String,
}

impl Object {
    pub fn new() -> Object {
        Object::default()
    }

    pub fn raw(mut self, key: &str, json: impl AsRef<str>) -> Object {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&string(key));
        self.body.push(':');
        self.body.push_str(json.as_ref());
        self
    }

    pub fn str(self, key: &str, value: &str) -> Object {
        self.raw(key, string(value))
    }

    pub fn num(self, key: &str, value: f64) -> Object {
        self.raw(key, number(value))
    }

    pub fn int(self, key: &str, value: u64) -> Object {
        self.raw(key, value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Object {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Already-rendered JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Field `key` of `v` as a number.
pub fn get_num(v: &Json, key: &str) -> Option<f64> {
    match v.get(key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Field `key` of `v` as a string.
pub fn get_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Fields of the object at `key` of `v`.
pub fn get_obj<'a>(v: &'a Json, key: &str) -> Option<&'a [(String, Json)]> {
    match v.get(key)? {
        Json::Obj(fields) => Some(fields),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_read_back() {
        let nasty = "a\"b\\c\nd\te\u{1}f/é";
        let doc = Object::new().str("k\"ey", nasty).finish();
        assert_eq!(doc, "{\"k\\\"ey\":\"a\\\"b\\\\c\\nd\\te\\u0001f/é\"}");
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(get_str(&parsed, "k\"ey"), Some(nasty));
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(1e-7), "1e-7");
        assert_eq!(number(f64::NAN), "null");
        let doc = Object::new()
            .num("a", 0.1 + 0.2)
            .int("b", u64::MAX)
            .bool("c", true)
            .finish();
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(get_num(&parsed, "a"), Some(0.1 + 0.2));
        assert_eq!(parsed.get("c"), Some(&Json::Bool(true)));
    }

    #[test]
    fn nested_values_compose() {
        let inner = Object::new().num("value", 2.5).str("unit", "ms").finish();
        let doc = Object::new()
            .raw("metrics", Object::new().raw("latency_ms", inner).finish())
            .raw("list", array(["1".to_string(), string("x")]))
            .finish();
        let parsed = parse_json(&doc).unwrap();
        let metrics = get_obj(&parsed, "metrics").unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(get_num(&metrics[0].1, "value"), Some(2.5));
    }
}

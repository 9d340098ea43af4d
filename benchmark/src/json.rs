//! JSON in and out. The document model is the repository's
//! [`simnet::JsonValue`] and the reader is `perfjson::JsonReader`; this
//! module only adds a writer that keeps every digit of a float (the
//! repository's `Display` rounds to six decimals, which would make two
//! different wall times read the same) and a few typed accessors.

use std::fmt::Write as _;

use gvfs_bench::perfjson::{self, JsonReader};
use simnet::JsonValue;

/// Render `v` on one line, floats with their shortest round-trip form.
pub fn to_line(v: &JsonValue) -> String {
    let mut out = String::new();
    write(v, &mut out, None, 0);
    out
}

/// Render `v` indented by two spaces per level.
pub fn to_pretty(v: &JsonValue) -> String {
    let mut out = String::new();
    write(v, &mut out, Some(2), 0);
    out.push('\n');
    out
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', n * depth));
    }
}

fn write(v: &JsonValue, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Uint(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Float(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        JsonValue::Float(_) => out.push_str("null"),
        JsonValue::Str(s) => {
            let _ = write!(out, "\"{}\"", simnet::telemetry::json_escape(s));
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                let _ = write!(out, "\"{}\":", simnet::telemetry::json_escape(k));
                if indent.is_some() {
                    out.push(' ');
                }
                write(val, out, indent, depth + 1);
            }
            if !fields.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    JsonReader::parse(text)
}

/// Read and parse the JSON file at `path`.
pub fn read_file(path: &std::path::Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Field of an object.
pub fn get<'v>(obj: &'v JsonValue, key: &str) -> Option<&'v JsonValue> {
    perfjson::get(obj, key)
}

/// Numeric field of an object.
pub fn num(obj: &JsonValue, key: &str) -> Option<f64> {
    get(obj, key).and_then(perfjson::as_number)
}

/// String field of an object.
pub fn str_of<'v>(obj: &'v JsonValue, key: &str) -> Option<&'v str> {
    match get(obj, key) {
        Some(JsonValue::Str(s)) => Some(s),
        _ => None,
    }
}

/// Array field of an object (empty when absent).
pub fn array<'v>(obj: &'v JsonValue, key: &str) -> &'v [JsonValue] {
    match get(obj, key) {
        Some(JsonValue::Array(a)) => a,
        _ => &[],
    }
}

/// Fields of an object (empty when `v` is not one).
pub fn fields(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Object(f) => f,
        _ => &[],
    }
}

/// `[x, ...]` as a JSON array of floats.
pub fn floats(xs: &[f64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|x| JsonValue::Float(*x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_keep_every_digit_through_a_round_trip() {
        let doc = JsonValue::object([
            ("wall", JsonValue::Float(12.345678901234567)),
            ("n", JsonValue::Uint(u64::MAX)),
            ("neg", JsonValue::Float(-0.5)),
            ("name", JsonValue::Str("a \"quoted\" \\ name".into())),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
            ("empty", JsonValue::Object(Vec::new())),
        ]);
        for text in [to_line(&doc), to_pretty(&doc)] {
            let back = parse(&text).unwrap();
            assert_eq!(num(&back, "wall"), Some(12.345678901234567));
            assert_eq!(get(&back, "n").map(to_line), Some(u64::MAX.to_string()));
            assert_eq!(num(&back, "neg"), Some(-0.5));
            assert_eq!(str_of(&back, "name"), Some("a \"quoted\" \\ name"));
            assert_eq!(array(&back, "arr").len(), 2);
            assert_eq!(to_line(&back), to_line(&doc));
        }
        assert!(!to_line(&doc).contains('\n'));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_line(&JsonValue::Float(f64::NAN)), "null");
    }
}

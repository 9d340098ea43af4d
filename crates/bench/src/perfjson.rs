//! The pieces the repository benchmark (`benchmark/`) takes from this
//! crate: the one wall-clock read ([`wall_time`]), the RPC round-trip
//! count of a snapshot, a median, and a minimal JSON reader (the repo's
//! [`JsonValue`] only prints) with field and number accessors. The
//! reader also keeps the committed reports and the frozen
//! `BENCH_perf.json` / `BENCH_fleet.json` trajectories readable
//! (`tests/json_roundtrip.rs`).

use simnet::{JsonValue, Snapshot};

/// Completed client-side calls: one per RPC round trip. Server-side
/// `served.calls` would double-count multi-hop proxy chains.
pub fn rpc_roundtrips(snap: &Snapshot) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.layer == "rpc" && c.name.starts_with("client.") && c.name.ends_with(".calls"))
        .map(|c| c.value)
        .sum()
}

/// Run `f` once, returning its result and the wall seconds it took.
pub fn wall_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // lint:allow(determinism): the one wall-clock read; benchmark/ measures host time through it
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Field lookup in a [`JsonValue::Object`].
pub fn get<'v>(obj: &'v JsonValue, key: &str) -> Option<&'v JsonValue> {
    match obj {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric view of a [`JsonValue`], if it is one.
pub fn as_number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Uint(u) => Some(*u as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader. Only needs to read files this repository wrote:
// objects, arrays, strings, numbers.

/// Recursive-descent reader producing [`JsonValue`] trees.
pub struct JsonReader<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    /// Parse `text` as one JSON document.
    pub fn parse(text: &'a str) -> Result<JsonValue, String> {
        let mut r = JsonReader {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = r.value()?;
        r.skip_ws();
        if r.pos != r.s.len() {
            return Err(format!("trailing bytes at offset {}", r.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.s.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences verbatim.
                    let start = self.pos - 1;
                    while self.pos < self.s.len() && self.s[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.pos])
                            .map_err(|_| "invalid utf-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && matches!(
                self.s[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| "bad number")?;
        if text.is_empty() {
            return Err(format!("expected a value at offset {start}"));
        }
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_roundtrips_own_output() {
        let doc = JsonValue::object([
            ("schema", JsonValue::Str("gvfs.fleet-perf.v1".to_string())),
            ("n", JsonValue::Uint(42)),
            ("x", JsonValue::Float(1.5)),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        let text = format!("{doc}");
        let back = JsonReader::parse(&text).unwrap();
        assert_eq!(format!("{back}"), text);
    }
}

//! Hand-rolled JSON: a bounded recursive-descent parser for request
//! bodies and an escaping writer for responses, metric snapshots and
//! query traces.
//!
//! The workspace deliberately carries no serialization dependency, and the
//! service's payloads are small and flat, so a few hundred lines of
//! well-tested JSON beats a new dependency. The parser is hardened like
//! every other input-facing decoder in the workspace: depth-limited,
//! size-limited by the HTTP layer, and incapable of panicking on any byte
//! sequence (typed [`JsonError`]s only).

use flexpath_engine::metrics::{MetricsSnapshot, QueryTrace, TraceSpan};
use std::collections::BTreeMap;

/// Maximum nesting depth the parser accepts. Query payloads are depth ≤ 2;
/// the cap only exists to bound recursion on adversarial input.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value. Object keys are ordered (BTreeMap) so rendering
/// and error messages are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as f64; the service's fields are small ints).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        // Strict upper bound: `u64::MAX as f64` rounds UP to 2^64, so a
        // `<=` comparison would admit 2^64 itself and saturate the cast.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }
}

/// Why a body failed to parse as JSON. The byte offset points at the
/// first offending character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `bytes` as a single JSON value (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unexpected literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("bad escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: validate the whole sequence.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let start = self.pos - 1;
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pair handling: a high surrogate must be followed by
        // `\uDC00`–`\uDFFF`.
        if (0xD800..0xDC00).contains(&code) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("lone high surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        if (0xDC00..0xE000).contains(&code) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number in RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: no leading zeros,
    /// and digits on both sides of a `.` and after an exponent mark.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.err("bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| self.err("bad number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("bad number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Number(n))
    }
}

/// Expected byte length of a UTF-8 sequence starting with `b`.
fn utf8_len(b: u8) -> Option<usize> {
    match b {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Escapes `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An append-only JSON object/array builder with deterministic field
/// order (fields appear in call order).
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
}

impl JsonBuf {
    /// A fresh empty buffer.
    pub fn new() -> Self {
        JsonBuf::default()
    }

    /// Appends raw, already-serialized JSON.
    pub fn raw(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// Appends a `"key":` prefix (with a leading comma unless the buffer
    /// ends at an opening brace/bracket).
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.comma();
        self.out.push_str(&quote(key));
        self.out.push(':');
        self
    }

    /// Appends a comma unless at the start of an object/array.
    pub fn comma(&mut self) -> &mut Self {
        if !matches!(self.out.chars().last(), None | Some('{' | '[' | ':' | ',')) {
            self.out.push(',');
        }
        self
    }

    /// Appends a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.out.push_str(&quote(v));
        self
    }

    /// Appends an integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.out.push_str(&v.to_string());
        self
    }

    /// Appends a float value (JSON-safe rendering; non-finite becomes
    /// `null`).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Appends a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends a metrics snapshot as one object (snapshot schema 2): the
    /// top level declares `"schema"` and `"bucket_scheme"` beside
    /// `"counters"` and `"histograms"`, and each histogram carries its
    /// bucket boundaries explicitly as `[upper_inclusive, count]` pairs plus
    /// a `"mean"` convenience field, so readers never hardcode the log₂
    /// bucketing. Schema 1 readers (which looked up only `counters` /
    /// `histograms` / `count` / `sum_us` / `buckets`) parse it unchanged.
    pub fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) -> &mut Self {
        self.raw("{\"schema\":2,\"bucket_scheme\":\"log2-upper-inclusive\",\"counters\":{");
        for (name, v) in &snapshot.counters {
            self.key(name).u64(*v);
        }
        self.raw("},\"histograms\":{");
        for (name, h) in &snapshot.histograms {
            self.key(name).raw("{");
            self.key("count").u64(h.count);
            self.key("sum_us").u64(h.sum_micros);
            self.key("mean")
                .u64(h.sum_micros.checked_div(h.count).unwrap_or(0));
            self.key("buckets").raw("[");
            for (upper, n) in &h.buckets {
                self.comma().raw("[").u64(*upper).comma().u64(*n).raw("]");
            }
            self.raw("]}");
        }
        self.raw("}}")
    }

    /// Appends a query trace as nested span objects, each
    /// `{"name","duration_us","counters","children"}` with children in
    /// execution order.
    pub fn trace(&mut self, trace: &QueryTrace) -> &mut Self {
        self.span(&trace.root)
    }

    fn span(&mut self, span: &TraceSpan) -> &mut Self {
        self.raw("{").key("name").string(&span.name);
        self.key("duration_us")
            .raw(&span.duration.as_micros().to_string());
        self.key("counters").raw("{");
        for (k, v) in &span.counters {
            self.key(k).u64(*v);
        }
        self.raw("}").key("children").raw("[");
        for child in &span.children {
            self.comma().span(child);
        }
        self.raw("]}")
    }

    /// The serialized JSON.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_service_payload_shape() {
        let v = parse(
            br#"{"catalog":"doc","query":"//a","k":5,"trace":true,"deadline_ms":250.0,"nested":{"x":[1,2,3]}}"#,
        )
        .unwrap();
        assert_eq!(v.get("catalog").and_then(Json::as_str), Some("doc"));
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("trace").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(
            v.get("nested").and_then(|n| n.get("x")),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.0),
                Json::Number(3.0)
            ]))
        );
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse("\"a\\\"b\\\\c\\ndAé😀\"".as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let q = quote("a\"b\\c\nd");
        assert_eq!(q, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(parse(q.as_bytes()).unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn utf8_bodies_parse() {
        let v = parse("{\"q\":\"prix ≤ 98 €\"}".as_bytes()).unwrap();
        assert_eq!(v.get("q").and_then(Json::as_str), Some("prix ≤ 98 €"));
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        for bad in [
            &b"{"[..],
            b"[1,2",
            b"{\"a\":}",
            b"{\"a\" 1}",
            b"tru",
            b"01a",
            b"\"unterminated",
            b"\"bad \\q escape\"",
            b"\"\\ud800 lone\"",
            b"{\"a\":1} trailing",
            b"",
            b"\x80\x80",
            b"\"ctrl \x01 byte\"",
            b"1e999",
        ] {
            assert!(parse(bad).is_err(), "{:?} must fail", bad);
        }
    }

    #[test]
    fn depth_limit_bounds_recursion() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        let e = parse(deep.as_bytes()).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
        // At the limit, parsing still works.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn builder_produces_valid_json() {
        let mut b = JsonBuf::new();
        b.raw("{");
        b.key("name").string("a\"b");
        b.key("n").u64(42);
        b.key("pi").f64(3.5);
        b.key("flag").bool(false);
        b.key("arr").raw("[");
        b.u64(1).comma().u64(2);
        b.raw("]}");
        let s = b.finish();
        let v = parse(s.as_bytes()).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn as_u64_rejects_values_at_and_beyond_two_pow_64() {
        // 2^64 itself: `u64::MAX as f64` rounds up to exactly this, so a
        // `<=` bound would let it through and saturate the cast.
        assert_eq!(Json::Number(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(Json::Number(1e300).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(1.5).as_u64(), None);
        // The largest f64 below 2^64 still converts.
        assert_eq!(
            Json::Number(18_446_744_073_709_549_568.0).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        assert_eq!(Json::Number(0.0).as_u64(), Some(0));
    }
}

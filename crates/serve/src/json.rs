//! Minimal JSON support for the scoring API.
//!
//! The build environment has no registry access, so instead of `serde`
//! this module provides a small recursive-descent parser and writer for
//! the handful of shapes the server exchanges (`{"rows": [[f64, …], …]}`
//! in, `{"scores": [f64, …]}` out). Numbers round-trip exactly: they are
//! written with std `Display`, the shortest decimal that parses back to
//! the same bits, which is what lets the HTTP integration tests demand
//! bit-identical scores.
//!
//! Score traffic skips the [`Value`] tree in both directions.
//! [`read_rows`] decodes a canonical `{"rows": [[…], …]}` body straight
//! into a row-major [`Matrix`] with the parser's own number grammar, and
//! returns `None` for anything else, so callers fall back to [`parse`],
//! which owns every error message. Score responses are written straight
//! into one buffer by [`write_numbers`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use uadb_linalg::Matrix;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys; duplicate keys keep the last value).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Reads a score request body, `{"rows": [[x, …], …]}`, straight into a
/// row-major matrix (`{"rows": []}` is the empty matrix), with the same
/// strict number grammar and finiteness check as [`parse`].
///
/// Only that canonical shape is read: `None` means "not canonical", not
/// "invalid". Extra or repeated keys, escapes in the key, empty or
/// ragged rows and non-number cells all return `None`, as do malformed
/// and non-UTF-8 bodies. Callers then run [`parse`], whose result (or
/// error) is authoritative.
pub fn read_rows(input: &[u8]) -> Option<Matrix> {
    Parser::new(std::str::from_utf8(input).ok()?).whole(|p| {
        if !p.take(b'{') {
            return None;
        }
        p.skip_ws();
        if !p.bytes[p.pos..].starts_with(b"\"rows\"") {
            return None;
        }
        p.pos += b"\"rows\"".len();
        if !p.take(b':') {
            return None;
        }
        let rows = p.rows()?;
        p.take(b'}').then_some(rows)
    })
}

/// [`read_rows`] for a bare `[[x, …], …]` document.
pub fn read_rows_array(input: &[u8]) -> Option<Matrix> {
    Parser::new(std::str::from_utf8(input).ok()?).whole(Parser::rows)
}

/// Maximum nesting depth accepted by [`parse`] (stack-safety guard for
/// untrusted request bodies).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Value::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(&self.text[start..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            let s = p.bytes.get(p.pos..p.pos + 4).ok_or_else(|| p.err("truncated \\u escape"))?;
            // from_str_radix would accept a leading '+'; JSON requires
            // exactly four hex digits.
            if !s.iter().all(u8::is_ascii_hexdigit) {
                return Err(p.err("invalid \\u escape"));
            }
            let v = u32::from_str_radix(std::str::from_utf8(s).unwrap(), 16).unwrap();
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair handling.
        if (0xd800..0xdc00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = hex4(self)?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&hi) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))
        }
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        // Enforce the JSON grammar exactly (RFC 8259 §6): Rust's f64
        // parser is more lenient (`01`, `1.`, `.5`), and accepting those
        // here would silently diverge from every conforming peer.
        let start = self.pos;
        let invalid = JsonError { offset: start, message: "invalid number" };
        let b = self.bytes;
        let digits = |mut i: usize| {
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            i
        };
        let int_start = start + usize::from(b.get(start) == Some(&b'-'));
        let mut i = digits(int_start);
        // Bare "-", no integer part, or a leading zero ("01").
        if i == int_start || (i - int_start > 1 && b[int_start] == b'0') {
            return Err(invalid);
        }
        if b.get(i) == Some(&b'.') {
            let frac = i + 1;
            i = digits(frac);
            if i == frac {
                return Err(invalid); // "1."
            }
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let exp = i;
            i = digits(exp);
            if i == exp {
                return Err(invalid); // "1e" / "1e+"
            }
        }
        self.pos = i;
        self.text[start..i].parse::<f64>().ok().filter(|v| v.is_finite()).ok_or(invalid)
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn take(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// `[[x, …], …]` of equally long, non-empty number rows, into one
    /// row-major buffer; `None` on anything else.
    fn rows(&mut self) -> Option<Matrix> {
        if !self.take(b'[') {
            return None;
        }
        if self.take(b']') {
            return Some(Matrix::zeros(0, 0));
        }
        let (mut data, mut n_rows, mut width) = (Vec::new(), 0, 0);
        loop {
            let row_start = self.pos;
            if !self.take(b'[') {
                return None;
            }
            let first_cell = data.len();
            loop {
                self.skip_ws();
                data.push(self.number().ok()?);
                if self.take(b']') {
                    break;
                }
                if !self.take(b',') {
                    return None;
                }
            }
            let cells = data.len() - first_cell;
            if n_rows == 0 {
                // Size the buffer for rows as long as the first one.
                width = cells;
                let row_bytes = self.pos - row_start + 1;
                data.reserve(width * ((self.bytes.len() - self.pos) / row_bytes));
            } else if cells != width {
                return None;
            }
            n_rows += 1;
            if self.take(b']') {
                return Matrix::from_vec(n_rows, width, data).ok();
            }
            if !self.take(b',') {
                return None;
            }
        }
    }

    /// Runs `read` over the whole input: only whitespace may follow.
    fn whole<T>(mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let value = read(&mut self)?;
        self.skip_ws();
        (self.pos == self.bytes.len()).then_some(value)
    }
}

/// Serialises a value to compact JSON. Non-finite numbers (which JSON
/// cannot represent) become `null`.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// Appends `x` in its shortest round-trip form (std `Display`: no
/// exponent, and no trailing `.0` on integral values), or `null` when
/// it is not finite, which JSON cannot represent.
pub(crate) fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends `[x, …]`, each element as by [`write_number`].
pub(crate) fn write_numbers(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, x);
    }
    out.push(']');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: builds `{"key": value}` objects without importing
/// `BTreeMap` at every call site.
pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience: a numeric array value.
pub fn number_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Number(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_score_request_shape() {
        let v = parse(r#"{"rows": [[1.0, -2.5e-3], [0, 4]]}"#).unwrap();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_array().unwrap()[1].as_f64(), Some(-2.5e-3));
        assert_eq!(rows[1].as_array().unwrap()[0].as_f64(), Some(0.0));
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.797e308,
            -2.2250738585072014e-308,
            0.1 + 0.2,
        ] {
            let text = to_string(&Value::Number(x));
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "value {x:?} via {text}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "line\n\t\"quoted\" \\ 日本語 \u{0001}";
        let text = to_string(&Value::String(s.to_string()));
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        // Surrogate pair for U+1D11E (musical G clef).
        assert_eq!(parse(r#""𝄞""#).unwrap().as_str(), Some("𝄞"));
        assert!(parse(r#""\ud834""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "[1,", "[1 2]", r#"{"a" 1}"#, "tru", "1.2.3", "[1]x", "\"\u{0007}\"", "nan"]
        {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn number_grammar_is_strict_json() {
        for ok in ["0", "-0", "-0.5", "0e5", "1e5", "1E+3", "10.25e-2", "[0, 123]"] {
            assert!(parse(ok).is_ok(), "rejected valid: {ok}");
        }
        for bad in ["01", "-01", "1.", "1.e5", ".5", "-", "-a", "1e", "1e+", "+1", "0x10"] {
            assert!(parse(bad).is_err(), "accepted invalid: {bad}");
        }
    }

    #[test]
    fn unicode_escape_requires_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u00 1""#).is_err());
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn object_builder_and_writer() {
        let v = object([
            ("status", Value::String("ok".into())),
            ("n", Value::Number(3.0)),
            ("scores", number_array(&[0.5, 1.0])),
        ]);
        let text = to_string(&v);
        assert_eq!(text, r#"{"n":3,"scores":[0.5,1],"status":"ok"}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_serialises_as_null() {
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Number(f64::INFINITY)), "null");
    }

    proptest::proptest! {
        #[test]
        fn formatted_f64_round_trips(
            exp in 0u64..2047,
            frac in 0u64..(1u64 << 52),
            neg in proptest::bool::ANY,
        ) {
            let bits = (u64::from(neg) << 63) | (exp << 52) | frac;
            let x = f64::from_bits(bits);
            let text = to_string(&Value::Number(x));
            // The writer's output is valid JSON that parses back to
            // the same bits (`-0` included).
            let back = parse(&text).unwrap().as_f64().unwrap();
            proptest::prop_assert_eq!(back.to_bits(), x.to_bits(), "via {}", &text);
        }
    }
}

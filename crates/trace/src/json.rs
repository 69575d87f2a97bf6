//! Minimal JSON support: an escaping writer and a validating parser.
//!
//! The workspace is hermetic (no crates.io), so the Chrome trace exporter
//! and the metrics registry serialize by hand through [`write_str`] /
//! [`write_f64`], and CI validates emitted files with [`parse`] — a small
//! recursive-descent parser that accepts exactly RFC 8259 JSON, nested at
//! most [`MAX_DEPTH`] levels. The parser is for validation and tests, not
//! performance.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order (duplicate keys are kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes, a janus-benchmark record, nests 5 levels; the
/// limit turns a hostile document into a [`ParseError`] instead of a stack
/// overflow in the recursive descent.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns the first syntax error with its byte offset, or an error at the
/// first `[`/`{` that nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`. Every step advances over whole characters,
    /// so it always sits on a char boundary.
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `f`, one level deeper.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deeply"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: no sign, no other
                            // character.
                            let cp = hex
                                .iter()
                                .try_fold(0, |cp, &b| Some(cp << 4 | char::from(b).to_digit(16)?))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogates are replaced; the exporter never
                            // emits them.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one character; `peek` saw its first byte.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("a character starts at pos");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" alone, or a nonzero digit followed by digits
        // (RFC 8259 forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digits")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp {
                return Err(self.err("expected exponent digits"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

/// Writes `s` as a JSON string (with quotes and escapes).
pub fn write_str(out: &mut String, s: &str) {
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
}

/// Writes a finite `f64` as a JSON number (`null` for NaN/infinity, which
/// JSON cannot represent).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is deterministic for a given
        // value, which the byte-identical-trace guarantee relies on.
        out.push_str(&format!("{v}"));
        // "1" is a valid JSON number, but keep integers distinguishable
        // from the f64 origin where it matters — not needed here.
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, 1e3, true, false, null, "x\n\u0041"]}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(arr[5], Value::Null);
        assert_eq!(arr[6].as_str(), Some("x\nA"));
        let at_limit = format!(
            "{}0{}",
            "[{\"k\":".repeat(MAX_DEPTH / 2),
            "}]".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&at_limit).is_ok(), "{MAX_DEPTH} levels parse");
    }

    #[test]
    fn rejects_malformed_documents() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let (over, deep) = (nested(MAX_DEPTH + 1), nested(200_000));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "\"\\q\"",
            "{} x",
            "[1 2]",
            &over,
            &deep,
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn error_reports_offset() {
        let e = parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn f64_writer_handles_non_finite() {
        let mut out = String::new();
        write_f64(&mut out, 2.5);
        assert_eq!(out, "2.5");
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn multi_mib_documents_parse() {
        // A Chrome-trace-shaped document; parsing is linear in its length.
        let event = r#"{"name":"E1 ✓","cat":"bmo.encryption","ph":"X","ts":12.5,"dur":0.25,"pid":0,"tid":3,"args":{"job":7,"arg":"\u0041"}}"#;
        let doc = format!("[{}]", vec![event; 20_000].join(","));
        assert!(doc.len() >= 2 << 20, "{} bytes", doc.len());
        let v = parse(&doc).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 20_000);
        assert_eq!(events[19_999].get("name").unwrap().as_str(), Some("E1 ✓"));
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }
}

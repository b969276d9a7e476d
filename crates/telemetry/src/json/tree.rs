//! The tree codec the borrowed reader and direct writer of
//! [`super`] replaced, kept verbatim as a test-only reference: an owned
//! `JsonValue` tree, its renderer and its parser. The wire and trace
//! reference codecs are built on it, and the reference tests check the
//! new codecs against them byte for byte.

// Each crate that mounts this file uses a different part of it.
#![allow(dead_code)]

use super::ParseError;
use std::fmt::Write as _;

/// One JSON value. Objects keep field order (and allow duplicate
/// keys — first match wins on lookup), which keeps rendering
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// Any number; integers survive exactly below 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Shorthand for [`JsonValue::Num`].
    pub fn num(v: f64) -> JsonValue {
        JsonValue::Num(v)
    }

    /// Shorthand for [`JsonValue::Str`] from a borrowed string.
    pub fn str(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }

    /// Looks up `key` in an object; errors if `self` is not an object
    /// or the field is missing.
    pub fn get(&self, key: &str) -> Result<JsonValue, ParseError> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| ParseError::new(format!("missing field {key:?}"))),
            _ => Err(ParseError::new(format!("expected object looking up {key:?}"))),
        }
    }

    /// The value as an owned string; errors on any other type.
    pub fn string(&self) -> Result<String, ParseError> {
        match self {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(ParseError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as a number; errors on any other type.
    pub fn f64(&self) -> Result<f64, ParseError> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            other => Err(ParseError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// Integers survive the f64 round-trip exactly below 2^53, far
    /// beyond any byte count or node id this repo models.
    pub fn u64(&self) -> Result<u64, ParseError> {
        let n = self.f64()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(ParseError::new(format!("expected unsigned integer, got {n}")));
        }
        Ok(n as u64)
    }

    /// The value as an array slice; errors on any other type.
    pub fn array(&self) -> Result<&[JsonValue], ParseError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(ParseError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // {:?} prints the shortest string that parses back
                    // to the same f64 — exact round-trip.
                    let _ = write!(out, "{n:?}");
                }
            }
            JsonValue::Str(s) => {
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
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON document; rejects trailing data.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(format!("expected {:?} at byte {}", b as char, self.pos)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(JsonValue::Null)
                } else {
                    Err(ParseError::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(ParseError::new(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(ParseError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(ParseError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(ParseError::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(ParseError::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(ParseError::new("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| ParseError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| ParseError::new("bad \\u escape"))?;
                            // Traces only escape control chars, so BMP
                            // scalars are all we ever emit.
                            let c = char::from_u32(code)
                                .ok_or_else(|| ParseError::new("bad \\u scalar"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(ParseError::new(format!(
                                "unknown escape {:?}",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if start + len > self.bytes.len() {
                        return Err(ParseError::new("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| ParseError::new("bad UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError::new("bad number"))?;
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| ParseError::new(format!("bad number {s:?}")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

//! Minimal hand-rolled JSON, just enough for the trace format: object,
//! array, string, number, null. No external dependencies by design —
//! the trace schema is flat and fully under our control.
//!
//! Public because other crates reuse the same reader and writer for
//! their own line-oriented protocols (the `hetmem-service` wire format
//! speaks exactly this dialect); the trace schema itself stays defined
//! by [`crate::Event`].
//!
//! Neither direction builds a tree of owned values:
//!
//! * [`parse`] returns a [`JsonValue`] that borrows every string and
//!   key from the line; only a string holding an escape is copied.
//!   Lookups return references, and error text is built only when a
//!   caller reports a missing required field ([`JsonValue::field`]).
//! * [`write_object`] appends an object straight into a `String`: an
//!   [`ObjectWriter`] escapes and formats each field in place.
//!
//! Numbers: a literal made only of digits is read exactly
//! ([`JsonValue::Int`]); any other number is an `f64`. Integer fields
//! render as plain digits at every magnitude. An `f64` renders as
//! digits when it is integral and below 9e15 in magnitude, and in
//! Rust's shortest round-trip form (`{:?}`) otherwise.

use std::borrow::Cow;
use std::fmt::Write as _;

#[cfg(test)]
pub(crate) mod mutate;
#[cfg(test)]
pub(crate) mod tree;

/// A parse error from the JSON reader or a schema mismatch while
/// decoding an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    /// A parse/schema error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> ParseError {
        ParseError { msg: msg.into() }
    }

    /// The message alone, without the `trace parse error:` prefix that
    /// `Display` gives trace readers; for readers of other JSON lines.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

/// One parsed JSON value, borrowing its strings from the parsed text.
/// Objects keep field order and allow duplicate keys; the first match
/// wins on lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// A number written only with digits that fits a `u64`, read
    /// exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string; borrowed from the text unless it held an escape.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<JsonValue<'a>>),
    /// An object as ordered `(key, value)` pairs.
    Object(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl<'a> JsonValue<'a> {
    /// The value of the first field named `key`; `None` when the field
    /// is absent or `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a required field; errors if `self` is not an object
    /// or the field is missing.
    pub fn field(&self, key: &str) -> Result<&JsonValue<'a>, ParseError> {
        match self {
            JsonValue::Object(_) => {
                self.get(key).ok_or_else(|| ParseError::new(format!("missing field {key:?}")))
            }
            _ => Err(ParseError::new(format!("expected object looking up {key:?}"))),
        }
    }

    /// The value as a borrowed string; errors on any other type.
    pub fn as_str(&self) -> Result<&str, ParseError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(ParseError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as a number; errors on any other type.
    pub fn as_f64(&self) -> Result<f64, ParseError> {
        match *self {
            JsonValue::Int(n) => Ok(n as f64),
            JsonValue::Num(n) => Ok(n),
            ref other => Err(ParseError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// Whether the value is a number whose value is a non-negative
    /// integer, of any magnitude.
    pub fn is_uint(&self) -> bool {
        match *self {
            JsonValue::Int(_) => true,
            JsonValue::Num(n) => n >= 0.0 && n.fract() == 0.0,
            _ => false,
        }
    }

    /// The value as an unsigned integer of type `T`. A digits-only
    /// literal is exact at every magnitude; any other number form
    /// (`4096.0`, `4.096e3`) is read through its `f64` value. A value
    /// too large for `T` is refused, never saturated or truncated.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, ParseError> {
        let n = match *self {
            JsonValue::Int(n) => Some(n),
            // 2^64 is the first integral `f64` past `u64::MAX`.
            JsonValue::Num(n) if self.is_uint() => {
                (n < 18_446_744_073_709_551_616.0).then_some(n as u64)
            }
            _ => return Err(ParseError::new(format!("expected unsigned integer, got {self:?}"))),
        };
        n.and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| ParseError::new(format!("{self:?} is out of range")))
    }

    /// The value as an array slice; errors on any other type.
    pub fn as_array(&self) -> Result<&[JsonValue<'a>], ParseError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(ParseError::new(format!("expected array, got {other:?}"))),
        }
    }
}

/// Parses one JSON document; rejects trailing data.
pub fn parse(text: &str) -> Result<JsonValue<'_>, ParseError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(ParseError::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(format!("expected {:?} at byte {}", b as char, self.pos)))
        }
    }

    fn value(&mut self) -> Result<JsonValue<'a>, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'n') => {
                if self.text[self.pos..].starts_with("null") {
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

    fn object(&mut self) -> Result<JsonValue<'a>, ParseError> {
        self.expect(b'{')?;
        // Room for the fields of any wire frame, so parsing one
        // allocates its object once.
        let mut fields = Vec::with_capacity(8);
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
            fields.push((key, self.value()?));
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

    fn array(&mut self) -> Result<JsonValue<'a>, ParseError> {
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

    /// A string literal, borrowed from the text up to its closing quote
    /// unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // Quotes and backslashes are ASCII, so they never fall
            // inside a multi-byte character.
            let start = self.pos;
            let rest = &self.text.as_bytes()[start..];
            self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let run = &self.text[start..self.pos];
            let Some(b) = self.peek() else {
                return Err(ParseError::new("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            s.push(self.escape()?);
        }
    }

    /// The character an escape stands for; the backslash is consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let Some(esc) = self.peek() else {
            return Err(ParseError::new("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                if self.pos + 4 > self.text.len() {
                    return Err(ParseError::new("truncated \\u escape"));
                }
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| ParseError::new("bad \\u escape"))?;
                self.pos += 4;
                // Traces only escape control chars, so BMP scalars are
                // all we ever emit.
                char::from_u32(code).ok_or_else(|| ParseError::new("bad \\u scalar"))?
            }
            other => {
                return Err(ParseError::new(format!("unknown escape {:?}", other as char)));
            }
        })
    }

    /// A greedy scan over the characters a number may hold; the scanned
    /// text must then parse as a whole.
    fn number(&mut self) -> Result<JsonValue<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        if s.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = s.parse() {
                return Ok(JsonValue::Int(n));
            }
        }
        s.parse().map(JsonValue::Num).map_err(|_| ParseError::new(format!("bad number {s:?}")))
    }
}

/// Appends one JSON object to `out`; `fields` writes its fields.
pub fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fields(&mut ObjectWriter { out, first: true });
    out.push('}');
}

/// Appends one JSON array to `out`; `items` writes its elements.
fn write_array(out: &mut String, items: impl FnOnce(&mut ArrayWriter<'_>)) {
    out.push('[');
    items(&mut ArrayWriter { out, first: true });
    out.push(']');
}

/// Writes the fields of one object in place ([`write_object`]); each
/// call appends one field.
pub struct ObjectWriter<'o> {
    out: &'o mut String,
    first: bool,
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    /// An integer field, rendered as plain digits.
    pub fn uint(&mut self, key: &str, v: impl Into<u64>) -> &mut Self {
        write_uint(self.key(key), v.into());
        self
    }

    /// An integer field, or `null` when `v` is `None`.
    pub fn opt_uint(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.uint(key, v),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// An `f64` field.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        write_f64(self.key(key), v);
        self
    }

    /// An array field; `items` writes its elements.
    pub fn array(&mut self, key: &str, items: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        write_array(self.key(key), items);
        self
    }
}

/// Writes the elements of one array in place ([`ObjectWriter::array`]);
/// each call appends one element.
pub struct ArrayWriter<'o> {
    out: &'o mut String,
    first: bool,
}

impl ArrayWriter<'_> {
    fn item(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        self.out
    }

    /// A string element.
    pub fn str(&mut self, v: &str) -> &mut Self {
        write_str(self.item(), v);
        self
    }

    /// An integer element, rendered as plain digits.
    pub fn uint(&mut self, v: impl Into<u64>) -> &mut Self {
        write_uint(self.item(), v.into());
        self
    }

    /// An `f64` element.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        write_f64(self.item(), v);
        self
    }

    /// A nested array; `items` writes its elements.
    pub fn array(&mut self, items: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        write_array(self.item(), items);
        self
    }

    /// A nested object; `fields` writes its fields.
    pub fn object(&mut self, fields: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.item(), fields);
        self
    }
}

/// Appends `s` as a string literal: quotes, backslashes and control
/// characters escaped, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    // Every escaped character is ASCII, so `i` is a char boundary.
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_uint(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

fn write_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        // {:?} prints the shortest string that parses back to the same
        // f64 — exact round-trip.
        let _ = write!(out, "{v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":[1,2.5,null],"b":{"c":"x\ny"},"d":-3}"#).unwrap();
        assert_eq!(v.field("d").unwrap().as_f64().unwrap(), -3.0);
        assert_eq!(v.field("a").unwrap().as_array().unwrap()[1].as_f64().unwrap(), 2.5);
        assert_eq!(v.field("b").unwrap().field("c").unwrap().as_str().unwrap(), "x\ny");
        assert!(matches!(v.field("a").unwrap().as_array().unwrap()[2], JsonValue::Null));
    }

    #[test]
    fn errors_display_as_trace_errors_and_keep_the_bare_message() {
        let e = parse("not json").unwrap_err();
        assert_eq!(e.message(), "bad literal at byte 0");
        assert_eq!(e.to_string(), "trace parse error: bad literal at byte 0");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn u64_rejects_fractions_and_negatives() {
        assert!(parse("1.5").unwrap().as_uint::<u64>().is_err());
        assert!(parse("-2").unwrap().as_uint::<u64>().is_err());
        assert_eq!(parse("9007199254740992").unwrap().as_uint::<u64>().unwrap(), 1 << 53);
    }

    #[test]
    fn strings_borrow_unless_they_hold_an_escape() {
        let line = r#"{"plain":"stream é","escaped":"a\"b","keyA":1}"#;
        let v = parse(line).unwrap();
        assert!(matches!(v.get("plain"), Some(JsonValue::Str(Cow::Borrowed("stream é")))));
        assert!(matches!(v.get("escaped"), Some(JsonValue::Str(Cow::Owned(s))) if s == "a\"b"));
        assert_eq!(v.get("keyA"), Some(&JsonValue::Int(1)));
        assert_eq!(v.get("absent"), None);
        assert_eq!(JsonValue::Int(1).get("x"), None);
        assert!(JsonValue::Int(1).field("x").is_err());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_uint::<u64>().unwrap(), 1);
    }

    /// Satellite of the integer rule: digits-only literals are exact at
    /// every magnitude, other number forms go through `f64`, and a
    /// value too large for the field's type is refused.
    #[test]
    fn integers_are_exact_and_never_saturate() {
        let uint = |s: &str| parse(s).unwrap().as_uint::<u64>();
        assert_eq!(uint("9007199254740993").unwrap(), (1 << 53) + 1);
        assert_eq!(uint("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(uint("4096.0").unwrap(), 4096);
        assert_eq!(uint("4.096e3").unwrap(), 4096);
        assert_eq!(uint("-0").unwrap(), 0);
        assert!(uint("18446744073709551616").is_err(), "2^64 does not fit");
        assert!(uint("1e30").is_err(), "1e30 must not saturate");
        assert!(uint("1.8446744073709552e19").is_err(), "2^64 as a float");
        assert!(uint("1e400").is_err(), "infinity");
        let u32_of = |s: &str| parse(s).unwrap().as_uint::<u32>();
        assert_eq!(u32_of("4294967295").unwrap(), u32::MAX);
        assert!(u32_of("4294967296").is_err(), "must not truncate");
        assert!(parse("4294967296").unwrap().is_uint());
        assert!(!parse("4096.5").unwrap().is_uint());
    }

    fn object(fields: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
        let mut out = String::new();
        write_object(&mut out, fields);
        out
    }

    #[test]
    fn integers_render_as_plain_digits_at_every_magnitude() {
        let line = object(|o| {
            o.uint("a", 0u64).uint("b", 9_000_000_000_000_000u64).uint("c", u64::MAX);
            o.uint("d", (1u64 << 53) + 1).opt_uint("e", None).opt_uint("f", Some(7));
        });
        assert_eq!(
            line,
            r#"{"a":0,"b":9000000000000000,"c":18446744073709551615,"d":9007199254740993,"e":null,"f":7}"#
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.field("c").unwrap().as_uint::<u64>().unwrap(), u64::MAX);
        assert_eq!(v.field("d").unwrap().as_uint::<u64>().unwrap(), (1 << 53) + 1);
    }

    #[test]
    fn f64_fields_keep_the_9e15_rule() {
        let line = object(|o| {
            o.f64("a", 8_999_999_999_999_999.0).f64("b", 9.0e15).f64("c", -3.0).f64("d", -0.0);
            o.f64("e", 0.1).f64("f", f64::NAN);
        });
        assert_eq!(
            line,
            r#"{"a":8999999999999999,"b":9000000000000000.0,"c":-3,"d":0,"e":0.1,"f":NaN}"#
        );
    }

    /// Renders a reference tree through the writer, so the two
    /// renderers can be compared on the same value.
    fn write_tree(out: &mut String, v: &tree::JsonValue) {
        fn item(a: &mut ArrayWriter<'_>, v: &tree::JsonValue) {
            match v {
                tree::JsonValue::Null => a.item().push_str("null"),
                tree::JsonValue::Num(n) => {
                    a.f64(*n);
                }
                tree::JsonValue::Str(s) => {
                    a.str(s);
                }
                other => write_tree(a.item(), other),
            }
        }
        match v {
            tree::JsonValue::Array(items) => {
                write_array(out, |a| items.iter().for_each(|v| item(a, v)))
            }
            tree::JsonValue::Object(fields) => write_object(out, |o| {
                for (k, v) in fields {
                    let out = o.key(k);
                    match v {
                        tree::JsonValue::Null => out.push_str("null"),
                        tree::JsonValue::Num(n) => write_f64(out, *n),
                        tree::JsonValue::Str(s) => write_str(out, s),
                        other => write_tree(out, other),
                    }
                }
            }),
            other => write_array(out, |a| item(a, other)),
        }
    }

    /// Converts a parsed value to the reference tree's shape.
    fn to_tree(v: &JsonValue) -> tree::JsonValue {
        match v {
            JsonValue::Null => tree::JsonValue::Null,
            JsonValue::Int(n) => tree::JsonValue::Num(*n as f64),
            JsonValue::Num(n) => tree::JsonValue::Num(*n),
            JsonValue::Str(s) => tree::JsonValue::Str(s.to_string()),
            JsonValue::Array(items) => tree::JsonValue::Array(items.iter().map(to_tree).collect()),
            JsonValue::Object(fields) => tree::JsonValue::Object(
                fields.iter().map(|(k, v)| (k.to_string(), to_tree(v))).collect(),
            ),
        }
    }

    /// Texts that probe every rule of the grammar: whitespace, escapes,
    /// literals, number forms, nesting and trailing data.
    const PROBES: &[&str] = &[
        "",
        " ",
        "{}",
        "[]",
        " { } ",
        "\t{\n}\r\x0c",
        "\x0b{}",
        "null",
        "nul",
        "nulll",
        "[null]",
        "0",
        "007",
        "-0",
        "-",
        "+1",
        "1.",
        ".5",
        "-.5",
        "1e",
        "1e5",
        "1E+5",
        "1e-5",
        "1-2",
        "--1",
        "4096.0",
        "4.096e3",
        "1e400",
        "-1e400",
        "18446744073709551615",
        "18446744073709551616",
        "9007199254740993",
        "99999999999999999999999",
        "0x10",
        "NaN",
        "inf",
        "-inf",
        "true",
        r#""""#,
        r#""a"#,
        r#""\"#,
        r#""\""#,
        r#""\/\b""#,
        r#""A""#,
        r#""é€""#,
        r#""\u+041""#,
        r#""\ud800""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\uéé""#,
        r#""\x""#,
        "\"raw\ttab\u{1}\"",
        "\"é€😀\"",
        r#"{"a":1,"a":2}"#,
        r#"{"a" : [1 , {"b":null}] }"#,
        r#"{"a":1,}"#,
        r#"{"a"1}"#,
        r#"{a:1}"#,
        r#"{"a":1"#,
        r#"[1,2"#,
        r#"[1 2]"#,
        "{} {}",
        "[]x",
        r#"{"k\"ey":"v\\al","ké":[[],{}]}"#,
    ];

    #[test]
    fn the_reader_accepts_exactly_what_the_tree_parser_accepts() {
        for &text in PROBES {
            let (new, old) = (parse(text), tree::parse(text));
            match (&new, &old) {
                (Ok(v), Ok(t)) => assert_eq!(&to_tree(v), t, "{text:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!("{text:?}: reader {new:?}, tree parser {old:?}"),
            }
        }
    }

    #[test]
    fn the_writer_renders_what_the_tree_renderer_renders() {
        for &text in PROBES {
            if let Ok(t) = tree::parse(text) {
                let mut out = String::new();
                write_tree(&mut out, &t);
                let want = match t {
                    tree::JsonValue::Array(_) | tree::JsonValue::Object(_) => t.render(),
                    other => tree::JsonValue::Array(vec![other]).render(),
                };
                assert_eq!(out, want, "{text:?}");
            }
        }
        let s = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}\u{7f} é€😀";
        let t = tree::JsonValue::Object(vec![
            (s.into(), tree::JsonValue::str(s)),
            (
                "n".into(),
                tree::JsonValue::Array(vec![
                    tree::JsonValue::num(9e15),
                    tree::JsonValue::num(-2.5),
                ]),
            ),
        ]);
        let mut out = String::new();
        write_tree(&mut out, &t);
        assert_eq!(out, t.render());
    }
}

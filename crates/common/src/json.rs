//! A small, dependency-free JSON layer.
//!
//! The workspace must build in hermetic environments with no access to
//! crates.io, so instead of `serde_json` this module provides the pieces the
//! repo actually needs: an ordered [`Json`] value, a [`json!`] construction
//! macro, a strict parser, compact/pretty printers, and a [`ToJson`]
//! conversion trait for report-writing helpers (bench artifacts, the
//! `cv-analyze` diagnostics report, annotation files).
//!
//! Object key order is preserved (insertion order), which keeps every
//! serialized artifact deterministic — the same property the annotation
//! replay path (paper §4 debugging) relies on.

use crate::error::{CvError, Result};
use std::fmt::{self, Write};

/// An ordered JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(JsonMap),
}

/// An insertion-ordered string → [`Json`] map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonMap {
    entries: Vec<(String, Json)>,
}

impl JsonMap {
    pub fn new() -> JsonMap {
        JsonMap::default()
    }

    /// Insert or replace a key, preserving first-insertion order.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        let key = key.into();
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl Json {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&JsonMap> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object field access; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Compact single-line rendering (the `Display` form).
    pub fn to_string_compact(&self) -> String {
        self.to_string()
    }

    /// Pretty rendering with two-space indentation (the alternate `{:#}`
    /// `Display` form).
    pub fn to_string_pretty(&self) -> String {
        format!("{self:#}")
    }

    fn write(&self, out: &mut impl Write, indent: Option<usize>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(map) => {
                write_seq(out, indent, depth, '{', '}', map.entries.len(), |out, i| {
                    let (k, v) = &map.entries[i];
                    write_escaped(out, k)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    v.write(out, indent, depth + 1)
                })
            }
        }
    }

    /// Parse a JSON document. The whole input must be one value (trailing
    /// non-whitespace is an error).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn write_number(out: &mut impl Write, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional substitute.
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

fn write_escaped(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

fn write_seq<W: Write>(
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if len == 0 {
        return out.write_char(close);
    }
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(w) = indent {
            write!(out, "\n{:1$}", "", w * (depth + 1))?;
        }
        item(out, i)?;
    }
    if let Some(w) = indent {
        write!(out, "\n{:1$}", "", w * depth)?;
    }
    out.write_char(close)
}

/// Walks `text` by byte. Every delimiter it stops at is ASCII, so each
/// position it slices `text` at is a char boundary.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CvError {
        CvError::parse(format!("json: {msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = JsonMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next `"` or `\` as one slice.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(self.slice(self.pos, self.pos + run)?);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // the backslash
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("truncated or non-ascii \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                    // Surrogate pairs are out of scope for the data this repo
                    // writes; reject rather than mangle.
                    let c = char::from_u32(code).ok_or_else(|| self.err("surrogate \\u escape"))?;
                    out.push(c);
                    self.pos += 4;
                }
                _ => return Err(self.err("invalid escape")),
            }
            self.pos += 1;
        }
    }

    /// `text[from..to]`; both ends sit on ASCII delimiters.
    fn slice(&self, from: usize, to: usize) -> Result<&'a str> {
        self.text.get(from..to).ok_or_else(|| self.err("slice off a char boundary"))
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = self.slice(start, self.pos)?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }
}

impl fmt::Display for Json {
    /// Compact, or pretty with two-space indentation under `{:#}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(2), 0)
    }
}

/// Conversion into [`Json`], for report writers that accept arbitrary
/// serializable values (the replacement for `impl serde::Serialize` bounds).
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for JsonMap {
    fn to_json(&self) -> Json {
        Json::Obj(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

from_num!(f64, f32, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<JsonMap> for Json {
    fn from(v: JsonMap) -> Json {
        Json::Obj(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(x) => x.into(),
            None => Json::Null,
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// Build a [`Json`] value with literal syntax:
///
/// ```
/// use cv_common::json::json;
/// let v = json!({
///     "name": "cv", "ok": true,
///     "counts": [1, 2, 3],
///     "nested": json!({ "pi": 3.14 }),
/// });
/// assert_eq!(v.get("name").and_then(|j| j.as_str()), Some("cv"));
/// ```
///
/// Keys must be string literals; values are expressions implementing
/// `Into<Json>`. Nested objects are written as nested `json!({..})` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Json::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::json::Json::Arr(vec![ $( $crate::json::Json::from($item) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::json::JsonMap::new();
        $( map.insert($key, $crate::json::Json::from($value)); )*
        $crate::json::Json::Obj(map)
    }};
    ($other:expr) => { $crate::json::Json::from($other) };
}

pub use crate::json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let v = json!({
            "name": "cloudviews",
            "enabled": true,
            "nested": json!({ "rows": 12, "ratio": 0.5 }),
            "tags": json!(["a", "b"]),
            "nothing": Json::Null,
        });
        assert_eq!(v.get("name").and_then(Json::as_str), Some("cloudviews"));
        assert_eq!(v.get("enabled").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("nested").and_then(|n| n.get("rows")).and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("tags").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("nothing"), Some(&Json::Null));
    }

    #[test]
    fn roundtrip_through_parser() {
        let v = json!({
            "a": json!([1.0, 2.5, -3.0]),
            "s": "line\nbreak \"quoted\"",
            "b": false,
            "o": json!({ "k": Json::Null }),
        });
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn pretty_format_is_stable_and_ordered() {
        let mut m = JsonMap::new();
        m.insert("z", 1);
        m.insert("a", 2);
        m.insert("z", 3); // replace keeps position
        let v = Json::Obj(m);
        assert_eq!(v.to_string_compact(), r#"{"z":3,"a":2}"#);
        assert_eq!(v.to_string_pretty(), "{\n  \"z\": 3,\n  \"a\": 2\n}");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
        assert_eq!(Json::from(-7i64).to_string_compact(), "-7");
        assert_eq!(Json::from(2.5f64).to_string_compact(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{not json").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = Json::parse(r#""tab\t quote\" uA ünïcode""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" uA ünïcode"));
        // Long multi-byte runs, and escapes between multi-byte runs, round
        // trip (a plain run is copied as one slice, so this is linear).
        let long = "é".repeat(100_000);
        let mixed = "ü\"é\\ñ\n日本\t€\u{1}ß".repeat(1_000);
        for s in [long, mixed] {
            let text = Json::Str(s.clone()).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = json!({ "n": 1.5 });
        assert_eq!(v.get("n").and_then(Json::as_u64), None);
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}

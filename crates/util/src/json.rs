//! Minimal JSON value type, parser, and encoders (std-only
//! `serde`/`serde_json` replacement).
//!
//! [`Json`] covers the full JSON data model (objects, arrays, strings,
//! numbers, booleans, null). Objects preserve insertion order so
//! encoding is deterministic — a requirement for the golden-file
//! determinism tests. Conversion goes through two derive-free traits:
//!
//! ```
//! use capsys_util::json::{FromJson, Json, JsonError, ToJson};
//!
//! let v = Json::parse(r#"{"rate": 1500.0, "tags": ["a", "b"]}"#).unwrap();
//! let rate = f64::from_json(v.get("rate").unwrap()).unwrap();
//! assert_eq!(rate, 1500.0);
//! assert_eq!(v.to_string(), r#"{"rate":1500,"tags":["a","b"]}"#);
//! ```

use std::collections::HashMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (deterministic encoding).
    Obj(Vec<(String, Json)>),
}

/// Error raised by JSON parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input where the parser failed, if parsing.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A conversion (non-parse) error.
    pub fn msg(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> JsonError {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "{} at byte {off}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document. Rejects trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters after value", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on objects; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// True if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact encoding (no whitespace). Also available via `Display`.
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty encoding with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    write_string(out, &members[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    members[i].1.write(out, indent, d);
                })
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Writes a finite `f64` in the shortest round-trip form, with whole
/// numbers rendered as integers (`1` not `1.0`). Non-finite values
/// (which JSON cannot represent) encode as `null`.
fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", n as i64).expect("write to String");
    } else {
        write!(out, "{n}").expect("write to String");
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::at(
                format!("unexpected character `{}`", b as char),
                self.pos,
            )),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", start)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(JsonError::at("invalid low surrogate", start));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(JsonError::at("lone surrogate", start));
                                }
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::at("invalid codepoint", start))?,
                            );
                        }
                        other => {
                            return Err(JsonError::at(
                                format!("invalid escape `\\{}`", other as char),
                                start,
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy a run of plain UTF-8 bytes.
                    let mut end = self.pos;
                    while end < self.bytes.len()
                        && self.bytes[end] != b'"'
                        && self.bytes[end] != b'\\'
                    {
                        if self.bytes[end] < 0x20 {
                            return Err(JsonError::at("control character in string", end));
                        }
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| JsonError::at("invalid UTF-8", self.pos))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::at("truncated \\u escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(JsonError::at("expected digits", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(JsonError::at("expected fraction digits", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(JsonError::at("expected exponent digits", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::at("number out of range", start))
    }
}

/// Types that can encode themselves as a [`Json`] value.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;
}

/// Types that can decode themselves from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes from `value`, or explains why it cannot.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Json, JsonError> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<bool, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::msg("expected a boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<String, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg("expected a string"))
    }
}

macro_rules! num_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<$t, JsonError> {
                let n = value
                    .as_f64()
                    .ok_or_else(|| JsonError::msg("expected a number"))?;
                let cast = n as $t;
                if (cast as f64 - n).abs() > 1e-9 {
                    return Err(JsonError::msg(format!(
                        "number {n} does not fit in {}",
                        stringify!($t)
                    )));
                }
                Ok(cast)
            }
        }
    )*};
}

num_json!(f64, f32, usize, u64, u32, i64, i32);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Option<T>, JsonError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Vec<T>, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::msg("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Json) -> Result<[T; N], JsonError> {
        let v = Vec::<T>::from_json(value)?;
        let len = v.len();
        v.try_into()
            .map_err(|_| JsonError::msg(format!("expected {N} elements, got {len}")))
    }
}

impl<T: ToJson> ToJson for HashMap<String, T> {
    fn to_json(&self) -> Json {
        // Sort keys so map encoding is deterministic.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json()))
                .collect(),
        )
    }
}

impl<T: FromJson> FromJson for HashMap<String, T> {
    fn from_json(value: &Json) -> Result<HashMap<String, T>, JsonError> {
        value
            .as_object()
            .ok_or_else(|| JsonError::msg("expected an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
            .collect()
    }
}

/// Builds a `Json::Obj` from `(key, value)` pairs; small helper for
/// hand-written [`ToJson`] impls.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Fetches a required object member and decodes it.
pub fn req<T: FromJson>(value: &Json, key: &str) -> Result<T, JsonError> {
    let member = value
        .get(key)
        .ok_or_else(|| JsonError::msg(format!("missing required field `{key}`")))?;
    T::from_json(member).map_err(|e| JsonError::msg(format!("field `{key}`: {}", e.message)))
}

/// Fetches an optional object member, with a default when absent or null.
pub fn opt<T: FromJson>(value: &Json, key: &str, default: T) -> Result<T, JsonError> {
    match value.get(key) {
        None => Ok(default),
        Some(Json::Null) => Ok(default),
        Some(v) => {
            T::from_json(v).map_err(|e| JsonError::msg(format!("field `{key}`: {}", e.message)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_kinds() {
        let v = Json::parse(
            r#"{"a": [1, -2.5, 1e3], "b": "x\ny\u0041", "c": true, "d": null, "e": {}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\nyA"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("d").unwrap().is_null());
        assert_eq!(v.get("e").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "01e",
            "tru",
            "{\"a\":1,}",
            "[1] x",
            "{\"a\" 1}",
            "\"\\q\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn round_trips_compact_encoding() {
        let text = r#"{"name":"q1","rate":1234.5,"ids":[1,2,3],"ok":true,"none":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        // Parse(encode(v)) is identity.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn pretty_encoding_is_parseable_and_indented() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":"d"}}"#).unwrap();
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1,"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn numbers_encode_like_serde_json() {
        let cases = [
            (1.0, "1"),
            (-3.0, "-3"),
            (2.5, "2.5"),
            (1e-5, "0.00001"),
            (0.0, "0"),
        ];
        for (n, want) in cases {
            assert_eq!(Json::Num(n).to_string(), want);
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ \u{1F600} \u{0007}";
        let encoded = Json::Str(original.to_string()).to_string();
        assert_eq!(Json::parse(&encoded).unwrap().as_str().unwrap(), original);
        // Surrogate-pair escapes decode too.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str().unwrap(),
            "\u{1F600}"
        );
    }

    #[test]
    fn trait_conversions_work() {
        let v: Vec<f64> = vec![1.0, 2.0];
        assert_eq!(v.to_json().to_string(), "[1,2]");
        let back = Vec::<f64>::from_json(&Json::parse("[1,2]").unwrap()).unwrap();
        assert_eq!(back, v);
        let arr = <[f64; 3]>::from_json(&Json::parse("[1,2,3]").unwrap()).unwrap();
        assert_eq!(arr, [1.0, 2.0, 3.0]);
        assert!(<[f64; 3]>::from_json(&Json::parse("[1,2]").unwrap()).is_err());
        assert_eq!(Option::<f64>::from_json(&Json::Null).unwrap(), None);
        assert!(usize::from_json(&Json::Num(1.5)).is_err());
        assert_eq!(u64::from_json(&Json::Num(7.0)).unwrap(), 7);
    }

    #[test]
    fn helpers_report_field_context() {
        let v = Json::parse(r#"{"workers": "four"}"#).unwrap();
        let err = req::<usize>(&v, "workers").unwrap_err();
        assert!(err.message.contains("workers"));
        let err = req::<usize>(&v, "slots").unwrap_err();
        assert!(err.message.contains("slots"));
        assert_eq!(opt(&v, "slots", 4usize).unwrap(), 4);
    }

    #[test]
    fn hashmap_encoding_is_sorted() {
        let mut m = HashMap::new();
        m.insert("zeta".to_string(), 1.0);
        m.insert("alpha".to_string(), 2.0);
        assert_eq!(m.to_json().to_string(), r#"{"alpha":2,"zeta":1}"#);
    }
}

//! # preexec-json
//!
//! A tiny, dependency-free JSON layer: a [`Json`] value type, a
//! deterministic writer, a strict parser, and the [`ToJson`] trait the
//! experiment structs implement (via [`impl_json_object!`]) so `repro
//! --json` output is machine-readable and byte-stable across runs.
//!
//! Determinism notes:
//! - object keys keep insertion order (no re-sorting, no hash maps);
//! - `f64` values are written with Rust's shortest round-trip formatting,
//!   which is bit-deterministic for a given value;
//! - non-finite floats serialize as `null`, matching serde_json.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dto;

use std::fmt;

/// A JSON value. Numbers keep their original flavour (`u64`, `i64`, or
/// `f64`) so integer counters round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects) and
    /// returns `self` for chaining.
    pub fn with(mut self, key: &str, value: impl ToJson) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.to_json())),
            other => panic!("Json::with on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact serde_json-style rendering: `{"k":v,"k2":v2}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest round-trip form; force a fractional part so
                    // floats never masquerade as integers on re-parse.
                    let s = format!("{v}");
                    if s.contains(['.', 'e', 'E']) {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! to_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::U64(*self as u64) }
        }
    )*};
}
macro_rules! to_json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::I64(*self as i64) }
        }
    )*};
}
to_json_unsigned!(u8, u16, u32, u64, usize);
to_json_signed!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(*self as f64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// Strict decoding from a [`Json`] value: the inverse of [`ToJson`] for
/// the value types a wire field can hold. Structs get it from the
/// `decode` form of [`impl_json_object!`].
pub trait FromJson: Sized {
    /// How an error message names the expected value (`"a string"`).
    const EXPECTED: &'static str;
    /// How an error message names an array of these values.
    const ARRAY_OF: &'static str = "an array";

    /// Decodes `j`. `Err(None)` means `j` is not [`Self::EXPECTED`] and
    /// leaves naming the field to the caller; `Err(Some(e))` is a nested
    /// object's own error.
    fn decode(j: &Json) -> Result<Self, Option<String>>;

    /// The value an absent field takes, when the field may be absent.
    fn absent() -> Option<Self> {
        None
    }
}

macro_rules! from_json_scalar {
    ($($t:ty => $accessor:ident, $expected:literal, $array_of:literal;)*) => {$(
        impl FromJson for $t {
            const EXPECTED: &'static str = $expected;
            const ARRAY_OF: &'static str = $array_of;
            fn decode(j: &Json) -> Result<Self, Option<String>> {
                j.$accessor().map(Into::into).ok_or(None)
            }
        }
    )*};
}
from_json_scalar! {
    u64 => as_u64, "an unsigned integer", "an array of unsigned integers";
    f64 => as_f64, "a number", "an array of numbers";
    bool => as_bool, "a boolean", "an array of booleans";
    String => as_str, "a string", "an array of strings";
}

impl FromJson for u32 {
    const EXPECTED: &'static str = "a 32-bit unsigned integer";
    const ARRAY_OF: &'static str = "an array of 32-bit unsigned integers";
    fn decode(j: &Json) -> Result<Self, Option<String>> {
        j.as_u64().and_then(|v| u32::try_from(v).ok()).ok_or(None)
    }
}

/// The two-element array [`ToJson`] writes for a pair.
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    const EXPECTED: &'static str = "a pair";
    const ARRAY_OF: &'static str = "an array of pairs";
    fn decode(j: &Json) -> Result<Self, Option<String>> {
        match j.as_array() {
            Some([a, b]) => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err(None),
        }
    }
}

impl FromJson for Json {
    const EXPECTED: &'static str = "a JSON value";
    fn decode(j: &Json) -> Result<Self, Option<String>> {
        Ok(j.clone())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    const EXPECTED: &'static str = T::ARRAY_OF;
    fn decode(j: &Json) -> Result<Self, Option<String>> {
        j.as_array().ok_or(None)?.iter().map(T::decode).collect()
    }
}

/// Absent and `null` both decode to `None`.
impl<T: FromJson> FromJson for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;
    fn decode(j: &Json) -> Result<Self, Option<String>> {
        match j {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// The fields of `j` when it is an object whose keys are all in
/// `allowed` and none repeats; otherwise an error naming `what` and the
/// offending field. Used by the `decode` form of [`impl_json_object!`].
pub fn decode_object<'a>(
    j: &'a Json,
    what: &str,
    allowed: &[&str],
) -> Result<&'a [(String, Json)], String> {
    let Json::Object(fields) = j else {
        return Err(format!("{what}: expected a JSON object"));
    };
    for (i, (k, _)) in fields.iter().enumerate() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{what}: unknown field {k:?}"));
        }
        if fields[..i].iter().any(|(seen, _)| seen == k) {
            return Err(format!("{what}: repeated field {k:?}"));
        }
    }
    Ok(fields)
}

/// Decodes field `key` of an object checked by [`decode_object`]. An
/// absent field takes `default`, else [`FromJson::absent`], else is a
/// "missing required field" error.
pub fn decode_field<T: FromJson>(
    fields: &[(String, Json)],
    what: &str,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    let value = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match (value, default) {
        (None | Some(Json::Null), Some(d)) => Ok(d),
        (Some(v), _) => T::decode(v).map_err(|e| {
            e.unwrap_or_else(|| format!("{what}: field {key:?} must be {}", T::EXPECTED))
        }),
        (None, None) => {
            T::absent().ok_or_else(|| format!("{what}: missing required field {key:?}"))
        }
    }
}

/// Implements [`ToJson`] for a struct with named fields: each listed field
/// becomes an object entry in declaration order.
///
/// ```
/// use preexec_json::{impl_json_object, ToJson};
/// struct P { x: f64, n: u64 }
/// impl_json_object!(P { x, n });
/// let j = P { x: 1.5, n: 3 }.to_json();
/// assert_eq!(j.to_string(), r#"{"x":1.5,"n":3}"#);
/// ```
///
/// The `decode` form also generates the strict inverse from the same
/// field list: an inherent `from_json(&Json) -> Result<Self, String>` and
/// a [`FromJson`] impl, so the type can nest in other decoded types. An
/// unknown, repeated, mistyped or missing field is an error naming the
/// type and the field; an `Option` field may be absent or `null`. After
/// the list come, each optional and in this order:
///
/// - `field = expr` in the list: the value when the field is absent or
///   `null` (the written form always carries the field);
/// - `check = f`: a `fn(&Self) -> Result<(), String>` for the rules
///   that span fields or values, run after decoding;
/// - `local = field`: one field that is not on the wire, decoded as its
///   `Default`.
///
/// ```
/// use preexec_json::{impl_json_object, parse, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct Q { name: String, unit: String, n: Option<u64> }
/// fn check(q: &Q) -> Result<(), String> {
///     if q.name.is_empty() { Err("Q: empty name".into()) } else { Ok(()) }
/// }
/// impl_json_object!(Q { name, unit = "ms", n } decode, check = check);
/// let q = Q::from_json(&parse(r#"{"name":"p"}"#).unwrap()).unwrap();
/// assert_eq!(q.to_json().to_string(), r#"{"name":"p","unit":"ms","n":null}"#);
/// assert!(Q::from_json(&parse(r#"{"name":"p","x":1}"#).unwrap()).is_err());
/// assert!(Q::from_json(&parse(r#"{"name":""}"#).unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! impl_json_object {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
    };
    ($ty:ty { $($field:ident $(= $default:expr)?),* $(,)? } decode
        $(, check = $check:expr)? $(, local = $local:ident)? $(,)?) => {
        $crate::impl_json_object!($ty { $($field),* });

        impl $ty {
            /// Strictly decodes the JSON form written by `to_json`.
            pub fn from_json(j: &$crate::Json) -> Result<Self, String> {
                const WHAT: &str = stringify!($ty);
                let fields = $crate::decode_object(j, WHAT, &[$(stringify!($field)),*])?;
                let value = Self {
                    $($field: $crate::decode_field(
                        fields,
                        WHAT,
                        stringify!($field),
                        None$(.or(Some($default.into())))?,
                    )?,)*
                    $($local: Default::default(),)?
                };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }

        impl $crate::FromJson for $ty {
            const EXPECTED: &'static str = "an object";
            fn decode(j: &$crate::Json) -> Result<Self, Option<String>> {
                Self::from_json(j).map_err(Some)
            }
        }
    };
}

/// Builds a [`Json::Object`] literal: `jobj! { "k" => v, ... }`.
#[macro_export]
macro_rules! jobj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Json::Object(vec![
            $(($key.to_string(), $crate::ToJson::to_json(&$value)),)*
        ])
    };
}

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so the bound keeps hostile input (a
/// served request body, say) from overflowing a thread's stack; every
/// document this project writes nests under 10 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Returns an error message with byte offset on
/// malformed input; trailing whitespace is allowed, trailing garbage not,
/// and nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("eof in escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("eof in \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u")?,
                                16,
                            )
                            .map_err(|_| "bad \\u digits")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_objects_in_order() {
        let j = jobj! { "b" => 1u64, "a" => 2.5, "s" => "x\"y" };
        assert_eq!(j.to_string(), r#"{"b":1,"a":2.5,"s":"x\"y"}"#);
    }

    #[test]
    fn floats_always_carry_a_fraction() {
        assert_eq!(Json::F64(2.0).to_string(), "2.0");
        assert_eq!(Json::F64(0.1).to_string(), "0.1");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parse_round_trips() {
        let src = r#"{"a":[1,-2,3.5,true,false,null],"b":{"c":"hi\nthere"}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn impl_macro_and_accessors() {
        struct P {
            x: f64,
            n: u64,
            name: String,
        }
        impl_json_object!(P { x, n, name });
        let j = P {
            x: 1.5,
            n: 3,
            name: "p".into(),
        }
        .to_json();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("name").unwrap().as_str(), Some("p"));
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        let big = u64::MAX - 1;
        let j = parse(&Json::U64(big).to_string()).unwrap();
        assert_eq!(j.as_u64(), Some(big));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far deeper than any stack allows without the bound.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn pairs_and_u32_decode_strictly() {
        let pairs = parse("[[0.0,-0.0],[1.5,2]]").unwrap();
        let back = Vec::<(f64, f64)>::decode(&pairs).unwrap();
        assert_eq!(back, vec![(0.0, -0.0), (1.5, 2.0)]);
        assert!(back[0].1.is_sign_negative(), "-0.0 keeps its sign");
        assert_eq!(Json::F64(-0.0).to_string(), "-0.0");
        assert!(<(f64, f64)>::decode(&parse("[1.0]").unwrap()).is_err());
        assert!(<(f64, f64)>::decode(&parse("[1.0,2.0,3.0]").unwrap()).is_err());
        assert_eq!(u32::decode(&Json::U64(7)), Ok(7));
        assert!(u32::decode(&Json::U64(1 << 32)).is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse("\"a\\u0041b\"").unwrap();
        assert_eq!(v.as_str(), Some("aAb"));
    }
}

//! The canonical JSON codec: one compact writer, one pretty writer and one
//! parser over [`Value`], plus the [`ToValue`]/[`FromValue`] traits every
//! persisted type implements by hand.
//!
//! Everything Digibox writes as JSON — content-addressed setups and
//! packages, checkpoints, trace records, session journals, fault plans,
//! MQTT payloads, and the chaos scorecard, sweep card, lint and audit
//! reports — goes through this module, so equal values always produce
//! equal bytes. The one exception is `digibox_obs`'s stats snapshot: obs
//! sits below this crate and keeps a copy of the string escaper, which
//! `tests/obs_determinism.rs` pins to this writer. The layout:
//!
//! * objects are [`Value::Map`]s, so keys come out sorted;
//! * integers print as decimal, floats as the shortest digits that
//!   round-trip, laid out as `1.0`, `0.00001`, `1e16`, `1e-7`; non-finite
//!   floats print as `null`;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` and every other control
//!   character as `\u00XX` — nothing else.
//!
//! The parser accepts RFC 8259 JSON. An integer literal that fits `i64`
//! becomes [`Value::Int`]; any other number becomes [`Value::Float`], so
//! the int/float split survives a round-trip. `u64` has no variant of its
//! own: [`ToValue`] stores it as the `i64` with the same bits, which makes
//! every `u64` up to `u64::MAX` round-trip exactly (values above
//! `i64::MAX` print as negative numbers).

use std::collections::BTreeMap;
use std::fmt;

use crate::Value;

/// Nesting depth beyond which the parser gives up instead of recursing.
const MAX_DEPTH: usize = 128;

/// A parse error or a value of the wrong shape for the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }

    /// `expected <what>, found <type of v>`.
    pub fn expected(what: &str, v: &Value) -> JsonError {
        JsonError(format!("expected {what}, found {}", v.type_name()))
    }

    fn in_field(self, key: &str) -> JsonError {
        JsonError(format!("field `{key}`: {}", self.0))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// Conversion into the JSON document model.
pub trait ToValue {
    /// This value as a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Conversion out of the JSON document model.
pub trait FromValue: Sized {
    /// Read `v`, or explain why it has the wrong shape.
    fn from_value(v: &Value) -> Result<Self, JsonError>;
}

/// Canonical compact JSON for any [`ToValue`] type.
pub fn encode<T: ToValue + ?Sized>(t: &T) -> String {
    t.to_value().to_json()
}

/// Canonical pretty JSON (two-space indent) for any [`ToValue`] type.
pub fn encode_pretty<T: ToValue + ?Sized>(t: &T) -> String {
    t.to_value().to_json_pretty()
}

/// Parse JSON bytes and read them as `T`.
pub fn decode<T: FromValue>(bytes: impl AsRef<[u8]>) -> Result<T, JsonError> {
    T::from_value(&parse(bytes.as_ref())?)
}

// ---- building and reading objects --------------------------------------

/// A JSON object from `(key, value)` pairs, leaving out the `None` ones
/// (fields that are skipped when empty). Objects without such fields are
/// built with [`vmap!`](crate::vmap).
pub fn object_opt<const N: usize>(fields: [(&str, Option<Value>); N]) -> Value {
    Value::Map(fields.into_iter().filter_map(|(k, v)| Some((k.to_string(), v?))).collect())
}

/// Read the required field `key` of object `v`. A missing field reads as
/// `null`, so `Option` fields may be absent.
pub fn field<T: FromValue>(v: &Value, key: &str) -> Result<T, JsonError> {
    let map = v.as_map().ok_or_else(|| JsonError::expected("object", v))?;
    match map.get(key) {
        Some(x) => T::from_value(x).map_err(|e| e.in_field(key)),
        None => {
            T::from_value(&Value::Null).map_err(|_| JsonError(format!("missing field `{key}`")))
        }
    }
}

/// Read field `key` of object `v`, or `T::default()` when it is absent.
pub fn field_or_default<T: FromValue + Default>(v: &Value, key: &str) -> Result<T, JsonError> {
    match v.get(key) {
        Some(x) => T::from_value(x).map_err(|e| e.in_field(key)),
        None if v.as_map().is_some() => Ok(T::default()),
        None => Err(JsonError::expected("object", v)),
    }
}

/// The variant name and payload of an externally tagged enum value:
/// `"Name"` (payload `null`) or `{"Name": payload}`.
pub fn variant(v: &Value) -> Result<(&str, &Value), JsonError> {
    match v {
        Value::Str(name) => Ok((name, &Value::Null)),
        Value::Map(m) if m.len() == 1 => {
            let (name, payload) = m.iter().next().expect("one entry");
            Ok((name, payload))
        }
        other => Err(JsonError::expected("enum variant", other)),
    }
}

/// The error for an enum tag no variant matches.
pub fn unknown_variant(name: &str) -> JsonError {
    JsonError(format!("unknown variant `{name}`"))
}

// ---- primitive impls ----------------------------------------------------

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl FromValue for Value {
    fn from_value(v: &Value) -> Result<Value, JsonError> {
        Ok(v.clone())
    }
}

impl ToValue for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromValue for bool {
    fn from_value(v: &Value) -> Result<bool, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("bool", v))
    }
}

impl ToValue for i64 {
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}

impl FromValue for i64 {
    fn from_value(v: &Value) -> Result<i64, JsonError> {
        v.as_int().ok_or_else(|| JsonError::expected("integer", v))
    }
}

impl ToValue for u64 {
    fn to_value(&self) -> Value {
        Value::Int(*self as i64)
    }
}

impl FromValue for u64 {
    fn from_value(v: &Value) -> Result<u64, JsonError> {
        Ok(i64::from_value(v)? as u64)
    }
}

impl ToValue for usize {
    fn to_value(&self) -> Value {
        (*self as u64).to_value()
    }
}

macro_rules! small_uint {
    ($($t:ty),*) => {$(
        impl ToValue for $t {
            fn to_value(&self) -> Value {
                Value::Int(i64::from(*self))
            }
        }

        impl FromValue for $t {
            fn from_value(v: &Value) -> Result<$t, JsonError> {
                let i = i64::from_value(v)?;
                <$t>::try_from(i)
                    .map_err(|_| JsonError(format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

small_uint!(u8, u16, u32);

impl ToValue for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromValue for f64 {
    fn from_value(v: &Value) -> Result<f64, JsonError> {
        v.as_float().ok_or_else(|| JsonError::expected("number", v))
    }
}

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromValue for String {
    fn from_value(v: &Value) -> Result<String, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::expected("string", v))
    }
}

impl<T: ToValue> ToValue for [T] {
    fn to_value(&self) -> Value {
        Value::List(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, JsonError> {
        let items = v.as_list().ok_or_else(|| JsonError::expected("array", v))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<T: ToValue> ToValue for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToValue::to_value)
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: ToValue> ToValue for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: FromValue> FromValue for Box<T> {
    fn from_value(v: &Value) -> Result<Box<T>, JsonError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: ToValue> ToValue for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<T: FromValue> FromValue for BTreeMap<String, T> {
    fn from_value(v: &Value) -> Result<BTreeMap<String, T>, JsonError> {
        let map = v.as_map().ok_or_else(|| JsonError::expected("object", v))?;
        map.iter()
            .map(|(k, x)| Ok((k.clone(), T::from_value(x).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}

impl<A: ToValue, B: ToValue> ToValue for (A, B) {
    fn to_value(&self) -> Value {
        Value::List(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: FromValue, B: FromValue> FromValue for (A, B) {
    fn from_value(v: &Value) -> Result<(A, B), JsonError> {
        match v.as_list() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(JsonError::expected("array of 2", v)),
        }
    }
}

// ---- writer -------------------------------------------------------------

impl Value {
    /// Canonical compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None);
        out
    }

    /// Canonical JSON text with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(0));
        out
    }

    /// Parse one JSON document: surrounding whitespace is allowed,
    /// anything else after the value is an error, and malformed input
    /// never panics.
    pub fn from_json(bytes: impl AsRef<[u8]>) -> Result<Value, JsonError> {
        parse(bytes.as_ref())
    }
}

/// `indent` is `None` for compact output, else the current depth.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => write_f64(out, *x),
        Value::Str(s) => write_str(out, s),
        Value::List(items) => {
            write_seq(out, '[', ']', items.iter(), indent, |out, item, indent| {
                write_value(out, item, indent)
            });
        }
        Value::Map(map) => {
            write_seq(out, '{', '}', map.iter(), indent, |out, (k, item), indent| {
                write_str(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent);
            });
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    open: char,
    close: char,
    items: I,
    indent: Option<usize>,
    mut write_item: impl FnMut(&mut String, I::Item, Option<usize>),
) {
    out.push(open);
    let empty = items.len() == 0;
    let inner = indent.map(|d| d + 1);
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(out, item, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Append `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
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

/// Append `x` with the shortest digits that round-trip, laid out as
/// `d.0` / `dd.dd` / `0.000dd` for decimal exponents in `[-5, 16)` and as
/// `de±x` / `d.dde±x` outside it; non-finite values become `null`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    if x == 0.0 {
        out.push_str("0.0");
        return;
    }
    // `{:e}` yields the shortest round-trip digits as `d.ddde<exp>`.
    let sci = format!("{:e}", x.abs());
    let (mantissa, exp) = sci.split_once('e').expect("{:e} always has an exponent");
    let digits: String = mantissa.chars().filter(|c| *c != '.').collect();
    let n = digits.len() as i32;
    // The value is 0.<digits> × 10^point.
    let point = exp.parse::<i32>().expect("{:e} exponent is an integer") + 1;
    if n <= point && point <= 16 {
        out.push_str(&digits);
        out.extend(std::iter::repeat_n('0', (point - n) as usize));
        out.push_str(".0");
    } else if 0 < point && point <= 16 {
        out.push_str(&digits[..point as usize]);
        out.push('.');
        out.push_str(&digits[point as usize..]);
    } else if -5 < point && point <= 0 {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', -point as usize));
        out.push_str(&digits);
    } else {
        out.push_str(&digits[..1]);
        if n > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        out.push('e');
        out.push_str(&(point - 1).to_string());
    }
}

// ---- parser -------------------------------------------------------------

/// See [`Value::from_json`].
fn parse(bytes: &[u8]) -> Result<Value, JsonError> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> JsonError {
        JsonError(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error("expected value"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::List(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(map));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected object key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(map));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        // `-0` stays a float so its sign survives.
        if integral && text != "-0" {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(self.error("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex =
            self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| self.error("truncated escape"))?;
        let code = std::str::from_utf8(hex)
            .ok()
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                .map_err(|_| JsonError(format!("invalid UTF-8 at byte {run_start}")))?;
            out.push_str(run);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("truncated escape"))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.error("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.error("lone surrogate in \\u escape"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("lone surrogate in \\u escape")),
            c => c,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    fn float(x: f64) -> String {
        Value::Float(x).to_json()
    }

    #[test]
    fn float_layout_golden() {
        let table: &[(f64, &str)] = &[
            (1.0, "1.0"),
            (0.1, "0.1"),
            (0.00001, "0.00001"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1e21, "1e21"),
            (1e-7, "1e-7"),
            (5e-324, "5e-324"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (-2.5, "-2.5"),
            (123.456, "123.456"),
            (0.000123, "0.000123"),
            (1.5e300, "1.5e300"),
            (1.25e-7, "1.25e-7"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (x, want) in table {
            assert_eq!(float(*x), *want, "{x:e}");
            if x.is_finite() {
                let back = Value::from_json(want).unwrap();
                assert_eq!(back.as_float().unwrap().to_bits(), x.to_bits(), "{want}");
                assert!(matches!(back, Value::Float(_)), "{want} parsed as {back:?}");
            }
        }
    }

    #[test]
    fn int_float_split_survives() {
        assert_eq!(Value::from_json("3").unwrap(), Value::Int(3));
        assert_eq!(Value::from_json("3.0").unwrap(), Value::Float(3.0));
        assert_eq!(Value::from_json("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(
            Value::from_json("9223372036854775808").unwrap(),
            Value::Float(9223372036854775808.0)
        );
        assert_eq!(Value::from_json("1e2").unwrap(), Value::Float(100.0));
        assert!(matches!(Value::from_json("-0").unwrap(), Value::Float(z) if z.is_sign_negative()));
    }

    #[test]
    fn u64_max_roundtrips() {
        for x in [0u64, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let text = encode(&x);
            assert_eq!(decode::<u64>(&text).unwrap(), x, "{text}");
        }
        assert_eq!(encode(&u64::MAX), "-1");
        assert_eq!(encode(&(i64::MAX as u64)), "9223372036854775807");
    }

    #[test]
    fn string_escapes_golden() {
        let s = "q\"b\\s/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é☃";
        let json = Value::Str(s.into()).to_json();
        assert_eq!(json, "\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}é☃\"");
        assert_eq!(Value::from_json(&json).unwrap(), Value::Str(s.into()));
        assert_eq!(
            Value::from_json(r#""\b\f\/\u00e9\ud83d\ude00""#).unwrap(),
            Value::Str("\u{8}\u{c}/é😀".into())
        );
    }

    #[test]
    fn compact_and_pretty_layout() {
        let v = vmap! {
            "b" => vec![1i64, 2],
            "a" => Value::Null,
            "c" => Value::map(),
            "d" => Value::List(Vec::new()),
            "e" => vmap! { "x" => true },
        };
        assert_eq!(v.to_json(), r#"{"a":null,"b":[1,2],"c":{},"d":[],"e":{"x":true}}"#);
        assert_eq!(
            v.to_json_pretty(),
            "{\n  \"a\": null,\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": {},\n  \"d\": [],\n  \"e\": {\n    \"x\": true\n  }\n}"
        );
        assert_eq!(Value::from_json(v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_errors() {
        for bad in [
            "",
            " ",
            "nul",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "01",
            "1.",
            "-",
            "1e",
            "\"abc",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00x\"",
            "[1] 2",
            "\"a\u{1}\"",
            "1e400",
            "[",
            "{",
            "tru",
            "\"\\u12\"",
        ] {
            assert!(Value::from_json(bad).is_err(), "{bad:?} parsed");
        }
        assert!(Value::from_json(b"\"\xff\"").is_err());
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Value::from_json(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Value::from_json(&ok).is_ok());
    }

    #[test]
    fn field_helpers() {
        let v = vmap! { "n" => 3, "s" => Value::Null };
        assert_eq!(field::<u32>(&v, "n").unwrap(), 3);
        assert_eq!(
            object_opt([("a", None), ("b", Some(Value::Null))]),
            vmap! { "b" => Value::Null }
        );
        assert_eq!(field::<Option<u32>>(&v, "missing").unwrap(), None);
        assert_eq!(field::<Option<u32>>(&v, "s").unwrap(), None);
        assert_eq!(field_or_default::<u64>(&v, "missing").unwrap(), 0);
        assert_eq!(field::<u32>(&v, "missing").unwrap_err().to_string(), "missing field `missing`");
        assert_eq!(
            field::<String>(&v, "n").unwrap_err().to_string(),
            "field `n`: expected string, found int"
        );
        assert!(field::<u8>(&vmap! { "n" => 300 }, "n").is_err());
        assert_eq!(variant(&Value::Str("A".into())).unwrap(), ("A", &Value::Null));
        assert_eq!(variant(&vmap! { "B" => 1 }).unwrap(), ("B", &Value::Int(1)));
        assert!(variant(&vmap! { "B" => 1, "C" => 2 }).is_err());
        let pair: (String, u16) = decode(r#"["x",7]"#).unwrap();
        assert_eq!(pair, ("x".to_string(), 7));
    }
}

//! Hand-rolled JSON: escaping, a small value builder for report files,
//! a strict serde-free parser, and a validator used by tests to check
//! that every emitted JSONL line is well-formed.
//!
//! The builder intentionally keeps object keys in insertion order so
//! result files diff cleanly across runs, and [`parse`] round-trips
//! exactly what the builder writes — the experiment campaign runner
//! relies on this to read its JSONL checkpoint records back.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    // Fast path: nothing to escape (the overwhelmingly common case for
    // metric names and event keys) — one memcpy instead of a char loop.
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends a decimal integer without going through `core::fmt` (whose
/// per-call setup dominates hot event emission).
pub fn int_into(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut n = v.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    // ASCII digits and '-', one char each: measurably cheaper than a
    // UTF-8 check and a copy for a handful of bytes.
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Appends a finite `f64` (JSON has no NaN/Inf; those become `null`).
pub fn number_into(out: &mut String, v: f64) {
    // Fast path for exactly-representable integers (counters, logical
    // clocks, ids — most numbers that flow through events): integer
    // formatting instead of the shortest-round-trip float algorithm.
    // `{}` prints integral floats without a dot, so the bytes are
    // identical; `-0.0` is excluded (it prints as `-0`).
    if v != 0.0 && v.abs() < 9.223_372_036_854_776e18 && (v as i64) as f64 == v {
        int_into(out, v as i64);
    } else if v.is_finite() {
        // Shortest round-trip representation Rust offers.
        let _ = write!(out, "{v}");
        // `{}` prints integral floats without a dot; keep them valid JSON
        // numbers anyway (they are), nothing to fix.
    } else {
        out.push_str("null");
    }
}

/// Writes one compact JSON object member by member: the bytes
/// [`JsonValue::write_into`] renders for an object holding the same
/// members in the same order, without building that object. Serializers
/// of large state (a service snapshot) write through it in one pass.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Starts the member `key` and returns the buffer its value is
    /// written to (exactly one JSON value).
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        escape_into(self.out, key);
        self.out.push(':');
        self.out
    }

    /// An unsigned integer member, rendered as the tree renders it: as
    /// the `f64` a `JsonValue::from(v)` holds (below 2^53 that is the
    /// integer itself, written without the float checks).
    pub fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        let out = self.key(key);
        if v < 1 << 53 {
            int_into(out, v as i64);
        } else {
            number_into(out, v as f64);
        }
        self
    }

    /// One [`ObjectWriter::uint`] member per key, `keys[i]: values[i]`.
    pub fn uints(&mut self, keys: &[&str], values: &[u64]) -> &mut Self {
        debug_assert_eq!(keys.len(), values.len());
        for (key, &v) in keys.iter().zip(values) {
            self.uint(key, v);
        }
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        escape_into(self.key(key), v);
        self
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Writes `items` as a compact JSON array, each item through `item`
/// (which writes exactly one JSON value).
pub fn array_into<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, it);
    }
    out.push(']');
}

/// A JSON document under construction. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (non-finite serializes as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An insertion-ordered object.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// An empty array.
    pub fn array() -> JsonValue {
        JsonValue::Array(Vec::new())
    }

    /// Inserts `key: value` (objects only; replaces an existing key).
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut JsonValue {
        let JsonValue::Object(entries) = self else {
            panic!("set() on a non-object JsonValue");
        };
        let value = value.into();
        if let Some(entry) = entries.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        self
    }

    /// Builder-style [`JsonValue::set`].
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        self.set(key, value);
        self
    }

    /// Appends to an array.
    ///
    /// # Panics
    /// Panics when `self` is not an array.
    pub fn push(&mut self, value: impl Into<JsonValue>) -> &mut JsonValue {
        let JsonValue::Array(items) = self else {
            panic!("push() on a non-array JsonValue");
        };
        items.push(value.into());
        self
    }

    /// The value under `key` (objects only; `None` otherwise or when the
    /// key is absent).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => {
                entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects negatives,
    /// fractions, and anything beyond exact `f64` integer range).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v >= 0.0 && v <= 2f64.powi(53) && v.fract() == 0.0).then_some(v as u64)
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` entries in insertion order, when this is an
    /// object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Serializes compactly (single line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes compactly into `out` (the alloc-free form of
    /// [`JsonValue::to_json`] — hot event paths append in place).
    pub fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => number_into(out, *v),
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JsonValue::Object(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write_into(out),
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Num(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> JsonValue {
        match v {
            Some(v) => v.into(),
            None => JsonValue::Null,
        }
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> JsonValue {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts: far beyond
/// any document the workspace writes, and shallow enough that the
/// recursive descent cannot run a thread out of stack on a hostile body.
const MAX_DEPTH: usize = 128;

/// Parses `input` as exactly one well-formed JSON value (RFC 8259
/// grammar; numbers, strings with escapes, nesting up to 128 levels).
/// Errors carry the byte offset of the first problem.
///
/// Duplicate object keys keep the *last* value (matching
/// [`JsonValue::set`] semantics), and `\uXXXX` escapes decode surrogate
/// pairs; an unpaired surrogate becomes U+FFFD rather than an error, so
/// any line the validator accepts also parses.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Validates that `input` is exactly one well-formed JSON value.
/// Equivalent to [`parse`] with the value discarded.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, b"true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false").map(|_| JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null").map(|_| JsonValue::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut object = JsonValue::object();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(object);
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth)?;
        object.set(&key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(object);
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // consume '"'
    let mut out = String::new();
    let mut run_start = *pos; // unescaped byte run, copied in one go
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                out.push_str(str_run(bytes, run_start, *pos));
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(str_run(bytes, run_start, *pos));
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        // High surrogate: try to pair with a following
                        // \uXXXX low surrogate.
                        if (0xD800..0xDC00).contains(&hi)
                            && bytes.get(*pos + 1) == Some(&b'\\')
                            && bytes.get(*pos + 2) == Some(&b'u')
                        {
                            let mut lookahead = *pos + 2;
                            let lo = parse_hex4(bytes, &mut lookahead)?;
                            if (0xDC00..0xE000).contains(&lo) {
                                *pos = lookahead;
                                let cp =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(cp).unwrap_or(char::REPLACEMENT_CHARACTER),
                                );
                            } else {
                                out.push(char::REPLACEMENT_CHARACTER);
                            }
                        } else {
                            out.push(
                                char::from_u32(hi).unwrap_or(char::REPLACEMENT_CHARACTER),
                            );
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
                run_start = *pos;
            }
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// The validated-UTF-8 slice `bytes[from..to]` (input is a `&str`, and
/// runs only break at ASCII delimiters, so this cannot split a char).
fn str_run(bytes: &[u8], from: usize, to: usize) -> &str {
    std::str::from_utf8(&bytes[from..to]).expect("runs split only at ASCII bytes")
}

/// Parses the `XXXX` of a `\uXXXX` escape; `pos` points at the `u` on
/// entry and at the last hex digit on exit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if bytes.len() < *pos + 5 || !bytes[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {pos}"));
    }
    let hex = str_run(bytes, *pos + 1, *pos + 5);
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape at byte {pos}: {e}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("number without digits at byte {start}"));
    }
    // No leading zeros like 042.
    if int_digits > 1 && bytes[if bytes[start] == b'-' { start + 1 } else { start }] == b'0' {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("missing fraction digits at byte {pos}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("missing exponent digits at byte {pos}"));
        }
    }
    let text = str_run(bytes, start, *pos);
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("unrepresentable number at byte {start}: {e}"))
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn builder_serializes_ordered_objects() {
        let v = JsonValue::object()
            .with("b", 1u64)
            .with("a", "x")
            .with("list", vec![1u64, 2, 3])
            .with("none", JsonValue::Null)
            .with("flag", true);
        assert_eq!(
            v.to_json(),
            r#"{"b":1,"a":"x","list":[1,2,3],"none":null,"flag":true}"#
        );
        validate(&v.to_json()).unwrap();
        validate(&v.to_json_pretty()).unwrap();
    }

    #[test]
    fn nesting_is_bounded_not_recursed_without_end() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // A body of nothing but openers, far past any thread's stack.
        assert!(parse(&"{\"k\":[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut v = JsonValue::object().with("k", 1u64);
        v.set("k", 2u64);
        assert_eq!(v.to_json(), r#"{"k":2}"#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let v = JsonValue::array()
            .with_pushed(f64::NAN)
            .with_pushed(f64::INFINITY);
        assert_eq!(v.to_json(), "[null,null]");
        validate(&v.to_json()).unwrap();
    }

    #[test]
    fn object_writer_renders_what_the_tree_renders() {
        // Integers on both sides of 2^53, where `f64` stops being exact.
        let keys = ["a", "b", "c", "d", "e"];
        let ints = [0, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
        let mut tree = JsonValue::object();
        for (key, v) in keys.iter().zip(ints) {
            tree.set(key, v);
        }
        let tree = tree
            .with("s", "a\"b\n")
            .with("k\\ey", 7u32)
            .with("list", vec![1u64, 2]);
        let mut text = String::new();
        let mut o = ObjectWriter::open(&mut text);
        o.uints(&keys, &ints).str("s", "a\"b\n").uint("k\\ey", 7);
        array_into(o.key("list"), [1u64, 2], |out, v| number_into(out, v as f64));
        o.close();
        assert_eq!(text, tree.to_json());
        let mut empty = String::new();
        ObjectWriter::open(&mut empty).close();
        array_into(&mut empty, [(); 0], |_, ()| {});
        assert_eq!(empty, "{}[]");
    }

    impl JsonValue {
        fn with_pushed(mut self, v: impl Into<JsonValue>) -> JsonValue {
            self.push(v);
            self
        }
    }

    #[test]
    fn validator_accepts_valid_documents() {
        for ok in [
            "null",
            "true",
            "-12.5e+3",
            "0",
            "\"esc \\u00e9 \\n\"",
            "[]",
            "{}",
            "[1, [2, {\"k\": null}], \"s\"]",
            "{\"a\": {\"b\": [1.5, -2]}} ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let v = JsonValue::object()
            .with("b", 1u64)
            .with("a", "x\ny")
            .with("list", vec![1.5f64, -2.0, 3.0])
            .with("none", JsonValue::Null)
            .with("flag", true)
            .with("nested", JsonValue::object().with("k", 0.1f64));
        let parsed = parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
        // Pretty output parses to the same value too.
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
        // And re-serializing the parse is byte-identical (key order kept,
        // shortest-round-trip numbers).
        assert_eq!(parsed.to_json(), v.to_json());
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""a\"b\\c\né""#).unwrap(),
            JsonValue::Str("a\"b\\c\né".to_string())
        );
        // Surrogate pair -> one astral char.
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            JsonValue::Str("😀".to_string())
        );
        // Lone surrogate degrades to U+FFFD instead of erroring.
        assert_eq!(
            parse(r#""\ud83d!""#).unwrap(),
            JsonValue::Str("\u{FFFD}!".to_string())
        );
    }

    #[test]
    fn parse_keeps_last_duplicate_key() {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn accessors_narrow_types() {
        let v = parse(r#"{"n": 3, "f": 2.5, "s": "x", "b": false, "a": [1], "neg": -1}"#)
            .unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("f").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("neg").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(JsonValue::as_array).map(<[_]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_object().map(<[_]>::len), Some(6));
        assert!(JsonValue::Null.get("k").is_none());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 01}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\": 1,}",
            "[1] trailing",
            "\"bad \\x escape\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }
}

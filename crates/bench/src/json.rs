//! The workspace's one JSON module: value type, depth-capped parser,
//! writer and string escaper.
//!
//! The build is offline (no serde), and every machine-readable artifact
//! the workspace emits — run reports, the `BENCH_*.json` files, the
//! `sar-check` proof report — is read back by some gate. Both directions
//! live here so a report round-trips as a type instead of being
//! re-parsed by string key, and so every reader shares one nesting cap
//! and one escape set.

use std::fmt::{self, Write as _};

/// Maximum container nesting [`parse`] accepts. The parser recurses per
/// level, so hostile input (a file of 100k `[`) must end in `Err`, not a
/// stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers are `f64` — every counter the workspace writes
/// is far inside the exactly-representable integer range.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Non-finite values serialize as `null` (JSON has
    /// no NaN or infinity literals).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

/// Builds an object from `(key, value)` pairs, keeping their order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `v` rounded to `decimals` places — the fixed-precision form the bench
/// artifacts use for timings and ratios (`null` when non-finite).
#[must_use]
pub fn fixed(v: f64, decimals: usize) -> Value {
    if !v.is_finite() {
        return Value::Null;
    }
    // Through the decimal string, so the stored f64 is the one nearest
    // the rounded decimal and prints back as exactly that decimal.
    format!("{v:.decimals$}")
        .parse()
        .map_or(Value::Null, Value::Num)
}

impl Value {
    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The array under `key`, or an empty slice when absent.
    #[must_use]
    pub fn items(&self, key: &str) -> &[Value] {
        self.get(key).and_then(Value::arr).unwrap_or_default()
    }

    /// The string field `key`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a string.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::str)
            .ok_or_else(|| format!("missing string field \"{key}\""))
    }

    /// The numeric field `key`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a number.
    pub fn req_num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::num)
            .ok_or_else(|| format!("missing numeric field \"{key}\""))
    }

    /// The array field `key`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not an array.
    pub fn req_arr(&self, key: &str) -> Result<&[Value], String> {
        self.get(key)
            .and_then(Value::arr)
            .ok_or_else(|| format!("missing array field \"{key}\""))
    }

    /// The numeric field `key` as a counter.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing, negative or fractional.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        let n = self.req_num(key)?;
        if n >= 0.0 && n.fract() == 0.0 {
            Ok(n as u64)
        } else {
            Err(format!(
                "field \"{key}\" is not a non-negative integer: {n}"
            ))
        }
    }

    /// Serializes with containers nested shallower than `break_depth`
    /// broken one item per line (two-space indent) and everything deeper
    /// inline; an array of scalars (a loss curve) always stays on one
    /// line. `pretty(0)` is the compact form [`fmt::Display`] prints;
    /// `pretty(2)` puts one record per line in a `{"runs": [...]}`
    /// artifact.
    #[must_use]
    pub fn pretty(&self, break_depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, break_depth);
        out
    }

    fn write(&self, out: &mut String, depth: usize, break_depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                let nested = |v: &Value| matches!(v, Value::Arr(_) | Value::Obj(_));
                let broken = depth < break_depth && items.iter().any(nested);
                write_seq(out, ['[', ']'], items.len(), broken, depth, |out, i| {
                    items[i].write(out, depth + 1, break_depth);
                });
            }
            Value::Obj(fields) => {
                let broken = depth < break_depth && !fields.is_empty();
                write_seq(out, ['{', '}'], fields.len(), broken, depth, |out, i| {
                    escape_into(out, &fields[i].0);
                    out.push_str(": ");
                    fields[i].1.write(out, depth + 1, break_depth);
                });
            }
        }
    }
}

/// Writes `open item, item, … close`; when `broken`, one item per line
/// indented one level past `depth`.
fn write_seq(
    out: &mut String,
    [open, close]: [char; 2],
    len: usize,
    broken: bool,
    depth: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push_str(if broken { "," } else { ", " });
        }
        if broken {
            newline(out, depth + 1);
        }
        item(out, i);
    }
    if broken {
        newline(out, depth);
    }
    out.push(close);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(0))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Num(f64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v as f64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Escapes `s` as a quoted JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a byte-offset-bearing message on malformed input, trailing
/// bytes, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text,
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(format!("trailing bytes after JSON value at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn byte(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.byte()
            .ok_or_else(|| format!("unexpected end of input at byte {}", self.i))
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.i, got as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // `"` and `\` are ASCII, so slicing the (valid UTF-8) input at
        // their offsets always lands on character boundaries.
        let mut run = self.i;
        loop {
            let c = self
                .byte()
                .ok_or_else(|| format!("unterminated string at byte {}", self.i))?;
            if c != b'"' && c != b'\\' {
                self.i += 1;
                continue;
            }
            out.push_str(&self.s[run..self.i]);
            self.i += 1;
            if c == b'"' {
                return Ok(out);
            }
            let e = self
                .byte()
                .ok_or_else(|| format!("unterminated escape at byte {}", self.i))?;
            self.i += 1;
            out.push(match e {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let code = self
                        .s
                        .get(self.i..self.i + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                    self.i += 4;
                    code
                }
                other => {
                    return Err(format!(
                        "unknown escape \\{} at byte {}",
                        other as char,
                        self.i - 1
                    ))
                }
            });
            run = self.i;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .byte()
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        self.s[start..self.i]
            .parse()
            .map(Value::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    /// Parses `open item (',' item)* close` (or the empty container)
    /// after the opening byte has been seen.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        if self.peek()? == close {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.i += 1,
                c if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                c => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}, found '{}'",
                        close as char, self.i, c as char
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("JSON nesting deeper than {MAX_DEPTH} levels"));
        }
        let v = match self.peek()? {
            b'{' => {
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Value::Obj(fields)
            }
            b'[' => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            b'"' => Value::Str(self.string()?),
            b't' => self.literal("true", Value::Bool(true))?,
            b'f' => self.literal("false", Value::Bool(false))?,
            b'n' => self.literal("null", Value::Null)?,
            _ => self.number()?,
        };
        self.depth -= 1;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_escapes_literals_and_rejects_garbage() {
        let v = parse(r#"{"a": "x\n\"y\"", "b": [true, false, null, -1.5e2]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::str), Some("x\n\"y\""));
        assert_eq!(v.items("b")[3].num(), Some(-150.0));
        assert_eq!(v.items("b")[2], Value::Null);
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn every_json_escape_decodes() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé é""#).unwrap();
        assert_eq!(v.str(), Some("\"\\/\u{8}\u{c}\n\r\tA\u{e9} \u{e9}"));
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn nesting_is_capped_not_overflowed() {
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let err = parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn writer_round_trips_through_the_parser_at_every_layout() {
        let v = obj([
            ("name", "a \"quoted\"\nline\u{1}".into()),
            ("n", 3usize.into()),
            ("x", 0.1f64.into()),
            ("nan", f64::NAN.into()),
            ("none", Option::<u64>::None.into()),
            ("empty", Value::Arr(Vec::new())),
            ("curve", [1.5f32, 0.25].into_iter().collect()),
            (
                "runs",
                [obj([("k", true.into())]), obj([])].into_iter().collect(),
            ),
        ]);
        for depth in 0..4 {
            let text = v.pretty(depth);
            let back = parse(&text).unwrap();
            // NaN serializes as null; everything else is value-equal.
            assert_eq!(back.get("nan"), Some(&Value::Null));
            assert_eq!(back.get("name"), v.get("name"));
            assert_eq!(back.get("runs"), v.get("runs"));
            assert_eq!(back.get("x").and_then(Value::num), Some(0.1));
        }
        assert_eq!(v.pretty(0), v.to_string());
        assert!(!v.pretty(0).contains('\n'));
        assert!(v
            .pretty(2)
            .contains("\n  \"runs\": [\n    {\"k\": true},\n    {}\n  ]"));
        assert!(v.pretty(1).contains("\"empty\": []"));
        assert!(v.pretty(9).contains("\"curve\": [1.5, 0.25]"));
    }

    #[test]
    fn fixed_rounds_through_the_decimal_form() {
        assert_eq!(fixed(0.123_456_789, 4).to_string(), "0.1235");
        assert_eq!(fixed(2.0, 3).to_string(), "2");
        assert_eq!(fixed(f64::INFINITY, 3), Value::Null);
        assert_eq!(fixed(f64::NAN, 3), Value::Null);
    }

    #[test]
    fn f32_survives_the_f64_shortest_round_trip() {
        for bits in [0x3f9d_70a4u32, 0x0000_0001, 0x7f7f_ffff, 0xbf80_0001] {
            let x = f32::from_bits(bits);
            let back = parse(&Value::from(x).to_string()).unwrap().num().unwrap() as f32;
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn required_accessors_name_the_field() {
        let v = parse(r#"{"s": "x", "n": 4, "f": 1.5, "neg": -1}"#).unwrap();
        assert_eq!(v.req_str("s"), Ok("x"));
        assert_eq!(v.req_u64("n"), Ok(4));
        assert!(v.req_u64("f").unwrap_err().contains("\"f\""));
        assert!(v.req_u64("neg").is_err());
        assert!(v.req_num("s").unwrap_err().contains("\"s\""));
        assert!(v.req_str("missing").unwrap_err().contains("\"missing\""));
        assert!(v.items("missing").is_empty());
        assert!(v.req_arr("s").unwrap_err().contains("\"s\""));
    }
}

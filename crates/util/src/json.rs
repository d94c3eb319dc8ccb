//! Minimal JSON serialization and parsing.
//!
//! The experiment harness appends result records as JSON lines. With no
//! crate registry available we handle JSON by hand: a [`Json`] value
//! tree plus escaping, enough for flat records of numbers/strings/
//! arrays, and a small recursive-descent [`Json::parse`] so traces and
//! metric dumps can be read back (round-trip tested) and validated in
//! CI. Numbers parse into `f64` — exact for the integer counters the
//! workspace emits (all below 2⁵³).

use std::fmt;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (non-finite floats serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes to a compact single-line string.
    pub fn dump(&self) -> String {
        self.to_string()
    }

    /// Parses one JSON value from `text` (surrounding whitespace
    /// allowed; trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer (counters).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.trunc() == *x && *x < 1.8446744073709552e19 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The workspace
/// writes at most a handful of levels; the bound keeps hostile input
/// (say, 100,000 `[`s) an error instead of a stack overflow.
const MAX_DEPTH: usize = 256;

/// Recursive-descent parser over the raw bytes (JSON syntax is ASCII;
/// string contents pass through as UTF-8).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses an array or object one nesting level deeper, refusing to
    /// go past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number {text:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogates (which this writer never emits)
                            // decode to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u8> for Json {
    fn from(x: u8) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Types that can render themselves as a JSON value. Record structs in
/// the bench harness implement this in place of a serde derive.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

fn escape_into(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

fn write_num(x: f64, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    if !x.is_finite() {
        return out.write_str("null");
    }
    // Integers print without a trailing ".0" so counts look like counts.
    if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write_num(*x, f),
            Json::Str(s) => escape_into(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_record() {
        let j = Json::obj([
            ("name", Json::from("connect4_like")),
            ("tuples", Json::from(6758u64)),
            ("ratio", Json::from(0.25f64)),
            ("ok", Json::from(true)),
        ]);
        assert_eq!(j.dump(), r#"{"name":"connect4_like","tuples":6758,"ratio":0.25,"ok":true}"#);
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::from("a\"b\\c\nd").dump(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn arrays_and_nesting() {
        let j = Json::obj([("xs", Json::from(vec![1u64, 2, 3]))]);
        assert_eq!(j.dump(), r#"{"xs":[1,2,3]}"#);
    }

    #[test]
    fn non_finite_is_null() {
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn parse_round_trips_every_emitted_shape() {
        let j = Json::obj([
            ("name", Json::from("weather analog")),
            ("quote", Json::from("a\"b\\c\nd\te")),
            ("count", Json::from(6758u64)),
            ("ratio", Json::from(0.251f64)),
            ("neg", Json::from(-3i64)),
            ("ok", Json::from(true)),
            ("off", Json::from(false)),
            ("gap", Json::Null),
            ("xs", Json::from(vec![1u64, 2, 3])),
            ("nested", Json::obj([("deep", Json::from(vec!["a", "b"]))])),
        ]);
        let text = j.dump();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j);
        // And re-dumping the parse gives the identical line.
        assert_eq!(back.dump(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_control_escapes() {
        let j = Json::parse(" { \"a\" : [ 1 , 2.5e1 ] , \"b\" : \"\\u0041\\u0007\" } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(j.get("b").and_then(Json::as_str), Some("A\u{7}"));
        // Control characters below 0x20 emit as \u escapes; round-trip.
        let original = Json::from("bell\u{7}");
        assert_eq!(Json::parse(&original.dump()).unwrap(), original);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_rejects_nesting_past_the_bound() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "null" + &"}".repeat(n);
        for nest in [arrays, objects] {
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            for n in [MAX_DEPTH + 1, 100_000] {
                assert!(Json::parse(&nest(n)).unwrap_err().contains("nesting"), "depth {n}");
            }
        }
    }

    #[test]
    fn accessors_navigate_parsed_records() {
        let j = Json::parse(r#"{"metric":"mine.candidate_tests","kind":"counter","value":123}"#)
            .unwrap();
        assert_eq!(j.get("metric").and_then(Json::as_str), Some("mine.candidate_tests"));
        assert_eq!(j.get("value").and_then(Json::as_u64), Some(123));
        assert_eq!(j.get("value").and_then(Json::as_f64), Some(123.0));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }
}

//! A minimal JSON writer and its reading half.
//!
//! The build environment has no crates.io access, so serde is
//! unavailable; events carry only strings, integers, floats, and bools,
//! which this module serializes by hand. [`parse_json`] reads them back
//! into [`JsonValue`] trees: it accepts exactly the values
//! [`JsonValue::to_json`] can produce (plus ordinary interchange JSON)
//! and keeps object keys in file order, so a parsed record
//! re-serializes canonically. [`validate_json_line`] lets tests (and
//! downstream consumers) check that an emitted trace parses line by
//! line.

use std::fmt::Write as _;

/// An owned JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any integer (serialized without an exponent).
    Int(i64),
    /// Unsigned integer wide enough for counters.
    Uint(u64),
    /// A float. Non-finite values serialize as the strings `"NaN"`,
    /// `"Infinity"`, and `"-Infinity"` (JSON numbers cannot express
    /// them), which readers map back losslessly.
    Float(f64),
    /// A string, escaped on write.
    Str(String),
    /// An ordered list of key/value pairs (objects keep insertion order).
    Object(Vec<(String, JsonValue)>),
    /// An array of values.
    Array(Vec<JsonValue>),
}

impl JsonValue {
    /// Convenience constructor for objects.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes to a compact single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    // `{f:?}` keeps a decimal point or exponent, so the
                    // output re-parses as a float rather than an int.
                    let _ = write!(out, "{f:?}");
                } else if f.is_nan() {
                    out.push_str("\"NaN\"");
                } else if *f > 0.0 {
                    out.push_str("\"Infinity\"");
                } else {
                    out.push_str("\"-Infinity\"");
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Checks that `line` is one complete, well-formed JSON value by
/// parsing it with [`parse_json`] and discarding the tree.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    parse_json(line).map(|_| ())
}

/// Parses one complete JSON value; trailing content is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                other => return Err(format!("unexpected {other:?} in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
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
                other => return Err(format!("unexpected {other:?} in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err("bad \\u escape".into()),
            };
            self.pos += 1;
            v = (v << 4) | u16::from(d);
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes.
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        let mut out = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in string".to_string())?
            .to_string();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000
                                    + ((u32::from(hi) - 0xd800) << 10)
                                    + (u32::from(lo) - 0xdc00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err("lone low surrogate".into());
                            } else {
                                char::from_u32(u32::from(hi)).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 continues until the next special byte.
                    let chunk_start = self.pos - 1;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[chunk_start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?,
                    );
                }
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err("expected fraction digits".into());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err("expected exponent digits".into());
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// Looks up a field of a JSON object.
pub fn field<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A field that must be a `u64` (accepting `Uint` and non-negative `Int`).
pub fn field_u64(value: &JsonValue, key: &str) -> Option<u64> {
    match field(value, key)? {
        JsonValue::Uint(u) => Some(*u),
        JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// A field that must be a string.
pub fn field_str<'a>(value: &'a JsonValue, key: &str) -> Option<&'a str> {
    match field(value, key)? {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

/// Interprets a value as a float, accepting plain numbers and the
/// tagged strings the telemetry writer uses for non-finite values
/// (`"NaN"`, `"Infinity"`, `"-Infinity"`), so NaN/Inf fitness survives
/// a trace round-trip.
pub fn json_f64(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::Float(f) => Some(*f),
        JsonValue::Uint(u) => Some(*u as f64),
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "Infinity" => Some(f64::INFINITY),
            "-Infinity" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

/// A field read as a float via [`json_f64`].
pub fn field_f64(value: &JsonValue, key: &str) -> Option<f64> {
    json_f64(field(value, key)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_strings() {
        let v = JsonValue::Str("a\"b\\c\nd".into());
        assert_eq!(v.to_json(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn writes_nested_objects() {
        let v = JsonValue::obj(vec![
            ("k", JsonValue::Uint(3)),
            ("f", JsonValue::Float(0.5)),
            (
                "a",
                JsonValue::Array(vec![JsonValue::Int(-1), JsonValue::Bool(true)]),
            ),
        ]);
        assert_eq!(v.to_json(), r#"{"k":3,"f":0.5,"a":[-1,true]}"#);
    }

    #[test]
    fn non_finite_floats_become_tagged_strings() {
        assert_eq!(JsonValue::Float(f64::NAN).to_json(), "\"NaN\"");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_json(), "\"Infinity\"");
        assert_eq!(
            JsonValue::Float(f64::NEG_INFINITY).to_json(),
            "\"-Infinity\""
        );
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            validate_json_line(&JsonValue::Float(v).to_json()).expect("valid");
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(JsonValue::Float(1.0).to_json(), "1.0");
    }

    #[test]
    fn validator_accepts_writer_output() {
        let v = JsonValue::obj(vec![
            ("s", JsonValue::Str("x\t\"y\"".into())),
            ("n", JsonValue::Float(6.02e23)),
            (
                "nested",
                JsonValue::obj(vec![("empty", JsonValue::Array(vec![]))]),
            ),
        ]);
        validate_json_line(&v.to_json()).expect("valid");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} extra",
            "01e",
            "1.",
            r#""\ud83d""#,
        ] {
            assert!(validate_json_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_writer_output_and_round_trips() {
        let v = JsonValue::obj(vec![
            ("s", JsonValue::Str("x\t\"y\"\\z".into())),
            ("f", JsonValue::Float(0.5)),
            ("neg", JsonValue::Int(-3)),
            ("big", JsonValue::Uint(u64::MAX)),
            (
                "nested",
                JsonValue::obj(vec![(
                    "a",
                    JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
                )]),
            ),
        ]);
        let line = v.to_json();
        let parsed = parse_json(&line).expect("parses");
        assert_eq!(parsed.to_json(), line, "re-serialization is canonical");
    }

    #[test]
    fn non_finite_floats_round_trip_losslessly() {
        // The worst-fitness mapping can hand the trace NaN or ±Inf;
        // the writer tags them as strings and `json_f64` maps them
        // back, so no value degrades to null on a round-trip.
        let v = JsonValue::obj(vec![
            ("nan", JsonValue::Float(f64::NAN)),
            ("pinf", JsonValue::Float(f64::INFINITY)),
            ("ninf", JsonValue::Float(f64::NEG_INFINITY)),
            ("plain", JsonValue::Float(0.25)),
        ]);
        let line = v.to_json();
        let parsed = parse_json(&line).expect("parses");
        assert_eq!(parsed.to_json(), line, "text round-trip is canonical");
        assert!(field_f64(&parsed, "nan").expect("nan").is_nan());
        assert_eq!(field_f64(&parsed, "pinf"), Some(f64::INFINITY));
        assert_eq!(field_f64(&parsed, "ninf"), Some(f64::NEG_INFINITY));
        assert_eq!(field_f64(&parsed, "plain"), Some(0.25));
        // Arbitrary strings are not silently coerced to floats.
        let odd = parse_json("{\"s\":\"Infinityish\"}").expect("parses");
        assert_eq!(field_f64(&odd, "s"), None);
    }

    #[test]
    fn float_bits_survive_a_round_trip() {
        for bits in [
            0x3fe0000000000000u64, // 0.5
            0x3ff0000000000001,    // smallest > 1.0
            0x0000000000000001,    // subnormal
            0xc000000000000000,    // -2.0
        ] {
            let f = f64::from_bits(bits);
            let line = JsonValue::Float(f).to_json();
            match parse_json(&line).expect("parses") {
                JsonValue::Float(g) => assert_eq!(g.to_bits(), bits, "{line}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn integers_keep_their_variant() {
        assert_eq!(parse_json("7").unwrap(), JsonValue::Uint(7));
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(
            parse_json("18446744073709551615").unwrap(),
            JsonValue::Uint(u64::MAX)
        );
        assert_eq!(parse_json("1.5e3").unwrap(), JsonValue::Float(1500.0));
    }

    #[test]
    fn control_character_escapes_round_trip() {
        let v = JsonValue::Str("\u{1}\u{1f}".into());
        assert_eq!(parse_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse_json(r#""é😀""#).unwrap(),
            JsonValue::Str("é😀".into())
        );
        assert!(parse_json(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"open",
            "1.",
            "01x",
            "{\"a\":1} junk",
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn field_accessors() {
        let v = parse_json(r#"{"k":"s","n":3}"#).unwrap();
        assert_eq!(field_str(&v, "k"), Some("s"));
        assert_eq!(field_u64(&v, "n"), Some(3));
        assert_eq!(field(&v, "missing"), None);
    }
}

//! Minimal JSON support: escaping/formatting for the exporters and a small
//! recursive-descent parser so tools (the bench regression checker) can read
//! the files back without any external dependency.
//!
//! The parser accepts the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) and is intentionally strict: trailing
//! garbage or malformed input yields an error rather than a best-effort
//! value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number with a fractional part, an exponent, or a sign.
    Number(f64),
    /// A non-negative integer-syntax number that fits `u64`, kept exact.
    ///
    /// `u64` counters (up to `u64::MAX`) exceed `f64`'s 53-bit integer
    /// range, so the parser keeps plain unsigned integers in this lossless
    /// variant; [`JsonValue::as_f64`] still covers it for callers that only
    /// need an approximate number.
    UInt(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are sorted (BTreeMap), duplicates keep the last value.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a number, if it is one (`UInt` rounds to the nearest
    /// representable `f64`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            Self::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one. Accepts
    /// `Number`s that are integral and in range, so callers reading counters
    /// do not care which variant the writer produced.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::UInt(n) => Some(*n),
            Self::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            Self::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Appends this value as compact JSON to `out` (object keys in sorted
    /// order, so output is deterministic).
    pub fn write_to(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Number(n) => write_f64(out, *n),
            Self::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Self::String(s) => write_escaped(out, s),
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Self::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// This value as a compact JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, PartialEq, Debug)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// [`JsonError`] on malformed input or trailing non-whitespace.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
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
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. Both
            // are ASCII, so the run ends on a char boundary; so does every
            // escape below that succeeds, hence the run also starts on one.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: decode one escape.
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are replaced rather than combined;
                            // the exporters never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        // Plain unsigned integers stay exact: f64 silently rounds above
        // 2^53, which would corrupt u64 counters on a round trip. A leading
        // digit run is accumulated as it is scanned; `None` past u64::MAX.
        let mut exact = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            exact = exact.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        let more = matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if let (false, Some(n)) = (more, exact) {
            return Ok(JsonValue::UInt(n));
        }
        // A sign, fraction or exponent (or an all-digit overflow): the
        // whole numeric run goes to the f64 parser.
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Appends `s` as a JSON string (with quotes and escapes) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Appends a JSON-legal rendering of `v` to `out` (`null` for non-finite).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 round-trips exactly and never produces inf/nan here.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            parse(r#""a\"b\nA""#).unwrap(),
            JsonValue::String("a\"b\nA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn floats_render_round_trippably() {
        let mut out = String::new();
        write_f64(&mut out, 123.456e-7);
        assert_eq!(parse(&out).unwrap().as_f64(), Some(123.456e-7));
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn serialiser_round_trips_through_the_parser() {
        let src = r#"{"b":[1,false,null,"x\ny"],"a":{"nested":-2.5}}"#;
        let v = parse(src).unwrap();
        let out = v.to_json_string();
        assert_eq!(parse(&out).unwrap(), v);
        // Keys come back sorted (BTreeMap order).
        assert!(out.starts_with("{\"a\""), "{out}");
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }

    #[test]
    fn u64_max_round_trips_losslessly() {
        // u64::MAX is not representable in f64; the UInt variant keeps it.
        let src = u64::MAX.to_string();
        let v = parse(&src).unwrap();
        assert_eq!(v, JsonValue::UInt(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_json_string(), src);
        // One past 2^53: f64 would collapse it onto a neighbour.
        let n = (1u64 << 53) + 1;
        let v = parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn uint_still_reads_as_f64_and_number_as_u64() {
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(7.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        // Negative and fractional syntax stays in the f64 variant.
        assert_eq!(parse("-7").unwrap(), JsonValue::Number(-7.0));
        assert_eq!(parse("7.0").unwrap(), JsonValue::Number(7.0));
        assert_eq!(parse("7e0").unwrap(), JsonValue::Number(7.0));
    }

    #[test]
    fn histogram_bucket_arrays_round_trip_losslessly() {
        // A sparse bucket list as the checkpoint format stores it: pairs of
        // (slot, count) with counts up to u64::MAX.
        let buckets = [(0u32, 3u64), (31, u64::MAX), (65, (1 << 53) + 1)];
        let mut out = String::new();
        out.push('[');
        for (i, (slot, count)) in buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{slot},{count}]");
        }
        out.push(']');
        let v = parse(&out).unwrap();
        let arr = v.as_array().unwrap();
        let back: Vec<(u32, u64)> = arr
            .iter()
            .map(|pair| {
                let pair = pair.as_array().unwrap();
                (
                    u32::try_from(pair[0].as_u64().unwrap()).unwrap(),
                    pair[1].as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(back, buckets);
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn escapes_interleave_with_multibyte_runs() {
        let v = parse(r#""é\n✓\"𝄞\u00e9x\/""#).unwrap();
        assert_eq!(v.as_str(), Some("é\n✓\"𝄞éx/"));
        assert_eq!(
            parse(r#""\u0041\u00DF\u2713\ud834""#).unwrap().as_str(),
            Some("Aß✓\u{fffd}")
        );
        // Raw control characters inside strings are accepted as they are.
        assert_eq!(parse("\"a\tb\u{1}\"").unwrap().as_str(), Some("a\tb\u{1}"));
        let mut out = String::new();
        write_escaped(&mut out, "ü\"é\\✓\n");
        assert_eq!(parse(&out).unwrap().as_str(), Some("ü\"é\\✓\n"));
    }

    #[test]
    fn string_errors_report_offset_and_message() {
        for (src, offset, message) in [
            ("\"ab", 3, "unterminated string"),
            ("\"é\\", 4, "unterminated escape"),
            ("\"\\q\"", 3, "invalid escape"),
            ("\"\\é\"", 3, "invalid escape"),
            ("\"\\u12\"", 3, "truncated \\u escape"),
            ("\"\\u00é\"", 3, "invalid \\u escape"),
            ("\"\\u000é\"", 3, "truncated \\u escape"),
            ("\"\\u12g4\"", 3, "invalid \\u escape"),
            ("\"✓\\u00", 6, "truncated \\u escape"),
        ] {
            let e = parse(src).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{src:?}");
        }
    }

    #[test]
    fn integers_stay_exact_up_to_u64_max() {
        assert_eq!(parse("007").unwrap(), JsonValue::UInt(7));
        assert_eq!(parse("0").unwrap(), JsonValue::UInt(0));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        // Past u64::MAX the last add (…616) or multiply (…620) overflows,
        // and the text is read as an f64 instead.
        for wide in ["18446744073709551616", "18446744073709551620"] {
            assert_eq!(
                parse(wide).unwrap(),
                JsonValue::Number(18_446_744_073_709_551_616.0)
            );
        }
        assert_eq!(parse("[12,3]").unwrap(), parse("[ 12 , 3 ]").unwrap());
        assert_eq!(parse("12.5").unwrap(), JsonValue::Number(12.5));
        assert_eq!(parse("1E2").unwrap(), JsonValue::Number(100.0));
        for (src, offset, message) in [
            ("-", 1, "invalid number"),
            ("1e", 2, "invalid number"),
            ("1-2", 3, "invalid number"),
            ("", 0, "expected a value"),
            ("[1,-]", 4, "invalid number"),
        ] {
            let e = parse(src).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{src:?}");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"a":1,"b":2,"a":{"c":3}}"#).unwrap();
        assert_eq!(v.to_json_string(), r#"{"a":{"c":3},"b":2}"#);
    }

    #[test]
    fn digit_strings_wider_than_u64_fall_back_to_f64() {
        let v = parse("99999999999999999999999999").unwrap();
        assert!(matches!(v, JsonValue::Number(_)));
        assert!(v.as_f64().unwrap() > 9.9e25);
    }
}

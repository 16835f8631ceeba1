//! Hand-rolled JSON tree, writer and parser.
//!
//! The container build is offline (no serde), and the BENCH output only
//! needs a small, fully-specified subset of JSON: objects, arrays,
//! strings, finite numbers, booleans and null. Both directions live here
//! so the schema round-trip test and the `threefive bench --validate`
//! check need no external tooling.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite inputs must be mapped to `Null` by the
    /// caller; [`Json::num`] does this).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number, mapping NaN/∞ (which JSON cannot represent) to `null`.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Required object field of any type; the error names the field.
    /// The typed `req_*` accessors below are the one validator vocabulary
    /// every schema reader (`from_json`) in the workspace uses.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn req_as<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        conv(self.req(key)?).ok_or_else(|| format!("field '{key}' must be {what}"))
    }

    /// Required string field.
    pub fn req_str(&self, key: &str) -> Result<String, String> {
        self.req_as(key, "a string", |v| v.as_str().map(str::to_string))
    }

    /// Required non-negative integer field.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req_as(key, "a non-negative integer", Json::as_u64)
    }

    /// Required number field.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.req_as(key, "a number", Json::as_f64)
    }

    /// Required boolean field.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.req_as(key, "a boolean", Json::as_bool)
    }

    /// Required array field.
    pub fn req_arr(&self, key: &str) -> Result<&[Json], String> {
        self.req_as(key, "an array", Json::as_arr)
    }

    /// Required-but-nullable number: the key must be present, while
    /// `null` — how the writer encodes NaN/absent — reads back as `None`.
    pub fn req_nullable_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.req_as(key, "a number or null", |v| match v {
            Json::Null => Some(None),
            v => v.as_f64().map(Some),
        })
    }

    /// Parses a JSON document (the subset this module writes, which is
    /// all of standard JSON except non-finite numbers). Containers may
    /// nest at most [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn write_value(out: &mut String, v: &Json, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad1 = "  ".repeat(indent + 1);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust's float Display is shortest-roundtrip decimal, which is
        // valid JSON for every finite value.
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad1);
                write_value(out, item, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad1);
                write_escaped(out, k);
                out.push_str(": ");
                write_value(out, val, indent + 1);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(&mut s, self, 0);
        f.write_str(&s)
    }
}

/// A parse failure with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting [`Json::parse`] accepts. The parser is
/// recursive and its input arrives from the network (`serve` frames of up
/// to 1 MiB), so unbounded nesting is a stack overflow that aborts the
/// process; the deepest document the tree writes nests fewer than 10.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // `1e999` parses to ∞, which the writer would emit as `null`.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err(format!("number '{text}' overflows f64"))),
            Err(_) => Err(self.err(format!("invalid number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by the writer;
                            // reject rather than mis-decode.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("schema_version".into(), Json::Num(1.0)),
            ("name".into(), Json::str("he said \"hi\"\n\\slash")),
            ("nothing".into(), Json::Null),
            ("flag".into(), Json::Bool(true)),
            (
                "vals".into(),
                Json::Arr(vec![Json::Num(-1.5), Json::Num(1e-7), Json::Num(12345.0)]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(2.5), Json::Num(2.5));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , \"\\u00e9\\t\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Num(1.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::str("é\t"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "{} extra"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error_naming_the_offset() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"k\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        let err = Json::parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        // Unclosed and far under serve's 1 MiB frame cap: recursion this
        // deep used to overflow the reader thread's stack.
        for open in ["[", "{\"k\":"] {
            let err = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert_eq!(err.at, MAX_DEPTH * open.len(), "{err}");
        }
        // Siblings do not accumulate depth.
        assert!(Json::parse(&format!("[{}]", "[[]],".repeat(100) + "[]")).is_ok());
    }

    #[test]
    fn numbers_that_overflow_f64_are_rejected() {
        for bad in ["1e999", "-1e999", "[1, 2e400]"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.message.contains("overflows"), "{bad}: {err}");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn required_accessors_name_the_field_and_the_expected_type() {
        let v =
            Json::parse(r#"{"s": "x", "n": 3, "f": 1.5, "b": true, "a": [1], "z": null}"#).unwrap();
        assert_eq!(v.req_str("s").unwrap(), "x");
        assert_eq!(v.req_u64("n").unwrap(), 3);
        assert_eq!(v.req_f64("f").unwrap(), 1.5);
        assert!(v.req_bool("b").unwrap());
        assert_eq!(v.req_arr("a").unwrap().len(), 1);
        assert_eq!(v.req_nullable_f64("z").unwrap(), None);
        assert_eq!(v.req_nullable_f64("f").unwrap(), Some(1.5));
        assert_eq!(v.req_u64("gone").unwrap_err(), "missing field 'gone'");
        assert_eq!(
            v.req_nullable_f64("gone").unwrap_err(),
            "missing field 'gone'"
        );
        assert_eq!(
            v.req_u64("f").unwrap_err(),
            "field 'f' must be a non-negative integer"
        );
        assert_eq!(v.req_str("n").unwrap_err(), "field 'n' must be a string");
        assert_eq!(
            v.req_nullable_f64("s").unwrap_err(),
            "field 's' must be a number or null"
        );
    }

    #[test]
    fn integer_accessor_rejects_fractions() {
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Num(4.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}

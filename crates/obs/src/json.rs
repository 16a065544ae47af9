//! Dependency-free JSON writing and validation.
//!
//! The bench harness and exporters all need to emit machine-readable
//! output without pulling `serde` into the hermetic build, and the CI
//! smoke step needs to *check* that emitted traces parse. This module
//! provides both halves: a push-style [`JsonWriter`] with escaping and
//! deterministic number formatting, and a small recursive-descent
//! [`validate`] that accepts exactly the JSON grammar.
//!
//! Determinism notes: integers are written exactly; `f64` uses Rust's
//! shortest-roundtrip `Display`, which is platform-independent;
//! non-finite floats are written as `null` (JSON has no NaN/Inf).

/// A push-style JSON serializer over an owned `String`.
///
/// Structure errors (closing an unopened array, two keys in a row) are
/// programming bugs and panic in debug builds via `debug_assert`; the
/// writer never produces invalid JSON from valid call sequences.
///
/// # Example
///
/// ```
/// use pact_obs::JsonWriter;
/// let mut j = JsonWriter::new();
/// j.begin_object();
/// j.field_str("name", "pact");
/// j.field_u64("cycles", 42);
/// j.key("ratios");
/// j.begin_array();
/// j.value_f64(0.5);
/// j.end_array();
/// j.end_object();
/// assert_eq!(j.finish(), r#"{"name":"pact","cycles":42,"ratios":[0.5]}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once it has a member (so
    /// the next member needs a comma).
    stack: Vec<bool>,
    /// A key was just written; the next value completes the pair.
    pending_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed container");
        self.buf
    }

    /// The text produced so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has_member) = self.stack.last_mut() {
            if *has_member {
                self.buf.push(',');
            }
            *has_member = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.stack.push(false);
        self.buf.push('{');
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        // The pop must stay outside debug_assert!: release builds
        // compile the macro out, side effects included.
        let open = self.stack.pop();
        debug_assert!(open.is_some(), "no open container");
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.stack.push(false);
        self.buf.push('[');
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        let open = self.stack.pop();
        debug_assert!(open.is_some(), "no open container");
        self.buf.push(']');
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) {
        debug_assert!(!self.pending_key, "two keys in a row");
        self.before_value();
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
        self.pending_key = true;
    }

    /// Writes a string value.
    pub fn value_str(&mut self, v: &str) {
        self.before_value();
        write_escaped(&mut self.buf, v);
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.before_value();
        self.buf.push_str(&v.to_string());
    }

    /// Writes a float value (`null` for NaN/Inf, which JSON lacks).
    pub fn value_f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            let s = v.to_string();
            self.buf.push_str(&s);
            // `5.0f64.to_string()` is "5"; that is still valid JSON.
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.before_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Key + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.value_str(v);
    }

    /// Key + unsigned integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.value_u64(v);
    }

    /// Key + float value.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.value_f64(v);
    }

    /// Key + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.value_bool(v);
    }
}

fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Where and why [`validate`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Checks that `s` is one well-formed JSON value (with nothing but
/// whitespace after it). Structure-only: no value is materialized.
///
/// # Errors
///
/// Returns the first syntax error found.
pub fn validate(s: &str) -> Result<(), JsonError> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(p.err("trailing content"));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.i,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), JsonError> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> Result<(), JsonError> {
            let start = p.i;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.i += 1;
            }
            if p.i == start {
                Err(p.err("expected digits"))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_containers_still_separate_siblings() {
        // Regression: end_object/end_array once popped the container
        // stack inside debug_assert!, so release builds never popped
        // and the member after an empty container lost its comma.
        let mut j = JsonWriter::new();
        j.begin_object();
        j.key("t");
        j.begin_object();
        j.end_object();
        j.key("a");
        j.begin_array();
        j.end_array();
        j.field_u64("n", 1);
        j.end_object();
        let s = j.finish();
        assert_eq!(s, r#"{"t":{},"a":[],"n":1}"#);
        validate(&s).unwrap();
    }

    #[test]
    fn writer_builds_nested_structures() {
        let mut j = JsonWriter::new();
        j.begin_object();
        j.field_str("policy", "pact");
        j.field_u64("cycles", 12345);
        j.field_f64("slowdown", 0.26);
        j.field_bool("thp", false);
        j.key("windows");
        j.begin_array();
        for i in 0..2u64 {
            j.begin_object();
            j.field_u64("index", i);
            j.end_object();
        }
        j.end_array();
        j.end_object();
        let s = j.finish();
        assert_eq!(
            s,
            r#"{"policy":"pact","cycles":12345,"slowdown":0.26,"thp":false,"windows":[{"index":0},{"index":1}]}"#
        );
        validate(&s).unwrap();
    }

    #[test]
    fn writer_escapes_strings() {
        let mut j = JsonWriter::new();
        j.value_str("a\"b\\c\nd\te\u{1}");
        let s = j.finish();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        validate(&s).unwrap();
    }

    #[test]
    fn writer_handles_nonfinite_floats() {
        let mut j = JsonWriter::new();
        j.begin_array();
        j.value_f64(f64::NAN);
        j.value_f64(f64::INFINITY);
        j.value_f64(1.5);
        j.value_f64(5.0); // integral float prints without a dot
        j.end_array();
        let s = j.finish();
        assert_eq!(s, "[null,null,1.5,5]");
        validate(&s).unwrap();
    }

    #[test]
    fn validator_accepts_valid_json() {
        for ok in [
            "null",
            "true",
            "  -12.5e+3 ",
            r#""hié""#,
            "[]",
            "{}",
            r#"{"a":[1,2,{"b":null}],"c":"d"}"#,
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "[1] tail",
            "01x",
            "{\"a\":1,}",
            "\"bad\\q\"",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
        let e = validate("[1, oops]").unwrap_err();
        assert!(e.to_string().contains("invalid JSON at byte"));
    }
}

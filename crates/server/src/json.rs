//! Minimal JSON codec for the wire protocol.
//!
//! The build environment has no registry access and the `serde` shim is a
//! marker-trait stand-in with no serialization format, so the protocol
//! layer carries its own codec: a [`Json`] value tree, a recursive-descent
//! parser, and a writer. Supported is full JSON minus two deliberate
//! simplifications — numbers are `f64` (every protocol field fits in the
//! 2^53 exact-integer range), and object keys keep insertion order in a
//! `Vec` (the protocol never has enough keys per object for a map to win).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see module docs for the `f64` caveat).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in the
    /// exact-`f64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a whole number in the
    /// exact-`f64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string (no trailing newline; all
    /// control characters are escaped, so the output never contains a
    /// literal newline — the framing invariant of the wire protocol).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no Infinity/NaN literal; emit `null` so
                    // the output is always valid JSON (the receiver's
                    // field validation then rejects the null cleanly).
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // `{:?}` prints shortest round-trip representation.
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `input` (must consume the whole string
    /// apart from surrounding whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing data", p.pos));
        }
        Ok(v)
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

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl JsonError {
    fn at(message: &str, offset: usize) -> Self {
        JsonError {
            message: message.to_string(),
            offset,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// frame the protocol emits nests 5 levels (`metrics` histogram
/// buckets); the limit keeps one hostile request line from recursing the
/// parser off its thread's stack, which would abort the whole process.
pub const MAX_DEPTH: usize = 64;

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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at("unexpected character", self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::at("invalid literal", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at("expected a value", self.pos)),
        }
    }

    /// Opens an array or object one level deeper, refusing past
    /// [`MAX_DEPTH`]; the caller closes it by decrementing `depth`.
    fn open(&mut self, b: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        self.eat(b)?;
        self.depth += 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.open(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("invalid number", start))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::at("invalid number", start))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at("invalid utf-8", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            out.push(c);
                        }
                        _ => return Err(JsonError::at("unknown escape", self.pos - 1)),
                    }
                }
                _ => return Err(JsonError::at("unterminated string", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::at("truncated \\u escape", self.pos));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        let v = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        // Surrogate pair handling for characters beyond the BMP.
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c)
                        .ok_or_else(|| JsonError::at("invalid surrogate pair", self.pos));
                }
            }
            return Err(JsonError::at("lone surrogate", self.pos));
        }
        char::from_u32(hi).ok_or_else(|| JsonError::at("invalid \\u escape", self.pos))
    }
}

/// Convenience constructors used by the protocol layer.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
pub fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// A number value.
pub fn n(v: f64) -> Json {
    Json::Num(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_line()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = obj(vec![
            ("a", Json::Arr(vec![n(1.0), n(2.0), Json::Null])),
            ("b", obj(vec![("c", s("x\"y\\z\nw"))])),
            ("d", Json::Bool(true)),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'), "framing: one line");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str().unwrap(),
            "é😀"
        );
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn nesting_limit_holds_on_a_small_stack() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1);
        let texts = [
            arrays(MAX_DEPTH),
            objects(MAX_DEPTH),
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            // The 0.2 MB line that used to overflow a default-stack thread.
            "[".repeat(200_000),
        ];
        // 256 KiB: an unoptimized build spends up to ~2 KiB of stack per
        // object level, so the limit needs ~128 KiB there (arrays fit in
        // 64 KiB in either build); 200 000 levels would need hundreds of
        // MiB.
        let errors: Vec<Option<String>> = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                texts
                    .iter()
                    .map(|t| Json::parse(t).err().map(|e| e.to_string()))
                    .collect()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(errors[..2], [None, None], "{MAX_DEPTH} levels must parse");
        for e in &errors[2..] {
            assert!(e.as_ref().unwrap().contains("nesting too deep"), "{e:?}");
        }
    }

    #[test]
    fn u64_accessor_guards() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let line = obj(vec![("r", n(v))]).to_line();
            assert_eq!(line, "{\"r\":null}");
            Json::parse(&line).expect("stays valid JSON");
        }
    }

    #[test]
    fn control_chars_escaped() {
        let line = s("a\u{01}b").to_line();
        assert_eq!(line, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&line).unwrap(), s("a\u{01}b"));
    }
}

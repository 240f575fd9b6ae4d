//! JSON for the whole workspace, in one place: the string escaper, the
//! record emitter and a small parser.
//!
//! Hand-rolled on purpose — the workspace takes no registry dependencies,
//! and the subset of JSON it reads and writes is tiny: objects, arrays,
//! strings, finite numbers, booleans and null.
//!
//! * [`escape`] / [`escape_into`] — the one escaper: explore records,
//!   diagnostics JSON, trace sidecars and the CLIs all render strings
//!   through it.
//! * [`JsonObject`] — the emitter the explore and serve records are
//!   rendered with: objects (nested ones too), strings, integers and
//!   floats, all written into one buffer without a temporary per field.
//!   Floats are formatted with Rust's shortest-round-trip `Display`, which
//!   both parses back to the identical bit pattern and renders identically
//!   across runs — the property the explore engine's byte-identical-output
//!   guarantee rests on.
//! * [`parse`] / [`JsonValue`] — a recursive-descent parser that reads
//!   back explore records (`cactid audit --jsonl`) and `cactid serve`
//!   requests, nesting capped at [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt::Write;

/// Escapes a string for inclusion in a JSON string literal: quotes,
/// backslashes and every control character. The one escaper of the
/// workspace — the explore records, the diagnostics JSON and the CLIs
/// all render strings through it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to `out` in place. Every character to escape is
/// ASCII, so the runs between them are copied through whole, and a string
/// with nothing to escape is one copy.
pub fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[start..]);
}

/// An in-progress JSON object (`{...}`) built field by field. Keys,
/// strings and numbers are written straight into one buffer.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Opens an object.
    pub fn new() -> Self {
        JsonObject::with_capacity(0)
    }

    /// Opens an object whose buffer holds `bytes` before it first grows.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut buf = String::with_capacity(bytes);
        buf.push('{');
        JsonObject { buf, first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field: the shortest round-trip decimal, or `null` for
    /// a non-finite value, which JSON numbers cannot express.
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a nested object field, which `fill` writes in place.
    pub fn object(&mut self, k: &str, fill: impl FnOnce(&mut JsonObject)) -> &mut Self {
        self.key(k);
        let mut inner = JsonObject {
            buf: std::mem::take(&mut self.buf),
            first: true,
        };
        inner.buf.push('{');
        fill(&mut inner);
        self.buf = inner.finish();
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; keys keep first-wins semantics on duplicates.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Engine records
/// and serve requests nest at most three levels; the cap keeps one hostile
/// line from recursing the parser off the end of its thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value from `text` (surrounding whitespace
/// allowed, trailing garbage rejected).
///
/// # Errors
///
/// A short human-readable message naming the byte offset of the problem,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input. `pos` only ever advances over ASCII bytes or whole
    /// characters, so it always sits on a character boundary.
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, or refuses past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.entry(key).or_insert(val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are absent from the engine's
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let Some(c) = self.text[self.pos..].chars().next() else {
                        unreachable!("peek() saw a byte, so the remainder is non-empty")
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
        let mut out = String::from("k=");
        escape_into(&mut out, "é\"\u{1f}");
        assert_eq!(out, "k=é\\\"\\u001f");
    }

    #[test]
    fn renders_fields_in_insertion_order() {
        let mut o = JsonObject::new();
        o.u64("idx", 3)
            .str("status", "ok")
            .f64("x", 0.25)
            .bool("flag", true)
            .object("org", |org| {
                org.u64("ndwl", 2);
            });
        assert_eq!(
            o.finish(),
            "{\"idx\":3,\"status\":\"ok\",\"x\":0.25,\"flag\":true,\"org\":{\"ndwl\":2}}"
        );
    }

    /// `v` as [`JsonObject::f64`] renders it.
    fn rendered(v: f64) -> String {
        let mut o = JsonObject::new();
        o.f64("v", v);
        let line = o.finish();
        line["{\"v\":".len()..line.len() - 1].to_string()
    }

    #[test]
    fn floats_round_trip_through_their_rendering() {
        for v in [1.0, 0.1, 1e-300, 2.5e-10, f64::MIN_POSITIVE, 123456.789] {
            let s = rendered(v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(rendered(f64::NAN), "null");
        assert_eq!(rendered(f64::INFINITY), "null");
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    /// The escaper the emitter was first written against: one `String`
    /// per call, built a char at a time.
    fn escape_by_chars(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    /// A float field composed as `format!("{v}")`, or `null`.
    fn float_by_format(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    #[test]
    fn in_place_rendering_matches_the_composed_form() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Quotes, backslashes, every control character, DEL, ASCII and
        // one-, two-, three- and four-byte non-ASCII characters.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '\u{7f}', 'a', 'Z', '0', ' ', '/', ':', ',', '{']);
        alphabet.extend(['é', 'ß', '€', '\u{2028}', '\u{fffd}', '😀', '\u{10ffff}']);
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        for case in 0..4000 {
            let mut string = || {
                let len = next() % 24;
                (0..len)
                    .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                    .collect::<String>()
            };
            let (key, text, inner_key) = (string(), string(), string());
            let mut float = || {
                let bits = next();
                match case % 4 {
                    // Any pattern, NaN payloads included.
                    0 => f64::from_bits(bits),
                    // Subnormals and zeros: exponent field all zeros.
                    1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
                    // Infinities and NaNs: exponent field all ones.
                    2 => f64::from_bits(bits | 0x7FF0_0000_0000_0000),
                    _ => specials[(bits % specials.len() as u64) as usize],
                }
            };
            let (x, y) = (float(), float());

            let mut o = JsonObject::with_capacity((case % 3) * 64);
            o.str(&key, &text)
                .f64("x", x)
                .object(&inner_key, |inner| {
                    inner.f64("y", y).str(&text, &key);
                })
                .u64("n", case as u64);
            let composed = format!(
                "{{\"{}\":\"{}\",\"x\":{},\"{}\":{{\"y\":{},\"{}\":\"{}\"}},\"n\":{case}}}",
                escape_by_chars(&key),
                escape_by_chars(&text),
                float_by_format(x),
                escape_by_chars(&inner_key),
                float_by_format(y),
                escape_by_chars(&text),
                escape_by_chars(&key),
            );
            assert_eq!(
                o.finish(),
                composed,
                "case {case}: {key:?} {text:?} {x:e} {y:e}"
            );
        }
    }

    #[test]
    fn parses_engine_shaped_records() {
        let line = r#"{"idx":3,"cell":"comm-dram","access_ns":2.75,"ok":true,"pareto":{"frontier":false},"none":null,"list":[1,2]}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("idx").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("cell").unwrap().as_str(), Some("comm-dram"));
        assert_eq!(v.get("access_ns").unwrap().as_f64(), Some(2.75));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("pareto").unwrap().get("frontier").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("list"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.0)
            ]))
        );
    }

    #[test]
    fn escape_and_parse_round_trip() {
        // The long mixed string walks the parser's plain-character path
        // across one-, two-, three- and four-byte characters.
        let long = "ascii é → 𝄞 \" ".repeat(5000);
        for s in [
            "a\"b",
            "tab\there",
            "uni→code",
            "back\\slash",
            "nl\n",
            &long,
        ] {
            let doc = format!("{{\"k\":\"{}\"}}", escape(s));
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(s), "{doc}");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_off_the_stack() {
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        // One megabyte of open brackets: an error, not a stack overflow.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} x",
            "nul",
            "\"open",
            "\"\\u+041\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse("1e999").unwrap().as_f64().unwrap().is_infinite());
    }

    #[test]
    fn numbers_parse_exactly() {
        assert_eq!(parse("-0.5").unwrap().as_f64(), Some(-0.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}

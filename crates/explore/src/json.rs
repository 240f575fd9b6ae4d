//! A minimal JSON emitter.
//!
//! The workspace takes no registry dependencies, so the engine's JSONL
//! records are rendered with this ~100-line emitter instead of serde. Only
//! what the records need is implemented: objects (nested ones too),
//! strings, integers and floats, all written into one buffer without a
//! temporary per field. Floats are formatted with Rust's shortest-round-trip `Display`,
//! which both parses back to the identical bit pattern and renders
//! identically across runs — the property the byte-identical-output
//! guarantee of the engine rests on.

use cactid_obs::escape_into;
use std::fmt::Write;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}

//! A minimal JSON emitter.
//!
//! The workspace takes no registry dependencies, so the engine's JSONL
//! records are rendered with this ~100-line emitter instead of serde. Only
//! what the records need is implemented: objects, strings, integers and
//! floats. Floats are formatted with Rust's shortest-round-trip `Display`,
//! which both parses back to the identical bit pattern and renders
//! identically across runs — the property the byte-identical-output
//! guarantee of the engine rests on.

use cactid_obs::escape;
use std::fmt::Write;

/// Formats an `f64` as a JSON number (shortest round-trip decimal);
/// non-finite values render as `null`, which JSON numbers cannot express.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An in-progress JSON object (`{...}`) built field by field.
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
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (shortest round-trip formatting).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&fmt_f64(v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value (e.g. a nested object) verbatim.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
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
            .raw("org", "{\"ndwl\":2}");
        assert_eq!(
            o.finish(),
            "{\"idx\":3,\"status\":\"ok\",\"x\":0.25,\"flag\":true,\"org\":{\"ndwl\":2}}"
        );
    }

    #[test]
    fn floats_round_trip_through_their_rendering() {
        for v in [1.0, 0.1, 1e-300, 2.5e-10, f64::MIN_POSITIVE, 123456.789] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}

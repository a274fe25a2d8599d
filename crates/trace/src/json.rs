//! A small hand-rolled JSON writer.
//!
//! The workspace builds offline, so there is no serde; the telemetry layer
//! needs only *emission*, and only of values it constructs itself, so a tiny
//! ordered document model with a `Display` renderer is enough. Objects
//! preserve insertion order, which is what makes `titalc profile --json`
//! byte-stable enough for golden-file tests.

use std::fmt;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (cycle counts, sizes).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float; non-finite values render as `null` (JSON has no
    /// NaN/Infinity).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Renders with two-space indentation (for human-facing reports).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => {
                let mut buf = [0_u8; 20];
                out.push_str(format_u64(*n, &mut buf));
            }
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Float(x) if x.is_finite() => {
                // Rust's shortest-roundtrip float formatting is
                // deterministic; integral values print without a dot,
                // which is still valid JSON.
                out.push_str(&x.to_string());
            }
            JsonValue::Float(_) => out.push_str("null"),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    item.render(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    escape_into(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Compact (single-line) rendering — the JSON-lines form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, None);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Formats a `u64` without going through `format!` (the hot paths of the
/// JSON-lines and timeline sinks write several per instruction).
pub(crate) fn format_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("digits are ASCII")
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every byte that needs escaping is ASCII, and so a char boundary:
    // the runs between them are copied whole.
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..at]);
        run = at + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Convenience builder for ordered objects.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    pairs: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a field (keeps insertion order).
    pub fn field(mut self, key: impl Into<String>, value: JsonValue) -> Self {
        self.pairs.push((key.into(), value));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let value = JsonObject::new()
            .field("name", JsonValue::str("x\"y\\z"))
            .field("count", JsonValue::UInt(42))
            .field("delta", JsonValue::Int(-3))
            .field("rate", JsonValue::Float(0.5))
            .field("flag", JsonValue::Bool(true))
            .field("none", JsonValue::Null)
            .field(
                "list",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)]),
            )
            .build();
        assert_eq!(
            value.to_string(),
            r#"{"name":"x\"y\\z","count":42,"delta":-3,"rate":0.5,"flag":true,"none":null,"list":[1,2]}"#
        );
    }

    #[test]
    fn pretty_rendering_is_indented() {
        let value = JsonObject::new()
            .field("a", JsonValue::UInt(1))
            .field("b", JsonValue::Array(vec![JsonValue::str("x")]))
            .build();
        assert_eq!(
            value.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut out = String::new();
        escape_into("a\nb\u{1}", &mut out);
        assert_eq!(out, "\"a\\nb\\u0001\"");
        out.clear();
        escape_into("\r\t\u{1f}é\"\\z", &mut out);
        assert_eq!(out, "\"\\r\\t\\u001fé\\\"\\\\z\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn empty_containers_stay_compact_when_pretty() {
        let value = JsonObject::new()
            .field("a", JsonValue::Array(Vec::new()))
            .field("o", JsonValue::Object(Vec::new()))
            .build();
        assert_eq!(value.pretty(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }
}

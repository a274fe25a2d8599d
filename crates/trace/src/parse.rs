//! A small hand-rolled JSON reader — the inverse of [`crate::json`].
//!
//! The sweep engine re-reads its own append-only checkpoints after a kill,
//! and the result cache re-reads records written by earlier runs, so the
//! workspace needs a parser for exactly the JSON its writer emits (plus
//! ordinary whitespace tolerance). It is a straightforward recursive-descent
//! parser into the same ordered [`JsonValue`] model; numbers come back as
//! `UInt` when non-negative and integral, `Int` when negative and integral,
//! and `Float` otherwise, so `parse(render(v))` re-renders byte-identically
//! — the property the per-record checksum scheme relies on.

use crate::json::JsonValue;
use std::fmt;

/// Where and why a parse failed. Offsets are byte offsets into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending character (or end of input).
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonParseError`] locating the first malformed byte.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return Err(parser.error("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.at,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(expected) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", expected as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run of unescaped bytes up to the next quote,
                    // backslash or end of input in one piece (multi-byte
                    // UTF-8 is legal unescaped in JSON strings). Those stops
                    // are char boundaries, so only the run itself needs
                    // decoding, which keeps the parse linear.
                    let start = self.at - 1;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.at += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.at])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let first = self.hex4()?;
        // Surrogate pair: 😀 style. The writer never emits
        // these (it escapes only control characters), but accept them.
        if (0xD800..0xDC00).contains(&first) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0_u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.at += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).expect("number bytes are ASCII");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("malformed number '{text}'"),
            })
    }
}

impl JsonValue {
    /// The object's pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up a field by key (first match) in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The array's items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A `u64` view: `UInt` directly, or a non-negative `Int`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// An `f64` view of any numeric value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Timeline validation
// ---------------------------------------------------------------------------

/// Summary of a validated `supersym.timeline/v1` document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineReport {
    /// Non-metadata events (spans, counters, instants).
    pub events: usize,
    /// Distinct `(pid, tid)` lanes that carried events.
    pub lanes: usize,
}

/// Why a timeline document failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// The document is not well-formed JSON.
    Parse(JsonParseError),
    /// The document parsed but violates a `trace_event` invariant.
    Invalid(String),
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::Parse(error) => write!(f, "{error}"),
            TimelineError::Invalid(message) => write!(f, "invalid timeline: {message}"),
        }
    }
}

impl std::error::Error for TimelineError {}

/// Validates an emitted timeline file against the Chrome `trace_event`
/// invariants the workspace's emitter guarantees:
///
/// * the document is an object with `schema == "supersym.timeline/v1"`
///   and a `traceEvents` array;
/// * every event has a known single-character `ph` plus integral `pid`
///   and `tid`; non-metadata events carry an integral `ts` (and `X` a
///   `dur`);
/// * per `(pid, tid)` lane, `ts` is monotonically nondecreasing in file
///   order;
/// * `B`/`E` pairs nest per lane and every `B` is closed;
/// * `pid`/`tid` naming is stable: no lane is renamed, and every pid that
///   carries events has exactly one `process_name`.
///
/// # Errors
///
/// [`TimelineError::Parse`] for malformed JSON, [`TimelineError::Invalid`]
/// (with the offending event's index) for the first violated invariant.
pub fn validate_timeline(text: &str) -> Result<TimelineReport, TimelineError> {
    use std::collections::HashMap;
    let invalid = |message: String| Err(TimelineError::Invalid(message));
    let doc = parse_json(text).map_err(TimelineError::Parse)?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(crate::timeline::TIMELINE_SCHEMA) {
        return invalid(format!("schema is {schema:?}"));
    }
    let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_array) else {
        return invalid("missing traceEvents array".to_string());
    };
    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    let mut open_spans: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut process_names: HashMap<u64, String> = HashMap::new();
    let mut thread_names: HashMap<(u64, u64), String> = HashMap::new();
    let mut counted = 0_usize;
    for (index, event) in events.iter().enumerate() {
        let fail =
            |message: String| Err(TimelineError::Invalid(format!("event {index}: {message}")));
        if event.as_object().is_none() {
            return fail("not an object".to_string());
        }
        let Some(ph) = event.get("ph").and_then(JsonValue::as_str) else {
            return fail("missing ph".to_string());
        };
        if !matches!(ph, "B" | "E" | "X" | "C" | "i" | "M") {
            return fail(format!("unknown ph `{ph}`"));
        }
        let Some(pid) = event.get("pid").and_then(JsonValue::as_u64) else {
            return fail("missing integral pid".to_string());
        };
        let Some(tid) = event.get("tid").and_then(JsonValue::as_u64) else {
            return fail("missing integral tid".to_string());
        };
        let lane = (pid, tid);
        let name = event.get("name").and_then(JsonValue::as_str);
        if ph == "M" {
            let Some(arg_name) = event
                .get("args")
                .and_then(|args| args.get("name"))
                .and_then(JsonValue::as_str)
            else {
                return fail("metadata event without args.name".to_string());
            };
            match name {
                Some("process_name") => {
                    if let Some(previous) = process_names.insert(pid, arg_name.to_string()) {
                        if previous != arg_name {
                            return fail(format!("pid {pid} renamed `{previous}` -> `{arg_name}`"));
                        }
                    }
                }
                Some("thread_name") => {
                    if let Some(previous) = thread_names.insert(lane, arg_name.to_string()) {
                        if previous != arg_name {
                            return fail(format!(
                                "lane {pid}:{tid} renamed `{previous}` -> `{arg_name}`"
                            ));
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        counted += 1;
        let Some(ts) = event.get("ts").and_then(JsonValue::as_u64) else {
            return fail("missing integral ts".to_string());
        };
        if let Some(&previous) = last_ts.get(&lane) {
            if ts < previous {
                return fail(format!(
                    "lane {pid}:{tid} ts went backwards ({previous} -> {ts})"
                ));
            }
        }
        last_ts.insert(lane, ts);
        match ph {
            "X" if event.get("dur").and_then(JsonValue::as_u64).is_none() => {
                return fail("X event without integral dur".to_string());
            }
            "B" => {
                open_spans
                    .entry(lane)
                    .or_default()
                    .push(name.unwrap_or("").to_string());
            }
            // The guard pops the span either way; only a pop from an
            // empty stack (no matching B) takes the arm.
            "E" if open_spans.entry(lane).or_default().pop().is_none() => {
                return fail(format!("lane {pid}:{tid} E without matching B"));
            }
            _ => {}
        }
    }
    for ((pid, tid), stack) in &open_spans {
        if let Some(name) = stack.last() {
            return invalid(format!("lane {pid}:{tid} unclosed B span `{name}`"));
        }
    }
    for &(pid, _) in last_ts.keys() {
        if !process_names.contains_key(&pid) {
            return invalid(format!("pid {pid} has events but no process_name"));
        }
    }
    Ok(TimelineReport {
        events: counted,
        lanes: last_ts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonObject;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse_json("0.5").unwrap(), JsonValue::Float(0.5));
        assert_eq!(parse_json("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), JsonValue::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let value = parse_json(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(value.get("c").and_then(JsonValue::as_str), Some("x"));
        let items = value.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn object_order_is_preserved() {
        let value = parse_json(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = JsonValue::str("a\"b\\c\nd\te\u{1}f\u{263A}");
        let rendered = original.to_string();
        assert_eq!(parse_json(&rendered).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse_json(r#""😀""#).unwrap(), JsonValue::str("\u{1F600}"));
    }

    #[test]
    fn render_parse_render_is_stable() {
        // The checksum scheme re-renders parsed records; the second render
        // must be byte-identical to the first even for integral floats
        // (Float(2.0) renders "2", re-parses as UInt(2), renders "2").
        let value = JsonObject::new()
            .field("name", JsonValue::str("cell-0"))
            .field("count", JsonValue::UInt(42))
            .field("delta", JsonValue::Int(-3))
            .field("ilp", JsonValue::Float(2.5))
            .field("speedup", JsonValue::Float(2.0))
            .field("flag", JsonValue::Bool(true))
            .field("none", JsonValue::Null)
            .field(
                "list",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::str("x")]),
            )
            .build();
        let first = value.to_string();
        let reparsed = parse_json(&first).unwrap();
        assert_eq!(reparsed.to_string(), first);
    }

    #[test]
    fn truncated_input_is_an_error() {
        for text in [
            "{\"a\":1",
            "[1,2",
            "\"unterminated",
            "{\"a\"",
            "tru",
            "{\"ok\":tr",
            "12.",
            "",
        ] {
            assert!(parse_json(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let value = parse_json(" {\n  \"a\" : [ 1 , 2 ]\n}\n").unwrap();
        assert_eq!(
            value.get("a").and_then(JsonValue::as_array).unwrap().len(),
            2
        );
    }

    #[test]
    fn huge_integers_become_floats_or_ints() {
        assert_eq!(
            parse_json("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        assert_eq!(
            parse_json("-9223372036854775808").unwrap(),
            JsonValue::Int(i64::MIN)
        );
    }
}

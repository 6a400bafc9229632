//! Hand-rolled JSON serialization for telemetry export, plus a minimal
//! parser used by tests to validate exported lines.
//!
//! No external dependencies: the serializer writes one RFC 8259-compliant
//! object per event, and the parser is a small recursive-descent reader
//! that accepts exactly standard JSON (it exists so integration tests can
//! check "every exported line parses", not as a general-purpose parser).

use std::fmt::Write as _;

use crate::event::{Event, Value};

/// Serializes one event as a single JSON object (one JSONL line, without
/// the trailing newline):
///
/// ```json
/// {"event":"governor.decision","t_us":500000,"host_us":1234,"fields":{"trigger":"tick","rate_hz":20}}
/// ```
///
/// `host_us` is omitted when the event carries no host stamp. Non-finite
/// floats serialize as `null`.
pub fn event_to_json(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"event\":");
    write_string(&mut out, event.name);
    let _ = write!(out, ",\"t_us\":{}", event.sim_us);
    if let Some(host) = event.host_us {
        let _ = write!(out, ",\"host_us\":{host}");
    }
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, key);
        out.push(':');
        write_value(&mut out, value);
    }
    out.push_str("}}");
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => write_string(out, s),
    }
}

/// Writes `s` as a JSON string literal (quoted, escaped) into `out`.
pub fn write_string(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, or `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Serializes any [`Json`] value into `out` as compact standard JSON.
///
/// The inverse of [`parse`] up to number formatting: numbers use Rust's
/// shortest round-trip `f64` formatting, so `parse(serialize(v)) == v`
/// for every finite tree (the parser never produces non-finite numbers;
/// should one be constructed by hand it serializes as `null`).
///
/// # Examples
///
/// ```
/// use ccdem_obs::json::{parse, write_json, Json};
///
/// let doc = Json::Arr(vec![Json::Num(1.5), Json::Str("a\"b".into()), Json::Null]);
/// let mut out = String::new();
/// write_json(&mut out, &doc);
/// assert_eq!(out, r#"[1.5,"a\"b",null]"#);
/// assert_eq!(parse(&out).unwrap(), doc);
/// ```
pub fn write_json(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_json(out, member);
            }
            out.push('}');
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact JSON text, as produced by [`write_json`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_json(&mut out, self);
        f.write_str(&out)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so without a limit a hostile file of
/// nested `[` would overflow the stack. The deepest document this
/// project writes, a fleet checkpoint, nests 6 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// including trailing non-whitespace after the document and nesting
/// deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// use ccdem_obs::json::{parse, Json};
///
/// let doc = parse(r#"{"event":"x","t_us":5,"ok":true}"#).unwrap();
/// assert_eq!(doc.get("t_us").and_then(Json::as_f64), Some(5.0));
/// assert!(parse("{oops}").is_err());
/// ```
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self
            .text
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word))
        {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u code point".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one code point: every step consumes whole
                    // code points, so `pos` sits on a char boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("split code point at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // Every byte consumed above is ASCII, so the slice is a `str`.
        let text = self.text.get(start..self.pos).unwrap_or_default();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_simkit::time::SimTime;

    #[test]
    fn event_round_trips_through_the_parser() {
        let mut e = Event::new("meter.frame", SimTime::from_millis(500));
        e.host_us = Some(42);
        e.field("class", "meaningful")
            .field("sampled_px", 9216usize)
            .field("diff_us", 3.25f64)
            .field("boost", false)
            .field("delta", -2i64);
        let line = event_to_json(&e);
        let doc = parse(&line).expect("serialized event must parse");
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("meter.frame"));
        assert_eq!(doc.get("t_us").and_then(Json::as_f64), Some(500_000.0));
        assert_eq!(doc.get("host_us").and_then(Json::as_f64), Some(42.0));
        let fields = doc.get("fields").expect("fields object");
        assert_eq!(
            fields.get("class").and_then(Json::as_str),
            Some("meaningful")
        );
        assert_eq!(
            fields.get("sampled_px").and_then(Json::as_f64),
            Some(9216.0)
        );
        assert_eq!(fields.get("diff_us").and_then(Json::as_f64), Some(3.25));
        assert_eq!(fields.get("boost").and_then(Json::as_bool), Some(false));
        assert_eq!(fields.get("delta").and_then(Json::as_f64), Some(-2.0));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut e = Event::new("x", SimTime::ZERO);
        e.field("bad", f64::NAN).field("worse", f64::INFINITY);
        let line = event_to_json(&e);
        let doc = parse(&line).expect("null-bearing event parses");
        assert_eq!(doc.get("fields").unwrap().get("bad"), Some(&Json::Null));
        assert_eq!(doc.get("fields").unwrap().get("worse"), Some(&Json::Null));
    }

    #[test]
    fn host_stamp_is_optional() {
        let e = Event::new("x", SimTime::ZERO);
        let line = event_to_json(&e);
        assert!(!line.contains("host_us"));
        assert!(parse(&line).is_ok());
    }

    #[test]
    fn parser_accepts_nested_documents() {
        let doc = parse(r#"{"a":[1,2.5,{"b":null}],"c":"\u00e9"}"#).unwrap();
        match doc.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1], Json::Num(2.5));
                assert_eq!(items[2].get("b"), Some(&Json::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("é"));
    }

    #[test]
    fn write_json_round_trips_nested_trees() {
        let doc = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5e300)]),
            ),
            ("esc\n".into(), Json::Str("tab\there \u{1F600}".into())),
            (
                "deep".into(),
                Json::Arr(vec![Json::Obj(vec![("x".into(), Json::Null)])]),
            ),
            ("flag".into(), Json::Bool(false)),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn write_json_turns_nonfinite_numbers_into_null() {
        let mut out = String::new();
        write_json(
            &mut out,
            &Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]),
        );
        assert_eq!(out, "[null,null]");
    }

    #[test]
    fn parser_limits_nesting_depth() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "wrong error: {err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(parse(&nested(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "truefalse",
            "{\"a\":1} x",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}

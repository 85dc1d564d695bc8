//! The workspace's one JSON reader, and the escaper and float writer
//! every emitter shares — the workspace resolves no external
//! registries, so (de)serialization stays in-tree.
//!
//! Every JSON input goes through this reader: instance files and job
//! objects (via `qbss_instances::io`), sweep bodies, stream JSONL,
//! baselines and traces. [`parse`] reads a whole document; [`Cursor`]
//! lets a caller walk the outer structure itself and read the values
//! inside it one at a time. The grammar is strict where it matters for
//! replay: numbers must be finite JSON numbers (no `NaN`/`Infinity`
//! tokens, no `1e999`), so a reader never hands a non-finite value to
//! code that compares it. Strings are scanned once (linear time) and
//! nesting is capped at 128 levels, so no input can make the reader
//! quadratic or recurse it off its thread's stack.

use std::fmt::{self, Write as _};

/// Escapes a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats a float as a JSON number: shortest-round-trip `{}` for
/// finite values (re-parses bit-identically), `null` otherwise (JSON
/// has no NaN/Inf).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes a [`JsonValue`] back to canonical JSON: field order
/// preserved, floats via [`json_f64`], strings via [`json_escape`] —
/// the one formatter shared by the trace summary, the HTML report and
/// the profile fold, so every view agrees byte-for-byte on shared
/// values.
pub fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => json_f64(*n),
        JsonValue::Str(s) => format!("\"{}\"", json_escape(s)),
        JsonValue::Arr(items) => {
            format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(", "))
        }
        JsonValue::Obj(kvs) => format!(
            "{{{}}}",
            kvs.iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// A parsed JSON value (the subset the trace schema uses — which is
/// all of JSON, numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest below the value being read.
/// The reader recurses once per level, so the cap keeps any input from
/// overflowing a thread's stack; the deepest committed JSON file nests
/// 6 levels.
const MAX_DEPTH: usize = 128;

/// A syntax error and the byte offset of the input it refers to (the
/// end of the input, for truncated documents).
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

fn err(pos: usize, message: impl Into<String>) -> JsonError {
    JsonError { pos, message: message.into() }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut c = Cursor::new(input);
    c.value().and_then(|v| c.end().map(|()| v)).map_err(|e| e.to_string())
}

/// A read position in one JSON document, for callers that walk its
/// outer structure themselves and read the values inside it whole:
/// `qbss_instances::io` decodes `{"jobs": [...]}` one job at a time
/// this way instead of building the whole tree first. Every method
/// skips leading whitespace, and an error leaves the cursor on the
/// offending byte.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self { bytes: input.as_bytes(), pos: 0 }
    }

    /// The byte offset of the next token.
    pub fn pos(&mut self) -> usize {
        skip_ws(self.bytes, &mut self.pos);
        self.pos
    }

    /// Consumes `c` if it comes next.
    pub fn eat(&mut self, c: u8) -> bool {
        eat(self.bytes, &mut self.pos, c)
    }

    /// Consumes `c`, or fails.
    pub fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        expect(self.bytes, &mut self.pos, c)
    }

    /// After an item of an array or object closed by `close`: consumes
    /// `,` and answers true, or consumes `close` and answers false.
    pub fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        more(self.bytes, &mut self.pos, close)
    }

    /// Reads a string.
    pub fn string(&mut self) -> Result<String, JsonError> {
        parse_string(self.bytes, &mut self.pos)
    }

    /// Reads one value, nested at most 128 levels deep.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        parse_value(self.bytes, &mut self.pos, 0)
    }

    /// Fails unless only whitespace is left.
    pub fn end(&mut self) -> Result<(), JsonError> {
        if self.pos() == self.bytes.len() {
            Ok(())
        } else {
            Err(err(self.pos, "trailing data"))
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> bool {
    skip_ws(b, pos);
    let hit = b.get(*pos) == Some(&c);
    *pos += usize::from(hit);
    hit
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if eat(b, pos, c) {
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

fn more(b: &[u8], pos: &mut usize, close: u8) -> Result<bool, JsonError> {
    if eat(b, pos, b',') {
        Ok(true)
    } else if eat(b, pos, close) {
        Ok(false)
    } else {
        Err(err(*pos, format!("expected `,` or `{}`", close as char)))
    }
}

/// Reads a value whose enclosing arrays and objects are `depth` deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "bad literal"))
    }
}

/// Reads a finite number in RFC 8259's grammar,
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, so `+0`, `4.`,
/// `.5` and `03` are errors at the byte that breaks it. JSON has no
/// `NaN` or `Infinity`, and a literal too large for an `f64` (`1e999`)
/// is rejected, not rounded.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let bad = |pos: usize, what: &str| err(pos, format!("expected a finite number ({what})"));
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            if b.get(*pos).is_some_and(u8::is_ascii_digit) {
                return Err(bad(*pos, "no leading zeros"));
            }
        }
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(bad(*pos, "a digit starts it")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(bad(*pos, "a digit follows `.`"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(bad(*pos, "the exponent has a digit"));
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(JsonValue::Num)
        .ok_or_else(|| err(start, "expected a finite number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step.
        // Both are ASCII, so a run of UTF-8 input ends on a char
        // boundary, and every byte is scanned once.
        let start = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        let run = std::str::from_utf8(&b[start..*pos]);
        out.push_str(run.map_err(|_| err(start, "invalid UTF-8 in string"))?);
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign.
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogates degrade to the replacement char —
                        // our emitters never produce them.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'{')?;
    // Most objects are small records (a job has six fields): room for
    // eight up front spares a decode the 0 → 4 → 8 growth steps, one
    // extra allocation and copy per object.
    let mut fields = Vec::with_capacity(8);
    let mut open = !eat(b, pos, b'}');
    while open {
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos, depth)?));
        open = more(b, pos, b'}')?;
    }
    Ok(JsonValue::Obj(fields))
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    let mut open = !eat(b, pos, b']');
    while open {
        items.push(parse_value(b, pos, depth)?);
        open = more(b, pos, b']')?;
    }
    Ok(JsonValue::Arr(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ";
        let doc = format!("{{\"k\": \"{}\"}}", json_escape(nasty));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn parses_the_event_shapes() {
        let v = parse(
            "{\"t\": \"span\", \"id\": 3, \"parent\": null, \"dur_us\": 12.0, \
             \"fields\": {\"alpha\": 2.5, \"ok\": true}, \"tags\": [1, 2]}",
        )
        .expect("parse");
        assert_eq!(v.get("id").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("parent"), Some(&JsonValue::Null));
        assert_eq!(v.get("fields").and_then(|f| f.get("alpha")).and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("tags"), Some(&JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x", "nul", "1e999", "NaN", "-Infinity",
            "\"\\u+041\"", "\"\\u04\"",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse("\"\\u0041\"").expect("four hex digits"), JsonValue::Str("A".into()));
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        // Each malformed number is rejected at the byte that breaks the
        // grammar, inside a document too.
        for (bad, at) in
            [("+0", 0), ("4.", 2), (".5", 0), ("03", 1), ("-", 1), ("1e", 2), ("--1", 1)]
        {
            let e = parse(bad).unwrap_err();
            assert!(e.ends_with(&format!(" at byte {at}")), "{bad}: {e}");
            let e = parse(&format!("[1, {bad}]")).unwrap_err();
            assert!(e.ends_with(&format!(" at byte {}", at + 4)), "[1, {bad}]: {e}");
        }
        // Valid forms read as `str::parse` reads them, bit for bit.
        for ok in [
            "0", "-0", "7", "-12", "0.5", "-0.0", "1e3", "1E+3", "2e-3", "-12.5e-07", "0.1",
            "9007199254740993", "123456789012345678901234567890", "2.2250738585072014e-308",
            "5e-324", "1.7976931348623157e308",
        ] {
            let want = ok.parse::<f64>().expect("valid").to_bits();
            let got = parse(ok).ok().and_then(|v| v.as_f64()).map(f64::to_bits);
            assert_eq!(got, Some(want), "{ok}");
        }
    }

    #[test]
    fn every_committed_json_file_parses() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut pending = vec![root];
        let mut parsed = 0;
        while let Some(dir) = pending.pop() {
            for entry in std::fs::read_dir(&dir).expect("readable dir") {
                let path = entry.expect("dir entry").path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if path.is_dir() {
                    if !name.starts_with('.') && name != "target" {
                        pending.push(path);
                    }
                } else if name.ends_with(".json") {
                    let text = std::fs::read_to_string(&path).expect("utf-8 json");
                    if let Err(e) = parse(&text) {
                        panic!("{}: {e}", path.display());
                    }
                    parsed += 1;
                }
            }
        }
        assert!(parsed >= 9, "found only {parsed} JSON files");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(too_deep.contains("nesting deeper than 128 levels"), "{too_deep}");
        // Far past the cap, on a thread whose stack the uncapped reader
        // overflowed: a syntax error, not an abort.
        let body = "[".repeat(20_000);
        let result = std::thread::spawn(move || parse(&body)).join().expect("no overflow");
        assert!(result.is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let doc = format!("{{\"s\": \"{}\\n\"}}", "x".repeat(1 << 20));
        let started = std::time::Instant::now();
        let v = parse(&doc).expect("parse");
        let elapsed = started.elapsed();
        assert_eq!(v.get("s").and_then(JsonValue::as_str).map(str::len), Some((1 << 20) + 1));
        assert!(elapsed.as_secs_f64() < 1.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn cursor_reads_values_one_by_one_and_locates_errors() {
        let mut c = Cursor::new("[{\"a\": 1},\n {\"a\": 2}] ");
        c.expect(b'[').expect("open");
        let mut items = Vec::new();
        let mut open = !c.eat(b']');
        while open {
            items.push(c.value().expect("item"));
            open = c.more(b']').expect("separator");
        }
        c.end().expect("only whitespace left");
        assert_eq!(items.len(), 2);
        let mut c = Cursor::new("[1\n 2]");
        c.expect(b'[').expect("open");
        c.value().expect("item");
        let e = c.more(b']').unwrap_err();
        assert_eq!((e.pos, e.message.as_str()), (4, "expected `,` or `]`"));
        assert_eq!(e.to_string(), "expected `,` or `]` at byte 4");
    }

    #[test]
    fn render_round_trips_canonically() {
        let doc = "{\"a\": 1, \"b\": [true, null, \"x;y\"], \"c\": {\"n\": 2.5}}";
        let v = parse(doc).expect("parse");
        assert_eq!(render(&v), doc);
        assert_eq!(parse(&render(&v)).expect("re-parse"), v);
    }

    #[test]
    fn shortest_round_trip_floats_re_parse_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 12345.678] {
            let s = json_f64(v);
            let back = parse(&s).expect("number").as_f64().expect("num");
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(json_f64(f64::NAN), "null");
    }
}

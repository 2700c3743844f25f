//! The workspace's shared hand-written JSON vocabulary.
//!
//! The build is fully offline, so every JSON document the workbench
//! emits (`synth --json` reports, `BENCH_fsim.json`, the trace
//! exporters) is hand-written. This module is the single home of the
//! three things those emitters kept reimplementing:
//!
//! * [`escape`] — string-literal escaping;
//! * [`number_f64`] — `f64` formatting that is always a valid JSON
//!   token (non-finite values degrade to `null`);
//! * [`Obj`] / [`Arr`] — compact single-line object/array writers
//!   emitting the workbench's `"key": value` house style;
//!
//! plus a minimal recursive-descent [`parse`]r, the one JSON reader of
//! the workspace: it decodes both newline-JSON wire protocols (sweep
//! coordinator ⇄ worker frames, serve requests and responses), sweep
//! checkpoints and the serve journal on resume, and the files
//! `trace-check`, `trace-view` and `perf-diff` read. It runs in time
//! linear in its input: a string's unescaped runs are validated and
//! copied whole, never re-scanned per character.

/// Escapes `s` as a complete JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a valid JSON number token: integral values get a
/// trailing `.0`, and non-finite values (never produced by healthy
/// reports, but possible in degenerate sweeps) degrade to `null`
/// rather than emit unparseable text.
pub fn number_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// A compact single-line JSON object writer (`{"a": 1, "b": "x"}`).
#[derive(Debug, Clone, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Adds `key` with a pre-rendered JSON value (object, array, or any
    /// token the caller already formatted).
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Obj {
        self.sep();
        self.buf.push_str(&escape(key));
        self.buf.push_str(": ");
        self.buf.push_str(value);
        self
    }

    /// Adds a string field (value escaped).
    pub fn string(&mut self, key: &str, value: &str) -> &mut Obj {
        let v = escape(value);
        self.raw(key, &v)
    }

    /// Adds an unsigned integer field.
    pub fn number_u64(&mut self, key: &str, value: u64) -> &mut Obj {
        self.raw(key, &value.to_string())
    }

    /// Adds a float field via [`number_f64`].
    pub fn number_f64(&mut self, key: &str, value: f64) -> &mut Obj {
        let v = number_f64(value);
        self.raw(key, &v)
    }

    /// Adds a boolean field.
    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Obj {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(&mut self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// A compact single-line JSON array writer (`[1, "x", {}]`).
#[derive(Debug, Clone, Default)]
pub struct Arr {
    buf: String,
}

impl Arr {
    /// Starts an empty array.
    pub fn new() -> Arr {
        Arr { buf: String::new() }
    }

    /// Appends a pre-rendered JSON value.
    pub fn raw(&mut self, value: &str) -> &mut Arr {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push_str(value);
        self
    }

    /// Appends a string element (escaped).
    pub fn string(&mut self, value: &str) -> &mut Arr {
        let v = escape(value);
        self.raw(&v)
    }

    /// Closes the array and returns the rendered text.
    pub fn finish(&mut self) -> String {
        format!("[{}]", self.buf)
    }
}

/// A parsed JSON value — the minimal model the validating parser needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order (duplicate keys kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value's fields in source order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// anything else after the first value is an error).
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next `"` or `\` in one piece.
            // Both are ASCII, so the run ends on a char boundary and is
            // whole UTF-8: validating it once keeps the parse linear.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // The run stopped at a `\`.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped
                            // low one is one astral character (Python
                            // writes 🦀 as `\ud83e\udd80`); a lone
                            // surrogate, which no `char` can hold,
                            // reads as the replacement character.
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xdc00..0xe000).contains(&low) {
                                    code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`:
    /// ASCII hex digits only (`u32::from_str_radix` would take a sign).
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        hex.iter()
            .try_fold(0, |code, &b| match char::from(b).to_digit(16) {
                Some(digit) => Ok(code << 4 | digit),
                None => Err("invalid digit found in string".to_string()),
            })
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_covers_specials_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\t\r\u{1}"), "\"\\t\\r\\u0001\"");
        assert_eq!(escape("plain"), "\"plain\"");
    }

    #[test]
    fn number_f64_is_always_a_token() {
        assert_eq!(number_f64(2.0), "2.0");
        assert_eq!(number_f64(2.5), "2.5");
        assert_eq!(number_f64(f64::NAN), "null");
        assert_eq!(number_f64(f64::INFINITY), "null");
    }

    #[test]
    fn writers_compose_and_roundtrip() {
        let mut inner = Arr::new();
        inner.raw("1").string("two").raw("null");
        let mut o = Obj::new();
        o.string("name", "x\"y")
            .number_u64("n", 7)
            .number_f64("f", 1.5)
            .boolean("ok", true)
            .raw("list", &inner.finish());
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("x\"y"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("list").and_then(Value::as_array).unwrap().len(), 3);
    }

    #[test]
    fn escaped_strings_roundtrip_through_the_parser() {
        for s in [
            "",
            "quote\" backslash\\ nl\n tab\t",
            "µ unicode 木",
            "\u{7}",
        ] {
            let v = parse(&escape(s)).unwrap();
            assert_eq!(v.as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("truth").is_err());
    }

    #[test]
    fn parser_accepts_nested_documents() {
        let v = parse(r#" {"a": [1, {"b": null}, -2.5e1], "c": false} "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[2].as_f64(), Some(-25.0));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
    }

    /// One code point drawn from a class that exercises a distinct
    /// path of the escaper or the parser: printable ASCII, the three
    /// characters with escapes of their own, C0 controls, and 2-, 3-
    /// and 4-byte UTF-8 (no surrogates, which `char` cannot hold).
    fn code_point(class: u8, n: u32) -> char {
        let c = match class {
            0..=2 => 0x20 + n % 0x5f,
            3 => ['"', '\\', '/'][n as usize % 3] as u32,
            4 => n % 0x20,
            5 => 0x80 + n % 0x780,
            6 => [0x800 + n % 0xd000, 0xe000 + n % 0x2000][n as usize % 2],
            _ => 0x1_0000 + n % 0x10_0000,
        };
        char::from_u32(c).expect("every class avoids surrogates")
    }

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0u8..8, 0u32..0x10_0000), 0..48)
            .prop_map(|cs| cs.into_iter().map(|(k, n)| code_point(k, n)).collect())
    }

    proptest! {
        #[test]
        fn escaped_strings_of_any_code_points_roundtrip(s in text(), key in text()) {
            prop_assert_eq!(parse(&escape(&s)), Ok(Value::Str(s.clone())));
            let mut arr = Arr::new();
            arr.string(&s).raw("1").string(&key);
            let mut obj = Obj::new();
            obj.string(&key, &s).raw("list", &arr.finish());
            let want = Value::Object(vec![
                (key.clone(), Value::Str(s.clone())),
                (
                    "list".into(),
                    Value::Array(vec![Value::Str(s), Value::Num(1.0), Value::Str(key)]),
                ),
            ]);
            prop_assert_eq!(parse(&obj.finish()), Ok(want));
        }
    }

    #[test]
    fn string_errors_keep_their_messages() {
        let long = format!("[\"{}", "run µ 木 ".repeat(20_000));
        assert_eq!(parse(&long), Err("unterminated string".into()));
        assert_eq!(parse("\"ab\\q\""), Err("bad escape Some(113)".into()));
        assert_eq!(parse("\"ab\\"), Err("bad escape None".into()));
        assert_eq!(parse("\"ab\\u12"), Err("truncated \\u escape".into()));
        assert_eq!(
            parse("{\"k\\u00\": 1}"),
            Err("invalid digit found in string".into())
        );
    }

    /// An escaped surrogate pair is one astral character (Python's
    /// `json.dumps("🦀")` writes `"\ud83e\udd80"`); a surrogate
    /// without its partner reads as U+FFFD and leaves what follows alone.
    #[test]
    fn escaped_surrogate_pairs_combine_and_lone_surrogates_degrade() {
        let s = |v: &str| Ok(Value::Str(v.to_string()));
        assert_eq!(parse(r#""\ud83e\udd80""#), s("🦀"));
        assert_eq!(parse(r#""a\uD83E\uDD80b""#), s("a🦀b"));
        assert_eq!(
            parse(r#"{"\ud83e\udd80": 1}"#).unwrap().get("🦀"),
            Some(&Value::Num(1.0))
        );
        assert_eq!(parse(r#""\ud83e""#), s("\u{fffd}"));
        assert_eq!(parse(r#""\udd80""#), s("\u{fffd}"));
        assert_eq!(parse(r#""\ud83ex""#), s("\u{fffd}x"));
        assert_eq!(parse(r#""\ud83e\n""#), s("\u{fffd}\n"));
        assert_eq!(parse(r#""\ud83e\u0041""#), s("\u{fffd}A"));
        assert_eq!(parse(r#""\ud83e\ud83e\udd80""#), s("\u{fffd}🦀"));
        assert_eq!(parse(r#""\udd80\ud83e""#), s("\u{fffd}\u{fffd}"));
    }

    /// A `\u` escape takes exactly four hex digits: no sign, no space.
    #[test]
    fn unicode_escapes_take_only_hex_digits() {
        assert_eq!(
            parse(r#""\u00e9\u00C9""#),
            Ok(Value::Str("\u{e9}\u{c9}".into()))
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004g""#,
            r#""\ud83e\u+d80""#,
        ] {
            assert_eq!(
                parse(bad),
                Err("invalid digit found in string".into()),
                "{bad}"
            );
        }
    }

    /// Documents far larger than any frame the workspace writes still
    /// parse: a quadratic string scan would take minutes here.
    #[test]
    fn multi_megabyte_strings_parse_and_roundtrip() {
        let chunk = format!("{}\"\\\n\t\u{1}µ木🦀/", "plain ascii run ".repeat(64));
        let big = chunk.repeat((4 << 20) / chunk.len());
        assert!(big.len() >= 4_000_000);
        assert_eq!(parse(&escape(&big)), Ok(Value::Str(big.clone())));

        // A checkpoint record line whose canonical payload, itself a
        // JSON object, is about 1 MiB.
        let message = chunk.repeat((1 << 20) / chunk.len());
        let mut payload = Obj::new();
        payload.number_u64("index", 3).string("message", &message);
        let canonical = payload.finish();
        let mut line = Obj::new();
        line.number_u64("v", 1)
            .string("key", "00000000000000ab")
            .number_u64("index", 3)
            .string("canonical", &canonical);
        let v = parse(&line.finish()).unwrap();
        let back = v.get("canonical").and_then(Value::as_str).unwrap();
        assert_eq!(back, canonical);
        let inner = parse(back).unwrap();
        assert_eq!(
            inner.get("message").and_then(Value::as_str),
            Some(message.as_str())
        );
    }
}

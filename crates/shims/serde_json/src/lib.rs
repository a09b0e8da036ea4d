//! Local stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`] / [`to_string_pretty`] over the shim `serde::Serialize`,
//! and [`from_str`] / [`from_value`] over the shim `serde::Deserialize`
//! (backed by the hand-rolled recursive-descent parser in [`parse`]).

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

/// Serialization or deserialization error. The shim renderer is total, so
/// serialization never actually produces one; parsing and deserialization
/// report the first syntax or shape mismatch.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses `s` into a [`Value`] tree and deserializes `T` from it.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or when the value tree does not
/// match `T`'s shape.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v).map_err(|e| Error(e.to_string()))
}

/// Deserializes `T` from an already-parsed [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] when the value tree does not match `T`'s shape.
pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v).map_err(|e| Error(e.to_string()))
}

/// Parses `s` as one JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax error (with a byte
/// offset) or trailing non-whitespace input.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

/// Deepest nesting of arrays and objects [`parse`] accepts, as in real
/// serde_json: deeper input is an error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than the recursion limit"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("unpaired surrogate escape"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            // hex4 leaves pos after the digits; skip the
                            // outer `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a
                    // char boundary of the input `&str`.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = self.text.get(start..self.pos);
                    out.push_str(run.ok_or_else(|| self.err("invalid utf-8"))?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let Some(digits) = self.bytes.get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        let s = std::str::from_utf8(digits)
            .ok()
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if text.starts_with('-') {
                // "-0" must stay a float: i64 has no negative zero, and
                // result round-tripping (shard files, resume journals)
                // needs render(parse("-0")) == "-0" bit-identically.
                if text != "-0" {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Value::I64(n));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            // Out-of-range integers fall through to f64, like real
            // serde_json's arbitrary-precision-off behaviour.
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

fn render(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{}` prints integral floats without a fraction ("1"),
                // which is still valid JSON, exactly like real serde_json
                // prints `1.0` — close enough for machine consumption.
                out.push_str(&format!("{x}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            if !items.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out);
            }
            if !entries.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object() {
        let v = Value::Obj(vec![
            ("design".into(), Value::Str("Test".into())),
            ("n".into(), Value::U64(3)),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"design":"Test","n":3}"#);
    }

    #[test]
    fn pretty_array() {
        let v = Value::Arr(vec![Value::U64(1), Value::U64(2)]);
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn escapes_strings() {
        let v = Value::Str("a\"b\\c\n".into());
        assert_eq!(to_string(&v).unwrap(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string_pretty(&Value::Arr(vec![])).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Obj(vec![])).unwrap(), "{}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("42").unwrap(), Value::U64(42));
        assert_eq!(parse("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse("2.5").unwrap(), Value::F64(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(
            v,
            Value::Obj(vec![
                (
                    "a".into(),
                    Value::Arr(vec![
                        Value::U64(1),
                        Value::Obj(vec![("b".into(), Value::Null)])
                    ])
                ),
                ("c".into(), Value::Str("x".into())),
            ])
        );
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\nd\"").unwrap(),
            Value::Str("a\"b\\c\nd".into())
        );
        // \u escapes, including a surrogate pair (U+1F600).
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".into())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired surrogate");
        assert!(parse("\"\\u+041\"").is_err(), "sign in a \\u escape");
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn negative_zero_round_trips_as_a_float() {
        // i64 cannot hold -0.0; collapsing it to integer 0 would break
        // the render→parse→render identity journals and shard files
        // depend on.
        let v = parse("-0").unwrap();
        assert_eq!(v, Value::F64(-0.0));
        match v {
            Value::F64(x) => assert!(x.is_sign_negative()),
            other => panic!("expected F64, got {other:?}"),
        }
        assert_eq!(to_string(&parse("-0").unwrap()).unwrap(), "-0");
        assert_eq!(parse("-0.0").unwrap(), Value::F64(-0.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn round_trips_render_and_parse() {
        let v = Value::Obj(vec![
            ("n".into(), Value::U64(3)),
            ("neg".into(), Value::I64(-9)),
            ("x".into(), Value::F64(1.25)),
            ("s".into(), Value::Str("a\"b\n".into())),
            (
                "list".into(),
                Value::Arr(vec![Value::Bool(false), Value::Null]),
            ),
        ]);
        for rendered in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(parse(&rendered).unwrap(), v, "via {rendered}");
        }
    }

    /// String parsing is linear: a 4 MB string (ASCII runs, multi-byte
    /// scalars and escapes) parses in one pass over the input.
    #[test]
    fn parses_a_four_megabyte_string() {
        let unit = "sweep cell Web Search é 😀 \\n \\u0041 \\\" ";
        let want_unit = "sweep cell Web Search é 😀 \n A \" ";
        let reps = (4 << 20) / unit.len();
        let doc = format!("\"{}\"", unit.repeat(reps));
        assert!(doc.len() > (4 << 20) - unit.len());
        assert_eq!(parse(&doc).unwrap(), Value::Str(want_unit.repeat(reps)));
    }

    /// Nesting past [`MAX_DEPTH`] is an error, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "{\"k\":[", "]}")).is_err());
        assert!(parse(&nest(MAX_DEPTH / 2, "{\"k\":[", "]}")).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1, "[", "]")).is_err());
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        // The depth unwinds: siblings at the limit are fine.
        let two = format!(
            "[{},{}]",
            nest(MAX_DEPTH - 1, "[", "]"),
            nest(MAX_DEPTH - 1, "[", "]")
        );
        assert!(parse(&two).is_ok());
    }

    /// A document touching every token kind, shaped like a sweep's
    /// `{summary, cells}` output.
    fn corpus() -> Value {
        let cell = |name: &str, x: f64| {
            Value::Obj(vec![
                ("design".into(), Value::Str(name.into())),
                (
                    "workload".into(),
                    Value::Str("Web Search \"é\" 😀\n\u{1}".into()),
                ),
                ("cache_bytes".into(), Value::U64(u64::MAX)),
                ("delta".into(), Value::I64(-42)),
                ("speedup".into(), Value::F64(x)),
                ("neg_zero".into(), Value::F64(-0.0)),
                ("tiny".into(), Value::F64(1.5e-7)),
                (
                    "flags".into(),
                    Value::Arr(vec![Value::Bool(true), Value::Bool(false), Value::Null]),
                ),
                (
                    "empty".into(),
                    Value::Obj(vec![("a".into(), Value::Arr(vec![]))]),
                ),
            ])
        };
        Value::Obj(vec![
            (
                "summary".into(),
                Value::Obj(vec![("cells".into(), Value::U64(2))]),
            ),
            (
                "cells".into(),
                Value::Arr(vec![cell("Unison", 1.25), cell("Alloy", 0.875)]),
            ),
        ])
    }

    use proptest::prelude::*;

    proptest! {
        /// Every proper prefix of a document is an error (its closing
        /// brace is missing), and a document with random characters
        /// replaced, inserted or deleted either errors or parses to a
        /// value whose rendering parses back to the same rendering.
        /// Neither case may panic.
        #[test]
        fn truncated_and_mutated_documents_never_panic(
            pretty in any::<bool>(),
            cut in any::<u64>(),
            edits in proptest::collection::vec((any::<u64>(), 0u8..3, 0usize..24), 1..8),
        ) {
            let v = corpus();
            let doc = if pretty { to_string_pretty(&v) } else { to_string(&v) }.unwrap();
            prop_assert_eq!(parse(&doc).unwrap(), v.clone());

            let chars: Vec<char> = doc.chars().collect();
            let cut = (cut % chars.len() as u64) as usize;
            let prefix: String = chars[..cut].iter().collect();
            prop_assert!(parse(&prefix).is_err(), "prefix of {} chars parsed", cut);

            const ALPHABET: [char; 24] = [
                '{', '}', '[', ']', '"', '\\', ',', ':', '-', '+', '.', 'e', '0', '9', 'u', 'n',
                't', 'f', ' ', '\n', 'é', '😀', '\u{0}', 'x',
            ];
            let mut mutated = chars;
            for (at, op, pick) in edits {
                let at = (at % (mutated.len() as u64 + 1)) as usize;
                let c = ALPHABET[pick];
                match op {
                    0 if at < mutated.len() => mutated[at] = c,
                    1 if at < mutated.len() => {
                        mutated.remove(at);
                    }
                    _ => mutated.insert(at, c),
                }
            }
            let mutated: String = mutated.into_iter().collect();
            if let Ok(parsed) = parse(&mutated) {
                // Rendering is a fixed point (a non-finite float renders
                // as `null`, so compare renderings, not values).
                let rendered = to_string(&parsed).unwrap();
                let again = to_string(&parse(&rendered).unwrap()).unwrap();
                prop_assert_eq!(again, rendered, "round trip of {:?}", mutated);
            }
        }
    }

    #[test]
    fn from_str_deserializes_typed_values() {
        let v: Vec<u32> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let o: Option<String> = from_str("null").unwrap();
        assert_eq!(o, None);
        assert!(from_str::<Vec<u32>>("[1, -2]").is_err());
    }
}
